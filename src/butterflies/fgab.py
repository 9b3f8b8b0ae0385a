"""Finitely generated abelian groups as presentations, morphisms as matrices.

A group is Z^ngens modulo the column span of a relation matrix; a morphism
is an integer matrix on generators, checked at construction to descend to
the quotients and then reduced modulo the target's relations, so == on maps
is map equality.  Groups are presentations, never canonical forms: equality
is presentation identity, and isomorphism is decided by invariant_factors.

Kernels, cokernels, images and subquotients return groups in simplified
(diagonal) presentation together with the maps tying them to the inputs;
nothing downstream ever needs to re-derive those maps.  A map's lattice
L = {x : f*x in rel(dst)} gets a Z-basis from one factorization, of
map_lattice(f) = [f | free_presentation(dst)]; the kernel L/rel(src) is
presented on that basis.  The image (f(src) + rel(dst))/rel(dst) is
presented in dst's coordinates, on the Hermite basis of that span from the
same cached factorization, so its Smith form has at most dst.ngens rows.
map_lattice, kernel and cokernel are memoized (bounded by
intlinalg.CACHE_SIZE), so the exactness criteria that ask about the same
maps share one computation.  Exactness at a spot is decided by membership
in a column span (is_exact_at: ker(b) in the span of map_lattice(a), the
same factored lattice kernel(a) and image(a) read), never by building the
subquotient; subquotient is for the callers that need the group itself.
exact_verdicts is the one statement of what an exact sequence is.

One way in and out: Kernel.factor, Cokernel.induce, factor_through_injection,
subquotient, Subquotient.lift_in and induce_out take the far endpoint group
and a raw IntMatrix and return one checked map; Simplified.to and fro,
Cokernel.fro and Ext1's coordinates are plain matrices.  lift(f, targets)
is the one preimage solver, on f's memoized map_lattice; two lifts differ by
an element of f's lattice, which every caller's composite kills.  hom_solve
takes a map and a raw right-hand side per constraint.  Each fact is checked
once: subquotient's b*a = 0 is the lift through ker(b), and a map's descent
is its construction.
"""

from __future__ import annotations

import random
from collections.abc import Sequence
from functools import lru_cache
from math import prod

from .intlinalg import (
    CACHE_SIZE, IntMatrix, InvariantError, Record, hstack, vstack, block, kron, snf,
    solve, solve_congruences, particular_solution, kernel_basis, span_basis, in_col_span,
    congruent, reduce_cols, hermite_basis, submatrix,
)


class FgAbGroup(Record):
    """Z^ngens / column-span(relations); relations has ngens rows."""

    ngens: int
    relations: IntMatrix

    def __post_init__(self):
        if self.relations.rows != self.ngens:
            raise ValueError("relations must have ngens rows")

    @staticmethod
    def free(rank: int) -> "FgAbGroup":
        return FgAbGroup(rank, IntMatrix(rank, 0, ()))

    @staticmethod
    def cyclic(n: int) -> "FgAbGroup":
        """Z/n; n = 0 gives Z:
        >>> FgAbGroup.cyclic(0) == FgAbGroup.free(1)
        True
        """
        if n == 0:
            return FgAbGroup.free(1)
        return FgAbGroup(1, IntMatrix(1, 1, (n,)))

    @staticmethod
    def from_invariants(rank: int, torsion: Sequence[int]) -> "FgAbGroup":
        n = rank + len(torsion)
        rel = IntMatrix(n, len(torsion),
                        (torsion[j] if i == j else 0 for i in range(n) for j in range(len(torsion))))
        return FgAbGroup(n, rel)

    @staticmethod
    def trivial() -> "FgAbGroup":
        return FgAbGroup(0, IntMatrix(0, 0, ()))

    def invariant_factors(self) -> tuple:
        """(free rank, torsion divisor chain), a complete isomorphism invariant."""
        s, _, _ = snf(self.relations)
        diag = [s[i, i] for i in range(min(s.rows, s.cols))]
        nonzero = [d for d in diag if d != 0]
        rank = self.ngens - len(nonzero)
        return (rank, tuple(d for d in nonzero if d != 1))

    def is_trivial(self) -> bool:
        return self.invariant_factors() == (0, ())

    def order(self) -> int | None:
        """Number of elements, or None when infinite."""
        rank, tors = self.invariant_factors()
        if rank:
            return None
        return prod(tors)

    def describe(self) -> str:
        """
        >>> FgAbGroup.from_invariants(1, [2, 4]).describe(), FgAbGroup.trivial().describe()
        ('Z + Z/2 + Z/4', '0')
        """
        rank, tors = self.invariant_factors()
        parts = ["Z"] * rank + [f"Z/{d}" for d in tors]
        return " + ".join(parts) if parts else "0"


class FgAbMap(Record):
    """A homomorphism src -> dst given by a dst.ngens x src.ngens matrix,
    kept as reduce_cols(dst.relations, matrix), so == is map equality.

    Construction checks that the matrix descends to the presented quotients
    (matrix * src.relations lands in the column span of dst.relations) and
    raises ValueError otherwise; all downstream algebra assumes it.
    """

    src: FgAbGroup
    dst: FgAbGroup
    matrix: IntMatrix

    def __post_init__(self):
        if not is_well_defined(self.src, self.dst, self.matrix):
            raise ValueError("matrix does not define a homomorphism on the presentations")
        if self.dst.relations.cols:  # into a free group every matrix is reduced
            object.__setattr__(self, "matrix", reduce_cols(self.dst.relations, self.matrix))

    @staticmethod
    def identity(g: FgAbGroup) -> "FgAbMap":
        return FgAbMap(g, g, IntMatrix.identity(g.ngens))

    @staticmethod
    def zero(src: FgAbGroup, dst: FgAbGroup) -> "FgAbMap":
        return FgAbMap(src, dst, IntMatrix.zeros(dst.ngens, src.ngens))

    def __mul__(self, other: "FgAbMap") -> "FgAbMap":
        """Composition: (g * f)(x) = g(f(x))."""
        if not isinstance(other, FgAbMap):
            return NotImplemented
        if other.dst != self.src:
            raise ValueError("composition endpoint mismatch")
        return FgAbMap(other.src, self.dst, self.matrix * other.matrix)

    def __add__(self, other: "FgAbMap") -> "FgAbMap":
        if not isinstance(other, FgAbMap):
            return NotImplemented
        if (self.src, self.dst) != (other.src, other.dst):
            raise ValueError("sum endpoint mismatch")
        return FgAbMap(self.src, self.dst, self.matrix + other.matrix)

    def __neg__(self) -> "FgAbMap":
        return FgAbMap(self.src, self.dst, -self.matrix)

    def is_zero(self) -> bool:
        return not any(self.matrix.entries)  # the matrix is kept reduced


def is_well_defined(src: FgAbGroup, dst: FgAbGroup, matrix: IntMatrix) -> bool:
    """Would FgAbMap(src, dst, matrix) be accepted?  Raises on a bad shape.

    True at once, after the shape check, when src has no relations (is
    free): the product matrix * src.relations to test then has no columns.
    Otherwise one congruence, decided on the product's entries.
    """
    if (matrix.rows, matrix.cols) != (dst.ngens, src.ngens):
        raise ValueError(f"matrix is {matrix.rows}x{matrix.cols}, "
                         f"expected {dst.ngens}x{src.ngens}")
    if not src.relations.cols:
        return True
    return congruent(dst.relations, matrix, src.relations)


# -- direct sums -----------------------------------------------------------

def direct_sum(a: FgAbGroup, b: FgAbGroup) -> FgAbGroup:
    """a + b, generators of a first: block-diagonal relations."""
    rel = block([
        [a.relations, IntMatrix.zeros(a.ngens, b.relations.cols)],
        [IntMatrix.zeros(b.ngens, a.relations.cols), b.relations],
    ])
    return FgAbGroup(a.ngens + b.ngens, rel)


# -- presentation simplification --------------------------------------------

class Simplified(Record):
    group: FgAbGroup
    to: IntMatrix    # original -> simplified coordinates
    fro: IntMatrix   # simplified -> original; mutually inverse as group maps


def simplify(g: FgAbGroup):
    """An isomorphic diagonal presentation with no unit factors, so the
    group is trivial exactly when the presentation has no generators.

    Internal constructions (kernels, subquotients, ...) pass through this so
    presentations never accumulate redundant generators.  A presentation
    already in the form this returns (_in_simplified_form) is its own Smith
    form with U = W = I (Cohen, GTM 138, section 2.4), so it comes back as
    it is, with identity maps and no snf: a free group, say, or a cyclic one.
    """
    n = g.ngens
    if _in_simplified_form(g.relations):
        eye = IntMatrix.identity(n)
        return Simplified(g, eye, eye)
    s, u, uinv = snf(g.relations)
    diag = [s[i, i] for i in range(min(s.rows, s.cols))]
    # the divisor chain runs units, torsion orders, zeros: the kept generators are a tail
    units, nonzero = diag.count(1), len(diag) - diag.count(0)
    kept = range(units, n)
    group = FgAbGroup(len(kept), submatrix(s, kept, range(units, nonzero)))
    return Simplified(group, submatrix(u, kept), submatrix(uinv, range(n), kept))


def _in_simplified_form(rel: IntMatrix) -> bool:
    """Is rel what simplify returns: t <= rel.rows columns, a divisor chain
    d_1 | ... | d_t >= 2 on the diagonal and zeros elsewhere (t = 0: free)?"""
    t, e = rel.cols, rel.entries
    d = e[::t + 1][:t]
    return (t <= rel.rows and e.count(0) == len(e) - t and min(d, default=2) >= 2
            and all(b % a == 0 for a, b in zip(d, d[1:])))


# -- kernels, cokernels, images, subquotients --------------------------------

class Kernel(Record):
    group: FgAbGroup
    incl: FgAbMap  # group -> src of the original map; injective

    def factor(self, src: FgAbGroup, x: IntMatrix) -> FgAbMap:
        """Factor a matrix x: src -> incl.dst, killed by the original map, through incl."""
        return factor_through_injection(self.incl, src, x)


@lru_cache(maxsize=CACHE_SIZE)
def map_lattice(f: FgAbMap) -> IntMatrix:
    """[f | free_presentation(dst)], the one matrix factored for f's lattice:
    its kernel's top rows give preimage_lattice, its span is
    f(src) + rel(dst), which image and is_exact_at read.  Memoized, so each
    map's matrix is built once and its factorization looked up through the
    matrix the memo keeps."""
    return hstack(f.matrix, free_presentation(f.dst))


def preimage_lattice(f: FgAbMap) -> IntMatrix:
    """A Z-basis, as columns, of L = {x : f*x in rel(dst)}, the preimage of
    dst's relations: the top src.ngens rows of the kernel of map_lattice(f).
    Those relators are independent, so the cut loses and repeats no kernel
    vector (Cohen, GTM 138, section 2.4.3).  kernel reads it, and image the
    span of the same cached factorization."""
    return kernel_basis(map_lattice(f), f.src.ngens)


@lru_cache(maxsize=CACHE_SIZE)
def kernel(f: FgAbMap) -> Kernel:
    """L/rel(src), presented on the basis of L and then simplified."""
    gens = preimage_lattice(f)
    # exact because f descends: rel(src) lies in L
    rel = solve(gens, f.src.relations)
    if rel is None:
        raise InvariantError("a map's lattice must contain its source's relations")
    simp = simplify(FgAbGroup(gens.cols, rel))
    return Kernel(simp.group, FgAbMap(simp.group, f.src, gens * simp.fro))


class Cokernel(Record):
    group: FgAbGroup
    proj: FgAbMap         # dst of the original map -> group; surjective
    fro: IntMatrix        # group -> dst's generators modulo the image; inverse to proj
    lattice: IntMatrix    # [dst.relations | original matrix]: what proj kills

    def induce(self, dst: FgAbGroup, y: IntMatrix) -> FgAbMap:
        """Descend a matrix y: (the original map's dst) -> dst along proj.
        ValueError unless y kills lattice (one congruence)."""
        if not congruent(dst.relations, y, self.lattice):
            raise ValueError("matrix does not define a homomorphism on the presentations")
        return FgAbMap(self.group, dst, y * self.fro)


@lru_cache(maxsize=CACHE_SIZE)
def cokernel(f: FgAbMap) -> Cokernel:
    rel = hstack(f.dst.relations, f.matrix)
    simp = simplify(FgAbGroup(f.dst.ngens, rel))
    return Cokernel(simp.group, FgAbMap(f.dst, simp.group, simp.to), simp.fro, rel)


class Image(Record):
    group: FgAbGroup
    incl: FgAbMap        # group -> dst; injective
    corestrict: FgAbMap  # src -> group; surjective; incl * corestrict == f


def image(f: FgAbMap) -> Image:
    """(f(src) + rel(dst))/rel(dst), presented in dst's coordinates, then
    simplified.  map_lattice(f) = h*y, on the Hermite basis h of its span
    (the factorization preimage_lattice uses); h's columns are independent,
    so the image is Z^r modulo the coordinates y of dst's relators, included
    by h and reached from src by the coordinates of f."""
    na = f.src.ngens
    h, y = span_basis(map_lattice(f))
    r = h.cols
    simp = simplify(FgAbGroup(r, submatrix(y, range(r), range(na, y.cols))))
    incl = FgAbMap(simp.group, f.dst, h * simp.fro)
    cores = FgAbMap(f.src, simp.group, simp.to * submatrix(y, range(r), range(na)))
    return Image(simp.group, incl, cores)


class Subquotient(Record):
    """H = ker(b)/im(a) for composable a, b with b*a = 0: the cokernel of a
    factored through ker(b).

    Like Kernel.factor and Cokernel.induce, subquotient, lift_in and
    induce_out take the far endpoint group and a raw matrix, so callers that
    hold only blocks build no map for them; each returns one checked map.
    """

    ker: Kernel    # kernel of b
    cok: Cokernel  # cokernel of a factored through ker.incl

    @property
    def group(self) -> FgAbGroup:
        return self.cok.group

    def lift_in(self, src: FgAbGroup, x: IntMatrix) -> FgAbMap:
        """A matrix x: src -> mid with b*x = 0 induces src -> H.

        Lifts x's generators through ker(b)'s inclusion once and returns
        the one checked map proj * lift.  Raises ValueError when x does not
        land in ker(b).
        """
        u = lift(self.ker.incl, x)
        if u is None:
            raise ValueError("map does not land in the subgroup")
        return FgAbMap(src, self.group, self.cok.proj.matrix * u)

    def induce_out(self, dst: FgAbGroup, y: IntMatrix) -> FgAbMap:
        """A matrix y: mid -> dst with y*a = 0 induces H -> dst."""
        return self.cok.induce(dst, y * self.ker.incl.matrix)


def subquotient(src: FgAbGroup, a: IntMatrix, b: FgAbMap) -> Subquotient:
    """ker(b)/im(a) for a matrix a: src -> b.src.  The one checked map that
    factors a through ker(b) is the one check: the lift exists exactly when
    b*a = 0, and the map proves a's descent."""
    if (a.rows, a.cols) != (b.src.ngens, src.ngens):
        raise ValueError("subquotient endpoints mismatch")
    ker = kernel(b)
    return Subquotient(ker, cokernel(ker.factor(src, a)))


def is_exact_at(a: FgAbMap, b: FgAbMap) -> bool:
    """im(a) = ker(b)?  False (not an error) when b*a is not even zero.

    Decided by two membership tests, with no subquotient built: b*a = 0
    (a congruence modulo b.dst's relations, on the product's entries; a
    product with no nonzero entry is answered without factoring), and then
    ker(b) lies in im(a) + relations of the middle group, i.e. the kernel's
    generators lie in the span of map_lattice(a), whose factorization
    kernel(a) and image(a) share.  Given b*a = 0 that is the same as
    ker(b)/im(a) being trivial.
    """
    if a.dst != b.src:
        raise ValueError("exactness endpoints mismatch")
    if not congruent(b.dst.relations, b.matrix, a.matrix):
        return False
    return in_col_span(map_lattice(a), kernel(b).incl.matrix)


def is_injective(f: FgAbMap) -> bool:
    return not kernel(f).group.ngens


def is_surjective(f: FgAbMap) -> bool:
    return not cokernel(f).group.ngens


def exact_verdicts(*maps: FgAbMap):
    """The verdicts for 0 -> A_0 -> ... -> A_n -> 0 along maps, lazily:
    injective at the head, exact at each interior spot, surjective at the
    tail.  all(...) stops at the first failure; one map gives (injective,
    surjective), i.e. isomorphism."""
    yield is_injective(maps[0])
    for a, b in zip(maps, maps[1:]):
        yield is_exact_at(a, b)
    yield is_surjective(maps[-1])


def lift(f: FgAbMap, targets: IntMatrix) -> IntMatrix | None:
    """A raw X with f*X = targets modulo dst's relations, or None: one solve
    on the memoized map_lattice(f).  X is unique up to columns of f's
    lattice {x : f*x in rel(dst)}, which is rel(src) for an injection and
    which every other caller's composite kills; X itself need not descend."""
    return solve(map_lattice(f), targets, f.src.ngens)


def factor_through_injection(incl: FgAbMap, src: FgAbGroup, x: IntMatrix) -> FgAbMap:
    """For injective incl: K -> A and a matrix x: src -> A landing in the
    image, the map src -> K.  ValueError when x does not land in it."""
    u = lift(incl, x)
    if u is None:
        raise ValueError("map does not land in the subgroup")
    return FgAbMap(src, incl.src, u)


# -- affine morphism solving -------------------------------------------------

def hom_solve(src: FgAbGroup, dst: FgAbGroup, pre: Sequence[tuple] = (),
              post: Sequence[tuple] = ()) -> FgAbMap | None:
    """Find X: src -> dst with X*f = g for each (f, g) in pre and h*X = k
    for each (h, k) in post, or None.

    The maps f: V -> src and h: dst -> W state the constraints; g and k are
    raw matrices, which need no descent proof: any solution makes them
    descend.  intlinalg.particular_solution checks their shapes and solves
    one integer system in the entries of X and relation coefficients, for
    one solution only: the homogeneous ones are hom_solve_all's.
    """
    x = particular_solution(dst.ngens, src.ngens, _hom_congruences(src, dst, pre, post))
    return None if x is None else FgAbMap(src, dst, x)


def hom_solve_all(src: FgAbGroup, dst: FgAbGroup, pre: Sequence[tuple] = (),
                  post: Sequence[tuple] = ()):
    """Like hom_solve but returns raw matrices, (one solution, the kernel
    generators), so callers that combine them build no map for the parts."""
    return solve_congruences(dst.ngens, src.ngens, _hom_congruences(src, dst, pre, post))


def _hom_congruences(src: FgAbGroup, dst: FgAbGroup, pre: Sequence[tuple],
                     post: Sequence[tuple]) -> list:
    """hom_solve's constraints, and X's descent to src's relations, as
    congruences (L, R, C, Rel) on X: L*X*R = C modulo Rel, with None for
    each identity factor."""
    congruences = [(None, src.relations, IntMatrix.zeros(dst.ngens, src.relations.cols),
                    dst.relations)]
    for f, g in pre:
        if f.dst != src:
            raise ValueError("pre-constraint endpoint mismatch")
        congruences.append((None, f.matrix, g, dst.relations))
    for h, k in post:
        if h.src != dst:
            raise ValueError("post-constraint endpoint mismatch")
        congruences.append((h.matrix, None, k, h.dst.relations))
    return congruences


def solution_at(solutions: tuple, coeffs: Sequence[int]) -> IntMatrix:
    """x0 + sum of c_k * K_k, the point of a solution set (x0, Ks) that
    hom_solve_all returns at one integer coefficient per K_k."""
    x, ks = solutions
    for c, k in zip(coeffs, ks, strict=True):
        x = x + c * k
    return x


# -- Ext^1 with explicit realizations ----------------------------------------

def free_presentation(a: FgAbGroup) -> IntMatrix:
    """Relations of a with redundant relators discarded: independent columns
    spanning the same lattice, giving 0 -> Z^m -> Z^n -> a -> 0."""
    return hermite_basis(a.relations)


def power_group(c: FgAbGroup, k: int) -> FgAbGroup:
    """c^k with copy-major generators (copy index varies slowest)."""
    return FgAbGroup(k * c.ngens, kron(IntMatrix.identity(k), c.relations))


def precompose(r: IntMatrix, c: FgAbGroup) -> FgAbMap:
    """Hom(-, c) applied to r: the map c^(r.rows) -> c^(r.cols), X -> X*r."""
    return FgAbMap(power_group(c, r.rows), power_group(c, r.cols), precompose_matrix(r, c))


def precompose_matrix(r: IntMatrix, c: FgAbGroup) -> IntMatrix:
    """The matrix of precompose(r, c), for callers that only pass it on."""
    return kron(r.transpose(), IntMatrix.identity(c.ngens))


def dual_presentation(a: FgAbGroup, c: FgAbGroup) -> tuple:
    """(r, precompose(r, c)) for a's free presentation r.

    The map's kernel is Hom(a, c) and its cokernel Ext^1(a, c).
    """
    r = free_presentation(a)
    return r, precompose(r, c)


def hom_group(a: FgAbGroup, c: FgAbGroup) -> FgAbGroup:
    """Hom(a, c) as a group."""
    return kernel(dual_presentation(a, c)[1]).group


class Ext1(Record):
    group: FgAbGroup
    _a: FgAbGroup
    _c: FgAbGroup
    _pres: IntMatrix   # independent-column free presentation of a
    _fro: IntMatrix    # group -> C^m generator coordinates

    def realize(self, cls: Sequence[int]):
        """An extension 0 -> c -> y -> a -> 0 for the class with these coordinates.

        Returns (y, i, q).
        """
        a, c, r = self._a, self._c, self._pres
        n, m, nc = a.ngens, r.cols, c.ngens
        vec = self._fro * IntMatrix.column(list(cls))
        cmat = IntMatrix(nc, m, (vec[l * nc + t, 0] for t in range(nc) for l in range(m)))
        rel = block([[r, IntMatrix.zeros(n, c.relations.cols)], [-cmat, c.relations]])
        simp = simplify(FgAbGroup(n + nc, rel))
        i = FgAbMap(c, simp.group, simp.to * vstack(IntMatrix.zeros(n, nc), IntMatrix.identity(nc)))
        q = FgAbMap(simp.group, a, submatrix(simp.fro, range(n)))
        return simp.group, i, q


@lru_cache(maxsize=CACHE_SIZE)
def ext1_realize(a: FgAbGroup, c: FgAbGroup) -> Ext1:
    """Ext^1(a, c) from a free presentation, with explicit realizations."""
    r, pre = dual_presentation(a, c)
    cok = cokernel(pre)
    return Ext1(cok.group, a, c, r, cok.fro)


# -- randomized instances ----------------------------------------------------

def random_unimodular(rng: random.Random, n: int) -> IntMatrix:
    m = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
    for _ in range(4 * n):
        i, j = rng.randrange(n), rng.randrange(n)
        if i == j:
            continue
        q = rng.choice([-2, -1, 1, 2])
        for k in range(n):
            m[i][k] += q * m[j][k]
    return IntMatrix.from_rows(m, n)


def random_group(rng: random.Random, max_rank: int = 2, max_order: int = 16) -> FgAbGroup:
    rank = rng.choice([0, 0, 0, min(1, max_rank), min(1, max_rank), max_rank])
    tors = []
    d = rng.choice([1, 1, 2, 2, 3, 4])
    while d > 1 and prod(tors) * d <= max_order:
        tors.append(d)
        d *= rng.choice([1, 2, 2, 3])
        if rng.random() < 0.5:
            break
    g = FgAbGroup.from_invariants(rank, tors)
    if g.ngens and rng.random() < 0.5:
        # same group, scrambled presentation, sometimes with redundant relators
        p = random_unimodular(rng, g.ngens)
        rel = p * g.relations
        if rel.cols and rng.random() < 0.3:
            extra = rel * IntMatrix.column([rng.randint(-1, 1) for _ in range(rel.cols)])
            rel = hstack(rel, extra)
        g = FgAbGroup(g.ngens, rel)
    return g


def random_map(rng: random.Random, a: FgAbGroup, b: FgAbGroup) -> FgAbMap:
    """A random homomorphism a -> b, uniform-ish over small coefficients."""
    res = hom_solve_all(a, b)
    if res is None:
        raise InvariantError("the zero map solves the empty system")
    return FgAbMap(a, b, solution_at(res, [rng.randint(-2, 2) for _ in res[1]]))
