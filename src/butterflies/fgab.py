"""Finitely generated abelian groups as presentations, morphisms as matrices.

A group is Z^ngens modulo the column span of a relation matrix; a morphism
is an integer matrix on generators, checked at construction to descend to
the quotients.  Objects are presentations, never canonical forms: equality
is presentation identity, and isomorphism is the separate, decidable
question answered by invariant_factors (plus an explicit map when needed).

Kernels, cokernels, images and subquotients return groups in simplified
(diagonal) presentation together with the maps tying them to the inputs;
nothing downstream ever needs to re-derive those maps.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from functools import lru_cache
from typing import Optional, Sequence

from .intlinalg import (
    IntMatrix, InvariantError, hstack, vstack, block, kron, snf,
    solve, solve_matrix, kernel_basis, in_col_span, _col_echelon,
)


@dataclass(frozen=True)
class FgAbGroup:
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
        """Z/n (n = 0 gives Z)."""
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

    def order(self) -> Optional[int]:
        """Number of elements, or None when infinite."""
        rank, tors = self.invariant_factors()
        if rank:
            return None
        n = 1
        for d in tors:
            n *= d
        return n

    def describe(self) -> str:
        rank, tors = self.invariant_factors()
        parts = ["Z"] * rank + [f"Z/{d}" for d in tors]
        return " + ".join(parts) if parts else "0"


@dataclass(frozen=True)
class FgAbMap:
    """A homomorphism src -> dst given by a dst.ngens x src.ngens matrix.

    Construction checks that the matrix descends to the presented quotients
    (matrix * src.relations lands in the column span of dst.relations) and
    raises ValueError otherwise; all downstream algebra assumes it.
    """

    src: FgAbGroup
    dst: FgAbGroup
    matrix: IntMatrix

    def __post_init__(self):
        if (self.matrix.rows, self.matrix.cols) != (self.dst.ngens, self.src.ngens):
            raise ValueError(
                f"matrix is {self.matrix.rows}x{self.matrix.cols}, "
                f"expected {self.dst.ngens}x{self.src.ngens}")
        if not in_col_span(self.dst.relations, self.matrix * self.src.relations):
            raise ValueError("matrix does not define a homomorphism on the presentations")

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
        if (self.src, self.dst) != (other.src, other.dst):
            raise ValueError("sum endpoint mismatch")
        return FgAbMap(self.src, self.dst, self.matrix + other.matrix)

    def __sub__(self, other: "FgAbMap") -> "FgAbMap":
        return self + (-other)

    def __neg__(self) -> "FgAbMap":
        return FgAbMap(self.src, self.dst, -self.matrix)

    def is_zero(self) -> bool:
        return in_col_span(self.dst.relations, self.matrix)


def is_well_defined(src: FgAbGroup, dst: FgAbGroup, matrix: IntMatrix) -> bool:
    """Would FgAbMap(src, dst, matrix) be accepted?"""
    if (matrix.rows, matrix.cols) != (dst.ngens, src.ngens):
        raise ValueError("dimension mismatch")
    return in_col_span(dst.relations, matrix * src.relations)


def map_equal(f: FgAbMap, g: FgAbMap) -> bool:
    """Do f and g agree as group homomorphisms?  Endpoints must be the same presentations."""
    if (f.src, f.dst) != (g.src, g.dst):
        raise ValueError("map_equal requires identical endpoints")
    return in_col_span(f.dst.relations, f.matrix - g.matrix)


# -- direct sums -----------------------------------------------------------

def direct_sum(a: FgAbGroup, b: FgAbGroup):
    """Returns (a+b, inj_a, inj_b, proj_a, proj_b); first summand leads."""
    rel = block([
        [a.relations, IntMatrix.zeros(a.ngens, b.relations.cols)],
        [IntMatrix.zeros(b.ngens, a.relations.cols), b.relations],
    ])
    s = FgAbGroup(a.ngens + b.ngens, rel)
    ia = FgAbMap(a, s, vstack(IntMatrix.identity(a.ngens), IntMatrix.zeros(b.ngens, a.ngens)))
    ib = FgAbMap(b, s, vstack(IntMatrix.zeros(a.ngens, b.ngens), IntMatrix.identity(b.ngens)))
    pa = FgAbMap(s, a, hstack(IntMatrix.identity(a.ngens), IntMatrix.zeros(a.ngens, b.ngens)))
    pb = FgAbMap(s, b, hstack(IntMatrix.zeros(b.ngens, a.ngens), IntMatrix.identity(b.ngens)))
    return s, ia, ib, pa, pb


# -- presentation simplification --------------------------------------------

@dataclass(frozen=True)
class Simplified:
    group: FgAbGroup
    to: FgAbMap    # original -> simplified
    fro: FgAbMap   # simplified -> original; mutually inverse as group maps


def simplify(g: FgAbGroup):
    """An isomorphic diagonal presentation with no unit factors.

    Internal constructions (kernels, subquotients, ...) pass through this so
    presentations never accumulate redundant generators.
    """
    s, u, _ = snf(g.relations)
    n = g.ngens
    uinv = solve_matrix(u, IntMatrix.identity(n))
    orders = [s[i, i] if i < min(s.rows, s.cols) else 0 for i in range(n)]
    kept = [i for i in range(n) if orders[i] != 1]
    new = _diag_group(orders, kept)
    to = FgAbMap(g, new, IntMatrix.from_rows([list(u.row(i)) for i in kept], n))
    fro = FgAbMap(new, g, IntMatrix(n, len(kept),
                                    (uinv[i, k] for i in range(n) for k in kept)))
    return Simplified(new, to, fro)


def _diag_group(orders, kept) -> FgAbGroup:
    tors_idx = [i for i in kept if orders[i] >= 2]
    cols = len(tors_idx)
    ent = []
    for i in kept:
        for j, tj in enumerate(tors_idx):
            ent.append(orders[i] if i == tj else 0)
    return FgAbGroup(len(kept), IntMatrix(len(kept), cols, ent))


# -- kernels, cokernels, images, subquotients --------------------------------

@dataclass(frozen=True)
class Kernel:
    group: FgAbGroup
    incl: FgAbMap  # group -> src of the original map; injective

    def factor(self, x: FgAbMap) -> FgAbMap:
        """Factor x: X -> src through incl; x must be killed by the original map."""
        return factor_through_injection(self.incl, x)


def kernel(f: FgAbMap) -> Kernel:
    a, b = f.src, f.dst
    big = kernel_basis(hstack(f.matrix, b.relations))
    gens = IntMatrix(a.ngens, big.cols,
                     (big[i, j] for i in range(a.ngens) for j in range(big.cols)))
    simp = _span(gens, a)
    return Kernel(simp.group, FgAbMap(simp.group, a, gens * simp.fro.matrix))


def _span(gens: IntMatrix, ambient: FgAbGroup) -> Simplified:
    """The subgroup of ambient generated by the columns of gens, presented
    on those columns (generator k is column k) and then simplified."""
    rel_big = kernel_basis(hstack(gens, ambient.relations))
    rel = IntMatrix(gens.cols, rel_big.cols,
                    (rel_big[i, j] for i in range(gens.cols) for j in range(rel_big.cols)))
    return simplify(FgAbGroup(gens.cols, rel))


@dataclass(frozen=True)
class Cokernel:
    group: FgAbGroup
    proj: FgAbMap  # dst of the original map -> group; surjective
    fro: FgAbMap   # group -> dst's generators modulo the image; inverse to proj

    def induce(self, y: FgAbMap) -> FgAbMap:
        """Descend y: dst -> X along proj; y must kill the original image."""
        return FgAbMap(self.group, y.dst, y.matrix * self.fro.matrix)


def cokernel(f: FgAbMap) -> Cokernel:
    b = f.dst
    pre = FgAbGroup(b.ngens, hstack(b.relations, f.matrix))
    simp = simplify(pre)
    proj = FgAbMap(b, simp.group, simp.to.matrix)
    return Cokernel(simp.group, proj, simp.fro)


@dataclass(frozen=True)
class Image:
    group: FgAbGroup
    incl: FgAbMap        # group -> dst; injective
    corestrict: FgAbMap  # src -> group; surjective; incl * corestrict == f


def image(f: FgAbMap) -> Image:
    simp = _span(f.matrix, f.dst)
    incl = FgAbMap(simp.group, f.dst, f.matrix * simp.fro.matrix)
    cores = FgAbMap(f.src, simp.group, simp.to.matrix)
    return Image(simp.group, incl, cores)


@dataclass(frozen=True)
class Subquotient:
    """H = ker(b)/im(a) for composable a, b with b*a = 0."""

    group: FgAbGroup
    ker: Kernel          # kernel of b
    proj: FgAbMap        # ker.group -> group
    fro: FgAbMap         # group -> ker.group coordinates (from the cokernel)

    def lift_in(self, x: FgAbMap) -> FgAbMap:
        """x: X -> mid with b*x = 0 induces X -> H."""
        return self.proj * self.ker.factor(x)

    def induce_out(self, y: FgAbMap) -> FgAbMap:
        """y: mid -> X with y*a = 0 induces H -> X."""
        return FgAbMap(self.group, y.dst,
                       y.matrix * self.ker.incl.matrix * self.fro.matrix)


def subquotient(a: FgAbMap, b: FgAbMap) -> Subquotient:
    if a.dst != b.src:
        raise ValueError("subquotient endpoints mismatch")
    if not (b * a).is_zero():
        raise ValueError("subquotient requires b * a = 0")
    ker = kernel(b)
    atilde = ker.factor(a)
    cok = cokernel(atilde)
    return Subquotient(cok.group, ker, cok.proj, cok.fro)


def is_exact_at(a: FgAbMap, b: FgAbMap) -> bool:
    """im(a) = ker(b)?  False (not an error) when b*a is not even zero."""
    if a.dst != b.src:
        raise ValueError("exactness endpoints mismatch")
    if not (b * a).is_zero():
        return False
    return subquotient(a, b).group.is_trivial()


def is_injective(f: FgAbMap) -> bool:
    return kernel(f).group.is_trivial()


def is_surjective(f: FgAbMap) -> bool:
    return cokernel(f).group.is_trivial()


def generator_lift(f: FgAbMap, targets: IntMatrix) -> Optional[IntMatrix]:
    """Generator-wise preimages: a raw matrix Y with f(Y e_j) = targets e_j in dst.

    The result need not define a homomorphism on src generators' relations;
    callers compose it so the composite does.
    """
    x = solve_matrix(hstack(f.matrix, f.dst.relations), targets)
    if x is None:
        return None
    n = f.src.ngens
    return IntMatrix(n, targets.cols, x.entries[:n * targets.cols])


def factor_through_injection(incl: FgAbMap, g: FgAbMap) -> FgAbMap:
    """For injective incl: K -> A and g: X -> A landing in the image, the map X -> K."""
    u = generator_lift(incl, g.matrix)
    if u is None:
        raise ValueError("map does not land in the subgroup")
    return FgAbMap(g.src, incl.src, u)


# -- affine morphism solving -------------------------------------------------

def hom_solve(src: FgAbGroup, dst: FgAbGroup, constraints: Sequence[tuple],
              ) -> Optional[FgAbMap]:
    """Find X: src -> dst satisfying every constraint, or None.

    Constraints:
      ("pre",  f, g)  with f: V -> src, g: V -> dst, meaning X * f = g;
      ("post", h, k)  with h: dst -> W, k: src -> W, meaning h * X = k.
    Everything is flattened to one integer linear system over the entries
    of X plus relation-coefficient unknowns.
    """
    res = hom_solve_all(src, dst, constraints)
    return None if res is None else res[0]


def hom_solve_all(src: FgAbGroup, dst: FgAbGroup, constraints: Sequence[tuple]):
    """Like hom_solve but returns (solution, kernel generators as matrices)."""
    na, nb = src.ngens, dst.ngens
    nx = nb * na
    congruences = [(IntMatrix.identity(nb), src.relations,
                    IntMatrix.zeros(nb, src.relations.cols), dst.relations)]
    for c in constraints:
        kind = c[0]
        if kind == "pre":
            _, f, g = c
            if f.dst != src or g.dst != dst or f.src != g.src:
                raise ValueError("pre-constraint endpoint mismatch")
            congruences.append((IntMatrix.identity(nb), f.matrix, g.matrix, dst.relations))
        elif kind == "post":
            _, h, k = c
            if h.src != dst or k.src != src or h.dst != k.dst:
                raise ValueError("post-constraint endpoint mismatch")
            congruences.append((h.matrix, IntMatrix.identity(na), k.matrix, h.dst.relations))
        else:
            raise ValueError(f"unknown constraint kind {kind!r}")

    rows = []
    rhs = []
    slack_cols = sum(rel.cols * rm.cols for (_, rm, _, rel) in congruences)
    slack_base = nx
    for (lm, rm, cm, rel) in congruences:
        a, bcols, ra = lm.rows, rm.cols, rel.cols
        for v in range(bcols):
            rmcol = rm.col(v)
            for u in range(a):
                row = [0] * (nx + slack_cols)
                lrow = lm.row(u)
                for r in range(nb):
                    lur = lrow[r]
                    if lur:
                        base = r * na
                        for cc in range(na):
                            if rmcol[cc]:
                                row[base + cc] += lur * rmcol[cc]
                for t in range(ra):
                    if rel[u, t]:
                        row[slack_base + v * ra + t] = -rel[u, t]
                rows.append(row)
                rhs.append(cm[u, v])
        slack_base += ra * bcols
    big = IntMatrix(len(rows), nx + slack_cols, (e for row in rows for e in row))
    res = solve(big, rhs)
    if res is None:
        return None
    x0, kern = res
    xmat = IntMatrix(nb, na, (x0[i, 0] for i in range(nx)))
    kmats = []
    for j in range(kern.cols):
        km = IntMatrix(nb, na, (kern[i, j] for i in range(nx)))
        if not km.is_zero():
            kmats.append(km)
    return FgAbMap(src, dst, xmat), kmats


# -- Ext^1 with explicit realizations ----------------------------------------

def free_presentation(a: FgAbGroup) -> IntMatrix:
    """Relations of a with redundant relators discarded: independent columns
    spanning the same lattice, giving 0 -> Z^m -> Z^n -> a -> 0."""
    h, _, pivot_rows = _col_echelon(a.relations)
    m = len(pivot_rows)
    return IntMatrix(a.ngens, m, (h[i, j] for i in range(a.ngens) for j in range(m)))


def power_group(c: FgAbGroup, k: int) -> FgAbGroup:
    """c^k with copy-major generators (copy index varies slowest)."""
    return FgAbGroup(k * c.ngens, kron(IntMatrix.identity(k), c.relations))


def _dual_presentation(a: FgAbGroup, c: FgAbGroup) -> tuple:
    """(r, c^n -> c^m): a's free presentation r and precomposition with it.

    The map's kernel is Hom(a, c) and its cokernel Ext^1(a, c).
    """
    r = free_presentation(a)
    return r, FgAbMap(power_group(c, a.ngens), power_group(c, r.cols),
                      kron(r.transpose(), IntMatrix.identity(c.ngens)))


def hom_group(a: FgAbGroup, c: FgAbGroup) -> FgAbGroup:
    """Hom(a, c) as a group."""
    return kernel(_dual_presentation(a, c)[1]).group


@dataclass(frozen=True)
class Ext1:
    group: FgAbGroup
    _a: FgAbGroup
    _c: FgAbGroup
    _pres: IntMatrix   # independent-column free presentation of a
    _fro: FgAbMap      # group -> C^m generator coordinates

    def realize(self, cls: Sequence[int]):
        """An extension 0 -> c -> y -> a -> 0 for the class with these coordinates.

        Returns (y, i, q).
        """
        a, c, r = self._a, self._c, self._pres
        n, m, nc = a.ngens, r.cols, c.ngens
        vec = self._fro.matrix * IntMatrix.column(list(cls))
        cmat = IntMatrix(nc, m, (vec[l * nc + t, 0] for t in range(nc) for l in range(m)))
        rel = hstack(
            vstack(r, -cmat),
            vstack(IntMatrix.zeros(n, c.relations.cols), c.relations),
        )
        pre = FgAbGroup(n + nc, rel)
        simp = simplify(pre)
        i = FgAbMap(c, simp.group,
                    simp.to.matrix * vstack(IntMatrix.zeros(n, nc), IntMatrix.identity(nc)))
        q = FgAbMap(simp.group, a,
                    hstack(IntMatrix.identity(n), IntMatrix.zeros(n, nc)) * simp.fro.matrix)
        return simp.group, i, q


@lru_cache(maxsize=None)
def ext1_realize(a: FgAbGroup, c: FgAbGroup) -> Ext1:
    """Ext^1(a, c) from a free presentation, with explicit realizations."""
    r, pre = _dual_presentation(a, c)
    cok = cokernel(pre)
    return Ext1(cok.group, a, c, r, cok.fro)


# -- randomized instances ----------------------------------------------------

def random_unimodular(rng: random.Random, n: int, steps: int = 4) -> IntMatrix:
    m = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
    for _ in range(steps * n):
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
    while d > 1 and _prod(tors) * d <= max_order:
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


def _prod(xs):
    out = 1
    for x in xs:
        out *= x
    return out


def random_map(rng: random.Random, a: FgAbGroup, b: FgAbGroup) -> FgAbMap:
    """A random homomorphism a -> b, uniform-ish over small coefficients."""
    res = hom_solve_all(a, b, [])
    if res is None:
        raise InvariantError("the zero map solves the empty system")
    base, kmats = res
    m = base.matrix
    for km in kmats:
        m = m + rng.randint(-2, 2) * km
    return FgAbMap(a, b, m)
