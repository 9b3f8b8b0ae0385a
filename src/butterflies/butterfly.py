"""Butterflies between 2-term complexes: the 1-morphisms of the 2-category.

A butterfly src -> dst is a carrier group Y with four wings
    i: dst.deg_m1 -> Y,   j: src.deg_m1 -> Y,
    p: Y -> dst.deg_0,    q: Y -> src.deg_0,
such that q*j = d_src, p*i = -d_dst, p*j = 0 and the NE-SW diagonal
0 -> dst.deg_m1 -> Y -> src.deg_0 -> 0 is short exact.  2-morphisms are
carrier maps commuting with all four wings (automatically invertible).

Composition is the homology of  F^-1 -> Y (+) Z -> F^0; the Baer sum and the
compositions with chain maps glue the same way, and kernels, pips and images
use the same subquotient machinery.  Sign conventions are fixed once (p*i = -d, the
composition complex uses (i; -j) and (-p, q), the cokernel differential is
-p) and pinned by the chain-map compatibility tests: flipping any of them
breaks the roundtrip through from_chain_map.

identity_butterfly, compose and homology_action are memoized (bounded by
intlinalg.CACHE_SIZE), so the homology functor is memoized on 1-morphisms
as twocomplex.homology is on objects.  Keys are presentation identity and a
hit returns the immutable object the first call built; a miss runs every
check, and a call that raises caches nothing.
"""

from __future__ import annotations

import random
from functools import lru_cache

from .intlinalg import (
    CACHE_SIZE, IntMatrix, InvariantError, Record, hstack, vstack, in_col_span, congruent,
)
from .fgab import (
    FgAbGroup, FgAbMap, direct_sum, kernel, cokernel, image,
    subquotient, is_exact_at, is_injective, is_surjective, exact_verdicts,
    factor_through_injection, lift, hom_solve, hom_solve_all,
    ext1_realize, map_lattice, preimage_lattice, solution_at,
)
from .twocomplex import TwoTermComplex, ChainMap, homology


class Butterfly(Record):
    """Four wings meeting in one carrier, i.dst; each wing is checked once."""

    src: TwoTermComplex
    dst: TwoTermComplex
    i: FgAbMap  # dst.deg_m1 -> carrier
    j: FgAbMap  # src.deg_m1 -> carrier
    p: FgAbMap  # carrier -> dst.deg_0
    q: FgAbMap  # carrier -> src.deg_0

    def __post_init__(self):
        car = self.i.dst
        if self.i.src != self.dst.deg_m1:
            raise ValueError("wing i endpoints mismatch")
        if self.j.src != self.src.deg_m1 or self.j.dst != car:
            raise ValueError("wing j endpoints mismatch")
        if self.p.src != car or self.p.dst != self.dst.deg_0:
            raise ValueError("wing p endpoints mismatch")
        if self.q.src != car or self.q.dst != self.src.deg_0:
            raise ValueError("wing q endpoints mismatch")

    @property
    def carrier(self) -> FgAbGroup:
        return self.i.dst


def validate(b: Butterfly) -> list:
    """All axiom violations, in checking order; empty list means valid.

    The four equations are congruences, each decided on its entries as in
    TwoMorphism: no product, difference or composite map is built.
    """
    bad = []
    q, j, p, i = b.q.matrix, b.j.matrix, b.p.matrix, b.i.matrix
    rel_e0, rel_f0 = b.src.deg_0.relations, b.dst.deg_0.relations
    if not congruent(rel_e0, q, j, b.src.d.matrix):
        bad.append("triangle qj=d violated")
    if not congruent(rel_f0, p, i, -b.dst.d.matrix):
        bad.append("triangle pi=-d violated")
    if not congruent(rel_f0, p, j):
        bad.append("pj=0 violated")
    diagonal = ("diagonal not exact: i not injective", "diagonal not exact at carrier",
                "diagonal not exact: q not surjective")
    bad += [msg for ok, msg in zip(exact_verdicts(b.i, b.q), diagonal) if not ok]
    if not congruent(rel_e0, q, i):
        bad.append("qi=0 violated")  # implied by exactness; sanity check
    return bad


class TwoMorphism(Record):
    """An isomorphism of carriers commuting with all four wings."""

    source: Butterfly
    target: Butterfly
    m: FgAbMap        # source.carrier -> target.carrier
    inverse: FgAbMap  # target.carrier -> source.carrier

    def __post_init__(self):
        """Each equation f*g = c is a congruence modulo the relations of its
        target, decided on the entries of f*g - c: no product, difference or
        composite map is built, since one of maps that descend descends
        too."""
        a, b = self.source, self.target
        if (a.src, a.dst) != (b.src, b.dst):
            raise ValueError("parallel butterflies required")
        if (self.m.src, self.m.dst) != (a.carrier, b.carrier):
            raise ValueError("two-morphism condition m: Y -> Y' fails")
        if (self.inverse.src, self.inverse.dst) != (b.carrier, a.carrier):
            raise ValueError("two-morphism condition inverse: Y' -> Y fails")
        m, inv = self.m.matrix, self.inverse.matrix
        for rel, f, g, c, name in [
            (b.carrier.relations, m, a.i.matrix, b.i.matrix, "m*i = i'"),
            (b.carrier.relations, m, a.j.matrix, b.j.matrix, "m*j = j'"),
            (a.dst.deg_0.relations, b.p.matrix, m, a.p.matrix, "p'*m = p"),
            (a.src.deg_0.relations, b.q.matrix, m, a.q.matrix, "q'*m = q"),
            (a.carrier.relations, inv, m, IntMatrix.identity(a.carrier.ngens), "left inverse"),
            (b.carrier.relations, m, inv, IntMatrix.identity(b.carrier.ngens), "right inverse"),
        ]:
            if not congruent(rel, f, g, c):
                raise ValueError(f"two-morphism condition {name} fails")


# -- basic builders ----------------------------------------------------------

@lru_cache(maxsize=CACHE_SIZE)
def identity_butterfly(e: TwoTermComplex) -> Butterfly:
    """Carrier E^0 (+) E^-1 with i = (0;1), j = (d;1), p = (1,-d), q = (1,0)."""
    return from_chain_map(ChainMap.identity(e))


def from_chain_map(f: ChainMap) -> Butterfly:
    """Carrier E^0 (+) F^-1 with i = (0;1), j = (d;f^-1), p = (f^0,-d), q = (1,0)."""
    e, ff = f.src, f.dst
    n0, m1 = e.deg_0.ngens, ff.deg_m1.ngens
    car = direct_sum(e.deg_0, ff.deg_m1)
    i = FgAbMap(ff.deg_m1, car, vstack(IntMatrix.zeros(n0, m1), IntMatrix.identity(m1)))
    j = FgAbMap(e.deg_m1, car, vstack(e.d.matrix, f.f_m1.matrix))
    p = FgAbMap(car, ff.deg_0, hstack(f.f_0.matrix, -ff.d.matrix))
    q = FgAbMap(car, e.deg_0, hstack(IntMatrix.identity(n0), IntMatrix.zeros(n0, m1)))
    return Butterfly(e, ff, i, j, p, q)


def zero_butterfly(e: TwoTermComplex, f: TwoTermComplex) -> Butterfly:
    """The composite through the zero complex: j = (d;0), p = (0,-d)."""
    return from_chain_map(ChainMap.zero(e, f))


def to_chain_map(b: Butterfly, s: FgAbMap) -> ChainMap:
    """Represent b by a chain map, given a section s of q (q*s = id).

    f^0 = p*s and f^-1 = i^-1 * (j - s*d); the result's butterfly is
    2-isomorphic to b.
    """
    if s.src != b.src.deg_0 or s.dst != b.carrier:
        raise ValueError("section endpoints mismatch")
    e0 = b.src.deg_0
    if not congruent(e0.relations, b.q.matrix, s.matrix, IntMatrix.identity(e0.ngens)):
        raise ValueError("s is not a section of q")
    fm1 = factor_through_injection(b.i, b.src.deg_m1, b.j.matrix - s.matrix * b.src.d.matrix)
    return ChainMap(b.src, b.dst, fm1, b.p * s)


def find_section(b: Butterfly) -> FgAbMap | None:
    """A homomorphic section of q, when the diagonal splits."""
    return hom_solve(b.src.deg_0, b.carrier,
                     post=[(b.q, IntMatrix.identity(b.src.deg_0.ngens))])


# -- composition and 2-morphisms ---------------------------------------------

def _glue(e: TwoTermComplex, f: TwoTermComplex, a_src: FgAbGroup, a: IntMatrix, b: FgAbMap,
          i: IntMatrix, j: IntMatrix, p: IntMatrix, q: IntMatrix) -> Butterfly:
    """The butterfly e -> f on the carrier ker(b)/im(a), for a: a_src -> b.src,
    with the wings that i, j (into b.src) and p, q (out of it) induce."""
    sq = subquotient(a_src, a, b)
    return Butterfly(e, f, sq.lift_in(f.deg_m1, i), sq.lift_in(e.deg_m1, j),
                     sq.induce_out(f.deg_0, p), sq.induce_out(e.deg_0, q))


@lru_cache(maxsize=CACHE_SIZE)
def compose(z: Butterfly, y: Butterfly) -> Butterfly:
    """z * y as the homology of  F^-1 --(i;-j)--> Y (+) Z --(-p,q)--> F^0."""
    if y.dst != z.src:
        raise ValueError("compose endpoint mismatch")
    f, ny, nz = y.dst, y.carrier.ngens, z.carrier.ngens
    yz = direct_sum(y.carrier, z.carrier)
    return _glue(y.src, z.dst, f.deg_m1, vstack(y.i.matrix, -z.j.matrix),
                 FgAbMap(yz, f.deg_0, hstack(-y.p.matrix, z.q.matrix)),
                 vstack(IntMatrix.zeros(ny, z.dst.deg_m1.ngens), z.i.matrix),
                 vstack(y.j.matrix, IntMatrix.zeros(nz, y.src.deg_m1.ngens)),
                 hstack(IntMatrix.zeros(z.dst.deg_0.ngens, ny), z.p.matrix),
                 hstack(y.q.matrix, IntMatrix.zeros(y.src.deg_0.ngens, nz)))


def two_morphism_find(a: Butterfly, b: Butterfly) -> TwoMorphism | None:
    """A 2-morphism a => b, or None when the carriers cannot be matched.

    Any carrier map m commuting with the wings is invertible (short five
    lemma); the inverse is constructed, never assumed.  One lift of the
    identity through m gives L with m*L = 1; the checked map on L
    proves its descent, and TwoMorphism's two inverse equations are the one
    check that L inverts m.  No lift, or a refusal of either, would mean m
    is no isomorphism: an InvariantError.
    """
    if (a.src, a.dst) != (b.src, b.dst):
        raise ValueError("two-morphisms need parallel butterflies")
    m = hom_solve(a.carrier, b.carrier,
                  pre=[(a.i, b.i.matrix), (a.j, b.j.matrix)],
                  post=[(b.p, a.p.matrix), (b.q, a.q.matrix)])
    if m is None:
        return None
    inv = lift(m, IntMatrix.identity(b.carrier.ngens))
    cause = None
    if inv is not None:
        try:
            return TwoMorphism(a, b, m, FgAbMap(b.carrier, a.carrier, inv))
        except ValueError as exc:
            cause = exc
    raise InvariantError("five lemma: wing-commuting carrier map must be invertible") from cause


def baer_sum(a: Butterfly, b: Butterfly) -> Butterfly:
    """Pull the carriers back over src.deg_0, quotient by the antidiagonal
    copy of dst.deg_m1; wings add.  Neutral element: the zero composite."""
    if (a.src, a.dst) != (b.src, b.dst):
        raise ValueError("Baer sum needs parallel butterflies")
    e, f, nb = a.src, a.dst, b.carrier.ngens
    s = direct_sum(a.carrier, b.carrier)
    return _glue(e, f, f.deg_m1, vstack(a.i.matrix, -b.i.matrix),
                 FgAbMap(s, e.deg_0, hstack(a.q.matrix, -b.q.matrix)),
                 vstack(a.i.matrix, IntMatrix.zeros(nb, f.deg_m1.ngens)),
                 vstack(a.j.matrix, b.j.matrix), hstack(a.p.matrix, b.p.matrix),
                 hstack(a.q.matrix, IntMatrix.zeros(e.deg_0.ngens, nb)))


# -- homology functor --------------------------------------------------------

@lru_cache(maxsize=CACHE_SIZE)
def homology_action(y: Butterfly) -> tuple:
    """(H^-1 src -> H^-1 dst, H^0 src -> H^0 dst): i^-1 j and p q^-1, by lifts
    through i and q.  Any lift through q serves: two differ by i(x) +
    relations, and proj_dst * p * i = -proj_dst * d_dst = 0.

    Memoized: an equal butterfly gets the identical pair of maps back."""
    hs, hd = homology(y.src), homology(y.dst)
    u = lift(y.i, y.j.matrix * hs.incl.matrix)
    if u is None:
        raise ValueError("map does not land in the subgroup")
    hm1 = hd.ker.factor(hs.hm1, u)
    lifts = lift(y.q, hs.cok.fro)
    if lifts is None:
        raise ValueError("q is not surjective; butterfly invalid")
    h0 = FgAbMap(hs.h0, hd.h0, hd.proj.matrix * y.p.matrix * lifts)
    return hm1, h0


# -- invertibility -----------------------------------------------------------

def is_invertible(y: Butterfly) -> bool:
    """Exactness of  0 -> src.deg_m1 -> Y -> dst.deg_0 -> 0."""
    return all(exact_verdicts(y.j, y.p))


def invert(y: Butterfly) -> Butterfly:
    """Reflect across the horizontal: (i, j, p, q) -> (j, i, -q, -p).

    The signs make the identity carrier map a splitting of invert(y) * y,
    so both composites are 2-isomorphic to identities.
    """
    if not is_invertible(y):
        raise ValueError("butterfly is not invertible")
    return Butterfly(y.dst, y.src, y.j, y.i, -y.q, -y.p)


# -- kernels, cokernels, pips, images ----------------------------------------

def kernel_b(y: Butterfly):
    """The kernel complex [src.deg_m1 -> ker(p)] and its inclusion butterfly,
    the chain map (identity, q restricted)."""
    kp = kernel(y.p)
    dk = kp.factor(y.src.deg_m1, y.j.matrix)
    kcx = TwoTermComplex(dk)
    incl = ChainMap(kcx, y.src, FgAbMap.identity(y.src.deg_m1), y.q * kp.incl)
    return kcx, from_chain_map(incl)


def cokernel_b(y: Butterfly):
    """The cokernel complex [coker(j) -> dst.deg_0] with differential induced
    from -p, and the butterfly of the chain map (proj * i, identity)."""
    cj = cokernel(y.j)
    dc = cj.induce(y.dst.deg_0, -y.p.matrix)
    ccx = TwoTermComplex(dc)
    proj = ChainMap(y.dst, ccx, cj.proj * y.i, FgAbMap.identity(y.dst.deg_0))
    return ccx, from_chain_map(proj)


def pip(y: Butterfly) -> FgAbGroup:
    """ker(j), sitting in degree -1."""
    return kernel(y.j).group


def copip(y: Butterfly) -> FgAbGroup:
    """coker(p), sitting in degree 0."""
    return cokernel(y.p).group


class Classification(Record):
    mono: bool
    epi: bool
    faithful: bool
    cofaithful: bool


def classify(y: Butterfly) -> Classification:
    """Mono/epi via the exactness criteria, faithful/cofaithful (trivial
    pip/copip) by membership.

    Faithful: j's lattice, the preimage of the carrier's relations, lies in
    the relations of src.deg_m1.  Cofaithful: p's columns and the relations
    of dst.deg_0 span every generator.  Each is cross-checked against the
    kernel or cokernel group that exact_verdicts reads (j injective, p
    surjective) and against the H^-1 or H^0 action.
    """
    j_inj, mid, p_surj = exact_verdicts(y.j, y.p)
    faithful = in_col_span(y.src.deg_m1.relations, preimage_lattice(y.j))
    cofaithful = in_col_span(map_lattice(y.p), IntMatrix.identity(y.dst.deg_0.ngens))
    hm1, h0 = homology_action(y)
    if not faithful == j_inj == is_injective(hm1):
        raise InvariantError("pip, j and the H^-1 action disagree on faithfulness")
    if not cofaithful == p_surj == is_surjective(h0):
        raise InvariantError("copip, p and the H^0 action disagree on cofaithfulness")
    return Classification(mono=j_inj and mid, epi=mid and p_surj,
                          faithful=faithful, cofaithful=cofaithful)


def image_b(y: Butterfly):
    """The image complex [dst.deg_m1 -> coker(j)] and the canonical invertible
    butterfly coker(pip) -> image with carrier Y."""
    cj = cokernel(y.j)
    img = TwoTermComplex(FgAbMap(y.dst.deg_m1, cj.group, -(cj.proj.matrix * y.i.matrix)))
    coim_j = cokernel(kernel(y.j).incl)
    src = TwoTermComplex(coim_j.induce(y.src.deg_0, y.src.d.matrix))
    jbar = coim_j.induce(y.carrier, y.j.matrix)
    bf = Butterfly(src, img, y.i, jbar, cj.proj, y.q)
    return img, bf


def coimage_b(y: Butterfly):
    """The coimage complex [ker(p) -> src.deg_0] and the canonical invertible
    butterfly coimage -> ker(copip) with carrier Y."""
    kp = kernel(y.p)
    coim = TwoTermComplex(y.q * kp.incl)
    imp = image(y.p)
    dst = TwoTermComplex(FgAbMap(y.dst.deg_m1, imp.group, -(imp.corestrict.matrix * y.i.matrix)))
    bf = Butterfly(coim, dst, y.i, kp.incl, imp.corestrict, y.q)
    return coim, bf


def middle_exact_iso(y: Butterfly) -> tuple:
    """The chain of three invertible butterflies
    coker(pip) ~ coker(ker) ~ ker(coker) ~ ker(copip), which exists when
    src.deg_m1 -> Y -> dst.deg_0 is exact at Y."""
    if not is_exact_at(y.j, y.p):
        raise ValueError("middle exactness hypothesis fails: im(j) != ker(p)")
    c3, img = image_b(y)     # img: c1 -> c3; img.j is j induced on coker(pip)
    c2, coim = coimage_b(y)  # coim: c2 -> c4; coim.p is p corestricted to im(p)
    c1, c4 = img.src, coim.dst
    kp, cj = kernel(y.p), cokernel(y.j)
    into_kp = kp.factor(c1.deg_m1, img.j.matrix)
    bf_a = from_chain_map(ChainMap(c1, c2, into_kp, FgAbMap.identity(y.src.deg_0)))
    bf_b = Butterfly(c2, c3, y.i, kp.incl, cj.proj, y.q)
    pbar = cj.induce(c4.deg_0, coim.p.matrix)
    bf_c = from_chain_map(ChainMap(c3, c4, FgAbMap.identity(y.dst.deg_m1), pbar))
    return bf_a, bf_b, bf_c


# -- splittings and compositions with chain maps ------------------------------

def splitting_compose(z: Butterfly, y: Butterfly, phi: FgAbMap) -> ChainMap:
    """Given phi: Y -> Z with phi*i_Y = j_Z and q_Z*phi = -p_Y (the central
    square anticommutes), the composite z * y is the chain map
    psi^-1 = i_Z^-1 * phi * j_Y,  psi^0 = -p_Z * phi * (section of q_Y)."""
    if y.dst != z.src:
        raise ValueError("splitting endpoints mismatch")
    if phi.src != y.carrier or phi.dst != z.carrier:
        raise ValueError("phi endpoints mismatch")
    if not congruent(z.carrier.relations, phi.matrix, y.i.matrix, z.j.matrix):
        raise ValueError("phi*i = j condition fails")
    if not congruent(y.dst.deg_0.relations, z.q.matrix, phi.matrix, -y.p.matrix):
        raise ValueError("q*phi = -p condition fails")
    psi_m1 = factor_through_injection(z.i, y.src.deg_m1, phi.matrix * y.j.matrix)
    sect = lift(y.q, IntMatrix.identity(y.src.deg_0.ngens))
    if sect is None:
        raise ValueError("q is not surjective; butterfly invalid")
    psi_0 = FgAbMap(y.src.deg_0, z.dst.deg_0, -(z.p.matrix * phi.matrix * sect))
    return ChainMap(y.src, z.dst, psi_m1, psi_0)


def pullback_compose(z: Butterfly, f: ChainMap) -> Butterfly:
    """z * from_chain_map(f) computed as the pullback of z along f^0:
    carrier = ker( E^0 (+) Z --(-f0, q)--> F^0 )."""
    if f.dst != z.src:
        raise ValueError("pullback endpoints mismatch")
    e, n0 = f.src, f.src.deg_0.ngens
    s = direct_sum(e.deg_0, z.carrier)
    return _glue(e, z.dst, FgAbGroup.trivial(), IntMatrix.zeros(s.ngens, 0),
                 FgAbMap(s, f.dst.deg_0, hstack(-f.f_0.matrix, z.q.matrix)),
                 vstack(IntMatrix.zeros(n0, z.dst.deg_m1.ngens), z.i.matrix),
                 vstack(e.d.matrix, z.j.matrix * f.f_m1.matrix),
                 hstack(IntMatrix.zeros(z.dst.deg_0.ngens, n0), z.p.matrix),
                 hstack(IntMatrix.identity(n0), IntMatrix.zeros(n0, z.carrier.ngens)))


def pushout_compose(g: ChainMap, y: Butterfly) -> Butterfly:
    """from_chain_map(g) * y computed as the pushout of y along g^-1:
    carrier = coker( F^-1 --(i; -g^-1)--> Y (+) G^-1 )."""
    if y.dst != g.src:
        raise ValueError("pushout endpoints mismatch")
    gg, ny, m1 = g.dst, y.carrier.ngens, g.dst.deg_m1.ngens
    s = direct_sum(y.carrier, gg.deg_m1)
    return _glue(y.src, gg, y.dst.deg_m1, vstack(y.i.matrix, -g.f_m1.matrix),
                 FgAbMap.zero(s, FgAbGroup.trivial()),
                 vstack(IntMatrix.zeros(ny, m1), IntMatrix.identity(m1)),
                 vstack(y.j.matrix, IntMatrix.zeros(m1, y.src.deg_m1.ngens)),
                 hstack(g.f_0.matrix * y.p.matrix, -gg.d.matrix),
                 hstack(y.q.matrix, IntMatrix.zeros(y.src.deg_0.ngens, m1)))


# -- randomized instances ------------------------------------------------------

def random_butterfly(e: TwoTermComplex, f: TwoTermComplex, seed) -> Butterfly:
    """A random valid butterfly e -> f: sample a class in Ext^1(E^0, F^-1),
    realize the carrier, then solve for compatible (j, p), resampling on
    failure.  Deterministic per seed; the zero composite is the fallback."""
    rng = seed if isinstance(seed, random.Random) else random.Random(seed)
    ext = ext1_realize(e.deg_0, f.deg_m1)
    ng = ext.group.ngens
    for _ in range(6):
        cls = [rng.randint(0, 4) for _ in range(ng)]
        ycar, i, q = ext.realize(cls)
        jres = hom_solve_all(e.deg_m1, ycar, post=[(q, e.d.matrix)])
        if jres is None:
            continue
        for _ in range(3):
            j = FgAbMap(e.deg_m1, ycar, solution_at(jres, [rng.randint(-1, 1) for _ in jres[1]]))
            pres = hom_solve_all(ycar, f.deg_0, pre=[
                (i, -f.d.matrix), (j, IntMatrix.zeros(f.deg_0.ngens, e.deg_m1.ngens))])
            if pres is None:
                continue
            pm = solution_at(pres, [rng.randint(-1, 1) for _ in pres[1]])
            b = Butterfly(e, f, i, j, FgAbMap(ycar, f.deg_0, pm), q)
            bad = validate(b)
            if bad:
                raise InvariantError(f"random butterfly fails its axioms: {bad[0]}")
            return b
    return zero_butterfly(e, f)
