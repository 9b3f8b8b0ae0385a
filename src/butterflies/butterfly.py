"""Butterflies between 2-term complexes: the 1-morphisms of the 2-category.

A butterfly src -> dst is a carrier group Y with four wings
    i: dst.deg_m1 -> Y,   j: src.deg_m1 -> Y,
    p: Y -> dst.deg_0,    q: Y -> src.deg_0,
such that q*j = d_src, p*i = -d_dst, p*j = 0 and the NE-SW diagonal
0 -> dst.deg_m1 -> Y -> src.deg_0 -> 0 is short exact.  2-morphisms are
carrier maps commuting with all four wings (automatically invertible).

Composition is the homology of  F^-1 -> Y (+) Z -> F^0  and every further
construction (kernels, pips, images, Baer sum, ...) is built from the same
subquotient machinery.  Sign conventions are fixed once (p*i = -d, the
composition complex uses (i; -j) and (-p, q), the cokernel differential is
-p) and pinned by the chain-map compatibility tests: flipping any of them
breaks the roundtrip through from_chain_map.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from functools import lru_cache
from typing import Optional

from .intlinalg import IntMatrix, InvariantError, hstack, vstack
from .fgab import (
    FgAbGroup, FgAbMap, map_equal, direct_sum, kernel, cokernel, image,
    subquotient, is_exact_at, is_injective, is_surjective,
    factor_through_injection, generator_lift, hom_solve, hom_solve_all,
    ext1_realize,
)
from .twocomplex import TwoTermComplex, ChainMap, homology


@dataclass(frozen=True)
class Butterfly:
    src: TwoTermComplex
    dst: TwoTermComplex
    carrier: FgAbGroup
    i: FgAbMap  # dst.deg_m1 -> carrier
    j: FgAbMap  # src.deg_m1 -> carrier
    p: FgAbMap  # carrier -> dst.deg_0
    q: FgAbMap  # carrier -> src.deg_0

    def __post_init__(self):
        if self.i.src != self.dst.deg_m1 or self.i.dst != self.carrier:
            raise ValueError("wing i endpoints mismatch")
        if self.j.src != self.src.deg_m1 or self.j.dst != self.carrier:
            raise ValueError("wing j endpoints mismatch")
        if self.p.src != self.carrier or self.p.dst != self.dst.deg_0:
            raise ValueError("wing p endpoints mismatch")
        if self.q.src != self.carrier or self.q.dst != self.src.deg_0:
            raise ValueError("wing q endpoints mismatch")


def validate(b: Butterfly) -> list:
    """All axiom violations, in checking order; empty list means valid."""
    bad = []
    if not map_equal(b.q * b.j, b.src.d):
        bad.append("triangle qj=d violated")
    if not map_equal(b.p * b.i, -b.dst.d):
        bad.append("triangle pi=-d violated")
    if not (b.p * b.j).is_zero():
        bad.append("pj=0 violated")
    if not is_injective(b.i):
        bad.append("diagonal not exact: i not injective")
    if not is_exact_at(b.i, b.q):
        bad.append("diagonal not exact at carrier")
    if not is_surjective(b.q):
        bad.append("diagonal not exact: q not surjective")
    if not (b.q * b.i).is_zero():
        bad.append("qi=0 violated")  # implied by exactness; sanity check
    return bad


def is_valid(b: Butterfly) -> bool:
    return not validate(b)


@dataclass(frozen=True)
class TwoMorphism:
    """An isomorphism of carriers commuting with all four wings."""

    source: Butterfly
    target: Butterfly
    m: FgAbMap        # source.carrier -> target.carrier
    inverse: FgAbMap  # target.carrier -> source.carrier

    def __post_init__(self):
        a, b = self.source, self.target
        if (a.src, a.dst) != (b.src, b.dst):
            raise ValueError("parallel butterflies required")
        for ok, name in [
            (map_equal(self.m * a.i, b.i), "m*i = i'"),
            (map_equal(self.m * a.j, b.j), "m*j = j'"),
            (map_equal(b.p * self.m, a.p), "p'*m = p"),
            (map_equal(b.q * self.m, a.q), "q'*m = q"),
            (map_equal(self.inverse * self.m, FgAbMap.identity(a.carrier)), "left inverse"),
            (map_equal(self.m * self.inverse, FgAbMap.identity(b.carrier)), "right inverse"),
        ]:
            if not ok:
                raise ValueError(f"two-morphism condition {name} fails")


# -- basic builders ----------------------------------------------------------

@lru_cache(maxsize=None)
def identity_butterfly(e: TwoTermComplex) -> Butterfly:
    """Carrier E^0 (+) E^-1 with i = (0;1), j = (d;1), p = (1,-d), q = (1,0)."""
    n0, n1 = e.deg_0.ngens, e.deg_m1.ngens
    car, _, _, _, _ = direct_sum(e.deg_0, e.deg_m1)
    i = FgAbMap(e.deg_m1, car, vstack(IntMatrix.zeros(n0, n1), IntMatrix.identity(n1)))
    j = FgAbMap(e.deg_m1, car, vstack(e.d.matrix, IntMatrix.identity(n1)))
    p = FgAbMap(car, e.deg_0, hstack(IntMatrix.identity(n0), -e.d.matrix))
    q = FgAbMap(car, e.deg_0, hstack(IntMatrix.identity(n0), IntMatrix.zeros(n0, n1)))
    return Butterfly(e, e, car, i, j, p, q)


def from_chain_map(f: ChainMap) -> Butterfly:
    """Carrier E^0 (+) F^-1 with i = (0;1), j = (d;f^-1), p = (f^0,-d), q = (1,0)."""
    e, ff = f.src, f.dst
    n0, m1 = e.deg_0.ngens, ff.deg_m1.ngens
    car, _, _, _, _ = direct_sum(e.deg_0, ff.deg_m1)
    i = FgAbMap(ff.deg_m1, car, vstack(IntMatrix.zeros(n0, m1), IntMatrix.identity(m1)))
    j = FgAbMap(e.deg_m1, car, vstack(e.d.matrix, f.f_m1.matrix))
    p = FgAbMap(car, ff.deg_0, hstack(f.f_0.matrix, -ff.d.matrix))
    q = FgAbMap(car, e.deg_0, hstack(IntMatrix.identity(n0), IntMatrix.zeros(n0, m1)))
    return Butterfly(e, ff, car, i, j, p, q)


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
    if not map_equal(b.q * s, FgAbMap.identity(b.src.deg_0)):
        raise ValueError("s is not a section of q")
    f0 = b.p * s
    fm1 = factor_through_injection(b.i, b.j - s * b.src.d)
    return ChainMap(b.src, b.dst, fm1, f0)


def find_section(b: Butterfly) -> Optional[FgAbMap]:
    """A homomorphic section of q, when the diagonal splits."""
    return hom_solve(b.src.deg_0, b.carrier,
                     [("post", b.q, FgAbMap.identity(b.src.deg_0))])


# -- composition and 2-morphisms ---------------------------------------------

def compose(z: Butterfly, y: Butterfly) -> Butterfly:
    """z * y as the homology of  F^-1 --(i;-j)--> Y (+) Z --(-p,q)--> F^0."""
    if y.dst != z.src:
        raise ValueError("compose endpoint mismatch")
    f = y.dst
    yz, _, _, _, _ = direct_sum(y.carrier, z.carrier)
    a = FgAbMap(f.deg_m1, yz, vstack(y.i.matrix, -z.j.matrix))
    bmap = FgAbMap(yz, f.deg_0, hstack(-y.p.matrix, z.q.matrix))
    sq = subquotient(a, bmap)
    w = sq.group
    j = sq.lift_in(FgAbMap(y.src.deg_m1, yz,
                           vstack(y.j.matrix, IntMatrix.zeros(z.carrier.ngens, y.src.deg_m1.ngens))))
    i = sq.lift_in(FgAbMap(z.dst.deg_m1, yz,
                           vstack(IntMatrix.zeros(y.carrier.ngens, z.dst.deg_m1.ngens), z.i.matrix)))
    p = sq.induce_out(FgAbMap(yz, z.dst.deg_0,
                              hstack(IntMatrix.zeros(z.dst.deg_0.ngens, y.carrier.ngens), z.p.matrix)))
    q = sq.induce_out(FgAbMap(yz, y.src.deg_0,
                              hstack(y.q.matrix, IntMatrix.zeros(y.src.deg_0.ngens, z.carrier.ngens))))
    return Butterfly(y.src, z.dst, w, i, j, p, q)


def two_morphism_find(a: Butterfly, b: Butterfly) -> Optional[TwoMorphism]:
    """A 2-morphism a => b, or None when the carriers cannot be matched.

    Any carrier map commuting with the wings is invertible (short five
    lemma); the inverse is constructed, never assumed.
    """
    if (a.src, a.dst) != (b.src, b.dst):
        raise ValueError("two-morphisms need parallel butterflies")
    m = hom_solve(a.carrier, b.carrier, [
        ("pre", a.i, b.i),
        ("pre", a.j, b.j),
        ("post", b.p, a.p),
        ("post", b.q, a.q),
    ])
    if m is None:
        return None
    inv = hom_solve(b.carrier, a.carrier, [
        ("pre", m, FgAbMap.identity(a.carrier)),
        ("post", m, FgAbMap.identity(b.carrier)),
    ])
    if inv is None:
        raise InvariantError("five lemma: wing-commuting carrier map must be invertible")
    return TwoMorphism(a, b, m, inv)


def baer_sum(a: Butterfly, b: Butterfly) -> Butterfly:
    """Pull the carriers back over src.deg_0, quotient by the antidiagonal
    copy of dst.deg_m1; wings add.  Neutral element: the zero composite."""
    if (a.src, a.dst) != (b.src, b.dst):
        raise ValueError("Baer sum needs parallel butterflies")
    e, f = a.src, a.dst
    s, _, _, _, _ = direct_sum(a.carrier, b.carrier)
    anti = FgAbMap(f.deg_m1, s, vstack(a.i.matrix, -b.i.matrix))
    diff = FgAbMap(s, e.deg_0, hstack(a.q.matrix, -b.q.matrix))
    sq = subquotient(anti, diff)
    w = sq.group
    i = sq.lift_in(FgAbMap(f.deg_m1, s,
                           vstack(a.i.matrix, IntMatrix.zeros(b.carrier.ngens, f.deg_m1.ngens))))
    j = sq.lift_in(FgAbMap(e.deg_m1, s, vstack(a.j.matrix, b.j.matrix)))
    p = sq.induce_out(FgAbMap(s, f.deg_0, hstack(a.p.matrix, b.p.matrix)))
    q = sq.induce_out(FgAbMap(s, e.deg_0,
                              hstack(a.q.matrix, IntMatrix.zeros(e.deg_0.ngens, b.carrier.ngens))))
    return Butterfly(e, f, w, i, j, p, q)


# -- homology functor --------------------------------------------------------

def homology_action(y: Butterfly) -> tuple:
    """(H^-1 src -> H^-1 dst, H^0 src -> H^0 dst): i^-1 j and p q^-1."""
    hs, hd = homology(y.src), homology(y.dst)
    u = factor_through_injection(y.i, y.j * hs.incl)
    hm1 = hd.corestrict_to_hm1(u)
    lifts = generator_lift(y.q, hs.cok.fro.matrix)
    if lifts is None:
        raise ValueError("q is not surjective; butterfly invalid")
    h0 = FgAbMap(hs.h0, hd.h0, hd.proj.matrix * y.p.matrix * lifts)
    return hm1, h0


# -- invertibility -----------------------------------------------------------

def is_invertible(y: Butterfly) -> bool:
    """Exactness of  0 -> src.deg_m1 -> Y -> dst.deg_0 -> 0."""
    return (is_injective(y.j) and is_exact_at(y.j, y.p) and is_surjective(y.p))


def invert(y: Butterfly) -> Butterfly:
    """Reflect across the horizontal: (i, j, p, q) -> (j, i, -q, -p).

    The signs make the identity carrier map a splitting of invert(y) * y,
    so both composites are 2-isomorphic to identities.
    """
    if not is_invertible(y):
        raise ValueError("butterfly is not invertible")
    return Butterfly(y.dst, y.src, y.carrier, y.j, y.i, -y.q, -y.p)


# -- kernels, cokernels, pips, images ----------------------------------------

def kernel_b(y: Butterfly):
    """The kernel complex [src.deg_m1 -> ker(p)] and its inclusion butterfly,
    the chain map (identity, q restricted)."""
    kp = kernel(y.p)
    dk = kp.factor(y.j)
    kcx = TwoTermComplex(y.src.deg_m1, kp.group, dk)
    incl = ChainMap(kcx, y.src, FgAbMap.identity(y.src.deg_m1), y.q * kp.incl)
    return kcx, from_chain_map(incl)


def cokernel_b(y: Butterfly):
    """The cokernel complex [coker(j) -> dst.deg_0] with differential induced
    from -p, and the butterfly of the chain map (proj * i, identity)."""
    cj = cokernel(y.j)
    dc = cj.induce(-y.p)
    ccx = TwoTermComplex(cj.group, y.dst.deg_0, dc)
    proj = ChainMap(y.dst, ccx, cj.proj * y.i, FgAbMap.identity(y.dst.deg_0))
    return ccx, from_chain_map(proj)


def pip(y: Butterfly) -> FgAbGroup:
    """ker(j), sitting in degree -1."""
    return kernel(y.j).group


def copip(y: Butterfly) -> FgAbGroup:
    """coker(p), sitting in degree 0."""
    return cokernel(y.p).group


@dataclass(frozen=True)
class Classification:
    mono: bool
    epi: bool
    faithful: bool
    cofaithful: bool


def classify(y: Butterfly) -> Classification:
    """Mono/epi via the exactness criteria, faithful/cofaithful via pip/copip.

    Faithfulness is cross-checked against injectivity of the H^-1 action and
    cofaithfulness against surjectivity of the H^0 action.
    """
    j_inj = is_injective(y.j)
    mid = is_exact_at(y.j, y.p)
    p_surj = is_surjective(y.p)
    faithful = pip(y).is_trivial()
    cofaithful = copip(y).is_trivial()
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
    img = TwoTermComplex(y.dst.deg_m1, cj.group, -(cj.proj * y.i))
    pipk = kernel(y.j)
    coim_j = cokernel(pipk.incl)
    src = TwoTermComplex(coim_j.group, y.src.deg_0, coim_j.induce(y.src.d))
    jbar = coim_j.induce(y.j)
    bf = Butterfly(src, img, y.carrier, y.i, jbar, cj.proj, y.q)
    return img, bf


def coimage_b(y: Butterfly):
    """The coimage complex [ker(p) -> src.deg_0] and the canonical invertible
    butterfly coimage -> ker(copip) with carrier Y."""
    kp = kernel(y.p)
    coim = TwoTermComplex(kp.group, y.src.deg_0, y.q * kp.incl)
    imp = image(y.p)
    dst = TwoTermComplex(y.dst.deg_m1, imp.group, -(imp.corestrict * y.i))
    bf = Butterfly(coim, dst, y.carrier, y.i, kp.incl, imp.corestrict, y.q)
    return coim, bf


def middle_exact_iso(y: Butterfly) -> tuple:
    """The chain of three invertible butterflies
    coker(pip) ~ coker(ker) ~ ker(coker) ~ ker(copip), which exists when
    src.deg_m1 -> Y -> dst.deg_0 is exact at Y."""
    if not is_exact_at(y.j, y.p):
        raise ValueError("middle exactness hypothesis fails: im(j) != ker(p)")
    pipk = kernel(y.j)
    coim_j = cokernel(pipk.incl)
    c1 = TwoTermComplex(coim_j.group, y.src.deg_0, coim_j.induce(y.src.d))
    kp = kernel(y.p)
    c2 = TwoTermComplex(kp.group, y.src.deg_0, y.q * kp.incl)
    cj = cokernel(y.j)
    c3 = TwoTermComplex(y.dst.deg_m1, cj.group, -(cj.proj * y.i))
    imp = image(y.p)
    c4 = TwoTermComplex(y.dst.deg_m1, imp.group, -(imp.corestrict * y.i))
    jbar = coim_j.induce(y.j)
    bf_a = from_chain_map(ChainMap(c1, c2, kp.factor(jbar), FgAbMap.identity(y.src.deg_0)))
    bf_b = Butterfly(c2, c3, y.carrier, y.i, kp.incl, cj.proj, y.q)
    pbar = cj.induce(imp.corestrict)
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
    if not map_equal(phi * y.i, z.j):
        raise ValueError("phi*i = j condition fails")
    if not map_equal(z.q * phi, -y.p):
        raise ValueError("q*phi = -p condition fails")
    psi_m1 = factor_through_injection(z.i, phi * y.j)
    sect = generator_lift(y.q, IntMatrix.identity(y.src.deg_0.ngens))
    if sect is None:
        raise ValueError("q is not surjective; butterfly invalid")
    psi_0 = FgAbMap(y.src.deg_0, z.dst.deg_0, -(z.p.matrix * phi.matrix * sect))
    return ChainMap(y.src, z.dst, psi_m1, psi_0)


def pullback_compose(z: Butterfly, f: ChainMap) -> Butterfly:
    """z * from_chain_map(f) computed as the pullback of z along f^0:
    carrier = ker( E^0 (+) Z --(-f0, q)--> F^0 )."""
    if f.dst != z.src:
        raise ValueError("pullback endpoints mismatch")
    e = f.src
    s, _, _, _, _ = direct_sum(e.deg_0, z.carrier)
    kk = kernel(FgAbMap(s, f.dst.deg_0, hstack(-f.f_0.matrix, z.q.matrix)))
    w = kk.group
    j = kk.factor(FgAbMap(e.deg_m1, s, vstack(e.d.matrix, (z.j * f.f_m1).matrix)))
    i = kk.factor(FgAbMap(z.dst.deg_m1, s,
                          vstack(IntMatrix.zeros(e.deg_0.ngens, z.dst.deg_m1.ngens), z.i.matrix)))
    p = FgAbMap(w, z.dst.deg_0,
                hstack(IntMatrix.zeros(z.dst.deg_0.ngens, e.deg_0.ngens), z.p.matrix) * kk.incl.matrix)
    q = FgAbMap(w, e.deg_0,
                hstack(IntMatrix.identity(e.deg_0.ngens),
                       IntMatrix.zeros(e.deg_0.ngens, z.carrier.ngens)) * kk.incl.matrix)
    return Butterfly(e, z.dst, w, i, j, p, q)


def pushout_compose(g: ChainMap, y: Butterfly) -> Butterfly:
    """from_chain_map(g) * y computed as the pushout of y along g^-1:
    carrier = coker( F^-1 --(i; -g^-1)--> Y (+) G^-1 )."""
    if y.dst != g.src:
        raise ValueError("pushout endpoints mismatch")
    gg = g.dst
    s, _, _, _, _ = direct_sum(y.carrier, gg.deg_m1)
    ck = cokernel(FgAbMap(y.dst.deg_m1, s, vstack(y.i.matrix, -g.f_m1.matrix)))
    w = ck.group
    j = ck.proj * FgAbMap(y.src.deg_m1, s,
                          vstack(y.j.matrix, IntMatrix.zeros(gg.deg_m1.ngens, y.src.deg_m1.ngens)))
    i = ck.proj * FgAbMap(gg.deg_m1, s,
                          vstack(IntMatrix.zeros(y.carrier.ngens, gg.deg_m1.ngens),
                                 IntMatrix.identity(gg.deg_m1.ngens)))
    p = ck.induce(FgAbMap(s, gg.deg_0, hstack((g.f_0 * y.p).matrix, -gg.d.matrix)))
    q = ck.induce(FgAbMap(s, y.src.deg_0,
                          hstack(y.q.matrix, IntMatrix.zeros(y.src.deg_0.ngens, gg.deg_m1.ngens))))
    return Butterfly(y.src, gg, w, i, j, p, q)


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
        jres = hom_solve_all(e.deg_m1, ycar, [("post", q, e.d)])
        if jres is None:
            continue
        for _ in range(3):
            jm = jres[0].matrix
            for km in jres[1]:
                jm = jm + rng.randint(-1, 1) * km
            j = FgAbMap(e.deg_m1, ycar, jm)
            pres = hom_solve_all(ycar, f.deg_0, [
                ("pre", i, -f.d),
                ("pre", j, FgAbMap.zero(e.deg_m1, f.deg_0)),
            ])
            if pres is None:
                continue
            pm = pres[0].matrix
            for km in pres[1]:
                pm = pm + rng.randint(-1, 1) * km
            b = Butterfly(e, f, ycar, i, j, FgAbMap(ycar, f.deg_0, pm), q)
            bad = validate(b)
            if bad:
                raise InvariantError(f"random butterfly fails its axioms: {bad[0]}")
            return b
    return zero_butterfly(e, f)
