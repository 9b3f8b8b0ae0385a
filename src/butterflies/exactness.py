"""Complexes and exact sequences of butterflies, and the six-term homology
sequence with its connecting map.

A short sequence 0 -> E -> F -> G -> 0 of butterflies carries its zero
witness phi: carrier(Y) -> carrier(Z) as structure, not property: two
different witnesses can disagree about exactness, so the witness is stored,
never recomputed.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Optional

from .intlinalg import IntMatrix, InvariantError, hstack, vstack, block
from .fgab import (
    FgAbGroup, FgAbMap, map_equal, kernel, cokernel, is_exact_at,
    is_injective, is_surjective, hom_solve, random_map,
)
from .twocomplex import TwoTermComplex, ChainMap, homology, embed0, shift1, random_complex
from .butterfly import (
    Butterfly, from_chain_map, homology_action, cokernel_b, random_butterfly,
)


@dataclass(frozen=True)
class ZeroWitness:
    """phi making z * y isomorphic to zero: the NW-SE diagonals compose to 0."""

    y: Butterfly  # E -> F
    z: Butterfly  # F -> G
    phi: FgAbMap  # carrier(y) -> carrier(z)

    def __post_init__(self):
        if self.y.dst != self.z.src:
            raise ValueError("witness butterflies are not composable")
        if self.phi.src != self.y.carrier or self.phi.dst != self.z.carrier:
            raise ValueError("phi endpoints mismatch")
        checks = [
            (map_equal(self.phi * self.y.i, self.z.j), "phi*i = j"),
            (map_equal(self.z.q * self.phi, -self.y.p), "q*phi = -p"),
            ((self.z.p * self.phi).is_zero(), "p*phi = 0"),
            ((self.phi * self.y.j).is_zero(), "phi*j = 0"),
        ]
        for ok, name in checks:
            if not ok:
                raise ValueError(f"zero witness condition {name} fails")


def zero_witness_find(z: Butterfly, y: Butterfly) -> Optional[ZeroWitness]:
    """Search for a witness that z * y is zero."""
    if y.dst != z.src:
        raise ValueError("butterflies are not composable")
    phi = hom_solve(y.carrier, z.carrier, [
        ("pre", y.i, z.j),
        ("post", z.q, -y.p),
        ("post", z.p, FgAbMap.zero(y.carrier, z.dst.deg_0)),
        ("pre", y.j, FgAbMap.zero(y.src.deg_m1, z.carrier)),
    ])
    return None if phi is None else ZeroWitness(y, z, phi)


@dataclass(frozen=True)
class ButterflyShortSeq:
    """0 -> e --y--> f --z--> g -> 0 with its zero witness."""

    e: TwoTermComplex
    f: TwoTermComplex
    g: TwoTermComplex
    y: Butterfly
    z: Butterfly
    w: ZeroWitness

    def __post_init__(self):
        if self.y.src != self.e or self.y.dst != self.f:
            raise ValueError("y endpoints mismatch")
        if self.z.src != self.f or self.z.dst != self.g:
            raise ValueError("z endpoints mismatch")
        if self.w.y != self.y or self.w.z != self.z:
            raise ValueError("witness belongs to different butterflies")


def is_left_exact(s: ButterflyShortSeq) -> bool:
    """Exactness of 0 -> E^-1 -> Y -> Z -> G^0."""
    phi = s.w.phi
    return (is_injective(s.y.j)
            and is_exact_at(s.y.j, phi)
            and is_exact_at(phi, s.z.p))


def is_right_exact(s: ButterflyShortSeq) -> bool:
    """Exactness of E^-1 -> Y -> Z -> G^0 -> 0."""
    phi = s.w.phi
    return (is_exact_at(s.y.j, phi)
            and is_exact_at(phi, s.z.p)
            and is_surjective(s.z.p))


def seq74_exact(s: ButterflyShortSeq) -> bool:
    """0 -> E^-1 -> Y -> ker(p_Z) -> 0, i.e. E ~ ker(Z)."""
    kp = kernel(s.z.p)
    phit = kp.factor(s.w.phi)
    return (is_injective(s.y.j)
            and is_exact_at(s.y.j, phit)
            and is_surjective(phit))


def seq75_exact(s: ButterflyShortSeq) -> bool:
    """0 -> coker(j_Y) -> Z -> G^0 -> 0, i.e. coker(Y) ~ G."""
    cj = cokernel(s.y.j)
    phib = cj.induce(s.w.phi)
    return (is_injective(phib)
            and is_exact_at(phib, s.z.p)
            and is_surjective(s.z.p))


def is_exact(s: ButterflyShortSeq) -> bool:
    """Two-sided exactness, with the proof's equivalent forms cross-checked."""
    phi = s.w.phi
    out = (is_injective(s.y.j)
           and is_exact_at(s.y.j, phi)
           and is_exact_at(phi, s.z.p)
           and is_surjective(s.z.p))
    alt1 = seq74_exact(s) and is_surjective(s.z.p)
    alt2 = seq75_exact(s) and is_injective(s.y.j)
    if not out == alt1 == alt2:
        raise InvariantError("exactness criteria disagree")
    return out


# -- the standard exact sequences --------------------------------------------

def standard_seq_51(e: TwoTermComplex) -> ButterflyShortSeq:
    """0 -> E^-1 -> E^0 -> E -> 0 (degree-0 embeddings on the left)."""
    a, b = embed0(e.deg_m1), embed0(e.deg_0)
    y = from_chain_map(ChainMap(a, b, FgAbMap.zero(a.deg_m1, b.deg_m1), e.d))
    z = from_chain_map(ChainMap(b, e, FgAbMap.zero(b.deg_m1, e.deg_m1),
                                FgAbMap.identity(e.deg_0)))
    n1 = e.deg_m1.ngens
    phi = FgAbMap(y.carrier, z.carrier,
                  vstack(-e.d.matrix, -IntMatrix.identity(n1)))
    return ButterflyShortSeq(a, b, e, y, z, ZeroWitness(y, z, phi))


def standard_seq_10(e: TwoTermComplex) -> ButterflyShortSeq:
    """0 -> E^0 -> E -> E^-1[1] -> 0."""
    a, c = embed0(e.deg_0), shift1(e.deg_m1)
    y = from_chain_map(ChainMap(a, e, FgAbMap.zero(a.deg_m1, e.deg_m1),
                                FgAbMap.identity(e.deg_0)))
    z = from_chain_map(ChainMap(e, c, FgAbMap.identity(e.deg_m1),
                                FgAbMap.zero(e.deg_0, c.deg_0)))
    n0, n1 = e.deg_0.ngens, e.deg_m1.ngens
    phi = FgAbMap(y.carrier, z.carrier, block([
        [-IntMatrix.identity(n0), e.d.matrix],
        [IntMatrix.zeros(n1, n0), IntMatrix.identity(n1)],
    ]))
    return ButterflyShortSeq(a, e, c, y, z, ZeroWitness(y, z, phi))


def standard_seq_52(e: TwoTermComplex) -> ButterflyShortSeq:
    """0 -> E -> E^-1[1] -> E^0[1] -> 0."""
    b, c = shift1(e.deg_m1), shift1(e.deg_0)
    y = from_chain_map(ChainMap(e, b, FgAbMap.identity(e.deg_m1),
                                FgAbMap.zero(e.deg_0, b.deg_0)))
    z = from_chain_map(ChainMap(b, c, e.d, FgAbMap.zero(b.deg_0, c.deg_0)))
    n0, n1 = e.deg_0.ngens, e.deg_m1.ngens
    phi = FgAbMap(y.carrier, z.carrier,
                  hstack(-IntMatrix.identity(n0), e.d.matrix))
    return ButterflyShortSeq(e, b, c, y, z, ZeroWitness(y, z, phi))


# -- the six-term long exact sequence -----------------------------------------

@dataclass(frozen=True)
class LongExactSequence:
    groups: tuple   # H^-1 E, H^-1 F, H^-1 G, H^0 E, H^0 F, H^0 G
    maps: tuple     # the four outer maps and delta, in sequence order
    verdicts: tuple # injective at the head, exact at 4 interior spots, surjective at the tail

    @property
    def all_exact(self) -> bool:
        return all(self.verdicts)

    @property
    def delta(self) -> FgAbMap:
        return self.maps[2]


def les(s: ButterflyShortSeq) -> LongExactSequence:
    """0 -> H^-1 E -> H^-1 F -> H^-1 G --delta--> H^0 E -> H^0 F -> H^0 G -> 0.

    delta follows the proof: divide carrier(Y) by im(j), take kernels into
    G^0 on both carriers, invert the induced carrier map, and project to
    H^0 E.
    """
    if not is_exact(s):
        raise ValueError("les requires a two-sided exact sequence")
    he, hf, hg = homology(s.e), homology(s.f), homology(s.g)
    m1y, h0y = homology_action(s.y)
    m1z, h0z = homology_action(s.z)

    cj = cokernel(s.y.j)
    phibar = cj.induce(s.w.phi)
    yprime = kernel(s.z.p * phibar)
    zprime = kernel(s.z.p)
    phi_prime = zprime.factor(phibar * yprime.incl)
    rho = hom_solve(zprime.group, yprime.group, [
        ("pre", phi_prime, FgAbMap.identity(yprime.group)),
        ("post", phi_prime, FgAbMap.identity(zprime.group)),
    ])
    if rho is None:
        raise InvariantError("induced carrier map Y' -> Z' must be an isomorphism")
    into_zprime = zprime.factor(s.z.i * hg.incl)
    qbar = cj.induce(he.proj * s.y.q)
    delta = qbar * yprime.incl * rho * into_zprime

    groups = (he.hm1, hf.hm1, hg.hm1, he.h0, hf.h0, hg.h0)
    maps = (m1y, m1z, delta, h0y, h0z)
    verdicts = (
        is_injective(m1y),
        is_exact_at(m1y, m1z),
        is_exact_at(m1z, delta),
        is_exact_at(delta, h0y),
        is_exact_at(h0y, h0z),
        is_surjective(h0z),
    )
    return LongExactSequence(groups, maps, verdicts)


# -- randomized exact sequences ------------------------------------------------

def twisted_extension_seq(rng: random.Random, e: TwoTermComplex,
                          g: TwoTermComplex) -> ButterflyShortSeq:
    """A degreewise-split extension F = E (+) G with a random twist
    t: G^-1 -> E^0 folded into the differential; the witness is explicit."""
    t = random_map(rng, g.deg_m1, e.deg_0)
    fm1 = FgAbGroup(e.deg_m1.ngens + g.deg_m1.ngens, block([
        [e.deg_m1.relations, IntMatrix.zeros(e.deg_m1.ngens, g.deg_m1.relations.cols)],
        [IntMatrix.zeros(g.deg_m1.ngens, e.deg_m1.relations.cols), g.deg_m1.relations],
    ]))
    f0 = FgAbGroup(e.deg_0.ngens + g.deg_0.ngens, block([
        [e.deg_0.relations, IntMatrix.zeros(e.deg_0.ngens, g.deg_0.relations.cols)],
        [IntMatrix.zeros(g.deg_0.ngens, e.deg_0.relations.cols), g.deg_0.relations],
    ]))
    df = FgAbMap(fm1, f0, block([
        [e.d.matrix, t.matrix],
        [IntMatrix.zeros(g.deg_0.ngens, e.deg_m1.ngens), g.d.matrix],
    ]))
    f = TwoTermComplex(fm1, f0, df)
    ne1, ng1 = e.deg_m1.ngens, g.deg_m1.ngens
    ne0, ng0 = e.deg_0.ngens, g.deg_0.ngens
    u = ChainMap(e, f,
                 FgAbMap(e.deg_m1, fm1, vstack(IntMatrix.identity(ne1),
                                               IntMatrix.zeros(ng1, ne1))),
                 FgAbMap(e.deg_0, f0, vstack(IntMatrix.identity(ne0),
                                             IntMatrix.zeros(ng0, ne0))))
    v = ChainMap(f, g,
                 FgAbMap(fm1, g.deg_m1, hstack(IntMatrix.zeros(ng1, ne1),
                                               IntMatrix.identity(ng1))),
                 FgAbMap(f0, g.deg_0, hstack(IntMatrix.zeros(ng0, ne0),
                                             IntMatrix.identity(ng0))))
    y = from_chain_map(u)
    z = from_chain_map(v)
    # phi(e0, (em1, gm1)) = (-u0 e0 + dF (em1, gm1), v^-1 (em1, gm1))
    phi = FgAbMap(y.carrier, z.carrier, block([
        [-IntMatrix.identity(ne0), e.d.matrix, t.matrix],
        [IntMatrix.zeros(ng0, ne0), IntMatrix.zeros(ng0, ne1), g.d.matrix],
        [IntMatrix.zeros(ng1, ne0), IntMatrix.zeros(ng1, ne1), IntMatrix.identity(ng1)],
    ]))
    return ButterflyShortSeq(e, f, g, y, z, ZeroWitness(y, z, phi))


def cokernel_seq(rng: random.Random, e: TwoTermComplex,
                 f: TwoTermComplex, seed) -> Optional[ButterflyShortSeq]:
    """0 -> E -> F -> coker(Y) -> 0 for a random monomorphism Y, with the
    witness resolved by the morphism solver; None when Y is not mono or no
    witness choice is exact."""
    y = random_butterfly(e, f, seed)
    gcx, z = cokernel_b(y)
    w = zero_witness_find(z, y)
    if w is None:
        return None
    s = ButterflyShortSeq(e, f, gcx, y, z, w)
    return s if is_exact(s) else None


def random_exact_seq(rng: random.Random) -> ButterflyShortSeq:
    """A seeded random two-sided exact sequence of butterflies."""
    for _ in range(4):
        if rng.random() < 0.3:
            e = random_complex(rng, max_rank=1, max_order=8)
            f = random_complex(rng, max_rank=1, max_order=8)
            s = cokernel_seq(rng, e, f, rng)
            if s is not None:
                return s
        else:
            break
    e = random_complex(rng, max_rank=1, max_order=8)
    g = random_complex(rng, max_rank=1, max_order=8)
    s = twisted_extension_seq(rng, e, g)
    if not is_exact(s):
        raise InvariantError("a twisted extension must be exact")
    return s
