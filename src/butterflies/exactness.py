"""Complexes and exact sequences of butterflies, and the six-term homology
sequence with its connecting map.

A short sequence 0 -> E -> F -> G -> 0 of butterflies is the composable pair
(y, z) with its zero witness phi: carrier(Y) -> carrier(Z); E, F and G are
read off y and z.  The witness is structure, not property: two different
witnesses can disagree about exactness, so it is stored, never recomputed.
"""

from __future__ import annotations

import random
from itertools import islice

from .intlinalg import IntMatrix, InvariantError, Record, hstack, vstack, block, congruent
from .fgab import (
    FgAbMap, direct_sum, kernel, cokernel, lift, factor_through_injection,
    is_injective, is_surjective, exact_verdicts, hom_solve, random_map,
)
from .twocomplex import TwoTermComplex, ChainMap, homology, embed0, shift1, random_complex
from .butterfly import (
    Butterfly, from_chain_map, homology_action, cokernel_b, random_butterfly,
)


class ButterflyShortSeq(Record):
    """0 -> e --y--> f --z--> g -> 0 with phi making z * y isomorphic to zero:
    the NW-SE diagonals compose to 0."""

    y: Butterfly  # E -> F
    z: Butterfly  # F -> G
    phi: FgAbMap  # carrier(y) -> carrier(z)

    def __post_init__(self):
        """Each condition f*g = c is a congruence decided on its entries, as in TwoMorphism."""
        y, z = self.y, self.z
        if y.dst != z.src:
            raise ValueError("witness butterflies are not composable")
        if self.phi.src != y.carrier or self.phi.dst != z.carrier:
            raise ValueError("phi endpoints mismatch")
        phi = self.phi.matrix
        for rel, f, g, c, name in [
            (z.carrier.relations, phi, y.i.matrix, z.j.matrix, "phi*i = j"),
            (y.dst.deg_0.relations, z.q.matrix, phi, -y.p.matrix, "q*phi = -p"),
            (z.dst.deg_0.relations, z.p.matrix, phi, None, "p*phi = 0"),
            (z.carrier.relations, phi, y.j.matrix, None, "phi*j = 0"),
        ]:
            if not congruent(rel, f, g, c):
                raise ValueError(f"zero witness condition {name} fails")

    @property
    def e(self) -> TwoTermComplex:
        return self.y.src

    @property
    def f(self) -> TwoTermComplex:
        return self.y.dst

    @property
    def g(self) -> TwoTermComplex:
        return self.z.dst


def zero_witness_find(z: Butterfly, y: Butterfly) -> ButterflyShortSeq | None:
    """Search for a witness that z * y is zero; the sequence it makes, or None."""
    if y.dst != z.src:
        raise ValueError("butterflies are not composable")
    phi = hom_solve(y.carrier, z.carrier,
                    pre=[(y.i, z.j.matrix),
                         (y.j, IntMatrix.zeros(z.carrier.ngens, y.src.deg_m1.ngens))],
                    post=[(z.q, -y.p.matrix),
                          (z.p, IntMatrix.zeros(z.dst.deg_0.ngens, y.carrier.ngens))])
    return None if phi is None else ButterflyShortSeq(y, z, phi)


def is_left_exact(s: ButterflyShortSeq) -> bool:
    """Exactness of 0 -> E^-1 -> Y -> Z -> G^0: the first three verdicts."""
    return all(islice(exact_verdicts(s.y.j, s.phi, s.z.p), 3))


def is_right_exact(s: ButterflyShortSeq) -> bool:
    """Exactness of E^-1 -> Y -> Z -> G^0 -> 0: the last three verdicts."""
    return all(islice(exact_verdicts(s.y.j, s.phi, s.z.p), 1, None))


def seq74_exact(s: ButterflyShortSeq) -> bool:
    """0 -> E^-1 -> Y -> ker(p_Z) -> 0, i.e. E ~ ker(Z)."""
    kp = kernel(s.z.p)
    phit = factor_through_injection(kp.incl, s.y.carrier, s.phi.matrix)
    return all(exact_verdicts(s.y.j, phit))


def seq75_exact(s: ButterflyShortSeq) -> bool:
    """0 -> coker(j_Y) -> Z -> G^0 -> 0, i.e. coker(Y) ~ G."""
    cj = cokernel(s.y.j)
    phib = cj.induce(s.z.carrier, s.phi.matrix)
    return all(exact_verdicts(phib, s.z.p))


def is_exact(s: ButterflyShortSeq) -> bool:
    """Two-sided exactness, with the proof's equivalent forms cross-checked."""
    out = all(exact_verdicts(s.y.j, s.phi, s.z.p))
    alt1 = seq74_exact(s) and is_surjective(s.z.p)
    alt2 = seq75_exact(s) and is_injective(s.y.j)
    if not out == alt1 == alt2:
        raise InvariantError("exactness criteria disagree")
    return out


# -- the standard exact sequences --------------------------------------------

def chain_map_seq(u: ChainMap, v: ChainMap, h: IntMatrix) -> ButterflyShortSeq:
    """from_chain_map(v) after from_chain_map(u), for u: E -> F and v: F -> G,
    with the witness phi = [[-u^0, d_F], [h, v^-1]]: E^0 (+) F^-1 -> F^0 (+) G^-1.

    h: E^0 -> G^-1 is a homotopy from v*u to 0.  The wings of from_chain_map
    make phi*i_Y = j_Z and q_Z*phi = -p_Y hold for every h; phi is a witness
    exactly when d_G*h = -v^0*u^0 (p_Z*phi = 0) and h*d_E = -v^-1*u^-1
    (phi*j_Y = 0), which ButterflyShortSeq checks.
    """
    y, z = from_chain_map(u), from_chain_map(v)
    phi = block([[-u.f_0.matrix, v.src.d.matrix], [h, v.f_m1.matrix]])
    return ButterflyShortSeq(y, z, FgAbMap(y.carrier, z.carrier, phi))


def standard_seq_51(e: TwoTermComplex) -> ButterflyShortSeq:
    """0 -> E^-1 -> E^0 -> E -> 0 (degree-0 embeddings on the left); h = -1 on E^-1."""
    a, b = embed0(e.deg_m1), embed0(e.deg_0)
    return chain_map_seq(ChainMap(a, b, FgAbMap.zero(a.deg_m1, b.deg_m1), e.d),
                         ChainMap(b, e, FgAbMap.zero(b.deg_m1, e.deg_m1),
                                  FgAbMap.identity(e.deg_0)),
                         -IntMatrix.identity(e.deg_m1.ngens))


def standard_seq_10(e: TwoTermComplex) -> ButterflyShortSeq:
    """0 -> E^0 -> E -> E^-1[1] -> 0; h = 0."""
    a, c = embed0(e.deg_0), shift1(e.deg_m1)
    return chain_map_seq(ChainMap(a, e, FgAbMap.zero(a.deg_m1, e.deg_m1),
                                  FgAbMap.identity(e.deg_0)),
                         ChainMap(e, c, FgAbMap.identity(e.deg_m1),
                                  FgAbMap.zero(e.deg_0, c.deg_0)),
                         IntMatrix.zeros(e.deg_m1.ngens, e.deg_0.ngens))


def standard_seq_52(e: TwoTermComplex) -> ButterflyShortSeq:
    """0 -> E -> E^-1[1] -> E^0[1] -> 0; h = -1 on E^0."""
    b, c = shift1(e.deg_m1), shift1(e.deg_0)
    return chain_map_seq(ChainMap(e, b, FgAbMap.identity(e.deg_m1),
                                  FgAbMap.zero(e.deg_0, b.deg_0)),
                         ChainMap(b, c, e.d, FgAbMap.zero(b.deg_0, c.deg_0)),
                         -IntMatrix.identity(e.deg_0.ngens))


# -- the six-term long exact sequence -----------------------------------------

class LongExactSequence(Record):
    groups: tuple   # H^-1 E, H^-1 F, H^-1 G, H^0 E, H^0 F, H^0 G
    maps: tuple     # the four outer maps and delta, in sequence order
    verdicts: tuple # exact_verdicts(*maps): injective, exact at 4 interior spots, surjective

    @property
    def all_exact(self) -> bool:
        return all(self.verdicts)

    @property
    def delta(self) -> FgAbMap:
        return self.maps[2]


def les(s: ButterflyShortSeq) -> LongExactSequence | None:
    """0 -> H^-1 E -> H^-1 F -> H^-1 G --delta--> H^0 E -> H^0 F -> H^0 G -> 0.

    delta is the snake-lemma map qbar * phibar^-1 * i_Z on H^-1 G, where
    phibar: coker(j_Y) -> Z is induced by the witness and qbar: coker(j_Y)
    -> H^0 E by q_Y.  It is defined because the sequence is exact:
    seq75_exact makes 0 -> coker(j_Y) -> Z -> G^0 -> 0 exact, so phibar is
    injective with image ker(p_Z), which holds i_Z(H^-1 G).  So one lift u
    through phi gives the checked delta = proj_E * q_Y * u, and any u
    serves: phi's lattice is im(j_Y) + rel(Y), and proj_E * q_Y * j_Y =
    proj_E * d_E = 0.

    None when s is not two-sided exact: les is the one place that decides
    it, so callers do not run is_exact first.
    """
    if not is_exact(s):
        return None
    he, hf, hg = homology(s.e), homology(s.f), homology(s.g)
    m1y, h0y = homology_action(s.y)
    m1z, h0z = homology_action(s.z)

    u = lift(s.phi, s.z.i.matrix * hg.incl.matrix)  # H^-1 G -> Y, up to im(j_Y)
    if u is None:
        raise InvariantError("i_Z(H^-1 G) must lie in the image of coker(j_Y) -> Z")
    delta = FgAbMap(hg.hm1, he.h0, he.proj.matrix * s.y.q.matrix * u)

    groups = (he.hm1, hf.hm1, hg.hm1, he.h0, hf.h0, hg.h0)
    maps = (m1y, m1z, delta, h0y, h0z)
    return LongExactSequence(groups, maps, tuple(exact_verdicts(*maps)))


# -- randomized exact sequences ------------------------------------------------

def twisted_extension_seq(rng: random.Random, e: TwoTermComplex,
                          g: TwoTermComplex) -> ButterflyShortSeq:
    """A degreewise-split extension F = E (+) G with a random twist
    t: G^-1 -> E^0 folded into the differential; h = 0, because v * u = 0
    strictly."""
    t = random_map(rng, g.deg_m1, e.deg_0)
    fm1 = direct_sum(e.deg_m1, g.deg_m1)
    f0 = direct_sum(e.deg_0, g.deg_0)
    df = FgAbMap(fm1, f0, block([
        [e.d.matrix, t.matrix],
        [IntMatrix.zeros(g.deg_0.ngens, e.deg_m1.ngens), g.d.matrix],
    ]))
    f = TwoTermComplex(df)
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
    return chain_map_seq(u, v, IntMatrix.zeros(ng1, ne0))


def cokernel_seq(e: TwoTermComplex, f: TwoTermComplex,
                 rng: random.Random) -> ButterflyShortSeq | None:
    """0 -> E -> F -> coker(Y) -> 0 for a random monomorphism Y, with the
    witness resolved by the morphism solver; None when Y is not mono or no
    witness choice is exact."""
    y = random_butterfly(e, f, rng)
    _, z = cokernel_b(y)
    s = zero_witness_find(z, y)
    return s if s is not None and is_exact(s) else None


def random_exact_seq(rng: random.Random) -> ButterflyShortSeq:
    """A seeded random two-sided exact sequence of butterflies."""
    for _ in range(4):
        if rng.random() < 0.3:
            e = random_complex(rng, max_rank=1, max_order=8)
            f = random_complex(rng, max_rank=1, max_order=8)
            s = cokernel_seq(e, f, rng)
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
