import random

import pytest

from butterflies.fgab import FgAbGroup, FgAbMap, map_equal, is_injective, is_surjective
from butterflies.twocomplex import (
    ChainMap, homology, shift1, embed0, zero_complex,
    complex_direct_sum, random_complex,
)
from butterflies.butterfly import from_chain_map, homology_action
from butterflies.fixtures import k2, e2, r_chain_map, Z, Z2


def test_chain_map_square_must_commute():
    with pytest.raises(ValueError):
        ChainMap(e2(), e2(), FgAbMap.identity(Z), FgAbMap.zero(Z, Z))


class TestHomology:
    def test_e2(self):
        h = homology(e2())
        assert h.hm1.is_trivial()
        assert h.h0.invariant_factors() == (0, (2,))

    def test_k2(self):
        h = homology(k2())
        assert h.hm1.invariant_factors() == (0, (2,))
        assert h.h0.invariant_factors() == (0, (2,))

    def test_degree0_embedding(self):
        h = homology(embed0(Z))
        assert h.hm1.is_trivial()
        assert h.h0.invariant_factors() == (1, ())

    def test_zero_complex(self):
        h = homology(zero_complex())
        assert h.hm1.is_trivial() and h.h0.is_trivial()

    def test_respects_direct_sums(self):
        rng = random.Random(3)
        for _ in range(10):
            a, b = random_complex(rng), random_complex(rng)
            hs = homology(complex_direct_sum(a, b))
            ra, rb = homology(a), homology(b)
            def inv(g):
                return g.invariant_factors()
            # same isomorphism class as the sum of the parts
            got = hs.hm1.invariant_factors()
            want = FgAbGroup.from_invariants(
                ra.hm1.invariant_factors()[0] + rb.hm1.invariant_factors()[0],
                sorted(ra.hm1.invariant_factors()[1] + rb.hm1.invariant_factors()[1]))
            # compare via a direct-sum presentation (chains can interleave)
            from butterflies.fgab import direct_sum
            s = direct_sum(ra.hm1, rb.hm1)
            assert got == s.invariant_factors()
            s0 = direct_sum(ra.h0, rb.h0)
            assert hs.h0.invariant_factors() == s0.invariant_factors()


def test_shift_and_embed():
    assert homology(shift1(Z2)).hm1.invariant_factors() == (0, (2,))
    assert homology(shift1(Z2)).h0.is_trivial()
    assert homology(shift1(FgAbGroup.trivial())).hm1.is_trivial()


class TestChainCompose:
    def test_identity_laws(self):
        r = r_chain_map()
        assert map_equal((ChainMap.identity(r.dst) * r).f_0, r.f_0)
        assert map_equal((r * ChainMap.identity(r.src)).f_0, r.f_0)

    def test_zero_absorbs(self):
        r = r_chain_map()
        z = ChainMap.zero(r.dst, k2()) * r
        assert z.f_0.is_zero() and z.f_m1.is_zero()

    def test_endpoint_mismatch(self):
        with pytest.raises(ValueError):
            r_chain_map() * r_chain_map()


class TestInducedMaps:
    """The maps a chain map induces on homology, through its butterfly."""

    def test_identity_induces_identities(self):
        rng = random.Random(8)
        for _ in range(8):
            cx = random_complex(rng)
            hm1, h0 = homology_action(from_chain_map(ChainMap.identity(cx)))
            assert map_equal(hm1, FgAbMap.identity(homology(cx).hm1))
            assert map_equal(h0, FgAbMap.identity(homology(cx).h0))

    def test_quasi_isomorphism_r(self):
        hm1, h0 = homology_action(from_chain_map(r_chain_map()))
        assert hm1.src.is_trivial()
        assert is_injective(h0) and is_surjective(h0)

    def test_functorial(self):
        rng = random.Random(10)
        for _ in range(6):
            a = random_complex(rng)
            f = ChainMap.identity(a)
            g = ChainMap.identity(a)
            h0_gf, h0_g, h0_f = (homology_action(from_chain_map(c))[1] for c in (g * f, g, f))
            assert map_equal(h0_gf, h0_g * h0_f)
