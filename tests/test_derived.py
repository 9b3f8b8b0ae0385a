from math import gcd

from butterflies.fgab import FgAbGroup, is_injective, is_surjective
from butterflies.twocomplex import homology
from butterflies.butterfly import baer_sum, two_morphism_find, validate
from butterflies.derived import (
    DerivedTensor, derived_tensor, tensor_product, biext_groups, biext_enumerate,
)

Z = FgAbGroup.free(1)


def zn(n):
    return FgAbGroup.cyclic(n)


class TestDerivedTensor:
    def test_free_argument_collapses(self):
        dt = derived_tensor(Z, zn(6))
        h = homology(dt.complex)
        assert h.hm1.is_trivial()
        assert h.h0.invariant_factors() == (0, (6,))

    def test_z4_z6(self):
        h = homology(derived_tensor(zn(4), zn(6)).complex)
        assert h.hm1.invariant_factors() == (0, (2,))
        assert h.h0.invariant_factors() == (0, (2,))

    def test_z2_z2_is_k2_shape(self):
        h = homology(derived_tensor(zn(2), zn(2)).complex)
        assert h.hm1.invariant_factors() == (0, (2,))
        assert h.h0.invariant_factors() == (0, (2,))

    def test_h0_witness_is_isomorphism(self):
        for a, b in [(zn(4), zn(6)), (Z, zn(5)), (zn(2), Z), (zn(12), zn(8))]:
            dt = derived_tensor(a, b)
            assert dt.h0_iso.src.invariant_factors() == homology(dt.complex).h0.invariant_factors()
            assert is_injective(dt.h0_iso) and is_surjective(dt.h0_iso)

    def test_tor_gcd_table(self):
        for a in range(1, 13):
            for b in range(1, 13):
                g = gcd(a, b)
                want = (0, ()) if g == 1 else (0, (g,))
                assert derived_tensor(zn(a), zn(b)).tor1.invariant_factors() == want

    def test_tor_symmetry_all_orders_up_to_16(self):
        def chains(bound, base=1):
            # invariant factor chains d1 | d2 | ... with product <= bound
            yield ()
            k = 2 if base == 1 else 1
            while base * k <= bound:
                d = base * k
                if d >= 2:
                    for rest in chains(bound // d, d):
                        yield (d,) + rest
                k += 1

        gs = [FgAbGroup.from_invariants(0, list(c)) for c in chains(16)]
        assert len(gs) > 20  # every abelian group of order <= 16
        for a in gs:
            for b in gs:
                assert derived_tensor(a, b).tor1.invariant_factors() == \
                    derived_tensor(b, a).tor1.invariant_factors()

    def test_tensor_presentation(self):
        t = tensor_product(zn(4), zn(6))
        assert t.invariant_factors() == (0, (2,))


class TestBiext:
    def test_z2_z2_over_z(self):
        bg = biext_groups(zn(2), zn(2), Z)
        assert bg.pi1.is_trivial()
        assert bg.pi0.invariant_factors() == (0, (2,))
        assert bg.filtration_sub.is_trivial()
        assert bg.filtration_quot.invariant_factors() == (0, (2,))

    def test_free_first_argument(self):
        c = zn(6)
        bg = biext_groups(Z, zn(2), c)
        # K ~ embed0(Z/2): pi1 = Hom(Z/2, Z/6), pi0 = Ext^1(Z/2, Z/6)
        assert bg.pi1.invariant_factors() == (0, (2,))
        assert bg.pi0.invariant_factors() == (0, (2,))

    def test_both_free(self):
        c = zn(6)
        bg = biext_groups(Z, Z, c)
        assert bg.pi1.invariant_factors() == c.invariant_factors()
        assert bg.pi0.is_trivial()

    def test_trivial_coefficients(self):
        bg = biext_groups(zn(4), zn(6), FgAbGroup.trivial())
        assert bg.pi1.is_trivial() and bg.pi0.is_trivial()

    def test_filtration_orders_multiply(self):
        # |pi0| = |sub| * |quot| whenever everything is finite
        cases = [(zn(2), zn(2), zn(2)), (zn(2), zn(4), zn(4)),
                 (zn(4), zn(6), zn(12)), (zn(3), zn(9), zn(3))]
        for a, b, c in cases:
            bg = biext_groups(a, b, c)
            assert bg.pi0.order() == bg.filtration_sub.order() * bg.filtration_quot.order()


class TestBiextEnumeration:
    def test_z2_z2_over_z_has_two_classes(self):
        reps = biext_enumerate(zn(2), zn(2), Z)
        assert len(reps) == 2
        for r in reps:
            assert validate(r) == []
        s = baer_sum(reps[0], reps[1])
        assert sum(1 for r in reps if two_morphism_find(s, r) is not None) == 1

    def test_finite_cases_match_pi0(self):
        for a, b, c in [(2, 2, 2), (2, 4, 4), (2, 2, 4)]:
            bg = biext_groups(zn(a), zn(b), zn(c))
            reps = biext_enumerate(zn(a), zn(b), zn(c))
            assert len(reps) == bg.pi0.order()

    def test_baer_sum_respects_group_structure(self):
        # pi0(Z/2,Z/2;Z/2) = Z/2 + Z/2: every class squares to the neutral one
        reps = biext_enumerate(zn(2), zn(2), zn(2))
        for r in reps:
            sq = baer_sum(r, r)
            neutral = [t for t in reps if two_morphism_find(sq, t) is not None]
            assert len(neutral) == 1
            assert two_morphism_find(sq, baer_sum(reps[0], reps[0])) is not None
