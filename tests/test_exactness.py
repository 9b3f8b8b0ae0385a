import random

import pytest

from butterflies.fgab import FgAbMap, map_equal, is_injective, is_surjective
from butterflies.twocomplex import zero_complex, random_complex
from butterflies.butterfly import (
    validate, zero_butterfly, kernel_b, identity_butterfly,
    random_butterfly,
)
from butterflies.exactness import (
    ZeroWitness, ButterflyShortSeq, zero_witness_find, is_left_exact,
    is_right_exact, is_exact, seq74_exact, seq75_exact,
    standard_seq_51, standard_seq_10, standard_seq_52, les,
    twisted_extension_seq, random_exact_seq,
)
from butterflies.fixtures import k2, e2


class TestZeroWitness:
    def test_kernel_inclusion_has_witness(self):
        rng = random.Random(1)
        for _ in range(8):
            y = random_butterfly(random_complex(rng), random_complex(rng), rng)
            _, incl = kernel_b(y)
            w = zero_witness_find(y, incl)
            assert w is not None

    def test_invalid_phi_rejected(self):
        y = identity_butterfly(e2())
        z = identity_butterfly(e2())
        with pytest.raises(ValueError):
            ZeroWitness(y, z, FgAbMap.identity(y.carrier))

    def test_no_witness_between_identities(self):
        # id * id = id is not isomorphic to zero for K2
        y = identity_butterfly(k2())
        assert zero_witness_find(y, y) is None


class TestStandardSequences:
    @pytest.mark.parametrize("build", [standard_seq_51, standard_seq_10, standard_seq_52])
    @pytest.mark.parametrize("cx_name", ["e2", "k2", "zero"])
    def test_exact(self, build, cx_name):
        cx = {"e2": e2(), "k2": k2(), "zero": zero_complex()}[cx_name]
        s = build(cx)
        assert validate(s.y) == [] and validate(s.z) == []
        assert is_exact(s)
        assert is_left_exact(s) and is_right_exact(s)

    def test_random_complexes(self):
        rng = random.Random(2)
        for _ in range(6):
            cx = random_complex(rng)
            for build in (standard_seq_51, standard_seq_10, standard_seq_52):
                assert is_exact(build(cx))


class TestExactnessCriteria:
    def test_left_only_fixture(self):
        # 0 -> ker(Z) -> F -> G with Z the zero composite on K2: the kernel
        # inclusion is left exact but p_Z is not onto G^0.  The witness must
        # be the canonical one phi(k, f) = -incl(k) + j_Z(f); an arbitrary
        # solver witness may fail exactness (witness choice is structure).
        from butterflies.intlinalg import hstack
        from butterflies.fgab import kernel
        z = zero_butterfly(k2(), k2())
        kcx, incl = kernel_b(z)
        kp = kernel(z.p)
        phi = FgAbMap(incl.carrier, z.carrier,
                      hstack(-kp.incl.matrix, z.j.matrix))
        w = ZeroWitness(incl, z, phi)
        s = ButterflyShortSeq(kcx, k2(), k2(), incl, z, w)
        assert is_left_exact(s)
        assert not is_right_exact(s)
        assert not is_exact(s)

    def test_witness_equivalence_chain(self):
        rng = random.Random(3)
        for _ in range(10):
            e_ = random_complex(rng, max_rank=0, max_order=8)
            g_ = random_complex(rng, max_rank=0, max_order=8)
            s = twisted_extension_seq(rng, e_, g_)
            two_sided = is_left_exact(s) and is_right_exact(s)
            assert two_sided == is_exact(s)
            assert (seq74_exact(s) and is_surjective(s.z.p)) == is_exact(s)
            assert (seq75_exact(s) and is_injective(s.y.j)) == is_exact(s)

    def test_disagreeing_criteria_raise(self, monkeypatch):
        from butterflies import exactness
        from butterflies.intlinalg import InvariantError
        s = standard_seq_10(e2())
        monkeypatch.setattr(exactness, "seq75_exact", lambda s: not seq75_exact(s))
        with pytest.raises(InvariantError):
            is_exact(s)


class TestLes:
    def test_seq51_of_e2(self):
        l = les(standard_seq_51(e2()))
        assert l.all_exact
        assert [g.invariant_factors() for g in l.groups] == \
            [(0, ()), (0, ()), (0, ()), (1, ()), (1, ()), (0, (2,))]
        # H^0 E^-1 -> H^0 E^0 is multiplication by 2 up to sign
        assert l.maps[3].matrix.to_lists() in ([[2]], [[-2]])

    def test_seq10_of_e2_delta(self):
        l = les(standard_seq_10(e2()))
        assert l.all_exact
        assert l.delta.matrix.to_lists() in ([[2]], [[-2]])

    def test_golden_delta_sign(self):
        # frozen at first green run under the fixed sign conventions
        assert les(standard_seq_10(e2())).delta.matrix.to_lists() == [[2]]

    def test_trivial_first_complex(self):
        rng = random.Random(4)
        s = twisted_extension_seq(rng, zero_complex(), k2())
        l = les(s)
        assert l.all_exact
        assert l.groups[0].is_trivial() and l.groups[3].is_trivial()

    def test_rejects_non_exact(self):
        z = zero_butterfly(k2(), k2())
        kcx, incl = kernel_b(z)
        w = zero_witness_find(z, incl)
        s = ButterflyShortSeq(kcx, k2(), k2(), incl, z, w)
        with pytest.raises(ValueError):
            les(s)

    def test_random_sequences(self):
        rng = random.Random(5)
        for _ in range(10):
            s = random_exact_seq(rng)
            assert les(s).all_exact

    def test_naturality_smoke(self):
        # the two standard sequences of the same complex fit together:
        # H^0(E^0-slot) -> H^0(E) from seq51's Z equals the one from seq10's Y
        cx = e2()
        l51 = les(standard_seq_51(cx))
        l10 = les(standard_seq_10(cx))
        # seq51: F-slot is embed0(E^0), G-slot is E; map H^0 F -> H^0 G
        m51 = l51.maps[4]
        # seq10: E-slot is embed0(E^0), F-slot is E; map H^0 E -> H^0 F
        m10 = l10.maps[3]
        assert m51.src.invariant_factors() == m10.src.invariant_factors()
        assert map_equal(m51, m10)


def test_sequence_requires_matching_witness():
    rng = random.Random(6)
    s = twisted_extension_seq(rng, k2(), k2())
    other = twisted_extension_seq(rng, k2(), k2())
    with pytest.raises(ValueError):
        ButterflyShortSeq(s.e, s.f, s.g, s.y, s.z, other.w)
