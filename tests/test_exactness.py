import random
import re

import pytest

from butterflies.intlinalg import IntMatrix
from butterflies.fgab import (
    FgAbGroup, FgAbMap, map_equal, is_injective, is_surjective, hom_solve, kernel, cokernel,
)
from butterflies.twocomplex import TwoTermComplex, ChainMap, homology, zero_complex, random_complex
from butterflies.butterfly import (
    Butterfly, validate, zero_butterfly, kernel_b, identity_butterfly,
    random_butterfly,
)
from butterflies.exactness import (
    ButterflyShortSeq, zero_witness_find, is_left_exact,
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
            ButterflyShortSeq(y, z, FgAbMap.identity(y.carrier))

    @pytest.mark.parametrize("wing, value, message", [
        ("zj", 2, "zero witness condition phi*i = j fails"),
        ("yp", 1, "zero witness condition q*phi = -p fails"),
        ("zp", 1, "zero witness condition p*phi = 0 fails"),
        ("yj", 1, "zero witness condition phi*j = 0 fails"),
        (None, None, "components do not commute with the differentials"),
    ])
    def test_each_refusal_named(self, wing, value, message):
        # every group is Z, so each equation is one integer equation: with
        # phi = 1 the wings below satisfy all four, and each change breaks one
        z1 = FgAbGroup.free(1)

        def one(k):
            return FgAbMap(z1, z1, IntMatrix.from_rows([[k]]))

        w = {"yi": 1, "yj": 0, "yp": -1, "zj": 1, "zq": 1, "zp": 0}
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            if wing is None:
                cx = TwoTermComplex(one(1))
                ChainMap(cx, cx, one(1), one(0))
            else:
                w[wing] = value
                cx = TwoTermComplex(one(0))
                y = Butterfly(cx, cx, one(w["yi"]), one(w["yj"]), one(w["yp"]), one(1))
                z = Butterfly(cx, cx, one(1), one(w["zj"]), one(w["zp"]), one(w["zq"]))
                ButterflyShortSeq(y, z, one(1))

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
        z = zero_butterfly(k2(), k2())
        _, incl = kernel_b(z)
        kp = kernel(z.p)
        phi = FgAbMap(incl.carrier, z.carrier,
                      hstack(-kp.incl.matrix, z.j.matrix))
        s = ButterflyShortSeq(incl, z, phi)
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
        _, incl = kernel_b(z)
        s = zero_witness_find(z, incl)
        assert not is_exact(s)
        assert les(s) is None

    def test_random_sequences(self):
        rng = random.Random(5)
        for _ in range(10):
            s = random_exact_seq(rng)
            assert les(s).all_exact

    def test_delta_matches_two_sided_solve(self):
        """les lifts i_Z once through phibar: coker(j_Y) -> Z; its delta must
        agree, as a map, with the proof's construction: kernels Y' and Z'
        into G^0, the induced carrier map f: Y' -> Z' inverted as X with
        X*f = 1 and f*X = 1, and projection to H^0 E."""
        def reference_delta(s):
            he, hg = homology(s.e), homology(s.g)
            cj = cokernel(s.y.j)
            yprime = kernel(cj.induce(s.g.deg_0, s.z.p.matrix * s.phi.matrix))
            zprime = kernel(s.z.p)
            f = zprime.factor(yprime.group, s.phi.matrix * cj.fro * yprime.incl.matrix)
            rho = hom_solve(f.dst, f.src, pre=[(f, IntMatrix.identity(f.src.ngens))],
                            post=[(f, IntMatrix.identity(f.dst.ngens))])
            assert rho is not None
            into_zprime = zprime.factor(hg.hm1, s.z.i.matrix * hg.incl.matrix)
            qbar = he.proj.matrix * s.y.q.matrix * cj.fro
            return FgAbMap(hg.hm1, he.h0,
                           qbar * yprime.incl.matrix * rho.matrix * into_zprime.matrix)

        rng = random.Random(11)
        seqs = [random_exact_seq(rng) for _ in range(60)] + [standard_seq_10(e2())]
        deltas = [les(s).delta for s in seqs]
        solved = [reference_delta(s) for s in seqs]
        assert all(map_equal(d, r) for d, r in zip(deltas, solved))
        # not vacuous: some deltas are nonzero, and some differ as matrices
        assert sum(not d.is_zero() for d in deltas) >= 10
        assert any(d.matrix != r.matrix for d, r in zip(deltas, solved))

    def test_failed_lift_is_invariant_error(self, monkeypatch):
        # is_exact has shown phibar injective onto ker(p_Z), so the one lift
        # through it cannot fail on a valid sequence
        from butterflies import exactness
        from butterflies.intlinalg import InvariantError
        monkeypatch.setattr(exactness, "generator_lift", lambda m, dst, targets: None)
        with pytest.raises(InvariantError, match="must lie in the image"):
            les(standard_seq_10(e2()))

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

