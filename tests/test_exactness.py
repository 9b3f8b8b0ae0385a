import random
import re

import pytest

from butterflies.intlinalg import IntMatrix, hstack, vstack, block
from butterflies.fgab import (
    FgAbGroup, FgAbMap, is_injective, is_surjective, is_exact_at, hom_solve, kernel,
    cokernel, factor_through_injection,
)
from butterflies.twocomplex import (
    TwoTermComplex, ChainMap, homology, embed0, shift1, zero_complex, random_complex,
)
from butterflies.butterfly import (
    Butterfly, validate, zero_butterfly, kernel_b, cokernel_b, identity_butterfly,
    random_butterfly,
)
from butterflies.exactness import (
    ButterflyShortSeq, zero_witness_find, is_left_exact,
    is_right_exact, is_exact, seq74_exact, seq75_exact,
    standard_seq_51, standard_seq_10, standard_seq_52, chain_map_seq, les,
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


def maps_51(e):
    """The chain maps E^-1 -> E^0 -> E of sequence 5.1, as degree-0 complexes."""
    a, b = embed0(e.deg_m1), embed0(e.deg_0)
    return (ChainMap(a, b, FgAbMap.zero(a.deg_m1, b.deg_m1), e.d),
            ChainMap(b, e, FgAbMap.zero(b.deg_m1, e.deg_m1), FgAbMap.identity(e.deg_0)))


def maps_52(e):
    """The chain maps E -> E^-1[1] -> E^0[1] of sequence 5.2."""
    b, c = shift1(e.deg_m1), shift1(e.deg_0)
    return (ChainMap(e, b, FgAbMap.identity(e.deg_m1), FgAbMap.zero(e.deg_0, b.deg_0)),
            ChainMap(b, c, e.d, FgAbMap.zero(b.deg_0, c.deg_0)))


class TestChainMapSeq:
    @pytest.mark.parametrize("maps, condition", [(maps_51, "p*phi = 0"), (maps_52, "phi*j = 0")])
    def test_zero_homotopy_refused(self, maps, condition):
        # v * u is not strictly zero here, so h = 0 breaks one homotopy equation
        u, v = maps(e2())
        h = IntMatrix.zeros(v.dst.deg_m1.ngens, u.src.deg_0.ngens)
        with pytest.raises(ValueError, match=f"^zero witness condition {re.escape(condition)} fails$"):
            chain_map_seq(u, v, h)

    def test_witness_matches_hand_written_blocks(self):
        # the block matrices each standard sequence wrote out before it
        # passed its chain maps and homotopy to chain_map_seq
        def phi_51(e):
            return vstack(-e.d.matrix, -IntMatrix.identity(e.deg_m1.ngens))

        def phi_10(e):
            n0, n1 = e.deg_0.ngens, e.deg_m1.ngens
            return block([[-IntMatrix.identity(n0), e.d.matrix],
                          [IntMatrix.zeros(n1, n0), IntMatrix.identity(n1)]])

        def phi_52(e):
            return hstack(-IntMatrix.identity(e.deg_0.ngens), e.d.matrix)

        rng = random.Random(5)
        for e in [e2(), k2(), zero_complex()] + [random_complex(rng, max_rank=1, max_order=8)
                                                 for _ in range(10)]:
            for build, phi in [(standard_seq_51, phi_51), (standard_seq_10, phi_10),
                               (standard_seq_52, phi_52)]:
                s = build(e)
                assert s.phi == FgAbMap(s.y.carrier, s.z.carrier, phi(e))


class TestExactnessCriteria:
    def test_left_only_fixture(self):
        # 0 -> ker(Z) -> F -> G with Z the zero composite on K2: the kernel
        # inclusion is left exact but p_Z is not onto G^0.  The witness must
        # be the canonical one phi(k, f) = -incl(k) + j_Z(f); an arbitrary
        # solver witness may fail exactness (witness choice is structure).
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

    def test_partial_exactness_matches_explicit_chains(self):
        # The reference: the chains 0 -> E^-1 -> Y -> Z -> G^0 and
        # E^-1 -> Y -> Z -> G^0 -> 0 written out verdict by verdict.  The
        # first three draws give all four (left, right) classes.
        rng = random.Random(7)
        seen = set()
        for _ in range(3):
            y = random_butterfly(random_complex(rng, 1, 8), random_complex(rng, 1, 8), rng)
            for s in (zero_witness_find(y, kernel_b(y)[1]),
                      zero_witness_find(cokernel_b(y)[1], y)):
                if s is None:
                    continue
                middle = is_exact_at(s.y.j, s.phi) and is_exact_at(s.phi, s.z.p)
                left = is_injective(s.y.j) and middle
                right = middle and is_surjective(s.z.p)
                assert (is_left_exact(s), is_right_exact(s)) == (left, right)
                seen.add((left, right))
        assert len(seen) == 4

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
        """les lifts i_Z once through phi, which is phibar: coker(j_Y) -> Z
        on Y; its delta must agree, as a map, with the proof's construction:
        kernels Y' and Z' into G^0, the induced carrier map f: Y' -> Z'
        inverted as X with X*f = 1 and f*X = 1, and projection to H^0 E."""
        def reference_delta(s):
            he, hg = homology(s.e), homology(s.g)
            cj = cokernel(s.y.j)
            yprime = kernel(cj.induce(s.g.deg_0, s.z.p.matrix * s.phi.matrix))
            zprime = kernel(s.z.p)
            f = factor_through_injection(zprime.incl, yprime.group,
                                         s.phi.matrix * cj.fro * yprime.incl.matrix)
            rho = hom_solve(f.dst, f.src, pre=[(f, IntMatrix.identity(f.src.ngens))],
                            post=[(f, IntMatrix.identity(f.dst.ngens))])
            assert rho is not None
            into_zprime = factor_through_injection(zprime.incl, hg.hm1,
                                                   s.z.i.matrix * hg.incl.matrix)
            qbar = he.proj.matrix * s.y.q.matrix * cj.fro
            raw = qbar * yprime.incl.matrix * rho.matrix * into_zprime.matrix
            return raw, FgAbMap(hg.hm1, he.h0, raw)

        rng = random.Random(11)
        seqs = [random_exact_seq(rng) for _ in range(60)] + [standard_seq_10(e2())]
        deltas = [les(s).delta for s in seqs]
        raws, solved = zip(*(reference_delta(s) for s in seqs))
        assert all(d == r for d, r in zip(deltas, solved))
        # not vacuous: some deltas are nonzero, and some unreduced reference
        # matrices differ from delta's, so == compares maps, not matrices
        assert sum(not d.is_zero() for d in deltas) >= 10
        assert any(d.matrix != raw for d, raw in zip(deltas, raws))

    def test_failed_lift_is_invariant_error(self, monkeypatch):
        # is_exact has shown phibar injective onto ker(p_Z), so the one lift
        # through phi cannot fail on a valid sequence
        from butterflies import exactness
        from butterflies.intlinalg import InvariantError
        monkeypatch.setattr(exactness, "lift", lambda f, targets: None)
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
        assert m51 == m10

