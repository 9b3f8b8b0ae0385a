import copy
import importlib
import math
import pickle
import pkgutil
import random
import re
import time

import pytest

import butterflies
from butterflies import butterfly, cli, derived, fgab, intlinalg, jsonio, oracle
from butterflies.intlinalg import (
    IntMatrix, InvariantError, hstack, vstack, in_col_span, col_echelon, solve,
)
from butterflies.fgab import (
    FgAbGroup, FgAbMap, direct_sum, is_injective, is_surjective, hom_solve,
    is_well_defined, random_map,
)
from butterflies.twocomplex import TwoTermComplex, ChainMap, homology, embed0, zero_complex, random_complex
from butterflies.butterfly import (
    Butterfly, TwoMorphism, validate, identity_butterfly, from_chain_map,
    zero_butterfly, to_chain_map, find_section, compose, two_morphism_find,
    baer_sum, homology_action, is_invertible, invert, kernel_b, cokernel_b,
    classify, pip, copip, image_b, coimage_b, middle_exact_iso,
    splitting_compose, pullback_compose, pushout_compose, random_butterfly, wing_ends,
)
from butterflies.exactness import (
    ButterflyShortSeq, LongExactSequence, les, random_exact_seq, standard_seq_10,
)
from butterflies.fixtures import k2, e2, bockstein, ik2, br, r_chain_map, Z, Z2, Z4


def with_wing(b: Butterfly, wing: str, w: FgAbMap) -> Butterfly:
    """b with the wing named wing replaced by w."""
    return Butterfly(b.src, b.dst, **{"i": b.i, "j": b.j, "p": b.p, "q": b.q, wing: w})


class TestWingEnds:
    """wing_ends is the shape every butterfly has: construction checks it,
    and parsing reads each wing's matrix in its order."""

    def test_every_butterfly_has_the_shape(self):
        rng = random.Random(43)
        cases = [bockstein(), ik2(), br(), identity_butterfly(e2()), zero_butterfly(e2(), k2())]
        cases += [random_butterfly(random_complex(rng), random_complex(rng), rng) for _ in range(12)]
        for b in cases:
            ends = {name: (getattr(b, name).src, getattr(b, name).dst) for name in "ijpq"}
            assert wing_ends(b.src, b.dst, b.carrier) == ends
            assert list(wing_ends(b.src, b.dst, b.carrier)) == ["i", "j", "p", "q"]

    def test_parsing_refuses_the_first_malformed_wing_in_table_order(self):
        doc = jsonio.document("butterfly", jsonio.butterfly_to_json(bockstein()))
        doc["j"], doc["p"] = [["1", "0"]], [["1"], ["0"]]
        with pytest.raises(jsonio.SchemaError, match=r"^matrix row has wrong length \(expected 1\)$"):
            jsonio.parse_document(jsonio.emit(doc))
        doc["j"] = jsonio.butterfly_to_json(bockstein())["j"]
        with pytest.raises(jsonio.SchemaError, match=r"^matrix has 2 rows, expected 1$"):
            jsonio.parse_document(jsonio.emit(doc))


class TestValidate:
    def test_fixtures_valid(self):
        for b in (bockstein(), ik2(), br(), identity_butterfly(e2())):
            assert validate(b) == []

    def test_zeroed_q_on_bockstein(self):
        b = bockstein()
        broken = Butterfly(b.src, b.dst, b.i, b.j, b.p,
                           FgAbMap.zero(b.carrier, b.src.deg_0))
        bad = validate(broken)
        # d = 0 on K2, so the triangle survives; the diagonal breaks instead
        assert bad and bad[0] == "diagonal not exact at carrier"

    def test_zeroed_q_on_br(self):
        b = br()
        broken = Butterfly(b.src, b.dst, b.i, b.j, b.p,
                           FgAbMap.zero(b.carrier, b.src.deg_0))
        assert validate(broken)[0] == "triangle qj=d violated"

    @pytest.mark.parametrize("wing, rows, expected", [
        ("p", [[0, -2]], ["pj=0 violated"]),
        ("p", [[1, -1]], ["triangle pi=-d violated", "pj=0 violated"]),
        ("q", [[1, 1]], ["triangle qj=d violated", "diagonal not exact at carrier",
                         "qi=0 violated"]),
        ("i", [[1], [0]], ["triangle pi=-d violated", "diagonal not exact at carrier",
                           "qi=0 violated"]),
    ])
    def test_each_equation_named_in_order(self, wing, rows, expected):
        # the identity butterfly of [Z --2--> Z] with one wing replaced
        b = identity_butterfly(e2())
        w = getattr(b, wing)
        broken = with_wing(b, wing, FgAbMap(w.src, w.dst, IntMatrix.from_rows(rows)))
        assert validate(broken) == expected


class TestIdentity:
    def test_k2_carrier(self):
        b = ik2()
        assert b.carrier.invariant_factors() == (0, (2, 2))
        assert b.j.matrix.to_lists() == [[0], [1]]
        assert b.p.matrix.to_lists() == [[1, 0]]

    def test_zero_complex(self):
        assert identity_butterfly(zero_complex()).carrier.is_trivial()

    def test_e2_j_wing(self):
        assert identity_butterfly(e2()).j.matrix.to_lists() == [[2], [1]]

    def test_wings_follow_the_docstring_formula(self):
        """Carrier E^0 (+) E^-1 with i = (0;1), j = (d;1), p = (1,-d), q = (1,0)."""
        rng = random.Random(11)
        cxs = [e2(), k2()] + [random_complex(rng, max_rank=2, max_order=16) for _ in range(24)]
        for e in cxs:
            b = identity_butterfly(e)
            n0, n1, d = e.deg_0.ngens, e.deg_m1.ngens, e.d.matrix
            one0, one1 = IntMatrix.identity(n0), IntMatrix.identity(n1)
            assert (b.src, b.dst, b.carrier) == (e, e, direct_sum(e.deg_0, e.deg_m1))
            # each wing keeps the reduced representative of the formula's matrix
            for wing, formula in [(b.i, vstack(IntMatrix.zeros(n0, n1), one1)),
                                  (b.j, vstack(d, one1)),
                                  (b.p, hstack(one0, -d)),
                                  (b.q, hstack(one0, IntMatrix.zeros(n0, n1)))]:
                assert in_col_span(wing.dst.relations, wing.matrix - formula)


class TestFromChainMap:
    def test_br_wings(self):
        b = br()
        assert b.carrier.invariant_factors() == (1, ())
        assert b.j.matrix.to_lists() == [[2]]
        assert b.q.matrix.to_lists() == [[1]]

    def test_identity_chain_map_gives_identity_class(self):
        e = e2()
        assert two_morphism_find(from_chain_map(ChainMap.identity(e)),
                                 identity_butterfly(e)) is not None

    def test_zero_map_gives_zero_composite(self):
        b = from_chain_map(ChainMap.zero(k2(), k2()))
        z1 = compose(zero_butterfly(zero_complex(), k2()),
                     zero_butterfly(k2(), zero_complex()))
        assert two_morphism_find(b, z1) is not None


class TestToChainMap:
    def test_roundtrip_br(self):
        b = br()
        s = FgAbMap(b.src.deg_0, b.carrier, IntMatrix.from_rows([[1]]))
        back = to_chain_map(b, s)
        r = r_chain_map()
        assert back.f_0 == r.f_0 and back.f_m1 == r.f_m1

    def test_identity_with_canonical_section(self):
        e = e2()
        b = identity_butterfly(e)
        s = FgAbMap(e.deg_0, b.carrier, vstack(IntMatrix.identity(1), IntMatrix.zeros(1, 1)))
        cm = to_chain_map(b, s)
        assert cm.f_0 == FgAbMap.identity(e.deg_0)
        assert cm.f_m1 == FgAbMap.identity(e.deg_m1)

    def test_bockstein_has_no_section(self):
        assert find_section(bockstein()) is None

    def test_rejects_non_section(self):
        b = ik2()
        bad = FgAbMap.zero(b.src.deg_0, b.carrier)
        with pytest.raises(ValueError, match="^s is not a section of q$"):
            to_chain_map(b, bad)

    def test_arbitrary_section_stays_in_class(self):
        b = identity_butterfly(e2())
        s = find_section(b)
        cm = to_chain_map(b, s)
        assert two_morphism_find(from_chain_map(cm), b) is not None


class TestCompose:
    def test_bockstein_squares_to_identity(self):
        bb = compose(bockstein(), bockstein())
        assert validate(bb) == []
        assert bb.carrier.invariant_factors() == (0, (2, 2))
        assert two_morphism_find(bb, ik2()) is not None

    def test_zero_composite_display(self):
        z = compose(zero_butterfly(zero_complex(), k2()),
                    zero_butterfly(e2(), zero_complex()))
        assert validate(z) == []
        assert two_morphism_find(z, zero_butterfly(e2(), k2())) is not None

    def test_identity_laws(self):
        for y in (bockstein(), br(), identity_butterfly(e2())):
            assert two_morphism_find(compose(identity_butterfly(y.dst), y), y) is not None
            assert two_morphism_find(compose(y, identity_butterfly(y.src)), y) is not None

    def test_endpoint_mismatch(self):
        with pytest.raises(ValueError):
            compose(br(), bockstein())


class TestTripleComposite:
    def test_both_parenthesizations_match_the_double_complex(self):
        # both triple composites arise as the homology of
        #   E^-1 (+) F^-1 -> X (+) Y (+) Z -> E^0 (+) F^0
        # built here directly; each parenthesization must be 2-isomorphic
        # to the butterfly extracted from it
        from butterflies.intlinalg import block, IntMatrix as IM
        from butterflies.fgab import direct_sum, subquotient, FgAbGroup
        rng = random.Random(77)
        for _ in range(4):
            d_, e_, f_, g_ = (random_complex(rng, max_order=6) for _ in range(4))
            x = random_butterfly(d_, e_, rng)
            y = random_butterfly(e_, f_, rng)
            z = random_butterfly(f_, g_, rng)
            mid = direct_sum(e_.deg_m1, f_.deg_m1)
            xyz = FgAbGroup(
                x.carrier.ngens + y.carrier.ngens + z.carrier.ngens,
                block([
                    [x.carrier.relations,
                     IM.zeros(x.carrier.ngens, y.carrier.relations.cols),
                     IM.zeros(x.carrier.ngens, z.carrier.relations.cols)],
                    [IM.zeros(y.carrier.ngens, x.carrier.relations.cols),
                     y.carrier.relations,
                     IM.zeros(y.carrier.ngens, z.carrier.relations.cols)],
                    [IM.zeros(z.carrier.ngens, x.carrier.relations.cols),
                     IM.zeros(z.carrier.ngens, y.carrier.relations.cols),
                     z.carrier.relations],
                ]))
            out = direct_sum(e_.deg_0, f_.deg_0)
            amat = block([
                [x.i.matrix, IM.zeros(x.carrier.ngens, f_.deg_m1.ngens)],
                [-y.j.matrix, y.i.matrix],
                [IM.zeros(z.carrier.ngens, e_.deg_m1.ngens), -z.j.matrix],
            ])
            bmat = block([
                [-x.p.matrix, y.q.matrix, IM.zeros(e_.deg_0.ngens, z.carrier.ngens)],
                [IM.zeros(f_.deg_0.ngens, x.carrier.ngens), -y.p.matrix, z.q.matrix],
            ])
            sq = subquotient(mid, amat, FgAbMap(xyz, out, bmat))
            nx, ny, nz = x.carrier.ngens, y.carrier.ngens, z.carrier.ngens
            jw = sq.lift_in(d_.deg_m1, vstack(x.j.matrix, IM.zeros(ny + nz, d_.deg_m1.ngens)))
            iw = sq.lift_in(g_.deg_m1, vstack(IM.zeros(nx + ny, g_.deg_m1.ngens), z.i.matrix))
            pw = sq.induce_out(g_.deg_0,
                               IM.from_rows([[0] * (nx + ny) + list(z.p.matrix.row(r))
                                             for r in range(g_.deg_0.ngens)],
                                            nx + ny + nz))
            qw = sq.induce_out(d_.deg_0,
                               IM.from_rows([list(x.q.matrix.row(r)) + [0] * (ny + nz)
                                             for r in range(d_.deg_0.ngens)],
                                            nx + ny + nz))
            w = Butterfly(d_, g_, iw, jw, pw, qw)
            assert validate(w) == []
            assert two_morphism_find(w, compose(compose(z, y), x)) is not None
            assert two_morphism_find(w, compose(z, compose(y, x))) is not None


class TestTwoMorphisms:
    def test_self(self):
        b = bockstein()
        tm = two_morphism_find(b, b)
        assert tm is not None
        assert tm.m * tm.inverse == FgAbMap.identity(b.carrier)
        assert tm.inverse * tm.m == FgAbMap.identity(b.carrier)

    def test_carrier_obstruction(self):
        assert two_morphism_find(bockstein(), ik2()) is None

    def test_found_after_composition(self):
        assert two_morphism_find(compose(bockstein(), bockstein()), ik2()) is not None

    @staticmethod
    def refuses(condition, source, target, m, inverse):
        with pytest.raises(ValueError, match=re.escape(f"two-morphism condition {condition} fails")):
            TwoMorphism(source, target, m, inverse)

    def test_refuses_wrong_endpoints(self):
        # the same matrices from a free group instead of a carrier Z/2 + Z/2:
        # every equation still holds
        a, b = compose(bockstein(), bockstein()), ik2()
        tm = two_morphism_find(a, b)
        m = FgAbMap(FgAbGroup.free(a.carrier.ngens), b.carrier, tm.m.matrix)
        inverse = FgAbMap(FgAbGroup.free(b.carrier.ngens), a.carrier, tm.inverse.matrix)
        self.refuses("m: Y -> Y'", a, b, m, tm.inverse)
        self.refuses("inverse: Y' -> Y", a, b, tm.m, inverse)

    @pytest.mark.parametrize("wing, condition", [
        ("i", "m*i = i'"), ("j", "m*j = j'"), ("p", "p'*m = p"), ("q", "q'*m = q"),
    ])
    def test_refuses_broken_wing(self, wing, condition):
        # E2's groups are free, so adding a nonzero matrix breaks exactly one wing
        b = identity_butterfly(e2())
        tm = two_morphism_find(b, b)
        w = getattr(b, wing)
        ones = IntMatrix(w.dst.ngens, w.src.ngens, [1] * (w.dst.ngens * w.src.ngens))
        bump = FgAbMap(w.src, w.dst, ones)
        self.refuses(condition, b, with_wing(b, wing, w + bump), tm.m, tm.inverse)

    def test_refuses_wrong_inverse(self):
        b = compose(bockstein(), bockstein())
        tm = two_morphism_find(b, ik2())
        self.refuses("left inverse", b, ik2(), tm.m, FgAbMap.zero(ik2().carrier, b.carrier))

    def test_refuses_one_sided_inverse(self):
        # over the zero complex every wing equation holds, so only the inverse
        # equations constrain m = (1; 0): Z -> Z^2, with left inverse (1 0)
        zc = zero_complex()

        def bare(carrier):
            into, out = FgAbMap.zero(zc.deg_m1, carrier), FgAbMap.zero(carrier, zc.deg_0)
            return Butterfly(zc, zc, into, into, out, out)

        a, b = bare(Z), bare(direct_sum(Z, Z))
        m = FgAbMap(a.carrier, b.carrier, IntMatrix.from_rows([[1], [0]]))
        self.refuses("right inverse", a, b, m, FgAbMap(b.carrier, a.carrier, IntMatrix.from_rows([[1, 0]])))

    @pytest.mark.parametrize("lift, descends", [
        (None, None), (IntMatrix.from_rows([[0, 0], [1, 0]]), False), (IntMatrix.zeros(2, 2), True)],
        ids=["no lift", "lift that does not descend", "lift that is no left inverse"])
    def test_inverse_failure_is_invariant_error(self, monkeypatch, lift, descends):
        # carrier Z/2 + Z/4: sending the Z/2 generator to the Z/4 one does not descend;
        # the zero map descends, and TwoMorphism's left-inverse equation refuses it
        y = identity_butterfly(TwoTermComplex(FgAbMap(Z4, Z2, IntMatrix.from_rows([[1]]))))
        assert two_morphism_find(y, y) is not None
        if lift is not None:
            assert is_well_defined(y.carrier, y.carrier, lift) == descends
        # two_morphism_find inverts m by one lift of the identity, which this replaces
        monkeypatch.setattr(butterfly, "lift", lambda f, targets: lift)
        with pytest.raises(InvariantError, match="^five lemma: wing-commuting carrier map must be invertible$"):
            two_morphism_find(y, y)

    def test_lifted_inverse_matches_solved_inverse(self):
        """The inverse is one generator lift through m; it must agree, as a
        map, with the inverse solved for as a 2-morphism condition: X with
        X*m = 1 and m*X = 1."""
        rng = random.Random(9)
        pairs = []
        for _ in range(12):
            cxs = [random_complex(rng, max_rank=1, max_order=6) for _ in range(4)]
            x, y, z = (random_butterfly(c, d, rng) for c, d in zip(cxs, cxs[1:]))
            w = random_butterfly(cxs[0], cxs[1], rng)
            pairs += [
                (compose(compose(z, y), x), compose(z, compose(y, x))),
                (compose(identity_butterfly(y.dst), y), y),
                (baer_sum(x, w), baer_sum(w, x)),
            ]
        for a, b in pairs:
            tm = two_morphism_find(a, b)
            assert tm is not None
            solved = hom_solve(b.carrier, a.carrier,
                               pre=[(tm.m, IntMatrix.identity(a.carrier.ngens))],
                               post=[(tm.m, IntMatrix.identity(b.carrier.ngens))])
            assert solved is not None and tm.inverse == solved
        assert sum(a.carrier.ngens > 1 for a, _ in pairs) >= 12


class TestBaerSum:
    def test_neutral_element(self):
        b = bockstein()
        z = zero_butterfly(b.src, b.dst)
        assert two_morphism_find(baer_sum(b, z), b) is not None

    def test_order_two(self):
        b = bockstein()
        s = baer_sum(b, b)
        assert validate(s) == []
        # actions add: B+B lands in the Baer-neutral (zero composite) class
        assert two_morphism_find(s, zero_butterfly(b.src, b.dst)) is not None
        assert two_morphism_find(s, ik2()) is None

    def test_chain_map_sums(self):
        cx = k2()
        f1 = ChainMap(cx, cx, FgAbMap.identity(Z2), FgAbMap.identity(Z2))
        s = baer_sum(from_chain_map(f1), from_chain_map(f1))
        assert two_morphism_find(s, from_chain_map(f1 + f1)) is not None

    def test_action_is_sum(self):
        rng = random.Random(14)
        for _ in range(5):
            e_, f_ = random_complex(rng), random_complex(rng)
            a = random_butterfly(e_, f_, rng)
            b = random_butterfly(e_, f_, rng)
            s = baer_sum(a, b)
            am1, a0 = homology_action(a)
            bm1, b0 = homology_action(b)
            sm1, s0 = homology_action(s)
            assert sm1 == am1 + bm1
            assert s0 == a0 + b0

    def test_commutative_and_associative_up_to_iso(self):
        rng = random.Random(15)
        for _ in range(4):
            e_, f_ = random_complex(rng, max_order=6), random_complex(rng, max_order=6)
            a = random_butterfly(e_, f_, rng)
            b = random_butterfly(e_, f_, rng)
            c = random_butterfly(e_, f_, rng)
            assert two_morphism_find(baer_sum(a, b), baer_sum(b, a)) is not None
            assert two_morphism_find(baer_sum(baer_sum(a, b), c),
                                     baer_sum(a, baer_sum(b, c))) is not None


class TestHomologyAction:
    def test_bockstein_identities(self):
        hm1, h0 = homology_action(bockstein())
        assert hm1 == FgAbMap.identity(hm1.src)
        assert h0 == FgAbMap.identity(h0.src)

    def test_identity_butterfly(self):
        hm1, h0 = homology_action(identity_butterfly(e2()))
        assert hm1 == FgAbMap.identity(hm1.src)
        assert h0 == FgAbMap.identity(h0.src)

    def test_br(self):
        hm1, h0 = homology_action(br())
        assert hm1.src.is_trivial()
        assert is_injective(h0) and is_surjective(h0)

    def test_hm1_matches_one_step_lift(self):
        """homology_action lifts j * incl_src through i, then factors through
        H^-1 dst's kernel inclusion; the map must agree with the one-step
        path: one solve of the stacked [i * incl_dst | rel(Y)]."""
        from butterflies.selftest import butterfly_suite
        ours, reference = [], []
        for y in butterfly_suite():
            hs, hd = homology(y.src), homology(y.dst)
            u = solve(hstack(y.i.matrix * hd.incl.matrix, y.carrier.relations),
                      y.j.matrix * hs.incl.matrix, hd.hm1.ngens)
            assert u is not None
            reference.append(FgAbMap(hs.hm1, hd.hm1, u))
            ours.append(homology_action(y)[0])
        assert all(a == b for a, b in zip(ours, reference))
        # not vacuous: some actions are nonzero
        assert sum(not a.is_zero() for a in ours) >= 10


class TestHomologyActionMemo:
    """homology_action is memoized like homology: each miss runs the body
    once, a hit hands back the identical pair, equal butterflies share one
    entry, and a refusal caches nothing."""

    def test_report_runs_the_body_once(self, tmp_path):
        path = tmp_path / "B.json"
        path.write_text(jsonio.emit(jsonio.document("butterfly", jsonio.butterfly_to_json(bockstein()))))
        _clear_caches()
        assert cli.main(["report", str(path)]) == 0
        info = homology_action.cache_info()
        assert (info.misses, info.hits) == (1, 1)  # report, then classify

    def test_les_twice_builds_each_action_once(self):
        s = standard_seq_10(e2())
        assert s.y != s.z
        _clear_caches()
        first = les(s)
        assert first is not None and les(s) == first
        info = homology_action.cache_info()
        assert (info.misses, info.hits) == (2, 2)

    def test_second_call_returns_the_identical_pair(self):
        homology_action.cache_clear()
        first = homology_action(bockstein())
        second = homology_action(bockstein())
        assert second is first

    def test_equal_butterflies_share_one_entry(self):
        text = jsonio.emit(jsonio.document("butterfly", jsonio.butterfly_to_json(br())))
        (_, a), (_, b) = jsonio.parse_document(text), jsonio.parse_document(text)
        assert a == b and a is not b
        homology_action.cache_clear()
        assert homology_action(a) is homology_action(b)
        assert homology_action.cache_info().currsize == 1
        assert homology_action(b) == homology_action.__wrapped__(b)

    def test_invalid_butterfly_raises_every_time(self):
        y = with_wing(ik2(), "q", FgAbMap.zero(ik2().carrier, ik2().src.deg_0))
        homology_action.cache_clear()
        for _ in range(3):
            with pytest.raises(ValueError, match="q is not surjective; butterfly invalid"):
                homology_action(y)
        info = homology_action.cache_info()
        assert (info.misses, info.currsize) == (3, 0)


class TestInvertibility:
    def test_bockstein(self):
        b = bockstein()
        assert is_invertible(b)
        binv = invert(b)
        assert validate(binv) == []
        assert two_morphism_find(compose(binv, b), ik2()) is not None
        assert two_morphism_find(compose(b, binv), ik2()) is not None

    def test_identity(self):
        assert is_invertible(identity_butterfly(e2()))

    def test_br_is_quasi_isomorphism(self):
        # r: E2 -> F2 induces isos on both homologies, so Br is invertible
        assert is_invertible(br())
        binv = invert(br())
        assert two_morphism_find(compose(binv, br()), identity_butterfly(e2())) is not None

    def test_zero_composite_not_invertible(self):
        z = zero_butterfly(k2(), k2())
        assert not is_invertible(z)
        with pytest.raises(ValueError):
            invert(z)


def fraction(y: Butterfly) -> Butterfly:
    """g * s^-1 for y: E -> F with carrier Y, where s = ((1 0), q): E^ -> E
    is a quasi-isomorphism and g = ((0 -1), p): E^ -> F a chain map out of
    E^ = [E^-1 (+) F^-1 --(j | i)--> Y]."""
    e, f = y.src, y.dst
    m1, n1 = e.deg_m1.ngens, f.deg_m1.ngens
    sum_m1 = direct_sum(e.deg_m1, f.deg_m1)
    hat = TwoTermComplex(FgAbMap(sum_m1, y.carrier, hstack(y.j.matrix, y.i.matrix)))
    s = ChainMap(hat, e, FgAbMap(sum_m1, e.deg_m1, hstack(IntMatrix.identity(m1), IntMatrix.zeros(m1, n1))),
                 y.q)
    g = ChainMap(hat, f, FgAbMap(sum_m1, f.deg_m1, hstack(IntMatrix.zeros(n1, m1), -IntMatrix.identity(n1))),
                 y.p)
    return compose(from_chain_map(g), invert(from_chain_map(s)))


class TestButterfliesAreFractions:
    """Every butterfly y: E -> F is 2-isomorphic to its fraction g * s^-1
    (Noohi, On weak maps between 2-groups, arXiv math/0506313).  The check
    reaches from_chain_map, is_invertible, invert, compose and
    two_morphism_find at once, and needs no oracle."""

    def test_fixtures(self):
        for y in (bockstein(), ik2(), br(), identity_butterfly(e2()), zero_butterfly(k2(), e2())):
            assert two_morphism_find(fraction(y), y) is not None
        # the check can fail: B's fraction is B, not the identity of K2
        assert two_morphism_find(fraction(bockstein()), ik2()) is None

    def test_random_pairs(self):
        rng = random.Random(11)
        for _ in range(300):
            y = random_butterfly(random_complex(rng), random_complex(rng), rng)
            assert two_morphism_find(fraction(y), y) is not None


def hom_order(a: FgAbGroup, b: FgAbGroup) -> int:
    """|Hom(A, B)| for finite A and B: the product of gcd(a_i, b_j) over
    their invariant factors."""
    (ra, ta), (rb, tb) = a.invariant_factors(), b.invariant_factors()
    assert ra == rb == 0
    return math.prod(math.gcd(x, y) for x in ta for y in tb)


class TestTwoAutomorphismsAreHom:
    """The 2-automorphisms y => y of a butterfly y: E -> F form a group
    isomorphic to Hom(H^0 E, H^-1 F) (Deligne, SGA 4, XVIII, 1.4): the
    oracle's count of them equals |Hom|, which the invariant factors give.
    Only finite complexes, since the oracle enumerates elements."""

    def law_holds(self, y: Butterfly) -> int:
        order = hom_order(homology(y.src).h0, homology(y.dst).hm1)
        assert len(oracle.enumerate_two_morphisms(y, y)) == order
        return order

    def test_fixtures(self):
        for y in (bockstein(), ik2(), zero_butterfly(k2(), k2()), identity_butterfly(k2())):
            assert self.law_holds(y) == 2

    def test_random_pairs(self):
        rng = random.Random(11)
        orders = []
        for _ in range(60):
            e = random_complex(rng, max_rank=0, max_order=4)
            f = random_complex(rng, max_rank=0, max_order=4)
            orders.append(self.law_holds(random_butterfly(e, f, rng)))
        assert sum(n > 1 for n in orders) >= 10  # not vacuous


class TestCompositionIsBiadditive:
    """Law 3: composition is additive in each variable over the Baer sum,
    z1 * (y1 + y2) = z1 * y1 + z1 * y2 and (z1 + z2) * y1 = z1 * y1 + z2 * y1
    up to 2-isomorphism, so the Hom-groupoids are Picard groupoids that
    composition respects (Aldrovandi and Noohi, Butterflies I, Adv. Math.
    221, 2009).  It needs no oracle."""

    def test_random_triples(self):
        rng = random.Random(11)
        apart = 0
        for _ in range(150):
            e, f, g = (random_complex(rng, max_rank=1, max_order=6) for _ in range(3))
            y1, y2 = random_butterfly(e, f, rng), random_butterfly(e, f, rng)
            z1, z2 = random_butterfly(f, g, rng), random_butterfly(f, g, rng)
            assert two_morphism_find(compose(z1, baer_sum(y1, y2)),
                                     baer_sum(compose(z1, y1), compose(z1, y2))) is not None
            assert two_morphism_find(compose(baer_sum(z1, z2), y1),
                                     baer_sum(compose(z1, y1), compose(z2, y1))) is not None
            apart += two_morphism_find(y1, y2) is None
        assert apart >= 50  # not vacuous: y1 and y2 are often in different classes


class TestComponentsAreTheDerivedHom:
    """Law 4, as an upper bound: over Z, which is hereditary, a complex is
    H^-1 E[1] + H^0 E in the derived category, so for finite homology
    |pi_0 Hom(E, F)| = |Hom(H^-1 E, H^-1 F)| |Hom(H^0 E, H^0 F)|
    |Ext^1(H^0 E, H^-1 F)|, and |Ext^1(A, B)| = |Hom(A, B)| for finite A
    and B.  The 2-isomorphism classes reached never exceed it: those of
    random draws, deduplicated with two_morphism_find, and the doubles
    y + y of those classes, which are classes too since pi_0 is a group
    under the Baer sum.  The doubles reach the classes with a coordinate 2
    in a Z/4, which draws with coefficients in {-1, 0, 1} miss."""

    def test_random_pairs(self):
        rng = random.Random(11)
        equal = 0
        for _ in range(40):
            e, f = (random_complex(rng, max_rank=0, max_order=8) for _ in range(2))
            he, hf = homology(e), homology(f)
            bound = hom_order(he.hm1, hf.hm1) * hom_order(he.h0, hf.h0) * hom_order(he.h0, hf.hm1)
            classes = []
            for y in [random_butterfly(e, f, rng) for _ in range(60)]:
                if all(two_morphism_find(c, y) is None for c in classes):
                    classes.append(y)
            for y in [baer_sum(c, c) for c in classes]:
                if all(two_morphism_find(c, y) is None for c in classes):
                    classes.append(y)
            assert len(classes) <= bound
            equal += len(classes) == bound
        assert equal >= 37  # not vacuous: the classes reached fill the bound


class TestKernelCokernel:
    def test_bockstein_quasi_trivial(self):
        kcx, kbf = kernel_b(bockstein())
        assert validate(kbf) == []
        h = homology(kcx)
        assert h.hm1.is_trivial() and h.h0.is_trivial()
        ccx, cbf = cokernel_b(bockstein())
        assert validate(cbf) == []
        hc = homology(ccx)
        assert hc.hm1.is_trivial() and hc.h0.is_trivial()

    def test_identity_quasi_trivial(self):
        kcx, _ = kernel_b(identity_butterfly(e2()))
        h = homology(kcx)
        assert h.hm1.is_trivial() and h.h0.is_trivial()

    def test_zero_composite_with_acyclic_target_m1(self):
        # H^-1(F) = 0 makes ker(0: E -> F) = E itself
        kcx, _ = kernel_b(zero_butterfly(k2(), e2()))
        h = homology(kcx)
        hk = homology(k2())
        assert h.hm1.invariant_factors() == hk.hm1.invariant_factors()
        assert h.h0.invariant_factors() == hk.h0.invariant_factors()

    def test_zero_composite_general_shape(self):
        # in general the kernel of 0: E -> F also absorbs H^-1(F) in degree 0
        kcx, _ = kernel_b(zero_butterfly(k2(), k2()))
        h = homology(kcx)
        assert h.hm1.invariant_factors() == (0, (2,))
        assert h.h0.invariant_factors() == (0, (2, 2))

    def test_cokernel_of_zero_composite_with_acyclic_source_h0(self):
        ez = TwoTermComplex(FgAbMap.identity(Z))
        ccx, _ = cokernel_b(zero_butterfly(ez, k2()))
        h = homology(ccx)
        hk = homology(k2())
        assert h.hm1.invariant_factors() == hk.hm1.invariant_factors()
        assert h.h0.invariant_factors() == hk.h0.invariant_factors()


class TestClassify:
    def test_bockstein_all_true(self):
        c = classify(bockstein())
        assert c.mono and c.epi and c.faithful and c.cofaithful

    def test_zero_composite(self):
        c = classify(zero_butterfly(k2(), k2()))
        assert not c.mono and not c.epi
        assert not c.faithful and not c.cofaithful

    def test_identity(self):
        c = classify(ik2())
        assert c.mono and c.epi and c.faithful and c.cofaithful

    @pytest.mark.parametrize("name, message", [
        ("kernel", "^pip, j and the H\\^-1 action disagree on faithfulness$"),
        ("cokernel", "^copip, p and the H\\^0 action disagree on cofaithfulness$"),
    ], ids=["kernel", "cokernel"])
    def test_lying_kernel_or_cokernel_groups_refused(self, monkeypatch, name, message):
        """faithful and cofaithful are decided by membership, apart from the
        kernel and cokernel groups.  So when every kernel (or cokernel) group
        comes out trivial, which also makes the homology actions injective
        (or surjective), classify still refuses the zero butterfly, whose
        pip and copip are Z/2; comparing pip with ker(j) could not."""
        lie = FgAbGroup.trivial()
        liar = {"kernel": lambda f: fgab.Kernel(lie, FgAbMap.zero(lie, f.src)),
                "cokernel": lambda f: fgab.Cokernel(lie, FgAbMap.zero(f.dst, lie),
                                                    IntMatrix.zeros(f.dst.ngens, 0),
                                                    IntMatrix.zeros(f.dst.ngens, 0))}[name]
        y = zero_butterfly(k2(), k2())
        real = getattr(fgab, name)
        for info in pkgutil.iter_modules(butterflies.__path__, "butterflies."):
            mod = importlib.import_module(info.name)
            if getattr(mod, name, None) is real:
                monkeypatch.setattr(mod, name, liar)
        _clear_caches()
        try:
            with pytest.raises(InvariantError, match=message):
                classify(y)
        finally:
            _clear_caches()  # homology memoized what the liar said


class TestPipCopip:
    def test_bockstein_trivial(self):
        assert pip(bockstein()).is_trivial()
        assert copip(bockstein()).is_trivial()

    def test_zero_chain_map_pip(self):
        assert pip(from_chain_map(ChainMap.zero(k2(), k2()))).invariant_factors() == (0, (2,))

    def test_identity_copip(self):
        assert copip(identity_butterfly(e2())).is_trivial()

    def test_pip_is_kernel_of_hm1_action(self):
        rng = random.Random(6)
        from butterflies.fgab import kernel
        for _ in range(10):
            y = random_butterfly(random_complex(rng), random_complex(rng), rng)
            hm1, _ = homology_action(y)
            assert pip(y).invariant_factors() == kernel(hm1).group.invariant_factors()


class TestImageCoimage:
    def test_bockstein_image_is_whole_k2(self):
        # B is invertible, so its image is quasi-isomorphic to K2
        img, bf = image_b(bockstein())
        h = homology(img)
        assert h.hm1.invariant_factors() == (0, (2,))
        assert h.h0.invariant_factors() == (0, (2,))
        assert validate(bf) == [] and is_invertible(bf)

    def test_identity_image_quasi_iso_to_source(self):
        img, bf = image_b(identity_butterfly(e2()))
        h, he = homology(img), homology(e2())
        assert h.hm1.invariant_factors() == he.hm1.invariant_factors()
        assert h.h0.invariant_factors() == he.h0.invariant_factors()
        assert is_invertible(bf)

    def test_br_coimage(self):
        coim, bf = coimage_b(br())
        h = homology(coim)
        assert h.hm1.is_trivial()
        assert h.h0.invariant_factors() == (0, (2,))
        assert is_invertible(bf)

    def test_canonical_butterflies_always_invertible(self):
        rng = random.Random(16)
        for _ in range(10):
            y = random_butterfly(random_complex(rng), random_complex(rng), rng)
            _, b1 = image_b(y)
            _, b2 = coimage_b(y)
            assert is_invertible(b1) and is_invertible(b2)


class TestMiddleExactIso:
    def test_bockstein_chain(self):
        for bf in middle_exact_iso(bockstein()):
            assert validate(bf) == []
            assert is_invertible(bf)

    def test_identity_chain(self):
        for bf in middle_exact_iso(identity_butterfly(e2())):
            assert is_invertible(bf)

    def test_precondition_reported(self):
        with pytest.raises(ValueError):
            middle_exact_iso(from_chain_map(ChainMap.zero(k2(), k2())))


class TestSplittingCompose:
    def test_inverse_with_identity_witness(self):
        b = bockstein()
        psi = splitting_compose(invert(b), b, FgAbMap.identity(b.carrier))
        assert psi.f_0 == FgAbMap.identity(b.src.deg_0)
        assert psi.f_m1 == FgAbMap.identity(b.src.deg_m1)

    def test_result_matches_general_composition(self):
        b = bockstein()
        phi = hom_solve(b.carrier, b.carrier, pre=[(b.i, b.j.matrix)], post=[(b.q, -b.p.matrix)])
        psi = splitting_compose(b, b, phi)
        assert two_morphism_find(from_chain_map(psi), compose(b, b)) is not None

    def test_zero_witness_gives_zero_map(self):
        e = e2()
        z = zero_butterfly(k2(), k2())
        y = zero_butterfly(e, k2())
        phi = hom_solve(y.carrier, z.carrier,
                        pre=[(y.i, z.j.matrix),
                             (y.j, IntMatrix.zeros(z.carrier.ngens, y.src.deg_m1.ngens))],
                        post=[(z.q, -y.p.matrix),
                              (z.p, IntMatrix.zeros(z.dst.deg_0.ngens, y.carrier.ngens))])
        psi = splitting_compose(z, y, phi)
        assert psi.f_0.is_zero() and psi.f_m1.is_zero()

    def test_rejects_bad_phi(self):
        b = identity_butterfly(e2())
        # i = (0;1) but j = (d;1): the identity carrier map is no witness here
        with pytest.raises(ValueError, match=r"^phi\*i = j condition fails$"):
            splitting_compose(b, b, FgAbMap.identity(b.carrier))

    def test_section_independence(self):
        # psi^0 must not depend on which generator preimages the section picks
        b = identity_butterfly(e2())
        binv = invert(b)
        psi1 = splitting_compose(binv, b, FgAbMap.identity(b.carrier))
        psi2 = splitting_compose(binv, b, FgAbMap.identity(b.carrier))
        assert psi1.f_0 == psi2.f_0


class TestPullbackPushout:
    def test_pullback_identity(self):
        b = bockstein()
        pb = pullback_compose(b, ChainMap.identity(k2()))
        assert validate(pb) == []
        assert two_morphism_find(pb, b) is not None

    def test_pullback_zero_map(self):
        e0 = embed0(Z)
        pz = pullback_compose(bockstein(), ChainMap.zero(e0, k2()))
        assert two_morphism_find(pz, zero_butterfly(e0, k2())) is not None

    def test_pushout_recovers_br(self):
        po = pushout_compose(r_chain_map(), identity_butterfly(e2()))
        assert validate(po) == []
        assert two_morphism_find(po, br()) is not None

    def test_agree_with_general_composition(self):
        rng = random.Random(18)
        for _ in range(6):
            e_, f_, g_ = (random_complex(rng, max_order=6) for _ in range(3))
            z = random_butterfly(f_, g_, rng)
            fm1 = hom_solve(e_.deg_m1, f_.deg_m1)
            f0 = hom_solve(e_.deg_0, f_.deg_0, pre=[(e_.d, f_.d.matrix * fm1.matrix)])
            if f0 is None:
                continue
            f = ChainMap(e_, f_, fm1, f0)
            pb = pullback_compose(z, f)
            assert two_morphism_find(pb, compose(z, from_chain_map(f))) is not None
            y = random_butterfly(e_, f_, rng)
            gm1 = hom_solve(f_.deg_m1, g_.deg_m1)
            g0 = hom_solve(f_.deg_0, g_.deg_0, pre=[(f_.d, g_.d.matrix * gm1.matrix)])
            if g0 is None:
                continue
            g = ChainMap(f_, g_, gm1, g0)
            po = pushout_compose(g, y)
            assert two_morphism_find(po, compose(from_chain_map(g), y)) is not None


class TestRandomButterfly:
    def test_deterministic_per_seed(self):
        rng1 = random.Random(99)
        e_, f_ = random_complex(rng1), random_complex(rng1)
        a = random_butterfly(e_, f_, random.Random(7))
        b = random_butterfly(e_, f_, random.Random(7))
        assert a.carrier == b.carrier and a.j.matrix == b.j.matrix

    def test_always_validates(self):
        rng = random.Random(23)
        for _ in range(12):
            y = random_butterfly(random_complex(rng), random_complex(rng), rng)
            assert validate(y) == []

    def test_nonsplit_class_reachable(self):
        # between K2 and K2 the Bockstein class (carrier Z/4) must show up
        hits = set()
        for seed in range(30):
            y = random_butterfly(k2(), k2(), random.Random(seed))
            hits.add(y.carrier.invariant_factors())
        assert (0, (4,)) in hits
        assert (0, (2, 2)) in hits

    def test_golden_seed_regression(self):
        # frozen generator output: flags a change in the sampling scheme
        y = random_butterfly(k2(), k2(), random.Random(0))
        assert validate(y) == []
        assert y.carrier.invariant_factors() == (0, (4,))
        z = random_butterfly(e2(), k2(), random.Random(1))
        assert validate(z) == []
        assert z.carrier.invariant_factors() == (1, (2,))



class TestDenseTorsion:
    """Dense torsion presentations: relations dense n x n in [-9, 9]
    (Random(1)).  Each map keeps its reduced matrix, so a wing into a finite
    group has every entry in [0, the largest Hermite pivot of its target's
    relations), and composites stay as small as their groups; unreduced,
    the composite's wings reached 28,131 bits at n = 5."""

    BUDGET_S = 2.0

    @staticmethod
    def dense_complex(n):
        rng = random.Random(1)
        a, b = (FgAbGroup(n, IntMatrix(n, n, [rng.randint(-9, 9) for _ in range(n * n)]))
                for _ in range(2))
        return TwoTermComplex(random_map(rng, a, b)), rng

    @staticmethod
    def assert_wings_reduced(b):
        for w in (b.i, b.j, b.p, b.q):
            assert w.dst.order() is not None
            _, pivots, _, _ = col_echelon(w.dst.relations)
            largest = max(pivots, default=1)
            assert all(0 <= e < largest for e in w.matrix.entries)

    def test_compose_and_two_morphism_find_n5(self):
        e, rng = self.dense_complex(5)
        start = time.perf_counter()
        y = random_butterfly(e, e, rng)
        c = compose(y, y)
        assert two_morphism_find(c, c) is not None
        assert time.perf_counter() - start < self.BUDGET_S
        self.assert_wings_reduced(y)
        self.assert_wings_reduced(c)

    def test_chain_of_eight_compositions_n4(self):
        e, rng = self.dense_complex(4)
        start = time.perf_counter()
        y = random_butterfly(e, e, rng)
        w = y
        for _ in range(8):
            w = compose(y, w)
            self.assert_wings_reduced(w)
        assert two_morphism_find(w, compose(w, identity_butterfly(e))) is not None
        assert time.perf_counter() - start < self.BUDGET_S

    def test_random_butterfly_n8(self):
        """One random butterfly on dense n = 8 within 3 s: the Hom system's
        transform carries only the rows of X.  On the 2-core host where this
        budget was set it took 5.2-5.5 s carrying the whole transform, and
        about 2 s carrying X's rows."""
        e, rng = self.dense_complex(8)
        start = time.perf_counter()
        y = random_butterfly(e, e, rng)
        assert time.perf_counter() - start < 3.0
        assert validate(y) == []
        self.assert_wings_reduced(y)


def _clear_caches():
    """Empty every memo cache in the package, so a count starts cold."""
    for info in pkgutil.iter_modules(butterflies.__path__, "butterflies."):
        mod = importlib.import_module(info.name)
        for obj in vars(mod).values():
            if hasattr(obj, "cache_clear") and obj.__module__ == mod.__name__:
                obj.cache_clear()


def _composable_triple():
    rng = random.Random(7)
    cxs = [random_complex(rng, max_rank=1, max_order=6) for _ in range(4)]
    return tuple(random_butterfly(a, b, rng) for a, b in zip(cxs, cxs[1:]))


def _bracketings():
    x, y, z = _composable_triple()
    return compose(compose(z, y), x), compose(z, compose(y, x))


def _twice(op):
    """op run twice on the same arguments; returns the second result."""
    def run(*args):
        op(*args)
        return op(*args)
    return run


# (name, arguments built before counting, operation, descent checks at most)
DESCENT_CASES = [
    ("compose B B", lambda: (bockstein(), bockstein()), compose, 8),
    ("compose B B twice", lambda: (bockstein(), bockstein()), _twice(compose), 8),
    ("compose IK2 B", lambda: (ik2(), bockstein()), compose, 8),
    ("compose triple", _composable_triple, lambda x, y, z: compose(compose(z, y), x), 16),
    ("baer_sum B B", lambda: (bockstein(), bockstein()), baer_sum, 8),
    ("baer_sum B IK2", lambda: (bockstein(), ik2()), baer_sum, 8),
    ("baer_sum seeded y y", lambda: _composable_triple()[1:2] * 2, baer_sum, 8),
    ("two_morphism_find B*B IK2", lambda: (compose(bockstein(), bockstein()), ik2()),
     two_morphism_find, 2),
    ("two_morphism_find B B", lambda: (bockstein(), bockstein()), two_morphism_find, 2),
    ("two_morphism_find bracketings", _bracketings, two_morphism_find, 2),
    ("validate B", lambda: (bockstein(),), validate, 3),
    ("validate IK2", lambda: (ik2(),), validate, 3),
    ("validate triple", _composable_triple, lambda x, y, z: [validate(w) for w in (x, y, z)], 9),
    ("les seq10 E2", lambda: (standard_seq_10(e2()),), les, 23),
    ("homology_action B", lambda: (bockstein(),), homology_action, 4),
    ("middle_exact_iso B", lambda: (bockstein(),), middle_exact_iso, 23),
]


class TestDescentCheckCounts:
    """Descent checks (calls of fgab.is_well_defined) per operation, from
    cold caches.  The bounds are the counts once no checked map is built
    only to read its matrix or to state a solver constraint: not in
    composition, the Baer sum, validate, les or middle_exact_iso, nor inside
    simplify, kernels, cokernels and subquotients.  Every map a result holds
    must still prove its descent."""

    @pytest.fixture
    def count_checks(self, monkeypatch):
        calls = []

        def counting(*args):
            calls.append(args)
            return is_well_defined(*args)

        monkeypatch.setattr(fgab, "is_well_defined", counting)

        def run(op, args):
            _clear_caches()
            calls.clear()
            out = op(*args)
            return out, len(calls)
        return run

    @pytest.mark.parametrize("build, op, bound", [c[1:] for c in DESCENT_CASES],
                             ids=[c[0] for c in DESCENT_CASES])
    def test_descent_checks_bounded(self, count_checks, build, op, bound):
        out, checks = count_checks(op, build())
        assert checks <= bound
        if isinstance(out, Butterfly):
            maps = (out.i, out.j, out.p, out.q)
        elif isinstance(out, TwoMorphism):
            maps = (out.m, out.inverse)
        elif isinstance(out, LongExactSequence):
            maps = out.maps
        elif isinstance(out, tuple) and isinstance(out[0], FgAbMap):  # homology_action's pair
            maps = out
        elif isinstance(out, tuple):  # middle_exact_iso's three butterflies
            maps = [w for b in out for w in (b.i, b.j, b.p, b.q)]
        else:
            maps = ()
            assert out in ([], [[], [], []])
        for f in maps:
            assert is_well_defined(f.src, f.dst, f.matrix)


# (name, arguments built before counting, operation, membership tests at most)
MEMBERSHIP_CASES = [
    ("compose B B", lambda: (bockstein(), bockstein()), compose, 10),
    ("baer_sum B B", lambda: (bockstein(), bockstein()), baer_sum, 10),
    ("compose triple", _composable_triple, lambda x, y, z: compose(compose(z, y), x), 15),
    ("two_morphism_find B*B IK2", lambda: (compose(bockstein(), bockstein()), ik2()),
     two_morphism_find, 8),
]


class TestMembershipTestCounts:
    """Membership tests (calls of intlinalg.in_col_span and
    intlinalg.congruent, through every module that binds them) per
    operation, from cold caches.  The bounds are the counts once each fact
    is checked once: subquotient's b*a = 0 is the lift through ker(b), and
    two_morphism_find's inverse equations are TwoMorphism's alone."""

    @pytest.fixture
    def count_tests(self, monkeypatch):
        calls = []

        def counting(original):
            def count(*args):
                calls.append(args)
                return original(*args)
            return count

        wrapped = {id(f): counting(f) for f in (intlinalg.in_col_span, intlinalg.congruent)}
        for info in pkgutil.iter_modules(butterflies.__path__, "butterflies."):
            mod = importlib.import_module(info.name)
            for name, obj in list(vars(mod).items()):
                if id(obj) in wrapped:
                    monkeypatch.setattr(mod, name, wrapped[id(obj)])

        def run(op, args):
            _clear_caches()
            calls.clear()
            op(*args)
            return len(calls)
        return run

    @pytest.mark.parametrize("build, op, bound", [c[1:] for c in MEMBERSHIP_CASES],
                             ids=[c[0] for c in MEMBERSHIP_CASES])
    def test_membership_tests_bounded(self, count_tests, build, op, bound):
        assert count_tests(op, build()) <= bound


class TestChecksBuildNoMatrix:
    """Each check f*g = c is a congruence decided on its entries: no
    IntMatrix.__mul__ or __sub__ runs inside FgAbMap's descent check (on
    sources with relations), TwoMorphism, ButterflyShortSeq or validate,
    on seeded inputs built before counting.  validate runs once first, so
    the kernels and cokernels its exactness verdicts read are memoized."""

    @pytest.fixture
    def arithmetic(self, monkeypatch):
        calls = []
        for name in ("__mul__", "__sub__"):
            def counting(self, other, _original=getattr(IntMatrix, name), _name=name):
                calls.append(_name)
                return _original(self, other)
            monkeypatch.setattr(IntMatrix, name, counting)
        return calls

    def test_descent_check(self, arithmetic):
        rng, built = random.Random(11), 0
        while built < 20:
            a, b = fgab.random_group(rng), fgab.random_group(rng)
            if not a.relations.cols:
                continue
            m = fgab.random_map(rng, a, b).matrix
            arithmetic.clear()
            assert FgAbMap(a, b, m).matrix == m
            assert arithmetic == []
            built += 1

    def test_two_morphism_and_validate(self, arithmetic):
        rng = random.Random(5)
        cxs = [random_complex(rng, max_rank=1, max_order=6) for _ in range(7)]
        chain = [random_butterfly(a, b, rng) for a, b in zip(cxs, cxs[1:])]
        for x, y, z in zip(chain, chain[1:], chain[2:]):
            tm = two_morphism_find(compose(compose(z, y), x), compose(z, compose(y, x)))
            assert validate(y) == []
            arithmetic.clear()
            TwoMorphism(tm.source, tm.target, tm.m, tm.inverse)
            assert validate(y) == []
            assert arithmetic == []

    def test_zero_witness(self, arithmetic):
        rng = random.Random(2)
        for _ in range(8):
            s = random_exact_seq(rng)
            arithmetic.clear()
            ButterflyShortSeq(s.y, s.z, s.phi)
            assert arithmetic == []


def _records_within(value):
    """Every Record reachable from value through fields, tuples and lists."""
    if isinstance(value, intlinalg.Record):
        yield value
        for name in value.__match_args__:
            yield from _records_within(getattr(value, name))
    elif isinstance(value, (tuple, list)):
        for item in value:
            yield from _records_within(item)


class TestKeptHashes:
    """A Record keeps its hash after first use, so a memo hit hashes its key
    without walking the key's nested values again."""

    def test_memo_hits_hash_no_matrix(self, monkeypatch):
        rng = random.Random(33)
        e, f, g = (random_complex(rng, max_rank=1, max_order=6) for _ in range(3))
        y, z = random_butterfly(e, f, rng), random_butterfly(f, g, rng)
        compose(z, y)
        identity_butterfly(e)
        fgab.kernel(y.q)
        hits = [op.cache_info().hits for op in (compose, identity_butterfly, fgab.kernel)]
        calls = []
        original = IntMatrix.__hash__
        monkeypatch.setattr(IntMatrix, "__hash__", lambda m: calls.append(m) or original(m))
        compose(z, y)
        identity_butterfly(e)
        fgab.kernel(y.q)
        assert [op.cache_info().hits for op in (compose, identity_butterfly, fgab.kernel)] == \
            [h + 1 for h in hits]
        assert calls == []

    def test_kept_hash_is_the_field_tuple_hash(self):
        """Each hash is kept only once __post_init__ is done: a hash kept
        before FgAbMap's reduction replaced its matrix would differ here."""
        rng = random.Random(34)
        values = []
        for _ in range(3):
            e, f, g = (random_complex(rng, max_rank=1, max_order=8) for _ in range(3))
            y, z = random_butterfly(e, f, rng), random_butterfly(f, g, rng)
            s = random_exact_seq(rng)
            values += [y, z, compose(z, y), s, les(s)]
        records = list(_records_within(values))
        assert len(records) > 100
        for r in records:
            fields = tuple(getattr(r, n) for n in r.__match_args__)
            assert hash(r) == hash(fields)
            assert r == type(r)(*fields)

    def test_copies_and_pickles_rebuild_equal_values(self):
        """copy, deepcopy and a pickle round trip rebuild every kind of
        library result, from IntMatrix up to LongExactSequence, through its
        class: the copy equals the original and hashes as it does."""
        rng = random.Random(35)
        e, f, g = (random_complex(rng, max_rank=1, max_order=8) for _ in range(3))
        y, z = random_butterfly(e, f, rng), random_butterfly(f, g, rng)
        s = random_exact_seq(rng)
        values = [y, compose(z, y), two_morphism_find(y, y), classify(y), s, les(s),
                  FgAbGroup.cyclic(3), fgab.kernel(y.q), fgab.cokernel(y.i), fgab.image(y.q),
                  fgab.simplify(Z4), fgab.ext1_realize(Z2, Z4), homology(e), r_chain_map(),
                  derived.derived_tensor(Z2, Z4), derived.biext_groups(Z2, Z2, Z), oracle.realize(Z4)]
        records = list(_records_within(values))
        kinds = {type(r).__name__ for r in records}
        assert kinds == {"IntMatrix", "FgAbGroup", "FgAbMap", "Simplified", "Kernel", "Cokernel",
                         "Image", "Ext1", "TwoTermComplex", "ChainMap", "Homology", "Butterfly",
                         "TwoMorphism", "Classification", "ButterflyShortSeq", "LongExactSequence",
                         "DerivedTensor", "BiextGroups", "Realization", "ElementGroup"}
        for r in records:
            for twin in (copy.copy(r), copy.deepcopy(r), pickle.loads(pickle.dumps(r))):
                assert type(twin) is type(r)
                assert twin == r and hash(twin) == hash(r)
