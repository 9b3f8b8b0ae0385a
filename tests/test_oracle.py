import random

import pytest

from butterflies.intlinalg import IntMatrix
from butterflies.fgab import FgAbGroup, FgAbMap, direct_sum, subquotient, is_exact_at
from butterflies.twocomplex import homology, random_complex
from butterflies.butterfly import two_morphism_find, random_butterfly
from butterflies.oracle import (
    OracleError, ElementGroup, realize, element_map,
    kernel_elements, image_elements, span,
    element_homology, quotient_structure, group_structure,
    enumerate_two_morphisms,
)
from butterflies.fixtures import k2, bockstein, ik2, Z2, Z4


def m(rows):
    return IntMatrix.from_rows(rows)


class TestRealize:
    def test_cyclic(self):
        assert realize(Z2).egroup.orders == (2,)

    def test_diag_relations(self):
        g = FgAbGroup(2, m([[2, 0], [0, 4]]))
        assert sorted(realize(g).egroup.orders) == [2, 4]

    def test_trivial(self):
        assert realize(FgAbGroup.trivial()).egroup.orders == ()

    def test_infinite_rejected(self):
        with pytest.raises(OracleError):
            realize(FgAbGroup.free(1))

    def test_cap(self):
        with pytest.raises(OracleError):
            realize(FgAbGroup.cyclic(9999))

    def test_roundtrip(self):
        g = FgAbGroup(2, m([[2, 3], [0, 6]]))
        r = realize(g)
        for el in r.egroup.elements():
            assert r.to_element(r.rep_of(el)) == el


class TestElementGroup:
    def test_arithmetic(self):
        eg = ElementGroup((2, 4))
        assert eg.add((1, 3), (1, 2)) == (0, 1)
        assert eg.size == 8


class TestElementHomology:
    def test_exact_pair_is_trivial(self):
        rZ2, rZ4 = realize(Z2), realize(Z4)
        a = element_map(FgAbMap(Z2, Z4, m([[2]])), rZ2, rZ4)
        b = element_map(FgAbMap(Z4, Z2, m([[1]])), rZ4, rZ2)
        assert element_homology(a, b, rZ2.egroup, rZ4.egroup, rZ2.egroup.zero()) == ()

    def test_zero_maps_give_whole_group(self):
        rZ4 = realize(Z4)
        z = element_map(FgAbMap.zero(Z4, Z4), rZ4, rZ4)
        assert element_homology(z, z, rZ4.egroup, rZ4.egroup, rZ4.egroup.zero()) == (4,)

    def test_identity_then_zero_is_trivial(self):
        rZ4 = realize(Z4)
        idm = element_map(FgAbMap.identity(Z4), rZ4, rZ4)
        z = element_map(FgAbMap.zero(Z4, Z4), rZ4, rZ4)
        assert element_homology(idm, z, rZ4.egroup, rZ4.egroup, rZ4.egroup.zero()) == ()

    def test_order8_subquotient(self):
        z44 = direct_sum(Z4, Z4)
        r44, rZ2 = realize(z44), realize(Z2)
        a = element_map(FgAbMap(Z2, z44, m([[2], [2]])), rZ2, r44)
        b = element_map(FgAbMap(z44, Z2, m([[-1, 1]])), r44, rZ2)
        assert element_homology(a, b, rZ2.egroup, r44.egroup, rZ2.egroup.zero()) == (2, 2)

    def test_rejects_nonzero_composite(self):
        rZ4 = realize(Z4)
        idm = element_map(FgAbMap.identity(Z4), rZ4, rZ4)
        with pytest.raises(OracleError):
            element_homology(idm, idm, rZ4.egroup, rZ4.egroup, rZ4.egroup.zero())


def test_quotient_structure_z4_z4_mod_diagonal():
    z44 = direct_sum(Z4, Z4)
    r = realize(z44)
    assert quotient_structure(r.egroup, frozenset(r.egroup.elements()),
                              span([r.to_element(IntMatrix.column([2, 2]))], r.egroup)) == (2, 4)


class TestEnumerateTwoMorphisms:
    def test_bockstein_automorphisms(self):
        assert len(enumerate_two_morphisms(bockstein(), bockstein())) == 2

    def test_no_morphisms_across_classes(self):
        assert enumerate_two_morphisms(bockstein(), ik2()) == []

    def test_identity_automorphisms_count(self):
        # = |Hom(H^0 K2, H^-1 K2)| = 2
        assert len(enumerate_two_morphisms(ik2(), ik2())) == 2

    def test_matches_solver(self):
        rng = random.Random(40)
        agree = 0
        for _ in range(12):
            e_ = random_complex(rng, max_rank=0, max_order=4)
            f_ = random_complex(rng, max_rank=0, max_order=4)
            a = random_butterfly(e_, f_, rng)
            b = random_butterfly(e_, f_, rng)
            try:
                enum = enumerate_two_morphisms(a, b)
            except OracleError:
                continue
            assert (two_morphism_find(a, b) is not None) == (len(enum) > 0)
            agree += 1
        assert agree >= 5


def test_presentation_vs_element_homology_on_random_complexes():
    rng = random.Random(41)
    checked = 0
    for _ in range(30):
        cx = random_complex(rng, max_rank=0, max_order=8)
        try:
            rm1, r0 = realize(cx.deg_m1), realize(cx.deg_0)
        except OracleError:
            continue
        checked += 1
        d = element_map(cx.d, rm1, r0)
        h = homology(cx)
        ker = kernel_elements(d, rm1.egroup, r0.egroup.zero())
        assert h.hm1.invariant_factors() == (0, group_structure(ker, rm1.egroup))
        ima = span(list(image_elements(d, rm1.egroup)), r0.egroup)
        coker = quotient_structure(r0.egroup, frozenset(r0.egroup.elements()), ima)
        assert h.h0.invariant_factors() == (0, coker)
    assert checked >= 10


def test_exactness_agrees_with_oracle():
    rng = random.Random(42)
    both = 0
    for _ in range(25):
        a_grp = random_complex(rng, max_rank=0, max_order=4)
        mid = a_grp.deg_0
        from butterflies.fgab import random_map
        b_map = random_map(rng, mid, random_complex(rng, max_rank=0, max_order=4).deg_0)
        a_map = a_grp.d
        if not (b_map * a_map).is_zero():
            continue
        try:
            ra = realize(a_map.src)
            rm = realize(mid)
            rb = realize(b_map.dst)
        except OracleError:
            continue
        afn = element_map(a_map, ra, rm)
        bfn = element_map(b_map, rm, rb)
        assert is_exact_at(a_map, b_map) == (
            image_elements(afn, ra.egroup) == kernel_elements(bfn, rm.egroup, rb.egroup.zero()))
        both += 1
    assert both >= 3
