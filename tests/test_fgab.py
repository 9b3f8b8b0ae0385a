import random
from collections import Counter

import pytest
from hypothesis import given, settings, strategies as st

from butterflies import fgab, intlinalg, jsonio
from butterflies.intlinalg import (
    IntMatrix, in_col_span, hstack, kernel_basis, submatrix, snf, col_echelon, solve,
)
from butterflies.butterfly import compose, identity_butterfly, two_morphism_find
from butterflies.fixtures import bockstein, e2, ik2
from butterflies.fgab import (
    FgAbGroup, FgAbMap, is_well_defined, direct_sum, simplify,
    kernel, cokernel, image, subquotient, is_exact_at, is_injective,
    is_surjective, exact_verdicts, hom_solve, hom_solve_all, ext1_realize, hom_group,
    random_group, random_map, factor_through_injection, lift, map_lattice, preimage_lattice,
    precompose, dual_presentation, free_presentation, Simplified,
)

Z = FgAbGroup.free(1)
Z2 = FgAbGroup.cyclic(2)
Z4 = FgAbGroup.cyclic(4)
Z6 = FgAbGroup.cyclic(6)


def m(rows):
    return IntMatrix.from_rows(rows)


class TestWellDefined:
    def test_identity(self):
        for g in (Z, Z4, FgAbGroup.trivial()):
            assert is_well_defined(g, g, IntMatrix.identity(g.ngens))

    def test_z4_to_z2(self):
        assert is_well_defined(Z4, Z2, m([[1]]))

    def test_z2_to_z4_fails(self):
        assert not is_well_defined(Z2, Z4, m([[1]]))
        with pytest.raises(ValueError):
            FgAbMap(Z2, Z4, m([[1]]))

    def test_bad_shape_names_both_shapes(self):
        # a free source has no relations to test, and is still refused
        for check in (FgAbMap, is_well_defined):
            for src in (Z2, Z):
                with pytest.raises(ValueError, match="^matrix is 1x2, expected 1x1$"):
                    check(src, Z4, m([[1, 2]]))
            with pytest.raises(ValueError, match="^matrix is 1x1, expected 1x2$"):
                check(FgAbGroup.free(2), Z4, m([[1]]))


class TestMapEqual:
    """== on maps is equality of homomorphisms: each map keeps the reduced
    representative of its matrix modulo the target's relations."""

    def test_reflexive(self):
        f = FgAbMap(Z4, Z2, m([[1]]))
        assert f == f

    def test_mod_relations(self):
        assert FgAbMap(Z2, Z2, m([[1]])) == FgAbMap(Z2, Z2, m([[3]]))
        assert FgAbMap(Z2, Z2, m([[-5]])).matrix == m([[1]])
        assert FgAbMap(Z4, Z2, m([[2]])).is_zero()

    def test_distinct_on_free(self):
        assert FgAbMap.identity(Z) != FgAbMap.zero(Z, Z)

    def test_rejects_mismatched_endpoints(self):
        # the same matrix between other presentations is another map
        assert FgAbMap.identity(Z) != FgAbMap.identity(Z2)
        assert FgAbMap(Z2, Z2, m([[1]])) != FgAbMap(Z4, Z2, m([[1]]))


class TestKernel:
    def test_times2_on_z(self):
        k = kernel(FgAbMap(Z, Z, m([[2]])))
        assert k.group.is_trivial()

    def test_reduction_z4_z2(self):
        k = kernel(FgAbMap(Z4, Z2, m([[1]])))
        assert k.group.invariant_factors() == (0, (2,))
        # the inclusion hits exactly {0, 2} in Z/4
        g = k.incl.matrix[0, 0] % 4
        assert g == 2

    def test_zero_map(self):
        k = kernel(FgAbMap.zero(Z4, Z2))
        assert k.group.invariant_factors() == Z4.invariant_factors()
        assert is_injective(k.incl) and is_surjective(k.incl)

    def test_factorization(self):
        f = FgAbMap(Z4, Z2, m([[1]]))
        k = kernel(f)
        x = FgAbMap(Z2, Z4, m([[2]]))
        u = k.factor(x.src, x.matrix)
        assert k.incl * u == x

    def test_factor_refuses_matrix_outside_kernel(self):
        k = kernel(FgAbMap(Z4, Z2, m([[1]])))
        with pytest.raises(ValueError, match="does not land in the subgroup"):
            k.factor(Z, m([[1]]))                        # 1 in Z/4 is not killed mod 2


def _kernel_by_span(f):
    """The kernel construction that presenting L = {x : f*x in rel(dst)} on
    a basis replaced: generators of L, the top rows of the kernel of
    [f | dst.relations], then the relations among them from a second kernel,
    of [generators | src.relations].  (group, generators as columns)."""
    gens = submatrix(kernel_basis(hstack(f.matrix, f.dst.relations)), range(f.src.ngens))
    rel = submatrix(kernel_basis(hstack(gens, f.src.relations)), range(gens.cols))
    return FgAbGroup(gens.cols, rel), gens


def _with_dependent_relator(rng, g):
    """g presented again with a dependent relator appended: a copy of one
    relation column or the sum of two, or a zero column when g has none."""
    rel = g.relations
    if not rel.cols:
        return FgAbGroup(g.ngens, IntMatrix.zeros(g.ngens, 1))
    i, j = rng.randrange(rel.cols), rng.randrange(rel.cols)
    extra = rel.col(i) if rng.random() < 0.5 else [a + b for a, b in zip(rel.col(i), rel.col(j))]
    return FgAbGroup(g.ngens, hstack(rel, IntMatrix.column(extra)))


# use_true_random, for the reason given at the exactness property below
@given(st.randoms(use_true_random=True))
@settings(max_examples=60, deadline=None)
def test_kernel_on_lattice_basis_matches_span_construction(rng):
    src = random_group(rng, max_order=8)
    if rng.random() < 0.75:  # mostly sources with relations
        src = direct_sum(src, FgAbGroup.cyclic(rng.randint(2, 6)))
    dst = _with_dependent_relator(rng, random_group(rng, max_order=8))
    f = random_map(rng, src, dst)
    old, gens = _kernel_by_span(f)
    ker = kernel(f)
    assert ker.group.invariant_factors() == old.invariant_factors()
    # the two inclusions span one subgroup modulo src's relations
    assert in_col_span(hstack(ker.incl.matrix, src.relations), gens)
    assert in_col_span(hstack(gens, src.relations), ker.incl.matrix)
    # and the image is src modulo the same lattice
    assert image(f).group.invariant_factors() == FgAbGroup(src.ngens, gens).invariant_factors()


def _dense_pair(n):
    """Two dense n x n matrices with entries in [-9, 9], seeded by n: the
    relations M of _map_out_of_free_group(n)'s target, then its map."""
    rng = random.Random(n)
    return [IntMatrix(n, n, [rng.randint(-9, 9) for _ in range(n * n)]) for _ in range(2)]


def _map_out_of_free_group(n):
    """From cleared caches, a map Z^n -> Z^n/M for a random dense M, given
    by a random dense matrix: the shape of the presentations benchmark."""
    rel, matrix = _dense_pair(n)
    free = FgAbGroup.free(n)
    for cache in (col_echelon, snf, kernel, cokernel):
        cache.cache_clear()
    cok = cokernel(FgAbMap(free, free, rel))
    return FgAbMap(free, cok.group, cok.proj.matrix * matrix)


@pytest.mark.parametrize("n", range(4, 9))
def test_kernel_and_image_out_of_free_group_factor_once(n):
    """Column echelon factorizations computed (col_echelon misses) from cold
    caches: the kernel of a map out of a free group is one factorization,
    of [f | free_presentation(dst)], with no second pass for the relations
    among its generators, and the image of the same map reuses it."""
    f = _map_out_of_free_group(n)
    before = col_echelon.cache_info().misses  # f's construction factored dst's relations
    kernel(f)
    assert col_echelon.cache_info().misses - before == 1
    image(f)
    assert col_echelon.cache_info().misses - before == 1


def test_exactness_factors_nothing_past_the_kernels():
    """From cold caches, once kernel(a) and kernel(b) exist, is_exact_at(a, b)
    adds no column echelon factorization: ker(b) is tested against
    map_lattice(a), which kernel(a) factored, and b*a against b.dst's
    relations, which kernel(b) factored.  The first pair's middle group has
    a redundant relator, so [a | relations] would be another matrix."""
    mid = FgAbGroup(1, m([[4, 8]]))  # Z/4
    pairs = [(FgAbMap(Z2, mid, m([[2]])), FgAbMap(mid, Z2, m([[1]])))]
    rng = random.Random(11)
    for _ in range(20):
        pairs += [composable_pair(rng), any_composable_pair(rng)]
    verdicts = []
    for a, b in pairs:
        for cache in (col_echelon, snf, fgab.map_lattice, kernel, cokernel):
            cache.cache_clear()
        kernel(a), kernel(b)
        before = col_echelon.cache_info().misses
        verdicts.append(is_exact_at(a, b))
        assert col_echelon.cache_info().misses == before
    assert verdicts[0] and not all(verdicts)


@pytest.mark.parametrize("n", range(4, 9))
def test_image_smith_form_is_target_sized(n, monkeypatch):
    """From cold caches, the image of a map out of Z^n simplifies a group on
    at most dst.ngens generators, and calls snf only on matrices with at
    most dst.ngens rows: it is presented in dst's coordinates, not as Z^n
    modulo the map's lattice (n rows).  Here that group is often simplified
    already and takes no snf, so the group itself is what is bounded."""
    f = _map_out_of_free_group(n)
    for cache in (col_echelon, snf):
        cache.cache_clear()
    assert f.dst.ngens < n
    rows, ngens = [], []
    original = fgab.simplify

    def counted(m):
        rows.append(m.rows)
        return snf(m)

    def spied(g):
        ngens.append(g.ngens)
        return original(g)

    monkeypatch.setattr(fgab, "snf", counted)
    monkeypatch.setattr(fgab, "simplify", spied)
    image(f)
    assert ngens and max(ngens) <= f.dst.ngens
    assert max(rows, default=0) <= f.dst.ngens


@pytest.mark.parametrize("n", range(4, 9))
def test_simplified_presentations_take_no_smith_form(n, monkeypatch):
    """From cold caches, building the map out of Z^n and taking its kernel
    and image calls snf on no matrix but the relations M of the cokernel
    that makes the target: the kernel's group is free and the image's is
    the target's own diagonal presentation, both already what simplify
    returns.  And simplify of simplify's own output calls no snf."""
    seen = []
    monkeypatch.setattr(fgab, "snf", lambda m: seen.append(m) or snf(m))
    f = _map_out_of_free_group(n)
    kernel(f), image(f)
    rel = _dense_pair(n)[0]
    assert seen and all(m == rel for m in seen)
    rng = random.Random(n)
    for _ in range(20):
        g = simplify(random_group(rng, max_rank=3)).group
        seen.clear()
        simplify(g)
        assert not seen


def _image_on_source(f):
    """The image construction that presenting in dst's coordinates replaced:
    src/L on src's generators, for f's lattice L = {x : f*x in rel(dst)},
    then simplified.  (group, inclusion matrix)"""
    simp = simplify(FgAbGroup(f.src.ngens, fgab.preimage_lattice(f)))
    return simp.group, f.matrix * simp.fro


# use_true_random, for the reason given at the exactness property below
@given(st.randoms(use_true_random=True))
@settings(max_examples=60, deadline=None)
def test_image_in_target_coordinates_matches_source_construction(rng):
    src = random_group(rng, max_order=8)
    if rng.random() < 0.75:  # mostly sources with relations
        src = direct_sum(src, FgAbGroup.cyclic(rng.randint(2, 6)))
    if rng.random() < 0.2:
        dst = FgAbGroup.free(rng.randint(0, 3))
    else:
        dst = _with_dependent_relator(rng, random_group(rng, max_order=8))
    f = FgAbMap.zero(src, dst) if rng.random() < 0.15 else random_map(rng, src, dst)
    old, old_incl = _image_on_source(f)
    im = image(f)
    assert im.group.invariant_factors() == old.invariant_factors()
    assert im.incl * im.corestrict == f
    assert is_injective(im.incl) and is_surjective(im.corestrict)
    # the two inclusions span one subgroup modulo dst's relations
    assert in_col_span(hstack(im.incl.matrix, dst.relations), old_incl)
    assert in_col_span(hstack(old_incl, dst.relations), im.incl.matrix)


class TestCokernel:
    def test_times2(self):
        assert cokernel(FgAbMap(Z, Z, m([[2]]))).group.invariant_factors() == (0, (2,))

    def test_identity(self):
        assert cokernel(FgAbMap.identity(Z4)).group.is_trivial()

    def test_times2_into_z6(self):
        assert cokernel(FgAbMap(Z, Z6, m([[2]]))).group.invariant_factors() == (0, (2,))

    def test_induce_refuses_matrix_not_killing_image(self):
        cok = cokernel(FgAbMap(Z, Z, m([[2]])))          # Z/2
        assert cok.induce(Z2, m([[1]])) * cok.proj == FgAbMap(Z, Z2, m([[1]]))
        with pytest.raises(ValueError, match="does not define a homomorphism"):
            cok.induce(Z, m([[1]]))                      # the identity of Z does not kill 2Z
        with pytest.raises(ValueError, match="does not define a homomorphism"):
            # the cokernel is trivial, so y * fro descends; y still does not kill Z
            cokernel(FgAbMap.identity(Z)).induce(Z, m([[1]]))


class TestSubquotient:
    def test_trivial_homology(self):
        a = FgAbMap(Z2, Z4, m([[2]]))
        b = FgAbMap(Z4, Z2, m([[1]]))
        assert subquotient(a.src, a.matrix, b).group.is_trivial()

    def test_zero_maps_give_whole_group(self):
        sq = subquotient(Z2, IntMatrix.zeros(1, 1), FgAbMap.zero(Z4, Z2))
        assert sq.group.invariant_factors() == (0, (4,))

    def test_order8_example(self):
        z44 = direct_sum(Z4, Z4)
        a = FgAbMap(Z2, z44, m([[2], [2]]))
        b = FgAbMap(z44, Z2, m([[-1, 1]]))
        assert subquotient(a.src, a.matrix, b).group.invariant_factors() == (0, (2, 2))

    def test_rejects_nonzero_composite(self):
        with pytest.raises(ValueError):
            subquotient(Z4, IntMatrix.identity(1), FgAbMap(Z4, Z2, m([[1]])))

    def test_lift_in_induce_out_contracts(self):
        # H = ker(b)/im(a) for the order-8 example; check the two facilities
        # against hand-picked maps with the required vanishing.
        z44 = direct_sum(Z4, Z4)
        a = FgAbMap(Z2, z44, m([[2], [2]]))
        b = FgAbMap(z44, Z2, m([[-1, 1]]))
        sq = subquotient(a.src, a.matrix, b)
        x = FgAbMap(Z4, z44, m([[1], [1]]))          # b*x = 0
        lifted = sq.lift_in(x.src, x.matrix)
        assert lifted.src == Z4 and lifted.dst == sq.group
        y = FgAbMap(z44, Z2, m([[1, 1]]))            # y*a = 0 (2+2 = 0 mod 2... 4 = 0)
        out = sq.induce_out(y.dst, y.matrix)
        assert out.src == sq.group and out.dst == Z2
        # compatibility: induced map after lift equals the original composite
        assert out * lifted == y * x

    def test_lift_in_refuses_matrix_outside_kernel(self):
        z44 = direct_sum(Z4, Z4)
        sq = subquotient(Z2, m([[2], [2]]), FgAbMap(z44, Z2, m([[-1, 1]])))
        with pytest.raises(ValueError, match="does not land in the subgroup"):
            sq.lift_in(Z, m([[1], [0]]))                # b*x = -1, not 0 in Z/2


class TestExactness:
    def test_inclusion_exact(self):
        a = FgAbMap(Z2, Z4, m([[2]]))
        b = FgAbMap(Z4, Z2, m([[1]]))
        assert is_exact_at(a, b)

    def test_identity_exact_at_middle(self):
        z0 = FgAbGroup.trivial()
        # 0 -> Z --id--> Z and Z --0--> Z --id--> Z are exact at the middle
        assert is_exact_at(FgAbMap.zero(z0, Z), FgAbMap.identity(Z))
        assert is_exact_at(FgAbMap.zero(Z, Z), FgAbMap.identity(Z))
        # Z --id--> Z --id--> Z is not: b*a = id is not zero
        assert not is_exact_at(FgAbMap.identity(Z), FgAbMap.identity(Z))

    def test_zero_zero_not_exact(self):
        assert not is_exact_at(FgAbMap.zero(Z2, Z2), FgAbMap.zero(Z2, Z2))

    def test_nonzero_composite_not_exact(self):
        # ker(b) = 2Z/4 lies in im(a) = Z/4, but b*a is not zero
        assert not is_exact_at(FgAbMap.identity(Z4), FgAbMap(Z4, Z2, m([[1]])))

    def test_one_map_gives_injective_then_surjective(self):
        assert list(exact_verdicts(FgAbMap(Z2, Z4, m([[2]])))) == [True, False]
        assert list(exact_verdicts(FgAbMap(Z4, Z2, m([[1]])))) == [False, True]
        assert list(exact_verdicts(FgAbMap.identity(Z4))) == [True, True]
        assert list(exact_verdicts(FgAbMap.zero(Z, Z))) == [False, False]

    def test_all_stops_at_the_first_failing_verdict(self, monkeypatch):
        """0 -> Z/2 --2--> Z/4 --0--> Z/4 --1--> Z/2 -> 0 first fails at the
        first Z/4, so all(...) decides after two verdicts and runs no more."""
        calls = []
        for name in ("is_injective", "is_exact_at", "is_surjective"):
            def counted(*maps, _name=name, _original=getattr(fgab, name)):
                calls.append(_name)
                return _original(*maps)
            monkeypatch.setattr(fgab, name, counted)
        maps = (FgAbMap(Z2, Z4, m([[2]])), FgAbMap.zero(Z4, Z4), FgAbMap(Z4, Z2, m([[1]])))
        assert not all(exact_verdicts(*maps))
        assert calls == ["is_injective", "is_exact_at"]
        calls.clear()
        assert list(exact_verdicts(*maps)) == [True, False, False, True]
        assert calls == ["is_injective", "is_exact_at", "is_exact_at", "is_surjective"]


def composable_pair(rng):
    """a: A -> M and b: M -> C with b*a = 0, on random_group presentations
    (scrambled half the time).  Either a factors through the kernel of a
    random b, or b factors through the cokernel of a random a."""
    a_grp, m_grp, c_grp = (random_group(rng, max_order=8) for _ in range(3))
    if rng.random() < 0.5:
        b = random_map(rng, m_grp, c_grp)
        k = kernel(b)
        a = k.incl * random_map(rng, a_grp, k.group)
    else:
        a = random_map(rng, a_grp, m_grp)
        cok = cokernel(a)
        b = random_map(rng, cok.group, c_grp) * cok.proj
    return a, b


def any_composable_pair(rng):
    """a: A -> M and b: M -> C drawn apart, so b*a is often not zero."""
    a_grp, m_grp, c_grp = (random_group(rng, max_order=8) for _ in range(3))
    return random_map(rng, a_grp, m_grp), random_map(rng, m_grp, c_grp)


def exact_by_subquotient(a, b):
    """The definition is_exact_at decides by membership: ker(b)/im(a) = 0."""
    return subquotient(a.src, a.matrix, b).group.is_trivial()


def exact_by_definition(a, b):
    """Exact at the middle: b*a is zero and ker(b)/im(a) is trivial."""
    return (b * a).is_zero() and exact_by_subquotient(a, b)


# use_true_random: the shrinkable streams repeat small draws, so a third of
# the middle groups come out trivial and the relations of the middle group
# never decide a verdict
@given(st.randoms(use_true_random=True))
@settings(max_examples=60, deadline=None)
def test_exactness_membership_matches_subquotient(rng):
    a, b = composable_pair(rng)
    assert (b * a).is_zero()
    assert is_exact_at(a, b) == exact_by_subquotient(a, b)
    a, b = any_composable_pair(rng)
    assert is_exact_at(a, b) == exact_by_definition(a, b)


def test_exactness_sees_each_outcome_of_the_composite_test():
    """Over pairs drawn both ways, b*a comes out a zero matrix (answered
    with no factorization), a nonzero matrix inside b.dst's relations, and
    a nonzero map, and each verdict is the definition's."""
    rng = random.Random(9)
    kinds = Counter()
    for _ in range(60):
        for a, b in (composable_pair(rng), any_composable_pair(rng)):
            product = b.matrix * a.matrix
            kinds["zero matrix" if not any(product.entries)
                  else "zero map" if (b * a).is_zero() else "nonzero map"] += 1
            assert is_exact_at(a, b) == exact_by_definition(a, b)
    assert min(kinds[k] for k in ("zero matrix", "zero map", "nonzero map")) >= 5, kinds


def test_exactness_membership_sees_both_verdicts():
    rng = random.Random(8)
    verdicts = []
    for _ in range(60):
        a, b = composable_pair(rng)
        verdict = is_exact_at(a, b)
        assert verdict == exact_by_subquotient(a, b)
        verdicts.append(verdict)
    assert verdicts.count(True) >= 10 and verdicts.count(False) >= 10


def simplify_inputs():
    """(25 random groups, 5 groups with dense n x n relations).

    Dense relations with entries in [-9, 9] have large U^-1 entries.
    """
    rng = random.Random(4)
    dense = [FgAbGroup(n, IntMatrix(n, n, [rng.randint(-9, 9) for _ in range(n * n)]))
             for n in (4, 5, 6, 7, 8)]
    return [random_group(rng) for _ in range(25)], dense


class TestInvariantFactors:
    def test_free(self):
        assert Z.invariant_factors() == (1, ())

    def test_diagonal_relations(self):
        g = FgAbGroup(2, m([[2, 0], [0, 4]]))
        assert g.invariant_factors() == (0, (2, 4))

    def test_quotient_of_z4_z4(self):
        z44 = direct_sum(Z4, Z4)
        quo = cokernel(FgAbMap(Z2, z44, m([[2], [2]]))).group
        assert quo.invariant_factors() == (0, (2, 4))

    def test_simplify_is_isomorphism(self):
        randoms, dense = simplify_inputs()
        # the trivial group on three generators, related by a unimodular matrix
        hidden = FgAbGroup(3, fgab.random_unimodular(random.Random(5), 3))
        for g in randoms + dense + [hidden]:
            s = simplify(g)
            assert s.group.invariant_factors() == g.invariant_factors()
            assert (s.group.ngens == 0) == g.is_trivial()
            to, fro = FgAbMap(g, s.group, s.to), FgAbMap(s.group, g, s.fro)
            assert fro * to == FgAbMap.identity(g)
            assert to * fro == FgAbMap.identity(s.group)


def test_simplify_depends_only_on_the_relation_lattice():
    """Two presentations of one relation lattice on the same generators
    simplify alike: the same group, and the same maps to and from it."""
    rng = random.Random(7)
    randoms, dense = simplify_inputs()
    for g in randoms + dense:
        rel = g.relations
        c = IntMatrix.column([rng.randint(-3, 3) for _ in range(rel.cols)])
        other = hstack(rel * fgab.random_unimodular(rng, rel.cols), rel * c)
        assert simplify(FgAbGroup(g.ngens, other)) == simplify(g)


@pytest.mark.parametrize("g", [FgAbGroup.free(3), FgAbGroup.trivial()], ids=["free3", "trivial"])
def test_simplify_keeps_free_and_trivial_groups(g):
    s = simplify(g)
    assert s.group == g
    assert s.to == s.fro == IntMatrix.identity(g.ngens)


def _simplify_by_snf(g):
    """simplify with no shortcut: cut the group and both maps out of snf's
    S, U and U^-1, whatever the presentation."""
    s, u, w = snf(g.relations)
    diag = [s[i, i] for i in range(min(s.rows, s.cols))]
    units, nonzero = diag.count(1), len(diag) - diag.count(0)
    kept = range(units, g.ngens)
    group = FgAbGroup(len(kept), submatrix(s, kept, range(units, nonzero)))
    return Simplified(group, submatrix(u, kept), submatrix(w, range(g.ngens), kept))


def _near_simplified(rng):
    """A relation matrix near simplify's output form: a diagonal chain
    d_1 | ... | d_t on t columns of at least t rows, then sometimes one
    flaw: a chain that does not divide, a unit or a negative entry on the
    diagonal, an entry off it, a zero column, or one more column than rows
    with one nonzero entry in it."""
    t = rng.randint(0, 3)
    d = [rng.choice([2, 3, 4])]
    for _ in range(t - 1):
        d.append(d[-1] * rng.choice([1, 2, 3]))
    d = d[:t]
    rows = t + rng.randint(0, 2)
    ent = [[d[j] if i == j else 0 for j in range(t)] for i in range(rows)]
    flaw = rng.randrange(8)
    if t and flaw == 0:
        ent[t - 1][t - 1] += 1
    elif t and flaw == 1:
        ent[0][0] = rng.choice([1, -2])
    elif t and rows > 1 and flaw == 2:
        ent[rng.randrange(1, rows)][0] = rng.randint(1, 5)
    elif flaw == 3:
        ent = [row + [0] for row in ent]
    elif t and flaw == 4:
        ent = [row + [0] for row in ent[:t]]
        ent[rng.randrange(t)][t] = rng.randint(1, 5)
    cols = len(ent[0]) if ent else t
    return FgAbGroup(len(ent), IntMatrix(len(ent), cols, [e for row in ent for e in row]))


# use_true_random, for the reason given at the exactness property below
@given(st.randoms(use_true_random=True))
@settings(max_examples=100, deadline=None)
def test_simplified_presentations_come_back_as_they_are(rng):
    """simplify hands back what is already simplified, and only that: on a
    random presentation, simplify of its output is (that group, I, I); on
    every presentation, the shortcut and snf give the same Simplified, and
    the form test accepts exactly those snf leaves as they are."""
    r, c = rng.randint(0, 4), rng.randint(0, 4)
    g = FgAbGroup(r, IntMatrix(r, c, [rng.randint(-6, 6) for _ in range(r * c)]))
    group = simplify(g).group
    eye = IntMatrix.identity(group.ngens)
    assert simplify(group) == Simplified(group, eye, eye)
    for h in (g, group, random_group(rng, max_rank=3), _near_simplified(rng)):
        by_snf = _simplify_by_snf(h)
        assert simplify(h) == by_snf
        eye = IntMatrix.identity(h.ngens)
        assert fgab._in_simplified_form(h.relations) == (by_snf == Simplified(h, eye, eye))


def test_cached_kernel_and_cokernel_match_fresh():
    for g in simplify_inputs()[1]:
        n = g.ngens
        doubling = FgAbMap(g, g, 2 * IntMatrix.identity(n))
        into = FgAbMap(FgAbGroup.free(n), g, IntMatrix(n, n, g.relations.entries[::-1]))
        for f in (doubling, into):
            for construction in (kernel, cokernel):
                construction.cache_clear()
                fresh = construction(f)
                assert construction(f) is fresh
                assert construction.cache_info().hits == 1
                construction.cache_clear()
                assert construction(f) == fresh


def _reparsed(b):
    """b rebuilt through an emit/parse round trip: equal, not identical."""
    text = jsonio.emit(jsonio.document("butterfly", jsonio.butterfly_to_json(b)))
    kind, out = jsonio.parse_document(text)
    assert kind == "butterfly" and out == b and out is not b
    return out


def test_cached_composition_matches_fresh():
    """Keys are presentation identity: a repeat, or equal inputs rebuilt from
    JSON, return the very object the first call built; a fresh build after
    clearing equals it."""
    args = (ik2(), bockstein())
    compose.cache_clear()
    fresh = compose(*args)
    assert compose(*args) is fresh
    assert compose.cache_info().hits == 1
    assert compose(*map(_reparsed, args)) is fresh
    assert compose.cache_info().hits == 2
    compose.cache_clear()
    assert compose(*args) == fresh


def test_memoized_endpoint_mismatch_raises_every_time():
    b, e = bockstein(), identity_butterfly(e2())
    compose.cache_clear()
    for _ in range(2):
        with pytest.raises(ValueError, match="mismatch"):
            compose(b, e)
    assert compose.cache_info().currsize == 0


class TestHomSolve:
    def test_refuses_mismatched_constraints(self):
        into_z4, onto_z2 = FgAbMap(Z2, Z4, m([[2]])), FgAbMap(Z4, Z2, m([[1]]))
        with pytest.raises(ValueError, match="pre-constraint endpoint mismatch"):
            hom_solve(Z2, Z2, pre=[(into_z4, m([[1]]))])    # X * f needs f.dst = X.src
        with pytest.raises(ValueError, match="post-constraint endpoint mismatch"):
            hom_solve(Z2, Z2, post=[(onto_z2, m([[1]]))])   # h * X needs h.src = X.dst
        with pytest.raises(ValueError, match="shape mismatch"):
            hom_solve(Z2, Z4, pre=[(FgAbMap.identity(Z2), m([[1, 0]]))])
        with pytest.raises(ValueError, match="shape mismatch"):
            hom_solve(Z4, Z2, post=[(FgAbMap.identity(Z2), m([[1], [0]]))])

    def test_identity_constraint(self):
        x = hom_solve(Z2, Z2, pre=[(FgAbMap.identity(Z2), IntMatrix.identity(1))])
        assert x is not None and x == FgAbMap.identity(Z2)

    def test_parity_obstruction(self):
        times2 = FgAbMap(Z, Z, m([[2]]))
        times3 = FgAbMap(Z, Z, m([[3]]))
        assert hom_solve(Z, Z, pre=[(times2, times3.matrix)]) is None

    def test_section_onto_subgroup(self):
        k = kernel(FgAbMap(Z4, Z2, m([[1]])))
        t2 = FgAbMap(Z2, Z4, m([[2]]))
        x = hom_solve(Z2, k.group, post=[(k.incl, t2.matrix)])
        assert x is not None and k.incl * x == t2

    def test_solution_space_sound(self):
        rng = random.Random(12)
        for _ in range(10):
            a, b = random_group(rng), random_group(rng)
            base, kmats = hom_solve_all(a, b)
            for km in kmats:
                FgAbMap(a, b, base + km)  # every offset stays well-defined


class TestExt1:
    def test_free_source_vanishes(self):
        assert ext1_realize(Z, Z6).group.is_trivial()

    def test_z2_z2(self):
        e = ext1_realize(Z2, Z2)
        assert e.group.invariant_factors() == (0, (2,))
        y, i, q = e.realize([1])
        assert y.invariant_factors() == (0, (4,))
        assert is_injective(i) and is_surjective(q)
        assert is_exact_at(i, q)
        y0, _, _ = e.realize([0])
        assert y0.invariant_factors() == (0, (2, 2))

    def test_z2_z(self):
        assert ext1_realize(Z2, Z).group.invariant_factors() == (0, (2,))

    def test_split_iff_zero_class(self):
        rng = random.Random(21)
        for _ in range(10):
            a = random_group(rng, max_rank=0, max_order=8)
            c = random_group(rng, max_rank=0, max_order=8)
            e = ext1_realize(a, c)
            y, i, q = e.realize([0] * e.group.ngens)
            s = hom_solve(a, y, post=[(q, IntMatrix.identity(a.ngens))])
            assert s is not None  # zero class splits
            if not e.group.is_trivial():
                y1, i1, q1 = e.realize([1] + [0] * (e.group.ngens - 1))
                s1 = hom_solve(a, y1, post=[(q1, IntMatrix.identity(a.ngens))])
                assert s1 is None  # nonzero class does not


def test_hom_group_values():
    assert hom_group(Z2, Z).is_trivial()
    assert hom_group(Z2, Z4).invariant_factors() == (0, (2,))
    assert hom_group(Z, Z6).invariant_factors() == (0, (6,))
    assert hom_group(Z6, Z4).invariant_factors() == (0, (2,))


def test_precompose_is_right_multiplication():
    """precompose(r, c) sends X (copy l of c in column l) to X*r."""
    rng = random.Random(5)
    c = FgAbGroup(2, m([[3], [6]]))
    vec = lambda y: IntMatrix.column([y[t, l] for l in range(y.cols) for t in range(2)])
    for _ in range(20):
        k, n = rng.randint(0, 3), rng.randint(0, 3)
        r = IntMatrix(k, n, [rng.randint(-3, 3) for _ in range(k * n)])
        x = IntMatrix(2, k, [rng.randint(-5, 5) for _ in range(2 * k)])
        f = precompose(r, c)
        assert (f.src.ngens, f.dst.ngens) == (2 * k, 2 * n)
        # as elements of c^n: modulo the target's relations
        assert in_col_span(f.dst.relations, f.matrix * vec(x) - vec(x * r))


def test_dual_presentation_is_precompose_on_free_presentation():
    for a in (Z, Z2, Z6, direct_sum(Z4, Z6), FgAbGroup.trivial()):
        r, f = dual_presentation(a, Z4)
        assert r == free_presentation(a) and f == precompose(r, Z4)


def test_lift_and_injection_factor():
    red = FgAbMap(Z4, Z2, m([[1]]))
    lifts = lift(red, IntMatrix.identity(1))
    assert lifts is not None and lifts[0, 0] % 2 == 1
    # 1 has no preimage under x2: Z -> Z
    assert lift(FgAbMap(Z, Z, m([[2]])), IntMatrix.identity(1)) is None
    k = kernel(red)
    t2 = FgAbMap(Z2, Z4, m([[2]]))
    u = factor_through_injection(k.incl, t2.src, t2.matrix)
    assert k.incl * u == t2
    # the identity of Z4 does not land in ker(red) = 2*Z4
    with pytest.raises(ValueError, match="^map does not land in the subgroup$"):
        factor_through_injection(k.incl, Z4, IntMatrix.identity(1))


# use_true_random, for the reason given at the exactness property above
@given(st.randoms(use_true_random=True))
@settings(max_examples=60, deadline=None)
def test_lift_matches_the_stacked_solve(rng):
    """lift solves on map_lattice(f) = [f | free_presentation(dst)], not on
    a stacked [f | dst.relations]: the two agree on solvability, and two
    solutions differ by columns of f's lattice, which every caller's
    composite kills.  Targets are images f*x (always solvable) and random
    columns."""
    src = random_group(rng, max_order=8)
    dst = random_group(rng, max_order=8)
    if rng.random() < 0.5:
        dst = _with_dependent_relator(rng, dst)
    f = random_map(rng, src, dst)
    k = rng.randint(1, 3)
    x = IntMatrix(src.ngens, k, [rng.randint(-3, 3) for _ in range(src.ngens * k)])
    noise = IntMatrix(dst.ngens, k, [rng.randint(-3, 3) for _ in range(dst.ngens * k)])
    for targets in (f.matrix * x, noise):
        ours = lift(f, targets)
        stacked = solve(hstack(f.matrix, dst.relations), targets, src.ngens)
        assert (ours is None) == (stacked is None)
        if targets is not noise:
            assert ours is not None
        if ours is not None:
            assert in_col_span(dst.relations, f.matrix * ours - targets)
            assert in_col_span(preimage_lattice(f), ours - stacked)


# use_true_random, for the reason given at the exactness property above
@given(st.randoms(use_true_random=True))
@settings(max_examples=30, deadline=None)
def test_kernel_cokernel_universal_properties(rng):
    a, b, x = (random_group(rng, max_order=8) for _ in range(3))
    f = random_map(rng, a, b)
    ker = kernel(f)
    assert (f * ker.incl).is_zero()
    killed = hom_solve(x, a, post=[(f, IntMatrix.zeros(b.ngens, x.ngens))])
    fac = ker.factor(killed.src, killed.matrix)
    assert ker.incl * fac == killed
    cok = cokernel(f)
    assert (cok.proj * f).is_zero()
    # a random y: b -> x killing f, from the solution space of y*f = 0
    y, kmats = hom_solve_all(b, x, pre=[(f, IntMatrix.zeros(x.ngens, a.ngens))])
    for km in kmats:
        y = y + rng.randint(-2, 2) * km
    assert cok.induce(x, y) * cok.proj == FgAbMap(b, x, y)
    im = image(f)
    assert im.incl * im.corestrict == f
    assert is_injective(im.incl) and is_surjective(im.corestrict)


def test_solvers_build_no_product_or_transpose(monkeypatch):
    """solve, kernel_basis, lift and hom_solve_all read each kept row of a
    solution off the cached transform: no IntMatrix product or transpose
    runs inside them, a count that does not depend on timing.  The lattice
    is map_lattice(f), built before counting: it is the matrix lift reads,
    and its memo miss runs free_presentation's transpose."""
    rng = random.Random(11)
    a, b = random_group(rng), random_group(rng)
    while not (a.ngens and b.ngens):
        a, b = random_group(rng), random_group(rng)
    f = random_map(rng, a, b)
    x = IntMatrix(a.ngens, 2, [rng.randint(-3, 3) for _ in range(2 * a.ngens)])
    lattice, fx, one = map_lattice(f), f.matrix * x, FgAbMap.identity(a)
    calls = {"__mul__": 0, "transpose": 0}
    with monkeypatch.context() as patch:
        for name in calls:
            def counted(self, *args, _name=name, _method=getattr(IntMatrix, name)):
                calls[_name] += 1
                return _method(self, *args)
            patch.setattr(IntMatrix, name, counted)
        solved = solve(lattice, fx, a.ngens)
        kern = kernel_basis(lattice, a.ngens)
        lifted = lift(f, fx)
        homs = hom_solve_all(a, b, pre=[(one, f.matrix)])
    assert calls == {"__mul__": 0, "transpose": 0}
    assert in_col_span(b.relations, f.matrix * solved - fx)
    assert in_col_span(b.relations, f.matrix * lifted - fx)
    assert kern.rows == a.ngens and in_col_span(b.relations, f.matrix * kern)
    assert homs is not None and FgAbMap(a, b, homs[0]) == f


def test_hom_solve_factors_no_kernel_of_its_system(monkeypatch):
    """hom_solve, and two_morphism_find through it, read one solution of the
    flattened Hom system and never its kernel basis; hom_solve_all, which
    returns the homogeneous solutions too, still computes it."""
    systems = []

    def counted(a, *args):
        systems.append(a)
        return kernel_basis(a, *args)

    monkeypatch.setattr(intlinalg, "kernel_basis", counted)
    b = bockstein()
    one = FgAbMap.identity(b.carrier)
    x = hom_solve(b.carrier, b.carrier, pre=[(one, one.matrix)])
    assert x == one and systems == []
    assert two_morphism_find(b, b) is not None and systems == []
    assert two_morphism_find(ik2(), b) is None and systems == []
    base, kmats = hom_solve_all(b.carrier, b.carrier, pre=[(one, one.matrix)])
    assert FgAbMap(b.carrier, b.carrier, base) == one
    assert len(systems) == 1
