from __future__ import annotations

import ast
import copy
import importlib
import io
import itertools
import pkgutil
import random
import re
import time
import tokenize
from collections import Counter
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import butterflies
from butterflies import fgab, intlinalg
from butterflies.fgab import FgAbGroup, FgAbMap, random_group, random_map, simplify
from butterflies.twocomplex import ChainMap, TwoTermComplex
from butterflies.intlinalg import (
    CACHE_SIZE, IntMatrix, Record, hnf, snf, solve, kernel_basis, in_col_span, reduce_cols,
    congruent, hstack, vstack, kron, submatrix, solve_congruences, particular_solution, col_echelon,
    hermite_basis, span_basis,
)


def mat(rows):
    return IntMatrix.from_rows(rows)


def det(m):
    n = m.rows
    a = [[Fraction(x) for x in m.row(i)] for i in range(n)]
    d = Fraction(1)
    for k in range(n):
        piv = next((i for i in range(k, n) if a[i][k]), None)
        if piv is None:
            return 0
        if piv != k:
            a[k], a[piv] = a[piv], a[k]
            d = -d
        d *= a[k][k]
        for i in range(k + 1, n):
            f = a[i][k] / a[k][k]
            for j in range(k, n):
                a[i][j] -= f * a[k][j]
    return d


def shaped(r, c, bound=20):
    return st.lists(st.integers(-bound, bound), min_size=r * c, max_size=r * c).map(
        lambda e: IntMatrix(r, c, e))


small_matrices = st.integers(0, 4).flatmap(
    lambda r: st.integers(0, 4).flatmap(lambda c: shaped(r, c)))

# dense 8x8 and rectangular, entries in [-9, 9]
dense_matrices = st.sampled_from([(8, 8), (5, 8), (8, 5), (3, 7), (7, 2)]).flatmap(
    lambda rc: shaped(*rc, bound=9))

# dense 6x6 to 12x12, square or not, entries in [-9, 9]
large_dense_matrices = st.tuples(st.integers(6, 12), st.integers(6, 12)).flatmap(
    lambda rc: shaped(*rc, bound=9))

# rectangular products of rank at most k, so zeros sit on the diagonal
low_rank_matrices = st.tuples(st.integers(1, 7), st.integers(1, 7), st.integers(1, 3)).flatmap(
    lambda rck: st.tuples(shaped(rck[0], rck[2], bound=9), shaped(rck[2], rck[1], bound=9))
    .map(lambda ab: ab[0] * ab[1]))


@pytest.mark.parametrize("n", range(9))
def test_identity_matches_its_definition(n):
    assert IntMatrix.identity(n) == IntMatrix(n, n, [int(i == j) for i in range(n) for j in range(n)])


@pytest.mark.parametrize("operation", [
    lambda m, f, c: m + 1, lambda m, f, c: m - 1, lambda m, f, c: m * "x",
    lambda m, f, c: "x" * m, lambda m, f, c: f * 1, lambda m, f, c: c * 1,
], ids=["matrix+int", "matrix-int", "matrix*str", "str*matrix", "map*int", "chain_map*int"])
def test_a_wrong_type_operand_is_a_type_error(operation):
    """Each operator hands an operand it does not know back as NotImplemented,
    so Python raises TypeError instead of computing something else."""
    m, f = mat([[1, 2]]), FgAbMap.identity(FgAbGroup.cyclic(2))
    c = ChainMap.identity(TwoTermComplex(f))
    with pytest.raises(TypeError):
        operation(m, f, c)


def test_repr_names_the_shape_of_an_empty_matrix():
    assert repr(IntMatrix.zeros(0, 3)) == "IntMatrix(0x3)"
    assert repr(IntMatrix.zeros(2, 0)) == "IntMatrix(2x0)"


class TestHnf:
    def test_identity(self):
        h, u = hnf(IntMatrix.identity(2))
        assert h == IntMatrix.identity(2)
        assert u == IntMatrix.identity(2)

    def test_zero_1x1(self):
        h, u = hnf(mat([[0]]))
        assert h == mat([[0]])
        assert u == mat([[1]])

    def test_2x2(self):
        m = mat([[2, 4], [6, 8]])
        h, u = hnf(m)
        assert h.to_lists() == [[2, 0], [0, 4]]
        assert u * m == h
        assert abs(det(u)) == 1

    @pytest.mark.parametrize("shape", [(0, 0), (0, 3), (3, 0), (3, 3)])
    def test_col_echelon_of_empty_and_zero_shapes(self, shape):
        pivot_rows, pivots, tails, vt = col_echelon(IntMatrix.zeros(*shape))
        assert hnf(IntMatrix.zeros(*shape).transpose())[0] == IntMatrix.zeros(shape[1], shape[0])
        assert vt == IntMatrix.identity(shape[1])
        assert pivot_rows == pivots == tails == ()

    @staticmethod
    def assert_hermite(m):
        """U*m = H with U unimodular, and H is in row echelon form with
        positive pivots and the entries above each pivot in [0, pivot).
        col_echelon of m's transpose is the pivot plan of H and U: the first
        nonzero column p of each nonzero row of H, the entry there, and the
        (column, entry) pairs of the row's nonzero entries after p."""
        h, u = hnf(m)
        assert u * m == h
        if m.rows:
            assert abs(det(u)) == 1
        last = -1
        firsts = []
        for i in range(h.rows):
            nz = [j for j in range(h.cols) if h[i, j]]
            if not nz:
                continue
            assert nz[0] > last
            last = nz[0]
            firsts.append(nz[0])
            piv = h[i, nz[0]]
            assert piv > 0
            for ii in range(i):
                assert 0 <= h[ii, nz[0]] < piv
        assert not any(h.entries[len(firsts) * h.cols:])  # zero rows last
        assert col_echelon(m.transpose()) == (
            tuple(firsts), tuple(h[k, p] for k, p in enumerate(firsts)),
            tuple(tuple((j, h[k, j]) for j in range(p + 1, h.cols) if h[k, j])
                  for k, p in enumerate(firsts)), u)

    @given(small_matrices)
    @settings(max_examples=60, deadline=None)
    def test_recompose_and_shape(self, m):
        self.assert_hermite(m)

    @given(large_dense_matrices)
    @settings(max_examples=30, deadline=None)
    def test_recompose_and_shape_large_dense(self, m):
        self.assert_hermite(m)


class TestSnf:
    def test_zero(self):
        m = IntMatrix.zeros(2, 3)
        s, u, w = snf(m)
        assert not any(s.entries)
        assert u == IntMatrix.identity(2) == w

    @pytest.mark.parametrize("shape", [(0, 0), (0, 3), (3, 0), (3, 3)])
    def test_empty_and_zero_shapes(self, shape):
        s, u, w = snf(IntMatrix.zeros(*shape))
        assert s == IntMatrix.zeros(*shape)
        assert u == w == IntMatrix.identity(shape[0])

    def test_2x2(self):
        s, _, _ = snf(mat([[2, 4], [6, 8]]))
        assert s.to_lists() == [[2, 0], [0, 4]]

    def test_already_diagonal(self):
        s, _, _ = snf(mat([[1, 0], [0, 6]]))
        assert s.to_lists() == [[1, 0], [0, 6]]

    @staticmethod
    def assert_smith(m):
        """U*m and S span the same column lattice, U*W = W*U = I, and S is
        diagonal with d1 | d2 | ..., nonnegative, zeros last."""
        s, u, w = snf(m)
        # some unimodular V has U*m*V = S exactly when U*m and S span the
        # same column lattice
        assert in_col_span(u * m, s) and in_col_span(s, u * m)
        assert u * w == IntMatrix.identity(m.rows) == w * u
        diag = [s[i, i] for i in range(min(m.rows, m.cols))]
        assert all(d >= 0 for d in diag)
        for a, b in zip(diag, diag[1:]):
            if b:
                assert a and b % a == 0
            if a == 0:
                assert b == 0
        for i in range(s.rows):
            for j in range(s.cols):
                if i != j:
                    assert s[i, j] == 0

    @given(small_matrices)
    @settings(max_examples=60, deadline=None)
    def test_recompose_divisibility(self, m):
        self.assert_smith(m)

    @given(large_dense_matrices)
    @settings(max_examples=30, deadline=None)
    def test_recompose_divisibility_large_dense(self, m):
        self.assert_smith(m)

    @given(small_matrices, st.randoms(use_true_random=False))
    @settings(max_examples=40, deadline=None)
    def test_unimodular_invariance(self, m, rng):
        from butterflies.fgab import random_unimodular
        p = random_unimodular(rng, m.rows)
        q = random_unimodular(rng, m.cols)
        s1, _, _ = snf(m)
        s2, _, _ = snf(p * m * q)
        assert [s1[i, i] for i in range(min(m.rows, m.cols))] == \
               [s2[i, i] for i in range(min(m.rows, m.cols))]

    @given(st.one_of(small_matrices, dense_matrices, low_rank_matrices),
           st.randoms(use_true_random=False), st.data())
    @settings(max_examples=80, deadline=None)
    def test_transforms_depend_only_on_the_column_lattice(self, m, rng, data):
        """U and W are functions of the lattice m's columns span: a
        unimodular change of columns, or one more column inside the
        lattice, leaves them as they are."""
        from butterflies.fgab import random_unimodular
        c = IntMatrix.column(data.draw(st.lists(st.integers(-5, 5), min_size=m.cols,
                                                max_size=m.cols)))
        assert snf(m)[1:] == snf(m * random_unimodular(rng, m.cols))[1:] \
            == snf(hstack(m, m * c))[1:]

    @given(st.one_of(small_matrices, dense_matrices, low_rank_matrices))
    @settings(max_examples=120, deadline=None)
    def test_diagonal_matches_sympy(self, m):
        # the one independent check of snf: sympy is a test dependency, so a
        # missing sympy fails here rather than skipping
        import sympy
        from sympy.matrices.normalforms import smith_normal_form
        s, _, _ = snf(m)
        ours = [s[i, i] for i in range(min(m.rows, m.cols))]
        theirs = smith_normal_form(sympy.Matrix(m.rows, m.cols, list(m.entries)),
                                   domain=sympy.ZZ)
        theirs = [abs(int(theirs[i, i])) for i in range(min(m.rows, m.cols))]
        # sympy fixes neither the signs nor the place of the zeros
        assert ours == [d for d in theirs if d] + [d for d in theirs if not d]

    @pytest.mark.parametrize("n", [12, 16])
    def test_dense_is_fast_with_bounded_transforms(self, n):
        rng = random.Random(n)

        def dense():
            return IntMatrix(n, n, [rng.randint(-9, 9) for _ in range(n * n)])

        def bits(x):
            return max(abs(e).bit_length() for e in x.entries)

        for _ in range(3):
            m = dense()
            start = time.perf_counter()
            s, u, w = snf(m)
            assert time.perf_counter() - start < 1.0
            start = time.perf_counter()
            simplify(FgAbGroup(n, dense()))
            assert time.perf_counter() - start < 1.0
            assert in_col_span(u * m, s) and in_col_span(s, u * m)
            assert u * w == IntMatrix.identity(n) == w * u
            assert max(bits(u), bits(w)) <= 3 * bits(s)


class TestSolve:
    def test_simple(self):
        assert solve(mat([[2]]), IntMatrix.column([4])).col(0) == (2,)
        assert kernel_basis(mat([[2]])).cols == 0

    def test_parity_unsolvable(self):
        assert solve(mat([[2]]), IntMatrix.column([3])) is None

    def test_kernel_line(self):
        assert solve(mat([[1, 1]]), IntMatrix.column([0])).col(0) == (0, 0)
        k = kernel_basis(mat([[1, 1]]))
        assert k.cols == 1
        a, b = k.col(0)
        assert a + b == 0 and abs(a) == 1

    def test_empty_shapes(self):
        assert solve(IntMatrix.zeros(0, 3), IntMatrix.zeros(0, 1)).col(0) == (0, 0, 0)
        assert kernel_basis(IntMatrix.zeros(0, 3)).cols == 3
        assert solve(IntMatrix.zeros(3, 0), IntMatrix.column([0, 0, 0])) is not None
        assert solve(IntMatrix.zeros(3, 0), IntMatrix.column([1, 0, 0])) is None
        assert solve(mat([[2]]), IntMatrix.zeros(1, 0)) == IntMatrix.zeros(1, 0)
        with pytest.raises(ValueError, match="dimension mismatch"):
            solve(mat([[2]]), IntMatrix.column([1, 2]))

    @given(large_dense_matrices, st.data())
    @settings(max_examples=30, deadline=None)
    def test_round_trip_large_dense(self, a, data):
        x = data.draw(st.integers(1, 3).flatmap(lambda k: shaped(a.cols, k, bound=9)))
        b = a * x
        assert in_col_span(a, b)
        y = solve(a, b)
        assert y is not None and a * y == b

    @given(st.integers(0, 3), st.integers(0, 3), st.randoms(use_true_random=False))
    @settings(max_examples=80, deadline=None)
    def test_against_bounded_search(self, r, c, rng):
        a = IntMatrix(r, c, [rng.randint(-3, 3) for _ in range(r * c)])
        b = [rng.randint(-5, 5) for _ in range(r)]
        res = solve(a, IntMatrix.column(b))
        box = None
        for x in itertools.product(range(-6, 7), repeat=c):
            if all(sum(a[i, j] * x[j] for j in range(c)) == b[i] for i in range(r)):
                box = x
                break
        if box is not None:
            assert res is not None
        assert in_col_span(a, IntMatrix.column(b)) == (res is not None)
        if res is not None:
            assert all(sum(a[i, j] * res[j, 0] for j in range(c)) == b[i] for i in range(r))
            k = kernel_basis(a)
            for t in range(k.cols):
                assert all(sum(a[i, j] * k[j, t] for j in range(c)) == 0 for i in range(r))

    @staticmethod
    def reference_solve(a, b, top):
        """X by the product construction: Y and R by back-substitution on
        a's column echelon form a*V = H, read densely as (H^T, V^T) =
        hnf(a^T), then (Y^T * V^T)^T cut to its first top rows; None when R
        is not zero."""
        ht, vt = hnf(a.transpose())
        pivot_rows = [next(j for j, e in enumerate(row) if e) for row in ht.to_lists() if any(row)]
        y = [[0] * b.cols for _ in range(a.cols)]
        r = b.to_lists()
        for k, p in enumerate(pivot_rows):
            hk = ht.row(k)
            for j in range(b.cols):
                q = y[k][j] = r[p][j] // hk[p]
                for i in range(p, a.rows):
                    r[i][j] -= q * hk[i]
        if any(map(any, r)):
            return None
        yt = IntMatrix(a.cols, b.cols, [e for row in y for e in row]).transpose()
        return submatrix((yt * vt).transpose(), range(top))

    @staticmethod
    def reference_kernel(a, top):
        ht, vt = hnf(a.transpose())
        rank = sum(1 for row in ht.to_lists() if any(row))
        return submatrix(submatrix(vt, range(rank, a.cols)).transpose(), range(top))

    @given(small_matrices, st.data())
    @settings(max_examples=80, deadline=None)
    def test_kept_rows_equal_the_product_reference(self, a, data):
        """solve(a, b, top) and kernel_basis(a, top) sum only the rows they
        keep; each equals the product construction cut to top rows, for
        every top, on solvable and unsolvable b and on b with no columns."""
        k = data.draw(st.integers(0, 3))
        if data.draw(st.booleans()):
            b = a * data.draw(shaped(a.cols, k, bound=9))
        else:
            b = data.draw(shaped(a.rows, k))
        for top in range(a.cols + 1):
            assert solve(a, b, top) == self.reference_solve(a, b, top)
            assert kernel_basis(a, top) == self.reference_kernel(a, top)
        assert solve(a, b) == solve(a, b, a.cols)
        assert kernel_basis(a) == kernel_basis(a, a.cols)
        for top in (-1, a.cols + 1):
            with pytest.raises(ValueError, match="top"):
                solve(a, b, top)
            with pytest.raises(ValueError, match="top"):
                kernel_basis(a, top)

    @given(small_matrices, st.data())
    @settings(max_examples=80, deadline=None)
    def test_a_width_keeps_the_first_rows_of_the_transform(self, a, data):
        """col_echelon(a, width) carries the first width rows of V only:
        its pivot plan and V^T's first width columns are the full
        factorization's, its rows of V^T after the pivots are the kernel
        reference cut to width entries, and back-substituting on it with a
        width gives the product reference's X for every top up to it."""
        b = data.draw(shaped(a.rows, data.draw(st.integers(0, 2))))
        *plan, vt = col_echelon(a)
        rank = len(plan[0])
        for width in range(a.cols + 1):
            *plan_w, vtw = col_echelon(a, width)
            assert (*plan_w, vtw) == (*plan, submatrix(vt, range(a.cols), range(width)))
            assert submatrix(vtw, range(rank, a.cols)).transpose() == self.reference_kernel(a, width)
            for top in range(width + 1):
                _, r, x = intlinalg._back_substitute(a, b.entries, b.rows, b.cols, top, width)
                got = None if any(r) else IntMatrix(top, b.cols, x)
                assert got == self.reference_solve(a, b, top)
        for width in (-1, a.cols + 1):
            with pytest.raises(ValueError, match="width"):
                col_echelon(a, width)

    @pytest.mark.parametrize("a, b", [
        (mat([[2]]), IntMatrix.column([3])),                   # unsolvable
        (mat([[2, 4]]), mat([[2, 3]])),                        # one column unsolvable
        (IntMatrix.zeros(3, 0), IntMatrix.column([1, 0, 0])),
        (IntMatrix.zeros(0, 3), IntMatrix.zeros(0, 2)),
        (IntMatrix.zeros(3, 0), IntMatrix.zeros(3, 0)),
        (mat([[1, 1, 0], [0, 2, 2]]), IntMatrix.zeros(2, 0)),  # top x 0 answers
        (mat([[1, 1, 0], [0, 2, 2]]), mat([[3, 1], [4, 6]])),
    ])
    def test_kept_rows_at_the_edges(self, a, b):
        for top in range(a.cols + 1):
            x = solve(a, b, top)
            assert x == self.reference_solve(a, b, top)
            assert x is None or (x.rows, x.cols) == (top, b.cols)
            assert kernel_basis(a, top) == self.reference_kernel(a, top)


class TestReduceCols:
    """reduce_cols(a, m): each column of m brought to its Hermite remainder,
    the one representative of its coset modulo the column span of a."""

    @staticmethod
    def assert_remainder(a, data):
        k = data.draw(st.integers(0, 3))
        m = data.draw(shaped(a.rows, k))
        x = data.draw(shaped(a.cols, k, bound=9))
        r = reduce_cols(a, m)
        assert reduce_cols(a, r) is r                 # idempotent: a reduced m comes back as is
        assert in_col_span(a, m - r)                  # the same coset
        assert reduce_cols(a, m + a * x) == r         # the same remainder for the whole coset
        assert not any(reduce_cols(a, a * x).entries)
        for j in range(k):
            assert (not any(r.col(j))) == in_col_span(a, IntMatrix.column(m.col(j)))

    @given(small_matrices, st.data())
    @settings(max_examples=80, deadline=None)
    def test_remainder(self, a, data):
        self.assert_remainder(a, data)

    @given(large_dense_matrices, st.data())
    @settings(max_examples=30, deadline=None)
    def test_remainder_large_dense(self, a, data):
        self.assert_remainder(a, data)

    def test_pivot_entries_in_range(self):
        assert reduce_cols(mat([[4, 2], [0, 6]]), mat([[5, -1], [7, -6]])) == mat([[1, 1], [7, 0]])
        m = mat([[1], [2]])
        assert reduce_cols(IntMatrix.zeros(2, 0), m) is m
        with pytest.raises(ValueError, match="dimension mismatch"):
            reduce_cols(mat([[2]]), m)


def test_solve_matrix_and_kernel_basis():
    a = mat([[2, 0], [0, 3]])
    x = solve(a, mat([[4, 2], [9, 3]]))
    assert a * x == mat([[4, 2], [9, 3]])
    assert solve(a, mat([[4, 1], [9, 3]])) is None  # one unsolvable column refuses all
    assert kernel_basis(mat([[1, 1]])).cols == 1


def test_solve_congruences_checks_shapes():
    one, none, c12 = IntMatrix.identity(1), IntMatrix.zeros(1, 0), IntMatrix.zeros(1, 2)
    for solver in (solve_congruences, particular_solution):
        with pytest.raises(ValueError, match="shape mismatch"):
            solver(1, 2, [(one, one, none)], [])       # pre R has 1 row, X 2 columns
        with pytest.raises(ValueError, match="shape mismatch"):
            solver(2, 1, [], [(one, one, none)])       # post L has 1 column, X 2 rows
        with pytest.raises(ValueError, match="shape mismatch"):
            solver(1, 2, [], [(one, c12, IntMatrix.zeros(2, 0))])   # Rel 2 rows, C 1
        with pytest.raises(ValueError, match="shape mismatch"):
            solver(1, 1, [(one, one, IntMatrix.zeros(2, 0))], [])


def kronecker_system(rows, cols, congruences):
    """The flattened system of solve_congruences by its definition, entry
    by entry: equation (u, v) of each congruence (L, R, C, Rel) has
    L[u][s] * R[t][v] at unknown (s, t) of X, row major, then -Rel[u] in
    column v's slack block, and right-hand side C[u][v]."""
    nx = rows * cols
    width = nx + sum(rm.cols * rel.cols for _, rm, _, rel in congruences)
    eqs, rhs, slack = [], [], nx
    for lm, rm, cm, rel in congruences:
        for v in range(rm.cols):
            for u in range(lm.rows):
                eq = [lm[u, s] * rm[t, v] for s in range(rows) for t in range(cols)]
                eq += [0] * (width - nx)
                for k in range(rel.cols):
                    eq[slack + k] = -rel[u, k]
                eqs.append(eq)
                rhs.append(cm[u, v])
            slack += rel.cols
    return (IntMatrix(len(eqs), width, [e for eq in eqs for e in eq]),
            IntMatrix(len(rhs), 1, rhs))


@given(st.data())
@settings(max_examples=80, deadline=None)
def test_congruence_system_is_the_kronecker_definition(data):
    """The system built by rows (a column of R in one row of X for pre, a
    row of L down one column of X for post) equals the per-entry definition
    on (L, R, C, Rel) with the other factor the identity, pre's congruences
    first, for identity and dense R and L, any of whose dimensions may be 0."""
    rows, cols = data.draw(st.integers(0, 3)), data.draw(st.integers(0, 3))
    sides, congruences = ([], []), ([], [])
    for side in (0, 1):             # pre, then post
        for _ in range(data.draw(st.integers(0, 3))):
            if data.draw(st.booleans()):
                m = IntMatrix.identity(rows if side else cols)
            else:
                n = data.draw(st.integers(0, 3))
                m = data.draw(shaped(n, rows, bound=3) if side else shaped(cols, n, bound=3))
            lm, rm = (m, IntMatrix.identity(cols)) if side else (IntMatrix.identity(rows), m)
            cm = data.draw(shaped(lm.rows, rm.cols, bound=3))
            rel = data.draw(shaped(lm.rows, data.draw(st.integers(0, 2)), bound=3))
            congruences[side].append((lm, rm, cm, rel))
            sides[side].append((m, cm, rel))
    want = kronecker_system(rows, cols, congruences[0] + congruences[1])
    assert intlinalg._congruence_system(rows, cols, *sides) == want
    res, x0 = solve_congruences(rows, cols, *sides), particular_solution(rows, cols, *sides)
    assert (res is None) == (x0 is None) == (solve(*want) is None)
    assert res is None or res[0] == x0


def test_hom_congruences_are_the_kronecker_definition():
    """hom_solve's system is the per-entry definition on X's descent
    (I, rel(src), 0, rel(dst)), then (I, f, g, rel(dst)) for each pre
    constraint (f, g), then (h, I, k, rel(W)) for each post constraint
    (h, k) with h: dst -> W, in that order."""
    for seed in range(40):
        rng = random.Random(seed)
        src, dst = (random_group(rng, max_rank=1, max_order=8) for _ in range(2))
        pre, post = [], []
        for _ in range(rng.randint(0, 2)):
            f = random_map(rng, random_group(rng, max_rank=1, max_order=8), src)
            pre.append((f, random_map(rng, f.src, dst).matrix))
        for _ in range(rng.randint(0, 2)):
            h = random_map(rng, dst, random_group(rng, max_rank=1, max_order=8))
            post.append((h, random_map(rng, src, h.dst).matrix))
        rows, cols = dst.ngens, src.ngens
        eye_r, eye_c = IntMatrix.identity(rows), IntMatrix.identity(cols)
        congruences = [(eye_r, src.relations, IntMatrix.zeros(rows, src.relations.cols),
                        dst.relations)]
        congruences += [(eye_r, f.matrix, g, dst.relations) for f, g in pre]
        congruences += [(h.matrix, eye_c, k, h.dst.relations) for h, k in post]
        stated = fgab._hom_congruences(src, dst, pre, post)
        assert intlinalg._congruence_system(rows, cols, *stated) == kronecker_system(
            rows, cols, congruences)


def test_congruence_systems_carry_only_the_rows_of_x(monkeypatch):
    """The V^T factored for a solve_congruences system has nx = rows * cols
    columns, not one per unknown: both readers factor it with width nx,
    and share that one factorization."""
    seen = []

    def spy(a, *width):
        out = col_echelon(a, *width)
        seen.append((a.cols, width, out[3].cols))
        return out

    monkeypatch.setattr(intlinalg, "col_echelon", spy)
    # X: 2 x 3 and one relation column per congruence: 6 + 1 + 3 unknowns
    x = mat([[1, 0, 2], [0, 1, 1]])
    rm, lm = mat([[1], [2], [3]]), mat([[1, 1]])
    congruences = [(rm, x * rm, mat([[4], [6]]))], [(lm, lm * x, mat([[5]]))]
    col_echelon.cache_clear()
    x0, ks = solve_congruences(2, 3, *congruences)
    assert particular_solution(2, 3, *congruences) == x0
    assert seen == [(6 + 1 + 3, (6,), 6)] * 3
    assert col_echelon.cache_info().misses == 1
    assert ks and all((k.rows, k.cols) == (2, 3) for k in ks)


def test_zero_right_hand_side_looks_up_no_factorization():
    """solve, in_col_span, reduce_cols and congruent answer a right-hand
    side with no nonzero entry without a col_echelon lookup, hit or miss,
    and still refuse one with the wrong row count."""
    a = mat([[2, 1, 0], [0, 3, 6]])
    zero = IntMatrix.zeros(2, 4)
    before = col_echelon.cache_info()
    assert in_col_span(a, zero)
    assert congruent(a, mat([[1, 2], [2, 4]]), mat([[2, 0, 4, 0], [-1, 0, -2, 0]]))
    assert congruent(a, zero, IntMatrix.zeros(4, 3), IntMatrix.zeros(2, 3))
    assert reduce_cols(a, zero) is zero
    assert solve(a, zero) == IntMatrix.zeros(3, 4)
    assert solve(a, zero, top=1) == IntMatrix.zeros(1, 4)
    for check in (in_col_span, reduce_cols, solve):
        with pytest.raises(ValueError, match="dimension mismatch"):
            check(a, IntMatrix.zeros(3, 1))
    with pytest.raises(ValueError, match="dimension mismatch"):
        congruent(a, IntMatrix.zeros(3, 1), IntMatrix.zeros(1, 1))
    after = col_echelon.cache_info()
    assert (after.hits, after.misses) == (before.hits, before.misses)


def test_empty_lattice_looks_up_no_factorization():
    """A lattice with no columns spans only zero, so the gate answers every
    right-hand side against it without a col_echelon lookup, hit or miss:
    a nonzero one is outside the span (in_col_span and congruent say False,
    solve None), is its own remainder (reduce_cols hands m back), and a map
    into a free group keeps its matrix."""
    empty = IntMatrix.zeros(2, 0)
    m = mat([[1, 0, 2], [0, -3, 0]])
    before = col_echelon.cache_info()
    assert in_col_span(empty, m) is False
    assert congruent(empty, mat([[1, 2], [3, 4]]), IntMatrix.column([1, 1])) is False
    assert reduce_cols(empty, m) is m
    assert solve(empty, m) is None
    assert FgAbMap(FgAbGroup.free(3), FgAbGroup.free(2), m).matrix is m
    after = col_echelon.cache_info()
    assert (after.hits, after.misses) == (before.hits, before.misses)


def dense_col_echelon(a, width=None):
    """(H^T, V^T, pivot rows) of a*V = H, dense: the row HNF of a^T with
    its transform, from the one elimination, as col_echelon kept it before
    its pivot plan."""
    nr, nc = a.rows, a.cols
    w = nc if width is None else width
    rows = [[*a.entries[j::nc], *(int(i == j) for i in range(w))] for j in range(nc)]
    pivots = intlinalg._hermite(rows, [[]] * nc, nr)
    return (IntMatrix(nc, nr, [e for row in rows for e in row[:nr]]),
            IntMatrix(nc, w, [e for row in rows for e in row[nr:]]), tuple(p for _, p in pivots))


def dense_back_substitute(a, ent, rows, nb, top=0, width=None):
    """The back-substitution loop on the dense factorization: at pivot k it
    slices column k of H from its pivot down and the first top entries of
    V's column k, and subtracts q times each nonzero entry of the slice."""
    if rows != a.rows:
        raise ValueError("dimension mismatch")
    if not any(ent):
        return (0,) * (a.cols * nb), ent, (0,) * (top * nb)
    ht, vt, pivot_rows = dense_col_echelon(a, width)
    he, ve, nr, w = ht.entries, vt.entries, ht.cols, vt.cols
    r, y, x = list(ent), [0] * (ht.rows * nb), [0] * (top * nb)
    for k, p in enumerate(pivot_rows):
        hk = he[k * nr + p:(k + 1) * nr]
        vk = ve[k * w:k * w + top]
        for j in range(nb):
            q = r[p * nb + j] // hk[0]
            if q:
                y[k * nb + j] = q
                for i, hik in zip(range(p * nb + j, nr * nb, nb), hk):
                    if hik:
                        r[i] -= q * hik
                if top:
                    for i, vik in zip(range(j, top * nb, nb), vk):
                        if vik:
                            x[i] += q * vik
    return y, r, x


@st.composite
def plan_matrices(draw):
    """Matrices of rank at most k, so with dependent columns once there are
    more than k, with drawn rows and columns zeroed, and with only their
    diagonal kept when drawn so (every tail of their plan is empty)."""
    r, k, c = draw(st.integers(0, 5)), draw(st.integers(0, 4)), draw(st.integers(0, 5))
    a = draw(shaped(r, k, bound=9)) * draw(shaped(k, c, bound=3))
    zero_rows, zero_cols = (draw(st.lists(st.booleans(), min_size=n, max_size=n)) for n in (r, c))
    diagonal = draw(st.booleans())
    return IntMatrix(r, c, [0 if zero_rows[i] or zero_cols[j] or (diagonal and i != j) else a[i, j]
                            for i in range(r) for j in range(c)])


@given(plan_matrices(), st.data())
@settings(max_examples=150, deadline=None)
def test_plan_back_substitution_equals_the_dense_loop(a, data):
    """The back-substitution on col_echelon's pivot plan gives the (Y, R, X)
    of the dense loop for every width and every top up to it, on right-hand
    sides in a's span, outside it and zero; hnf, hermite_basis, span_basis,
    kernel_basis and, for every width, col_echelon's rows of V^T after the
    pivots equal their dense definitions."""
    nb = data.draw(st.integers(0, 3))
    kind = data.draw(st.sampled_from(["any", "in span", "zero"]))
    b = {"any": lambda: data.draw(shaped(a.rows, nb)),
         "in span": lambda: a * data.draw(shaped(a.cols, nb, bound=5)),
         "zero": lambda: IntMatrix.zeros(a.rows, nb)}[kind]()
    for width in (None, *range(a.cols + 1)):
        for top in range(a.cols + 1 if width is None else width + 1):
            want = dense_back_substitute(a, b.entries, b.rows, nb, top, width)
            got = intlinalg._back_substitute(a, b.entries, b.rows, nb, top, width)
            assert tuple(map(tuple, got)) == tuple(map(tuple, want))
    ht, vt, pivot_rows = dense_col_echelon(a)
    rank = len(pivot_rows)
    assert hnf(a.transpose()) == (ht, vt)
    assert hermite_basis(a) == submatrix(ht, range(rank)).transpose()
    y, _, _ = dense_back_substitute(a, a.entries, a.rows, a.cols)
    assert span_basis(a) == (hermite_basis(a), IntMatrix(rank, a.cols, y[:rank * a.cols]))
    for top in range(a.cols + 1):
        assert kernel_basis(a, top) == submatrix(vt, range(rank, a.cols), range(top)).transpose()
    for width in range(a.cols + 1):
        kernel = submatrix(dense_col_echelon(a, width)[1], range(rank, a.cols))
        assert submatrix(col_echelon(a, width)[3], range(rank, a.cols)) == kernel


@given(st.data())
@settings(max_examples=150, deadline=None)
def test_congruent_is_membership_of_the_difference(data):
    """congruent(rel, a, b, c) is in_col_span(rel, a*b - c), with c = None
    meaning zeros, on shapes any of whose dimensions may be 0, a free rel
    (no columns) included; a planted c, a*b less a combination of rel's
    columns, is congruent.  Each mismatched shape raises ValueError."""
    n, m, k = (data.draw(st.integers(0, 3)) for _ in range(3))
    rel = data.draw(shaped(n, data.draw(st.integers(0, 3)), bound=4))
    a, b = data.draw(shaped(n, m, bound=4)), data.draw(shaped(m, k, bound=4))
    kind = data.draw(st.sampled_from(["none", "drawn", "planted"]))
    if kind == "none":
        c = None
    elif kind == "drawn":
        c = data.draw(shaped(n, k, bound=4))
    else:
        c = a * b - rel * data.draw(shaped(rel.cols, k, bound=3))
    want = in_col_span(rel, a * b - (IntMatrix.zeros(n, k) if c is None else c))
    assert congruent(rel, a, b, c) is want
    assert want or kind != "planted"
    for bad in ((rel, a, IntMatrix.zeros(m + 1, k), c),
                (rel, a, b, IntMatrix.zeros(n, k + 1)),
                (IntMatrix.zeros(n + 1, rel.cols), a, b, c)):
        with pytest.raises(ValueError):
            congruent(*bad)


@given(st.data())
@settings(max_examples=60, deadline=None)
def test_solve_congruences_recovers_a_planted_solution(data):
    """A pre congruence X*R = C and a post congruence L*X = C, modulo Rel,
    on a planted X that is not square, with R and L not square either: x0
    and each K pass by membership, and the planted X is x0 plus an integer
    combination of the Ks."""
    rows = data.draw(st.integers(1, 3))
    cols = data.draw(st.integers(1, 3).filter(lambda c: c != rows))
    x = data.draw(shaped(rows, cols, bound=5))
    rm = data.draw(shaped(cols, cols + 1, bound=5))
    lm = data.draw(shaped(data.draw(st.integers(0, 3).filter(lambda a: a != rows)), rows, bound=5))
    pre_rel, post_rel = (data.draw(shaped(n, data.draw(st.integers(0, 2)), bound=5))
                         for n in (rows, lm.rows))
    x0, ks = solve_congruences(rows, cols, [(rm, x * rm, pre_rel)], [(lm, lm * x, post_rel)])
    assert in_col_span(pre_rel, x0 * rm - x * rm) and in_col_span(post_rel, lm * x0 - lm * x)
    assert all(in_col_span(pre_rel, k * rm) and in_col_span(post_rel, lm * k) for k in ks)
    n = rows * cols
    span = IntMatrix(n, len(ks), [k.entries[i] for i in range(n) for k in ks])
    assert solve(span, IntMatrix.column((x - x0).entries)) is not None


def test_block_helpers():
    a = IntMatrix.identity(2)
    assert hstack(a, IntMatrix.zeros(2, 1)).cols == 3
    assert vstack(a, IntMatrix.zeros(1, 2)).rows == 3
    k = kron(mat([[2]]), IntMatrix.identity(2))
    assert k.to_lists() == [[2, 0], [0, 2]]


@given(st.data())
@settings(max_examples=60, deadline=None)
def test_kron_distributes_over_stacking(data):
    r, k, k2, cr, cc = (data.draw(st.integers(0, 3)) for _ in range(5))
    c = data.draw(shaped(cr, cc))
    a, b = data.draw(shaped(r, k)), data.draw(shaped(r, k2))
    assert kron(hstack(a, b), c) == hstack(kron(a, c), kron(b, c))
    a, b = data.draw(shaped(k, r)), data.draw(shaped(k2, r))
    assert kron(vstack(a, b), c) == vstack(kron(a, c), kron(b, c))


def test_submatrix():
    m = mat([[1, 2], [3, 4], [5, 6]])
    assert submatrix(m, range(2)) == mat([[1, 2], [3, 4]])
    assert submatrix(m, range(0)) == IntMatrix.zeros(0, 2)
    assert submatrix(m, range(1, 3)) == mat([[3, 4], [5, 6]])
    assert submatrix(m, range(1, 3), range(1, 2)) == mat([[4], [6]])
    assert submatrix(m, range(3), range(2, 2)) == IntMatrix.zeros(3, 0)
    for rows, cols in ((range(-1), None), (range(4), None), (range(2, 1), None),
                       (range(0, 3, 2), None), (range(3), range(3)), (range(3), range(-1, 1))):
        with pytest.raises(ValueError):
            submatrix(m, rows, cols)


def test_row_and_col_indices_checked():
    m = mat([[1, 2], [3, 4]])
    assert m.row(1) == (3, 4) and m.col(1) == (2, 4)
    for bad in (-1, 2, 5):
        with pytest.raises(IndexError):
            m.row(bad)
        with pytest.raises(IndexError):
            m.col(bad)


@given(small_matrices)
@settings(max_examples=60, deadline=None)
def test_transpose_product_reference(m):
    t = m.transpose()
    assert [t.col(i) for i in range(t.cols)] == [m.row(i) for i in range(m.rows)]
    # the product against a plain triple loop
    p = m * t
    assert p.entries == tuple(sum(m.row(i)[k] * t.col(j)[k] for k in range(m.cols))
                              for i in range(m.rows) for j in range(m.rows))


@given(small_matrices, st.data())
@settings(max_examples=60, deadline=None)
def test_identity_factors_and_lone_stack_operands_are_handed_back(m, data):
    """A product by an identity matrix is the other factor itself, equal to
    the product by the triple loop, while a product by a matrix one entry
    away from the identity is computed; an identity of the wrong size still
    raises.  hstack of one operand with columns among ones without is that
    operand itself."""
    def by_loop(a, b):
        return tuple(sum(a.row(i)[k] * b.col(j)[k] for k in range(a.cols))
                     for i in range(a.rows) for j in range(b.cols))

    right, left = IntMatrix.identity(m.cols), IntMatrix.identity(m.rows)
    for p, eye, full in ((m * right, right, by_loop(m, right)), (left * m, left, by_loop(left, m))):
        # when m is an identity too, either factor is the other
        assert p is m or (p is eye and m == eye)
        assert p.entries == full
    if m.cols:
        ent = list(right.entries)
        at = data.draw(st.integers(0, len(ent) - 1))
        ent[at] = data.draw(st.integers(-3, 3).filter(lambda x: x != ent[at]))
        near = IntMatrix(m.cols, m.cols, ent)
        assert (m * near).entries == by_loop(m, near)
        assert (near * m.transpose()).entries == by_loop(near, m.transpose())
    with pytest.raises(ValueError, match="shape mismatch"):
        m * IntMatrix.identity(m.cols + 1)
    empties = [IntMatrix.zeros(m.rows, 0) for _ in range(data.draw(st.integers(0, 2)))]
    at = data.draw(st.integers(0, len(empties)))
    if m.cols:
        assert hstack(*empties[:at], m, *empties[at:]) is m
    assert hstack(*empties[:at], m, *empties[at:], m) == IntMatrix(
        m.rows, 2 * m.cols, [e for i in range(m.rows) for e in m.row(i) * 2])


def test_immutability_and_hash():
    m = mat([[1, 2], [3, 4]])
    with pytest.raises(AttributeError):
        m.rows = 5
    assert hash(m) == hash(IntMatrix(2, 2, (1, 2, 3, 4)))


class Pair(Record):
    a: int
    b: object


class Twin(Record):
    a: int
    b: object


class Ordered(Record):
    lo: int
    hi: int

    def __post_init__(self):
        if self.hi < self.lo:  # reads both fields, so both are set by now
            raise ValueError("hi < lo")


def _post_init_patched_after_the_class():
    class Late(Record):
        a: int

        def __post_init__(self):
            pass

    def refuse(self):
        raise ValueError("patched")

    Late.__post_init__ = refuse  # as perfbench/tracer.py patches FgAbMap
    return Late(1)


def _copies_rebuild_through_post_init():
    made = []

    class Logged(Record):
        a: int

        def __post_init__(self):
            made.append(self.a)

    value = Logged(1)
    copy.copy(value), copy.deepcopy(value)
    return made


class Counted:
    """A field value that counts how often it is hashed."""

    def __init__(self):
        self.calls = 0

    def __hash__(self):
        self.calls += 1
        return 0


def _field_hashes_over_two_hashes():
    c = Counted()
    p = Pair(1, c)
    hash(p), hash(p)
    return c.calls


def _field_named_hash():
    class Clash(Record):
        _hash: int


Z2 = FgAbGroup(1, IntMatrix(1, 1, [2]))

RECORD_CONTRACT = [
    ("by position", lambda: (Pair(1, "x").a, Pair(1, "x").b), (1, "x")),
    ("by keyword", lambda: Pair(b="x", a=1) == Pair(1, "x") == Pair(1, b="x"), True),
    ("missing field", lambda: Pair(1), TypeError),
    ("unknown field", lambda: Pair(1, c=2), TypeError),
    ("extra field", lambda: Pair(1, 2, 3), TypeError),
    ("assignment", lambda: setattr(Pair(1, 2), "a", 3), AttributeError),
    ("new attribute", lambda: setattr(Pair(1, 2), "c", 3), AttributeError),
    ("deletion", lambda: delattr(Pair(1, 2), "a"), AttributeError),
    ("== on the field tuple", lambda: (Pair(1, 2) == Pair(1, 2), Pair(1, 2) != Pair(2, 1)), (True, True)),
    ("hash of the field tuple", lambda: hash(Pair(1, (2, 3))) == hash((1, (2, 3))), True),
    ("one hash per value", lambda: len({Pair(1, 2), Pair(1, 2), Pair(2, 1)}), 2),
    ("hash kept after first use", _field_hashes_over_two_hashes, 1),
    ("no instance dict", lambda: hasattr(Pair(1, 2), "__dict__"), False),
    ("hash after a __post_init__ that sets a field",
     lambda: hash(FgAbMap(FgAbGroup.free(1), Z2, IntMatrix(1, 1, [3])))
     == hash((FgAbGroup.free(1), Z2, IntMatrix(1, 1, [1]))), True),
    ("a field named _hash is refused", _field_named_hash, TypeError),
    ("another class, same fields", lambda: Pair(1, 2) == Twin(1, 2), False),
    ("not a tuple", lambda: Pair(1, 2) == (1, 2), False),
    ("__post_init__ after every field", lambda: Ordered(2, 1), ValueError),
    ("__post_init__ looked up per call", _post_init_patched_after_the_class, ValueError),
    ("a map that does not descend", lambda: FgAbMap(Z2, FgAbGroup.free(1), IntMatrix(1, 1, [1])), ValueError),
    ("__post_init__ may set a field", lambda: FgAbMap(FgAbGroup.free(1), Z2, IntMatrix(1, 1, [3])).matrix,
     IntMatrix(1, 1, [1])),
    ("repr", lambda: repr(Pair(1, "x")), "Pair(a=1, b='x')"),
    ("copy rebuilds through the class", lambda: copy.copy(Pair(1, (2, 3))), Pair(1, (2, 3))),
    ("copy and deepcopy run __post_init__", _copies_rebuild_through_post_init, [1, 1, 1]),
    ("IntMatrix keeps its own __init__, by keyword too",
     lambda: IntMatrix(rows=1, cols=2, entries=[3, 4]) == IntMatrix(1, 2, (3, 4)), True),
    ("a checked matrix sets no kept hash", lambda: hasattr(IntMatrix(1, 1, [1]), "_hash"), False),
]


@pytest.mark.parametrize("run, expected", [c[1:] for c in RECORD_CONTRACT],
                         ids=[c[0] for c in RECORD_CONTRACT])
def test_record_contract(run, expected):
    """Record gives each subclass what a frozen dataclass would: __init__,
    == and hash on the field tuple, no mutation, and a Name(field=...) repr;
    the hash is kept after first use, and instances have slots only."""
    if isinstance(expected, type) and issubclass(expected, Exception):
        with pytest.raises(expected):
            run()
    else:
        assert run() == expected


class TestCachePolicy:
    def test_every_cache_has_the_one_bound(self):
        caches = {}
        for info in pkgutil.iter_modules(butterflies.__path__, "butterflies."):
            mod = importlib.import_module(info.name)
            for name, obj in vars(mod).items():
                if hasattr(obj, "cache_info") and obj.__module__ == mod.__name__:
                    caches[f"{mod.__name__}.{name}"] = obj.cache_info().maxsize
        assert {"butterflies.fgab.kernel", "butterflies.fgab.cokernel",
                "butterflies.intlinalg.snf"} <= set(caches)
        assert caches == dict.fromkeys(caches, CACHE_SIZE)

    def test_cache_stays_within_the_bound(self):
        snf.cache_clear()
        for n in range(CACHE_SIZE + 1):
            snf(IntMatrix(1, 1, (n,)))
        assert snf.cache_info().currsize <= CACHE_SIZE
        snf.cache_clear()


def assert_as_checked(m):
    """m is what the checked public constructor makes of its own entries,
    and refuses assignment and deletion of each field, staying equal to
    that rebuilt copy after each refusal."""
    rebuilt = IntMatrix(m.rows, m.cols, list(m.entries))
    assert m == rebuilt and hash(m) == hash(rebuilt) == hash((m.rows, m.cols, m.entries))
    assert type(m.entries) is tuple
    assert all(type(e) is int for e in m.entries)
    for field in ("rows", "cols", "entries"):
        with pytest.raises(AttributeError):
            setattr(m, field, getattr(rebuilt, field))
        with pytest.raises(AttributeError):
            delattr(m, field)
        assert m == rebuilt and hash(m) == hash(rebuilt)


class TestTrustedResults:
    """The library's own results skip the entry check; they must still be
    exactly what the checked constructor would build."""

    @given(st.data())
    @settings(max_examples=60, deadline=None)
    def test_results_equal_checked_construction(self, data):
        r, k, c = (data.draw(st.integers(0, 4)) for _ in range(3))
        a, a2 = data.draw(shaped(r, k)), data.draw(shaped(r, k))
        b = data.draw(shaped(k, c))
        n = data.draw(st.integers(-9, 9))
        # X * b = a * b modulo the columns of a2: solved by X = a
        x0, ks = solve_congruences(r, k, [(b, a * b, a2)], [])
        assert in_col_span(a2, (x0 - a) * b)
        assert all(in_col_span(a2, km * b) for km in ks)
        results = [a * b, a + a2, a - a2, -a, a * n, n * a, a.transpose(),
                   hstack(a, a2), vstack(a, a2), kron(a, b), kernel_basis(a),
                   IntMatrix.identity(r), IntMatrix.zeros(r, c), submatrix(a, range(r // 2)),
                   submatrix(a, range(r // 2, r), range(k // 2, k)),
                   *hnf(a), *snf(a), x0, *ks, IntMatrix(r, k, a.entries)]
        for m in results:
            assert_as_checked(m)

    def test_public_constructor_still_checks(self):
        with pytest.raises(ValueError):
            IntMatrix(2, 2, [1, 2, 3])
        with pytest.raises(ValueError):
            IntMatrix(1, 1, [1, 2])
        for rows, cols in ((-1, 0), (0, -1), (-1, -1)):
            with pytest.raises(ValueError):
                IntMatrix(rows, cols, [])
        with pytest.raises(ValueError):
            IntMatrix(1, 1, ["x"])
        with pytest.raises(TypeError):
            IntMatrix(1, 1, [None])
        # int() would truncate these without a word
        with pytest.raises(ValueError):
            IntMatrix(1, 1, [2.5])
        with pytest.raises(ValueError):
            IntMatrix(1, 1, [Fraction(7, 2)])
        with pytest.raises(ValueError):
            IntMatrix.identity(-1)
        with pytest.raises(ValueError):
            IntMatrix.zeros(2, -1)
        assert_as_checked(IntMatrix(1, 2, [True, "3"]))
        # a dimension must be an int: 2.0 passes the entry count, 4 == 4.0
        with pytest.raises(TypeError):
            IntMatrix(2.0, 2, [1, 0, 0, 1])
        with pytest.raises(TypeError):
            FgAbGroup.free(1.5)


SRC = Path(butterflies.__file__).resolve().parent


def source_files():
    files = sorted(SRC.rglob("*.py"))
    assert files
    return files


class TestSourceRules:
    def test_trusted_constructor_stays_in_intlinalg(self):
        users = set()
        for path in source_files():
            toks = tokenize.generate_tokens(io.StringIO(path.read_text()).readline)
            if any(t.type == tokenize.NAME and t.string == "_of" for t in toks):
                users.add(path.name)
        assert users == {"intlinalg.py"}

    def test_no_assert_statements(self):
        found = []
        for path in source_files():
            for node in ast.walk(ast.parse(path.read_text())):
                if isinstance(node, ast.Assert):
                    found.append(f"{path.name}:{node.lineno} assert")
                if isinstance(node, ast.ExceptHandler) and node.type is not None:
                    caught = node.type.elts if isinstance(node.type, ast.Tuple) else [node.type]
                    if any(isinstance(t, ast.Name) and t.id == "AssertionError" for t in caught):
                        found.append(f"{path.name}:{node.lineno} except AssertionError")
        assert found == []

    def test_record_subclasses_keep_their_annotations(self):
        """Record reads a class's fields from the __annotations__ its body
        leaves in the namespace.  Python 3.14 defers annotations (PEP 649)
        and stores an annotate function there instead, unless the module
        has from __future__ import annotations; so every file, library or
        test, that subclasses a Record, directly or not, has that import."""
        def base_name(node):
            return getattr(node, "id", getattr(node, "attr", None))

        trees = {path: ast.parse(path.read_text())
                 for path in source_files() + sorted(Path(__file__).parent.glob("*.py"))}
        classes = [(path, node) for path, tree in trees.items() for node in ast.walk(tree)
                   if isinstance(node, ast.ClassDef)]
        records = {"Record"}
        while True:
            grown = records | {node.name for _, node in classes
                               if any(base_name(b) in records for b in node.bases)}
            if grown == records:
                break
            records = grown
        users = {path for path, node in classes if any(base_name(b) in records for b in node.bases)}
        assert {p.name for p in users} >= {"fgab.py", "butterfly.py", "test_intlinalg.py"}
        missing = [path.name for path in users
                   if not any(isinstance(node, ast.ImportFrom) and node.module == "__future__"
                              and any(a.name == "annotations" for a in node.names)
                              for node in trees[path].body)]
        assert missing == []

    def test_only_record_states_the_value_rules(self):
        """Equality and the refusal of assignment and deletion are said once,
        in Record: no other class under src/ defines __setattr__,
        __delattr__ or __eq__, by def or by assignment."""
        rules = {"__setattr__", "__delattr__", "__eq__"}
        found = []
        for path in source_files():
            for node in ast.walk(ast.parse(path.read_text())):
                if isinstance(node, ast.ClassDef) and node.name != "Record":
                    for item in node.body:
                        if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                            names = [item.name]
                        elif isinstance(item, ast.Assign):
                            names = [t.id for t in item.targets if isinstance(t, ast.Name)]
                        else:
                            continue
                        found += [f"{path.name}:{item.lineno} {node.name}.{n}" for n in names if n in rules]
        assert found == []

    def test_no_private_name_imported_from_another_module(self):
        """A module's _private names stay its own: no module of the package
        imports one from another (from .mod import _name)."""
        found = []
        for path in source_files():
            for node in ast.walk(ast.parse(path.read_text())):
                if isinstance(node, ast.ImportFrom) and (
                        node.level or (node.module or "").split(".")[0] == "butterflies"):
                    found += [f"{path.name}:{node.lineno} {alias.name}" for alias in node.names
                              if alias.name.startswith("_")]
        assert found == []

    def test_only_selftest_imports_the_oracle(self):
        """The element-level oracle is ground truth for the acceptance suites,
        so it stays out of the library: no module but selftest imports it,
        as from .oracle import ..., from . import oracle or an absolute form."""
        found = []
        for path in source_files():
            if path.name == "selftest.py":
                continue
            for node in ast.walk(ast.parse(path.read_text())):
                if isinstance(node, ast.Import):
                    names = [alias.name for alias in node.names]
                elif isinstance(node, ast.ImportFrom) and (
                        node.level or (node.module or "").split(".")[0] == "butterflies"):
                    names = [f"{node.module or ''}.{alias.name}" for alias in node.names]
                else:
                    continue
                if any("oracle" in name.split(".") for name in names):
                    found.append(f"{path.name}:{node.lineno}")
        assert found == []

    def test_only_intlinalg_reads_col_echelon(self):
        """col_echelon's pivot plan and V^T stay in intlinalg: other modules read hermite_basis, span_basis,
        kernel_basis or solve, and neither import nor name col_echelon."""
        found = []
        for path in source_files():
            if path.name == "intlinalg.py":
                continue
            for node in ast.walk(ast.parse(path.read_text())):
                if isinstance(node, ast.ImportFrom):
                    names = [alias.name for alias in node.names]
                elif isinstance(node, ast.Attribute):
                    names = [node.attr]
                else:
                    continue
                if "col_echelon" in names:
                    found.append(f"{path.name}:{node.lineno}")
        assert found == []

    def test_only_the_hom_system_readers_pass_a_width(self):
        """A transform cut to the rows of X belongs to the Hom systems: in
        src/, only particular_solution and solve_congruences call
        col_echelon or _back_substitute with a width, and only those two
        take one (_back_substitute hands its own on to col_echelon)."""
        width_at = {"col_echelon": 1, "_back_substitute": 5}  # its position
        callers, takers = set(), set()
        for path in source_files():
            for func in ast.walk(ast.parse(path.read_text())):
                if not isinstance(func, ast.FunctionDef):
                    continue
                if "width" in {a.arg for a in func.args.args + func.args.kwonlyargs}:
                    takers.add(func.name)
                    continue
                for node in ast.walk(func):
                    name = getattr(getattr(node, "func", None), "id", None)
                    if name in width_at and (len(node.args) > width_at[name]
                                             or any(k.arg == "width" for k in node.keywords)):
                        callers.add(func.name)
        assert callers == {"particular_solution", "solve_congruences"}
        assert takers == set(width_at)

    def test_membership_is_never_asked_of_arithmetic(self):
        """No in_col_span call takes a product, sum or difference: a test
        x*y = z modulo a lattice is congruent(rel, x, y, z), decided on the
        entries with no matrix built for x*y or x*y - z."""
        found = []
        for path in source_files():
            for node in ast.walk(ast.parse(path.read_text())):
                if (isinstance(node, ast.Call)
                        and getattr(node.func, "id", getattr(node.func, "attr", None)) == "in_col_span"
                        and any(isinstance(arg, ast.BinOp) for arg in node.args)):
                    found.append(f"{path.name}:{node.lineno}")
        assert found == []

    def test_only_the_oracle_translates_coordinates(self):
        """Realization's coordinate translations stay inside oracle.py:
        other modules turn a map into an element function with element_map,
        so the translations can change without touching their callers."""
        private = {"map_image", "to_element", "rep_of"}
        found = []
        for path in source_files():
            if path.name != "oracle.py":
                found += [f"{path.name} {name}"
                          for name in sorted(private & set(self.names_in(ast.parse(path.read_text()))))]
        assert found == []

    # The paper's entry points that only tests call: constructions and
    # predicates a library user reaches for, kept although no program
    # path runs them.
    PUBLIC = {
        "to_chain_map", "find_section", "invert", "splitting_compose",
        "pullback_compose", "pushout_compose", "is_left_exact", "is_right_exact",
        "map_to_json", "zero_complex", "complex_direct_sum", "is_zero",
    }

    @staticmethod
    def names_in(tree) -> Counter:
        """How often each name occurs in tree: as a name, an attribute, or a
        string such as a patch target."""
        out = Counter()
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                out[node.id] += 1
            elif isinstance(node, ast.Attribute):
                out[node.attr] += 1
            elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                out[node.value] += 1
        return out

    def test_no_unreferenced_functions(self):
        """Every function or method defined under src/ is named in src/ or
        perfbench/ outside its own body (dunders exempt), or is listed in
        PUBLIC; and no PUBLIC function is named so, so the list stays
        minimal.  Tests do not count: a helper that only its own test calls
        is dead, and so is a method whose one caller is itself, as
        FgAbMap.is_zero calling IntMatrix.is_zero was.  Names are matched,
        not definitions: a method that shares its name with another
        definition or use is invisible to this test even when nothing calls
        it, as ElementGroup.neg was beside operator.neg."""
        root = SRC.parents[1]
        defs, named = [], Counter()
        for path in [*source_files(), *sorted((root / "perfbench").glob("*.py"))]:
            tree = ast.parse(path.read_text())
            named += self.names_in(tree)
            if SRC in path.parents:
                defs += [(node, f"{path.name}:{node.lineno}") for node in ast.walk(tree)
                         if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))]
        referenced = [(node.name, where, named[node.name] > self.names_in(node)[node.name])
                      for node, where in defs]
        unreferenced = [f"{where} {name}" for name, where, ref in referenced
                        if not ref and name not in self.PUBLIC
                        and not (name.startswith("__") and name.endswith("__"))]
        assert unreferenced == []
        assert self.PUBLIC <= {name for name, _, _ in referenced}
        assert sorted(name for name, _, ref in referenced if ref and name in self.PUBLIC) == []

    def test_no_dataclasses_import(self):
        """Value classes derive from intlinalg.Record: importing dataclasses
        (and the inspect it loads) would cost every CLI process its import."""
        found = []
        for path in source_files():
            for node in ast.walk(ast.parse(path.read_text())):
                if isinstance(node, ast.Import):
                    names = [alias.name for alias in node.names]
                elif isinstance(node, ast.ImportFrom):
                    names = [node.module or ""]
                else:
                    continue
                found += [f"{path.name}:{node.lineno}" for name in names
                          if name.split(".")[0] == "dataclasses"]
        assert found == []

    def test_no_unused_imports(self):
        """Every name a module imports is used in it (__init__ re-exports)."""
        found = []
        for path in source_files():
            if path.name == "__init__.py":
                continue
            tree = ast.parse(path.read_text())
            used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
            for node in ast.walk(tree):
                if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                    continue
                if isinstance(node, (ast.Import, ast.ImportFrom)):
                    for alias in node.names:
                        name = (alias.asname or alias.name).split(".")[0]
                        if name not in used:
                            found.append(f"{path.name}:{node.lineno} {name}")
        assert found == []

    def test_no_local_assigned_and_never_read(self):
        """No function stores a name that it never reads (_ exempt): such a
        value is computed for nothing.  Reads in nested functions count."""
        found = []
        for path in source_files():
            for fn in ast.walk(ast.parse(path.read_text())):
                if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    continue
                names = [n for n in ast.walk(fn) if isinstance(n, ast.Name)]
                read = {n.id for n in names if not isinstance(n.ctx, ast.Store)}
                read |= {name for n in ast.walk(fn) if isinstance(n, (ast.Global, ast.Nonlocal))
                         for name in n.names}
                found += [f"{path.name}:{n.lineno} {n.id}" for n in names
                          if isinstance(n.ctx, ast.Store) and n.id not in read | {"_"}]
        assert found == []

    def test_exceptions_caught_only_at_the_boundary(self):
        """Nothing uses an exception for control flow.  A try statement
        appears only where input enters (cli, jsonio), in selftest's
        _mutant_refusal, whose refusal is the tested outcome, and in
        two_morphism_find, which turns a failed inverse into the five-lemma
        InvariantError."""
        allowed = {("selftest.py", "_mutant_refusal"), ("butterfly.py", "two_morphism_find")}

        def tries(node, where):
            for child in ast.iter_child_nodes(node):
                if isinstance(child, ast.Try):
                    yield child.lineno, where
                inner = child.name if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)) else where
                yield from tries(child, inner)

        found = []
        for path in source_files():
            if path.name in ("cli.py", "jsonio.py"):
                continue
            for lineno, where in tries(ast.parse(path.read_text()), None):
                if (path.name, where) not in allowed:
                    found.append(f"{path.name}:{lineno} try in {where}")
        assert found == []
        body = ast.unparse(next(n for n in ast.walk(ast.parse((SRC / "butterfly.py").read_text()))
                                if isinstance(n, ast.FunctionDef) and n.name == "two_morphism_find"))
        assert "raise InvariantError('five lemma: " in body

    def test_memoized_functions_are_documented(self):
        """README's module table is the one record of the cache policy: each
        row lists, after "memoized:", exactly its module's lru_caches."""
        documented = {}
        for line in (SRC.parents[1] / "README.md").read_text().splitlines():
            row = re.match(r"\| `(\w+)` +\|(.*)\|$", line)
            if row and "memoized:" in row[2]:
                listed = row[2].split("memoized:", 1)[1].split(";")[0]
                documented[row[1]] = set(re.findall(r"`(\w+)`", listed))
        cached = {}
        for info in pkgutil.iter_modules(butterflies.__path__, "butterflies."):
            mod = importlib.import_module(info.name)
            names = {name for name, obj in vars(mod).items()
                     if hasattr(obj, "cache_info") and obj.__module__ == mod.__name__}
            if names:
                cached[info.name.split(".")[1]] = names
        assert {"butterfly", "fgab", "intlinalg"} <= set(cached)
        assert documented == cached
