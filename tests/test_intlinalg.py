import ast
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
from butterflies.fgab import FgAbGroup, FgAbMap, simplify
from butterflies.intlinalg import (
    CACHE_SIZE, IntMatrix, Record, hnf, snf, solve, kernel_basis, in_col_span, reduce_cols,
    hstack, vstack, kron, submatrix, solve_congruences, col_echelon,
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
        ht, vt, pivot_rows = col_echelon(IntMatrix.zeros(*shape))
        assert ht == IntMatrix.zeros(shape[1], shape[0])
        assert vt == IntMatrix.identity(shape[1])
        assert pivot_rows == ()

    @staticmethod
    def assert_hermite(m):
        """U*m = H with U unimodular, and H is in row echelon form with
        positive pivots and the entries above each pivot in [0, pivot).
        col_echelon of m's transpose is (H, U, p), with p the first nonzero
        column of each nonzero row of H."""
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
        assert col_echelon(m.transpose()) == (h, u, tuple(firsts))

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
        a's column echelon form a*V = H, then (Y^T * V^T)^T cut to its
        first top rows; None when R is not zero."""
        ht, vt, pivot_rows = col_echelon(a)
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
        _, vt, pivot_rows = col_echelon(a)
        return submatrix(submatrix(vt, range(len(pivot_rows), a.cols)).transpose(), range(top))

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
    one, none = IntMatrix.identity(1), IntMatrix.zeros(1, 0)
    with pytest.raises(ValueError, match="shape mismatch"):
        solve_congruences(1, 2, [(one, one, one, none)])      # R has 1 row, X 2 columns
    with pytest.raises(ValueError, match="shape mismatch"):
        solve_congruences(1, 1, [(one, one, one, IntMatrix.zeros(2, 0))])


@given(st.data())
@settings(max_examples=60, deadline=None)
def test_solve_congruences_recovers_a_planted_solution(data):
    """Two congruences L*X*R = C modulo Rel on a planted X that is not
    square, the first with L and R not square either: x0 and each K pass
    by membership, and the planted X is x0 plus an integer combination of
    the Ks."""
    rows = data.draw(st.integers(1, 3))
    cols = data.draw(st.integers(1, 3).filter(lambda c: c != rows))
    x = data.draw(shaped(rows, cols, bound=5))
    congruences = []
    for a, b in ((rows + 1, cols + 1), (data.draw(st.integers(0, 3)), data.draw(st.integers(0, 3)))):
        lm, rm = data.draw(shaped(a, rows, bound=5)), data.draw(shaped(cols, b, bound=5))
        rel = data.draw(shaped(a, data.draw(st.integers(0, 2)), bound=5))
        congruences.append((lm, rm, lm * x * rm, rel))
    x0, ks = solve_congruences(rows, cols, congruences)
    for lm, rm, cm, rel in congruences:
        assert in_col_span(rel, lm * x0 * rm - cm)
        assert all(in_col_span(rel, lm * k * rm) for k in ks)
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
    ("another class, same fields", lambda: Pair(1, 2) == Twin(1, 2), False),
    ("not a tuple", lambda: Pair(1, 2) == (1, 2), False),
    ("__post_init__ after every field", lambda: Ordered(2, 1), ValueError),
    ("__post_init__ looked up per call", _post_init_patched_after_the_class, ValueError),
    ("a map that does not descend", lambda: FgAbMap(Z2, FgAbGroup.free(1), IntMatrix(1, 1, [1])), ValueError),
    ("__post_init__ may set a field", lambda: FgAbMap(FgAbGroup.free(1), Z2, IntMatrix(1, 1, [3])).matrix,
     IntMatrix(1, 1, [1])),
    ("repr", lambda: repr(Pair(1, "x")), "Pair(a=1, b='x')"),
]


@pytest.mark.parametrize("run, expected", [c[1:] for c in RECORD_CONTRACT],
                         ids=[c[0] for c in RECORD_CONTRACT])
def test_record_contract(run, expected):
    """Record gives each subclass what a frozen dataclass would: __init__,
    == and hash on the field tuple, no mutation, and a Name(field=...) repr."""
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
    """m is what the checked public constructor makes of its own entries."""
    rebuilt = IntMatrix(m.rows, m.cols, list(m.entries))
    assert m == rebuilt and hash(m) == hash(rebuilt)
    assert type(m.entries) is tuple
    assert all(type(e) is int for e in m.entries)


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
        x0, ks = solve_congruences(r, k, [(IntMatrix.identity(r), b, a * b, a2)])
        assert in_col_span(a2, (x0 - a) * b)
        assert all(in_col_span(a2, km * b) for km in ks)
        results = [a * b, a + a2, a - a2, -a, a * n, n * a, a.transpose(),
                   hstack(a, a2), vstack(a, a2), kron(a, b), kernel_basis(a),
                   IntMatrix.identity(r), IntMatrix.zeros(r, c), submatrix(a, range(r // 2)),
                   submatrix(a, range(r // 2, r), range(k // 2, k)),
                   *hnf(a), *snf(a), x0, *ks]
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
        """col_echelon's transposed (H^T, V^T, pivots) triple stays in
        intlinalg: other modules read hermite_basis, span_basis,
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
