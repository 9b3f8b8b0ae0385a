import itertools

import pytest
from hypothesis import given, settings, strategies as st

from butterflies.intlinalg import (
    IntMatrix, hnf, snf, solve, solve_matrix, kernel_basis, in_col_span, hstack, vstack, kron,
)


def mat(rows):
    return IntMatrix.from_rows(rows)


def det(m):
    from fractions import Fraction
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


small_matrices = st.integers(0, 4).flatmap(
    lambda r: st.integers(0, 4).flatmap(
        lambda c: st.lists(st.integers(-20, 20), min_size=r * c, max_size=r * c)
        .map(lambda e: IntMatrix(r, c, e))))


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

    @given(small_matrices)
    @settings(max_examples=60, deadline=None)
    def test_recompose_and_shape(self, m):
        h, u = hnf(m)
        assert u * m == h
        if m.rows:
            assert abs(det(u)) == 1
        last = -1
        for i in range(h.rows):
            nz = [j for j in range(h.cols) if h[i, j]]
            if not nz:
                continue
            assert nz[0] > last
            last = nz[0]
            piv = h[i, nz[0]]
            assert piv > 0
            for ii in range(i):
                assert 0 <= h[ii, nz[0]] < piv


class TestSnf:
    def test_zero(self):
        m = IntMatrix.zeros(2, 3)
        s, u, v = snf(m)
        assert s.is_zero()
        assert u == IntMatrix.identity(2) and v == IntMatrix.identity(3)

    def test_2x2(self):
        s, _, _ = snf(mat([[2, 4], [6, 8]]))
        assert s.to_lists() == [[2, 0], [0, 4]]

    def test_already_diagonal(self):
        s, _, _ = snf(mat([[1, 0], [0, 6]]))
        assert s.to_lists() == [[1, 0], [0, 6]]

    @given(small_matrices)
    @settings(max_examples=60, deadline=None)
    def test_recompose_divisibility(self, m):
        s, u, v = snf(m)
        assert u * m * v == s
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


class TestSolve:
    def test_simple(self):
        x0, k = solve(mat([[2]]), [4])
        assert x0.col(0) == (2,)
        assert k.cols == 0

    def test_parity_unsolvable(self):
        assert solve(mat([[2]]), [3]) is None

    def test_kernel_line(self):
        x0, k = solve(mat([[1, 1]]), [0])
        assert x0.col(0) == (0, 0)
        assert k.cols == 1
        a, b = k.col(0)
        assert a + b == 0 and abs(a) == 1

    def test_empty_shapes(self):
        x0, k = solve(IntMatrix.zeros(0, 3), [])
        assert x0.col(0) == (0, 0, 0) and k.cols == 3
        assert solve(IntMatrix.zeros(3, 0), [0, 0, 0]) is not None
        assert solve(IntMatrix.zeros(3, 0), [1, 0, 0]) is None

    @given(st.integers(0, 3), st.integers(0, 3), st.randoms(use_true_random=False))
    @settings(max_examples=80, deadline=None)
    def test_against_bounded_search(self, r, c, rng):
        a = IntMatrix(r, c, [rng.randint(-3, 3) for _ in range(r * c)])
        b = [rng.randint(-5, 5) for _ in range(r)]
        res = solve(a, b)
        box = None
        for x in itertools.product(range(-6, 7), repeat=c):
            if all(sum(a[i, j] * x[j] for j in range(c)) == b[i] for i in range(r)):
                box = x
                break
        if box is not None:
            assert res is not None
        assert in_col_span(a, IntMatrix.column(b)) == (res is not None)
        x = solve_matrix(a, IntMatrix.column(b))
        assert x == (None if res is None else res[0])
        if res is not None:
            x0, k = res
            assert all(sum(a[i, j] * x0[j, 0] for j in range(c)) == b[i] for i in range(r))
            for t in range(k.cols):
                assert all(sum(a[i, j] * k[j, t] for j in range(c)) == 0 for i in range(r))


def test_solve_matrix_and_kernel_basis():
    a = mat([[2, 0], [0, 3]])
    x = solve_matrix(a, mat([[4, 2], [9, 3]]))
    assert a * x == mat([[4, 2], [9, 3]])
    assert kernel_basis(mat([[1, 1]])).cols == 1


def test_block_helpers():
    a = IntMatrix.identity(2)
    assert hstack(a, IntMatrix.zeros(2, 1)).cols == 3
    assert vstack(a, IntMatrix.zeros(1, 2)).rows == 3
    k = kron(mat([[2]]), IntMatrix.identity(2))
    assert k.to_lists() == [[2, 0], [0, 2]]


def test_immutability_and_hash():
    m = mat([[1, 2], [3, 4]])
    with pytest.raises(AttributeError):
        m.rows = 5
    assert hash(m) == hash(IntMatrix(2, 2, (1, 2, 3, 4)))
