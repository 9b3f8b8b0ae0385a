"""Exact integer linear algebra on arbitrary-precision matrices.

Hermite and Smith normal forms with transformation matrices, and linear
Diophantine systems.  Everything is pure and immutable; results are exact
(Python ints never overflow).  Pivot selection always takes a smallest
absolute value to limit coefficient growth.

Empty matrices (0 x n, n x 0) are first class: they arise from trivial
groups and zero complexes and must behave as zero objects.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Iterable, Optional, Sequence


class InvariantError(RuntimeError):
    """An internal invariant failed: a defect in this library, never bad input."""


class IntMatrix:
    """An immutable rows x cols matrix of Python ints, row major.

    >>> m = IntMatrix(2, 2, [1, 2, 3, 4])
    >>> (m * m).entries
    (7, 10, 15, 22)
    """

    __slots__ = ("rows", "cols", "entries", "_hash")

    def __init__(self, rows: int, cols: int, entries: Iterable[int]):
        if rows < 0 or cols < 0:
            raise ValueError("negative dimensions")
        ent = tuple(int(e) for e in entries)
        if len(ent) != rows * cols:
            raise ValueError(f"expected {rows * cols} entries, got {len(ent)}")
        object.__setattr__(self, "rows", rows)
        object.__setattr__(self, "cols", cols)
        object.__setattr__(self, "entries", ent)
        object.__setattr__(self, "_hash", hash((rows, cols, ent)))

    def __setattr__(self, *a):
        raise AttributeError("IntMatrix is immutable")

    # -- constructors ------------------------------------------------------

    @staticmethod
    def from_rows(rows_list: Sequence[Sequence[int]], cols: Optional[int] = None) -> "IntMatrix":
        rows = len(rows_list)
        if rows == 0:
            return IntMatrix(0, 0 if cols is None else cols, ())
        ncols = len(rows_list[0]) if cols is None else cols
        flat = []
        for r in rows_list:
            if len(r) != ncols:
                raise ValueError("ragged rows")
            flat.extend(r)
        return IntMatrix(rows, ncols, flat)

    @staticmethod
    def identity(n: int) -> "IntMatrix":
        return IntMatrix(n, n, (1 if i == j else 0 for i in range(n) for j in range(n)))

    @staticmethod
    def zeros(rows: int, cols: int) -> "IntMatrix":
        return IntMatrix(rows, cols, (0,) * (rows * cols))

    @staticmethod
    def diagonal(diag: Sequence[int]) -> "IntMatrix":
        n = len(diag)
        return IntMatrix(n, n, (diag[i] if i == j else 0 for i in range(n) for j in range(n)))

    @staticmethod
    def column(entries: Sequence[int]) -> "IntMatrix":
        return IntMatrix(len(entries), 1, entries)

    # -- access ------------------------------------------------------------

    def __getitem__(self, ij: tuple) -> int:
        i, j = ij
        if not (0 <= i < self.rows and 0 <= j < self.cols):
            raise IndexError(ij)
        return self.entries[i * self.cols + j]

    def row(self, i: int) -> tuple:
        c = self.cols
        return self.entries[i * c:(i + 1) * c]

    def col(self, j: int) -> tuple:
        return tuple(self.entries[i * self.cols + j] for i in range(self.rows))

    def to_lists(self) -> list:
        return [list(self.row(i)) for i in range(self.rows)]

    def is_zero(self) -> bool:
        return all(e == 0 for e in self.entries)

    # -- algebra -----------------------------------------------------------

    def __mul__(self, other):
        if isinstance(other, int):
            return IntMatrix(self.rows, self.cols, (other * e for e in self.entries))
        if not isinstance(other, IntMatrix):
            return NotImplemented
        if self.cols != other.rows:
            raise ValueError(f"shape mismatch {self.rows}x{self.cols} * {other.rows}x{other.cols}")
        n, m, k = self.rows, self.cols, other.cols
        a, b = self.entries, other.entries
        out = [0] * (n * k)
        for i in range(n):
            ai = i * m
            oi = i * k
            for j in range(m):
                aij = a[ai + j]
                if aij:
                    bj = j * k
                    for t in range(k):
                        out[oi + t] += aij * b[bj + t]
        return IntMatrix(n, k, out)

    def __rmul__(self, other):
        if isinstance(other, int):
            return self * other
        return NotImplemented

    def __add__(self, other):
        if not isinstance(other, IntMatrix):
            return NotImplemented
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise ValueError("shape mismatch in +")
        return IntMatrix(self.rows, self.cols, (x + y for x, y in zip(self.entries, other.entries)))

    def __sub__(self, other):
        if not isinstance(other, IntMatrix):
            return NotImplemented
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise ValueError("shape mismatch in -")
        return IntMatrix(self.rows, self.cols, (x - y for x, y in zip(self.entries, other.entries)))

    def __neg__(self):
        return IntMatrix(self.rows, self.cols, (-e for e in self.entries))

    def __eq__(self, other):
        if not isinstance(other, IntMatrix):
            return NotImplemented
        return (self.rows, self.cols, self.entries) == (other.rows, other.cols, other.entries)

    def __hash__(self):
        return self._hash

    def __repr__(self):
        if self.rows == 0 or self.cols == 0:
            return f"IntMatrix({self.rows}x{self.cols})"
        return "IntMatrix(" + "; ".join(" ".join(str(e) for e in self.row(i)) for i in range(self.rows)) + ")"

    def transpose(self) -> "IntMatrix":
        return IntMatrix(self.cols, self.rows,
                         (self.entries[i * self.cols + j]
                          for j in range(self.cols) for i in range(self.rows)))


def hstack(*mats: IntMatrix) -> IntMatrix:
    """Concatenate matrices left to right (all must share a row count)."""
    mats = [m for m in mats]
    rows = mats[0].rows
    if any(m.rows != rows for m in mats):
        raise ValueError("hstack: row counts differ")
    flat = []
    for i in range(rows):
        for m in mats:
            flat.extend(m.row(i))
    return IntMatrix(rows, sum(m.cols for m in mats), flat)


def vstack(*mats: IntMatrix) -> IntMatrix:
    """Concatenate matrices top to bottom (all must share a column count)."""
    mats = [m for m in mats]
    cols = mats[0].cols
    if any(m.cols != cols for m in mats):
        raise ValueError("vstack: column counts differ")
    flat = []
    for m in mats:
        flat.extend(m.entries)
    return IntMatrix(sum(m.rows for m in mats), cols, flat)


def block(rows_of_blocks: Sequence[Sequence[IntMatrix]]) -> IntMatrix:
    return vstack(*(hstack(*row) for row in rows_of_blocks))


def kron(a: IntMatrix, b: IntMatrix) -> IntMatrix:
    """Kronecker product a (x) b."""
    out = []
    for i in range(a.rows):
        for s in range(b.rows):
            row = []
            for j in range(a.cols):
                aij = a.entries[i * a.cols + j]
                row.extend(aij * e for e in b.row(s))
            out.append(row)
    return IntMatrix(a.rows * b.rows, a.cols * b.cols, [e for r in out for e in r])


# -- Hermite normal form ---------------------------------------------------

def hnf(m: IntMatrix) -> tuple:
    """Row Hermite normal form with transformation: returns (H, U), U*m = H.

    U is unimodular; H is in row echelon form with positive pivots and the
    entries above each pivot reduced into [0, pivot).

    >>> h, u = hnf(IntMatrix.from_rows([[2, 4], [6, 8]]))
    >>> h.to_lists()
    [[2, 0], [0, 4]]
    >>> (u * IntMatrix.from_rows([[2, 4], [6, 8]])) == h
    True
    """
    nr, nc = m.rows, m.cols
    a = m.to_lists()
    u = [[1 if i == j else 0 for j in range(nr)] for i in range(nr)]
    r = 0
    pivots = []
    for c in range(nc):
        if r == nr:
            break
        # euclidean elimination below row r in column c
        while True:
            nz = [i for i in range(r, nr) if a[i][c]]
            if not nz:
                break
            piv = min(nz, key=lambda i: abs(a[i][c]))
            if piv != r:
                a[r], a[piv] = a[piv], a[r]
                u[r], u[piv] = u[piv], u[r]
            done = True
            arc = a[r][c]
            for i in range(r + 1, nr):
                if a[i][c]:
                    q = a[i][c] // arc
                    if q:
                        ai, ar = a[i], a[r]
                        for j in range(c, nc):
                            ai[j] -= q * ar[j]
                        ui, ur = u[i], u[r]
                        for j in range(nr):
                            ui[j] -= q * ur[j]
                    if a[i][c]:
                        done = False
            if done:
                break
        if r < nr and a[r][c]:
            if a[r][c] < 0:
                a[r] = [-x for x in a[r]]
                u[r] = [-x for x in u[r]]
            pivots.append((r, c))
            r += 1
    # reduce entries above each pivot into [0, pivot)
    for (pr, pc) in pivots:
        piv = a[pr][pc]
        for i in range(pr):
            q = a[i][pc] // piv
            if q:
                ai, ar = a[i], a[pr]
                for j in range(pc, nc):
                    ai[j] -= q * ar[j]
                ui, ur = u[i], u[pr]
                for j in range(nr):
                    ui[j] -= q * ur[j]
    return (IntMatrix.from_rows(a, nc), IntMatrix.from_rows(u, nr))


# -- Smith normal form -----------------------------------------------------

@lru_cache(maxsize=None)
def snf(m: IntMatrix) -> tuple:
    """Smith normal form with transformations: returns (S, U, V), U*m*V = S.

    U, V unimodular; S diagonal with nonnegative entries d1 | d2 | ...,
    zeros last.

    >>> s, u, v = snf(IntMatrix.from_rows([[2, 4], [6, 8]]))
    >>> s.to_lists()
    [[2, 0], [0, 4]]
    """
    nr, nc = m.rows, m.cols
    a = m.to_lists()
    u = [[1 if i == j else 0 for j in range(nr)] for i in range(nr)]
    v = [[1 if i == j else 0 for j in range(nc)] for i in range(nc)]

    def row_op(i, t, q):  # row i -= q * row t
        ai, at = a[i], a[t]
        for j in range(nc):
            ai[j] -= q * at[j]
        ui, ut = u[i], u[t]
        for j in range(nr):
            ui[j] -= q * ut[j]

    def col_op(j, t, q):  # col j -= q * col t
        for i in range(nr):
            a[i][j] -= q * a[i][t]
        for i in range(nc):
            v[i][j] -= q * v[i][t]

    t = 0
    while t < min(nr, nc):
        # pick a smallest-magnitude nonzero pivot in the trailing block
        best = None
        for i in range(t, nr):
            for j in range(t, nc):
                if a[i][j] and (best is None or abs(a[i][j]) < best[0]):
                    best = (abs(a[i][j]), i, j)
        if best is None:
            break
        _, bi, bj = best
        if bi != t:
            a[t], a[bi] = a[bi], a[t]
            u[t], u[bi] = u[bi], u[t]
        if bj != t:
            for i in range(nr):
                a[i][t], a[i][bj] = a[i][bj], a[i][t]
            for i in range(nc):
                v[i][t], v[i][bj] = v[i][bj], v[i][t]
        while True:
            # clear column t
            col_clear = True
            for i in range(nr):
                if i != t and a[i][t]:
                    q = a[i][t] // a[t][t]
                    row_op(i, t, q)
                    if a[i][t]:  # remainder became the smaller pivot
                        a[t], a[i] = a[i], a[t]
                        u[t], u[i] = u[i], u[t]
                        col_clear = False
            if not col_clear:
                continue
            # clear row t
            row_clear = True
            for j in range(nc):
                if j != t and a[t][j]:
                    q = a[t][j] // a[t][t]
                    col_op(j, t, q)
                    if a[t][j]:
                        for i in range(nr):
                            a[i][t], a[i][j] = a[i][j], a[i][t]
                        for i in range(nc):
                            v[i][t], v[i][j] = v[i][j], v[i][t]
                        row_clear = False
            if row_clear and all(a[i][t] == 0 for i in range(nr) if i != t):
                break
        # divisibility: a[t][t] must divide every trailing entry
        d = a[t][t]
        fixed = True
        for i in range(t + 1, nr):
            for j in range(t + 1, nc):
                if a[i][j] % d:
                    row_op(t, i, -1)  # fold row i into row t, re-eliminate
                    fixed = False
                    break
            if not fixed:
                break
        if not fixed:
            continue
        if a[t][t] < 0:
            a[t] = [-x for x in a[t]]
            u[t] = [-x for x in u[t]]
        t += 1
    return (IntMatrix.from_rows(a, nc), IntMatrix.from_rows(u, nr), IntMatrix.from_rows(v, nc))


# -- Diophantine systems ---------------------------------------------------

@lru_cache(maxsize=None)
def _col_echelon(a: IntMatrix) -> tuple:
    """Cached column echelon factorization a*V = H (H = transposed row HNF).

    Returns (H, V, pivot rows per pivot column).
    """
    ht, ut = hnf(a.transpose())
    h = ht.transpose()
    v = ut.transpose()
    pivot_rows = []
    for k in range(h.cols):
        colk = h.col(k)
        nz = [i for i, e in enumerate(colk) if e]
        if not nz:
            break
        pivot_rows.append(nz[0])
    return (h, v, tuple(pivot_rows))


def _back_substitute(a: IntMatrix, bvec) -> Optional[list]:
    """y with (a*V)*y = bvec, for the V of a's column echelon form, or None."""
    h, _, pivot_rows = _col_echelon(a)
    r = list(bvec)
    y = [0] * a.cols
    for k, p in enumerate(pivot_rows):
        piv = h[p, k]
        q, rem = divmod(r[p], piv)
        if rem:
            return None
        if q:
            y[k] = q
            for i in range(p, a.rows):
                hik = h[i, k]
                if hik:
                    r[i] -= q * hik
    if any(r):
        return None
    return y


def solve(a: IntMatrix, b) -> Optional[tuple]:
    """Solve a*x = b over the integers.

    Returns (x0, K) with a*x0 = b and the columns of K a lattice basis of
    {x : a*x = 0}, or None when no integer solution exists ("unsolvable" is
    a normal answer, not an error).  The general solution is x0 + K*t.

    >>> x0, k = solve(IntMatrix.from_rows([[2]]), [4])
    >>> x0.col(0), k.cols
    ((2,), 0)
    >>> solve(IntMatrix.from_rows([[2]]), [3]) is None
    True
    """
    if isinstance(b, IntMatrix):
        if b.cols != 1:
            raise ValueError("b must be a column vector")
        bvec = b.col(0)
    else:
        bvec = [int(x) for x in b]
    if len(bvec) != a.rows:
        raise ValueError("dimension mismatch in solve")
    y = _back_substitute(a, bvec)
    if y is None:
        return None
    v = _col_echelon(a)[1]
    return (v * IntMatrix.column(y), kernel_basis(a))


def solve_matrix(a: IntMatrix, b: IntMatrix) -> Optional[IntMatrix]:
    """Solve a*X = b columnwise; returns X or None. Shares a's factorization."""
    if b.rows != a.rows:
        raise ValueError("dimension mismatch in solve_matrix")
    ys = []
    for j in range(b.cols):
        y = _back_substitute(a, b.col(j))
        if y is None:
            return None
        ys.append(y)
    v = _col_echelon(a)[1]
    return v * IntMatrix(a.cols, b.cols, (y[i] for i in range(a.cols) for y in ys))


def kernel_basis(a: IntMatrix) -> IntMatrix:
    """Columns generate {x : a*x = 0}."""
    _, v, pivot_rows = _col_echelon(a)
    npiv = len(pivot_rows)
    return IntMatrix(a.cols, a.cols - npiv,
                     (v[i, j] for i in range(a.cols) for j in range(npiv, a.cols)))


def in_col_span(a: IntMatrix, b: IntMatrix) -> bool:
    """Is every column of b an integer combination of the columns of a?

    >>> a = IntMatrix.from_rows([[2, 0], [0, 3]])
    >>> in_col_span(a, IntMatrix.from_rows([[4, 0], [3, 6]]))
    True
    >>> in_col_span(a, IntMatrix.column([1, 0]))
    False
    """
    if b.rows != a.rows:
        raise ValueError("dimension mismatch in in_col_span")
    return all(_back_substitute(a, b.col(j)) is not None for j in range(b.cols))
