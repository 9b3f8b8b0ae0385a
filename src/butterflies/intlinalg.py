"""Exact integer linear algebra on arbitrary-precision matrices.

Hermite and Smith normal forms with transformation matrices, and linear
Diophantine systems.  Everything is pure and immutable; results are exact
(Python ints never overflow).  Pivot selection always takes a smallest
absolute value to limit coefficient growth.  The Smith form starts with a
column Hermite pass, so its row transforms depend only on the lattice the
matrix's columns span, not on how its columns are written.

Empty matrices (0 x n, n x 0) are first class: they arise from trivial
groups and zero complexes and must behave as zero objects.
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence
from functools import lru_cache
from itertools import chain
from operator import add, index, mul, neg, sub


# The one bound on every memo cache in the package: results are pure
# functions of immutable values, and the bound caps memory in long-running use.
CACHE_SIZE = 4096


class InvariantError(RuntimeError):
    """An internal invariant failed: a defect in this library, never bad input."""


class Record:
    """Base of the package's immutable value classes.

    A subclass's fields are the names its own body annotates, in order.
    Each subclass gets, compiled once, what a frozen dataclass would get:
    an __init__ taking the fields by position or keyword (it then calls
    self.__post_init__() when the class has one), an == that compares the
    field tuples of two instances of the same class, and the hash of the
    field tuple.  Instances refuse assignment and deletion.

    >>> class Pair(Record):
    ...     a: int
    ...     b: int
    >>> Pair(1, b=2), Pair(1, 2) == Pair(1, 2), hash(Pair(1, 2)) == hash((1, 2))
    (Pair(a=1, b=2), True, True)
    """

    def __init_subclass__(cls):
        super().__init_subclass__()
        names = tuple(cls.__annotations__)
        mine = "".join(f"self.{n}, " for n in names)
        theirs = "".join(f"other.{n}, " for n in names)
        sets = "".join(f"    _setattr(self, {n!r}, {n})\n" for n in names)
        post = "    self.__post_init__()\n" if hasattr(cls, "__post_init__") else ""
        src = (f"def __init__(self, {', '.join(names)}):\n{sets}{post}"
               "def __eq__(self, other):\n"
               "    if other.__class__ is not self.__class__:\n"
               "        return NotImplemented\n"
               f"    return ({mine}) == ({theirs})\n"
               "def __hash__(self):\n"
               f"    return hash(({mine}))\n")
        ns: dict = {}
        exec(src, {"_setattr": object.__setattr__}, ns)
        for name, fn in ns.items():
            fn.__qualname__ = f"{cls.__qualname__}.{name}"
            setattr(cls, name, fn)
        cls.__match_args__ = names

    def __setattr__(self, *a):
        raise AttributeError(f"{type(self).__name__} is immutable")

    __delattr__ = __setattr__

    def __repr__(self):
        fields = ", ".join(f"{n}={getattr(self, n)!r}" for n in self.__match_args__)
        return f"{type(self).__qualname__}({fields})"


class IntMatrix:
    """An immutable rows x cols matrix of Python ints, row major.

    The hash is computed when it is asked for, not stored: only cache keys
    are ever hashed, and most matrices are intermediate results.

    >>> m = IntMatrix(2, 2, [1, 2, 3, 4])
    >>> m, (m * m).entries
    (IntMatrix(1 2; 3 4), (7, 10, 15, 22))
    """

    __slots__ = ("rows", "cols", "entries")

    def __init__(self, rows: int, cols: int, entries: Iterable[int]):
        rows, cols = index(rows), index(cols)  # refuses 2.0, which the checks below let by
        if rows < 0 or cols < 0:
            raise ValueError("negative dimensions")
        given = tuple(entries)
        ent = tuple(map(int, given))
        # int() truncates 2.5 and Fraction(7, 2); a str is parsed, not compared
        if ent != given and any(not isinstance(x, str) and x != e for x, e in zip(given, ent)):
            raise ValueError("matrix entries must be integers")
        if len(ent) != rows * cols:
            raise ValueError(f"expected {rows * cols} entries, got {len(ent)}")
        _fill(self, rows, cols, ent)

    @staticmethod
    def _of(rows: int, cols: int, ent: tuple) -> "IntMatrix":
        """The trusted constructor, for this module's own results only: ent
        must already be a tuple of rows * cols ints, and nothing is checked."""
        return _fill(object.__new__(IntMatrix), rows, cols, ent)

    def __setattr__(self, *a):
        raise AttributeError("IntMatrix is immutable")

    # -- constructors ------------------------------------------------------

    @staticmethod
    def from_rows(rows_list: Sequence[Sequence[int]], cols: int | None = None) -> "IntMatrix":
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
        if n < 0:
            raise ValueError("negative dimensions")
        return IntMatrix._of(n, n, tuple(1 if i == j else 0 for i in range(n) for j in range(n)))

    @staticmethod
    def zeros(rows: int, cols: int) -> "IntMatrix":
        if rows < 0 or cols < 0:
            raise ValueError("negative dimensions")
        return IntMatrix._of(rows, cols, (0,) * (rows * cols))

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
        if not 0 <= i < self.rows:
            raise IndexError(f"row {i} of a {self.rows}x{self.cols} matrix")
        c = self.cols
        return self.entries[i * c:(i + 1) * c]

    def col(self, j: int) -> tuple:
        if not 0 <= j < self.cols:
            raise IndexError(f"column {j} of a {self.rows}x{self.cols} matrix")
        return self.entries[j::self.cols]

    def to_lists(self) -> list:
        return [list(self.row(i)) for i in range(self.rows)]

    # -- algebra -----------------------------------------------------------

    def __mul__(self, other):
        if isinstance(other, int):
            return IntMatrix._of(self.rows, self.cols, tuple(map(int(other).__mul__, self.entries)))
        if not isinstance(other, IntMatrix):
            return NotImplemented
        if self.cols != other.rows:
            raise ValueError(f"shape mismatch {self.rows}x{self.cols} * {other.rows}x{other.cols}")
        m, k = self.cols, other.cols
        a, b = self.entries, other.entries
        bcols = [b[j::k] for j in range(k)]
        return IntMatrix._of(self.rows, k, tuple([sum(map(mul, a[i * m:(i + 1) * m], bj))
                                                  for i in range(self.rows) for bj in bcols]))

    def __rmul__(self, other):
        if isinstance(other, int):
            return self * other
        return NotImplemented

    def __add__(self, other):
        if not isinstance(other, IntMatrix):
            return NotImplemented
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise ValueError("shape mismatch in +")
        return IntMatrix._of(self.rows, self.cols, tuple(map(add, self.entries, other.entries)))

    def __sub__(self, other):
        if not isinstance(other, IntMatrix):
            return NotImplemented
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise ValueError("shape mismatch in -")
        return IntMatrix._of(self.rows, self.cols, tuple(map(sub, self.entries, other.entries)))

    def __neg__(self):
        return IntMatrix._of(self.rows, self.cols, tuple(map(neg, self.entries)))

    def __eq__(self, other):
        if not isinstance(other, IntMatrix):
            return NotImplemented
        return (self.rows, self.cols, self.entries) == (other.rows, other.cols, other.entries)

    def __hash__(self):
        return hash((self.rows, self.cols, self.entries))

    def __repr__(self):
        if self.rows == 0 or self.cols == 0:
            return f"IntMatrix({self.rows}x{self.cols})"
        return "IntMatrix(" + "; ".join(" ".join(str(e) for e in self.row(i)) for i in range(self.rows)) + ")"

    def transpose(self) -> "IntMatrix":
        c = self.cols
        return IntMatrix._of(c, self.rows,
                             tuple(chain.from_iterable(self.entries[j::c] for j in range(c))))


# The slots' own setters, which bypass the immutability guard in __setattr__.
_set_rows, _set_cols, _set_entries = (
    IntMatrix.rows.__set__, IntMatrix.cols.__set__, IntMatrix.entries.__set__)


def _fill(m: IntMatrix, rows: int, cols: int, ent: tuple) -> IntMatrix:
    _set_rows(m, rows)
    _set_cols(m, cols)
    _set_entries(m, ent)
    return m


def _from_lists(rows: int, cols: int, lists: list) -> IntMatrix:
    """Rows held as sequences of ints, computed in this module, as a matrix."""
    return IntMatrix._of(rows, cols, tuple(chain.from_iterable(lists)))


def hstack(*mats: IntMatrix) -> IntMatrix:
    """Concatenate matrices left to right (all must share a row count)."""
    rows = mats[0].rows
    if any(m.rows != rows for m in mats):
        raise ValueError("hstack: row counts differ")
    flat = []
    for i in range(rows):
        for m in mats:
            flat.extend(m.row(i))
    return IntMatrix._of(rows, sum(m.cols for m in mats), tuple(flat))


def vstack(*mats: IntMatrix) -> IntMatrix:
    """Concatenate matrices top to bottom (all must share a column count)."""
    cols = mats[0].cols
    if any(m.cols != cols for m in mats):
        raise ValueError("vstack: column counts differ")
    return IntMatrix._of(sum(m.rows for m in mats), cols,
                         tuple(chain.from_iterable(m.entries for m in mats)))


def submatrix(m: IntMatrix, rows: range, cols: range | None = None) -> IntMatrix:
    """The block of m on runs of consecutive rows and columns (all by default).

    >>> submatrix(IntMatrix.from_rows([[1, 2, 3], [4, 5, 6]]), range(2), range(1, 3)).entries
    (2, 3, 5, 6)
    """
    w, cols = m.cols, range(m.cols) if cols is None else cols
    if any(r.step != 1 or not 0 <= r.start <= r.stop <= n for r, n in ((rows, m.rows), (cols, w))):
        raise ValueError(f"submatrix: {rows} and {cols} of a {m.rows}x{w} matrix")
    if len(cols) == w:
        return IntMatrix._of(len(rows), w, m.entries[rows.start * w:rows.stop * w])
    return IntMatrix._of(len(rows), len(cols), tuple(
        e for i in rows for e in m.entries[i * w + cols.start:i * w + cols.stop]))


def block(rows_of_blocks: Sequence[Sequence[IntMatrix]]) -> IntMatrix:
    return vstack(*(hstack(*row) for row in rows_of_blocks))


def kron(a: IntMatrix, b: IntMatrix) -> IntMatrix:
    """Kronecker product a (x) b: row (i, s) is [x*y for x in a.row(i) for y in b.row(s)]."""
    return IntMatrix._of(a.rows * b.rows, a.cols * b.cols, tuple(
        x * y for i in range(a.rows) for s in range(b.rows) for x in a.row(i) for y in b.row(s)))


# -- Hermite and Smith normal forms -----------------------------------------

def _eye(n: int) -> list:
    return [[1 if i == j else 0 for j in range(n)] for i in range(n)]


def _hermite(a: list, wt: list, nc: int) -> list:
    """Row Hermite normal form in place on the first nc entries of the rows
    a: they become H = E*a for a unimodular E, and any later entries ride
    along, so rows [a | u] end as [E*a | E*u].  The rows wt end as E^-T*wt
    (with wt = I, wt transposed is E^-1); rows of wt may be empty, and then
    no row operation touches them.  Returns the pivots (row, column) in
    order: rows 0, 1, ... of H, each with its first nonzero entry in its
    pivot's column; the rows after the last pivot are zero.

    Euclidean elimination with a smallest pivot, then the entries above each
    pivot are reduced into [0, pivot)."""
    nr = len(a)
    nw = len(wt[0]) if nr else 0
    r = 0
    pivots = []
    for c in range(nc):
        if r == nr:
            break
        # euclidean elimination below row r in column c
        while True:
            piv, best = r, 0  # the first row of smallest nonzero |a[i][c]|
            for i in range(r, nr):
                x = a[i][c]
                if x:
                    if x < 0:
                        x = -x
                    if not best or x < best:
                        piv, best = i, x
            if not best:
                break
            if piv != r:
                a[r], a[piv] = a[piv], a[r]
                wt[r], wt[piv] = wt[piv], wt[r]
            done = True
            ar, wr = a[r], wt[r]
            arc = ar[c]
            for i in range(r + 1, nr):
                ai = a[i]
                if ai[c]:
                    q = ai[c] // arc
                    if q:
                        for j in range(c, len(ai)):
                            ai[j] -= q * ar[j]
                        if nw:
                            wi = wt[i]
                            for j in range(nw):
                                wr[j] += q * wi[j]
                    if ai[c]:
                        done = False
            if done:
                break
        if a[r][c]:
            if a[r][c] < 0:
                a[r] = [-x for x in a[r]]
                wt[r] = [-x for x in wt[r]]
            pivots.append((r, c))
            r += 1
    # reduce entries above each pivot into [0, pivot)
    for (pr, pc) in pivots:
        ar, wr = a[pr], wt[pr]
        piv = ar[pc]
        for i in range(pr):
            q = a[i][pc] // piv
            if q:
                ai, wi = a[i], wt[i]
                for j in range(pc, len(ai)):
                    ai[j] -= q * ar[j]
                if nw:
                    for j in range(nw):
                        wr[j] += q * wi[j]
    return pivots


def hnf(m: IntMatrix) -> tuple:
    """Row Hermite normal form with transformation: returns (H, U), U*m = H.

    U is unimodular; H is in row echelon form with positive pivots and the
    entries above each pivot reduced into [0, pivot).  It is the cached
    column echelon factorization of m's transpose, read as is.

    >>> h, u = hnf(IntMatrix.from_rows([[2, 4], [6, 8]]))
    >>> h.to_lists()
    [[2, 0], [0, 4]]
    >>> (u * IntMatrix.from_rows([[2, 4], [6, 8]])) == h
    True
    """
    return col_echelon(m.transpose())[:2]


def _is_diagonal(a: list) -> bool:
    return not any(any(row[:i]) or any(row[i + 1:]) for i, row in enumerate(a))


def _xgcd(a: int, b: int) -> tuple:
    """(g, s, t) with s*a + t*b = g = gcd(a, b), for a, b > 0."""
    s0, s1, t0, t1 = 1, 0, 0, 1
    while b:
        q, r = divmod(a, b)
        a, b = b, r
        s0, s1 = s1, s0 - q * s1
        t0, t1 = t1, t0 - q * t1
    return a, s0, t0


@lru_cache(maxsize=CACHE_SIZE)
def snf(m: IntMatrix) -> tuple:
    """Smith normal form with row transformations: returns (S, U, W), where
    U*m*V = S for some unimodular V that is not computed.

    U is unimodular and W = U^-1; S is diagonal with nonnegative entries
    d1 | d2 | ..., zeros last.  Row Hermite passes on the matrix's transpose
    and on the matrix alternate until it is diagonal (Kannan and Bachem,
    SIAM J. Comput. 8(4), 1979), which keeps the transforms' entries small;
    2x2 Bezout steps then make each diagonal entry divide the next.

    The column pass comes first and tracks no transform, since V is not
    wanted.  It leaves the column Hermite form of m, which is unique for the
    lattice m's columns span (Cohen, GTM 138, section 2.4), and every later
    step reads only that form.  So U and W depend only on that lattice and
    on m's row count: reordering, combining or adding columns within the
    lattice leaves them as they are.

    >>> s, u, w = snf(IntMatrix.from_rows([[2, 4], [6, 8]]))
    >>> s.to_lists()
    [[2, 0], [0, 4]]
    >>> u * w == IntMatrix.identity(2)
    True

    The columns of [[1, 2], [3, 4]], swapped, are those of [[2, 1], [4, 3]]:

    >>> for rows in ([[1, 2], [3, 4]], [[2, 1], [4, 3]]):
    ...     _, u, w = snf(IntMatrix.from_rows(rows))
    ...     print(u.to_lists(), w.to_lists())
    [[1, 0], [-1, 1]] [[1, 0], [1, 1]]
    [[1, 0], [-1, 1]] [[1, 0], [1, 1]]
    """
    nr, nc = m.rows, m.cols
    at = [list(m.entries[j::nc]) for j in range(nc)]  # m transposed
    # W is kept transposed, so its column operations are row operations
    u, wt = _eye(nr), _eye(nr)
    while True:
        _hermite(at, [[]] * nc, nr)
        a = [list(row) for row in zip(*at)] if nc else [[] for _ in range(nr)]
        if _is_diagonal(a):
            break
        a = [row + ur for row, ur in zip(a, u)]  # U rides in the rows
        _hermite(a, wt, nc)
        a, u = [row[:nc] for row in a], [row[nc:] for row in a]
        if _is_diagonal(a):
            break
        at = [list(col) for col in zip(*a)]
    d = [a[i][i] for i in range(min(nr, nc))]
    k = sum(1 for x in d if x)  # the nonzero entries, positive and first
    for i in range(k):
        for j in range(i + 1, k):
            if d[j] % d[i]:
                # [[s, t], [-y, x]] * diag(d_i, d_j) * [[1, -t*y], [1, s*x]]
                # = diag(g, lcm), with s*x + t*y = 1 making both unimodular
                g, s, t = _xgcd(d[i], d[j])
                x, y = d[i] // g, d[j] // g
                ui, uj, wi, wj = u[i], u[j], wt[i], wt[j]
                u[i] = [s * p + t * q for p, q in zip(ui, uj)]
                u[j] = [x * q - y * p for p, q in zip(ui, uj)]
                wt[i] = [x * p + y * q for p, q in zip(wi, wj)]
                wt[j] = [s * q - t * p for p, q in zip(wi, wj)]
                d[i], d[j] = g, x * d[j]
    s = [0] * (nr * nc)
    s[:len(d) * (nc + 1):nc + 1] = d
    return (IntMatrix._of(nr, nc, tuple(s)), _from_lists(nr, nr, u),
            _from_lists(nr, nr, zip(*wt)))


# -- Diophantine systems ---------------------------------------------------

@lru_cache(maxsize=CACHE_SIZE)
def col_echelon(a: IntMatrix) -> tuple:
    """Cached column echelon factorization a*V = H, kept transposed.

    Returns (H^T, V^T, pivot rows per pivot column), where (H^T, V^T) is the
    row HNF of a^T; column k of H is row k of H^T.  The elimination runs on
    the rows [column j of a | row j of I], so each ends as [row j of H^T |
    row j of V^T], and the pivots it finds are the pivot rows.
    """
    nr, nc = a.rows, a.cols
    rows = [[*a.entries[j::nc], *e] for j, e in enumerate(_eye(nc))]
    pivots = _hermite(rows, [[]] * nc, nr)
    return (_from_lists(nc, nr, (row[:nr] for row in rows)),
            _from_lists(nc, nc, (row[nr:] for row in rows)), tuple(c for _, c in pivots))


def _back_substitute(a: IntMatrix, b: IntMatrix, caller: str, top: int = 0) -> tuple:
    """(y, r, x): the entries, row major, of Y and R with b = H*Y + R for
    a's cached column echelon form a*V = H, each entry of R at pivot row k
    floored into [0, pivot k), and of the first top rows of X = V*Y.  So
    each column of R is one remainder per coset of a's column span (Cohen,
    GTM 138, section 2.4), zero exactly for the columns of b in the span.

    Y is zero below the pivots, so X sums, for each quotient q found at
    pivot k, q times the first top entries of V's column k, which is row k
    of the cached V^T; with top = 0 the transform is not read."""
    if b.rows != a.rows:
        raise ValueError(f"dimension mismatch in {caller}")
    ht, vt, pivot_rows = col_echelon(a)
    he, ve, nr, nb, w = ht.entries, vt.entries, ht.cols, b.cols, vt.cols
    r, y, x = list(b.entries), [0] * (ht.rows * nb), [0] * (top * nb)
    for k, p in enumerate(pivot_rows):
        hk = he[k * nr + p:(k + 1) * nr]  # column k of H, from its pivot down
        vk = ve[k * w:k * w + top]        # column k of V, its first top entries
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


def _check_top(a: IntMatrix, top: int | None) -> int:
    """The count of a solution's rows to keep: all a.cols when top is None."""
    if top is None:
        return a.cols
    if not 0 <= top <= a.cols:
        raise ValueError(f"top = {top} rows of a solution with {a.cols}")
    return top


def solve(a: IntMatrix, b: IntMatrix, top: int | None = None) -> IntMatrix | None:
    """Solve a*X = b over the integers, one column of b at a time on a's
    one cached factorization, and return the first top rows of X (all of
    them by default).

    Returns X, or None when some column has no integer solution
    ("unsolvable" is a normal answer, not an error).  kernel_basis(a)
    gives the rest of the solutions.

    >>> solve(IntMatrix.from_rows([[2]]), IntMatrix.from_rows([[4, -6]])).entries
    (2, -3)
    >>> solve(IntMatrix.from_rows([[2]]), IntMatrix.column([3])) is None
    True
    >>> solve(IntMatrix.from_rows([[1, 1, 0]]), IntMatrix.column([5]), top=1).entries
    (5,)

    A right-hand side with no columns has the top x 0 answer, returned
    without factoring a:

    >>> solve(IntMatrix.from_rows([[2, 0]]), IntMatrix.zeros(1, 0))
    IntMatrix(2x0)
    """
    top = _check_top(a, top)
    if not b.cols and b.rows == a.rows:
        return IntMatrix._of(top, 0, ())
    _, r, x = _back_substitute(a, b, "solve", top)
    if any(r):
        return None
    return IntMatrix._of(top, b.cols, tuple(x))


def hermite_basis(a: IntMatrix) -> IntMatrix:
    """The Hermite basis, as columns, of a's column span: the first r
    columns of H, for a's cached column echelon form a*V = H.  Its columns
    are independent and span the same lattice as a's.

    >>> hermite_basis(IntMatrix.from_rows([[2, 4, 6], [0, 1, 1]])).to_lists()
    [[2, 0], [0, 1]]
    """
    ht, _, pivot_rows = col_echelon(a)
    return submatrix(ht, range(len(pivot_rows))).transpose()


def span_basis(a: IntMatrix) -> tuple:
    """(h, y) with a = h*y: h is hermite_basis(a), and y holds the
    coordinates of a's columns on it, read by back-substituting a's own
    columns on the same factorization (Cohen, GTM 138, section 2.4).  h has
    independent columns, so y is unique.

    >>> h, y = span_basis(IntMatrix.from_rows([[2, 4, 6]]))
    >>> h.entries, y.entries
    ((2,), (1, 2, 3))
    """
    h = hermite_basis(a)
    y, _, _ = _back_substitute(a, a, "span_basis")
    return h, IntMatrix._of(h.cols, a.cols, tuple(y[:h.cols * a.cols]))


def kernel_basis(a: IntMatrix, top: int | None = None) -> IntMatrix:
    """Columns generate {x : a*x = 0}: the columns of V after the pivots,
    for a's cached column echelon form a*V = H, each cut to its first top
    entries (all of them by default).

    >>> kernel_basis(IntMatrix.from_rows([[1, 1, 0]]), top=2).to_lists()
    [[-1, 0], [1, 0]]
    """
    top = _check_top(a, top)
    _, vt, pivot_rows = col_echelon(a)
    n = a.cols
    tail = vt.entries[len(pivot_rows) * n:]  # the rows of V^T after the pivots
    return IntMatrix._of(top, n - len(pivot_rows),
                         tuple(chain.from_iterable(tail[i::n] for i in range(top))))


def in_col_span(a: IntMatrix, b: IntMatrix) -> bool:
    """Is every column of b an integer combination of the columns of a?

    >>> a = IntMatrix.from_rows([[2, 0], [0, 3]])
    >>> in_col_span(a, IntMatrix.from_rows([[4, 0], [3, 6]]))
    True
    >>> in_col_span(a, IntMatrix.column([1, 0]))
    False
    """
    return not any(_back_substitute(a, b, "in_col_span")[1])


def reduce_cols(a: IntMatrix, m: IntMatrix) -> IntMatrix:
    """m with each column replaced by its Hermite remainder modulo the
    column span of a: two matrices give the same result exactly when their
    difference lies in the span.  m itself when it is reduced already.

    >>> reduce_cols(IntMatrix.column([4]), IntMatrix.from_rows([[9, -1, 3]])).entries
    (1, 3, 3)
    """
    y, r, _ = _back_substitute(a, m, "reduce_cols")
    return IntMatrix._of(m.rows, m.cols, tuple(r)) if any(y) else m


def solve_congruences(rows: int, cols: int, congruences: Sequence[tuple]) -> tuple | None:
    """Integer rows x cols matrices X with L*X*R = C modulo the column span
    of Rel, for every (L, R, C, Rel) in congruences.

    Returns (X0, Ks) with X0 one solution and Ks the nonzero matrices among
    a generating set of the solutions of the homogeneous system, so every
    solution is X0 plus an integer combination of Ks; or None.  Everything is
    flattened to one system in the entries of X (row major) plus one slack
    unknown per relation coefficient.

    >>> x0, ks = solve_congruences(1, 1, [(IntMatrix.identity(1), IntMatrix.identity(1),
    ...                                     IntMatrix.column([3]), IntMatrix.column([4]))])
    >>> x0.entries, [k.entries for k in ks]
    ((3,), [(4,)])
    """
    for (lm, rm, cm, rel) in congruences:
        if (lm.cols != rows or rm.rows != cols or rel.rows != lm.rows
                or (cm.rows, cm.cols) != (lm.rows, rm.cols)):
            raise ValueError("solve_congruences: shape mismatch")
    nx = rows * cols
    eqs, rhs, pad = [], [], 0
    for (lm, rm, cm, rel) in congruences:
        for v in range(rm.cols):
            rv, cv = rm.col(v), cm.col(v)
            for u in range(lm.rows):  # (L*X*R)[u][v], then -Rel[u] in column v's slack block
                eqs.append([x * y for x in lm.row(u) for y in rv]
                           + [0] * pad + [-e for e in rel.row(u)])
                rhs.append(cv[u])
            pad += rel.cols
    width = nx + pad
    system = _from_lists(len(eqs), width, (eq + [0] * (width - len(eq)) for eq in eqs))
    x0 = solve(system, IntMatrix._of(len(rhs), 1, tuple(rhs)), nx)
    if x0 is None:
        return None
    kern = kernel_basis(system, nx)
    ks = [IntMatrix._of(rows, cols, k) for k in map(kern.col, range(kern.cols)) if any(k)]
    return IntMatrix._of(rows, cols, x0.entries), ks
