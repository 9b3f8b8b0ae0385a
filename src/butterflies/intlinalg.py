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

from collections.abc import Sequence
from functools import lru_cache
from itertools import chain, compress
from operator import add, attrgetter, getitem, index, mul, neg, sub


# The one bound on every memo cache in the package: results are pure
# functions of immutable values, and the bound caps memory in long-running use.
CACHE_SIZE = 4096


class InvariantError(RuntimeError):
    """An internal invariant failed: a defect in this library, never bad input."""


# Record's own slot and per-class field getter, whose names no field may take.
_RESERVED = frozenset(("_hash", "_field_tuple"))


class _RecordType(type):
    """Gives each Record subclass __slots__ for the names its body annotates.
    Slots must be in the class namespace before the class exists, which is
    too early for __init_subclass__."""

    def __new__(mcs, name, bases, ns):
        if bases:
            names = tuple(ns.get("__annotations__", ()))
            for n in _RESERVED.intersection(names):
                raise TypeError(f"{name}: field {n!r} is a name Record keeps for itself")
            ns["__slots__"] = names
        return super().__new__(mcs, name, bases, ns)


class Record(metaclass=_RecordType):
    """Base of the package's immutable value classes.

    A subclass's fields are the names its own body annotates, in order, and
    each gets a slot, so instances have no __dict__.  Each subclass gets,
    compiled once, what a frozen dataclass would get: an __init__ taking the
    fields by position or keyword (it then calls self.__post_init__() when
    the class has one), unless its body defines its own, and an == that
    compares the field tuples of two instances of the same class.  The hash
    is that of the field tuple, computed on first use and kept in a slot,
    so a memo key is walked once over its whole life.  Instances refuse
    assignment and deletion; copy and pickle rebuild them from their field
    tuples through the class, so a copy is checked as the original was.
    Matrices are Records too, but keep no hash: most are never hashed.

    >>> class Pair(Record):
    ...     a: int
    ...     b: int
    >>> Pair(1, b=2), Pair(1, 2) == Pair(1, 2), hash(Pair(1, 2)) == hash((1, 2))
    (Pair(a=1, b=2), True, True)
    >>> Pair(1, 2).__reduce__()
    (<class 'butterflies.intlinalg.Pair'>, (1, 2))
    """

    __slots__ = ("_hash",)

    def __init_subclass__(cls):
        super().__init_subclass__()
        names = cls.__slots__
        mine = "".join(f"self.{n}, " for n in names)
        theirs = "".join(f"other.{n}, " for n in names)
        sets = "".join(f"    _setattr(self, {n!r}, {n})\n" for n in names)
        post = "    self.__post_init__()\n" if hasattr(cls, "__post_init__") else ""
        # _hash is set last: __post_init__ may still replace a field
        init = (f"def __init__(self, {', '.join(names)}):\n{sets}{post}"
                "    _set_hash(self, None)\n") if "__init__" not in vars(cls) else ""
        src = (f"{init}def __eq__(self, other):\n"
               "    if other.__class__ is not self.__class__:\n"
               "        return NotImplemented\n"
               f"    return ({mine}) == ({theirs})\n")
        ns: dict = {}
        exec(src, {"_setattr": object.__setattr__, "_set_hash": _set_hash}, ns)
        for name, fn in ns.items():
            fn.__qualname__ = f"{cls.__qualname__}.{name}"
            setattr(cls, name, fn)
        cls.__match_args__ = names
        # attrgetter of one name returns the bare value, not a 1-tuple
        cls._field_tuple = staticmethod(attrgetter(*names) if len(names) > 1
                                        else lambda self: tuple(getattr(self, n) for n in names))

    def __hash__(self):
        h = self._hash
        if h is None:
            h = hash(self._field_tuple(self))
            _set_hash(self, h)
        return h

    def __reduce__(self):
        # restoring slot state would go through the refused __setattr__
        return type(self), self._field_tuple(self)

    def __setattr__(self, *a):
        raise AttributeError(f"{type(self).__name__} is immutable")

    __delattr__ = __setattr__

    def __repr__(self):
        fields = ", ".join(f"{n}={getattr(self, n)!r}" for n in self.__match_args__)
        return f"{type(self).__qualname__}({fields})"


# The kept-hash slot's own setter, which bypasses the immutability guard.
_set_hash = Record._hash.__set__


class IntMatrix(Record):
    """An immutable rows x cols matrix of Python ints, row major: a Record
    whose own __init__ checks the entries and stores each field once, as a
    tuple for the entries.  It does not keep its hash: only cache keys are
    ever hashed, and most matrices are intermediate results.

    >>> m = IntMatrix(2, 2, [1, 2, 3, 4])
    >>> m, (m * m).entries
    (IntMatrix(1 2; 3 4), (7, 10, 15, 22))
    """

    rows: int
    cols: int
    entries: tuple

    def __init__(self, rows, cols, entries):
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

    def __hash__(self):
        # not kept in Record's slot, which would cost a store per matrix built
        return hash((self.rows, self.cols, self.entries))

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
        # n - 1 runs of a 1 and n zeros, then the last 1
        return IntMatrix._of(n, n, ((1,) + (0,) * n) * (n - 1) + (1,) if n else ())

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
        """The product by a matrix or an int.  When the shapes agree and one
        factor is an identity matrix, the product is the other factor itself:
        no entry is computed and no matrix built."""
        if isinstance(other, int):
            return IntMatrix._of(self.rows, self.cols, tuple(map(int(other).__mul__, self.entries)))
        if not isinstance(other, IntMatrix):
            return NotImplemented
        if self.cols == other.rows:
            if _is_identity(other):
                return self
            if _is_identity(self):
                return other
        return IntMatrix._of(self.rows, other.cols, tuple(_product(self, other)))

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

    def __repr__(self):
        if self.rows == 0 or self.cols == 0:
            return f"IntMatrix({self.rows}x{self.cols})"
        return "IntMatrix(" + "; ".join(" ".join(str(e) for e in self.row(i)) for i in range(self.rows)) + ")"

    def transpose(self) -> "IntMatrix":
        c = self.cols
        return IntMatrix._of(c, self.rows,
                             tuple(chain.from_iterable(self.entries[j::c] for j in range(c))))


# The slots' own setters, which bypass Record's immutability guard.
_set_rows, _set_cols, _set_entries = (
    IntMatrix.rows.__set__, IntMatrix.cols.__set__, IntMatrix.entries.__set__)


def _fill(m: IntMatrix, rows: int, cols: int, ent: tuple) -> IntMatrix:
    _set_rows(m, rows)
    _set_cols(m, cols)
    _set_entries(m, ent)
    return m


def _is_identity(m: IntMatrix) -> bool:
    """Is m square with n ones on its diagonal and n*n - n zeros?"""
    n, e = m.rows, m.entries
    return n == m.cols and e[::n + 1].count(1) == n and e.count(0) == n * n - n


def _product(a: IntMatrix, b: IntMatrix) -> list:
    """The entries of a*b, row major, as a list."""
    if a.cols != b.rows:
        raise ValueError(f"shape mismatch {a.rows}x{a.cols} * {b.rows}x{b.cols}")
    m, k, ae, be = a.cols, b.cols, a.entries, b.entries
    bcols = [be[j::k] for j in range(k)]
    return [sum(map(mul, ae[i * m:(i + 1) * m], bj)) for i in range(a.rows) for bj in bcols]


def _from_lists(rows: int, cols: int, lists: list) -> IntMatrix:
    """Rows held as sequences of ints, computed in this module, as a matrix."""
    return IntMatrix._of(rows, cols, tuple(chain.from_iterable(lists)))


def hstack(*mats: IntMatrix) -> IntMatrix:
    """Concatenate matrices left to right (all must share a row count).
    When one operand alone has columns, it is the result itself, not a copy."""
    rows = mats[0].rows
    if any(m.rows != rows for m in mats):
        raise ValueError("hstack: row counts differ")
    wide = [m for m in mats if m.cols]
    if len(wide) == 1:
        return wide[0]
    flat = []
    for i in range(rows):
        for m in wide:
            flat.extend(m.row(i))
    return IntMatrix._of(rows, sum(m.cols for m in wide), tuple(flat))


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
    column echelon factorization of m's transpose: the rows of H are its
    pivot plan written out, and U is its V^T as is.

    >>> h, u = hnf(IntMatrix.from_rows([[2, 4], [6, 8]]))
    >>> h.to_lists()
    [[2, 0], [0, 4]]
    >>> (u * IntMatrix.from_rows([[2, 4], [6, 8]])) == h
    True
    """
    a = m.transpose()
    h = hermite_basis(a).transpose()  # the rows of H after these are zero
    return (IntMatrix._of(m.rows, m.cols, h.entries + (0,) * ((m.rows - h.rows) * m.cols)),
            col_echelon(a)[3])


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
def col_echelon(a: IntMatrix, width: int | None = None) -> tuple:
    """Cached column echelon factorization a*V = H, kept as a pivot plan.

    Returns (pivot rows, pivot values, tails, V^T): column k of H is zero
    above its pivot row p_k, holds the pivot value at p_k, and below it the
    nonzero entries listed in tails[k] as (row, entry) pairs, most often
    none (the empty tuple, which every such column shares); the columns of
    H after the pivots are zero.  No dense H is kept.  The elimination runs
    on the rows [column j of a | row j of I], so each ends as [row j of H^T
    | row j of V^T], and the pivots it finds are the pivot rows.

    With a width, each row starts with the first width entries of row j of
    I instead, and V^T keeps only its first width columns.  They equal the
    full V^T's entry for entry: _hermite picks each pivot and quotient from
    the first a.rows entries of the rows, and updates every later entry on
    its own.  lru_cache keys col_echelon(a) and col_echelon(a, None) apart,
    so callers without a width call col_echelon(a).

    >>> a = IntMatrix.from_rows([[2, 3], [1, 4]])
    >>> col_echelon(a)[:3]
    ((0, 1), (1, 5), (((1, 3),), ()))
    >>> col_echelon(a)[3].to_lists(), col_echelon(a, 1)[3].to_lists()
    ([[-1, 1], [-3, 2]], [[-1], [-3]])
    """
    nr, nc = a.rows, a.cols
    w = nc if width is None else width
    if not 0 <= w <= nc:
        raise ValueError(f"width = {width} of a transform with {nc} rows")
    ent, pad = a.entries, [0] * w
    rows = [[*ent[j::nc], *pad] for j in range(nc)]
    for j in range(w):
        rows[j][nr + j] = 1
    pivot_rows = tuple([p for _, p in _hermite(rows, [[]] * nc, nr)])
    tails = []
    for row, p in zip(rows, pivot_rows):  # row k of H^T is column k of H
        below = row[p + 1:nr]
        tails.append(tuple(compress(zip(range(p + 1, nr), below), below)) if any(below) else ())
    return (pivot_rows, tuple(map(getitem, rows, pivot_rows)), tuple(tails),
            _from_lists(nc, w, (row[nr:] for row in rows)))


def _back_substitute(a: IntMatrix, ent: Sequence[int], rows: int, nb: int, top: int = 0,
                     width: int | None = None) -> tuple:
    """(y, r, x) for the right-hand side b with rows rows, nb columns and
    entries ent, row major: the entries, row major, of Y and R with
    b = H*Y + R for a's cached column echelon form a*V = H, each entry of R
    at pivot row k floored into [0, pivot k), and of the first top rows of
    X = V*Y.  So each column of R is one remainder per coset of a's column
    span (Cohen, GTM 138, section 2.4), zero exactly for the columns of b
    in the span.

    It walks the cached pivot plan: at pivot k, each quotient q takes q
    times the pivot from R's pivot row and q times each listed entry below
    it from that entry's row, so a column with nothing below its pivot
    costs one division.  Y is zero below the pivots, so X sums, for each q,
    q times the first top entries of V's column k, which is row k of the
    cached V^T; with top = 0 the transform is not read.  A width (at least
    top) reads the factorization that carries only the first width rows of
    V.  The one gate for every right-hand side: it raises ValueError unless
    rows is a's row count, and answers a b with no nonzero entry with zero
    Y and X and ent as R, without factoring a."""
    if rows != a.rows:
        raise ValueError(f"dimension mismatch: {rows} rows against a {a.rows}x{a.cols} matrix")
    if not any(ent):
        return (0,) * (a.cols * nb), ent, (0,) * (top * nb)
    pivot_rows, pivots, tails, vt = col_echelon(a) if width is None else col_echelon(a, width)
    ve, w = vt.entries, vt.cols
    r, y, x = list(ent), [0] * (a.cols * nb), [0] * (top * nb)
    for k, (p, h, tail) in enumerate(zip(pivot_rows, pivots, tails)):
        for j in range(nb):
            i = p * nb + j
            q = r[i] // h
            if q:
                r[i] -= q * h
                y[k * nb + j] = q
                for t, e in tail:
                    r[t * nb + j] -= q * e
                if top:
                    for t, vik in zip(range(j, top * nb, nb), ve[k * w:k * w + top]):
                        if vik:
                            x[t] += q * vik
    return y, r, x


def _check_top(a: IntMatrix, top: int | None, width: int | None) -> int:
    """The count of a solution's rows to keep: all rows of V that the
    factorization carries (width, or a.cols without one) when top is None."""
    n = a.cols if width is None else width
    if not 0 <= n <= a.cols:
        raise ValueError(f"width = {width} of a transform with {a.cols} rows")
    if top is None:
        return n
    if not 0 <= top <= n:
        raise ValueError(f"top = {top} rows of a solution with {n}")
    return top


def solve(a: IntMatrix, b: IntMatrix, top: int | None = None,
          width: int | None = None) -> IntMatrix | None:
    """Solve a*X = b over the integers, one column of b at a time on a's
    one cached factorization, and return the first top rows of X (all of
    them by default).  With a width, a is factored carrying only the first
    width rows of V, and top is at most width (width by default).

    Returns X, or None when some column has no integer solution
    ("unsolvable" is a normal answer, not an error).  kernel_basis(a)
    gives the rest of the solutions.

    >>> solve(IntMatrix.from_rows([[2]]), IntMatrix.from_rows([[4, -6]])).entries
    (2, -3)
    >>> solve(IntMatrix.from_rows([[2]]), IntMatrix.column([3])) is None
    True
    >>> solve(IntMatrix.from_rows([[1, 1, 0]]), IntMatrix.column([5]), top=1).entries
    (5,)

    A right-hand side with no nonzero entry (or no columns) has the zero
    answer, returned without factoring a:

    >>> solve(IntMatrix.from_rows([[2, 0]]), IntMatrix.zeros(1, 3)).to_lists()
    [[0, 0, 0], [0, 0, 0]]
    """
    top = _check_top(a, top, width)
    _, r, x = _back_substitute(a, b.entries, b.rows, b.cols, top, width)
    if any(r):
        return None
    return IntMatrix._of(top, b.cols, tuple(x))


def hermite_basis(a: IntMatrix) -> IntMatrix:
    """The Hermite basis, as columns, of a's column span: the first r
    columns of H, for a's cached column echelon form a*V = H, written out
    from its pivot plan.  Its columns are independent and span the same
    lattice as a's.

    >>> hermite_basis(IntMatrix.from_rows([[2, 4, 6], [0, 1, 1]])).to_lists()
    [[2, 0], [0, 1]]
    """
    pivot_rows, pivots, tails, _ = col_echelon(a)
    r = len(pivot_rows)
    h = [0] * (a.rows * r)
    for k, (p, piv, tail) in enumerate(zip(pivot_rows, pivots, tails)):
        h[p * r + k] = piv
        for i, e in tail:
            h[i * r + k] = e
    return IntMatrix._of(a.rows, r, tuple(h))


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
    y, _, _ = _back_substitute(a, a.entries, a.rows, a.cols)
    return h, IntMatrix._of(h.cols, a.cols, tuple(y[:h.cols * a.cols]))


def kernel_basis(a: IntMatrix, top: int | None = None, width: int | None = None) -> IntMatrix:
    """Columns generate {x : a*x = 0}: the columns of V after the pivots,
    for a's cached column echelon form a*V = H, each cut to its first top
    entries (all of them by default).  A width reads the factorization that
    carries only the first width rows of V, as in solve.

    >>> kernel_basis(IntMatrix.from_rows([[1, 1, 0]]), top=2).to_lists()
    [[-1, 0], [1, 0]]
    """
    top = _check_top(a, top, width)
    pivot_rows, _, _, vt = col_echelon(a) if width is None else col_echelon(a, width)
    w = vt.cols
    tail = vt.entries[len(pivot_rows) * w:]  # the rows of V^T after the pivots
    return IntMatrix._of(top, a.cols - len(pivot_rows),
                         tuple(chain.from_iterable(tail[i::w] for i in range(top))))


def in_col_span(a: IntMatrix, b: IntMatrix) -> bool:
    """Is every column of b an integer combination of the columns of a?

    >>> a = IntMatrix.from_rows([[2, 0], [0, 3]])
    >>> in_col_span(a, IntMatrix.from_rows([[4, 0], [3, 6]]))
    True
    >>> in_col_span(a, IntMatrix.column([1, 0]))
    False

    A zero b lies in every span, and is answered without factoring a:

    >>> in_col_span(IntMatrix.from_rows([[2, 1]]), IntMatrix.zeros(1, 2))
    True
    """
    return not any(_back_substitute(a, b.entries, b.rows, b.cols)[1])


def congruent(rel: IntMatrix, a: IntMatrix, b: IntMatrix, c: IntMatrix | None = None) -> bool:
    """Is a*b = c modulo the column span of rel (c = 0 when None)?

    in_col_span(rel, a*b - c), decided on the entries: a*b - c is computed
    as one list, not as matrices, answered True at once when it has no
    nonzero entry, and otherwise reduced on rel's cached factorization.

    >>> rel = IntMatrix.from_rows([[2, 0], [0, 3]])
    >>> a, b = IntMatrix.from_rows([[1, 1], [0, 1]]), IntMatrix.column([1, 2])
    >>> congruent(rel, a, b, IntMatrix.column([1, 5])), congruent(rel, a, b)
    (True, False)
    """
    d = _product(a, b)
    if c is not None:
        if (c.rows, c.cols) != (a.rows, b.cols):
            raise ValueError("shape mismatch in -")
        d = list(map(sub, d, c.entries))
    return not any(_back_substitute(rel, d, a.rows, b.cols)[1])


def reduce_cols(a: IntMatrix, m: IntMatrix) -> IntMatrix:
    """m with each column replaced by its Hermite remainder modulo the
    column span of a: two matrices give the same result exactly when their
    difference lies in the span.  m itself when it is reduced already, as
    a zero m is, without factoring a.

    >>> reduce_cols(IntMatrix.column([4]), IntMatrix.from_rows([[9, -1, 3]])).entries
    (1, 3, 3)
    """
    y, r, _ = _back_substitute(a, m.entries, m.rows, m.cols)
    return IntMatrix._of(m.rows, m.cols, tuple(r)) if any(y) else m


def _congruence_system(rows: int, cols: int, congruences: Sequence[tuple]) -> tuple:
    """(A, c): the congruences L*X*R = C modulo Rel as one system A*z = c.
    z holds the entries of X, row major, then one slack unknown per relation
    coefficient.  Equation (u, v) of a congruence is (L*X*R)[u][v] = C[u][v]
    less Rel[u] times column v's slack block, so its row of A is row u of
    the Kronecker product L (x) R^T, then -Rel[u] in that block: block s of
    its X part is L[u][s] times column v of R.  An L or R of None is the
    identity, written without one: R's column v lands in block u alone, or
    L's row u at the entries s*cols + v."""
    shapes = [(rows if lm is None else lm.rows, cols if rm is None else rm.cols)
              for (lm, rm, _, _) in congruences]
    for (lm, rm, cm, rel), (nl, nr) in zip(congruences, shapes):
        if ((lm is not None and lm.cols != rows) or (rm is not None and rm.rows != cols)
                or rel.rows != nl or (cm.rows, cm.cols) != (nl, nr)):
            raise ValueError("solve_congruences: shape mismatch")
    nx = rows * cols
    width = nx + sum(nr * rel.cols for (_, _, _, rel), (_, nr) in zip(congruences, shapes))
    n = sum(nl * nr for nl, nr in shapes)
    flat, rhs, at, slack = [0] * (n * width), [], 0, nx
    for (lm, rm, cm, rel), (nl, nr) in zip(congruences, shapes):
        for v in range(nr):
            rv, cv = None if rm is None else rm.col(v), cm.col(v)
            for u in range(nl):
                if lm is None:
                    if rm is None:
                        flat[at + u * cols + v] = 1
                    else:
                        flat[at + u * cols:at + (u + 1) * cols] = rv
                elif rm is None:
                    flat[at + v:at + nx:cols] = lm.row(u)
                else:
                    for s, x in enumerate(lm.row(u)):
                        if x:
                            start = at + s * cols
                            flat[start:start + cols] = rv if x == 1 else [x * y for y in rv]
                flat[at + slack:at + slack + rel.cols] = map(neg, rel.row(u))
                rhs.append(cv[u])
                at += width
            slack += rel.cols
    return IntMatrix._of(n, width, tuple(flat)), IntMatrix._of(n, 1, tuple(rhs))


def particular_solution(rows: int, cols: int, congruences: Sequence[tuple]) -> IntMatrix | None:
    """One integer rows x cols matrix X0 with L*X0*R = C modulo the column
    span of Rel, for every (L, R, C, Rel) in congruences (an L or R of None
    is the identity), or None: the X0 of solve_congruences, without its
    homogeneous solutions.

    >>> particular_solution(1, 1, [(IntMatrix.identity(1), IntMatrix.identity(1),
    ...                             IntMatrix.column([3]), IntMatrix.column([4]))]).entries
    (3,)
    """
    system, rhs = _congruence_system(rows, cols, congruences)
    x0 = solve(system, rhs, rows * cols, rows * cols)
    return None if x0 is None else IntMatrix._of(rows, cols, x0.entries)


def solve_congruences(rows: int, cols: int, congruences: Sequence[tuple]) -> tuple | None:
    """Integer rows x cols matrices X with L*X*R = C modulo the column span
    of Rel, for every (L, R, C, Rel) in congruences; an L or R of None is
    the identity.

    Returns (X0, Ks) with X0 one solution and Ks the nonzero matrices among
    a generating set of the solutions of the homogeneous system, so every
    solution is X0 plus an integer combination of Ks; or None.  Everything is
    flattened to one system in the entries of X (row major) plus one slack
    unknown per relation coefficient, factored carrying only the nx =
    rows * cols rows of its transform that X reads.

    >>> x0, ks = solve_congruences(1, 1, [(IntMatrix.identity(1), IntMatrix.identity(1),
    ...                                     IntMatrix.column([3]), IntMatrix.column([4]))])
    >>> x0.entries, [k.entries for k in ks]
    ((3,), [(4,)])
    """
    system, rhs = _congruence_system(rows, cols, congruences)
    nx = rows * cols
    x0 = solve(system, rhs, nx, nx)
    if x0 is None:
        return None
    kern = kernel_basis(system, nx, nx)
    ks = [IntMatrix._of(rows, cols, k) for k in map(kern.col, range(kern.cols)) if any(k)]
    return IntMatrix._of(rows, cols, x0.entries), ks
