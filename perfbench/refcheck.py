"""Reference integer arithmetic for checking answers, standard library only.

The checkers use these instead of the library's own normal forms, so a
wrong answer from the library is not hidden by the same wrong code path,
and checking an answer never touches the library's caches.
"""

from __future__ import annotations


class Lattice:
    """The Z-span of integer vectors of one length, as an echelon basis."""

    def __init__(self, dim: int, gens=()):
        self.dim = dim
        self.basis = {}  # pivot column -> vector with a positive pivot there
        for g in gens:
            self.add(g)

    def add(self, vec) -> None:
        v = list(vec)
        if len(v) != self.dim:
            raise ValueError("vector length does not match the lattice")
        for c in range(self.dim):
            if not v[c]:
                continue
            b = self.basis.get(c)
            if b is None:
                self.basis[c] = v if v[c] > 0 else [-x for x in v]
                return
            while v[c]:  # Euclid on column c; b keeps the gcd
                q = b[c] // v[c]
                b, v = v, [x - q * y for x, y in zip(b, v)]
            self.basis[c] = b if b[c] > 0 else [-x for x in b]

    def contains(self, vec) -> bool:
        v = list(vec)
        for c in range(self.dim):
            if not v[c]:
                continue
            b = self.basis.get(c)
            if b is None or v[c] % b[c]:
                return False
            q = v[c] // b[c]
            v = [x - q * y for x, y in zip(v, b)]
        return True

    @property
    def rank(self) -> int:
        return len(self.basis)

    def index(self):
        """[Z^dim : lattice], or None when the lattice has lower rank."""
        if self.rank < self.dim:
            return None
        out = 1
        for c, b in self.basis.items():
            out *= b[c]
        return out


class Mat:
    """A plain integer matrix: shape plus a list of rows (shape survives 0 x n)."""

    def __init__(self, rows: int, cols: int, data: list):
        self.rows, self.cols, self.data = rows, cols, data

    @classmethod
    def of(cls, m) -> "Mat":
        """Copy any object with rows, cols and row-major entries (an IntMatrix)."""
        e = list(m.entries)
        return cls(m.rows, m.cols, [e[i * m.cols:(i + 1) * m.cols] for i in range(m.rows)])

    @classmethod
    def identity(cls, n: int) -> "Mat":
        return cls(n, n, [[int(i == j) for j in range(n)] for i in range(n)])

    def columns(self) -> list:
        return [[r[j] for r in self.data] for j in range(self.cols)]

    def __mul__(self, other: "Mat") -> "Mat":
        if self.cols != other.rows:
            raise ValueError("shape mismatch")
        return Mat(self.rows, other.cols,
                   [[sum(r[k] * other.data[k][j] for k in range(self.cols))
                     for j in range(other.cols)] for r in self.data])

    def __sub__(self, other: "Mat") -> "Mat":
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise ValueError("shape mismatch")
        return Mat(self.rows, self.cols,
                   [[x - y for x, y in zip(a, b)] for a, b in zip(self.data, other.data)])


def det(rows: list) -> int:
    """Determinant of a square integer matrix by Bareiss elimination."""
    a = [list(r) for r in rows]
    n = len(a)
    sign, prev = 1, 1
    for k in range(n - 1):
        if not a[k][k]:
            swap = next((i for i in range(k + 1, n) if a[i][k]), None)
            if swap is None:
                return 0
            a[k], a[swap] = a[swap], a[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
        prev = a[k][k]
    return sign * a[n - 1][n - 1] if n else 1


def group_shape(ngens: int, relations: Mat):
    """(free rank, order or None when infinite) of Z^ngens / span(relation columns)."""
    lat = Lattice(ngens, relations.columns())
    return ngens - lat.rank, lat.index()


def congruent(a: Mat, b: Mat, lattice: Lattice) -> bool:
    """Do a and b agree column by column modulo the lattice?"""
    return all(lattice.contains(c) for c in (a - b).columns())
