"""Independent element-level ground truth for small finite instances.

Groups are realized as products of cyclic groups and everything is computed
by literal enumeration: kernels and images as element sets, homology by
coset counting, 2-morphisms by exhaustive search over generator images.
Nothing here reuses the presentation-level algebra (no kernels, no
subquotients, no morphism solving); only the Smith decomposition is shared,
to translate a presentation into cyclic coordinates.
"""

from __future__ import annotations

import itertools
from math import gcd, prod

from .intlinalg import IntMatrix, Record, snf
from .fgab import FgAbGroup, FgAbMap

DEFAULT_CAP = 4096


class OracleError(ValueError):
    pass


class ElementGroup(Record):
    """A product of cyclic groups; elements are residue tuples."""

    orders: tuple

    def __post_init__(self):
        if any(d < 1 for d in self.orders):
            raise OracleError("cyclic orders must be >= 1")

    def elements(self):
        return itertools.product(*(range(d) for d in self.orders))

    @property
    def size(self) -> int:
        return prod(self.orders)

    def zero(self):
        return (0,) * len(self.orders)

    def add(self, x, y):
        return tuple((a + b) % d for a, b, d in zip(x, y, self.orders))

    def neg(self, x):
        return tuple((-a) % d for a, d in zip(x, self.orders))

    def scale(self, k, x):
        return tuple((k * a) % d for a, d in zip(x, self.orders))

    def order_of(self, x) -> int:
        n = 1
        for a, d in zip(x, self.orders):
            k = d // gcd(a, d) if a else 1
            n = n * k // gcd(n, k)
        return n


class Realization(Record):
    """A presented group in cyclic coordinates, with both translations."""

    group: FgAbGroup
    egroup: ElementGroup
    _u: IntMatrix
    _uinv: IntMatrix
    _kept: tuple  # indices of the cyclic coordinates among the ngens slots

    def to_element(self, vec) -> tuple:
        """Generator-coordinate vector -> element tuple."""
        if isinstance(vec, IntMatrix):
            vec = [vec[i, 0] for i in range(vec.rows)]
        w = self._u * IntMatrix.column(list(vec))
        return tuple(w[i, 0] % d for i, d in zip(self._kept, self.egroup.orders))

    def rep_of(self, el) -> IntMatrix:
        """Element tuple -> one generator-coordinate vector mapping to it."""
        full = [0] * self.group.ngens
        for idx, i in enumerate(self._kept):
            full[i] = el[idx]
        return self._uinv * IntMatrix.column(full)

    def map_image(self, f: FgAbMap, other: "Realization", el) -> tuple:
        """Image of el under f, landing in other's coordinates."""
        return other.to_element(f.matrix * self.rep_of(el))


def realize(g: FgAbGroup, cap: int = DEFAULT_CAP) -> Realization:
    """Cyclic decomposition of a finite presented group, via snf.

    Raises OracleError for infinite groups or order above the cap.
    """
    s, u, uinv = snf(g.relations)
    n = g.ngens
    orders = [s[i, i] if i < min(s.rows, s.cols) else 0 for i in range(n)]
    if any(d == 0 for d in orders):
        raise OracleError("group is infinite; the oracle only handles torsion")
    kept = tuple(i for i in range(n) if orders[i] >= 2)
    total = prod(orders[i] for i in kept)
    if total > cap:
        raise OracleError(f"group order {total} exceeds cap {cap}")
    return Realization(g, ElementGroup(tuple(orders[i] for i in kept)), u, uinv, kept)


def element_map(f: FgAbMap, ra: Realization, rb: Realization):
    """f as a function on element tuples."""
    table = {x: rb.to_element(f.matrix * ra.rep_of(x)) for x in ra.egroup.elements()}
    return table.__getitem__


def kernel_elements(fn, src: ElementGroup, dst_zero) -> frozenset:
    return frozenset(x for x in src.elements() if fn(x) == dst_zero)


def image_elements(fn, src: ElementGroup) -> frozenset:
    return frozenset(fn(x) for x in src.elements())


def span(gens, eg: ElementGroup) -> frozenset:
    """Subgroup generated by the given elements, by closure."""
    seen = {eg.zero()}
    frontier = [eg.zero()]
    while frontier:
        x = frontier.pop()
        for g in gens:
            y = eg.add(x, g)
            if y not in seen:
                seen.add(y)
                frontier.append(y)
    return frozenset(seen)


def is_exact_elementwise(a_fn, b_fn, src: ElementGroup, mid: ElementGroup, out_zero) -> bool:
    return image_elements(a_fn, src) == kernel_elements(b_fn, mid, out_zero)


class ElementQuotient(Record):
    """A quotient (subset of an ElementGroup) / (subgroup)."""

    ambient: ElementGroup
    members: frozenset
    divisor: frozenset


def quotient_structure(q: ElementQuotient) -> tuple:
    """Invariant factors of a finite abelian quotient, greedily: split off a
    maximal-order cyclic summand, enlarge the divisor, repeat."""
    divisor = set(q.divisor)
    amb = q.ambient
    factors = []
    while True:
        reps = {min(amb.add(x, h) for h in divisor) for x in q.members}
        if len(reps) == 1:
            break
        best, best_ord = None, 1
        for x in reps:
            k, y = 1, x
            while min(amb.add(y, h) for h in divisor) != min(divisor):
                y = amb.add(y, x)
                k += 1
            if k > best_ord:
                best, best_ord = x, k
        factors.append(best_ord)
        new_gen_span = span([best], amb)
        divisor = {amb.add(h, s) for h in divisor for s in new_gen_span}
    return tuple(reversed(factors))  # ascending divisor chain


def element_homology(a_fn, b_fn, src: ElementGroup, mid: ElementGroup, out_zero) -> tuple:
    """Invariant factors of ker(b)/im(a), by literal coset enumeration.

    Requires b(a(x)) = 0 elementwise.
    """
    for x in src.elements():
        if b_fn(a_fn(x)) != out_zero:
            raise OracleError("composite is not zero elementwise")
    kerb = kernel_elements(b_fn, mid, out_zero)
    ima = span(list(image_elements(a_fn, src)), mid)
    if not ima <= kerb:
        raise OracleError("image not contained in kernel")
    return quotient_structure(ElementQuotient(mid, kerb, ima))


def group_structure(sub: frozenset, eg: ElementGroup) -> tuple:
    """Invariant factors of a subgroup given by its element set."""
    return quotient_structure(ElementQuotient(eg, sub, frozenset({eg.zero()})))


# -- butterflies, elementwise -------------------------------------------------

class ButterflyRealization(Record):
    em1: Realization
    e0: Realization
    fm1: Realization
    f0: Realization
    car: Realization


def realize_butterfly(b, cap: int = DEFAULT_CAP) -> ButterflyRealization:
    return ButterflyRealization(
        realize(b.src.deg_m1, cap), realize(b.src.deg_0, cap),
        realize(b.dst.deg_m1, cap), realize(b.dst.deg_0, cap),
        realize(b.carrier, cap),
    )


def all_homs(src: ElementGroup, dst: ElementGroup):
    """Every homomorphism src -> dst, as a function of element tuples.

    A hom is a choice, per cyclic factor Z/d of src, of a dst element killed
    by d.
    """
    candidates = []
    for d in src.orders:
        candidates.append([y for y in dst.elements() if dst.scale(d, y) == dst.zero()])
    for imgs in itertools.product(*candidates):
        def fn(x, imgs=imgs):
            acc = dst.zero()
            for xi, yi in zip(x, imgs):
                acc = dst.add(acc, dst.scale(xi, yi))
            return acc
        yield imgs, fn


def enumerate_two_morphisms(a, b, cap: int = DEFAULT_CAP) -> list:
    """All element-level carrier isomorphisms commuting with the four wings."""
    if (a.src, a.dst) != (b.src, b.dst):
        raise OracleError("parallel butterflies required")
    ra, rb = realize_butterfly(a, cap), realize_butterfly(b, cap)
    ya, yb = ra.car.egroup, rb.car.egroup
    if ya.size != yb.size:
        return []
    ia = element_map(a.i, ra.fm1, ra.car)
    ib = element_map(b.i, rb.fm1, rb.car)
    ja = element_map(a.j, ra.em1, ra.car)
    jb = element_map(b.j, rb.em1, rb.car)
    pa = element_map(a.p, ra.car, ra.f0)
    pb = element_map(b.p, rb.car, rb.f0)
    qa = element_map(a.q, ra.car, ra.e0)
    qb = element_map(b.q, rb.car, rb.e0)
    found = []
    for imgs, fn in all_homs(ya, yb):
        if any(fn(ia(x)) != ib(x) for x in ra.fm1.egroup.elements()):
            continue
        if any(fn(ja(x)) != jb(x) for x in ra.em1.egroup.elements()):
            continue
        if any(pb(fn(y)) != pa(y) for y in ya.elements()):
            continue
        if any(qb(fn(y)) != qa(y) for y in ya.elements()):
            continue
        if len({fn(y) for y in ya.elements()}) != yb.size:
            continue
        found.append(imgs)
    return found
