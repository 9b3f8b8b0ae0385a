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
from math import prod

from .intlinalg import IntMatrix, Record, snf
from .fgab import FgAbGroup, FgAbMap

CAP = 4096  # the largest group order the oracle enumerates


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

    def scale(self, k, x):
        return tuple((k * a) % d for a, d in zip(x, self.orders))


class Realization(Record):
    """A presented group in cyclic coordinates, with both translations."""

    group: FgAbGroup
    egroup: ElementGroup
    _u: IntMatrix
    _uinv: IntMatrix
    _kept: tuple  # indices of the cyclic coordinates among the ngens slots

    def to_element(self, vec: IntMatrix) -> tuple:
        """Generator-coordinate column -> element tuple."""
        w = self._u * vec
        return tuple(w[i, 0] % d for i, d in zip(self._kept, self.egroup.orders))

    def rep_of(self, el) -> IntMatrix:
        """Element tuple -> one generator-coordinate vector mapping to it."""
        full = [0] * self.group.ngens
        for idx, i in enumerate(self._kept):
            full[i] = el[idx]
        return self._uinv * IntMatrix.column(full)


def realize(g: FgAbGroup) -> Realization:
    """Cyclic decomposition of a finite presented group, via snf.

    Raises OracleError for infinite groups or order above CAP.
    """
    s, u, uinv = snf(g.relations)
    n = g.ngens
    orders = [s[i, i] if i < min(s.rows, s.cols) else 0 for i in range(n)]
    if any(d == 0 for d in orders):
        raise OracleError("group is infinite; the oracle only handles torsion")
    kept = tuple(i for i in range(n) if orders[i] >= 2)
    total = prod(orders[i] for i in kept)
    if total > CAP:
        raise OracleError(f"group order {total} exceeds cap {CAP}")
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


def quotient_structure(amb: ElementGroup, members, divisor) -> tuple:
    """Invariant factors of the quotient members / divisor of subsets of amb
    (divisor a subgroup), greedily: split off a maximal-order cyclic summand,
    enlarge the divisor, repeat."""
    divisor = set(divisor)
    factors = []
    while True:
        reps = {min(amb.add(x, h) for h in divisor) for x in members}
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
    return quotient_structure(mid, kerb, ima)


def group_structure(sub: frozenset, eg: ElementGroup) -> tuple:
    """Invariant factors of a subgroup given by its element set."""
    return quotient_structure(eg, sub, {eg.zero()})


# -- butterflies, elementwise -------------------------------------------------

class ButterflyRealization(Record):
    """A butterfly's five groups in cyclic coordinates; its wings on element tuples."""

    em1: Realization
    e0: Realization
    fm1: Realization
    f0: Realization
    car: Realization
    i: object  # fm1 -> car
    j: object  # em1 -> car
    p: object  # car -> f0
    q: object  # car -> e0


def realize_butterfly(b) -> ButterflyRealization:
    em1, e0 = realize(b.src.deg_m1), realize(b.src.deg_0)
    fm1, f0 = realize(b.dst.deg_m1), realize(b.dst.deg_0)
    car = realize(b.carrier)
    return ButterflyRealization(em1, e0, fm1, f0, car,
                                element_map(b.i, fm1, car), element_map(b.j, em1, car),
                                element_map(b.p, car, f0), element_map(b.q, car, e0))


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


def enumerate_two_morphisms(a, b) -> list:
    """All element-level carrier isomorphisms commuting with the four wings."""
    if (a.src, a.dst) != (b.src, b.dst):
        raise OracleError("parallel butterflies required")
    ra, rb = realize_butterfly(a), realize_butterfly(b)
    ya, yb = ra.car.egroup, rb.car.egroup
    if ya.size != yb.size:
        return []
    found = []
    for imgs, fn in all_homs(ya, yb):
        if any(fn(ra.i(x)) != rb.i(x) for x in ra.fm1.egroup.elements()):
            continue
        if any(fn(ra.j(x)) != rb.j(x) for x in ra.em1.egroup.elements()):
            continue
        if any(rb.p(fn(y)) != ra.p(y) for y in ya.elements()):
            continue
        if any(rb.q(fn(y)) != ra.q(y) for y in ya.elements()):
            continue
        if len({fn(y) for y in ya.elements()}) != yb.size:
            continue
        found.append(imgs)
    return found
