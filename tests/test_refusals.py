"""Every endpoint and shape check refuses with its own message.

Each row is (call, exception type, message): the call is built so that the
named check is the first one it fails, and the message must match whole.
"""

import re

import pytest

from butterflies.intlinalg import IntMatrix, hstack, vstack
from butterflies.fgab import FgAbGroup, FgAbMap, subquotient, is_exact_at
from butterflies.twocomplex import ChainMap
from butterflies.butterfly import (
    Butterfly, TwoMorphism, identity_butterfly, to_chain_map, two_morphism_find,
    baer_sum, homology_action, splitting_compose, pullback_compose, pushout_compose,
)
from butterflies.exactness import ButterflyShortSeq, zero_witness_find
from butterflies.oracle import OracleError, ElementGroup, enumerate_two_morphisms
from butterflies.fixtures import k2, e2, bockstein, ik2, br, r_chain_map, Z2, Z4


def with_wing(b: Butterfly, wing: str, w: FgAbMap) -> Butterfly:
    """b with the wing named wing replaced by w, built without validate."""
    return Butterfly(b.src, b.dst, **{"i": b.i, "j": b.j, "p": b.p, "q": b.q, wing: w})


def between(src, dst, b: Butterfly) -> Butterfly:
    """b's wings between other complexes, built without validate."""
    return Butterfly(src, dst, b.i, b.j, b.p, b.q)


def zero_q(b: Butterfly) -> Butterfly:
    return with_wing(b, "q", FgAbMap.zero(b.carrier, b.src.deg_0))


def ie2_section(col) -> FgAbMap:
    """A map Z -> Z + Z, the degree 0 of E2 into identity_butterfly(E2)'s carrier."""
    return FgAbMap(e2().deg_0, identity_butterfly(e2()).carrier, IntMatrix.column(col))


def ie2_map(rows) -> FgAbMap:
    """A map of the carrier Z + Z of identity_butterfly(E2) to itself."""
    car = identity_butterfly(e2()).carrier
    return FgAbMap(car, car, IntMatrix.from_rows(rows))


# identity_butterfly(E2): i = (0;1), j = (2;1), p = (1,-2), q = (1,0), and
# phi = [[-1, 2], [0, 1]] satisfies phi*i = j and q*phi = -p
REFUSALS = {
    # Butterfly's wings, checked in the order i, j, p, q
    "wing i": (lambda: between(k2(), e2(), bockstein()),
               ValueError, "wing i endpoints mismatch"),
    "wing j": (lambda: between(e2(), k2(), bockstein()),
               ValueError, "wing j endpoints mismatch"),
    "wing p": (lambda: with_wing(bockstein(), "p", FgAbMap.identity(Z4)),
               ValueError, "wing p endpoints mismatch"),
    "wing q": (lambda: with_wing(bockstein(), "q", FgAbMap.identity(Z4)),
               ValueError, "wing q endpoints mismatch"),
    # parallel butterflies
    "TwoMorphism": (lambda: TwoMorphism(bockstein(), br(), FgAbMap.identity(Z4),
                                        FgAbMap.identity(Z4)),
                    ValueError, "parallel butterflies required"),
    "two_morphism_find": (lambda: two_morphism_find(bockstein(), br()),
                          ValueError, "two-morphisms need parallel butterflies"),
    "baer_sum": (lambda: baer_sum(bockstein(), br()),
                 ValueError, "Baer sum needs parallel butterflies"),
    # chain maps out of butterflies, and compositions with chain maps
    "to_chain_map": (lambda: to_chain_map(bockstein(), FgAbMap.identity(Z4)),
                     ValueError, "section endpoints mismatch"),
    # q*s = -1, not 1: the congruence's right-hand side is the identity
    "to_chain_map section": (lambda: to_chain_map(identity_butterfly(e2()), ie2_section([-1, 0])),
                             ValueError, "s is not a section of q"),
    "splitting_compose endpoints": (lambda: splitting_compose(bockstein(), br(), FgAbMap.identity(Z4)),
                                    ValueError, "splitting endpoints mismatch"),
    "splitting_compose phi": (lambda: splitting_compose(bockstein(), bockstein(), FgAbMap.identity(Z2)),
                              ValueError, "phi endpoints mismatch"),
    # phi*i = (2;0), not j = (2;1), while q*phi = -p holds
    "splitting_compose phi*i": (lambda: splitting_compose(identity_butterfly(e2()), identity_butterfly(e2()),
                                                          ie2_map([[-1, 2], [0, 0]])),
                                ValueError, "phi*i = j condition fails"),
    # q*phi = (0, 2), not -p = (-1, 2), while phi*i = j holds: the right-hand
    # side is the negated wing
    "splitting_compose q*phi": (lambda: splitting_compose(identity_butterfly(e2()), identity_butterfly(e2()),
                                                          ie2_map([[0, 2], [0, 1]])),
                                ValueError, "q*phi = -p condition fails"),
    "splitting_compose q onto": (lambda: splitting_compose(identity_butterfly(e2()),
                                                           zero_q(identity_butterfly(e2())),
                                                           ie2_map([[-1, 2], [0, 1]])),
                                 ValueError, "q is not surjective; butterfly invalid"),
    "pullback_compose": (lambda: pullback_compose(bockstein(), r_chain_map()),
                         ValueError, "pullback endpoints mismatch"),
    "pushout_compose": (lambda: pushout_compose(r_chain_map(), bockstein()),
                        ValueError, "pushout endpoints mismatch"),
    # homology_action reads a butterfly that nothing validated
    "homology_action H^-1": (lambda: homology_action(with_wing(ik2(), "i", FgAbMap.zero(Z2, ik2().carrier))),
                             ValueError, "map does not land in the subgroup"),
    "homology_action H^0": (lambda: homology_action(zero_q(ik2())),
                            ValueError, "q is not surjective; butterfly invalid"),
    # chain maps
    "ChainMap degree -1": (lambda: ChainMap(k2(), k2(), FgAbMap.identity(Z4), FgAbMap.identity(Z2)),
                           ValueError, "degree -1 component endpoints mismatch"),
    "ChainMap degree 0": (lambda: ChainMap(k2(), k2(), FgAbMap.identity(Z2), FgAbMap.identity(Z4)),
                          ValueError, "degree 0 component endpoints mismatch"),
    "ChainMap +": (lambda: ChainMap.identity(k2()) + ChainMap.identity(e2()),
                   ValueError, "chain map sum endpoint mismatch"),
    "ChainMap + int": (lambda: ChainMap.identity(k2()) + 1,
                       TypeError, "unsupported operand type(s) for +: 'ChainMap' and 'int'"),
    # groups and maps
    "FgAbGroup relations": (lambda: FgAbGroup(2, IntMatrix.identity(1)),
                            ValueError, "relations must have ngens rows"),
    "FgAbMap *": (lambda: FgAbMap.identity(Z2) * FgAbMap.identity(Z4),
                  ValueError, "composition endpoint mismatch"),
    "FgAbMap +": (lambda: FgAbMap.identity(Z2) + FgAbMap.identity(Z4),
                  ValueError, "sum endpoint mismatch"),
    "FgAbMap + int": (lambda: FgAbMap.identity(Z2) + 1,
                      TypeError, "unsupported operand type(s) for +: 'FgAbMap' and 'int'"),
    "subquotient": (lambda: subquotient(Z2, IntMatrix.identity(2), FgAbMap.identity(Z2)),
                    ValueError, "subquotient endpoints mismatch"),
    "is_exact_at": (lambda: is_exact_at(FgAbMap.identity(Z2), FgAbMap.identity(Z4)),
                    ValueError, "exactness endpoints mismatch"),
    # short sequences of butterflies
    "ButterflyShortSeq composable": (lambda: ButterflyShortSeq(bockstein(), br(), FgAbMap.identity(Z4)),
                                     ValueError, "witness butterflies are not composable"),
    "ButterflyShortSeq phi": (lambda: ButterflyShortSeq(bockstein(), bockstein(), FgAbMap.identity(Z2)),
                              ValueError, "phi endpoints mismatch"),
    "zero_witness_find": (lambda: zero_witness_find(br(), bockstein()),
                          ValueError, "butterflies are not composable"),
    # matrices
    "ragged rows": (lambda: IntMatrix.from_rows([[1, 2], [3]]), ValueError, "ragged rows"),
    "index": (lambda: IntMatrix.identity(2)[2, 0], IndexError, "(2, 0)"),
    "IntMatrix *": (lambda: IntMatrix.identity(2) * IntMatrix.identity(3),
                    ValueError, "shape mismatch 2x2 * 3x3"),
    "IntMatrix +": (lambda: IntMatrix.identity(2) + IntMatrix.identity(3),
                    ValueError, "shape mismatch in +"),
    "IntMatrix -": (lambda: IntMatrix.identity(2) - IntMatrix.identity(3),
                    ValueError, "shape mismatch in -"),
    "hstack": (lambda: hstack(IntMatrix.identity(2), IntMatrix.identity(3)),
               ValueError, "hstack: row counts differ"),
    "vstack": (lambda: vstack(IntMatrix.identity(2), IntMatrix.identity(3)),
               ValueError, "vstack: column counts differ"),
    # the element-level oracle
    "ElementGroup": (lambda: ElementGroup((0,)), OracleError, "cyclic orders must be >= 1"),
    "enumerate_two_morphisms": (lambda: enumerate_two_morphisms(ik2(), br()),
                                OracleError, "parallel butterflies required"),
}


@pytest.mark.parametrize("call, exc, message", REFUSALS.values(), ids=REFUSALS.keys())
def test_refusal(call, exc, message):
    with pytest.raises(exc, match=f"^{re.escape(message)}$"):
        call()
