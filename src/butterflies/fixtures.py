"""Canonical small instances used across tests, the CLI golden set and selftest.

K2  = [Z/2 --0--> Z/2]
B   = the butterfly K2 -> K2 with carrier Z/4, i = j = (times 2),
      p = q = (reduction mod 2): the nonsplit Ext class realized end to end
E2  = [Z --x2--> Z]
F2  = [0 -> Z/2]
r   = the chain map E2 -> F2 with r^0 = reduction mod 2
Br  = from_chain_map(r)
IK2 = identity butterfly of K2
"""

from .intlinalg import IntMatrix
from .fgab import FgAbGroup, FgAbMap
from .twocomplex import TwoTermComplex, ChainMap, embed0
from .butterfly import Butterfly, identity_butterfly, from_chain_map

Z = FgAbGroup.free(1)
Z2 = FgAbGroup.cyclic(2)
Z4 = FgAbGroup.cyclic(4)


def k2() -> TwoTermComplex:
    return TwoTermComplex(FgAbMap.zero(Z2, Z2))


def e2() -> TwoTermComplex:
    return TwoTermComplex(FgAbMap(Z, Z, IntMatrix.from_rows([[2]])))


def f2() -> TwoTermComplex:
    return embed0(Z2)


def bockstein() -> Butterfly:
    """B: carrier Z/4 between two copies of K2."""
    cx = k2()
    times2 = FgAbMap(Z2, Z4, IntMatrix.from_rows([[2]]))
    red = FgAbMap(Z4, Z2, IntMatrix.from_rows([[1]]))
    return Butterfly(cx, cx, times2, times2, red, red)


def ik2() -> Butterfly:
    return identity_butterfly(k2())


def r_chain_map() -> ChainMap:
    return ChainMap(e2(), f2(),
                    FgAbMap.zero(Z, FgAbGroup.trivial()),
                    FgAbMap(Z, Z2, IntMatrix.from_rows([[1]])))


def br() -> Butterfly:
    return from_chain_map(r_chain_map())
