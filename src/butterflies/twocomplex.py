"""2-term complexes concentrated in degrees [-1, 0], chain maps, and homology.

These are the objects of the 2-category; plain groups embed as degree-0
complexes via embed0, and shift1 puts a group in degree -1.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from functools import lru_cache

from .intlinalg import IntMatrix
from .fgab import (
    FgAbGroup, FgAbMap, Kernel, Cokernel,
    kernel, cokernel, map_equal, random_group, random_map,
)


@dataclass(frozen=True)
class TwoTermComplex:
    """deg_m1 --d--> deg_0."""

    deg_m1: FgAbGroup
    deg_0: FgAbGroup
    d: FgAbMap

    def __post_init__(self):
        if self.d.src != self.deg_m1 or self.d.dst != self.deg_0:
            raise ValueError("differential endpoints do not match the slots")


@dataclass(frozen=True)
class ChainMap:
    src: TwoTermComplex
    dst: TwoTermComplex
    f_m1: FgAbMap
    f_0: FgAbMap

    def __post_init__(self):
        if self.f_m1.src != self.src.deg_m1 or self.f_m1.dst != self.dst.deg_m1:
            raise ValueError("degree -1 component endpoints mismatch")
        if self.f_0.src != self.src.deg_0 or self.f_0.dst != self.dst.deg_0:
            raise ValueError("degree 0 component endpoints mismatch")
        if not map_equal(self.f_0 * self.src.d, self.dst.d * self.f_m1):
            raise ValueError("components do not commute with the differentials")

    @staticmethod
    def identity(e: TwoTermComplex) -> "ChainMap":
        return ChainMap(e, e, FgAbMap.identity(e.deg_m1), FgAbMap.identity(e.deg_0))

    @staticmethod
    def zero(src: TwoTermComplex, dst: TwoTermComplex) -> "ChainMap":
        return ChainMap(src, dst, FgAbMap.zero(src.deg_m1, dst.deg_m1),
                        FgAbMap.zero(src.deg_0, dst.deg_0))

    def __mul__(self, other: "ChainMap") -> "ChainMap":
        """Degreewise composition: (g * f)(x) = g(f(x))."""
        if not isinstance(other, ChainMap):
            return NotImplemented
        if other.dst != self.src:
            raise ValueError("chain map composition endpoint mismatch")
        return ChainMap(other.src, self.dst, self.f_m1 * other.f_m1, self.f_0 * other.f_0)

    def __add__(self, other: "ChainMap") -> "ChainMap":
        if (self.src, self.dst) != (other.src, other.dst):
            raise ValueError("chain map sum endpoint mismatch")
        return ChainMap(self.src, self.dst, self.f_m1 + other.f_m1, self.f_0 + other.f_0)


def shift1(a: FgAbGroup) -> TwoTermComplex:
    """[a -> 0], the complex a[1]."""
    zero = FgAbGroup.trivial()
    return TwoTermComplex(a, zero, FgAbMap.zero(a, zero))


def embed0(a: FgAbGroup) -> TwoTermComplex:
    """[0 -> a], the degree-0 embedding of the underlying category."""
    zero = FgAbGroup.trivial()
    return TwoTermComplex(zero, a, FgAbMap.zero(zero, a))


def zero_complex() -> TwoTermComplex:
    return embed0(FgAbGroup.trivial())


@dataclass(frozen=True)
class Homology:
    """H^-1 = ker(d) with its inclusion, H^0 = coker(d) with its projection."""

    hm1: FgAbGroup
    incl: FgAbMap   # hm1 -> deg_m1
    h0: FgAbGroup
    proj: FgAbMap   # deg_0 -> h0
    ker: Kernel
    cok: Cokernel

    def corestrict_to_hm1(self, x: FgAbMap) -> FgAbMap:
        """Factor x: X -> deg_m1 (with d*x = 0) through the inclusion."""
        return self.ker.factor(x)

    def descend_from_h0(self, y: FgAbMap) -> FgAbMap:
        """Descend y: deg_0 -> X (with y*d = 0) to H^0 -> X."""
        return self.cok.induce(y)


@lru_cache(maxsize=None)
def homology(e: TwoTermComplex) -> Homology:
    ker = kernel(e.d)
    cok = cokernel(e.d)
    return Homology(ker.group, ker.incl, cok.group, cok.proj, ker, cok)


def induced_hm1(f: ChainMap) -> FgAbMap:
    """H^-1(src) -> H^-1(dst) induced by a chain map."""
    hs, hd = homology(f.src), homology(f.dst)
    return hd.corestrict_to_hm1(f.f_m1 * hs.incl)


def induced_h0(f: ChainMap) -> FgAbMap:
    """H^0(src) -> H^0(dst) induced by a chain map."""
    hs, hd = homology(f.src), homology(f.dst)
    return hs.descend_from_h0(hd.proj * f.f_0)


def complex_direct_sum(a: TwoTermComplex, b: TwoTermComplex) -> TwoTermComplex:
    from .fgab import direct_sum
    from .intlinalg import block
    sm1, _, _, _, _ = direct_sum(a.deg_m1, b.deg_m1)
    s0, _, _, _, _ = direct_sum(a.deg_0, b.deg_0)
    dm = block([
        [a.d.matrix, IntMatrix.zeros(a.deg_0.ngens, b.deg_m1.ngens)],
        [IntMatrix.zeros(b.deg_0.ngens, a.deg_m1.ngens), b.d.matrix],
    ])
    return TwoTermComplex(sm1, s0, FgAbMap(sm1, s0, dm))


def random_complex(rng: random.Random, max_rank: int = 1, max_order: int = 12) -> TwoTermComplex:
    a = random_group(rng, max_rank=max_rank, max_order=max_order)
    b = random_group(rng, max_rank=max_rank, max_order=max_order)
    return TwoTermComplex(a, b, random_map(rng, a, b))
