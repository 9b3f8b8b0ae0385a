"""2-term complexes concentrated in degrees [-1, 0], chain maps, and homology.

These are the objects of the 2-category; plain groups embed as degree-0
complexes via embed0, and shift1 puts a group in degree -1.
"""

from __future__ import annotations

import random
from functools import lru_cache

from .intlinalg import CACHE_SIZE, IntMatrix, Record, block, congruent
from .fgab import (
    FgAbGroup, FgAbMap, Kernel, Cokernel, direct_sum,
    kernel, cokernel, random_group, random_map,
)


class TwoTermComplex(Record):
    """deg_m1 --d--> deg_0: the complex is its differential."""

    d: FgAbMap

    @property
    def deg_m1(self) -> FgAbGroup:
        return self.d.src

    @property
    def deg_0(self) -> FgAbGroup:
        return self.d.dst


class ChainMap(Record):
    """Components f_m1, f_0 with f_0*d = d'*f_m1: one congruence modulo the
    relations of dst's degree 0, decided on its entries, with the product
    d'*f_m1 as the right-hand side."""

    src: TwoTermComplex
    dst: TwoTermComplex
    f_m1: FgAbMap
    f_0: FgAbMap

    def __post_init__(self):
        if self.f_m1.src != self.src.deg_m1 or self.f_m1.dst != self.dst.deg_m1:
            raise ValueError("degree -1 component endpoints mismatch")
        if self.f_0.src != self.src.deg_0 or self.f_0.dst != self.dst.deg_0:
            raise ValueError("degree 0 component endpoints mismatch")
        if not congruent(self.dst.deg_0.relations, self.f_0.matrix, self.src.d.matrix,
                         self.dst.d.matrix * self.f_m1.matrix):
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
        if not isinstance(other, ChainMap):
            return NotImplemented
        if (self.src, self.dst) != (other.src, other.dst):
            raise ValueError("chain map sum endpoint mismatch")
        return ChainMap(self.src, self.dst, self.f_m1 + other.f_m1, self.f_0 + other.f_0)


def shift1(a: FgAbGroup) -> TwoTermComplex:
    """[a -> 0], the complex a[1]."""
    return TwoTermComplex(FgAbMap.zero(a, FgAbGroup.trivial()))


def embed0(a: FgAbGroup) -> TwoTermComplex:
    """[0 -> a], the degree-0 embedding of the underlying category."""
    return TwoTermComplex(FgAbMap.zero(FgAbGroup.trivial(), a))


def zero_complex() -> TwoTermComplex:
    return embed0(FgAbGroup.trivial())


class Homology(Record):
    """H^-1 = ker(d) with its inclusion, H^0 = coker(d) with its projection."""

    ker: Kernel
    cok: Cokernel

    @property
    def hm1(self) -> FgAbGroup:
        return self.ker.group

    @property
    def incl(self) -> FgAbMap:  # hm1 -> deg_m1
        return self.ker.incl

    @property
    def h0(self) -> FgAbGroup:
        return self.cok.group

    @property
    def proj(self) -> FgAbMap:  # deg_0 -> h0
        return self.cok.proj


@lru_cache(maxsize=CACHE_SIZE)
def homology(e: TwoTermComplex) -> Homology:
    return Homology(kernel(e.d), cokernel(e.d))


def complex_direct_sum(a: TwoTermComplex, b: TwoTermComplex) -> TwoTermComplex:
    sm1 = direct_sum(a.deg_m1, b.deg_m1)
    s0 = direct_sum(a.deg_0, b.deg_0)
    dm = block([
        [a.d.matrix, IntMatrix.zeros(a.deg_0.ngens, b.deg_m1.ngens)],
        [IntMatrix.zeros(b.deg_0.ngens, a.deg_m1.ngens), b.d.matrix],
    ])
    return TwoTermComplex(FgAbMap(sm1, s0, dm))


def random_complex(rng: random.Random, max_rank: int = 1, max_order: int = 12) -> TwoTermComplex:
    a = random_group(rng, max_rank=max_rank, max_order=max_order)
    b = random_group(rng, max_rank=max_rank, max_order=max_order)
    return TwoTermComplex(random_map(rng, a, b))
