"""Derived tensor product of f.g. abelian groups and Biext groups.

A (+)^L B is computed projectively: pick a free presentation
0 -> Z^m -> Z^n -> A -> 0 and tensor with B, giving the 2-term complex
[B^m -> B^n] whose H^0 is A (x) B and whose H^-1 is Tor_1(A, B).

Biext(A, B; C) is the groupoid of butterflies  A (+)^L B -> C[1]; such a
butterfly is exactly an extension of K^0 by C plus a lift of the
differential through the extension.  pi1 is Hom(A (x) B, C).  pi0 is
computed from a cocycle model: pairs (c, v) with c an Ext-cocycle for the
extension and v the lift data, subject to v*R1 + c*D' = 0, modulo the
simultaneous coboundaries (g*R0, -g*D).  This resolves the two-step
filtration
    0 -> coker(Hom(K^0,C) -> Hom(K^-1,C)) -> pi0
      -> ker(Ext^1(K^0,C) -> Ext^1(K^-1,C)) -> 0
explicitly, and is validated against exhaustive butterfly enumeration.
"""

from __future__ import annotations

import itertools

from .intlinalg import IntMatrix, InvariantError, Record, hstack, vstack, kron, solve
from .fgab import (
    FgAbGroup, FgAbMap, kernel, cokernel, hom_group, power_group,
    free_presentation, dual_presentation, precompose, precompose_matrix, ext1_realize,
    hom_solve_all,
)
from .twocomplex import TwoTermComplex, homology, shift1
from .butterfly import Butterfly, two_morphism_find, validate


class DerivedTensor(Record):
    a: FgAbGroup
    b: FgAbGroup
    complex: TwoTermComplex   # [B^m -> B^n], degrees [-1, 0]
    tensor: FgAbGroup         # the direct presentation of A (x) B
    h0_iso: FgAbMap           # tensor -> H^0(complex); an isomorphism

    @property
    def tor1(self) -> FgAbGroup:
        return homology(self.complex).hm1


def tensor_product(a: FgAbGroup, b: FgAbGroup) -> FgAbGroup:
    """Z^(na*nb) modulo relations of both factors, copy-major in a's gens."""
    rel = hstack(kron(a.relations, IntMatrix.identity(b.ngens)),
                 kron(IntMatrix.identity(a.ngens), b.relations))
    return FgAbGroup(a.ngens * b.ngens, rel)


def derived_tensor(a: FgAbGroup, b: FgAbGroup) -> DerivedTensor:
    r = free_presentation(a)
    n, m = a.ngens, r.cols
    km1 = power_group(b, m)
    k0 = power_group(b, n)
    d = FgAbMap(km1, k0, kron(r, IntMatrix.identity(b.ngens)))
    cx = TwoTermComplex(d)
    t = tensor_product(a, b)
    h = homology(cx)
    iso = FgAbMap(t, h.h0, h.proj.matrix)
    return DerivedTensor(a, b, cx, t, iso)


class BiextGroups(Record):
    pi1: FgAbGroup
    pi0: FgAbGroup
    filtration_sub: FgAbGroup   # coker(Hom(K^0,C) -> Hom(K^-1,C))
    filtration_quot: FgAbGroup  # ker(Ext^1(K^0,C) -> Ext^1(K^-1,C))


def biext_groups(a: FgAbGroup, b: FgAbGroup, c: FgAbGroup) -> BiextGroups:
    k = derived_tensor(a, b).complex
    pi1 = hom_group(homology(k).h0, c)

    k0, k1 = k.deg_0, k.deg_m1
    r0, pre0 = dual_presentation(k0, c)
    r1, pre1 = dual_presentation(k1, c)
    dmat = k.d.matrix
    dprime = solve(r0, dmat * r1)  # D*R1 = R0*D' exactly
    if dprime is None:
        raise InvariantError("the differential must lift through the free presentations")

    # (c, v) blocks, copy-major, subject to v*R1 + c*D' = 0
    pk = kernel(precompose(vstack(dprime, r1), c))
    u = pk.factor(power_group(c, k0.ngens),  # coboundaries (g*R0, -g*D)
                  precompose_matrix(hstack(r0, -dmat), c))
    pi0 = cokernel(u).group

    # filtration pieces, for cross-checks
    hom0, hom1 = kernel(pre0), kernel(pre1)
    hom_d = hom1.factor(hom0.group, precompose_matrix(dmat, c) * hom0.incl.matrix)
    filtration_sub = cokernel(hom_d).group
    ext0, ext1 = cokernel(pre0), cokernel(pre1)
    ext_d = ext0.induce(ext1.group, ext1.proj.matrix * precompose_matrix(dprime, c))
    filtration_quot = kernel(ext_d).group

    return BiextGroups(pi1, pi0, filtration_sub, filtration_quot)


def biext_enumerate(a: FgAbGroup, b: FgAbGroup, c: FgAbGroup) -> list:
    """Pairwise non-2-isomorphic butterflies  A (+)^L B -> C[1], by bounded
    exhaustive construction: realize the first 64 Ext classes of the diagonal
    extension, search all lifts of the differential with coefficients in
    {-1, 0, 1}, and dedupe with the 2-morphism solver.  Ground truth for
    biext_groups on small inputs."""
    from .oracle import realize  # enumerate Ext classes through their realization
    k = derived_tensor(a, b).complex
    c1 = shift1(c)
    ext = ext1_realize(k.deg_0, c)
    re = realize(ext.group, 512)
    classes = [list(el) for el in re.egroup.elements()]
    reps = []
    for el in classes[:64]:
        vec = re.rep_of(el)
        ycar, i, q = ext.realize([vec[t, 0] for t in range(vec.rows)])
        lifted = hom_solve_all(k.deg_m1, ycar, post=[(q, k.d.matrix)])
        if lifted is None:
            continue
        base, kmats = lifted
        for coeffs in itertools.product(range(-1, 2), repeat=len(kmats)):
            jm = base
            for cf, km in zip(coeffs, kmats):
                jm = jm + cf * km
            j = FgAbMap(k.deg_m1, ycar, jm)
            bf = Butterfly(k, c1, i, j, FgAbMap.zero(ycar, c1.deg_0), q)
            bad = validate(bf)
            if bad:
                raise InvariantError(f"enumerated butterfly fails its axioms: {bad[0]}")
            if not any(two_morphism_find(bf, other) is not None for other in reps):
                reps.append(bf)
    return reps
