"""The acceptance suites, runnable from pytest and from the CLI.

Each criterion is a function returning (ok, detail); run() prints one
pass/fail line per criterion.  Suite sizes scale linearly with the `scale`
argument so the CLI can smoke-test quickly; the shipped defaults are the
full contract sizes.
"""

from __future__ import annotations

import math
import random
import time
from functools import lru_cache
from math import gcd

from .intlinalg import CACHE_SIZE, IntMatrix, hstack, vstack
from .fgab import (
    FgAbGroup, FgAbMap, map_equal, direct_sum, is_exact_at, is_injective, is_surjective,
)
from .twocomplex import TwoTermComplex, embed0, homology, random_complex
from .butterfly import (
    Butterfly, validate, is_valid, identity_butterfly,
    zero_butterfly, compose, two_morphism_find, baer_sum, homology_action,
    is_invertible, kernel_b, cokernel_b, classify, pip, copip,
    image_b, coimage_b, middle_exact_iso, random_butterfly,
)
from .exactness import (
    zero_witness_find,
    standard_seq_51, standard_seq_10, standard_seq_52, les, random_exact_seq,
)
from .derived import derived_tensor, biext_groups, biext_enumerate
from . import oracle
from . import fixtures


def _n(base: int, scale: float) -> int:
    return max(1, round(base * scale))


def _small_complex(rng: random.Random) -> TwoTermComplex:
    return random_complex(rng, max_rank=1, max_order=6)


def _suite_complex(rng: random.Random) -> TwoTermComplex:
    # mixed sizes: mostly small, occasionally order up to 64 or rank 3
    roll = rng.random()
    if roll < 0.75:
        return random_complex(rng, max_rank=1, max_order=8)
    if roll < 0.92:
        return random_complex(rng, max_rank=2, max_order=16)
    return random_complex(rng, max_rank=3, max_order=64)


@lru_cache(maxsize=CACHE_SIZE)
def butterfly_suite(scale: float = 1.0) -> tuple:
    """The seeded random butterfly suite shared by criteria 1 and 7."""
    rng = random.Random(101)
    out = []
    for _ in range(_n(500, scale)):
        e = _suite_complex(rng)
        f = _suite_complex(rng)
        out.append(random_butterfly(e, f, rng))
    return tuple(out)


# -- criterion 1: axioms and mutations ----------------------------------------

def _mutate(mat: IntMatrix, at: tuple, delta: int) -> IntMatrix:
    ent = list(mat.entries)
    ent[at[0] * mat.cols + at[1]] += delta
    return IntMatrix(mat.rows, mat.cols, ent)


def _mutant_refusal(b: Butterfly, wing: str, at: tuple, delta: int):
    """Apply a single-entry mutation; return the refusal text or None."""
    mats = {"i": b.i.matrix, "j": b.j.matrix, "p": b.p.matrix, "q": b.q.matrix}
    mats[wing] = _mutate(mats[wing], at, delta)
    try:
        mut = Butterfly(
            b.src, b.dst,
            FgAbMap(b.dst.deg_m1, b.carrier, mats["i"]),
            FgAbMap(b.src.deg_m1, b.carrier, mats["j"]),
            FgAbMap(b.carrier, b.dst.deg_0, mats["p"]),
            FgAbMap(b.carrier, b.src.deg_0, mats["q"]),
        )
    except ValueError as exc:
        return str(exc)
    bad = validate(mut)
    return bad[0] if bad else None


def mutation_catalog() -> list:
    """20 single-entry mutations, each of which must refuse with a named axiom."""
    B = fixtures.bockstein()
    IK2 = fixtures.ik2()
    Br = fixtures.br()
    IE2 = identity_butterfly(fixtures.e2())
    I4 = identity_butterfly(embed0(FgAbGroup.cyclic(4)))
    return [
        (B, "i", (0, 0), -1), (B, "i", (0, 0), 1),
        (B, "j", (0, 0), -1), (B, "j", (0, 0), 1),
        (B, "q", (0, 0), -1), (B, "q", (0, 0), 1),
        (Br, "q", (0, 0), -1), (Br, "q", (0, 0), 1),
        (Br, "j", (0, 0), -1), (Br, "j", (0, 0), 1),
        (IE2, "p", (0, 1), 1), (IE2, "p", (0, 0), 1),
        (IE2, "i", (0, 0), 1), (IE2, "i", (1, 0), 1),
        (IE2, "j", (0, 0), -1), (IE2, "j", (1, 0), -1),
        (IE2, "q", (0, 1), 1), (IK2, "i", (1, 0), 1),
        (IK2, "q", (0, 0), 1), (I4, "q", (0, 0), 1),
    ]


def crit1_axioms(scale: float = 1.0):
    suite = butterfly_suite(scale)
    for k, b in enumerate(suite):
        bad = validate(b)
        if bad:
            return False, f"random butterfly #{k} fails: {bad[0]}"
    refusals = []
    for (base, wing, at, delta) in mutation_catalog():
        msg = _mutant_refusal(base, wing, at, delta)
        if msg is None:
            return False, f"mutation {wing}{at}{delta:+d} not refused"
        refusals.append(msg)
    kinds = sorted(set(refusals))
    return True, f"{len(suite)} butterflies valid; 20 mutations refused ({len(kinds)} axiom kinds)"


# -- criterion 2: category laws -----------------------------------------------

def crit2_category_laws(scale: float = 1.0):
    rng = random.Random(202)
    n = _n(100, scale)
    for k in range(n):
        d_, e_, f_, g_ = (_small_complex(rng) for _ in range(4))
        x = random_butterfly(d_, e_, rng)
        y = random_butterfly(e_, f_, rng)
        z = random_butterfly(f_, g_, rng)
        left = compose(compose(z, y), x)
        right = compose(z, compose(y, x))
        if two_morphism_find(left, right) is None:
            return False, f"associativity fails on triple #{k}"
        if two_morphism_find(compose(identity_butterfly(f_), y), y) is None:
            return False, f"left identity law fails on #{k}"
        if two_morphism_find(compose(y, identity_butterfly(e_)), y) is None:
            return False, f"right identity law fails on #{k}"
    return True, f"{n} triples: associativity and identity laws up to 2-isomorphism"


# -- criterion 3: functoriality -----------------------------------------------

def crit3_functoriality(scale: float = 1.0):
    rng = random.Random(303)
    n = _n(200, scale)
    for k in range(n):
        e_, f_, g_ = (_small_complex(rng) for _ in range(3))
        y = random_butterfly(e_, f_, rng)
        z = random_butterfly(f_, g_, rng)
        zym1, zyh0 = homology_action(compose(z, y))
        ym1, yh0 = homology_action(y)
        zm1, zh0 = homology_action(z)
        if not map_equal(zym1, zm1 * ym1):
            return False, f"H^-1 functoriality fails on pair #{k}"
        if not map_equal(zyh0, zh0 * yh0):
            return False, f"H^0 functoriality fails on pair #{k}"
    return True, f"{n} pairs: (Z*Y)_* = Z_* * Y_* exactly in both degrees"


# -- criterion 4: the three invertibility criteria ------------------------------

def _is_iso(f: FgAbMap) -> bool:
    return is_injective(f) and is_surjective(f)


def _has_two_sided_inverse(y: Butterfly) -> bool:
    """Build the reflected candidate inverse and test both composites
    against the identities; no precondition assumed.  The reflected wings
    always fit the reflected endpoints, and a negated map always descends,
    so the candidate can always be built; is_valid decides the rest."""
    flip = Butterfly(y.dst, y.src, y.j, y.i, -y.q, -y.p)
    if not is_valid(flip):
        return False
    if two_morphism_find(compose(flip, y), identity_butterfly(y.src)) is None:
        return False
    return two_morphism_find(compose(y, flip), identity_butterfly(y.dst)) is not None


def crit4_tri_equivalence(scale: float = 1.0):
    rng = random.Random(404)
    cases = []
    for _ in range(_n(200, scale)):
        e_, f_ = _small_complex(rng), _small_complex(rng)
        cases.append(random_butterfly(e_, f_, rng))
    cases.append(fixtures.bockstein())
    cases.append(zero_butterfly(fixtures.k2(), fixtures.k2()))
    expected = {len(cases) - 2: True, len(cases) - 1: False}
    for k, y in enumerate(cases):
        hm1, h0 = homology_action(y)
        b_qis = _is_iso(hm1) and _is_iso(h0)
        b_cone = is_invertible(y)
        b_inv = _has_two_sided_inverse(y)
        if not (b_inv == b_qis == b_cone):
            return False, f"criteria disagree on #{k}: inverse={b_inv} qis={b_qis} cone={b_cone}"
        if k in expected and b_cone != expected[k]:
            return False, f"fixture #{k} expected invertible={expected[k]}"
    return True, f"{len(cases)} butterflies: inverse/homology/cone criteria agree"


# -- criterion 5: kernels, cokernels, canonical isomorphisms --------------------

def crit5_kernel_cokernel(scale: float = 1.0):
    rng = random.Random(505)
    n = _n(100, scale)
    chains = 0
    for k in range(n):
        e_, f_ = _small_complex(rng), _small_complex(rng)
        y = random_butterfly(e_, f_, rng)
        kcx, kbf = kernel_b(y)
        if zero_witness_find(y, kbf) is None:
            return False, f"kernel composite admits no zero witness on #{k}"
        hk = homology(kcx)
        flags = classify(y)
        if flags.mono != (hk.hm1.is_trivial() and hk.h0.is_trivial()):
            return False, f"mono <-> kernel quasi-trivial fails on #{k}"
        ccx, cbf = cokernel_b(y)
        if zero_witness_find(cbf, y) is None:
            return False, f"cokernel composite admits no zero witness on #{k}"
        hc = homology(ccx)
        if flags.epi != (hc.hm1.is_trivial() and hc.h0.is_trivial()):
            return False, f"epi <-> cokernel quasi-trivial fails on #{k}"
        _, bf_img = image_b(y)
        _, bf_coim = coimage_b(y)
        if not (is_invertible(bf_img) and is_invertible(bf_coim)):
            return False, f"canonical pip/copip butterflies not invertible on #{k}"
        if is_exact_at(y.j, y.p):
            chains += 1
            for bf in middle_exact_iso(y):
                if not is_invertible(bf):
                    return False, f"middle-exactness chain not invertible on #{k}"
    return True, f"{n} butterflies: kernel/cokernel witnesses, classification, {chains} canonical chains"


# -- criterion 6: long exact sequences ------------------------------------------

DELTA_GOLDEN = [[2]]  # delta of standard_seq_10(E2): frozen at first green run


def crit6_les(scale: float = 1.0):
    rng = random.Random(606)
    ncx = _n(50, scale)
    for k in range(ncx):
        cx = _small_complex(rng)
        for build in (standard_seq_51, standard_seq_10, standard_seq_52):
            l = les(build(cx))
            if l is None:
                return False, f"{build.__name__} not exact on complex #{k}"
            if not l.all_exact:
                return False, f"les({build.__name__}) not exact on complex #{k}"
    nseq = _n(300, scale)
    for k in range(nseq):
        l = les(random_exact_seq(rng))
        if l is None or not l.all_exact:
            return False, f"les of random sequence #{k} not exact"
    golden = les(standard_seq_10(fixtures.e2())).delta.matrix.to_lists()
    if golden != DELTA_GOLDEN:
        return False, f"delta golden value changed: {golden}"
    return True, f"{3 * ncx} standard + {nseq} random sequences exact; delta = {DELTA_GOLDEN}"


# -- criterion 7: oracle differential -------------------------------------------

def _finite_small(b: Butterfly) -> bool:
    """Every group of b is finite, of order at most 32."""
    for g in (b.src.deg_m1, b.src.deg_0, b.dst.deg_m1, b.dst.deg_0, b.carrier):
        n = g.order()
        if n is None or n > 32:
            return False
    return True


def _oracle_check_butterfly(b: Butterfly) -> str:
    """Element-level recheck of one butterfly; returns an error or ''."""
    r = oracle.realize_butterfly(b)
    ifn = oracle.element_map(b.i, r.fm1, r.car)
    jfn = oracle.element_map(b.j, r.em1, r.car)
    pfn = oracle.element_map(b.p, r.car, r.f0)
    qfn = oracle.element_map(b.q, r.car, r.e0)
    if not oracle.is_exact_elementwise(ifn, qfn, r.fm1.egroup, r.car.egroup,
                                       r.e0.egroup.zero()):
        return "diagonal exactness disagrees"
    # pip and copip
    pipel = oracle.group_structure(
        oracle.kernel_elements(jfn, r.em1.egroup, r.car.egroup.zero()), r.em1.egroup)
    if pip(b).invariant_factors() != (0, pipel):
        return "pip disagrees"
    copel = oracle.quotient_structure(oracle.ElementQuotient(
        r.f0.egroup, frozenset(r.f0.egroup.elements()),
        oracle.span(list(oracle.image_elements(pfn, r.car.egroup)), r.f0.egroup)))
    if copip(b).invariant_factors() != (0, copel):
        return "copip disagrees"
    # kernel complex degree-0 slot: ker(p) elementwise
    kcx, _ = kernel_b(b)
    kerel = oracle.group_structure(
        oracle.kernel_elements(pfn, r.car.egroup, r.f0.egroup.zero()), r.car.egroup)
    if kcx.deg_0.invariant_factors() != (0, kerel):
        return "ker(p) disagrees"
    # homology action tables
    dE = oracle.element_map(b.src.d, r.em1, r.e0)
    dF = oracle.element_map(b.dst.d, r.fm1, r.f0)
    hm1, h0 = homology_action(b)
    hs, hd = homology(b.src), homology(b.dst)
    rhs_s, rhs_d = oracle.realize(hs.hm1), oracle.realize(hd.hm1)
    fm1_els = list(r.fm1.egroup.elements())
    for x in rhs_s.egroup.elements():
        xe = rhs_s.map_image(hs.incl, r.em1, x)
        target = jfn(xe)
        pre = [f for f in fm1_els if ifn(f) == target]
        if len(pre) != 1:
            return "H^-1 action not uniquely resolvable elementwise"
        got = rhs_s.map_image(hm1, rhs_d, x)
        if rhs_d.map_image(hd.incl, r.fm1, got) != pre[0]:
            return "H^-1 action table disagrees"
    # H^0 action: lift each coset rep through q, push with p, compare classes
    rh0_s, rh0_d = oracle.realize(hs.h0), oracle.realize(hd.h0)
    car_els = list(r.car.egroup.elements())
    for x in rh0_s.egroup.elements():
        got = rh0_s.map_image(h0, rh0_d, x)
        e0_el = None
        for cand in r.e0.egroup.elements():
            if r.e0.map_image(hs.proj, rh0_s, cand) == x:
                e0_el = cand
                break
        lifts = [yy for yy in car_els if qfn(yy) == e0_el]
        if not lifts:
            return "q not surjective elementwise"
        img = r.f0.map_image(hd.proj, rh0_d, pfn(lifts[0]))
        if img != got:
            return "H^0 action table disagrees"
    return ""


def crit7_oracle_differential(scale: float = 1.0):
    suite = [b for b in butterfly_suite(scale) if _finite_small(b)]
    rng = random.Random(707)
    checked = 0
    for b in suite:
        err = _oracle_check_butterfly(b)
        if err:
            return False, f"{err} on a suite butterfly"
        checked += 1
    # composition carriers vs element-level homology of the middle complex
    comp = 0
    for _ in range(_n(80, scale)):
        e_, f_, g_ = (random_complex(rng, max_rank=0, max_order=4) for _ in range(3))
        y = random_butterfly(e_, f_, rng)
        z = random_butterfly(f_, g_, rng)
        if not (_finite_small(y) and _finite_small(z)):
            continue
        w = compose(z, y)
        yz = direct_sum(y.carrier, z.carrier)
        a = FgAbMap(f_.deg_m1, yz, vstack(y.i.matrix, -z.j.matrix))
        bmap = FgAbMap(yz, f_.deg_0, hstack(-y.p.matrix, z.q.matrix))
        rm = oracle.realize(f_.deg_m1)
        ryz = oracle.realize(yz)
        r0 = oracle.realize(f_.deg_0)
        afn = oracle.element_map(a, rm, ryz)
        bfn = oracle.element_map(bmap, ryz, r0)
        el = oracle.element_homology(afn, bfn, rm.egroup, ryz.egroup, r0.egroup.zero())
        if w.carrier.invariant_factors() != (0, el):
            return False, "composition carrier disagrees with element-level homology"
        comp += 1
        # 2-morphism existence and solver completeness
        if z.src == z.dst:
            found = two_morphism_find(z, identity_butterfly(z.src))
            enum = oracle.enumerate_two_morphisms(z, identity_butterfly(z.src))
            if (found is not None) != (len(enum) > 0):
                return False, "2-morphism existence disagrees with enumeration"
    # solver completeness on parallel random butterflies
    pairs = 0
    for _ in range(_n(50, scale)):
        e_, f_ = (random_complex(rng, max_rank=0, max_order=4) for _ in range(2))
        a = random_butterfly(e_, f_, rng)
        bb = random_butterfly(e_, f_, rng)
        if not (_finite_small(a) and _finite_small(bb)):
            continue
        found = two_morphism_find(a, bb)
        enum = oracle.enumerate_two_morphisms(a, bb)
        if (found is not None) != (len(enum) > 0):
            return False, "2-morphism solver completeness fails"
        pairs += 1
    return True, f"{checked} butterflies, {comp} compositions, {pairs} solver pairs match the oracle"


# -- criterion 8: the Bockstein fixture ------------------------------------------

def crit8_bockstein(scale: float = 1.0):
    b = fixtures.bockstein()
    ik2 = fixtures.ik2()
    zero = zero_butterfly(b.src, b.dst)
    if not is_invertible(b):
        return False, "B is not invertible"
    if two_morphism_find(b, ik2) is not None:
        return False, "B should not be 2-isomorphic to the identity"
    if two_morphism_find(compose(b, b), ik2) is None:
        return False, "B*B should be 2-isomorphic to the identity"
    # B has order 2 in the Baer-sum 2-group, whose neutral class is the zero
    # composite (homology actions add, so B+B acts by zero, unlike id).
    if two_morphism_find(baer_sum(b, b), zero) is None:
        return False, "B+B should be 2-isomorphic to the Baer-neutral class"
    if two_morphism_find(baer_sum(b, b), ik2) is not None:
        return False, "B+B must differ from the identity class (actions add)"
    if two_morphism_find(baer_sum(b, zero), b) is None:
        return False, "B + 0 should be 2-isomorphic to B"
    return True, ("Ext^1(Z/2,Z/2) torsor realized: B invertible, B != id, "
                  "B*B ~ id, B+B ~ Baer-neutral, B+0 ~ B")


# -- criterion 9: derived tensor and Biext ----------------------------------------

def crit9_derived_biext(scale: float = 1.0):
    zc = FgAbGroup.cyclic
    z = FgAbGroup.free(1)
    for a in range(1, 13):
        for b in range(1, 13):
            tor = derived_tensor(zc(a), zc(b)).tor1.invariant_factors()
            g = gcd(a, b)
            want = (0, ()) if g == 1 else (0, (g,))
            if tor != want:
                return False, f"Tor1(Z/{a},Z/{b}) = {tor}, want {want}"
            # independent oracle: elementwise kernel of multiplication by a on Z/b
            rb = oracle.realize(zc(b))
            fn = oracle.element_map(
                FgAbMap(zc(b), zc(b), IntMatrix.from_rows([[a]])), rb, rb)
            ker_el = oracle.group_structure(
                oracle.kernel_elements(fn, rb.egroup, rb.egroup.zero()), rb.egroup)
            if (0, ker_el) != want:
                return False, f"oracle Tor1 disagrees at ({a},{b})"
    bg = biext_groups(zc(2), zc(2), z)
    if not (bg.pi1.is_trivial() and bg.pi0.invariant_factors() == (0, (2,))):
        return False, f"biext(Z/2,Z/2;Z) = ({bg.pi1.describe()}, {bg.pi0.describe()})"
    reps = biext_enumerate(zc(2), zc(2), z)
    if len(reps) != 2:
        return False, f"enumeration found {len(reps)} butterflies, want 2"
    s = baer_sum(reps[0], reps[1])
    if sum(1 for r in reps if two_morphism_find(s, r) is not None) != 1:
        return False, "Baer structure on enumerated biext classes broken"
    bg222 = biext_groups(zc(2), zc(2), zc(2))
    if len(biext_enumerate(zc(2), zc(2), zc(2))) != bg222.pi0.order():
        return False, "biext enumeration disagrees at (Z/2,Z/2;Z/2)"
    # free-argument collapses
    c = zc(6)
    bz = biext_groups(z, zc(2), c)
    if bz.pi1.invariant_factors() != (0, (2,)) or bz.pi0.invariant_factors() != (0, (2,)):
        return False, "free collapse biext(Z,Z/2;Z/6) wrong"
    bzz = biext_groups(z, z, c)
    if bzz.pi1.invariant_factors() != c.invariant_factors() or not bzz.pi0.is_trivial():
        return False, "biext(Z,Z;C) should be (C, 0)"
    b0 = biext_groups(zc(4), zc(6), FgAbGroup.trivial())
    if not (b0.pi1.is_trivial() and b0.pi0.is_trivial()):
        return False, "biext(-,-;0) should vanish"
    return True, "Tor table 12x12 vs oracle; biext groups match butterfly enumeration"


CRITERIA = [
    ("1 axiom suite", crit1_axioms),
    ("2 category laws", crit2_category_laws),
    ("3 functoriality", crit3_functoriality),
    ("4 invertibility tri-equivalence", crit4_tri_equivalence),
    ("5 kernels and cokernels", crit5_kernel_cokernel),
    ("6 long exact sequences", crit6_les),
    ("7 oracle differential", crit7_oracle_differential),
    ("8 Bockstein fixture", crit8_bockstein),
    ("9 derived tensor and Biext", crit9_derived_biext),
]


def criterion_numbers() -> list:
    """The numbers run() accepts in only, as strings, in criterion order."""
    return [name.split()[0] for name, _ in CRITERIA]


def scale_ok(scale: float) -> bool:
    """Is scale a suite size factor run() accepts: a finite number above 0?"""
    return 0 < scale < math.inf


def run(scale: float = 1.0, only=None, out=print) -> bool:
    """Run the criteria (those numbered in only, when given); True if all pass.

    Raises ValueError, before running anything, when scale fails scale_ok
    or only names a number that is not a criterion.
    """
    if not scale_ok(scale):
        raise ValueError(f"scale must be a finite number above 0, got {scale!r}")
    if only is not None:
        unknown = sorted(map(str, set(only) - set(criterion_numbers())))
        if unknown:
            raise ValueError(f"no criterion numbered {', '.join(unknown)}")
    ok_all = True
    for name, fn in CRITERIA:
        if only is not None and name.split()[0] not in only:
            continue
        t0 = time.time()
        ok, detail = fn(scale)
        ok_all &= ok
        status = "PASS" if ok else "FAIL"
        out(f"{status} criterion {name}: {detail} [{time.time() - t0:.1f}s]")
    return ok_all
