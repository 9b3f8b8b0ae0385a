"""The four benchmark workloads.

Each workload has three parts, `rate`, its ops per second at the commit
that defined the benchmark, which turns --seconds into an op count, and
`spawns`, whether its ops start processes (see hostspeed.py):
  setup(lib, rng, workdir) -> list of op specs, generated from the seed only;
  op(lib, spec)            -> the answer, the only code that is timed;
  verify(spec, answer)     -> None when correct, else a one-line reason.

`lib` holds the freshly imported library modules.  Ops reach every library
function through those modules at call time, so the tracer's wrappers are
the functions they call.  Checkers use `refcheck` (standard library only)
and answers computed at set-up, never the library's caches.

Why these four: see README.md next to this file.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

from refcheck import Lattice, Mat, congruent, det, group_shape

HERE = Path(__file__).resolve().parent
SHIM = HERE / "cli_shim.py"


def _rel_lattice(group) -> Lattice:
    return Lattice(group.ngens, Mat.of(group.relations).columns())


def _balanced(rng, choices, count: int) -> list:
    """count draws that use every choice equally often in each block of
    len(choices) draws, in random order: the mix a run sees then does not
    depend on the seed, only the inputs do."""
    out = []
    while len(out) < count:
        block = list(choices)
        rng.shuffle(block)
        out.extend(block)
    return out[:count]


# -- category ------------------------------------------------------------------

class Category:
    """Associativity up to 2-isomorphism and the left identity law.

    Set-up draws one long chain of butterflies c0 -> c1 -> c2 -> ... between
    fresh complexes; each op takes three consecutive links.  Small
    presentations still recur across complexes, so caches hit.
    """

    name = "category"
    spawns = False
    rate = 80
    links = 400        # butterflies in the chain
    specs = 30000      # random windows; far more than a run uses

    def setup(self, lib, rng, workdir):
        tc, bf = lib.twocomplex, lib.butterfly
        cxs = [tc.random_complex(rng, max_rank=1, max_order=6) for _ in range(self.links + 1)]
        chain = [bf.random_butterfly(a, b, rng) for a, b in zip(cxs, cxs[1:])]
        starts = (rng.randrange(len(chain) - 2) for _ in range(self.specs))
        return [tuple(chain[k:k + 3]) for k in starts]

    @staticmethod
    def op(lib, spec):
        bf = lib.butterfly
        x, y, z = spec
        left = bf.compose(bf.compose(z, y), x)
        right = bf.compose(z, bf.compose(y, x))
        assoc = bf.two_morphism_find(left, right)
        unit = bf.two_morphism_find(bf.compose(bf.identity_butterfly(y.dst), y), y)
        return assoc, unit

    @staticmethod
    def verify(spec, answer):
        for law, tm in zip(("associativity", "left identity"), answer):
            if tm is None:
                return f"{law}: no 2-morphism found"
            bad = two_morphism_violation(tm)
            if bad:
                return f"{law}: {bad}"
        return None


def two_morphism_violation(tm):
    """The first wing or inverse equation the carrier map m breaks, or None."""
    a, b, m, inv = tm.source, tm.target, tm.m.matrix, tm.inverse.matrix
    mm, mi = Mat.of(m), Mat.of(inv)
    checks = [
        ("m*i = i'", mm * Mat.of(a.i.matrix), Mat.of(b.i.matrix), b.carrier),
        ("m*j = j'", mm * Mat.of(a.j.matrix), Mat.of(b.j.matrix), b.carrier),
        ("p'*m = p", Mat.of(b.p.matrix) * mm, Mat.of(a.p.matrix), a.dst.deg_0),
        ("q'*m = q", Mat.of(b.q.matrix) * mm, Mat.of(a.q.matrix), a.src.deg_0),
        ("inverse*m = 1", mi * mm, Mat.identity(a.carrier.ngens), a.carrier),
        ("m*inverse = 1", mm * mi, Mat.identity(b.carrier.ngens), b.carrier),
    ]
    for name, lhs, rhs, dst in checks:
        if not congruent(lhs, rhs, _rel_lattice(dst)):
            return f"2-morphism equation {name} fails"
    return None


# -- les -------------------------------------------------------------------------

class Les:
    """is_exact then the six-term sequence, on one random_exact_seq and one
    standard sequence per op.  The standard pool holds standard_seq_10(E2),
    whose connecting map is known to be [[2]]."""

    name = "les"
    spawns = False
    rate = 40
    randoms = 150    # random_exact_seq pool
    standards = 100  # standard sequences of random_complex(max_rank=1, max_order=6)
    specs = 30000

    def setup(self, lib, rng, workdir):
        ex, tc = lib.exactness, lib.twocomplex
        randoms = [ex.random_exact_seq(rng) for _ in range(self.randoms)]
        builders = (ex.standard_seq_51, ex.standard_seq_10, ex.standard_seq_52)
        standards = [(ex.standard_seq_10(lib.fixtures.e2()), [[2]])]
        while len(standards) < self.standards:
            cx = tc.random_complex(rng, max_rank=1, max_order=6)
            standards.append((rng.choice(builders)(cx), None))
        return [(rng.choice(randoms),) + rng.choice(standards) for _ in range(self.specs)]

    @staticmethod
    def op(lib, spec):
        ex = lib.exactness
        out = []
        for seq in spec[:2]:
            out.append(ex.les(seq) if ex.is_exact(seq) else None)
        return out

    @staticmethod
    def verify(spec, answer):
        delta = spec[2]
        for which, l in zip(("random", "standard"), answer):
            if l is None:
                return f"{which} sequence judged not exact"
            bad = les_violation(l)
            if bad:
                return f"{which} sequence: {bad}"
        if delta is not None and answer[1].delta.matrix.to_lists() != delta:
            return f"delta is {answer[1].delta.matrix.to_lists()}, expected {delta}"
        return None


def les_violation(l):
    """Checks of a six-term sequence 0 -> A1 -> ... -> A6 -> 0 said to be exact."""
    if len(l.verdicts) != 6 or not all(l.verdicts) or not l.all_exact:
        return f"verdicts {l.verdicts} are not all exact"
    shapes = [group_shape(g.ngens, Mat.of(g.relations)) for g in l.groups]
    if sum((-1) ** k * rank for k, (rank, _) in enumerate(shapes)):
        return "alternating sum of free ranks is not 0"
    orders = [order for _, order in shapes]
    if all(o is not None for o in orders):
        if orders[0] * orders[2] * orders[4] != orders[1] * orders[3] * orders[5]:
            return f"alternating product of orders {orders} is not 1"
    return None


# -- presentations ---------------------------------------------------------------

class Presentations:
    """Dense relations: cokernel(M), then kernel and image of F: Z^n -> Z^n/M.

    Every op draws fresh matrices, so no cache is reused; each size n occurs
    once in every five ops.  Singular M are redrawn at set-up, where det M
    is computed for the check.
    """

    name = "presentations"
    spawns = False
    rate = 200
    sizes = range(4, 9)
    entry = 9
    specs = 5000

    def setup(self, lib, rng, workdir):
        im = lib.intlinalg.IntMatrix
        values = range(-self.entry, self.entry + 1)
        specs = []
        for n in _balanced(rng, self.sizes, self.specs):
            d = 0
            while not d:
                m = rng.choices(values, k=n * n)
                d = det([m[i * n:(i + 1) * n] for i in range(n)])
            specs.append((n, im(n, n, m), im(n, n, rng.choices(values, k=n * n)), abs(d)))
        return specs

    @staticmethod
    def op(lib, spec):
        fg = lib.fgab
        n, m, f, _ = spec
        free = fg.FgAbGroup.free(n)
        cok = fg.cokernel(fg.FgAbMap(free, free, m))
        fmap = fg.FgAbMap(free, cok.group, cok.proj.matrix * f)
        return cok, fg.kernel(fmap), fg.image(fmap)

    @staticmethod
    def verify(spec, answer):
        n, m, f, d = spec
        cok, ker, im = answer
        q = cok.group
        to = Mat.of(cok.proj.matrix)
        q_lat = _rel_lattice(q)
        m_lat = Lattice(n, Mat.of(m).columns())
        # to: Z^n/M -> Q is an isomorphism: well defined, onto, |Q| = |det M|
        if group_shape(q.ngens, Mat.of(q.relations)) != (0, d):
            return f"cokernel order is not |det M| = {d}"
        if not all(q_lat.contains(c) for c in (to * Mat.of(m)).columns()):
            return "cokernel projection does not kill M"
        onto = Lattice(q.ngens, to.columns() + Mat.of(q.relations).columns())
        if onto.index() != 1:
            return "cokernel projection is not onto"
        # |im F| = |Z^n/M| / |Z^n/(M + F)|
        index = Lattice(n, Mat.of(m).columns() + Mat.of(f).columns()).index()
        image_order = d // index
        if group_shape(im.group.ngens, Mat.of(im.group.relations)) != (0, image_order):
            return f"image order is not {image_order}"
        if not congruent(Mat.of(im.incl.matrix) * Mat.of(im.corestrict.matrix), to * Mat.of(f), q_lat):
            return "incl * corestrict != F"
        # ker F is a full sublattice of Z^n of index |im F|, killed by F
        k = Mat.of(ker.incl.matrix)
        if ker.group.ngens != n or ker.group.relations.cols or k.cols != n:
            return "kernel is not free of rank n"
        if abs(det(k.data)) != image_order:
            return f"kernel index is not {image_order}"
        if not all(m_lat.contains(c) for c in (Mat.of(f) * k).columns()):
            return "F does not kill the kernel"
        return None


# -- cli -------------------------------------------------------------------------

class Cli:
    """One fresh `butterflies` process per op, on documents written at set-up;
    each command occurs once in every six ops.

    The only cold path: interpreter start, import, JSON parsing and empty
    caches on every call.  Expected answers come from the library in this
    process at set-up.
    """

    name = "cli"
    spawns = True     # ops start interpreters, so host speed includes spawning one
    rate = 6
    pool = 6          # documents of each kind
    specs = 3000
    commands = ("validate", "compose", "iso2", "report", "les", "biext")
    shorthand = ("Z/2", "Z/4", "Z/6", "Z/2+Z/2", "Z/3+Z", "Z")

    def __init__(self):
        self.trace_dir = None   # set by the runner for a traced phase
        self.child_ops = 0

    def setup(self, lib, rng, workdir):
        tc, bf, ex, jio, der = (lib.twocomplex, lib.butterfly, lib.exactness,
                                lib.jsonio, lib.derived)

        def cx():
            return tc.random_complex(rng, max_rank=1, max_order=8)

        def write(tag, kind, payload):
            path = workdir / f"{tag}.json"
            path.write_text(jio.emit(jio.document(kind, payload)), encoding="utf-8")
            return str(path)

        def inv(g):
            return jio.invariants_to_json(g)

        cases = {c: [] for c in self.commands}
        for k in range(self.pool):
            a, b, c, d = cx(), cx(), cx(), cx()
            x = bf.random_butterfly(a, b, rng)
            y = bf.random_butterfly(b, c, rng)
            z = bf.random_butterfly(c, d, rng)
            px, py, pz = (write(f"{t}{k}", "butterfly", jio.butterfly_to_json(v))
                          for t, v in (("x", x), ("y", y), ("z", z)))
            cases["validate"].append(([px], ("text", "ok\n")))
            composite = jio.emit(jio.document("butterfly", jio.butterfly_to_json(bf.compose(z, y))))
            cases["compose"].append(([py, pz], ("text", composite)))
            # even k: the two bracketings (isomorphic); odd k: two random parallel butterflies
            if k % 2 == 0:
                first, second = bf.compose(z, bf.compose(y, x)), bf.compose(bf.compose(z, y), x)
            else:
                first, second = y, bf.random_butterfly(b, c, rng)
            p1, p2 = (write(f"iso{k}{t}", "butterfly", jio.butterfly_to_json(v))
                      for t, v in (("a", first), ("b", second)))
            verdict = "none" if bf.two_morphism_find(first, second) is None else "isomorphic"
            cases["iso2"].append(([p1, p2], ("first_line", verdict)))
            cases["report"].append(([py], ("fields", {
                "invertible": bf.is_invertible(y),
                "pip": inv(bf.pip(y)), "copip": inv(bf.copip(y)),
            })))
            s = ex.random_exact_seq(rng)
            ps = write(f"seq{k}", "sequence", jio.sequence_to_json(s))
            cases["les"].append(([ps], ("fields", {
                "all_exact": True, "groups": [inv(g) for g in ex.les(s).groups],
            })))
            ga, gb, gc = (rng.choice(self.shorthand) for _ in range(3))
            be = der.biext_groups(*(jio.parse_group_shorthand(t) for t in (ga, gb, gc)))
            cases["biext"].append(([ga, gb, gc], ("fields", {"pi1": inv(be.pi1), "pi0": inv(be.pi0)})))
        specs = []
        for cmd in _balanced(rng, self.commands, self.specs):
            args, expect = rng.choice(cases[cmd])
            specs.append(([cmd] + args, expect))
        return specs

    def op(self, lib, spec):
        trace = "-"
        if self.trace_dir is not None:
            trace = str(self.trace_dir / f"child{self.child_ops}.json")
        self.child_ops += 1
        proc = subprocess.run([sys.executable, str(SHIM), trace] + spec[0],
                              stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                              text=True, timeout=120)
        return proc.returncode, proc.stdout, proc.stderr

    @staticmethod
    def verify(spec, answer):
        code, out, err = answer
        if code != 0:
            return f"exit code {code}: {err.strip()[-200:]}"
        how, want = spec[1]
        if how == "text":
            got = out
        elif how == "first_line":
            got = out.split("\n", 1)[0]
        else:
            try:
                doc = json.loads(out)
            except json.JSONDecodeError:
                return "output is not JSON"
            got = {key: doc.get(key) for key in want}
        if got != want:
            return f"{spec[0][0]}: unexpected output"
        return None


WORKLOADS = {w.name: w for w in (Category, Les, Presentations, Cli)}
