"""The acceptance gate: every criterion at full size, one pass/fail line
each, with runtime budgets asserted where one is stated.  Criterion 10
exercises the CLI surface (selftest dispatch, byte-stable round trips, the
documented exit-code contract)."""

import json
import time
import types
from pathlib import Path

import pytest

from butterflies import selftest, jsonio
from butterflies.cli import main
from butterflies.fixtures import bockstein, ik2, br, e2, k2
from butterflies.exactness import standard_seq_10
from butterflies.fgab import FgAbGroup, FgAbMap
from butterflies.intlinalg import IntMatrix
from butterflies.twocomplex import TwoTermComplex, embed0, shift1, zero_complex
from butterflies.butterfly import (
    Butterfly, identity_butterfly, is_invertible, validate, zero_butterfly,
)
from butterflies.derived import derived_tensor


def _run(fn, budget=None):
    t0 = time.perf_counter()
    ok, detail = fn(1.0)
    dt = time.perf_counter() - t0
    print(f"{'PASS' if ok else 'FAIL'} {fn.__name__}: {detail} [{dt:.1f}s]")
    assert ok, detail
    if budget is not None:
        assert dt < budget, f"{fn.__name__} took {dt:.1f}s, budget {budget}s"


def test_criterion_01_axiom_suite():
    _run(selftest.crit1_axioms, budget=30)


def test_criterion_02_category_laws():
    _run(selftest.crit2_category_laws, budget=120)


def test_criterion_03_functoriality():
    _run(selftest.crit3_functoriality, budget=60)


def test_criterion_04_tri_equivalence():
    _run(selftest.crit4_tri_equivalence)


def test_criterion_05_kernel_cokernel():
    _run(selftest.crit5_kernel_cokernel)


def test_criterion_06_les():
    _run(selftest.crit6_les)


def test_criterion_07_oracle_differential():
    _run(selftest.crit7_oracle_differential, budget=300)


def test_criterion_08_bockstein():
    _run(selftest.crit8_bockstein)


def test_criterion_09_derived_biext():
    _run(selftest.crit9_derived_biext)


Z7 = FgAbGroup.cyclic(7)
CATALOG = selftest.mutation_catalog()

# (test id, criterion, name in butterflies.selftest, a defective stand-in,
# the failure the criterion must report at scale 0.02); each id is given, so
# two rows may patch the same name for the same criterion
DEFECTS = [
    ("1-validate", 1, "validate", lambda b: [], "mutation q(0, 0)-1 not refused"),
    ("1-mutation_catalog", 1, "mutation_catalog", lambda: CATALOG[:-1] + CATALOG[:1],
     "mutation catalog repeats an entry"),
    ("2-two_morphism_find", 2, "two_morphism_find", lambda a, b: None,
     "associativity fails on triple #0"),
    ("3-compose", 3, "compose", lambda z, y: zero_butterfly(y.src, z.dst),
     "H^-1 functoriality fails on pair #1"),
    ("4-is_invertible", 4, "is_invertible", lambda y: not is_invertible(y),
     "criteria disagree on #0: inverse=False qis=False cone=True"),
    ("4-fixtures", 4, "fixtures",
     types.SimpleNamespace(bockstein=lambda: zero_butterfly(k2(), k2()), k2=k2),
     "fixture #4 expected invertible=True"),
    ("4-zero_butterfly", 4, "zero_butterfly", lambda e, f: identity_butterfly(e),
     "fixture #5 expected invertible=False"),
    ("5-middle_exact_iso", 5, "middle_exact_iso", lambda y: (zero_butterfly(k2(), k2()),) * 3,
     "middle-exactness chain not invertible on the Bockstein"),
    ("5-zero_witness_find", 5, "zero_witness_find", lambda a, b: None,
     "kernel composite admits no zero witness on #0"),
    ("6-les", 6, "les", lambda s: None, "standard_seq_51 not exact on complex #0"),
    ("7-pip", 7, "pip", lambda b: Z7, "pip disagrees on a suite butterfly"),
    ("7-copip", 7, "copip", lambda b: Z7, "copip disagrees on a suite butterfly"),
    ("7-kernel_b", 7, "kernel_b", lambda b: (TwoTermComplex(FgAbMap.zero(Z7, Z7)), None),
     "ker(p) disagrees on a suite butterfly"),
    ("7-two_morphism_find", 7, "two_morphism_find", lambda a, b: None,
     "2-morphism solver completeness fails"),
    # a solver that always finds a 2-morphism: B and IK2 have none, and the
    # oracle enumerates none
    ("7-two_morphism_find-always", 7, "two_morphism_find", lambda a, b: object(),
     "2-morphism existence disagrees with enumeration on B and IK2"),
    ("8-is_invertible", 8, "is_invertible", lambda y: False, "B is not invertible"),
    # a solver that never or always finds a 2-morphism fails at the first row
    # expecting the other answer, and a Baer sum that returns its first summand
    # at the first row it reaches
    ("8-two_morphism_find-never", 8, "two_morphism_find", lambda a, b: None,
     "B*B should be 2-isomorphic to the identity"),
    ("8-two_morphism_find-always", 8, "two_morphism_find", lambda a, b: object(),
     "B should not be 2-isomorphic to the identity"),
    ("8-baer_sum", 8, "baer_sum", lambda a, b: a,
     "B+B should be 2-isomorphic to the Baer-neutral class"),
    ("9-derived_tensor", 9, "derived_tensor", lambda a, b: derived_tensor(b, b),
     "Tor1(Z/1,Z/2) = (0, (2,)), want (0, ())"),
]


def test_defect_ids_are_distinct():
    ids = [row[0] for row in DEFECTS]
    assert len(set(ids)) == len(ids)


@pytest.mark.parametrize("number, name, defect, message", [row[1:] for row in DEFECTS],
                         ids=[row[0] for row in DEFECTS])
def test_criterion_reports_a_defect(number, name, defect, message, monkeypatch):
    """Each criterion fails, with its own message, when a name it calls is
    defective: the gate's failure branches are reachable and say what broke."""
    monkeypatch.setattr(selftest, name, defect)
    _, criterion = selftest.CRITERIA[number - 1]
    assert criterion(0.02) == (False, message)


def _diagonal_defects():
    """Two butterflies whose diagonal 0 -> F^-1 -> Y -> E^0 -> 0 is not
    short exact: i = [1] : Z/4 -> Z/2 is not injective, and q : 0 -> Z/2 is
    not onto."""
    z2, z4, t = FgAbGroup.cyclic(2), FgAbGroup.cyclic(4), FgAbGroup.trivial()
    zero = FgAbMap.zero
    yield Butterfly(zero_complex(), shift1(z4), FgAbMap(z4, z2, IntMatrix.from_rows([[1]])),
                    zero(t, z2), zero(z2, t), zero(z2, t))
    yield Butterfly(embed0(z2), zero_complex(), zero(t, t), zero(t, t), zero(t, t), zero(t, z2))


@pytest.mark.parametrize("b", _diagonal_defects(), ids=["i-not-injective", "q-not-onto"])
def test_oracle_check_reports_a_broken_diagonal(b):
    assert validate(b)
    assert selftest._oracle_check_butterfly(b) == "diagonal exactness disagrees"


class TestCriterion10Cli:
    """Criterion 10: selftest runs the suites; serialization is byte-stable;
    the exit-code contract holds on the golden set."""

    def test_selftest_dispatches_all_suites(self, capsys):
        assert main(["selftest", "--scale", "0.02"]) == 0
        out = capsys.readouterr().out
        for k in range(1, 10):
            assert f"PASS criterion {k} " in out

    def test_run_rejects_unknown_criterion(self):
        lines = []
        with pytest.raises(ValueError, match="99"):
            selftest.run(scale=0.02, only={"1", "99"}, out=lines.append)
        assert lines == []

    def test_run_rejects_a_str(self):
        # a str is not a collection of criterion numbers: "18" is not {"1", "8"}
        lines = []
        with pytest.raises(ValueError, match="not the str '18'"):
            selftest.run(scale=0.02, only="18", out=lines.append)
        assert lines == []

    def test_run_rejects_an_empty_collection(self, monkeypatch):
        # an empty only would run nothing and pass; None runs every criterion
        lines = []
        for only in ((), set(), [], frozenset()):
            with pytest.raises(ValueError, match="^only names no criterion"):
                selftest.run(scale=0.02, only=only, out=lines.append)
        assert lines == []
        # a bare --suite still means all of them
        seen = []
        monkeypatch.setattr(selftest, "run", lambda scale, only: seen.append(only) or True)
        assert main(["selftest", "--suite"]) == 0
        assert seen == [None]

    def test_run_compares_members_as_str(self):
        lines = []
        assert selftest.run(scale=0.02, only={8}, out=lines.append)
        assert len(lines) == 1 and lines[0].startswith("PASS criterion 8 ")

    def test_run_times_with_a_monotonic_clock(self, monkeypatch):
        # a wall-clock step of an hour during the criterion does not show
        # in its time
        wall = iter(range(0, 10 ** 9, 3600))
        monkeypatch.setattr(selftest.time, "time", lambda: next(wall))
        lines = []
        assert selftest.run(scale=0.02, only={"8"}, out=lines.append)
        seconds = float(lines[0].rsplit("[", 1)[1].rstrip("s]"))
        assert seconds < 60

    def test_run_rejects_bad_scale(self):
        lines = []
        for scale in (float("nan"), float("inf"), -float("inf"), 0, -3, -0.5, 1e308):
            with pytest.raises(ValueError, match="^scale must be a number above 0 with every "
                                                 "suite size finite, got "):
                selftest.run(scale=scale, only={"8"}, out=lines.append)
        assert lines == []
        assert selftest.scale_ok(3e305)    # 500 * 3e305 is still a finite float

    def test_round_trip_byte_stable(self, tmp_path):
        docs = [
            ("butterfly", jsonio.butterfly_to_json(bockstein()), jsonio.butterfly_to_json),
            ("sequence", jsonio.sequence_to_json(standard_seq_10(e2())), jsonio.sequence_to_json),
        ]
        for kind, payload, rebuild in docs:
            text1 = jsonio.emit(jsonio.document(kind, payload))
            k2_, obj = jsonio.parse_document(text1)
            assert k2_ == kind
            assert jsonio.emit(jsonio.document(kind, rebuild(obj))) == text1

    def test_exit_code_golden_set(self, tmp_path, capsys):
        def put(name, doc):
            p = tmp_path / name
            p.write_text(jsonio.emit(doc) if isinstance(doc, dict) else doc)
            return str(p)

        b = put("B.json", jsonio.document("butterfly", jsonio.butterfly_to_json(bockstein())))
        ikk = put("IK2.json", jsonio.document("butterfly", jsonio.butterfly_to_json(ik2())))
        brr = put("Br.json", jsonio.document("butterfly", jsonio.butterfly_to_json(br())))
        seq = put("seq.json", jsonio.document("sequence",
                                              jsonio.sequence_to_json(standard_seq_10(e2()))))
        broken = json.loads(Path(brr).read_text())
        broken["q"] = [["0"]]
        bad = put("bad.json", broken)
        garbage = put("garbage.json", "{oops")
        out = str(tmp_path / "out.json")

        golden = [
            (["validate", b], 0),                       # 1 valid butterfly
            (["validate", bad], 1),                     # 2 axiom refusal
            (["validate", garbage], 2),                 # 3 parse error
            (["validate", garbage + ".absent"], 2),     # 4 missing file
            (["compose", b, b, "--out", out], 0),       # 5 composition
            (["compose", b, brr], 1),                   # 6 endpoint refusal
            (["iso2", out, ikk], 0),                    # 7 2-isomorphism found
            (["les", seq], 0),                          # 8 LES of exact input
            (["biext", "2", "2", "Z"], 0),              # 9 biext shorthand
            (["biext", "Z/x", "2", "2"], 2),            # 10 shorthand schema error
        ]
        for argv, want in golden:
            got = main(argv)
            capsys.readouterr()
            assert got == want, f"{argv} -> {got}, want {want}"
