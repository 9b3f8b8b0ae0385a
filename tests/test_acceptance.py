"""The acceptance gate: every criterion at full size, one pass/fail line
each, with runtime budgets asserted where one is stated.  Criterion 10
exercises the CLI surface (selftest dispatch, byte-stable round trips, the
documented exit-code contract)."""

import json
import time
from pathlib import Path

import pytest

from butterflies import selftest, jsonio
from butterflies.cli import main
from butterflies.fixtures import bockstein, ik2, br, e2, k2
from butterflies.exactness import standard_seq_10


def _run(fn, budget=None):
    t0 = time.time()
    ok, detail = fn(1.0)
    dt = time.time() - t0
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

    def test_run_rejects_bad_scale(self):
        lines = []
        for scale in (float("nan"), float("inf"), -float("inf"), 0, -3, -0.5):
            with pytest.raises(ValueError, match="^scale must be a finite number above 0"):
                selftest.run(scale=scale, only={"8"}, out=lines.append)
        assert lines == []

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
