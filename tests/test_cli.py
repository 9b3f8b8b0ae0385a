import contextlib
import copy
import functools
import importlib.util
import io
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from butterflies import cli, exactness, jsonio
from butterflies.cli import main
from butterflies.fixtures import bockstein, ik2, br, e2, k2, Z2, Z4
from butterflies.exactness import is_exact, standard_seq_10, standard_seq_51, zero_witness_find
from butterflies.butterfly import TwoMorphism, zero_butterfly
from butterflies.twocomplex import TwoTermComplex
from butterflies.fgab import FgAbGroup, FgAbMap, hom_solve
from butterflies.intlinalg import IntMatrix, InvariantError


@pytest.fixture()
def docs(tmp_path):
    """The golden input set, written to disk once per test."""
    paths = {}

    def put(name, doc):
        p = tmp_path / name
        p.write_text(jsonio.emit(doc))
        paths[name] = str(p)

    put("B.json", jsonio.document("butterfly", jsonio.butterfly_to_json(bockstein())))
    put("IK2.json", jsonio.document("butterfly", jsonio.butterfly_to_json(ik2())))
    put("Br.json", jsonio.document("butterfly", jsonio.butterfly_to_json(br())))
    put("seq10.json", jsonio.document(
        "sequence", jsonio.sequence_to_json(standard_seq_10(e2()))))
    bad = json.loads((tmp_path / "Br.json").read_text())
    bad["q"] = [["0"]]
    put("Br_qzero.json", bad)
    (tmp_path / "garbage.json").write_text("{not json")
    paths["garbage.json"] = str(tmp_path / "garbage.json")
    nonexact = jsonio.document("butterfly", jsonio.butterfly_to_json(
        zero_butterfly(k2(), k2())))
    put("zero.json", nonexact)
    paths["out"] = str(tmp_path / "out.json")
    return paths


# the whole of a selftest usage error on stderr, and of selftest --help on stdout,
# is pinned: the --suite wording is this package's, so it is the same on every
# Python version (COLUMNS fixes argparse's wrap width)
SELFTEST_USAGE = "usage: butterflies selftest [-h] [--scale SCALE] [--suite [N ...]]\n"
SUITE_CHOICES = "(choose from '1', '2', '3', '4', '5', '6', '7', '8', '9')"


class TestExitCodes:
    """The documented golden set: 0 success, 1 refusal, 2 schema, 3 internal."""

    def test_validate_ok(self, docs, capsys):
        assert main(["validate", docs["B.json"]]) == 0
        assert capsys.readouterr().out.strip() == "ok"

    def test_validate_axiom_violation(self, docs, capsys):
        assert main(["validate", docs["Br_qzero.json"]]) == 1
        assert "triangle qj=d violated" in capsys.readouterr().out

    def test_validate_malformed(self, docs):
        assert main(["validate", docs["garbage.json"]]) == 2

    def test_validate_missing_file(self, docs):
        assert main(["validate", docs["garbage.json"] + ".nope"]) == 2

    def test_compose_ok(self, docs):
        assert main(["compose", docs["B.json"], docs["B.json"],
                     "--out", docs["out"]]) == 0

    def test_compose_endpoint_mismatch(self, docs):
        assert main(["compose", docs["B.json"], docs["Br.json"]]) == 1

    def test_compose_and_iso2_refuse_invalid_butterfly(self, docs, tmp_path, capsys):
        # B with q = 0: d = 0 on K2, so the diagonal breaks at the carrier;
        # refused as report refuses it, before anything is computed
        doc = json.loads(Path(docs["B.json"]).read_text())
        doc["q"] = [["0"]]
        bad = tmp_path / "B_qzero.json"
        bad.write_text(jsonio.emit(doc))
        good = docs["B.json"]
        for argv in (["compose", bad, bad], ["compose", good, bad],
                     ["iso2", bad, good], ["iso2", good, bad], ["report", bad]):
            assert main([str(a) for a in argv]) == 1, argv
            assert capsys.readouterr() == ("", "diagonal not exact at carrier\n"), argv

    def test_every_document_is_read_before_any_is_refused(self, docs, tmp_path, capsys):
        # a first butterfly that fails the axioms beside a second document
        # that is malformed or of the wrong kind: the schema error wins, so
        # no butterfly is refused before all the documents have been read
        doc = json.loads(Path(docs["B.json"]).read_text())
        doc["q"] = [["0"]]
        bad = tmp_path / "B_qzero.json"
        bad.write_text(jsonio.emit(doc))
        for command in ("compose", "iso2"):
            assert main([command, str(bad), docs["garbage.json"]]) == 2, command
            got = capsys.readouterr()
            assert got.out == "" and got.err.startswith("schema error: invalid JSON: "), command
            assert main([command, str(bad), docs["seq10.json"]]) == 2, command
            assert capsys.readouterr() == ("", f"schema error: {docs['seq10.json']}: expected a "
                                               "butterfly document, got sequence\n"), command

    def test_iso2_found_and_none(self, docs, capsys):
        main(["compose", docs["B.json"], docs["B.json"], "--out", docs["out"]])
        capsys.readouterr()
        assert main(["iso2", docs["out"], docs["IK2.json"]]) == 0
        assert "isomorphic" in capsys.readouterr().out
        assert main(["iso2", docs["B.json"], docs["IK2.json"]]) == 0
        assert capsys.readouterr().out.strip() == "none"

    def test_les_ok(self, docs, capsys):
        assert main(["les", docs["seq10.json"]]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["all_exact"] is True
        assert out["maps"][2] == [["2"]]

    @pytest.mark.parametrize("part, wing, msg", [
        ("Y", "q", "Y: diagonal not exact at carrier"),
        ("Z", "i", "Z: diagonal not exact: i not injective"),
    ])
    def test_les_refuses_invalid_butterfly(self, tmp_path, capsys, part, wing, msg):
        doc = jsonio.document("sequence", jsonio.sequence_to_json(standard_seq_10(e2())))
        doc[part][wing] = [["0"] * len(row) for row in doc[part][wing]]
        p = tmp_path / "seq.json"
        p.write_text(jsonio.emit(doc))
        assert main(["les", str(p)]) == 1
        assert capsys.readouterr() == ("", msg + "\n")

    def test_les_refuses_sequence_that_is_not_exact(self, tmp_path, capsys):
        # two valid zero butterflies of K2 with a solved witness: the witness
        # conditions hold, so the document parses, but les finds it not exact
        zk = zero_butterfly(k2(), k2())
        s = zero_witness_find(zk, zk)
        p = tmp_path / "seq.json"
        p.write_text(jsonio.emit(jsonio.document("sequence", jsonio.sequence_to_json(s))))
        assert main(["les", str(p)]) == 1
        assert capsys.readouterr() == ("", "sequence is not two-sided exact; refusing\n")

    def test_report_ok(self, docs, capsys):
        assert main(["report", docs["B.json"]]) == 0
        rep = json.loads(capsys.readouterr().out)
        assert rep["invertible"] and rep["mono"] and rep["epi"]
        assert rep["pip"] == {"rank": 0, "torsion": []}
        assert rep["image"]["h0"] == {"rank": 0, "torsion": ["2"]}

    def test_biext_shorthand(self, docs, capsys):
        assert main(["biext", "2", "2", "Z"]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out == {"pi0": {"rank": 0, "torsion": ["2"]},
                       "pi1": {"rank": 0, "torsion": []}}
        assert main(["biext", "2", "2", "0"]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["pi0"] == {"rank": 0, "torsion": []}

    def test_biext_bad_shorthand(self, docs):
        assert main(["biext", "Z/x", "2", "2"]) == 2

    def test_biext_torsion_factor_below_two_is_schema_error(self, capsys):
        assert main(["biext", "Z/1", "Z", "Z"]) == 2
        assert capsys.readouterr() == ("", "schema error: torsion factor must be >= 2, got 1\n")

    def test_unwritable_out_is_io_error(self, docs, tmp_path, capsys):
        # every command with --out; iso2 finds a 2-morphism here, so a verdict
        # printed before the write would show on stdout
        assert main(["compose", docs["B.json"], docs["B.json"], "--out", docs["out"]]) == 0
        out = str(tmp_path / "missing" / "x.json")
        for argv in (["compose", docs["B.json"], docs["B.json"]], ["iso2", docs["out"], docs["IK2.json"]],
                     ["report", docs["B.json"]], ["les", docs["seq10.json"]], ["biext", "2", "2", "Z"],
                     ["gen", "butterfly"]):
            capsys.readouterr()
            assert main(argv + ["--out", out]) == 2, argv
            got = capsys.readouterr()
            assert got.out == "", argv
            assert got.err.startswith(f"schema error: cannot write {out}: ") and got.err.count("\n") == 1

    def test_les_decides_exactness_once(self, docs, capsys, monkeypatch):
        calls = []

        def counting(s):
            calls.append(s)
            return is_exact(s)
        for mod in (cli, exactness):  # each module the command could reach it through
            if getattr(mod, "is_exact", None) is is_exact:
                monkeypatch.setattr(mod, "is_exact", counting)
        assert main(["les", docs["seq10.json"]]) == 0
        assert json.loads(capsys.readouterr().out)["all_exact"] is True
        assert len(calls) == 1

    def test_selftest_unknown_criterion_is_usage_error(self, capsys, monkeypatch):
        monkeypatch.setenv("COLUMNS", "80")
        for suite in (["99"], ["x"], ["1", "99"]):
            with pytest.raises(SystemExit) as exc:
                main(["selftest", "--suite", *suite])
            assert exc.value.code == 2
            assert capsys.readouterr() == ("", SELFTEST_USAGE + "butterflies selftest: error: "
                                           f"argument --suite: invalid choice: {suite[-1]!r} "
                                           f"{SUITE_CHOICES}\n")

    def test_failed_invariant_is_internal_error(self, docs, capsys, monkeypatch):
        def broken(z, y):
            raise InvariantError("five lemma: wing-commuting carrier map must be invertible")
        monkeypatch.setattr(cli, "compose", broken)
        assert main(["compose", docs["B.json"], docs["B.json"]]) == 3
        got = capsys.readouterr()
        assert got.out == ""
        assert got.err == "internal error: five lemma: wing-commuting carrier map must be invertible\n"

    def test_unexpected_exception_is_internal_error(self, docs, capsys, monkeypatch):
        def broken(z, y):
            raise TypeError("unsupported operand")
        monkeypatch.setattr(cli, "compose", broken)
        assert main(["compose", docs["B.json"], docs["B.json"]]) == 3
        got = capsys.readouterr()
        assert got.out == ""
        assert got.err == "internal error: TypeError: unsupported operand\n"

    def test_non_utf8_file_is_schema_error(self, tmp_path, capsys):
        p = tmp_path / "f.json"
        p.write_bytes(b"\xff\xfe{}")
        assert main(["validate", str(p)]) == 2
        got = capsys.readouterr()
        assert got.out == ""
        assert got.err.startswith(f"schema error: cannot read {p}: ") and got.err.count("\n") == 1

    def test_deep_nesting_is_schema_error(self, tmp_path, capsys):
        # deeper than the recursion limit: json.loads raises RecursionError
        p = tmp_path / "deep.json"
        p.write_text("[" * 100_000 + "]" * 100_000)
        assert main(["validate", str(p)]) == 2
        got = capsys.readouterr()
        assert got.out == ""
        assert got.err.startswith("schema error: invalid JSON: ") and got.err.count("\n") == 1

    def test_relation_row_that_is_not_a_list_is_schema_error(self, tmp_path, capsys):
        p = tmp_path / "group.json"
        p.write_text('{"kind": "group", "ngens": 1, "relations": [5]}')
        assert main(["validate", str(p)]) == 2
        got = capsys.readouterr()
        assert got.out == ""
        assert got.err == "schema error: group.relations must be a matrix\n"

    @pytest.mark.parametrize("kind", ['"nope"', '["butterfly"]', '{"a": 1}'])
    def test_unknown_document_kind_is_schema_error(self, tmp_path, capsys, kind):
        # an unhashable kind is refused like any other, not an internal error
        p = tmp_path / "doc.json"
        p.write_text(f'{{"kind": {kind}}}')
        assert main(["validate", str(p)]) == 2
        want = repr(json.loads(kind))
        assert capsys.readouterr() == ("", f"schema error: unknown document kind {want}\n")

    def test_json_booleans_are_schema_errors(self, tmp_path, capsys):
        # true and false parse to bool, a subclass of int; neither is a JSON integer
        p = tmp_path / "group.json"
        for text, err in [
            ('{"kind": "group", "ngens": true, "relations": [[2]]}',
             "group.ngens must be a nonnegative integer"),
            ('{"kind": "group", "ngens": 1, "relations": [[true]]}',
             "matrix entries must be decimal strings"),
        ]:
            p.write_text(text)
            assert main(["validate", str(p)]) == 2
            got = capsys.readouterr()
            assert got.out == ""
            assert got.err == f"schema error: {err}\n"

    def test_non_decimal_literals_are_schema_errors(self, tmp_path, capsys):
        # int() takes each of these; a literal is ASCII -?[0-9]+ and nothing else
        p = tmp_path / "group.json"
        for lit in (" 3", "3 ", "+3", "3_0", "٣", "", "-", "9" * 5000 + "_0"):
            p.write_text(jsonio.emit({"kind": "group", "ngens": 1, "relations": [[lit]]}))
            assert main(["validate", str(p)]) == 2, lit
            got = capsys.readouterr()
            assert got.out == "" and got.err.startswith("schema error: bad integer literal "), lit
        assert main(["biext", "Z/1_0", "2", "2"]) == 2
        assert capsys.readouterr().err == "schema error: bad group shorthand token '1_0'\n"
        assert jsonio.parse_group_shorthand(" Z/ 3 + 4 ") == jsonio.parse_group_shorthand("Z/3+4")
        for lit in ("-0", "007", "-12"):
            p.write_text(jsonio.emit({"kind": "group", "ngens": 1, "relations": [[lit]]}))
            assert main(["validate", str(p)]) == 0, lit
            assert jsonio.parse_document(p.read_text())[1].relations.entries == (int(lit),)

    def test_selftest_bad_scale_is_usage_error(self, capsys, monkeypatch):
        monkeypatch.setenv("COLUMNS", "80")
        for scale in ("nan", "inf", "-inf", "0", "-0.5", "x"):
            with pytest.raises(SystemExit) as exc:
                main(["selftest", f"--scale={scale}", "--suite", "8"])
            assert exc.value.code == 2
            assert capsys.readouterr() == ("", SELFTEST_USAGE + "butterflies selftest: error: "
                                           "argument --scale: must be a finite number above 0, "
                                           f"got '{scale}'\n")

    @staticmethod
    def assert_refused(tmp_path, capsys, doc, msg):
        """validate on doc exits 1 with the one line 'refused: msg'."""
        p = tmp_path / "doc.json"
        p.write_text(jsonio.emit(doc))
        assert main(["validate", str(p)]) == 1
        assert capsys.readouterr() == ("", f"refused: {msg}\n")

    def test_ill_defined_map_document_is_refusal(self, tmp_path, capsys):
        # shape-valid JSON whose matrix fails to descend: exit 1, not 2
        doc = {"kind": "map",
               "src": {"ngens": 1, "relations": [["2"]]},
               "dst": {"ngens": 1, "relations": [["4"]]},
               "matrix": [["1"]]}
        self.assert_refused(tmp_path, capsys, doc,
                            "matrix does not define a homomorphism on the presentations")

    def test_ill_defined_differential_is_refusal(self, tmp_path, capsys):
        doc = {"kind": "complex",
               "deg-1": {"ngens": 1, "relations": [["2"]]},
               "deg0": {"ngens": 1, "relations": [["4"]]},
               "d": [["1"]]}
        self.assert_refused(tmp_path, capsys, doc,
                            "matrix does not define a homomorphism on the presentations")

    def test_ill_defined_wing_is_refusal(self, tmp_path, capsys):
        # IK2 over the carrier Z/4 + Z/4: i = (0;1) from Z/2 does not descend
        doc = jsonio.document("butterfly", jsonio.butterfly_to_json(ik2()))
        doc["carrier"]["relations"] = [["4", "0"], ["0", "4"]]
        self.assert_refused(tmp_path, capsys, doc,
                            "matrix does not define a homomorphism on the presentations")

    @pytest.mark.parametrize("change, msg", [
        ("witness", "zero witness condition phi*i = j fails"),
        ("endpoints", "y endpoints mismatch"),
        ("F endpoints", "y endpoints mismatch"),
        ("G endpoints", "z endpoints mismatch"),
    ])
    def test_ill_defined_sequence_is_refusal(self, tmp_path, capsys, change, msg):
        # E, F and G repeat the endpoints of Y and Z: each must agree with them
        doc = jsonio.document("sequence", jsonio.sequence_to_json(standard_seq_10(e2())))
        if change == "witness":
            doc["phi"] = [[str(int(e) + 1) for e in row] for row in doc["phi"]]
        else:
            slot, other = {"endpoints": ("E", "G"), "F endpoints": ("F", "G"),
                           "G endpoints": ("G", "F")}[change]
            doc[slot] = doc[other]
        self.assert_refused(tmp_path, capsys, doc, msg)

    @pytest.mark.parametrize("build, slot, msg", [
        (standard_seq_10, "F", "y endpoints mismatch"),
        (standard_seq_51, "G", "z endpoints mismatch"),
    ])
    def test_sequence_endpoints_compare_maps(self, tmp_path, capsys, build, slot, msg):
        # the slot's differential is [[1]]: Z/4 -> Z/2; [[3]] is the same map
        # written unreduced, [[0]] another map
        e = TwoTermComplex(FgAbMap(Z4, Z2, IntMatrix.from_rows([[1]])))
        doc = jsonio.document("sequence", jsonio.sequence_to_json(build(e)))
        assert doc[slot]["d"] == [["1"]]
        doc[slot]["d"] = [["3"]]
        p = tmp_path / "same.json"
        p.write_text(jsonio.emit(doc))
        assert main(["validate", str(p)]) == 0
        assert capsys.readouterr() == ("ok\n", "")
        doc[slot]["d"] = [["0"]]
        self.assert_refused(tmp_path, capsys, doc, msg)


def pretty(obj) -> str:
    return json.dumps(obj, sort_keys=True, indent=2) + "\n"


B_SQUARED = {
    "carrier": {"ngens": 2, "relations": [["2", "0"], ["0", "2"]]},
    "dst": {"d": [["0"]], "deg-1": {"ngens": 1, "relations": [["2"]]},
            "deg0": {"ngens": 1, "relations": [["2"]]}},
    "i": [["1"], ["0"]], "j": [["1"], ["0"]], "kind": "butterfly",
    "p": [["0", "1"]], "q": [["0", "1"]],
    "src": {"d": [["0"]], "deg-1": {"ngens": 1, "relations": [["2"]]},
            "deg0": {"ngens": 1, "relations": [["2"]]}},
}

# The bytes compose B B gave before map matrices were kept reduced, and
# before that under an earlier Smith elimination, with the iso2 witnesses
# against IK2 they gave; kept to show the re-pinned ones are the same
# butterfly and a valid 2-morphism (test_repinned_outputs_are_equivalent).
B_SQUARED_UNREDUCED = dict(B_SQUARED, i=[["-1"], ["-2"]], j=[["-1"], ["0"]],
                           p=[["0", "-1"]], q=[["-2", "1"]])
B_SQUARED_EARLIER = dict(B_SQUARED_UNREDUCED, i=[["1"], ["-2"]], q=[["-2", "-1"]])
ISO2_WITNESS = [[0, 1], [1, 0]]
ISO2_WITNESS_UNREDUCED = [[-2, 1], [-1, 0]]
ISO2_WITNESS_EARLIER = [[-2, -1], [-1, -1]]


def _inv(rank, *torsion):
    return {"rank": rank, "torsion": [str(d) for d in torsion]}


def _cx_inv(h_m1, h_0):
    return {"deg-1": _inv(0, 2), "deg0": _inv(0, 2), "h-1": h_m1, "h0": h_0}


B_REPORT = {
    "cofaithful": True, "epi": True, "faithful": True, "invertible": True, "mono": True,
    "coimage": _cx_inv(_inv(0, 2), _inv(0, 2)),
    "cokernel": _cx_inv(_inv(0), _inv(0)),
    "copip": _inv(0),
    "homology_action": {"h-1": [["1"]], "h0": [["1"]]},
    "image": _cx_inv(_inv(0, 2), _inv(0, 2)),
    "kernel": _cx_inv(_inv(0), _inv(0)),
    "pip": _inv(0),
}

SEQ10_LES = {
    "all_exact": True, "exact": [True] * 6,
    "groups": [_inv(0), _inv(0), _inv(1), _inv(1), _inv(0, 2), _inv(0)],
    "maps": [[], [[]], [["2"]], [["1"]], []],
}


def test_output_bytes_pinned(docs, capsys):
    """Exact stdout of the golden commands: these bytes are the CLI contract."""
    cases = [
        (["compose", docs["B.json"], docs["B.json"]], pretty(B_SQUARED)),
        (["report", docs["B.json"]], pretty(B_REPORT)),
        (["les", docs["seq10.json"]], pretty(SEQ10_LES)),
        (["compose", docs["B.json"], docs["B.json"], "--out", docs["out"]], ""),
        (["iso2", docs["out"], docs["IK2.json"]],
         "isomorphic\n" + pretty({"matrix": [[str(e) for e in r] for r in ISO2_WITNESS]})),
        (["iso2", docs["B.json"], docs["IK2.json"]], "none\n"),
        (["biext", "2", "2", "Z"], pretty({"pi0": _inv(0, 2), "pi1": _inv(0)})),
    ]
    for argv, want in cases:
        assert main(argv) == 0
        assert capsys.readouterr().out == want, argv[0]
    assert Path(docs["out"]).read_text() == pretty(B_SQUARED)


def test_repinned_outputs_are_equivalent(docs):
    """compose B B and its iso2 witness changed bytes, not meaning: every
    compose output parses to one butterfly (equal presentations and wings,
    and == on maps is equality of homomorphisms) that emits the pinned
    bytes, the unreduced witness parses to the pinned one, and every
    witness is a 2-morphism onto IK2."""
    outputs = [B_SQUARED_EARLIER, B_SQUARED_UNREDUCED, B_SQUARED]
    assert len({pretty(doc) for doc in outputs}) == 3
    parsed = [jsonio.parse_document(pretty(doc))[1] for doc in outputs]
    assert parsed[0] == parsed[1] == parsed[2]
    for b in parsed:
        assert jsonio.emit(jsonio.document("butterfly", jsonio.butterfly_to_json(b))) == pretty(B_SQUARED)
    ik = _read(docs["IK2.json"])
    for source in parsed:
        for rows in (ISO2_WITNESS_EARLIER, ISO2_WITNESS_UNREDUCED, ISO2_WITNESS):
            m = FgAbMap(source.carrier, ik.carrier, IntMatrix.from_rows(rows))
            inverse = hom_solve(ik.carrier, source.carrier,
                                pre=[(m, IntMatrix.identity(source.carrier.ngens))])
            TwoMorphism(source, ik, m, inverse)  # raises unless every condition holds
    unreduced = FgAbMap(ik.carrier, ik.carrier, IntMatrix.from_rows(ISO2_WITNESS_UNREDUCED))
    assert unreduced.matrix.to_lists() == ISO2_WITNESS


def _read(path):
    with open(path) as fh:
        return jsonio.parse_document(fh.read())[1]


class TestRoundTrip:
    def test_butterfly_byte_stable(self, docs):
        text1 = Path(docs["B.json"]).read_text()
        kind, obj = jsonio.parse_document(text1)
        text2 = jsonio.emit(jsonio.document(kind, jsonio.butterfly_to_json(obj)))
        assert text1 == text2
        kind2, obj2 = jsonio.parse_document(text2)
        assert jsonio.emit(jsonio.document(kind2, jsonio.butterfly_to_json(obj2))) == text2

    def test_sequence_byte_stable(self, docs):
        text1 = Path(docs["seq10.json"]).read_text()
        kind, obj = jsonio.parse_document(text1)
        text2 = jsonio.emit(jsonio.document(kind, jsonio.sequence_to_json(obj)))
        assert text1 == text2

    def test_all_document_kinds_byte_stable(self):
        from butterflies.fgab import FgAbGroup, FgAbMap
        from butterflies.intlinalg import IntMatrix
        z4 = FgAbGroup.cyclic(4)
        z2 = FgAbGroup.cyclic(2)
        cases = [
            ("group", jsonio.group_to_json(z4), jsonio.group_to_json),
            ("map", jsonio.map_to_json(FgAbMap(z4, z2, IntMatrix.from_rows([[1]]))),
             jsonio.map_to_json),
            ("complex", jsonio.complex_to_json(k2()), jsonio.complex_to_json),
        ]
        for kind, payload, rebuild in cases:
            text1 = jsonio.emit(jsonio.document(kind, payload))
            got_kind, obj = jsonio.parse_document(text1)
            assert got_kind == kind
            assert jsonio.emit(jsonio.document(kind, rebuild(obj))) == text1

    def test_integers_beyond_4300_digits(self, tmp_path, capsys):
        # int() and str() refuse more than 4300 digits by default
        big = ["9" * 5001, "-1" + "0" * 7999 + "7", "1" + "0" * 3999, "-" + "9" * 4000]
        values = (10 ** 5001 - 1, -(10 ** 8000) - 7, 10 ** 3999, 1 - 10 ** 4000)
        text = jsonio.emit({"kind": "group", "ngens": 1, "relations": [big]})
        path = tmp_path / "big.json"
        path.write_text(text)
        assert main(["validate", str(path)]) == 0
        assert capsys.readouterr().out == "ok\n"
        kind, g = jsonio.parse_document(text)
        assert g.relations.entries == values
        assert jsonio.emit(jsonio.document(kind, jsonio.group_to_json(g))) == text
        # an unquoted JSON number of that size parses to the same entry
        kind, g2 = jsonio.parse_document(text.replace(f'"{big[0]}"', big[0]))
        assert g2 == g

    def test_long_bad_literal_is_schema_error(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text(jsonio.emit({"kind": "group", "ngens": 1,
                                     "relations": [["9" * 5000 + "x"]]}))
        assert main(["validate", str(path)]) == 2
        err = capsys.readouterr().err
        assert "bad integer literal" in err and len(err) < 200
        # the message quotes the literal's repr whole up to 40 characters
        for lit, quoted in [("9" * 37 + "x", "'" + "9" * 37 + "x'"),
                            ("9" * 38 + "x", "'" + "9" * 38 + "x... (41 characters)")]:
            path.write_text(jsonio.emit({"kind": "group", "ngens": 1, "relations": [[lit]]}))
            assert main(["validate", str(path)]) == 2
            assert capsys.readouterr() == ("", f"schema error: bad integer literal {quoted}\n")

    def test_gen_output_revalidates(self, docs, tmp_path):
        for seed in (0, 3, 11):
            out = str(tmp_path / f"gen{seed}.json")
            assert main(["gen", "butterfly", "--seed", str(seed), "--out", out]) == 0
            assert main(["validate", out]) == 0
            text1 = Path(out).read_text()
            kind, obj = jsonio.parse_document(text1)
            assert jsonio.emit(jsonio.document(kind, jsonio.butterfly_to_json(obj))) == text1

    @pytest.mark.parametrize("kind", ["group", "complex"])
    def test_gen_group_and_complex(self, tmp_path, capsys, kind):
        for seed in (0, 3, 11):
            a, b = str(tmp_path / "a.json"), str(tmp_path / "b.json")
            assert main(["gen", kind, "--seed", str(seed), "--out", a]) == 0
            assert main(["gen", kind, "--seed", str(seed), "--out", b]) == 0
            assert Path(a).read_text() == Path(b).read_text()
            assert main(["validate", a]) == 0
            assert capsys.readouterr().out == "ok\n"

    def test_gen_deterministic(self, tmp_path):
        a = str(tmp_path / "a.json")
        b = str(tmp_path / "b.json")
        main(["gen", "sequence", "--seed", "4", "--out", a])
        main(["gen", "sequence", "--seed", "4", "--out", b])
        assert Path(a).read_text() == Path(b).read_text()

    @pytest.mark.parametrize("kind", ["group", "complex", "butterfly", "sequence"])
    def test_gen_seed_defaults_to_zero(self, tmp_path, kind):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        assert main(["gen", kind, "--out", str(a)]) == 0
        assert main(["gen", kind, "--seed", "0", "--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()


# every --help screen, byte for byte (COLUMNS=80), keyed by subcommand
# ("" is the top level)
HELP_SCREENS = {
    "": (
        "usage: butterflies [-h]\n"
        "                   {validate,compose,iso2,report,les,biext,gen,selftest} ...\n"
        "\n"
        "2-term complexes of f.g. abelian groups with butterflies as morphisms\n"
        "\n"
        "positional arguments:\n"
        "  {validate,compose,iso2,report,les,biext,gen,selftest}\n"
        "    validate            check a document against the axioms\n"
        "    compose             compose two butterflies (second after first)\n"
        "    iso2                search for a 2-morphism between parallel butterflies\n"
        "    report              full invariant report for one butterfly\n"
        "    les                 six-term homology sequence of an exact sequence\n"
        "    biext               Biext groups pi1, pi0 for shorthand groups (e.g.\n"
        "                        Z/2+Z)\n"
        "    gen                 generate a random fixture, deterministic per seed\n"
        "    selftest            run the acceptance suites\n"
        "\n"
        "options:\n"
        "  -h, --help            show this help message and exit\n"),
    "validate": (
        "usage: butterflies validate [-h] path\n"
        "\n"
        "positional arguments:\n"
        "  path\n"
        "\n"
        "options:\n"
        "  -h, --help  show this help message and exit\n"),
    "compose": (
        "usage: butterflies compose [-h] [--out OUT] first second\n"
        "\n"
        "positional arguments:\n"
        "  first\n"
        "  second\n"
        "\n"
        "options:\n"
        "  -h, --help  show this help message and exit\n"
        "  --out OUT\n"),
    "iso2": (
        "usage: butterflies iso2 [-h] [--out OUT] first second\n"
        "\n"
        "positional arguments:\n"
        "  first\n"
        "  second\n"
        "\n"
        "options:\n"
        "  -h, --help  show this help message and exit\n"
        "  --out OUT\n"),
    "report": (
        "usage: butterflies report [-h] [--out OUT] path\n"
        "\n"
        "positional arguments:\n"
        "  path\n"
        "\n"
        "options:\n"
        "  -h, --help  show this help message and exit\n"
        "  --out OUT\n"),
    "les": (
        "usage: butterflies les [-h] [--out OUT] path\n"
        "\n"
        "positional arguments:\n"
        "  path\n"
        "\n"
        "options:\n"
        "  -h, --help  show this help message and exit\n"
        "  --out OUT\n"),
    "biext": (
        "usage: butterflies biext [-h] [--out OUT] a b c\n"
        "\n"
        "positional arguments:\n"
        "  a\n"
        "  b\n"
        "  c\n"
        "\n"
        "options:\n"
        "  -h, --help  show this help message and exit\n"
        "  --out OUT\n"),
    "gen": (
        "usage: butterflies gen [-h] [--seed SEED] [--out OUT]\n"
        "                       {group,complex,butterfly,sequence}\n"
        "\n"
        "positional arguments:\n"
        "  {group,complex,butterfly,sequence}\n"
        "\n"
        "options:\n"
        "  -h, --help            show this help message and exit\n"
        "  --seed SEED\n"
        "  --out OUT\n"),
    "selftest": SELFTEST_USAGE + (
        "\n"
        "options:\n"
        "  -h, --help       show this help message and exit\n"
        "  --scale SCALE\n"
        "  --suite [N ...]  criterion numbers to run, e.g. 1 6 9\n"),
}


@pytest.mark.parametrize("command", HELP_SCREENS, ids=lambda command: command or "butterflies")
def test_help_bytes(command, capsys, monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")
    with pytest.raises(SystemExit) as exc:
        main([*command.split(), "--help"])
    assert exc.value.code == 0
    assert capsys.readouterr() == (HELP_SCREENS[command], "")


def test_import_cli_loads_the_traced_modules_and_not_selftest():
    """A fresh `import butterflies.cli` loads every module that
    perfbench/tracer.py's ENTRY_POINTS names, and not selftest, oracle or
    fixtures.

    The benchmark's import_library and the tracer's install find the library
    through the modules that importing butterflies.cli leaves in sys.modules,
    so those must stay eager.  selftest and what it imports serve only
    `butterflies selftest`; every other command would pay for loading them.
    """
    src = Path(cli.__file__).resolve().parent.parent
    code = "import sys, butterflies.cli; print(*sorted(sys.modules))"
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          check=True, env=dict(os.environ, PYTHONPATH=str(src)))
    loaded = set(proc.stdout.split())
    spec = importlib.util.spec_from_file_location(
        "tracer", Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py")
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    assert {f"butterflies.{name}" for name in tracer.ENTRY_POINTS} <= loaded
    assert not {"butterflies.selftest", "butterflies.oracle", "butterflies.fixtures"} & loaded


def test_import_cli_loads_neither_dataclasses_nor_inspect():
    """The value classes derive from intlinalg.Record, not dataclasses, so a
    fresh `import butterflies.cli` loads neither dataclasses nor the inspect
    (with ast, dis and tokenize) it imports: together they were about a third
    of the import time every CLI process pays.  Annotations are never
    evaluated, so typing is not loaded either.  -S keeps site .pth files,
    which may import anything, out of the count."""
    src = Path(cli.__file__).resolve().parent.parent
    code = "import sys, butterflies.cli; print(*sorted(sys.modules))"
    proc = subprocess.run([sys.executable, "-S", "-c", code], capture_output=True, text=True,
                          check=True, env=dict(os.environ, PYTHONPATH=str(src)))
    loaded = set(proc.stdout.split())
    assert "butterflies.cli" in loaded
    assert not {"dataclasses", "inspect", "typing"} & loaded


def test_selftest_smoke(capsys):
    # the CLI entry point dispatches into the same acceptance functions that
    # tests/test_acceptance.py runs at full scale
    assert main(["selftest", "--scale", "0.02", "--suite", "1", "8"]) == 0
    out = capsys.readouterr().out
    assert "PASS criterion 1" in out and "PASS criterion 8" in out


# -- fuzzing the golden documents ---------------------------------------------

TO_JSON = {"group": jsonio.group_to_json, "map": jsonio.map_to_json,
           "complex": jsonio.complex_to_json, "butterfly": jsonio.butterfly_to_json,
           "sequence": jsonio.sequence_to_json}

# long (past one 4000-digit conversion chunk), non-decimal and edge literals
LITERALS = ["9" * 4500, "-1" + "0" * 4100, "0x10", "1e3", "3_0", " 3", "+3", "\u0663",
            "", "-", "1.5", "007", "-0"]

JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers(-10 ** 30, 10 ** 30) | st.floats()
    | st.text(max_size=4) | st.sampled_from(LITERALS),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=4), inner, max_size=3),
    max_leaves=6)


@functools.lru_cache(maxsize=None)
def golden_texts() -> tuple:
    """B, IK2, Br, standard_seq_10(E2), a complex, a map and a group, emitted."""
    e = e2()
    objs = [("butterfly", bockstein()), ("butterfly", ik2()), ("butterfly", br()),
            ("sequence", standard_seq_10(e)), ("complex", e), ("map", e.d),
            ("group", FgAbGroup.from_invariants(1, (2, 6)))]
    return tuple(jsonio.emit(jsonio.document(kind, TO_JSON[kind](x))) for kind, x in objs)


def _at(node, path):
    return functools.reduce(lambda n, key: n[key], path, node)


def _paths(node, at=()):
    """The path (keys and indices) of every value below node."""
    items = node.items() if isinstance(node, dict) else enumerate(node) if isinstance(node, list) else ()
    for key, child in items:
        yield at + (key,)
        yield from _paths(child, at + (key,))


@st.composite
def json_mutants(draw, texts=None) -> bytes:
    """A golden document (one of texts, by default any) with one or two
    changes: a matrix entry (of a relation matrix, a differential or a wing)
    set to another small integer, keeping every shape, so the mutant passes
    the schema and meets the algebra; a leaf set to a small decimal or to an
    odd literal; or any value replaced, deleted or (a list item, such as a
    matrix row) duplicated."""
    doc = json.loads(draw(st.sampled_from(texts or golden_texts())))
    for _ in range(draw(st.integers(1, 2))):
        paths = list(_paths(doc))
        if not paths:
            break
        op = draw(st.sampled_from(["matrix", "matrix", "matrix", "entry", "literal",
                                   "replace", "delete", "duplicate"]))
        leaves = [p for p in paths if not isinstance(_at(doc, p), (dict, list))]
        entries = [p for p in leaves if len(p) > 2 and isinstance(_at(doc, p[:-2]), list)]
        items = [p for p in paths if isinstance(_at(doc, p[:-1]), list)]
        path = draw(st.sampled_from({"matrix": entries, "entry": leaves, "literal": leaves,
                                     "duplicate": items}.get(op) or paths))
        parent, key = _at(doc, path[:-1]), path[-1]
        if op in ("matrix", "entry"):
            parent[key] = str(draw(st.integers(-4, 8)))
        elif op == "literal":
            parent[key] = draw(st.sampled_from(LITERALS))
        elif op == "replace":
            parent[key] = draw(JSON_VALUES)
        elif op == "delete":
            del parent[key]
        elif isinstance(parent, list):
            parent.insert(key, copy.deepcopy(parent[key]))
    return json.dumps(doc, indent=draw(st.sampled_from([None, 2]))).encode()


@st.composite
def byte_mutants(draw, texts=None) -> bytes:
    """A golden document's bytes (one of texts, by default any) with one to
    four bytes set, inserted or deleted, or a truncation; inserts include a
    byte order mark that is not UTF-8 and nesting deeper than the recursion
    limit."""
    data = bytearray(draw(st.sampled_from(texts or golden_texts())).encode())
    for _ in range(draw(st.integers(1, 4))):
        pos = draw(st.integers(0, len(data)))
        op = draw(st.sampled_from(["set", "insert", "delete", "truncate"]))
        if op == "set" and pos < len(data):
            data[pos] = draw(st.integers(0, 255))
        elif op == "insert":
            data[pos:pos] = draw(st.binary(min_size=1, max_size=4)
                                 | st.sampled_from([b"\xff\xfe", b"[" * 100_000]))
        elif op == "delete":
            del data[pos:pos + draw(st.integers(1, 8))]
        elif op == "truncate":
            del data[pos:]
    return bytes(data)


def _run(argv) -> tuple:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


def _check_documented_outcome(data: bytes):
    """validate, report and les exit 0, 1 or 2 with no traceback, and a
    document that validates round-trips byte-stably through emit(parse(.))."""
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "doc.json")
        with open(path, "wb") as fh:
            fh.write(data)
        for command in ("validate", "report", "les"):
            code, out, err = _run([command, path])
            assert code in (0, 1, 2), (command, err)
            assert "Traceback" not in out + err, command
            if command == "validate" and code == 0:
                kind, obj = jsonio.parse_document(data.decode("utf-8"))
                text = jsonio.emit(jsonio.document(kind, TO_JSON[kind](obj)))
                kind2, obj2 = jsonio.parse_document(text)
                assert jsonio.emit(jsonio.document(kind2, TO_JSON[kind2](obj2))) == text


def _check_two_document_outcome(data: bytes, golden: str):
    """compose and iso2, with the mutant first and then second beside a
    golden butterfly, exit 0, 1 or 2 with no traceback."""
    with tempfile.TemporaryDirectory() as tmp:
        mutant, good = os.path.join(tmp, "mutant.json"), os.path.join(tmp, "golden.json")
        with open(mutant, "wb") as fh:
            fh.write(data)
        with open(good, "w") as fh:
            fh.write(golden)
        for command in ("compose", "iso2"):
            for pair in ((mutant, good), (good, mutant)):
                code, out, err = _run([command, *pair])
                assert code in (0, 1, 2), (command, pair, err)
                assert "Traceback" not in out + err, (command, pair)


class TestFuzzGoldenDocuments:
    """Mutants of the golden documents only ever meet the documented exit
    codes: 0, 1 or 2, never 3 (an internal error) and never a traceback."""

    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(json_mutants())
    def test_json_level_mutants(self, data):
        _check_documented_outcome(data)

    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(byte_mutants())
    def test_byte_level_mutants(self, data):
        _check_documented_outcome(data)

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(st.sampled_from(golden_texts()[:3]).flatmap(lambda golden: st.tuples(
        json_mutants((golden,)) | byte_mutants((golden,)), st.just(golden))))
    def test_two_document_commands(self, pair):
        """A mutant of B, IK2 or Br (golden_texts()[:3]) beside the golden
        butterfly it came from, so the endpoints often still match."""
        _check_two_document_outcome(*pair)
