import json

import pytest

from butterflies import jsonio
from butterflies.cli import main
from butterflies.fixtures import bockstein, ik2, br, e2, k2
from butterflies.exactness import standard_seq_10
from butterflies.butterfly import zero_butterfly


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


class TestExitCodes:
    """The documented golden set: 0 success, 1 refusal, 2 schema."""

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

    def test_ill_defined_map_document_is_refusal(self, tmp_path):
        # shape-valid JSON whose matrix fails to descend: exit 1, not 2
        doc = {"kind": "map",
               "src": {"ngens": 1, "relations": [["2"]]},
               "dst": {"ngens": 1, "relations": [["4"]]},
               "matrix": [["1"]]}
        p = tmp_path / "badmap.json"
        p.write_text(jsonio.emit(doc))
        assert main(["validate", str(p)]) == 1

    def test_ill_defined_differential_is_refusal(self, tmp_path):
        doc = {"kind": "complex",
               "deg-1": {"ngens": 1, "relations": [["2"]]},
               "deg0": {"ngens": 1, "relations": [["4"]]},
               "d": [["1"]]}
        p = tmp_path / "badcx.json"
        p.write_text(jsonio.emit(doc))
        assert main(["validate", str(p)]) == 1


def pretty(obj) -> str:
    return json.dumps(obj, sort_keys=True, indent=2) + "\n"


B_SQUARED = {
    "carrier": {"ngens": 2, "relations": [["2", "0"], ["0", "2"]]},
    "dst": {"d": [["0"]], "deg-1": {"ngens": 1, "relations": [["2"]]},
            "deg0": {"ngens": 1, "relations": [["2"]]}},
    "i": [["1"], ["-2"]], "j": [["-1"], ["0"]], "kind": "butterfly",
    "p": [["0", "-1"]], "q": [["-2", "-1"]],
    "src": {"d": [["0"]], "deg-1": {"ngens": 1, "relations": [["2"]]},
            "deg0": {"ngens": 1, "relations": [["2"]]}},
}


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
         "isomorphic\n" + pretty({"matrix": [["-2", "-1"], ["-1", "-1"]]})),
        (["iso2", docs["B.json"], docs["IK2.json"]], "none\n"),
        (["biext", "2", "2", "Z"], pretty({"pi0": _inv(0, 2), "pi1": _inv(0)})),
    ]
    for argv, want in cases:
        assert main(argv) == 0
        assert capsys.readouterr().out == want, argv[0]
    assert open(docs["out"]).read() == pretty(B_SQUARED)


class TestRoundTrip:
    def test_butterfly_byte_stable(self, docs):
        text1 = open(docs["B.json"]).read()
        kind, obj = jsonio.parse_document(text1)
        text2 = jsonio.emit(jsonio.document(kind, jsonio.butterfly_to_json(obj)))
        assert text1 == text2
        kind2, obj2 = jsonio.parse_document(text2)
        assert jsonio.emit(jsonio.document(kind2, jsonio.butterfly_to_json(obj2))) == text2

    def test_sequence_byte_stable(self, docs):
        text1 = open(docs["seq10.json"]).read()
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

    def test_gen_output_revalidates(self, docs, tmp_path):
        for seed in (0, 3, 11):
            out = str(tmp_path / f"gen{seed}.json")
            assert main(["gen", "butterfly", "--seed", str(seed), "--out", out]) == 0
            assert main(["validate", out]) == 0
            text1 = open(out).read()
            kind, obj = jsonio.parse_document(text1)
            assert jsonio.emit(jsonio.document(kind, jsonio.butterfly_to_json(obj))) == text1

    def test_gen_deterministic(self, tmp_path):
        a = str(tmp_path / "a.json")
        b = str(tmp_path / "b.json")
        main(["gen", "sequence", "--seed", "4", "--out", a])
        main(["gen", "sequence", "--seed", "4", "--out", b])
        assert open(a).read() == open(b).read()


def test_selftest_smoke(capsys):
    # the CLI entry point dispatches into the same acceptance functions that
    # tests/test_acceptance.py runs at full scale
    assert main(["selftest", "--scale", "0.02", "--suite", "1", "8"]) == 0
    out = capsys.readouterr().out
    assert "PASS criterion 1" in out and "PASS criterion 8" in out
