"""Smoke check of the benchmark itself, at tiny size (about a minute).

usage: python3 perfbench/smoke.py

1. Runs every workload untraced and traced with a tiny phase, and asserts
   that the last line has exactly the contract's keys, that every op was
   correct, and that the metrics are exactly BENCHMARK.json's end_to_end
   (untraced) or per_layer (traced) names, each with its unit.
2. Feeds each workload's checker one real answer, which must pass, and
   deliberately corrupted answers, which must each be flagged.
3. Asserts that a phase cut short by its wall limit counts each op it did
   not run as a failed op.
"""

from __future__ import annotations

import json
import random
import shutil
import subprocess
import sys
from pathlib import Path
from time import perf_counter
from types import SimpleNamespace

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
import run  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def check_emitted(bench: dict) -> None:
    want = {0: {m["name"]: m["unit"] for m in bench["end_to_end"]},
            1: {m["name"]: m["unit"] for m in bench["per_layer"]}}
    for w in WORKLOADS:
        for trace in (0, 1):
            proc = subprocess.run(
                [sys.executable, str(HERE / "run.py"), "--workload", w, "--seed", "7",
                 "--seconds", "0.2", "--min-ops", "3", "--trace", str(trace)],
                cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, timeout=300)
            assert proc.returncode == 0, f"{w} trace {trace}: exit {proc.returncode}\n{proc.stderr}"
            lines = proc.stdout.strip().splitlines()
            record = json.loads(lines[-2])["record"]
            assert {"seed", "ops", "nproc", "python", "commit"} <= set(record), record
            result = json.loads(lines[-1])
            assert set(result) == {"correct", "attempted", "failed", "metrics"}, set(result)
            assert result["correct"] and result["failed"] == 0, (w, trace, record["failures"])
            assert isinstance(result["attempted"], int) and result["attempted"] >= 3
            got = {name: m["unit"] for name, m in result["metrics"].items()}
            assert got == want[trace], (w, trace, set(got) ^ set(want[trace]))
            assert all(isinstance(m["value"], (int, float)) for m in result["metrics"].values())
            print(f"ok   {w} trace {trace}: {len(got)} metrics with units, "
                  f"{result['attempted']} ops correct")


def _with(obj, **changes):
    """A stand-in for obj with some attributes replaced (library values are frozen)."""
    ns = SimpleNamespace(**{k: getattr(obj, k) for k in dir(obj) if not k.startswith("__")})
    for k, v in changes.items():
        setattr(ns, k, v)
    return ns


def corruptions(name: str, lib, spec, answer):
    """(label, corrupted answer) pairs the checker must reject."""
    im = lib.intlinalg.IntMatrix
    if name == "category":
        assoc, unit = answer
        zero_m = _with(assoc.m, matrix=im.zeros(assoc.m.matrix.rows, assoc.m.matrix.cols))
        return [("2-morphism missing", (None, unit)),
                ("carrier map zeroed", (_with(assoc, m=zero_m), unit))]
    if name == "les":
        rand, std = answer
        verdicts = rand.verdicts[:-1] + (False,)
        out = [("one verdict false", (_with(rand, verdicts=verdicts, all_exact=False), std))]
        if spec[2] is not None:
            bad_delta = _with(std.delta, matrix=im.from_rows([[0]]))
            out.append(("delta changed", (rand, _with(std, delta=bad_delta))))
        return out
    if name == "presentations":
        cok, ker, img = answer
        doubled = _with(ker.incl, matrix=ker.incl.matrix * 2)
        zero_to = _with(cok.proj, matrix=im.zeros(cok.proj.matrix.rows, cok.proj.matrix.cols))
        return [("kernel inclusion doubled", (cok, _with(ker, incl=doubled), img)),
                ("cokernel projection zeroed", (_with(cok, proj=zero_to), ker, img))]
    if name == "cli":
        code, out, err = answer
        return [("nonzero exit", (1, out, "refused: something")),
                ("changed output", (0, out.replace("o", "0", 1) + "x", err))]
    raise ValueError(name)


def shows_corruption(name: str, spec, answer) -> bool:
    """Is this answer one whose corruptions must be visible: a nontrivial
    carrier or quotient, or a known connecting map?"""
    if name == "category":
        return answer[0].target.carrier.ngens > 0
    if name == "les":
        return spec[2] is not None
    if name == "presentations":
        return spec[3] > 1
    return True


def check_checkers() -> None:
    sys.path.insert(0, str(run.SRC))
    for name, cls in WORKLOADS.items():
        workdir = HERE / "_work" / f"smoke-{name}"
        workdir.mkdir(parents=True, exist_ok=True)
        try:
            workload = cls()
            lib = run.import_library()
            specs = workload.setup(lib, random.Random(11), workdir)
            for spec in specs:
                answer = workload.op(lib, spec)
                if shows_corruption(name, spec, answer):
                    break
            assert workload.verify(spec, answer) is None, f"{name}: a real answer was rejected"
            for label, bad in corruptions(name, lib, spec, answer):
                reason = workload.verify(spec, bad)
                assert reason, f"{name}: corrupted answer ({label}) passed the checker"
                print(f"ok   {name}: flags {label}: {reason}")
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
    try:
        (HERE / "_work").rmdir()
    except OSError:  # a benchmark run is using it
        pass


def check_wall_limit() -> None:
    latencies, failures, _, _ = run.timed_phase(WORKLOADS["category"](), None, [None], 5, None,
                                                perf_counter() - 1.0)
    assert not latencies and len(failures) == 5, failures
    print(f"ok   a phase past its wall limit fails its unrun ops: {failures[0]}")


def main() -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    check_emitted(bench)
    check_checkers()
    check_wall_limit()
    print("smoke ok")
    return 0


if __name__ == "__main__":
    sys.exit(main())
