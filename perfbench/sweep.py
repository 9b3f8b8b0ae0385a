"""Run the benchmark over several seeds and summarise each metric.

usage: python3 perfbench/sweep.py [--against FILE]

Runs perfbench/run.py untraced once per workload of BENCHMARK.json and seed
1..10, for its run_seconds, one run at a time, from the repository root.
For each workload it prints the median reference kernel time of the runs
(see hostspeed.py), and for each metric it prints the median, the quartiles
(statistics.quantiles, n=4) and the spread (q3 - q1) / median next to the
metric's bound from BENCHMARK.json.  With --against it also prints how far
each median moved from an earlier sweep, as a share of that sweep's median,
in the direction the metric counts as worse.  Every run and the summary go
to perfbench/results/sweep-<commit>-<time>.json.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SEEDS = range(1, 11)
sys.path.insert(0, str(HERE))
from run import git_commit  # noqa: E402


def run_once(workload: str, seed: int, seconds: int) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    t0 = time.perf_counter()
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                          text=True, timeout=600)
    wall = time.perf_counter() - t0
    lines = proc.stdout.strip().splitlines()
    if proc.returncode or len(lines) < 2:
        raise SystemExit(f"{workload} seed {seed} failed ({proc.returncode}):\n{proc.stderr[-2000:]}")
    return {"seed": seed, "wall_s": wall, "record": json.loads(lines[-2])["record"],
            "result": json.loads(lines[-1])}


def summarise(runs: list, spec: dict) -> dict:
    out = {}
    for name in runs[0]["result"]["metrics"]:
        values = [r["result"]["metrics"][name]["value"] for r in runs]
        med = statistics.median(values)
        q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (med, med, med)
        out[name] = {"median": med, "q1": q1, "q3": q3,
                     "spread": (q3 - q1) / med if med else 0.0,
                     "bound": spec.get(name, {}).get("bound"),
                     "better": spec.get(name, {}).get("better")}
    return out


def main() -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    spec = {m["name"]: m for m in bench["end_to_end"]}
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--against", type=Path, help="an earlier sweep's results file")
    args = ap.parse_args()
    earlier = json.loads(args.against.read_text())["summary"] if args.against else {}

    all_runs, summary = {}, {}
    for w in [entry["name"] for entry in bench["workloads"]]:
        runs = []
        for seed in SEEDS:
            r = run_once(w, seed, bench["run_seconds"])
            runs.append(r)
            print(f"  {w} seed {seed}: {r['record']['ops']} ops, {r['wall_s']:.1f} s wall, "
                  f"correct={r['result']['correct']}", file=sys.stderr)
        all_runs[w] = runs
        summary[w] = summarise(runs, spec)
        walls = [r["wall_s"] for r in runs]
        kernel_us = statistics.median(r["record"]["kernel_median_us"] for r in runs)
        print(f"{w}: {len(runs)} runs, wall median {statistics.median(walls):.1f} s, "
              f"max {max(walls):.1f} s, kernel median {kernel_us:.0f} us, "
              f"all correct: {all(r['result']['correct'] for r in runs)}")
        for name, s in summary[w].items():
            line = (f"  {name:44s} median {s['median']:12.6g}  q1 {s['q1']:12.6g}  "
                    f"q3 {s['q3']:12.6g}  spread {s['spread']:7.2%}")
            if s["bound"] is not None:
                flag = "" if s["spread"] <= s["bound"] / 3 else "  <- over bound/3"
                line += f"  bound {s['bound']:.0%}{flag}"
            then = earlier.get(w, {}).get(name)
            if then and then["median"] and s["better"]:
                moved = (s["median"] - then["median"]) / then["median"]
                worse = moved if s["better"] == "lower" else -moved
                line += f"  worse by {worse:+.2%}"
                if worse > s["bound"]:
                    line += "  <- over bound"
            print(line)

    out_dir = HERE / "results"
    out_dir.mkdir(exist_ok=True)
    stamp = time.strftime("%Y%m%dT%H%M%S")
    path = out_dir / f"sweep-{git_commit()[:12]}-{stamp}.json"
    path.write_text(json.dumps({"summary": summary, "runs": all_runs}, indent=1))
    print(f"wrote {path.relative_to(ROOT)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
