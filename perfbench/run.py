"""Run one benchmark workload against the library in ../src.

usage: python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

A run sets up once in this process (import, inputs from the seed, every
lru_cache cleared) and then runs the timed phase: a closed loop with one
client, one op at a time, for a fixed number of ops, --seconds times the
workload's rate at the commit that defined the benchmark (at least
--min-ops).  So a run measures about --seconds of op time there, and every
commit does the same work.  Each answer is checked right after its op,
outside the op's timer, and then hostspeed's reference kernel is timed;
reported times are scaled to the reference host speed (see hostspeed.py),
and the record line keeps the unscaled figures.  A phase that has not
finished its ops by its share of RUN_WALL_LIMIT_S stops, and each op it
did not run counts as a failed op.

setup_s is timed after the phase, on cold set-ups each in a fresh
interpreter (coldsetup.py): at least SETUP_REPEATS of them and for at least
SETUP_MIN_S, and the median is reported.

--trace 0 reports the end-to-end metrics.  --trace 1 runs the same phase
untraced, clears the caches, runs it again with spans on the library's
entry points, and reports the per-layer metrics; trace.overhead_frac
compares the two phases' ops_per_s.

The last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics.  The line before it records the seed, op
count, CPUs, Python version and git commit of the run.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import os
import platform
import random
import resource
import shutil
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter
from types import SimpleNamespace

import hostspeed
import tracer
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SETUP_REPEATS = 3
SETUP_MIN_S = 4.0     # short set-ups repeat more, so their median is as steady
SETUP_KERNELS = 20    # reference kernel samples after each set-up
RUN_WALL_LIMIT_S = 130.0    # phases end by then, which leaves time for the set-ups in 180 s


def import_library():
    """Import the library afresh, dropping any earlier import; its modules."""
    for name in [n for n in sys.modules
                 if n == tracer.PACKAGE or n.startswith(tracer.PACKAGE + ".")]:
        del sys.modules[name]
    importlib.import_module("butterflies.cli")
    importlib.import_module("butterflies.fixtures")
    return SimpleNamespace(**tracer.library_modules())


def set_up(workload, seed: int, workdir: Path):
    """The set-up the timed phase uses; (lib, specs)."""
    lib = import_library()
    specs = workload.setup(lib, random.Random(seed), workdir)
    tracer.clear_caches()
    gc.collect()
    return lib, specs


def cold_setups(workload, seed: int, workdir: Path, speed):
    """Set up in fresh interpreters, at least SETUP_REPEATS times and for at
    least SETUP_MIN_S; (set-up times, import times, reference kernel times
    taken between the set-ups)."""
    setup_s, import_s, kernels = [], [], []
    while len(setup_s) < SETUP_REPEATS or sum(setup_s) < SETUP_MIN_S:
        probe_dir = workdir / f"setup{len(setup_s)}"
        probe_dir.mkdir()
        proc = subprocess.run(
            [sys.executable, str(HERE / "coldsetup.py"), workload.name, str(seed), str(probe_dir)],
            stdout=subprocess.PIPE, text=True, check=True, timeout=120)
        times = json.loads(proc.stdout)
        setup_s.append(times["setup_s"])
        import_s.append(times["import_s"])
        kernels.extend(speed.kernel() for _ in range(SETUP_KERNELS))
    return setup_s, import_s, kernels


def timed_phase(workload, lib, specs, ops: int, speed, wall_end: float):
    """One closed-loop phase that stops at perf_counter() wall_end: (op
    latencies, failure reasons, reference kernel times, reference spawn
    times) with times in seconds.  Ops left unrun are failures."""
    latencies, failures, kernels, spawns = [], [], [], []
    while len(latencies) < ops and perf_counter() < wall_end:
        spec = specs[len(latencies) % len(specs)]
        t0 = perf_counter()
        try:
            answer = workload.op(lib, spec)
            error = None
        except Exception as exc:  # a failed op is counted, not fatal
            answer, error = None, f"op raised {type(exc).__name__}: {exc}"
        latencies.append(perf_counter() - t0)
        if error is None:
            try:
                error = workload.verify(spec, answer)
            except Exception as exc:  # a malformed answer is a wrong answer
                error = f"check raised {type(exc).__name__}: {exc}"
        if error:
            failures.append(error)
        kernels.append(speed.kernel())
        if workload.spawns:
            spawns.append(speed.spawn())
    if len(latencies) < ops:
        failures += [f"phase stopped at the wall limit after {len(latencies)} of {ops} ops"] * (
            ops - len(latencies))
    return latencies, failures, kernels, spawns


def scaled_timings(latencies, kernels, spawns) -> dict:
    """timings() of the latencies scaled to the reference host speed: by the
    kernel, plus the interpreter spawn for workloads whose ops spawn one."""
    if spawns:
        refs = [k + s for k, s in zip(kernels, spawns)]
        reference_s = hostspeed.REFERENCE_S + hostspeed.SPAWN_REFERENCE_S
    else:
        refs, reference_s = kernels, hostspeed.REFERENCE_S
    return timings(hostspeed.scaled(latencies, refs, reference_s))


def timings(latencies: list) -> dict:
    ms = [x * 1e3 for x in latencies]
    return {
        "ops_per_s": (len(latencies) / sum(latencies), "1/s"),
        "op_p50_ms": (statistics.median(ms), "ms"),
        "op_p90_ms": (statistics.quantiles(ms, n=10)[8], "ms"),
    }


def peak_rss_mb(children: bool) -> float:
    who = resource.RUSAGE_CHILDREN if children else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024.0  # ru_maxrss is in KiB on Linux


def git_commit() -> str:
    """HEAD of the checkout from .git, or 'unknown' outside a git clone."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def run(args, workdir: Path):
    wall_end = perf_counter() + RUN_WALL_LIMIT_S
    workload = WORKLOADS[args.workload]()
    ops = max(args.min_ops, round(args.seconds * workload.rate))
    speed = hostspeed.HostSpeed()
    lib, specs = set_up(workload, args.seed, workdir)
    phase_end = wall_end - (wall_end - perf_counter()) / 2 if args.trace else wall_end
    latencies, failures, kernels, spawns = timed_phase(workload, lib, specs, ops, speed, phase_end)
    attempted = ops
    scaled = scaled_timings(latencies, kernels, spawns)
    in_children = args.workload == "cli"
    peak_rss = peak_rss_mb(in_children)  # before the set-up children below
    if args.trace:
        tracer.clear_caches()
        gc.collect()
        if in_children:
            workload.trace_dir = workdir / "trace"
            workload.trace_dir.mkdir()
        else:
            tr = tracer.Tracer()
            tr.install()
        traced, traced_failures, *traced_refs = timed_phase(workload, lib, specs, ops, speed,
                                                            wall_end)
        attempted += ops
        failures += traced_failures
    setup_s, import_s, setup_kernels = cold_setups(workload, args.seed, workdir, speed)
    if not args.trace:
        metrics = dict(scaled)
        metrics["setup_s"] = (statistics.median(setup_s) * hostspeed.scale(setup_kernels), "s")
        metrics["peak_rss_mb"] = (peak_rss, "MB")
        metrics["ok_frac"] = (1.0 - len(failures) / attempted, "ratio")
    else:
        if in_children:
            snap = tracer.merge([json.loads(p.read_text(encoding="utf-8"))
                                 for p in sorted(workload.trace_dir.iterdir())])
        else:
            snap = tr.finish()
            snap["import_s"] = import_s
        traced_rate = scaled_timings(traced, *traced_refs)["ops_per_s"][0]
        overhead = scaled["ops_per_s"][0] / traced_rate - 1.0
        metrics = tracer.layer_metrics(snap, sum(traced), overhead)
    raw = {name: v for name, (v, _) in timings(latencies).items()}
    raw["setup_s"] = statistics.median(setup_s)
    record = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "seconds": args.seconds, "ops": len(latencies), "setups": len(setup_s), "nproc": os.cpu_count(),
        "python": platform.python_version(), "commit": git_commit(),
        "unscaled": raw, "kernel_median_us": statistics.median(kernels) * 1e6,
        "spawn_median_ms": statistics.median(spawns) * 1e3 if spawns else None,
        "failures": failures[:5],
    }
    print(json.dumps({"record": record}))
    print(json.dumps({
        "correct": not failures, "attempted": attempted, "failed": len(failures),
        "metrics": {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()},
    }))


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--min-ops", type=int, default=100,
                    help="ops a phase runs at least (100 leaves 10 samples beyond p90)")
    args = ap.parse_args(argv)
    if not (SRC / tracer.PACKAGE / "__init__.py").is_file():
        print(f"run.py: library source not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    # One CPU for the whole run, child processes included: the reference
    # kernel then times the core the ops run on.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    workdir = HERE / "_work" / f"{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True)
    try:
        run(args, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()
        except OSError:  # another run still uses it
            pass
    return 0


if __name__ == "__main__":
    sys.exit(main())
