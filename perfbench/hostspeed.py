"""Scale measured times to a reference host speed.

The benchmark host shares its CPUs and memory with other tenants, and the
same work takes a varying time.  Measured on the 2-vCPU x86-64 container
this benchmark was built on (Python 3.11): the same presentations run, seed
and inputs fixed, ranged from 152 to 219 ops/s over eight runs in four
minutes, and the reference kernel below took 84 us in one minute and 139 us
in another.  So the runner times the kernel after every op, and scales each
op's time by REFERENCE_S / (median kernel time of the ~100 ops around it);
set-up time is scaled by the median kernel time between set-ups.  A scaled
time reads as the time the work would take while the kernel takes
REFERENCE_S.

The kernel is interpreter work on small integers (6x6 matrix products and
tuple hashing), as the library's is.  It runs twice after each op and only
the second run is timed: the first re-warms the core's caches and branch
predictors, so the timed run measures the core's present speed and not what
the op left behind.  A kernel that also walks a few MB of Python objects
steadies the figures more, but partly by tracking the op's own footprint:
after slowed ops it read up to 11% slower, so scaling hid most of a 9-12%
slowdown.  README.md ("Does scaling keep a real change?") gives the
measurements.  For the CLI workload, whose ops are mostly interpreter
start-up, the reference also starts an empty interpreter
(SPAWN_REFERENCE_S).  The run's record line keeps the unscaled figures and
the median reference times.
"""

from __future__ import annotations

import statistics
import subprocess
import sys
from time import perf_counter

REFERENCE_S = 140e-6        # typical kernel time between ops on the container named above
SPAWN_REFERENCE_S = 15e-3   # typical `python3 -S -c pass` there
HALF_WINDOW = 50             # samples on each side of an op in its running median


class HostSpeed:
    """The reference kernel and its data; build one per process."""

    def __init__(self):
        self._mat = [[(i * 7 + j * 3) % 11 - 5 for j in range(6)] for i in range(6)]
        for _ in range(50):  # let the interpreter specialise the kernel's bytecode
            self.kernel()

    def kernel(self) -> float:
        """Run the fixed reference work twice; the second run's duration in
        seconds.  The untimed first run re-warms the core's caches and branch
        predictors after whatever ran before, so the timed run does not
        depend on what the op before it did."""
        self._work()
        t0 = perf_counter()
        self._work()
        return perf_counter() - t0

    def _work(self) -> None:
        a = self._mat
        for _ in range(2):
            b = [[sum(a[i][k] * a[k][j] for k in range(6)) for j in range(6)] for i in range(6)]
            {tuple(r): k for k, r in enumerate(b)}

    @staticmethod
    def spawn() -> float:
        """Start an interpreter that does nothing; its wall time in seconds."""
        t0 = perf_counter()
        subprocess.run([sys.executable, "-S", "-c", "pass"], check=True)
        return perf_counter() - t0


def scale(ref_times: list, reference_s: float = REFERENCE_S) -> float:
    return reference_s / statistics.median(ref_times)


def scaled(times: list, ref_times: list, reference_s: float = REFERENCE_S) -> list:
    """Each time scaled by the running median of the reference times around
    it; ref_times[i] was taken right after times[i]."""
    n = len(ref_times)
    return [t * scale(ref_times[max(0, i - HALF_WINDOW):min(n, i + HALF_WINDOW + 1)], reference_s)
            for i, t in enumerate(times)]
