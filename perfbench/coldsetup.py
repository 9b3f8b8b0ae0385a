"""Time one cold set-up of a workload in a fresh interpreter.

usage: python3 perfbench/coldsetup.py WORKLOAD SEED WORKDIR

A set-up is the import of butterflies.cli and butterflies.fixtures (which
import every module), input generation from SEED, and clearing every
lru_cache in butterflies.*.  The library is imported before anything of the
benchmark's own, so the import time includes every standard-library module
the library pulls in.  Prints {"setup_s": ..., "import_s": ...} in seconds.
"""

import os
import sys
from time import perf_counter

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"))


def main() -> int:
    name, seed, workdir = sys.argv[1], int(sys.argv[2]), sys.argv[3]
    t0 = perf_counter()
    import butterflies.cli  # noqa: F401
    import butterflies.fixtures  # noqa: F401
    import_s = perf_counter() - t0
    import json
    import random
    from pathlib import Path
    from types import SimpleNamespace

    import tracer
    from workloads import WORKLOADS
    t1 = perf_counter()
    lib = SimpleNamespace(**tracer.library_modules())
    WORKLOADS[name]().setup(lib, random.Random(seed), Path(workdir))
    tracer.clear_caches()
    setup_s = import_s + perf_counter() - t1
    print(json.dumps({"setup_s": setup_s, "import_s": import_s}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
