"""Child-process entry for the CLI workload: `butterflies <args>` from source.

usage: python3 perfbench/cli_shim.py TRACE_PATH COMMAND [ARGS...]

With TRACE_PATH '-' this does exactly what the installed `butterflies`
script does.  Otherwise it times the import, installs the tracer before
`main` runs, and writes the tracer's snapshot to TRACE_PATH as JSON.
"""

import json
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))


def traced(trace_path: str, argv: list) -> int:
    t0 = perf_counter()
    import butterflies.cli
    import_s = perf_counter() - t0
    import tracer
    tr = tracer.Tracer()
    tr.install()
    try:
        code = butterflies.cli.main(argv)
    finally:
        snap = tr.finish()
        snap["import_s"] = [import_s]
        Path(trace_path).write_text(json.dumps(snap), encoding="utf-8")
    return code


if __name__ == "__main__":
    trace_path, argv = sys.argv[1], sys.argv[2:]
    if trace_path == "-":
        from butterflies.cli import main
        sys.exit(main(argv))
    sys.exit(traced(trace_path, argv))
