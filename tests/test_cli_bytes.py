"""The CLI's stdout bytes beyond the golden commands, pinned by digest.

`cli_bytes.json` holds the sha256 of stdout for `gen butterfly` and `gen
sequence` on seeds 0-9, and for `report` and self-`iso2` on each generated
butterfly and `les` on each generated sequence.  A change that moves any of
these bytes fails here, naming the commands whose bytes moved.  When a move
is intended (a new elimination order, say), check that each moved output
still validates with the same invariants and verdicts, list the moves in
CHANGES.md, and rewrite the file with

    PYTHONPATH=src python tests/test_cli_bytes.py
"""

import contextlib
import hashlib
import io
import json
import tempfile
from pathlib import Path

from butterflies.cli import main

MANIFEST = Path(__file__).with_name("cli_bytes.json")
SEEDS = range(10)
# the commands run on each generated document, with how many times it is passed
FOLLOW_UPS = {"butterfly": (("report", 1), ("iso2", 2)), "sequence": (("les", 1),)}


def _stdout(argv: list) -> str:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(argv)
    assert code == 0, (argv, code)
    return out.getvalue()


def digests(tmp: Path) -> dict:
    """Command -> sha256 of its stdout; a document in a command is named by
    the gen command that made it, in parentheses."""
    out = {}
    for kind, follow_ups in FOLLOW_UPS.items():
        for seed in SEEDS:
            gen = f"gen {kind} --seed {seed}"
            text = _stdout(gen.split())
            out[gen] = hashlib.sha256(text.encode()).hexdigest()
            path = tmp / f"{kind}{seed}.json"
            path.write_text(text)
            for command, copies in follow_ups:
                name = " ".join([command] + [f"({gen})"] * copies)
                text = _stdout([command] + [str(path)] * copies)
                out[name] = hashlib.sha256(text.encode()).hexdigest()
    return out


def test_stdout_bytes_match_manifest(tmp_path):
    pinned = json.loads(MANIFEST.read_text())
    got = digests(tmp_path)
    moved = sorted(k for k in pinned.keys() | got.keys() if pinned.get(k) != got.get(k))
    assert not moved, f"stdout bytes moved for: {moved}"


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        MANIFEST.write_text(json.dumps(digests(Path(tmp)), indent=1, sort_keys=True) + "\n")
