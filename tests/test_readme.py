"""README's python examples run as written, so the library tour cannot drift
from the library."""

import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def python_blocks() -> list:
    return re.findall(r"^```python\n(.*?)^```$", README.read_text(), re.M | re.S)


def test_python_blocks_run():
    blocks = python_blocks()
    assert blocks, "README has no python example"
    for k, code in enumerate(blocks):
        exec(compile(code, f"README.md python block {k}", "exec"), {})
