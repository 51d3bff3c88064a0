"""The README's python examples run as written."""

import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def python_blocks():
    return re.findall(r"^```python\n(.*?)^```", README.read_text(),
                      re.MULTILINE | re.DOTALL)


def test_python_examples_run_in_order():
    # the examples build on one another, so they share one namespace
    blocks = python_blocks()
    assert len(blocks) >= 4
    namespace = {}
    for i, block in enumerate(blocks, 1):
        exec(compile(block, f"README.md python block {i}", "exec"), namespace)
