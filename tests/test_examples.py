"""Every example still imports: a name deleted from ``src/`` fails tier-1.

``run_path`` under a name other than ``__main__`` executes imports and
definitions only; CI runs the examples to completion.
"""

import runpy
from pathlib import Path

import pytest

EXAMPLES = sorted((Path(__file__).parent.parent / "examples").glob("*.py"))


def test_examples_found():
    assert len(EXAMPLES) >= 5


@pytest.mark.parametrize("path", EXAMPLES, ids=lambda p: p.stem)
def test_example_imports_and_defines_main(path):
    namespace = runpy.run_path(str(path), run_name="examples_smoke")
    assert callable(namespace["main"])
