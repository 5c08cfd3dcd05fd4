"""The README's library tour runs as written.

Each ```python block of README.md is executed on its own, and what it
prints must match the `# ...` comments on its print lines, in order.
"""

import re
from contextlib import redirect_stdout
from io import StringIO
from pathlib import Path

import pytest

README = Path(__file__).resolve().parent.parent / "README.md"
BLOCKS = re.findall(r"^```python\n(.*?)^```", README.read_text(), re.M | re.S)


def test_the_tour_has_four_blocks():
    assert len(BLOCKS) == 4


@pytest.mark.parametrize("source", BLOCKS, ids=[f"block {i + 1}" for i in range(len(BLOCKS))])
def test_readme_block_runs_and_prints_its_comments(source):
    expected = [line.split("# ", 1)[1] for line in source.splitlines()
                if "print(" in line and "# " in line]
    out = StringIO()
    with redirect_stdout(out):
        exec(compile(source, str(README), "exec"), {})
    assert out.getvalue().splitlines() == expected
