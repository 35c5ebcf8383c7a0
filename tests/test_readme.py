"""The README's Python examples run as doctests.

Each fenced python block is parsed on its own: parsed as one text, the
README would have each block's closing fence read as expected output."""

import doctest
import re
from pathlib import Path

import pytest

README = Path(__file__).resolve().parent.parent / "README.md"
TEXT = README.read_text()
# (first line number, counted from 0, and text) of each fenced python block.
BLOCKS = [
    (TEXT.count("\n", 0, match.start(1)), match.group(1))
    for match in re.finditer(r"^```python\n(.*?)^```$", TEXT, re.MULTILINE | re.DOTALL)
]


def test_readme_has_python_examples():
    assert BLOCKS


@pytest.mark.parametrize("index", range(len(BLOCKS)))
def test_readme_python_block(index):
    line, block = BLOCKS[index]
    test = doctest.DocTestParser().get_doctest(block, {}, f"block {index}", str(README), line)
    report = []
    failed, attempted = doctest.DocTestRunner().run(test, out=report.append)
    assert attempted > 0
    assert failed == 0, "".join(report)
