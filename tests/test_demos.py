"""The exact demos print the same text on every run.

Demos 01 and 03 compute only with Fractions, so their stdout is pinned byte
for byte against ``demos/expected``.  Demos 02 and 04 print floats from numpy
linear algebra and sampling; CI runs them for their exit code only.
"""

from pathlib import Path

import pytest

from helpers import fresh_python

DEMOS = Path(__file__).resolve().parents[1] / "demos"


@pytest.mark.parametrize("demo", ["01_dutch_books", "03_succession_laws"])
def test_stdout_matches_expected(demo):
    assert fresh_python(str(DEMOS / f"{demo}.py")) == (DEMOS / "expected" / f"{demo}.txt").read_text()
