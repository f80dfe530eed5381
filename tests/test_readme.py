"""The README's Library example runs and prints the values its comments state."""

import contextlib
import io
import pathlib
import re

import pytest

README = pathlib.Path(__file__).resolve().parents[1] / "README.md"


def test_library_example_prints_its_stated_values():
    section = README.read_text(encoding="utf-8").split("\n## Library\n", 1)[1]
    block = section.split("```python\n", 1)[1].split("```", 1)[0]
    printed = io.StringIO()
    with contextlib.redirect_stdout(printed):
        exec(compile(block, str(README), "exec"), {})
    dispersion, zeno, rate = printed.getvalue().splitlines()
    assert float(dispersion) == pytest.approx(783.5, abs=0.05)
    p1, p2 = (float(x) for x in re.fullmatch(r"ProbabilityPair\(p1=(.*), p2=(.*)\)", zeno).groups())
    assert p1 == pytest.approx(0.963, abs=5e-4)
    assert p2 == pytest.approx(0.037, abs=5e-4)
    assert float(rate) == pytest.approx(16.48, abs=5e-3)
