"""The README's "Library" example runs, and its comments state its values."""

import re
from fractions import Fraction
from pathlib import Path

import pytest

from causalurn import hpd_window, interval_A

README = Path(__file__).resolve().parents[1] / "README.md"


def _library_block() -> str:
    text = README.read_text(encoding="utf-8")
    section = text[text.index("## Library"):]
    return re.search(r"```python\n(.*?)```", section, re.DOTALL).group(1)


@pytest.fixture(scope="module")
def example():
    block = _library_block()
    namespace: dict = {}
    exec(compile(block, str(README), "exec"), namespace)
    return block, namespace


@pytest.mark.parametrize("expression, comment, value", [
    ("posterior.median()", "# Fraction(16, 53)", Fraction(16, 53)),
    ("hl_estimate(curve)", "# (9, 10, 11)", (9, 10, 11)),
    ("tau_posterior(obs, 0, prior).support", "# (Fraction(17, 53),)", (Fraction(17, 53),)),
])
def test_commented_value(example, expression, comment, value):
    block, namespace = example
    assert any(
        line.startswith(expression) and line.rstrip().endswith(comment)
        for line in block.splitlines()
    )
    assert eval(expression, namespace) == value


def test_hpd_window_and_retained_set(example):
    block, namespace = example
    assert "# (4/53, 26/53, mass)" in block
    assert hpd_window(namespace["posterior"], 0.95)[:2] == (Fraction(4, 53), Fraction(26, 53))
    assert "# retained A values, 2..16" in block
    assert interval_A(namespace["curve"], 0.05)[1] == tuple(range(2, 17))
