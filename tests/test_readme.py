"""The README's library example runs as written, and the budgets it states
are the library's constants."""

import re
from pathlib import Path

import pytest

from enclosure_kit import cli, enclosure, meshing

README = Path(__file__).resolve().parent.parent / "README.md"


def test_library_example_runs(capsys):
    text = README.read_text()
    section = text[text.index("## Library use") :]
    block = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    namespace = {}
    exec(compile(block, str(README), "exec"), namespace)
    assert len(namespace["result"].directions) == 16
    assert len(capsys.readouterr().out.splitlines()) == 17


@pytest.mark.parametrize(
    "pattern, constant",
    [
        (r"`sweep\.n_directions` is 1 to ([\d,]+)", cli.MAX_SAMPLES),
        (r"`sweep\.n_tau` 2 to ([\d,]+)", cli.MAX_SAMPLES),
        (r"`n_tau` over ([\d,]+)", enclosure.MAX_SOLVE_BLOCK),
        (r"columns squared, exceeds ([\d,]+) entries", enclosure.MAX_SOLVE_BLOCK),
        (r"within ([\d,]+) entries", enclosure.MAX_SOLVE_BLOCK),
        (r"would exceed ([\d,]+) triangles", meshing.MAX_TRIANGLES),
        (r"`tau \* h_max <= ([\d.]+)`", enclosure.RESOLUTION_GATE),
    ],
    ids=["directions", "taus", "curve-samples", "taylor-g", "probe-arrays", "triangles", "gate"],
)
def test_stated_budgets_are_the_constants(pattern, constant):
    text = " ".join(README.read_text().split())
    stated = re.findall(pattern, text)
    assert stated, f"README no longer states {pattern!r}"
    assert all(float(number.replace(",", "")) == constant for number in stated)
