"""The bundled presets' sweep outputs against committed golden files.

``tests/golden/<preset>/`` holds the ``indicator.csv``, ``support.csv`` and
``hull.csv`` that ``enclosure-kit sweep`` writes for the preset, and its
stdout with the output directory written as ``OUT``.  The goldens are
check data: regenerate them only in a change that alters outputs on
purpose, and log the largest change per column with it.

Row structure, flags, signs, underflow markers (empty fields) and stdout
compare exactly.  The columns that the solver's rounding reaches compare
within REL_TOL relative; ``fit_residual`` is a residual of log samples, so
its tolerance is REL_TOL of the largest log sample.  Every other field
compares exactly.
"""

import csv
import math
from pathlib import Path

import pytest

from enclosure_kit import cli

GOLDEN = Path(__file__).parent / "golden"
PRESETS = sorted(p.name for p in GOLDEN.iterdir() if p.is_dir())
REL_TOL = 1e-12


def read_rows(path):
    with open(path, newline="") as f:
        return list(csv.reader(f))


def assert_rows_match(name, got, want, abs_tols):
    """Compare two CSV tables; columns in ``abs_tols`` compare within REL_TOL."""
    assert len(got) == len(want), f"{name}: {len(got)} rows, golden has {len(want)}"
    header = want[0]
    assert got[0] == header, name
    for i, (g, w) in enumerate(zip(got[1:], want[1:]), start=1):
        assert len(g) == len(w), f"{name} row {i}"
        for col, a, b in zip(header, g, w):
            if col in abs_tols and a and b:
                assert math.isclose(
                    float(a), float(b), rel_tol=REL_TOL, abs_tol=abs_tols[col]
                ), f"{name} row {i} {col}: {a} vs golden {b}"
            else:
                assert a == b, f"{name} row {i} {col}: {a!r} vs golden {b!r}"


@pytest.mark.parametrize("preset", PRESETS)
def test_sweep_matches_golden(preset_sweep, preset):
    want_dir = GOLDEN / preset
    run = preset_sweep(preset)
    out_dir = run.out_dir
    assert run.code == cli.EXIT_OK
    stdout = run.stdout.replace(str(out_dir), "OUT")
    assert stdout == (want_dir / "stdout.txt").read_text()

    indicator = read_rows(want_dir / "indicator.csv")
    logs = [abs(float(row[5])) for row in indicator[1:] if row[5]]
    tolerances = {
        "indicator.csv": {"log_abs_I": 0.0},
        "support.csv": {"h_hat": 0.0, "fit_residual": REL_TOL * max(logs, default=0.0)},
        "hull.csv": {"x": 0.0, "y": 0.0},
    }
    for name, abs_tols in tolerances.items():
        got = read_rows(out_dir / name)
        assert_rows_match(name, got, read_rows(want_dir / name), abs_tols)
