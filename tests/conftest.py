"""Shared fixtures; the heavy reference engine and the bundled presets'
sweeps are built once per session."""

import contextlib
import io
import time
import tracemalloc
import types
from dataclasses import dataclass
from pathlib import Path

import numpy as np
import pytest

from enclosure_kit import cli, enclosure, geometry, materials, meshing, solver

REFERENCE_TAUS = np.linspace(4.0, 16.0, 13)


def reference_scene() -> materials.MaterialScene:
    """Conductive disk at (0.3, 0), radius 0.2, in the unit disk."""
    return materials.MaterialScene(
        sigma0=1.0,
        eps0=1.0,
        omega=1.0,
        inclusions=(
            materials.Inclusion(
                shape=geometry.Disk((0.3, 0.0), 0.2),
                alpha=materials.SymMat2.identity(),
                beta=materials.SymMat2.zero(),
            ),
        ),
    )


def background_field(mesh: meshing.Mesh) -> np.ndarray:
    """The reference background, I on every triangle: the reduced field of
    a scene without inclusions."""
    return solver.reduced_field(mesh, materials.ReducedScene(omega=0.0))


@contextlib.contextmanager
def traced_peak():
    """Trace the allocations of the ``with`` body; on exit the yielded
    object's ``bytes`` is their peak above the bytes traced at the start.

    tracemalloc sees Python's and numpy's allocations, not those that
    SuperLU or BLAS make themselves, so a factor's size is not counted.
    """
    peak = types.SimpleNamespace(bytes=0)
    tracemalloc.start()
    tracemalloc.reset_peak()
    start = tracemalloc.get_traced_memory()[0]
    try:
        yield peak
    finally:
        peak.bytes = tracemalloc.get_traced_memory()[1] - start
        tracemalloc.stop()


@pytest.fixture(scope="session")
def reference_mesh():
    return meshing.generate_mesh(geometry.UnitDisk(), 0.01)


@pytest.fixture(scope="session")
def reference_engine(reference_mesh):
    reduced = materials.reduce_scene(reference_scene())
    return enclosure.IndicatorEngine(reduced, reference_mesh)


@pytest.fixture(scope="session")
def coarse_mesh():
    """Unit-disk mesh fine enough for tau up to 8."""
    return meshing.generate_mesh(geometry.UnitDisk(), 0.04)


@dataclass(frozen=True)
class PresetSweep:
    """One ``enclosure-kit sweep`` of a bundled preset."""

    code: int
    stdout: str
    out_dir: Path
    seconds: float


@pytest.fixture(scope="session")
def preset_sweep(tmp_path_factory):
    """Run a bundled preset's ``sweep`` once per session, on first request.

    Returns a function of the preset name.  Tests must not write into the
    output directory: later tests read the same files.
    """
    runs = {}

    def run(name: str) -> PresetSweep:
        if name not in runs:
            out_dir = tmp_path_factory.mktemp(f"sweep_{name}") / "out"
            stdout = io.StringIO()
            t0 = time.perf_counter()
            with contextlib.redirect_stdout(stdout):
                code = cli.main(["sweep", "--config", cli.scenario_path(name), "--out", str(out_dir)])
            runs[name] = PresetSweep(code, stdout.getvalue(), out_dir, time.perf_counter() - t0)
        return runs[name]

    return run


def pytest_terminal_summary(terminalreporter):
    try:
        from test_acceptance import ACCEPTANCE_RESULTS
    except ImportError:
        return
    if ACCEPTANCE_RESULTS:
        terminalreporter.section("acceptance criteria")
        for line in ACCEPTANCE_RESULTS:
            terminalreporter.write_line(line)
