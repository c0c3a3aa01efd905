"""Self-tests of the benchmark harness; run with ``python3 -m pytest benchmarks``.

They use a tiny workload (the bundled ``empty`` preset, which must stay
undetected, plus a coarse seeded reference scene) so the whole harness
runs in seconds.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import run
import scenes
import tracer as tracing
from enclosure_kit import cli, enclosure, geometry


def tiny_scenes(seed, workdir):
    empty = scenes.Scene("empty", cli.scenario_path("empty"), None)
    return [empty] + scenes.reference_scenes(0.02, 16, 13)(seed, workdir)


TINY = scenes.Workload("tiny", 2, tiny_scenes)


@pytest.mark.parametrize("trace", [False, True])
def test_smoke(trace):
    tally, metrics = run.run(TINY, seed=3, seconds=0, trace=trace)
    assert (tally.attempted, tally.failed) == ((4, 0) if trace else (2, 0))
    assert all(value is not None for value, _, _ in metrics.values())
    declared = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    group = declared["per_layer"] if trace else declared["end_to_end"]
    assert {m["name"]: m["unit"] for m in group} == {n: u for n, (_, u, _) in metrics.items()}
    if trace:
        assert metrics["enclosure.probes"][0] == 2 * 16 * 13
        assert metrics["solver.factor_calls"][0] == 2
        assert metrics["solver.assemble_calls"][0] == 4
        assert metrics["solver.refinements"][0] == 0
        assert metrics["enclosure.underflow_samples"][0] == 16 * 13
        assert metrics["enclosure.fit_ok_ratio"][0] == 0.5
    else:
        assert all(value > 0 for value, _, _ in metrics.values())


def test_traced_sweep_writes_identical_csvs(tmp_path):
    scene = tiny_scenes(5, str(tmp_path))[-1]
    run.sweep_once(scene, str(tmp_path / "plain"))
    original_sweep = enclosure.sweep
    tracer = tracing.Tracer("test")
    with tracing.instrument(tracer):
        run.sweep_once(scene, str(tmp_path / "traced"))
    assert enclosure.sweep is original_sweep
    for name in scenes.CSV_NAMES:
        assert (tmp_path / "traced" / name).read_bytes() == (tmp_path / "plain" / name).read_bytes()
    names = {s.name for s in tracer.spans}
    assert {"solver.splu", "solver.lu_solve", "enclosure.curve", "cli.write_csv"} <= names
    sweep_ids = {s.id for s in tracer.spans if s.name == "enclosure.sweep"}
    assert all(s.parent in sweep_ids for s in tracer.spans if s.name == "enclosure.curve")


def test_self_time_subtracts_union_of_children():
    spans = [
        tracing.Span(1, "parent", 0.0, 10.0, None, "r"),
        tracing.Span(2, "a", 1.0, 4.0, 1, "r"),
        tracing.Span(3, "b", 3.0, 6.0, 1, "r"),  # overlaps a, as pool threads do
        tracing.Span(4, "c", 8.0, 12.0, 1, "r"),  # clipped to the parent's end
        tracing.Span(5, "d", 2.0, 3.0, 2, "r"),
    ]
    own = tracing.self_times(spans)
    assert own[1] == pytest.approx(10.0 - 5.0 - 2.0)
    assert own[2] == pytest.approx(2.0)
    assert own[5] == pytest.approx(1.0)


def test_seeded_scenes_keep_clearance():
    for seed in range(500):
        centre, radius = scenes.reference_disk(seed)
        geometry.require_margin(geometry.UnitDisk(), geometry.Disk(centre, radius))
        assert 0.15 <= radius <= 0.25
        assert (centre[0] - 0.3) ** 2 + centre[1] ** 2 <= 0.1**2 + 1e-9
    assert scenes.reference_disk(0) == ((0.3, 0.0), 0.2)
    assert scenes.reference_disk(7) == scenes.reference_disk(7)


def test_refuses_to_run_without_package_source(tmp_path):
    bench = tmp_path / "benchmarks"
    shutil.copytree(Path(run.__file__).parent, bench, ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run(
        [sys.executable, str(bench / "run.py"), "--workload", "ref_dense", "--seconds", "1"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
