"""End-to-end benchmark of ``enclosure-kit sweep``, measured from outside.

    python3 benchmarks/run.py --workload ref_dense --seed 0 --seconds 50 --trace 0

Runs one workload (see scenes.py) in this process as a closed loop: one
iteration, i.e. one ``cli.main(["sweep", ...])`` per scene, after another
until ``--seconds`` have passed, at least once.  Each sweep's CSVs pass
through the correctness gate; a sweep that fails it is counted, not timed.

``--trace 0`` first sets up every scene a few times (mesh plus
IndicatorEngine, the set-up cost) and then reports the end-to-end metrics.
``--trace 1`` alternates untraced and traced iterations and reports the
per-layer metrics of tracer.py, with the tracing overhead; its spans are
written to ``.bench_out/``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The exit code is
0 when every sweep passed the gate and 1 otherwise.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import ctypes.util
import gc
import hashlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from collections import defaultdict
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
REFERENCE = Path(__file__).resolve().parent / "reference.json"

sys.path.insert(0, str(SRC))

import numpy as np  # noqa: E402
import scipy  # noqa: E402

try:
    import enclosure_kit
except ModuleNotFoundError as exc:
    raise SystemExit(f"benchmark: no enclosure_kit package under {SRC}: {exc}") from exc
if Path(enclosure_kit.__file__).resolve().parent != SRC / "enclosure_kit":
    raise SystemExit(f"benchmark: enclosure_kit loaded from {enclosure_kit.__file__}, not {SRC}")

from enclosure_kit import cli, enclosure, materials, meshing  # noqa: E402

import scenes  # noqa: E402
import tracer as tracing  # noqa: E402

THREAD_ENV = ("ENCLOSURE_KIT_THREADS", "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS")

END_TO_END_UNITS = {
    "sweep_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MiB",
    "max_support_err": "1",
    "hull_hausdorff": "1",
}


@dataclass
class Tally:
    """Sweeps attempted and failed, and the worst accuracy seen."""

    attempted: int = 0
    failed: int = 0
    support_err: float | None = None
    hausdorff: float | None = None
    reference_checked: int = 0

    def worst(self, figures: dict) -> None:
        if figures["support_err"] is not None:
            self.support_err = max(self.support_err or 0.0, figures["support_err"])
            self.hausdorff = max(self.hausdorff or 0.0, figures["hausdorff"])


def _malloc_trim():
    """glibc's ``int malloc_trim(size_t pad)``, or None elsewhere."""
    libc = ctypes.util.find_library("c")
    trim = getattr(ctypes.CDLL(libc), "malloc_trim", None) if libc else None
    if trim is not None:
        trim.argtypes = [ctypes.c_size_t]
        trim.restype = ctypes.c_int
    return trim


MALLOC_TRIM = _malloc_trim()


def release_memory() -> None:
    """Collect garbage and hand freed heap pages back to the OS (glibc).

    Without the trim, freed set-up and sweep objects stay resident, so
    ru_maxrss would grow with the number of rounds a run fits in instead
    of reflecting one sweep.
    """
    gc.collect()
    if MALLOC_TRIM is not None:
        MALLOC_TRIM(0)


def scenario_digest(path: str) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def load_references() -> dict:
    """Recorded indicator columns, keyed by the scenario file's sha256."""
    with open(REFERENCE) as f:
        return json.load(f)


def sweep_once(scene: scenes.Scene, out_dir: str) -> float:
    """Run ``enclosure-kit sweep`` on one scene; return its wall seconds."""
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        start = time.perf_counter()
        code = cli.main(["sweep", "--config", scene.path, "--out", out_dir])
        elapsed = time.perf_counter() - start
    if code != cli.EXIT_OK:
        raise scenes.GateError(f"{scene.name}: exit code {code}: {err.getvalue().strip()}")
    return elapsed


def run_iteration(scene_list, workdir: str, label: str, references: dict, first: dict,
                  tally: Tally, times: dict) -> None:
    """One gated sweep per scene; append each passing sweep's seconds to
    ``times[scene.name]``.  ``first`` holds each scene's CSV bytes from the
    first iteration; every later iteration must reproduce them."""
    for scene in scene_list:
        out_dir = os.path.join(workdir, label, scene.name)
        tally.attempted += 1
        try:
            elapsed = sweep_once(scene, out_dir)
            reference = references.get(scenario_digest(scene.path))
            figures = scenes.check_sweep(scene, out_dir, reference)
            outputs = {n: Path(out_dir, n).read_bytes() for n in scenes.CSV_NAMES}
            if outputs != first.setdefault(scene.name, outputs):
                raise scenes.GateError(f"{scene.name}: CSVs differ from the first iteration")
        except Exception as exc:  # a failed sweep is counted, not timed, and the run goes on
            tally.failed += 1
            print(f"gate: {label}: {type(exc).__name__}: {exc}", file=sys.stderr)
            continue
        finally:
            shutil.rmtree(out_dir, ignore_errors=True)
            release_memory()
        times[scene.name].append(elapsed)
        tally.reference_checked += reference is not None
        tally.worst(figures)


def set_up(scene_list, reps: int, times: dict) -> None:
    """Time generate_mesh plus IndicatorEngine per scene, ``reps`` times."""
    for _ in range(reps):
        for scene in scene_list:
            config = cli.load_config(scene.path)
            start = time.perf_counter()
            mesh = meshing.generate_mesh(config.domain, config.target_h)
            engine = enclosure.IndicatorEngine(materials.reduce_scene(config.scene), mesh)
            times[scene.name].append(time.perf_counter() - start)
            del engine, mesh
            release_memory()


def rounds(seconds: float):
    """Yield round numbers while the next round, as long as the last one,
    still fits in ``seconds``; the first round always runs."""
    start = time.perf_counter()
    k, last = 0, 0.0
    while k == 0 or time.perf_counter() - start + last <= seconds:
        began = time.perf_counter()
        yield k
        last = time.perf_counter() - began
        k += 1


def summed_medians(times: dict, scene_list) -> float | None:
    """Sum over scenes of each scene's median seconds; None if one has none."""
    if any(not times[s.name] for s in scene_list):
        return None
    return sum(statistics.median(times[s.name]) for s in scene_list)


def samples(times: dict) -> str:
    counts = sorted({len(v) for v in times.values()})
    return f"{'/'.join(map(str, counts))} per scene"


def measure(workload, scene_list, seconds, workdir, references, tally) -> dict:
    """End-to-end metrics, tracing off.

    Each round sets every scene up ``setup_reps`` times and then runs one
    iteration; one more set-up slot follows the last round.  Spreading the
    set-ups through the run keeps a short slow spell of a shared machine
    from hitting every sample, and medians per scene discard the samples
    it does hit.
    """
    setups, sweeps = defaultdict(list), defaultdict(list)
    first: dict = {}
    for k in rounds(seconds):
        set_up(scene_list, workload.setup_reps, setups)
        run_iteration(scene_list, workdir, f"it{k}", references, first, tally, sweeps)
    set_up(scene_list, workload.setup_reps, setups)
    metrics = {
        "sweep_s": summed_medians(sweeps, scene_list),
        "setup_s": summed_medians(setups, scene_list),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "max_support_err": tally.support_err,
        "hull_hausdorff": tally.hausdorff,
    }
    notes = {
        "sweep_s": f"sum of per-scene medians, {samples(sweeps)}",
        "setup_s": f"sum of per-scene medians, {samples(setups)}",
    }
    return {n: (v, END_TO_END_UNITS[n], notes.get(n, "")) for n, v in metrics.items()}


def measure_traced(workload, scene_list, seconds, workdir, references, tally, spans_path) -> dict:
    """Per-layer metrics: each round runs an untraced then a traced iteration."""
    first: dict = {}
    plain, traced, tracers = defaultdict(list), defaultdict(list), []
    for k in rounds(seconds):
        run_iteration(scene_list, workdir, f"it{k}", references, first, tally, plain)
        tracer = tracing.Tracer(f"{workload.name}-it{k}-traced")
        failed = tally.failed
        with tracing.instrument(tracer):
            run_iteration(scene_list, workdir, f"it{k}t", references, first, tally, traced)
        if tally.failed == failed:
            tracers.append(tracer)
    with open(spans_path, "w") as f:
        for record in tracing.span_records(tracers):
            f.write(json.dumps(record) + "\n")
    untraced_s, traced_s = summed_medians(plain, scene_list), summed_medians(traced, scene_list)
    if not tracers or untraced_s is None or traced_s is None:
        return {}
    metrics = tracing.median_metrics([tracing.layer_metrics(t) for t in tracers])
    metrics["trace.untraced_sweep_s"] = untraced_s
    metrics["trace.traced_sweep_s"] = traced_s
    metrics["trace.overhead_frac"] = traced_s / untraced_s - 1.0
    metrics["trace.uncovered_frac"] = 1.0 - metrics["trace.top_level_s"] / untraced_s
    return {n: (v, tracing.unit(n), "") for n, v in metrics.items()}


def src_digest() -> str:
    """sha256 over the package sources, so results name the code measured."""
    h = hashlib.sha256()
    for path in sorted((SRC / "enclosure_kit").rglob("*")):
        if path.is_file() and path.suffix in (".py", ".json"):
            h.update(str(path.relative_to(SRC)).encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def git_commit() -> str | None:
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        out = subprocess.run(
            ["git", "rev-parse", "--show-toplevel", "HEAD"],
            cwd=ROOT, env=env, capture_output=True, text=True, timeout=30,
        )
    except (OSError, subprocess.SubprocessError):
        return None
    lines = out.stdout.split()
    if out.returncode != 0 or len(lines) != 2 or Path(lines[0]).resolve() != ROOT:
        return None
    return lines[1]


def provenance(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    return {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "git_commit": git_commit(),
        "src_sha256": src_digest(),
        "nproc": os.cpu_count(),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "env": {name: os.environ.get(name) for name in THREAD_ENV},
    }


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(scenes.WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=50.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def run(workload, seed: int, seconds: float, trace: bool) -> tuple[Tally, dict]:
    """Measure one workload; return the tally and {name: (value, unit, note)}."""
    OUT.mkdir(exist_ok=True)
    references = load_references()
    tally = Tally()
    workdir = tempfile.mkdtemp(prefix=f"{workload.name}-", dir=OUT)
    try:
        scene_list = workload.scenes(seed, workdir)
        if trace:
            spans_path = OUT / f"spans-{workload.name}-seed{seed}.jsonl"
            metrics = measure_traced(workload, scene_list, seconds, workdir, references, tally, spans_path)
        else:
            metrics = measure(workload, scene_list, seconds, workdir, references, tally)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return tally, metrics


def main(argv=None) -> int:
    args = parse_args(argv)
    workload = scenes.WORKLOADS[args.workload]
    tally, metrics = run(workload, args.seed, args.seconds, bool(args.trace))
    correct = tally.failed == 0 and all(v is not None for v, _, _ in metrics.values()) and bool(metrics)

    print(f"provenance {json.dumps(provenance(workload.name, args.seed, args.seconds, bool(args.trace)))}")
    print(
        f"workload {workload.name}: {tally.attempted} sweeps attempted, {tally.failed} failed, "
        f"{tally.reference_checked} checked against recorded references"
    )
    for name, (value, unit, note) in metrics.items():
        shown = "n/a" if value is None else f"{value:.6g}"
        print(f"  {name:30s} {shown:>14s} {unit:6s} {note}")
    failed_frac = tally.failed / tally.attempted if tally.attempted else 1.0
    print(f"  {'failed_frac':30s} {failed_frac:>14.6g} {'1':6s} sweeps failing the gate / attempted")
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": tally.attempted,
                "failed": tally.failed,
                "metrics": {
                    n: {"value": v, "unit": u} for n, (v, u, _) in metrics.items() if v is not None
                },
            }
        )
    )
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
