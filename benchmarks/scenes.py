"""Benchmark workloads, their seeded scenario files, and the correctness gate.

A workload is a list of scenes; one iteration of a workload runs
``enclosure-kit sweep`` once per scene.  Inputs are made from the workload
seed only; the package sees nothing but the scenario JSON files.
"""

from __future__ import annotations

import csv
import json
import math
import os
import random
from dataclasses import dataclass
from typing import Callable

from enclosure_kit import cli, geometry
from enclosure_kit.errors import InvalidParameterError

# acceptance bound on max |h_hat - h_exact| for a positive jump (criterion 6)
POSITIVE_ERR_BOUND = 0.05
HAUSDORFF_BOUND = 0.06
# pairing differences must match the recorded values to 1e-12 relative,
# i.e. log|I| to 1e-12 absolute
REFERENCE_LOG_TOL = 1e-12

INDICATOR_HEADER = ["direction_index", "theta_x", "theta_y", "tau", "t", "log_abs_I", "sign"]
SUPPORT_HEADER = [
    "direction_index", "theta_x", "theta_y", "h_hat", "h_exact", "fit_residual", "regime_flags",
]
HULL_HEADER = ["vertex", "x", "y"]
CSV_NAMES = ("indicator.csv", "support.csv", "hull.csv")


@dataclass(frozen=True)
class Scene:
    """One scenario file and the support-error bound its sweep must meet."""

    name: str
    path: str
    err_bound: float | None  # None: no inclusion, nothing may be detected


@dataclass(frozen=True)
class Workload:
    name: str
    setup_reps: int  # set-ups of every scene per slot; see run.measure
    scenes: Callable[[int, str], list[Scene]]  # (seed, workdir) -> scenes


def reference_disk(seed: int) -> tuple[tuple[float, float], float]:
    """Inclusion disk of a seeded reference scene: (centre, radius).

    Seed 0 is the README scene, a disk at (0.3, 0) of radius 0.2.  Other
    seeds draw the centre uniformly within 0.1 of (0.3, 0) and the radius
    from [0.15, 0.25], which keeps the 10% boundary clearance.
    """
    if seed == 0:
        return (0.3, 0.0), 0.2
    rng = random.Random(seed)
    rho = 0.1 * math.sqrt(rng.random())
    phi = 2.0 * math.pi * rng.random()
    centre = (round(0.3 + rho * math.cos(phi), 6), round(rho * math.sin(phi), 6))
    return centre, round(rng.uniform(0.15, 0.25), 6)


def reference_config(seed: int, target_h: float, n_directions: int, n_tau: int) -> dict:
    """Scenario dict of the seeded reference scene: alpha = I, beta = 0."""
    centre, radius = reference_disk(seed)
    return {
        "domain": {"type": "unit_disk"},
        "material": {
            "sigma0": 1.0,
            "eps0": 1.0,
            "omega": 1.0,
            "inclusions": [
                {
                    "shape": {"type": "disk", "center": list(centre), "radius": radius},
                    "alpha": [1.0, 0.0, 1.0],
                    "beta": [0.0, 0.0, 0.0],
                }
            ],
        },
        "sweep": {
            "n_directions": n_directions,
            "tau_min": 4.0,
            "tau_max": 16.0,
            "n_tau": n_tau,
            "delta": None,
        },
        "mesh": {"target_h": target_h},
        "output_dir": None,
    }


def reference_scenes(target_h: float, n_directions: int, n_tau: int):
    """Seeded reference scene on one mesh size and probe grid, as a workload."""

    def scenes(seed: int, workdir: str) -> list[Scene]:
        path = os.path.join(workdir, f"reference_seed{seed}.json")
        with open(path, "w") as f:
            json.dump(reference_config(seed, target_h, n_directions, n_tau), f, indent=2)
        return [Scene("reference", path, POSITIVE_ERR_BOUND)]

    return scenes


# Why each workload: BENCHMARK.json and README.md.
WORKLOADS = {
    w.name: w
    for w in (
        # set-up (mesh, assembly, LU fill) and peak memory dominate
        Workload("ref_fine", 1, reference_scenes(0.005, 16, 13)),
        # per-probe solves, probe evaluation and the engine lock dominate
        Workload("ref_dense", 2, reference_scenes(0.01, 32, 25)),
    )
}


# ---------------------------------------------------------------------------
# correctness gate


class GateError(Exception):
    """A sweep's outputs fail the correctness gate."""


def _read_csv(path: str, header: list[str]) -> list[list[str]]:
    with open(path, newline="") as f:
        rows = list(csv.reader(f))
    if not rows or rows[0] != header:
        raise GateError(f"{os.path.basename(path)}: bad header {rows[:1]}")
    return rows[1:]


def _indicator_samples(rows: list[list[str]]) -> tuple[list[float | None], list[int]]:
    logs, signs = [], []
    for row in rows:
        if len(row) != 7:
            raise GateError(f"indicator.csv: row of {len(row)} fields")
        sign = int(row[6])
        log = float(row[5]) if row[5] else None
        if sign not in (-1, 0, 1) or (log is None) != (sign == 0):
            raise GateError(f"indicator.csv: inconsistent sample {row}")
        logs.append(log)
        signs.append(sign)
    return logs, signs


def read_indicator(out_dir: str) -> tuple[list[float | None], list[int]]:
    """log_abs_I (None where underflowed) and sign columns of indicator.csv."""
    rows = _read_csv(os.path.join(out_dir, "indicator.csv"), INDICATOR_HEADER)
    return _indicator_samples(rows)


def check_sweep(scene: Scene, out_dir: str, reference: dict | None) -> dict:
    """Check one sweep's CSVs; return its accuracy figures or raise GateError.

    Returns ``{"support_err": float | None, "hausdorff": float | None}``.
    """
    config = cli.load_config(scene.path)
    n_dir, n_tau = config.n_directions, config.n_tau
    ind_rows = _read_csv(os.path.join(out_dir, "indicator.csv"), INDICATOR_HEADER)
    sup_rows = _read_csv(os.path.join(out_dir, "support.csv"), SUPPORT_HEADER)
    hull_rows = _read_csv(os.path.join(out_dir, "hull.csv"), HULL_HEADER)
    if len(ind_rows) != n_dir * n_tau or len(sup_rows) != n_dir:
        raise GateError(
            f"{scene.name}: {len(ind_rows)} indicator / {len(sup_rows)} support rows "
            f"for {n_dir} directions x {n_tau} taus"
        )
    logs, signs = _indicator_samples(ind_rows)
    if reference is not None:
        _check_reference(scene.name, logs, signs, reference)

    shapes = [inc.shape for inc in config.scene.inclusions]
    if scene.err_bound is None:
        if shapes or hull_rows or any(row[3] for row in sup_rows):
            raise GateError(f"{scene.name}: inclusion detected in an empty scene")
        return {"support_err": None, "hausdorff": None}
    if len(shapes) != 1:
        raise GateError(f"{scene.name}: gate expects exactly one inclusion")
    truth = shapes[0]

    support_err = 0.0
    for row in sup_rows:
        if not row[3]:
            raise GateError(f"{scene.name}: direction {row[0]} has no support estimate")
        theta = (float(row[1]), float(row[2]))
        h_hat, h_exact = float(row[3]), float(row[4])
        if abs(h_exact - truth.support(theta)) > 1e-12:
            raise GateError(f"{scene.name}: h_exact disagrees with the configured shape")
        support_err = max(support_err, abs(h_hat - h_exact))
    if support_err > scene.err_bound:
        raise GateError(
            f"{scene.name}: max support error {support_err:.4g} > {scene.err_bound}"
        )

    try:
        hull = geometry.ConvexPolygon(tuple((float(r[1]), float(r[2])) for r in hull_rows))
    except InvalidParameterError as exc:
        raise GateError(f"{scene.name}: hull.csv is not a convex polygon: {exc}") from exc
    hausdorff = geometry.hausdorff_support_distance(hull, truth)
    if hausdorff > HAUSDORFF_BOUND:
        raise GateError(f"{scene.name}: hull Hausdorff {hausdorff:.4g} > {HAUSDORFF_BOUND}")
    return {"support_err": support_err, "hausdorff": hausdorff}


def _check_reference(name: str, logs, signs, reference: dict) -> None:
    if signs != reference["sign"]:
        raise GateError(f"{name}: sign or underflow columns differ from the reference")
    for got, want in zip(logs, reference["log_abs_I"]):
        if (got is None) != (want is None) or (
            got is not None and abs(got - want) > REFERENCE_LOG_TOL
        ):
            raise GateError(f"{name}: log_abs_I {got!r} differs from reference {want!r}")
