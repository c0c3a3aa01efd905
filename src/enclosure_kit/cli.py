"""Scenario configs, subcommand dispatch, and CSV/report emission.

One JSON file describes a scenario: the domain, the material scene, sweep
parameters, and the mesh resolution.  Symmetric matrices are entered as
three numbers [a11, a12, a22]; full 2x2 entry is rejected so asymmetry can
never slip in.  Unknown keys anywhere are errors.

Every failure is an ``EnclosureKitError``; ``main`` prints it and exits
with the error's ``exit_code`` (see ``errors``).
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import sys
from dataclasses import dataclass

import numpy as np

from . import enclosure, materials, meshing
from .errors import (
    EXIT_NUMERICAL,
    EXIT_OK,
    EXIT_REGIME_EMPTY,
    ConfigError,
    EmptySlabError,
    EnclosureKitError,
    InvalidParameterError,
)
from .geometry import (
    AxisEllipse,
    ConvexPolygon,
    Disk,
    Domain,
    Rectangle,
    Shape,
    UnitDisk,
    require_margin,
    uniform_directions,
)
from .materials import Inclusion, MaterialScene, SymMat2

# largest n_directions or n_tau a config may ask for
MAX_SAMPLES = 10_000


@dataclass(frozen=True)
class ScenarioConfig:
    domain: Domain
    scene: MaterialScene
    n_directions: int
    tau_min: float
    tau_max: float
    n_tau: int
    delta: float | None
    target_h: float
    output_dir: str | None

    def taus(self) -> np.ndarray:
        return np.linspace(self.tau_min, self.tau_max, self.n_tau)


# ---------------------------------------------------------------------------
# parsing


def _require_keys(d: dict, path: str, required: tuple, optional: tuple = ()) -> None:
    if not isinstance(d, dict):
        raise ConfigError(f"{path}: expected an object")
    unknown = sorted(set(d) - set(required) - set(optional))
    if unknown:
        raise ConfigError(f"{path}: unknown key(s) {unknown}")
    missing = sorted(set(required) - set(d))
    if missing:
        raise ConfigError(f"{path}: missing key(s) {missing}")


def _number(value, path: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"{path}: expected a number, got {value!r}")
    if not abs(value) <= sys.float_info.max:  # NaN, infinities, huge integers
        raise ConfigError(f"{path}: expected a finite number, got {value!r}")
    return float(value)


def _integer(value, path: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise ConfigError(f"{path}: expected an integer, got {value!r}")
    return value


def _point(value, path: str) -> tuple[float, float]:
    if not isinstance(value, list) or len(value) != 2:
        raise ConfigError(f"{path}: expected [x, y]")
    return (_number(value[0], path + "[0]"), _number(value[1], path + "[1]"))


def _symmat(value, path: str) -> SymMat2:
    if not isinstance(value, list) or any(isinstance(v, list) for v in value):
        raise ConfigError(
            f"{path}: symmetric matrices are entered as [a11, a12, a22]; "
            "full-matrix entry is rejected"
        )
    if len(value) != 3:
        raise ConfigError(f"{path}: expected exactly [a11, a12, a22]")
    return SymMat2(*(_number(v, f"{path}[{i}]") for i, v in enumerate(value)))


def _parse_shape(d: dict, path: str) -> Shape:
    if not isinstance(d, dict) or "type" not in d:
        raise ConfigError(f"{path}: expected an object with a 'type' key")
    kind = d["type"]
    try:
        if kind == "disk":
            _require_keys(d, path, ("type", "center", "radius"))
            return Disk(_point(d["center"], path + ".center"), _number(d["radius"], path + ".radius"))
        if kind == "axis_ellipse":
            _require_keys(d, path, ("type", "center", "semi_a", "semi_b"))
            return AxisEllipse(
                _point(d["center"], path + ".center"),
                _number(d["semi_a"], path + ".semi_a"),
                _number(d["semi_b"], path + ".semi_b"),
            )
        if kind == "convex_polygon":
            _require_keys(d, path, ("type", "vertices"))
            if not isinstance(d["vertices"], list):
                raise ConfigError(f"{path}.vertices: expected a list of [x, y]")
            verts = tuple(
                _point(v, f"{path}.vertices[{i}]") for i, v in enumerate(d["vertices"])
            )
            return ConvexPolygon(verts)
    except InvalidParameterError as exc:
        raise ConfigError(f"{path}: {exc}") from exc
    raise ConfigError(f"{path}.type: unknown shape type {kind!r}")


def _parse_domain(d: dict, path: str) -> Domain:
    if not isinstance(d, dict) or "type" not in d:
        raise ConfigError(f"{path}: expected an object with a 'type' key")
    kind = d["type"]
    try:
        if kind == "unit_disk":
            _require_keys(d, path, ("type",))
            return UnitDisk()
        if kind == "rectangle":
            _require_keys(d, path, ("type", "x_min", "x_max", "y_min", "y_max"))
            return Rectangle(
                _number(d["x_min"], path + ".x_min"),
                _number(d["x_max"], path + ".x_max"),
                _number(d["y_min"], path + ".y_min"),
                _number(d["y_max"], path + ".y_max"),
            )
    except InvalidParameterError as exc:
        raise ConfigError(f"{path}: {exc}") from exc
    raise ConfigError(f"{path}.type: unknown domain type {kind!r}")


def parse_config(raw: dict) -> ScenarioConfig:
    """Validate a scenario dictionary; reject unknown keys everywhere."""
    _require_keys(
        raw, "config", ("domain", "material", "sweep", "mesh"), ("output_dir",)
    )
    domain = _parse_domain(raw["domain"], "domain")

    mat = raw["material"]
    _require_keys(mat, "material", ("sigma0", "eps0", "omega", "inclusions"))
    if not isinstance(mat["inclusions"], list):
        raise ConfigError("material.inclusions: expected a list")
    inclusions = []
    for i, inc in enumerate(mat["inclusions"]):
        path = f"material.inclusions[{i}]"
        _require_keys(inc, path, ("shape", "alpha", "beta"))
        inclusions.append(
            Inclusion(
                shape=_parse_shape(inc["shape"], path + ".shape"),
                alpha=_symmat(inc["alpha"], path + ".alpha"),
                beta=_symmat(inc["beta"], path + ".beta"),
            )
        )
    try:
        scene = MaterialScene(
            sigma0=_number(mat["sigma0"], "material.sigma0"),
            eps0=_number(mat["eps0"], "material.eps0"),
            omega=_number(mat["omega"], "material.omega"),
            inclusions=tuple(inclusions),
        )
    except InvalidParameterError as exc:
        raise ConfigError(f"material: {exc}") from exc

    sweep_d = raw["sweep"]
    _require_keys(
        sweep_d, "sweep", ("n_directions", "tau_min", "tau_max", "n_tau"), ("delta",)
    )
    n_directions = _integer(sweep_d["n_directions"], "sweep.n_directions")
    tau_min = _number(sweep_d["tau_min"], "sweep.tau_min")
    tau_max = _number(sweep_d["tau_max"], "sweep.tau_max")
    n_tau = _integer(sweep_d["n_tau"], "sweep.n_tau")
    if not (0.0 < tau_min < tau_max):
        raise ConfigError("sweep: need 0 < tau_min < tau_max")
    if not 2 <= n_tau <= MAX_SAMPLES:
        raise ConfigError(f"sweep.n_tau: need 2 to {MAX_SAMPLES} samples")
    if not 1 <= n_directions <= MAX_SAMPLES:
        raise ConfigError(f"sweep.n_directions: need 1 to {MAX_SAMPLES}")
    delta = None
    if sweep_d.get("delta") is not None:
        delta = _number(sweep_d["delta"], "sweep.delta")
        if not delta > 0.0:
            raise ConfigError("sweep.delta: must be > 0")

    mesh_d = raw["mesh"]
    _require_keys(mesh_d, "mesh", ("target_h",))
    target_h = _number(mesh_d["target_h"], "mesh.target_h")

    output_dir = raw.get("output_dir")
    if output_dir is not None and not isinstance(output_dir, str):
        raise ConfigError("output_dir: expected a string")

    for i, inc in enumerate(scene.inclusions):
        try:
            require_margin(domain, inc.shape)
        except InvalidParameterError as exc:
            raise ConfigError(f"material.inclusions[{i}]: {exc}") from exc

    return ScenarioConfig(
        domain=domain,
        scene=scene,
        n_directions=n_directions,
        tau_min=tau_min,
        tau_max=tau_max,
        n_tau=n_tau,
        delta=delta,
        target_h=target_h,
        output_dir=output_dir,
    )


def load_config(path: str) -> ScenarioConfig:
    try:
        with open(path, encoding="utf-8") as f:
            raw = json.load(f)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path}:{exc.lineno}:{exc.colno}: invalid JSON: {exc.msg}") from exc
    except ValueError as exc:  # not UTF-8, or an integer literal too long to convert
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    return parse_config(raw)


def scenario_path(name: str) -> str:
    """Path of a bundled scenario preset, e.g. 'positive_disk'."""
    here = os.path.dirname(__file__)
    return os.path.join(here, "scenarios", name + ".json")


# ---------------------------------------------------------------------------
# formatting and output helpers


def _fmt(x: float) -> str:
    return f"{x:.17g}"


def _sym_text(m: SymMat2) -> str:
    return f"[[{m.a11:.6g}, {m.a12:.6g}], [{m.a12:.6g}, {m.a22:.6g}]]"


def _write_csv(path: str, header: list[str], rows) -> None:
    """Write one RFC 4180 CSV file: the header line, then every row."""
    try:
        with open(path, "w", newline="") as f:
            w = csv.writer(f)
            w.writerow(header)
            w.writerows(rows)
    except OSError as exc:
        raise ConfigError(f"cannot write {path}: {exc}") from exc


def _output_dir(config: ScenarioConfig, out_dir: str | None) -> str:
    target_dir = out_dir or config.output_dir or "."
    try:
        os.makedirs(target_dir, exist_ok=True)
    except OSError as exc:
        raise ConfigError(f"cannot create output directory {target_dir}: {exc}") from exc
    return target_dir


# ---------------------------------------------------------------------------
# subcommands


def cmd_reduce(config: ScenarioConfig) -> int:
    scene = config.scene
    reduced = materials.reduce_scene(scene)
    p = q = None
    if scene.sigma0 > 0.0 and scene.omega > 0.0:
        p, q = materials.pq_weights(scene.sigma0, scene.eps0, scene.omega)
    print(
        f"background: sigma0 = {scene.sigma0:.6g}, eps0 = {scene.eps0:.6g}, "
        f"omega = {scene.omega:.6g}"
    )
    blob: dict = {"inclusions": [], "P": p, "Q": q}
    for k, inc in enumerate(reduced.inclusions):
        print(f"inclusion {k}:")
        print(f"  a = {_sym_text(inc.a)}")
        print(f"  b = {_sym_text(inc.b)}")
        blob["inclusions"].append(
            {
                "a": [inc.a.a11, inc.a.a12, inc.a.a22],
                "b": [inc.b.a11, inc.b.a12, inc.b.a22],
            }
        )
    if not reduced.inclusions:
        print("no inclusions: reduced scene is the identity background")
    if p is not None:
        print(f"convex weights: P = {p:.6g}, Q = {q:.6g}")
    print(json.dumps(blob))
    return EXIT_OK


def cmd_check(config: ScenarioConfig, direction: int | None = None, as_json: bool = False) -> int:
    frames = uniform_directions(config.n_directions)
    if direction is not None:
        if not 0 <= direction < config.n_directions:
            raise ConfigError(
                f"--direction {direction} out of range 0..{config.n_directions - 1}"
            )
        indices = [direction]
    else:
        indices = list(range(config.n_directions))

    all_ok = True
    json_rows = []
    for k in indices:
        try:
            report = materials.classify_regime(config.scene, frames[k], config.delta)
        except EmptySlabError as exc:
            print(f"direction {k}: empty slab: {exc}")
            all_ok = False
            continue
        if as_json:
            json_rows.append(
                {
                    "direction_index": k,
                    "theta": list(frames[k].theta),
                    "report": report.to_json_dict(),
                }
            )
        else:
            print(f"--- direction {k} ---")
            print(report.to_text())
        if not report.applicable:
            all_ok = False
    if as_json:
        print(json.dumps(json_rows, indent=2))
    if not all_ok:
        print("regime check: some directions have no applicable guarantee")
    return EXIT_OK if all_ok else EXIT_REGIME_EMPTY


def _write_indicator_csv(path: str, result: enclosure.SweepResult) -> None:
    _write_csv(
        path,
        ["direction_index", "theta_x", "theta_y", "tau", "t", "log_abs_I", "sign"],
        (
            [
                k,
                _fmt(d.frame.theta[0]),
                _fmt(d.frame.theta[1]),
                _fmt(float(d.curve.taus[i])),
                _fmt(float(d.curve.t)),
                "" if d.curve.underflow[i] else _fmt(float(d.curve.log_abs[i])),
                int(d.curve.signs[i]),
            ]
            for k, d in enumerate(result.directions)
            for i in range(len(d.curve))
        ),
    )


def _write_support_csv(path: str, result: enclosure.SweepResult) -> None:
    def row(k: int, d: enclosure.DirectionResult) -> list:
        est = d.estimate
        return [
            k,
            _fmt(d.frame.theta[0]),
            _fmt(d.frame.theta[1]),
            _fmt(est.h_hat) if est is not None else "",
            _fmt(d.h_exact) if est is not None and d.h_exact is not None else "",
            _fmt(est.fit_residual) if est is not None else "",
            ";".join(d.flags),
        ]

    _write_csv(
        path,
        [
            "direction_index",
            "theta_x",
            "theta_y",
            "h_hat",
            "h_exact",
            "fit_residual",
            "regime_flags",
        ],
        (row(k, d) for k, d in enumerate(result.directions)),
    )


def _write_hull_csv(path: str, hull) -> None:
    vertices = hull.vertices if hull is not None else []
    _write_csv(
        path, ["vertex", "x", "y"], ([i, _fmt(x), _fmt(y)] for i, (x, y) in enumerate(vertices))
    )


def cmd_sweep(config: ScenarioConfig, out_dir: str | None = None) -> int:
    mesh = meshing.generate_mesh(config.domain, config.target_h)
    result = enclosure.sweep(
        config.scene, mesh, config.n_directions, config.taus(), delta=config.delta
    )

    target_dir = _output_dir(config, out_dir)
    paths = {
        "indicator": os.path.join(target_dir, "indicator.csv"),
        "support": os.path.join(target_dir, "support.csv"),
        "hull": os.path.join(target_dir, "hull.csv"),
    }
    _write_indicator_csv(paths["indicator"], result)
    _write_support_csv(paths["support"], result)
    _write_hull_csv(paths["hull"], result.hull)

    print(f"mesh: {mesh.num_vertices} vertices, {mesh.num_triangles} triangles, h_max = {mesh.h_max:.4g}")
    for k, d in enumerate(result.directions):
        tx, ty = d.frame.theta
        if d.estimate is None:
            print(f"direction {k:3d} ({tx:+.3f},{ty:+.3f}): {';'.join(d.flags)}")
        else:
            line = f"direction {k:3d} ({tx:+.3f},{ty:+.3f}): h_hat = {d.estimate.h_hat:.5f}"
            if d.h_exact is not None:
                line += (
                    f", h_exact = {d.h_exact:.5f}"
                    f", err = {abs(d.estimate.h_hat - d.h_exact):.5f}"
                )
            line += f"  [{';'.join(d.flags)}]"
            print(line)
    if result.detected:
        print(f"estimated support on {len(result.estimates())}/{len(result.directions)} directions")
    else:
        print("no inclusion detected")
    max_err = result.max_support_error()
    if max_err is not None:
        print(f"max |h_hat - h_exact| = {max_err:.5f}")
    print(f"wrote {paths['indicator']}, {paths['support']}, {paths['hull']}")
    if result.hull_error is not None:
        print(f"hull not recovered: {result.hull_error}")
        return EXIT_NUMERICAL
    return EXIT_OK


def cmd_mesh_dump(config: ScenarioConfig, out_dir: str | None = None) -> int:
    mesh = meshing.generate_mesh(config.domain, config.target_h)
    target_dir = _output_dir(config, out_dir)
    vpath = os.path.join(target_dir, "vertices.csv")
    tpath = os.path.join(target_dir, "triangles.csv")
    _write_csv(
        vpath,
        ["id", "x", "y"],
        ([i, _fmt(x), _fmt(y)] for i, (x, y) in enumerate(mesh.vertices.tolist())),
    )
    _write_csv(
        tpath, ["id", "v0", "v1", "v2"], ([i, *t] for i, t in enumerate(mesh.triangles.tolist()))
    )
    print(
        f"mesh: {mesh.num_vertices} vertices, {mesh.num_triangles} triangles, "
        f"h_max = {mesh.h_max:.4g}, min angle = {meshing.min_angle_deg(mesh):.2f} deg"
    )
    print(f"wrote {vpath}, {tpath}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# entry point


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise ConfigError(message)


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="enclosure-kit",
        description="Enclosure-method reconstruction for complex conductivity scenes",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, needs_dir in (
        ("reduce", False),
        ("check", False),
        ("sweep", True),
        ("mesh-dump", True),
    ):
        p = sub.add_parser(name)
        p.add_argument("--config", required=True, help="scenario JSON file")
        if name == "check":
            p.add_argument("--direction", type=int, default=None)
            p.add_argument("--json", action="store_true")
        if needs_dir:
            p.add_argument("--out", default=None, help="output directory")
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        config = load_config(args.config)
        if args.command == "reduce":
            return cmd_reduce(config)
        if args.command == "check":
            return cmd_check(config, direction=args.direction, as_json=args.json)
        if args.command == "sweep":
            return cmd_sweep(config, out_dir=args.out)
        return cmd_mesh_dump(config, out_dir=args.out)
    except EnclosureKitError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.exit_code


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
