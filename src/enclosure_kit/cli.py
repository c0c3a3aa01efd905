"""Scenario configs, subcommand dispatch, and CSV/report emission.

One JSON file describes a scenario: the domain, the material scene, sweep
parameters, and the mesh resolution.  Symmetric matrices are entered as
three numbers [a11, a12, a22]; full 2x2 entry is rejected so asymmetry can
never slip in.  Unknown keys anywhere are errors.

The field tables (``CONFIG_FIELDS`` and the tables it refers to) are the one
place where a config key is declared, and ``COMMANDS`` the one place where a
subcommand and its options are.

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
    EnclosureKitError,
    InvalidParameterError,
)
from .geometry import (
    AxisEllipse,
    ConvexPolygon,
    Disk,
    Domain,
    Rectangle,
    UnitDisk,
    is_real,
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
    target_h: float
    output_dir: str | None
    delta: float | None = None

    def taus(self) -> np.ndarray:
        return np.linspace(self.tau_min, self.tau_max, self.n_tau)


# ---------------------------------------------------------------------------
# parsing


def _require_keys(d: dict, path: str, required: tuple, optional: tuple) -> None:
    if not isinstance(d, dict):
        raise ConfigError(f"{path}: expected an object")
    unknown = sorted(set(d) - set(required) - set(optional))
    if unknown:
        raise ConfigError(f"{path}: unknown key(s) {unknown}")
    missing = sorted(set(required) - set(d))
    if missing:
        raise ConfigError(f"{path}: missing key(s) {missing}")


def _number(value, path: str) -> float:
    if not is_real(value):
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


def _string(value, path: str) -> str:
    if not isinstance(value, str):
        raise ConfigError(f"{path}: expected a string")
    return value


def _list(convert, what: str):
    """Converter of a list whose items ``convert`` parses, to a tuple."""
    def parse(value, path: str) -> tuple:
        if not isinstance(value, list):
            raise ConfigError(f"{path}: expected {what}")
        return tuple(convert(v, f"{path}[{i}]") for i, v in enumerate(value))

    return parse


def _object(cls, fields: dict, optional: tuple = ()):
    """Converter of a JSON object to ``cls(**converted fields)``.

    ``fields`` maps each key to its converter, in the order they run; a key
    in ``optional`` may be missing or null and then keeps ``cls``'s default.
    An InvalidParameterError from ``cls`` becomes a ConfigError naming the
    object.  The root has the empty path, and its keys bare names.
    """
    required = tuple(name for name in fields if name not in optional)

    def parse(d, path: str):
        _require_keys(d, path or "config", required, optional)
        args = {
            name: convert(d[name], f"{path}.{name}" if path else name)
            for name, convert in fields.items()
            if name not in optional or d.get(name) is not None
        }
        try:
            return cls(**args)
        except InvalidParameterError as exc:
            raise ConfigError(f"{path}: {exc}") from exc

    return parse


def _parse_tagged(types: dict, what: str):
    """Converter of a ``{"type": ..., field: ...}`` entry, by ``types[type]``."""
    def parse(d, path: str):
        if not isinstance(d, dict) or "type" not in d:
            raise ConfigError(f"{path}: expected an object with a 'type' key")
        kind = d["type"]
        # a list or object `type` is unhashable, so test for a string first
        if not isinstance(kind, str) or kind not in types:
            raise ConfigError(f"{path}.type: unknown {what} type {kind!r}")
        return types[kind]({k: v for k, v in d.items() if k != "type"}, path)

    return parse


# The field tables: every config key with the converter of its value, in the
# order they run, and the converter of a tagged entry's other keys per type.
SHAPE_TYPES = {
    "disk": _object(Disk, {"center": _point, "radius": _number}),
    "axis_ellipse": _object(AxisEllipse, {"center": _point, "semi_a": _number, "semi_b": _number}),
    "convex_polygon": _object(ConvexPolygon, {"vertices": _list(_point, "a list of [x, y]")}),
}
DOMAIN_TYPES = {
    "unit_disk": _object(UnitDisk, {}),
    "rectangle": _object(
        Rectangle, {"x_min": _number, "x_max": _number, "y_min": _number, "y_max": _number}
    ),
}
INCLUSION_FIELDS = {"shape": _parse_tagged(SHAPE_TYPES, "shape"), "alpha": _symmat, "beta": _symmat}
SCENE_FIELDS = {
    "sigma0": _number,
    "eps0": _number,
    "omega": _number,
    "inclusions": _list(_object(Inclusion, INCLUSION_FIELDS), "a list"),
}
SWEEP_FIELDS = {
    "n_directions": _integer,
    "tau_min": _number,
    "tau_max": _number,
    "n_tau": _integer,
    "delta": _number,
}
CONFIG_FIELDS = {
    "domain": _parse_tagged(DOMAIN_TYPES, "domain"),
    "material": _object(MaterialScene, SCENE_FIELDS),
    "sweep": _object(dict, SWEEP_FIELDS, ("delta",)),
    "mesh": _object(dict, {"target_h": _number}),
    "output_dir": _string,
}


def parse_config(raw: dict) -> ScenarioConfig:
    """Validate a scenario dictionary: each value by the field tables, then cross-field rules."""
    parsed = _object(dict, CONFIG_FIELDS, ("output_dir",))(raw, "")
    config = ScenarioConfig(
        parsed["domain"], parsed["material"], **parsed["sweep"], **parsed["mesh"],
        output_dir=parsed.get("output_dir"),
    )
    if not (0.0 < config.tau_min < config.tau_max):
        raise ConfigError("sweep: need 0 < tau_min < tau_max")
    if not 2 <= config.n_tau <= MAX_SAMPLES:
        raise ConfigError(f"sweep.n_tau: need 2 to {MAX_SAMPLES} samples")
    if not 1 <= config.n_directions <= MAX_SAMPLES:
        raise ConfigError(f"sweep.n_directions: need 1 to {MAX_SAMPLES}")
    if config.delta is not None and not config.delta > 0.0:
        raise ConfigError("sweep.delta: must be > 0")
    for i, inc in enumerate(config.scene.inclusions):
        try:
            require_margin(config.domain, inc.shape)
        except InvalidParameterError as exc:
            raise ConfigError(f"material.inclusions[{i}]: {exc}") from exc
    return config


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
    if direction is not None and not 0 <= direction < config.n_directions:
        raise ConfigError(f"--direction {direction} out of range 0..{config.n_directions - 1}")
    indices = range(config.n_directions) if direction is None else [direction]

    all_ok = True
    json_rows = []
    for k in indices:
        report = materials.classify_regime(config.scene, frames[k], config.delta)
        if as_json:
            theta = list(frames[k].theta)
            json_rows.append({"direction_index": k, "theta": theta, "report": report.to_json_dict()})
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
        "direction_index,theta_x,theta_y,h_hat,h_exact,fit_residual,regime_flags".split(","),
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
    paths = {n: os.path.join(target_dir, f"{n}.csv") for n in ("indicator", "support", "hull")}
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
    print(f"wrote {', '.join(paths.values())}")
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


# subcommand -> (function, its options as (flag, argparse keywords)); each
# option's dest is the name of the function's parameter it sets
COMMANDS = {
    "reduce": (cmd_reduce, ()),
    "check": (
        cmd_check,
        (("--direction", {"type": int}), ("--json", {"action": "store_true", "dest": "as_json"})),
    ),
    "sweep": (
        cmd_sweep,
        (("--out", {"dest": "out_dir", "metavar": "OUT", "help": "output directory"}),),
    ),
    "mesh-dump": (
        cmd_mesh_dump,
        (("--out", {"dest": "out_dir", "metavar": "OUT", "help": "output directory"}),),
    ),
}


def main(argv=None) -> int:
    parser = _Parser(
        prog="enclosure-kit",
        description="Enclosure-method reconstruction for complex conductivity scenes",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_, options) in COMMANDS.items():
        p = sub.add_parser(name)
        p.add_argument("--config", required=True, help="scenario JSON file")
        for flag, keywords in options:
            p.add_argument(flag, **keywords)
    try:
        args = vars(parser.parse_args(argv))
        command, _ = COMMANDS[args.pop("command")]
        return command(load_config(args.pop("config")), **args)
    except EnclosureKitError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.exit_code


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
