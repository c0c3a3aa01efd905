import copy
import json
import math
import os
import subprocess
import sys

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from enclosure_kit import cli, enclosure, meshing
from enclosure_kit.errors import (
    ConfigError,
    EnclosureKitError,
    EstimationError,
    InvalidParameterError,
)
from enclosure_kit.geometry import Disk
from enclosure_kit.materials import Inclusion, MaterialScene, SymMat2

CHEAP_SWEEP = {
    "domain": {"type": "unit_disk"},
    "material": {
        "sigma0": 1.0,
        "eps0": 1.0,
        "omega": 1.0,
        "inclusions": [
            {
                "shape": {"type": "disk", "center": [0.3, 0.0], "radius": 0.2},
                "alpha": [1.0, 0.0, 1.0],
                "beta": [0.0, 0.0, 0.0],
            }
        ],
    },
    "sweep": {"n_directions": 8, "tau_min": 2.0, "tau_max": 8.0, "n_tau": 9, "delta": None},
    "mesh": {"target_h": 0.04},
    "output_dir": None,
}


# every domain and shape type, so that each parser branch is reachable
RICH_CONFIG = {
    "domain": {"type": "rectangle", "x_min": -1.5, "x_max": 1.5, "y_min": -1.0, "y_max": 1.0},
    "material": {
        "sigma0": 1.0,
        "eps0": 2.0,
        "omega": 0.5,
        "inclusions": [
            {
                "shape": {
                    "type": "axis_ellipse",
                    "center": [-0.4, 0.1],
                    "semi_a": 0.2,
                    "semi_b": 0.1,
                },
                "alpha": [0.5, 0.1, 0.4],
                "beta": [0.0, 0.0, 0.0],
            },
            {
                "shape": {
                    "type": "convex_polygon",
                    "vertices": [[0.3, -0.2], [0.6, -0.1], [0.4, 0.2]],
                },
                "alpha": [0.3, 0.0, 0.3],
                "beta": [0.2, 0.0, 0.2],
            },
        ],
    },
    "sweep": {"n_directions": 8, "tau_min": 2.0, "tau_max": 8.0, "n_tau": 9, "delta": 0.05},
    "mesh": {"target_h": 0.04},
    "output_dir": "out",
}

JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=6),
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.text(max_size=6), inner, max_size=4),
    max_leaves=10,
)

PROPERTY_SETTINGS = settings(derandomize=True, database=None, deadline=None, max_examples=400)


def key_paths(node, prefix=()):
    """Every key path into a JSON value, the empty root path included."""
    yield prefix
    if isinstance(node, dict):
        children = node.items()
    elif isinstance(node, list):
        children = enumerate(node)
    else:
        return
    for key, child in children:
        yield from key_paths(child, prefix + (key,))


def error_location(path):
    """The name parse_config gives the object at ``path`` in its messages."""
    if not path:
        return "config"
    name = path[0]
    for key in path[1:]:
        name += f"[{key}]" if isinstance(key, int) else f".{key}"
    return name


def json_at(node, path):
    for key in path:
        node = node[key]
    return node


def with_value(base, path, value):
    """A copy of ``base`` holding ``value`` at the key path ``path``."""
    if not path:
        return value
    raw = copy.deepcopy(base)
    json_at(raw, path[:-1])[path[-1]] = value
    return raw


@st.composite
def configs_with_one_value_replaced(draw):
    base = draw(st.sampled_from([CHEAP_SWEEP, RICH_CONFIG]))
    path = draw(st.sampled_from(list(key_paths(base))))
    return with_value(base, path, draw(JSON_VALUES))


@st.composite
def configs_with_one_unknown_key(draw):
    base = draw(st.sampled_from([CHEAP_SWEEP, RICH_CONFIG]))
    objects = [p for p in key_paths(base) if isinstance(json_at(base, p), dict)]
    path = draw(st.sampled_from(objects))
    raw = copy.deepcopy(base)
    target = json_at(raw, path)
    key = draw(st.text(max_size=6).filter(lambda k: k not in target))
    target[key] = draw(JSON_VALUES)
    return raw, error_location(path)


# the exit-code table of README "Command line"
README_EXIT_CODES = {
    "EnclosureKitError": 3,
    "ConfigError": 1,
    "InvalidParameterError": 1,
    "ProbeResolutionError": 1,
    "ResourceLimitError": 1,
    "EmptySlabError": 2,
    "DegenerateHullError": 3,
    "MeshError": 3,
    "SolveError": 3,
    "EstimationError": 3,
}


def write_config(tmp_path, raw, name="scenario.json"):
    path = tmp_path / name
    path.write_text(json.dumps(raw))
    return str(path)


def error_classes(cls=EnclosureKitError):
    yield cls
    for sub in cls.__subclasses__():
        yield from error_classes(sub)


class TestConfigParsing:
    def test_bundled_scenarios_parse(self):
        for name in (
            "positive_disk",
            "negative_disk_lowfreq",
            "proportional_highfreq",
            "positive_permittivity",
            "empty",
        ):
            with open(cli.scenario_path(name)) as f:
                raw = json.load(f)
            assert isinstance(cli.parse_config(raw), cli.ScenarioConfig)

    def test_unknown_key_rejected_with_path(self):
        raw = copy.deepcopy(CHEAP_SWEEP)
        raw["material"]["inclusions"][0]["gamma"] = [1, 0, 1]
        with pytest.raises(ConfigError, match=r"material\.inclusions\[0\]"):
            cli.parse_config(raw)

    def test_nonpositive_eps0_rejected(self):
        raw = copy.deepcopy(CHEAP_SWEEP)
        raw["material"]["eps0"] = 0.0
        with pytest.raises(ConfigError, match="eps0"):
            cli.parse_config(raw)

    def test_full_matrix_entry_rejected(self):
        raw = copy.deepcopy(CHEAP_SWEEP)
        raw["material"]["inclusions"][0]["alpha"] = [[1.0, 0.0], [0.0, 1.0]]
        with pytest.raises(ConfigError, match=r"a11, a12, a22"):
            cli.parse_config(raw)

    def test_margin_violation_rejected(self):
        raw = copy.deepcopy(CHEAP_SWEEP)
        raw["material"]["inclusions"][0]["shape"]["center"] = [0.75, 0.0]
        with pytest.raises(ConfigError, match="boundary"):
            cli.parse_config(raw)

    def test_bad_json_reports_line(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text('{\n  "domain": \n}')
        with pytest.raises(ConfigError, match=r"broken\.json:3"):
            cli.load_config(str(path))

    @pytest.mark.parametrize(
        "blob",
        [
            json.dumps(CHEAP_SWEEP).encode() + b" \xe9",
            json.dumps(CHEAP_SWEEP).replace('"omega": 1.0', '"omega": 1' + "0" * 5000).encode(),
        ],
        ids=["not-utf8", "overlong-integer"],
    )
    def test_unreadable_config_rejected(self, tmp_path, capsys, blob):
        path = tmp_path / "bad.json"
        path.write_bytes(blob)
        assert cli.main(["reduce", "--config", str(path)]) == 1
        assert "bad.json" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "value", [float("nan"), float("inf"), 10**400], ids=["nan", "inf", "huge-int"]
    )
    def test_non_finite_omega_rejected(self, tmp_path, capsys, value):
        raw = copy.deepcopy(CHEAP_SWEEP)
        raw["material"]["omega"] = value
        path = write_config(tmp_path, raw)
        assert cli.main(["reduce", "--config", path]) == 1
        captured = capsys.readouterr()
        assert "material.omega" in captured.err
        assert captured.out == ""

    @pytest.mark.parametrize(
        "command, inclusions",
        [("reduce", 1), ("check", 1), ("sweep", 1), ("reduce", 0)],
        ids=["reduce", "check", "sweep", "reduce-no-inclusion"],
    )
    def test_overflowing_omega_is_one_error_line(self, tmp_path, capsys, command, inclusions):
        # omega^2 overflows in the reduced tensors, or in P, Q without inclusions
        raw = copy.deepcopy(CHEAP_SWEEP)
        raw["material"]["omega"] = 1e200
        del raw["material"]["inclusions"][inclusions:]
        path = write_config(tmp_path, raw)
        args = [command, "--config", path]
        if command == "sweep":
            args += ["--out", str(tmp_path / "o")]
        assert cli.main(args) == 1
        captured = capsys.readouterr()
        assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
        assert captured.out == ""

    @pytest.mark.parametrize("command", ["reduce", "check", "sweep"])
    def test_underflowing_background_is_one_error_line(self, tmp_path, capsys, command):
        # sigma0^2 + omega^2*eps0^2 underflows to 0: refused like an overflow
        raw = copy.deepcopy(CHEAP_SWEEP)
        raw["material"]["sigma0"] = raw["material"]["omega"] = 1e-170
        path = write_config(tmp_path, raw)
        args = [command, "--config", path]
        if command == "sweep":
            args += ["--out", str(tmp_path / "o")]
        assert cli.main(args) == 1
        captured = capsys.readouterr()
        assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
        assert "too small" in captured.err
        assert captured.out == ""

    @pytest.mark.parametrize(
        "command, key",
        [("sweep", "n_tau"), ("check", "n_directions"), ("sweep", "n_directions")],
    )
    def test_huge_sample_count_is_one_error_line(self, tmp_path, capsys, command, key):
        raw = copy.deepcopy(CHEAP_SWEEP)
        raw["sweep"][key] = 10**15
        path = write_config(tmp_path, raw)
        args = [command, "--config", path]
        if command == "sweep":
            args += ["--out", str(tmp_path / "o")]
        assert cli.main(args) == 1
        captured = capsys.readouterr()
        assert captured.err.startswith(f"error: sweep.{key}")
        assert captured.err.count("\n") == 1
        assert captured.out == ""

    @pytest.mark.parametrize("key", ["n_tau", "n_directions"])
    def test_sample_count_cap(self, key):
        raw = copy.deepcopy(CHEAP_SWEEP)
        raw["sweep"][key] = cli.MAX_SAMPLES
        assert getattr(cli.parse_config(raw), key) == cli.MAX_SAMPLES
        raw["sweep"][key] = cli.MAX_SAMPLES + 1
        with pytest.raises(ConfigError, match=f"sweep.{key}"):
            cli.parse_config(raw)

    @pytest.mark.parametrize("command", ["check", "sweep"])
    def test_non_coercive_static_scene_rejected(self, tmp_path, capsys, command):
        # omega = 0 leaves sigma0*I + alpha as the whole operator on the inclusion
        inclusion = Inclusion(Disk((0.3, 0.0), 0.2), SymMat2.iso(-1.0), SymMat2.zero())
        with pytest.raises(InvalidParameterError, match="inclusion 0"):
            MaterialScene(1.0, 1.0, 0.0, (inclusion,))
        raw = copy.deepcopy(CHEAP_SWEEP)
        raw["material"]["omega"] = 0.0
        raw["material"]["inclusions"][0]["alpha"] = [-1.0, 0.0, -1.0]
        path = write_config(tmp_path, raw)
        args = [command, "--config", path]
        if command == "sweep":
            args += ["--out", str(tmp_path / "o")]
        assert cli.main(args) == 1
        assert "material: inclusion 0" in capsys.readouterr().err

    def test_nan_center_rejected_with_path(self, tmp_path, capsys):
        raw = copy.deepcopy(CHEAP_SWEEP)
        raw["material"]["inclusions"][0]["shape"]["center"] = [float("nan"), 0.0]
        path = write_config(tmp_path, raw)
        assert cli.main(["sweep", "--config", path, "--out", str(tmp_path / "o")]) == 1
        assert "material.inclusions[0].shape.center[0]" in capsys.readouterr().err


class TestReduceCommand:
    def test_prints_reduced_tensors(self, tmp_path, capsys):
        path = write_config(tmp_path, CHEAP_SWEEP)
        assert cli.main(["reduce", "--config", path]) == 0
        out = capsys.readouterr().out
        assert "a = [[0.5, 0], [0, 0.5]]" in out
        assert "b = [[-0.5, 0], [0, -0.5]]" in out
        assert "P = 0.5, Q = 0.5" in out
        blob = json.loads(out.strip().splitlines()[-1])
        assert blob["inclusions"][0]["a"] == [0.5, 0.0, 0.5]

    def test_zero_perturbation(self, tmp_path, capsys):
        raw = copy.deepcopy(CHEAP_SWEEP)
        raw["material"]["inclusions"][0]["alpha"] = [0.0, 0.0, 0.0]
        path = write_config(tmp_path, raw)
        assert cli.main(["reduce", "--config", path]) == 0
        out = capsys.readouterr().out
        assert "a = [[0, 0], [0, 0]]" in out

    def test_no_inclusions(self, tmp_path, capsys):
        raw = copy.deepcopy(CHEAP_SWEEP)
        raw["material"]["inclusions"] = []
        path = write_config(tmp_path, raw)
        assert cli.main(["reduce", "--config", path]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert "no inclusions: reduced scene is the identity background" in lines
        assert json.loads(lines[-1]) == {"inclusions": [], "P": 0.5, "Q": 0.5}

    def test_invalid_config_exit_code(self, tmp_path, capsys):
        raw = copy.deepcopy(CHEAP_SWEEP)
        raw["material"]["eps0"] = -1.0
        path = write_config(tmp_path, raw)
        assert cli.main(["reduce", "--config", path]) == 1
        assert "eps0" in capsys.readouterr().err


class TestCheckCommand:
    def test_positive_scene_exit_zero(self, tmp_path, capsys):
        path = write_config(tmp_path, CHEAP_SWEEP)
        assert cli.main(["check", "--config", path]) == 0
        out = capsys.readouterr().out
        assert "Thm1.1'" in out

    def test_no_applicable_regime_exit_two(self, tmp_path, capsys):
        raw = copy.deepcopy(CHEAP_SWEEP)
        raw["material"]["omega"] = 0.0
        raw["material"]["inclusions"][0]["alpha"] = [0.5, 0.0, -0.5]
        path = write_config(tmp_path, raw)
        assert cli.main(["check", "--config", path]) == 2
        assert "no applicable" in capsys.readouterr().out

    def test_overflowing_similarity_ratio_exit_two(self, tmp_path, capsys):
        # sigma/sigma0 - eps/eps0 overflows; omega is far above omega_max
        raw = copy.deepcopy(CHEAP_SWEEP)
        raw["material"]["eps0"] = 1e-300
        raw["material"]["inclusions"][0]["alpha"] = [-0.9, 0.0, -0.9]
        raw["material"]["inclusions"][0]["beta"] = [1e10, 0.0, 1e10]
        path = write_config(tmp_path, raw)
        assert cli.main(["check", "--config", path]) == 2
        out = capsys.readouterr().out
        assert "Cor2.1" not in out and "R = inf" in out

    def test_single_direction_json(self, tmp_path, capsys):
        path = write_config(tmp_path, CHEAP_SWEEP)
        assert cli.main(["check", "--config", path, "--direction", "0", "--json"]) == 0
        rows = json.loads(capsys.readouterr().out)
        assert len(rows) == 1
        assert rows[0]["direction_index"] == 0
        assert rows[0]["report"]["jump"] == "positive"

    def test_direction_out_of_range(self, tmp_path, capsys):
        path = write_config(tmp_path, CHEAP_SWEEP)
        assert cli.main(["check", "--config", path, "--direction", "99"]) == 1

    def test_empty_scene_exit_two(self, tmp_path, capsys):
        raw = copy.deepcopy(CHEAP_SWEEP)
        raw["material"]["inclusions"] = []
        path = write_config(tmp_path, raw)
        assert cli.main(["check", "--config", path]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: scene has no inclusions\n"

    def test_huge_contrast_keeps_similarity_bound_finite(self, tmp_path, capsys):
        # m*C_theta overflows near 1e200; sqrt(m)*sqrt(C_theta) does not
        raw = copy.deepcopy(CHEAP_SWEEP)
        raw["material"]["inclusions"][0]["alpha"] = [1e200, 0.0, 1e200]
        path = write_config(tmp_path, raw)
        assert cli.main(["check", "--config", path, "--direction", "0", "--json"]) == 0
        rhs = json.loads(capsys.readouterr().out)[0]["report"]["rhs"]
        assert isinstance(rhs, float) and math.isfinite(rhs)

    @pytest.mark.parametrize("command", ["check", "sweep"])
    def test_tiny_delta_keeps_the_inclusion(self, tmp_path, capsys, command):
        # h - delta rounds to h: the inclusion attaining h must stay in the slab
        raw = copy.deepcopy(CHEAP_SWEEP)
        raw["sweep"]["delta"] = 1e-20
        path = write_config(tmp_path, raw)
        args = [command, "--config", path]
        if command == "sweep":
            args += ["--out", str(tmp_path / "o")]
        assert cli.main(args) == 0
        captured = capsys.readouterr()
        assert captured.err == "" and "Thm1.1'" in captured.out


class TestSweepCommand:
    def test_writes_csv_trio(self, tmp_path, capsys):
        path = write_config(tmp_path, CHEAP_SWEEP)
        out_dir = tmp_path / "out"
        assert cli.main(["sweep", "--config", path, "--out", str(out_dir)]) == 0
        out = capsys.readouterr().out
        assert "max |h_hat - h_exact|" in out
        indicator = (out_dir / "indicator.csv").read_text().splitlines()
        support = (out_dir / "support.csv").read_text().splitlines()
        hull = (out_dir / "hull.csv").read_text().splitlines()
        assert indicator[0] == "direction_index,theta_x,theta_y,tau,t,log_abs_I,sign"
        assert len(indicator) == 1 + 8 * 9
        assert (
            support[0]
            == "direction_index,theta_x,theta_y,h_hat,h_exact,fit_residual,regime_flags"
        )
        assert len(support) == 1 + 8
        assert hull[0] == "vertex,x,y"
        assert len(hull) > 3

    def test_empty_scenario_no_inclusion(self, tmp_path, capsys):
        raw = copy.deepcopy(CHEAP_SWEEP)
        raw["material"]["inclusions"] = []
        path = write_config(tmp_path, raw)
        out_dir = tmp_path / "out"
        assert cli.main(["sweep", "--config", path, "--out", str(out_dir)]) == 0
        assert "no inclusion detected" in capsys.readouterr().out
        support = (out_dir / "support.csv").read_text().splitlines()
        assert all("no-inclusion;no-signal" in line for line in support[1:])
        hull = (out_dir / "hull.csv").read_text().splitlines()
        assert len(hull) == 1

    def test_gate_violation_reports_max_tau(self, tmp_path, capsys):
        raw = copy.deepcopy(CHEAP_SWEEP)
        raw["sweep"]["tau_max"] = 50.0
        path = write_config(tmp_path, raw)
        assert cli.main(["sweep", "--config", path, "--out", str(tmp_path / "o")]) == 1
        err = capsys.readouterr().err
        assert "largest admissible tau" in err

    def test_solve_block_over_budget(self, tmp_path, capsys):
        # 10,000 directions x 801 taus: 8,010,000 curve samples
        raw = copy.deepcopy(CHEAP_SWEEP)
        raw["sweep"]["n_directions"] = cli.MAX_SAMPLES
        raw["sweep"]["n_tau"] = enclosure.MAX_SOLVE_BLOCK // cli.MAX_SAMPLES + 1
        path = write_config(tmp_path, raw)
        out_dir = tmp_path / "o"
        assert cli.main(["sweep", "--config", path, "--out", str(out_dir)]) == 1
        captured = capsys.readouterr()
        assert captured.err.startswith("error: ") and "budget" in captured.err
        assert not out_dir.exists()

    def test_huge_contrast_prints_no_nan(self, tmp_path, capsys):
        # entries near 1e200 square to infinity in a naive residual norm
        raw = copy.deepcopy(CHEAP_SWEEP)
        raw["material"]["inclusions"][0]["alpha"] = [1e200, 0.0, 1e200]
        path = write_config(tmp_path, raw)
        out_dir = tmp_path / "o"
        cli.main(["sweep", "--config", path, "--out", str(out_dir)])
        captured = capsys.readouterr()
        assert captured.err == "" and "nan" not in captured.out
        for name in ("indicator.csv", "support.csv", "hull.csv"):
            assert "nan" not in (out_dir / name).read_text().lower()

    def test_hull_failure_still_writes_outputs(self, tmp_path, capsys, monkeypatch):
        fitted = []
        fit = enclosure.estimate_support

        def two_fits(curve):
            if len(fitted) == 2:
                raise EstimationError("no fit")
            fitted.append(fit(curve))
            return fitted[-1]

        monkeypatch.setattr(enclosure, "estimate_support", two_fits)
        path = write_config(tmp_path, CHEAP_SWEEP)
        out_dir = tmp_path / "o"
        assert cli.main(["sweep", "--config", path, "--out", str(out_dir)]) == 3
        out = capsys.readouterr().out
        assert "estimated support on 2/8 directions" in out
        # the sweep's hull_error: two half planes cannot bound a hull
        assert out.splitlines()[-1].startswith("hull not recovered: need at least 3")
        assert len((out_dir / "support.csv").read_text().splitlines()) == 1 + 8
        assert (out_dir / "hull.csv").read_text().splitlines() == ["vertex,x,y"]

    def test_determinism_byte_identical(self, tmp_path):
        path = write_config(tmp_path, CHEAP_SWEEP)
        dirs = [tmp_path / "a", tmp_path / "b"]
        for d in dirs:
            assert cli.main(["sweep", "--config", path, "--out", str(d)]) == 0
        for name in ("indicator.csv", "support.csv", "hull.csv"):
            assert (dirs[0] / name).read_bytes() == (dirs[1] / name).read_bytes()


class TestBundledPresets:
    """Bundled scenarios are deliverables; run each end to end."""

    @pytest.mark.parametrize(
        "name, tolerance, flag",
        [
            ("negative_disk_lowfreq", 0.07, "Thm1.2'"),
            ("proportional_highfreq", 0.07, "Cor2.1"),
            ("positive_permittivity", 0.07, "Cor2.2"),
        ],
    )
    def test_recovery_presets(self, preset_sweep, name, tolerance, flag):
        run = preset_sweep(name)
        assert run.code == 0
        rows = (run.out_dir / "support.csv").read_text().splitlines()[1:]
        errs = []
        for row in rows:
            fields = row.split(",")
            errs.append(abs(float(fields[3]) - float(fields[4])))
            assert flag in fields[6]
        assert max(errs) <= tolerance

    def test_empty_preset(self, preset_sweep):
        run = preset_sweep("empty")
        assert run.code == 0
        assert "no inclusion detected" in run.stdout

    def test_check_positive_preset(self, capsys):
        assert cli.main(["check", "--config", cli.scenario_path("positive_disk")]) == 0
        assert "Thm1.1'" in capsys.readouterr().out


class TestMeshDumpCommand:
    def test_writes_mesh_files(self, tmp_path, capsys):
        path = write_config(tmp_path, CHEAP_SWEEP)
        out_dir = tmp_path / "mesh"
        assert cli.main(["mesh-dump", "--config", path, "--out", str(out_dir)]) == 0
        assert "min angle" in capsys.readouterr().out
        config = cli.load_config(path)
        mesh = meshing.generate_mesh(config.domain, config.target_h)
        vlines = (out_dir / "vertices.csv").read_text().splitlines()
        tlines = (out_dir / "triangles.csv").read_text().splitlines()
        assert len(vlines) == mesh.num_vertices + 1
        assert len(tlines) == mesh.num_triangles + 1
        assert vlines[0] == "id,x,y"
        assert tlines[0] == "id,v0,v1,v2"


class TestUsage:
    def test_missing_config_file(self, capsys):
        assert cli.main(["reduce", "--config", "/nonexistent.json"]) == 1

    @pytest.mark.parametrize("command", ["sweep", "mesh-dump"])
    def test_out_naming_a_file(self, tmp_path, capsys, command):
        path = write_config(tmp_path, CHEAP_SWEEP)
        occupied = tmp_path / "occupied"
        occupied.write_text("")
        assert cli.main([command, "--config", path, "--out", str(occupied)]) == 1
        assert "occupied" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "command, name", [("sweep", "indicator.csv"), ("mesh-dump", "vertices.csv")]
    )
    def test_output_file_path_occupied(self, tmp_path, capsys, command, name):
        path = write_config(tmp_path, CHEAP_SWEEP)
        out_dir = tmp_path / "out"
        (out_dir / name).mkdir(parents=True)
        assert cli.main([command, "--config", path, "--out", str(out_dir)]) == 1
        err = capsys.readouterr().err
        assert str(out_dir / name) in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("command", ["sweep", "mesh-dump"])
    def test_failed_run_leaves_no_output_dir(self, tmp_path, capsys, command):
        raw = copy.deepcopy(CHEAP_SWEEP)
        raw["mesh"]["target_h"] = 1e-4
        path = write_config(tmp_path, raw)
        out_dir = tmp_path / "out"
        assert cli.main([command, "--config", path, "--out", str(out_dir)]) == 1
        assert "budget" in capsys.readouterr().err
        assert not out_dir.exists()

    @pytest.mark.parametrize("command", ["sweep", "mesh-dump"])
    def test_subnormal_target_h_over_budget(self, tmp_path, capsys, command):
        raw = copy.deepcopy(CHEAP_SWEEP)
        raw["mesh"]["target_h"] = 1e-310
        path = write_config(tmp_path, raw)
        assert cli.main([command, "--config", path, "--out", str(tmp_path / "o")]) == 1
        assert "budget" in capsys.readouterr().err

    @pytest.mark.parametrize("cls", list(error_classes()), ids=lambda c: c.__name__)
    def test_error_exit_code(self, monkeypatch, capsys, cls):
        def raise_it(path):
            raise cls("boom")

        monkeypatch.setattr(cli, "load_config", raise_it)
        assert cli.main(["reduce", "--config", "any.json"]) == README_EXIT_CODES[cls.__name__]
        assert "error: boom" in capsys.readouterr().err

    def test_module_runs_as_script(self):
        src = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
        env = dict(os.environ, PYTHONPATH=src)
        argv = ["reduce", "--config", cli.scenario_path("positive_disk")]
        proc = subprocess.run(
            [sys.executable, "-m", "enclosure_kit.cli", *argv],
            capture_output=True,
            text=True,
            env=env,
            timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        assert "inclusion 0" in proc.stdout
        assert proc.stderr == ""

    def test_unknown_command(self):
        assert cli.main(["frobnicate"]) == 1

    def test_missing_required_flag(self):
        assert cli.main(["reduce"]) == 1


@PROPERTY_SETTINGS
@given(configs_with_one_value_replaced())
# shape sizes whose squares or products overflow
@example(with_value(RICH_CONFIG, ("material", "inclusions", 0, "shape", "semi_a"), 1e200))
@example(
    with_value(RICH_CONFIG, ("material", "inclusions", 1, "shape", "vertices", 0), [1e200, -1e200])
)
def test_parse_returns_config_or_config_error(raw):
    try:
        config = cli.parse_config(raw)
    except ConfigError:
        return
    assert isinstance(config, cli.ScenarioConfig)


@PROPERTY_SETTINGS
@given(configs_with_one_unknown_key())
def test_unknown_key_error_names_its_object(case):
    raw, location = case
    with pytest.raises(ConfigError) as info:
        cli.parse_config(raw)
    assert str(info.value).startswith(f"{location}: unknown key(s)")
