"""Acceptance suite: one test per criterion, one summary line each.

Run with `pytest tests/test_acceptance.py -v`; the per-criterion PASS lines
are printed in the terminal summary (or live with -s).
"""

import csv
import math
import time

import numpy as np
import pytest

from enclosure_kit import cli
from enclosure_kit.enclosure import OUTSIDE_REGIME_FLAG, sweep
from enclosure_kit.geometry import (
    ConvexPolygon,
    DirectionFrame,
    Disk,
    Rectangle,
    UnitDisk,
    hausdorff_support_distance,
)
from enclosure_kit.materials import (
    Inclusion,
    Jump,
    MaterialScene,
    SymMat2,
    bounds_mM,
    check_jump,
    classify_regime,
    default_slab_delta,
    frequency_bound,
    pq_weights,
    reduce_scene,
)
from enclosure_kit.meshing import generate_mesh
from enclosure_kit.solver import (
    DirichletSystem,
    dtn_pairing,
    identity_field,
    reduced_field,
    scene_field,
)
from conftest import REFERENCE_TAUS, reference_scene
from error_norms import p1_l2_error
from scene_factory import random_definite_scene, random_valid_scene

ACCEPTANCE_RESULTS = []

E1 = DirectionFrame((1.0, 0.0))


def record(number, detail):
    line = f"criterion {number:2d}: PASS  {detail}"
    ACCEPTANCE_RESULTS.append(line)
    print(line)


# shared heavy artifacts, built lazily and reused across criteria
_cache = {}


def reference_cli_runs(tmp_path_factory):
    if "cli_runs" not in _cache:
        config = cli.scenario_path("positive_disk")
        out_dirs = [
            tmp_path_factory.mktemp(f"reference_run_{i}") for i in (1, 2)
        ]
        t0 = time.perf_counter()
        code = cli.main(["sweep", "--config", config, "--out", str(out_dirs[0])])
        elapsed = time.perf_counter() - t0
        assert code == 0
        assert cli.main(["sweep", "--config", config, "--out", str(out_dirs[1])]) == 0
        _cache["cli_runs"] = (out_dirs, elapsed)
    return _cache["cli_runs"]


def negative_mesh():
    if "mesh15" not in _cache:
        _cache["mesh15"] = generate_mesh(UnitDisk(), 0.015)
    return _cache["mesh15"]


def test_criterion_01_reduction_algebra():
    rng = np.random.default_rng(101)
    t0 = time.perf_counter()
    worst_fact = 0.0
    worst_linmap = 0.0
    for _ in range(1000):
        scene = random_valid_scene(rng)
        red = reduce_scene(scene)
        w, s0, e0 = scene.omega, scene.sigma0, scene.eps0
        c0 = complex(s0, -w * e0)
        denom = s0**2 + w**2 * e0**2
        for k, rinc in enumerate(red.inclusions):
            sig = scene.sigma_on(k).as_array()
            eps = scene.eps_on(k).as_array()
            lhs = c0 * (np.eye(2) + rinc.a.as_array() - 1j * w * rinc.b.as_array())
            worst_fact = max(worst_fact, float(np.max(np.abs(lhs - (sig - 1j * w * eps)))))
            sig_tilde = (s0 * sig + w**2 * e0 * eps) / denom
            eps_tilde = (s0 * eps - e0 * sig) / denom
            worst_linmap = max(
                worst_linmap,
                float(np.max(np.abs(sig_tilde - np.eye(2) - rinc.a.as_array()))),
                float(np.max(np.abs(eps_tilde - rinc.b.as_array()))),
            )
    elapsed = time.perf_counter() - t0
    assert worst_fact < 1e-12
    assert worst_linmap < 1e-12
    assert elapsed < 1.0
    record(1, f"factorization {worst_fact:.2e}, tilde-map {worst_linmap:.2e}, {elapsed:.2f}s")


def test_criterion_02_convex_combination():
    rng = np.random.default_rng(102)
    worst_sum = 0.0
    worst_rewrite = 0.0
    for _ in range(1000):
        scene = random_valid_scene(rng, force_positive_background=True)
        s0, e0, w = scene.sigma0, scene.eps0, scene.omega
        p, q = pq_weights(s0, e0, w)
        worst_sum = max(worst_sum, abs(p + q - 1.0))
        inc = scene.inclusions[0]
        sig = scene.sigma_on(0).as_array()
        eps = scene.eps_on(0).as_array()
        lhs = (s0 * (sig - s0 * np.eye(2)) + w**2 * e0 * (eps - e0 * np.eye(2))) / (
            s0**2 + w**2 * e0**2
        )
        rhs = p * (sig / s0 - np.eye(2)) + q * (eps / e0 - np.eye(2))
        worst_rewrite = max(worst_rewrite, float(np.max(np.abs(lhs - rhs))))
    assert worst_sum <= 1e-15
    assert worst_rewrite < 1e-12
    record(2, f"|P+Q-1| {worst_sum:.2e}, rewrite {worst_rewrite:.2e}")


def test_criterion_03_jump_oracle():
    rng = np.random.default_rng(103)
    ang = 2.0 * math.pi * rng.random(10_000)
    xi = np.column_stack([np.cos(ang), np.sin(ang)])
    worst_c = 0.0
    for _ in range(200):
        scene = random_definite_scene(rng)
        frame = DirectionFrame.from_angle(rng.uniform(0.0, 2.0 * math.pi))
        delta = default_slab_delta(scene, frame)
        jump, c = check_jump(scene, frame, delta)
        inc = scene.inclusions[0]
        denom = scene.sigma0**2 + scene.omega**2 * scene.eps0**2
        lhs = (
            scene.sigma0 * inc.alpha.as_array()
            + scene.omega**2 * scene.eps0 * inc.beta.as_array()
        )
        quad = np.einsum("na,ab,nb->n", xi, lhs, xi) / denom
        qmin, qmax = float(np.min(quad)), float(np.max(quad))
        if qmin > 0:
            assert jump is Jump.POSITIVE
            worst_c = max(worst_c, abs(c - qmin))
        elif qmax < 0:
            assert jump is Jump.NEGATIVE
            worst_c = max(worst_c, abs(c + qmax))
        else:
            assert jump is Jump.NONE
    assert worst_c <= 1e-4
    record(3, f"classification exact on 200 scenes, |C - scan| {worst_c:.2e}")


def test_criterion_04_fem_correctness():
    t0 = time.perf_counter()
    square = Rectangle(0.0, 1.0, 0.0, 1.0)

    mesh = generate_mesh(square, 0.25)
    system = DirichletSystem(mesh, identity_field(mesh))
    trace = mesh.vertices[mesh.boundary_vertices][:, 0].astype(complex)
    sol = system.solve_dirichlet(trace)
    patch_err = float(np.max(np.abs(sol.u - mesh.vertices[:, 0])))
    assert patch_err < 1e-12

    exact = lambda p: np.exp(p[:, 0]) * np.cos(p[:, 1])
    errors = []
    hs = (0.08, 0.04, 0.02)
    for target in hs:
        m = generate_mesh(square, target)
        s = DirichletSystem(m, identity_field(m))
        u = s.solve_dirichlet(exact(m.vertices[m.boundary_vertices]).astype(complex))
        errors.append(p1_l2_error(m, u.u, exact))
    slope = np.polyfit(np.log(hs), np.log(errors), 1)[0]
    assert slope >= 1.8

    disk_mesh = generate_mesh(UnitDisk(), 0.1)
    red = reduce_scene(reference_scene())
    sys_inc = DirichletSystem(disk_mesh, reduced_field(disk_mesh, red))
    bnd = disk_mesh.vertices[disk_mesh.boundary_vertices]
    f = bnd[:, 0].astype(complex)
    g = (bnd[:, 1] + 0.2j * bnd[:, 0]).astype(complex)
    pair_fg = dtn_pairing(sys_inc, sys_inc.solve_dirichlet(f), g)
    pair_gf = dtn_pairing(sys_inc, sys_inc.solve_dirichlet(g), f)
    sym_err = abs(pair_fg - pair_gf)
    assert sym_err < 1e-10

    rng = np.random.default_rng(104)
    ext = np.zeros(disk_mesh.num_vertices, dtype=complex)
    ext[disk_mesh.boundary_vertices] = g
    interior = disk_mesh.interior_vertices()
    ext[interior] = rng.normal(size=len(interior)) + 1j * rng.normal(size=len(interior))
    sol_f = sys_inc.solve_dirichlet(f)
    ext_err = abs(
        dtn_pairing(sys_inc, sol_f, g) - dtn_pairing(sys_inc, sol_f, g, extension=ext)
    )
    assert ext_err < 1e-10

    elapsed = time.perf_counter() - t0
    assert elapsed < 30.0
    record(
        4,
        f"patch {patch_err:.1e}, L2 order {slope:.2f}, symmetry {sym_err:.1e}, "
        f"extension {ext_err:.1e}, {elapsed:.1f}s",
    )


def test_criterion_05_dtn_scaling_law():
    rng = np.random.default_rng(105)
    mesh = generate_mesh(UnitDisk(), 0.15)
    f = mesh.vertices[mesh.boundary_vertices][:, 0].astype(complex)
    worst = 0.0
    for _ in range(20):
        scene = random_valid_scene(rng, force_positive_background=True)
        c0 = complex(scene.sigma0, -scene.omega * scene.eps0)
        sys_orig = DirichletSystem(mesh, scene_field(mesh, scene))
        sys_red = DirichletSystem(mesh, reduced_field(mesh, reduce_scene(scene)))
        p_orig = dtn_pairing(sys_orig, sys_orig.solve_dirichlet(f), f)
        p_red = dtn_pairing(sys_red, sys_red.solve_dirichlet(f), f)
        worst = max(worst, abs(p_orig - c0 * p_red) / abs(p_orig))
    assert worst < 1e-10
    record(5, f"unreduced vs reduced pairing, worst relative {worst:.2e}")


def read_csv_rows(path):
    with open(path) as f:
        return list(csv.DictReader(f))


def test_criterion_06_enclosure_recovery(tmp_path_factory):
    out_dirs, elapsed = reference_cli_runs(tmp_path_factory)
    rows = read_csv_rows(out_dirs[0] / "support.csv")
    assert len(rows) == 16
    errs = [
        abs(float(r["h_hat"]) - (0.3 * float(r["theta_x"]) + 0.2)) for r in rows
    ]
    max_err = max(errs)
    assert max_err <= 0.05

    hull_rows = read_csv_rows(out_dirs[0] / "hull.csv")
    hull = ConvexPolygon(tuple((float(r["x"]), float(r["y"])) for r in hull_rows))
    dist = hausdorff_support_distance(hull, Disk((0.3, 0.0), 0.2))
    assert dist <= 0.06

    assert elapsed <= 300.0
    record(6, f"max support error {max_err:.4f}, hull Hausdorff {dist:.4f}, {elapsed:.0f}s")


def test_criterion_07_trichotomy(reference_engine):
    h = 0.5  # support of the reference disk along +x
    curve = reference_engine.curve(E1, REFERENCE_TAUS)
    upper = REFERENCE_TAUS >= 0.5 * (REFERENCE_TAUS[0] + REFERENCE_TAUS[-1])
    decreasing = np.diff(curve.shifted(h + 0.2).log_abs[upper])
    increasing = np.diff(curve.shifted(h - 0.2).log_abs[upper])
    assert np.all(decreasing < 0.0)
    assert np.all(increasing > 0.0)
    record(
        7,
        f"log|I| monotone on upper window: t=h+0.2 max diff {np.max(decreasing):.3f} < 0,"
        f" t=h-0.2 min diff {np.min(increasing):.3f} > 0",
    )


def test_criterion_08_negative_jump_frequency_band():
    alpha, beta = SymMat2.iso(-0.5), SymMat2.iso(0.25)
    disk = Disk((0.3, 0.0), 0.2)

    # constants evaluated at omega = 0 define the frequency band
    scene0 = MaterialScene(1.0, 1.0, 0.0, (Inclusion(disk, alpha, beta),))
    m0, big_m0 = bounds_mM(scene0)
    jump0, c0 = check_jump(scene0, E1, default_slab_delta(scene0, E1))
    assert jump0 is Jump.NEGATIVE
    omega_max = frequency_bound(m0, c0, big_m0)
    assert omega_max == pytest.approx(2.0 / 3.0)

    mesh = negative_mesh()
    scene_lo = MaterialScene(1.0, 1.0, 0.5 * omega_max, (Inclusion(disk, alpha, beta),))
    result_lo = sweep(scene_lo, mesh, 16, REFERENCE_TAUS)
    max_err = result_lo.max_support_error()
    assert max_err <= 0.07
    for d in result_lo.directions:
        assert "Thm1.2'" in d.flags

    scene_hi = MaterialScene(1.0, 1.0, 2.0 * omega_max, (Inclusion(disk, alpha, beta),))
    result_hi = sweep(scene_hi, mesh, 16, REFERENCE_TAUS)
    assert result_hi.detected
    assert len(result_hi.estimates()) == 16
    for d in result_hi.directions:
        assert OUTSIDE_REGIME_FLAG in d.flags
    record(
        8,
        f"omega_max {omega_max:.4f}; at omega/2 max error {max_err:.4f}; "
        f"at 2*omega_max all 16 directions flagged outside proven regime",
    )


def test_criterion_09_similarity_regime():
    disk = Disk((0.3, 0.0), 0.2)
    scene = MaterialScene(
        1.0, 1.0, 5.0, (Inclusion(disk, SymMat2.iso(-0.5), SymMat2.iso(-0.5)),)
    )
    report = classify_regime(scene, E1)
    assert report.jump is Jump.NEGATIVE
    assert report.similarity_lhs == pytest.approx(0.0, abs=1e-15)
    assert "Cor2.1" in report.applicable

    result = sweep(scene, negative_mesh(), 16, REFERENCE_TAUS)
    max_err = result.max_support_error()
    assert max_err <= 0.07
    for d in result.directions:
        assert "Cor2.1" in d.flags
    record(9, f"R = 0 similarity scene at omega = 5: max error {max_err:.4f}")


def test_criterion_10_determinism(tmp_path_factory):
    out_dirs, _ = reference_cli_runs(tmp_path_factory)
    for name in ("indicator.csv", "support.csv", "hull.csv"):
        b0 = (out_dirs[0] / name).read_bytes()
        b1 = (out_dirs[1] / name).read_bytes()
        assert b0 == b1
    record(10, "two reference runs produced byte-identical CSV outputs")
