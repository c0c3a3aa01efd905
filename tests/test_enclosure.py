import math

import numpy as np
import pytest
import scipy.sparse.linalg

from enclosure_kit import enclosure, solver
from enclosure_kit.enclosure import (
    IndicatorCurve,
    IndicatorEngine,
    Probe,
    cgo_trace,
    estimate_support,
    max_admissible_tau,
    sweep,
)
from enclosure_kit.errors import (
    EstimationError,
    InvalidParameterError,
    ProbeResolutionError,
    ResourceLimitError,
)
from enclosure_kit.geometry import (
    AxisEllipse,
    ConvexPolygon,
    DirectionFrame,
    Disk,
    Rectangle,
    UnitDisk,
)
from enclosure_kit.materials import (
    Inclusion,
    MaterialScene,
    SymMat2,
    reduce_scene,
    scene_support,
)
from enclosure_kit.meshing import generate_mesh

E1 = DirectionFrame((1.0, 0.0))
COARSE_TAUS = np.linspace(2.0, 8.0, 9)


def whole_mesh_contrast(mesh, reduced):
    """dA assembled over every triangle of the mesh, zeros included."""
    d_a = solver.reduced_field(mesh, reduced) - solver.identity_field(mesh)
    return solver.assemble(mesh.vertices, mesh.triangles, d_a)


def centered_scene(contrast=1.0):
    return MaterialScene(
        sigma0=1.0,
        eps0=1.0,
        omega=1.0,
        inclusions=(
            Inclusion(Disk((0.3, 0.0), 0.2), SymMat2.iso(contrast), SymMat2.zero()),
        ),
    )


def ellipse_and_polygon_scene():
    return MaterialScene(
        sigma0=1.0,
        eps0=1.0,
        omega=1.0,
        inclusions=(
            Inclusion(
                AxisEllipse((-0.45, 0.1), 0.3, 0.18),
                SymMat2(0.8, 0.1, 0.6),
                SymMat2(0.2, 0.0, 0.1),
            ),
            Inclusion(
                ConvexPolygon(((0.3, -0.3), (0.75, -0.2), (0.45, 0.25))),
                SymMat2.identity(),
                SymMat2.zero(),
            ),
        ),
    )


@pytest.fixture(scope="module")
def coarse_engine(coarse_mesh):
    return IndicatorEngine(reduce_scene(centered_scene()), coarse_mesh)


class TestProbe:
    def test_shift_normalizes_magnitude(self, coarse_mesh):
        probe = Probe(E1, 6.0, UnitDisk().support(E1.theta))
        trace = cgo_trace(coarse_mesh, probe)
        mags = np.abs(trace)
        assert np.max(mags) <= 1.0 + 1e-12
        # the supporting boundary vertex (1, 0) attains magnitude 1 exactly
        assert np.max(mags) == pytest.approx(1.0, abs=1e-12)

    def test_small_tau_limit(self, coarse_mesh):
        probe = Probe(E1, 1e-9, UnitDisk().support(E1.theta))
        trace = cgo_trace(coarse_mesh, probe)
        assert np.max(np.abs(trace - 1.0)) < 1e-8

    def test_resolution_gate(self, coarse_mesh):
        tau_limit = max_admissible_tau(coarse_mesh)
        with pytest.raises(ProbeResolutionError) as info:
            cgo_trace(coarse_mesh, Probe(E1, tau_limit * 1.01, UnitDisk().support(E1.theta)))
        assert info.value.tau_max_admissible == pytest.approx(tau_limit)

    def test_rejects_nonpositive_tau(self):
        with pytest.raises(InvalidParameterError):
            Probe(frame=E1, tau=0.0, shift=1.0)

    def test_exponent_is_harmonic(self):
        # five-point finite-difference Laplacian on interior points
        tau = 6.0
        frame = DirectionFrame.from_angle(0.4)
        probe = Probe(frame, tau, UnitDisk().support(frame.theta))
        rng = np.random.default_rng(12)
        pts = rng.uniform(-0.5, 0.5, size=(100, 2))
        h = 1e-4
        offsets = np.array([[0, 0], [h, 0], [-h, 0], [0, h], [0, -h]])
        vals = np.stack([probe.evaluate(pts + o) for o in offsets])
        lap = (vals[1] + vals[2] + vals[3] + vals[4] - 4.0 * vals[0]) / h**2
        assert np.max(np.abs(lap.real)) < 1e-6 * tau**2
        assert np.max(np.abs(lap.imag)) < 1e-6 * tau**2


class TestIndicator:
    def test_t_shift_identity_exact(self, coarse_engine):
        c0 = coarse_engine.curve(E1, COARSE_TAUS)
        c1 = c0.shifted(0.3)
        c2 = c0.shifted(0.1)
        assert (c0.t, c1.t, c2.t) == (0.0, 0.3, 0.1)
        shift = c1.log_abs - c2.log_abs
        assert np.max(np.abs(shift - (-2.0 * COARSE_TAUS * 0.2))) < 1e-12
        assert np.array_equal(c1.signs, c0.signs)
        assert np.array_equal(c1.underflow, c0.underflow)

    def test_no_inclusion_underflows(self, coarse_mesh):
        empty = MaterialScene(sigma0=1.0, eps0=1.0, omega=1.0)
        engine = IndicatorEngine(reduce_scene(empty), coarse_mesh)
        raw = engine.pairing_differences(E1, COARSE_TAUS)
        assert np.max(np.abs(raw)) < 1e-12
        curve = engine.curve(E1, COARSE_TAUS)
        assert np.all(curve.underflow)
        assert np.all(curve.signs == 0)

    @pytest.mark.parametrize(
        "scene",
        [
            centered_scene(1.0),
            centered_scene(-0.5),
            MaterialScene(sigma0=1.0, eps0=1.0, omega=1.0),
        ],
        ids=["positive", "negative", "empty"],
    )
    def test_inclusion_nodes_match_all_vertex_formula(self, coarse_mesh, scene):
        reduced = reduce_scene(scene)
        engine = IndicatorEngine(reduced, coarse_mesh)
        delta_k = whole_mesh_contrast(coarse_mesh, reduced)
        frame = DirectionFrame.from_angle(0.7)
        # probes on every vertex, contracted over every row
        shift = coarse_mesh.domain.support(frame.theta)
        u0 = np.column_stack(
            [
                Probe(frame, float(tau), shift).evaluate(coarse_mesh.vertices)
                for tau in COARSE_TAUS
            ]
        )
        source = delta_k @ u0
        w = engine.system_inclusion.solve_interior(-source)
        reference = np.einsum("vk,vk->k", np.conj(u0), source + delta_k @ w)

        raw = engine.pairing_differences(frame, COARSE_TAUS)
        if not scene.inclusions:
            assert np.all(raw == 0.0) and np.all(reference == 0.0)
        else:
            assert np.all(np.abs(reference) > 0.0)
            assert np.max(np.abs(raw - reference) / np.abs(reference)) <= 1e-12

    @pytest.mark.parametrize(
        "domain, target_h, scene",
        [
            (UnitDisk(), 0.04, centered_scene(1.0)),
            (UnitDisk(), 0.04, centered_scene(-0.5)),
            (UnitDisk(), 0.04, MaterialScene(sigma0=1.0, eps0=1.0, omega=1.0)),
            (Rectangle(-1.5, 1.5, -1.0, 1.0), 0.1, ellipse_and_polygon_scene()),
        ],
        ids=["positive", "negative", "empty", "ellipse-and-polygon"],
    )
    def test_contrast_block_matches_whole_mesh_assembly(self, domain, target_h, scene):
        # bit for bit: in each case with an inclusion, assembling the
        # inclusion triangles alone changes the last bit of some entries
        mesh = generate_mesh(domain, target_h)
        reduced = reduce_scene(scene)
        engine = IndicatorEngine(reduced, mesh)
        delta_k = whole_mesh_contrast(mesh, reduced)
        delta_k.eliminate_zeros()
        nodes = np.unique(delta_k.indices)
        block = delta_k[nodes][:, nodes]
        assert np.array_equal(engine.nodes, nodes)
        assert np.array_equal(engine.contrast.indptr, block.indptr)
        assert np.array_equal(engine.contrast.indices, block.indices)
        assert np.array_equal(
            engine.contrast.data.view(np.uint64), block.data.view(np.uint64)
        )

    def test_contrast_assembled_from_triangles_near_inclusion(
        self, reference_mesh, monkeypatch
    ):
        counts = []

        def counting_assemble(vertices, triangles, coeff):
            counts.append(len(triangles))
            return solver.assemble(vertices, triangles, coeff)

        monkeypatch.setattr(enclosure, "assemble", counting_assemble)
        scene = centered_scene()
        IndicatorEngine(reduce_scene(scene), reference_mesh)
        triangles = reference_mesh.triangles
        inside = scene.inclusions[0].shape.contains_mask(reference_mesh.centroids())
        near = np.any(np.isin(triangles, triangles[inside]), axis=1)
        assert counts == [int(np.sum(near))]
        assert counts[0] < 0.1 * reference_mesh.num_triangles

    def test_positive_jump_has_positive_sign(self, coarse_engine):
        curve = coarse_engine.curve(E1, COARSE_TAUS)
        assert np.all(curve.signs == 1)

    def test_matches_two_solve_definition_on_coarse_case(self, coarse_mesh):
        # the scattered-field evaluation agrees with the subtraction of
        # two Dirichlet-to-Neumann pairings where both are well resolved
        red = reduce_scene(centered_scene())
        engine = IndicatorEngine(red, coarse_mesh)
        tau = 2.0
        probe = Probe(E1, tau, UnitDisk().support(E1.theta))
        trace = cgo_trace(coarse_mesh, probe)
        raw_engine = engine.pairing_differences(E1, np.array([tau]))[0]
        raw_def = solver.difference_pairing(
            solver.DirichletSystem(coarse_mesh, solver.reduced_field(coarse_mesh, red)),
            solver.DirichletSystem(coarse_mesh, solver.identity_field(coarse_mesh)),
            trace,
            np.conj(trace),
        )
        assert raw_def == pytest.approx(raw_engine, rel=5e-2)

    def test_curve_validation(self):
        with pytest.raises(InvalidParameterError):
            IndicatorCurve(
                t=0.0,
                taus=np.array([1.0, 1.0]),
                log_abs=np.zeros(2),
                signs=np.zeros(2, dtype=int),
            )


class TestEstimateSupport:
    def synthetic_curve(self, taus, values):
        return IndicatorCurve(
            t=0.0,
            taus=np.asarray(taus, dtype=float),
            log_abs=np.asarray(values, dtype=float),
            signs=np.ones(len(taus), dtype=int),
        )

    def test_exact_line(self):
        taus = np.linspace(8.0, 16.0, 9)
        est = estimate_support(self.synthetic_curve(taus, 2.0 * taus * 0.5))
        assert est.h_hat == pytest.approx(0.5, abs=1e-12)
        assert est.fit_residual == pytest.approx(0.0, abs=1e-12)

    def test_sinusoidal_perturbation(self):
        # closed-form least squares is the oracle; a sin(tau) ripple can
        # tilt the fitted slope by up to ~0.045 over this window
        taus = np.linspace(8.0, 16.0, 17)
        values = 2.0 * taus * 0.5 + np.sin(taus)
        est = estimate_support(self.synthetic_curve(taus, values))
        window = taus >= 12.0
        oracle = np.polyfit(2.0 * taus[window], values[window], 1)[0]
        assert est.h_hat == pytest.approx(oracle, abs=1e-12)
        assert abs(est.h_hat - 0.5) <= 0.05
        assert est.fit_residual > 0.0

    def test_requires_t_zero(self):
        taus = np.linspace(8.0, 16.0, 9)
        curve = self.synthetic_curve(taus, 2.0 * taus * 0.5)
        moved = curve.shifted(0.1)
        with pytest.raises(InvalidParameterError):
            estimate_support(moved)

    def test_requires_enough_samples(self):
        taus = np.linspace(8.0, 16.0, 5)
        with pytest.raises(InvalidParameterError):
            estimate_support(self.synthetic_curve(taus, 2.0 * taus * 0.5))

    def test_sparse_upper_window_rejected(self):
        # non-uniform grid leaving < 4 samples above the midpoint
        taus = np.array([1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 100.0])
        with pytest.raises(EstimationError):
            estimate_support(self.synthetic_curve(taus, 2.0 * taus * 0.5))

    def test_underflow_in_window(self):
        taus = np.linspace(8.0, 16.0, 9)
        curve = IndicatorCurve(
            t=0.0,
            taus=taus,
            log_abs=np.zeros(9),
            signs=np.zeros(9, dtype=int),
        )
        with pytest.raises(EstimationError):
            estimate_support(curve)


class TestTrichotomyCoarse:
    def test_monotone_above_and_below(self, coarse_engine):
        scene = centered_scene()
        h = scene_support(scene, E1.theta)
        c0 = coarse_engine.curve(E1, COARSE_TAUS)
        upper = COARSE_TAUS >= 0.5 * (COARSE_TAUS[0] + COARSE_TAUS[-1])
        above = c0.shifted(h + 0.2).log_abs[upper]
        below = c0.shifted(h - 0.2).log_abs[upper]
        assert np.all(np.diff(above) < 0.0)
        assert np.all(np.diff(below) > 0.0)


class TestReferenceScenario:
    """Checks that need the fine reference mesh (tau up to 32)."""

    def test_window_doubling_localizes(self, reference_engine):
        scene_h = 0.5  # support of the reference inclusion along +x
        e1 = estimate_support(reference_engine.curve(E1, np.linspace(4.0, 16.0, 13)))
        e2 = estimate_support(reference_engine.curve(E1, np.linspace(4.0, 32.0, 29)))
        # the exact indicator's log-slope still drifts by ~0.012 between
        # these windows (pre-asymptotic prefactor), so the stability band
        # is 0.02; the longer window must also land closer to the truth
        assert abs(e2.h_hat - e1.h_hat) <= 0.02
        assert abs(e2.h_hat - scene_h) < abs(e1.h_hat - scene_h)

    def test_soft_bound_at_support_height(self, reference_engine):
        taus = np.linspace(4.0, 16.0, 13)
        curve = reference_engine.curve(E1, taus).shifted(0.5)
        window = taus >= 10.0
        bound = 3.0 + 0.2 * (2.0 * taus[window])
        assert np.all(np.abs(curve.log_abs[window]) <= bound)

    def test_direction_symmetry_centered_disk(self):
        scene = MaterialScene(
            sigma0=1.0,
            eps0=1.0,
            omega=1.0,
            inclusions=(
                Inclusion(Disk((0.0, 0.0), 0.2), SymMat2.identity(), SymMat2.zero()),
            ),
        )
        mesh = generate_mesh(UnitDisk(), 0.02)
        engine = IndicatorEngine(reduce_scene(scene), mesh)
        taus = np.linspace(4.0, 16.0, 13)
        values = [
            estimate_support(
                engine.curve(DirectionFrame.from_angle(2 * math.pi * k / 16), taus)
            ).h_hat
            for k in range(16)
        ]
        assert max(values) - min(values) <= 0.02


class TestSweep:
    def test_coarse_sweep_recovers_roughly(self, coarse_mesh):
        result = sweep(centered_scene(), coarse_mesh, 8, COARSE_TAUS)
        assert result.detected
        assert result.hull is not None
        assert len(result.estimates()) == 8
        assert result.max_support_error() <= 0.15
        for d in result.directions:
            assert d.h_exact == pytest.approx(
                scene_support(centered_scene(), d.frame.theta)
            )
            assert "Thm1.1'" in d.flags

    def test_empty_scene_reports_no_inclusion(self, coarse_mesh):
        empty = MaterialScene(sigma0=1.0, eps0=1.0, omega=1.0)
        result = sweep(empty, coarse_mesh, 8, COARSE_TAUS)
        assert not result.detected
        assert result.hull is None
        assert result.hull_error is None
        for d in result.directions:
            assert d.estimate is None
            assert "no-inclusion" in d.flags and "no-signal" in d.flags

    def test_outside_regime_still_estimated(self, coarse_mesh):
        scene = MaterialScene(
            sigma0=1.0,
            eps0=1.0,
            omega=4.0 / 3.0,
            inclusions=(
                Inclusion(Disk((0.3, 0.0), 0.2), SymMat2.iso(-0.5), SymMat2.iso(0.25)),
            ),
        )
        result = sweep(scene, coarse_mesh, 8, COARSE_TAUS)
        assert result.detected
        for d in result.directions:
            assert d.estimate is not None
            assert "outside proven regime" in d.flags

    def test_requires_enough_directions(self, coarse_mesh):
        with pytest.raises(InvalidParameterError):
            sweep(centered_scene(), coarse_mesh, 4, COARSE_TAUS)

    def test_unresolved_tau_raises_before_factorization(self, coarse_mesh, monkeypatch):
        def no_factorization(*args, **kwargs):
            raise AssertionError("factorized for an unresolved sweep")

        monkeypatch.setattr(scipy.sparse.linalg, "splu", no_factorization)
        taus = np.linspace(2.0, 1.01 * max_admissible_tau(coarse_mesh), 9)
        with pytest.raises(ProbeResolutionError):
            sweep(centered_scene(), coarse_mesh, 8, taus)

    def test_solve_block_over_budget_raises_before_factorization(
        self, coarse_mesh, monkeypatch
    ):
        def no_factorization(*args, **kwargs):
            raise AssertionError("factorized for an over-budget sweep")

        monkeypatch.setattr(scipy.sparse.linalg, "splu", no_factorization)
        n_tau = enclosure.MAX_SOLVE_BLOCK // coarse_mesh.num_vertices + 1
        with pytest.raises(ResourceLimitError, match="budget"):
            sweep(centered_scene(), coarse_mesh, 8, np.linspace(2.0, 8.0, n_tau))

    def test_rectangle_domain_probing(self):
        from enclosure_kit.geometry import Rectangle

        domain = Rectangle(-1.0, 1.0, -1.0, 1.0)
        scene = MaterialScene(
            sigma0=1.0,
            eps0=1.0,
            omega=1.0,
            inclusions=(
                Inclusion(Disk((0.0, 0.0), 0.25), SymMat2.identity(), SymMat2.zero()),
            ),
        )
        mesh = generate_mesh(domain, 0.06)
        engine = IndicatorEngine(reduce_scene(scene), mesh)
        frame = DirectionFrame.from_angle(0.3)
        assert engine.mesh.domain.support(frame.theta) > 1.0
        est = estimate_support(engine.curve(frame, np.linspace(2.0, 8.0, 9)))
        assert abs(est.h_hat - 0.25) <= 0.15
