import contextlib
import gc
import math
import signal
import weakref

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse
import scipy.sparse.linalg

from enclosure_kit import cli, enclosure, solver
from enclosure_kit.enclosure import (
    IndicatorCurve,
    IndicatorEngine,
    Probe,
    estimate_support,
    max_admissible_tau,
    sweep,
)
from enclosure_kit.errors import (
    EstimationError,
    InvalidParameterError,
    ProbeResolutionError,
    ResourceLimitError,
    SolveError,
)
from enclosure_kit.geometry import (
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
from conftest import background_field, traced_peak
from scene_factory import ellipse_and_polygon_scene

E1 = DirectionFrame((1.0, 0.0))
COARSE_TAUS = np.linspace(2.0, 8.0, 9)
# exterior part size at which the coarse disk splits into 4 parts and the
# two-inclusion rectangle at h = 0.04 into 12 of its 16 cells
SMALL_PART = 2000
# part size at which that rectangle splits 8 levels deep, into 173 parts
DEEP_PART = 300


def whole_mesh_contrast(mesh, reduced):
    """dA assembled over every triangle of the mesh, zeros included, from
    the exact a - i*omega*b of each triangle's label."""
    labels = solver.inclusion_labels(mesh, [inc.shape for inc in reduced.inclusions])
    d_a = solver.contrast_tensors(reduced)[labels]
    return solver.assemble(mesh.vertices, mesh.triangles, d_a)


def all_vertex_reference(mesh, reduced, frame, taus, point=None):
    """Pairing differences from probes on every vertex, the whole-mesh dA
    and a whole-interior Dirichlet solve.  With a ``point``, each probe
    less its value there: J does not see a constant."""
    delta_k = whole_mesh_contrast(mesh, reduced)
    shift = mesh.domain.support(frame.theta)
    u0 = np.column_stack(
        [Probe(frame, float(tau), shift).evaluate(mesh.vertices) for tau in taus]
    )
    if point is not None:
        u0 -= np.array([Probe(frame, float(tau), shift).evaluate(point)[0] for tau in taus])
    source = delta_k @ u0
    system = solver.DirichletSystem(mesh, solver.reduced_field(mesh, reduced))
    w = np.zeros_like(source)
    w[system.interior] = system.solve_interior(-source[system.interior])[0]
    return np.einsum("vk,vk->k", np.conj(u0), source + delta_k @ w)


def engine_and_all_vertex_reference(mesh, scene, taus):
    """The engine's pairing differences at direction angle 0.7, and the
    all-vertex reference."""
    reduced = reduce_scene(scene)
    frame = DirectionFrame.from_angle(0.7)
    raw = IndicatorEngine(reduced, mesh).pairing_differences(frame, taus)
    return raw, all_vertex_reference(mesh, reduced, frame, taus)


def gate_taus(mesh):
    """13 taus up to the resolution gate's tau_max."""
    return np.linspace(0.25, 1.0, 13) * max_admissible_tau(mesh)


class FactorProxy:
    """A SuperLU factor whose solves can be scaled and whose column
    permutation can be rolled by one place."""

    def __init__(self, lu, solve_scale, roll_perm_c):
        self._lu = lu
        self._solve_scale = solve_scale
        self._roll = roll_perm_c
        self.solves = 0

    def solve(self, rhs, trans="N"):
        self.solves += 1
        return self._solve_scale * self._lu.solve(rhs, trans)

    @property
    def perm_c(self):
        return np.roll(self._lu.perm_c, 1) if self._roll else self._lu.perm_c

    def __getattr__(self, name):
        return getattr(self._lu, name)


def patch_factors(monkeypatch, complex_matrix, solve_scale=1.0, roll_perm_c=False):
    """Make splu return a FactorProxy for complex (or for real) matrices;
    returns the list of proxies handed out."""
    splu = scipy.sparse.linalg.splu
    proxies = []

    def patched(matrix, *args, **kwargs):
        lu = splu(matrix, *args, **kwargs)
        if np.iscomplexobj(matrix.data) != complex_matrix:
            return lu
        proxies.append(FactorProxy(lu, solve_scale, roll_perm_c))
        return proxies[-1]

    monkeypatch.setattr(scipy.sparse.linalg, "splu", patched)
    return proxies


def disk_scene(*disks, omega=1.0):
    """Disks (centre, radius, alpha, beta) with isotropic alpha and beta."""
    return MaterialScene(
        sigma0=1.0,
        eps0=1.0,
        omega=omega,
        inclusions=tuple(
            Inclusion(Disk(centre, radius), SymMat2.iso(alpha), SymMat2.iso(beta))
            for centre, radius, alpha, beta in disks
        ),
    )


# two disks far apart: one probe basis spans the gap between them
TWO_FAR_DISKS = disk_scene(((0.45, 0.3), 0.15, 1.0, 0.0), ((-0.5, -0.4), 0.12, 2.0, 0.0))
BIG_DISK = disk_scene(((0.0, 0.0), 0.5, 1.0, 0.0))
COMPLEX_DISK = disk_scene(((-0.2, 0.3), 0.25, -0.7, 0.5), omega=2.0)
# a polygon: its corners need a higher degree than a disk of its size
TRIANGLE = MaterialScene(
    sigma0=1.0,
    eps0=1.0,
    omega=1.0,
    inclusions=(
        Inclusion(
            ConvexPolygon(((-0.5, -0.4), (0.6, -0.3), (-0.2, 0.6))),
            SymMat2.iso(1.0),
            SymMat2.zero(),
        ),
    ),
)


# The probe block's traced peak in nodes x columns complex arrays, the
# basis and its pivoted rows included.  On the reference disk at h = 0.02
# (477 nodes, N = 25 columns at tau_max 16) it reads 5.31, against 7.58 for
# the Taylor block it replaced (33 columns); the bound leaves 5.5% above 5.31.
BLOCK_PEAK_BOUND = 5.6


@contextlib.contextmanager
def deadline(seconds):
    """Raise TimeoutError in the body once ``seconds`` have passed, so that
    a loop that never ends fails its test instead of stalling the suite."""

    def expire(signum, frame):
        raise TimeoutError(f"did not return within {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, previous)


@pytest.fixture(scope="module")
def fine_mesh():
    return generate_mesh(UnitDisk(), 0.02)


def centered_scene(contrast=1.0):
    return MaterialScene(
        sigma0=1.0,
        eps0=1.0,
        omega=1.0,
        inclusions=(
            Inclusion(Disk((0.3, 0.0), 0.2), SymMat2.iso(contrast), SymMat2.zero()),
        ),
    )


def near_insulating_scene(k):
    """The centred disk with conductivity k next to a unit background."""
    return MaterialScene(
        sigma0=1.0,
        eps0=1.0,
        omega=1e-7,
        inclusions=(
            Inclusion(Disk((0.3, 0.0), 0.2), SymMat2.iso(-(1.0 - k)), SymMat2.zero()),
        ),
    )


@pytest.fixture(scope="module")
def coarse_engine(coarse_mesh):
    return IndicatorEngine(reduce_scene(centered_scene()), coarse_mesh)


class TestProbe:
    def test_shift_normalizes_magnitude(self, coarse_mesh):
        probe = Probe(E1, 6.0, UnitDisk().support(E1.theta))
        trace = probe.evaluate(coarse_mesh.vertices[coarse_mesh.boundary_vertices])
        mags = np.abs(trace)
        assert np.max(mags) <= 1.0 + 1e-12
        # the supporting boundary vertex (1, 0) attains magnitude 1 exactly
        assert np.max(mags) == pytest.approx(1.0, abs=1e-12)

    def test_small_tau_limit(self, coarse_mesh):
        probe = Probe(E1, 1e-9, UnitDisk().support(E1.theta))
        trace = probe.evaluate(coarse_mesh.vertices[coarse_mesh.boundary_vertices])
        assert np.max(np.abs(trace - 1.0)) < 1e-8

    def test_resolution_gate(self, coarse_mesh, coarse_engine):
        tau_limit = max_admissible_tau(coarse_mesh)
        with pytest.raises(ProbeResolutionError) as info:
            coarse_engine.curve(E1, [tau_limit * 1.01])
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
        "scene, bound",
        [
            (centered_scene(1.0), 1e-12),
            (centered_scene(-0.5), 1e-12),
            (MaterialScene(sigma0=1.0, eps0=1.0, omega=1.0), 1e-12),
            # The inclusion's coefficient is about k times the background's,
            # so the condensed and the whole-interior solve each lose digits
            # to the conditioning, and different ones: 2.0e-13 and 1.6e-12
            # measured, hence 1e-11.  That still refuses a K_SS formed as
            # background block plus dA, which measured 2.4e-10 and 7.8e-10.
            (near_insulating_scene(1e-6), 1e-11),
            (near_insulating_scene(1e-9), 1e-11),
        ],
        ids=["positive", "negative", "empty", "near-insulating-1e-6", "near-insulating-1e-9"],
    )
    def test_inclusion_nodes_match_all_vertex_formula(self, coarse_mesh, scene, bound):
        raw, reference = engine_and_all_vertex_reference(coarse_mesh, scene, COARSE_TAUS)
        if not scene.inclusions:
            assert np.all(raw == 0.0) and np.all(reference == 0.0)
        else:
            assert np.all(np.abs(reference) > 0.0)
            assert np.max(np.abs(raw - reference) / np.abs(reference)) <= bound

    @pytest.mark.parametrize(
        "name",
        ["positive_disk", "negative_disk_lowfreq", "proportional_highfreq", "positive_permittivity"],
    )
    def test_presets_match_all_vertex_formula(self, name):
        config = cli.load_config(cli.scenario_path(name))
        mesh = generate_mesh(config.domain, config.target_h)
        raw, reference = engine_and_all_vertex_reference(mesh, config.scene, config.taus())
        assert np.all(np.abs(reference) > 0.0)
        assert np.max(np.abs(raw - reference) / np.abs(reference)) <= 1e-12

    def test_rectangle_scene_matches_all_vertex_formula(self):
        # two inclusions, the polygon with a negative jump
        mesh = generate_mesh(Rectangle(-1.5, 1.5, -1.0, 1.0), 0.04)
        raw, reference = engine_and_all_vertex_reference(
            mesh, ellipse_and_polygon_scene(), COARSE_TAUS
        )
        assert np.all(np.abs(reference) > 0.0)
        assert np.max(np.abs(raw - reference) / np.abs(reference)) <= 1e-12

    @pytest.mark.parametrize(
        "scene",
        [TWO_FAR_DISKS, BIG_DISK, COMPLEX_DISK, TRIANGLE],
        ids=["two-far-disks", "big-disk", "complex", "triangle"],
    )
    def test_taylor_block_matches_all_vertex_formula_at_the_gate(self, fine_mesh, scene):
        # the probe block (the test id predates it)
        taus = gate_taus(fine_mesh)
        reduced = reduce_scene(scene)
        engine = IndicatorEngine(reduced, fine_mesh)
        for angle in (0.7, 2.5, 4.4):
            frame = DirectionFrame.from_angle(angle)
            raw = engine.pairing_differences(frame, taus)
            reference = all_vertex_reference(fine_mesh, reduced, frame, taus)
            assert np.max(np.abs(raw - reference) / np.abs(reference)) <= 1e-12
        # a least-squares fit at twice as many pivoted rows as basis rows
        block = engine._probe_block(taus[-1])
        assert block.at_rows.shape == (len(block.rows), len(block.gram) + 1)
        assert len(block.rows) == 2 * len(block.at_rows.T) == len(set(block.rows))

    def test_probe_basis_is_orthonormal_on_the_nodes(self, fine_mesh):
        engine = IndicatorEngine(reduce_scene(TRIANGLE), fine_mesh)
        basis = enclosure._probe_basis(fine_mesh.vertices[engine.nodes], 16.0)
        gram = np.conj(basis) @ basis.T
        assert np.max(np.abs(gram - np.eye(len(basis)))) <= 1e-13
        assert np.allclose(basis[0], 1.0 / np.sqrt(len(engine.nodes)))

    def test_big_disk_stays_one_cell_within_budget_at_a_fine_gate(self):
        # at h = 0.005 the gate's tau_max is about 69 and this disk's
        # tau_max * r about 35: one basis on all of its nodes, with N
        # squared well within MAX_SOLVE_BLOCK
        mesh = generate_mesh(UnitDisk(), 0.005)
        inside = BIG_DISK.inclusions[0].shape.contains_mask(mesh.vertices)
        basis = enclosure._probe_basis(mesh.vertices[inside], max_admissible_tau(mesh))
        assert (len(basis) - 1) ** 2 <= enclosure.MAX_SOLVE_BLOCK // 100

    def test_complete_basis_matches_all_vertex_formula(self, coarse_mesh):
        # a disk of 10 nodes: the basis stops complete at degree 9, below
        # the degree the bound asks for (12 on a disk of 14 nodes), and
        # every node is a row of the fit
        reduced = reduce_scene(disk_scene(((0.1, 0.05), 0.04, 1.0, 0.0)))
        engine = IndicatorEngine(reduced, coarse_mesh)
        frame = DirectionFrame.from_angle(0.7)
        raw = engine.pairing_differences(frame, COARSE_TAUS)
        block = engine._probe_block(COARSE_TAUS[-1])
        assert len(engine.nodes) == 10
        assert len(block.gram) == len(block.rows) - 1 == len(engine.nodes) - 1
        reference = all_vertex_reference(coarse_mesh, reduced, frame, COARSE_TAUS)
        assert np.max(np.abs(raw - reference) / np.abs(reference)) <= 1e-12

    def test_basis_too_small_for_a_probe_raises(self, coarse_mesh, monkeypatch):
        basis = enclosure._probe_basis
        monkeypatch.setattr(enclosure, "_probe_basis", lambda *args: basis(*args)[:6])
        engine = IndicatorEngine(reduce_scene(centered_scene()), coarse_mesh)
        with pytest.raises(SolveError, match="probe basis") as info:
            engine.pairing_differences(E1, COARSE_TAUS)
        assert info.value.residual > 10.0 * enclosure.BASIS_RESIDUAL

    def test_small_tau_keeps_full_precision(self, coarse_mesh):
        # J falls as (tau r)^2 while a probe stays near its constant part,
        # which the block leaves out.  The all-vertex reference sums the
        # constant's rounding into dA @ u0 and is 2e-10 off at tau = 0.01;
        # less its value at a point it is not.
        taus = np.geomspace(0.01, 1.0, 9)
        reduced = reduce_scene(centered_scene())
        frame = DirectionFrame.from_angle(0.7)
        raw = IndicatorEngine(reduced, coarse_mesh).pairing_differences(frame, taus)
        reference = all_vertex_reference(coarse_mesh, reduced, frame, taus, point=(0.3, 0.0))
        assert np.max(np.abs(raw - reference) / np.abs(reference)) <= 1e-12

    def test_sweep_solves_once_per_tau_grid(self, coarse_mesh, monkeypatch):
        proxies = patch_factors(monkeypatch, True)
        sweep(centered_scene(), coarse_mesh, 16, COARSE_TAUS)
        # one block solve for all 16 directions, two if it refines
        assert len(proxies) == 1 and proxies[0].solves in (1, 2)

    def test_block_is_built_once_per_tau_max(self, coarse_mesh, monkeypatch):
        proxies = patch_factors(monkeypatch, True)
        engine = IndicatorEngine(reduce_scene(centered_scene()), coarse_mesh)
        solves = []
        for angle, taus in ((0.0, COARSE_TAUS), (1.0, COARSE_TAUS[3:]), (2.0, COARSE_TAUS[:-1])):
            engine.curve(DirectionFrame.from_angle(angle), taus)
            solves.append(proxies[0].solves)
        assert solves[0] in (1, 2) and solves[1] == solves[0]
        assert solves[2] - solves[1] in (1, 2)

    def test_j_does_not_depend_on_earlier_calls(self, coarse_mesh):
        reduced = reduce_scene(centered_scene())
        frame = DirectionFrame.from_angle(0.7)
        fresh = IndicatorEngine(reduced, coarse_mesh).pairing_differences(frame, COARSE_TAUS)
        engine = IndicatorEngine(reduced, coarse_mesh)
        engine.pairing_differences(E1, COARSE_TAUS[:-2])  # another tau_max first
        assert np.array_equal(engine.pairing_differences(frame, COARSE_TAUS), fresh)
        engine.pairing_differences(E1, COARSE_TAUS[:-1])
        assert np.array_equal(engine.pairing_differences(frame, COARSE_TAUS), fresh)

    def test_taylor_block_is_solved_in_batches_within_budget(self, coarse_mesh, monkeypatch):
        proxies = patch_factors(monkeypatch, True)
        engine = IndicatorEngine(reduce_scene(centered_scene()), coarse_mesh)
        whole = engine.pairing_differences(E1, COARSE_TAUS)
        columns = len(engine._probe_block(COARSE_TAUS[-1]).gram)
        # batches of 5 columns
        monkeypatch.setattr(enclosure, "MAX_SOLVE_BLOCK", 5 * len(engine.nodes) + 4)
        engine = IndicatorEngine(reduce_scene(centered_scene()), coarse_mesh)
        # G's rows are BLAS products, whose rounding follows the batch width
        batched = engine.pairing_differences(E1, COARSE_TAUS)
        assert np.max(np.abs(batched - whole) / np.abs(whole)) <= 1e-14
        assert proxies[1].solves == math.ceil(columns / 5)

    def test_taylor_block_traced_peak(self, fine_mesh):
        # the probe block's traced peak, its basis included, in nodes x
        # columns complex arrays (the test id predates the block)
        engine = IndicatorEngine(reduce_scene(centered_scene()), fine_mesh)
        with traced_peak() as peak:
            block = engine._probe_block(16.0)
        assert peak.bytes <= BLOCK_PEAK_BOUND * len(engine.nodes) * len(block.gram) * 16

    def test_probe_coefficients_are_formed_in_slices_of_taus(self, coarse_mesh, monkeypatch):
        engine = IndicatorEngine(reduce_scene(TWO_FAR_DISKS), coarse_mesh)
        taus = np.linspace(2.0, 8.0, 13)
        whole = engine.pairing_differences(E1, taus)
        block = engine._probe_block(taus[-1])
        evaluate = Probe.evaluate
        calls = []

        def counted(probe, points):
            calls.append(probe.tau)
            return evaluate(probe, points)

        monkeypatch.setattr(Probe, "evaluate", counted)
        # slices of 5, 5 and 3 taus
        monkeypatch.setattr(enclosure, "MAX_SOLVE_BLOCK", 5 * len(block.rows) + 4)
        sliced = engine.pairing_differences(E1, taus)
        assert np.max(np.abs(sliced - whole) / np.abs(whole)) <= 1e-14
        assert calls == list(taus)

    def test_sweep_refuses_a_taylor_block_over_budget_before_factorizing(
        self, coarse_mesh, monkeypatch
    ):
        def no_factorization(*args, **kwargs):
            raise AssertionError("factorized before the probe block's budget check")

        monkeypatch.setattr(scipy.sparse.linalg, "splu", no_factorization)
        # directions x taus stays within the budget, N squared does not
        monkeypatch.setattr(enclosure, "MAX_SOLVE_BLOCK", 16 * len(COARSE_TAUS))
        with pytest.raises(ResourceLimitError, match="probe block"):
            sweep(centered_scene(), coarse_mesh, 16, COARSE_TAUS)

    @pytest.mark.parametrize(
        "tau_max, error",
        [
            (math.nan, InvalidParameterError),
            (math.inf, InvalidParameterError),
            (-5.0, InvalidParameterError),
            ("16", InvalidParameterError),
            (1e6, ProbeResolutionError),
        ],
        ids=["nan", "inf", "negative", "string", "underresolved"],
    )
    def test_engine_checks_tau_max_before_the_taylor_layout(
        self, coarse_mesh, monkeypatch, tau_max, error
    ):
        # the probe basis is sized at tau_max: a NaN one would stop it at
        # once, and 1e6 would grow it to the budget
        def not_reached(*args, **kwargs):
            raise AssertionError("built the probe basis for an unchecked tau_max")

        monkeypatch.setattr(enclosure, "_probe_basis", not_reached)
        with deadline(20.0), pytest.raises(error):
            IndicatorEngine(reduce_scene(centered_scene()), coarse_mesh, tau_max=tau_max)

    def test_taylor_block_over_budget_raises_before_solving(self, coarse_mesh, monkeypatch):
        proxies = patch_factors(monkeypatch, True)
        engine = IndicatorEngine(reduce_scene(centered_scene()), coarse_mesh)
        monkeypatch.setattr(enclosure, "MAX_SOLVE_BLOCK", 100)
        with pytest.raises(ResourceLimitError, match="probe block"):
            engine.pairing_differences(E1, COARSE_TAUS)
        assert proxies[0].solves == 0

    def test_empty_scene_factors_nothing(self, coarse_mesh, monkeypatch):
        def no_factorization(*args, **kwargs):
            raise AssertionError("factorized for a scene without inclusions")

        assemble = solver.assemble

        def no_whole_mesh_assembly(vertices, triangles, coeff):
            if len(triangles) == coarse_mesh.num_triangles:
                raise AssertionError("assembled the whole mesh for a scene without inclusions")
            return assemble(vertices, triangles, coeff)

        monkeypatch.setattr(scipy.sparse.linalg, "splu", no_factorization)
        monkeypatch.setattr(solver, "assemble", no_whole_mesh_assembly)
        monkeypatch.setattr(enclosure, "assemble", no_whole_mesh_assembly)
        empty = MaterialScene(sigma0=1.0, eps0=1.0, omega=1.0)
        engine = IndicatorEngine(reduce_scene(empty), coarse_mesh)
        raw = engine.pairing_differences(E1, COARSE_TAUS)
        assert raw.dtype == complex
        assert np.array_equal(raw, np.zeros(len(COARSE_TAUS)))
        for taus in ([], [[2.0, 3.0]], np.r_[COARSE_TAUS[:-1], np.nan], COARSE_TAUS[::-1]):
            with pytest.raises(InvalidParameterError):
                engine.pairing_differences(E1, taus)

    @pytest.mark.parametrize("which", ["inclusion", "exterior"])
    def test_inaccurate_solve_refines_once_then_raises(self, coarse_mesh, monkeypatch, which):
        # the complex factor is the inclusion nodes', the real one the exterior's
        proxies = patch_factors(monkeypatch, which == "inclusion", solve_scale=1.5)
        scene = reduce_scene(centered_scene())
        with pytest.raises(SolveError) as info:
            IndicatorEngine(scene, coarse_mesh).pairing_differences(E1, COARSE_TAUS)
        assert info.value.residual > solver.RESIDUAL_TOL
        # a solve scaled by 1.5 leaves a relative residual of 0.5, and one
        # refinement step a residual of 0.25
        if which == "inclusion":
            assert [p.solves for p in proxies] == [2]
            assert info.value.residual == pytest.approx(0.25)
        else:
            assert [p.solves for p in proxies] == [1]
            assert info.value.residual == pytest.approx(0.5)

    def test_exterior_factor_moving_the_halo_raises(self, coarse_mesh, monkeypatch):
        patch_factors(monkeypatch, False, roll_perm_c=True)
        with pytest.raises(SolveError, match="halo"):
            IndicatorEngine(reduce_scene(centered_scene()), coarse_mesh)

    def test_exterior_factor_depends_on_the_footprint_alone(self, coarse_mesh, monkeypatch):
        # the real matrix factorized for the exterior is the background
        # stiffness on E and H, whatever the materials and omega on S
        splu = scipy.sparse.linalg.splu
        exterior = []

        def recording(matrix, *args, **kwargs):
            if not np.iscomplexobj(matrix.data):
                exterior.append(matrix.copy())
            return splu(matrix, *args, **kwargs)

        monkeypatch.setattr(scipy.sparse.linalg, "splu", recording)
        other = MaterialScene(
            sigma0=1.0,
            eps0=1.0,
            omega=4.0 / 3.0,
            inclusions=(
                Inclusion(Disk((0.3, 0.0), 0.2), SymMat2.iso(-0.5), SymMat2.iso(0.25)),
            ),
        )
        for scene in (centered_scene(1.0), other):
            IndicatorEngine(reduce_scene(scene), coarse_mesh)
        first, second = exterior
        assert first.dtype == second.dtype == np.float64
        assert np.array_equal(first.indptr, second.indptr)
        assert np.array_equal(first.indices, second.indices)
        assert np.array_equal(first.data.view(np.uint64), second.data.view(np.uint64))

    def test_inclusion_factor_fill_beats_colamd(self, monkeypatch):
        # the |S| matrix is complex symmetric: a minimum-degree order on
        # its symmetric pattern fills less than SuperLU's default COLAMD
        splu = scipy.sparse.linalg.splu
        factored = []

        def recording(matrix, *args, **kwargs):
            lu = splu(matrix, *args, **kwargs)
            if np.iscomplexobj(matrix.data):
                factored.append((matrix.copy(), lu.L.nnz + lu.U.nnz))
            return lu

        monkeypatch.setattr(scipy.sparse.linalg, "splu", recording)
        IndicatorEngine(reduce_scene(centered_scene()), generate_mesh(UnitDisk(), 0.02))
        [(schur, fill)] = factored
        colamd = splu(schur)
        assert fill < colamd.L.nnz + colamd.U.nnz

    def test_exterior_factor_fill_beats_colamd(self, monkeypatch):
        # the real background on E and H, E in quadtree nested-dissection
        # order and the halo last, fills less than SuperLU's default COLAMD
        splu = scipy.sparse.linalg.splu
        factored = []

        def recording(matrix, *args, **kwargs):
            lu = splu(matrix, *args, **kwargs)
            if not np.iscomplexobj(matrix.data):
                factored.append((matrix.copy(), lu.L.nnz + lu.U.nnz))
            return lu

        monkeypatch.setattr(scipy.sparse.linalg, "splu", recording)
        IndicatorEngine(reduce_scene(centered_scene()), generate_mesh(UnitDisk(), 0.02))
        [(exterior, fill)] = factored
        colamd = splu(exterior)
        assert fill < colamd.L.nnz + colamd.U.nnz

    @pytest.mark.parametrize(
        "domain, target_h, scene",
        [
            (UnitDisk(), 0.04, centered_scene(1.0)),
            (UnitDisk(), 0.04, centered_scene(-0.5)),
            # (I + a) - I would leave a 6.3e-5 relative off a here
            (UnitDisk(), 0.04, centered_scene(1e-12)),
            (UnitDisk(), 0.04, MaterialScene(sigma0=1.0, eps0=1.0, omega=1.0)),
            (Rectangle(-1.5, 1.5, -1.0, 1.0), 0.1, ellipse_and_polygon_scene()),
        ],
        ids=["positive", "negative", "small-contrast", "empty", "ellipse-and-polygon"],
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

    def test_engine_samples_no_whole_mesh_field(self, coarse_mesh, monkeypatch):
        # the engine reads the coefficient by triangle label from a table
        # of tensors, never through a whole-mesh field
        reduced = reduce_scene(centered_scene())
        reference = IndicatorEngine(reduced, coarse_mesh)
        raw = reference.pairing_differences(E1, COARSE_TAUS)

        def no_field(*args):
            raise AssertionError("sampled a whole-mesh coefficient field")

        for module in (solver, enclosure):
            for name in ("reduced_field", "scene_field"):
                monkeypatch.setattr(module, name, no_field, raising=False)
        engine = IndicatorEngine(reduced, coarse_mesh)
        block = reference.contrast
        assert np.array_equal(engine.nodes, reference.nodes)
        assert np.array_equal(engine.contrast.indptr, block.indptr)
        assert np.array_equal(engine.contrast.indices, block.indices)
        assert np.array_equal(
            engine.contrast.data.view(np.uint64), block.data.view(np.uint64)
        )
        assert np.array_equal(engine.pairing_differences(E1, COARSE_TAUS), raw)

    def test_exterior_factor_does_not_outlive_setup(self, coarse_mesh, monkeypatch):
        # its lu.L and lu.U copies are cached on it and go only with it;
        # split into parts, each part's factor is gone before the next starts
        splu = scipy.sparse.linalg.splu
        exterior = []

        def weakly_held(matrix, *args, **kwargs):
            assert all(factor() is None for factor in exterior)
            lu = splu(matrix, *args, **kwargs)
            if np.iscomplexobj(matrix.data):
                return lu
            proxy = FactorProxy(lu, 1.0, False)
            exterior.append(weakref.ref(proxy))
            return proxy

        monkeypatch.setattr(scipy.sparse.linalg, "splu", weakly_held)
        for part_size, n_parts in ((solver.MAX_PART_VERTICES, 1), (SMALL_PART, 4)):
            monkeypatch.setattr(solver, "MAX_PART_VERTICES", part_size)
            exterior.clear()
            engine = IndicatorEngine(reduce_scene(centered_scene()), coarse_mesh)
            gc.collect()
            assert len(exterior) == n_parts
            assert all(factor() is None for factor in exterior)
            assert engine._condensed is not None

    @pytest.mark.parametrize("name", ["exterior", "inclusion"])
    def test_failed_factorization_names_the_factor(self, coarse_mesh, monkeypatch, name):
        splu = scipy.sparse.linalg.splu

        def failing(matrix, *args, **kwargs):
            if np.iscomplexobj(matrix.data) == (name == "inclusion"):
                raise RuntimeError("Factor is exactly singular")
            return splu(matrix, *args, **kwargs)

        monkeypatch.setattr(scipy.sparse.linalg, "splu", failing)
        with pytest.raises(SolveError, match=f"^{name} factorization failed: Factor is exactly"):
            IndicatorEngine(reduce_scene(centered_scene()), coarse_mesh)

    def test_refuses_inclusion_crossing_the_boundary(self, coarse_mesh):
        # a library scene that skips require_margin; its boundary nodes
        # would get no scattering correction
        scene = MaterialScene(
            sigma0=1.0,
            eps0=1.0,
            omega=1.0,
            inclusions=(Inclusion(Disk((0.9, 0.0), 0.2), SymMat2.iso(1.0), SymMat2.zero()),),
        )
        with pytest.raises(InvalidParameterError, match="domain boundary"):
            IndicatorEngine(reduce_scene(scene), coarse_mesh)

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
        trace = probe.evaluate(coarse_mesh.vertices[coarse_mesh.boundary_vertices])
        raw_engine = engine.pairing_differences(E1, np.array([tau]))[0]
        raw_def = solver.difference_pairing(
            solver.DirichletSystem(coarse_mesh, solver.reduced_field(coarse_mesh, red)),
            solver.DirichletSystem(coarse_mesh, background_field(coarse_mesh)),
            trace,
            np.conj(trace),
        )
        assert raw_def == pytest.approx(raw_engine, rel=5e-2)

    @pytest.mark.parametrize(
        "taus",
        [[], [[2.0, 3.0]], [[1.0], [2.0, 3.0]], ["a", "b"], [1 + 1j, 2]],
        ids=["empty", "two-dimensional", "ragged", "strings", "complex"],
    )
    def test_curve_refuses_malformed_tau_grid(self, coarse_engine, taus):
        with pytest.raises(InvalidParameterError):
            coarse_engine.curve(E1, taus)

    def test_curve_validation(self):
        with pytest.raises(InvalidParameterError):
            IndicatorCurve(
                t=0.0,
                taus=np.array([1.0, 1.0]),
                log_abs=np.zeros(2),
                signs=np.zeros(2, dtype=int),
            )
        # the three arrays are 1-D and of one length
        for n_log, n_signs in ((1, 2), (2, 1), (3, 3)):
            with pytest.raises(InvalidParameterError, match="one length"):
                IndicatorCurve(
                    t=0.0,
                    taus=np.array([1.0, 2.0]),
                    log_abs=np.zeros(n_log),
                    signs=np.ones(n_signs, dtype=int),
                )
        with pytest.raises(InvalidParameterError, match="one length"):
            IndicatorCurve(
                t=0.0,
                taus=np.array([[1.0, 2.0]]),
                log_abs=np.zeros((1, 2)),
                signs=np.ones((1, 2), dtype=int),
            )
        for taus in ([[1.0], [2.0, 3.0]], ["a", "b"], ["1", "2"], [1 + 1j, 2.0]):
            with pytest.raises(InvalidParameterError, match="real numbers"):
                IndicatorCurve(t=0.0, taus=taus, log_abs=np.zeros(2), signs=np.ones(2, dtype=int))
        with pytest.raises(InvalidParameterError, match="real numbers"):
            IndicatorCurve(t=0.0, taus=[1.0, 2.0], log_abs=["0", "0"], signs=[1, 1])
        # a sign is an integer in {-1, 0, 1}, 0 marking underflow
        wrapping = np.array([-128, 1], dtype=np.int8)  # abs(-128) wraps to -128
        for signs in (["a", "b"], [0.5, 7], [1.0, -1.0], [True, False], [2, 1], wrapping):
            with pytest.raises(InvalidParameterError, match="signs"):
                IndicatorCurve(t=0.0, taus=[1.0, 2.0], log_abs=np.zeros(2), signs=signs)
        curve = IndicatorCurve(t=0.0, taus=[1.0, 2.0, 3.0], log_abs=np.zeros(3), signs=[-1, 0, 1])
        assert np.array_equal(curve.underflow, [False, True, False])

    def test_curve_refuses_unflagged_non_finite_log(self):
        # an infinite log sample is allowed only where the sign marks underflow
        with pytest.raises(InvalidParameterError, match="non-finite"):
            IndicatorCurve(
                t=0.0,
                taus=np.array([1.0, 2.0]),
                log_abs=np.array([0.0, np.inf]),
                signs=np.ones(2, dtype=int),
            )


def record_real_factors(monkeypatch):
    """Make splu record each real matrix it factorizes with the fill of its
    factor; returns the list of (matrix, nnz(L + U))."""
    splu = scipy.sparse.linalg.splu
    factored = []

    def recording(matrix, *args, **kwargs):
        lu = splu(matrix, *args, **kwargs)
        if not np.iscomplexobj(matrix.data):
            factored.append((matrix.copy(), lu.L.nnz + lu.U.nnz))
        return lu

    monkeypatch.setattr(scipy.sparse.linalg, "splu", recording)
    return factored


def record_parts(monkeypatch):
    """Make solver._parts record the part labels it returns; returns the
    list of labels."""
    parts = solver._parts
    labels = []

    def recording(key, level):
        labels.append(parts(key, level))
        return labels[-1]

    monkeypatch.setattr(solver, "_parts", recording)
    return labels


def condensed_update(mesh, nodes):
    """The update that condensing the exterior adds to the block on
    ``nodes``, dense: the |S| matrix less its block.  The block is the
    background's own, so the |S| matrix is the background's positive
    definite Schur complement on S, and its diagonal is of the update's
    size, so that subtracting the block gives the update back to its last
    bits (a block of 1e3 I would round every diagonal entry to 1.1e-13)."""
    k0 = solver.assemble(mesh.vertices, mesh.triangles, background_field(mesh).real)
    block = k0[nodes][:, nodes].tocsc()
    return (solver.CondensedSystem(mesh, nodes, block).schur - block).toarray()


PARTITIONED_CASES = [
    pytest.param((UnitDisk(), 0.04, centered_scene), id="coarse-disk"),
    pytest.param(
        (Rectangle(-1.5, 1.5, -1.0, 1.0), 0.04, ellipse_and_polygon_scene), id="rectangle"
    ),
]


class TestPartitionedExterior:
    """The exterior condensed part by part, with the part size lowered to
    SMALL_PART so that small meshes split, each with an interface."""

    @pytest.fixture(params=PARTITIONED_CASES)
    def case(self, request):
        domain, target_h, scene = request.param
        return generate_mesh(domain, target_h), scene()

    def test_partition_has_parts_and_an_interface(self, case, monkeypatch):
        mesh, scene = case
        labels = record_parts(monkeypatch)
        monkeypatch.setattr(solver, "MAX_PART_VERTICES", SMALL_PART)
        factored = record_real_factors(monkeypatch)
        IndicatorEngine(reduce_scene(scene), mesh)
        [part] = labels
        n_parts = part.max() + 1
        assert n_parts >= 4 and np.any(part < 0)
        assert np.max(np.bincount(part[part >= 0])) <= SMALL_PART
        assert len(factored) == n_parts

    @pytest.mark.parametrize("part_size", [solver.MAX_PART_VERTICES, SMALL_PART, DEEP_PART])
    def test_each_part_is_one_run_of_the_order(self, case, monkeypatch, part_size):
        # the set-up walks the dissection order run by run, a part at a time
        mesh, scene = case
        monkeypatch.setattr(solver, "MAX_PART_VERTICES", part_size)
        quadtree = solver._quadtree
        trees = []

        def recording(*args):
            trees.append(quadtree(*args))
            return trees[-1]

        monkeypatch.setattr(solver, "_quadtree", recording)
        IndicatorEngine(reduce_scene(scene), mesh)
        [(key, level, order)] = trees
        part = solver._parts(key, level)[order]
        runs = part[np.flatnonzero(np.diff(part, prepend=-2))]
        assert np.array_equal(runs[runs >= 0], np.arange(part.max() + 1))

    @pytest.mark.parametrize("one_part", [True, False], ids=["one-part", "small-parts"])
    def test_part_matrix_is_the_whole_mesh_block(self, case, monkeypatch, one_part):
        # each part's matrix, assembled in its own numbering, equals that
        # block of the whole-mesh K0 bit for bit
        mesh, scene = case
        part_size = mesh.num_vertices if one_part else SMALL_PART
        monkeypatch.setattr(solver, "MAX_PART_VERTICES", part_size)
        halo_update = solver._halo_update
        orders = []

        def recording(vertices, triangles, order, n_inner):
            orders.append(order)
            return halo_update(vertices, triangles, order, n_inner)

        monkeypatch.setattr(solver, "_halo_update", recording)
        factored = record_real_factors(monkeypatch)
        IndicatorEngine(reduce_scene(scene), mesh)
        assert len(factored) == len(orders)
        assert len(orders) == 1 if one_part else len(orders) >= 4
        k0 = solver.assemble(mesh.vertices, mesh.triangles, background_field(mesh).real)
        for (matrix, _), order in zip(factored, orders):
            block = k0[order][:, order].tocsc()
            assert np.array_equal(matrix.indptr, block.indptr)
            assert np.array_equal(matrix.indices, block.indices)
            assert np.array_equal(matrix.data.view(np.uint64), block.data.view(np.uint64))

    def test_update_matches_one_part(self, case, monkeypatch):
        mesh, scene = case
        nodes = IndicatorEngine(reduce_scene(scene), mesh).nodes
        monkeypatch.setattr(solver, "MAX_PART_VERTICES", mesh.num_vertices)
        whole = condensed_update(mesh, nodes)
        monkeypatch.setattr(solver, "MAX_PART_VERTICES", SMALL_PART)
        split = condensed_update(mesh, nodes)
        assert np.max(np.abs(split - whole)) <= 1e-13 * np.max(np.abs(whole))

    @pytest.mark.parametrize("one_part", [True, False], ids=["one-part", "small-parts"])
    def test_update_lives_on_the_halo(self, case, monkeypatch, one_part):
        # H, the nodes on a triangle with a vertex in E, is where the root
        # front scatters: the update is zero off H x H.  Its diagonal
        # -k^T K0_EE^-1 k, k a node's row of K0 on E, is not zero where k is
        # not: on all of H on the disk, and on the rectangle on all but the
        # nodes that meet E only across diagonals, whose K0 entry is 0
        mesh, scene = case
        nodes = IndicatorEngine(reduce_scene(scene), mesh).nodes
        part_size = mesh.num_vertices if one_part else SMALL_PART
        monkeypatch.setattr(solver, "MAX_PART_VERTICES", part_size)
        update = condensed_update(mesh, nodes)
        exterior = np.ones(mesh.num_vertices, dtype=bool)
        exterior[nodes] = exterior[mesh.boundary_vertices] = False
        near_e = np.zeros(mesh.num_vertices, dtype=bool)
        near_e[mesh.triangles[exterior[mesh.triangles].any(axis=1)]] = True
        halo = near_e[nodes]
        k0 = solver.assemble(mesh.vertices, mesh.triangles, background_field(mesh).real)
        coupled = np.asarray(abs(k0[nodes][:, exterior]).sum(axis=1)).ravel() > 0.0
        assert 0 < np.sum(halo) < len(nodes)
        assert not np.any(update[~halo]) and not np.any(update[:, ~halo])
        assert np.array_equal(np.diag(update) != 0.0, coupled)
        assert np.all(halo[coupled])
        if isinstance(mesh.domain, UnitDisk):
            assert np.array_equal(coupled, halo)

    def test_matches_all_vertex_formula(self, case, monkeypatch):
        mesh, scene = case
        monkeypatch.setattr(solver, "MAX_PART_VERTICES", SMALL_PART)
        raw, reference = engine_and_all_vertex_reference(mesh, scene, COARSE_TAUS)
        assert np.all(np.abs(reference) > 0.0)
        assert np.max(np.abs(raw - reference) / np.abs(reference)) <= 1e-12

    def test_part_fill_at_most_colamd(self, case, monkeypatch):
        # Each part is factorized with its halo last, and unconstrained
        # COLAMD would interleave the halo (on the coarse disk it fills
        # 24k against 32k entries).  So the quadtree order of the part's
        # own vertices is held against COLAMD's order of them, both with
        # the halo last.
        mesh, scene = case
        monkeypatch.setattr(solver, "MAX_PART_VERTICES", SMALL_PART)
        halo_update = solver._halo_update
        inner = []

        def recording(vertices, triangles, order, n_inner):
            inner.append(n_inner)
            return halo_update(vertices, triangles, order, n_inner)

        monkeypatch.setattr(solver, "_halo_update", recording)
        factored = record_real_factors(monkeypatch)
        IndicatorEngine(reduce_scene(scene), mesh)
        assert len(factored) == len(inner) >= 4
        splu = scipy.sparse.linalg.splu
        for (matrix, fill), n in zip(factored, inner):
            colamd = splu(matrix[:n, :n].tocsc(), permc_spec="COLAMD").perm_c
            order = np.concatenate([colamd, np.arange(n, matrix.shape[0])])
            lu = splu(
                matrix[order][:, order].tocsc(), permc_spec="NATURAL", diag_pivot_thresh=0.0
            )
            assert fill <= lu.L.nnz + lu.U.nnz

    def test_part_moving_its_halo_raises(self, case, monkeypatch):
        # only the second part's factor has its column permutation rolled
        mesh, scene = case
        monkeypatch.setattr(solver, "MAX_PART_VERTICES", SMALL_PART)
        splu = scipy.sparse.linalg.splu
        parts = []

        def rolling_second(matrix, *args, **kwargs):
            lu = splu(matrix, *args, **kwargs)
            if np.iscomplexobj(matrix.data):
                return lu
            parts.append(matrix.shape)
            return FactorProxy(lu, 1.0, len(parts) == 2)

        monkeypatch.setattr(scipy.sparse.linalg, "splu", rolling_second)
        with pytest.raises(SolveError, match="halo"):
            IndicatorEngine(reduce_scene(scene), mesh)
        assert len(parts) == 2

    def test_failed_interface_factorization_names_it(self, case, monkeypatch):
        mesh, scene = case
        monkeypatch.setattr(solver, "MAX_PART_VERTICES", SMALL_PART)

        def failing(*args, **kwargs):
            raise np.linalg.LinAlgError("not positive definite")

        monkeypatch.setattr(scipy.linalg, "cho_factor", failing)
        with pytest.raises(SolveError, match="^interface factorization failed: not positive"):
            IndicatorEngine(reduce_scene(scene), mesh)

    def test_interface_is_merged_cell_by_cell(self, case, monkeypatch):
        # each cell's separator is factorized alone in its own front, and
        # no factorization spans the whole interface, let alone G and H
        mesh, scene = case
        monkeypatch.setattr(solver, "MAX_PART_VERTICES", SMALL_PART)
        labels = record_parts(monkeypatch)
        cho_factor = scipy.linalg.cho_factor
        orders = []

        def recording(a, *args, **kwargs):
            orders.append(len(a))
            return cho_factor(a, *args, **kwargs)

        monkeypatch.setattr(scipy.linalg, "cho_factor", recording)
        IndicatorEngine(reduce_scene(scene), mesh)
        [part] = labels
        n_g = int(np.sum(part < 0))
        assert len(orders) >= 3
        assert sum(orders) == n_g
        assert max(orders) < n_g

    @pytest.fixture
    def deep_case(self):
        """The two-inclusion rectangle, which DEEP_PART splits 8 levels
        deep, so that most of the interface is merged in cells below the
        top two levels."""
        return generate_mesh(Rectangle(-1.5, 1.5, -1.0, 1.0), 0.04), ellipse_and_polygon_scene()

    def test_deep_split_matches_one_part(self, deep_case, monkeypatch):
        mesh, scene = deep_case
        nodes = IndicatorEngine(reduce_scene(scene), mesh).nodes
        monkeypatch.setattr(solver, "MAX_PART_VERTICES", mesh.num_vertices)
        whole = condensed_update(mesh, nodes)
        monkeypatch.setattr(solver, "MAX_PART_VERTICES", DEEP_PART)
        labels = record_parts(monkeypatch)
        split = condensed_update(mesh, nodes)
        # more parts than the 16 cells of a split 4 levels deep
        assert labels[0].max() + 1 > 16
        assert np.max(np.abs(split - whole)) <= 1e-13 * np.max(np.abs(whole))

    def test_deep_split_matches_all_vertex_formula(self, deep_case, monkeypatch):
        mesh, scene = deep_case
        monkeypatch.setattr(solver, "MAX_PART_VERTICES", DEEP_PART)
        raw, reference = engine_and_all_vertex_reference(mesh, scene, COARSE_TAUS)
        assert np.all(np.abs(reference) > 0.0)
        assert np.max(np.abs(raw - reference) / np.abs(reference)) <= 1e-12

    def test_no_real_assembly_covers_the_mesh(self, case, monkeypatch):
        mesh, scene = case
        assemble = solver.assemble
        real = []

        def recording(vertices, triangles, coeff):
            if not np.iscomplexobj(coeff):
                real.append(len(triangles))
            return assemble(vertices, triangles, coeff)

        monkeypatch.setattr(solver, "assemble", recording)
        factored = record_real_factors(monkeypatch)
        # split, one per part and one for the interface rows; in one part
        # the interface is empty, and no assembly of its rows is made
        for part_size, n_interface in ((SMALL_PART, 1), (mesh.num_vertices, 0)):
            monkeypatch.setattr(solver, "MAX_PART_VERTICES", part_size)
            real.clear()
            factored.clear()
            IndicatorEngine(reduce_scene(scene), mesh)
            assert len(real) == len(factored) + n_interface
            assert max(real) < mesh.num_triangles
        assert len(factored) == 1


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

    def test_curve_of_lists(self):
        # the curve stores its columns as arrays, which the fit indexes
        taus = list(np.linspace(8.0, 16.0, 9))
        # log|I| = 2 * tau * h with h = 0.5
        curve = IndicatorCurve(t=0.0, taus=taus, log_abs=taus, signs=[1] * 9)
        assert all(isinstance(c, np.ndarray) for c in (curve.taus, curve.log_abs, curve.signs))
        assert estimate_support(curve).h_hat == pytest.approx(0.5, abs=1e-12)

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

    def test_requires_enough_directions(self, coarse_mesh, monkeypatch):
        def no_factorization(*args, **kwargs):
            raise AssertionError("factorized for a bad direction count")

        monkeypatch.setattr(scipy.sparse.linalg, "splu", no_factorization)
        for n_directions in (4, 8.5, np.float64(9.0), "9", None):
            with pytest.raises(InvalidParameterError):
                sweep(centered_scene(), coarse_mesh, n_directions, COARSE_TAUS)

    def test_unresolved_tau_raises_before_factorization(self, coarse_mesh, monkeypatch):
        def no_factorization(*args, **kwargs):
            raise AssertionError("factorized for an unresolved sweep")

        monkeypatch.setattr(scipy.sparse.linalg, "splu", no_factorization)
        taus = np.linspace(2.0, 1.01 * max_admissible_tau(coarse_mesh), 9)
        with pytest.raises(ProbeResolutionError):
            sweep(centered_scene(), coarse_mesh, 8, taus)

    @pytest.mark.parametrize(
        "taus",
        [np.r_[COARSE_TAUS[:-1], np.nan], COARSE_TAUS[::-1], COARSE_TAUS[:7]],
        ids=["nan", "decreasing", "seven-samples"],
    )
    def test_malformed_tau_grid_raises_before_engine(self, coarse_mesh, monkeypatch, taus):
        def no_engine(*args, **kwargs):
            raise AssertionError("built an engine for a malformed tau grid")

        monkeypatch.setattr(enclosure, "IndicatorEngine", no_engine)
        with pytest.raises(InvalidParameterError):
            sweep(centered_scene(), coarse_mesh, 8, taus)

    def test_short_fit_window_raises_before_factorization(self, coarse_mesh, monkeypatch):
        # J is positive and finite at every sample of this grid, but only
        # 8.5 lies in the upper half of its window
        def no_factorization(*args, **kwargs):
            raise AssertionError("factorized for a grid the fit cannot use")

        monkeypatch.setattr(scipy.sparse.linalg, "splu", no_factorization)
        taus = [1.0, 1.2, 1.4, 1.6, 1.8, 2.0, 2.2, 8.5]
        with pytest.raises(InvalidParameterError, match="upper half"):
            sweep(centered_scene(), coarse_mesh, 8, taus)

    @pytest.mark.parametrize("delta", [0.0, -0.1, math.nan, "0.1"])
    def test_bad_delta_raises_before_factorization(self, coarse_mesh, monkeypatch, delta):
        def no_factorization(*args, **kwargs):
            raise AssertionError("factorized for a bad slab thickness")

        monkeypatch.setattr(scipy.sparse.linalg, "splu", no_factorization)
        with pytest.raises(InvalidParameterError, match="delta"):
            sweep(centered_scene(), coarse_mesh, 8, COARSE_TAUS, delta=delta)

    def test_vertices_times_taus_over_budget_reaches_factorization(
        self, coarse_mesh, monkeypatch
    ):
        class Factorized(Exception):
            pass

        def factorized(*args, **kwargs):
            raise Factorized

        monkeypatch.setattr(scipy.sparse.linalg, "splu", factorized)
        # vertices x taus over the budget, directions x taus and G within it
        n_tau = enclosure.MAX_SOLVE_BLOCK // coarse_mesh.num_vertices + 1
        with pytest.raises(Factorized):
            sweep(centered_scene(), coarse_mesh, 8, np.linspace(2.0, 8.0, n_tau))

    def test_curve_samples_over_budget_raise_before_factorization(
        self, coarse_mesh, monkeypatch
    ):
        def not_reached(*args, **kwargs):
            raise AssertionError("built directions or factorized for an over-budget sweep")

        monkeypatch.setattr(scipy.sparse.linalg, "splu", not_reached)
        monkeypatch.setattr(enclosure.geometry, "uniform_directions", not_reached)
        n_directions = enclosure.MAX_SOLVE_BLOCK // len(COARSE_TAUS) + 1
        with pytest.raises(ResourceLimitError, match="budget"):
            sweep(centered_scene(), coarse_mesh, n_directions, COARSE_TAUS)

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
