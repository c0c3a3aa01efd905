"""Exponential probes, the indicator function, and support recovery.

A probe is the harmonic exponential exp(tau * x.(theta + i*theta_perp)),
carried everywhere in shifted form exp(tau*((x.theta - s) + i*x.theta_perp))
with s = sup over the domain of x.theta, so its trace magnitude never
exceeds 1 and no intermediate overflows.  The indicator at height t is

    I(tau, t) = exp(2*tau*(s - t)) * J(tau),
    J(tau)    = Re <(Lambda_inclusion - Lambda_background) f_s, conj(f_s)>,

with f_s the shifted trace; all arithmetic on I is done as log|J| plus the
exact linear shift 2*tau*(s - t).  The log-slope of I(tau, 0) against
2*tau converges to the support function of the inclusion, which a
least-squares fit over the upper half of the tau window estimates per
direction; intersecting the fitted half planes encloses the convex hull.

The probe is an entire function of z = x1 + i*x2: with zeta = theta_1 +
i*theta_2 it is exp(tau*(conj(zeta)*z - s)).  On the inclusion nodes every
probe up to a given tau_max is therefore, to rounding, a combination of a
few dozen polynomials in z, orthonormal on the nodes, and J is one small
quadratic form in the probe's coefficients (``ProbeBlock``): one solve per
tau_max serves every direction.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass

import numpy as np
import scipy.linalg as sla
import scipy.linalg.blas as blas

from . import geometry, materials, solver
from .errors import (
    DegenerateHullError,
    EstimationError,
    InvalidParameterError,
    ProbeResolutionError,
    ResourceLimitError,
    SolveError,
)
from .geometry import ConvexPolygon, DirectionFrame, is_real
from .materials import MaterialScene, ReducedScene
from .meshing import Mesh
from .solver import CondensedSystem, assemble

# probe oscillation must be resolved: tau * h_max <= RESOLUTION_GATE
RESOLUTION_GATE = 0.5
UNDERFLOW_FLOOR = 1e-300
# fewest samples in the upper half of the tau window that the fit accepts
MIN_FIT_SAMPLES = 4
# largest array of the probe phase: 8M complex entries are 128 MB, and a
# solve holds a few of them at once.  The probe block's G, columns squared,
# and a sweep's curve samples, directions x taus, must fit; the block's
# columns are solved, and the probes' values formed, in pieces within it
MAX_SOLVE_BLOCK = 8_000_000

# the probe basis is sized by probes at tau_max in this many directions
BASIS_DIRECTIONS = 8
# relative residual of a probe's fit by the probe basis.  The basis grows
# until the sampled probes reach it on all the nodes; a few degrees further
# they plateau at 4e-16 to 2e-15.  A probe's fit on the pivoted rows raises
# SolveError past 10 times it: on the reference disk, the r 0.5 disk and a
# triangle, h = 0.04 to 0.005, 16 directions up to the gate, the worst fit
# read 1.39 times it
BASIS_RESIDUAL = 1e-14

NO_INCLUSION_FLAG = "no-inclusion"
NO_SIGNAL_FLAG = "no-signal"
OUTSIDE_REGIME_FLAG = "outside proven regime"


@dataclass(frozen=True)
class Probe:
    """One exponential probe: direction frame, growth rate, and shift."""

    frame: DirectionFrame
    tau: float
    shift: float

    def __post_init__(self):
        if not isinstance(self.frame, DirectionFrame):
            raise InvalidParameterError(f"probe frame must be a DirectionFrame, got {self.frame!r}")
        if not (is_real(self.tau) and math.isfinite(self.tau) and self.tau > 0.0):
            raise InvalidParameterError(f"probe tau must be finite, real and > 0, got {self.tau!r}")
        if not (is_real(self.shift) and math.isfinite(self.shift)):
            raise InvalidParameterError(f"probe shift must be finite and real, got {self.shift!r}")

    def evaluate(self, points: np.ndarray) -> np.ndarray:
        """Shifted probe values exp(tau*((x.th - s) + i*x.th_perp)) at one
        point or an (n, 2) array of them."""
        pts = _real_array(points)
        if pts is None or np.atleast_2d(pts).shape[1:] != (2,):
            raise InvalidParameterError("probe points must be 2-vectors of real numbers")
        pts = np.atleast_2d(pts).astype(float, copy=False)
        along = pts @ np.asarray(self.frame.theta)
        across = pts @ np.asarray(self.frame.theta_perp)
        return np.exp(self.tau * (along - self.shift) + 1j * self.tau * across)


def max_admissible_tau(mesh: Mesh) -> float:
    return RESOLUTION_GATE / mesh.h_max


def _require_resolved(mesh: Mesh, tau: float) -> None:
    if tau * mesh.h_max > RESOLUTION_GATE:
        raise ProbeResolutionError(
            f"tau = {tau:g} underresolved on this mesh (h_max = {mesh.h_max:.4g}); "
            f"largest admissible tau is {max_admissible_tau(mesh):.4g}",
            tau_max_admissible=max_admissible_tau(mesh),
        )


def _real_array(values) -> np.ndarray | None:
    """``values`` as an array of integers or floats, not cast; None if it
    holds anything else, such as a ragged nesting, complex numbers or
    strings, which a float cast would parse as numbers."""
    try:
        array = np.asarray(values)
    except ValueError:  # a ragged nesting
        return None
    return array if array.dtype.kind in "iuf" else None


def _check_taus(mesh: Mesh, taus) -> np.ndarray:
    """A tau grid as a float array: 1-D, non-empty, finite, > 0, strictly
    increasing, and resolved on the mesh."""
    taus = _real_array(taus)
    if taus is None:
        raise InvalidParameterError("tau grid must be an array of real numbers")
    taus = taus.astype(float, copy=False)
    if taus.ndim != 1 or len(taus) == 0:
        raise InvalidParameterError("tau grid must be a non-empty 1-D array")
    if not (np.all(np.isfinite(taus)) and taus[0] > 0.0 and np.all(np.diff(taus) > 0.0)):
        raise InvalidParameterError("taus must be finite, > 0 and strictly increasing")
    _require_resolved(mesh, float(taus[-1]))
    return taus


def _check_height(t) -> None:
    if not (is_real(t) and math.isfinite(t)):
        raise InvalidParameterError(f"curve height t must be finite and real, got {t!r}")


@dataclass(frozen=True)
class IndicatorCurve:
    """Indicator samples along increasing tau at a fixed height t.

    A sample underflowed where its sign is 0 (the raw pairing difference
    fell below the floor); its ``log_abs`` entry is meaningless there and
    stored as 0.0, never as -inf.
    """

    t: float
    taus: np.ndarray
    log_abs: np.ndarray
    signs: np.ndarray

    def __post_init__(self):
        _check_height(self.t)
        taus, log_abs, signs = map(_real_array, (self.taus, self.log_abs, self.signs))
        if taus is None or log_abs is None:
            raise InvalidParameterError("curve arrays must hold real numbers")
        taus, log_abs = taus.astype(float, copy=False), log_abs.astype(float, copy=False)
        if signs is None or not (signs.dtype.kind in "iu" and np.isin(signs, (-1, 0, 1)).all()):
            raise InvalidParameterError("curve signs must be integers in {-1, 0, 1}")
        if taus.ndim != 1 or {log_abs.shape, signs.shape} != {taus.shape}:
            raise InvalidParameterError("curve taus, log_abs and signs must be 1-D of one length")
        if not (np.all(np.isfinite(taus)) and np.all(np.diff(taus) > 0.0)):
            raise InvalidParameterError("curve taus must be finite and strictly increasing")
        if not np.all(np.isfinite(log_abs[signs != 0])):
            raise InvalidParameterError("non-finite log sample without underflow flag")
        object.__setattr__(self, "taus", taus)
        object.__setattr__(self, "log_abs", log_abs)
        object.__setattr__(self, "signs", signs)

    @property
    def underflow(self) -> np.ndarray:
        return self.signs == 0

    def __len__(self) -> int:
        return len(self.taus)

    def shifted(self, new_t: float) -> "IndicatorCurve":
        """Same curve at another height via the exact identity
        log|I(tau, t1)| - log|I(tau, t2)| = 2*tau*(t2 - t1)."""
        _check_height(new_t)
        return IndicatorCurve(
            t=new_t,
            taus=self.taus,
            log_abs=self.log_abs + 2.0 * self.taus * (self.t - new_t),
            signs=self.signs,
        )


@dataclass(frozen=True)
class SupportEstimate:
    """Fitted support value for one direction."""

    h_hat: float
    fit_residual: float


def _probe_basis(points: np.ndarray, tau_max: float) -> np.ndarray:
    """Rows q_0 ... q_N, orthonormal on ``points`` (Vandermonde with
    Arnoldi): q_0 = 1/sqrt(|S|), and q_(k+1) is w q_k orthogonalized twice
    against q_0 ... q_k, w = (z - c)/R for c the middle of the points'
    bounding box and R their largest distance from c.  N is the smallest
    degree at which probes at ``tau_max`` in BASIS_DIRECTIONS directions
    leave a relative residual of at most BASIS_RESIDUAL on their projection,
    or |S| - 1, where the basis is complete.  ResourceLimitError if G, N
    squared, would exceed MAX_SOLVE_BLOCK."""
    if not len(points):
        return np.zeros((1, 0), dtype=complex)
    offset = points - 0.5 * (points.min(axis=0) + points.max(axis=0))
    z = offset[:, 0] + 1j * offset[:, 1]
    radius = float(np.max(np.abs(z)))
    w = z / (radius if radius > 0.0 else 1.0)
    # the sampled probes, each scaled to 1 at its largest, and what the
    # basis leaves of them: first their mean, their part along q_0
    zeta_bar = np.exp(-2j * np.pi * np.arange(BASIS_DIRECTIONS) / BASIS_DIRECTIONS)
    exponent = tau_max * radius * np.outer(zeta_bar, w)
    residual = np.exp(exponent - exponent.real.max(axis=1, keepdims=True))
    bound = BASIS_RESIDUAL * np.linalg.norm(residual, axis=1)
    q = np.empty((16, len(z)), dtype=complex)
    q[0] = 1.0 / math.sqrt(len(z))
    residual -= residual.mean(axis=1, keepdims=True)
    n = 0
    while n + 1 < len(z) and np.any(np.linalg.norm(residual, axis=1) > bound):
        n += 1
        if n * n > MAX_SOLVE_BLOCK:
            raise ResourceLimitError(
                f"the probe block's G would exceed the budget of {MAX_SOLVE_BLOCK} entries: "
                f"its basis needs {n} columns or more at tau_max = {tau_max:g}; lower tau_max"
            )
        if n == len(q):
            q = np.concatenate([q, np.empty_like(q)])
        v = w * q[n - 1]
        # v less its projection on the rows so far, twice.  The products go
        # through SciPy's BLAS, as the set-up's LAPACK calls that follow:
        # numpy's separate OpenBLAS threads were seen to slow those down
        for _ in range(2):
            earlier = q[:n].T
            h = blas.zgemv(1.0, earlier, v, trans=2)
            v = blas.zgemv(-1.0, earlier, h, 1.0, v, overwrite_y=True)
        q[n] = v / blas.dznrm2(v)
        residual -= np.outer(np.einsum("ij,j->i", residual, np.conj(q[n])), q[n])
    return q[: n + 1].copy()


def _pivoted_rows(basis: np.ndarray) -> np.ndarray:
    """2(N+1) of the nodes (all of them if there are fewer) at which the
    N + 1 rows of ``basis`` are well conditioned: two rounds of column-
    pivoted QR (Q-DEIM), the second on the nodes the first left."""
    size = len(basis)
    if basis.shape[1] <= 2 * size:
        return np.arange(basis.shape[1])
    first = sla.qr(basis, mode="r", pivoting=True)[1]
    rest = first[size:]
    second = sla.qr(basis[:, rest], mode="r", pivoting=True)[1]
    return np.concatenate([first[:size], rest[second[:size]]])


@dataclass(frozen=True)
class ProbeBlock:
    """J for every probe with tau up to ``tau_max``, as a quadratic form.

    Q = [q_0 ... q_N] is the probe basis on the nodes (``_probe_basis``).
    A probe u is fitted on its values at the nodes ``rows`` alone: ``fit``
    is the pseudo-inverse of ``at_rows``, Q there, so its coefficients are
    fit @ u(rows).  ``gram`` is Q1^H (C Q1 + C X) over Q1 = [q_1 ... q_N],
    for the ``contrast`` block C and X the scattering correction of -C Q1;
    q_0 is a constant, which J does not see.
    """

    tau_max: float
    rows: np.ndarray
    at_rows: np.ndarray
    fit: np.ndarray
    gram: np.ndarray


class IndicatorEngine:
    """Shared factorization for indicator evaluation on one mesh.

    The probe itself is an exact solution of the background problem, so
    the pairing difference has the local scattered-field form

        J = sum over inclusion triangles of dA grad(u0 + w) . grad(conj u0),

    where u0 is the analytic probe field, dA the coefficient perturbation,
    and w the scattering correction solving the inclusion problem with the
    local source -div(dA grad u0) and zero trace.  Every term scales with
    the signal, so J keeps full relative precision even when it is
    exponentially small; solving the background problem numerically and
    subtracting pairings would bury it under discretization pollution.

    The coefficient is read by triangle label from a table of one tensor
    per inclusion (``solver.contrast_tensors``), never as a whole-mesh
    array.  The table holds dA = a - i*omega*b itself, so a small contrast
    is not cancelled by subtracting I from I + dA, and K's table is I plus
    it.  dA is assembled once, from the triangles around the inclusion
    only, and kept as ``contrast``, its block on ``nodes``, the vertices
    of inclusion triangles: it has no entries in any other row or column.
    The source, the scattered right-hand side and the pairing all come
    from that block.  w is solved on the interior unknowns, so every node
    must be an interior vertex, and only its values on the nodes are
    needed: a ``CondensedSystem`` on the nodes, factorized once, serves
    every direction and tau.  It gets K_SS, the stiffness block on the
    nodes, assembled over the same triangles as dA, and builds the
    background exterior itself.  Without nodes only dA is assembled and J
    is 0.

    Probes reach the nodes through one ``ProbeBlock`` per tau_max, built
    on the first call for it (the last one is kept).  The shifted probe is
    exp(tau*(conj(zeta)*z - s)), an entire function of z = x1 + i*x2, so
    on the nodes it is, to rounding, a combination of the probe basis
    q_0 ... q_N (``_probe_basis``), polynomials in z of degree at most N
    orthonormal on the nodes.  One checked solve of the condensed system
    on -contrast @ Q1 gives the correction X of every column of
    Q1 = [q_1 ... q_N], and G = Q1^H (contrast @ Q1 + contrast @ X).  A
    probe's coefficients a come from a least-squares fit at the 2(N+1)
    pivoted nodes of the block alone, and its J is a^H G a, so no solve is
    made per direction; a fit whose relative residual passes 10 times
    BASIS_RESIDUAL raises SolveError.  J depends on the direction and the
    taus only, not on earlier calls.  Given ``tau_max``, the engine builds
    the basis, and so checks N squared against MAX_SOLVE_BLOCK, before it
    factorizes anything.
    """

    def __init__(self, reduced: ReducedScene, mesh: Mesh, tau_max: float | None = None):
        self.mesh = mesh
        labels = solver.inclusion_labels(mesh, [inc.shape for inc in reduced.inclusions])
        d_a = solver.contrast_tensors(reduced)
        tensors = np.eye(2) + d_a
        touched = np.zeros(mesh.num_vertices, dtype=bool)
        touched[mesh.triangles[np.any(d_a != 0.0, axis=(1, 2))[labels]]] = True
        # Every triangle with a touched vertex, not the inclusion triangles
        # alone: SciPy sums a row's duplicate entries after an unstable
        # per-row sort, so every entry of the row, zeros included, sets the
        # summation order.  With all of them, on the mesh's vertex ids, the
        # inclusion vertices' rows match a whole-mesh assembly bit for bit,
        # for dA here and for the stiffness block K_SS below.
        near = touched[mesh.triangles].any(axis=1)
        triangles, near_labels = mesh.triangles[near], labels[near]
        delta_k = assemble(mesh.vertices, triangles, d_a[near_labels])
        delta_k.eliminate_zeros()
        self.nodes = np.unique(delta_k.indices)
        self.contrast = delta_k[self.nodes][:, self.nodes]
        if np.any(np.isin(self.nodes, mesh.boundary_vertices)):
            raise InvalidParameterError(
                "an inclusion reaches the domain boundary on this mesh; "
                "the method needs its closure inside the domain"
            )
        # the probe basis, and so its budget, before any factorization
        self._basis = None
        if tau_max is not None:
            tau_max = float(_check_taus(mesh, [tau_max])[0])
            self._basis = (tau_max, _probe_basis(mesh.vertices[self.nodes], tau_max))
        self._condensed = None
        if len(self.nodes):
            k_near = solver.assemble(mesh.vertices, triangles, tensors[near_labels])
            self._condensed = CondensedSystem(mesh, self.nodes, k_near[self.nodes][:, self.nodes])
        self._block = None

    def _probe_block(self, tau_max: float) -> ProbeBlock:
        """The probe block for probes up to ``tau_max``, built on first use
        from the basis the engine keeps for it, if any; only the last one
        is kept.  Its columns are solved in batches of at most
        MAX_SOLVE_BLOCK entries."""
        if self._block is not None and self._block.tau_max == tau_max:
            return self._block
        if self._basis is not None and self._basis[0] == tau_max:
            basis = self._basis[1]
        else:
            basis = _probe_basis(self.mesh.vertices[self.nodes], tau_max)
        self._basis = None
        rows = _pivoted_rows(basis)
        at_rows = basis[:, rows].T
        gram = np.zeros((len(basis) - 1, len(basis) - 1), dtype=complex)
        if self._condensed is not None:
            step = max(1, MAX_SOLVE_BLOCK // len(self.nodes))
            for at in range(1, len(basis), step):
                source = self.contrast @ basis[at : at + step].T
                # the correction is -solve(source); two separate products,
                # since contrast @ (basis + w) would round differently
                scattered = source - self.contrast @ self._condensed.solve(source)
                gram[:, at - 1 : at - 1 + step] = np.conj(basis[1:]) @ scattered
        self._block = ProbeBlock(tau_max, rows, at_rows, np.linalg.pinv(at_rows), gram)
        return self._block

    def pairing_differences(self, frame: DirectionFrame, taus) -> np.ndarray:
        """Complex pairing differences for the shifted probes, one per tau."""
        taus = _check_taus(self.mesh, taus)
        block = self._probe_block(float(taus[-1]))
        shift = self.mesh.domain.support(frame.theta)
        points = self.mesh.vertices[self.nodes[block.rows]]
        # the probes' values at the rows are taus x rows: taus go in slices
        # within budget
        step = max(1, MAX_SOLVE_BLOCK // max(1, len(block.rows)))
        j = []
        for at in range(0, len(taus), step):
            part = taus[at : at + step]
            values = np.array([Probe(frame, float(tau), shift).evaluate(points) for tau in part])
            coefficients = values @ block.fit.T
            misfit = np.linalg.norm(values - coefficients @ block.at_rows.T, axis=1)
            scale = np.linalg.norm(values, axis=1)
            over = np.flatnonzero(misfit > 10.0 * BASIS_RESIDUAL * scale)
            if len(over):
                k = over[0]
                residual = float(misfit[k] / scale[k])
                raise SolveError(
                    f"the probe basis fits the probe at tau = {part[k]:g} to a relative "
                    f"residual of {residual:.2e}, over {10.0 * BASIS_RESIDUAL:g}",
                    residual=residual,
                )
            # J does not see q_0, a constant
            a = coefficients[:, 1:]
            j.append(np.einsum("tk,tk->t", np.conj(a), a @ block.gram.T))
        return np.concatenate(j)

    def curve(self, frame: DirectionFrame, taus) -> IndicatorCurve:
        """Indicator curve at height t = 0; one block solve per tau_max.

        Other heights come from ``IndicatorCurve.shifted``.
        """
        taus = _check_taus(self.mesh, taus)
        j = np.real(self.pairing_differences(frame, taus))
        shift = self.mesh.domain.support(frame.theta)
        under = np.abs(j) < UNDERFLOW_FLOOR
        safe = np.where(under, 1.0, np.abs(j))
        log_abs = np.where(under, 0.0, np.log(safe) + 2.0 * taus * shift)
        signs = np.where(under, 0, np.sign(j)).astype(int)
        return IndicatorCurve(t=0.0, taus=taus, log_abs=log_abs, signs=signs)


def _fit_window(taus: np.ndarray) -> np.ndarray:
    """Mask of the samples in the upper half of the tau window."""
    return taus >= 0.5 * (taus[0] + taus[-1])


def estimate_support(curve: IndicatorCurve) -> SupportEstimate:
    """Least-squares slope of log|I(tau, 0)| against 2*tau.

    Fits over the upper half of the tau window, where the asymptotic
    regime dominates; needs at least 8 samples and no underflow inside the
    fit window.
    """
    if curve.t != 0.0:
        raise InvalidParameterError("support estimation expects a curve at t = 0")
    if len(curve) < 8:
        raise InvalidParameterError("support estimation needs at least 8 samples")
    window = _fit_window(curve.taus)
    if int(np.sum(window)) < MIN_FIT_SAMPLES:
        raise EstimationError(
            f"fewer than {MIN_FIT_SAMPLES} samples in the upper half of the tau window"
        )
    if np.any(curve.underflow[window]):
        raise EstimationError("underflowed samples inside the fit window")
    x = 2.0 * curve.taus[window]
    y = curve.log_abs[window]
    xm, ym = np.mean(x), np.mean(y)
    slope = float(np.sum((x - xm) * (y - ym)) / np.sum((x - xm) ** 2))
    resid = float(np.sqrt(np.mean((y - (ym + slope * (x - xm))) ** 2)))
    return SupportEstimate(h_hat=slope, fit_residual=resid)


# ---------------------------------------------------------------------------
# direction sweeps


@dataclass(frozen=True)
class DirectionResult:
    """One probing direction: its curve, its fit (None without signal),
    the scene's exact support (None without inclusions) and regime flags."""

    frame: DirectionFrame
    curve: IndicatorCurve
    estimate: SupportEstimate | None
    h_exact: float | None
    flags: tuple[str, ...]


@dataclass(frozen=True)
class SweepResult:
    directions: tuple[DirectionResult, ...]
    hull: ConvexPolygon | None
    hull_error: str | None

    @property
    def detected(self) -> bool:
        return bool(self.estimates())

    def estimates(self) -> list[SupportEstimate]:
        return [d.estimate for d in self.directions if d.estimate is not None]

    def max_support_error(self) -> float | None:
        errs = [
            abs(d.estimate.h_hat - d.h_exact)
            for d in self.directions
            if d.estimate is not None and d.h_exact is not None
        ]
        return max(errs) if errs else None


def sweep(
    scene: MaterialScene,
    mesh: Mesh,
    n_directions: int,
    taus,
    delta: float | None = None,
) -> SweepResult:
    """Estimate the support function on uniform directions and enclose.

    Directions whose regime report has an empty applicable set are flagged
    "outside proven regime" but still estimated; a direction is flagged
    "no-signal" only when a sample in its fit window underflowed.  A
    malformed tau grid, one with fewer than 8 samples or fewer than
    MIN_FIT_SAMPLES in the upper half of its window, a direction count that
    is not an integer of at least 8 or a slab thickness ``delta`` that is not
    a real number > 0 raises InvalidParameterError, an underresolved grid
    ProbeResolutionError, and directions times taus (the curve samples held)
    or the probe block's G, its basis's N columns squared, over
    MAX_SOLVE_BLOCK ResourceLimitError, all before any factorization.  A
    probe that the basis fits past its residual bound raises SolveError.
    """
    try:
        n_directions = operator.index(n_directions)
    except TypeError:
        raise InvalidParameterError(f"direction count {n_directions!r} is not an integer") from None
    if n_directions < 8:
        raise InvalidParameterError("sweep needs at least 8 directions")
    if delta is not None and not (is_real(delta) and delta > 0.0):
        raise InvalidParameterError(f"slab thickness delta must be a real number > 0, got {delta!r}")
    taus = _check_taus(mesh, taus)
    if len(taus) < 8:
        raise InvalidParameterError("sweep needs at least 8 tau samples")
    if int(np.sum(_fit_window(taus))) < MIN_FIT_SAMPLES:
        raise InvalidParameterError(
            f"sweep needs at least {MIN_FIT_SAMPLES} taus in the upper half of the tau window"
        )
    if n_directions * len(taus) > MAX_SOLVE_BLOCK:
        raise ResourceLimitError(
            f"{n_directions} directions times {len(taus)} taus is {n_directions * len(taus)} "
            f"curve samples, over the budget of {MAX_SOLVE_BLOCK}"
        )
    frames = geometry.uniform_directions(n_directions)
    reduced = materials.reduce_scene(scene)
    engine = IndicatorEngine(reduced, mesh, tau_max=float(taus[-1]))
    results = []
    for frame in frames:
        curve = engine.curve(frame, taus)
        flags: list[str] = []
        h_exact = None
        if not scene.inclusions:
            flags.append(NO_INCLUSION_FLAG)
        else:
            h_exact = materials.scene_support(scene, frame.theta)
            report = materials.classify_regime(scene, frame, delta)
            if report.applicable:
                flags.extend(sorted(report.applicable))
            else:
                flags.append(OUTSIDE_REGIME_FLAG)
        try:
            estimate = estimate_support(curve)
        except EstimationError:
            estimate = None
            flags.append(NO_SIGNAL_FLAG)
        results.append(DirectionResult(frame, curve, estimate, h_exact, tuple(flags)))

    estimated = [(d.frame, d.estimate.h_hat) for d in results if d.estimate is not None]
    hull = None
    hull_error = None
    if estimated:
        try:
            hull = geometry.hull_from_support(estimated)
        except (DegenerateHullError, InvalidParameterError) as exc:
            hull_error = str(exc)
    return SweepResult(directions=tuple(results), hull=hull, hull_error=hull_error)
