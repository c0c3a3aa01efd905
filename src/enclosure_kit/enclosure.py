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
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import geometry, materials
from .errors import (
    DegenerateHullError,
    EstimationError,
    InvalidParameterError,
    ProbeResolutionError,
    ResourceLimitError,
)
from .geometry import ConvexPolygon, DirectionFrame
from .materials import MaterialScene, ReducedScene
from .meshing import Mesh
from .solver import DirichletSystem, assemble, reduced_field

# probe oscillation must be resolved: tau * h_max <= RESOLUTION_GATE
RESOLUTION_GATE = 0.5
UNDERFLOW_FLOOR = 1e-300
# largest solve block, vertices x taus: 8M complex entries are 128 MB,
# and a solve holds a few arrays of that size at once
MAX_SOLVE_BLOCK = 8_000_000

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
        if not self.tau > 0.0:
            raise InvalidParameterError("probe tau must be > 0")

    def evaluate(self, points: np.ndarray) -> np.ndarray:
        """Shifted probe values exp(tau*((x.th - s) + i*x.th_perp))."""
        pts = np.atleast_2d(np.asarray(points, dtype=float))
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


def cgo_trace(mesh: Mesh, probe: Probe) -> np.ndarray:
    """Probe trace at the boundary vertices, in boundary-loop order.

    Refuses underresolved probes instead of degrading.
    """
    _require_resolved(mesh, probe.tau)
    return probe.evaluate(mesh.vertices[mesh.boundary_vertices])


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
        taus = np.asarray(self.taus, dtype=float)
        if len(taus) and np.any(np.diff(taus) <= 0.0):
            raise InvalidParameterError("curve taus must be strictly increasing")
        if not np.all(np.isfinite(np.asarray(self.log_abs)[~self.underflow])):
            raise InvalidParameterError("non-finite log sample without underflow flag")

    @property
    def underflow(self) -> np.ndarray:
        return np.asarray(self.signs) == 0

    def __len__(self) -> int:
        return len(self.taus)

    def shifted(self, new_t: float) -> "IndicatorCurve":
        """Same curve at another height via the exact identity
        log|I(tau, t1)| - log|I(tau, t2)| = 2*tau*(t2 - t1)."""
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

    dA is assembled once, from the triangles around the inclusion only,
    and kept as ``contrast``, its block on ``nodes``, the vertices of
    inclusion triangles: it has no entries in any other row or column.
    Probes are evaluated on those nodes alone, and the source, the
    scattered right-hand side and the pairing all come from that block.
    One factorized system serves every direction and tau.
    """

    def __init__(self, reduced: ReducedScene, mesh: Mesh):
        self.mesh = mesh
        coeff = reduced_field(mesh, reduced)
        self.system_inclusion = DirichletSystem(mesh, coeff)
        d_a = coeff - np.eye(2)
        touched = np.unique(mesh.triangles[np.any(d_a != 0.0, axis=(1, 2))])
        # Every triangle with a vertex in `touched`, not the inclusion
        # triangles alone: SciPy sums a row's duplicate entries after an
        # unstable per-row sort, so every entry of the row, zeros included,
        # sets the summation order.  With all of them the rows of the
        # inclusion vertices match a whole-mesh assembly bit for bit.
        near = np.any(np.isin(mesh.triangles, touched), axis=1)
        verts, local = np.unique(mesh.triangles[near], return_inverse=True)
        delta_k = assemble(mesh.vertices[verts], local.reshape(-1, 3), d_a[near])
        delta_k.eliminate_zeros()
        nodes = np.unique(delta_k.indices)
        self.nodes = verts[nodes]
        self.contrast = delta_k[nodes][:, nodes]

    def pairing_differences(self, frame: DirectionFrame, taus) -> np.ndarray:
        """Complex pairing differences for the shifted probes, one per tau."""
        taus = np.asarray(taus, dtype=float)
        _require_resolved(self.mesh, float(np.max(taus)))
        shift = self.mesh.domain.support(frame.theta)
        points = self.mesh.vertices[self.nodes]
        u0 = np.column_stack(
            [Probe(frame, float(tau), shift).evaluate(points) for tau in taus]
        )
        source = self.contrast @ u0
        rhs = np.zeros((self.mesh.num_vertices, len(taus)), dtype=complex)
        rhs[self.nodes] = -source
        w = self.system_inclusion.solve_interior(rhs)
        # two separate products: contrast @ (u0 + w) would round differently
        return np.einsum(
            "vk,vk->k", np.conj(u0), source + self.contrast @ w[self.nodes]
        )

    def curve(self, frame: DirectionFrame, taus) -> IndicatorCurve:
        """Indicator curve at height t = 0; one factorization for all tau.

        Other heights come from ``IndicatorCurve.shifted``.
        """
        taus = np.asarray(taus, dtype=float)
        j = np.real(self.pairing_differences(frame, taus))
        shift = self.mesh.domain.support(frame.theta)
        under = np.abs(j) < UNDERFLOW_FLOOR
        safe = np.where(under, 1.0, np.abs(j))
        log_abs = np.where(under, 0.0, np.log(safe) + 2.0 * taus * shift)
        signs = np.where(under, 0, np.sign(j)).astype(int)
        return IndicatorCurve(t=0.0, taus=taus, log_abs=log_abs, signs=signs)


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
    mid = 0.5 * (curve.taus[0] + curve.taus[-1])
    window = curve.taus >= mid
    if int(np.sum(window)) < 4:
        raise EstimationError(
            "fewer than 4 samples in the upper half of the tau window"
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
    "outside proven regime" but still estimated.  An underresolved tau
    raises ProbeResolutionError, and a solve block of more than
    MAX_SOLVE_BLOCK entries ResourceLimitError, before any factorization.
    """
    if n_directions < 8:
        raise InvalidParameterError("sweep needs at least 8 directions")
    taus = np.asarray(taus, dtype=float)
    if len(taus) < 8:
        raise InvalidParameterError("sweep needs at least 8 tau samples")
    _require_resolved(mesh, float(np.max(taus)))
    if mesh.num_vertices * len(taus) > MAX_SOLVE_BLOCK:
        raise ResourceLimitError(
            f"{len(taus)} taus on {mesh.num_vertices} vertices need a solve block of "
            f"{mesh.num_vertices * len(taus)} entries; budget is {MAX_SOLVE_BLOCK}"
        )
    reduced = materials.reduce_scene(scene)
    engine = IndicatorEngine(reduced, mesh)
    results = []
    for frame in geometry.uniform_directions(n_directions):
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
