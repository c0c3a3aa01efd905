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
few dozen Taylor monomials about the centres of a few cells, and J is one
small quadratic form in the probe's Taylor coefficients (``TaylorBlock``):
one solve per tau_max serves every direction.
"""

from __future__ import annotations

import math
import numbers
import operator
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from . import geometry, materials, solver
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
from .solver import CondensedSystem, assemble

# probe oscillation must be resolved: tau * h_max <= RESOLUTION_GATE
RESOLUTION_GATE = 0.5
UNDERFLOW_FLOOR = 1e-300
# fewest samples in the upper half of the tau window that the fit accepts
MIN_FIT_SAMPLES = 4
# largest array of the probe phase: 8M complex entries are 128 MB, and a
# solve holds a few of them at once.  The Taylor block's G, columns squared,
# and a sweep's curve samples, directions x taus, must fit; the block's
# columns are solved, and the probes' coefficients formed, in pieces within it
MAX_SOLVE_BLOCK = 8_000_000

# largest tau_max * (r - d) of a Taylor cell: r - d is how far the disk of
# radius r about the cell's centre c leaves the hull of all the nodes, d
# the signed distance from c to the hull's boundary.  The probe's terms
# about c reach exp(tau*(c.theta + r)) while J scales as exp(2*tau*h), h
# the hull's support, so J loses about exp(2*tau_max*(r - d)) times the
# rounding.  Against the per-direction solve at the gate, 32 directions,
# h = 0.02: 2.0e-14 at 3.0, 1.7e-13 at 4.3, 4.9e-13 at 4.9, 1.6e-11 at 7.8
TAYLOR_EXCESS_LIMIT = 3.0
# a cell's Taylor order N is the smallest with
# (tau_max r)^N / N! <= TAYLOR_TAIL * exp(-tau_max r)
TAYLOR_TAIL = 1e-18

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
        if not (isinstance(self.tau, numbers.Real) and math.isfinite(self.tau) and self.tau > 0.0):
            raise InvalidParameterError(f"probe tau must be finite, real and > 0, got {self.tau!r}")
        if not (isinstance(self.shift, numbers.Real) and math.isfinite(self.shift)):
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
    if not (isinstance(t, numbers.Real) and math.isfinite(t)):
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


def _hull(points: np.ndarray) -> np.ndarray:
    """Corners of the convex hull of ``points``, counter-clockwise (Andrew's
    monotone chain).  Not scipy.spatial: importing it costs about 7 MiB of
    resident memory."""
    # a point strictly inside the polygon of the extremes in 8 directions
    # is no corner; dropping those first leaves the loop a thin ring
    angles = np.pi / 4 * np.arange(8)
    picks = np.argmax(points @ np.array([np.cos(angles), np.sin(angles)]), axis=0)
    ring = points[picks[np.r_[True, picks[1:] != picks[:-1]]]]
    edge = np.roll(ring, -1, axis=0) - ring
    rel = points[:, None, :] - ring
    inside = np.all(edge[:, 0] * rel[..., 1] - edge[:, 1] * rel[..., 0] > 0.0, axis=1)
    points = points[~inside]
    ordered = points[np.lexsort((points[:, 1], points[:, 0]))].tolist()
    corners = []
    for run in (ordered, ordered[::-1]):
        chain = []
        for x, y in run:
            while len(chain) > 1 and (
                (chain[-1][0] - chain[-2][0]) * (y - chain[-2][1])
                <= (chain[-1][1] - chain[-2][1]) * (x - chain[-2][0])
            ):
                chain.pop()
            chain.append((x, y))
        corners += chain[:-1]
    return np.array(corners)


def _depth(point: np.ndarray, corners: np.ndarray) -> float:
    """Signed distance from ``point`` to the boundary of the convex polygon
    with counter-clockwise ``corners``, > 0 inside."""
    edge = np.roll(corners, -1, axis=0) - corners
    rel = point - corners
    along = np.clip(np.sum(rel * edge, axis=1) / np.sum(edge**2, axis=1), 0.0, 1.0)
    distance = float(np.min(np.hypot(*(rel - along[:, None] * edge).T)))
    inside = np.all(edge[:, 0] * rel[:, 1] - edge[:, 1] * rel[:, 0] >= 0.0)
    return distance if inside else -distance


def _taylor_cells(points: np.ndarray, tau_max: float):
    """Split ``points`` in two across the longer side of their bounding box
    until each cell's tau_max * (r - d) is at most TAYLOR_EXCESS_LIMIT: c is
    the middle of the cell's bounding box, r the largest distance of its
    points from c and d the signed distance from c to the boundary of the
    convex hull of all the points.  A round inclusion stays one cell.
    Returns each cell's points, c and r, and each column's cell and order n
    (``TaylorBlock``); ResourceLimitError if G, the columns squared, exceeds
    MAX_SOLVE_BLOCK."""
    members, centres, radii = [], [], []
    stack = [np.arange(len(points))] if len(points) else []
    corners = _hull(points) if len(points) else None
    while stack:
        rows = stack.pop()
        at = points[rows]
        lo, hi = at.min(axis=0), at.max(axis=0)
        centre = 0.5 * (lo + hi)
        radius = float(np.max(np.hypot(*(at - centre).T)))
        if tau_max * (radius - _depth(centre, corners)) <= TAYLOR_EXCESS_LIMIT:
            members.append(rows)
            centres.append(centre)
            radii.append(radius)
            continue
        axis = int(np.argmax(hi - lo))
        upper = at[:, axis] >= centre[axis]
        stack.extend([rows[~upper], rows[upper]])
    counts = np.array([_taylor_order(tau_max * r) for r in radii], dtype=np.int64)
    # J does not see a constant (contrast @ 1 = 0), so the probe less its
    # value at the first centre goes through the block: the first cell has
    # no P_0 column.  Kept, that column's rounding would stay while J falls
    # as (tau r)^2 for small tau.
    cell = np.repeat(np.arange(len(counts)), counts)[1:]
    order = (np.arange(len(cell) + 1) - np.repeat(np.cumsum(counts) - counts, counts))[1:]
    if len(cell) ** 2 > MAX_SOLVE_BLOCK:
        raise ResourceLimitError(
            f"the Taylor block's {len(cell)} columns squared exceed the budget of "
            f"{MAX_SOLVE_BLOCK} entries; lower tau_max"
        )
    return members, np.reshape(centres, (-1, 2)), np.array(radii), cell, order


def _taylor_order(x: float) -> int:
    """Smallest N with x^N / N! <= TAYLOR_TAIL * exp(-x), x >= 0, capped at
    the first N whose N - 1 columns squared exceed MAX_SOLVE_BLOCK, which
    the block's budget refuses: x^N / N! may overflow and never fall."""
    cap = math.isqrt(MAX_SOLVE_BLOCK) + 1
    n, term = 1, x
    while term > TAYLOR_TAIL * math.exp(-x) and n <= cap:
        n += 1
        term *= x / n
    return n


@dataclass(frozen=True)
class TaylorBlock:
    """J for every probe with tau up to ``tau_max``, as a quadratic form.

    Column k is P = ((z - c)/r)^n on the nodes of one cell,
    n = ``order[k]`` and c, r the ``centres`` and ``radii`` of cell
    ``cell[k]``, and 0 on the other nodes; the first cell has no column
    n = 0.  ``gram`` is P^H (C P + C X) for the ``contrast`` block C and X
    the scattering correction of -C P.
    """

    tau_max: float
    centres: np.ndarray
    radii: np.ndarray
    cell: np.ndarray
    order: np.ndarray
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

    Probes reach the nodes through one ``TaylorBlock`` per tau_max, built
    on the first call for it (the last one is kept).  The nodes split into
    cells whose disk about the centre c, of radius r, leaves the nodes'
    convex hull by at most TAYLOR_EXCESS_LIMIT / tau_max, so a round
    inclusion stays one cell.  Around c the probe is
    exp(tau*(conj(zeta)*c - s)) times the sum of
    (tau*conj(zeta)*r)^n / n! P_n, P_n = ((z - c)/r)^n, n < N.  One checked
    solve of the condensed system on -contrast @ P gives the correction X
    of every column, and G = P^H (contrast @ P + contrast @ X).  A probe's
    J is then v^H G v, with v its Taylor coefficients: the probe is
    evaluated at the cell centres alone, and no solve is made per
    direction.  J depends on the direction and the taus only, not on
    earlier calls.  Given ``tau_max``, the engine checks the block's
    layout (``_taylor_cells``) against MAX_SOLVE_BLOCK before it
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
        if tau_max is not None:
            # the Taylor block's budget, before any factorization
            _taylor_cells(mesh.vertices[self.nodes], float(_check_taus(mesh, [tau_max])[0]))
        self._condensed = None
        if len(self.nodes):
            k_near = solver.assemble(mesh.vertices, triangles, tensors[near_labels])
            self._condensed = CondensedSystem(mesh, self.nodes, k_near[self.nodes][:, self.nodes])
        self._block = None

    def _taylor_block(self, tau_max: float) -> TaylorBlock:
        """The Taylor block for probes up to ``tau_max``, built on first
        use; only the last one is kept.  Its columns are solved in batches
        of at most MAX_SOLVE_BLOCK entries; ResourceLimitError if G, the
        columns squared, exceeds it."""
        if self._block is not None and self._block.tau_max == tau_max:
            return self._block
        points = self.mesh.vertices[self.nodes]
        members, centres, radii, cell, order = _taylor_cells(points, tau_max)
        gram = np.zeros((len(cell), len(cell)), dtype=complex)
        if self._condensed is not None:
            # each cell's nodes hold its own columns alone, one dense piece
            # per cell; a cell of one node has r = 0 and only P_0 = 1
            columns = [np.flatnonzero(cell == c) for c in range(len(members))]
            pieces = []
            for rows, cols, centre, radius in zip(members, columns, centres, radii):
                offset = points[rows] - centre
                unit = (offset[:, :1] + 1j * offset[:, 1:]) / (radius if radius > 0.0 else 1.0)
                powers = np.ones((len(rows), np.max(order[cols], initial=0) + 1), dtype=complex)
                powers[:, 1:] = unit
                # u^n as a running product: numpy's u**n goes through
                # exp(n log u) from n = 100
                pieces.append(np.cumprod(powers, axis=1)[:, order[cols]])
            # the pieces' rows come cell by cell; put them back in node order
            basis = sp.block_diag(pieces, format="csr")[np.argsort(np.concatenate(members))]
            step = max(1, MAX_SOLVE_BLOCK // len(points))
            for at in range(0, len(cell), step):
                source = (self.contrast @ basis[:, at : at + step]).toarray()
                # the correction is -solve(source); two separate products,
                # since contrast @ (basis + w) would round differently
                scattered = source - self.contrast @ self._condensed.solve(source)
                for rows, c, piece in zip(members, columns, pieces):
                    gram[c, at : at + step] = piece.conj().T @ scattered[rows]
        self._block = TaylorBlock(tau_max, centres, radii, cell, order, gram)
        return self._block

    def pairing_differences(self, frame: DirectionFrame, taus) -> np.ndarray:
        """Complex pairing differences for the shifted probes, one per tau."""
        taus = _check_taus(self.mesh, taus)
        block = self._taylor_block(float(taus[-1]))
        shift = self.mesh.domain.support(frame.theta)
        # exp(tau*(x.th - s) + i*tau*x.th_perp) = exp(tau*(conj(zeta)*z - s)),
        # z = x1 + i*x2 and zeta = th1 + i*th2: the probe at each centre c
        # times its Taylor coefficients (tau*conj(zeta)*r)^n / n! about c
        zeta_bar = frame.theta[0] - 1j * frame.theta[1]
        top = np.max(block.order, initial=0)
        # the table of coefficients is taus x cells x (N_max + 1), and it
        # bounds the taus x columns of v: taus go in slices within budget
        step = max(1, MAX_SOLVE_BLOCK // max(1, len(block.radii) * (top + 1)))
        j = []
        for at in range(0, len(taus), step):
            part = taus[at : at + step]
            at_centres = np.array(
                [Probe(frame, float(tau), shift).evaluate(block.centres) for tau in part]
            )
            scaled = np.outer(part, zeta_bar * block.radii)
            # (tau*conj(zeta)*r)^n / n! as a running product, which neither
            # overflows nor underflows where N passes 170
            ratios = scaled[:, :, None] / np.arange(1.0, 1 + top)
            powers = np.cumprod(np.concatenate([np.ones_like(scaled)[:, :, None], ratios], 2), 2)
            v = at_centres[:, block.cell] * powers[:, block.cell, block.order]
            # the other cells' P_0 coefficients, less the first centre's value
            v[:, block.order == 0] -= at_centres[:, :1]
            j.append(np.einsum("tk,tk->t", np.conj(v), v @ block.gram.T))
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
    or the Taylor block's columns squared over MAX_SOLVE_BLOCK
    ResourceLimitError, all before any factorization.
    """
    try:
        n_directions = operator.index(n_directions)
    except TypeError:
        raise InvalidParameterError(f"direction count {n_directions!r} is not an integer") from None
    if n_directions < 8:
        raise InvalidParameterError("sweep needs at least 8 directions")
    if delta is not None and not (isinstance(delta, numbers.Real) and delta > 0.0):
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
