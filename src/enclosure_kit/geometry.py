"""Shapes, domains, probing directions, support functions, and hulls.

Everything here is immutable after construction and safe for concurrent
reads.  Inclusions are restricted to disks, axis-aligned ellipses, and
strictly convex polygons so that the support function

    h_D(theta) = sup over x in D of x . theta

has a closed form.  The convex hull of an inclusion is recovered from
support-function estimates as an intersection of half planes
{x . theta <= h(theta)}.
"""

from __future__ import annotations

import math
import numbers
import operator
from dataclasses import dataclass
from typing import Iterable, Sequence, Union

import numpy as np

from .errors import DegenerateHullError, InvalidParameterError

UNIT_TOL = 1e-12
# bound on point coordinates and shape sizes: a product of two stays finite
COORD_LIMIT = 1e150
# angular grid of hausdorff_support_distance
HAUSDORFF_DIRECTIONS = 4096

Vec2 = tuple[float, float]


def is_real(x) -> bool:
    """Whether ``x`` is a real number.  A bool is refused: the library's
    numbers are quantities, and True is no radius, tau or constant."""
    return isinstance(x, numbers.Real) and not isinstance(x, bool)


def _as_point(x) -> np.ndarray:
    try:
        real = len(x) == 2 and all(is_real(c) for c in x)
    except TypeError:  # no length: a scalar
        real = False
    if not real:
        raise InvalidParameterError(f"expected a 2-vector of real numbers, got {x!r}")
    p = np.asarray(x, dtype=float)
    if not np.all(np.abs(p) <= COORD_LIMIT):
        raise InvalidParameterError(
            f"point {tuple(p)}: coordinates must be finite and at most {COORD_LIMIT:g}"
        )
    return p


def _check_unit(theta) -> np.ndarray:
    t = _as_point(theta)
    norm = math.hypot(t[0], t[1])
    if abs(norm - 1.0) > UNIT_TOL:
        raise InvalidParameterError(
            f"direction {tuple(t)} has norm {norm!r}, not unit within {UNIT_TOL}"
        )
    return t


@dataclass(frozen=True)
class DirectionFrame:
    """A unit probing direction theta; ``theta_perp`` is theta rotated by
    +90 degrees, with the fixed sign convention (1, 0) -> (0, 1)."""

    theta: Vec2

    def __post_init__(self):
        t = _check_unit(self.theta)
        object.__setattr__(self, "theta", (float(t[0]), float(t[1])))

    @property
    def theta_perp(self) -> Vec2:
        return (-self.theta[1], self.theta[0])

    @classmethod
    def from_angle(cls, angle: float) -> "DirectionFrame":
        if not (is_real(angle) and math.isfinite(angle)):
            raise InvalidParameterError(f"direction angle must be finite and real, got {angle!r}")
        return cls((math.cos(angle), math.sin(angle)))


def uniform_directions(n: int) -> list[DirectionFrame]:
    """n probing frames at angles 2*pi*k/n, k = 0..n-1; n is an integer."""
    try:
        n = operator.index(n)
    except TypeError:
        raise InvalidParameterError(f"direction count {n!r} is not an integer") from None
    if n < 1:
        raise InvalidParameterError("need at least one direction")
    return [DirectionFrame.from_angle(2.0 * math.pi * k / n) for k in range(n)]


# ---------------------------------------------------------------------------
# inclusion shapes


@dataclass(frozen=True)
class Disk:
    center: Vec2
    radius: float

    def __post_init__(self):
        _as_point(self.center)
        if not (is_real(self.radius) and 0.0 < self.radius <= COORD_LIMIT):
            raise InvalidParameterError(f"disk radius must be > 0 and at most {COORD_LIMIT:g}")
        object.__setattr__(self, "center", (float(self.center[0]), float(self.center[1])))
        object.__setattr__(self, "radius", float(self.radius))

    def support(self, theta) -> float:
        t = _check_unit(theta)
        return float(np.dot(self.center, t) + self.radius)

    def contains_mask(self, points: np.ndarray) -> np.ndarray:
        d = points - np.asarray(self.center)
        return d[:, 0] ** 2 + d[:, 1] ** 2 < self.radius**2


@dataclass(frozen=True)
class AxisEllipse:
    """Axis-aligned ellipse with semi-axes ``semi_a`` (x) and ``semi_b`` (y)."""

    center: Vec2
    semi_a: float
    semi_b: float

    def __post_init__(self):
        _as_point(self.center)
        semi_axes = (self.semi_a, self.semi_b)
        if not all(is_real(s) and 0.0 < s <= COORD_LIMIT for s in semi_axes):
            raise InvalidParameterError(
                f"ellipse semi-axes must be > 0 and at most {COORD_LIMIT:g}"
            )
        object.__setattr__(self, "center", (float(self.center[0]), float(self.center[1])))
        object.__setattr__(self, "semi_a", float(self.semi_a))
        object.__setattr__(self, "semi_b", float(self.semi_b))

    def support(self, theta) -> float:
        t = _check_unit(theta)
        return float(
            np.dot(self.center, t)
            + math.sqrt((self.semi_a * t[0]) ** 2 + (self.semi_b * t[1]) ** 2)
        )

    def contains_mask(self, points: np.ndarray) -> np.ndarray:
        u = (points[:, 0] - self.center[0]) / self.semi_a
        v = (points[:, 1] - self.center[1]) / self.semi_b
        return u * u + v * v < 1.0


@dataclass(frozen=True)
class ConvexPolygon:
    """Strictly convex polygon, vertices in counterclockwise order."""

    vertices: tuple[Vec2, ...]

    def __post_init__(self):
        if not isinstance(self.vertices, Iterable):
            raise InvalidParameterError(f"polygon vertices must be points, got {self.vertices!r}")
        verts = tuple((float(x), float(y)) for x, y in map(_as_point, self.vertices))
        if len(verts) < 3:
            raise InvalidParameterError("polygon needs at least 3 vertices")
        v = np.array(verts)
        n = len(verts)
        for i in range(n):
            a, b, c = v[i], v[(i + 1) % n], v[(i + 2) % n]
            cross = (b[0] - a[0]) * (c[1] - b[1]) - (b[1] - a[1]) * (c[0] - b[0])
            if not cross > 0.0:
                raise InvalidParameterError(
                    "polygon vertices must be strictly convex and counterclockwise"
                )
        object.__setattr__(self, "vertices", verts)

    def vertex_array(self) -> np.ndarray:
        return np.array(self.vertices, dtype=float)

    def support(self, theta) -> float:
        t = _check_unit(theta)
        return float(np.max(self.vertex_array() @ t))

    def contains_mask(self, points: np.ndarray) -> np.ndarray:
        v = self.vertex_array()
        edges = np.roll(v, -1, axis=0) - v
        inside = np.ones(len(points), dtype=bool)
        for vi, ei in zip(v, edges):
            rel = points - vi
            inside &= ei[0] * rel[:, 1] - ei[1] * rel[:, 0] > 0.0
        return inside


Shape = Union[Disk, AxisEllipse, ConvexPolygon]


def max_point_norm(shape: Shape) -> float:
    """sup over the closed shape of |x|, certified for convex shapes.

    Equals max over directions of h(theta); a dense angular grid plus the
    cos(half-spacing) correction gives a rigorous upper bound.
    """
    if isinstance(shape, Disk):
        return math.hypot(*shape.center) + shape.radius
    if isinstance(shape, ConvexPolygon):
        return float(np.max(np.hypot(*shape.vertex_array().T)))
    n = 8192
    ang = 2.0 * math.pi * np.arange(n) / n
    dirs = np.column_stack([np.cos(ang), np.sin(ang)])
    h = np.dot(dirs, shape.center) + np.hypot(
        shape.semi_a * dirs[:, 0], shape.semi_b * dirs[:, 1]
    )
    return float(np.max(h)) / math.cos(math.pi / n)


# ---------------------------------------------------------------------------
# computational domains


@dataclass(frozen=True)
class UnitDisk:
    """The open unit disk centered at the origin."""

    def support(self, theta) -> float:
        _check_unit(theta)
        return 1.0

    def diameter(self) -> float:
        return 2.0

    def boundary_distance(self, shape: Shape) -> float:
        return 1.0 - max_point_norm(shape)


@dataclass(frozen=True)
class Rectangle:
    x_min: float
    x_max: float
    y_min: float
    y_max: float

    def __post_init__(self):
        bounds = (self.x_min, self.x_max, self.y_min, self.y_max)
        if not all(is_real(b) and math.isfinite(b) for b in bounds):
            raise InvalidParameterError("rectangle bounds must be finite real numbers")
        if not (self.x_max > self.x_min and self.y_max > self.y_min):
            raise InvalidParameterError("rectangle must have nonempty interior")

    def support(self, theta) -> float:
        t = _check_unit(theta)
        hx = max(self.x_min * t[0], self.x_max * t[0])
        hy = max(self.y_min * t[1], self.y_max * t[1])
        return float(hx + hy)

    def diameter(self) -> float:
        return math.hypot(self.x_max - self.x_min, self.y_max - self.y_min)

    def boundary_distance(self, shape: Shape) -> float:
        walls = [
            (np.array([1.0, 0.0]), self.x_max),
            (np.array([-1.0, 0.0]), -self.x_min),
            (np.array([0.0, 1.0]), self.y_max),
            (np.array([0.0, -1.0]), -self.y_min),
        ]
        return min(offset - shape.support(normal) for normal, offset in walls)


Domain = Union[UnitDisk, Rectangle]

# relative clearance required between an inclusion and the outer boundary
MARGIN_FRACTION = 0.1


def require_margin(domain: Domain, shape: Shape) -> None:
    """Reject inclusions closer to the boundary than 0.1 * diam(domain)."""
    margin = MARGIN_FRACTION * domain.diameter()
    dist = domain.boundary_distance(shape)
    if dist < margin:
        raise InvalidParameterError(
            f"inclusion is only {dist:.4g} from the outer boundary; "
            f"at least {margin:.4g} (10% of the domain diameter) is required"
        )


# ---------------------------------------------------------------------------
# hull recovery from support values


def _clip_halfplane(points: np.ndarray, normal: np.ndarray, offset: float) -> np.ndarray:
    """Sutherland-Hodgman clip of a convex CCW polygon by x.normal <= offset."""
    eps = 1e-12 * (1.0 + abs(offset))
    dist = points @ normal - offset
    out: list[np.ndarray] = []
    n = len(points)
    for i in range(n):
        p, dp = points[i], dist[i]
        q, dq = points[(i + 1) % n], dist[(i + 1) % n]
        if dp <= eps:
            out.append(p)
        if (dp > eps) != (dq > eps):
            t = dp / (dp - dq)
            out.append(p + t * (q - p))
    return np.array(out) if out else np.empty((0, 2))


def hull_from_support(
    estimates: Sequence[tuple[DirectionFrame, float]],
) -> ConvexPolygon:
    """Intersect the half planes {x . theta <= h} and return their boundary.

    Parameters
    ----------
    estimates : sequence of (DirectionFrame, h)
        At least three directions spanning more than a half circle.

    Raises
    ------
    DegenerateHullError
        If the intersection is empty or unbounded.
    """
    if len(estimates) < 3:
        raise InvalidParameterError("need at least 3 support directions")
    h_scale = max(1.0, max(abs(h) for _, h in estimates))
    box = 1e3 * h_scale
    poly = np.array([[-box, -box], [box, -box], [box, box], [-box, box]])
    for frame, h in estimates:
        poly = _clip_halfplane(poly, np.asarray(frame.theta), float(h))
        if len(poly) < 3:
            raise DegenerateHullError("support half planes have empty intersection")
    if np.max(np.abs(poly)) >= 0.5 * box:
        raise DegenerateHullError(
            "support directions span at most a half circle: intersection unbounded"
        )
    verts = _tidy_polygon(poly, tol=1e-9 * h_scale)
    if len(verts) < 3:
        raise DegenerateHullError("half-plane intersection degenerated to a segment")
    return ConvexPolygon(tuple(map(tuple, verts)))


def _tidy_polygon(points: np.ndarray, tol: float) -> np.ndarray:
    """Drop duplicate and collinear vertices from a CCW vertex loop."""
    kept: list[np.ndarray] = []
    for p in points:
        if not kept or np.max(np.abs(p - kept[-1])) > tol:
            kept.append(p)
    while len(kept) > 1 and np.max(np.abs(kept[0] - kept[-1])) <= tol:
        kept.pop()
    # A vertex goes when it lies within tol of the line from the last kept
    # vertex to the next one.  Both ends of an edge a few tol long lie within
    # tol of their original neighbours' lines, so testing against those would
    # drop both and lose the corner they share.
    out: list[np.ndarray] = []
    n = len(kept)
    for i in range(n):
        a = out[-1] if out else kept[i - 1]
        b = kept[i]
        c = out[0] if out and i == n - 1 else kept[(i + 1) % n]
        cross = (b[0] - a[0]) * (c[1] - b[1]) - (b[1] - a[1]) * (c[0] - b[0])
        if abs(cross) > tol * np.hypot(*(c - a)):
            out.append(b)
    return np.array(out) if out else np.empty((0, 2))


def hausdorff_support_distance(a, b) -> float:
    """Hausdorff distance between two convex bodies via support sampling.

    For convex sets the Hausdorff distance equals the sup over unit
    directions of |h_a - h_b|; n = HAUSDORFF_DIRECTIONS equally spaced
    angles approximate it from below with O(1/n^2) error.  ``a`` and ``b``
    are anything exposing ``support``.
    """
    ang = 2.0 * math.pi * np.arange(HAUSDORFF_DIRECTIONS) / HAUSDORFF_DIRECTIONS
    worst = 0.0
    for c, s in zip(np.cos(ang), np.sin(ang)):
        t = (c, s)
        worst = max(worst, abs(a.support(t) - b.support(t)))
    return worst
