"""Deterministic triangulations of the computational domains.

Rectangles get a structured grid of cells (roughly half the target edge
length per side, aspect ratio capped at 2) split along alternating
diagonals.  The unit disk is meshed as concentric rings: ring k carries 6k
vertices at uniform angles and radius k/N, stitched to ring k-1 in the
order of exact integer angle keys, so boundary vertices sit exactly on the
circle and the construction is bit-reproducible.  Connectivity is built as
int64 index arrays.  Inclusion boundaries are never meshed conformingly;
materials are sampled at triangle centroids.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import get_args

import numpy as np

from .errors import InvalidParameterError, MeshError, ResourceLimitError
from .geometry import Domain, Rectangle, UnitDisk, is_real

# hard ceiling on generated triangles; protects against runaway target_h
MAX_TRIANGLES = 2_000_000


@dataclass(frozen=True)
class Mesh:
    """Conforming triangulation with an identified boundary loop.

    vertices : (nv, 2) array of finite floats
    triangles : (nt, 3) integer array of vertex indices, counterclockwise
    boundary_vertices : distinct indices of boundary vertices, ordered along the loop
    domain : the Domain that was meshed
    h_max : longest edge, computed from the triangles

    Arrays are locked after construction; a mesh is immutable and safe to
    share across threads.  Its passes over the triangles (h_max, areas,
    centroids) gather one corner at a time, never all corners at once.
    """

    vertices: np.ndarray
    triangles: np.ndarray
    boundary_vertices: np.ndarray
    domain: Domain
    h_max: float = field(init=False)

    def __post_init__(self):
        v, t, bv = self.vertices, self.triangles, self.boundary_vertices
        if not (_is_array(v, 2, np.floating) and v.shape[1] == 2 and np.isfinite(v).all()):
            raise MeshError("vertices must be an (nv, 2) array of finite floats")
        if not (_is_index_array(t, 2, len(v)) and t.shape[1] == 3):
            raise MeshError(f"triangles must be an (nt, 3) integer array in [0, {len(v)})")
        if len(t) == 0:
            raise MeshError("mesh has no triangles")
        if not (_is_index_array(bv, 1, len(v)) and len(np.unique(bv)) == len(bv)):
            raise MeshError(f"boundary_vertices must be distinct vertex indices in [0, {len(v)})")
        if not isinstance(self.domain, get_args(Domain)):
            raise InvalidParameterError(f"unsupported domain {self.domain!r}")
        h_max = max(np.max(_edge_length(self, k)) for k in range(3))
        object.__setattr__(self, "h_max", float(h_max))
        if np.min(self.triangle_areas()) <= 0.0:
            raise MeshError("mesh contains a degenerate or misoriented triangle")
        for arr in (self.vertices, self.triangles, self.boundary_vertices):
            arr.setflags(write=False)

    @property
    def num_vertices(self) -> int:
        return len(self.vertices)

    @property
    def num_triangles(self) -> int:
        return len(self.triangles)

    def triangle_areas(self) -> np.ndarray:
        (x, y), t = self.vertices.T, self.triangles
        x0, y0 = x[t[:, 0]], y[t[:, 0]]
        area = (x[t[:, 1]] - x0) * (y[t[:, 2]] - y0)
        area -= (x[t[:, 2]] - x0) * (y[t[:, 1]] - y0)
        return np.multiply(area, 0.5, out=area)

    def centroids(self) -> np.ndarray:
        # (v0 + v1) + v2, then / 3: the order of a mean over the corners
        v, t = self.vertices, self.triangles
        total = v[t[:, 0]] + v[t[:, 1]]
        total += v[t[:, 2]]
        return np.divide(total, 3.0, out=total)

    def interior_vertices(self) -> np.ndarray:
        mask = np.ones(self.num_vertices, dtype=bool)
        mask[self.boundary_vertices] = False
        return np.nonzero(mask)[0]


def _is_array(arr, ndim: int, kind) -> bool:
    return isinstance(arr, np.ndarray) and arr.ndim == ndim and np.issubdtype(arr.dtype, kind)


def _is_index_array(arr, ndim: int, nv: int) -> bool:
    # an integer array with every entry in [0, nv); a negative index would wrap
    return _is_array(arr, ndim, np.integer) and (arr.size == 0 or 0 <= arr.min() <= arr.max() < nv)


def _edge_length(mesh: Mesh, k: int) -> np.ndarray:
    """Length of each triangle's edge from corner k to corner k + 1."""
    a, b, (x, y) = mesh.triangles[:, k], mesh.triangles[:, (k + 1) % 3], mesh.vertices.T
    return np.hypot(x[b] - x[a], y[b] - y[a])


def generate_mesh(domain: Domain, target_h: float) -> Mesh:
    """Triangulate a domain with longest edge at most 1.5 * target_h.

    Deterministic: identical inputs produce bit-identical meshes.  For the
    unit disk all boundary vertices lie exactly on the circle.

    Raises
    ------
    InvalidParameterError
        If target_h is not a real number in (0, diam/2).
    ResourceLimitError
        If the requested resolution would exceed the element budget.
    """
    if not isinstance(domain, get_args(Domain)):
        raise InvalidParameterError(f"unsupported domain {domain!r}")
    if not (is_real(target_h) and target_h > 0.0):
        raise InvalidParameterError(f"target_h must be a real number > 0, got {target_h!r}")
    if target_h >= domain.diameter() / 2.0:
        raise InvalidParameterError(
            f"target_h = {target_h:g} too coarse: must be below "
            f"diam/2 = {domain.diameter() / 2.0:g}"
        )
    if isinstance(domain, Rectangle):
        return _mesh_rectangle(domain, target_h)
    return _mesh_unit_disk(domain, target_h)


def _ceil_count(num: float, den: float, target_h: float) -> int:
    """ceil(num / den) for a cell or ring count, which the triangle count bounds.

    The budget is compared before dividing, since a zero ``den`` or an
    infinite quotient would make the division or ``math.ceil`` raise.
    """
    if not num <= MAX_TRIANGLES * den:
        raise ResourceLimitError(
            f"mesh at target_h = {target_h:g} needs more triangles than the "
            f"budget of {MAX_TRIANGLES}"
        )
    return math.ceil(num / den)


def _mesh_rectangle(domain: Rectangle, target_h: float) -> Mesh:
    lx = domain.x_max - domain.x_min
    ly = domain.y_max - domain.y_min
    cell = 0.5 * target_h
    nx = max(1, _ceil_count(lx, cell, target_h))
    ny = max(1, _ceil_count(ly, cell, target_h))
    # cap the cell aspect ratio at 2 to keep the min-angle floor
    nx = max(nx, _ceil_count(lx, 2.0 * ly / ny, target_h))
    ny = max(ny, _ceil_count(ly, 2.0 * lx / nx, target_h))
    if 2 * nx * ny > MAX_TRIANGLES:
        raise ResourceLimitError(
            f"rectangle mesh at target_h = {target_h:g} needs {2 * nx * ny} "
            f"triangles; budget is {MAX_TRIANGLES}"
        )

    vertices = np.empty((ny + 1, nx + 1, 2))
    vertices[..., 0] = domain.x_min + lx * np.arange(nx + 1) / nx
    vertices[..., 1] = (domain.y_min + ly * np.arange(ny + 1) / ny)[:, None]

    ids = np.arange((ny + 1) * (nx + 1), dtype=np.int64).reshape(ny + 1, nx + 1)
    corners = (ids[:-1, :-1], ids[:-1, 1:], ids[1:, 1:], ids[1:, :-1])
    # corners run v00, v10, v11, v01; cell (i, j) splits along v00-v11 when
    # i + j is even, else along v10-v01
    even = np.add.outer(np.arange(ny), np.arange(nx)) % 2 == 0
    tris = np.empty((ny, nx, 6), dtype=np.int64)
    for k, (e, o) in enumerate(zip((0, 1, 2, 0, 2, 3), (0, 1, 3, 1, 2, 3))):
        tris[..., k] = np.where(even, corners[e], corners[o])

    # bottom row, right column, top row reversed, left column reversed
    boundary_vertices = np.concatenate(
        [ids[0, :-1], ids[:-1, -1], ids[-1, :0:-1], ids[:0:-1, 0]]
    )
    return Mesh(vertices.reshape(-1, 2), tris.reshape(-1, 3), boundary_vertices, domain)


def _ring_start(k: int) -> int:
    # center vertex is 0; ring k (k >= 1) holds 6k vertices
    return 1 + 3 * k * (k - 1)


def _merge_rings(outer: np.ndarray, inner: np.ndarray) -> np.ndarray:
    """Stitch two uniform-angle vertex rings into CCW triangles.

    Outer step a ends at angle key (a+1)*len(inner) and inner step b at
    (b+1)*len(outer); the steps are taken in key order, outer first on
    ties.  The keys are exact integers, so the connectivity is reproducible.
    """
    no, ni = len(outer), len(inner)
    keys = np.concatenate([np.arange(1, no + 1) * ni, np.arange(1, ni + 1) * no])
    is_outer = np.argsort(keys, kind="stable") < no
    a = np.cumsum(is_outer) - is_outer
    b = np.cumsum(~is_outer) - ~is_outer
    middle = np.where(is_outer, outer[(a + 1) % no], inner[(b + 1) % ni])
    return np.column_stack([outer[a % no], middle, inner[b % ni]])


def _mesh_unit_disk(domain: UnitDisk, target_h: float) -> Mesh:
    n_rings = max(2, _ceil_count(1.2, target_h, target_h))
    if 6 * n_rings**2 > MAX_TRIANGLES:
        raise ResourceLimitError(
            f"disk mesh at target_h = {target_h:g} needs {6 * n_rings**2} "
            f"triangles; budget is {MAX_TRIANGLES}"
        )
    # ring k's vertices start at _ring_start(k), and its triangles (ring 1's
    # fan, then the stitch of ring k to ring k - 1) at 6 (k - 1)^2
    vertices = np.zeros((_ring_start(n_rings + 1), 2))
    triangles = np.zeros((6 * n_rings**2, 3), dtype=np.int64)
    for k in range(1, n_rings + 1):
        ang = 2.0 * math.pi * np.arange(6 * k) / (6 * k)
        r = k / n_rings
        ring = slice(_ring_start(k), _ring_start(k + 1))
        vertices[ring, 0], vertices[ring, 1] = r * np.cos(ang), r * np.sin(ang)
        outer = np.arange(ring.start, ring.stop)
        if k == 1:
            triangles[:6, 0], triangles[:6, 1] = outer, np.roll(outer, -1)
        else:
            inner = np.arange(_ring_start(k - 1), ring.start)
            triangles[6 * (k - 1) ** 2 : 6 * k**2] = _merge_rings(outer, inner)

    boundary_vertices = np.arange(_ring_start(n_rings), _ring_start(n_rings) + 6 * n_rings)
    return Mesh(vertices, triangles, boundary_vertices, domain)


def min_angle_deg(mesh: Mesh) -> float:
    """Smallest interior angle of any triangle, in degrees."""
    a, b, c = (_edge_length(mesh, k) for k in range(3))
    smallest = math.inf
    for opp, s1, s2 in ((a, b, c), (b, c, a), (c, a, b)):
        cosv = np.clip((s1**2 + s2**2 - opp**2) / (2.0 * s1 * s2), -1.0, 1.0)
        smallest = min(smallest, float(np.min(np.arccos(cosv))))
    return math.degrees(smallest)
