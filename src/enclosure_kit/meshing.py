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
import numbers
from dataclasses import dataclass, field
from typing import get_args

import numpy as np

from .errors import InvalidParameterError, MeshError, ResourceLimitError
from .geometry import Domain, Rectangle, UnitDisk

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
    share across threads.
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
        object.__setattr__(
            self, "h_max", float(np.max(_edge_lengths(self.vertices, self.triangles)))
        )
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
        p = self.vertices[self.triangles]
        return 0.5 * (
            (p[:, 1, 0] - p[:, 0, 0]) * (p[:, 2, 1] - p[:, 0, 1])
            - (p[:, 2, 0] - p[:, 0, 0]) * (p[:, 1, 1] - p[:, 0, 1])
        )

    def centroids(self) -> np.ndarray:
        return self.vertices[self.triangles].mean(axis=1)

    def interior_vertices(self) -> np.ndarray:
        mask = np.ones(self.num_vertices, dtype=bool)
        mask[self.boundary_vertices] = False
        return np.nonzero(mask)[0]


def _is_array(arr, ndim: int, kind) -> bool:
    return isinstance(arr, np.ndarray) and arr.ndim == ndim and np.issubdtype(arr.dtype, kind)


def _is_index_array(arr, ndim: int, nv: int) -> bool:
    # an integer array with every entry in [0, nv); a negative index would wrap
    return _is_array(arr, ndim, np.integer) and (arr.size == 0 or 0 <= arr.min() <= arr.max() < nv)


def _edge_lengths(vertices: np.ndarray, triangles: np.ndarray) -> np.ndarray:
    p = vertices[triangles]
    e0 = np.hypot(*(p[:, 1] - p[:, 0]).T)
    e1 = np.hypot(*(p[:, 2] - p[:, 1]).T)
    e2 = np.hypot(*(p[:, 0] - p[:, 2]).T)
    return np.column_stack([e0, e1, e2])


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
    if not (isinstance(target_h, numbers.Real) and target_h > 0.0):
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

    xs = domain.x_min + lx * np.arange(nx + 1) / nx
    ys = domain.y_min + ly * np.arange(ny + 1) / ny
    xg, yg = np.meshgrid(xs, ys, indexing="xy")
    vertices = np.column_stack([xg.ravel(), yg.ravel()])

    ids = np.arange((ny + 1) * (nx + 1), dtype=np.int64).reshape(ny + 1, nx + 1)
    corners = np.stack([ids[:-1, :-1], ids[:-1, 1:], ids[1:, 1:], ids[1:, :-1]], axis=-1)
    # corners run v00, v10, v11, v01; cell (i, j) splits along v00-v11 when
    # i + j is even, else along v10-v01
    even = (np.add.outer(np.arange(ny), np.arange(nx)) % 2 == 0)[:, :, None]
    split = np.where(even, corners[..., [0, 1, 2, 0, 2, 3]], corners[..., [0, 1, 3, 1, 2, 3]])
    tris = split.reshape(-1, 3)

    # bottom row, right column, top row reversed, left column reversed
    boundary_vertices = np.concatenate(
        [ids[0, :-1], ids[:-1, -1], ids[-1, :0:-1], ids[:0:-1, 0]]
    )
    return Mesh(vertices, tris, boundary_vertices, domain)


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
    verts = [np.zeros((1, 2))]
    for k in range(1, n_rings + 1):
        ang = 2.0 * math.pi * np.arange(6 * k) / (6 * k)
        r = k / n_rings
        verts.append(np.column_stack([r * np.cos(ang), r * np.sin(ang)]))
    vertices = np.vstack(verts)

    ring1 = np.arange(_ring_start(1), _ring_start(1) + 6)
    tris = [np.column_stack([ring1, np.roll(ring1, -1), np.zeros(6, dtype=np.int64)])]
    for k in range(2, n_rings + 1):
        outer = np.arange(_ring_start(k), _ring_start(k) + 6 * k)
        inner = np.arange(_ring_start(k - 1), _ring_start(k - 1) + 6 * (k - 1))
        tris.append(_merge_rings(outer, inner))
    triangles = np.concatenate(tris)

    boundary_vertices = np.arange(_ring_start(n_rings), _ring_start(n_rings) + 6 * n_rings)
    return Mesh(vertices, triangles, boundary_vertices, domain)


def min_angle_deg(mesh: Mesh) -> float:
    """Smallest interior angle of any triangle, in degrees."""
    lengths = _edge_lengths(mesh.vertices, mesh.triangles)
    a, b, c = lengths[:, 0], lengths[:, 1], lengths[:, 2]
    angles = []
    for opp, s1, s2 in ((a, b, c), (b, c, a), (c, a, b)):
        cosv = np.clip((s1**2 + s2**2 - opp**2) / (2.0 * s1 * s2), -1.0, 1.0)
        angles.append(np.arccos(cosv))
    return math.degrees(float(np.min(np.stack(angles))))
