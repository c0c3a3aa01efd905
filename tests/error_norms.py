"""Discretization-error norms of nodal P1 fields (edge-midpoint quadrature,
exact for P1 * P1)."""

import numpy as np

from enclosure_kit.meshing import Mesh


def p1_l2_error(mesh: Mesh, u: np.ndarray, exact) -> float:
    """L2 distance between a nodal P1 field and a callable exact solution."""
    p = mesh.vertices[mesh.triangles]
    vals = u[mesh.triangles]
    areas = mesh.triangle_areas()
    total = 0.0
    for i, j in ((0, 1), (1, 2), (2, 0)):
        mid = 0.5 * (p[:, i] + p[:, j])
        uh = 0.5 * (vals[:, i] + vals[:, j])
        diff = uh - exact(mid)
        total += np.sum(areas / 3.0 * np.abs(diff) ** 2)
    return float(np.sqrt(total))


def p1_h1_seminorm_error(mesh: Mesh, u: np.ndarray, exact_grad) -> float:
    """H1 seminorm distance using the exact gradient at centroids."""
    p = mesh.vertices[mesh.triangles]
    x, y = p[:, :, 0], p[:, :, 1]
    b = np.stack([y[:, 1] - y[:, 2], y[:, 2] - y[:, 0], y[:, 0] - y[:, 1]], axis=1)
    c = np.stack([x[:, 2] - x[:, 1], x[:, 0] - x[:, 2], x[:, 1] - x[:, 0]], axis=1)
    areas = mesh.triangle_areas()
    vals = u[mesh.triangles]
    gx = np.sum(vals * b, axis=1) / (2.0 * areas)
    gy = np.sum(vals * c, axis=1) / (2.0 * areas)
    gex = exact_grad(mesh.centroids())
    err2 = np.abs(gx - gex[:, 0]) ** 2 + np.abs(gy - gex[:, 1]) ** 2
    return float(np.sqrt(np.sum(areas * err2)))
