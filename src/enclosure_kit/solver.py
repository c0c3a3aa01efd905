"""P1 finite elements for div((sigma - i*omega*eps) grad u) = 0.

The coefficient is a 2x2 complex symmetric matrix per triangle, sampled at
the centroid.  Dirichlet data is imposed by elimination, so boundary
values are matched exactly and the weak Neumann pairing

    <Lambda f, g> = sum_T A_T grad(u) . grad(v) |T|

is independent of the discrete extension v of g up to the interior
residual.  ``CondensedSystem`` solves the interior problem for sources on
the inclusion nodes only, through a factorization of the inclusion nodes'
Schur complement; ``DirichletSystem`` factorizes the whole interior and
serves as the test reference.  Both factorize once (SuperLU,
deterministic ordering), reuse the factors across right-hand sides and
check every solve's residual.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from scipy.linalg.blas import dznrm2

from .errors import InvalidParameterError, MeshError, SolveError
from .materials import MaterialScene, ReducedScene
from .meshing import Mesh

RESIDUAL_TOL = 1e-10


def identity_field(mesh: Mesh) -> np.ndarray:
    """Identity conductivity, zero permittivity: the reference background."""
    m = np.zeros((mesh.num_triangles, 2, 2), dtype=complex)
    m[:, 0, 0] = 1.0
    m[:, 1, 1] = 1.0
    return m


def inclusion_labels(mesh: Mesh, shapes) -> np.ndarray:
    """Per triangle, the index of the shape holding its centroid, or -1."""
    centroids = mesh.centroids()
    labels = np.full(mesh.num_triangles, -1)
    for k, shape in enumerate(shapes):
        labels[shape.contains_mask(centroids)] = k
    return labels


def scene_field(mesh: Mesh, scene: MaterialScene) -> np.ndarray:
    """sigma - i*omega*eps sampled at centroids, original variables."""
    table = [
        scene.sigma_on(k).as_array() - 1j * scene.omega * scene.eps_on(k).as_array()
        for k in range(len(scene.inclusions))
    ]
    table.append((scene.sigma0 - 1j * scene.omega * scene.eps0) * np.eye(2))
    return np.array(table)[inclusion_labels(mesh, [inc.shape for inc in scene.inclusions])]


def reduced_tensors(reduced: ReducedScene) -> np.ndarray:
    """(I + a) - i*omega*b per inclusion, then the identity that label -1 selects."""
    table = [
        np.eye(2) + inc.a.as_array() - 1j * reduced.omega * inc.b.as_array()
        for inc in reduced.inclusions
    ]
    return np.array(table + [np.eye(2, dtype=complex)])


def reduced_field(mesh: Mesh, reduced: ReducedScene) -> np.ndarray:
    """(I + a) - i*omega*b sampled at centroids, identity background."""
    return reduced_tensors(reduced)[inclusion_labels(mesh, [i.shape for i in reduced.inclusions])]


def assemble(
    vertices: np.ndarray, triangles: np.ndarray, coeff: np.ndarray
) -> sp.csr_matrix:
    """Assemble the symmetric P1 stiffness matrix of a triangle set.

    K_ij = sum_T (A_T grad(phi_i)) . grad(phi_j) |T| over hat functions,
    with one 2x2 matrix A_T per row of ``triangles`` and one row and column
    per vertex; an empty triangle set gives an empty sum.  A real field
    gives a real matrix, a complex one a complex matrix.
    """
    coeff = np.asarray(coeff)
    coeff = coeff.astype(complex if np.iscomplexobj(coeff) else float, copy=False)
    if coeff.shape != (len(triangles), 2, 2):
        raise InvalidParameterError("coefficient field does not match the triangles")
    p = vertices[triangles]
    x, y = p[:, :, 0], p[:, :, 1]
    b = np.stack([y[:, 1] - y[:, 2], y[:, 2] - y[:, 0], y[:, 0] - y[:, 1]], axis=1)
    c = np.stack([x[:, 2] - x[:, 1], x[:, 0] - x[:, 2], x[:, 1] - x[:, 0]], axis=1)
    area2 = b[:, 0] * c[:, 1] - b[:, 1] * c[:, 0]  # = 2*|T| for CCW triangles
    if np.any(area2 <= 0.0):
        raise MeshError("assembly hit a degenerate or misoriented triangle")
    # grad(phi_i) = (b_i, c_i) / (2|T|), so (A_T grad(phi_j)) * 2|T| = (u_j, v_j)
    a = coeff[:, :, :, None]
    u = a[:, 0, 0] * b + a[:, 0, 1] * c
    v = a[:, 1, 0] * b + a[:, 1, 1] * c
    k_local = (b[:, :, None] * u[:, None, :] + c[:, :, None] * v[:, None, :]) / (
        2.0 * area2[:, None, None]
    )
    rows = np.repeat(triangles, 3, axis=1).ravel()
    cols = np.tile(triangles, (1, 3)).ravel()
    k = sp.coo_matrix(
        (k_local.ravel(), (rows, cols)), shape=(len(vertices), len(vertices))
    )
    return k.tocsr()


def _column_norms(a: np.ndarray) -> np.ndarray:
    """2-norm of each column of ``a`` (of a vector: its norm).  BLAS dznrm2
    scales as it sums, so entries near 1e200 do not square to infinity."""
    cols = np.asfortranarray(a if a.ndim == 2 else a[:, None])
    norms = [dznrm2(cols[:, j]) if len(cols) else 0.0 for j in range(cols.shape[1])]
    return np.array(norms).reshape(a.shape[1:])


def _relative_residual(matrix, x: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    res = _column_norms(matrix @ x - rhs)
    scale = _column_norms(rhs)
    return np.where(scale > 0.0, res / np.where(scale > 0.0, scale, 1.0), res)


def _checked_solve(lu, matrix, rhs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Solve ``matrix @ x = rhs`` through ``lu``, a factor of ``matrix``,
    under the residual contract.

    ``rhs`` is a vector or a batch of columns with one row per unknown.
    Returns x and the relative residual of each column.  Raises SolveError
    if any column misses RESIDUAL_TOL after one step of iterative
    refinement.
    """
    rhs = np.asarray(rhs, dtype=complex)
    if rhs.ndim not in (1, 2) or len(rhs) != matrix.shape[0]:
        raise InvalidParameterError(
            f"right-hand side of shape {rhs.shape} needs one row per "
            f"unknown ({matrix.shape[0]})"
        )
    x = lu.solve(rhs)
    rel = _relative_residual(matrix, x, rhs)
    # written as "not all within" so that a NaN residual fails too
    if not np.all(rel <= RESIDUAL_TOL):
        x = x + lu.solve(rhs - matrix @ x)
        rel = _relative_residual(matrix, x, rhs)
        if not np.all(rel <= RESIDUAL_TOL):
            worst = float(np.max(rel))
            raise SolveError(
                f"solve residual {worst:.3e} exceeds {RESIDUAL_TOL:.0e}", residual=worst
            )
    return x, rel


def _factorize(name: str, matrix: sp.spmatrix, **options):
    """SuperLU factor of ``matrix``; SolveError naming it if SuperLU fails."""
    try:
        return spla.splu(matrix, **options)
    except RuntimeError as exc:
        raise SolveError(f"{name} factorization failed: {exc}") from exc


# coordinate bits per axis: the interleaved 52-bit key converts exactly
# to a float64, whose exponent then gives its highest set bit
MORTON_BITS = 26


def dissection_order(points: np.ndarray, graph: sp.spmatrix) -> np.ndarray:
    """Quadtree nested-dissection order of a graph's vertices.

    ``points`` holds one coordinate pair per vertex, and every stored entry
    of ``graph`` is an edge.  The coordinates, quantized over their
    bounding square, interleave into a Morton key, so every quadtree cell
    is a range of keys and the highest bit in which two keys differ is the
    split that halves the smallest cell holding both.  For every edge the
    endpoint below that split separates the cell's halves, and each vertex
    keeps the largest cell it separates.  Sorted by the last key of that
    cell, then by the cell's size, each separator follows every other
    vertex of its cell and the separators of the cells within it.  Returns
    a permutation of range(len(points)).
    """
    if not len(points):
        return np.zeros(0, dtype=np.int64)
    lo = points.min(axis=0)
    span = np.max(points.max(axis=0) - lo)
    scale = (2**MORTON_BITS - 1) / span if span > 0.0 else 0.0
    q = ((points - lo) * scale).astype(np.int64)
    key = np.zeros(len(points), dtype=np.int64)
    for bit in range(MORTON_BITS):
        key |= ((q[:, 0] >> bit) & 1) << (2 * bit + 1)
        key |= ((q[:, 1] >> bit) & 1) << (2 * bit)
    graph = graph.tocoo()
    u, v = key[graph.row], key[graph.col]
    lower = np.where(u < v, graph.row, graph.col)
    # the highest differing bit, counted from 1, is the log2 key count of
    # the smallest cell holding both endpoints
    split = np.frexp((u ^ v).astype(float))[1].astype(np.int64)
    level = np.zeros(len(points), dtype=np.int64)
    # one dtype for both: ufunc.at takes a slow path on mixed dtypes
    np.maximum.at(level, lower, split)
    return np.lexsort((level, key | ((1 << level) - 1)))


class CondensedSystem:
    """Interior problem K_II w = r for right-hand sides r that vanish off a
    set S of interior vertices, solved for w on S alone.

    ``nodes`` lists S, sorted, and ``block`` is K_SS, the stiffness block
    on S.  Off S the coefficient is the real identity background, so the
    exterior unknowns E (interior vertices not in S) couple to S only
    through the halo H, the nodes with an entry in an E column, and only
    through real entries.  Eliminating E leaves

        (K_SS - K_SE K_EE^-1 K_ES) w_S = r_S,

    whose update is real, lives on H x H and depends on the mesh and S
    alone.  It is read off one factor of the real SPD background stiffness
    on E and H, assembled here in float64 from the real part of
    ``identity_field``, with E in the quadtree nested-dissection order of
    ``dissection_order`` (it fills less than SuperLU's default COLAMD) and
    H last: the trailing block L_HH U_HH of that factor is
    K0_HH - K_HE K_EE^-1 K_EH.
    The exterior factor is checked once and freed; the complex |S| matrix
    ``schur`` is factorized once, in minimum-degree order on its symmetric
    pattern (it fills less than SuperLU's default COLAMD), and serves
    every solve.
    """

    def __init__(self, mesh: Mesh, nodes: np.ndarray, block: sp.spmatrix):
        interior = mesh.interior_vertices()
        exterior = interior[~np.isin(interior, nodes)]
        k = assemble(mesh.vertices, mesh.triangles, identity_field(mesh).real)
        k_e = k[exterior]
        halo = np.flatnonzero(k_e[:, nodes].getnnz(axis=0))
        order = np.concatenate(
            [exterior[dissection_order(mesh.vertices[exterior], k_e[:, exterior])], nodes[halo]]
        )
        n_e = len(exterior)
        m = k[order][:, order].tocsc()
        del k, k_e
        lu = _factorize("exterior", m, permc_spec="NATURAL", diag_pivot_thresh=0.0)
        tail = np.arange(n_e, len(order))
        if not (np.array_equal(lu.perm_r[tail], tail) and np.array_equal(lu.perm_c[tail], tail)):
            raise SolveError("the exterior factorization moved the halo off the end")
        ones = np.ones(len(order))
        rel = float(_relative_residual(m, lu.solve(ones), ones))
        if not rel <= RESIDUAL_TOL:
            raise SolveError(
                f"exterior factor residual {rel:.3e} exceeds {RESIDUAL_TOL:.0e}", residual=rel
            )
        # reading lu.L or lu.U copies both whole factors, cached until lu goes
        update = lu.L[n_e:, n_e:].toarray() @ lu.U[n_e:, n_e:].toarray() - m[n_e:, n_e:].toarray()
        del lu, m
        rows, cols = np.meshgrid(halo, halo, indexing="ij")
        self.schur = (
            block + sp.csr_matrix((update.ravel(), (rows.ravel(), cols.ravel())), shape=block.shape)
        ).tocsc()
        self._lu = _factorize("inclusion", self.schur, permc_spec="MMD_AT_PLUS_A")

    def solve(self, rhs: np.ndarray) -> np.ndarray:
        """w on S, rows in ``nodes`` order, for right-hand sides given on S
        (a vector or a batch of columns), under the residual contract."""
        return _checked_solve(self._lu, self.schur, rhs)[0]


@dataclass(frozen=True)
class DirichletSolution:
    """Nodal solution of one Dirichlet solve.

    ``u`` holds complex values for every vertex; its restriction to the
    boundary equals the prescribed trace exactly.  ``residual_norm`` is the
    relative interior residual of the eliminated system.
    """

    u: np.ndarray
    residual_norm: float
    mesh: Mesh


class DirichletSystem:
    """Assembled and factorized Dirichlet problem for one coefficient field.

    ``coeff`` holds one complex 2x2 matrix per triangle, shape (nt, 2, 2).
    The whole interior is factorized once, and every solve passes through
    the same residual check; the pipeline does not use it, the tests
    compare against it.
    """

    def __init__(self, mesh: Mesh, coeff: np.ndarray):
        self.mesh = mesh
        self.K = assemble(mesh.vertices, mesh.triangles, coeff)
        self.interior = mesh.interior_vertices()
        self.boundary = mesh.boundary_vertices
        k_rows = self.K.tocsc()[self.interior]
        self.K_ii = k_rows[:, self.interior]
        self.K_ib = k_rows[:, self.boundary]
        self._lu = _factorize("interior", self.K_ii)

    def solve_interior(self, rhs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Solve K_II x = rhs with zero boundary values, under the residual
        contract.

        ``rhs`` has one row per interior vertex, in ``interior`` order (a
        vector or a batch of columns).  Returns x in the same layout and
        the relative residual of each column.
        """
        return _checked_solve(self._lu, self.K_ii, rhs)

    def solve_dirichlet(self, f: np.ndarray) -> DirichletSolution:
        """Solve one Dirichlet problem; trace values follow boundary order."""
        f = np.asarray(f, dtype=complex)
        if f.shape != (len(self.boundary),):
            raise InvalidParameterError(
                f"trace has shape {f.shape}, boundary has {len(self.boundary)} values"
            )
        u_i, rel = self.solve_interior(-(self.K_ib @ f))
        u = np.zeros(self.mesh.num_vertices, dtype=complex)
        u[self.interior] = u_i
        u[self.boundary] = f
        return DirichletSolution(u=u, residual_norm=float(rel), mesh=self.mesh)


def dtn_pairing(
    system: DirichletSystem,
    solution: DirichletSolution,
    g: np.ndarray,
    extension: np.ndarray | None = None,
) -> complex:
    """Weak Neumann pairing <Lambda f, g> = v^T K u for an extension v of g.

    By default v is the nodal zero-extension of g; any other discrete
    extension gives the same value up to the interior residual.
    """
    if solution.mesh is not system.mesh:
        raise InvalidParameterError("solution and system come from different meshes")
    g = np.asarray(g, dtype=complex)
    if g.shape != (len(system.boundary),):
        raise InvalidParameterError("boundary data does not match the mesh boundary")
    if extension is None:
        v = np.zeros(system.mesh.num_vertices, dtype=complex)
        v[system.boundary] = g
    else:
        v = np.asarray(extension, dtype=complex)
        if v.shape != (system.mesh.num_vertices,):
            raise InvalidParameterError("extension must be a full nodal vector")
        if np.max(np.abs(v[system.boundary] - g)) > 1e-10 * (1.0 + np.max(np.abs(g))):
            raise InvalidParameterError("extension does not extend the given trace")
    return complex(np.dot(v, system.K @ solution.u))


def difference_pairing(
    sys_a: DirichletSystem, sys_b: DirichletSystem, f: np.ndarray, g: np.ndarray
) -> complex:
    """Pairing difference <Lambda_a f, g> - <Lambda_b f, g> on a shared mesh.

    Evaluated in the cancellation-free local form: with v the b-solution
    extending g and dK = K_a - K_b (supported only where the coefficients
    differ), the difference of the two pairings equals v . (dK u_a) up to
    the interior residuals.  Subtracting the two O(1) pairings directly
    would lose the difference to roundoff once it decays below 1e-16 of
    the pairing scale; the local form keeps full relative precision.
    """
    if sys_a.mesh is not sys_b.mesh:
        raise InvalidParameterError("systems must share one mesh")
    u_a = sys_a.solve_dirichlet(f).u
    v_g = sys_b.solve_dirichlet(g).u
    delta_k = (sys_a.K - sys_b.K).tocsr()
    return complex(np.dot(v_g, delta_k @ u_a))

