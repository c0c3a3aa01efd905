"""P1 finite elements for div((sigma - i*omega*eps) grad u) = 0.

The coefficient is a 2x2 complex symmetric matrix per triangle, sampled at
the centroid.  Dirichlet data is imposed by elimination, so boundary
values are matched exactly and the weak Neumann pairing

    <Lambda f, g> = sum_T A_T grad(u) . grad(v) |T|

is independent of the discrete extension v of g up to the interior
residual.  Systems are factorized once (SuperLU, deterministic ordering)
and reused across right-hand sides.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .errors import InterfaceError, InvalidParameterError, MeshError, SolveError
from .materials import MaterialScene, ReducedScene
from .meshing import Mesh

RESIDUAL_TOL = 1e-10


@dataclass(frozen=True)
class CoeffField:
    """Per-triangle 2x2 complex coefficient matrices, shape (nt, 2, 2)."""

    matrices: np.ndarray

    def __post_init__(self):
        m = np.asarray(self.matrices, dtype=complex)
        if m.ndim != 3 or m.shape[1:] != (2, 2):
            raise InvalidParameterError("coefficient field must have shape (nt, 2, 2)")
        object.__setattr__(self, "matrices", m)


def identity_field(mesh: Mesh) -> CoeffField:
    """Identity conductivity, zero permittivity: the reference background."""
    m = np.zeros((mesh.num_triangles, 2, 2), dtype=complex)
    m[:, 0, 0] = 1.0
    m[:, 1, 1] = 1.0
    return CoeffField(m)


def _fill_field(mesh: Mesh, base: np.ndarray, per_inclusion) -> CoeffField:
    centroids = mesh.centroids()
    m = np.broadcast_to(base, (mesh.num_triangles, 2, 2)).copy()
    for shape, matrix in per_inclusion:
        mask = shape.contains_mask(centroids)
        m[mask] = matrix
    return CoeffField(m)


def scene_field(mesh: Mesh, scene: MaterialScene) -> CoeffField:
    """sigma - i*omega*eps sampled at centroids, original variables."""
    base = (scene.sigma0 - 1j * scene.omega * scene.eps0) * np.eye(2)
    per_inc = []
    for k, inc in enumerate(scene.inclusions):
        a = scene.sigma_on(k).as_array() - 1j * scene.omega * scene.eps_on(k).as_array()
        per_inc.append((inc.shape, a))
    return _fill_field(mesh, base, per_inc)


def reduced_field(mesh: Mesh, reduced: ReducedScene) -> CoeffField:
    """(I + a) - i*omega*b sampled at centroids, identity background."""
    base = np.eye(2, dtype=complex)
    per_inc = []
    for inc in reduced.inclusions:
        a = (
            np.eye(2)
            + inc.a.as_array()
            - 1j * reduced.omega * inc.b.as_array()
        )
        per_inc.append((inc.shape, a))
    return _fill_field(mesh, base, per_inc)


def assemble(mesh: Mesh, coeff: CoeffField) -> sp.csr_matrix:
    """Assemble the complex symmetric P1 stiffness matrix.

    K_ij = sum_T (A_T grad(phi_i)) . grad(phi_j) |T| over hat functions.
    """
    if len(coeff.matrices) != mesh.num_triangles:
        raise InterfaceError("coefficient field does not match the mesh")
    p = mesh.vertices[mesh.triangles]
    x, y = p[:, :, 0], p[:, :, 1]
    b = np.stack([y[:, 1] - y[:, 2], y[:, 2] - y[:, 0], y[:, 0] - y[:, 1]], axis=1)
    c = np.stack([x[:, 2] - x[:, 1], x[:, 0] - x[:, 2], x[:, 1] - x[:, 0]], axis=1)
    area2 = b[:, 0] * c[:, 1] - b[:, 1] * c[:, 0]  # = 2*|T| for CCW triangles
    if np.min(area2) <= 0.0:
        raise MeshError("assembly hit a degenerate or misoriented triangle")
    g = np.stack([b, c], axis=2)  # (nt, 3, 2); grad(phi_i) = g[:, i] / (2|T|)
    k_local = np.einsum("tia,tab,tjb->tij", g, coeff.matrices, g) / (
        2.0 * area2[:, None, None]
    )
    rows = np.repeat(mesh.triangles, 3, axis=1).ravel()
    cols = np.tile(mesh.triangles, (1, 3)).ravel()
    k = sp.coo_matrix(
        (k_local.ravel(), (rows, cols)),
        shape=(mesh.num_vertices, mesh.num_vertices),
    )
    return k.tocsr()


@dataclass(frozen=True)
class DirichletSolution:
    """Nodal solution of one Dirichlet solve.

    ``u`` holds complex values for every vertex; its restriction to the
    boundary equals the prescribed trace ``f`` exactly.  ``residual_norm``
    is the relative interior residual of the eliminated system.
    """

    u: np.ndarray
    f: np.ndarray
    residual_norm: float
    mesh: Mesh


class DirichletSystem:
    """Assembled and factorized Dirichlet problem for one coefficient field.

    Every solve reuses the one factorization and passes through the same
    residual check.
    """

    def __init__(self, mesh: Mesh, coeff: CoeffField):
        self.mesh = mesh
        self.coeff = coeff
        self.K = assemble(mesh, coeff)
        self.interior = mesh.interior_vertices()
        self.boundary = mesh.boundary_vertices
        k_csc = self.K.tocsc()
        self.K_ii = k_csc[self.interior][:, self.interior]
        self.K_ib = k_csc[self.interior][:, self.boundary]
        try:
            self._lu = spla.splu(self.K_ii.tocsc())
        except RuntimeError as exc:
            raise SolveError(f"factorization failed: {exc}") from exc

    def _solve_checked(self, rhs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Solve K_II x = rhs column by column under the residual contract.

        Returns x and the relative residual of each column.  Raises
        SolveError if any column misses RESIDUAL_TOL after one step of
        iterative refinement.
        """
        x = self._lu.solve(rhs)
        rel = self._relative_residual(x, rhs)
        if np.any(rel > RESIDUAL_TOL):
            x = x + self._lu.solve(rhs - self.K_ii @ x)
            rel = self._relative_residual(x, rhs)
            worst = float(np.max(rel))
            if worst > RESIDUAL_TOL:
                raise SolveError(
                    f"interior residual {worst:.3e} exceeds {RESIDUAL_TOL:.0e}",
                    residual=worst,
                )
        return x, rel

    def _relative_residual(self, u_i: np.ndarray, rhs: np.ndarray) -> np.ndarray:
        res = np.linalg.norm(self.K_ii @ u_i - rhs, axis=0)
        scale = np.linalg.norm(rhs, axis=0)
        return np.where(scale > 0.0, res / np.where(scale > 0.0, scale, 1.0), res)

    def _solve_traces(self, f: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Nodal solutions and relative residuals for a trace or a batch of
        traces, one per column."""
        if f.shape[0] != len(self.boundary):
            raise InterfaceError(
                f"trace has {f.shape[0]} values, boundary has {len(self.boundary)}"
            )
        u_i, rel = self._solve_checked(-(self.K_ib @ f))
        u = np.zeros((self.mesh.num_vertices,) + f.shape[1:], dtype=complex)
        u[self.interior] = u_i
        u[self.boundary] = f
        return u, rel

    def solve_many(self, traces: np.ndarray) -> np.ndarray:
        """Solve for a batch of boundary traces, one per column.

        Returns the (num_vertices, k) nodal solutions.  Raises SolveError
        if any column misses the interior residual contract after one step
        of iterative refinement.
        """
        return self._solve_traces(np.asarray(traces, dtype=complex))[0]

    def solve_dirichlet(self, f: np.ndarray) -> DirichletSolution:
        """Solve one Dirichlet problem; trace values follow boundary order."""
        f = np.asarray(f, dtype=complex)
        u, rel = self._solve_traces(f)
        return DirichletSolution(u=u, f=f, residual_norm=float(rel), mesh=self.mesh)

    def solve_interior(self, rhs: np.ndarray) -> np.ndarray:
        """Solve K_II x_I = rhs_I with zero boundary values.

        ``rhs`` is a full nodal vector (or a batch of columns); boundary
        rows are ignored.  Used for locally driven fields such as
        inclusion-scattering corrections.
        """
        r = np.asarray(rhs, dtype=complex)
        if r.shape[0] != self.mesh.num_vertices:
            raise InterfaceError("interior right-hand side must be a full nodal vector")
        x = np.zeros(r.shape, dtype=complex)
        x[self.interior] = self._solve_checked(r[self.interior])[0]
        return x


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
        raise InterfaceError("solution and system come from different meshes")
    g = np.asarray(g, dtype=complex)
    if g.shape != (len(system.boundary),):
        raise InterfaceError("boundary data does not match the mesh boundary")
    if extension is None:
        v = np.zeros(system.mesh.num_vertices, dtype=complex)
        v[system.boundary] = g
    else:
        v = np.asarray(extension, dtype=complex)
        if v.shape != (system.mesh.num_vertices,):
            raise InterfaceError("extension must be a full nodal vector")
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
        raise InterfaceError("systems must share one mesh")
    u_a = sys_a.solve_many(np.asarray(f, dtype=complex))
    v_g = sys_b.solve_many(np.asarray(g, dtype=complex))
    delta_k = (sys_a.K - sys_b.K).tocsr()
    return complex(np.dot(v_g, delta_k @ u_a))


def dump_solution_csv(solution: DirichletSolution, path: str) -> str:
    """Write u.csv with columns id, Re u, Im u."""
    with open(path, "w", newline="") as f:
        f.write("id,re_u,im_u\r\n")
        for i, val in enumerate(solution.u):
            f.write(f"{i},{val.real:.17g},{val.imag:.17g}\r\n")
    return path
