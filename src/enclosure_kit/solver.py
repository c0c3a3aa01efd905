"""P1 finite elements for div((sigma - i*omega*eps) grad u) = 0.

The coefficient is a 2x2 complex symmetric matrix per triangle, sampled at
the centroid.  Dirichlet data is imposed by elimination, so boundary
values are matched exactly and the weak Neumann pairing

    <Lambda f, g> = sum_T A_T grad(u) . grad(v) |T|

is independent of the discrete extension v of g up to the interior
residual.  ``CondensedSystem`` solves the interior problem for sources on
the inclusion nodes only, through a factorization of the inclusion nodes'
Schur complement.  It condenses the background exterior onto them in one
walk over its quadtree dissection order: each quadtree part (at most
MAX_PART_VERTICES vertices) is factored and freed in turn, each cell
separator merges the updates from within its cell in a small dense front
over the separators and the inclusion nodes, and a last front, with
nothing to eliminate, sums what is left: it holds exactly the halo.
``DirichletSystem`` factorizes the whole interior of one coefficient field;
with ``dtn_pairing`` and ``difference_pairing`` it is the whole-interior
reference the tests hold the pipeline against.  Both systems factorize
once (SuperLU, deterministic ordering), reuse the factors across
right-hand sides and check every solve's residual.
"""

from __future__ import annotations

import numpy as np
import scipy.linalg as sla
import scipy.linalg.blas as blas
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from scipy.linalg.blas import dznrm2

from .errors import InvalidParameterError, MeshError, SolveError
from .materials import MaterialScene, ReducedScene
from .meshing import Mesh

RESIDUAL_TOL = 1e-10


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


def contrast_tensors(reduced: ReducedScene) -> np.ndarray:
    """a - i*omega*b per inclusion, then the zero row that label -1 selects."""
    table = [i.a.as_array() - 1j * reduced.omega * i.b.as_array() for i in reduced.inclusions]
    return np.array(table + [np.zeros((2, 2), dtype=complex)])


def reduced_field(mesh: Mesh, reduced: ReducedScene) -> np.ndarray:
    """(I + a) - i*omega*b sampled at centroids, identity background."""
    labels = inclusion_labels(mesh, [i.shape for i in reduced.inclusions])
    return (np.eye(2) + contrast_tensors(reduced))[labels]


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
    if coeff.dtype.kind not in "iufc" or coeff.shape != (len(triangles), 2, 2):
        raise InvalidParameterError("coefficient field does not match the triangles")
    coeff = coeff.astype(complex if np.iscomplexobj(coeff) else float, copy=False)
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
# most vertices in one part of the condensed exterior.  Any count from
# 10,561 to 13,481 splits the reference disk's exterior into 4 parts at
# h = 0.01 (41k vertices) and into 60 at h = 0.005 (165k), and keeps the
# 10k of h = 0.02 in one part; 20,000 (16 parts at h = 0.005) merged
# faster but peaked higher in the benchmark's runs (CHANGES.md)
MAX_PART_VERTICES = 12_000


def _quadtree(points: np.ndarray, edges) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Morton key, quadtree level and nested-dissection order of a graph's
    vertices.

    ``points`` holds one coordinate pair per vertex, and ``edges`` yields
    batches of index arrays (rows, cols): each pair (rows[i], cols[i]) is
    an edge unless an end is negative.  The coordinates, quantized over their
    bounding square, interleave into a Morton key, so every quadtree cell
    is a range of keys and the highest bit in which two keys differ is the
    split that halves the smallest cell holding both.  For every edge the
    endpoint below that split separates the cell's halves, and each vertex
    keeps the largest cell it separates: its level is that cell's split (0
    if it separates none).  Sorted by the last key of that cell, then by
    the cell's size, each separator follows every other vertex of its cell
    and the separators of the cells within it.
    """
    if not len(points):
        empty = np.zeros(0, dtype=np.int64)
        return empty, empty, empty
    lo = points.min(axis=0)
    span = np.max(points.max(axis=0) - lo)
    scale = (2**MORTON_BITS - 1) / span if span > 0.0 else 0.0
    q = ((points - lo) * scale).astype(np.int64)
    key = np.zeros(len(points), dtype=np.int64)
    for bit in range(MORTON_BITS):
        key |= ((q[:, 0] >> bit) & 1) << (2 * bit + 1)
        key |= ((q[:, 1] >> bit) & 1) << (2 * bit)
    level = np.zeros(len(points), dtype=np.int64)
    for rows, cols in edges:
        inside = (rows >= 0) & (cols >= 0)
        rows, cols = rows[inside], cols[inside]
        u, v = key[rows], key[cols]
        lower = np.where(u < v, rows, cols)
        # the highest differing bit, counted from 1, is the log2 key count
        # of the smallest cell holding both endpoints
        split = np.frexp((u ^ v).astype(float))[1].astype(np.int64)
        # one dtype for both: ufunc.at takes a slow path on mixed dtypes
        np.maximum.at(level, lower, split)
    return key, level, np.lexsort((level, key | ((1 << level) - 1)))


def _parts(key: np.ndarray, level: np.ndarray) -> np.ndarray:
    """Part label of each vertex of a quadtree, -1 on the interface.

    The vertices split at the top ``depth`` binary splits of the quadtree,
    ``depth`` the smallest even number that leaves no part over
    MAX_PART_VERTICES.  The vertices whose level exceeds 2*MORTON_BITS -
    depth separate the cells of that depth and form the interface; the
    rest of each cell is a part, and parts are labelled in key order.  No
    edge of the quadtree's graph joins two parts.
    """
    top = 2 * MORTON_BITS
    depth = 0
    part = np.zeros(len(key), dtype=np.int64)
    while depth < top and np.max(np.bincount(part[part >= 0]), initial=0) > MAX_PART_VERTICES:
        depth += 2
        inner = level <= top - depth
        part = np.full(len(key), -1)
        part[inner] = np.unique(key[inner] >> (top - depth), return_inverse=True)[1]
    return part


def _touching(incidence: sp.csr_matrix, vertices: np.ndarray) -> np.ndarray:
    """The triangles that touch any of ``vertices``, in mesh order."""
    starts = incidence.indptr[vertices]
    lengths = incidence.indptr[vertices + 1] - starts
    # each vertex's run of incidence.indices, gathered without a new matrix
    at = np.arange(lengths.sum()) + np.repeat(starts - (np.cumsum(lengths) - lengths), lengths)
    hit = np.zeros(incidence.shape[1], dtype=bool)
    hit[incidence.indices[at]] = True
    return np.flatnonzero(hit)


def _background(
    vertices: np.ndarray, triangles: np.ndarray, rows: np.ndarray, cols: np.ndarray
) -> sp.csr_matrix:
    """Block ``rows`` x ``cols`` of the stiffness of the real identity
    background over ``triangles``.

    The vertices of ``triangles``, ``rows`` and ``cols`` are numbered
    compactly in mesh order, so each row holds its entries in the same
    relative column order as an assembly numbered over the whole mesh,
    sums its duplicates in the same order and matches that block bit for
    bit.
    """
    used = np.zeros(len(vertices), dtype=bool)
    used[triangles] = used[rows] = used[cols] = True
    ids = np.flatnonzero(used)
    # set and read only at ``ids``: a cumsum over every vertex cost more
    number = np.empty(len(vertices), dtype=np.int64)
    number[ids] = np.arange(len(ids))
    eye = np.broadcast_to(np.eye(2), (len(triangles), 2, 2))
    return assemble(vertices[ids], number[triangles], eye)[number[rows]][:, number[cols]]


def _halo_update(
    vertices: np.ndarray, triangles: np.ndarray, order: np.ndarray, n_inner: int
) -> np.ndarray:
    """-K_BC K_CC^-1 K_CB, dense, for the background stiffness K over
    ``triangles`` on the vertices ``order``: C is the first ``n_inner`` of
    them and B, the halo, the rest.

    ``triangles`` must hold every triangle that touches C or B, so that K
    on C and B is the whole-mesh block.  One factor of it, in ``order``
    (SuperLU, natural column order, diagonal pivots), has the trailing
    block L_BB U_BB = K_BB - K_BC K_CC^-1 K_CB.  Raises SolveError if the
    factor moves B off the end or misses RESIDUAL_TOL on one column; the
    factor and its copies are freed on return.
    """
    m = _background(vertices, triangles, order, order).tocsc()
    lu = _factorize("exterior", m, permc_spec="NATURAL", diag_pivot_thresh=0.0)
    tail = np.arange(n_inner, len(order))
    if not (np.array_equal(lu.perm_r[tail], tail) and np.array_equal(lu.perm_c[tail], tail)):
        raise SolveError("the exterior factorization moved the halo off the end")
    ones = np.ones(len(order))
    rel = float(_relative_residual(m, lu.solve(ones), ones))
    if not rel <= RESIDUAL_TOL:
        raise SolveError(
            f"exterior factor residual {rel:.3e} exceeds {RESIDUAL_TOL:.0e}", residual=rel
        )
    # reading lu.L or lu.U copies both whole factors, cached until lu goes;
    # the product goes through SciPy's BLAS, not numpy's, whose separate
    # OpenBLAS threads were seen to stall the LAPACK calls of the merge
    n = n_inner
    low, up = lu.L[n:, n:].toarray(order="F"), lu.U[n:, n:].toarray(order="F")
    return blas.dtrmm(1.0, low, up, lower=1, overwrite_b=1) - m[n:, n:].toarray()


def _eliminate(front: np.ndarray, k: int) -> np.ndarray:
    """F22 - F21 F11^-1 F12 for a dense symmetric front F whose first ``k``
    unknowns are eliminated, read from the lower triangle of F and written
    to the lower triangle of the result alone; with k = 0 that is F
    itself.  Raises SolveError if F11 is not positive definite."""
    try:
        low = sla.cho_factor(front[:k, :k], lower=True, check_finite=False)[0]
    except np.linalg.LinAlgError as exc:
        raise SolveError(f"interface factorization failed: {exc}") from exc
    if k == len(front):  # dsyrk refuses an empty trailing block
        return np.zeros((0, 0))
    # X = F21 L^-T, then F22 - X X^T on the lower triangle
    x = blas.dtrsm(1.0, low, front[k:, :k], side=1, lower=1, trans_a=1)
    return blas.dsyrk(-1.0, x, beta=1.0, c=front[k:, k:], lower=1, overwrite_c=1)


def _merge(k_g: sp.csr_matrix, a: int, b: int, children) -> tuple[np.ndarray, np.ndarray]:
    """Eliminate the separator of one quadtree cell, the interface
    positions a to b - 1, whose rows of K0 are rows a to b - 1 of ``k_g``.

    ``children`` holds the pending updates (positions, dense matrix) of the
    parts and cells within the cell, summed in the order given.  Positions
    below a belong to cells merged before, so the front is a to b - 1, then
    the children's positions and the separator's other K0 columns from b
    on, all sorted.  Returns the front past the separator and the update on
    it; with a == b nothing is eliminated, and the update is the sum.
    Positions stay sorted from child to parent, so a lower triangle stays
    lower, and only lower triangles are read.
    """
    rows = k_g[a:b].tocoo()
    live = rows.col >= a
    cols, vals = rows.col[live], rows.data[live]
    front = np.unique(np.concatenate([np.arange(a, b), cols] + [at for at, _ in children]))
    n = len(front)
    dense = np.zeros((n, n), order="F")
    # a view, since dense is in column order: entry (i, j) is flat[i + n j]
    flat = dense.ravel(order="F")
    for at, update in children:
        ix = np.searchsorted(front, at)
        flat[ix + n * ix[:, None]] += update.T
    # the separator leads the front, so a row of K0 goes into the lower
    # triangle as a column
    flat[np.searchsorted(front, cols) + n * rows.row[live]] += vals
    return front[b - a :], _eliminate(dense, b - a)


class CondensedSystem:
    """Interior problem K_II w = r for right-hand sides r that vanish off a
    set S of interior vertices, solved for w on S alone.

    ``nodes`` lists S, sorted, and ``block`` is K_SS, the stiffness block
    on S.  Off S the coefficient is the real identity background, so the
    exterior unknowns E (interior vertices not in S) couple to S only
    through the halo H, the nodes of triangles with a vertex in E, and only
    through real entries.  Eliminating E leaves

        (K_SS - K_SE K_EE^-1 K_ES) w_S = r_S,

    whose update is real, lives on H x H and depends on the mesh and S
    alone.  It is built from the float64 background stiffness K0 part by
    part, so that no whole-mesh K0, no whole exterior factor and no dense
    block on the whole interface is held:

    1. E is ordered by the quadtree nested dissection of ``_quadtree`` (it
       fills less than SuperLU's default COLAMD) on the triangles' edges,
       numbered in int32 and fed one corner slot at a time, so no
       (3 nt, 2) edge array is built.
       ``_parts`` splits it at the top levels of that quadtree into parts
       of at most MAX_PART_VERTICES vertices and the interface G of the
       separators of the cells above them; a smaller E is one part and G
       is empty.
    2. In dissection order each part is one run, and so is each cell's
       separator; the runs come in post-order, deepest cell first, and
       are walked once with one stack of pending updates.
    3. The fronts number G, in dissection order, then S, in ``nodes``
       order; they reach S only on H, whose S positions keep the order of
       its ids.  A part C, with its halo B_C (the vertices of G and S on
       triangles that touch C), is assembled from the triangles that touch
       C or B_C and factorized alone with B_C last (``_halo_update``); its
       dense update -K_BC K_CC^-1 K_CB is pushed, and the factor is
       checked and freed before the next run.  A separator pops the
       updates from within its cell, adds K0's rows on it (kept sparse,
       from the triangles that touch G) into a dense front, eliminates
       itself with one Cholesky factor (``_merge``) and pushes the update
       on the rest of the front.  A root front with no separator sums what
       is left (``_merge``): it holds exactly H, at S positions past G.

    With one part there is no cell to merge, and the update is the
    trailing block of one factor of K0 on E and H, less K0_HH.  The complex
    |S| matrix ``schur`` is factorized once, in minimum-degree order on its
    symmetric pattern (it fills less than SuperLU's default COLAMD), and
    serves every solve.
    """

    def __init__(self, mesh: Mesh, nodes: np.ndarray, block: sp.spmatrix):
        triangles = mesh.triangles
        interior = mesh.interior_vertices()
        exterior = interior[~np.isin(interior, nodes)]
        local = np.full(mesh.num_vertices, -1, dtype=np.int32)
        local[exterior] = np.arange(len(exterior))
        corners = local[triangles]
        # the triangles' sides, one corner slot at a time
        sides = ((corners[:, k], corners[:, k - 1]) for k in range(3))
        key, level, order = _quadtree(mesh.vertices[exterior], sides)
        del corners
        part = _parts(key, level)[order]
        key, level, exterior = key[order], level[order], exterior[order]
        # in dissection order each part is one run, and so is each cell's
        # separator in the interface G (part -1), told apart by the cell's
        # last key and level; the runs come in post-order
        on_g = part < 0
        cell = np.where(on_g, key | ((1 << level) - 1), part)
        starts = np.flatnonzero(np.diff(cell, prepend=-1) | np.diff(level * on_g, prepend=-1))
        del cell
        # the vertices of the fronts, G and then S (reached on H alone)
        interface = exterior[on_g]
        shared = np.concatenate([interface, nodes])
        slot = np.full(mesh.num_vertices, -1)
        slot[shared] = np.arange(len(shared))
        # which triangles touch each vertex
        incidence = sp.csr_matrix(
            (np.ones(triangles.size, dtype=bool), (triangles.ravel(), np.arange(triangles.size) // 3)),
            shape=(mesh.num_vertices, len(triangles)),
        )
        # K0's rows on G, assembled only if G is not empty
        near = triangles[_touching(incidence, interface)]
        k_g = sp.csr_matrix((0, len(shared)))
        if len(interface):
            k_g = _background(mesh.vertices, near, interface, shared)
        # updates not merged yet: a key within the part or cell they come
        # from, their positions in shared and the dense matrix
        pending = []
        merged = 0  # G's vertices eliminated so far
        for a, b in zip(starts, np.append(starts[1:], len(exterior))):
            if on_g[a]:
                children = []
                while pending and pending[-1][0] >> level[a] == key[a] >> level[a]:
                    children.append(pending.pop()[1:])
                pending.append((key[a], *_merge(k_g, merged, merged + b - a, children)))
                merged += b - a
            else:
                # a part C and its halo B_C, the vertices of G and H on the
                # triangles that touch C
                inner = exterior[a:b]
                border = np.unique(slot[triangles[_touching(incidence, inner)]])
                border = border[border >= 0]
                chain = np.concatenate([inner, shared[border]])
                near = triangles[_touching(incidence, chain)]
                pending.append((key[a], border, _halo_update(mesh.vertices, near, chain, b - a)))
        del incidence, slot
        # with G merged, what is left lives on H: the root front sums it
        front, update = _merge(k_g, merged, merged, [entry[1:] for entry in pending])
        update = np.tril(update) + np.tril(update, -1).T
        rows, cols = np.meshgrid(front - merged, front - merged, indexing="ij")
        self.schur = (
            block + sp.csr_matrix((update.ravel(), (rows.ravel(), cols.ravel())), shape=block.shape)
        ).tocsc()
        self._lu = _factorize("inclusion", self.schur, permc_spec="MMD_AT_PLUS_A")

    def solve(self, rhs: np.ndarray) -> np.ndarray:
        """w on S, rows in ``nodes`` order, for right-hand sides given on S
        (a vector or a batch of columns), under the residual contract."""
        return _checked_solve(self._lu, self.schur, rhs)[0]


class DirichletSystem:
    """Assembled and factorized Dirichlet problem for one coefficient field.

    ``coeff`` holds one complex 2x2 matrix per triangle, shape (nt, 2, 2).
    The whole interior is factorized once, and every solve passes through
    the same residual check, so a solve returns values alone.  The
    pipeline does not use it; the tests compare against it.
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

    def solve_dirichlet(self, f: np.ndarray) -> np.ndarray:
        """Nodal values u on every vertex for the Dirichlet trace ``f``, in
        boundary order; u equals f on the boundary exactly."""
        f = np.asarray(f, dtype=complex)
        if f.shape != (len(self.boundary),):
            raise InvalidParameterError(
                f"trace has shape {f.shape}, boundary has {len(self.boundary)} values"
            )
        u = np.zeros(self.mesh.num_vertices, dtype=complex)
        u[self.interior] = self.solve_interior(-(self.K_ib @ f))[0]
        u[self.boundary] = f
        return u


def dtn_pairing(
    system: DirichletSystem, f: np.ndarray, g: np.ndarray, extension: np.ndarray | None = None
) -> complex:
    """Weak Neumann pairing <Lambda f, g> = v^T K u, u the solution for the
    trace f and v an extension of g.

    By default v is the nodal zero-extension of g; any other discrete
    extension gives the same value up to the interior residual.
    """
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
    return complex(np.dot(v, system.K @ system.solve_dirichlet(f)))


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
    u_a = sys_a.solve_dirichlet(f)
    v_g = sys_b.solve_dirichlet(g)
    delta_k = (sys_a.K - sys_b.K).tocsr()
    return complex(np.dot(v_g, delta_k @ u_a))

