import math
import warnings

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from enclosure_kit.errors import InvalidParameterError, MeshError, SolveError
from enclosure_kit.geometry import Disk, Rectangle, UnitDisk
from enclosure_kit.materials import Inclusion, MaterialScene, SymMat2, reduce_scene
from enclosure_kit.meshing import Mesh, generate_mesh
from enclosure_kit.solver import (
    RESIDUAL_TOL,
    DirichletSystem,
    assemble,
    _quadtree,
    _touching,
    difference_pairing,
    dtn_pairing,
    reduced_field,
    scene_field,
)
from conftest import background_field
from error_norms import p1_h1_seminorm_error, p1_l2_error
from scene_factory import ellipse_and_polygon_scene

UNIT_SQUARE = Rectangle(0.0, 1.0, 0.0, 1.0)


def constant_field(mesh, value):
    m = np.broadcast_to(value * np.eye(2), (mesh.num_triangles, 2, 2))
    return m.astype(complex)


def assemble_on(mesh, coeff):
    return assemble(mesh.vertices, mesh.triangles, coeff)


def boundary_coordinate(mesh, axis=0):
    return mesh.vertices[mesh.boundary_vertices][:, axis].astype(complex)


@pytest.fixture(scope="module")
def square_mesh():
    return generate_mesh(UNIT_SQUARE, 0.2)


@pytest.fixture(scope="module")
def inclusion_scene():
    return MaterialScene(
        sigma0=1.0,
        eps0=1.0,
        omega=1.0,
        inclusions=(
            Inclusion(Disk((0.3, 0.0), 0.2), SymMat2.identity(), SymMat2.zero()),
        ),
    )


class TestAssembly:
    def test_identity_coefficient_is_real_laplacian(self, square_mesh):
        k = assemble_on(square_mesh, background_field(square_mesh))
        assert np.max(np.abs(k.data.imag)) == 0.0

    def test_scalar_factor(self, square_mesh):
        k1 = assemble_on(square_mesh, background_field(square_mesh))
        kc = assemble_on(square_mesh, constant_field(square_mesh, 1.0 - 1.0j))
        diff = kc - (1.0 - 1.0j) * k1
        assert np.max(np.abs(diff.data)) < 1e-14 if diff.nnz else True

    def test_row_sums_vanish(self, square_mesh):
        k = assemble_on(square_mesh, constant_field(square_mesh, 2.0 + 0.5j))
        row_sums = np.asarray(k.sum(axis=1)).ravel()
        assert np.max(np.abs(row_sums)) < 1e-13

    def test_real_field_assembles_in_float64(self):
        # equal to the complex assembly's real part up to the order in
        # which SciPy sums a row's duplicates, which depends on the dtype
        mesh = generate_mesh(UnitDisk(), 0.02)
        rng = np.random.default_rng(12)
        spd = rng.normal(size=(mesh.num_triangles, 2, 2))
        spd = spd @ spd.transpose(0, 2, 1) + np.eye(2)
        for field in (background_field(mesh).real, spd):
            k = assemble_on(mesh, field)
            kc = assemble_on(mesh, field.astype(complex))
            assert k.dtype == np.float64
            k.sort_indices()
            kc.sort_indices()
            assert np.array_equal(k.indptr, kc.indptr)
            assert np.array_equal(k.indices, kc.indices)
            row_max = np.repeat(
                np.maximum.reduceat(np.abs(k.data), k.indptr[:-1]), np.diff(k.indptr)
            )
            assert np.all(np.abs(k.data - kc.data.real) <= 8 * np.spacing(row_max))

    def test_complex_local_matrices(self):
        # triangles that share no vertex: the assembled entries are the
        # local matrices, held against the three-operand contraction
        mesh = generate_mesh(UnitDisk(), 0.1)
        p = mesh.vertices[mesh.triangles]
        rng = np.random.default_rng(13)
        coeff = rng.normal(size=(mesh.num_triangles, 2, 2, 2)) @ [1.0, 1.0j]
        coeff = coeff + coeff.transpose(0, 2, 1)
        separate = np.arange(3 * mesh.num_triangles).reshape(-1, 3)
        k = assemble(p.reshape(-1, 2), separate, coeff)
        rows = np.repeat(separate, 3, axis=1)
        cols = np.tile(separate, (1, 3))
        local = np.asarray(k[rows.ravel(), cols.ravel()]).reshape(-1, 3, 3)
        x, y = p[:, :, 0], p[:, :, 1]
        b = np.stack([y[:, 1] - y[:, 2], y[:, 2] - y[:, 0], y[:, 0] - y[:, 1]], axis=1)
        c = np.stack([x[:, 2] - x[:, 1], x[:, 0] - x[:, 2], x[:, 1] - x[:, 0]], axis=1)
        g = np.stack([b, c], axis=2)
        area2 = b[:, 0] * c[:, 1] - b[:, 1] * c[:, 0]
        want = np.einsum("tia,tab,tjb->tij", g, coeff, g) / (2.0 * area2[:, None, None])
        scale = np.max(np.abs(want), axis=(1, 2))
        assert np.max(np.abs(local - want).max(axis=(1, 2)) / scale) <= 1e-15

    def test_mismatched_field(self, square_mesh):
        with pytest.raises(InvalidParameterError):
            assemble_on(square_mesh, np.zeros((3, 2, 2), dtype=complex))

    def test_empty_triangle_set(self):
        # the engine hands an empty set over when the scene has no inclusion
        k = assemble(
            np.empty((0, 2)), np.empty((0, 3), dtype=np.int64), np.empty((0, 2, 2))
        )
        assert k.shape == (0, 0) and k.nnz == 0

    def test_degenerate_triangle_raises(self):
        vertices = np.array([[0.0, 0.0], [1.0, 0.0], [2.0, 0.0]])
        with pytest.raises(MeshError):
            assemble(vertices, np.array([[0, 1, 2]]), np.eye(2)[None].astype(complex))


class TestCoefficientFields:
    def test_real_parts_keep_definiteness(self):
        # original field stays positive semidefinite, reduced field
        # uniformly positive definite, per the material constraints
        rng = np.random.default_rng(31)
        from scene_factory import random_valid_scene

        mesh = generate_mesh(UnitDisk(), 0.15)
        for _ in range(10):
            scene = random_valid_scene(rng)
            orig = scene_field(mesh, scene)
            red = reduced_field(mesh, reduce_scene(scene))
            eig_orig = np.linalg.eigvalsh(orig.real)
            eig_red = np.linalg.eigvalsh(red.real)
            assert np.min(eig_orig) >= -1e-12
            assert np.min(eig_red) > 0.0

    def test_inclusion_sampled_at_centroids(self):
        mesh = generate_mesh(UnitDisk(), 0.1)
        scene = MaterialScene(
            sigma0=1.0,
            eps0=1.0,
            omega=1.0,
            inclusions=(
                Inclusion(Disk((0.3, 0.0), 0.2), SymMat2.identity(), SymMat2.zero()),
            ),
        )
        field = scene_field(mesh, scene)
        inside = scene.inclusions[0].shape.contains_mask(mesh.centroids())
        assert np.allclose(field[inside][:, 0, 0], 2.0 - 1.0j)
        assert np.allclose(field[~inside][:, 0, 0], 1.0 - 1.0j)
        # two shapes in a rectangle: shape k's tensor inside it, the
        # background elsewhere, in both the original and the reduced field
        mesh = generate_mesh(Rectangle(-1.5, 1.5, -1.0, 1.0), 0.1)
        scene = ellipse_and_polygon_scene()
        reduced = reduce_scene(scene)
        masks = [inc.shape.contains_mask(mesh.centroids()) for inc in scene.inclusions]
        assert all(np.any(mask) for mask in masks)
        outside = ~np.logical_or(*masks)
        for field, tensors, background in (
            (
                scene_field(mesh, scene),
                [scene.sigma_on(k).as_array() - 1j * scene.eps_on(k).as_array() for k in (0, 1)],
                (1.0 - 1.0j) * np.eye(2),
            ),
            (
                reduced_field(mesh, reduced),
                [
                    np.eye(2) + inc.a.as_array() - 1j * inc.b.as_array()
                    for inc in reduced.inclusions
                ],
                np.eye(2),
            ),
        ):
            assert field.shape == (mesh.num_triangles, 2, 2)
            for mask, tensor in zip(masks, tensors):
                assert np.array_equal(field[mask], np.broadcast_to(tensor, field[mask].shape))
            assert np.array_equal(field[outside], np.broadcast_to(background, field[outside].shape))


class TestDirichletSolve:
    def test_constants_in_kernel(self, square_mesh):
        system = DirichletSystem(square_mesh, background_field(square_mesh))
        f = np.ones(len(square_mesh.boundary_vertices), dtype=complex)
        assert np.max(np.abs(system.solve_dirichlet(f) - 1.0)) < 1e-12

    def test_p1_patch_test(self, square_mesh):
        system = DirichletSystem(square_mesh, background_field(square_mesh))
        u = system.solve_dirichlet(boundary_coordinate(square_mesh))
        assert np.max(np.abs(u - square_mesh.vertices[:, 0])) < 1e-12

    def test_boundary_trace_exact(self, square_mesh):
        system = DirichletSystem(square_mesh, background_field(square_mesh))
        rng = np.random.default_rng(1)
        f = rng.normal(size=len(square_mesh.boundary_vertices)) + 1j * rng.normal(
            size=len(square_mesh.boundary_vertices)
        )
        u = system.solve_dirichlet(f)
        assert np.array_equal(u[square_mesh.boundary_vertices], f)

    def test_manufactured_convergence_order(self):
        exact = lambda p: np.exp(p[:, 0]) * np.cos(p[:, 1])
        grad = lambda p: np.column_stack(
            [np.exp(p[:, 0]) * np.cos(p[:, 1]), -np.exp(p[:, 0]) * np.sin(p[:, 1])]
        )
        targets = (0.2, 0.1, 0.05)
        errs = []
        for target in targets:
            mesh = generate_mesh(UNIT_SQUARE, target)
            system = DirichletSystem(mesh, background_field(mesh))
            u = system.solve_dirichlet(exact(mesh.vertices[mesh.boundary_vertices]).astype(complex))
            errs.append((p1_l2_error(mesh, u, exact), p1_h1_seminorm_error(mesh, u, grad)))
        l2 = [e[0] for e in errs]
        h1 = [e[1] for e in errs]
        assert np.polyfit(np.log(targets), np.log(l2), 1)[0] >= 1.8
        assert np.polyfit(np.log(targets), np.log(h1), 1)[0] >= 0.9

    def test_singular_coefficient_raises(self, square_mesh):
        zero = np.zeros((square_mesh.num_triangles, 2, 2), dtype=complex)
        with pytest.raises(SolveError):
            DirichletSystem(square_mesh, zero)

    def test_solve_interior(self, square_mesh):
        system = DirichletSystem(square_mesh, background_field(square_mesh))
        rng = np.random.default_rng(8)
        rhs = rng.normal(size=len(square_mesh.interior_vertices())).astype(complex)
        x, rel = system.solve_interior(rhs)
        # interior rows only: the zero boundary values are not stored
        assert x.shape == rhs.shape
        res = system.K_ii @ x - rhs
        assert np.linalg.norm(res) / np.linalg.norm(rhs) < 1e-10
        assert rel <= RESIDUAL_TOL

    def test_solve_interior_refuses_whole_mesh_rows(self, square_mesh):
        # one row per interior vertex; a whole-mesh vector is refused
        system = DirichletSystem(square_mesh, background_field(square_mesh))
        with pytest.raises(InvalidParameterError):
            system.solve_interior(np.ones((square_mesh.num_vertices, 2), dtype=complex))

    def test_huge_right_hand_side(self, square_mesh):
        # entries near 1e200 square to infinity in a naive residual norm
        system = DirichletSystem(square_mesh, background_field(square_mesh))
        rhs = np.ones(len(square_mesh.interior_vertices()), dtype=complex)
        x, _ = system.solve_interior(1e200 * rhs)
        assert np.all(np.isfinite(x))
        assert np.allclose(x / 1e200, system.solve_interior(rhs)[0], rtol=1e-12, atol=0.0)

    def test_mesh_without_interior_vertices(self):
        # the eliminated system is 0 x 0; its residual is that of no entries
        mesh = Mesh(
            vertices=np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]]),
            triangles=np.array([[0, 1, 2]]),
            boundary_vertices=np.arange(3),
            domain=UNIT_SQUARE,
        )
        system = DirichletSystem(mesh, background_field(mesh))
        u = system.solve_dirichlet(np.array([1.0, 2.0, 3.0], dtype=complex))
        assert np.array_equal(u, [1.0, 2.0, 3.0])
        assert system.solve_interior(np.zeros(0, dtype=complex))[1] == 0.0

    def test_nan_right_hand_side_raises(self, square_mesh):
        # a NaN residual must fail the contract, not compare as within it
        system = DirichletSystem(square_mesh, background_field(square_mesh))
        rhs = np.zeros(len(square_mesh.interior_vertices()), dtype=complex)
        rhs[0] = np.nan
        with pytest.raises(SolveError):
            system.solve_interior(rhs)


def interior_graph(domain, target_h, hole):
    """Points and stiffness pattern of a mesh's interior vertices, less
    those inside the reference disk when ``hole`` is set."""
    mesh = generate_mesh(domain, target_h)
    interior = mesh.interior_vertices()
    if hole:
        inside = np.linalg.norm(mesh.vertices[interior] - (0.3, 0.0), axis=1) < 0.2
        interior = interior[~inside]
    k = assemble_on(mesh, background_field(mesh).real).tocsr()
    return mesh.vertices[interior], k[interior][:, interior]


def dissection_order(points, graph):
    """The exterior's quadtree order, with each stored entry of ``graph`` an edge."""
    graph = graph.tocoo()
    return _quadtree(points, [(graph.row, graph.col)])[2]


class TestDissectionOrder:
    def test_stable_permutation_of_the_exterior(self):
        # the exterior of an inclusion footprint, as the condensed system
        # orders it
        points, graph = interior_graph(UnitDisk(), 0.04, hole=True)
        first = dissection_order(points, graph)
        assert np.array_equal(np.sort(first), np.arange(len(points)))
        assert np.array_equal(first, dissection_order(points, graph))

    @pytest.mark.parametrize(
        "points",
        [np.zeros((0, 2)), np.array([[0.3, -0.2]]), np.full((5, 2), 0.25)],
        ids=["empty", "one-vertex", "coincident"],
    )
    def test_degenerate_inputs(self, points):
        # coincident points span no square; a zero span must not divide
        graph = sp.csr_matrix(np.ones((len(points), len(points))))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            order = dissection_order(points, graph)
        assert np.array_equal(np.sort(order), np.arange(len(points)))

    @pytest.mark.parametrize(
        "domain, target_h, hole",
        [
            (UnitDisk(), 0.04, False),
            (UnitDisk(), 0.04, True),
            (UnitDisk(), 0.02, False),
            (UnitDisk(), 0.02, True),
            # a grid: many tied coordinates
            (Rectangle(-1.5, 1.5, -1.0, 1.0), 0.1, False),
            (Rectangle(-1.5, 1.5, -1.0, 1.0), 0.05, False),
            (UNIT_SQUARE, 0.05, False),
        ],
    )
    def test_fill_at_most_colamd(self, domain, target_h, hole):
        # the SPD factor in dissection order, as the condensed system
        # factorizes the exterior, against SuperLU's default column order
        points, graph = interior_graph(domain, target_h, hole)
        order = dissection_order(points, graph)
        lu = spla.splu(graph[order][:, order].tocsc(), permc_spec="NATURAL", diag_pivot_thresh=0.0)
        colamd = spla.splu(graph.tocsc(), permc_spec="COLAMD")
        assert lu.L.nnz + lu.U.nnz <= colamd.L.nnz + colamd.U.nnz

    def test_every_stored_entry_is_an_edge(self):
        # explicit zeros are edges, and an isolated vertex has none
        points, graph = interior_graph(Rectangle(-1.5, 1.5, -1.0, 1.0), 0.1, hole=False)
        graph = graph.copy()
        graph.data[np.random.default_rng(5).random(graph.nnz) < 0.5] = 0.0
        graph = sp.block_diag([graph, sp.csr_matrix((1, 1))], format="csr")
        points = np.vstack([points, [0.05, 0.05]])
        order = dissection_order(points, graph)
        assert np.array_equal(np.sort(order), np.arange(len(points)))
        graph.eliminate_zeros()
        assert not np.array_equal(order, dissection_order(points, graph))


class TestTouching:
    @pytest.mark.parametrize("size", [0, 1, 7, 300])
    def test_matches_the_triangles_holding_a_vertex(self, size):
        # the vertex-by-triangle incidence the condensed system builds
        mesh = generate_mesh(UnitDisk(), 0.1)
        triangles = mesh.triangles
        incidence = sp.csr_matrix(
            (np.ones(triangles.size, dtype=bool), (triangles.ravel(), np.arange(triangles.size) // 3)),
            shape=(mesh.num_vertices, len(triangles)),
        )
        vertices = np.random.default_rng(size).permutation(mesh.num_vertices)[:size]
        expected = np.flatnonzero(np.any(np.isin(triangles, vertices), axis=1))
        assert np.array_equal(_touching(incidence, vertices), expected)


class TestDtnPairing:
    def test_constant_data_gives_zero(self, square_mesh):
        system = DirichletSystem(square_mesh, background_field(square_mesh))
        f = np.ones(len(square_mesh.boundary_vertices), dtype=complex)
        assert abs(dtn_pairing(system, f, f)) < 1e-12

    def test_linear_data_gives_scaled_area(self, square_mesh):
        c = 2.0 - 0.5j
        system = DirichletSystem(square_mesh, constant_field(square_mesh, c))
        f = boundary_coordinate(square_mesh)
        area = float(np.sum(square_mesh.triangle_areas()))
        assert dtn_pairing(system, f, f) == pytest.approx(c * area, abs=1e-12)

    def test_extension_independence(self, square_mesh):
        system = DirichletSystem(square_mesh, background_field(square_mesh))
        f = boundary_coordinate(square_mesh)
        g = boundary_coordinate(square_mesh, axis=1)
        base = dtn_pairing(system, f, g)
        rng = np.random.default_rng(3)
        ext = np.zeros(square_mesh.num_vertices, dtype=complex)
        ext[square_mesh.boundary_vertices] = g
        ext[square_mesh.interior_vertices()] = rng.normal(
            size=len(square_mesh.interior_vertices())
        )
        other = dtn_pairing(system, f, g, extension=ext)
        assert abs(base - other) < 1e-12

    def test_pairing_symmetry_complex_coefficients(self, inclusion_scene):
        mesh = generate_mesh(UnitDisk(), 0.1)
        system = DirichletSystem(
            mesh, reduced_field(mesh, reduce_scene(inclusion_scene))
        )
        f = boundary_coordinate(mesh)
        g = (mesh.vertices[mesh.boundary_vertices][:, 1] ** 2 + 0.3j).astype(complex)
        pair_fg = dtn_pairing(system, f, g)
        pair_gf = dtn_pairing(system, g, f)
        assert abs(pair_fg - pair_gf) < 1e-10


class TestDifferencePairing:
    def test_no_inclusion_vanishes(self):
        mesh = generate_mesh(UnitDisk(), 0.2)
        empty = MaterialScene(sigma0=1.0, eps0=1.0, omega=1.0)
        sys_red = DirichletSystem(mesh, reduced_field(mesh, reduce_scene(empty)))
        sys_bg = DirichletSystem(mesh, background_field(mesh))
        f = boundary_coordinate(mesh)
        assert abs(difference_pairing(sys_red, sys_bg, f, f)) < 1e-12

    def test_conductive_inclusion_positive_real_part(self, inclusion_scene):
        values = []
        red = reduce_scene(inclusion_scene)
        for target in (0.1, 0.05):
            mesh = generate_mesh(UnitDisk(), target)
            sys_red = DirichletSystem(mesh, reduced_field(mesh, red))
            sys_bg = DirichletSystem(mesh, background_field(mesh))
            f = boundary_coordinate(mesh)
            values.append(difference_pairing(sys_red, sys_bg, f, f))
        assert all(v.real > 0 for v in values)
        # sign and magnitude stable under refinement
        assert values[0].real == pytest.approx(values[1].real, rel=0.2)

    def test_linearity_in_dirichlet_data(self, inclusion_scene):
        mesh = generate_mesh(UnitDisk(), 0.15)
        red = reduce_scene(inclusion_scene)
        sys_a = DirichletSystem(mesh, reduced_field(mesh, red))
        sys_b = DirichletSystem(mesh, background_field(mesh))
        f1 = boundary_coordinate(mesh)
        f2 = boundary_coordinate(mesh, axis=1)
        g = (f1 * f2).astype(complex)
        p1 = difference_pairing(sys_a, sys_b, f1, g)
        p2 = difference_pairing(sys_a, sys_b, f2, g)
        p12 = difference_pairing(sys_a, sys_b, f1 + 2.0 * f2, g)
        assert abs(p12 - (p1 + 2.0 * p2)) < 1e-10 * max(1.0, abs(p12))

    def test_scaling_against_reduced_path(self):
        rng = np.random.default_rng(9)
        mesh = generate_mesh(UnitDisk(), 0.15)
        f = boundary_coordinate(mesh)
        g = f
        for _ in range(3):
            sigma0 = rng.uniform(0.5, 2.0)
            eps0 = rng.uniform(0.5, 2.0)
            omega = rng.uniform(0.1, 2.0)
            scene = MaterialScene(
                sigma0=sigma0,
                eps0=eps0,
                omega=omega,
                inclusions=(
                    Inclusion(
                        Disk((0.3, 0.0), 0.2),
                        SymMat2.iso(rng.uniform(0.1, 0.8) * sigma0),
                        SymMat2.iso(rng.uniform(-0.3, 0.5) * eps0),
                    ),
                ),
            )
            c0 = complex(sigma0, -omega * eps0)
            sys_orig = DirichletSystem(mesh, scene_field(mesh, scene))
            sys_red = DirichletSystem(
                mesh, reduced_field(mesh, reduce_scene(scene))
            )
            p_orig = dtn_pairing(sys_orig, f, g)
            p_red = dtn_pairing(sys_red, f, g)
            assert abs(p_orig - c0 * p_red) <= 1e-10 * abs(p_orig)

