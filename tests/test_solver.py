import math

import numpy as np
import pytest

from enclosure_kit.errors import InvalidParameterError, MeshError, SolveError
from enclosure_kit.geometry import Disk, Rectangle, UnitDisk
from enclosure_kit.materials import Inclusion, MaterialScene, SymMat2, reduce_scene
from enclosure_kit.meshing import Mesh, generate_mesh
from enclosure_kit.solver import (
    DirichletSystem,
    assemble,
    difference_pairing,
    dtn_pairing,
    identity_field,
    reduced_field,
    scene_field,
)
from error_norms import p1_h1_seminorm_error, p1_l2_error

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
        k = assemble_on(square_mesh, identity_field(square_mesh))
        assert np.max(np.abs(k.data.imag)) == 0.0

    def test_scalar_factor(self, square_mesh):
        k1 = assemble_on(square_mesh, identity_field(square_mesh))
        kc = assemble_on(square_mesh, constant_field(square_mesh, 1.0 - 1.0j))
        diff = kc - (1.0 - 1.0j) * k1
        assert np.max(np.abs(diff.data)) < 1e-14 if diff.nnz else True

    def test_row_sums_vanish(self, square_mesh):
        k = assemble_on(square_mesh, constant_field(square_mesh, 2.0 + 0.5j))
        row_sums = np.asarray(k.sum(axis=1)).ravel()
        assert np.max(np.abs(row_sums)) < 1e-13

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


class TestDirichletSolve:
    def test_constants_in_kernel(self, square_mesh):
        system = DirichletSystem(square_mesh, identity_field(square_mesh))
        f = np.ones(len(square_mesh.boundary_vertices), dtype=complex)
        sol = system.solve_dirichlet(f)
        assert np.max(np.abs(sol.u - 1.0)) < 1e-12

    def test_p1_patch_test(self, square_mesh):
        system = DirichletSystem(square_mesh, identity_field(square_mesh))
        sol = system.solve_dirichlet(boundary_coordinate(square_mesh))
        assert np.max(np.abs(sol.u - square_mesh.vertices[:, 0])) < 1e-12
        assert sol.residual_norm <= 1e-10

    def test_boundary_trace_exact(self, square_mesh):
        system = DirichletSystem(square_mesh, identity_field(square_mesh))
        rng = np.random.default_rng(1)
        f = rng.normal(size=len(square_mesh.boundary_vertices)) + 1j * rng.normal(
            size=len(square_mesh.boundary_vertices)
        )
        sol = system.solve_dirichlet(f)
        assert np.array_equal(sol.u[square_mesh.boundary_vertices], f)

    def test_manufactured_convergence_order(self):
        exact = lambda p: np.exp(p[:, 0]) * np.cos(p[:, 1])
        grad = lambda p: np.column_stack(
            [np.exp(p[:, 0]) * np.cos(p[:, 1]), -np.exp(p[:, 0]) * np.sin(p[:, 1])]
        )
        targets = (0.2, 0.1, 0.05)
        errs = []
        for target in targets:
            mesh = generate_mesh(UNIT_SQUARE, target)
            system = DirichletSystem(mesh, identity_field(mesh))
            sol = system.solve_dirichlet(
                exact(mesh.vertices[mesh.boundary_vertices]).astype(complex)
            )
            errs.append(
                (p1_l2_error(mesh, sol.u, exact), p1_h1_seminorm_error(mesh, sol.u, grad))
            )
        l2 = [e[0] for e in errs]
        h1 = [e[1] for e in errs]
        assert np.polyfit(np.log(targets), np.log(l2), 1)[0] >= 1.8
        assert np.polyfit(np.log(targets), np.log(h1), 1)[0] >= 0.9

    def test_singular_coefficient_raises(self, square_mesh):
        zero = np.zeros((square_mesh.num_triangles, 2, 2), dtype=complex)
        with pytest.raises(SolveError):
            DirichletSystem(square_mesh, zero)

    def test_solve_interior(self, square_mesh):
        system = DirichletSystem(square_mesh, identity_field(square_mesh))
        rng = np.random.default_rng(8)
        rhs = np.zeros(square_mesh.num_vertices, dtype=complex)
        rhs[square_mesh.interior_vertices()] = rng.normal(
            size=len(square_mesh.interior_vertices())
        )
        x = system.solve_interior(rhs)
        assert np.max(np.abs(x[square_mesh.boundary_vertices])) == 0.0
        res = (system.K_ii @ x[square_mesh.interior_vertices()]) - rhs[
            square_mesh.interior_vertices()
        ]
        assert np.linalg.norm(res) / np.linalg.norm(rhs) < 1e-10

    def test_huge_right_hand_side(self, square_mesh):
        # entries near 1e200 square to infinity in a naive residual norm
        system = DirichletSystem(square_mesh, identity_field(square_mesh))
        rhs = np.zeros(square_mesh.num_vertices, dtype=complex)
        rhs[square_mesh.interior_vertices()] = 1.0
        x = system.solve_interior(1e200 * rhs)
        assert np.all(np.isfinite(x))
        assert np.allclose(x / 1e200, system.solve_interior(rhs), rtol=1e-12, atol=0.0)

    def test_mesh_without_interior_vertices(self):
        # the eliminated system is 0 x 0; its residual is that of no entries
        mesh = Mesh(
            vertices=np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]]),
            triangles=np.array([[0, 1, 2]]),
            boundary_vertices=np.arange(3),
            domain=UNIT_SQUARE,
        )
        sol = DirichletSystem(mesh, identity_field(mesh)).solve_dirichlet(
            np.array([1.0, 2.0, 3.0], dtype=complex)
        )
        assert np.array_equal(sol.u, [1.0, 2.0, 3.0]) and sol.residual_norm == 0.0

    def test_nan_right_hand_side_raises(self, square_mesh):
        # a NaN residual must fail the contract, not compare as within it
        system = DirichletSystem(square_mesh, identity_field(square_mesh))
        rhs = np.zeros(square_mesh.num_vertices, dtype=complex)
        rhs[square_mesh.interior_vertices()[0]] = np.nan
        with pytest.raises(SolveError):
            system.solve_interior(rhs)


class TestDtnPairing:
    def test_constant_data_gives_zero(self, square_mesh):
        system = DirichletSystem(square_mesh, identity_field(square_mesh))
        f = np.ones(len(square_mesh.boundary_vertices), dtype=complex)
        sol = system.solve_dirichlet(f)
        assert abs(dtn_pairing(system, sol, f)) < 1e-12

    def test_linear_data_gives_scaled_area(self, square_mesh):
        c = 2.0 - 0.5j
        system = DirichletSystem(square_mesh, constant_field(square_mesh, c))
        f = boundary_coordinate(square_mesh)
        sol = system.solve_dirichlet(f)
        area = float(np.sum(square_mesh.triangle_areas()))
        assert dtn_pairing(system, sol, f) == pytest.approx(c * area, abs=1e-12)

    def test_extension_independence(self, square_mesh):
        system = DirichletSystem(square_mesh, identity_field(square_mesh))
        f = boundary_coordinate(square_mesh)
        g = boundary_coordinate(square_mesh, axis=1)
        sol = system.solve_dirichlet(f)
        base = dtn_pairing(system, sol, g)
        rng = np.random.default_rng(3)
        ext = np.zeros(square_mesh.num_vertices, dtype=complex)
        ext[square_mesh.boundary_vertices] = g
        ext[square_mesh.interior_vertices()] = rng.normal(
            size=len(square_mesh.interior_vertices())
        )
        other = dtn_pairing(system, sol, g, extension=ext)
        assert abs(base - other) < 1e-12

    def test_pairing_symmetry_complex_coefficients(self, inclusion_scene):
        mesh = generate_mesh(UnitDisk(), 0.1)
        system = DirichletSystem(
            mesh, reduced_field(mesh, reduce_scene(inclusion_scene))
        )
        f = boundary_coordinate(mesh)
        g = (mesh.vertices[mesh.boundary_vertices][:, 1] ** 2 + 0.3j).astype(complex)
        pair_fg = dtn_pairing(system, system.solve_dirichlet(f), g)
        pair_gf = dtn_pairing(system, system.solve_dirichlet(g), f)
        assert abs(pair_fg - pair_gf) < 1e-10

    def test_wrong_mesh_rejected(self, square_mesh):
        other = generate_mesh(UNIT_SQUARE, 0.2)
        sys_a = DirichletSystem(square_mesh, identity_field(square_mesh))
        sys_b = DirichletSystem(other, identity_field(other))
        sol = sys_b.solve_dirichlet(boundary_coordinate(other))
        with pytest.raises(InvalidParameterError):
            dtn_pairing(sys_a, sol, boundary_coordinate(square_mesh))


class TestDifferencePairing:
    def test_no_inclusion_vanishes(self):
        mesh = generate_mesh(UnitDisk(), 0.2)
        empty = MaterialScene(sigma0=1.0, eps0=1.0, omega=1.0)
        sys_red = DirichletSystem(mesh, reduced_field(mesh, reduce_scene(empty)))
        sys_bg = DirichletSystem(mesh, identity_field(mesh))
        f = boundary_coordinate(mesh)
        assert abs(difference_pairing(sys_red, sys_bg, f, f)) < 1e-12

    def test_conductive_inclusion_positive_real_part(self, inclusion_scene):
        values = []
        red = reduce_scene(inclusion_scene)
        for target in (0.1, 0.05):
            mesh = generate_mesh(UnitDisk(), target)
            sys_red = DirichletSystem(mesh, reduced_field(mesh, red))
            sys_bg = DirichletSystem(mesh, identity_field(mesh))
            f = boundary_coordinate(mesh)
            values.append(difference_pairing(sys_red, sys_bg, f, f))
        assert all(v.real > 0 for v in values)
        # sign and magnitude stable under refinement
        assert values[0].real == pytest.approx(values[1].real, rel=0.2)

    def test_linearity_in_dirichlet_data(self, inclusion_scene):
        mesh = generate_mesh(UnitDisk(), 0.15)
        red = reduce_scene(inclusion_scene)
        sys_a = DirichletSystem(mesh, reduced_field(mesh, red))
        sys_b = DirichletSystem(mesh, identity_field(mesh))
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
            sol_orig = sys_orig.solve_dirichlet(f)
            sol_red = sys_red.solve_dirichlet(f)
            p_orig = dtn_pairing(sys_orig, sol_orig, g)
            p_red = dtn_pairing(sys_red, sol_red, g)
            assert abs(p_orig - c0 * p_red) <= 1e-10 * abs(p_orig)

