import math

import numpy as np
import pytest

from enclosure_kit import cli
from enclosure_kit.errors import InvalidParameterError, MeshError, ResourceLimitError
from enclosure_kit.geometry import AxisEllipse, Disk, Rectangle, UnitDisk
from enclosure_kit.materials import MaterialScene
from enclosure_kit.meshing import Mesh, generate_mesh, min_angle_deg

UNIT_SQUARE = Rectangle(0.0, 1.0, 0.0, 1.0)


def unique_edge_count(mesh):
    edges = set()
    for t in mesh.triangles:
        for a, b in ((t[0], t[1]), (t[1], t[2]), (t[2], t[0])):
            edges.add((min(a, b), max(a, b)))
    return len(edges)


class TestRectangleMesh:
    def test_unit_square_half_target_counts(self):
        mesh = generate_mesh(UNIT_SQUARE, 0.5)
        assert mesh.num_vertices == 25
        assert mesh.num_triangles == 32
        assert mesh.h_max <= 1.5 * 0.5

    def test_euler_relation(self):
        mesh = generate_mesh(UNIT_SQUARE, 0.5)
        assert mesh.num_vertices - unique_edge_count(mesh) + mesh.num_triangles == 1

    def test_right_isoceles_angles(self):
        assert min_angle_deg(generate_mesh(UNIT_SQUARE, 0.2)) == pytest.approx(45.0, abs=1e-9)

    def test_positive_areas(self):
        mesh = generate_mesh(Rectangle(-1.0, 2.0, 0.5, 1.5), 0.3)
        assert np.min(mesh.triangle_areas()) > 0.0

    def test_thin_rectangle_aspect_capped(self):
        assert min_angle_deg(generate_mesh(Rectangle(0.0, 1.0, 0.0, 0.05), 0.4)) >= 20.0

    def test_boundary_loop(self):
        # consecutive boundary vertices, wrapping around, are mesh edges
        for domain in (UNIT_SQUARE, UnitDisk()):
            mesh = generate_mesh(domain, 0.5)
            edges = {
                frozenset(e)
                for t in mesh.triangles.tolist()
                for e in ((t[0], t[1]), (t[1], t[2]), (t[2], t[0]))
            }
            loop = mesh.boundary_vertices.tolist()
            assert all(
                frozenset((a, b)) in edges for a, b in zip(loop, loop[1:] + loop[:1])
            )
        square = generate_mesh(UNIT_SQUARE, 0.5)
        for x, y in square.vertices[square.boundary_vertices]:
            assert min(x, 1 - x, y, 1 - y) < 1e-14


class TestUnitDiskMesh:
    def test_boundary_on_circle(self):
        mesh = generate_mesh(UnitDisk(), 0.5)
        radii = np.hypot(*mesh.vertices[mesh.boundary_vertices].T)
        assert np.max(np.abs(radii - 1.0)) <= 1e-12

    def test_positive_areas_and_euler(self):
        mesh = generate_mesh(UnitDisk(), 0.12)
        assert np.min(mesh.triangle_areas()) > 0.0
        assert mesh.num_vertices - unique_edge_count(mesh) + mesh.num_triangles == 1

    def test_h_max_bound(self):
        for target in (0.3, 0.1, 0.05):
            mesh = generate_mesh(UnitDisk(), target)
            assert mesh.h_max <= 1.5 * target


class TestDeterminismAndRefinement:
    @pytest.mark.parametrize("domain", [UNIT_SQUARE, UnitDisk()])
    def test_bit_identical(self, domain):
        m1 = generate_mesh(domain, 0.23)
        m2 = generate_mesh(domain, 0.23)
        assert np.array_equal(m1.vertices, m2.vertices)
        assert np.array_equal(m1.triangles, m2.triangles)
        assert np.array_equal(m1.boundary_vertices, m2.boundary_vertices)

    @pytest.mark.parametrize("domain", [UNIT_SQUARE, UnitDisk()])
    def test_refinement(self, domain):
        coarse = generate_mesh(domain, 0.2)
        fine = generate_mesh(domain, 0.1)
        assert fine.h_max <= 1.2 * coarse.h_max / 2.0
        ratio = fine.num_triangles / coarse.num_triangles
        assert 2.0 <= ratio <= 8.0

    @pytest.mark.parametrize("domain", [UNIT_SQUARE, UnitDisk()])
    def test_min_angle_floor(self, domain):
        for target in (0.3, 0.1, 0.04):
            assert min_angle_deg(generate_mesh(domain, target)) >= 20.0


class TestStatsAndErrors:
    def test_rejects_nonpositive_target(self):
        with pytest.raises(InvalidParameterError):
            generate_mesh(UNIT_SQUARE, 0.0)

    def test_rejects_too_coarse(self):
        with pytest.raises(InvalidParameterError):
            generate_mesh(UNIT_SQUARE, 1.0)

    def test_resource_limit(self):
        with pytest.raises(ResourceLimitError):
            generate_mesh(UnitDisk(), 0.0005)

    def test_empty_mesh_rejected(self):
        with pytest.raises(MeshError):
            Mesh(
                vertices=np.zeros((3, 2)),
                triangles=np.empty((0, 3), dtype=np.int64),
                boundary_vertices=np.arange(3),
                domain=UnitDisk(),
            )

    def test_hand_built_mesh_reports_longest_edge(self):
        mesh = Mesh(
            vertices=np.array([[0.0, 0.0], [3.0, 0.0], [0.0, 4.0]]),
            triangles=np.array([[0, 1, 2]]),
            boundary_vertices=np.arange(3),
            domain=UnitDisk(),
        )
        assert mesh.h_max == 5.0

    def test_misoriented_triangle_rejected(self):
        with pytest.raises(MeshError):
            Mesh(
                vertices=np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]]),
                triangles=np.array([[0, 2, 1]]),
                boundary_vertices=np.arange(3),
                domain=UnitDisk(),
            )


def test_mesh_dump(tmp_path):
    config = cli.ScenarioConfig(
        domain=UNIT_SQUARE,
        scene=MaterialScene(sigma0=1.0, eps0=1.0, omega=1.0, inclusions=()),
        n_directions=1,
        tau_min=1.0,
        tau_max=2.0,
        n_tau=2,
        delta=None,
        target_h=0.5,
        output_dir=None,
    )
    assert cli.cmd_mesh_dump(config, out_dir=str(tmp_path)) == cli.EXIT_OK
    mesh = generate_mesh(UNIT_SQUARE, 0.5)
    vlines = (tmp_path / "vertices.csv").read_text().splitlines()
    tlines = (tmp_path / "triangles.csv").read_text().splitlines()
    assert len(vlines) == mesh.num_vertices + 1
    assert len(tlines) == mesh.num_triangles + 1
    assert vlines[0] == "id,x,y"
    assert tlines[0] == "id,v0,v1,v2"


@pytest.mark.parametrize(
    "build, error",
    [
        (lambda: Disk((0.3, 0.0), math.inf), InvalidParameterError),
        (lambda: AxisEllipse((0.0, 0.0), math.inf, 1.0), InvalidParameterError),
        (lambda: Rectangle(0.0, math.inf, 0.0, 1.0), InvalidParameterError),
        (lambda: generate_mesh(UnitDisk(), 1e-310), ResourceLimitError),
        (lambda: generate_mesh(UNIT_SQUARE, 1e-310), ResourceLimitError),
        (lambda: generate_mesh(Rectangle(0.0, 1e308, 0.0, 1.0), 0.1), ResourceLimitError),
        (lambda: generate_mesh(UNIT_SQUARE, 5e-324), ResourceLimitError),
    ],
    ids=[
        "disk-radius-inf",
        "ellipse-semi-axis-inf",
        "rectangle-bound-inf",
        "disk-target-h-1e-310",
        "square-target-h-1e-310",
        "rectangle-width-1e308",
        "square-target-h-5e-324",
    ],
)
def test_rejects_infinite_size_and_overflowing_count(build, error):
    with pytest.raises(error):
        build()
