import hashlib
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


# sha256 of the int64 bytes of (triangles, boundary_vertices), recorded with
# the per-element meshers; vertex coordinates come from libm's cos/sin, so
# only the integer arrays are pinned
CONNECTIVITY_DIGESTS = [
    (UnitDisk(), 0.5,
     "7ada7676903a1f8f484c09d46d59a59c58acdac7e85f6a21356b85e33654f8b3",
     "a757d3736ffb9e9e69ca6a52b77a651dc26b89854a18f5642b2f6818af32f62b"),
    (UnitDisk(), 0.23,
     "15e35e6dd6488b9af8d56d971b864550ef4363a293043c177649d0748059a89e",
     "4d103433598619c7ec6a7fbaa853664a1b0681dbc9b10190d83903691ab3dc08"),
    (UnitDisk(), 0.1,
     "d91eef2e164aff8fda3d99aff0ad772a6c26aea20f58ec867fd8dfcd57dae678",
     "b500c8b6bacc10e169fb01a8720f116d3108f74af5beaf58aa7f0edfd5084589"),
    (UnitDisk(), 0.04,
     "634134bf367ab7db5cffe251a1f1319fe6fe1207eb721752c945dd5d4d832105",
     "b1f3e53d9118b76f4673bac049d4f39dcabda95ce10c4edb779cc98560e7e1ca"),
    (UnitDisk(), 0.01,
     "becbf3858e5f7f92b08561d2d2d8c4fa9cc4394d13ff63a7c19f251817335ed9",
     "041d0945606d3b74ad3dd12242d305b636e7763b611d407d502e23b9a7a2da42"),
    (UNIT_SQUARE, 0.5,
     "1f132e57efd1fd243839d89971ae31556686dc8a34ce506fe1bcfa7d04cebd72",
     "80425c85f16cf4a3336ec4ff857c16c6d0a454b0a05ac4f5877343b13a5a0bcf"),
    (UNIT_SQUARE, 0.2,
     "e4e376d344be2bde2d303979a7c66d51dd9184ad6e11b807972351d7e14e8bf6",
     "3b9fca16d2d7e048d2994d7bf102c7431ea41484c978186c532051eefe6143f2"),
    (Rectangle(-1.0, 2.0, 0.5, 1.5), 0.3,
     "8d8834f78d3552d83bf625c28616ace5dec7e25370dc56791b40106025e72d47",
     "ad43386d5083b9b938b845604d542e268fe55d40c7dfe3361a7dd910d0ff6977"),
    (Rectangle(0.0, 1.0, 0.0, 0.05), 0.4,
     "99e9e66f9f61c4d3cb3c9b4f983ed205f8da499cef8ced9f51b79cb8900781c4",
     "db2fbf9dbeb14696978d10fa9fc3a45bd3ba83bbe2d541953c62cb6464495ab3"),
    (Rectangle(0.0, 2.5, 0.0, 1.6), 0.03,
     "cc2ddf0ea68c4716c53e30aefbfc66b8e0da888e96f8d0a50d8425b2cab38289",
     "087e437779a3a3f2488489f51df0314d8709620881c9dcea1f3845f8a0357794"),
]


@pytest.mark.parametrize(
    "domain, target_h, triangles_sha, boundary_sha",
    CONNECTIVITY_DIGESTS,
    ids=[f"{type(d).__name__}-{h}" for d, h, _, _ in CONNECTIVITY_DIGESTS],
)
def test_connectivity_is_pinned(domain, target_h, triangles_sha, boundary_sha):
    mesh = generate_mesh(domain, target_h)
    assert mesh.triangles.dtype == mesh.boundary_vertices.dtype == np.int64
    assert hashlib.sha256(mesh.triangles.tobytes()).hexdigest() == triangles_sha
    assert hashlib.sha256(mesh.boundary_vertices.tobytes()).hexdigest() == boundary_sha


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


def unit_square_parts():
    # two CCW triangles on the corners (0,0), (1,0), (0,1), (1,1)
    return dict(
        vertices=np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [1.0, 1.0]]),
        triangles=np.array([[0, 1, 3], [0, 3, 2]]),
        boundary_vertices=np.array([0, 1, 3, 2]),
    )


MALFORMED_PARTS = {
    "triangle-index-negative": ("triangles", np.array([[0, 1, 3], [0, 3, -2]])),
    "triangle-index-past-end": ("triangles", np.array([[0, 1, 3], [0, 3, 4]])),
    "triangles-float": ("triangles", np.array([[0.0, 1.0, 3.0], [0.0, 3.0, 2.0]])),
    "triangles-list": ("triangles", [[0, 1, 3], [0, 3, 2]]),
    "triangles-four-columns": ("triangles", np.array([[0, 1, 3, 2]])),
    "boundary-index-past-end": ("boundary_vertices", np.array([0, 1, 3, 4])),
    "boundary-index-negative": ("boundary_vertices", np.array([0, 1, 3, -1])),
    "boundary-repeated": ("boundary_vertices", np.array([0, 1, 3, 3])),
    "boundary-two-dimensional": ("boundary_vertices", np.array([[0, 1], [3, 2]])),
    "boundary-float": ("boundary_vertices", np.array([0.0, 1.0, 3.0, 2.0])),
    "vertex-nan": ("vertices", np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [np.nan, 1.0]])),
    "vertex-inf": ("vertices", np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [1.0, np.inf]])),
    "vertices-integer": ("vertices", np.array([[0, 0], [1, 0], [0, 1], [1, 1]])),
    "vertices-three-columns": (
        "vertices", np.array([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [1.0, 1.0, 0.0]])
    ),
}


@pytest.mark.parametrize("name", MALFORMED_PARTS)
def test_malformed_hand_built_mesh_rejected(name):
    assert Mesh(**unit_square_parts(), domain=UNIT_SQUARE).h_max == math.sqrt(2.0)
    field, value = MALFORMED_PARTS[name]
    parts = unit_square_parts() | {field: value}
    with pytest.raises(MeshError):
        Mesh(**parts, domain=UNIT_SQUARE)


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
        # 2000 x 2000 cells, refused by the rectangle's own triangle budget
        (lambda: generate_mesh(UNIT_SQUARE, 1e-3), ResourceLimitError),
    ],
    ids=[
        "disk-radius-inf",
        "ellipse-semi-axis-inf",
        "rectangle-bound-inf",
        "disk-target-h-1e-310",
        "square-target-h-1e-310",
        "rectangle-width-1e308",
        "square-target-h-5e-324",
        "square-target-h-1e-3",
    ],
)
def test_rejects_infinite_size_and_overflowing_count(build, error):
    with pytest.raises(error):
        build()
