import math

import numpy as np
import pytest

from enclosure_kit.errors import (
    DegenerateHullError,
    InvalidDirectionError,
    InvalidParameterError,
)
from enclosure_kit.geometry import (
    AxisEllipse,
    ConvexPolygon,
    DirectionFrame,
    Disk,
    Rectangle,
    UnitDisk,
    hausdorff_support_distance,
    hull_from_support,
    perp,
    require_margin,
    uniform_directions,
)

SQ2 = 1.0 / math.sqrt(2.0)


def brute_force_support(shape, theta, n=100_000):
    """Independent oracle: max of x.theta over dense boundary samples."""
    t = np.asarray(theta)
    ang = 2.0 * math.pi * np.arange(n) / n
    if isinstance(shape, Disk):
        pts = np.asarray(shape.center) + shape.radius * np.column_stack(
            [np.cos(ang), np.sin(ang)]
        )
    elif isinstance(shape, AxisEllipse):
        pts = np.asarray(shape.center) + np.column_stack(
            [shape.semi_a * np.cos(ang), shape.semi_b * np.sin(ang)]
        )
    else:
        verts = shape.vertex_array()
        segs = []
        for i in range(len(verts)):
            a, b = verts[i], verts[(i + 1) % len(verts)]
            lam = np.linspace(0.0, 1.0, n // len(verts))[:, None]
            segs.append(a + lam * (b - a))
        pts = np.vstack(segs)
    return float(np.max(pts @ t))


class TestPerp:
    def test_basis_vectors(self):
        assert np.allclose(perp((1.0, 0.0)), (0.0, 1.0))
        assert np.allclose(perp((0.0, 1.0)), (-1.0, 0.0))

    def test_diagonal(self):
        assert np.allclose(perp((SQ2, SQ2)), (-SQ2, SQ2))

    def test_orthogonality(self):
        for ang in np.linspace(0, 2 * math.pi, 17):
            t = (math.cos(ang), math.sin(ang))
            assert abs(np.dot(perp(t), t)) < 1e-15

    def test_rejects_non_unit(self):
        with pytest.raises(InvalidDirectionError):
            perp((1.0, 1.0))
        with pytest.raises(InvalidDirectionError):
            perp((1.0 + 1e-9, 0.0))


class TestDirectionFrame:
    def test_from_vector_sign_convention(self):
        f = DirectionFrame.from_vector((1.0, 0.0))
        assert f.theta == (1.0, 0.0)
        assert f.theta_perp == (0.0, 1.0)

    def test_rejects_wrong_perp(self):
        with pytest.raises(InvalidDirectionError):
            DirectionFrame(theta=(1.0, 0.0), theta_perp=(0.0, -1.0))

    def test_uniform_directions(self):
        frames = uniform_directions(16)
        assert len(frames) == 16
        for f in frames:
            assert abs(math.hypot(*f.theta) - 1.0) < 1e-14
        assert np.allclose(frames[4].theta, (0.0, 1.0), atol=1e-15)


class TestSupportFunction:
    def test_disk_along_axis(self):
        assert Disk((0.3, 0.0), 0.2).support((1.0, 0.0)) == pytest.approx(0.5)

    def test_square_axis(self):
        square = ConvexPolygon(((0.2, -0.2), (0.2, 0.2), (-0.2, 0.2), (-0.2, -0.2)))
        assert square.support((1.0, 0.0)) == pytest.approx(0.2)

    def test_ellipse_diagonal_closed_form_and_oracle(self):
        shape = AxisEllipse((0.0, 0.0), 0.3, 0.1)
        theta = (SQ2, SQ2)
        value = shape.support(theta)
        assert value == pytest.approx(math.sqrt(0.05), abs=1e-12)
        oracle = brute_force_support(shape, theta, n=1_000_000)
        assert value == pytest.approx(oracle, abs=1e-6)

    def test_brute_force_oracle_random_shapes(self):
        rng = np.random.default_rng(7)
        shapes = [
            Disk((0.1, -0.2), 0.35),
            AxisEllipse((-0.15, 0.1), 0.4, 0.25),
            ConvexPolygon(((0.3, 0.0), (0.1, 0.25), (-0.2, 0.1), (-0.25, -0.2), (0.1, -0.3))),
        ]
        for shape in shapes:
            for _ in range(10):
                ang = rng.uniform(0.0, 2.0 * math.pi)
                theta = (math.cos(ang), math.sin(ang))
                assert shape.support(theta) == pytest.approx(
                    brute_force_support(shape, theta), abs=1e-6
                )

    def test_sublinearity(self):
        shapes = [
            Disk((0.1, 0.1), 0.2),
            AxisEllipse((0.0, -0.1), 0.25, 0.4),
            ConvexPolygon(((0.2, 0.0), (0.0, 0.3), (-0.2, -0.1))),
        ]
        rng = np.random.default_rng(3)
        for shape in shapes:
            for _ in range(25):
                a1, a2 = rng.uniform(0.0, 2.0 * math.pi, size=2)
                t1 = np.array([math.cos(a1), math.sin(a1)])
                t2 = np.array([math.cos(a2), math.sin(a2)])
                s = t1 + t2
                norm = np.hypot(*s)
                if norm < 1e-6:
                    continue
                lhs = norm * shape.support(s / norm)
                rhs = shape.support(t1) + shape.support(t2)
                assert lhs <= rhs + 1e-12


class TestContainment:
    def test_polygon_validation(self):
        with pytest.raises(InvalidParameterError):
            ConvexPolygon(((0.0, 0.0), (1.0, 0.0)))
        with pytest.raises(InvalidParameterError):  # clockwise
            ConvexPolygon(((0.0, 0.0), (0.0, 1.0), (1.0, 0.0)))
        with pytest.raises(InvalidParameterError):  # collinear
            ConvexPolygon(((0.0, 0.0), (0.5, 0.0), (1.0, 0.0), (0.5, 1.0)))

    def test_shape_validation(self):
        with pytest.raises(InvalidParameterError):
            Disk((0.0, 0.0), 0.0)
        with pytest.raises(InvalidParameterError):
            AxisEllipse((0.0, 0.0), 0.1, -0.2)


class TestHullFromSupport:
    def test_disk_64_directions(self):
        disk = Disk((0.0, 0.0), 0.2)
        estimates = [(f, disk.support(f.theta)) for f in uniform_directions(64)]
        hull = hull_from_support(estimates)
        assert hausdorff_support_distance(hull, disk) <= 0.001

    def test_square_exact_from_face_normals(self):
        square = ConvexPolygon(((0.2, -0.2), (0.2, 0.2), (-0.2, 0.2), (-0.2, -0.2)))
        frames = [DirectionFrame.from_vector(v) for v in ((1, 0), (0, 1), (-1, 0), (0, -1))]
        hull = hull_from_support([(f, 0.2) for f in frames])
        got = sorted(hull.vertices)
        want = sorted(square.vertices)
        assert np.allclose(got, want, atol=1e-9)

    def test_polygon_with_redundant_directions(self):
        square = ConvexPolygon(((0.2, -0.2), (0.2, 0.2), (-0.2, 0.2), (-0.2, -0.2)))
        estimates = [
            (f, square.support(f.theta)) for f in uniform_directions(16)
        ]
        hull = hull_from_support(estimates)
        got = sorted(hull.vertices)
        want = sorted(square.vertices)
        assert np.allclose(got, want, atol=1e-9)

    def test_empty_intersection(self):
        frames = [DirectionFrame.from_vector(v) for v in ((1, 0), (0, 1), (-1, 0), (0, -1))]
        with pytest.raises(DegenerateHullError):
            hull_from_support([(f, -1.0) for f in frames])

    def test_unbounded_intersection(self):
        frames = [DirectionFrame.from_vector(v) for v in ((1, 0), (0, 1), (-1, 0))]
        with pytest.raises(DegenerateHullError):
            hull_from_support([(f, 1.0) for f in frames])

    def test_too_few_directions(self):
        frames = [DirectionFrame.from_vector(v) for v in ((1, 0), (0, 1))]
        with pytest.raises(InvalidParameterError):
            hull_from_support([(f, 1.0) for f in frames])


class TestDomains:
    def test_unit_disk_support(self):
        dom = UnitDisk()
        for f in uniform_directions(8):
            assert dom.support(f.theta) == pytest.approx(1.0)

    def test_rectangle_support(self):
        rect = Rectangle(0.0, 2.0, -1.0, 1.0)
        assert rect.support((1.0, 0.0)) == pytest.approx(2.0)
        assert rect.support((-1.0, 0.0)) == pytest.approx(0.0)
        assert rect.support((0.0, 1.0)) == pytest.approx(1.0)
        assert rect.diameter() == pytest.approx(math.hypot(2.0, 2.0))

    def test_margin_enforced(self):
        dom = UnitDisk()
        require_margin(dom, Disk((0.3, 0.0), 0.2))  # clearance 0.5 >= 0.2
        with pytest.raises(InvalidParameterError):
            require_margin(dom, Disk((0.7, 0.0), 0.2))  # clearance 0.1 < 0.2

    def test_margin_rectangle(self):
        dom = Rectangle(0.0, 1.0, 0.0, 1.0)
        require_margin(dom, Disk((0.5, 0.5), 0.2))
        with pytest.raises(InvalidParameterError):
            require_margin(dom, Disk((0.2, 0.5), 0.15))

    def test_rectangle_validation(self):
        with pytest.raises(InvalidParameterError):
            Rectangle(0.0, 0.0, 0.0, 1.0)
