import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from enclosure_kit.errors import DegenerateHullError, InvalidParameterError
from enclosure_kit.geometry import (
    AxisEllipse,
    ConvexPolygon,
    DirectionFrame,
    Disk,
    Rectangle,
    UnitDisk,
    hausdorff_support_distance,
    hull_from_support,
    max_point_norm,
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
        assert np.allclose(DirectionFrame((1.0, 0.0)).theta_perp, (0.0, 1.0))
        assert np.allclose(DirectionFrame((0.0, 1.0)).theta_perp, (-1.0, 0.0))

    def test_diagonal(self):
        assert np.allclose(DirectionFrame((SQ2, SQ2)).theta_perp, (-SQ2, SQ2))

    def test_orthogonality(self):
        for ang in np.linspace(0, 2 * math.pi, 17):
            t = (math.cos(ang), math.sin(ang))
            assert abs(np.dot(DirectionFrame(t).theta_perp, t)) < 1e-15

    def test_rejects_non_unit(self):
        with pytest.raises(InvalidParameterError):
            DirectionFrame((1.0, 1.0))
        with pytest.raises(InvalidParameterError):
            DirectionFrame((1.0 + 1e-9, 0.0))


class TestDirectionFrame:
    def test_sign_convention(self):
        f = DirectionFrame((1.0, 0.0))
        assert f.theta == (1.0, 0.0)
        assert f.theta_perp == (0.0, 1.0)

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
        frames = [DirectionFrame(v) for v in ((1, 0), (0, 1), (-1, 0), (0, -1))]
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
        frames = [DirectionFrame(v) for v in ((1, 0), (0, 1), (-1, 0), (0, -1))]
        with pytest.raises(DegenerateHullError):
            hull_from_support([(f, -1.0) for f in frames])

    def test_unbounded_intersection(self):
        frames = [DirectionFrame(v) for v in ((1, 0), (0, 1), (-1, 0))]
        with pytest.raises(DegenerateHullError):
            hull_from_support([(f, 1.0) for f in frames])

    def test_too_few_directions(self):
        frames = [DirectionFrame(v) for v in ((1, 0), (0, 1))]
        with pytest.raises(InvalidParameterError):
            hull_from_support([(f, 1.0) for f in frames])

    def test_short_edge_keeps_its_corner(self):
        # h_3 sits 3e-9 below the value at which edge 3 vanishes, so that
        # edge is a few 1e-9 long; its two ends must not both be dropped
        disk = Disk((0.3, 0.0), 0.2)
        frames = uniform_directions(16)
        h = [disk.support(f.theta) for f in frames]
        corner = np.linalg.solve([frames[2].theta, frames[4].theta], [h[2], h[4]])
        h[3] = float(corner @ frames[3].theta) - 3e-9
        hull = hull_from_support(list(zip(frames, h)))
        assert len(hull.vertices) == 16
        assert max(abs(hull.support(f.theta) - hk) for f, hk in zip(frames, h)) <= 1e-9


MIN_GAP, MAX_GAP = 1e-3, 3.14159  # angular gaps between polygon vertices, below pi


@st.composite
def convex_polygons(draw):
    """Vertices on a circle at angular gaps in [MIN_GAP, MAX_GAP]."""
    n = draw(st.integers(3, 12))
    radius = draw(st.floats(1e-3, 10.0))
    centre = np.array([draw(st.floats(-5.0, 5.0)), draw(st.floats(-5.0, 5.0))])
    angles = [draw(st.floats(0.0, 2.0 * math.pi))]
    rest = 2.0 * math.pi
    for remaining in range(n - 1, 0, -1):
        # leave every remaining gap, the closing one included, in range
        lo = max(MIN_GAP, rest - remaining * MAX_GAP)
        hi = max(lo, min(MAX_GAP, rest - remaining * MIN_GAP))
        gap = draw(st.floats(lo, hi))
        angles.append(angles[-1] + gap)
        rest -= gap
    angles = np.array(angles)
    return centre + radius * np.column_stack([np.cos(angles), np.sin(angles)])


@settings(derandomize=True, database=None, deadline=None, max_examples=400)
@given(convex_polygons(), st.integers(8, 64))
def test_hull_of_exact_supports_is_tight_and_contains_the_polygon(vertices, n_directions):
    frames = uniform_directions(n_directions)
    h = [float(np.max(vertices @ f.theta)) for f in frames]
    tol = 1e-9 * max(1.0, max(map(abs, h)))
    hull = hull_from_support(list(zip(frames, h)))
    for f, hk in zip(frames, h):
        assert abs(hull.support(f.theta) - hk) <= tol
    corners = hull.vertex_array()
    edges = np.roll(corners, -1, axis=0) - corners
    for p in vertices:
        rel = p - corners
        outside = edges[:, 1] * rel[:, 0] - edges[:, 0] * rel[:, 1]
        assert np.all(outside <= tol * np.hypot(edges[:, 0], edges[:, 1]))


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

    def test_max_point_norm_polygon(self):
        poly = ConvexPolygon(((0.1, -0.2), (0.5, 0.1), (0.2, 0.4)))
        assert max_point_norm(poly) == math.hypot(0.5, 0.1)

    @pytest.mark.parametrize(
        "ellipse",
        [AxisEllipse((0.3, -0.1), 0.25, 0.1), AxisEllipse((-0.2, 0.35), 0.05, 0.3)],
    )
    def test_max_point_norm_ellipse_is_certified(self, ellipse):
        # a fine boundary sampling is within 1e-11 of the true max |x|
        phi = np.linspace(0.0, 2.0 * math.pi, 1_000_001)
        x = ellipse.center[0] + ellipse.semi_a * np.cos(phi)
        y = ellipse.center[1] + ellipse.semi_b * np.sin(phi)
        true_max = float(np.max(np.hypot(x, y)))
        bound = max_point_norm(ellipse)
        assert true_max <= bound <= true_max * (1.0 + 1e-7)

    @pytest.mark.parametrize("gap, fits", [(1e-6, True), (-1e-6, False)])
    def test_margin_at_the_edge(self, gap, fits):
        # the unit disk needs max |x| <= 0.8: just inside passes, just outside fails
        reach = 0.8 - gap
        shapes = [
            ConvexPolygon(((0.5, -0.2), (reach, 0.0), (0.5, 0.2))),
            AxisEllipse((0.3, 0.0), reach - 0.3, 0.2),
        ]
        for shape in shapes:
            if fits:
                require_margin(UnitDisk(), shape)
            else:
                with pytest.raises(InvalidParameterError, match="outer boundary"):
                    require_margin(UnitDisk(), shape)

    def test_margin_rectangle(self):
        dom = Rectangle(0.0, 1.0, 0.0, 1.0)
        require_margin(dom, Disk((0.5, 0.5), 0.2))
        with pytest.raises(InvalidParameterError):
            require_margin(dom, Disk((0.2, 0.5), 0.15))

    def test_rectangle_validation(self):
        with pytest.raises(InvalidParameterError):
            Rectangle(0.0, 0.0, 0.0, 1.0)
