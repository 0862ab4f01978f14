"""Sphere and flat-chart primitives against closed-form trigonometry."""

import dataclasses
import math

import numpy as np
import pytest

from psm.errors import AntipodalPairError, CutLocusError, DimensionMismatchError, ZeroVectorError
from psm.geometry import (
    FLAT,
    SPHERE,
    Point,
    PointArray,
    exp_map,
    geodesic_distance,
    log_map,
    points_matrix,
    project_to_sphere,
)

from helpers import random_sphere_point, random_tangent

SQRT2_INV = 1.0 / math.sqrt(2.0)


class TestPointAndTangent:
    def test_sphere_point_requires_unit_norm(self):
        with pytest.raises(ValueError):
            Point(np.array([1.0, 1.0]), SPHERE)

    def test_flat_point_unconstrained(self):
        p = Point(np.array([3.0, -4.0, 5.0]), FLAT)
        assert p.ambient_dim == 3

    def test_point_rejects_nonfinite(self):
        with pytest.raises(ValueError):
            Point(np.array([np.nan, 0.0]), FLAT)

    def test_unknown_chart(self):
        with pytest.raises(ValueError):
            Point(np.array([1.0, 0.0]), "cylinder")

    def test_tangent_must_be_orthogonal_on_sphere(self):
        x = Point(np.array([1.0, 0.0, 0.0]))
        with pytest.raises(ValueError, match="not orthogonal"):
            exp_map(x, np.array([0.5, 1.0, 0.0]))

    def test_coords_are_immutable(self):
        x = Point(np.array([1.0, 0.0, 0.0]))
        with pytest.raises(ValueError):
            x.coords[0] = 2.0


class TestProjectToSphere:
    def test_scaling(self):
        p = project_to_sphere(np.array([2.0, 0.0, 0.0, 0.0]))
        assert np.array_equal(p.coords, [1.0, 0.0, 0.0, 0.0])

    def test_identity(self):
        p = project_to_sphere(np.array([1.0, 0.0, 0.0, 0.0]))
        assert np.array_equal(p.coords, [1.0, 0.0, 0.0, 0.0])

    def test_diagonal(self):
        p = project_to_sphere(np.array([1.0, 1.0, 0.0, 0.0]))
        np.testing.assert_allclose(p.coords, [SQRT2_INV, SQRT2_INV, 0.0, 0.0],
                                   rtol=0.0, atol=1e-15)

    def test_zero_vector(self):
        with pytest.raises(ZeroVectorError):
            project_to_sphere(np.zeros(3))


class TestExpMap:
    def test_zero_velocity(self):
        x = Point(np.array([0.0, 0.0, 1.0]))
        out = exp_map(x, np.zeros(3))
        np.testing.assert_array_equal(out.coords, x.coords)

    def test_quarter_circle(self):
        x = Point(np.array([1.0, 0.0]))
        out = exp_map(x, np.array([0.0, math.pi / 2.0]))
        np.testing.assert_allclose(out.coords, [0.0, 1.0], rtol=0.0, atol=1e-15)

    def test_closed_form_eighth_turn(self):
        # cos(pi/4) x + sin(pi/4) e2, evaluated by hand
        x = Point(np.array([1.0, 0.0, 0.0]))
        out = exp_map(x, np.array([0.0, math.pi / 4.0, 0.0]))
        np.testing.assert_allclose(out.coords, [SQRT2_INV, SQRT2_INV, 0.0],
                                   rtol=0.0, atol=1e-15)

    def test_flat_chart_is_addition(self):
        x = Point(np.array([1.0, 2.0]), FLAT)
        out = exp_map(x, np.array([0.25, -0.5]))
        np.testing.assert_array_equal(out.coords, [1.25, 1.5])

    def test_cut_locus_guard(self):
        x = Point(np.array([1.0, 0.0]))
        with pytest.raises(CutLocusError):
            exp_map(x, np.array([0.0, math.pi]))

    @pytest.mark.parametrize("chart", [SPHERE, FLAT])
    def test_tangent_shape_and_values_are_checked(self, chart):
        x = Point(np.array([1.0, 0.0, 0.0]), chart)
        with pytest.raises(ValueError, match="dimensions differ"):
            exp_map(x, np.array([0.0, 0.1]))
        with pytest.raises(ValueError, match="finite"):
            exp_map(x, np.array([0.0, math.nan, 0.0]))

    def test_result_unit_norm(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            x = random_sphere_point(rng, 4)
            v = random_tangent(rng, x, rng.uniform(0.0, 3.0))
            out = exp_map(x, v)
            assert abs(np.linalg.norm(out.coords) - 1.0) <= 1e-12


class TestLogMap:
    def test_log_of_self_is_zero(self):
        x = Point(np.array([0.0, 1.0, 0.0]))
        t = log_map(x, x)
        assert np.linalg.norm(t) == 0.0

    def test_quarter_circle(self):
        x = Point(np.array([1.0, 0.0]))
        y = Point(np.array([0.0, 1.0]))
        t = log_map(x, y)
        np.testing.assert_allclose(t, [0.0, math.pi / 2.0], rtol=0.0, atol=1e-15)

    def test_antipodal_guard(self):
        x = Point(np.array([1.0, 0.0, 0.0]))
        y = Point(np.array([-1.0, 0.0, 0.0]))
        with pytest.raises(AntipodalPairError):
            log_map(x, y)

    def test_chart_mismatch(self):
        x = Point(np.array([1.0, 0.0]))
        for y in (Point(np.array([1.0, 0.0]), FLAT), Point(np.array([1.0, 0.0, 0.0]))):
            for op in (log_map, geodesic_distance):
                with pytest.raises(DimensionMismatchError, match="different spaces"):
                    op(x, y)

    def test_flat_chart_is_subtraction(self):
        x = Point(np.array([1.0, 2.0]), FLAT)
        y = Point(np.array([0.5, 2.5]), FLAT)
        np.testing.assert_array_equal(log_map(x, y), [-0.5, 0.5])


class TestRoundTrips:
    def test_log_exp_round_trip(self):
        rng = np.random.default_rng(20)
        for _ in range(200):
            x = random_sphere_point(rng, 4)
            v = random_tangent(rng, x, rng.uniform(1e-4, math.pi - 0.1))
            back = log_map(x, exp_map(x, v))
            assert np.linalg.norm(back - v) <= 1e-9

    def test_exp_log_round_trip(self):
        rng = np.random.default_rng(21)
        for _ in range(200):
            x = random_sphere_point(rng, 5)
            y = random_sphere_point(rng, 5)
            if float(x.coords @ y.coords) < -1.0 + 1e-6:
                continue
            forward = exp_map(x, log_map(x, y))
            assert np.linalg.norm(forward.coords - y.coords) <= 1e-9

    def test_exp_isometry(self):
        rng = np.random.default_rng(22)
        for _ in range(200):
            x = random_sphere_point(rng, 4)
            norm = rng.uniform(1e-4, math.pi - 0.1)
            v = random_tangent(rng, x, norm)
            assert abs(geodesic_distance(x, exp_map(x, v)) - norm) <= 1e-10


class TestGeodesicDistance:
    def test_self_distance(self):
        x = Point(np.array([1.0, 0.0]))
        assert geodesic_distance(x, x) == 0.0

    def test_quarter(self):
        x = Point(np.array([1.0, 0.0]))
        y = Point(np.array([0.0, 1.0]))
        assert geodesic_distance(x, y) == pytest.approx(math.pi / 2.0, abs=1e-15)

    def test_antipodal(self):
        x = Point(np.array([1.0, 0.0]))
        y = Point(np.array([-1.0, 0.0]))
        assert geodesic_distance(x, y) == pytest.approx(math.pi, abs=1e-15)

    def test_symmetry_exact(self):
        rng = np.random.default_rng(23)
        for _ in range(100):
            x = random_sphere_point(rng, 4)
            y = random_sphere_point(rng, 4)
            assert geodesic_distance(x, y) == geodesic_distance(y, x)

    def test_triangle_inequality(self):
        rng = np.random.default_rng(24)
        for _ in range(100):
            x, y, z = (random_sphere_point(rng, 4) for _ in range(3))
            assert (geodesic_distance(x, z)
                    <= geodesic_distance(x, y) + geodesic_distance(y, z) + 1e-12)


class TestPointsMatrix:
    def test_rejects_mixed_charts(self):
        # a point set is one PointArray, of one chart; no list is stacked
        pts = [Point(np.array([1.0, 0.0])), Point(np.array([1.0, 0.0]), FLAT)]
        with pytest.raises(TypeError, match="must be a PointArray, not list"):
            points_matrix(pts)

    def test_rejects_empty(self):
        with pytest.raises(TypeError, match="must be a PointArray, not list"):
            points_matrix([])

    def test_point_array_passes_through(self):
        pa = PointArray(np.eye(3), SPHERE)
        assert points_matrix(pa) is pa.coords


class TestPointArray:
    def test_items_are_points_equal_to_rows(self):
        rows = np.random.default_rng(3).standard_normal((5, 3))
        for chart, coords in ((FLAT, rows),
                              (SPHERE, rows / np.linalg.norm(rows, axis=1)[:, None])):
            pa = PointArray(coords, chart)
            assert len(pa) == 5 and pa.chart == chart
            items = list(pa)
            assert all(isinstance(p, Point) and p.chart == chart for p in items)
            np.testing.assert_array_equal(np.stack([p.coords for p in items]), coords)
            assert pa[-1].coords.tolist() == coords[-1].tolist()
            tail = pa[2:]
            assert isinstance(tail, PointArray) and tail.chart == chart
            np.testing.assert_array_equal(tail.coords, coords[2:])

    def test_read_only(self):
        source = np.array([[3.0, 4.0], [0.0, 1.0]])
        pa = PointArray(source, FLAT)
        source[0, 0] = 7.0  # the array holds its own copy
        assert pa.coords[0, 0] == 3.0
        with pytest.raises(ValueError):
            pa.coords[0, 0] = 1.0
        with pytest.raises(dataclasses.FrozenInstanceError):
            pa.coords = np.zeros((2, 2))
        with pytest.raises(ValueError):
            pa[0].coords[0] = 1.0

    @pytest.mark.parametrize("chart", [SPHERE, FLAT])
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_rejects_non_finite(self, chart, bad):
        with pytest.raises(ValueError, match="finite"):
            PointArray([[1.0, 0.0], [0.0, bad]], chart)

    def test_rejects_off_sphere_rows(self):
        with pytest.raises(ValueError, match="unit norm"):
            PointArray([[1.0, 0.0], [0.6, 0.8 + 1e-9]], SPHERE)
        PointArray([[1.0, 0.0], [0.6, 0.8 + 1e-9]], FLAT)

    @pytest.mark.parametrize("shape", [(3,), (0, 3), (4, 1), (2, 2, 2)])
    def test_rejects_wrong_shape(self, shape):
        with pytest.raises(ValueError, match="shape"):
            PointArray(np.ones(shape), FLAT)

    def test_rejects_unknown_chart(self):
        with pytest.raises(ValueError, match="chart"):
            PointArray(np.eye(2), "torus")
