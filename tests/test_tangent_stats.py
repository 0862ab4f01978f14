"""Means, kernel covariances, eigenframes, angle diagnostics."""

import math

import numpy as np
import pytest

from psm.errors import (
    DimensionMismatchError,
    EmptyNeighborhoodError,
    HemisphereViolationError,
    NoConvergenceError,
    RankDeficientError,
    ZeroVectorError,
)
from psm.geometry import (
    FLAT,
    Point,
    Tangent,
    exp_map,
    geodesic_distance,
    log_map,
)
from psm.tangent_stats import (
    GAUSSIAN,
    UNIFORM_BALL,
    EigenFrame,
    KernelSpec,
    eigenframe,
    frechet_mean,
    frechet_variance,
    local_covariance,
    subspace_cos_angle,
    vector_subspace_cos,
)

from helpers import random_sphere_point, random_tangent, tangent_basis


def cluster_on_sphere(rng, ambient, n, spread):
    base = random_sphere_point(rng, ambient)
    return [exp_map(base, random_tangent(rng, base, rng.uniform(0.0, spread)))
            for _ in range(n)]


class TestKernelSpec:
    def test_bandwidth_must_be_positive(self):
        with pytest.raises(ValueError):
            KernelSpec(UNIFORM_BALL, 0.0)

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            KernelSpec("triangle", 1.0)

    def test_infinite_bandwidth_weights(self):
        spec = KernelSpec(UNIFORM_BALL, math.inf)
        np.testing.assert_array_equal(spec.weights([0.0, 5.0, 100.0]), [1.0, 1.0, 1.0])

    def test_uniform_ball_indicator(self):
        spec = KernelSpec(UNIFORM_BALL, 0.5)
        np.testing.assert_array_equal(spec.weights([0.2, 0.5, 0.51]), [1.0, 1.0, 0.0])

    def test_gaussian_profile(self):
        spec = KernelSpec(GAUSSIAN, 2.0)
        expected = np.exp(-0.5 * (np.array([0.0, 1.0, 3.0]) / 2.0) ** 2)
        np.testing.assert_allclose(spec.weights([0.0, 1.0, 3.0]), expected,
                                   rtol=0.0, atol=1e-15)


class TestFrechetMean:
    def test_all_points_equal(self):
        p = Point(np.array([0.0, 0.0, 1.0]))
        out = frechet_mean([p, p, p])
        assert geodesic_distance(out, p) <= 1e-12

    def test_two_point_midpoint(self):
        x = Point(np.array([1.0, 0.0, 0.0]))
        y = Point(np.array([0.0, 1.0, 0.0]))
        m = frechet_mean([x, y])
        assert abs(geodesic_distance(m, x) - geodesic_distance(m, y)) <= 1e-9
        assert geodesic_distance(m, x) == pytest.approx(math.pi / 4.0, abs=1e-9)

    def test_beats_local_grid(self):
        # independent oracle: no 1e-3-spaced tangent neighbor does better
        rng = np.random.default_rng(60)
        data = cluster_on_sphere(rng, 4, 20, 0.4)
        mean = frechet_mean(data)
        best = frechet_variance(mean, data)
        basis = tangent_basis(mean)
        for dx in (-1e-3, 0.0, 1e-3):
            for dy in (-1e-3, 0.0, 1e-3):
                for dz in (-1e-3, 0.0, 1e-3):
                    if dx == dy == dz == 0.0:
                        continue
                    step = dx * basis[0] + dy * basis[1] + dz * basis[2]
                    other = exp_map(mean, Tangent(mean, step))
                    assert best < frechet_variance(other, data)

    def test_gradient_below_tol(self):
        rng = np.random.default_rng(61)
        data = cluster_on_sphere(rng, 5, 30, 0.5)
        mean = frechet_mean(data, tol=1e-10)
        grad = np.mean([log_map(mean, x).vec for x in data], axis=0)
        assert np.linalg.norm(grad) <= 1e-10

    def test_permutation_invariance(self):
        rng = np.random.default_rng(62)
        data = cluster_on_sphere(rng, 4, 15, 0.3)
        m1 = frechet_mean(data)
        m2 = frechet_mean(list(reversed(data)))
        assert geodesic_distance(m1, m2) <= 1e-9

    def test_flat_chart_is_arithmetic_mean(self):
        pts = [Point(np.array([0.0, 0.0]), FLAT), Point(np.array([2.0, 4.0]), FLAT)]
        out = frechet_mean(pts)
        np.testing.assert_allclose(out.coords, [1.0, 2.0], rtol=0.0, atol=1e-15)

    def test_hemisphere_violation(self):
        x = Point(np.array([1.0, 0.0, 0.0]))
        y = Point(np.array([-1.0, 0.0, 0.0]))
        with pytest.raises(HemisphereViolationError):
            frechet_mean([x, y])

    def test_no_convergence(self):
        rng = np.random.default_rng(63)
        data = cluster_on_sphere(rng, 4, 10, 1.0)
        with pytest.raises(NoConvergenceError):
            frechet_mean(data, tol=0.0, max_iter=1)


class TestFrechetVariance:
    def test_single_point(self):
        p = Point(np.array([1.0, 0.0]))
        assert frechet_variance(p, [p]) == 0.0

    def test_quarter_circle_pair(self):
        p = Point(np.array([1.0, 0.0]))
        q = Point(np.array([0.0, 1.0]))
        expected = 0.5 * (math.pi / 2.0) ** 2
        assert frechet_variance(p, [p, q]) == pytest.approx(expected, abs=1e-14)

    def test_matches_brute_force(self):
        rng = np.random.default_rng(64)
        data = cluster_on_sphere(rng, 4, 12, 0.6)
        center = random_sphere_point(rng, 4)
        direct = np.mean([geodesic_distance(center, x) ** 2 for x in data])
        assert frechet_variance(center, data) == pytest.approx(direct, abs=1e-13)


class TestLocalCovariance:
    def test_single_centered_point(self):
        a = Point(np.array([1.0, 0.0, 0.0]))
        cov = local_covariance(a, [a], KernelSpec())
        np.testing.assert_array_equal(cov, np.zeros((3, 3)))

    def test_symmetric_pair_gives_outer_product(self):
        a = Point(np.array([1.0, 0.0, 0.0]))
        v = np.array([0.0, 0.3, 0.1])
        plus = exp_map(a, Tangent(a, v))
        minus = exp_map(a, Tangent(a, -v))
        cov = local_covariance(a, [plus, minus], KernelSpec())
        np.testing.assert_allclose(cov, np.outer(v, v), rtol=0.0, atol=1e-12)

    def test_matches_brute_force_unweighted(self):
        rng = np.random.default_rng(65)
        a = random_sphere_point(rng, 4)
        data = [exp_map(a, random_tangent(rng, a, rng.uniform(0.1, 0.8)))
                for _ in range(15)]
        logs = np.stack([log_map(a, x).vec for x in data])
        direct = logs.T @ logs / len(data)
        cov = local_covariance(a, data, KernelSpec())
        np.testing.assert_allclose(cov, direct, rtol=0.0, atol=1e-12)

    def test_annihilates_base(self):
        rng = np.random.default_rng(66)
        a = random_sphere_point(rng, 5)
        data = [exp_map(a, random_tangent(rng, a, 0.5)) for _ in range(10)]
        cov = local_covariance(a, data, KernelSpec(GAUSSIAN, 0.7))
        assert np.linalg.norm(cov @ a.coords) <= 1e-10

    def test_ball_covering_all_matches_infinite(self):
        rng = np.random.default_rng(67)
        a = random_sphere_point(rng, 4)
        data = [exp_map(a, random_tangent(rng, a, rng.uniform(0.0, 0.5)))
                for _ in range(12)]
        wide = local_covariance(a, data, KernelSpec(UNIFORM_BALL, 0.5 + 1e-9))
        infinite = local_covariance(a, data, KernelSpec(UNIFORM_BALL, math.inf))
        np.testing.assert_array_equal(wide, infinite)

    def test_empty_neighborhood(self):
        a = Point(np.array([1.0, 0.0, 0.0]))
        far = Point(np.array([0.0, 1.0, 0.0]))
        with pytest.raises(EmptyNeighborhoodError):
            local_covariance(a, [far], KernelSpec(UNIFORM_BALL, 1e-3))

    def test_gaussian_weighting_matches_direct(self):
        rng = np.random.default_rng(68)
        a = random_sphere_point(rng, 4)
        data = [exp_map(a, random_tangent(rng, a, rng.uniform(0.1, 1.0)))
                for _ in range(9)]
        h = 0.4
        logs = np.stack([log_map(a, x).vec for x in data])
        dists = np.array([geodesic_distance(a, x) for x in data])
        w = np.exp(-0.5 * (dists / h) ** 2)
        direct = (logs * w[:, None]).T @ logs / w.sum()
        cov = local_covariance(a, data, KernelSpec(GAUSSIAN, h))
        np.testing.assert_allclose(cov, direct, rtol=0.0, atol=1e-12)

    def test_demeaned_flat_equals_centered_covariance(self):
        rng = np.random.default_rng(69)
        xs = rng.standard_normal((20, 3))
        data = [Point(row, FLAT) for row in xs]
        center = Point(np.zeros(3), FLAT)
        cov = local_covariance(center, data, KernelSpec(), demean=True)
        centered = xs - xs.mean(axis=0)
        np.testing.assert_allclose(cov, centered.T @ centered / 20.0,
                                   rtol=0.0, atol=1e-12)


class TestEigenframe:
    def test_diagonal_spectrum(self):
        base = Point(np.zeros(4), FLAT)
        frame = eigenframe(np.diag([3.0, 2.0, 1.0, 0.0]), base, 2)
        np.testing.assert_array_equal(frame.eigenvalues, [3.0, 2.0])
        np.testing.assert_allclose(frame.vectors[0].vec, [1, 0, 0, 0], atol=1e-12)
        np.testing.assert_allclose(frame.vectors[1].vec, [0, 1, 0, 0], atol=1e-12)

    def test_rank_one(self):
        base = Point(np.zeros(3), FLAT)
        v = np.array([2.0, -1.0, 2.0])
        frame = eigenframe(np.outer(v, v), base, 1)
        assert frame.eigenvalues[0] == pytest.approx(9.0, abs=1e-12)
        np.testing.assert_allclose(frame.vectors[0].vec, v / 3.0, atol=1e-12)

    def test_spectral_reconstruction(self):
        rng = np.random.default_rng(70)
        base = Point(np.zeros(4), FLAT)
        raw = rng.standard_normal((4, 4))
        spd = raw @ raw.T + 0.1 * np.eye(4)
        frame = eigenframe(spd, base, 4)
        rebuilt = sum(lam * np.outer(t.vec, t.vec)
                      for lam, t in zip(frame.eigenvalues, frame.vectors))
        np.testing.assert_allclose(rebuilt, spd, rtol=0.0, atol=1e-8)

    def test_eigen_residuals(self):
        rng = np.random.default_rng(71)
        base = Point(np.zeros(5), FLAT)
        raw = rng.standard_normal((5, 5))
        spd = raw @ raw.T + 0.1 * np.eye(5)
        frame = eigenframe(spd, base, 3)
        for lam, t in zip(frame.eigenvalues, frame.vectors):
            assert np.linalg.norm(spd @ t.vec - lam * t.vec) <= 1e-8
            rayleigh = float(t.vec @ spd @ t.vec)
            assert abs(rayleigh - lam) <= 1e-8

    def test_sphere_chart_vectors_are_tangent(self):
        rng = np.random.default_rng(72)
        a = random_sphere_point(rng, 4)
        data = [exp_map(a, random_tangent(rng, a, rng.uniform(0.1, 0.6)))
                for _ in range(10)]
        cov = local_covariance(a, data, KernelSpec())
        frame = eigenframe(cov, a, 2)
        for t in frame.vectors:
            assert abs(t.vec @ a.coords) <= 1e-10
        gram = frame.basis() @ frame.basis().T
        np.testing.assert_allclose(gram, np.eye(2), rtol=0.0, atol=1e-9)

    def test_rank_deficient(self):
        base = Point(np.zeros(3), FLAT)
        with pytest.raises(RankDeficientError, match=r"eigenvalue 2 is 1e-13$"):
            eigenframe(np.diag([1.0, 1e-13, 0.0]), base, 2)

    def test_degenerate_tie_flag(self):
        base = Point(np.zeros(3), FLAT)
        frame = eigenframe(np.diag([2.0, 1.0, 1.0]), base, 2)
        assert frame.degenerate
        clean = eigenframe(np.diag([2.0, 1.0, 0.5]), base, 2)
        assert not clean.degenerate

    def test_sign_convention(self):
        base = Point(np.zeros(2), FLAT)
        v = np.array([-1.0, 1.0]) / math.sqrt(2.0)
        frame = eigenframe(np.outer(v, v), base, 1)
        # first nonzero component forced positive
        assert frame.vectors[0].vec[0] > 0

    def test_rejects_asymmetric(self):
        base = Point(np.zeros(2), FLAT)
        with pytest.raises(ValueError):
            eigenframe(np.array([[1.0, 0.5], [0.0, 1.0]]), base, 1)


class TestSubspaceAngles:
    def _frame(self, base, rows, vals):
        return EigenFrame(base, tuple(Tangent(base, r) for r in rows),
                          np.array(vals))

    def test_equal_frames(self):
        base = Point(np.zeros(4), FLAT)
        rows = [np.array([1.0, 0, 0, 0]), np.array([0, 1.0, 0, 0])]
        f = self._frame(base, rows, [2.0, 1.0])
        assert subspace_cos_angle(f, f) == pytest.approx(1.0, abs=1e-12)

    def test_orthogonal_spans(self):
        base = Point(np.zeros(4), FLAT)
        f1 = self._frame(base, [np.array([1.0, 0, 0, 0])], [1.0])
        f2 = self._frame(base, [np.array([0, 0, 1.0, 0])], [1.0])
        assert subspace_cos_angle(f1, f2) == 0.0

    def test_one_dimensional_angle(self):
        base = Point(np.zeros(2), FLAT)
        theta = 0.7
        f1 = self._frame(base, [np.array([1.0, 0.0])], [1.0])
        f2 = self._frame(base, [np.array([math.cos(theta), math.sin(theta)])], [1.0])
        assert subspace_cos_angle(f1, f2) == pytest.approx(abs(math.cos(theta)),
                                                           abs=1e-12)

    def test_symmetry(self):
        rng = np.random.default_rng(73)
        base = Point(np.zeros(5), FLAT)
        q1, _ = np.linalg.qr(rng.standard_normal((5, 2)))
        q2, _ = np.linalg.qr(rng.standard_normal((5, 2)))
        f1 = self._frame(base, list(q1.T), [2.0, 1.0])
        f2 = self._frame(base, list(q2.T), [2.0, 1.0])
        assert abs(subspace_cos_angle(f1, f2) - subspace_cos_angle(f2, f1)) <= 1e-12

    def test_size_mismatch(self):
        base = Point(np.zeros(3), FLAT)
        f1 = self._frame(base, [np.array([1.0, 0, 0])], [1.0])
        f2 = self._frame(base, [np.array([1.0, 0, 0]), np.array([0, 1.0, 0])],
                         [2.0, 1.0])
        with pytest.raises(DimensionMismatchError):
            subspace_cos_angle(f1, f2)


class TestVectorSubspaceCos:
    def _frame(self, base, rows):
        return EigenFrame(base, tuple(Tangent(base, r) for r in rows),
                          np.ones(len(rows)))

    def test_vector_in_span(self):
        base = Point(np.zeros(4), FLAT)
        frame = self._frame(base, [np.array([1.0, 0, 0, 0]), np.array([0, 1.0, 0, 0])])
        v = Tangent(base, np.array([1.0, 0, 0, 0]))
        assert vector_subspace_cos(v, frame) == pytest.approx(1.0, abs=1e-12)

    def test_vector_orthogonal(self):
        base = Point(np.zeros(4), FLAT)
        frame = self._frame(base, [np.array([1.0, 0, 0, 0])])
        v = Tangent(base, np.array([0, 0, 2.0, 0]))
        assert vector_subspace_cos(v, frame) == 0.0

    def test_pythagoras_mix(self):
        base = Point(np.zeros(4), FLAT)
        frame = self._frame(base, [np.array([1.0, 0, 0, 0])])
        v = Tangent(base, np.array([1.0, 0, 1.0, 0]))
        assert vector_subspace_cos(v, frame) == pytest.approx(1.0 / math.sqrt(2.0),
                                                              abs=1e-12)

    def test_zero_vector(self):
        base = Point(np.zeros(3), FLAT)
        frame = self._frame(base, [np.array([1.0, 0, 0])])
        with pytest.raises(ZeroVectorError):
            vector_subspace_cos(Tangent(base, np.zeros(3)), frame)
