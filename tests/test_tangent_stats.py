"""Means, kernel covariances, eigenframes, angle diagnostics."""

import math
import re
import warnings

import numpy as np
import pytest

from psm import tangent_stats
from psm.errors import (
    DimensionMismatchError,
    EmptyNeighborhoodError,
    HemisphereViolationError,
    NoConvergenceError,
    RankDeficientError,
)
from psm.geometry import (
    FLAT,
    SPHERE,
    Point,
    PointArray,
    exp_map,
    geodesic_distance,
    log_map,
    points_matrix,
)
from psm.tangent_stats import (
    GAUSSIAN,
    UNIFORM_BALL,
    KernelSpec,
    _cov_at,
    _GramData,
    _GramLevel,
    _arcs,
    eigenframe,
    frechet_mean,
    frechet_variance,
    local_covariance,
)

from helpers import random_sphere_point, random_tangent, stacked, tangent_basis


def cluster_on_sphere(rng, ambient, n, spread):
    base = random_sphere_point(rng, ambient)
    return stacked(exp_map(base, random_tangent(rng, base, rng.uniform(0.0, spread)))
                   for _ in range(n))


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

    @pytest.mark.parametrize("bandwidth", [1e-310, 1e-160])
    def test_gaussian_weights_of_a_tiny_bandwidth_underflow_quietly(self, bandwidth):
        # d / h (1e-310) or its square (1e-160) overflows to inf: weight 0, no warning
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            weights = KernelSpec(GAUSSIAN, bandwidth).weights([0.0, 0.5])
        np.testing.assert_array_equal(weights, [1.0, 0.0])


class TestFrechetMean:
    def test_all_points_equal(self):
        p = Point(np.array([0.0, 0.0, 1.0]))
        out = frechet_mean(stacked([p, p, p]))
        assert geodesic_distance(out, p) <= 1e-12

    def test_two_point_midpoint(self):
        x = Point(np.array([1.0, 0.0, 0.0]))
        y = Point(np.array([0.0, 1.0, 0.0]))
        m = frechet_mean(stacked([x, y]))
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
                    other = exp_map(mean, step)
                    assert best < frechet_variance(other, data)

    def test_gradient_below_tol(self):
        rng = np.random.default_rng(61)
        data = cluster_on_sphere(rng, 5, 30, 0.5)
        mean = frechet_mean(data)
        grad = np.mean([log_map(mean, x) for x in data], axis=0)
        assert np.linalg.norm(grad) <= 1e-10

    def test_permutation_invariance(self):
        rng = np.random.default_rng(62)
        data = cluster_on_sphere(rng, 4, 15, 0.3)
        m1 = frechet_mean(data)
        m2 = frechet_mean(data[::-1])
        assert geodesic_distance(m1, m2) <= 1e-9

    def test_flat_chart_is_arithmetic_mean(self):
        pts = PointArray([[0.0, 0.0], [2.0, 4.0]], FLAT)
        out = frechet_mean(pts)
        np.testing.assert_allclose(out.coords, [1.0, 2.0], rtol=0.0, atol=1e-15)
        # far from the origin a float gradient cannot fall to tol; the
        # arithmetic mean is the exact fixed point and comes back bit for bit
        rng = np.random.default_rng(64)
        xs = rng.standard_normal((200, 3)) * [3.0, 2.0, 1.0] + 1e8
        out = frechet_mean(PointArray(xs, FLAT))
        assert out.chart == FLAT
        assert out.coords.tobytes() == xs.mean(axis=0).tobytes()

    def test_hemisphere_violation(self):
        x = Point(np.array([1.0, 0.0, 0.0]))
        y = Point(np.array([-1.0, 0.0, 0.0]))
        with pytest.raises(HemisphereViolationError):
            frechet_mean(stacked([x, y]))

    def test_no_convergence(self, monkeypatch):
        rng = np.random.default_rng(63)
        data = cluster_on_sphere(rng, 4, 10, 1.0)
        monkeypatch.setattr(tangent_stats, "_MEAN_TOL", 0.0)
        monkeypatch.setattr(tangent_stats, "_MEAN_MAX_ITER", 1)
        with pytest.raises(NoConvergenceError, match="in 1 iterations"):
            frechet_mean(data)


class TestFrechetVariance:
    def test_single_point(self):
        p = Point(np.array([1.0, 0.0]))
        assert frechet_variance(p, stacked([p])) == 0.0

    def test_quarter_circle_pair(self):
        p = Point(np.array([1.0, 0.0]))
        q = Point(np.array([0.0, 1.0]))
        expected = 0.5 * (math.pi / 2.0) ** 2
        assert frechet_variance(p, stacked([p, q])) == pytest.approx(expected, abs=1e-14)

    def test_matches_brute_force(self):
        rng = np.random.default_rng(64)
        data = cluster_on_sphere(rng, 4, 12, 0.6)
        center = random_sphere_point(rng, 4)
        direct = np.mean([geodesic_distance(center, x) ** 2 for x in data])
        assert frechet_variance(center, data) == pytest.approx(direct, abs=1e-13)


class TestLocalCovariance:
    def test_single_centered_point(self):
        a = Point(np.array([1.0, 0.0, 0.0]))
        cov = local_covariance(a, stacked([a]), KernelSpec())
        np.testing.assert_array_equal(cov, np.zeros((3, 3)))

    def test_symmetric_pair_gives_outer_product(self):
        a = Point(np.array([1.0, 0.0, 0.0]))
        v = np.array([0.0, 0.3, 0.1])
        plus = exp_map(a, v)
        minus = exp_map(a, -v)
        cov = local_covariance(a, stacked([plus, minus]), KernelSpec())
        np.testing.assert_allclose(cov, np.outer(v, v), rtol=0.0, atol=1e-12)

    def test_matches_brute_force_unweighted(self):
        rng = np.random.default_rng(65)
        a = random_sphere_point(rng, 4)
        data = stacked(exp_map(a, random_tangent(rng, a, rng.uniform(0.1, 0.8)))
                       for _ in range(15))
        logs = np.stack([log_map(a, x) for x in data])
        direct = logs.T @ logs / len(data)
        cov = local_covariance(a, data, KernelSpec())
        np.testing.assert_allclose(cov, direct, rtol=0.0, atol=1e-12)

    def test_annihilates_base(self):
        rng = np.random.default_rng(66)
        a = random_sphere_point(rng, 5)
        data = stacked(exp_map(a, random_tangent(rng, a, 0.5)) for _ in range(10))
        cov = local_covariance(a, data, KernelSpec(GAUSSIAN, 0.7))
        assert np.linalg.norm(cov @ a.coords) <= 1e-10

    def test_ball_covering_all_matches_infinite(self):
        rng = np.random.default_rng(67)
        a = random_sphere_point(rng, 4)
        data = stacked(exp_map(a, random_tangent(rng, a, rng.uniform(0.0, 0.5)))
                       for _ in range(12))
        wide = local_covariance(a, data, KernelSpec(UNIFORM_BALL, 0.5 + 1e-9))
        infinite = local_covariance(a, data, KernelSpec(UNIFORM_BALL, math.inf))
        np.testing.assert_array_equal(wide, infinite)

    def test_empty_neighborhood(self):
        a = Point(np.array([1.0, 0.0, 0.0]))
        far = Point(np.array([0.0, 1.0, 0.0]))
        with pytest.raises(EmptyNeighborhoodError):
            local_covariance(a, stacked([far]), KernelSpec(UNIFORM_BALL, 1e-3))

    def test_gaussian_weighting_matches_direct(self):
        rng = np.random.default_rng(68)
        a = random_sphere_point(rng, 4)
        data = stacked(exp_map(a, random_tangent(rng, a, rng.uniform(0.1, 1.0)))
                       for _ in range(9))
        h = 0.4
        logs = np.stack([log_map(a, x) for x in data])
        dists = np.array([geodesic_distance(a, x) for x in data])
        w = np.exp(-0.5 * (dists / h) ** 2)
        direct = (logs * w[:, None]).T @ logs / w.sum()
        cov = local_covariance(a, data, KernelSpec(GAUSSIAN, h))
        np.testing.assert_allclose(cov, direct, rtol=0.0, atol=1e-12)

    def test_demeaned_flat_equals_centered_covariance(self):
        rng = np.random.default_rng(69)
        xs = rng.standard_normal((20, 3))
        data = PointArray(xs, FLAT)
        center = Point(np.zeros(3), FLAT)
        cov = local_covariance(center, data, KernelSpec(), demean=True)
        centered = xs - xs.mean(axis=0)
        np.testing.assert_allclose(cov, centered.T @ centered / 20.0,
                                   rtol=0.0, atol=1e-12)


class TestGramKernel:
    """The Gram-form kernel against explicit logs and their weighted sums.

    Tolerance: 1e-12 of the largest covariance entry for the covariances,
    and of its square root for the means (measured errors are about 1e-14);
    1e-10 absolute for the nearest distance and the kernel weights, which
    on the sphere come from arccos of the inner product.
    """

    @staticmethod
    def explicit(data, base, kernel):
        vecs = np.stack([log_map(base, y) for y in data])
        dists = np.array([geodesic_distance(base, y) for y in data])
        w = kernel.weights(dists)
        total = w.sum()
        return (vecs * w[:, None]).T @ vecs / total, w @ vecs / total, dists, vecs

    def check(self, data, bases, kernel):
        """Compare the kernel at bases with explicit logs; returns the hull
        test along each base point's tangent mean, which both must agree on."""
        lv = _GramLevel(points_matrix(bases), _GramData(points_matrix(data), bases.chart), kernel)
        cov, mean = lv.covariance(), lv.mean()
        backs, hulls = [], []
        for i, base in enumerate(bases):
            ref_cov, ref_mean, ref_dists, vecs = self.explicit(data, base, kernel)
            scale = np.abs(ref_cov).max()
            np.testing.assert_allclose(cov[i], ref_cov, rtol=0.0, atol=1e-12 * scale)
            np.testing.assert_allclose(mean[i], ref_mean, rtol=0.0, atol=1e-12 * scale ** 0.5)
            np.testing.assert_allclose(lv.nearest[i], ref_dists.min(), rtol=0.0, atol=1e-10)
            np.testing.assert_allclose(lv.w[i], kernel.weights(ref_dists), rtol=0.0, atol=1e-10)
            backs.append(ref_mean)
            hulls.append(bool(np.all(vecs @ ref_mean >= 0.0)))
        assert not lv.antipodal.any()
        assert lv.hull(np.stack(backs)).tolist() == hulls
        return hulls

    @pytest.mark.parametrize("kernel", [KernelSpec(GAUSSIAN, 0.05), KernelSpec(UNIFORM_BALL, 0.6)])
    def test_small_bandwidth_on_the_sphere(self, kernel):
        rng = np.random.default_rng(80)
        center = random_sphere_point(rng, 4)
        data = PointArray(np.stack([
            exp_map(center, random_tangent(rng, center, rng.uniform(0.0, 0.15))).coords
            for _ in range(300)]))
        # five base points inside the cloud and one outside it, behind which
        # every data row lies
        offsets = [rng.uniform(0.0, 0.1) for _ in range(5)] + [0.5]
        bases = PointArray(np.stack([
            exp_map(center, random_tangent(rng, center, r)).coords for r in offsets]))
        assert self.check(data, bases, kernel) == [False] * 5 + [True]

    @pytest.mark.parametrize("kernel", [KernelSpec(GAUSSIAN, 0.5), KernelSpec()])
    def test_flat_data_far_from_the_origin(self, kernel):
        rng = np.random.default_rng(81)
        xs = rng.standard_normal((300, 3)) * [1.0, 0.5, 0.2] + 1e3
        bases = xs[:5] + rng.standard_normal((5, 3)) * 0.3
        self.check(PointArray(xs, FLAT), PointArray(bases, FLAT), kernel)

    @pytest.mark.parametrize("chart", [SPHERE, FLAT])
    def test_a_row_does_not_depend_on_its_batch(self, chart):
        rng = np.random.default_rng(82)
        xs = rng.standard_normal((50, 4))
        bases = rng.standard_normal((7, 4))
        if chart == SPHERE:
            xs = xs / np.linalg.norm(xs, axis=1, keepdims=True)
            bases = bases / np.linalg.norm(bases, axis=1, keepdims=True)
        data, kernel = _GramData(xs, chart), KernelSpec(GAUSSIAN, 0.8)
        # the centred data are one (m, n) array; ys is a view of it
        assert data.yt.shape == (4, 50) and data.yt.flags.c_contiguous
        assert np.shares_memory(data.ys, data.yt)
        batch = _GramLevel(bases, data, kernel)
        back = rng.standard_normal((7, 4))
        for i in range(7):
            one = _GramLevel(bases[i:i + 1], data, kernel)
            np.testing.assert_array_equal(one.covariance()[0], batch.covariance()[i])
            np.testing.assert_array_equal(one.mean()[0], batch.mean()[i])
            np.testing.assert_array_equal(one.nearest[0], batch.nearest[i])
            np.testing.assert_array_equal(one.w[0], batch.w[i])
            if chart == SPHERE:
                np.testing.assert_array_equal(one.s[0], batch.s[i])
            else:
                assert one.s == batch.s == 1.0
            assert one.hull(back[i:i + 1])[0] == batch.hull(back)[i]

    def test_arcs_at_a_zero_arc_and_an_antipode(self):
        # sin vanishes at c = 1 and c = -1: s is written there as 1 and 0,
        # and the divide by zero that came first warns of nothing
        c = np.array([[1.0, -1.0, 0.5], [-1.0, 1.0, 0.0]])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            theta, s = _arcs(c.copy())
        np.testing.assert_array_equal(s[:, :2], [[1.0, 0.0], [0.0, 1.0]])
        np.testing.assert_array_equal(theta, np.arccos(c))
        assert s[0, 2] == np.arccos(0.5) / math.sqrt(0.5 * 1.5)
        assert s[1, 2] == (np.pi / 2) / 1.0

    @staticmethod
    def masked_arcs(c):
        """_arcs with the gather and scatter of the zero-sin entries always run."""
        theta = np.arccos(c)
        sin = np.subtract(1.0, c)
        c += 1.0
        sin *= c
        np.sqrt(sin, out=sin)
        flat = sin <= 1e-14
        zero_arc = c[flat] > 1.0
        with np.errstate(divide="ignore", invalid="ignore"):
            np.divide(theta, sin, out=c)
        c[flat] = zero_arc
        return theta, c

    @pytest.mark.parametrize("ends", [False, True])
    def test_arcs_equal_their_masked_form(self, ends):
        # with no zero arc _arcs skips the masked gather and scatter; with
        # c = 1 and c = -1 present it runs them: the bits are the same
        rng = np.random.default_rng(84)
        c = rng.uniform(-1.0, 1.0, (6, 40))
        c[2, :4] = [1.0 - 1e-12, -1.0 + 1e-12, 1.0 - 2.0 ** -52, -1.0 + 2.0 ** -52]
        if ends:
            c[1, 3], c[4, 7], c[5, 0] = 1.0, -1.0, 1.0
        theta, s = _arcs(c.copy())
        ref_theta, ref_s = self.masked_arcs(c.copy())
        assert theta.tobytes() == ref_theta.tobytes()
        assert s.tobytes() == ref_s.tobytes()
        assert np.isfinite(s).all() and (s[c == 1.0] == 1.0).all() and (s[c == -1.0] == 0.0).all()

    @pytest.mark.parametrize("kernel", [KernelSpec(GAUSSIAN, 0.4), KernelSpec(UNIFORM_BALL, 0.6)])
    @pytest.mark.parametrize("chart, n, m, batch", [
        (SPHERE, 200, 3, 68), (FLAT, 200, 3, 68), (SPHERE, 3000, 26, 1)])
    def test_stacked_covariance_equals_each_row_alone(self, kernel, chart, n, m, batch):
        # data.batch base rows share one stacked product; a stack of two full
        # sub-batches and a ragged third (three of one row at the wide shape)
        # gives each row the bits of the one-row _cov_at
        rng = np.random.default_rng(85)
        xs = rng.standard_normal((n, m)) * np.linspace(0.3, 0.1, m)
        if chart == SPHERE:
            xs[:, 0] += 1.0
            xs /= np.linalg.norm(xs, axis=1, keepdims=True)
        data = _GramData(xs, chart)
        assert data.batch == batch
        num = 2 * batch + 5 if batch > 1 else 3
        bases = xs[:num] + rng.standard_normal((num, m)) * 0.02
        if chart == SPHERE:
            bases /= np.linalg.norm(bases, axis=1, keepdims=True)
        cov = _GramLevel(bases, data, kernel).covariance()
        for i in range(num):
            assert cov[i].tobytes() == _cov_at(bases[i], data, kernel).tobytes()

    def test_flat_spread_whose_squares_overflow_is_rejected(self):
        # the kernel sums squared distances from the first row; a spread whose
        # sum overflows is refused when the data are taken, with no warning
        xs = np.random.default_rng(86).standard_normal((200, 3)) * [3.0, 2.0, 1.0]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert np.isfinite(_GramData(xs * 1e151, FLAT).sq.sum())
            for scale in (1e153, 1e154):
                spread = np.abs(xs[1:] - xs[0]).max() * scale
                with pytest.raises(ValueError, match=re.escape(
                        f"the data spread {spread:.3g} from their first row is too wide")):
                    _GramData(xs * scale, FLAT)
            # unit sphere rows cannot overflow, and the sphere chart takes no sum
            assert not hasattr(_GramData(xs / np.linalg.norm(xs, axis=1)[:, None], SPHERE), "sq")


class TestEigenframe:
    def test_diagonal_spectrum(self):
        base = Point(np.zeros(4), FLAT)
        frame = eigenframe(np.diag([3.0, 2.0, 1.0, 0.0]), base, 2)
        np.testing.assert_array_equal(frame.eigenvalues, [3.0, 2.0])
        np.testing.assert_allclose(frame.basis[0], [1, 0, 0, 0], atol=1e-12)
        np.testing.assert_allclose(frame.basis[1], [0, 1, 0, 0], atol=1e-12)

    def test_rank_one(self):
        base = Point(np.zeros(3), FLAT)
        v = np.array([2.0, -1.0, 2.0])
        frame = eigenframe(np.outer(v, v), base, 1)
        assert frame.eigenvalues[0] == pytest.approx(9.0, abs=1e-12)
        np.testing.assert_allclose(frame.basis[0], v / 3.0, atol=1e-12)

    def test_spectral_reconstruction(self):
        rng = np.random.default_rng(70)
        base = Point(np.zeros(4), FLAT)
        raw = rng.standard_normal((4, 4))
        spd = raw @ raw.T + 0.1 * np.eye(4)
        frame = eigenframe(spd, base, 4)
        rebuilt = sum(lam * np.outer(row, row)
                      for lam, row in zip(frame.eigenvalues, frame.basis))
        np.testing.assert_allclose(rebuilt, spd, rtol=0.0, atol=1e-8)

    def test_eigen_residuals(self):
        rng = np.random.default_rng(71)
        base = Point(np.zeros(5), FLAT)
        raw = rng.standard_normal((5, 5))
        spd = raw @ raw.T + 0.1 * np.eye(5)
        frame = eigenframe(spd, base, 3)
        for lam, row in zip(frame.eigenvalues, frame.basis):
            assert np.linalg.norm(spd @ row - lam * row) <= 1e-8
            rayleigh = float(row @ spd @ row)
            assert abs(rayleigh - lam) <= 1e-8

    def test_sphere_chart_vectors_are_tangent(self):
        rng = np.random.default_rng(72)
        a = random_sphere_point(rng, 4)
        data = stacked(exp_map(a, random_tangent(rng, a, rng.uniform(0.1, 0.6)))
                       for _ in range(10))
        cov = local_covariance(a, data, KernelSpec())
        frame = eigenframe(cov, a, 2)
        assert frame.basis.shape == (2, 4) and not frame.basis.flags.writeable
        for row in frame.basis:
            assert abs(row @ a.coords) <= 1e-10
        gram = frame.basis @ frame.basis.T
        np.testing.assert_allclose(gram, np.eye(2), rtol=0.0, atol=1e-9)

    def test_rank_deficient(self):
        base = Point(np.zeros(3), FLAT)
        with pytest.raises(RankDeficientError, match=r"eigenvalue 2 is 1e-13$"):
            eigenframe(np.diag([1.0, 1e-13, 0.0]), base, 2)

    @pytest.mark.parametrize("cov, error, message", [
        (np.zeros((3, 2)), ValueError, "^covariance must be a square matrix$"),
        (np.eye(4), DimensionMismatchError, "^covariance and base point dimensions differ$"),
    ], ids=["non-square", "wider than the base"])
    def test_matrix_must_fit_the_base(self, cov, error, message):
        with pytest.raises(error, match=message):
            eigenframe(cov, Point(np.zeros(3), FLAT), 1)

    def test_eigenvector_along_the_sphere_point_is_refused(self):
        # x x^T has its one nonzero eigenvalue along x, normal to the tangent space at x
        x = Point(np.array([0.6, 0.0, 0.8]))
        with pytest.raises(RankDeficientError,
                           match="^eigenvector nearly normal to the tangent space$"):
            eigenframe(np.outer(x.coords, x.coords), x, 1)

    def test_degenerate_tie_flag(self):
        base = Point(np.zeros(3), FLAT)
        frame = eigenframe(np.diag([2.0, 1.0, 1.0]), base, 2)
        assert frame.degenerate
        clean = eigenframe(np.diag([2.0, 1.0, 0.5]), base, 2)
        assert not clean.degenerate

    def test_sign_convention(self):
        def assert_signed(frame, cov, base):
            # each row's first coordinate above 1e-12 in size is positive, and
            # each row is eigh's row or its exact negation
            raw = tangent_stats._top_frame_coords(cov[None], base.coords[None], base.chart,
                                                  frame.k)[0][0]
            for row, unsigned in zip(frame.basis, raw):
                assert row[np.abs(row) > 1e-12][0] > 0
                assert np.array_equal(row, unsigned) or np.array_equal(row, -unsigned)

        base = Point(np.zeros(2), FLAT)
        v = np.array([-1.0, 1.0]) / math.sqrt(2.0)
        frame = eigenframe(np.outer(v, v), base, 1)
        assert frame.basis[0][0] > 0
        assert_signed(frame, np.outer(v, v), base)
        base = Point(np.zeros(3), FLAT)
        # a leading coordinate of exactly 0, and one of size 1e-13, are passed over
        for lead in (0.0, 1e-13):
            v = np.array([lead, -0.6, 0.8])
            frame = eigenframe(np.outer(v, v), base, 1)
            assert frame.basis[0][1] > 0.5
            assert_signed(frame, np.outer(v, v), base)
        # a 3-row frame, each row with a negative first coordinate as built
        q = np.linalg.qr(np.array([[2.0, 1.0, 0.5], [0.3, -1.0, 2.0], [1.0, 0.7, -0.4]]))[0].T
        q *= -np.sign(q[:, :1])
        cov = q.T @ np.diag([3.0, 2.0, 1.0]) @ q
        frame = eigenframe(cov, base, 3)
        np.testing.assert_allclose(frame.basis, -q, atol=1e-12)
        assert_signed(frame, cov, base)

    def test_k_bounded_by_tangent_dimension(self):
        # S^2 in R^3 has 2 tangent directions; a flat chart of 2 columns has 2
        with pytest.raises(ValueError, match="tangent dimension 2"):
            eigenframe(np.diag([1.0, 1.0, 0.0]), Point(np.eye(3)[2], SPHERE), 3)
        with pytest.raises(ValueError, match="tangent dimension 2"):
            eigenframe(np.eye(2), Point(np.zeros(2), FLAT), 3)

    def test_rejects_asymmetric(self):
        base = Point(np.zeros(2), FLAT)
        with pytest.raises(ValueError):
            eigenframe(np.array([[1.0, 0.5], [0.0, 1.0]]), base, 1)
