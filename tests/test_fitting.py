"""Net growing: seeding, stepping, stop rules, full fits, variation score."""

import dataclasses
import math
import re
import tracemalloc
import types

import numpy as np
import pytest

from psm import fitting, geometry, tangent_stats
from psm.datagen import generate, write_dataset_csv
from psm.errors import (
    AntipodalPairError,
    DegenerateProjectionError,
    DimensionMismatchError,
    EmptyNeighborhoodError,
    RankDeficientError,
)
from psm.fitting import (
    FitConfig,
    Net,
    StopReason,
    Submanifold,
    _STEP_RTOL,
    _score_nets,
    fit_submanifold,
    net_length,
    seed_directions,
    step_net,
    stop_check,
    variation_score,
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
    project_to_sphere,
)
from psm.tangent_stats import (
    EigenFrame,
    KernelSpec,
    _GramData,
    eigenframe,
    frechet_mean,
    frechet_variance,
    local_covariance,
)
from psm.viz import project_submanifold

from helpers import random_sphere_point, random_tangent, stacked


def flat_points(rows):
    return PointArray(np.asarray(rows, dtype=float), FLAT)


def spy_gram_passes(monkeypatch, bases):
    """Record the number of base points of every Gram kernel pass, in the
    fit and in the one-center statistics of tangent_stats, into bases."""
    gram_level = tangent_stats._GramLevel

    def counted(cur, data, kernel):
        bases.append(len(cur))
        return gram_level(cur, data, kernel)

    for module in (fitting, tangent_stats):
        monkeypatch.setattr(module, "_GramLevel", counted)


def flat_cfg(**kw):
    kw.setdefault("epsilon", 0.01)
    kw.setdefault("delta", 0.2)
    kw.setdefault("kernel", KernelSpec())
    kw.setdefault("num_directions", 8)
    return FitConfig(**kw)


class TestFitConfig:
    def test_defaults(self):
        cfg = FitConfig()
        assert cfg.epsilon == 0.02
        assert cfg.delta == 0.2
        assert cfg.kernel.bandwidth == 0.4
        assert cfg.num_directions == 180
        assert cfg.max_net_length == 1.0
        assert cfg.dim == 2

    def test_epsilon_bounds(self):
        with pytest.raises(ValueError):
            FitConfig(epsilon=0.0)
        with pytest.raises(ValueError):
            FitConfig(epsilon=math.pi / 8)
        with pytest.raises(ValueError):
            FitConfig(epsilon=0.3, delta=0.2)

    def test_direction_count(self):
        with pytest.raises(ValueError):
            FitConfig(num_directions=2)
        with pytest.raises(ValueError):
            FitConfig(num_directions=18)
        FitConfig(num_directions=4)

    def test_dim_and_length(self):
        with pytest.raises(ValueError):
            FitConfig(dim=0)
        with pytest.raises(ValueError):
            FitConfig(max_net_length=0.0)

    @pytest.mark.parametrize("length", [math.inf, 1e308])
    def test_unbounded_derived_level_cap_rejected(self, length):
        with pytest.raises(ValueError, match="max_net_length / epsilon must be finite"):
            FitConfig(max_net_length=length)


class TestNetValidation:
    def test_requires_points(self):
        p = Point(np.zeros(2), FLAT)
        with pytest.raises(ValueError, match="PointArray"):
            Net(1, (p,), StopReason.LENGTH_EXCEEDED)
        with pytest.raises(ValueError):
            Net(1, PointArray(np.zeros((0, 2)), FLAT), StopReason.LENGTH_EXCEEDED)

    def test_requires_stop_reason_type(self):
        with pytest.raises(ValueError, match="StopReason"):
            Net(1, PointArray(np.zeros((1, 2)), FLAT), "length_exceeded")


class TestSeedDirections:
    def _flat_frame(self, ambient, rows, vals=None):
        base = Point(np.zeros(ambient), FLAT)
        cov = sum(l * np.outer(r, r) for l, r in
                  zip(vals or range(len(rows), 0, -1), rows))
        return base, eigenframe(np.asarray(cov, dtype=float), base, len(rows))

    def test_circle_fan_formula(self):
        e1 = np.array([1.0, 0, 0, 0])
        e2 = np.array([0, 1.0, 0, 0])
        base, frame = self._flat_frame(4, [e1, e2])
        cfg = flat_cfg(num_directions=12)
        seeds = seed_directions(base, frame, cfg)
        assert len(seeds) == 12
        for l, seed in enumerate(seeds, start=1):
            ang = 2.0 * math.pi * l / 12
            want = cfg.epsilon * (math.cos(ang) * e1 + math.sin(ang) * e2)
            np.testing.assert_allclose(seed.coords, want, rtol=0.0, atol=1e-15)
        # half-way index lands on -e1, last index on +e1
        np.testing.assert_allclose(seeds[5].coords, -cfg.epsilon * e1, atol=1e-15)
        np.testing.assert_allclose(seeds[11].coords, cfg.epsilon * e1, atol=1e-15)

    def test_one_direction_pair(self):
        e1 = np.array([1.0, 0, 0])
        base, frame = self._flat_frame(3, [e1])
        seeds = seed_directions(base, frame, flat_cfg())
        assert len(seeds) == 2
        np.testing.assert_allclose(seeds[0].coords, 0.01 * e1, atol=1e-15)
        np.testing.assert_allclose(seeds[1].coords, -0.01 * e1, atol=1e-15)

    def test_sphere_seeds_at_epsilon(self):
        rng = np.random.default_rng(90)
        start = random_sphere_point(rng, 4)
        data = stacked(exp_map(start, random_tangent(rng, start, rng.uniform(0.05, 0.4)))
                       for _ in range(30))
        cov = local_covariance(start, data, KernelSpec())
        frame = eigenframe(cov, start, 2)
        cfg = flat_cfg(epsilon=0.05, num_directions=16)
        seeds = seed_directions(start, frame, cfg)
        assert len(seeds) == 16
        for s in seeds:
            assert abs(geodesic_distance(start, s) - 0.05) <= 1e-12

    def test_frame_without_rows_is_refused(self):
        frame = EigenFrame(np.zeros((0, 3)), np.zeros(0))
        with pytest.raises(ValueError, match="^frame must hold at least one direction$"):
            seed_directions(Point(np.zeros(3), FLAT), frame, flat_cfg())

    def test_three_direction_grid(self):
        rows = [np.eye(5)[i] for i in range(3)]
        base, frame = self._flat_frame(5, rows)
        seeds = seed_directions(base, frame, flat_cfg(num_directions=20))
        assert len(seeds) == 20
        for s in seeds:
            assert np.linalg.norm(s.coords) == pytest.approx(0.01, abs=1e-12)
            assert abs(s.coords[3]) <= 1e-15 and abs(s.coords[4]) <= 1e-15
        again = seed_directions(base, frame, flat_cfg(num_directions=20))
        assert all(np.array_equal(a.coords, b.coords) for a, b in zip(seeds, again))

    def test_high_dim_grid_deterministic(self):
        rows = [np.eye(6)[i] for i in range(4)]
        base, frame = self._flat_frame(6, rows)
        seeds = seed_directions(base, frame, flat_cfg(num_directions=8))
        again = seed_directions(base, frame, flat_cfg(num_directions=8))
        assert len(seeds) == 8
        assert all(np.array_equal(a.coords, b.coords) for a, b in zip(seeds, again))


class TestStepNet:
    def test_step_length_is_epsilon(self):
        rng = np.random.default_rng(91)
        start = random_sphere_point(rng, 4)
        data = stacked(exp_map(start, random_tangent(rng, start, rng.uniform(0.05, 0.5)))
                       for _ in range(40))
        cfg = FitConfig(epsilon=0.03, delta=0.2, kernel=KernelSpec(),
                        num_directions=8)
        prev = start
        cur = exp_map(start, random_tangent(rng, start, 0.03))
        for _ in range(5):
            nxt = step_net(prev, cur, data, cfg)
            assert abs(geodesic_distance(cur, nxt) - 0.03) <= 1e-9
            prev, cur = cur, nxt

    def test_moves_away_from_previous(self):
        rng = np.random.default_rng(92)
        data = flat_points(rng.standard_normal((50, 3)))
        cfg = flat_cfg()
        prev = Point(np.zeros(3), FLAT)
        cur = Point(np.array([0.01, 0.0, 0.0]), FLAT)
        nxt = step_net(prev, cur, data, cfg)
        fwd = log_map(cur, nxt)
        back = log_map(cur, prev)
        assert float(fwd @ back) < 0.0

    def test_identical_points_rejected(self):
        p = Point(np.zeros(2), FLAT)
        data = flat_points([[0.1, 0.0], [-0.1, 0.0], [0.0, 0.1]])
        with pytest.raises(ValueError):
            step_net(p, p, data, flat_cfg())

    def test_step_that_rounds_onto_its_point_is_rejected(self):
        # 1e16 from the origin the spacing of floats is 2: an epsilon step
        # of 0.02 leaves the point as it was
        rng = np.random.default_rng(94)
        data = flat_points(rng.standard_normal((50, 3)) * [3.0, 2.0, 1.0] * 1e16)
        cur = Point(np.full(3, 1e16), FLAT)
        prev = Point(np.array([1e16 + 4e14, 1e16, 1e16]), FLAT)
        cfg = flat_cfg(epsilon=0.02, kernel=KernelSpec())
        with pytest.raises(ValueError, match=r"epsilon step of 0\.02 measures 0 after rounding, "
                           r"from a point whose largest \|coordinate\| is 1e\+16"):
            step_net(prev, cur, data, cfg)

    def test_k_above_tangent_dimension_is_eigenframes_error(self):
        # three flat columns carry a 3-dimensional tangent space: the step
        # refuses k = 4 with eigenframe's error, as the fit does
        data = flat_points(np.random.default_rng(95).standard_normal((30, 3)))
        cur = Point(np.zeros(3), FLAT)
        prev = Point(np.array([0.01, 0.0, 0.0]), FLAT)
        cfg = flat_cfg(dim=4)
        for call in (lambda: step_net(prev, cur, data, cfg),
                     lambda: fit_submanifold(data, cur, cfg)):
            with pytest.raises(ValueError,
                               match=r"^k must be between 1 and the tangent dimension 3$"):
                call()

    def test_degenerate_projection(self):
        # local span is the e1-e2 plane; backward direction along e3 projects to zero
        data = flat_points([[0.2, 0, 0], [-0.2, 0, 0], [0, 0.1, 0], [0, -0.1, 0]])
        cur = Point(np.zeros(3), FLAT)
        prev = Point(np.array([0.0, 0.0, 0.01]), FLAT)
        with pytest.raises(DegenerateProjectionError):
            step_net(prev, cur, data, flat_cfg())

    def test_empty_neighborhood_propagates(self):
        data = flat_points([[5.0, 0.0], [5.1, 0.2], [5.2, -0.1]])
        cur = Point(np.zeros(2), FLAT)
        prev = Point(np.array([0.01, 0.0]), FLAT)
        cfg = flat_cfg(kernel=KernelSpec("uniform_ball", 0.5))
        with pytest.raises(EmptyNeighborhoodError):
            step_net(prev, cur, data, cfg)

    def test_invariant_to_frame_sign(self):
        # the projector sums b_i <b_i, v>, so per-row sign flips cancel
        rng = np.random.default_rng(93)
        data = flat_points(rng.standard_normal((40, 4)) * [2.0, 1.0, 0.3, 0.1])
        cur = Point(np.zeros(4), FLAT)
        prev = Point(np.array([0.01, 0.004, 0.0, 0.0]), FLAT)
        cfg = flat_cfg()
        cov = local_covariance(cur, data, cfg.kernel)
        frame = eigenframe(cov, cur, 2)
        v = log_map(cur, prev)
        basis = frame.basis
        u = basis.T @ (basis @ v)
        u_flip = (-basis).T @ ((-basis) @ v)
        np.testing.assert_array_equal(u, u_flip)
        nxt = step_net(prev, cur, data, cfg)
        want = exp_map(cur, -cfg.epsilon * u / np.linalg.norm(u))
        np.testing.assert_allclose(nxt.coords, want.coords, rtol=0.0, atol=1e-12)


class TestStopCheck:
    def test_convex_hull_exit(self):
        nxt = Point(np.zeros(2), FLAT)
        cur = Point(np.array([-0.01, 0.0]), FLAT)
        data = flat_points([[-0.1, 0.05], [-0.3, 0.02], [-0.05, -0.04]])
        reason = stop_check(nxt, cur, data, flat_cfg(), net_len=0.05)
        assert reason is StopReason.CONVEX_HULL_EXIT

    def test_hull_exit_outranks_empty(self):
        # all points beyond delta AND in the backward half-space
        nxt = Point(np.zeros(2), FLAT)
        cur = Point(np.array([-0.01, 0.0]), FLAT)
        data = flat_points([[-0.5, 0.1], [-0.7, -0.2]])
        reason = stop_check(nxt, cur, data, flat_cfg(delta=0.2), net_len=0.0)
        assert reason is StopReason.CONVEX_HULL_EXIT

    def test_empty_neighborhood(self):
        nxt = Point(np.zeros(2), FLAT)
        cur = Point(np.array([-0.01, 0.0]), FLAT)
        data = flat_points([[0.5, 0.0], [-0.5, 0.1]])
        reason = stop_check(nxt, cur, data, flat_cfg(delta=0.2), net_len=0.0)
        assert reason is StopReason.EMPTY_NEIGHBORHOOD

    def test_length_exceeded(self):
        nxt = Point(np.zeros(2), FLAT)
        cur = Point(np.array([-0.01, 0.0]), FLAT)
        data = flat_points([[0.1, 0.0], [-0.1, 0.05]])
        cfg = flat_cfg(max_net_length=1.0)
        assert stop_check(nxt, cur, data, cfg, net_len=0.995) is StopReason.LENGTH_EXCEEDED
        assert stop_check(nxt, cur, data, cfg, net_len=0.9) is None

    def test_length_rule_is_strict(self):
        nxt = Point(np.zeros(2), FLAT)
        cur = Point(np.array([-0.01, 0.0]), FLAT)
        data = flat_points([[0.1, 0.0], [-0.1, 0.05]])
        cfg = flat_cfg(epsilon=0.25, delta=0.5, max_net_length=1.0)
        # 0.75 + 0.25 == 1.0 does not exceed
        assert stop_check(nxt, cur, data, cfg, net_len=0.75) is None

    def test_antipodal_guard(self):
        nxt = Point(np.array([1.0, 0.0, 0.0]))
        cur = exp_map(nxt, np.array([0.0, 0.01, 0.0]))
        data = stacked([Point(np.array([-1.0, 0.0, 0.0])), cur])
        reason = stop_check(nxt, cur, data, flat_cfg(), net_len=0.0)
        assert reason is StopReason.ANTIPODAL_GUARD


class TestFitFlow:
    def make_line_data(self, n=60, seed=94, spread=1.0, noise=0.01):
        rng = np.random.default_rng(seed)
        x = rng.uniform(-spread, spread, n)
        y = noise * rng.standard_normal(n)
        return flat_points(np.stack([x, y], axis=1))

    def test_two_nets_from_start(self):
        data = self.make_line_data()
        start = Point(np.zeros(2), FLAT)
        cfg = flat_cfg(epsilon=0.05, delta=0.5, dim=1, max_net_length=0.4)
        sub = fit_submanifold(data, start, cfg)
        assert isinstance(sub, Submanifold)
        assert len(sub.nets) == 2
        for net in sub.nets:
            assert np.array_equal(net.points[0].coords, start.coords)
            assert isinstance(net.stop_reason, StopReason)

    def test_steps_are_epsilon(self):
        data = self.make_line_data()
        start = Point(np.zeros(2), FLAT)
        cfg = flat_cfg(epsilon=0.05, delta=0.5, dim=1, max_net_length=0.4)
        sub = fit_submanifold(data, start, cfg)
        for net in sub.nets:
            for a, b in zip(net.points, net.points[1:]):
                assert abs(geodesic_distance(a, b) - 0.05) <= 1e-9

    def test_forward_motion(self):
        data = self.make_line_data()
        start = Point(np.zeros(2), FLAT)
        cfg = flat_cfg(epsilon=0.05, delta=0.5, dim=1, max_net_length=0.4)
        sub = fit_submanifold(data, start, cfg)
        for net in sub.nets:
            pts = net.points
            assert len(pts) >= 3
            for i in range(1, len(pts) - 1):
                fwd = log_map(pts[i], pts[i + 1])
                back = log_map(pts[i], pts[i - 1])
                assert float(fwd @ back) < 0.0

    def test_length_rule_window(self):
        data = self.make_line_data()
        start = Point(np.zeros(2), FLAT)
        cfg = flat_cfg(epsilon=0.05, delta=0.5, dim=1, max_net_length=0.18)
        sub = fit_submanifold(data, start, cfg)
        for net in sub.nets:
            assert net.stop_reason is StopReason.LENGTH_EXCEEDED
            total = net_length(net)
            assert cfg.max_net_length < total <= cfg.max_net_length + cfg.epsilon + 1e-12

    def test_hull_exit_on_tight_blob(self):
        rng = np.random.default_rng(95)
        data = flat_points(0.05 * rng.standard_normal((40, 2)))
        start = Point(np.zeros(2), FLAT)
        cfg = flat_cfg(epsilon=0.02, delta=0.5, dim=1, max_net_length=5.0)
        sub = fit_submanifold(data, start, cfg)
        for net in sub.nets:
            assert net.stop_reason is StopReason.CONVEX_HULL_EXIT

    def test_circle_flow_stays_on_sphere(self):
        rng = np.random.default_rng(96)
        angles = rng.uniform(-1.0, 1.0, 50)
        data = PointArray([[math.cos(a), math.sin(a)] for a in angles])
        start = Point(np.array([1.0, 0.0]))
        cfg = flat_cfg(epsilon=0.05, delta=0.5, dim=1, max_net_length=0.5)
        sub = fit_submanifold(data, start, cfg)
        for net in sub.nets:
            for p in net.points:
                assert abs(np.linalg.norm(p.coords) - 1.0) <= 1e-12


class TestFitSubmanifold:
    def sphere_cluster(self, seed=97, n=50):
        rng = np.random.default_rng(seed)
        start = random_sphere_point(rng, 4)
        data = stacked(exp_map(start, random_tangent(rng, start, rng.uniform(0.0, 0.35)))
                       for _ in range(n))
        return start, data

    def test_fan_of_nets(self):
        start, data = self.sphere_cluster()
        cfg = FitConfig(epsilon=0.05, delta=0.4, kernel=KernelSpec(),
                        num_directions=8, max_net_length=0.6)
        sub = fit_submanifold(data, start, cfg)
        assert len(sub.nets) == 8
        assert [n.direction_index for n in sub.nets] == list(range(1, 9))
        for net in sub.nets:
            assert np.array_equal(net.points[0].coords, start.coords)
            for a, b in zip(net.points, net.points[1:]):
                assert abs(geodesic_distance(a, b) - 0.05) <= 1e-9

    def test_dim_one_delegates_to_flow(self):
        start, data = self.sphere_cluster()
        cfg = flat_cfg(epsilon=0.05, delta=0.4, dim=1, max_net_length=0.6)
        sub = fit_submanifold(data, start, cfg)
        assert len(sub.nets) == 2

    def test_flow_start_frame_also_holds_the_projection_rows(self):
        # k = 1 on S^3: the start frame carries the three rows the projection
        # reads, and the two seeds sit at +/- epsilon along its first row only
        start, data = self.sphere_cluster()
        cfg = flat_cfg(epsilon=0.05, delta=0.4, dim=1, max_net_length=0.6)
        sub = fit_submanifold(data, start, cfg)
        frame = sub.frame_at_start
        assert frame.k == 3
        np.testing.assert_array_equal(
            frame.basis, eigenframe(local_covariance(start, data, cfg.kernel), start, 3).basis)
        for net, sign in zip(sub.nets, (1.0, -1.0)):
            np.testing.assert_array_equal(
                net.points[1].coords, exp_map(start, sign * cfg.epsilon * frame.basis[0]).coords)

    def test_fan_matches_reference_path(self):
        # Replay every net from its seed with the public step_net and
        # stop_check, which take their own logs, in the growth loop's stop
        # order, the seed's check first.  The fit shares one log pass per net
        # point between the two and must give the same bits.  The replay sums
        # measured step lengths for the length rule, where the fit counts steps.
        data, _ = generate("sea_wave", 200, 1)
        start = frechet_mean(data)
        cfg = FitConfig(num_directions=16)
        sub = fit_submanifold(data, start, cfg)
        seeds = seed_directions(start, sub.frame_at_start, cfg)
        for net, seed in zip(sub.nets, seeds):
            pts = [start, seed]
            reason = stop_check(seed, start, data, cfg, 0.0)
            net_len = geodesic_distance(start, seed)
            while reason is None:
                try:
                    cand = step_net(pts[-2], pts[-1], data, cfg)
                except EmptyNeighborhoodError:
                    reason = StopReason.EMPTY_NEIGHBORHOOD
                    break
                except (DegenerateProjectionError, RankDeficientError):
                    reason = StopReason.DEGENERATE_PROJECTION
                    break
                except AntipodalPairError:
                    reason = StopReason.ANTIPODAL_GUARD
                    break
                reason = stop_check(cand, pts[-1], data, cfg, net_len)
                net_len += geodesic_distance(pts[-1], cand)
                pts.append(cand)
            assert reason is net.stop_reason
            assert np.array_equal(stacked(pts).coords, net.points.coords)

    @pytest.mark.parametrize("layout, reason", [
        ("edge", StopReason.CONVEX_HULL_EXIT),
        ("gap", StopReason.EMPTY_NEIGHBORHOOD),
    ], ids=["edge", "gap"])
    def test_seed_is_stop_checked(self, layout, reason):
        # A flat 4 x 2 grid: started 0.01 inside its right edge, the seed
        # that points out along e1 has every data point behind it; started
        # in a gap cut between the grid's halves, at least 0.3 from either,
        # no seed has data within delta.  Such a net ends on its seed, as
        # stop_check says.
        xs = np.stack(np.meshgrid(np.linspace(-2.0, 2.0, 41),
                                  np.linspace(-1.0, 1.0, 21)), axis=-1).reshape(-1, 2)
        if layout == "edge":
            start = Point(np.array([1.99, 0.0]), FLAT)
        else:
            xs = xs + np.where(xs[:, :1] > 0.0, 0.3, -0.3) * [1.0, 0.0]
            start = Point(np.array([0.0, 0.0]), FLAT)
        data = PointArray(xs, FLAT)
        cfg = flat_cfg(epsilon=0.02, delta=0.25, max_net_length=0.2)
        sub = fit_submanifold(data, start, cfg)
        fired = []
        for net, seed in zip(sub.nets, seed_directions(start, sub.frame_at_start, cfg)):
            at_seed = stop_check(seed, start, data, cfg, 0.0)
            if at_seed is not None:
                fired.append(at_seed)
                assert net.stop_reason is at_seed
                assert np.array_equal(points_matrix(net.points),
                                      np.stack([start.coords, seed.coords]))
            else:
                assert len(net.points) > 2
        assert fired and set(fired) == {reason}

    def test_fit_on_a_point_array_builds_no_point(self, monkeypatch):
        data, _ = generate("sea_wave", 200, 1)
        start = frechet_mean(data)
        built = []
        post_init = Point.__post_init__

        def counted(point):
            built.append(point)
            post_init(point)

        monkeypatch.setattr(Point, "__post_init__", counted)
        sub = fit_submanifold(data, start, FitConfig(num_directions=16))
        assert built == []
        # each net is one PointArray; a Point is built only when one is asked for
        assert all(isinstance(net.points, PointArray) for net in sub.nets)
        assert isinstance(sub.nets[0].points[-1], Point) and len(built) == 1

    def count_log_bases(self, monkeypatch, nets_per_chunk=None):
        """Fit the sphere cluster while recording the number of base points
        of every Gram kernel pass; returns (sub, data, bases, chunks)."""
        start, data = self.sphere_cluster()
        xs = points_matrix(data)
        if nets_per_chunk is not None:
            monkeypatch.setattr(tangent_stats, "_LEVEL_ARRAY_BYTES", nets_per_chunk * 8 * len(xs))
        cfg = FitConfig(epsilon=0.05, delta=0.4, kernel=KernelSpec(),
                        num_directions=8, max_net_length=0.6)
        bases = []
        spy_gram_passes(monkeypatch, bases)
        sub = fit_submanifold(data, start, cfg)
        return sub, data, bases, fitting._chunks(len(sub.nets), _GramData(xs, SPHERE))

    def test_one_log_pass_per_net_point(self, monkeypatch):
        sub, data, bases, chunks = self.count_log_bases(monkeypatch)
        # one base point at the start for the seeding frame, then one per net point
        assert sum(bases) == 1 + sum(len(net.points) - 1 for net in sub.nets)
        # one batched call per level: all 8 nets share one chunk
        assert len(chunks) == 1
        assert len(bases) == 1 + max(len(net.points) - 1 for net in sub.nets)
        # the fit scored its own nets from those logs
        bases.clear()
        variation_score(sub, data)
        assert bases == []

    def test_one_log_call_per_level_of_each_chunk(self, monkeypatch):
        sub, _, bases, chunks = self.count_log_bases(monkeypatch, nets_per_chunk=3)
        assert [len(chunk) for chunk in chunks] == [3, 3, 2]
        assert sum(bases) == 1 + sum(len(net.points) - 1 for net in sub.nets)
        levels = sum(max(len(sub.nets[i].points) - 1 for i in chunk) for chunk in chunks)
        assert len(bases) == 1 + levels

    def test_one_eigen_solve_per_level_of_each_chunk(self, monkeypatch):
        # a level's score frames and step frames come from one stacked eigh,
        # and so do a rescored level's score frames
        solves = []
        eigh = np.linalg.eigh

        def counted(cov):
            solves.append(len(cov))
            return eigh(cov)

        monkeypatch.setattr(np.linalg, "eigh", counted)
        sub, data, _, chunks = self.count_log_bases(monkeypatch, nets_per_chunk=3)
        assert [len(chunk) for chunk in chunks] == [3, 3, 2]
        levels = sum(max(len(sub.nets[i].points) - 1 for i in chunk) for chunk in chunks)
        # the seeding frame, then one solve per level
        assert len(solves) == 1 + levels
        points = sum(len(net.points) - 1 for net in sub.nets)
        # every point's score frame, and a step frame for each point that steps
        steps = sum(len(net.points) - 2 for net in sub.nets)
        assert sum(solves) == 1 + points + steps
        solves.clear()
        _score_nets(sub, points_matrix(data))
        assert len(solves) == levels and sum(solves) == points

    @pytest.mark.parametrize("layout", [SPHERE, FLAT, "wide"])
    def test_results_do_not_depend_on_chunking(self, monkeypatch, layout):
        # Each net grown in a chunk of its own equals the same net grown
        # inside the full fan, bit for bit, and so does its score.
        if layout == "wide":
            # 24 coordinates over 60 rows: the covariance builds the weighted
            # product of each net of the shared chunk in turn
            rng = np.random.default_rng(99)
            center = random_sphere_point(rng, 24)
            raw = rng.standard_normal((60, 24)) * np.linspace(0.1, 0.01, 24)
            vecs = raw - np.outer(raw @ center.coords, center.coords)
            data = PointArray(np.stack([exp_map(center, v).coords
                                        for v in vecs]))
        else:
            data, _ = generate("sea_wave", 200, 1)
        if layout == FLAT:
            # the sheet's log images at its Frechet mean: a planar flat cloud
            mean = frechet_mean(data)
            data = flat_points([log_map(mean, p) for p in data])
        start = frechet_mean(data)
        cfg = FitConfig(num_directions=16)
        fan = fit_submanifold(data, start, cfg)
        assert len(fitting._chunks(16, _GramData(points_matrix(data), start.chart))) == 1
        monkeypatch.setattr(tangent_stats, "_LEVEL_ARRAY_BYTES", 1)
        assert len(fitting._chunks(16, _GramData(points_matrix(data), start.chart))) == 16
        alone = fit_submanifold(data, start, cfg)
        assert len({net.stop_reason for net in fan.nets}) > 1
        for a, b in zip(fan.nets, alone.nets):
            assert a.direction_index == b.direction_index
            assert a.stop_reason is b.stop_reason
            assert np.array_equal(points_matrix(a.points), points_matrix(b.points))
        assert variation_score(alone, data) == variation_score(fan, data)

    def test_chunk_size_follows_the_largest_per_net_array(self):
        # the procrustes shape: 3000 preshapes of 13 landmarks, 26 coordinates;
        # a net's kernel row of 3000 outweighs its 26 x 26 covariance, so the
        # width does not change the chunks
        chunks = fitting._chunks(180, _GramData(np.zeros((3000, 26)), SPHERE))
        assert len(chunks) == 14 and all(len(chunk) == 13 for chunk in chunks[:-1])
        assert len(chunks[-1]) == 11
        assert fitting._chunks(180, _GramData(np.zeros((3000, 3)), SPHERE)) == chunks
        # the wide_flow shape: the two nets of a flow over 20,000 rows share one
        assert fitting._chunks(2, _GramData(np.zeros((20000, 4)), SPHERE)) == [range(0, 2)]
        # 100 preshapes of 200 landmarks: each net's 400 x 400 covariance
        # arrays (1.28 MB) exceed the budget, so every net grows alone
        wide = _GramData(np.zeros((100, 400)), SPHERE)
        assert fitting._chunks(180, wide) == [range(i, i + 1) for i in range(180)]

    @pytest.mark.parametrize("shape, batch", [
        ((200, 3), 68), ((20000, 4), 1), ((3000, 26), 1), ((100, 400), 1)])
    def test_covariance_sub_batch_follows_the_weighted_copy(self, shape, batch):
        # the sheet, wide_flow and procrustes shapes and a wide one: the
        # covariance weights data.batch (m, n) copies of the data per call
        assert _GramData(np.zeros(shape), SPHERE).batch == batch

    def test_weighted_stack_never_exceeds_the_budget(self):
        # a stack of more than one copy stays within the level budget, and
        # one more copy would pass it
        for n in (1, 7, 60, 200, 640, 1000, 5000):
            for m in (2, 3, 4, 26, 40):
                size = 8 * m * n
                batch = _GramData(np.zeros((n, m)), SPHERE).batch
                assert batch == 1 or batch * size <= tangent_stats._LEVEL_ARRAY_BYTES
                assert (batch + 1) * size > tangent_stats._LEVEL_ARRAY_BYTES
        # and the covariance of a full sheet chunk allocates no more than its
        # (nets, n) weights, one stack of batch copies and (loosely) 32 arrays
        # of (nets, m, m); 180 copies at once would pass that by 0.6 MB
        data, _ = generate("sea_wave", 200, 1)
        xs = points_matrix(data)
        bases = xs[:180]
        lv = tangent_stats._GramLevel(bases, _GramData(xs, SPHERE), KernelSpec("gaussian", 0.4))
        tracemalloc.start()
        try:
            lv.covariance()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 8 * 180 * (200 + 32 * 3 * 3) + tangent_stats._LEVEL_ARRAY_BYTES

    def test_stored_score_matches_level_batched_driver(self, monkeypatch):
        data, _ = generate("sea_wave", 200, 1)
        start = frechet_mean(data)
        sub = fit_submanifold(data, start, FitConfig(num_directions=16))
        stored = variation_score(sub, data)
        copy = dataclasses.replace(sub)
        assert copy._fit_score is None
        calls = []
        spy_gram_passes(monkeypatch, calls)
        rescored = variation_score(copy, data)
        assert sum(calls) == sum(len(net.points) - 1 for net in sub.nets)
        assert rescored == stored
        # other data is scored afresh, and the stored score is kept
        calls.clear()
        fewer = variation_score(sub, data[:-1])
        assert calls
        assert fewer != stored
        assert fewer == variation_score(copy, data[:-1])
        # an equal but distinct copy of the data is no longer the fit's own:
        # it is rescored, to the stored score, with one pass per net point
        calls.clear()
        twin = PointArray(data.coords.copy())
        assert variation_score(sub, twin) == stored
        assert sum(calls) == sum(len(net.points) - 1 for net in sub.nets)
        # the fit's own data takes no pass
        calls.clear()
        assert variation_score(sub, data) is stored
        assert not calls

    def test_rank_deficient_start(self):
        rng = np.random.default_rng(98)
        x = rng.standard_normal(30)
        data = flat_points(np.stack([x, np.zeros(30), np.zeros(30)], axis=1))
        start = Point(np.zeros(3), FLAT)
        with pytest.raises(RankDeficientError):
            fit_submanifold(data, start, flat_cfg(dim=2))

    def test_ambient_mismatch(self):
        data = flat_points([[0.1, 0.0], [-0.1, 0.0], [0.0, 0.1]])
        start = Point(np.zeros(3), FLAT)
        with pytest.raises(DimensionMismatchError):
            fit_submanifold(data, start, flat_cfg())

    @pytest.mark.parametrize("mismatch", ["width", "chart", "list"])
    @pytest.mark.parametrize("entry", [
        "fit_submanifold", "step_net", "stop_check", "local_covariance",
        "frechet_variance", "project_submanifold", "variation_score"])
    def test_data_must_share_the_base_point_space(self, entry, mismatch):
        # 30 flat rows against a flat base of another width, or against a
        # sphere base of the same width: each entry names the mismatch.  The
        # same rows as a list of Points, in the base's space, are no point set.
        rng = np.random.default_rng(97)
        if mismatch == "width":
            data = PointArray(rng.standard_normal((30, 2)), FLAT)
            base, near = Point(np.zeros(3), FLAT), Point(np.array([0.01, 0.0, 0.0]), FLAT)
        elif mismatch == "chart":
            data = PointArray(rng.standard_normal((30, 3)), FLAT)
            base, near = Point(np.array([0.0, 0.0, 1.0])), project_to_sphere([0.01, 0.0, 1.0])
        else:
            data = list(PointArray(rng.standard_normal((30, 3)), FLAT))
            base, near = Point(np.zeros(3), FLAT), Point(np.array([0.01, 0.0, 0.0]), FLAT)
        cfg = flat_cfg()
        sub = Submanifold(base, (), None, cfg)
        calls = {
            "fit_submanifold": lambda: fit_submanifold(data, base, cfg),
            "step_net": lambda: step_net(near, base, data, cfg),
            "stop_check": lambda: stop_check(near, base, data, cfg, 0.0),
            "local_covariance": lambda: local_covariance(base, data, cfg.kernel),
            "frechet_variance": lambda: frechet_variance(base, data),
            "project_submanifold": lambda: project_submanifold(sub, data),
            "variation_score": lambda: variation_score(sub, data),
        }
        if mismatch == "list":
            with pytest.raises(TypeError, match="^a point set must be a PointArray, not list$"):
                calls[entry]()
        else:
            with pytest.raises(DimensionMismatchError, match="different spaces"):
                calls[entry]()

    @pytest.mark.parametrize("previous", [
        Point(np.array([0.0, 0.1, 0.0, 1.0]), FLAT),
        Point(np.array([0.0, 0.1, 0.0, 0.0, 1.0]) / math.sqrt(1.01))],
        ids=["flat chart", "wider sphere"])
    def test_previous_point_must_share_the_current_point_space(self, previous):
        # data around a sphere point of S^3, and a previous point on the flat
        # chart of the same width, or on the sphere of a wider space
        rng = np.random.default_rng(97)
        cur = Point(np.array([0.0, 0.0, 0.0, 1.0]))
        xs = cur.coords + 0.2 * rng.standard_normal((30, 4))
        data = PointArray(xs / np.linalg.norm(xs, axis=1)[:, None])
        with pytest.raises(DimensionMismatchError, match="different spaces"):
            step_net(previous, cur, data, FitConfig(kernel=KernelSpec()))

    @pytest.mark.parametrize("entry", ["frechet_mean", "write_dataset_csv"])
    def test_point_sets_without_a_base_must_be_point_arrays(self, tmp_path, entry):
        data = list(PointArray(np.random.default_rng(97).standard_normal((30, 3)), FLAT))
        calls = {
            "frechet_mean": lambda: frechet_mean(data),
            "write_dataset_csv": lambda: write_dataset_csv(data, tmp_path / "d.csv"),
        }
        with pytest.raises(TypeError, match="^a point set must be a PointArray, not list$"):
            calls[entry]()
        assert not (tmp_path / "d.csv").exists()

    @pytest.mark.parametrize("scale, shift, epsilon", [(1e16, 0.0, 0.02), (1.0, 1e14, 0.005)])
    def test_seeds_that_round_onto_the_start_are_rejected(self, scale, shift, epsilon):
        # far from the origin every seed rounds onto the start, whose void
        # backward directions would pass the hull test and void the score
        xs = np.random.default_rng(2).standard_normal((200, 3)) * [3.0, 2.0, 1.0] * scale + shift
        data = PointArray(xs, FLAT)
        start = Point(xs.mean(axis=0), FLAT)
        cfg = flat_cfg(epsilon=epsilon, kernel=KernelSpec(), num_directions=16)
        size = f"{np.abs(start.coords).max():.3g}"
        with pytest.raises(ValueError, match=f"epsilon step of {epsilon!r} measures 0 after "
                           "rounding, from a point whose largest \\|coordinate\\| is "
                           f"{re.escape(size)};"):
            fit_submanifold(data, start, cfg)

    def test_steps_that_partly_round_are_rejected(self):
        # 5e13 from the origin the spacing of floats is 0.0078: the seeds'
        # 0.02 steps measure 0.0175 to 0.0234, and the length rule would
        # count each as 0.02
        xs = np.random.default_rng(2).standard_normal((200, 3)) * [3.0, 2.0, 1.0] + 5e13
        start = Point(xs.mean(axis=0), FLAT)
        cfg = flat_cfg(epsilon=0.02, kernel=KernelSpec(), num_directions=16)
        with pytest.raises(ValueError, match=r"epsilon step of 0\.02 measures (\S+) after "
                           r"rounding, from a point whose largest \|coordinate\| is 5e\+13;"
                           ) as info:
            fit_submanifold(PointArray(xs, FLAT), start, cfg)
        measured = float(re.search(r"measures (\S+) after", str(info.value)).group(1))
        assert abs(measured - 0.02) > _STEP_RTOL * 0.02

    def test_stop_levels_do_not_depend_on_an_offset(self):
        # The length rule counts epsilon-steps, so shifting a flat cloud far
        # from the origin, which rounds every measured step length
        # differently, stops each net at the same level for the same reason.
        xs = np.random.default_rng(5).standard_normal((200, 3)) * [1.0, 0.5, 0.1]
        cfg = flat_cfg(epsilon=0.02, delta=3.0, num_directions=16)

        def stops(offset):
            shifted = xs + offset
            sub = fit_submanifold(PointArray(shifted, FLAT),
                                  Point(shifted.mean(axis=0), FLAT), cfg)
            return [(net.stop_reason, len(net.points)) for net in sub.nets]

        base = stops(0.0)
        assert base == [(StopReason.LENGTH_EXCEEDED, 52)] * 16
        assert stops(1e6) == base
        assert stops(1e8) == base


class TestNetLength:
    def test_single_point(self):
        p = PointArray(np.zeros((1, 2)), FLAT)
        assert net_length(Net(1, p, StopReason.LENGTH_EXCEEDED)) == 0.0

    def test_polyline_sum(self):
        pts = PointArray([[float(i), 0.0] for i in range(4)], FLAT)
        assert net_length(Net(1, pts, StopReason.LENGTH_EXCEEDED)) == pytest.approx(3.0)

    def test_fitted_net_builds_no_point(self, monkeypatch):
        data, _ = generate("sea_wave", 200, 1)
        sub = fit_submanifold(data, frechet_mean(data), FitConfig(num_directions=8))
        built = []
        post_init = Point.__post_init__

        def counted(point):
            built.append(point)
            post_init(point)

        monkeypatch.setattr(Point, "__post_init__", counted)
        assert net_length(sub.nets[0]) > 0.0
        assert built == []


class TestVariationScore:
    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_flat_infinite_kernel_reduces_to_pca(self, k):
        # A cap of L - 1 steps stops every net at level L, so the quadrature
        # covers the k-ball of radius L * epsilon: exactly for k = 1 and 2,
        # and with the midpoint rule's factor 1 - 1/(4 L^2) for k = 3.
        rng = np.random.default_rng(99)
        xs = rng.standard_normal((80, 3)) * [1.5, 0.6, 0.3]
        data = flat_points(xs)
        start = Point(xs.mean(axis=0), FLAT)
        levels = 8
        cfg = flat_cfg(epsilon=0.05, delta=3.0, dim=k, num_directions=8,
                       max_net_length=(levels - 1) * 0.05)
        sub = fit_submanifold(data, start, cfg)
        assert all(net.stop_reason is StopReason.LENGTH_EXCEEDED for net in sub.nets)
        assert all(len(net.points) == levels + 1 for net in sub.nets)
        score = variation_score(sub, data)
        assert score.skipped == 0
        centered = xs - xs.mean(axis=0)
        lam = np.linalg.eigvalsh(centered.T @ centered / len(xs))[::-1]
        radius = levels * cfg.epsilon
        ball = math.pi ** (k / 2) / math.gamma(k / 2 + 1) * radius ** k
        midpoint = 1.0 - 1.0 / (4 * levels ** 2) if k == 3 else 1.0
        assert score.total == pytest.approx(lam[:k].sum() * ball * midpoint, rel=1e-9)

    def test_total_is_sum_of_per_net(self):
        rng = np.random.default_rng(100)
        xs = rng.standard_normal((50, 2))
        data = flat_points(xs)
        start = Point(xs.mean(axis=0), FLAT)
        cfg = flat_cfg(epsilon=0.05, delta=3.0, dim=1, max_net_length=0.3)
        sub = fit_submanifold(data, start, cfg)
        score = variation_score(sub, data)
        assert len(score.per_net) == 2
        assert score.total == pytest.approx(sum(score.per_net), rel=1e-12)
        assert score.total > 0.0

    def test_repeated_net_point_is_skipped(self):
        # a hand-built net that repeats a point has no backward direction
        # there: the point is left unscored, with no division by zero
        rng = np.random.default_rng(101)
        xs = rng.standard_normal((50, 2))
        data = PointArray(xs, FLAT)
        cfg = flat_cfg(epsilon=0.05, delta=3.0, dim=1, max_net_length=0.3)
        sub = fit_submanifold(data, Point(xs.mean(axis=0), FLAT), cfg)
        first = sub.nets[0]
        path = first.points.coords
        repeated = Net(1, PointArray(np.concatenate([path[:3], path[2:]]), FLAT),
                       first.stop_reason)
        score = variation_score(dataclasses.replace(sub, nets=(repeated,) + sub.nets[1:]), data)
        fitted = variation_score(sub, data)
        assert score.skipped == fitted.skipped + 1
        assert score.per_net == fitted.per_net

    def test_antipodal_guard_point_is_skipped(self):
        # A data point antipodal to net 1's level-3 point stops that net there
        # with antipodal_guard (it lies far outside every kernel ball, so the
        # path up to it is unchanged); the score cannot take logs at that
        # point, counts it as skipped and still scores the finished fit.
        data, _ = generate("sea_wave", 200, 1)
        start = frechet_mean(data)
        cfg = FitConfig(dim=1)
        net1 = next(n for n in fit_submanifold(data, start, cfg).nets if n.direction_index == 1)
        tip = net1.points[3]
        data = PointArray(np.concatenate([data.coords, -tip.coords[None]]))
        sub = fit_submanifold(data, start, cfg)
        net1 = next(n for n in sub.nets if n.direction_index == 1)
        assert net1.stop_reason is StopReason.ANTIPODAL_GUARD
        assert len(net1.points) == 4
        np.testing.assert_array_equal(net1.points[3].coords, tip.coords)
        score = variation_score(sub, data)
        assert score.skipped == 1
        assert score.total == pytest.approx(sum(score.per_net), rel=1e-12)
        assert score.per_net[0] > 0.0


def test_numeric_core_reads_only_pi_from_math(monkeypatch):
    # Every step of the row kernels is a stacked matmul or a numpy ufunc: with
    # the math module that psm.geometry sees cut down to pi, a sphere fit, the
    # rescoring of an equal copy of its data, net lengths and distances all run.
    monkeypatch.setattr(geometry, "math", types.SimpleNamespace(pi=math.pi))
    data, _ = generate("sea_wave", 60, 3)
    sub = fit_submanifold(data, frechet_mean(data), FitConfig(num_directions=8))
    twin = PointArray(data.coords.copy())
    assert variation_score(sub, twin) == variation_score(sub, data)
    assert all(net_length(net) > 0.0 for net in sub.nets)
    assert 0.0 < geodesic_distance(data[0], data[1]) < math.pi
