"""Net growing: seeding, stepping, stop rules, full fits, variation score."""

import dataclasses
import math

import numpy as np
import pytest

from psm import fitting
from psm.datagen import GenSpec, generate
from psm.errors import (
    AntipodalPairError,
    DegenerateProjectionError,
    EmptyNeighborhoodError,
    RankDeficientError,
)
from psm.fitting import (
    FitConfig,
    Net,
    StopReason,
    Submanifold,
    fit_flow,
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
    Tangent,
    exp_map,
    geodesic_distance,
    log_map,
    points_matrix,
)
from psm.tangent_stats import KernelSpec, eigenframe, frechet_mean, local_covariance

from helpers import random_sphere_point, random_tangent


def flat_points(rows):
    return [Point(np.asarray(r, dtype=float), FLAT) for r in rows]


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
        assert cfg.max_levels == math.ceil(10 * 1.0 / 0.02)

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
        with pytest.raises(ValueError):
            FitConfig(max_levels=0)

    def test_explicit_level_cap_kept(self):
        assert FitConfig(max_levels=7).max_levels == 7

    @pytest.mark.parametrize("length", [math.inf, 1e308])
    def test_unbounded_derived_level_cap_rejected(self, length):
        with pytest.raises(ValueError, match="max_levels"):
            FitConfig(max_net_length=length)


class TestNetValidation:
    def test_requires_points(self):
        with pytest.raises(ValueError):
            Net(1, (), StopReason.LEVEL_CAP)

    def test_requires_stop_reason_type(self):
        p = Point(np.zeros(2), FLAT)
        with pytest.raises(ValueError):
            Net(1, (p,), "level_cap")


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
        data = [exp_map(start, random_tangent(rng, start, rng.uniform(0.05, 0.4)))
                for _ in range(30)]
        cov = local_covariance(start, data, KernelSpec())
        frame = eigenframe(cov, start, 2)
        cfg = flat_cfg(epsilon=0.05, num_directions=16)
        seeds = seed_directions(start, frame, cfg)
        assert len(seeds) == 16
        for s in seeds:
            assert abs(geodesic_distance(start, s) - 0.05) <= 1e-12

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
        data = [exp_map(start, random_tangent(rng, start, rng.uniform(0.05, 0.5)))
                for _ in range(40)]
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
        fwd = log_map(cur, nxt).vec
        back = log_map(cur, prev).vec
        assert float(fwd @ back) < 0.0

    def test_identical_points_rejected(self):
        p = Point(np.zeros(2), FLAT)
        data = flat_points([[0.1, 0.0], [-0.1, 0.0], [0.0, 0.1]])
        with pytest.raises(ValueError):
            step_net(p, p, data, flat_cfg())

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
        v = log_map(cur, prev).vec
        basis = frame.basis()
        u = basis.T @ (basis @ v)
        u_flip = (-basis).T @ ((-basis) @ v)
        np.testing.assert_array_equal(u, u_flip)
        nxt = step_net(prev, cur, data, cfg)
        want = exp_map(cur, Tangent(cur, -cfg.epsilon * u / np.linalg.norm(u)))
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
        cur = exp_map(nxt, Tangent(nxt, np.array([0.0, 0.01, 0.0])))
        data = [Point(np.array([-1.0, 0.0, 0.0])), cur]
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
        sub = fit_flow(data, start, cfg)
        assert isinstance(sub, Submanifold)
        assert len(sub.nets) == 2
        for net in sub.nets:
            assert np.array_equal(net.points[0].coords, start.coords)
            assert isinstance(net.stop_reason, StopReason)

    def test_steps_are_epsilon(self):
        data = self.make_line_data()
        start = Point(np.zeros(2), FLAT)
        cfg = flat_cfg(epsilon=0.05, delta=0.5, dim=1, max_net_length=0.4)
        sub = fit_flow(data, start, cfg)
        for net in sub.nets:
            for a, b in zip(net.points, net.points[1:]):
                assert abs(geodesic_distance(a, b) - 0.05) <= 1e-9

    def test_forward_motion(self):
        data = self.make_line_data()
        start = Point(np.zeros(2), FLAT)
        cfg = flat_cfg(epsilon=0.05, delta=0.5, dim=1, max_net_length=0.4)
        sub = fit_flow(data, start, cfg)
        for net in sub.nets:
            pts = net.points
            assert len(pts) >= 3
            for i in range(1, len(pts) - 1):
                fwd = log_map(pts[i], pts[i + 1]).vec
                back = log_map(pts[i], pts[i - 1]).vec
                assert float(fwd @ back) < 0.0

    def test_length_rule_window(self):
        data = self.make_line_data()
        start = Point(np.zeros(2), FLAT)
        cfg = flat_cfg(epsilon=0.05, delta=0.5, dim=1, max_net_length=0.18)
        sub = fit_flow(data, start, cfg)
        for net in sub.nets:
            assert net.stop_reason is StopReason.LENGTH_EXCEEDED
            total = net_length(net)
            assert cfg.max_net_length < total <= cfg.max_net_length + cfg.epsilon + 1e-12

    def test_level_cap(self):
        data = self.make_line_data()
        start = Point(np.zeros(2), FLAT)
        cfg = flat_cfg(epsilon=0.05, delta=0.5, dim=1,
                       max_net_length=10.0, max_levels=3)
        sub = fit_flow(data, start, cfg)
        for net in sub.nets:
            assert net.stop_reason is StopReason.LEVEL_CAP
            assert len(net.points) == 4

    def test_hull_exit_on_tight_blob(self):
        rng = np.random.default_rng(95)
        data = flat_points(0.05 * rng.standard_normal((40, 2)))
        start = Point(np.zeros(2), FLAT)
        cfg = flat_cfg(epsilon=0.02, delta=0.5, dim=1, max_net_length=5.0)
        sub = fit_flow(data, start, cfg)
        for net in sub.nets:
            assert net.stop_reason is StopReason.CONVEX_HULL_EXIT

    def test_rejects_dim_two(self):
        data = self.make_line_data()
        start = Point(np.zeros(2), FLAT)
        with pytest.raises(ValueError):
            fit_flow(data, start, flat_cfg(dim=2))

    def test_circle_flow_stays_on_sphere(self):
        rng = np.random.default_rng(96)
        angles = rng.uniform(-1.0, 1.0, 50)
        data = [Point(np.array([math.cos(a), math.sin(a)])) for a in angles]
        start = Point(np.array([1.0, 0.0]))
        cfg = flat_cfg(epsilon=0.05, delta=0.5, dim=1, max_net_length=0.5)
        sub = fit_flow(data, start, cfg)
        for net in sub.nets:
            for p in net.points:
                assert abs(np.linalg.norm(p.coords) - 1.0) <= 1e-12


class TestFitSubmanifold:
    def sphere_cluster(self, seed=97, n=50):
        rng = np.random.default_rng(seed)
        start = random_sphere_point(rng, 4)
        data = [exp_map(start, random_tangent(rng, start, rng.uniform(0.0, 0.35)))
                for _ in range(n)]
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

    def test_fan_matches_reference_path(self):
        # Replay every net from its seed with the public step_net and
        # stop_check, which take their own logs, in the growth loop's stop
        # order.  The fit shares one log pass per net point between the two
        # and must give the same bits.
        data, _ = generate(GenSpec("sea_wave", 200, 1))
        start = frechet_mean(data)
        cfg = FitConfig(num_directions=16)
        sub = fit_submanifold(data, start, cfg)
        seeds = seed_directions(start, sub.frame_at_start, cfg)
        for net, seed in zip(sub.nets, seeds):
            pts = [start, seed]
            net_len = geodesic_distance(start, seed)
            while True:
                if len(pts) - 1 >= cfg.max_levels:
                    reason = StopReason.LEVEL_CAP
                    break
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
                if reason is not None:
                    break
            assert reason is net.stop_reason
            assert np.array_equal(points_matrix(pts), points_matrix(net.points))

    def test_fit_on_a_point_array_builds_no_point(self, monkeypatch):
        data, _ = generate(GenSpec("sea_wave", 200, 1))
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
        of every batched log call; returns (sub, data, bases, chunks)."""
        start, data = self.sphere_cluster()
        xs = points_matrix(data)
        if nets_per_chunk is not None:
            monkeypatch.setattr(fitting, "_LOG_BYTES", nets_per_chunk * xs.nbytes)
        cfg = FitConfig(epsilon=0.05, delta=0.4, kernel=KernelSpec(),
                        num_directions=8, max_net_length=0.6)
        bases = []
        log_batch = fitting._log_coords_batch

        def counted(xs, ys, chart):
            bases.append(len(xs))
            return log_batch(xs, ys, chart)

        monkeypatch.setattr(fitting, "_log_coords_batch", counted)
        sub = fit_submanifold(data, start, cfg)
        return sub, data, bases, fitting._chunks(len(sub.nets), xs)

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

    @pytest.mark.parametrize("chart", [SPHERE, FLAT])
    def test_results_do_not_depend_on_chunking(self, monkeypatch, chart):
        # Each net grown in a chunk of its own equals the same net grown
        # inside the full fan, bit for bit, and so does its score.
        data, _ = generate(GenSpec("sea_wave", 200, 1))
        if chart == FLAT:
            # the sheet's log images at its Frechet mean: a planar flat cloud
            mean = frechet_mean(data)
            data = flat_points([log_map(mean, p).vec for p in data])
        start = frechet_mean(data)
        cfg = FitConfig(num_directions=16)
        fan = fit_submanifold(data, start, cfg)
        assert len(fitting._chunks(16, points_matrix(data))) == 1
        monkeypatch.setattr(fitting, "_LOG_BYTES", 1)
        assert len(fitting._chunks(16, points_matrix(data))) == 16
        alone = fit_submanifold(data, start, cfg)
        assert len({net.stop_reason for net in fan.nets}) > 1
        for a, b in zip(fan.nets, alone.nets):
            assert a.direction_index == b.direction_index
            assert a.stop_reason is b.stop_reason
            assert np.array_equal(points_matrix(a.points), points_matrix(b.points))
        assert variation_score(alone, data) == variation_score(fan, data)

    def test_stored_score_matches_level_batched_driver(self, monkeypatch):
        data, _ = generate(GenSpec("sea_wave", 200, 1))
        start = frechet_mean(data)
        sub = fit_submanifold(data, start, FitConfig(num_directions=16))
        stored = variation_score(sub, data)
        copy = dataclasses.replace(sub)
        assert copy._fit_score is None
        calls = []
        log_batch = fitting._log_coords_batch

        def counted(xs, ys, chart):
            calls.append(len(xs))
            return log_batch(xs, ys, chart)

        monkeypatch.setattr(fitting, "_log_coords_batch", counted)
        rescored = variation_score(copy, data)
        assert sum(calls) == sum(len(net.points) - 1 for net in sub.nets)
        assert rescored == stored
        # other data is scored afresh, and the stored score is kept
        calls.clear()
        fewer = variation_score(sub, data[:-1])
        assert calls
        assert fewer != stored
        assert fewer == variation_score(copy, data[:-1])
        assert variation_score(sub, data) is stored

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
        with pytest.raises(ValueError):
            fit_submanifold(data, start, flat_cfg())


class TestNetLength:
    def test_single_point(self):
        p = Point(np.zeros(2), FLAT)
        assert net_length(Net(1, (p,), StopReason.LEVEL_CAP)) == 0.0

    def test_polyline_sum(self):
        pts = tuple(Point(np.array([float(i), 0.0]), FLAT) for i in range(4))
        assert net_length(Net(1, pts, StopReason.LEVEL_CAP)) == pytest.approx(3.0)

    def test_fitted_net_builds_no_point(self, monkeypatch):
        data, _ = generate(GenSpec("sea_wave", 200, 1))
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
        # Every net runs to the level cap L, so the quadrature covers the
        # k-ball of radius L * epsilon: exactly for k = 1 and 2, and with the
        # midpoint rule's factor 1 - 1/(4 L^2) for k = 3.
        rng = np.random.default_rng(99)
        xs = rng.standard_normal((80, 3)) * [1.5, 0.6, 0.3]
        data = flat_points(xs)
        start = Point(xs.mean(axis=0), FLAT)
        levels = 8
        cfg = flat_cfg(epsilon=0.05, delta=3.0, dim=k, num_directions=8,
                       max_net_length=10.0, max_levels=levels)
        sub = fit_submanifold(data, start, cfg)
        assert all(net.stop_reason is StopReason.LEVEL_CAP for net in sub.nets)
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
        sub = fit_flow(data, start, cfg)
        score = variation_score(sub, data)
        assert len(score.per_net) == 2
        assert score.total == pytest.approx(sum(score.per_net), rel=1e-12)
        assert score.total > 0.0

    def test_antipodal_guard_point_is_skipped(self):
        # A data point antipodal to net 1's level-3 point stops that net there
        # with antipodal_guard (it lies far outside every kernel ball, so the
        # path up to it is unchanged); the score cannot take logs at that
        # point, counts it as skipped and still scores the finished fit.
        data, _ = generate(GenSpec("sea_wave", 200, 1))
        start = frechet_mean(data)
        cfg = FitConfig(dim=1)
        net1 = next(n for n in fit_flow(data, start, cfg).nets if n.direction_index == 1)
        tip = net1.points[3]
        data = list(data) + [Point(-tip.coords)]
        sub = fit_flow(data, start, cfg)
        net1 = next(n for n in sub.nets if n.direction_index == 1)
        assert net1.stop_reason is StopReason.ANTIPODAL_GUARD
        assert len(net1.points) == 4
        np.testing.assert_array_equal(net1.points[3].coords, tip.coords)
        score = variation_score(sub, data)
        assert score.skipped == 1
        assert score.total == pytest.approx(sum(score.per_net), rel=1e-12)
        assert score.per_net[0] > 0.0
