"""Net-growing fit of principal sub-manifolds.

From a start point A, seeds are placed at geodesic distance epsilon along a
fan of directions inside the span of the leading local eigenvectors.  Each
seed grows a net outward: at the current point the local covariance is
refreshed, the backward direction v = log(current -> previous) is projected
into the new top-k eigenspace, and the net advances by epsilon along the
*negated* projection.  (v points back toward the previous level, so -r is
the forward continuation; the sign is the easiest mistake to make here.)

A net stops at the first candidate where every data point lies behind it
(convex hull exit), where the delta-neighborhood is empty, or where the
accumulated length would pass the cap; checks run in that order.  The
candidate that triggers a stop is kept as the terminal net point.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum

import numpy as np

from .errors import (
    AntipodalPairError,
    DegenerateProjectionError,
    EmptyNeighborhoodError,
    RankDeficientError,
)
from .geometry import (
    Point,
    _distance_coords,
    _exp_coords,
    _log_coords,
    _log_coords_many,
    points_matrix,
)
from .tangent_stats import EigenFrame, KernelSpec, _cov_coords, _top_frame_coords, eigenframe

_PROJ_TOL = 1e-12


class StopReason(Enum):
    CONVEX_HULL_EXIT = "convex_hull_exit"
    EMPTY_NEIGHBORHOOD = "empty_neighborhood"
    LENGTH_EXCEEDED = "length_exceeded"
    DEGENERATE_PROJECTION = "degenerate_projection"
    LEVEL_CAP = "level_cap"
    ANTIPODAL_GUARD = "antipodal_guard"


@dataclass(frozen=True)
class FitConfig:
    """Parameters of the net-growing procedure.

    max_levels defaults to ceil(10 * max_net_length / epsilon), a safety cap
    well past the number of epsilon-steps a net can take before the length
    rule fires.
    """

    epsilon: float = 0.02
    delta: float = 0.2
    kernel: KernelSpec = field(default_factory=lambda: KernelSpec("uniform_ball", 0.4))
    num_directions: int = 180
    max_net_length: float = 1.0
    max_levels: int | None = None
    dim: int = 2

    def __post_init__(self):
        if not 0 < self.epsilon < math.pi / 8:
            raise ValueError("epsilon must lie in (0, pi/8)")
        if not self.epsilon < self.delta:
            raise ValueError("epsilon must be smaller than delta")
        if self.num_directions < 4 or self.num_directions % 4 != 0:
            raise ValueError("num_directions must be a positive multiple of 4")
        if not self.max_net_length > 0:
            raise ValueError("max_net_length must be positive")
        if self.dim < 1:
            raise ValueError("dim must be at least 1")
        if self.max_levels is None:
            object.__setattr__(
                self, "max_levels", int(math.ceil(10 * self.max_net_length / self.epsilon)))
        elif self.max_levels < 1:
            raise ValueError("max_levels must be at least 1")


@dataclass(frozen=True, eq=False)
class Net:
    """One grown direction: its points (points[0] is the start A) and stop reason."""

    direction_index: int
    points: tuple[Point, ...]
    stop_reason: StopReason

    def __post_init__(self):
        if not self.points:
            raise ValueError("a net holds at least its start point")
        if not isinstance(self.stop_reason, StopReason):
            raise ValueError("stop_reason must be a StopReason")


@dataclass(frozen=True, eq=False)
class Submanifold:
    """A fitted sub-manifold: the start point, its nets, and the seeding frame."""

    start: Point
    nets: tuple[Net, ...]
    frame_at_start: EigenFrame
    config: FitConfig


def _circle_directions(num: int) -> np.ndarray:
    # l = 1..num, theta_l = 2*pi*l/num; l = num/2 is -e1, l = num is +e1
    thetas = 2.0 * math.pi * np.arange(1, num + 1) / num
    return np.stack([np.cos(thetas), np.sin(thetas)], axis=1)


def _fibonacci_sphere(num: int) -> np.ndarray:
    idx = np.arange(1, num + 1)
    z = 1.0 - (2.0 * idx - 1.0) / num
    phi = idx * math.pi * (3.0 - math.sqrt(5.0))
    r = np.sqrt(np.clip(1.0 - z * z, 0.0, 1.0))
    return np.stack([r * np.cos(phi), r * np.sin(phi), z], axis=1)


def _frame_directions(k: int, num: int) -> np.ndarray:
    """Deterministic unit directions on S^{k-1}, one row per net."""
    if k == 1:
        return np.array([[1.0], [-1.0]])
    if k == 2:
        return _circle_directions(num)
    if k == 3:
        return _fibonacci_sphere(num)
    rng = np.random.default_rng(1000 * k + num)
    raw = rng.standard_normal((num, k))
    return raw / np.linalg.norm(raw, axis=1, keepdims=True)


def seed_directions(start: Point, frame: EigenFrame, cfg: FitConfig) -> list[Point]:
    """Seed points at geodesic distance epsilon from the start.

    For a two-direction frame the seeds fan over the circle
    Z_l = epsilon * (cos(2*l*pi/D) e1 + sin(2*l*pi/D) e2), l = 1..D, so
    l = D/2 sits at -e1 and l = D at +e1.  One-direction frames seed the
    pair +/- e1; higher-dimensional frames use a deterministic grid on the
    frame's unit sphere.
    """
    if frame.k < 1:
        raise ValueError("frame must hold at least one direction")
    basis = frame.basis()
    dirs = _frame_directions(frame.k, cfg.num_directions)
    seeds = []
    for row in dirs:
        vec = cfg.epsilon * (row @ basis)
        seeds.append(Point(_exp_coords(start.coords, vec, start.chart), start.chart))
    return seeds


def _step_coords(prev: np.ndarray, cur: np.ndarray, vecs: np.ndarray, dists: np.ndarray,
                 chart: str, cfg: FitConfig) -> np.ndarray:
    """Step from cur, given the data's logs (vecs, dists) at cur."""
    cov = _cov_coords(vecs, dists, cfg.kernel)
    rows, _, _ = _top_frame_coords(cov, cur, chart, cfg.dim)
    v = _log_coords(cur, prev, chart)
    u = rows.T @ (rows @ v)
    nu = float(np.linalg.norm(u))
    if nu < _PROJ_TOL:
        raise DegenerateProjectionError(
            "backward direction is orthogonal to the local frame span")
    r = (cfg.epsilon / nu) * u
    return _exp_coords(cur, -r, chart)


def step_net(a_prev: Point, a_cur: Point, data, cfg: FitConfig) -> Point:
    """One growth step: refresh the local frame at a_cur and advance epsilon.

    Degeneracies surface as exceptions (EmptyNeighborhoodError when nothing
    carries kernel weight, DegenerateProjectionError when the backward
    direction leaves the frame span); the fitting loop converts them into
    recorded stop reasons.
    """
    if np.array_equal(a_prev.coords, a_cur.coords):
        raise ValueError("previous and current points must differ")
    xs = points_matrix(data)
    vecs, dists = _log_coords_many(a_cur.coords, xs, a_cur.chart)
    cand = _step_coords(a_prev.coords, a_cur.coords, vecs, dists, a_cur.chart, cfg)
    return Point(cand, a_cur.chart)


def _stop_coords(nxt: np.ndarray, cur: np.ndarray, vecs: np.ndarray, dists: np.ndarray,
                 chart: str, cfg: FitConfig, net_len: float) -> StopReason | None:
    """Stop rule at nxt, given the data's logs (vecs, dists) at nxt.

    Raises AntipodalPairError for antipodal nxt and cur; callers report it
    as antipodal_guard.
    """
    back = _log_coords(nxt, cur, chart)
    if bool(np.all(vecs @ back >= 0.0)):
        return StopReason.CONVEX_HULL_EXIT
    if bool(np.all(dists > cfg.delta)):
        return StopReason.EMPTY_NEIGHBORHOOD
    if net_len + cfg.epsilon > cfg.max_net_length:
        return StopReason.LENGTH_EXCEEDED
    return None


def stop_check(a_next: Point, a_cur: Point, data, cfg: FitConfig,
               net_len: float) -> StopReason | None:
    """First stop rule firing at a candidate point, or None.

    Order: convex_hull_exit (every data point satisfies
    <log_next(cur), log_next(x_j)> >= 0), then empty_neighborhood (every
    data point farther than delta), then length_exceeded (net_len + epsilon
    would pass max_net_length).  Antipodal log failures report the
    antipodal_guard reason.
    """
    xs = points_matrix(data)
    try:
        vecs, dists = _log_coords_many(a_next.coords, xs, a_cur.chart)
        return _stop_coords(a_next.coords, a_cur.coords, vecs, dists, a_cur.chart, cfg,
                            net_len)
    except AntipodalPairError:
        return StopReason.ANTIPODAL_GUARD


def _grow_net(index: int, start: np.ndarray, seed: np.ndarray, xs: np.ndarray,
              chart: str, cfg: FitConfig) -> Net:
    pts = [start, seed]
    net_len = _distance_coords(start, seed, chart)
    # The data's logs at pts[-1]: one pass per net point, taken for its stop
    # check and reused by the step from it (the seed has no stop check).
    logs = None
    while True:
        if len(pts) - 1 >= cfg.max_levels:
            reason = StopReason.LEVEL_CAP
            break
        try:
            if logs is None:
                logs = _log_coords_many(seed, xs, chart)
            cand = _step_coords(pts[-2], pts[-1], *logs, chart, cfg)
        except EmptyNeighborhoodError:
            reason = StopReason.EMPTY_NEIGHBORHOOD
            break
        except (DegenerateProjectionError, RankDeficientError):
            reason = StopReason.DEGENERATE_PROJECTION
            break
        except AntipodalPairError:
            reason = StopReason.ANTIPODAL_GUARD
            break
        try:
            logs = _log_coords_many(cand, xs, chart)
            stop = _stop_coords(cand, pts[-1], *logs, chart, cfg, net_len)
        except AntipodalPairError:
            stop = StopReason.ANTIPODAL_GUARD
        net_len += _distance_coords(pts[-1], cand, chart)
        pts.append(cand)
        if stop is not None:
            reason = stop
            break
    points = tuple(Point(c, chart) for c in pts)
    return Net(index, points, reason)


def fit_submanifold(data, start: Point, cfg: FitConfig) -> Submanifold:
    """Grow a full fan of nets from the start point.

    The local covariance at the start must support cfg.dim directions
    (RankDeficientError otherwise).  Nets grow one after another in direction
    order, so repeated runs are bit-identical.
    """
    xs = points_matrix(data)
    if xs.shape[1] != start.ambient_dim:
        raise ValueError("data and start point have different ambient dimensions")
    vecs, dists = _log_coords_many(start.coords, xs, start.chart)
    frame = eigenframe(_cov_coords(vecs, dists, cfg.kernel), start, cfg.dim)
    seeds = seed_directions(start, frame, cfg)
    nets = tuple(_grow_net(index, start.coords, seed.coords, xs, start.chart, cfg)
                 for index, seed in enumerate(seeds, start=1))
    return Submanifold(start, nets, frame, cfg)


def fit_flow(data, start: Point, cfg: FitConfig) -> Submanifold:
    """One-dimensional variant: two nets seeded at +/- epsilon * e1(start)."""
    if cfg.dim != 1:
        raise ValueError("fit_flow requires a config with dim = 1")
    return fit_submanifold(data, start, cfg)


def net_length(net: Net) -> float:
    """Sum of consecutive geodesic distances along a net (0 for one point)."""
    total = 0.0
    for a, b in zip(net.points, net.points[1:]):
        total += _distance_coords(a.coords, b.coords, a.chart)
    return total


@dataclass(frozen=True)
class VariationScore:
    """Discretized captured-variation diagnostic, totalled and per net.

    skipped counts the net points that contributed 0 (see variation_score).
    """

    total: float
    per_net: tuple[float, ...]
    skipped: int


def variation_score(sub: Submanifold, data) -> VariationScore:
    """Quadrature of cos(angle) * sum of top-k local eigenvalues over the nets.

    Every net point B at level i >= 1 contributes
    cos(alpha'_B) * sum_{j<=k} lambda_j(B) * w_{l,i} with the polar volume
    weight w_{l,i} = |S^{k-1}| / D * ((i - 1/2) * epsilon)^(k-1) * epsilon,
    where D is the number of nets in the fan: epsilon per level for a k=1
    flow, (2*pi/D) * (i - 1/2) * epsilon^2 for k=2.  The angle alpha'_B is
    measured between the incoming step direction and the local frame span.
    Eigenvalues and frames here come from the *demeaned* kernel covariance
    (classical local PCA), so on a flat chart with an unbounded kernel the
    integrand reduces exactly to the stationary global PCA spectrum.  A
    point whose demeaned covariance raises EmptyNeighborhoodError or
    RankDeficientError contributes 0 and is counted in skipped.
    """
    xs = points_matrix(data)
    cfg = sub.config
    chart = sub.start.chart
    k = cfg.dim
    sphere_area = 2.0 * math.pi ** (k / 2) / math.gamma(k / 2)
    base_w = sphere_area / len(sub.nets) * cfg.epsilon ** k
    per_net = []
    skipped = 0
    for net in sub.nets:
        acc = 0.0
        for i in range(1, len(net.points)):
            b = net.points[i].coords
            vecs, dists = _log_coords_many(b, xs, chart)
            try:
                cov = _cov_coords(vecs, dists, cfg.kernel, demean=True)
                rows, vals, _ = _top_frame_coords(cov, b, chart, k)
            except (EmptyNeighborhoodError, RankDeficientError):
                skipped += 1
                continue
            v_in = _log_coords(b, net.points[i - 1].coords, chart)
            nv = float(np.linalg.norm(v_in))
            cos_a = min(1.0, float(np.linalg.norm(rows @ (v_in / nv))))
            acc += cos_a * float(vals.sum()) * base_w * (i - 0.5) ** (k - 1)
        per_net.append(acc)
    return VariationScore(float(sum(per_net)), tuple(per_net), skipped)
