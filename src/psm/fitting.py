"""Net-growing fit of principal sub-manifolds.

From a start point A, seeds are placed at geodesic distance epsilon along a
fan of directions inside the span of the leading local eigenvectors.  Each
seed grows a net outward: at the current point the local covariance is
refreshed, the backward direction v = log(current -> previous) is projected
into the new top-k eigenspace, and the net advances by epsilon along the
*negated* projection.  (v points back toward the previous level, so -r is
the forward continuation; the sign is the easiest mistake to make here.)

A net stops at the first candidate, its seed included, where every data
point lies behind it (convex hull exit), where the delta-neighborhood is
empty, or where the net's length would pass the cap; checks run in that
order.  The candidate that triggers a stop is kept as the terminal net
point.  Every step is epsilon long, so the length rule counts steps; it is
the only bound on growth (see FitConfig and _past_cap).

The fan grows in lockstep: a chunk of nets advances one level at a time,
and a net leaves the chunk when it stops.  At each level one pass of the
Gram-form kernel (tangent_stats._GramLevel) works from the inner products
of the chunk's net points with the data, not from a tensor of logs: it
gives every net point's distances and kernel weights, its hull test, and
one raw covariance and tangent mean, which feed the stop check of the
point, its variation-score term (the demeaned covariance) and the step
from it.  The chunk size keeps each of the level's stacked arrays within
_LEVEL_ARRAY_BYTES: the kernel's (nets, n) arrays, one float row per net,
and the (nets, m, m) covariance arrays, one m x m matrix per net.  The one
(n, m) weighted copy of the data is reused net by net, so on data with
n >= m^2 the data's width does not shrink the chunk.
Every stacked product runs the same BLAS kernel per net as the per-point
reference path (step_net, stop_check), which is the kernel's one-row case,
so a net's points, stop reason and score do not depend on which nets share
its chunk.

The fit works on coordinate matrices only: the data (a PointArray's coords
pass through points_matrix uncopied), the seeds, and each net's path, which
is stored as one PointArray.  It builds no Point; step_net and stop_check,
the single-point reference path, take and return Points.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum

import numpy as np

from .errors import DegenerateProjectionError
from .geometry import (
    Point,
    PointArray,
    _distance_rows,
    _exp_coords,
    _exp_rows,
    _log_coords,
    _log_rows,
    _row_norms,
    points_matrix,
)
from .tangent_stats import (
    EigenFrame,
    KernelSpec,
    _cov_at,
    _demeaned,
    _GramData,
    _GramLevel,
    _top_frame_at,
    _top_frame_coords,
    eigenframe,
)

_PROJ_TOL = 1e-12
_LENGTH_RTOL = 1e-9  # relative slack of the length rule; see _past_cap


class StopReason(Enum):
    CONVEX_HULL_EXIT = "convex_hull_exit"
    EMPTY_NEIGHBORHOOD = "empty_neighborhood"
    LENGTH_EXCEEDED = "length_exceeded"
    DEGENERATE_PROJECTION = "degenerate_projection"
    ANTIPODAL_GUARD = "antipodal_guard"


@dataclass(frozen=True)
class FitConfig:
    """Parameters of the net-growing procedure.

    The length rule on max_net_length is the only bound on net growth, so
    max_net_length / epsilon must be finite: a net then stops by level
    floor(max_net_length * (1 + 1e-9) / epsilon) + 1.
    """

    epsilon: float = 0.02
    delta: float = 0.2
    kernel: KernelSpec = field(default_factory=lambda: KernelSpec("uniform_ball", 0.4))
    num_directions: int = 180
    max_net_length: float = 1.0
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
        if not math.isfinite(self.max_net_length / self.epsilon):
            raise ValueError("max_net_length / epsilon must be finite")


@dataclass(frozen=True, eq=False)
class Net:
    """One grown direction: its path as one PointArray (row 0 is the start A)
    and its stop reason."""

    direction_index: int
    points: PointArray
    stop_reason: StopReason

    def __post_init__(self):
        if not isinstance(self.points, PointArray):
            raise ValueError("a net's points must be a PointArray")
        if not isinstance(self.stop_reason, StopReason):
            raise ValueError("stop_reason must be a StopReason")


@dataclass(frozen=True, eq=False)
class Submanifold:
    """A fitted sub-manifold: the start point, its nets, and the seeding frame."""

    start: Point
    nets: tuple[Net, ...]
    frame_at_start: EigenFrame
    config: FitConfig
    # (data matrix, VariationScore) of the fit that grew these nets; see
    # variation_score.  dataclasses.replace leaves it unset.
    _fit_score: tuple[np.ndarray, VariationScore] | None = field(
        default=None, init=False, repr=False)


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


def seed_directions(start: Point, frame: EigenFrame, cfg: FitConfig) -> PointArray:
    """Seed points at geodesic distance epsilon from the start, one row per net.

    For a two-direction frame the seeds fan over the circle
    Z_l = epsilon * (cos(2*l*pi/D) e1 + sin(2*l*pi/D) e2), l = 1..D, so
    l = D/2 sits at -e1 and l = D at +e1.  One-direction frames seed the
    pair +/- e1; higher-dimensional frames use a deterministic grid on the
    frame's unit sphere.  The seeds come back as one PointArray.
    """
    if frame.k < 1:
        raise ValueError("frame must hold at least one direction")
    dirs = _frame_directions(frame.k, cfg.num_directions)
    vecs = cfg.epsilon * np.matmul(dirs[:, None, :], frame.basis())[:, 0]
    starts = np.broadcast_to(start.coords, vecs.shape)
    seeds, _ = _exp_rows(starts, vecs, start.chart)  # |vecs| = epsilon < pi/8: never cut
    return PointArray(seeds, start.chart)


def step_net(a_prev: Point, a_cur: Point, data, cfg: FitConfig) -> Point:
    """One growth step: refresh the local frame at a_cur and advance epsilon.

    Degeneracies surface as exceptions (EmptyNeighborhoodError when nothing
    carries kernel weight, DegenerateProjectionError when the backward
    direction leaves the frame span); the fitting loop records the same
    cases as stop reasons.
    """
    if np.array_equal(a_prev.coords, a_cur.coords):
        raise ValueError("previous and current points must differ")
    cur, chart = a_cur.coords, a_cur.chart
    cov = _cov_at(cur, _GramData(points_matrix(data), chart), cfg.kernel)
    rows, _, _ = _top_frame_at(cov, cur, chart, cfg.dim)
    v = _log_coords(cur, a_prev.coords, chart)
    u = rows.T @ (rows @ v)
    nu = float(np.linalg.norm(u))
    if nu < _PROJ_TOL:
        raise DegenerateProjectionError(
            "backward direction is orthogonal to the local frame span")
    r = (cfg.epsilon / nu) * u
    return Point(_exp_coords(cur, -r, chart), chart)


def stop_check(a_next: Point, a_cur: Point, data, cfg: FitConfig,
               net_len: float) -> StopReason | None:
    """First stop rule firing at a candidate point, or None.

    Order: convex_hull_exit (every data point satisfies
    <log_next(cur), log_next(x_j)> >= 0), then empty_neighborhood (every
    data point farther than delta), then length_exceeded (net_len + epsilon
    would pass max_net_length; see _past_cap).  Antipodal log failures
    report the antipodal_guard reason.
    """
    chart = a_cur.chart
    lv = _GramLevel(a_next.coords[None], _GramData(points_matrix(data), chart), cfg.kernel)
    back, back_antipodal = _log_rows(a_next.coords[None], a_cur.coords[None], chart)
    if lv.antipodal[0] or back_antipodal[0]:
        return StopReason.ANTIPODAL_GUARD
    if lv.hull(back)[0]:
        return StopReason.CONVEX_HULL_EXIT
    if bool(np.all(lv.dists > cfg.delta)):
        return StopReason.EMPTY_NEIGHBORHOOD
    if _past_cap(net_len, cfg):
        return StopReason.LENGTH_EXCEEDED
    return None


def _past_cap(net_len: float, cfg: FitConfig) -> bool:
    """The length rule: net_len + epsilon passes max_net_length by more than
    the relative slack _LENGTH_RTOL.

    The fit passes its step count times epsilon; stop_check passes a measured
    length, equal to that up to rounding.  When the cap is a whole number of
    steps either form may round to either side of it; the slack counts that
    tie as within the cap.  At the defaults (epsilon 0.02, cap 1.0) a net that
    reaches the cap is stopped by it at its level-51 candidate, 1.02 along.
    """
    return net_len + cfg.epsilon > cfg.max_net_length * (1.0 + _LENGTH_RTOL)


# -- lockstep growth and the variation score --
#
# Failures are per-net masks, applied in the order in which the per-point
# reference path (step_net, stop_check) raises and checks them.

# Budget of each stacked array of one level, which holds per net one float64
# row of n (distances, weights, ...) or one m x m matrix (covariances, their
# Gram terms); sets the chunk size.
_LEVEL_ARRAY_BYTES = 256 * 1024

# A net's stop code indexes this tuple; 0 means it is still growing.
_REASONS = (None, StopReason.CONVEX_HULL_EXIT, StopReason.EMPTY_NEIGHBORHOOD,
            StopReason.LENGTH_EXCEEDED, StopReason.DEGENERATE_PROJECTION,
            StopReason.ANTIPODAL_GUARD)
_CODE = {reason: code for code, reason in enumerate(_REASONS)}


def _chunks(num_nets: int, xs: np.ndarray) -> list[range]:
    """Consecutive runs of nets whose stacked level arrays, (nets, n) and
    (nets, m, m), each fit in _LEVEL_ARRAY_BYTES."""
    size = max(1, _LEVEL_ARRAY_BYTES // (8 * max(len(xs), xs.shape[1] ** 2)))
    return [range(lo, min(lo + size, num_nets)) for lo in range(0, num_nets, size)]


def _stop(code: np.ndarray, mask: np.ndarray, reason: StopReason) -> None:
    """Stop the still-growing nets in mask with reason."""
    code[(code == 0) & mask] = _CODE[reason]


class _Level:
    """The kernel statistics of the data at stacked net points cur (B, m) of
    one level, whose previous points are prev: one Gram-form pass (gram),
    its raw covariances and tangent means, and the backward directions."""

    def __init__(self, cur: np.ndarray, prev: np.ndarray, data: _GramData,
                 kernel: KernelSpec):
        self.cur = cur
        self.gram = _GramLevel(cur, data, kernel)
        self.cov = self.gram.covariance()
        self.mean = self.gram.mean()
        # log_cur(prev): the stop check's and the score's backward direction,
        # and the vector the step projects
        self.back, self.back_antipodal = _log_rows(cur, prev, data.chart)
        self.empty = self.gram.total <= 0.0


def _score_terms(lv: _Level, chart: str, cfg: FitConfig, base_w: float, level: int):
    """Variation-score terms of one level's net points; returns (terms, scored).

    A point antipodal to a data point or to its predecessor, or whose
    demeaned covariance is empty or rank-deficient, is not scored and its
    term is 0.
    """
    k = cfg.dim
    cov = _demeaned(lv.cov, lv.mean)
    rows, vals, _, ranked = _top_frame_coords(cov, lv.cur, chart, k)
    scored = ~(lv.gram.antipodal | lv.back_antipodal | lv.empty) & ranked
    unit = lv.back / _row_norms(lv.back)[:, None]
    cos_a = _row_norms(np.matmul(rows, unit[:, :, None])[:, :, 0])
    cos_a = np.where(cos_a < 1.0, cos_a, 1.0)
    terms = cos_a * vals.sum(axis=-1) * base_w * (level - 0.5) ** (k - 1)
    return np.where(scored, terms, 0.0), scored


def _score_weight(cfg: FitConfig, num_nets: int) -> float:
    """|S^{k-1}| / D * epsilon^k, the level-independent part of the quadrature weight."""
    k = cfg.dim
    sphere_area = 2.0 * math.pi ** (k / 2) / math.gamma(k / 2)
    return sphere_area / num_nets * cfg.epsilon ** k


def _step_rows(lv: _Level, sel, chart: str, cfg: FitConfig):
    """Steps from the net points lv.cur[sel], whose neighbourhoods carry weight.

    Returns (candidates, stop codes): a net whose step fails gets its stop
    code, the others 0 and one candidate row each, in order.
    """
    cur, back = lv.cur[sel], lv.back[sel]
    code = np.zeros(len(cur), dtype=np.int8)
    rows, _, _, ranked = _top_frame_coords(lv.cov[sel], cur, chart, cfg.dim)
    _stop(code, ~ranked, StopReason.DEGENERATE_PROJECTION)
    u = np.matmul(rows.transpose(0, 2, 1), np.matmul(rows, back[:, :, None]))[:, :, 0]
    nu = _row_norms(u)
    _stop(code, nu < _PROJ_TOL, StopReason.DEGENERATE_PROJECTION)
    go = code == 0
    r = (cfg.epsilon / nu[go])[:, None] * u[go]
    cand, _ = _exp_rows(cur[go], -r, chart)  # |r| = epsilon < pi/8: never cut
    return cand, code


def _grow_chunk(start: np.ndarray, seeds: np.ndarray, data: _GramData,
                cfg: FitConfig, base_w: float):
    """Grow the nets from seeds (B, m) in lockstep.

    Returns (paths, stop codes, score sums) with one entry per net, and the
    number of net points left out of the score; a path is the list of its
    point coordinates.
    """
    num, chart = len(seeds), data.chart
    paths = [[start, seed] for seed in seeds]
    codes = np.zeros(num, dtype=np.int8)
    acc = np.zeros(num)
    skipped = 0
    live = np.arange(num)
    prev = np.broadcast_to(start, seeds.shape)
    cur = seeds
    level = 1
    while live.size:
        lv = _Level(cur, prev, data, cfg.kernel)
        gram = lv.gram
        code = np.zeros(live.size, dtype=np.int8)
        # stop check of the candidate that just arrived (at level 1, the seed)
        _stop(code, gram.antipodal | lv.back_antipodal, StopReason.ANTIPODAL_GUARD)
        _stop(code, gram.hull(lv.back), StopReason.CONVEX_HULL_EXIT)
        _stop(code, np.all(gram.dists > cfg.delta, axis=-1), StopReason.EMPTY_NEIGHBORHOOD)
        # the candidate ends a path of level epsilon-steps; _past_cap adds the last
        _stop(code, _past_cap((level - 1) * cfg.epsilon, cfg), StopReason.LENGTH_EXCEEDED)
        terms, scored = _score_terms(lv, chart, cfg, base_w, level)
        acc[live] += terms
        skipped += int((~scored).sum())
        # the step from cur, in the order the reference path raises
        _stop(code, lv.empty, StopReason.EMPTY_NEIGHBORHOOD)
        step = np.flatnonzero(code == 0)
        cand, code[step] = _step_rows(lv, step, chart, cfg)
        codes[live] = code
        go = code == 0
        live = live[go]
        for net, point in zip(live.tolist(), cand):
            paths[net].append(point)
        prev = cur[go]
        cur = cand
        level += 1
    return paths, codes, acc, skipped


def fit_submanifold(data, start: Point, cfg: FitConfig) -> Submanifold:
    """Grow a full fan of nets from the start point.

    The local covariance at the start must support cfg.dim directions
    (RankDeficientError otherwise).  Chunks of nets grow in lockstep, one
    level at a time.  A net's points do not depend on which nets share its
    chunk, so results are bit-identical across runs and chunk sizes.  The
    fit also scores its own nets from the same logs; variation_score
    returns that score for this fit's data.
    """
    xs = points_matrix(data)
    if xs.shape[1] != start.ambient_dim:
        raise ValueError("data and start point have different ambient dimensions")
    chart = start.chart
    gram = _GramData(xs, chart)
    frame = eigenframe(_cov_at(start.coords, gram, cfg.kernel), start, cfg.dim)
    seeds = seed_directions(start, frame, cfg).coords
    base_w = _score_weight(cfg, len(seeds))
    nets, per_net, skipped = [], [], 0
    for chunk in _chunks(len(seeds), xs):
        paths, codes, acc, skips = _grow_chunk(
            start.coords, seeds[chunk.start:chunk.stop], gram, cfg, base_w)
        for index, path, code in zip(chunk, paths, codes.tolist()):
            nets.append(Net(index + 1, PointArray(path, chart), _REASONS[code]))
        per_net += acc.tolist()
        skipped += skips
    sub = Submanifold(start, tuple(nets), frame, cfg)
    xs.setflags(write=False)
    score = VariationScore(float(sum(per_net)), tuple(per_net), skipped)
    object.__setattr__(sub, "_fit_score", (xs, score))
    return sub


def fit_flow(data, start: Point, cfg: FitConfig) -> Submanifold:
    """One-dimensional variant: two nets seeded at +/- epsilon * e1(start)."""
    if cfg.dim != 1:
        raise ValueError("fit_flow requires a config with dim = 1")
    return fit_submanifold(data, start, cfg)


def net_length(net: Net) -> float:
    """Sum of consecutive geodesic distances along a net (0 for one point)."""
    coords = net.points.coords
    total = 0.0
    for gap in _distance_rows(coords[:-1], coords[1:], net.points.chart).tolist():
        total += gap
    return total


@dataclass(frozen=True)
class VariationScore:
    """Discretized captured-variation diagnostic, totalled and per net.

    skipped counts the net points that contributed 0 (see variation_score).
    """

    total: float
    per_net: tuple[float, ...]
    skipped: int


def _score_nets(sub: Submanifold, xs: np.ndarray) -> VariationScore:
    """Level-batched variation score of any nets, through the fit's score kernel."""
    nets, cfg, chart = sub.nets, sub.config, sub.start.chart
    gram = _GramData(xs, chart)
    base_w = _score_weight(cfg, len(nets))
    per_net = np.zeros(len(nets))
    skipped = 0
    for chunk in _chunks(len(nets), xs):
        paths = [nets[i].points.coords for i in chunk]
        level = 1
        while True:
            live = [j for j, path in enumerate(paths) if len(path) > level]
            if not live:
                break
            cur = np.stack([paths[j][level] for j in live])
            prev = np.stack([paths[j][level - 1] for j in live])
            lv = _Level(cur, prev, gram, cfg.kernel)
            terms, scored = _score_terms(lv, chart, cfg, base_w, level)
            per_net[[chunk[j] for j in live]] += terms
            skipped += int((~scored).sum())
            level += 1
    per_net = per_net.tolist()
    return VariationScore(float(sum(per_net)), tuple(per_net), skipped)


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
    point antipodal to a data point, or whose demeaned covariance is empty
    or rank-deficient, contributes 0 and is counted in skipped.

    fit_submanifold scores its nets while growing them; that score is
    returned when data is bit for bit the data of the fit.  Any other
    Submanifold (dataclasses.replace drops the stored score) or data is
    scored level by level through the same kernel, with equal results.
    """
    xs = points_matrix(data)
    if sub._fit_score is not None:
        fit_xs, score = sub._fit_score
        if np.array_equal(fit_xs.view(np.uint64), xs.view(np.uint64)):
            return score
    return _score_nets(sub, xs)
