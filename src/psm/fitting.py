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
gives every net point's kernel weights, its distance to the nearest data
row, its hull test, and one raw covariance and tangent mean, which feed
the stop check of the point, its variation-score term (the demeaned
covariance) and the step from it.  One stacked eigen-solve per level
(_Level.frames) gives the score frames of every point and the step frames
of the nets that step.  The chunk size (_GramData.chunk) keeps each of the
level's stacked arrays within the level budget: the kernel's (nets, n)
arrays, one float row per net, and the (nets, m, m) covariances.  The
kernel holds the centred data once, column-major, and weights (m, n)
copies of it for as many nets per product as fit the same budget, so on
data with n >= m^2 the data's width does not shrink the chunk.
Every stacked product and solve runs the same BLAS or LAPACK kernel per
net as the per-point reference path (step_net, stop_check), which is the
kernel's one-row case, so a net's points, stop reason and score do not
depend on which nets share its chunk or its product.  step_net runs on the
public one-point functions: it steps with log_map and exp_map, the one-row
case of the fit's _log_rows and _exp_rows, and takes its frame from
eigenframe of local_covariance, which only negates rows of the fit's
frame and so leaves the step's projection bit for bit the fit's.

The fit works on coordinate matrices only: the data (a PointArray, whose
read-only coords it reads uncopied), the seeds, and each level's points,
kept as one array with the ids of their nets and split into one PointArray
per net when the chunk is done.  It builds no Point; step_net and
stop_check, the single-point reference path, take and return Points.
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
    _exp_rows,
    _log_rows,
    _row_norms,
    exp_map,
    log_map,
    points_matrix,
)
from .tangent_stats import (
    EigenFrame,
    KernelSpec,
    _demeaned,
    _frame_at,
    _GramData,
    _GramLevel,
    _top_frame_coords,
    eigenframe,
    local_covariance,
)

_PROJ_TOL = 1e-12
_LENGTH_RTOL = 1e-9  # relative slack of the length rule; see _past_cap
_STEP_RTOL = 1e-3  # relative error of a measured epsilon step; see _check_moved


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
    """A fitted sub-manifold: the start point, its nets, and the start frame, whose
    first config.dim rows seed the nets and first min(3, d) span the projection."""

    start: Point
    nets: tuple[Net, ...]
    frame_at_start: EigenFrame
    config: FitConfig
    # (data, VariationScore) of the fit that grew these nets, data its own
    # PointArray, matched by identity in variation_score; replace drops it.
    _fit_score: tuple[PointArray, VariationScore] | None = field(
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

    The fan spans the frame's first k = min(frame.k, cfg.dim) rows.  For
    k = 2 the seeds sit at Z_l = epsilon * (cos(2*l*pi/D) e1 + sin(2*l*pi/D)
    e2), l = 1..D, so l = D/2 is at -e1 and l = D at +e1; k = 1 seeds the
    pair +/- e1, and a larger k a deterministic grid on the unit sphere of
    the k rows.  The seeds come back as one PointArray.
    """
    if frame.k < 1:
        raise ValueError("frame must hold at least one direction")
    k = min(frame.k, cfg.dim)
    dirs = _frame_directions(k, cfg.num_directions)
    vecs = cfg.epsilon * np.matmul(dirs[:, None, :], frame.basis[:k])[:, 0]
    starts = np.broadcast_to(start.coords, vecs.shape)
    seeds, _ = _exp_rows(starts, vecs, start.chart)  # |vecs| = epsilon < pi/8: never cut
    return PointArray(seeds, start.chart)


def step_net(a_prev: Point, a_cur: Point, data: PointArray, cfg: FitConfig) -> Point:
    """One growth step: refresh the local frame at a_cur and advance epsilon.

    Degeneracies surface as exceptions (EmptyNeighborhoodError when nothing
    carries kernel weight, DegenerateProjectionError when the backward
    direction leaves the frame span); the fitting loop records the same
    cases as stop reasons.  A cfg.dim above the tangent dimension (see
    eigenframe) and a step whose measured length is not epsilon (see
    _check_moved) raise ValueError, and a_prev or data off a_cur's chart or
    width DimensionMismatchError.
    """
    if np.array_equal(a_prev.coords, a_cur.coords):
        raise ValueError("previous and current points must differ")
    rows = eigenframe(local_covariance(a_cur, data, cfg.kernel), a_cur, cfg.dim).basis
    v = log_map(a_cur, a_prev)
    u = rows.T @ (rows @ v)
    nu = float(np.linalg.norm(u))
    if nu < _PROJ_TOL:
        raise DegenerateProjectionError(
            "backward direction is orthogonal to the local frame span")
    r = (cfg.epsilon / nu) * u
    nxt = exp_map(a_cur, -r)
    _check_moved(a_cur.coords[None], _row_norms(log_map(nxt, a_cur)[None]), cfg.epsilon)
    return nxt


def stop_check(a_next: Point, a_cur: Point, data: PointArray, cfg: FitConfig,
               net_len: float) -> StopReason | None:
    """First stop rule firing at a candidate point, or None.

    Order: convex_hull_exit (every data point satisfies
    <log_next(cur), log_next(x_j)> >= 0), then empty_neighborhood (every
    data point farther than delta), then length_exceeded (net_len + epsilon
    would pass max_net_length; see _past_cap).  Antipodal log failures
    report the antipodal_guard reason.
    """
    chart = a_cur.chart
    lv = _GramLevel(a_next.coords[None], _GramData(points_matrix(data, a_cur), chart), cfg.kernel)
    back, back_antipodal = _log_rows(a_next.coords[None], a_cur.coords[None], chart)
    if lv.antipodal[0] or back_antipodal[0]:
        return StopReason.ANTIPODAL_GUARD
    if lv.hull(back)[0]:
        return StopReason.CONVEX_HULL_EXIT
    if lv.nearest[0] > cfg.delta:
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

# A net's stop code indexes this tuple (StopReason's declaration order); 0 is still growing.
_REASONS = (None, *StopReason)
_CODE = {reason: code for code, reason in enumerate(_REASONS)}


def _chunks(num_nets: int, data: _GramData) -> list[range]:
    """Consecutive runs of data.chunk nets, which grow in lockstep."""
    return [range(lo, min(lo + data.chunk, num_nets)) for lo in range(0, num_nets, data.chunk)]


def _check_moved(base: np.ndarray, back_norm: np.ndarray, epsilon: float) -> None:
    """Raise ValueError if a log back from an epsilon step to its row of base
    is off epsilon by more than _STEP_RTOL of it.

    Far from a flat chart's origin a step rounds, in part or onto the row
    itself; the length rule counts it as epsilon all the same, and the stop
    checks and the score read its rounded direction.  A flat cloud 1e8 from
    the origin measures its 0.02 steps within 6e-7 of epsilon; 1e12 away,
    they are off by up to 3e-3.
    """
    off = np.abs(back_norm - epsilon)
    if np.any(off > _STEP_RTOL * epsilon):
        worst = int(np.argmax(off))
        size = float(np.abs(base[worst]).max())
        raise ValueError(
            f"an epsilon step of {epsilon!r} measures {float(back_norm[worst]):.3g} after "
            f"rounding, from a point whose largest |coordinate| is {size:.3g}; rescale or "
            "recentre the data, or raise epsilon")


def _stop(code: np.ndarray, mask: np.ndarray, reason: StopReason) -> None:
    """Stop the still-growing nets in mask with reason."""
    code[(code == 0) & mask] = _CODE[reason]


class _Level:
    """The kernel statistics of the data at stacked net points cur (B, m) of
    one level, whose previous points are prev: one Gram-form pass (gram),
    its raw covariances and tangent means, and the backward directions."""

    def __init__(self, cur: np.ndarray, prev: np.ndarray, data: _GramData,
                 kernel: KernelSpec):
        self.cur, self.chart = cur, data.chart
        self.gram = _GramLevel(cur, data, kernel)
        self.cov = self.gram.covariance()
        self.mean = self.gram.mean()
        # log_cur(prev): the stop check's and the score's backward direction,
        # and the vector the step projects
        self.back, self.back_antipodal = _log_rows(cur, prev, data.chart)
        self.back_norm = _row_norms(self.back)
        self.empty = self.gram.total <= 0.0

    def frames(self, k: int, step: np.ndarray):
        """Top-k frames from one eigen-solve: of every point's demeaned
        covariance (the score's) and of the raw covariances of the points
        step (the step's).  Returns (score, step) as (rows, values, ranked)."""
        num = len(self.cur)
        cov = np.concatenate((_demeaned(self.cov, self.mean), self.cov[step]))
        base = np.concatenate((self.cur, self.cur[step]))
        rows, vals, _, ranked = _top_frame_coords(cov, base, self.chart, k)
        return (rows[:num], vals[:num], ranked[:num]), (rows[num:], vals[num:], ranked[num:])


def _score_terms(lv: _Level, frames, cfg: FitConfig, base_w: float, level: int):
    """Variation-score terms of one level's net points, from their score
    frames; returns (terms, scored).

    A point antipodal to a data point or to its predecessor, equal to its
    predecessor, or whose demeaned covariance is empty or rank-deficient, is
    not scored and its term is 0.
    """
    k = cfg.dim
    rows, vals, ranked = frames
    still = lv.back_norm == 0.0
    scored = ~(lv.gram.antipodal | lv.back_antipodal | lv.empty | still) & ranked
    unit = lv.back / np.where(still, 1.0, lv.back_norm)[:, None]
    cos_a = _row_norms(np.matmul(rows, unit[:, :, None])[:, :, 0])
    cos_a = np.where(cos_a < 1.0, cos_a, 1.0)
    terms = cos_a * vals.sum(axis=-1) * base_w * (level - 0.5) ** (k - 1)
    return np.where(scored, terms, 0.0), scored


def _score_weight(cfg: FitConfig, num_nets: int) -> float:
    """|S^{k-1}| / D * epsilon^k, the level-independent part of the quadrature weight."""
    k = cfg.dim
    sphere_area = 2.0 * math.pi ** (k / 2) / math.gamma(k / 2)
    return sphere_area / num_nets * cfg.epsilon ** k


def _step_rows(lv: _Level, step: np.ndarray, frames, cfg: FitConfig):
    """Steps from the net points lv.cur[step], whose neighbourhoods carry
    weight, along their step frames.

    Returns (candidates, stop codes): a net whose step fails gets its stop
    code, the others 0 and one candidate row each, in order.
    """
    cur, back = lv.cur[step], lv.back[step]
    code = np.zeros(len(cur), dtype=np.int8)
    rows, _, ranked = frames
    _stop(code, ~ranked, StopReason.DEGENERATE_PROJECTION)
    u = np.matmul(rows.transpose(0, 2, 1), np.matmul(rows, back[:, :, None]))[:, :, 0]
    nu = _row_norms(u)
    _stop(code, nu < _PROJ_TOL, StopReason.DEGENERATE_PROJECTION)
    go = code == 0
    r = (cfg.epsilon / nu[go])[:, None] * u[go]
    cand, _ = _exp_rows(cur[go], -r, lv.chart)  # |r| = epsilon < pi/8: never cut
    return cand, code


def _grow_chunk(start: np.ndarray, seeds: np.ndarray, data: _GramData,
                cfg: FitConfig, base_w: float):
    """Grow the nets from seeds (B, m) in lockstep.

    Returns (paths, stop codes, score sums) with one entry per net, and the
    number of net points left out of the score; a path is the (levels + 1, m)
    matrix of its point coordinates, the start first.
    """
    num = len(seeds)
    codes = np.zeros(num, dtype=np.int8)
    acc = np.zeros(num)
    skipped = 0
    live = np.arange(num)
    prev = np.broadcast_to(start, seeds.shape)
    cur = seeds
    # each level's points as one array, with the ids of their nets
    ids, points = [live, live], [prev, cur]
    level = 1
    while live.size:
        lv = _Level(cur, prev, data, cfg.kernel)
        _check_moved(prev, lv.back_norm, cfg.epsilon)
        gram = lv.gram
        code = np.zeros(live.size, dtype=np.int8)
        # stop check of the candidate that just arrived (at level 1, the seed)
        _stop(code, gram.antipodal | lv.back_antipodal, StopReason.ANTIPODAL_GUARD)
        _stop(code, gram.hull(lv.back), StopReason.CONVEX_HULL_EXIT)
        _stop(code, gram.nearest > cfg.delta, StopReason.EMPTY_NEIGHBORHOOD)
        # the candidate ends a path of level epsilon-steps; _past_cap adds the last
        _stop(code, _past_cap((level - 1) * cfg.epsilon, cfg), StopReason.LENGTH_EXCEEDED)
        # the step from cur, in the order the reference path raises
        _stop(code, lv.empty, StopReason.EMPTY_NEIGHBORHOOD)
        step = np.flatnonzero(code == 0)
        score_frames, step_frames = lv.frames(cfg.dim, step)
        terms, scored = _score_terms(lv, score_frames, cfg, base_w, level)
        acc[live] += terms
        skipped += int((~scored).sum())
        cand, code[step] = _step_rows(lv, step, step_frames, cfg)
        codes[live] = code
        go = code == 0
        live = live[go]
        ids.append(live)
        points.append(cand)
        prev = cur[go]
        cur = cand
        level += 1
    # split the levels per net once: a stable sort by net keeps level order
    net_ids = np.concatenate(ids)
    bounds = np.cumsum(np.bincount(net_ids))[:-1]
    paths = np.split(np.concatenate(points)[np.argsort(net_ids, kind="stable")], bounds)
    return paths, codes, acc, skipped


def fit_submanifold(data: PointArray, start: Point, cfg: FitConfig) -> Submanifold:
    """Grow a full fan of nets from the start point; cfg.dim = 1 grows the
    flow, two nets seeded at +/- epsilon * e1(start).

    The local covariance at the start must support cfg.dim directions
    (RankDeficientError otherwise), and a step that rounds off epsilon, as
    one can far from a flat chart's origin, raises ValueError (_check_moved).
    Chunks of nets grow in lockstep, one level at a time.  A net's points do
    not depend on which nets share its chunk, so results are bit-identical
    across runs and chunk sizes.  The fit also scores its own nets from the
    same logs; variation_score returns that score for the PointArray given here.
    """
    xs = points_matrix(data, start)
    chart = start.chart
    gram = _GramData(xs, chart)
    frame = _frame_at(start, gram, cfg.kernel, cfg.dim)
    seeds = seed_directions(start, frame, cfg).coords
    base_w = _score_weight(cfg, len(seeds))
    nets, per_net, skipped = [], [], 0
    for chunk in _chunks(len(seeds), gram):
        paths, codes, acc, skips = _grow_chunk(
            start.coords, seeds[chunk.start:chunk.stop], gram, cfg, base_w)
        for index, path, code in zip(chunk, paths, codes.tolist()):
            nets.append(Net(index + 1, PointArray(path, chart), _REASONS[code]))
        per_net += acc.tolist()
        skipped += skips
    sub = Submanifold(start, tuple(nets), frame, cfg)
    score = VariationScore(float(sum(per_net)), tuple(per_net), skipped)
    object.__setattr__(sub, "_fit_score", (data, score))
    return sub


def net_length(net: Net) -> float:
    """Sum of consecutive geodesic distances along a net (0 for one point)."""
    coords = net.points.coords
    return float(_distance_rows(coords[:-1], coords[1:], net.points.chart).sum())


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
    for chunk in _chunks(len(nets), gram):
        # the chunk's paths end to end, net j's first point at row starts[j]:
        # its point at level i is rows[starts[j] + i]
        paths = [nets[i].points.coords for i in chunk]
        lengths = np.array([len(path) for path in paths])
        starts = np.cumsum(lengths) - lengths
        rows = np.concatenate(paths)
        for level in range(1, int(lengths.max())):
            live = np.flatnonzero(lengths > level)
            at = starts[live] + level
            lv = _Level(rows[at], rows[at - 1], gram, cfg.kernel)
            frames, _ = lv.frames(cfg.dim, np.arange(0))
            terms, scored = _score_terms(lv, frames, cfg, base_w, level)
            per_net[chunk.start + live] += terms
            skipped += int((~scored).sum())
    per_net = per_net.tolist()
    return VariationScore(float(sum(per_net)), tuple(per_net), skipped)


def variation_score(sub: Submanifold, data: PointArray) -> VariationScore:
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
    point antipodal to a data point, equal to its predecessor, or whose
    demeaned covariance is empty or rank-deficient, contributes 0 (skipped).

    fit_submanifold scores its nets while growing them; that score is
    returned when data is the fit's own PointArray, matched by identity.  Any
    other Submanifold (dataclasses.replace drops the stored score) or data, an
    equal copy too, is rescored level by level through the same kernel, to equal results.
    """
    xs = points_matrix(data, sub.start)
    if sub._fit_score is not None and sub._fit_score[0] is data:
        return sub._fit_score[1]
    return _score_nets(sub, xs)
