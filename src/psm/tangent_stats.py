"""Statistics in tangent spaces: means, kernel covariances, eigenframes.

These are the ingredients the net-growing fitter consumes at every level:
a kernel-weighted second moment of log images and its leading eigenvectors.
Both come from one Gram-form kernel (_GramLevel), which works from the
inner products of the base points with the data rather than from the logs
themselves; every public statistic here is its one-row case.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    AntipodalPairError,
    DimensionMismatchError,
    EmptyNeighborhoodError,
    HemisphereViolationError,
    NoConvergenceError,
    RankDeficientError,
    ZeroVectorError,
)
from .geometry import (
    _ANTIPODAL_TOL,
    _ZERO_TOL,
    FLAT,
    SPHERE,
    Point,
    PointArray,
    _distance_rows,
    _row_dots,
    _tangent_dim,
    exp_map,
    points_matrix,
    project_to_sphere,
)

UNIFORM_BALL = "uniform_ball"
GAUSSIAN = "gaussian"

_RANK_TOL = 1e-12
_TIE_TOL = 1e-12
_SIGN_TOL = 1e-12
_NORMAL_TOL = 1e-8  # a sphere eigenvector shorter than this off the base is normal
_MEAN_TOL = 1e-10  # Riemannian gradient norm at which frechet_mean stops
_MEAN_MAX_ITER = 200


@dataclass(frozen=True)
class KernelSpec:
    """Locality kernel: uniform ball indicator (default) or Gaussian profile."""

    kind: str = UNIFORM_BALL
    bandwidth: float = math.inf

    def __post_init__(self):
        if self.kind not in (UNIFORM_BALL, GAUSSIAN):
            raise ValueError(f"unknown kernel kind {self.kind!r}")
        if not self.bandwidth > 0:
            raise ValueError("bandwidth must be positive (inf allowed)")

    def weights(self, dists: np.ndarray) -> np.ndarray:
        dists = np.asarray(dists, dtype=float)
        if math.isinf(self.bandwidth):
            return np.ones_like(dists)
        if self.kind == UNIFORM_BALL:
            return (dists <= self.bandwidth).astype(float)
        # exp(-(d / h)^2 / 2) in one new buffer; dists is left as it is.  A tiny
        # h overflows d / h or its square to inf, whose weight exp(-inf) = 0
        # is the exact limit.
        with np.errstate(over="ignore"):
            w = np.divide(dists, self.bandwidth, out=np.empty_like(dists))
            np.square(w, out=w)
            w *= -0.5
            return np.exp(w, out=w)


@dataclass(frozen=True, eq=False)
class EigenFrame:
    """Top-k eigenvectors of a tangent covariance, one row of basis (k, m)
    each, eigenvalues nonincreasing; both arrays are read-only."""

    basis: np.ndarray
    eigenvalues: np.ndarray
    degenerate: bool = False

    def __post_init__(self):
        for name in ("basis", "eigenvalues"):
            arr = np.array(getattr(self, name), dtype=float)
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)

    @property
    def k(self) -> int:
        return len(self.basis)


# -- the Gram-form kernel --
#
# With the data rows centred once at one of them, y = z + y' for z = ys[0],
# the log of y at a base point x is
#
#     sphere:  log_x(y) = s (P y' + t),  P = I - x x^T,  t = P z,
#              s = theta / sin(theta),  theta = arccos(<x, y>)
#     flat:    log_x(y) = y' + t,        t = z - x       (P = I, s = 1)
#
# so every kernel statistic of the logs follows from the (B, n) products
# Y' x (or Y' t) and the centred data matrix Y', with no (B, n, m) tensor
# of logs.  Any fixed z keeps the algebra exact; one inside the data keeps
# the expanded products the size of the data's spread and of |t|, not 1.
# Y' is stored once, column-major, as Y'^T (m, n), so every product runs
# along rows of length n: x^T Y'^T as (B, 1, m) @ (m, n), Y'^T a as
# (m, n) @ (B, n, 1), and Y'^T diag(a) Y' as (b, m, n) @ (n, m) through
# one reused (b, m, n) weighted stack, b base rows per call, where b
# (_GramData.batch) keeps that stack within _LEVEL_ARRAY_BYTES.  Each
# product is stacked per base row, so a row's statistics do not depend on
# the rows stacked with it (geometry's stacked-matmul rule), and a single
# center is the one-row case.

# Budget of each stacked array of one level, which holds per base row one
# float64 row of n (weights, log scales, ...), one m x m matrix (covariances,
# their Gram terms) or one (m, n) weighted copy of the data; the fit's chunk
# size and the covariance's sub-batch follow from it.  320 KiB is the
# smallest multiple of 64 KiB at which two nets over 20,000 rows (160 KB a
# row) share a chunk; BENCH_columns.json holds the RSS probe behind it.
_LEVEL_ARRAY_BYTES = 320 * 1024

class _GramData:
    """A data matrix xs (n, m) on chart as the Gram kernel reads it: the rows
    centred at the first row, origin, stored once as yt (m, n), C-contiguous;
    ys (n, m) is its transposed view, not a copy.  batch is the number of
    base rows whose (m, n) weighted copies of yt fit in _LEVEL_ARRAY_BYTES
    (at least 1), and chunk the number of nets the fit grows together, whose
    (nets, n) kernel rows and (nets, m, m) covariances each fit it."""

    def __init__(self, xs: np.ndarray, chart: str):
        self.chart = chart
        self.origin = xs[0].copy()
        self.yt = np.subtract(xs.T, self.origin[:, None], order="C")
        self.ys = self.yt.T
        self.batch = max(1, _LEVEL_ARRAY_BYTES // self.yt.nbytes)
        self.chunk = max(1, _LEVEL_ARRAY_BYTES // (8 * max(xs.shape[0], xs.shape[1] ** 2)))
        if chart == FLAT:
            # the kernel's products sum squared distances from the first row
            with np.errstate(over="ignore", invalid="ignore"):
                self.sq = np.einsum("ij,ij->j", self.yt, self.yt)
                if not np.isfinite(self.sq.sum()):
                    spread = float(np.abs(self.yt).max())
                    raise ValueError(
                        f"the data spread {spread:.3g} from their first row is too wide: "
                        "the kernel's squared distances overflow float64; rescale the data")


def _arcs(c: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """theta = arccos(c) and s = theta / sin(theta) for clipped inner products
    c (B, n); s is written over c.  s = 1 at a zero arc, and an antipodal row
    (flagged by the caller) gets 0."""
    theta = np.arccos(c)
    sin = np.subtract(1.0, c)
    c += 1.0
    sin *= c
    np.sqrt(sin, out=sin)
    flat = sin <= _ZERO_TOL
    if not flat.any():
        np.divide(theta, sin, out=c)
        return theta, c
    zero_arc = c[flat] > 1.0  # s where sin vanishes: 1 at c = 1, 0 at c = -1 (c holds 1 + c)
    with np.errstate(divide="ignore", invalid="ignore"):
        np.divide(theta, sin, out=c)
    c[flat] = zero_arc
    return theta, c


class _GramLevel:
    """Kernel statistics of the data's logs at stacked base points x (B, m).

    w and s (B, n) hold the kernel weights and the log scales
    theta / sin(theta) (s is the scalar 1.0 on the flat chart), b = w s
    (B, n) the weights of the tangent mean, total (B,) the weight sums and
    nearest (B,) the distance to the nearest data row;
    antipodal (B,) flags a base point with a data row within _ANTIPODAL_TOL
    of its antipode, whose statistics are meaningless.  On the sphere theta
    comes from <x, y>, and arccos loses about half the digits of a short
    arc; here a short arc only feeds the kernel weight, which is flat there,
    and s, which tends to 1.  The distances themselves are not kept.
    """

    def __init__(self, x: np.ndarray, data: _GramData, kernel: KernelSpec):
        self.x, self.data = x, data
        yt, z = data.yt, data.origin
        if data.chart == SPHERE:
            e = _row_dots(x, np.broadcast_to(z, x.shape))
            self.t = z - e[:, None] * x
            c = np.matmul(x[:, None, :], yt)[:, 0]
            c += e[:, None]
            np.clip(c, -1.0, 1.0, out=c)
            self.antipodal = np.any(c < -1.0 + _ANTIPODAL_TOL, axis=-1)
            dists, self.s = _arcs(c)
        else:
            self.t = z - x
            dists = np.matmul(self.t[:, None, :], yt)[:, 0]
            dists *= 2.0
            dists += data.sq
            dists += _row_dots(self.t, self.t)[:, None]
            np.sqrt(np.maximum(dists, 0.0, out=dists), out=dists)
            self.s = 1.0  # the flat log is y - x: no (B, n) array of ones
            self.antipodal = np.zeros(len(x), dtype=bool)
        self.w = kernel.weights(dists)
        self.b = self.w * self.s
        self.nearest = dists.min(axis=-1)
        self.total = self.w.sum(axis=-1)

    def _tangent(self, v: np.ndarray) -> np.ndarray:
        """P v for stacked rows v (B, m)."""
        if self.data.chart == FLAT:
            return v
        return v - _row_dots(v, self.x)[:, None] * self.x

    def _per_weight(self) -> np.ndarray:
        return np.where(self.total > 0.0, self.total, 1.0)

    def mean(self) -> np.ndarray:
        """Kernel-weighted tangent means (B, m): [P Y'^T b + (sum b) t] / sum w, b = w s."""
        h = np.matmul(self.data.yt, self.b[:, :, None])[:, :, 0]
        mean = self._tangent(h) + self.b.sum(axis=-1)[:, None] * self.t
        return mean / self._per_weight()[:, None]

    def covariance(self) -> np.ndarray:
        """Raw kernel covariances (B, m, m) of the logs: P M P / sum w, with

            M = Y'^T diag(a) Y' + g t^T + t g^T + (sum a) t t^T,
            a = b s = w s^2,  g = Y'^T a.

        A base point whose weight total is 0 gets a zero matrix, and callers
        treat it as an empty neighbourhood.
        """
        a = self.b * self.s
        yt = self.data.yt
        g = np.matmul(yt, a[:, :, None])[:, :, 0]
        t = self.t
        gt = g[:, :, None] * t[:, None, :]
        tt = t[:, :, None] * t[:, None, :]
        # Y'^T diag(a) Y' for data.batch base rows a call, through one weighted stack
        yay = np.empty_like(gt)
        batch = self.data.batch
        weighted = np.empty((min(batch, len(a)),) + yt.shape)
        for lo in range(0, len(a), batch):
            ai = a[lo:lo + batch, None, :]
            np.matmul(np.multiply(yt, ai, out=weighted[:len(ai)]), self.data.ys,
                      out=yay[lo:lo + batch])
        cov = yay + gt + gt.transpose(0, 2, 1) + a.sum(axis=-1)[:, None, None] * tt
        if self.data.chart == SPHERE:
            x = self.x
            mx = np.matmul(cov, x[:, :, None])[:, :, 0]
            xmx = x[:, :, None] * mx[:, None, :]
            xx = x[:, :, None] * x[:, None, :]
            cov = cov - xmx - xmx.transpose(0, 2, 1) + _row_dots(x, mx)[:, None, None] * xx
        cov /= self._per_weight()[:, None, None]
        return (cov + cov.transpose(0, 2, 1)) / 2.0

    def hull(self, back: np.ndarray) -> np.ndarray:
        """(B,) True where every data row y has <log_x(y), back> >= 0, whose
        sign is that of <y', P back> + <t, back>."""
        yb = np.matmul(self._tangent(back)[:, None, :], self.data.yt)[:, 0]
        yb += _row_dots(self.t, back)[:, None]
        return np.all(yb >= 0.0, axis=-1)


def _demeaned(cov: np.ndarray, mean: np.ndarray) -> np.ndarray:
    """Raw covariances (B, m, m) less the outer products of their tangent means."""
    return cov - mean[:, :, None] * mean[:, None, :]


def _cov_at(center: np.ndarray, data: _GramData, kernel: KernelSpec,
            demean: bool = False) -> np.ndarray:
    """Kernel covariance of the data's logs at one center (m,)."""
    lv = _GramLevel(center[None], data, kernel)
    if lv.antipodal[0]:
        raise AntipodalPairError("log undefined for an antipodal pair")
    if lv.total[0] <= 0.0:
        raise EmptyNeighborhoodError(
            f"no data carries kernel weight within bandwidth {kernel.bandwidth!r}")
    cov = lv.covariance()
    return (_demeaned(cov, lv.mean()) if demean else cov)[0]


def local_covariance(center: Point, data: PointArray, kernel: KernelSpec, *,
                     demean: bool = False) -> np.ndarray:
    """Kernel-weighted second moment of the data's log images at center.

    The kernel weighs each point by its geodesic distance |log_center(x_i)|.
    The fit uses this raw moment; demean=True subtracts the weighted tangent
    mean first, the classical local PCA of the variation diagnostic.  Returns
    a symmetric (m, m) matrix for m coordinates, which on the sphere
    annihilates the center up to rounding.  Raises EmptyNeighborhoodError
    when no point carries weight, and DimensionMismatchError for data off the
    center's chart or width.
    """
    xs = points_matrix(data, center)
    return _cov_at(center.coords, _GramData(xs, center.chart), kernel, demean)


def _top_frame_coords(cov: np.ndarray, base: np.ndarray, chart: str, k: int):
    """Top-k eigenpairs of stacked covariances (B, m, m) at base points (B, m).

    Returns (rows (B, k, m), values (B, k), degenerate (B,), ranked (B,)).
    ranked is False where the k-th eigenvalue is <= _RANK_TOL or, on the
    sphere, an eigenvector is nearly normal to the tangent space; those
    rows are meaningless.  Rows keep eigh's sign: the fit's uses are
    sign-invariant, and eigenframe() fixes it.
    """
    vals, vecs = np.linalg.eigh(cov)
    # eigh's eigenvalues ascend; reversed, in a contiguous copy as are the rows
    vals = np.ascontiguousarray(vals[:, ::-1])
    ranked = vals[:, k - 1] > _RANK_TOL
    degenerate = vals[:, k - 1] - vals[:, k] <= _TIE_TOL if vals.shape[1] > k \
        else np.zeros(len(vals), dtype=bool)
    # Each eigenvector as one contiguous row, as eigh lays out its columns: a
    # strided dot product below would sum in another order.
    rows = np.ascontiguousarray(vecs.transpose(0, 2, 1)[:, ::-1][:, :k])
    if chart == SPHERE:
        # the kernel's covariances annihilate the base up to rounding
        rows = rows - np.matmul(rows[:, :, None, :], base[:, None, :, None])[:, :, :, 0] \
            * base[:, None, :]
        n = np.sqrt(np.matmul(rows[:, :, None, :], rows[:, :, :, None]))[:, :, 0]
        ranked &= np.all(n >= _NORMAL_TOL, axis=(1, 2))
        rows = rows / np.where(n < _NORMAL_TOL, 1.0, n)
    return rows, vals[:, :k], degenerate, ranked


def _frame_at(center: Point, data: _GramData, kernel: KernelSpec, k: int) -> EigenFrame:
    """The fit's start frame: the widest eigenframe (k to max(k, min(3, d)) rows,
    d the tangent dimension) of the raw kernel covariance at center, from the
    fit's own _GramData.  When k rows do not rank the error names the kernel and
    the rows it weights, or, when every row weighted alike cannot either, says so."""
    cov = _cov_at(center.coords, data, kernel)
    for width in range(max(k, min(3, _tangent_dim(center.chart, center.ambient_dim))), k - 1, -1):
        try:
            return eigenframe(cov, center, width)
        except RankDeficientError as exc:
            error = exc  # the last, at k rows, words the message
    n = data.yt.shape[1]
    try:
        eigenframe(_cov_at(center.coords, data, KernelSpec()), center, k)
    except RankDeficientError:
        raise RankDeficientError(
            f"{error} at the start: the {n} data rows span fewer than {k} directions "
            "there, whatever the bandwidth") from None
    weighted = int(np.count_nonzero(_GramLevel(center.coords[None], data, kernel).w))
    raise RankDeficientError(
        f"{error} at the start: the {kernel.kind} kernel of bandwidth "
        f"{kernel.bandwidth!r} gives weight to {weighted} of {n} "
        "data rows there; a larger --bandwidth lets more rows carry weight")


def eigenframe(cov: np.ndarray, base: Point, k: int) -> EigenFrame:
    """Top-k eigenpairs of a symmetric covariance at base, the vectors as rows.

    Eigenvalues come out nonincreasing.  Sign rule: each eigenvector is
    negated, exactly, where its first coordinate larger than 1e-12 in size is
    negative, so that coordinate is positive and repeated runs are
    bit-identical.
    Ties within 1e-12 across the k-th boundary set the degenerate flag.
    k runs from 1 to the tangent dimension at base (ValueError otherwise).
    Raises RankDeficientError when the k-th eigenvalue is <= 1e-12.
    """
    cov = np.asarray(cov, dtype=float)
    if cov.ndim != 2 or cov.shape[0] != cov.shape[1]:
        raise ValueError("covariance must be a square matrix")
    if cov.shape[0] != base.ambient_dim:
        raise DimensionMismatchError("covariance and base point dimensions differ")
    if not np.allclose(cov, cov.T, atol=1e-8):
        raise ValueError("covariance must be symmetric")
    dim = _tangent_dim(base.chart, base.ambient_dim)
    if not 1 <= k <= dim:
        raise ValueError(f"k must be between 1 and the tangent dimension {dim}")
    rows, vals, degenerate, ranked = _top_frame_coords(cov[None], base.coords[None], base.chart, k)
    if not ranked[0]:
        if vals[0, k - 1] <= _RANK_TOL:
            raise RankDeficientError(
                f"requested {k} directions but eigenvalue {k} is {float(vals[0, k - 1])!r}")
        raise RankDeficientError("eigenvector nearly normal to the tangent space")
    rows = rows[0]
    lead = rows[np.arange(k), np.argmax(np.abs(rows) > _SIGN_TOL, axis=1)]
    return EigenFrame(np.where(lead[:, None] < 0, -rows, rows), vals[0], bool(degenerate[0]))


def frechet_mean(data: PointArray) -> Point:
    """Intrinsic mean; on the flat chart, the arithmetic mean.

    On the sphere, fixed-point iteration p <- exp_p(mean log_p(x_i)) from the
    normalized extrinsic average, until the Riemannian gradient norm
    |mean log| drops to _MEAN_TOL.  Data outside an open hemisphere surfaces
    as HemisphereViolationError; _MEAN_MAX_ITER steps without it raise
    NoConvergenceError.  The flat chart's mean is that iteration's exact
    fixed point, which a float gradient far from the origin cannot resolve.
    """
    xs, chart = points_matrix(data), data.chart
    if chart == FLAT:
        return Point(xs.mean(axis=0), FLAT)
    try:
        center = project_to_sphere(xs.mean(axis=0))
    except ZeroVectorError as exc:
        raise HemisphereViolationError(
            "extrinsic average vanishes; data spans no open hemisphere") from exc
    gram, unit = _GramData(xs, chart), KernelSpec()
    for _ in range(_MEAN_MAX_ITER):
        lv = _GramLevel(center.coords[None], gram, unit)
        if lv.antipodal[0]:
            raise HemisphereViolationError("mean iterate became antipodal to a data point")
        grad = lv.mean()[0]
        if float(np.linalg.norm(grad)) <= _MEAN_TOL:
            return center
        center = exp_map(center, grad)
    raise NoConvergenceError(f"Frechet mean did not converge in {_MEAN_MAX_ITER} iterations")


def frechet_variance(center: Point, data: PointArray) -> float:
    """Mean squared geodesic distance from the center to the data."""
    xs = points_matrix(data, center)
    dists = _distance_rows(np.broadcast_to(center.coords, xs.shape), xs, center.chart)
    return float(np.mean(dists ** 2))
