"""Statistics in tangent spaces: means, kernel covariances, eigenframes.

These are the ingredients the net-growing fitter consumes at every level:
a kernel-weighted second moment of log images and its leading eigenvectors.
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
    FLAT,
    SPHERE,
    Point,
    Tangent,
    _exp_coords,
    _log_coords_many,
    points_matrix,
    project_to_sphere,
)

UNIFORM_BALL = "uniform_ball"
GAUSSIAN = "gaussian"

_RANK_TOL = 1e-12
_TIE_TOL = 1e-12
_SIGN_TOL = 1e-12
_ZERO_TOL = 1e-14


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
        return np.exp(-0.5 * (dists / self.bandwidth) ** 2)


@dataclass(frozen=True, eq=False)
class EigenFrame:
    """Top-k eigenvectors of a tangent covariance, eigenvalues nonincreasing."""

    base: Point
    vectors: tuple[Tangent, ...]
    eigenvalues: np.ndarray
    degenerate: bool = False

    def __post_init__(self):
        vals = np.array(self.eigenvalues, dtype=float)
        vals.setflags(write=False)
        object.__setattr__(self, "eigenvalues", vals)

    @property
    def k(self) -> int:
        return len(self.vectors)

    def basis(self) -> np.ndarray:
        """The frame as a (k, d+1) row matrix."""
        return np.stack([t.vec for t in self.vectors])


def _cov_coords(vecs: np.ndarray, w: np.ndarray, total: np.ndarray,
                demean: bool = False) -> np.ndarray:
    """Stacked kernel covariances (B, m, m) from the data's logs at B centers.

    vecs (B, n, m) holds the logs at each center, w (B, n) their kernel
    weights and total (B,) the weight sums; a center whose total is 0 gets
    a zero matrix, and callers treat it as an empty neighbourhood.
    """
    total = np.where(total > 0.0, total, 1.0)[:, None, None]
    if demean:
        vecs = vecs - np.matmul(w[:, None, :], vecs) / total
    cov = np.matmul((vecs * w[:, :, None]).transpose(0, 2, 1), vecs) / total
    return (cov + cov.transpose(0, 2, 1)) / 2.0


def _cov_at(vecs: np.ndarray, dists: np.ndarray, kernel: KernelSpec,
            demean: bool = False) -> np.ndarray:
    """Kernel covariance from the data's logs (vecs, dists) at one center."""
    w = kernel.weights(dists)
    total = w.sum()
    if total <= 0.0:
        raise EmptyNeighborhoodError(
            f"no data carries kernel weight within bandwidth {kernel.bandwidth!r}")
    return _cov_coords(vecs[None], w[None], total[None], demean)[0]


def local_covariance(center: Point, data, kernel: KernelSpec, *,
                     demean: bool = False) -> np.ndarray:
    """Kernel-weighted second moment of log images at the center point.

    Parameters
    ----------
    center : Point
        Base point at which logs are taken.
    data : sequence of Point
        Sample points on the same chart.
    kernel : KernelSpec
        Weighting profile; weights are functions of geodesic distance, i.e.
        of |log_center(x_i)|.
    demean : bool
        When True the weighted tangent mean is subtracted before forming
        outer products.  The fitting algorithm uses the raw moment (False);
        the demeaned form is the classical local PCA used by the variation
        diagnostic.

    Returns
    -------
    (d+1, d+1) symmetric ndarray.  On the sphere chart the matrix annihilates
    the center point.  Raises EmptyNeighborhoodError when no point carries
    weight.
    """
    xs = points_matrix(data)
    if xs.shape[1] != center.ambient_dim:
        raise DimensionMismatchError("data and center have different ambient dimensions")
    vecs, dists = _log_coords_many(center.coords, xs, center.chart)
    return _cov_at(vecs, dists, kernel, demean)


def _fix_sign(vec: np.ndarray) -> np.ndarray:
    for comp in vec:
        if abs(comp) > _SIGN_TOL:
            return -vec if comp < 0 else vec
    return vec


def _top_frame_coords(cov: np.ndarray, base: np.ndarray, chart: str, k: int):
    """Top-k eigenpairs of stacked covariances (B, m, m) at base points (B, m).

    Returns (rows (B, k, m), values (B, k), degenerate (B,), ranked (B,)).
    ranked is False where the k-th eigenvalue is <= _RANK_TOL or, on the
    sphere, an eigenvector is nearly normal to the tangent space; those
    rows are meaningless.  Rows keep eigh's sign: the fit's uses are
    sign-invariant, and eigenframe() fixes it.
    """
    vals, vecs = np.linalg.eigh(cov)
    order = np.argsort(vals, axis=-1)[:, ::-1]
    vals = np.take_along_axis(vals, order, axis=-1)
    ranked = vals[:, k - 1] > _RANK_TOL
    degenerate = vals[:, k - 1] - vals[:, k] <= _TIE_TOL if vals.shape[1] > k \
        else np.zeros(len(vals), dtype=bool)
    # Each eigenvector as one contiguous row, as eigh lays out its columns: a
    # strided dot product below would sum in another order.
    rows = np.take_along_axis(vecs.transpose(0, 2, 1), order[:, :k, None], axis=1)
    if chart == SPHERE:
        # protective: genuine tangent covariances already annihilate the base
        rows = rows - np.matmul(rows[:, :, None, :], base[:, None, :, None])[:, :, :, 0] \
            * base[:, None, :]
        n = np.sqrt(np.matmul(rows[:, :, None, :], rows[:, :, :, None]))[:, :, 0]
        ranked &= np.all(n >= 1e-8, axis=(1, 2))
        rows = rows / np.where(n < 1e-8, 1.0, n)
    return rows, vals[:, :k], degenerate, ranked


def _top_frame_at(cov: np.ndarray, base: np.ndarray, chart: str, k: int):
    """_top_frame_coords for one covariance; returns (rows, values, degenerate).

    Raises RankDeficientError for a covariance that cannot carry k directions.
    """
    rows, vals, degenerate, ranked = _top_frame_coords(cov[None], base[None], chart, k)
    if not ranked[0]:
        if vals[0, k - 1] <= _RANK_TOL:
            raise RankDeficientError(
                f"requested {k} directions but eigenvalue {k} is {float(vals[0, k - 1])!r}")
        raise RankDeficientError("eigenvector nearly normal to the tangent space")
    return rows[0], vals[0], bool(degenerate[0])


def eigenframe(cov: np.ndarray, base: Point, k: int) -> EigenFrame:
    """Top-k eigenpairs of a symmetric covariance as tangents at base.

    Eigenvalues come out nonincreasing; each eigenvector has its first
    nonzero coordinate made positive so repeated runs are bit-identical.
    Ties within 1e-12 across the k-th boundary set the degenerate flag.
    Raises RankDeficientError when the k-th eigenvalue is <= 1e-12.
    """
    cov = np.asarray(cov, dtype=float)
    if cov.ndim != 2 or cov.shape[0] != cov.shape[1]:
        raise ValueError("covariance must be a square matrix")
    if cov.shape[0] != base.ambient_dim:
        raise DimensionMismatchError("covariance and base point dimensions differ")
    if not np.allclose(cov, cov.T, atol=1e-8):
        raise ValueError("covariance must be symmetric")
    if not 1 <= k <= cov.shape[0]:
        raise ValueError(f"k must be between 1 and {cov.shape[0]}")
    rows, vals, degenerate = _top_frame_at(cov, base.coords, base.chart, k)
    vectors = tuple(Tangent(base, _fix_sign(row)) for row in rows)
    return EigenFrame(base, vectors, vals, degenerate)


def frechet_mean(data, tol: float = 1e-10, max_iter: int = 200) -> Point:
    """Intrinsic mean by fixed-point iteration p <- exp_p(mean log_p(x_i)).

    Starts from the normalized extrinsic average.  Converges when the
    Riemannian gradient norm |mean log| drops to tol.  Data outside an open
    hemisphere surfaces as HemisphereViolationError; exhausting max_iter
    raises NoConvergenceError.
    """
    xs = points_matrix(data)
    chart = data[0].chart
    if chart == FLAT:
        center = xs.mean(axis=0)
    else:
        try:
            center = project_to_sphere(xs.mean(axis=0)).coords
        except ZeroVectorError as exc:
            raise HemisphereViolationError(
                "extrinsic average vanishes; data spans no open hemisphere") from exc
    for _ in range(max_iter):
        try:
            vecs, _ = _log_coords_many(center, xs, chart)
        except AntipodalPairError as exc:
            raise HemisphereViolationError(
                "mean iterate became antipodal to a data point") from exc
        grad = vecs.mean(axis=0)
        if float(np.linalg.norm(grad)) <= tol:
            return Point(center, chart)
        center = _exp_coords(center, grad, chart)
    raise NoConvergenceError(f"Frechet mean did not converge in {max_iter} iterations")


def frechet_variance(center: Point, data) -> float:
    """Mean squared geodesic distance from the center to the data."""
    xs = points_matrix(data)
    if xs.shape[1] != center.ambient_dim:
        raise DimensionMismatchError("data and center have different ambient dimensions")
    _, dists = _log_coords_many(center.coords, xs, center.chart)
    return float(np.mean(dists ** 2))


def subspace_cos_angle(frame_a: EigenFrame, frame_b: EigenFrame) -> float:
    """Cosine of the largest principal angle between two frame spans.

    Computed as the smallest singular value of the k x k matrix of pairwise
    inner products; 1 for equal spans, 0 when some direction of one span is
    orthogonal to all of the other.
    """
    if frame_a.k != frame_b.k:
        raise DimensionMismatchError("frames hold different numbers of directions")
    if frame_a.base.ambient_dim != frame_b.base.ambient_dim:
        raise DimensionMismatchError("frames live in different ambient spaces")
    m = frame_a.basis() @ frame_b.basis().T
    s = np.linalg.svd(m, compute_uv=False)
    return float(min(1.0, max(0.0, s[-1])))


def vector_subspace_cos(v: Tangent, frame: EigenFrame) -> float:
    """|proj_F v| / |v|: 1 when v lies in the span, 0 when orthogonal to it."""
    if v.base.ambient_dim != frame.base.ambient_dim:
        raise DimensionMismatchError("vector and frame live in different ambient spaces")
    n = v.norm
    if n < _ZERO_TOL:
        raise ZeroVectorError("cannot measure the angle of a zero vector")
    coeffs = frame.basis() @ (v.vec / n)
    return float(min(1.0, float(np.linalg.norm(coeffs))))
