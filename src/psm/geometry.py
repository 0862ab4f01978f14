"""Geometric primitives on the embedded unit sphere S^d and on flat charts.

Sphere points are unit vectors in R^{d+1}; tangent vectors at x live in the
hyperplane orthogonal to x.  The flat chart treats R^{d+1} itself as the
manifold, so exp and log reduce to vector addition and subtraction.  All
closed forms are the standard great-circle ones:

    exp_x(v) = cos(|v|) x + sin(|v|) v/|v|
    log_x(y) = theta * (y - <x,y> x) / |y - <x,y> x|,  theta = arccos(<x,y>)

with the inner product clipped to [-1, 1] before arccos.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .errors import AntipodalPairError, CutLocusError, ZeroVectorError

SPHERE = "sphere"
FLAT = "flat"
_CHARTS = (SPHERE, FLAT)

_UNIT_TOL = 1e-12     # |norm - 1| allowed for sphere points
_TANGENT_TOL = 1e-10  # |<base, vec>| allowed for sphere tangents
_ZERO_TOL = 1e-14
_ANTIPODAL_TOL = 1e-10  # <x,y> < -1 + tol is treated as antipodal
_CUT_LOCUS_TOL = 1e-9


def _checked_coords(values, chart: str, ndim: int) -> np.ndarray:
    """values as a read-only float array of ndim 1 (a point) or 2 (a point per row)."""
    if chart not in _CHARTS:
        raise ValueError(f"unknown chart {chart!r}")
    arr = np.array(values, dtype=float)
    if arr.ndim != ndim or arr.shape[-1] < 2 or arr.shape[0] < 1:
        raise ValueError(f"expected {ndim}-d coordinates of width >= 2, got shape {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise ValueError("coordinates must be finite")
    if chart == SPHERE:
        off = float(np.max(np.abs(_row_norms(arr.reshape(-1, arr.shape[-1])) - 1.0)))
        if off > _UNIT_TOL:
            raise ValueError(f"sphere points must have unit norm, one is off by {off!r}")
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True, eq=False)
class Point:
    """A location on S^d (chart 'sphere') or in Euclidean space (chart 'flat')."""

    coords: np.ndarray
    chart: str = SPHERE

    def __post_init__(self):
        object.__setattr__(self, "coords", _checked_coords(self.coords, self.chart, 1))

    @property
    def ambient_dim(self) -> int:
        return self.coords.shape[0]


@dataclass(frozen=True, eq=False)
class PointArray(Sequence):
    """A read-only (n, m) matrix of n points on one chart, each row checked as a Point
    is; indexing builds a Point (a slice gives a PointArray)."""

    coords: np.ndarray
    chart: str = SPHERE

    def __post_init__(self):
        object.__setattr__(self, "coords", _checked_coords(self.coords, self.chart, 2))

    def __len__(self) -> int:
        return self.coords.shape[0]

    def __getitem__(self, index):
        if isinstance(index, slice):
            return PointArray(self.coords[index], self.chart)
        return Point(self.coords[index], self.chart)


@dataclass(frozen=True, eq=False)
class Tangent:
    """A tangent vector attached to a base point."""

    base: Point
    vec: np.ndarray

    def __post_init__(self):
        vec = np.array(self.vec, dtype=float)
        if vec.shape != self.base.coords.shape:
            raise ValueError("tangent vector and base point dimensions differ")
        if not np.all(np.isfinite(vec)):
            raise ValueError("tangent components must be finite")
        if self.base.chart == SPHERE:
            inner = abs(float(vec @ self.base.coords))
            if inner > _TANGENT_TOL:
                raise ValueError(f"tangent not orthogonal to base point: <x,v> = {inner!r}")
        vec.setflags(write=False)
        object.__setattr__(self, "vec", vec)

    @property
    def norm(self) -> float:
        return float(np.linalg.norm(self.vec))


# -- coordinate-level core, shared by the public wrappers and the fitting loop --
#
# The row-wise and batched forms below stack their operands and take every
# inner product as a stacked np.matmul, which calls the same BLAS kernel per
# row as the 1-d dot, gemv or gemm of a single call.  math.acos, math.asin,
# math.cos and math.sin run per row (numpy's versions can differ in the last
# bit); elementwise ufuncs give the same bits anywhere in an array.  A
# result therefore does not depend on how many rows are stacked with it,
# and the single-point forms are the one-row case.

def _row_dots(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """<a[i], b[i]> for stacked (B, m) rows."""
    return np.matmul(a[:, None, :], b[:, :, None])[:, 0, 0]


def _row_norms(a: np.ndarray) -> np.ndarray:
    """|a[i]| for stacked (B, m) rows, equal to np.linalg.norm of each row."""
    return np.sqrt(_row_dots(a, a))


def _per_row(fn, values: np.ndarray) -> np.ndarray:
    return np.array([fn(v) for v in values.tolist()], dtype=float)


def _exp_rows(xs: np.ndarray, vs: np.ndarray, chart: str):
    """exp_{xs[i]}(vs[i]) for stacked rows.  Returns (points, cut (B,) bool).

    cut flags steps that reach the cut locus; their rows are meaningless.
    """
    if chart == FLAT:
        return xs + vs, np.zeros(len(xs), dtype=bool)
    n = _row_norms(vs)
    small = n < _ZERO_TOL
    safe = np.where(small, 1.0, n)
    out = (_per_row(math.cos, n)[:, None] * xs
           + (_per_row(math.sin, n) / safe)[:, None] * vs)
    out = out / _row_norms(out)[:, None]
    out[small] = xs[small]
    return out, n >= math.pi - _CUT_LOCUS_TOL


def _log_rows(xs: np.ndarray, ys: np.ndarray, chart: str):
    """log_{xs[i]}(ys[i]) for stacked rows.  Returns (vectors, antipodal (B,) bool).

    antipodal flags pairs within _ANTIPODAL_TOL of antipodal; their rows
    are meaningless.
    """
    if chart == FLAT:
        return ys - xs, np.zeros(len(xs), dtype=bool)
    c = np.clip(_row_dots(xs, ys), -1.0, 1.0)
    u = ys - c[:, None] * xs
    nu = _row_norms(u)
    zero = nu < _ZERO_TOL
    vecs = (_per_row(math.acos, c) / np.where(zero, 1.0, nu))[:, None] * u
    vecs[zero] = 0.0
    return vecs, c < -1.0 + _ANTIPODAL_TOL


def _distance_rows(xs: np.ndarray, ys: np.ndarray, chart: str) -> np.ndarray:
    """Geodesic distances between stacked rows xs[i] and ys[i]."""
    if chart == FLAT:
        return _row_norms(ys - xs)
    # Half-chord form of arccos(x.y): well conditioned at both ends of
    # [0, pi], where the naive arccos loses half the significant digits,
    # and bit-symmetric in its arguments since y - x and x - y are exact
    # negations.
    near = _row_dots(xs, ys) >= 0.0
    half = np.minimum(1.0, 0.5 * _row_norms(np.where(near[:, None], ys - xs, ys + xs)))
    arc = 2.0 * _per_row(math.asin, half)
    return np.where(near, arc, math.pi - arc)


def _log_coords_batch(xs: np.ndarray, ys: np.ndarray, chart: str):
    """Logs of the rows of ys (n, m) at each base point xs (B, m).

    Returns (vectors (B, n, m), geodesic distances (B, n), antipodal (B,)
    bool); antipodal flags a base point with a row of ys within
    _ANTIPODAL_TOL of its antipode, and that base point's logs are
    meaningless.
    """
    if chart == FLAT:
        diffs = ys - xs[:, None, :]
        return diffs, np.linalg.norm(diffs, axis=-1), np.zeros(len(xs), dtype=bool)
    c = np.clip(np.matmul(ys, xs[:, :, None])[:, :, 0], -1.0, 1.0)
    theta = np.arccos(c)
    u = c[:, :, None] * xs[:, None, :]
    np.subtract(ys, u, out=u)
    nu = np.linalg.norm(u, axis=-1)
    zero = nu < _ZERO_TOL
    u *= (theta / np.where(zero, 1.0, nu))[:, :, None]
    u[zero] = 0.0
    return u, theta, np.any(c < -1.0 + _ANTIPODAL_TOL, axis=-1)


def _exp_coords(x: np.ndarray, v: np.ndarray, chart: str) -> np.ndarray:
    out, cut = _exp_rows(x[None], v[None], chart)
    if cut[0]:
        raise CutLocusError(
            f"exp step of length {float(_row_norms(v[None])[0])!r} reaches the cut locus")
    return out[0]


def _log_coords(x: np.ndarray, y: np.ndarray, chart: str) -> np.ndarray:
    vecs, antipodal = _log_rows(x[None], y[None], chart)
    if antipodal[0]:
        raise AntipodalPairError("log undefined for an antipodal pair")
    return vecs[0]


def _log_coords_many(x: np.ndarray, ys: np.ndarray, chart: str):
    """Logs of the rows of ys at x.  Returns (vectors, geodesic distances)."""
    vecs, dists, antipodal = _log_coords_batch(x[None], ys, chart)
    if antipodal[0]:
        raise AntipodalPairError("log undefined for an antipodal pair")
    return vecs[0], dists[0]


def _great_circle_coords(x: np.ndarray, unit: np.ndarray, t: float) -> np.ndarray:
    # Closed-form arc point without the cut-locus guard; used for sampling,
    # where reaching the antipode exactly is legitimate.
    out = math.cos(t) * x + math.sin(t) * unit
    return out / np.linalg.norm(out)


# -- public operations --

def project_to_sphere(v) -> Point:
    """Normalize an ambient vector onto the unit sphere."""
    arr = np.array(v, dtype=float)
    n = float(np.linalg.norm(arr))
    if n < _ZERO_TOL:
        raise ZeroVectorError("cannot project a zero vector to the sphere")
    return Point(arr / n, SPHERE)


def tangent_project(x: Point, w) -> Tangent:
    """Project an ambient vector into the tangent space at x.

    On the sphere this removes the radial component; on a flat chart it is
    the identity.
    """
    arr = np.array(w, dtype=float)
    if x.chart == SPHERE:
        arr = arr - (arr @ x.coords) * x.coords
    return Tangent(x, arr)


def exp_map(x: Point, v: Tangent) -> Point:
    """Follow the geodesic from x with initial velocity v for unit time.

    The result is renormalized onto the sphere.  Steps of length >= pi (up
    to a small tolerance) raise CutLocusError.
    """
    if v.base is not x and not np.array_equal(v.base.coords, x.coords):
        raise ValueError("tangent vector is based at a different point")
    return Point(_exp_coords(x.coords, v.vec, x.chart), x.chart)


def log_map(x: Point, y: Point) -> Tangent:
    """Inverse of exp_map: the tangent at x pointing to y with |log| = d(x, y)."""
    if x.chart != y.chart:
        raise ValueError("points live on different charts")
    if x.ambient_dim != y.ambient_dim:
        raise ValueError("points live in different ambient spaces")
    return Tangent(x, _log_coords(x.coords, y.coords, x.chart))


def geodesic_distance(x: Point, y: Point) -> float:
    """Arc-length distance on the sphere, Euclidean distance on a flat chart."""
    if x.chart != y.chart:
        raise ValueError("points live on different charts")
    if x.ambient_dim != y.ambient_dim:
        raise ValueError("points live in different ambient spaces")
    return float(_distance_rows(x.coords[None], y.coords[None], x.chart)[0])


def sample_geodesic(x: Point, v: Tangent, length: float, steps: int) -> list[Point]:
    """Evenly spaced points along the geodesic through x in direction v.

    The arc may reach the antipode exactly (length == pi); only arcs strictly
    longer than pi raise CutLocusError, since past the antipode the curve is
    no longer distance-minimizing.
    """
    if steps < 2:
        raise ValueError("steps must be at least 2")
    if length < 0:
        raise ValueError("length must be nonnegative")
    n = float(np.linalg.norm(v.vec))
    if n < _ZERO_TOL:
        raise ZeroVectorError("direction vector has zero length")
    if v.base is not x and not np.array_equal(v.base.coords, x.coords):
        raise ValueError("tangent vector is based at a different point")
    unit = v.vec / n
    ts = np.linspace(0.0, length, steps)
    if x.chart == FLAT:
        return [Point(x.coords + t * unit, FLAT) for t in ts]
    if length > math.pi + _CUT_LOCUS_TOL:
        raise CutLocusError("arc longer than pi leaves the minimal geodesic")
    return [Point(_great_circle_coords(x.coords, unit, float(t)), SPHERE) for t in ts]


def chart_of(data) -> str:
    """The chart of a homogeneous point set: a PointArray's own, else its first Point's."""
    return data.chart if isinstance(data, PointArray) else data[0].chart


def points_matrix(data) -> np.ndarray:
    """The (n, d+1) coordinate matrix of a homogeneous point set.

    A PointArray's read-only coords pass through without a copy; any other
    sequence of Points is stacked into a new matrix.
    """
    if isinstance(data, PointArray):
        return data.coords
    seq = list(data)
    if not seq:
        raise ValueError("empty point list")
    chart = seq[0].chart
    dim = seq[0].ambient_dim
    for p in seq:
        if p.chart != chart or p.ambient_dim != dim:
            raise ValueError("points must share one chart and ambient dimension")
    return np.stack([p.coords for p in seq])
