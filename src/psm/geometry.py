"""Geometric primitives on the embedded unit sphere S^d and on flat charts.

Sphere points are unit vectors in R^{d+1}; tangent vectors at x are plain
(d+1,) arrays in the hyperplane orthogonal to x.  The flat chart treats
R^{d+1} itself as the manifold, so exp and log reduce to vector addition
and subtraction.  All closed forms are the standard great-circle ones:

    exp_x(v) = cos(|v|) x + sin(|v|) v/|v|
    log_x(y) = theta * u / |u|,  u = y - <x,y> x,  theta = atan2(|u|, <x,y>)

with the inner product clipped to [-1, 1].  The angle is taken from both
legs of the triangle: arccos(<x,y>) alone loses about half the significant
digits on a short arc.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .errors import AntipodalPairError, CutLocusError, DimensionMismatchError, ZeroVectorError

SPHERE = "sphere"
FLAT = "flat"
_CHARTS = (SPHERE, FLAT)

_UNIT_TOL = 1e-12     # |norm - 1| allowed for sphere points
_INPUT_UNIT_TOL = 1e-6  # |norm - 1| accepted, then renormalized, in sphere rows read from input
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


# -- coordinate-level core, shared by the public wrappers and the fitting loop --
#
# The row-wise forms below stack their operands and take every inner
# product as a stacked np.matmul, which calls the same BLAS kernel per row
# as the 1-d dot, gemv or gemm of a single call.  Every other step is an
# elementwise ufunc (np.cos, np.sin, np.arctan2, np.arcsin, ...) on a
# contiguous array computed here, which gives the same bits for a value
# anywhere in it; numpy may take another loop on a reversed view.  A result
# therefore does not depend on how many rows are stacked with it, and the
# single-point forms are the one-row case.

def _row_dots(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """<a[i], b[i]> for stacked (B, m) rows."""
    return np.matmul(a[:, None, :], b[:, :, None])[:, 0, 0]


def _row_norms(a: np.ndarray) -> np.ndarray:
    """|a[i]| for stacked (B, m) rows, equal to np.linalg.norm of each row."""
    return np.sqrt(_row_dots(a, a))


def _exp_rows(xs: np.ndarray, vs: np.ndarray, chart: str):
    """exp_{xs[i]}(vs[i]) for stacked rows.  Returns (points, cut (B,) bool).

    cut flags steps that reach the cut locus; their rows are meaningless.
    """
    if chart == FLAT:
        return xs + vs, np.zeros(len(xs), dtype=bool)
    n = _row_norms(vs)
    small = n < _ZERO_TOL
    safe = np.where(small, 1.0, n)
    out = np.cos(n)[:, None] * xs + (np.sin(n) / safe)[:, None] * vs
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
    vecs = (np.arctan2(nu, c) / np.where(zero, 1.0, nu))[:, None] * u
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
    arc = 2.0 * np.arcsin(half)
    return np.where(near, arc, math.pi - arc)


def _tangent_dim(chart: str, ambient_dim: int) -> int:
    """Dimension of the tangent spaces: ambient_dim - 1 on the sphere, ambient_dim flat."""
    return ambient_dim - 1 if chart == SPHERE else ambient_dim


# -- public operations --

def project_to_sphere(v) -> Point:
    """Normalize an ambient vector onto the unit sphere."""
    arr = np.array(v, dtype=float)
    n = float(np.linalg.norm(arr))
    if n < _ZERO_TOL:
        raise ZeroVectorError("cannot project a zero vector to the sphere")
    return Point(arr / n, SPHERE)


def exp_map(x: Point, v) -> Point:
    """Follow the geodesic from x with initial velocity v, an (m,) array
    tangent at x, for unit time.

    The result is renormalized onto the sphere.  v must be finite and, on the
    sphere, orthogonal to x within _TANGENT_TOL (ValueError otherwise).  Steps
    of length >= pi (up to a small tolerance) raise CutLocusError.
    """
    vec = np.asarray(v, dtype=float)
    if vec.shape != x.coords.shape:
        raise ValueError("tangent vector and base point dimensions differ")
    if not np.all(np.isfinite(vec)):
        raise ValueError("tangent components must be finite")
    if x.chart == SPHERE:
        inner = abs(float(vec @ x.coords))
        if inner > _TANGENT_TOL:
            raise ValueError(f"tangent not orthogonal to base point: <x,v> = {inner!r}")
    out, cut = _exp_rows(x.coords[None], vec[None], x.chart)
    if cut[0]:
        raise CutLocusError(f"exp step of length {float(_row_norms(vec[None])[0])!r} "
                            "reaches the cut locus")
    return Point(out[0], x.chart)


def log_map(x: Point, y: Point) -> np.ndarray:
    """Inverse of exp_map: the (m,) tangent at x pointing to y with |log| = d(x, y)."""
    _check_space(y.chart, y.ambient_dim, x)
    vecs, antipodal = _log_rows(x.coords[None], y.coords[None], x.chart)
    if antipodal[0]:
        raise AntipodalPairError("log undefined for an antipodal pair")
    return vecs[0]


def geodesic_distance(x: Point, y: Point) -> float:
    """Arc-length distance on the sphere, Euclidean distance on a flat chart."""
    _check_space(y.chart, y.ambient_dim, x)
    return float(_distance_rows(x.coords[None], y.coords[None], x.chart)[0])


def points_matrix(data: PointArray, base: Point | None = None) -> np.ndarray:
    """The read-only (n, m) coordinate matrix of a point set, without a copy:
    the one check of every operation on one.  data must be a PointArray
    (TypeError otherwise) and, given a base point, on its chart and of its
    width (DimensionMismatchError otherwise)."""
    if not isinstance(data, PointArray):
        raise TypeError(f"a point set must be a PointArray, not {type(data).__name__}")
    if base is not None:
        _check_space(data.chart, data.coords.shape[1], base)
    return data.coords


def _check_space(chart: str, width: int, base: Point) -> None:
    """DimensionMismatchError unless points of width coordinates on chart
    share base's chart and width."""
    if chart != base.chart or width != base.ambient_dim:
        raise DimensionMismatchError(
            f"points of {width} coordinates on the {chart} chart and one of "
            f"{base.ambient_dim} on the {base.chart} chart live in different spaces")
