"""Synthetic datasets on S^3: lifted triplet recipes with seeded noise.

Every family produces triplets in R^3, lifts them with a fourth coordinate
sqrt(C - |x|^2) and normalizes.  Because every lifted row has squared norm
exactly C, the normalization is an exact division by sqrt(C), so the lift
places the cloud on a curved slice of the sphere rather than a great
subsphere.  All randomness flows through numpy's seeded PCG64 generator;
identical GenSpecs reproduce identical datasets bit for bit.
"""

from __future__ import annotations

import csv
import json
import math
from array import array
from dataclasses import dataclass, field
from numbers import Real

import numpy as np

from .errors import InfeasibleShiftError
from .geometry import SPHERE, PointArray, _row_norms, points_matrix

GENERATOR_ID = "numpy.random.PCG64"

_AUTO_MARGIN = 1.1  # auto shift: C = 1.1 * max squared triplet norm


@dataclass(frozen=True)
class GenSpec:
    """A reproducible dataset recipe: family, size, seed and parameters.

    params may set any of the family's RECIPES parameters and shift_c; a
    number among them must be finite.
    """

    family: str
    n: int
    seed: int
    params: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.family not in RECIPES:
            raise ValueError(f"unknown family {self.family!r}")
        if self.n < 3:
            raise ValueError("n must be at least 3")
        takes = RECIPES[self.family][1]
        for key, value in self.params.items():
            if key != "shift_c" and key not in takes:
                raise ValueError(f"{self.family} takes no parameter {key!r}")
            if isinstance(value, Real) and not math.isfinite(value):
                raise ValueError(f"{key} must be finite")


def _resolve_shift(triplets: np.ndarray, shift_c) -> float:
    sq = np.sum(triplets ** 2, axis=1)
    if isinstance(shift_c, str):
        if shift_c != "auto":
            raise ValueError(f"shift must be 'auto' or a number, got {shift_c!r}")
        peak = float(sq.max())
        return _AUTO_MARGIN * peak if peak > 0 else 1.0
    c = float(shift_c)
    if float(sq.max()) > c:
        raise InfeasibleShiftError(
            f"shift {c!r} leaves a negative radicand (max squared norm {float(sq.max())!r})")
    return c


def _lift(triplets: np.ndarray, shift_c) -> tuple[PointArray, float]:
    c = _resolve_shift(triplets, shift_c)
    sq = np.sum(triplets ** 2, axis=1)
    fourth = np.sqrt(np.maximum(c - sq, 0.0))
    lifted = np.column_stack([triplets, fourth]) / math.sqrt(c)
    return PointArray(lifted / _row_norms(lifted)[:, None], SPHERE), c


def _s_curve_triplets(n, seed, noise_scale_u) -> np.ndarray:
    """S-bend triplets.

    x1 walks (i - n/2)/n for i = 1..n, x2 rides sin(2 x1)/6 plus the noise
    term noise_scale_u * 32 * U with U ~ N(0, 1/10), and x3 hugs 1 with a
    small N(0, 1/100)/100 wobble.  The default noise_scale_u cancels the
    factor 32, so the noise term is exactly U; pass 1.0 for the raw recipe,
    whose noise dwarfs the bend.
    """
    rng = np.random.default_rng(seed)
    i = np.arange(1, n + 1, dtype=float)
    x1 = (i - n / 2.0) / n
    u = rng.normal(0.0, math.sqrt(1.0 / 10.0), n)
    v = rng.normal(0.0, math.sqrt(1.0 / 100.0), n)
    x2 = np.sin(2.0 * x1) / 6.0 + noise_scale_u * 32.0 * u
    x3 = 1.0 + v / 100.0
    return np.column_stack([x1, x2, x3])


def sea_wave_height(s, t):
    """Height of the noise-free sea-wave sheet above the (s, t) plane."""
    return 0.15 * np.sin(4.0 * np.asarray(s) + 2.0 * np.asarray(t))


def _sea_wave_triplets(n, seed, noise_level) -> np.ndarray:
    """Rolling sinusoidal sheet over [-1/2, 1/2]^2 with isotropic noise.

    With noise_level = 0 the triplets sit exactly on the sheet
    x3 = sea_wave_height(x1, x2); larger levels blur them isotropically in
    all three coordinates.
    """
    if noise_level < 0:
        raise ValueError("noise_level must be nonnegative")
    rng = np.random.default_rng(seed)
    s = rng.uniform(-0.5, 0.5, n)
    t = rng.uniform(-0.5, 0.5, n)
    triplets = np.column_stack([s, t, sea_wave_height(s, t)])
    return triplets + noise_level * rng.standard_normal((n, 3))


def _ellipsoid_triplets(n, seed, a, b, c, mode) -> np.ndarray:
    """Uniform draws from a solid ellipsoid (or its surface).

    Solid mode rejection-samples the box [-a, a] x [-b, b] x [-c, c] until n
    points satisfy (x1/a)^2 + (x2/b)^2 + (x3/c)^2 <= 1.  Surface mode scales
    uniform sphere directions onto the ellipsoid boundary, which covers the
    near-diameter regime of strongly anisotropic semi-axes.
    """
    if mode not in ("solid", "surface"):
        raise ValueError(f"mode must be 'solid' or 'surface', got {mode!r}")
    if min(a, b, c) <= 0:
        raise ValueError("semi-axes must be positive")
    rng = np.random.default_rng(seed)
    axes = np.array([a, b, c])
    if mode == "surface":
        raw = rng.standard_normal((n, 3))
        dirs = raw / np.linalg.norm(raw, axis=1, keepdims=True)
        return dirs * axes
    # Fixed batch size keeps the accept/reject draw order deterministic for a
    # given seed regardless of how unlucky the rejections are.
    collected = []
    have = 0
    batch = max(4 * n, 256)
    while have < n:
        draw = rng.uniform(-1.0, 1.0, (batch, 3)) * axes
        keep = draw[np.sum((draw / axes) ** 2, axis=1) <= 1.0]
        collected.append(keep)
        have += keep.shape[0]
    return np.concatenate(collected)[:n]


# family -> (triplet maker, {parameter: default}).  Every family also takes
# shift_c, the lift constant: "auto" (1.1 x the largest squared triplet norm)
# or a number, which raises InfeasibleShiftError below that norm.
RECIPES = {
    "s_curve": (_s_curve_triplets, {"noise_scale_u": 1.0 / 32.0}),
    "sea_wave": (_sea_wave_triplets, {"noise_level": 0.05}),
    "ellipsoid": (_ellipsoid_triplets, {"a": 2.5, "b": math.sqrt(2.0), "c": 1.0, "mode": "solid"}),
}


def generate(spec: GenSpec) -> tuple[PointArray, dict]:
    """Run a GenSpec; returns (points, info).

    info holds the generator, the resolved lift constant and the family's
    parameters, spec.params laid over the recipe's defaults (shift_c aside).
    The points are one PointArray on the sphere chart: the lifted rows are
    normalized as a matrix, and Points are built only when it is indexed.
    """
    make, defaults = RECIPES[spec.family]
    params = {**defaults, **spec.params}
    shift_c = params.pop("shift_c", "auto")
    points, resolved = _lift(make(spec.n, spec.seed, **params), shift_c)
    return points, {"generator": GENERATOR_ID, "resolved_shift": resolved, "params": params}


# -- dataset files: CSV of coordinates plus a JSON sidecar with the recipe --

def meta_path_for(path):
    from pathlib import Path

    p = Path(path)
    return p.with_name(p.stem + ".meta.json")


def _row_format(lead: str, width: int) -> str:
    """%-format of one CSV row: the lead fields, then width coordinates at
    full precision (%.17g, the digits of format(x, ".17g")).

    Writers fill it from one matrix row at a time (row.tolist()): a whole
    matrix's tolist() would hold every row as a list of floats at once.
    """
    return lead + ",".join(["%.17g"] * width)


def write_dataset_csv(points, path, meta: dict | None = None) -> None:
    """Write points as point_index,c0,... rows plus a metadata sidecar."""
    xs = points_matrix(points)
    header = "point_index," + ",".join(f"c{i}" for i in range(xs.shape[1]))
    row_fmt = _row_format("%d,", xs.shape[1])
    lines = [header]
    for idx, row in enumerate(xs):
        lines.append(row_fmt % (idx, *row.tolist()))
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")
    if meta is not None:
        with open(meta_path_for(path), "w", encoding="utf-8", newline="\n") as fh:
            json.dump(meta, fh, indent=2, sort_keys=True)
            fh.write("\n")


def read_dataset_csv(path) -> tuple[PointArray, dict]:
    """Read a coordinate CSV into one PointArray, honoring any metadata sidecar.

    The sidecar's "chart" entry selects the chart (sphere by default).
    Every line is parsed to floats as it is read; the rows must be finite,
    and sphere rows must be unit vectors up to 1e-6 and are cleaned by exact
    renormalization of the whole matrix.  Errors name the path and the line.
    """
    meta = {}
    mp = meta_path_for(path)
    try:
        with open(mp, "r", encoding="utf-8") as fh:
            meta = json.load(fh)
    except FileNotFoundError:
        pass
    chart = meta.get("chart", SPHERE)
    values = array("d")
    line_nos = []
    with open(path, "r", encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None or header[0].strip() != "point_index":
            raise ValueError(f"{path}: expected a point_index,c0,... header")
        width = len(header) - 1
        if width < 2:
            raise ValueError(f"{path}: line 1: expected at least two coordinate columns")
        for line_no, row in enumerate(reader, start=2):
            if not "".join(row).strip():
                continue
            if len(row) != width + 1:
                raise ValueError(f"{path}: line {line_no}: expected {width + 1} columns")
            try:
                values.extend(map(float, row[1:]))
            except ValueError:
                raise ValueError(f"{path}: line {line_no}: unparsable coordinates") from None
            line_nos.append(line_no)
    if not line_nos:
        raise ValueError(f"{path}: no data rows")
    xs = np.frombuffer(values, dtype=float).reshape(-1, width)
    bad = ~np.isfinite(xs).all(axis=1)
    if bad.any():
        raise ValueError(f"{path}: line {line_nos[bad.argmax()]}: coordinates must be finite")
    if chart == SPHERE:
        norms = _row_norms(xs)
        off = np.abs(norms - 1.0) > 1e-6
        if off.any():
            raise ValueError(
                f"{path}: line {line_nos[off.argmax()]}: sphere rows must be unit vectors "
                f"(norm {float(norms[off.argmax()])!r})")
        xs = xs / norms[:, None]
    return PointArray(xs, chart), meta
