"""Synthetic datasets on S^3: lifted triplet recipes with seeded noise.

Every family produces triplets in R^3, lifts them with a fourth coordinate
sqrt(C - |x|^2) and normalizes.  Because every lifted row has squared norm
exactly C, the normalization is an exact division by sqrt(C), so the lift
places the cloud on a curved slice of the sphere rather than a great
subsphere.  All randomness flows through numpy's seeded PCG64 generator;
identical generate arguments reproduce identical datasets bit for bit.
"""

from __future__ import annotations

import csv
import json
import math
from array import array
from contextlib import contextmanager
from numbers import Integral, Real
from pathlib import Path

import numpy as np

from .errors import InfeasibleShiftError
from .geometry import _CHARTS, _INPUT_UNIT_TOL, SPHERE, PointArray, _row_norms, points_matrix

GENERATOR_ID = "numpy.random.PCG64"

_AUTO_MARGIN = 1.1  # auto shift: C = 1.1 * max squared triplet norm
ELLIPSOID_MODES = ("solid", "surface")


def _resolve_shift(sq: np.ndarray, shift) -> float:
    """The lift constant C for squared triplet norms sq."""
    if isinstance(shift, str):
        if shift != "auto":
            raise ValueError(f"shift must be 'auto' or a number, got {shift!r}")
        peak = float(sq.max())
        return _AUTO_MARGIN * peak if peak > 0 else 1.0
    c = float(shift)
    if float(sq.max()) > c:
        raise InfeasibleShiftError(
            f"shift {c!r} leaves a negative radicand (max squared norm {float(sq.max())!r})")
    return c


def _lift(triplets: np.ndarray, shift, source: str) -> tuple[PointArray, float]:
    """Lift and normalize the triplets; source names the parameters that made
    them, for the ValueError raised when their squared norms are not finite."""
    sq = np.sum(triplets ** 2, axis=1)
    # an overflowing norm, or 1.1 x the largest one, leaves C infinite
    c = _resolve_shift(sq, shift) if np.all(np.isfinite(sq)) else math.inf
    if not math.isfinite(c):
        raise ValueError(f"{source} are too large: the squared triplet norms overflow")
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
    if mode not in ELLIPSOID_MODES:
        raise ValueError(f"mode must be {' or '.join(map(repr, ELLIPSOID_MODES))}, got {mode!r}")
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


# family -> (triplet maker, {parameter: default}).  generate also takes
# shift, the lift constant: "auto" (1.1 x the largest squared triplet norm)
# or a number, which raises InfeasibleShiftError below that norm.
RECIPES = {
    "s_curve": (_s_curve_triplets, {"noise_scale_u": 1.0 / 32.0}),
    "sea_wave": (_sea_wave_triplets, {"noise_level": 0.05}),
    "ellipsoid": (_ellipsoid_triplets, {"a": 2.5, "b": math.sqrt(2.0), "c": 1.0, "mode": "solid"}),
}


def generate(family: str, n: int, seed: int, params: dict | None = None,
             shift="auto") -> tuple[PointArray, dict]:
    """n points of family, drawn from seed and lifted with shift, as one
    PointArray on the sphere chart, and info, their provenance record: family,
    n, seed, params (laid over the family's RECIPES defaults), shift, the
    resolved lift constant and the generator.  A number among params, like
    shift, must be finite."""
    if family not in RECIPES:
        raise ValueError(f"unknown family {family!r}")
    if n < 3:
        raise ValueError("n must be at least 3")
    if not isinstance(seed, Integral) or isinstance(seed, bool) or seed < 0:
        raise ValueError(f"seed must be a non-negative integer, got {seed!r}")
    make, defaults = RECIPES[family]
    given = params or {}
    for key, value in [*given.items(), ("shift", shift)]:
        if key in given and key not in defaults:  # shift is no params key
            raise ValueError(f"{family} takes no parameter {key!r}")
        if isinstance(value, Real) and not math.isfinite(value):
            raise ValueError(f"{key} must be finite")
    params = {**defaults, **given}
    source = f"{family} parameters " + ", ".join(f"{k}={v!r}" for k, v in params.items())
    # a huge parameter overflows to inf or nan here, which _lift rejects by name
    with np.errstate(over="ignore", invalid="ignore"):
        points, resolved = _lift(make(n, seed, **params), shift, source)
    return points, {"family": family, "n": n, "seed": seed, "params": params, "shift": shift,
                    "resolved_shift": resolved, "generator": GENERATOR_ID}


# -- files: the one CSV and one JSON writer; datasets, a CSV plus a JSON sidecar --

def meta_path_for(path):
    p = Path(path)
    return p.with_name(p.stem + ".meta.json")


def _write_csv(path, header: str, lead: str, width: int, blocks, trailer: str = "") -> None:
    """Write the header line, one line per row of each (key, rows) block of
    blocks, then trailer: the %-format lead filled with the key's fields and
    the row's index in its block, then the row's width coordinates.

    Every CSV file psm writes goes through here: UTF-8 with LF line ends,
    and each coordinate at %.17g, the digits that round-trip float64
    exactly.  Rows are streamed, one row.tolist() at a time: no list of
    every row's text or floats is held.
    """
    row_fmt = lead + ",".join(["%.17g"] * width) + "\n"
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(header + "\n")
        for key, rows in blocks:
            fh.writelines(row_fmt % (*key, index, *row.tolist())
                          for index, row in enumerate(rows))
        fh.write(trailer)


def _write_json(path, payload, sort_keys: bool) -> None:
    """Write payload as JSON indented by 2, with a final newline (UTF-8, LF);
    every JSON file psm writes goes through here."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        json.dump(payload, fh, indent=2, sort_keys=sort_keys)
        fh.write("\n")


def write_dataset_csv(points: PointArray, path, meta: dict | None = None) -> None:
    """Write points as point_index,c0,... rows plus a metadata sidecar."""
    xs = points_matrix(points)
    header = "point_index," + ",".join(f"c{i}" for i in range(xs.shape[1]))
    _write_csv(path, header, "%d,", xs.shape[1], [((), xs)])
    if meta is not None:
        _write_json(meta_path_for(path), meta, sort_keys=True)


def _read_sidecar(path) -> dict:
    """The JSON object in path's metadata sidecar, or {} when there is none;
    a sidecar that is not one, or names an unknown chart, raises ValueError naming it."""
    mp = meta_path_for(path)
    try:
        with open(mp, "r", encoding="utf-8") as fh:
            meta = json.load(fh)
    except FileNotFoundError:
        return {}
    except ValueError as exc:  # bad JSON or bad UTF-8
        raise ValueError(f"{mp}: {exc}") from None
    if not isinstance(meta, dict):
        raise ValueError(f"{mp}: the sidecar must hold a JSON object, not {type(meta).__name__}")
    if meta.get("chart", SPHERE) not in _CHARTS:
        raise ValueError(f"{mp}: unknown chart {meta['chart']!r}")
    return meta


@contextmanager
def _open_text(path, newline=None):
    """path opened for reading as UTF-8 text; a byte that is not UTF-8 raises
    ValueError naming the file."""
    with open(path, "r", encoding="utf-8", newline=newline) as fh:
        try:
            yield fh
        except UnicodeDecodeError:
            raise ValueError(f"{path}: not UTF-8 text") from None


def _body_is_empty(fh) -> bool:
    """Whether only empty lines follow fh's position, which is kept: np.loadtxt
    warns on such a body, and the row loops word its error."""
    start = fh.tell()
    while (line := fh.readline()) == "\n":
        pass
    fh.seek(start)
    return not line


def _load_coordinates(path) -> np.ndarray | None:
    """The coordinate columns of a dataset CSV parsed by numpy's C reader, or
    None when it cannot parse them or the header is not a plain
    point_index,c0,... line: the row loop then reads the file."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            first = fh.readline()
            header = first.rstrip("\n").split(",")
            # a quote makes the csv module split the header otherwise
            if '"' in first or header[0].strip() != "point_index" or len(header) < 3 \
                    or _body_is_empty(fh):
                return None
            table = np.loadtxt(fh, delimiter=",", comments=None, ndmin=2)
        except ValueError:  # a row numpy cannot parse, or bad UTF-8
            return None
    if table.shape[1] != len(header):
        return None
    return np.ascontiguousarray(table[:, 1:])


def _csv_records(lines):
    """(line, row) of each csv record of lines, an open file or a list of
    strings: line is the 1-based physical line on which the record starts,
    which differs from its count once a quoted field spans lines."""
    reader = csv.reader(lines)
    start = 1
    for row in reader:
        yield start, row
        start = reader.line_num + 1


def _read_coordinate_rows(path) -> tuple[np.ndarray, list[int]]:
    """The coordinate rows of a dataset CSV and their line numbers, parsed row
    by row with the csv module; a malformed file raises ValueError naming the
    path and the line, and one that is not UTF-8 text the path."""
    values = array("d")
    line_nos = []
    with _open_text(path, newline="") as fh:
        records = _csv_records(fh)
        _, header = next(records, (1, None))
        if not header or header[0].strip() != "point_index":
            raise ValueError(f"{path}: expected a point_index,c0,... header")
        width = len(header) - 1
        if width < 2:
            raise ValueError(f"{path}: line 1: expected at least two coordinate columns")
        for line_no, row in records:
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
    return np.frombuffer(values, dtype=float).reshape(-1, width), line_nos


def _row_fault(xs: np.ndarray, chart: str) -> tuple[int, str] | None:
    """(row, reason) of the first row that is not finite or, on the sphere,
    not a unit vector up to 1e-6; None when every row passes."""
    bad = ~np.isfinite(xs).all(axis=1)
    if bad.any():
        return int(bad.argmax()), "coordinates must be finite"
    if chart == SPHERE:
        norms = _row_norms(xs)
        off = np.abs(norms - 1.0) > _INPUT_UNIT_TOL
        if off.any():
            row = int(off.argmax())
            return row, f"sphere rows must be unit vectors (norm {float(norms[row])!r})"
    return None


def read_dataset_csv(path) -> tuple[PointArray, dict]:
    """Read a coordinate CSV into one PointArray, honoring any metadata sidecar.

    The sidecar, a JSON object, selects the chart with its "chart" entry
    (sphere by default).  numpy's C reader parses the body; the rows must be
    finite, and sphere rows must be unit vectors up to 1e-6 and are cleaned by
    exact renormalization of the whole matrix.  A file numpy cannot parse, or
    whose rows fail a check, is read again row by row, which accepts blank
    rows and csv quoting and words each error with the path and the line.
    The cleaned matrix then passes PointArray's own check, as every point
    set does.
    """
    meta = _read_sidecar(path)
    chart = meta.get("chart", SPHERE)
    xs = _load_coordinates(path)
    if xs is None or _row_fault(xs, chart):
        xs, line_nos = _read_coordinate_rows(path)
        fault = _row_fault(xs, chart)
        if fault:
            row, reason = fault
            raise ValueError(f"{path}: line {line_nos[row]}: {reason}")
    if chart == SPHERE:
        xs = xs / _row_norms(xs)[:, None]
    return PointArray(xs, chart), meta
