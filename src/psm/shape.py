"""Planar landmark shapes and their preshape-sphere embedding.

A configuration of k >= 3 landmarks in the plane is mapped to the preshape
sphere by removing translation (subtract the centroid) and scale (divide by
the Frobenius norm).  Coordinates are flattened landmark-major, i.e.
(x1, y1, x2, y2, ...), giving a unit vector in R^{2k} whose even and odd
strides each sum to zero.  Rotation is removed by aligning each preshape to
a reference with the closed-form optimal angle of the complex inner product.
A landmark dataset is one (N, k, 2) array, from the file to the (N, 2k)
preshape matrix.
"""

from __future__ import annotations

import numpy as np

from .datagen import _body_is_empty, _csv_records, _open_text
from .errors import (
    DegenerateConfigError,
    DegenerateOrbitError,
    DimensionMismatchError,
    LandmarkFormatError,
    NoConvergenceError,
    NotCenteredError,
)
from .geometry import Point, PointArray, _row_norms, geodesic_distance
from .tangent_stats import frechet_mean

_RECOVER_CENTER_TOL = 1e-6
_SCALE_TOL = 1e-12
_ORBIT_TOL = 1e-14
_GPA_TOL = 1e-9
_GPA_MAX_ITER = 1000


def _centroid_offset(coords: np.ndarray) -> float:
    """max(|sum x_j|, |sum y_j|) of a landmark-major (x1, y1, x2, y2, ...) vector."""
    return max(abs(float(coords[0::2].sum())), abs(float(coords[1::2].sum())))


# -- row kernels on the (N, 2k) preshape matrix: each row is computed alone
# (geometry's stacked-matmul rule), so a row does not depend on the others --

def _preshape_rows(landmarks: np.ndarray, specimen_ids) -> np.ndarray:
    """Centered unit rows (N, 2k) of stacked (N, k, 2) landmarks; a specimen
    whose centred size is at most _SCALE_TOL times its largest |coordinate|
    collapses and raises DegenerateConfigError naming it.

    Each configuration is first scaled by the power of two of its largest
    |coordinate|, which is exact and leaves its preshape's bits as they are:
    a configuration of any finite scale then sizes without overflow or
    underflow, and that coordinate becomes the frexp mantissa in [0.5, 1).
    It is then centred twice: far from the origin the first pass leaves the
    rounding of the shift in the centroid, and the second pass subtracts it.
    """
    sizes, exps = np.frexp(np.abs(landmarks).max(axis=(1, 2)))
    scaled = np.ldexp(landmarks, -exps[:, None, None])
    centred = scaled - scaled.mean(axis=1, keepdims=True)
    flat = (centred - centred.mean(axis=1, keepdims=True)).reshape(len(landmarks), -1)
    scales = _row_norms(flat)
    collapsed = np.flatnonzero(scales <= _SCALE_TOL * sizes)
    if collapsed.size:
        raise DegenerateConfigError(
            f"configuration {specimen_ids[collapsed[0]]!r} collapses to a point")
    return flat / scales[:, None]


def _align_rotations(rows: np.ndarray, base: np.ndarray) -> np.ndarray:
    """The preshape rows (N, 2k), each rotated by the argument of
    sum_j conj(z_j) w_j, with z_j = x_j + i y_j of the row and w_j of base:
    the rotation that minimizes the row's geodesic distance to base.  A
    vanishing inner product leaves the angle undefined (DegenerateOrbitError)."""
    z = rows.view(complex)
    inner = np.matmul(z.conj()[:, None, :], base.view(complex)[:, None])[:, 0, 0]
    if np.any(np.abs(inner) < _ORBIT_TOL):
        raise DegenerateOrbitError("rotation alignment undefined: orbit is orthogonal")
    return (np.exp(1j * np.angle(inner))[:, None] * z).view(float)


def align_dataset(landmarks: np.ndarray, specimen_ids) -> tuple[PointArray, Point]:
    """Generalized Procrustes alignment of an (N, k, 2) landmark array.

    The preshapes, one matrix row each, are rotated onto an evolving Frechet
    mean (seeded from row 0) until it moves less than 1e-9, then once more,
    so each returned row has a real, non-negative complex inner product with
    the returned mean.  specimen_ids name the rows in errors.  Near-mirror
    sets converge only linearly (about 0.9 a round), so up to _GPA_MAX_ITER
    rounds run before NoConvergenceError.

    Returns (aligned preshapes as one PointArray, mean point).
    """
    if len(landmarks) < 2:
        raise ValueError("alignment needs at least two configurations")
    pres = _preshape_rows(landmarks, specimen_ids)
    mean = Point(pres[0])
    for _ in range(_GPA_MAX_ITER):
        new_mean = frechet_mean(PointArray(_align_rotations(pres, mean.coords)))
        moved = geodesic_distance(mean, new_mean)
        mean = new_mean
        if moved < _GPA_TOL:
            return PointArray(_align_rotations(pres, mean.coords)), mean
    raise NoConvergenceError(f"Procrustes alignment did not stabilize in {_GPA_MAX_ITER} rounds")


def from_preshape(p: Point) -> np.ndarray:
    """Fold a preshape-sphere point of 2k coordinates, k >= 3, back into a
    read-only (k, 2) landmark array.

    Raises DimensionMismatchError for an odd or smaller width, and
    NotCenteredError when the even/odd coordinate sums exceed 1e-6, which
    signals a point that never came from a centered configuration.
    """
    if p.ambient_dim % 2 or p.ambient_dim < 6:
        raise DimensionMismatchError(
            f"{p.ambient_dim} coordinates do not pair into 3 or more landmarks")
    off = _centroid_offset(p.coords)
    if off > _RECOVER_CENTER_TOL:
        raise NotCenteredError(f"coordinates carry a centroid offset of {off!r}")
    return p.coords.reshape(-1, 2)  # a view of the read-only coordinates


# -- landmark file reading --
#
# Two accepted layouts:
#   1. CSV with header  specimen_id,landmark_index,x,y  (rows of one specimen
#      contiguous, landmark_index consecutive within a specimen);
#   2. whitespace-separated blocks of k rows "x y", blank lines between
#      specimens, specimens implicitly numbered from 1.

_CSV_HEADER = ["specimen_id", "landmark_index", "x", "y"]

# Characters after which the row loop reads a file otherwise than numpy: the
# csv module's quote and the line breaks of str.splitlines other than \n and \r.
_ROW_LOOP_ONLY = '"\x0b\x0c\x1c\x1d\x1e\x85\u2028\u2029'

_LANDMARK_ROW = np.dtype([("id", object), ("index", np.int64), ("xy", float, (2,))])


def read_landmarks(path) -> tuple[np.ndarray, list[str]]:
    """Parse a landmark file in either accepted layout.

    Returns (landmarks, ids): a C-contiguous float (N, k, 2) array of N
    specimens of k >= 3 finite landmarks each, and the N specimen ids.
    numpy's C reader parses the CSV layout; a file it cannot parse, or where
    _specimen_fault finds a fault, is read row by row, as the block layout is.
    Layout errors raise LandmarkFormatError with a 1-based line number, a
    coordinate that is not finite or a file that is not UTF-8 text ValueError.
    """
    loaded = _load_landmarks_csv(path)
    if loaded is not None:
        return loaded
    with _open_text(path, newline="") as fh:
        text = fh.read()
    lines = text.splitlines()
    first = next((ln for ln in lines if ln.strip()), "")
    header = [col.strip().lower() for col in first.split(",")]
    if header[:4] == _CSV_HEADER:
        return _read_landmarks_csv(lines)
    return _read_landmarks_blocks(lines)


def _load_landmarks_csv(path) -> tuple[np.ndarray, list[str]] | None:
    """A CSV-layout file parsed by one np.loadtxt pass into (id, landmark_index,
    x, y) rows, then checked as arrays; None when the file is in another
    layout, holds a _ROW_LOOP_ONLY character, or fails a parse or a
    _specimen_fault check, for the row loop to read it and word the fault."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            while (line := fh.readline()) and not line.strip():
                pass
            if [col.strip().lower() for col in line.split(",")][:4] != _CSV_HEADER:
                return None
            body = fh.tell()
            fh.seek(0)
            while chunk := fh.read(1 << 16):
                if any(ch in chunk for ch in _ROW_LOOP_ONLY):
                    return None
            fh.seek(body)
            if _body_is_empty(fh):
                return None
            rows = np.loadtxt(fh, dtype=_LANDMARK_ROW, delimiter=",", comments=None,
                              usecols=(0, 1, 2, 3), ndmin=1)
        except ValueError:  # a row numpy cannot parse, or bad UTF-8
            return None
    # specimens split where the raw id changes; two adjacent ids that strip
    # alike repeat a name here, and the row loop, which strips first, reads them
    starts, names, fault = _specimen_fault(rows["id"], rows["index"])
    return None if fault else _checked_configs(rows["xy"], starts, names, "specimens")


def _specimen_fault(ids, index) -> tuple[np.ndarray, list[str], tuple | None]:
    """(starts, names, fault) of CSV rows of specimen ids and landmark indices
    index (int64, or Python ints in an object array): each specimen's first
    row and stripped id, and (row, reason) of the first fault that reading
    row by row meets, or None.  A specimen of under 3 rows is met at the
    next specimen's first row, or at len(ids) after the last, before a
    repeated name on that row; an index step other than +1 at its own row
    (the test also catches int64 wrap-around)."""
    new = np.concatenate(([len(ids) > 0], ids[1:] != ids[:-1]))
    starts = np.flatnonzero(new)
    names = [name.strip() for name in ids[starts].tolist()]
    sizes = np.diff(starts, append=len(ids))
    first: dict[str, int] = {}  # each name's first specimen
    repeated = [j for j, name in enumerate(names) if first.setdefault(name, j) != j]
    prev, cur = index[:-1], index[1:]
    faults = [(int(starts[i] + sizes[i]), f"specimen {names[i]!r} has only {sizes[i]} "
               "landmarks (need >= 3)") for i in np.flatnonzero(sizes < 3)[:1]]
    faults += [(int(starts[j]), f"specimen {names[j]!r} appears in two separate blocks")
               for j in repeated[:1]]
    faults += [(int(r), f"landmark_index jumps from {index[r - 1]} to {index[r]}")
               for r in np.flatnonzero(((cur - prev != 1) | (cur < prev)) & ~new[1:])[:1] + 1]
    # min keeps the first of equal rows: a short specimen, then a repeated name
    return starts, names, min(faults, key=lambda fault: fault[0], default=None)


def _read_landmarks_csv(lines) -> tuple[np.ndarray, list[str]]:
    """The CSV layout tokenized row by row up to the first row of under 4
    columns or that does not parse, the stop.  A _specimen_fault on a row
    before the stop comes first, then the stop, then a fault at the end."""
    table, line_nos, stop = [], [], None
    rows = ((no, row) for no, row in _csv_records(lines) if "".join(row).strip())
    next(rows, None)  # the header
    for line_no, row in rows:
        if len(row) < 4:
            stop = LandmarkFormatError(f"expected 4 columns, got {len(row)}", line_no)
            break
        try:
            table.append((row[0].strip(), int(row[1]), float(row[2]), float(row[3])))
        except ValueError as exc:
            stop = LandmarkFormatError(f"unparsable row: {exc}", line_no)
            break
        line_nos.append(line_no)
    table = np.array(table, dtype=object).reshape(-1, 4)
    starts, names, fault = _specimen_fault(table[:, 0], table[:, 1])
    if fault and (stop is None or fault[0] < len(table)):
        raise LandmarkFormatError(fault[1], (line_nos + [len(lines)])[fault[0]])
    if stop:
        raise stop
    return _checked_configs(table[:, 2:].astype(float), starts, names, "specimens")


def _read_landmarks_blocks(lines) -> tuple[np.ndarray, list[str]]:
    """The block layout tokenized row by row up to the first row that is not
    two numbers, the stop; a block of under 3 rows is met at the blank line
    after it, or at the last line, and comes first when that is before the stop."""
    pairs, line_nos, stop = [], [], None
    for line_no, line in enumerate(lines, start=1):
        parts = line.split()
        if not parts:
            continue
        if len(parts) != 2:
            stop = LandmarkFormatError(
                f"expected two whitespace-separated numbers, got {len(parts)} fields", line_no)
            break
        try:
            pairs.append((float(parts[0]), float(parts[1])))
        except ValueError:
            stop = LandmarkFormatError(f"unparsable numbers: {line.strip()!r}", line_no)
            break
        line_nos.append(line_no)
    starts = np.flatnonzero(np.diff(line_nos, prepend=-1) != 1)
    sizes = np.diff(starts, append=len(line_nos))
    for i in np.flatnonzero(sizes < 3)[:1]:
        first, size = line_nos[starts[i]], int(sizes[i])
        met = min(first + size, len(lines))
        if stop is None or met < stop.line:
            raise LandmarkFormatError(
                f"block starting at line {first} has only {size} rows (need >= 3)", met)
    if stop:
        raise stop
    ids = [str(i) for i in range(1, len(starts) + 1)]
    return _checked_configs(np.array(pairs, dtype=float).reshape(-1, 2), starts, ids, "blocks")


def _checked_configs(xy: np.ndarray, starts: np.ndarray, ids: list[str],
                     units: str) -> tuple[np.ndarray, list[str]]:
    """The (n, 2) rows xy of the specimens that begin at rows starts, each of
    k >= 3 rows, as one C-contiguous (N, k, 2) array, with their ids."""
    if not len(starts):
        raise LandmarkFormatError("no landmark rows found", 1)
    counts = sorted(set(np.diff(starts, append=len(xy)).tolist()))
    if len(counts) > 1:
        raise LandmarkFormatError(f"inconsistent landmark counts across {units}: {counts}")
    landmarks = np.ascontiguousarray(xy.reshape(len(starts), -1, 2))
    if not np.isfinite(landmarks).all():
        raise ValueError("landmark coordinates must be finite")
    return landmarks, ids
