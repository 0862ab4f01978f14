"""Turning fitted sub-manifolds into exportable views.

Two schemes: an orthographic projection of everything onto the top-3
eigenvectors at the start point (synthetic data; fewer where the tangent
space is smaller, with zero columns for the rest), and a square grid of
recovered landmark shapes sampled along the principal-direction polylines
(preshape data).  The writers emit UTF-8, LF-terminated files with '.'
decimal separators and enough digits to round-trip float64 exactly.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .datagen import _row_format
from .errors import NotAShapeFitError
from .fitting import Net, Submanifold
from .geometry import Point, PointArray, Tangent, _distance_rows, _exp_rows, _tangent_dim, points_matrix
from .shape import LandmarkConfig, _centroid_offset, from_preshape
from .tangent_stats import eigenframe, local_covariance

_CENTER_TOL = 1e-6
_PD_NAMES = ("pd1", "pd2", "pd3", "pd4")
# (row, column) step of each PD's shape-grid cells away from the center
_GRID_AXES = {"pd1": (0, 1), "pd2": (1, 0), "pd3": (1, 1), "pd4": (1, -1)}


@dataclass(frozen=True, eq=False)
class PrincipalDirections:
    """The four join polylines, one PointArray each; None when the fan cannot host it."""

    pd1: PointArray | None
    pd2: PointArray | None
    pd3: PointArray | None
    pd4: PointArray | None
    note: str | None = None

    def as_dict(self) -> dict[str, PointArray]:
        return {name: getattr(self, name) for name in _PD_NAMES
                if getattr(self, name) is not None}


def _pd_pairs(sub: Submanifold) -> dict[str, tuple[Net, Net]]:
    """The opposite nets forming each PD, first-listed first; every PD export reads it.

    k=1 pairs nets (2, 1) as PD1; k=2 with D nets pairs (D/2, D), (D/4, 3D/4)
    and, when 8 divides D, (D/8, 5D/8) and (3D/8, 7D/8).  A fan on S^{k-1}
    for k >= 3 has no opposite nets.
    """
    k, d = sub.config.dim, sub.config.num_directions
    if k == 1:
        indices = {"pd1": (2, 1)}
    elif k == 2:
        indices = {"pd1": (d // 2, d), "pd2": (d // 4, 3 * d // 4)}
        if d % 8 == 0:
            indices.update(pd3=(d // 8, 5 * d // 8), pd4=(3 * d // 8, 7 * d // 8))
    else:
        return {}
    nets = {net.direction_index: net for net in sub.nets}
    return {name: (nets[first], nets[second]) for name, (first, second) in indices.items()}


def _join(first: Net, second: Net, start: Point) -> PointArray:
    # The first-listed branch is reversed so the polyline is monotone in arc
    # length and passes through the start exactly once, at the join.
    return PointArray(np.concatenate([first.points.coords[:0:-1], start.coords[None],
                                      second.points.coords[1:]]), start.chart)


def principal_directions(sub: Submanifold) -> PrincipalDirections:
    """Join the opposite nets of _pd_pairs into PD polylines; the note says why any is None."""
    pairs = _pd_pairs(sub)
    if not pairs:
        note = (f"k = {sub.config.dim}: the fan has no opposite nets; "
                "no principal directions exported")
    elif "pd2" not in pairs:
        note = "flow fit: only PD1 is defined"
    elif "pd3" not in pairs:
        note = (f"num_directions = {sub.config.num_directions} is not divisible by 8; "
                "PD3/PD4 omitted")
    else:
        note = None
    polylines = {name: _join(first, second, sub.start)
                 for name, (first, second) in pairs.items()}
    return PrincipalDirections(*(polylines.get(name) for name in _PD_NAMES), note=note)


def principal_geodesics(sub: Submanifold) -> dict[int, PointArray]:
    """Great circles through the start, arc-matched to PD1 and PD2 where _pd_pairs has them.

    Curve 1 runs along e1, curve 2 along -e2 (the second-listed nets' seed
    directions), epsilon apart with the start at the join, as one PointArray
    each.  A curve longer than pi wraps past the antipode; those points stay.
    """
    pairs = _pd_pairs(sub)
    basis = sub.frame_at_start.basis()
    eps = sub.config.epsilon
    start, chart = sub.start.coords, sub.start.chart
    curves: dict[int, PointArray] = {}
    for key, sign in ((1, 1.0), (2, -1.0)):
        if f"pd{key}" not in pairs:
            continue
        first, second = pairs[f"pd{key}"]
        direction = sign * basis[key - 1]
        m1, m2 = len(first.points) - 1, len(second.points) - 1
        vecs = ((np.arange(m1 + m2 + 1) - m1) * eps)[:, None] * direction
        rows, _ = _exp_rows(np.broadcast_to(start, vecs.shape), vecs, chart)
        curves[key] = PointArray(rows, chart)
    return curves


@dataclass(frozen=True, eq=False)
class ProjectedSubmanifold:
    """Nets, data and any extra curves expressed in top-3 eigen coordinates."""

    nets: tuple[np.ndarray, ...]
    data: np.ndarray
    basis: tuple[Tangent, ...]  # at most 3
    start: Point

    def project(self, points) -> np.ndarray:
        """Map points to (len, 3): inner products of (p - start) with the basis,
        0 in the columns past the basis."""
        out = np.zeros((len(points), 3))
        if len(points):
            mat = np.stack([t.vec for t in self.basis])
            out[:, :len(self.basis)] = (points_matrix(points) - self.start.coords) @ mat.T
        return out


def project_submanifold(sub: Submanifold, data) -> ProjectedSubmanifold:
    """Project nets and data onto the top min(3, d) eigenvectors at the start.

    d is the tangent dimension: m - 1 on the sphere in R^m (2 on S^2), m on
    a flat chart of m columns; a p3 (and p2) column with no eigenvector is
    all zero.  The basis comes from the local covariance at the start under
    the fit's kernel; the start itself maps to the origin.  RankDeficientError
    surfaces when fewer than min(3, d) directions carry variance.
    """
    start = sub.start
    cov = local_covariance(start, data, sub.config.kernel)
    basis = eigenframe(cov, start, min(3, _tangent_dim(start.chart, start.ambient_dim))).vectors
    proj = ProjectedSubmanifold((), np.zeros((0, 3)), basis, start)
    nets = tuple(proj.project(net.points) for net in sub.nets)
    return ProjectedSubmanifold(nets, proj.project(data), basis, start)


def _resample_branch(net_points: PointArray, q: int) -> list[Point]:
    """Pick q branch points at (roughly) evenly spaced arc lengths from the start."""
    xs = net_points.coords  # row 0 is the start itself
    gaps = _distance_rows(xs[:-1], xs[1:], net_points.chart)
    arcs = np.concatenate([[0.0], np.cumsum(gaps)])
    total = float(arcs[-1])
    picks = []
    for i in range(1, q + 1):
        target = total * i / q
        # snap to the nearest grown level, never back to the start cell
        j = int(np.argmin(np.abs(arcs[1:] - target))) + 1
        picks.append(net_points[j])
    return picks


def shape_grid(sub: Submanifold, samples_per_direction: int = 9):
    """Square grid of recovered shapes: PD1 row, PD2 column, PD3/PD4 diagonals.

    The center cell is the start shape exactly; moving away from the center
    walks outward along the corresponding principal-direction branch.  Cells
    off those four lines stay None, as do those of every PD that _pd_pairs
    leaves out (all four for k >= 3).  Raises NotAShapeFitError when the
    fit does not live on a preshape sphere.
    """
    m = samples_per_direction
    if m < 3 or m % 2 == 0:
        raise ValueError("samples_per_direction must be an odd number >= 3")
    coords = sub.start.coords
    if coords.shape[0] % 2 != 0 or coords.shape[0] < 6:
        raise NotAShapeFitError("start point does not pair into planar landmarks")
    off = _centroid_offset(coords)
    if off > _CENTER_TOL:
        raise NotAShapeFitError(f"start point carries a centroid offset of {off!r}")
    k = coords.shape[0] // 2

    c = m // 2
    grid: list[list[LandmarkConfig | None]] = [[None] * m for _ in range(m)]
    grid[c][c] = from_preshape(sub.start, k, "start")
    for name, (first, second) in _pd_pairs(sub).items():
        dr, dc = _GRID_AXES[name]
        for sign, net in ((-1, first), (1, second)):
            for i, point in enumerate(_resample_branch(net.points, c), start=1):
                step = sign * i
                grid[c + step * dr][c + step * dc] = from_preshape(point, k, f"{name}{step:+d}")
    return grid


def write_submanifold_csv(sub: Submanifold, path) -> None:
    """Full-precision ambient coordinates of every net level."""
    dim = sub.start.ambient_dim
    header = "net_index,level," + ",".join(f"c{i}" for i in range(dim))
    row_fmt = _row_format("%d,%d,", dim)
    lines = [header]
    for net in sub.nets:
        for level, row in enumerate(net.points.coords):
            lines.append(row_fmt % (net.direction_index, level, *row.tolist()))
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")


def write_projected_csv(path, proj: ProjectedSubmanifold, sub: Submanifold,
                        pds: PrincipalDirections | None = None,
                        geodesics: dict[int, PointArray] | None = None) -> None:
    """Three-coordinate rows for nets, data, PD polylines and geodesics."""
    lines = ["kind,net_index,level,p1,p2,p3"]
    row_fmt = _row_format("%s,%d,%d,", 3)

    def emit(kind, net_index, rows):
        for level, row in enumerate(np.asarray(rows, dtype=float)):
            lines.append(row_fmt % (kind, net_index, level, *row.tolist()))

    for net, rows in zip(sub.nets, proj.nets):
        emit("net", net.direction_index, rows)
    emit("data", 0, proj.data)
    if pds is not None:
        for name, points in pds.as_dict().items():
            emit(name, 0, proj.project(points))
    if geodesics:
        for idx in sorted(geodesics):
            emit("geodesic", idx, proj.project(geodesics[idx]))
    if pds is not None and (pds.pd3 is not None or pds.pd4 is not None):
        lines.append("# pd3/pd4 label the fan diagonals, not third/fourth principal components")
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")


def write_shapes_json(path, grid, samples_per_direction: int, start_kind: str) -> None:
    """Nested grid of (k, 2) landmark arrays with fit metadata."""
    center = grid[len(grid) // 2][len(grid) // 2]
    payload = {
        "k": int(center.k),
        "samples_per_direction": int(samples_per_direction),
        "start_kind": start_kind,
        "grid": [[None if cell is None else cell.landmarks.tolist() for cell in row]
                 for row in grid],
    }
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        json.dump(payload, fh, indent=2)
        fh.write("\n")
