"""Turning fitted sub-manifolds into exportable views.

Two schemes: an orthographic projection of everything onto the top-3
eigenvectors of the fit's start frame (synthetic data; fewer where the tangent
space is smaller or the data carry variance along fewer directions there,
with zero columns for the rest), and a square grid of recovered landmark
shapes sampled along the principal-direction polylines (preshape data).
"""

from __future__ import annotations

import numpy as np

from .datagen import _write_csv, _write_json
from .errors import DimensionMismatchError, NotAShapeFitError, NotCenteredError
from .fitting import Net, Submanifold
from .geometry import Point, PointArray, _exp_rows, points_matrix
from .shape import from_preshape

# (row, column) step of each PD's shape-grid cells away from the center
_GRID_AXES = {"pd1": (0, 1), "pd2": (1, 0), "pd3": (1, 1), "pd4": (1, -1)}


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


def principal_directions(sub: Submanifold) -> tuple[dict[str, PointArray], str | None]:
    """Join the opposite nets of _pd_pairs into PD polylines, pd1 to pd4 as
    _pd_pairs defines them; returns (polylines, note), the note saying why
    any PD is missing, or None."""
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
    return polylines, note


def principal_geodesics(sub: Submanifold) -> dict[int, PointArray]:
    """Great circles through the start, arc-matched to PD1 and PD2 where _pd_pairs has them.

    Curve 1 runs along e1, curve 2 along -e2 (the second-listed nets' seed
    directions), epsilon apart with the start at the join, as one PointArray
    each.  A curve longer than pi wraps past the antipode; those points stay.
    """
    pairs = _pd_pairs(sub)
    basis = sub.frame_at_start.basis
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


def project_submanifold(sub: Submanifold, data: PointArray,
                        pds: dict[str, PointArray] | None = None,
                        geodesics: dict[int, PointArray] | None = None
                        ) -> list[tuple[str, int, np.ndarray]]:
    """Project nets, data, PD polylines and geodesics onto the top eigenvectors
    at the start, up to 3: the blocks of projected.csv in file order, each
    (kind, index, rows (len, 3)), geodesics by index.

    A row is the inner products of (p - start) with the basis, so the start
    maps to the origin.  The basis is sub.frame_at_start's first min(3, d)
    rows that rank, d the tangent dimension (m - 1 on the sphere in R^m, m on
    a flat chart); a p3 (and p2) column with none is all zero.  data are only
    projected, so held-out rows land on the fit's own frame.
    """
    start = sub.start
    xs = points_matrix(data, start)
    basis = sub.frame_at_start.basis[:3]
    blocks = [("net", net.direction_index, net.points.coords) for net in sub.nets]
    blocks.append(("data", 0, xs))
    blocks += [(name, 0, points.coords) for name, points in (pds or {}).items()]
    blocks += [("geodesic", idx, curve.coords) for idx, curve in sorted((geodesics or {}).items())]
    projected = []
    for kind, index, rows in blocks:
        out = np.zeros((len(rows), 3))
        out[:, :len(basis)] = (rows - start.coords) @ basis.T
        projected.append((kind, index, out))
    return projected


def _resample_branch(net_points: PointArray, q: int) -> list[int]:
    """The levels of q branch points at evenly spaced arc lengths from the start.

    Every step of a net is epsilon long, so the arc to level j is j epsilon
    and target i of q sits at level L i / q of a net with L steps.  Each
    target snaps to the nearest level, a tie to the lower one, never back to
    the start cell; integer arithmetic keeps a tie from going to whichever
    side the rounding of summed step lengths favours.
    """
    steps = len(net_points) - 1  # row 0 is the start itself
    # the nearest j to steps * i / q, a tie down: floor((2 steps i + q - 1) / 2q)
    return [max(1, (2 * steps * i + q - 1) // (2 * q)) for i in range(1, q + 1)]


def _shape_cell(point: Point, what: str) -> np.ndarray:
    """from_preshape of a grid cell's point; NotAShapeFitError names what it is."""
    try:
        return from_preshape(point)
    except (DimensionMismatchError, NotCenteredError) as exc:
        raise NotAShapeFitError(f"{what} is no preshape: {exc}") from None


def shape_grid(sub: Submanifold, samples_per_direction: int):
    """Square grid of recovered (k, 2) landmark arrays: PD1 row, PD2 column,
    PD3/PD4 diagonals.

    The center cell is the start shape exactly; moving away from the center
    walks outward along the corresponding principal-direction branch.  Cells
    off those four lines stay None, as do those of every PD that _pd_pairs
    leaves out (all four for k >= 3).  Raises NotAShapeFitError when the
    start or a sampled net point is no preshape, naming the point.
    """
    m = samples_per_direction
    if m < 3 or m % 2 == 0:
        raise ValueError("samples_per_direction must be an odd number >= 3")
    c = m // 2
    grid: list[list[np.ndarray | None]] = [[None] * m for _ in range(m)]
    grid[c][c] = _shape_cell(sub.start, "the start")
    for name, (first, second) in _pd_pairs(sub).items():
        dr, dc = _GRID_AXES[name]
        for sign, net in ((-1, first), (1, second)):
            for i, level in enumerate(_resample_branch(net.points, c), start=1):
                step = sign * i
                grid[c + step * dr][c + step * dc] = _shape_cell(
                    net.points[level], f"{name} net {net.direction_index} at level {level}")
    return grid


def write_submanifold_csv(sub: Submanifold, path) -> None:
    """Full-precision ambient coordinates of every net level, one row each."""
    dim = sub.start.ambient_dim
    header = "net_index,level," + ",".join(f"c{i}" for i in range(dim))
    _write_csv(path, header, "%d,%d,", dim,
               (((net.direction_index,), net.points.coords) for net in sub.nets))


def write_projected_csv(path, blocks) -> None:
    """The (kind, index, rows) blocks of project_submanifold as three-coordinate
    rows, with a closing comment when a pd3 or pd4 block is present."""
    _write_csv(path, "kind,net_index,level,p1,p2,p3", "%s,%d,%d,", 3,
               (((kind, index), rows) for kind, index, rows in blocks),
               "# pd3/pd4 label the fan diagonals, not third/fourth principal components\n"
               if any(kind in ("pd3", "pd4") for kind, _, _ in blocks) else "")


def write_shapes_json(path, grid, start_kind: str) -> None:
    """Nested square grid of (k, 2) landmark arrays, its side and fit metadata."""
    center = grid[len(grid) // 2][len(grid) // 2]
    payload = {
        "k": center.shape[0],
        "samples_per_direction": len(grid),
        "start_kind": start_kind,
        "grid": [[None if cell is None else cell.tolist() for cell in row]
                 for row in grid],
    }
    _write_json(path, payload, sort_keys=False)
