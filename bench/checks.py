"""Correctness checks of psm outputs, made with plain numpy from the written files.

Nothing here imports psm or compares against stored outputs: every check
recomputes its invariant from the CSV/JSON files a CLI invocation wrote and
from the input dataset.  Each function returns a list of failure messages;
an empty list means the check passed.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

import numpy as np

UNIT_TOL = 1e-12       # |norm - 1| of a net point or preshape
STEP_TOL = 1e-8        # |d(a, b) - epsilon| between consecutive net points
RULE_TOL = 1e-12       # slack on the stop-rule inequalities (rounding only)
MEAN_LOG_TOL = 1e-9    # |mean log| at a Frechet mean
CENTER_TOL = 1e-12     # |sum of x| and |sum of y| of a preshape
ROTATION_TOL = 1e-10   # |Im <z, mu>| of a rotation-aligned preshape
FLOW_TOL = 1e-9        # 1 - |cos| between a first step and the top eigenvector

HULL = "convex_hull_exit"
EMPTY = "empty_neighborhood"
LENGTH = "length_exceeded"


def read_rows(path) -> np.ndarray:
    """Numeric body of a psm CSV export (header and '#' lines skipped)."""
    with open(path, "r", encoding="utf-8") as fh:
        lines = [ln for ln in fh.read().splitlines()[1:] if ln and not ln.startswith("#")]
    return np.array([[float(c) for c in ln.split(",")] for ln in lines])


def read_dataset(path) -> np.ndarray:
    """Coordinates of a dataset CSV (point_index column dropped)."""
    return read_rows(path)[:, 1:]


def read_nets(path) -> dict[int, np.ndarray]:
    """submanifold.csv as {net_index: (levels, m) coordinates}, levels in order."""
    rows = read_rows(path)
    nets: dict[int, list] = {}
    for row in rows:
        nets.setdefault(int(row[0]), []).append(row)
    out = {}
    for index, net_rows in nets.items():
        arr = np.array(net_rows)
        if not np.array_equal(arr[:, 1], np.arange(len(arr))):
            raise ValueError(f"net {index}: levels are not 0, 1, 2, ...")
        out[index] = arr[:, 2:]
    return out


def sphere_logs(x: np.ndarray, ys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Logs of the rows of ys at the unit vector x, and their geodesic lengths."""
    c = np.clip(ys @ x, -1.0, 1.0)
    u = ys - c[:, None] * x
    nu = np.linalg.norm(u, axis=1)
    theta = np.arccos(c)
    scale = np.divide(theta, nu, out=np.zeros_like(nu), where=nu > 0.0)
    return scale[:, None] * u, theta


def distance(x: np.ndarray, y: np.ndarray) -> float:
    """Great-circle distance by the half-chord formula (accurate for tiny arcs)."""
    return 2.0 * math.asin(min(1.0, 0.5 * float(np.linalg.norm(y - x))))


def check_net_points(nets: dict[int, np.ndarray], start: np.ndarray,
                     epsilon: float) -> list[str]:
    """Unit norm of every point, level 0 at the start, steps exactly epsilon long."""
    errors = []
    for index, pts in nets.items():
        off = float(np.max(np.abs(np.linalg.norm(pts, axis=1) - 1.0)))
        if off > UNIT_TOL:
            errors.append(f"net {index}: a point is {off:.3g} off the unit sphere")
        if not np.array_equal(pts[0], start):
            errors.append(f"net {index}: level 0 is not the start point")
        steps = np.array([distance(a, b) for a, b in zip(pts, pts[1:])])
        if steps.size == 0:
            errors.append(f"net {index}: holds no step")
            continue
        gap = float(np.max(np.abs(steps - epsilon)))
        if gap > STEP_TOL:
            errors.append(f"net {index}: a step differs from epsilon by {gap:.3g}")
    return errors


def check_stop_rules(nets: dict[int, np.ndarray], reasons: dict[str, str],
                     data: np.ndarray, epsilon: float, delta: float,
                     max_length: float) -> list[str]:
    """Re-verify each net's recorded stop reason at its terminal point."""
    errors = []
    if sorted(int(k) for k in reasons) != sorted(nets):
        return ["stop reasons and written nets name different net indices"]
    for key, reason in reasons.items():
        pts = nets[int(key)]
        if len(pts) < 2:
            errors.append(f"net {key}: too short to carry a stop reason")
            continue
        last, prev = pts[-1], pts[-2]
        if reason == HULL:
            back, _ = sphere_logs(last, prev[None, :])
            logs, _ = sphere_logs(last, data)
            worst = float(np.min(logs @ back[0]))
            if worst < -RULE_TOL:
                errors.append(f"net {key}: {HULL} but a datum lies ahead "
                              f"(inner product {worst:.3g})")
        elif reason == EMPTY:
            _, dists = sphere_logs(last, data)
            nearest = float(np.min(dists))
            if nearest <= delta - RULE_TOL:
                errors.append(f"net {key}: {EMPTY} but a datum lies at {nearest:.6g} "
                              f"<= delta {delta}")
        elif reason == LENGTH:
            before = sum(distance(a, b) for a, b in zip(pts[:-1], pts[1:-1]))
            if before + epsilon <= max_length - RULE_TOL:
                errors.append(f"net {key}: {LENGTH} but length {before:.6g} + epsilon "
                              f"stays within {max_length}")
        else:
            errors.append(f"net {key}: stop reason {reason!r} is not expected here")
    return errors


def check_frechet_mean(mean: np.ndarray, data: np.ndarray, what: str) -> list[str]:
    """The mean log of the data at `mean` vanishes."""
    logs, _ = sphere_logs(mean, data)
    grad = float(np.linalg.norm(logs.mean(axis=0)))
    if grad > MEAN_LOG_TOL:
        return [f"{what} is not a Frechet mean: |mean log| = {grad:.3g}"]
    return []


def check_fit(out_dir, data_path, *, epsilon: float, delta: float,
              max_length: float, num_nets: int) -> list[str]:
    """Net points, stop rules and the start point of one `psm fit` output."""
    out_dir = Path(out_dir)
    data = read_dataset(data_path)
    with open(out_dir / "summary.json", "r", encoding="utf-8") as fh:
        summary = json.load(fh)
    start = np.array(summary["start"])
    try:
        nets = read_nets(out_dir / "submanifold.csv")
    except ValueError as exc:
        return [str(exc)]
    if len(nets) != num_nets:
        return [f"expected {num_nets} nets, found {len(nets)}"]
    return (check_net_points(nets, start, epsilon)
            + check_stop_rules(nets, summary["stop_reasons"], data,
                               epsilon, delta, max_length)
            + check_frechet_mean(start, data, "the start point"))


def check_flow_first_steps(out_dir, data_path, bandwidth: float) -> list[str]:
    """The two first steps of a flow are opposite and follow the top eigenvector.

    The eigenvector comes from an independently computed Gaussian-weighted
    second moment of the data's logs at the start.
    """
    out_dir = Path(out_dir)
    data = read_dataset(data_path)
    with open(out_dir / "summary.json", "r", encoding="utf-8") as fh:
        start = np.array(json.load(fh)["start"])
    nets = read_nets(out_dir / "submanifold.csv")
    if sorted(nets) != [1, 2]:
        return [f"a flow holds nets 1 and 2, found {sorted(nets)}"]
    firsts, _ = sphere_logs(start, np.stack([nets[1][1], nets[2][1]]))
    errors = []
    gap = float(np.linalg.norm(firsts[0] + firsts[1]))
    if gap > UNIT_TOL:
        errors.append(f"the first steps are not opposite (|l1 + l2| = {gap:.3g})")
    logs, dists = sphere_logs(start, data)
    w = np.exp(-0.5 * (dists / bandwidth) ** 2)
    cov = (logs * w[:, None]).T @ logs / w.sum()
    top = np.linalg.eigh((cov + cov.T) / 2.0)[1][:, -1]
    for index, step in zip((1, 2), firsts):
        miss = 1.0 - abs(float(step @ top)) / float(np.linalg.norm(step))
        if miss > FLOW_TOL:
            errors.append(f"net {index}: the first step leaves the top eigenvector "
                          f"(1 - |cos| = {miss:.3g})")
    return errors


def check_preshapes(preshape_path, specimen_ids: list[str]) -> list[str]:
    """Centred unit preshapes, rotation-optimal against a mean that is their Frechet mean."""
    path = Path(preshape_path)
    pres = read_dataset(path)
    with open(path.with_name(path.stem + ".meta.json"), "r", encoding="utf-8") as fh:
        meta = json.load(fh)
    errors = []
    if meta["specimen_ids"] != specimen_ids or len(pres) != len(specimen_ids):
        errors.append("the preshapes do not list the input specimens in order")
    centre = float(np.max(np.abs([pres[:, 0::2].sum(axis=1), pres[:, 1::2].sum(axis=1)])))
    if centre > CENTER_TOL:
        errors.append(f"a preshape is off centre by {centre:.3g}")
    off = float(np.max(np.abs(np.linalg.norm(pres, axis=1) - 1.0)))
    if off > UNIT_TOL:
        errors.append(f"a preshape is {off:.3g} off unit norm")
    mean = np.array(meta["mean"])
    z = pres[:, 0::2] + 1j * pres[:, 1::2]
    mu = mean[0::2] + 1j * mean[1::2]
    inner = np.conj(z) @ mu
    twist = float(np.max(np.abs(inner.imag)))
    if twist > ROTATION_TOL:
        errors.append(f"a preshape is not rotation-aligned to the mean "
                      f"(|Im <z, mu>| = {twist:.3g})")
    if float(np.min(inner.real)) <= 0.0:
        errors.append("a preshape faces away from the mean (Re <z, mu> <= 0)")
    return errors + check_frechet_mean(mean, pres, "the Procrustes mean")


def check_shape_grid(out_dir, samples: int) -> list[str]:
    """The centre cell of shapes.json is the start shape."""
    out_dir = Path(out_dir)
    with open(out_dir / "shapes.json", "r", encoding="utf-8") as fh:
        shapes = json.load(fh)
    with open(out_dir / "summary.json", "r", encoding="utf-8") as fh:
        start = np.array(json.load(fh)["start"])
    grid = shapes["grid"]
    if len(grid) != samples or any(len(row) != samples for row in grid):
        return [f"the shape grid is not {samples} x {samples}"]
    centre = grid[samples // 2][samples // 2]
    if centre is None or not np.array_equal(np.array(centre).ravel(), start):
        return ["the centre cell of the shape grid is not the start shape"]
    return []
