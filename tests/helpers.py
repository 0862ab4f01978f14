"""Shared fixtures: random sphere geometry and small landmark datasets."""

from __future__ import annotations

import numpy as np

from psm.geometry import Point, PointArray, project_to_sphere

# A "3"-like outline traced by 13 landmarks; the synthetic digit dataset
# jitters, rotates, scales and shifts it per specimen.
DIGIT3_BASE = np.array([
    [0.0, 1.0], [0.5, 1.1], [0.9, 0.8], [0.6, 0.45], [0.2, 0.35],
    [0.6, 0.25], [0.95, 0.0], [0.9, -0.5], [0.5, -0.9], [0.0, -1.0],
    [-0.4, -0.8], [-0.1, 0.1], [-0.35, 0.85],
])

LEAF_BASE = np.array([[0.0, 1.2], [0.8, 0.0], [0.0, -1.0], [-0.6, 0.1]])


def random_sphere_point(rng, dim_ambient: int) -> Point:
    return project_to_sphere(rng.standard_normal(dim_ambient))


def random_tangent(rng, x: Point, norm: float) -> np.ndarray:
    raw = rng.standard_normal(x.ambient_dim)
    vec = raw - (raw @ x.coords) * x.coords
    n = np.linalg.norm(vec)
    return (norm / n) * vec


def stacked(points) -> PointArray:
    """Points of one chart as one PointArray, in order."""
    points = list(points)
    return PointArray(np.stack([p.coords for p in points]), points[0].chart)


def tangent_basis(x: Point) -> np.ndarray:
    """Orthonormal basis of the tangent space at x (sphere chart), via QR."""
    d = x.ambient_dim
    mat = np.eye(d) - np.outer(x.coords, x.coords)
    q, r = np.linalg.qr(mat)
    keep = np.abs(np.diag(r)) > 1e-10
    basis = q[:, keep].T
    assert basis.shape[0] == d - 1
    return basis


def similarity_transform(rng, landmarks: np.ndarray) -> np.ndarray:
    ang = rng.uniform(0.0, 2.0 * np.pi)
    rot = np.array([[np.cos(ang), -np.sin(ang)], [np.sin(ang), np.cos(ang)]])
    scale = rng.uniform(0.5, 2.0)
    shift = rng.uniform(-3.0, 3.0, 2)
    return landmarks @ rot.T * scale + shift


def digit3_configs(n: int = 30, seed: int = 42, jitter: float = 0.03):
    """n jittered similarity images of DIGIT3_BASE as one (n, 13, 2) array,
    and their ids spec00, spec01, ..."""
    rng = np.random.default_rng(seed)
    blocks = []
    for _ in range(n):
        noisy = DIGIT3_BASE + rng.normal(0.0, jitter, DIGIT3_BASE.shape)
        blocks.append(similarity_transform(rng, noisy))
    return np.array(blocks), [f"spec{s:02d}" for s in range(n)]


def mirror_set(seed: int) -> np.ndarray:
    """A random 4-landmark shape, its mirror image and a copy jittered by 0.05,
    as one (3, 4, 2) array: a set whose Procrustes mean converges only
    linearly, by about 0.9 a round."""
    rng = np.random.default_rng(seed)
    base = rng.standard_normal((4, 2))
    return np.stack([base, base * [1, -1], base + rng.normal(0, 0.05, (4, 2))])


def great_circle_arc(n: int, seed: int, ambient: int = 4, half_angle: float = 1.2,
                     noise: float = 1e-3) -> tuple[PointArray, np.ndarray, np.ndarray]:
    """Noisy points along the e1-e2 great circle; returns (points, u1, u2)."""
    rng = np.random.default_rng(seed)
    u1 = np.zeros(ambient); u1[0] = 1.0
    u2 = np.zeros(ambient); u2[1] = 1.0
    angles = rng.uniform(-half_angle, half_angle, n)
    pts = []
    for ang in angles:
        p = np.cos(ang) * u1 + np.sin(ang) * u2
        p = p + noise * rng.standard_normal(ambient)
        pts.append(project_to_sphere(p))
    return stacked(pts), u1, u2


def read_csv_rows(path) -> tuple[list[str], list[list[str]]]:
    """Header and raw rows of one of the package's CSV exports ('#' skipped)."""
    with open(path, "r", encoding="utf-8") as fh:
        lines = [ln.rstrip("\n") for ln in fh if ln.strip() and not ln.startswith("#")]
    header = lines[0].split(",")
    return header, [ln.split(",") for ln in lines[1:]]
