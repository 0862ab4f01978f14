"""Acceptance suite: ten pinned end-to-end guarantees.

Every test is seeded and deterministic, prints one `criterion N: PASS/FAIL`
line with its measured margins (visible under `pytest -s`), and fails only
on a genuine regression.  Thresholds that depend on fitted output were
measured once against this implementation and are pinned here as regression
values.
"""

import dataclasses
import itertools
import math
import time

import numpy as np
import pytest

from psm.cli import main
from psm.datagen import generate
from psm.errors import DegenerateProjectionError
from psm.fitting import (
    FitConfig,
    StopReason,
    fit_submanifold,
    step_net,
    stop_check,
)
from psm.geometry import (
    Point,
    PointArray,
    exp_map,
    geodesic_distance,
    log_map,
    points_matrix,
)
from psm.shape import _align_rotations, _preshape_rows, align_dataset
from psm.tangent_stats import KernelSpec, frechet_mean, frechet_variance
from psm.viz import principal_directions

from helpers import (
    digit3_configs,
    great_circle_arc,
    random_sphere_point,
    random_tangent,
    similarity_transform,
    stacked,
    tangent_basis,
)


def _verdict(criterion: int, passed: bool, details: str) -> None:
    print(f"criterion {criterion}: {'PASS' if passed else 'FAIL'} ({details})")
    assert passed, f"criterion {criterion}: {details}"


# -- shared fits -------------------------------------------------------------

@pytest.fixture(scope="module")
def flat_gaussian_fit():
    # 200 Gaussian points in R^4 with a well separated spectrum, fitted on
    # the flat chart with an infinite bandwidth (every point always counts).
    rng = np.random.default_rng(1002)
    matrix = rng.standard_normal((200, 4)) * np.array([2.0, 1.2, 0.6, 0.3])
    data = PointArray(matrix, "flat")
    mean = frechet_mean(data)
    cfg = FitConfig(kernel=KernelSpec("uniform_ball", math.inf))
    t0 = time.perf_counter()
    sub = fit_submanifold(data, mean, cfg)
    elapsed = time.perf_counter() - t0
    centered = matrix - matrix.mean(axis=0)
    evals, evecs = np.linalg.eigh(centered.T @ centered / len(matrix))
    return {
        "data": data,
        "matrix": matrix,
        "mean": mean,
        "sub": sub,
        "elapsed": elapsed,
        "evals": evals,
        "evecs": evecs,
    }


@pytest.fixture(scope="module")
def bent_sheet():
    # The pinned bent-sheet demo dataset: 200 points, seed 7.  The sheet of
    # the construction is the small sphere at latitude asin(1/sqrt(C)).
    points, info = generate("s_curve", 200, 7)
    return points, info["resolved_shift"]


# -- criteria ----------------------------------------------------------------

def test_criterion_01_exp_log_round_trip():
    rng = np.random.default_rng(1001)
    t0 = time.perf_counter()
    worst_rt, worst_dist = 0.0, 0.0
    for _ in range(1000):
        x = random_sphere_point(rng, 4)
        v = random_tangent(rng, x, rng.uniform(0.0, math.pi - 0.1))
        y = exp_map(x, v)
        back = log_map(x, y)
        worst_rt = max(worst_rt, float(np.linalg.norm(back - v)))
        worst_dist = max(worst_dist, abs(geodesic_distance(x, y) - np.linalg.norm(v)))
    elapsed = time.perf_counter() - t0
    _verdict(
        1,
        worst_rt <= 1e-9 and worst_dist <= 1e-10 and elapsed < 1.0,
        f"round trip {worst_rt:.2e} <= 1e-9, distance {worst_dist:.2e} <= 1e-10, "
        f"{elapsed:.2f} s < 1 s",
    )


def test_criterion_02_flat_fit_recovers_principal_plane(flat_gaussian_fit):
    f = flat_gaussian_fit
    basis = f["evecs"][:, -2:]
    top = f["evecs"][:, -1]
    worst_plane = 0.0
    for net in f["sub"].nets:
        for p in net.points:
            d = p.coords - f["mean"].coords
            worst_plane = max(
                worst_plane, float(np.linalg.norm(d - basis @ (basis.T @ d))))
    worst_line = 0.0
    for p in principal_directions(f["sub"])[0]["pd1"]:
        d = p.coords - f["mean"].coords
        worst_line = max(worst_line, float(np.linalg.norm(d - top * (top @ d))))
    _verdict(
        2,
        worst_plane <= 1e-8 and worst_line <= 1e-8 and f["elapsed"] < 5.0,
        f"plane residual {worst_plane:.2e} <= 1e-8, "
        f"PD1 off-line {worst_line:.2e} <= 1e-8, {f['elapsed']:.2f} s < 5 s",
    )


def test_criterion_03_net_growth_structure_on_bent_sheet(bent_sheet):
    points, _ = bent_sheet
    start = frechet_mean(points)
    cfg = FitConfig()
    t0 = time.perf_counter()
    sub = fit_submanifold(points, start, cfg)
    elapsed = time.perf_counter() - t0
    worst_unit, worst_step = 0.0, 0.0
    min_inner = math.inf
    all_reasons = True
    for net in sub.nets:
        all_reasons &= isinstance(net.stop_reason, StopReason)
        for p in net.points:
            worst_unit = max(worst_unit, abs(float(np.linalg.norm(p.coords)) - 1.0))
        for a, b in zip(net.points, net.points[1:]):
            worst_step = max(worst_step, abs(geodesic_distance(a, b) - cfg.epsilon))
        if net.stop_reason is StopReason.CONVEX_HULL_EXIT:
            # Re-verify the exit condition at the recorded final point: the
            # step back toward the net and every data point lie on the same
            # side of the tangent space.
            back = log_map(net.points[-1], net.points[-2])
            for x in points:
                min_inner = min(min_inner, float(back @ log_map(net.points[-1], x)))
    _verdict(
        3,
        worst_unit <= 1e-12 and worst_step <= 1e-8 and all_reasons
        and min_inner >= 0.0 and elapsed < 10.0,
        f"unit norm {worst_unit:.2e} <= 1e-12, step {worst_step:.2e} <= 1e-8, "
        f"all stop reasons recorded {all_reasons}, hull inner min {min_inner:.2e} >= 0, "
        f"{elapsed:.2f} s < 10 s",
    )


def test_criterion_04_flow_recovers_great_circle():
    points, u1, u2 = great_circle_arc(100, seed=404)
    sub = fit_submanifold(points, frechet_mean(points), FitConfig(dim=1))
    worst = 0.0
    for net in sub.nets:
        for p in net.points:
            proj = u1 * (u1 @ p.coords) + u2 * (u2 @ p.coords)
            worst = max(worst, math.acos(min(1.0, float(np.linalg.norm(proj)))))
    _verdict(4, worst <= 5e-3, f"max circle distance {worst:.2e} <= 5e-3")


def test_criterion_05_preshape_alignment_and_rank():
    rng = np.random.default_rng(1005)
    base = rng.standard_normal((13, 2))
    moved = np.stack([similarity_transform(rng, base) for _ in range(50)])
    target = _preshape_rows(base[None], ["base"])[0]
    aligned = _align_rotations(_preshape_rows(moved, [str(i) for i in range(50)]), target)
    worst = max(geodesic_distance(Point(row), Point(target)) for row in aligned)
    aligned_pts, mean = align_dataset(*digit3_configs(30, seed=42))
    rows = points_matrix(aligned_pts)
    # sum_j conj(z_j) w_j of each aligned row z with the mean w: real and >= 0
    inner = (rows.view(complex).conj() * mean.coords.view(complex)).sum(axis=1)
    worst_imag = float(np.abs(inner.imag).max())
    svals = np.linalg.svd(rows, compute_uv=False)
    k = 13
    rank_ratio = float(svals[2 * k - 3] / svals[0])
    _verdict(
        5,
        worst <= 1e-8 and worst_imag <= 1e-14 and inner.real.min() >= 0.0
        and rank_ratio <= 1e-10,
        f"alignment distance {worst:.2e} <= 1e-8, "
        f"inner product with the mean: |imag| {worst_imag:.2e} <= 1e-14, "
        f"real min {inner.real.min():.3f} >= 0, "
        f"sigma[2k-3]/sigma[0] {rank_ratio:.2e} <= 1e-10",
    )


def test_criterion_06_frechet_mean_optimality():
    rng = np.random.default_rng(1006)
    center = random_sphere_point(rng, 4)
    cap = stacked(exp_map(center, random_tangent(rng, center, rng.uniform(0.0, 0.5)))
                  for _ in range(30))
    mean = frechet_mean(cap)
    grad = float(np.linalg.norm(np.mean([log_map(mean, p) for p in cap], axis=0)))
    base_var = frechet_variance(mean, cap)
    basis = tangent_basis(mean)
    beaten = 0
    for off in itertools.product((-1e-3, 0.0, 1e-3), repeat=3):
        if off == (0.0, 0.0, 0.0):
            continue
        rival = exp_map(mean, np.array(off) @ basis)
        beaten += frechet_variance(rival, cap) > base_var
    _verdict(
        6,
        grad <= 1e-9 and beaten == 26,
        f"gradient {grad:.2e} <= 1e-9, beats {beaten}/26 grid rivals",
    )


def test_criterion_07_stop_reasons_on_three_point_arcs():
    def arc(thetas):
        return PointArray([[math.cos(t), math.sin(t), 0.0] for t in thetas], "sphere")

    # Candidate one step past the end of a short arc: every data point sits
    # on the inner side.
    hull = stop_check(arc([-0.2])[0], arc([-0.18])[0],
                      arc([-0.1, 0.0, 0.1]), FitConfig(), 0.04)
    # Nothing within delta of the candidate, while points on both sides keep
    # the hull test from firing first.
    empty = stop_check(arc([0.0])[0], arc([1e-7])[0],
                       arc([-0.01, 0.005, 0.02]),
                       FitConfig(epsilon=1e-7, delta=1e-6), 2e-7)
    # Budget of two steps already spent; the candidate is surrounded by data
    # so no other rule can fire.
    length = stop_check(arc([0.0])[0], arc([-0.02])[0],
                        arc([-0.1, 0.05, 0.15]),
                        FitConfig(max_net_length=0.04), 0.04)
    # Backward direction orthogonal to the local frame span.
    flat3 = PointArray([(0.2, 0.0, 0.0), (-0.2, 0.0, 0.0), (0.0, 0.1, 0.0)], "flat")
    try:
        step_net(Point(np.array([0.0, 0.0, 0.01]), "flat"),
                 Point(np.zeros(3), "flat"), flat3,
                 FitConfig(kernel=KernelSpec("uniform_ball", math.inf)))
        degenerate_raised = False
    except DegenerateProjectionError:
        degenerate_raised = True
    # End to end: an axis arm that bends into an orthogonal pair makes one
    # net of a flow fit record the degenerate projection, the other exits
    # the hull.
    cross = PointArray([(0.06, 0.0), (-0.06, 0.0), (0.12, 0.0), (-0.12, 0.0),
                        (0.2, 0.08), (0.2, -0.08)], "flat")
    flow = fit_submanifold(cross, Point(np.zeros(2), "flat"),
                           FitConfig(dim=1, kernel=KernelSpec("uniform_ball", 0.1)))
    recorded = {net.stop_reason for net in flow.nets}
    _verdict(
        7,
        hull is StopReason.CONVEX_HULL_EXIT
        and empty is StopReason.EMPTY_NEIGHBORHOOD
        and length is StopReason.LENGTH_EXCEEDED
        and degenerate_raised
        and StopReason.DEGENERATE_PROJECTION in recorded,
        f"hull {hull}, empty {empty}, length {length}, "
        f"degenerate raised {degenerate_raised}, flow recorded "
        f"{sorted(r.value for r in recorded)}",
    )


def test_criterion_08_flat_variation_score_identity(flat_gaussian_fit):
    f = flat_gaussian_fit
    sub, data, cfg = f["sub"], f["data"], f["sub"].config
    from psm.fitting import variation_score

    score = variation_score(sub, data)
    lam_sum = float(f["evals"][-1] + f["evals"][-2])
    weight_sum = sum(
        (2.0 * math.pi / cfg.num_directions) * (i - 0.5) * cfg.epsilon ** 2
        for net in sub.nets for i in range(1, len(net.points)))
    rel = abs(score.total - lam_sum * weight_sum) / (lam_sum * weight_sum)

    # Rotate every net a quarter turn out of the data plane (second
    # eigendirection into the third); the in-plane eigenvalue mass is
    # unchanged, so only the angle factor can move, and it must drop.
    v2, v3 = f["evecs"][:, -2], f["evecs"][:, -3]
    rot = (np.eye(4) - np.outer(v2, v2) - np.outer(v3, v3)
           + np.outer(v3, v2) - np.outer(v2, v3))
    mean = f["mean"].coords
    rotated = dataclasses.replace(sub, nets=tuple(
        dataclasses.replace(net, points=PointArray(
            [mean + rot @ (p.coords - mean) for p in net.points], "flat"))
        for net in sub.nets))
    rotated_score = variation_score(rotated, data)
    _verdict(
        8,
        rel <= 1e-6 and rotated_score.total < score.total,
        f"score identity rel err {rel:.2e} <= 1e-6, rotated "
        f"{rotated_score.total:.6f} < {score.total:.6f}",
    )


def test_criterion_09_bent_sheet_beats_geodesic(bent_sheet):
    # Regression-pinned comparison: with the start at the sheet's center of
    # symmetry and a bandwidth tight enough to see the bending (0.15 ball),
    # the first principal direction hugs the curved sheet while the
    # first-direction geodesic leaves it.  Measured margins: max deviation
    # 0.122 against the 0.1 bound, sheet-distance ratio 0.313 against 0.5.
    points, shift = bent_sheet
    start = Point(np.array([0.0, 0.0, 1.0, math.sqrt(shift - 1.0)]) / math.sqrt(shift))
    cfg = FitConfig(kernel=KernelSpec("uniform_ball", 0.15))
    sub = fit_submanifold(points, start, cfg)
    pd1 = principal_directions(sub)[0]["pd1"]

    back_net = next(n for n in sub.nets
                    if n.direction_index == cfg.num_directions // 2)
    at_start = len(back_net.points) - 1
    assert np.array_equal(pd1[at_start].coords, start.coords)
    direction = sub.frame_at_start.basis[0]
    geodesic = [exp_map(start, (j - at_start) * cfg.epsilon * direction)
                for j in range(len(pd1))]

    max_dev = max(geodesic_distance(p, g) for p, g in zip(pd1, geodesic))
    latitude = math.asin(1.0 / math.sqrt(shift))

    def sheet_dist(p):
        return abs(math.asin(max(-1.0, min(1.0, float(p.coords[2])))) - latitude)

    mean_pd1 = float(np.mean([sheet_dist(p) for p in pd1]))
    mean_geo = float(np.mean([sheet_dist(g) for g in geodesic]))
    _verdict(
        9,
        max_dev > 5 * cfg.epsilon and mean_pd1 <= 0.5 * mean_geo,
        f"max deviation {max_dev:.4f} > {5 * cfg.epsilon}, sheet distance "
        f"{mean_pd1:.4f} <= 0.5 * {mean_geo:.4f}",
    )


def test_criterion_10_cli_reruns_are_byte_identical(tmp_path):
    lm_lines = ["specimen_id,landmark_index,x,y"]
    for block, sid in zip(*digit3_configs(n=10, seed=5)):
        for i, (x, y) in enumerate(block, start=1):
            lm_lines.append(f"{sid},{i},{float(x)!r},{float(y)!r}")
    landmarks = tmp_path / "digits.csv"
    landmarks.write_text("\n".join(lm_lines) + "\n", encoding="utf-8")

    dataset = tmp_path / "data"
    assert main(["generate", "--family", "s_curve", "--n", "60", "--seed", "7",
                 "--quiet", "--out", str(dataset)]) == 0
    csv_path = dataset / "s_curve.csv"

    commands = {
        "generate": ["generate", "--family", "sea_wave", "--n", "30",
                     "--seed", "11", "--quiet"],
        "shapes": ["shapes", str(landmarks), "--quiet"],
        "fit": ["fit", str(csv_path), "--directions", "8", "--quiet"],
        "compare-geodesic": ["compare-geodesic", str(csv_path),
                             "--directions", "8", "--quiet"],
    }
    mismatches = []
    for name, argv in commands.items():
        a, b = tmp_path / f"{name}-a", tmp_path / f"{name}-b"
        for out in (a, b):
            assert main(argv + ["--out", str(out)]) == 0, name
        names_a = sorted(p.name for p in a.iterdir())
        names_b = sorted(p.name for p in b.iterdir())
        if names_a != names_b or not names_a:
            mismatches.append(f"{name}: file sets differ")
            continue
        for file_name in names_a:
            if (a / file_name).read_bytes() != (b / file_name).read_bytes():
                mismatches.append(f"{name}: {file_name}")
    _verdict(
        10,
        not mismatches,
        "all four commands byte-identical on rerun" if not mismatches
        else "; ".join(mismatches),
    )
