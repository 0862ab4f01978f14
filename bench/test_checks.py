"""The benchmark's output checks accept clean psm outputs and reject corrupted ones.

    python3 -m pytest bench/test_checks.py -q
"""

from __future__ import annotations

import json
import shutil
import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

import checks  # noqa: E402
from psm.cli import main  # noqa: E402
from run import EPSILON, DELTA, MAX_LENGTH, specimen_ids, write_digit_landmarks  # noqa: E402

DIRECTIONS = 16


def psm(*argv) -> None:
    assert main([*map(str, argv), "--quiet"]) == 0


@pytest.fixture(scope="module")
def outputs(tmp_path_factory):
    root = tmp_path_factory.mktemp("psm")
    psm("generate", "--family", "sea_wave", "--n", 200, "--seed", 3, "--out", root / "in")
    psm("fit", root / "in" / "sea_wave.csv", "--directions", DIRECTIONS, "--out", root / "fit")
    write_digit_landmarks(root / "digits.csv", seed=3)
    psm("shapes", root / "digits.csv", "--out", root / "shapes")
    psm("fit", root / "shapes" / "preshapes.csv", "--directions", DIRECTIONS,
        "--grid-samples", 5, "--out", root / "shape_fit")
    psm("generate", "--family", "s_curve", "--n", 2000, "--seed", 3, "--out", root / "in")
    psm("fit", root / "in" / "s_curve.csv", "--k", 1, "--kernel", "gaussian",
        "--bandwidth", 0.15, "--epsilon", 0.005, "--out", root / "flow")
    return root


def copy_fit(outputs: Path, tmp_path: Path) -> Path:
    return Path(shutil.copytree(outputs / "fit", tmp_path / "fit"))


def fit_errors(fit_dir: Path, outputs: Path) -> list[str]:
    return checks.check_fit(fit_dir, outputs / "in" / "sea_wave.csv", epsilon=EPSILON,
                            delta=DELTA, max_length=MAX_LENGTH, num_nets=DIRECTIONS)


def test_clean_outputs_pass(outputs):
    assert fit_errors(outputs / "fit", outputs) == []
    assert checks.check_preshapes(outputs / "shapes" / "preshapes.csv", specimen_ids()) == []
    assert checks.check_fit(outputs / "shape_fit", outputs / "shapes" / "preshapes.csv",
                            epsilon=EPSILON, delta=DELTA, max_length=MAX_LENGTH,
                            num_nets=DIRECTIONS) == []
    assert checks.check_shape_grid(outputs / "shape_fit", 5) == []
    assert checks.check_fit(outputs / "flow", outputs / "in" / "s_curve.csv", epsilon=0.005,
                            delta=DELTA, max_length=MAX_LENGTH, num_nets=2) == []
    assert checks.check_flow_first_steps(outputs / "flow", outputs / "in" / "s_curve.csv",
                                         0.15) == []


def test_net_point_off_the_sphere_is_rejected(outputs, tmp_path):
    fit_dir = copy_fit(outputs, tmp_path)
    path = fit_dir / "submanifold.csv"
    lines = path.read_text().splitlines()
    cells = lines[5].split(",")
    cells[2:] = [repr(float(c) * (1.0 + 1e-9)) for c in cells[2:]]
    lines[5] = ",".join(cells)
    path.write_text("\n".join(lines) + "\n")
    errors = fit_errors(fit_dir, outputs)
    assert any("off the unit sphere" in e for e in errors), errors


def test_rotated_preshape_is_rejected(outputs, tmp_path):
    shapes = Path(shutil.copytree(outputs / "shapes", tmp_path / "shapes"))
    path = shapes / "preshapes.csv"
    lines = path.read_text().splitlines()
    cells = lines[7].split(",")
    z = np.array([float(c) for c in cells[1::2]]) + 1j * np.array([float(c) for c in cells[2::2]])
    z = np.exp(0.01j) * z  # still centred and unit norm, no longer aligned
    cells[1::2] = [repr(float(v)) for v in z.real]
    cells[2::2] = [repr(float(v)) for v in z.imag]
    lines[7] = ",".join(cells)
    path.write_text("\n".join(lines) + "\n")
    errors = checks.check_preshapes(path, specimen_ids())
    assert any("rotation-aligned" in e for e in errors), errors


# A relabel is only a detectable lie when the false rule does not also hold:
# psm checks hull, empty, length in that order, so a net that stopped on a
# later rule failed the earlier ones, and a hull exit may sit beyond delta.
@pytest.mark.parametrize("true_reason, false_reason", [
    (checks.HULL, checks.LENGTH),
    (checks.EMPTY, checks.HULL),
    (checks.LENGTH, checks.HULL),
])
def test_mislabelled_stop_reason_is_rejected(outputs, tmp_path, true_reason, false_reason):
    fit_dir = copy_fit(outputs, tmp_path)
    path = fit_dir / "summary.json"
    summary = json.loads(path.read_text())
    net = next(k for k, v in summary["stop_reasons"].items() if v == true_reason)
    summary["stop_reasons"][net] = false_reason
    path.write_text(json.dumps(summary))
    errors = fit_errors(fit_dir, outputs)
    assert [e for e in errors if e.startswith(f"net {net}: {false_reason}")], errors
