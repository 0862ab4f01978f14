"""End-to-end runs of the psm command line through main(argv)."""

import ast
import json
import math
import re
from pathlib import Path

import numpy as np
import pytest

import psm
from psm import cli
from psm.cli import _build_parser, _merge_settings, main
from psm.geometry import PointArray, points_matrix
from psm.datagen import RECIPES, read_dataset_csv, write_dataset_csv

from helpers import DIGIT3_BASE, digit3_configs, read_csv_rows


def write_digit_landmarks(path, n=12, seed=5):
    lines = ["specimen_id,landmark_index,x,y"]
    for config in digit3_configs(n=n, seed=seed):
        for i, (x, y) in enumerate(config.landmarks, start=1):
            lines.append(f"{config.specimen_id},{i},{float(x)!r},{float(y)!r}")
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return path


def run(*argv):
    return main(list(argv))


class TestGenerate:
    def test_writes_csv_and_sidecar(self, tmp_path):
        out = tmp_path / "data"
        code = run("generate", "--family", "s_curve", "--n", "50",
                   "--seed", "3", "--out", str(out))
        assert code == 0
        points, meta = read_dataset_csv(out / "s_curve.csv")
        assert len(points) == 50
        assert meta["kind"] == "dataset"
        assert meta["chart"] == "sphere"
        assert meta["family"] == "s_curve"
        assert meta["n"] == 50 and meta["seed"] == 3
        assert meta["shift"] == "auto"
        assert meta["resolved_shift"] > 0
        assert meta["generator"] == "numpy.random.PCG64"
        assert meta["params"] == {"noise_scale_u": 1.0 / 32.0}

    def test_deterministic_bytes(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        assert run("generate", "--family", "sea_wave", "--n", "30",
                   "--seed", "9", "--out", str(a)) == 0
        assert run("generate", "--family", "sea_wave", "--n", "30",
                   "--seed", "9", "--out", str(b)) == 0
        assert (a / "sea_wave.csv").read_bytes() == (b / "sea_wave.csv").read_bytes()
        assert (a / "sea_wave.meta.json").read_bytes() == \
               (b / "sea_wave.meta.json").read_bytes()

    def test_family_required(self, tmp_path, capsys):
        code = run("generate", "--out", str(tmp_path))
        assert code == 2
        assert "family" in capsys.readouterr().err

    def test_invalid_family_rejected_by_parser(self, tmp_path):
        code = run("generate", "--family", "torus", "--out", str(tmp_path))
        assert code == 2

    def test_infeasible_shift_is_an_error(self, tmp_path, capsys):
        code = run("generate", "--family", "s_curve", "--n", "20",
                   "--shift", "0.001", "--out", str(tmp_path))
        assert code == 1
        assert "error" in capsys.readouterr().err
        assert not (tmp_path / "s_curve.csv").exists()

    @pytest.mark.parametrize("argv, message", [
        (["--family", "s_curve", "--n", "2"], "n must be at least 3"),
        (["--family", "ellipsoid", "--a", "-1"], "semi-axes must be positive"),
        (["--family", "sea_wave", "--noise-level", "-1"], "noise_level must be nonnegative"),
    ])
    def test_out_of_range_value_is_usage_error(self, tmp_path, capsys, argv, message):
        assert run("generate", *argv, "--out", str(tmp_path)) == 2
        assert f"usage error: {message}" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("family, key", [
        (family, key) for family, (_, defaults) in RECIPES.items()
        for key in [*defaults, "shift_c"] if key != "mode"
    ])
    @pytest.mark.parametrize("bad", ["inf", "-inf", "nan"])
    def test_non_finite_parameter_is_usage_error(self, tmp_path, monkeypatch, capsys,
                                                 family, key, bad):
        # GenSpec rejects the value before generate runs: a solid ellipsoid
        # with an infinite or NaN semi-axis would never accept a draw
        def never(spec):
            raise AssertionError("generate ran")

        monkeypatch.setattr(cli, "generate", never)
        flag = "--shift" if key == "shift_c" else "--" + key.replace("_", "-")
        assert run("generate", "--family", family, f"{flag}={bad}",
                   "--out", str(tmp_path)) == 2
        assert capsys.readouterr().err == f"usage error: {key} must be finite\n"
        assert list(tmp_path.iterdir()) == []

    def test_quiet_silences_stdout(self, tmp_path, capsys):
        code = run("generate", "--family", "s_curve", "--n", "20",
                   "--quiet", "--out", str(tmp_path))
        assert code == 0
        assert capsys.readouterr().out == ""

    def test_ellipsoid_params_forwarded(self, tmp_path):
        code = run("generate", "--family", "ellipsoid", "--n", "40",
                   "--a", "5", "--mode", "surface", "--out", str(tmp_path))
        assert code == 0
        meta = json.loads((tmp_path / "ellipsoid.meta.json").read_text())
        assert meta["params"]["a"] == 5.0
        assert meta["params"]["mode"] == "surface"
        assert meta["params"]["b"] == pytest.approx(math.sqrt(2.0))


@pytest.mark.parametrize("command", ["generate", "shapes"])
def test_written_dataset_is_read_back_once(tmp_path, monkeypatch, capsys, command):
    # The one read-back in _validate_written checks the row count; nothing
    # parses the written dataset as data.
    import psm.cli

    if command == "generate":
        argv = ["generate", "--family", "sea_wave", "--n", "20"]
    else:
        argv = ["shapes", str(write_digit_landmarks(tmp_path / "digits.csv"))]
    reads = []
    read = psm.cli.read_dataset_csv
    monkeypatch.setattr(psm.cli, "read_dataset_csv",
                        lambda path: reads.append(path) or read(path))
    assert run(*argv, "--quiet", "--out", str(tmp_path / "ok")) == 0
    assert reads == []
    # a writer that drops a row fails the run, which leaves no outputs
    write = psm.cli.write_dataset_csv
    monkeypatch.setattr(psm.cli, "write_dataset_csv",
                        lambda points, path, meta: write(points[:-1], path, meta))
    out = tmp_path / "short"
    assert run(*argv, "--quiet", "--out", str(out)) == 1
    n = 20 if command == "generate" else 12
    assert f"wrote {n} points but read back {n - 1}" in capsys.readouterr().err
    assert list(out.iterdir()) == []


def test_quiet_fit_computes_no_net_lengths(tmp_path, monkeypatch, capsys):
    import psm.cli

    assert run("generate", "--family", "sea_wave", "--n", "200", "--seed", "1",
               "--quiet", "--out", str(tmp_path)) == 0
    calls = []
    net_length = psm.cli.net_length
    monkeypatch.setattr(psm.cli, "net_length", lambda net: calls.append(net) or net_length(net))
    data = str(tmp_path / "sea_wave.csv")
    assert run("fit", data, "--quiet", "--out", str(tmp_path / "quiet")) == 0
    assert calls == [] and capsys.readouterr().out == ""
    # printed, each net's line still carries its length
    assert run("fit", data, "--out", str(tmp_path / "loud")) == 0
    lines = [ln for ln in capsys.readouterr().out.splitlines() if ln.startswith("net ")]
    assert len(calls) == len(lines) == 180
    assert all("(length " in ln for ln in lines)


class TestShapes:
    def test_alignment_outputs(self, tmp_path):
        lm = write_digit_landmarks(tmp_path / "digits.csv")
        out = tmp_path / "out"
        assert run("shapes", str(lm), "--out", str(out)) == 0
        points, meta = read_dataset_csv(out / "preshapes.csv")
        assert meta["kind"] == "preshape"
        assert meta["k"] == DIGIT3_BASE.shape[0]
        assert meta["n"] == 12 and len(points) == 12
        assert len(meta["specimen_ids"]) == 12
        mean = np.array(meta["mean"])
        assert abs(np.linalg.norm(mean) - 1.0) <= 1e-9

    def test_single_specimen_fails(self, tmp_path, capsys):
        lm = write_digit_landmarks(tmp_path / "one.csv", n=1)
        code = run("shapes", str(lm), "--out", str(tmp_path / "out"))
        assert code == 1
        assert "error" in capsys.readouterr().err

    def test_missing_input(self, tmp_path):
        assert run("shapes", str(tmp_path / "nope.csv"),
                   "--out", str(tmp_path)) == 2


@pytest.fixture()
def s_curve_csv(tmp_path):
    out = tmp_path / "data"
    assert run("generate", "--family", "s_curve", "--n", "60", "--seed", "7",
               "--quiet", "--out", str(out)) == 0
    return out / "s_curve.csv"


@pytest.fixture()
def preshapes_csv(tmp_path):
    lm = write_digit_landmarks(tmp_path / "digits.csv")
    out = tmp_path / "pre"
    assert run("shapes", str(lm), "--quiet", "--out", str(out)) == 0
    return out / "preshapes.csv"


@pytest.fixture()
def great_circle_csv(tmp_path):
    """400 sphere rows spread around a whole great circle, with a little noise
    off it; arc-matched geodesics of a length-4 flow wrap past the antipode."""
    rng = np.random.default_rng(0)
    t = np.linspace(0.0, 2.0 * math.pi, 400, endpoint=False)
    rows = np.column_stack([np.cos(t), np.sin(t), 0.05 * rng.standard_normal((400, 2))])
    path = tmp_path / "circle.csv"
    write_dataset_csv(PointArray(rows / np.linalg.norm(rows, axis=1)[:, None]), path)
    return path


@pytest.fixture()
def s2_csv(tmp_path):
    """120 rows on S^2 (3 coordinates) around the pole, wider along c0 than c1."""
    rng = np.random.default_rng(121)
    rows = np.column_stack([0.4 * rng.standard_normal(120),
                            0.15 * rng.standard_normal(120), np.ones(120)])
    path = tmp_path / "s2.csv"
    write_dataset_csv(PointArray(rows / np.linalg.norm(rows, axis=1)[:, None]), path)
    return path


@pytest.fixture()
def flat2_csv(tmp_path):
    """60 rows of a 2-column flat chart."""
    rng = np.random.default_rng(122)
    xs = np.column_stack([rng.uniform(-1, 1, 60), 0.3 * rng.standard_normal(60)])
    lines = ["point_index,c0,c1"]
    lines += [f"{i}," + ",".join(repr(float(v)) for v in row) for i, row in enumerate(xs)]
    path = tmp_path / "flat2.csv"
    path.write_text("\n".join(lines) + "\n")
    (tmp_path / "flat2.meta.json").write_text(json.dumps({"chart": "flat"}) + "\n")
    return path


_GREAT_CIRCLE_FLOW = ("--k", "1", "--max-length", "4", "--kernel", "gaussian",
                      "--bandwidth", "0.3", "--start", "custom", "--coords=1,0,0,0")


class TestFit:
    def test_three_export_files(self, tmp_path, s_curve_csv):
        out = tmp_path / "run"
        code = run("fit", str(s_curve_csv), "--directions", "8",
                   "--out", str(out))
        assert code == 0
        assert (out / "submanifold.csv").is_file()
        assert (out / "projected.csv").is_file()
        assert (out / "summary.json").is_file()
        assert not (out / "shapes.json").exists()

    def test_summary_contents(self, tmp_path, s_curve_csv):
        out = tmp_path / "run"
        assert run("fit", str(s_curve_csv), "--directions", "8",
                   "--bandwidth", "inf", "--kernel", "gaussian",
                   "--out", str(out)) == 0
        summary = json.loads((out / "summary.json").read_text())
        assert summary["command"] == "fit"
        assert summary["input"] == "s_curve.csv"
        assert summary["n_points"] == 60
        assert summary["start_kind"] == "mean"
        assert len(summary["start"]) == 4
        cfg = summary["config"]
        assert cfg["epsilon"] == 0.02 and cfg["delta"] == 0.2
        assert cfg["num_directions"] == 8 and cfg["dim"] == 2
        assert cfg["kernel"] == {"kind": "gaussian", "bandwidth": "inf"}
        assert sorted(summary["stop_reasons"]) == [str(i) for i in range(1, 9)]
        assert summary["variation_score"]["total"] >= 0
        assert len(summary["variation_score"]["per_net"]) == 8
        assert summary["variation_score"]["skipped"] == 0

    def test_submanifold_rows_match_summary(self, tmp_path, s_curve_csv):
        out = tmp_path / "run"
        assert run("fit", str(s_curve_csv), "--directions", "8",
                   "--out", str(out)) == 0
        header, rows = read_csv_rows(out / "submanifold.csv")
        assert header[:2] == ["net_index", "level"]
        mat = np.array([[float(v) for v in r[2:]] for r in rows])
        np.testing.assert_allclose(np.linalg.norm(mat, axis=1), 1.0,
                                   rtol=0.0, atol=1e-12)
        indices = {int(r[0]) for r in rows}
        assert indices == set(range(1, 9))

    def test_flow_fit(self, tmp_path, s_curve_csv):
        out = tmp_path / "run"
        assert run("fit", str(s_curve_csv), "--k", "1", "--out", str(out)) == 0
        summary = json.loads((out / "summary.json").read_text())
        assert summary["config"]["dim"] == 1
        assert sorted(summary["stop_reasons"]) == ["1", "2"]
        assert "flow" in summary["note"]

    @pytest.mark.parametrize("family, seed, flags", [
        ("sea_wave", 6, []),
        ("s_curve", 7, ["--bandwidth", "0.15"]),
    ])
    def test_variation_score_skips_unsupported_points(self, tmp_path, family, seed,
                                                      flags):
        # Some terminal points of these fits have too few data points in their
        # uniform ball for a demeaned rank-2 covariance; the finished fit is
        # still written, and the score counts those points as skipped.
        data = tmp_path / "data"
        assert run("generate", "--family", family, "--n", "200", "--seed", str(seed),
                   "--quiet", "--out", str(data)) == 0
        out = tmp_path / "run"
        assert run("fit", str(data / f"{family}.csv"), *flags,
                   "--quiet", "--out", str(out)) == 0
        summary = json.loads((out / "summary.json").read_text())
        assert summary["variation_score"]["skipped"] >= 1

    def test_custom_start(self, tmp_path, s_curve_csv):
        points, _ = read_dataset_csv(s_curve_csv)
        coords = ",".join(repr(float(v)) for v in points[10].coords)
        out = tmp_path / "run"
        # the = form keeps argparse from reading a leading minus as a flag
        assert run("fit", str(s_curve_csv), "--directions", "8",
                   "--start", "custom", f"--coords={coords}",
                   "--out", str(out)) == 0
        summary = json.loads((out / "summary.json").read_text())
        assert summary["start_kind"] == "custom"
        np.testing.assert_allclose(summary["start"], points[10].coords,
                                   rtol=0.0, atol=1e-12)

    def test_custom_start_needs_coords(self, tmp_path, s_curve_csv):
        assert run("fit", str(s_curve_csv), "--start", "custom",
                   "--out", str(tmp_path / "x")) == 2

    def test_custom_start_must_be_unit(self, tmp_path, s_curve_csv):
        assert run("fit", str(s_curve_csv), "--start", "custom",
                   "--coords", "2,0,0,0", "--out", str(tmp_path / "x")) == 2

    @pytest.mark.parametrize("dataset, coords", [
        ("s_curve_csv", "nan,0,0,1"), ("s_curve_csv", "inf,0,0,1"),
        ("flat2_csv", "nan,0"), ("flat2_csv", "0,-inf"),
    ])
    def test_non_finite_coords_are_usage_error(self, tmp_path, request, capsys,
                                               dataset, coords):
        out = tmp_path / "x"
        assert run("fit", str(request.getfixturevalue(dataset)), "--start", "custom",
                   f"--coords={coords}", "--out", str(out)) == 2
        assert f"usage error: --coords must be finite, got {coords!r}" in capsys.readouterr().err
        assert not out.exists() or list(out.iterdir()) == []

    def test_custom_start_of_wrong_width_is_usage_error(self, tmp_path, s_curve_csv, capsys):
        out = tmp_path / "x"
        assert run("fit", str(s_curve_csv), "--start", "custom",
                   "--coords", "1,0", "--out", str(out)) == 2
        assert ("usage error: --coords has 2 components but the data has 4"
                in capsys.readouterr().err)
        assert not out.exists() or list(out.iterdir()) == []

    def test_cap_below_one_step_stops_every_net_at_its_seed(self, tmp_path, s_curve_csv,
                                                            capsys):
        assert run("fit", str(s_curve_csv), "--directions", "8", "--max-length", "0.002",
                   "--out", str(tmp_path / "run")) == 0
        lines = [ln for ln in capsys.readouterr().out.splitlines() if ln.startswith("net ")]
        assert len(lines) == 8
        assert all("length_exceeded after 1 levels" in ln for ln in lines)

    def test_length_rule_alone_ends_long_nets(self, tmp_path, great_circle_csv):
        # 200 steps of 0.02 reach the cap of 4; the candidate that passes it
        # is the level-201 point, and no other bound on growth applies.
        out = tmp_path / "run"
        assert run("fit", str(great_circle_csv), *_GREAT_CIRCLE_FLOW,
                   "--quiet", "--out", str(out)) == 0
        summary = json.loads((out / "summary.json").read_text())
        assert summary["stop_reasons"] == {"1": "length_exceeded", "2": "length_exceeded"}
        _, rows = read_csv_rows(out / "submanifold.csv")
        for net in ("1", "2"):
            assert max(int(r[1]) for r in rows if r[0] == net) == 201

    def test_bad_epsilon_delta_pair(self, tmp_path, s_curve_csv):
        assert run("fit", str(s_curve_csv), "--epsilon", "0.3",
                   "--delta", "0.2", "--out", str(tmp_path / "x")) == 2

    @pytest.mark.parametrize("how, value", [("flag", "inf"), ("flag", "1e308"),
                                            ("config", "inf")])
    def test_unbounded_max_length_is_usage_error(self, tmp_path, s_curve_csv, capsys,
                                                 how, value):
        if how == "flag":
            argv = ["--max-length", value]
        else:
            cfg = tmp_path / "run.conf"
            cfg.write_text(f"max_length = {value}\n", encoding="utf-8")
            argv = ["--config", str(cfg)]
        out = tmp_path / "x"
        assert run("fit", str(s_curve_csv), *argv, "--out", str(out)) == 2
        assert "usage error: max_net_length / epsilon" in capsys.readouterr().err
        assert not out.exists() or list(out.iterdir()) == []

    def test_negative_bandwidth_is_usage_error(self, tmp_path, s_curve_csv, capsys):
        assert run("fit", str(s_curve_csv), "--bandwidth", "-1",
                   "--out", str(tmp_path / "x")) == 2
        assert "usage error: bandwidth must be positive" in capsys.readouterr().err

    def test_unparsable_bandwidth(self, tmp_path, s_curve_csv, capsys):
        assert run("fit", str(s_curve_csv), "--bandwidth", "wide",
                   "--out", str(tmp_path / "x")) == 2
        assert "invalid float value: 'wide'" in capsys.readouterr().err

    def test_missing_input_file(self, tmp_path):
        assert run("fit", str(tmp_path / "ghost.csv"),
                   "--out", str(tmp_path)) == 2

    def test_shape_grid_written_for_preshape_input(self, tmp_path, preshapes_csv):
        out = tmp_path / "run"
        assert run("fit", str(preshapes_csv), "--directions", "8",
                   "--grid-samples", "5", "--out", str(out)) == 0
        payload = json.loads((out / "shapes.json").read_text())
        assert payload["k"] == DIGIT3_BASE.shape[0]
        assert payload["samples_per_direction"] == 5
        assert payload["start_kind"] == "mean"
        grid = payload["grid"]
        assert len(grid) == 5
        assert grid[2][2] is not None

    @pytest.mark.parametrize("command", ["fit", "compare-geodesic"])
    def test_k3_exports_no_principal_directions(self, tmp_path, preshapes_csv, command):
        # A fan on S^2 has no opposite nets to join into principal directions.
        out = tmp_path / "run"
        assert run(command, str(preshapes_csv), "--k", "3", "--directions", "8",
                   "--grid-samples", "5", "--quiet", "--out", str(out)) == 0
        header, rows = read_csv_rows(out / "projected.csv")
        assert {r[0] for r in rows} == {"net", "data"}
        grid = json.loads((out / "shapes.json").read_text())["grid"]
        filled = {(r, c) for r in range(5) for c in range(5) if grid[r][c] is not None}
        assert filled == {(2, 2)}
        summary = json.loads((out / "summary.json").read_text())
        assert "no opposite nets" in summary["note"]
        assert summary.get("geodesic_levels", {}) == {}

    def test_even_grid_samples_is_usage_error(self, tmp_path, preshapes_csv):
        out = tmp_path / "run"
        code = run("fit", str(preshapes_csv), "--directions", "8",
                   "--grid-samples", "4", "--out", str(out))
        assert code == 2
        assert not out.exists() or not any(out.iterdir())

    def test_rerun_is_byte_identical(self, tmp_path, s_curve_csv):
        a, b = tmp_path / "a", tmp_path / "b"
        for out in (a, b):
            assert run("fit", str(s_curve_csv), "--directions", "8",
                       "--quiet", "--out", str(out)) == 0
        for name in ("submanifold.csv", "projected.csv", "summary.json"):
            assert (a / name).read_bytes() == (b / name).read_bytes()

    def test_flat_chart_dataset(self, tmp_path):
        # 3 flat columns: a 3-d tangent space, so all three projection columns are used
        rng = np.random.default_rng(120)
        xs = np.stack([rng.uniform(-1, 1, 50),
                       0.02 * rng.standard_normal(50),
                       0.01 * rng.standard_normal(50)], axis=1)
        data_dir = tmp_path / "data"
        data_dir.mkdir()
        lines = ["point_index,c0,c1,c2"]
        lines += [f"{i}," + ",".join(repr(float(v)) for v in row)
                  for i, row in enumerate(xs)]
        (data_dir / "cloud.csv").write_text("\n".join(lines) + "\n")
        (data_dir / "cloud.meta.json").write_text(
            json.dumps({"chart": "flat"}) + "\n")
        out = tmp_path / "run"
        code = run("fit", str(data_dir / "cloud.csv"), "--k", "1",
                   "--bandwidth", "inf", "--out", str(out))
        assert code == 0
        summary = json.loads((out / "summary.json").read_text())
        assert len(summary["start"]) == 3

    @pytest.mark.parametrize("command", ["fit", "compare-geodesic"])
    @pytest.mark.parametrize("dataset", ["s2_csv", "flat2_csv"])
    def test_two_dimensional_tangent_space_projects_p3_zero(self, tmp_path, request,
                                                             command, dataset):
        # S^2 and a 2-column flat chart have 2-d tangent spaces: the projection
        # takes 2 eigenvectors and writes an all-zero p3 column
        out = tmp_path / "run"
        assert run(command, str(request.getfixturevalue(dataset)), "--directions", "8",
                   "--quiet", "--out", str(out)) == 0
        header, rows = read_csv_rows(out / "projected.csv")
        assert header == ["kind", "net_index", "level", "p1", "p2", "p3"]
        p = np.array([[float(v) for v in r[3:]] for r in rows])
        assert {r[0] for r in rows} >= {"net", "data", "pd1", "pd2"}
        assert np.all(p[:, 2] == 0.0) and np.any(p[:, 1] != 0.0)
        assert not any(r[5].startswith("-") for r in rows)

    @pytest.mark.parametrize("dataset, k, dim, width", [
        ("s2_csv", 3, 2, 3), ("flat2_csv", 3, 2, 2), ("s_curve_csv", 4, 3, 4)])
    def test_k_above_tangent_dimension_is_usage_error(self, tmp_path, request, capsys,
                                                      dataset, k, dim, width):
        out = tmp_path / "run"
        code = run("fit", str(request.getfixturevalue(dataset)), "--k", str(k),
                   "--out", str(out))
        assert code == 2
        err = capsys.readouterr().err
        assert f"--k {k} exceeds the data's tangent dimension {dim}" in err
        assert f"{width} coordinate columns" in err
        assert not out.exists() or not any(out.iterdir())

    def test_rank_deficient_data_fails_cleanly(self, tmp_path):
        data_dir = tmp_path / "data"
        data_dir.mkdir()
        lines = ["point_index,c0,c1"]
        lines += [f"{i},{float(i) / 10!r},0.0" for i in range(20)]
        (data_dir / "line.csv").write_text("\n".join(lines) + "\n")
        (data_dir / "line.meta.json").write_text(json.dumps({"chart": "flat"}))
        out = tmp_path / "run"
        code = run("fit", str(data_dir / "line.csv"), "--k", "2",
                   "--bandwidth", "inf", "--out", str(out))
        assert code == 1
        assert not (out / "summary.json").exists()


class TestCompareGeodesic:
    def test_geodesic_rows_added(self, tmp_path, s_curve_csv):
        out = tmp_path / "run"
        code = run("compare-geodesic", str(s_curve_csv), "--directions", "8",
                   "--out", str(out))
        assert code == 0
        header, rows = read_csv_rows(out / "projected.csv")
        kinds = {r[0] for r in rows}
        assert "geodesic" in kinds
        geo_indices = {r[1] for r in rows if r[0] == "geodesic"}
        assert geo_indices == {"1", "2"}
        summary = json.loads((out / "summary.json").read_text())
        assert summary["command"] == "compare-geodesic"
        assert set(summary["geodesic_levels"]) == {"1", "2"}

    def test_geodesic_levels_match_polylines(self, tmp_path, s_curve_csv):
        out = tmp_path / "run"
        assert run("compare-geodesic", str(s_curve_csv), "--directions", "8",
                   "--out", str(out)) == 0
        header, rows = read_csv_rows(out / "projected.csv")
        summary = json.loads((out / "summary.json").read_text())
        for key in ("1", "2"):
            count = sum(1 for r in rows if r[0] == "geodesic" and r[1] == key)
            assert count == summary["geodesic_levels"][key]

    def test_geodesic_past_the_antipode_is_kept(self, tmp_path, great_circle_csv):
        # Each arc-matched geodesic spans 402 steps of 0.02 around a great
        # circle, past the start's antipode; the finished fit is still written.
        out = tmp_path / "run"
        assert run("compare-geodesic", str(great_circle_csv), *_GREAT_CIRCLE_FLOW,
                   "--quiet", "--out", str(out)) == 0
        summary = json.loads((out / "summary.json").read_text())
        assert summary["geodesic_levels"] == {"1": 403}
        _, rows = read_csv_rows(out / "projected.csv")
        geo = np.array([[float(v) for v in r[3:]] for r in rows if r[0] == "geodesic"])
        assert geo.shape == (403, 3)
        # level i sits at arc t = (i - 201) * 0.02 from the start along e1, a
        # top eigenvector there, so it projects to length |sin t| at every
        # level, on both sides of the antipode (t = +/- pi)
        arcs = (np.arange(403) - 201) * 0.02
        np.testing.assert_allclose(np.linalg.norm(geo, axis=1), np.abs(np.sin(arcs)),
                                   rtol=0.0, atol=1e-12)


class TestConfigFile:
    def test_file_sets_values(self, tmp_path):
        cfg = tmp_path / "run.conf"
        cfg.write_text("family = sea_wave\nn = 25\nseed = 4\n", encoding="utf-8")
        out = tmp_path / "out"
        assert run("generate", "--config", str(cfg), "--out", str(out)) == 0
        meta = json.loads((out / "sea_wave.meta.json").read_text())
        assert meta["n"] == 25 and meta["seed"] == 4

    def test_flags_override_file(self, tmp_path):
        cfg = tmp_path / "run.conf"
        cfg.write_text("family = sea_wave\nn = 25\n", encoding="utf-8")
        out = tmp_path / "out"
        assert run("generate", "--config", str(cfg), "--n", "40",
                   "--out", str(out)) == 0
        meta = json.loads((out / "sea_wave.meta.json").read_text())
        assert meta["n"] == 40

    def test_comments_and_dashes(self, tmp_path):
        cfg = tmp_path / "run.conf"
        cfg.write_text("# my run\nfamily = sea_wave  # family\n"
                       "noise-level = 0.1\n\nn = 30\n", encoding="utf-8")
        out = tmp_path / "out"
        assert run("generate", "--config", str(cfg), "--out", str(out)) == 0
        meta = json.loads((out / "sea_wave.meta.json").read_text())
        assert meta["params"]["noise_level"] == 0.1

    def test_unknown_key_rejected(self, tmp_path, capsys):
        cfg = tmp_path / "run.conf"
        cfg.write_text("family = sea_wave\nbogus = 1\n", encoding="utf-8")
        assert run("generate", "--config", str(cfg),
                   "--out", str(tmp_path / "out")) == 2
        assert "bogus" in capsys.readouterr().err

    def test_other_commands_keys_skipped(self, tmp_path):
        # a shared config may carry fit keys; generate ignores them
        cfg = tmp_path / "run.conf"
        cfg.write_text("family = sea_wave\nn = 20\nepsilon = 0.05\n",
                       encoding="utf-8")
        assert run("generate", "--config", str(cfg),
                   "--out", str(tmp_path / "out")) == 0

    def test_missing_config_file(self, tmp_path):
        assert run("generate", "--config", str(tmp_path / "none.conf"),
                   "--family", "s_curve", "--out", str(tmp_path)) == 2

    def test_malformed_line(self, tmp_path):
        cfg = tmp_path / "run.conf"
        cfg.write_text("family sea_wave\n", encoding="utf-8")
        assert run("generate", "--config", str(cfg),
                   "--out", str(tmp_path / "out")) == 2

    def test_bad_value_type(self, tmp_path, capsys):
        cfg = tmp_path / "run.conf"
        cfg.write_text("family = sea_wave\nn = lots\n", encoding="utf-8")
        assert run("generate", "--config", str(cfg),
                   "--out", str(tmp_path / "out")) == 2
        assert "n" in capsys.readouterr().err


class TestTopLevel:
    def test_help_exits_zero(self, capsys):
        assert run("--help") == 0
        assert "psm" in capsys.readouterr().out

    def test_no_command_is_usage_error(self):
        assert run() == 2

    def test_unknown_command(self):
        assert run("transmogrify") == 2


# Every setting each command takes, with a sample text that differs from
# its default; `quiet` has no text (flag `--quiet`, config `quiet = yes`).
_COMMON_SAMPLES = {"seed": "3", "out": "elsewhere", "quiet": None}
_FIT_SAMPLES = {
    **_COMMON_SAMPLES, "epsilon": "0.03", "delta": "0.25", "bandwidth": "0.3",
    "kernel": "gaussian", "directions": "12", "max_length": "0.8", "k": "1",
    "start": "custom", "coords": "0,0,1", "grid_samples": "7",
}
SETTING_SAMPLES = {
    "generate": {
        **_COMMON_SAMPLES, "family": "ellipsoid", "n": "50", "noise_level": "0.1",
        "noise_scale_u": "0.5", "a": "3", "b": "2", "c": "0.5", "mode": "surface",
        "shift": "1.5",
    },
    "shapes": dict(_COMMON_SAMPLES),
    "fit": _FIT_SAMPLES,
    "compare-geodesic": dict(_FIT_SAMPLES),
}
_ALL_SAMPLES = {k: v for samples in SETTING_SAMPLES.values() for k, v in samples.items()}


def _flag_argv(key, text):
    flag = "--" + key.replace("_", "-")
    return [flag] if text is None else [flag, text]


def _merged_from_flags(command, argv):
    positional = [] if command == "generate" else ["input.csv"]
    flag_values = vars(_build_parser().parse_args([command, *positional, *argv])).copy()
    for key in ("command", "input", "config"):
        flag_values.pop(key, None)
    return _merge_settings(command, flag_values, {})


def _merged_from_file(command, key, text):
    return _merge_settings(command, {}, {key: "yes" if text is None else text})


@pytest.mark.parametrize("command", sorted(SETTING_SAMPLES))
def test_flags_and_config_files_agree_on_every_setting(command, capsys):
    samples = SETTING_SAMPLES[command]
    baseline = _merged_from_flags(command, [])
    for key, text in samples.items():
        by_flag = _merged_from_flags(command, _flag_argv(key, text))
        assert by_flag == _merged_from_file(command, key, text), key
        assert by_flag != baseline, key
    for key, text in _ALL_SAMPLES.items():
        if key not in samples:  # another command's setting: skipped in a file
            assert _merged_from_file(command, key, text) == baseline, key
    with pytest.raises(SystemExit):
        _build_parser().parse_args([command, "--help"])
    flags = set(re.findall(r"--[a-z-]+", capsys.readouterr().out))
    assert flags == {"--help", "--config"} | {_flag_argv(k, None)[0] for k in samples}


def test_bench_runner_names_exist():
    """Every psm.cli name the bench runner traces, and every name it imports
    from psm, still exists; read from bench/run.py without importing it."""
    tree = ast.parse((Path(__file__).parents[1] / "bench" / "run.py").read_text())
    traced = next(node.value for node in ast.walk(tree) if isinstance(node, ast.Assign)
                  and any(getattr(t, "id", None) == "TRACED_CALLS" for t in node.targets))
    names = list(ast.literal_eval(traced))
    imported = [alias.name for node in ast.walk(tree)
                if isinstance(node, ast.ImportFrom) and node.module == "psm"
                for alias in node.names]
    assert names and imported
    assert [n for n in names if not hasattr(cli, n)] == []
    assert [n for n in imported if not hasattr(psm, n)] == []
