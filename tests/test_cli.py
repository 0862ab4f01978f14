"""End-to-end runs of the psm command line through main(argv)."""

import ast
import json
import math
import os
import re
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import psm
from psm import cli
from psm.cli import _build_parser, _merge_settings, main
from psm.geometry import PointArray
from psm.datagen import RECIPES, meta_path_for, read_dataset_csv, write_dataset_csv

from helpers import DIGIT3_BASE, digit3_configs, mirror_set, read_csv_rows, similarity_transform


def write_digit_landmarks(path, n=12, seed=5, scale=1.0):
    lines = ["specimen_id,landmark_index,x,y"]
    for block, sid in zip(*digit3_configs(n=n, seed=seed)):
        for i, (x, y) in enumerate(block * scale, start=1):
            lines.append(f"{sid},{i},{float(x)!r},{float(y)!r}")
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
        assert code == 2
        assert capsys.readouterr().err.startswith(
            "usage error: shift 0.001 leaves a negative radicand")
        assert not (tmp_path / "s_curve.csv").exists()

    def test_negative_seed_is_usage_error(self, tmp_path, capsys):
        assert run("generate", "--family", "s_curve", "--seed", "-1",
                   "--out", str(tmp_path)) == 2
        assert capsys.readouterr().err == \
            "usage error: seed must be a non-negative integer, got -1\n"
        assert list(tmp_path.iterdir()) == []

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
        for key in [*defaults, "shift"] if key != "mode"
    ])
    @pytest.mark.parametrize("bad", ["inf", "-inf", "nan"])
    def test_non_finite_parameter_is_usage_error(self, tmp_path, monkeypatch, capsys,
                                                 family, key, bad):
        # generate rejects the value before any triplet is drawn: a solid
        # ellipsoid with an infinite or NaN semi-axis would never accept a draw
        def never(*args, **kwargs):
            raise AssertionError("a triplet maker ran")

        monkeypatch.setitem(RECIPES, family, (never, RECIPES[family][1]))
        flag = "--" + key.replace("_", "-")
        assert run("generate", "--family", family, f"{flag}={bad}",
                   "--out", str(tmp_path)) == 2
        assert capsys.readouterr().err == f"usage error: {key} must be finite\n"
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("family, key, value", [
        ("ellipsoid", "a", 1e200),
        ("sea_wave", "noise_level", 1e200),
        ("sea_wave", "noise_level", 1e308),  # the noise itself overflows
        ("s_curve", "noise_scale_u", 1e300),
    ])
    def test_overflowing_parameter_is_usage_error(self, tmp_path, capsys, family, key, value):
        # finite, but the squared triplet norms overflow; the error names the
        # parameter, and no numpy warning (an error under pytest) comes first
        flag = "--" + key.replace("_", "-")
        assert run("generate", "--family", family, "--n", "20", flag, repr(value),
                   "--out", str(tmp_path)) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"usage error: {family} parameters ")
        assert f"{key}={value!r}" in err and "squared triplet norms overflow" in err
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


def check_outputs(out: Path) -> None:
    """Every file a run wrote to out reads back as psm's one CSV and one JSON
    writer promise: a dataset CSV (one with a .meta.json sidecar) through
    read_dataset_csv with one row per point, every other CSV with its
    header's width on each line that is not a comment, and JSON that parses."""
    for path in sorted(out.iterdir()):
        text = path.read_text(encoding="utf-8")
        if path.suffix == ".json":
            json.loads(text)
        elif meta_path_for(path).is_file():
            points, meta = read_dataset_csv(path)
            assert len(points) == meta["n"], f"{path}: {meta['n']} points in {len(points)} rows"
        else:
            header, *rows = text.splitlines() or [""]
            assert header, f"{path}: no header"
            for line_no, row in enumerate(rows, start=2):
                if row.strip() and not row.startswith("#"):
                    assert row.count(",") == header.count(","), f"{path}: line {line_no} is ragged"


def _command_runs(tmp_path) -> dict:
    """out directory name -> (argv, the file names it writes) of one run each
    of generate, shapes, fit on the preshapes (with the shape grid) and
    compare-geodesic, in an order in which each run's input exists."""
    lm = write_digit_landmarks(tmp_path / "digits.csv")
    return {
        "gen": (["generate", "--family", "sea_wave", "--n", "40"],
                ["sea_wave.csv", "sea_wave.meta.json"]),
        "pre": (["shapes", str(lm)], ["preshapes.csv", "preshapes.meta.json"]),
        "fit": (["fit", str(tmp_path / "pre" / "preshapes.csv"), "--directions", "8"],
                ["projected.csv", "shapes.json", "submanifold.csv", "summary.json"]),
        "geo": (["compare-geodesic", str(tmp_path / "gen" / "sea_wave.csv"),
                 "--directions", "8", "--bandwidth", "inf"],
                ["projected.csv", "submanifold.csv", "summary.json"]),
    }


def test_every_output_reads_back(tmp_path, monkeypatch):
    # the CLI opens none of its outputs to read; they are checked here instead
    reads = []
    real_open = open

    def spy(file, mode="r", *args, **kwargs):
        if "r" in mode:
            reads.append(Path(file).parent)
        return real_open(file, mode, *args, **kwargs)

    for out, (argv, names) in _command_runs(tmp_path).items():
        reads.clear()
        with monkeypatch.context() as m:
            m.setattr("builtins.open", spy)
            assert run(*argv, "--quiet", "--out", str(tmp_path / out)) == 0
        # the spy sees the inputs: the fit reads the preshapes and their sidecar
        assert (tmp_path / "pre" in reads) == (out == "fit")
        assert tmp_path / out not in reads
        assert sorted(p.name for p in (tmp_path / out).iterdir()) == names
        check_outputs(tmp_path / out)


def _drop_last_row(path):
    lines = path.read_text(encoding="utf-8").splitlines(keepends=True)
    path.write_text("".join(lines[:-1]), encoding="utf-8")


def _spoil_with(edit):
    return lambda path: path.write_text(edit(path.read_text(encoding="utf-8")), encoding="utf-8")


@pytest.mark.parametrize("writer, spoil, error, message", [
    ("write_dataset_csv", _drop_last_row, AssertionError, "20 points in 19 rows"),
    ("write_dataset_csv", _spoil_with(lambda text: text + "20,1.0\n"), ValueError,
     "sea_wave.csv: line 22: expected 5 columns"),
    ("write_dataset_csv", _spoil_with(lambda text: text + "20,1,0,0,0,0\n"), ValueError,
     "sea_wave.csv: line 22: expected 5 columns"),
    ("write_dataset_csv", _spoil_with(lambda text: "\n" + text), ValueError,
     "sea_wave.csv: expected a point_index,c0,... header"),
    ("write_projected_csv", _spoil_with(lambda text: text.replace("\n", "\ndata,0,0,1\n", 1)),
     AssertionError, "projected.csv: line 2 is ragged"),
    ("write_submanifold_csv", _spoil_with(lambda text: "\n" + text), AssertionError,
     "submanifold.csv: no header"),
    ("_write_json", _spoil_with(lambda text: text[:-3]), ValueError, "Expecting"),
])
def test_output_check_rejects_a_faulty_writer(tmp_path, monkeypatch, s_curve_csv, writer, spoil,
                                               error, message):
    # a writer that drops a row, adds a ragged one, loses the header or cuts
    # its JSON short: the run still exits 0, and check_outputs rejects the file
    import psm.cli

    write = getattr(psm.cli, writer)

    def faulty(*args, **kwargs):
        write(*args, **kwargs)
        spoil(next(Path(a) for a in args if isinstance(a, (str, Path))))

    monkeypatch.setattr(psm.cli, writer, faulty)
    argv = ["generate", "--family", "sea_wave", "--n", "20"] if writer == "write_dataset_csv" \
        else ["fit", str(s_curve_csv), "--directions", "8"]
    out = tmp_path / "out"
    assert run(*argv, "--quiet", "--out", str(out)) == 0
    with pytest.raises(error, match=re.escape(message)):
        check_outputs(out)


def test_well_formed_inputs_never_reach_the_row_loops(tmp_path, monkeypatch):
    # numpy's reader takes the files psm writes and the landmark layout of
    # the benchmark; the row loops only word errors
    import psm.datagen
    import psm.shape

    def row_loop(*args):
        raise AssertionError("a well-formed file reached a row loop")

    monkeypatch.setattr(psm.datagen, "_read_coordinate_rows", row_loop)
    monkeypatch.setattr(psm.shape, "_read_landmarks_csv", row_loop)
    assert run("generate", "--family", "s_curve", "--n", "500", "--seed", "3", "--quiet",
               "--out", str(tmp_path)) == 0
    points, meta = read_dataset_csv(tmp_path / "s_curve.csv")
    assert len(points) == 500 and meta["family"] == "s_curve"
    # ids spec0000, ..., landmarks numbered from 0, coordinates written with repr
    landmarks, _ = digit3_configs(n=40, seed=9)
    lines = ["specimen_id,landmark_index,x,y"]
    for s, block in enumerate(landmarks):
        lines += [f"spec{s:04d},{i},{float(x)!r},{float(y)!r}"
                  for i, (x, y) in enumerate(block)]
    path = tmp_path / "digits.csv"
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    read, ids = psm.shape.read_landmarks(path)
    assert ids == [f"spec{s:04d}" for s in range(40)]
    assert read.flags.c_contiguous and read.tobytes() == landmarks.tobytes()
    assert run("shapes", str(path), "--quiet", "--out", str(tmp_path / "pre")) == 0
    assert len(read_dataset_csv(tmp_path / "pre" / "preshapes.csv")[0]) == 40


@pytest.mark.parametrize("writer, command", [
    ("write_dataset_csv", "generate"),
    ("write_dataset_csv", "shapes"),
    ("write_submanifold_csv", "fit"),
    ("write_projected_csv", "fit"),
    ("write_shapes_json", "fit"),
])
def test_writer_failing_part_way_leaves_no_file(tmp_path, monkeypatch, capsys, writer, command):
    # the writer has opened its path and written a row when it fails; the
    # path was registered before, so the partial file is removed with the rest
    import psm.cli

    lm = write_digit_landmarks(tmp_path / "digits.csv")
    pre = tmp_path / "pre"
    assert run("shapes", str(lm), "--quiet", "--out", str(pre)) == 0
    argv = {"generate": ["generate", "--family", "sea_wave", "--n", "20"],
            "shapes": ["shapes", str(lm)],
            "fit": ["fit", str(pre / "preshapes.csv"), "--directions", "8"]}[command]

    def failing(*args):
        path = next(a for a in args if isinstance(a, Path))
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("a,b\n1,2\n")
            raise OSError("disk full")

    monkeypatch.setattr(psm.cli, writer, failing)
    out = tmp_path / "out"
    assert run(*argv, "--quiet", "--out", str(out)) == 1
    assert capsys.readouterr().err == "error: disk full\n"
    assert list(out.iterdir()) == []


def test_every_output_goes_through_the_one_csv_and_json_writer(tmp_path, monkeypatch):
    # each file a command writes goes through datagen's _write_csv or
    # _write_json, wherever the name is bound, and is registered for clean-up:
    # a failure after the last write hands _remove_outputs every output
    import psm.datagen
    import psm.viz

    through = []
    for name in ("_write_csv", "_write_json"):
        writer = getattr(psm.datagen, name)

        def recording(path, *args, writer=writer, **kwargs):
            through.append(Path(path))
            return writer(path, *args, **kwargs)

        for module in (psm.datagen, psm.viz, psm.cli):
            if getattr(module, name, None) is writer:
                monkeypatch.setattr(module, name, recording)
    registered = []
    remove = psm.cli._remove_outputs
    monkeypatch.setattr(psm.cli, "_remove_outputs",
                        lambda written: registered.extend(written) or remove(written))

    def late(merged, text):
        raise OSError("failed after the last write")

    for out, (argv, names) in _command_runs(tmp_path).items():
        through.clear()
        assert run(*argv, "--quiet", "--out", str(tmp_path / out)) == 0
        assert sorted(through) == sorted(tmp_path / out / n for n in names)
        assert sorted(p.name for p in (tmp_path / out).iterdir()) == names
        # every command's last step is to report the files it wrote
        registered.clear()
        with monkeypatch.context() as m:
            m.setattr(psm.cli, "_say", late)
            assert run(*argv, "--quiet", "--out", str(tmp_path / "late")) == 1
        assert sorted(registered) == sorted(tmp_path / "late" / n for n in names)
        assert list((tmp_path / "late").iterdir()) == []


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

    def test_landmarks_not_utf8_name_the_file(self, tmp_path, capsys):
        lm = write_digit_landmarks(tmp_path / "lm.csv")
        data = lm.read_bytes()
        lm.write_bytes(data[:40] + b"\xff" + data[41:])
        out = tmp_path / "out"
        assert run("shapes", str(lm), "--out", str(out)) == 1
        assert capsys.readouterr().err == f"error: {lm}: not UTF-8 text\n"
        assert not out.exists()

    @pytest.mark.parametrize("scale", [1e-200, 1e200])
    def test_any_scale_aligns_without_warning(self, tmp_path, capsys, scale):
        # a preshape does not depend on scale: sizing the landmarks neither
        # overflows nor underflows, and no configuration collapses
        ref, out = tmp_path / "ref", tmp_path / "out"
        assert run("shapes", str(write_digit_landmarks(tmp_path / "a.csv")),
                   "--quiet", "--out", str(ref)) == 0
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = run("shapes", str(write_digit_landmarks(tmp_path / "b.csv", scale=scale)),
                       "--quiet", "--out", str(out))
        assert code == 0
        assert capsys.readouterr().err == ""
        got, _ = read_dataset_csv(out / "preshapes.csv")
        want, _ = read_dataset_csv(ref / "preshapes.csv")
        np.testing.assert_allclose(got.coords, want.coords, rtol=0.0, atol=1e-12)

    def test_slowly_converging_alignment_succeeds(self, tmp_path):
        # a shape, its mirror image and a jittered copy: 377 Procrustes rounds
        lines = ["specimen_id,landmark_index,x,y"] + [
            f"s{s},{i},{float(x)!r},{float(y)!r}"
            for s, block in enumerate(mirror_set(1029)) for i, (x, y) in enumerate(block, 1)]
        lm = tmp_path / "mirror.csv"
        lm.write_text("\n".join(lines) + "\n", encoding="utf-8")
        assert run("shapes", str(lm), "--quiet", "--out", str(tmp_path / "out")) == 0
        points, meta = read_dataset_csv(tmp_path / "out" / "preshapes.csv")
        assert len(points) == 3 and meta["specimen_ids"] == ["s0", "s1", "s2"]

    def test_far_shifted_landmarks_fit(self, tmp_path):
        # digit-3 outlines 1e10 from the origin: one centring pass leaves
        # centroid offsets up to 1e-5 in the preshapes, which fit refuses
        rng = np.random.default_rng(7)
        lines = ["specimen_id,landmark_index,x,y"]
        for s in range(40):
            block = DIGIT3_BASE + rng.normal(0.0, 0.03, (13, 2)) + 1e10
            lines += [f"s{s},{i},{float(x)!r},{float(y)!r}" for i, (x, y) in enumerate(block, 1)]
        lm = tmp_path / "far.csv"
        lm.write_text("\n".join(lines) + "\n", encoding="utf-8")
        pre = tmp_path / "pre"
        assert run("shapes", str(lm), "--quiet", "--out", str(pre)) == 0
        points, _ = read_dataset_csv(pre / "preshapes.csv")
        rows = points.coords
        offsets = np.maximum(np.abs(rows[:, 0::2].sum(axis=1)), np.abs(rows[:, 1::2].sum(axis=1)))
        assert offsets.max() <= 1e-14
        fit = tmp_path / "fit"
        assert run("fit", str(pre / "preshapes.csv"), "--bandwidth", "inf", "--directions", "16",
                   "--quiet", "--out", str(fit)) == 0
        assert (fit / "shapes.json").is_file()

    def test_missing_input(self, tmp_path):
        assert run("shapes", str(tmp_path / "nope.csv"),
                   "--out", str(tmp_path)) == 2

    def test_non_finite_block_coordinate_fails(self, tmp_path, capsys):
        lm = tmp_path / "blocks.txt"
        lm.write_text("0 0\n1 0\n0 1\n\n0 0\n1 nan\n0 1\n", encoding="utf-8")
        out = tmp_path / "out"
        assert run("shapes", str(lm), "--quiet", "--out", str(out)) == 1
        assert capsys.readouterr().err == "error: landmark coordinates must be finite\n"
        assert not out.exists()


def _sphere_log(x, ys):
    """log_x(y) of each row of ys on the unit sphere, in plain numpy."""
    c = np.clip(ys @ x, -1.0, 1.0)
    u = ys - c[:, None] * x
    nu = np.linalg.norm(u, axis=1)
    return (np.arctan2(nu, c) / nu)[:, None] * u


def test_paper_shape_example_grows_along_its_deformation_modes(tmp_path):
    # The paper's shape example: digit-3 outlines deformed along two fixed,
    # centred, orthogonal modes (standard deviations 0.3 and 0.15, jitter
    # 0.005), each then rotated, scaled and shifted.  Its nets grow well past
    # the 9-cell grid, and the grid's PD1 row and PD2 column end along the
    # first and second tangent principal components at the start.
    rng = np.random.default_rng(2016)
    raw = rng.standard_normal((2,) + DIGIT3_BASE.shape)
    raw -= raw.mean(axis=1, keepdims=True)
    modes = np.linalg.qr(raw.reshape(2, -1).T)[0].T.reshape(raw.shape)
    lines = ["specimen_id,landmark_index,x,y"]
    for s in range(600):
        shape = (DIGIT3_BASE + rng.normal(0.0, 0.3) * modes[0] + rng.normal(0.0, 0.15) * modes[1]
                 + rng.normal(0.0, 0.005, DIGIT3_BASE.shape))
        lines += [f"s{s},{i},{float(x)!r},{float(y)!r}"
                  for i, (x, y) in enumerate(similarity_transform(rng, shape), 1)]
    landmarks = tmp_path / "modes.csv"
    landmarks.write_text("\n".join(lines) + "\n", encoding="utf-8")
    assert run("shapes", str(landmarks), "--quiet", "--out", str(tmp_path / "pre")) == 0
    preshapes = tmp_path / "pre" / "preshapes.csv"
    assert run("fit", str(preshapes), "--bandwidth", "inf", "--epsilon", "0.005",
               "--delta", "0.05", "--max-length", "0.25", "--directions", "16",
               "--quiet", "--out", str(tmp_path / "fit")) == 0
    _, rows = read_csv_rows(tmp_path / "fit" / "submanifold.csv")
    levels = {}
    for row in rows:
        levels[row[0]] = max(levels.get(row[0], 0), int(row[1]))
    assert len(levels) == 16 and min(levels.values()) >= 9
    grid = json.loads((tmp_path / "fit" / "shapes.json").read_text())["grid"]
    c = len(grid) // 2
    pd1 = np.array(grid[c], dtype=float).reshape(len(grid), -1)
    pd2 = np.array([line[c] for line in grid], dtype=float).reshape(len(grid), -1)
    assert len(grid) == 9
    assert len({r.tobytes() for r in pd1}) == len({r.tobytes() for r in pd2}) == 9
    # e1, e2: the top eigenvectors of the second moment of the data's logs at the start
    start = pd1[c]
    _, rows = read_csv_rows(preshapes)
    logs = _sphere_log(start, np.array([row[1:] for row in rows], dtype=float))
    vecs = np.linalg.eigh(logs.T @ logs)[1]
    for ends, axis in ((pd1[[0, -1]], vecs[:, -1]), (pd2[[0, -1]], vecs[:, -2])):
        end_logs = _sphere_log(start, ends)
        assert np.all(np.abs(end_logs @ axis) >= 0.99 * np.linalg.norm(end_logs, axis=1))


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
                      "--bandwidth", "0.3", "--start=1,0,0,0")


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

    def test_dataset_not_utf8_names_the_file(self, tmp_path, s_curve_csv, capsys):
        bad = tmp_path / "bad.csv"
        data = s_curve_csv.read_bytes()
        bad.write_bytes(data[:40] + b"\xff" + data[41:])
        out = tmp_path / "run"
        assert run("fit", str(bad), "--out", str(out)) == 1
        assert capsys.readouterr().err == f"error: {bad}: not UTF-8 text\n"
        assert not out.exists()

    @pytest.mark.parametrize("flag, value, message", [
        ("--directions", "6", "directions must be a positive multiple of 4"),
        ("--max-length", "0", "max_length must be positive"),
        ("--k", "0", "k must be at least 1"),
    ])
    def test_usage_error_names_the_setting(self, tmp_path, s_curve_csv, capsys,
                                           flag, value, message):
        out = tmp_path / "run"
        assert run("fit", str(s_curve_csv), flag, value, "--out", str(out)) == 2
        assert capsys.readouterr().err == f"usage error: {message}\n"
        assert not out.exists()

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
        assert run("fit", str(s_curve_csv), "--directions", "8", f"--start={coords}",
                   "--out", str(out)) == 0
        summary = json.loads((out / "summary.json").read_text())
        assert summary["start_kind"] == "custom"
        np.testing.assert_allclose(summary["start"], points[10].coords,
                                   rtol=0.0, atol=1e-12)

    def test_custom_start_needs_coords(self, tmp_path, s_curve_csv, capsys):
        # "custom" is no start: --start takes the coordinates themselves
        assert run("fit", str(s_curve_csv), "--start", "custom",
                   "--out", str(tmp_path / "x")) == 2
        assert capsys.readouterr().err == ("usage error: --start must be mean or a "
                                           "comma-separated float list, got 'custom'\n")

    def test_custom_start_must_be_unit(self, tmp_path, s_curve_csv):
        assert run("fit", str(s_curve_csv), "--start", "2,0,0,0",
                   "--out", str(tmp_path / "x")) == 2

    @pytest.mark.parametrize("dataset, coords", [
        ("s_curve_csv", "nan,0,0,1"), ("s_curve_csv", "inf,0,0,1"),
        ("flat2_csv", "nan,0"), ("flat2_csv", "0,-inf"),
    ])
    def test_non_finite_coords_are_usage_error(self, tmp_path, request, capsys,
                                               dataset, coords):
        out = tmp_path / "x"
        assert run("fit", str(request.getfixturevalue(dataset)), f"--start={coords}",
                   "--out", str(out)) == 2
        assert f"usage error: --start must be finite, got {coords!r}" in capsys.readouterr().err
        assert not out.exists()

    def test_custom_start_of_wrong_width_is_usage_error(self, tmp_path, s_curve_csv, capsys):
        out = tmp_path / "x"
        assert run("fit", str(s_curve_csv), "--start", "1,0", "--out", str(out)) == 2
        assert ("usage error: --start has 2 components but the data has 4"
                in capsys.readouterr().err)
        assert not out.exists()

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
        assert "usage error: max_length / epsilon" in capsys.readouterr().err
        assert not out.exists()

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

    @pytest.mark.parametrize("sidecar, kind", [("[1]", "list"), ('"x"', "str")])
    def test_sidecar_that_is_no_object_is_named(self, tmp_path, s_curve_csv, capsys,
                                                 sidecar, kind):
        meta = s_curve_csv.with_name("s_curve.meta.json")
        meta.write_text(sidecar + "\n", encoding="utf-8")
        assert run("fit", str(s_curve_csv), "--out", str(tmp_path / "x")) == 1
        assert capsys.readouterr().err == \
            f"error: {meta}: the sidecar must hold a JSON object, not {kind}\n"

    def test_unparsable_sidecar_is_named(self, tmp_path, s_curve_csv, capsys):
        meta = s_curve_csv.with_name("s_curve.meta.json")
        meta.write_text("{1: 2}\n", encoding="utf-8")
        assert run("fit", str(s_curve_csv), "--out", str(tmp_path / "x")) == 1
        assert capsys.readouterr().err == (
            f"error: {meta}: Expecting property name enclosed in double quotes: "
            "line 1 column 2 (char 1)\n")

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

    def test_far_shifted_flat_cloud_fits_from_its_mean(self, tmp_path):
        # 1e8 from the origin the mean iteration's gradient cannot fall to its
        # tolerance; the flat start is the arithmetic mean, bit for bit
        rng = np.random.default_rng(123)
        xs = rng.standard_normal((200, 3)) * [3.0, 2.0, 1.0] + 1e8
        path = tmp_path / "shifted.csv"
        write_dataset_csv(PointArray(xs, "flat"), path, {"chart": "flat"})
        out = tmp_path / "run"
        assert run("fit", str(path), "--bandwidth", "inf", "--quiet", "--out", str(out)) == 0
        summary = json.loads((out / "summary.json").read_text())
        assert summary["start"] == xs.mean(axis=0).tolist()

    @staticmethod
    def flat_cloud(tmp_path, seed, scale=1.0):
        """A flat 200-row cloud with standard deviations (3, 2, 1) * scale:
        (its dataset path, its rows)."""
        xs = np.random.default_rng(seed).standard_normal((200, 3)) * [3.0, 2.0, 1.0] * scale
        path = tmp_path / "cloud.csv"
        write_dataset_csv(PointArray(xs, "flat"), path, {"chart": "flat"})
        return path, xs

    @pytest.mark.parametrize("seed, k, weighted", [
        # the seeding frame fails: the default ball of 0.4 holds one row there
        (1, 2, 1),
        # a k = 3 seeding frame fails: the ball holds two rows there
        (7, 3, 2),
    ])
    def test_rank_deficient_start_names_the_kernel(self, tmp_path, capsys, seed, k, weighted):
        path, _ = self.flat_cloud(tmp_path, seed)
        out = tmp_path / "run"
        assert run("fit", str(path), "--k", str(k), "--quiet", "--out", str(out)) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: requested {k} directions but eigenvalue {k} is ")
        assert err.endswith(
            f" at the start: the uniform_ball kernel of bandwidth 0.4 gives weight to "
            f"{weighted} of 200 data rows there; a larger --bandwidth lets more rows "
            "carry weight\n")
        assert err.count("\n") == 1
        assert not out.exists()

    @pytest.mark.parametrize("data, k, rows", [
        # a flat plane in three columns
        ("plane", 3, 200),
        # preshapes of identical specimens, or of one collinear shape moved
        # about the plane, sit at one point
        ("identical", 2, 5),
        ("identical", 2, 2),
        ("collinear", 2, 3),
    ])
    def test_rank_deficient_data_give_no_bandwidth_advice(self, tmp_path, capsys, data, k,
                                                          rows):
        if data == "plane":
            path = tmp_path / "plane.csv"
            xs = np.random.default_rng(1).standard_normal((rows, 3)) * [3.0, 2.0, 0.0]
            write_dataset_csv(PointArray(xs, "flat"), path, {"chart": "flat"})
        else:
            shape = np.array([[0.0, 1.0], [1.0, 0.0], [0.0, -1.0], [-0.5, 0.2]])
            if data == "collinear":
                shape = np.array([[0.0, 0.0], [1.0, 0.0], [2.0, 0.0], [4.0, 0.0]])
                blocks = [similarity_transform(np.random.default_rng(s), shape)
                          for s in range(rows)]
            else:
                blocks = [shape] * rows
            lines = ["specimen_id,landmark_index,x,y"]
            for s, block in enumerate(blocks):
                lines += [f"s{s},{i},{float(x)!r},{float(y)!r}" for i, (x, y) in enumerate(block)]
            (tmp_path / "lm.csv").write_text("\n".join(lines) + "\n", encoding="utf-8")
            assert run("shapes", str(tmp_path / "lm.csv"), "--quiet",
                       "--out", str(tmp_path / "pre")) == 0
            path = tmp_path / "pre" / "preshapes.csv"
        out = tmp_path / "run"
        # no bandwidth helps, whether the kernel weights every row or some
        for bandwidth in ("inf", "0.4"):
            assert run("fit", str(path), "--k", str(k), "--bandwidth", bandwidth,
                       "--quiet", "--out", str(out)) == 1
            err = capsys.readouterr().err
            assert err.startswith(f"error: requested {k} directions but eigenvalue {k} is ")
            assert err.endswith(f" at the start: the {rows} data rows span fewer than {k} "
                                "directions there, whatever the bandwidth\n")
            assert err.count("\n") == 1
            assert not out.exists()

    @pytest.mark.parametrize("scale", [1e153, 1e154])
    def test_overflowing_flat_spread_fails_with_one_line(self, tmp_path, capsys, scale):
        # the kernel squares distances from the first row, which overflow;
        # the read names the spread, before any numpy warning
        path, xs = self.flat_cloud(tmp_path, 1, scale)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = run("fit", str(path), "--bandwidth", "inf", "--quiet",
                       "--out", str(tmp_path / "run"))
        assert code == 1
        spread = np.abs(xs[1:] - xs[0]).max()
        assert capsys.readouterr().err == (
            f"error: the data spread {spread:.3g} from their first row is too wide: "
            "the kernel's squared distances overflow float64; rescale the data\n")

    @pytest.mark.parametrize("scale, shift, epsilon", [(1e16, 0.0, 0.02), (1.0, 1e14, 0.005)])
    def test_step_that_rounds_away_fails_with_one_line(self, tmp_path, capsys, scale, shift,
                                                       epsilon):
        # far from the origin an epsilon step rounds onto its own base point
        path, xs = self.flat_cloud(tmp_path, 1, scale)
        write_dataset_csv(PointArray(xs + shift, "flat"), path, {"chart": "flat"})
        out = tmp_path / "run"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = run("fit", str(path), "--bandwidth", "inf", "--epsilon", str(epsilon),
                       "--quiet", "--out", str(out))
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: an epsilon step of {epsilon!r} measures 0 after "
                              "rounding, from a point whose largest |coordinate| is ")
        assert err.count("\n") == 1
        assert not out.exists()

    def test_step_that_partly_rounds_fails_with_one_line(self, tmp_path, capsys):
        # 5e13 from the origin the 0.02 steps measure 0.0175 to 0.0234
        path, xs = self.flat_cloud(tmp_path, 2)
        write_dataset_csv(PointArray(xs + 5e13, "flat"), path, {"chart": "flat"})
        out = tmp_path / "run"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = run("fit", str(path), "--bandwidth", "inf", "--epsilon", "0.02",
                       "--directions", "16", "--quiet", "--out", str(out))
        assert code == 1
        err = capsys.readouterr().err
        assert re.fullmatch(r"error: an epsilon step of 0\.02 measures 0\.0[12]\d* after "
                            r"rounding, from a point whose largest \|coordinate\| is 5e\+13; "
                            r"rescale or recentre the data, or raise epsilon\n", err)
        assert not out.exists()

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

    @pytest.mark.parametrize("case", ["plane", "great_circle", "triangles"])
    def test_data_spanning_under_three_directions_project_p3_zero(self, tmp_path, case):
        # The fit finishes, and the projection takes only the directions
        # whose eigenvalues rank at the start: a plane in R^3, a great circle
        # of S^3 fitted as a flow, and the 2-d shape space of triangles each
        # leave p3 all zero rather than failing the finished fit
        rng = np.random.default_rng(130)
        path, flags = tmp_path / f"{case}.csv", ["--bandwidth", "inf"]
        if case == "plane":
            xs = rng.standard_normal((200, 3)) * [3.0, 2.0, 0.0]
            write_dataset_csv(PointArray(xs, "flat"), path, {"chart": "flat"})
        elif case == "great_circle":
            t = rng.uniform(0.0, 2.0 * math.pi, 300)
            rows = np.column_stack([np.cos(t), np.sin(t), np.zeros(300), np.zeros(300)])
            write_dataset_csv(PointArray(rows), path)
            flags = ["--k", "1", *flags]
        else:
            base = np.array([[0.0, 1.0], [-0.87, -0.5], [0.87, -0.5]])
            lines = ["specimen_id,landmark_index,x,y"]
            for s in range(300):
                tri = similarity_transform(rng, base + rng.normal(0.0, 0.1, base.shape))
                lines += [f"t{s},{i},{float(x)!r},{float(y)!r}" for i, (x, y) in enumerate(tri)]
            landmarks = tmp_path / "triangles_landmarks.csv"
            landmarks.write_text("\n".join(lines) + "\n", encoding="utf-8")
            assert run("shapes", str(landmarks), "--quiet", "--out", str(tmp_path / "pre")) == 0
            path, flags = tmp_path / "pre" / "preshapes.csv", []
        out = tmp_path / "run"
        assert run("fit", str(path), *flags, "--directions", "8", "--quiet",
                   "--out", str(out)) == 0
        _, rows = read_csv_rows(out / "projected.csv")
        p = np.array([[float(v) for v in r[3:]] for r in rows])
        assert np.all(p[:, 2] == 0.0) and np.any(p[:, 0] != 0.0)

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

    @pytest.mark.parametrize("bandwidth", ["1e-160", "1e-310"])
    def test_tiny_gaussian_bandwidth_fails_with_one_line(self, tmp_path, capsys, s_curve_csv,
                                                          bandwidth):
        # the Gaussian profile overflows to weight 0 on every data row, and no
        # numpy warning comes before the error
        out = tmp_path / "run"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = run("fit", str(s_curve_csv), "--kernel", "gaussian", "--bandwidth",
                       bandwidth, "--quiet", "--out", str(out))
        assert code == 1
        assert capsys.readouterr().err == (
            f"error: no data carries kernel weight within bandwidth {float(bandwidth)!r}\n")
        assert not out.exists()


@pytest.mark.parametrize("command", ["fit", "compare-geodesic"])
def test_start_covariance_is_solved_once(tmp_path, monkeypatch, s_curve_csv, command):
    # the seeds, the geodesics and the projection all read the fit's start frame
    import psm.tangent_stats

    calls = []
    cov_at = psm.tangent_stats._cov_at
    monkeypatch.setattr(psm.tangent_stats, "_cov_at",
                        lambda *args, **kwargs: calls.append(args) or cov_at(*args, **kwargs))
    assert run(command, str(s_curve_csv), "--directions", "8", "--quiet",
               "--out", str(tmp_path / "out")) == 0
    assert len(calls) == 1


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

    def test_config_directory_names_it(self, tmp_path, capsys):
        cfg = tmp_path / "cfgdir"
        cfg.mkdir()
        assert run("generate", "--config", str(cfg), "--family", "s_curve",
                   "--out", str(tmp_path / "out")) == 2
        err = capsys.readouterr().err
        assert err.startswith("usage error: ") and str(cfg) in err
        assert not (tmp_path / "out").exists()

    def test_config_not_utf8_names_it(self, tmp_path, capsys):
        cfg = tmp_path / "run.conf"
        cfg.write_bytes(b"family = s_curve\nn = 2\xff0\n")
        assert run("generate", "--config", str(cfg),
                   "--out", str(tmp_path / "out")) == 2
        assert capsys.readouterr().err == f"usage error: {cfg}: not UTF-8 text\n"
        assert not (tmp_path / "out").exists()

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

    def test_kernel_outside_the_choices(self, tmp_path, s_curve_csv, capsys):
        # a flag's choices are argparse's; a file value is checked after the merge
        cfg = tmp_path / "run.conf"
        cfg.write_text("kernel = cosine\n", encoding="utf-8")
        out = tmp_path / "out"
        assert run("fit", str(s_curve_csv), "--config", str(cfg), "--out", str(out)) == 2
        assert capsys.readouterr().err == "usage error: kernel must be one of uniform, gaussian\n"
        assert not out.exists()

    def test_quiet_off_prints(self, tmp_path, capsys):
        cfg = tmp_path / "run.conf"
        cfg.write_text("family = sea_wave\nn = 20\nquiet = off\n", encoding="utf-8")
        out = tmp_path / "out"
        assert run("generate", "--config", str(cfg), "--out", str(out)) == 0
        assert f"wrote {out / 'sea_wave.csv'} (20 points" in capsys.readouterr().out

    def test_quiet_needs_a_boolean(self, tmp_path, capsys):
        cfg = tmp_path / "run.conf"
        cfg.write_text("family = sea_wave\nquiet = maybe\n", encoding="utf-8")
        assert run("generate", "--config", str(cfg), "--out", str(tmp_path / "out")) == 2
        assert capsys.readouterr().err == (
            "usage error: config key 'quiet': expected a boolean, got 'maybe'\n")

    def test_start_coordinates_from_a_file(self, tmp_path, s_curve_csv):
        points, _ = read_dataset_csv(s_curve_csv)
        coords = ",".join(repr(float(v)) for v in points[10].coords)
        cfg = tmp_path / "run.conf"
        cfg.write_text(f"start = {coords}\n", encoding="utf-8")
        by_flag, by_file = tmp_path / "flag", tmp_path / "file"
        assert run("fit", str(s_curve_csv), "--directions", "8", f"--start={coords}",
                   "--quiet", "--out", str(by_flag)) == 0
        assert run("fit", str(s_curve_csv), "--directions", "8", "--config", str(cfg),
                   "--quiet", "--out", str(by_file)) == 0
        for name in ("submanifold.csv", "projected.csv", "summary.json"):
            assert (by_flag / name).read_bytes() == (by_file / name).read_bytes()
        assert json.loads((by_file / "summary.json").read_text())["start_kind"] == "custom"


class TestTopLevel:
    def test_help_exits_zero(self, capsys):
        assert run("--help") == 0
        assert "psm" in capsys.readouterr().out

    def test_no_command_is_usage_error(self):
        assert run() == 2

    def test_unknown_command(self):
        assert run("transmogrify") == 2

    def test_module_runs_as_a_script(self, tmp_path):
        # python -m psm.cli goes through entry(), which exits with main's code
        out = tmp_path / "out"
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(
            filter(None, [str(Path(psm.__file__).parents[1]), os.environ.get("PYTHONPATH")]))}
        done = subprocess.run([sys.executable, "-m", "psm.cli", "generate", "--family",
                               "sea_wave", "--n", "20", "--out", str(out), "--quiet"],
                              env=env, capture_output=True, text=True, timeout=120)
        assert (done.returncode, done.stdout, done.stderr) == (0, "", "")
        assert len(read_dataset_csv(out / "sea_wave.csv")[0]) == 20

    @pytest.mark.parametrize("argv", [
        ["fit", "--seed", "1"], ["compare-geodesic", "--seed", "1"], ["shapes", "--seed", "1"],
        ["fit", "--coords=0,0,0,1"]])
    def test_removed_settings_are_usage_errors(self, tmp_path, s_curve_csv, capsys, argv):
        # nothing in a fit or an alignment is random, and --start takes the
        # coordinates itself
        out = tmp_path / "run"
        assert run(argv[0], str(s_curve_csv), *argv[1:], "--out", str(out)) == 2
        err = capsys.readouterr().err
        assert err == f"usage error: unrecognized arguments: {' '.join(argv[1:])}\n"
        assert not out.exists()


# Every setting each command takes, with a sample text that differs from
# its default; `quiet` has no text (flag `--quiet`, config `quiet = yes`).
_COMMON_SAMPLES = {"out": "elsewhere", "quiet": None}
_FIT_SAMPLES = {
    **_COMMON_SAMPLES, "epsilon": "0.03", "delta": "0.25", "bandwidth": "0.3",
    "kernel": "gaussian", "directions": "12", "max_length": "0.8", "k": "1",
    "start": "0,0,1", "grid_samples": "7",
}
SETTING_SAMPLES = {
    "generate": {
        **_COMMON_SAMPLES, "seed": "3", "family": "ellipsoid", "n": "50", "noise_level": "0.1",
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


def _run_outputs(tmp_path, name, command, argv):
    """(exit code, {file name: bytes}) of one quiet run into tmp_path / name."""
    out = tmp_path / name
    code = run(command, *argv, "--quiet", "--out", str(out))
    return code, {p.name: p.read_bytes() for p in sorted(out.glob("*"))}


@pytest.mark.parametrize("command", sorted(SETTING_SAMPLES))
def test_every_setting_changes_the_result(command, tmp_path, preshapes_csv):
    """A command takes no value it does not read: each setting's sample,
    other than the output directory and quiet, changes the exit code or the
    bytes written.  The fits read preshapes, so that --grid-samples counts,
    and start from a data row."""
    samples = {k: v for k, v in SETTING_SAMPLES[command].items() if k not in ("out", "quiet")}
    if command == "generate":
        # a family parameter is read by its own family
        owner = {key: family for family, (_, params) in RECIPES.items() for key in params}
        base = {key: ["--family", owner.get(key, "sea_wave")] for key in samples}
    else:
        # shapes reads the landmarks next to the fixture's preshapes
        source = preshapes_csv if command != "shapes" else preshapes_csv.parents[1] / "digits.csv"
        base = dict.fromkeys(samples, [str(source)])
        if "start" in samples:
            points, _ = read_dataset_csv(preshapes_csv)
            samples["start"] = ",".join(repr(float(v)) for v in points[3].coords)
    baselines = {}
    for key, text in samples.items():
        argv = base[key]
        if tuple(argv) not in baselines:
            baselines[tuple(argv)] = _run_outputs(tmp_path, f"base{len(baselines)}", command, argv)
        baseline = baselines[tuple(argv)]
        assert baseline[0] == 0, key
        flag = "--" + key.replace("_", "-")
        assert _run_outputs(tmp_path, key, command, [*argv, f"{flag}={text}"]) != baseline, key


def test_bench_runner_names_exist(tmp_path, monkeypatch):
    """Every psm.cli name the bench runner traces, and every name it imports
    from psm, still exists; read from bench/run.py without importing it.
    Each traced name is also called through psm.cli by one run each of
    generate, shapes, fit on the preshapes and compare-geodesic, so a span
    the runner times cannot silently read 0."""
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
    called = set()

    def traced_call(name, fn):
        return lambda *args, **kwargs: called.add(name) or fn(*args, **kwargs)

    for name in names:
        monkeypatch.setattr(cli, name, traced_call(name, getattr(cli, name)))
    lm = write_digit_landmarks(tmp_path / "digits.csv")
    preshapes = tmp_path / "pre" / "preshapes.csv"
    for argv in (["generate", "--family", "sea_wave", "--n", "30", "--out", str(tmp_path / "gen")],
                 ["shapes", str(lm), "--out", str(tmp_path / "pre")],
                 ["fit", str(preshapes), "--directions", "8", "--out", str(tmp_path / "fit")],
                 ["compare-geodesic", str(preshapes), "--directions", "8",
                  "--out", str(tmp_path / "cmp")]):
        assert run(*argv, "--quiet") == 0
    assert sorted(set(names) - called) == []
