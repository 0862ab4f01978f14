"""Synthetic families, the sphere lift, and dataset CSV round trips."""

import json
import math

import numpy as np
import pytest

from psm import datagen, geometry
from psm.datagen import (
    GENERATOR_ID,
    RECIPES,
    generate,
    meta_path_for,
    read_dataset_csv,
    sea_wave_height,
    write_dataset_csv,
)
from psm.errors import InfeasibleShiftError
from psm.geometry import FLAT, SPHERE, PointArray, points_matrix, project_to_sphere

checked = geometry._checked_coords


def make(family, n, seed, **params):
    """The points of generate(family, n, seed, params)."""
    return generate(family, n, seed, params)[0]


def recover_triplets(points, c):
    """Undo the lift: scale back by sqrt(c) and drop the fourth coordinate."""
    mat = points_matrix(points) * math.sqrt(c)
    return mat[:, :3], mat[:, 3]


class TestGenerate:
    def test_unknown_family(self):
        with pytest.raises(ValueError, match="^unknown family 'torus'$"):
            generate("torus", 10, 0)

    def test_minimum_size(self):
        with pytest.raises(ValueError, match="^n must be at least 3$"):
            generate("s_curve", 2, 0)
        generate("s_curve", 3, 0)

    @pytest.mark.parametrize("seed", [-1, 1.5, True, "3"])
    def test_seed_must_be_a_non_negative_integer(self, seed):
        with pytest.raises(ValueError) as exc:
            generate("s_curve", 10, seed)
        assert str(exc.value) == f"seed must be a non-negative integer, got {seed!r}"

    @pytest.mark.parametrize("family, key", [
        ("s_curve", "noise_level"), ("sea_wave", "a"), ("ellipsoid", "noise_scale_u"),
        ("ellipsoid", "shift"),
    ])
    def test_parameter_of_another_family_rejected(self, family, key):
        # shift is an argument of generate, not a parameter of any family
        with pytest.raises(ValueError, match=f"{family} takes no parameter '{key}'"):
            generate(family, 10, 0, {key: 1.0})

    @pytest.mark.parametrize("key", ["a", "shift"])
    @pytest.mark.parametrize("bad", [math.nan, -math.inf, np.float32("inf")])
    def test_non_finite_parameter_rejected(self, key, bad):
        # every family's parameters, through the CLI: test_cli.py
        params, shift = ({}, bad) if key == "shift" else ({key: bad}, "auto")
        with pytest.raises(ValueError, match=f"^{key} must be finite$"):
            generate("ellipsoid", 10, 0, params, shift)

    def test_checks_params_in_order_then_shift(self):
        with pytest.raises(ValueError, match="^a must be finite$"):
            generate("ellipsoid", 10, 0, {"a": math.nan, "d": 1.0}, shift=math.nan)
        with pytest.raises(ValueError, match="^ellipsoid takes no parameter 'd'$"):
            generate("ellipsoid", 10, 0, {"d": 1.0, "a": math.nan}, shift=math.nan)
        with pytest.raises(ValueError, match="^shift must be finite$"):
            generate("ellipsoid", 10, 0, {"a": 3.0}, shift=math.inf)

    def test_generator_id(self):
        assert GENERATOR_ID == "numpy.random.PCG64"

    def test_info_holds_resolved_parameters(self):
        _, info = generate("ellipsoid", 20, 2, {"a": 3.0}, shift=40.0)
        assert info == {"family": "ellipsoid", "n": 20, "seed": 2,
                        "params": {"a": 3.0, "b": math.sqrt(2.0), "c": 1.0, "mode": "solid"},
                        "shift": 40.0, "resolved_shift": 40.0, "generator": GENERATOR_ID}
        _, info = generate("s_curve", 20, 2)
        assert info["params"] == {"noise_scale_u": 1.0 / 32.0}
        assert info["shift"] == "auto" and info["resolved_shift"] > 0


class TestLiftProperties:
    def test_unit_norms_all_families(self):
        for pts in (make(family, 50, 1) for family in RECIPES):
            mat = points_matrix(pts)
            assert mat.shape == (50, 4)
            np.testing.assert_allclose(np.linalg.norm(mat, axis=1), 1.0,
                                       rtol=0.0, atol=1e-12)

    def test_fourth_coordinate_closes_the_sum(self):
        pts, info = generate("sea_wave", 40, 3)
        c = info["resolved_shift"]
        triplets, fourth = recover_triplets(pts, c)
        assert np.all(fourth >= 0.0)
        radicand = c - np.sum(triplets ** 2, axis=1)
        np.testing.assert_allclose(fourth ** 2, radicand, rtol=0.0, atol=1e-10)

    def test_auto_shift_margin(self):
        pts, info = generate("s_curve", 60, 5)
        c = info["resolved_shift"]
        triplets, _ = recover_triplets(pts, c)
        peak = float(np.sum(triplets ** 2, axis=1).max())
        assert c == pytest.approx(1.1 * peak, rel=1e-9)

    def test_explicit_shift_respected(self):
        pts, info = generate("s_curve", 30, 5, shift=25.0)
        assert info["resolved_shift"] == 25.0
        triplets, _ = recover_triplets(pts, 25.0)
        assert float(np.sum(triplets ** 2, axis=1).max()) <= 25.0

    def test_infeasible_shift(self):
        with pytest.raises(InfeasibleShiftError):
            generate("s_curve", 30, 5, shift=0.5)

    def test_bad_shift_string(self):
        with pytest.raises(ValueError):
            generate("s_curve", 30, 5, shift="automatic")


class TestSCurve:
    def test_first_coordinate_walks_the_grid(self):
        n = 40
        pts, info = generate("s_curve", n, 11)
        triplets, _ = recover_triplets(pts, info["resolved_shift"])
        i = np.arange(1, n + 1, dtype=float)
        np.testing.assert_allclose(triplets[:, 0], (i - n / 2.0) / n,
                                   rtol=0.0, atol=1e-12)

    def test_noise_free_bend(self):
        pts, info = generate("s_curve", 50, 11, {"noise_scale_u": 0.0})
        triplets, _ = recover_triplets(pts, info["resolved_shift"])
        np.testing.assert_allclose(triplets[:, 1],
                                   np.sin(2.0 * triplets[:, 0]) / 6.0,
                                   rtol=0.0, atol=1e-12)

    def test_third_coordinate_hugs_one(self):
        pts, info = generate("s_curve", 200, 7)
        triplets, _ = recover_triplets(pts, info["resolved_shift"])
        assert np.max(np.abs(triplets[:, 2] - 1.0)) < 0.01

    def test_default_noise_scale_keeps_unit_noise(self):
        # the default 1/32 cancels the recipe's 32x factor on U
        a = points_matrix(make("s_curve", 30, 13))
        b = points_matrix(make("s_curve", 30, 13, noise_scale_u=1.0 / 32.0))
        np.testing.assert_array_equal(a, b)
        loud = points_matrix(make("s_curve", 30, 13, noise_scale_u=1.0))
        assert not np.array_equal(a, loud)

    def test_determinism(self):
        a = points_matrix(make("s_curve", 25, 9))
        b = points_matrix(make("s_curve", 25, 9))
        assert np.array_equal(a, b)
        other = points_matrix(make("s_curve", 25, 10))
        assert not np.array_equal(a, other)


class TestSeaWave:
    def test_noise_free_points_sit_on_sheet(self):
        pts, info = generate("sea_wave", 60, 21, {"noise_level": 0.0})
        triplets, _ = recover_triplets(pts, info["resolved_shift"])
        want = sea_wave_height(triplets[:, 0], triplets[:, 1])
        np.testing.assert_allclose(triplets[:, 2], want, rtol=0.0, atol=1e-12)
        assert np.all(np.abs(triplets[:, 0]) <= 0.5 + 1e-12)
        assert np.all(np.abs(triplets[:, 1]) <= 0.5 + 1e-12)

    def test_height_formula(self):
        assert sea_wave_height(0.0, 0.0) == 0.0
        assert sea_wave_height(math.pi / 8, 0.0) == pytest.approx(
            0.15 * math.sin(math.pi / 2), abs=1e-15)
        arr = sea_wave_height([0.1, 0.2], [0.3, -0.1])
        np.testing.assert_allclose(arr, 0.15 * np.sin([0.4 + 0.6, 0.8 - 0.2]),
                                   atol=1e-15)

    def test_negative_noise_rejected(self):
        with pytest.raises(ValueError):
            make("sea_wave", 30, 0, noise_level=-0.1)


class TestEllipsoid:
    def test_solid_inside_body(self):
        for a in (2.5, 5.0, 10.0, 20.0):
            pts, info = generate("ellipsoid", 80, 31, {"a": a})
            triplets, _ = recover_triplets(pts, info["resolved_shift"])
            q = (triplets[:, 0] / a) ** 2 + (triplets[:, 1] / math.sqrt(2.0)) ** 2 \
                + triplets[:, 2] ** 2
            assert np.all(q <= 1.0 + 1e-10)
            assert triplets.shape == (80, 3)

    def test_surface_on_boundary(self):
        pts, info = generate("ellipsoid", 80, 32, {"mode": "surface"})
        triplets, _ = recover_triplets(pts, info["resolved_shift"])
        q = (triplets[:, 0] / 2.5) ** 2 + (triplets[:, 1] / math.sqrt(2.0)) ** 2 \
            + triplets[:, 2] ** 2
        np.testing.assert_allclose(q, 1.0, rtol=0.0, atol=1e-10)

    def test_invalid_arguments(self):
        with pytest.raises(ValueError):
            make("ellipsoid", 30, 0, mode="shell")
        with pytest.raises(ValueError):
            make("ellipsoid", 30, 0, a=-1.0)

    def test_determinism(self):
        a = points_matrix(make("ellipsoid", 40, 33))
        b = points_matrix(make("ellipsoid", 40, 33))
        assert np.array_equal(a, b)


class TestDatasetFiles:
    def test_round_trip_sphere(self, tmp_path):
        pts = make("s_curve", 25, 4)
        path = tmp_path / "curve.csv"
        meta = {"kind": "dataset", "chart": SPHERE, "n": 25}
        write_dataset_csv(pts, path, meta)
        back, got_meta = read_dataset_csv(path)
        assert got_meta == meta
        np.testing.assert_allclose(points_matrix(back), points_matrix(pts),
                                   rtol=0.0, atol=1e-14)
        for p in back:
            assert p.chart == SPHERE

    def test_round_trip_flat(self, tmp_path):
        rng = np.random.default_rng(40)
        pts = PointArray(rng.standard_normal((10, 3)) * 5.0, FLAT)
        path = tmp_path / "cloud.csv"
        write_dataset_csv(pts, path, {"chart": FLAT})
        back, _ = read_dataset_csv(path)
        assert all(p.chart == FLAT for p in back)
        np.testing.assert_array_equal(points_matrix(back), points_matrix(pts))

    def test_sidecar_location_and_format(self, tmp_path):
        path = tmp_path / "d.csv"
        assert meta_path_for(path) == tmp_path / "d.meta.json"
        write_dataset_csv(make("s_curve", 5, 0), path, {"b": 1, "a": 2})
        text = meta_path_for(path).read_text(encoding="utf-8")
        assert text == '{\n  "a": 2,\n  "b": 1\n}\n'

    def test_missing_sidecar_defaults_to_sphere(self, tmp_path):
        path = tmp_path / "bare.csv"
        write_dataset_csv(make("s_curve", 5, 0), path)
        assert not meta_path_for(path).exists()
        back, meta = read_dataset_csv(path)
        assert meta == {}
        assert all(p.chart == SPHERE for p in back)

    def test_rejects_bad_header(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("idx,c0,c1\n0,1,0\n", encoding="utf-8")
        with pytest.raises(ValueError):
            read_dataset_csv(path)

    def test_rejects_ragged_row(self, tmp_path):
        path = tmp_path / "ragged.csv"
        path.write_text("point_index,c0,c1\n0,1,0\n1,0\n", encoding="utf-8")
        with pytest.raises(ValueError, match="line 3"):
            read_dataset_csv(path)

    def test_rejects_unparsable_row(self, tmp_path):
        path = tmp_path / "nan.csv"
        path.write_text("point_index,c0,c1\n0,one,0\n", encoding="utf-8")
        with pytest.raises(ValueError, match="line 2"):
            read_dataset_csv(path)

    @pytest.mark.parametrize("layout", ["numpy", "row loop"])
    def test_read_matrix_meets_the_point_checks(self, tmp_path, monkeypatch, layout):
        # The reader's renormalized matrix passes geometry._checked_coords
        # once, as every PointArray does, and meets that pass's bound.  Rows
        # off the sphere by up to 1e-7 are accepted and cleaned; a quoted
        # value takes the file through the row loop.
        rng = np.random.default_rng(41)
        xs = rng.standard_normal((300, 4))
        xs /= np.linalg.norm(xs, axis=1, keepdims=True)
        xs *= 1.0 + rng.uniform(-1e-7, 1e-7, (300, 1))
        lines = ["point_index,c0,c1,c2,c3"] + [
            f"{i}," + ",".join(repr(float(v)) for v in row) for i, row in enumerate(xs)]
        if layout == "row loop":
            lines[5] = '"4"' + lines[5][1:]
        path = tmp_path / "near.csv"
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        loops = []
        row_loop = datagen._read_coordinate_rows
        monkeypatch.setattr(datagen, "_read_coordinate_rows",
                            lambda path: loops.append(path) or row_loop(path))
        checks = []
        monkeypatch.setattr(geometry, "_checked_coords",
                            lambda *args: checks.append(args) or checked(*args))
        points, _ = read_dataset_csv(path)
        assert len(loops) == (layout == "row loop") and len(checks) == 1
        coords = points.coords
        assert coords.shape == (300, 4) and coords.dtype == np.float64
        assert not coords.flags.writeable
        assert np.max(np.abs(np.linalg.norm(coords, axis=1) - 1.0)) <= geometry._UNIT_TOL
        # PointArray itself checks every other caller's rows
        with pytest.raises(ValueError, match="unit norm"):
            PointArray(xs)
        assert len(checks) == 2

    def test_unknown_sidecar_chart_is_refused(self, tmp_path):
        path = tmp_path / "d.csv"
        write_dataset_csv(make("s_curve", 5, 0), path, {"chart": "torus"})
        with pytest.raises(ValueError, match="unknown chart 'torus'") as caught:
            read_dataset_csv(path)
        assert str(caught.value).startswith(f"{meta_path_for(path)}: ")

    def test_rejects_off_sphere_rows(self, tmp_path):
        path = tmp_path / "off.csv"
        path.write_text("point_index,c0,c1\n0,2,0\n", encoding="utf-8")
        with pytest.raises(ValueError, match="unit"):
            read_dataset_csv(path)

    @pytest.mark.parametrize("chart", [SPHERE, FLAT])
    @pytest.mark.parametrize("bad", ["nan", "inf", "-inf"])
    def test_rejects_non_finite_row_by_line(self, tmp_path, chart, bad):
        # NaN passes a sphere row's |norm - 1| check, so finiteness comes first
        path = tmp_path / "nonfinite.csv"
        path.write_text(f"point_index,c0,c1,c2,c3\n0,1,0,0,0\n1,0,{bad},0,0\n",
                        encoding="utf-8")
        meta_path_for(path).write_text(json.dumps({"chart": chart}), encoding="utf-8")
        with pytest.raises(ValueError, match=r"nonfinite\.csv: line 3: .*finite"):
            read_dataset_csv(path)

    def test_rejects_one_coordinate_column_by_line(self, tmp_path):
        path = tmp_path / "narrow.csv"
        path.write_text("point_index,c0\n0,1\n", encoding="utf-8")
        with pytest.raises(ValueError, match=r"narrow\.csv: line 1: "):
            read_dataset_csv(path)

    def test_blank_rows_are_skipped(self, tmp_path):
        # empty and whitespace-only rows are skipped, and a later bad row
        # still reports its own line number
        path = tmp_path / "blanks.csv"
        path.write_text("point_index,c0,c1\n0,1,0\n\n , \n  \n1,0,1\n", encoding="utf-8")
        back, _ = read_dataset_csv(path)
        np.testing.assert_array_equal(points_matrix(back), [[1.0, 0.0], [0.0, 1.0]])
        path.write_text("point_index,c0,c1\n0,1,0\n\n,\n \t \n1,0\n", encoding="utf-8")
        with pytest.raises(ValueError, match=r"blanks\.csv: line 6: expected 3 columns"):
            read_dataset_csv(path)

    # a record's line is the physical line it starts on, also after a quoted
    # field that spans lines
    @pytest.mark.parametrize("body, message", [
        ('"0\n",1,0,0\n1,0,1,0\n2,x,0,1\n', "line 5: unparsable coordinates"),
        ('0,"1\n\n",0,0\n1,0,"\n1",0\n2,0,0,2\n',
         "line 7: sphere rows must be unit vectors (norm 2.0)"),
        ('"0\r\n",1,0,0\r\n1,0,1,nan\r\n', "line 4: coordinates must be finite"),
        ('0,1,0,0\n1,"x\ny",0,0\n', "line 3: unparsable coordinates"),
    ])
    def test_errors_name_the_first_line(self, tmp_path, body, message):
        path = tmp_path / "lines.csv"
        path.write_text("point_index,c0,c1,c2\n" + body, encoding="utf-8", newline="")
        with pytest.raises(ValueError) as exc:
            read_dataset_csv(path)
        assert str(exc.value) == f"{path}: {message}"

    def test_leading_blank_line_is_a_bad_header(self, tmp_path):
        path = tmp_path / "lead.csv"
        path.write_text("\npoint_index,c0,c1\n0,1,0\n", encoding="utf-8")
        with pytest.raises(ValueError, match=r"lead\.csv: expected a point_index,c0,\.\.\. header"):
            read_dataset_csv(path)

    def test_rejects_empty(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("point_index,c0,c1\n", encoding="utf-8")
        with pytest.raises(ValueError):
            read_dataset_csv(path)

    def test_mild_norm_drift_is_cleaned(self, tmp_path):
        path = tmp_path / "drift.csv"
        v = 1.0 / math.sqrt(2.0)
        path.write_text(f"point_index,c0,c1\n0,{v + 2e-7:.17g},{v:.17g}\n",
                        encoding="utf-8")
        back, _ = read_dataset_csv(path)
        assert abs(np.linalg.norm(back[0].coords) - 1.0) <= 1e-15

    def test_reader_matches_per_row_projection(self, tmp_path):
        # The reader normalizes the whole matrix at once; every row must keep
        # the bits of projecting that row alone.
        rng = np.random.default_rng(12)
        rows = rng.standard_normal((300, 4))
        rows /= np.linalg.norm(rows, axis=1)[:, None]
        rows *= 1.0 + rng.uniform(-1e-7, 1e-7, (300, 1))
        lines = ["point_index,c0,c1,c2,c3"]
        lines += [f"{i}," + ",".join(format(v, ".17g") for v in row)
                  for i, row in enumerate(rows.tolist())]
        path = tmp_path / "drift.csv"
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        back, _ = read_dataset_csv(path)
        parsed = [np.array([float(c) for c in line.split(",")[1:]]) for line in lines[1:]]
        want = np.stack([project_to_sphere(row).coords for row in parsed])
        assert back.coords.tobytes() == want.tobytes()
