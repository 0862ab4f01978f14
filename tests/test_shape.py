"""Preshape embedding, rotation alignment, Procrustes, landmark files."""

import math

import numpy as np
import pytest

from psm.errors import (
    DegenerateConfigError,
    DegenerateOrbitError,
    DimensionMismatchError,
    LandmarkFormatError,
    NotCenteredError,
)
from psm.geometry import SPHERE, Point, PointArray, geodesic_distance, points_matrix
from psm.shape import (
    LandmarkConfig,
    Preshape,
    align_dataset,
    align_rotation,
    from_preshape,
    read_landmarks,
    to_preshape,
)

from helpers import DIGIT3_BASE, LEAF_BASE, digit3_configs, similarity_transform


def rotate(landmarks, theta):
    c, s = math.cos(theta), math.sin(theta)
    return landmarks @ np.array([[c, s], [-s, c]])


class TestLandmarkConfig:
    def test_shape_validation(self):
        with pytest.raises(ValueError):
            LandmarkConfig(np.zeros((3, 3)))
        with pytest.raises(ValueError):
            LandmarkConfig(np.zeros((2, 2)))

    def test_nonfinite_rejected(self):
        bad = np.array([[0.0, 0.0], [1.0, np.nan], [0.0, 1.0]])
        with pytest.raises(ValueError):
            LandmarkConfig(bad)

    def test_k_property(self):
        assert LandmarkConfig(LEAF_BASE).k == 4


class TestToPreshape:
    def test_unit_norm_and_centered(self):
        p = to_preshape(LandmarkConfig(LEAF_BASE, "leaf"))
        coords = p.point.coords
        assert abs(np.linalg.norm(coords) - 1.0) <= 1e-12
        assert abs(coords[0::2].sum()) <= 1e-12
        assert abs(coords[1::2].sum()) <= 1e-12
        assert p.k == 4

    def test_interleaving_order(self):
        # isoceles triangle with known centered/scaled coordinates
        tri = np.array([[1.0, 0.0], [-1.0, 0.0], [0.0, 1.0]])
        p = to_preshape(LandmarkConfig(tri))
        centered = tri - tri.mean(axis=0)
        expected = (centered / np.linalg.norm(centered)).ravel()
        np.testing.assert_allclose(p.point.coords, expected, rtol=0.0, atol=1e-15)
        # x of landmark 2 sits at stride position 2
        assert p.point.coords[2] == pytest.approx(expected[2])

    def test_translation_invariance(self):
        a = to_preshape(LandmarkConfig(DIGIT3_BASE))
        b = to_preshape(LandmarkConfig(DIGIT3_BASE + np.array([13.0, -4.5])))
        np.testing.assert_allclose(a.point.coords, b.point.coords,
                                   rtol=0.0, atol=1e-12)

    def test_scale_invariance(self):
        a = to_preshape(LandmarkConfig(DIGIT3_BASE))
        b = to_preshape(LandmarkConfig(DIGIT3_BASE * 77.0))
        np.testing.assert_allclose(a.point.coords, b.point.coords,
                                   rtol=0.0, atol=1e-12)

    def test_collapsed_configuration(self):
        with pytest.raises(DegenerateConfigError):
            to_preshape(LandmarkConfig(np.ones((5, 2))))


class TestPreshapeClass:
    def test_rejects_uncentered(self):
        v = np.ones(6) / math.sqrt(6.0)
        with pytest.raises(ValueError):
            Preshape(Point(v, SPHERE))

    def test_rejects_odd_pairing(self):
        # 4 coords pair into only 2 landmarks
        v = np.array([1.0, -1.0, -1.0, 1.0]) / 2.0
        with pytest.raises(ValueError):
            Preshape(Point(v, SPHERE))


class TestAlignRotation:
    def test_undoes_known_rotation(self):
        base = to_preshape(LandmarkConfig(DIGIT3_BASE))
        rotated = to_preshape(LandmarkConfig(rotate(DIGIT3_BASE, 0.9)))
        aligned = align_rotation(rotated, base)
        np.testing.assert_allclose(aligned.point.coords, base.point.coords,
                                   rtol=0.0, atol=1e-12)

    def test_minimizes_over_orbit(self):
        rng = np.random.default_rng(80)
        base = to_preshape(LandmarkConfig(DIGIT3_BASE))
        other = to_preshape(LandmarkConfig(DIGIT3_BASE + 0.2 * rng.standard_normal(DIGIT3_BASE.shape)))
        aligned = align_rotation(other, base)
        best = geodesic_distance(aligned.point, base.point)
        for theta in np.linspace(0.0, 2.0 * math.pi, 720, endpoint=False):
            cand = to_preshape(LandmarkConfig(rotate(
                other.point.coords.reshape(-1, 2), theta)))
            assert best <= geodesic_distance(cand.point, base.point) + 1e-12

    def test_idempotent_once_aligned(self):
        base = to_preshape(LandmarkConfig(DIGIT3_BASE))
        rotated = to_preshape(LandmarkConfig(rotate(DIGIT3_BASE, -1.3)))
        once = align_rotation(rotated, base)
        twice = align_rotation(once, base)
        np.testing.assert_allclose(once.point.coords, twice.point.coords,
                                   rtol=0.0, atol=1e-14)

    def test_landmark_count_mismatch(self):
        a = to_preshape(LandmarkConfig(DIGIT3_BASE))
        b = to_preshape(LandmarkConfig(LEAF_BASE))
        with pytest.raises(DimensionMismatchError):
            align_rotation(a, b)

    def test_orthogonal_orbit(self):
        # z and w with vanishing complex inner product: vdot cancels exactly
        z = np.array([[1.0, 0.0], [-1.0, 0.0], [0.0, 1.0], [0.0, -1.0]])
        w = np.array([[1.0, 0.0], [1.0, 0.0], [-1.0, 0.0], [-1.0, 0.0]])
        pz = to_preshape(LandmarkConfig(z))
        pw = to_preshape(LandmarkConfig(w))
        with pytest.raises(DegenerateOrbitError):
            align_rotation(pz, pw)


class TestAlignDataset:
    def test_similarity_orbit_collapses(self):
        # all inputs are similarity images of one configuration
        rng = np.random.default_rng(81)
        configs = [LandmarkConfig(DIGIT3_BASE, "orig")]
        configs += [LandmarkConfig(similarity_transform(rng, DIGIT3_BASE), str(i))
                    for i in range(20)]
        aligned, mean = align_dataset(configs)
        mat = points_matrix(aligned)
        spread = np.abs(mat - mat[0]).max()
        assert spread <= 1e-8
        assert geodesic_distance(mean, aligned[0]) <= 1e-8

    def test_mean_is_frechet_stationary(self):
        aligned, mean = align_dataset(digit3_configs(n=15, seed=9))
        from psm.geometry import log_map
        grad = np.mean([log_map(mean, p).vec for p in aligned], axis=0)
        assert np.linalg.norm(grad) <= 1e-8

    def test_aligned_rank_bound(self):
        # rotation + centering + scale remove 2k - (2k-3) = 3 dimensions
        aligned, mean = align_dataset(digit3_configs(n=30, seed=42))
        mat = points_matrix(aligned)
        sv = np.linalg.svd(mat - mat.mean(axis=0), compute_uv=False)
        k = DIGIT3_BASE.shape[0]
        assert sv[2 * k - 3] <= 1e-10 * sv[0]

    def test_needs_two_configs(self):
        with pytest.raises(ValueError):
            align_dataset([LandmarkConfig(DIGIT3_BASE)])

    def test_mixed_counts_rejected(self):
        with pytest.raises(DimensionMismatchError):
            align_dataset([LandmarkConfig(DIGIT3_BASE), LandmarkConfig(LEAF_BASE)])

    def test_rows_match_the_single_pair_reference(self):
        configs = digit3_configs(n=25, seed=3)
        aligned, mean = align_dataset(configs)
        assert isinstance(aligned, PointArray) and len(aligned) == 25
        target = Preshape(mean)
        for row, config in zip(points_matrix(aligned), configs):
            reference = align_rotation(to_preshape(config), target).point.coords
            assert np.array_equal(row, reference)

    def test_collapsed_specimen_is_named(self):
        configs = digit3_configs(n=9, seed=4)
        configs[4] = LandmarkConfig(np.full(DIGIT3_BASE.shape, 2.5), "flat-one")
        with pytest.raises(DegenerateConfigError, match="'flat-one'"):
            align_dataset(configs)

    def test_builds_no_per_specimen_objects(self, monkeypatch):
        built = {Point: 0, Preshape: 0}
        for cls in built:
            def counted(self, cls=cls, post_init=cls.__post_init__):
                built[cls] += 1
                post_init(self)
            monkeypatch.setattr(cls, "__post_init__", counted)
        per_size = []
        for n in (12, 120):
            built.update({Point: 0, Preshape: 0})
            align_dataset(digit3_configs(n=n, seed=1))
            per_size.append(dict(built))
        # both sizes take the same number of Procrustes rounds at this seed,
        # so the Point count (a few per round) must not depend on n
        assert per_size[0][Preshape] == per_size[1][Preshape] == 0
        assert per_size[0][Point] == per_size[1][Point] < 12


class TestFromPreshape:
    def test_round_trip(self):
        config = LandmarkConfig(DIGIT3_BASE, "d3")
        p = to_preshape(config)
        back = from_preshape(p.point, config.k, "again")
        redo = to_preshape(back)
        np.testing.assert_allclose(redo.point.coords, p.point.coords,
                                   rtol=0.0, atol=1e-12)
        assert back.specimen_id == "again"

    def test_rejects_uncentered_point(self):
        v = np.zeros(8)
        v[0] = 1.0  # x-sums to 1: not a centered configuration
        with pytest.raises(NotCenteredError):
            from_preshape(Point(v, SPHERE), 4)

    def test_centering_tolerances(self):
        # Preshape demands a centroid offset <= 1e-10, from_preshape <= 1e-6
        base = to_preshape(LandmarkConfig(LEAF_BASE)).point.coords
        for offset, recoverable in ((1e-8, True), (1e-5, False)):
            v = base + offset * np.eye(8)[0]
            p = Point(v / np.linalg.norm(v), SPHERE)
            with pytest.raises(ValueError, match="not centered"):
                Preshape(p)
            if recoverable:
                assert from_preshape(p, 4).k == 4
            else:
                with pytest.raises(NotCenteredError):
                    from_preshape(p, 4)

    def test_dimension_check(self):
        p = to_preshape(LandmarkConfig(LEAF_BASE)).point
        with pytest.raises(DimensionMismatchError):
            from_preshape(p, 5)


class TestReadLandmarksCsv:
    def write(self, tmp_path, text):
        path = tmp_path / "lm.csv"
        path.write_text(text, encoding="utf-8")
        return path

    def test_basic_two_specimens(self, tmp_path):
        text = "specimen_id,landmark_index,x,y\n"
        for sid in ("a", "b"):
            for i, (x, y) in enumerate(LEAF_BASE, start=1):
                text += f"{sid},{i},{x},{y}\n"
        configs = read_landmarks(self.write(tmp_path, text))
        assert [c.specimen_id for c in configs] == ["a", "b"]
        np.testing.assert_allclose(configs[0].landmarks, LEAF_BASE, atol=0.0)

    def test_noncontiguous_specimen(self, tmp_path):
        text = ("specimen_id,landmark_index,x,y\n"
                "a,1,0,0\na,2,1,0\na,3,0,1\n"
                "b,1,0,0\nb,2,1,0\nb,3,0,1\n"
                "a,1,2,2\na,2,3,2\na,3,2,3\n")
        with pytest.raises(LandmarkFormatError) as exc:
            read_landmarks(self.write(tmp_path, text))
        assert exc.value.line == 8

    def test_index_gap(self, tmp_path):
        text = ("specimen_id,landmark_index,x,y\n"
                "a,1,0,0\na,3,1,0\na,4,0,1\n")
        with pytest.raises(LandmarkFormatError) as exc:
            read_landmarks(self.write(tmp_path, text))
        assert exc.value.line == 3

    def test_too_few_landmarks(self, tmp_path):
        text = ("specimen_id,landmark_index,x,y\n"
                "a,1,0,0\na,2,1,0\n"
                "b,1,0,0\nb,2,1,0\nb,3,0,1\n")
        with pytest.raises(LandmarkFormatError):
            read_landmarks(self.write(tmp_path, text))

    def test_unparsable_value(self, tmp_path):
        text = ("specimen_id,landmark_index,x,y\n"
                "a,1,0,0\na,2,oops,0\na,3,0,1\n")
        with pytest.raises(LandmarkFormatError) as exc:
            read_landmarks(self.write(tmp_path, text))
        assert exc.value.line == 3

    def test_inconsistent_counts(self, tmp_path):
        text = ("specimen_id,landmark_index,x,y\n"
                "a,1,0,0\na,2,1,0\na,3,0,1\n"
                "b,1,0,0\nb,2,1,0\nb,3,0,1\nb,4,1,1\n")
        with pytest.raises(LandmarkFormatError) as exc:
            read_landmarks(self.write(tmp_path, text))
        assert str(exc.value) == "inconsistent landmark counts across specimens: [3, 4]"
        assert exc.value.line is None

    def test_header_only(self, tmp_path):
        with pytest.raises(LandmarkFormatError) as exc:
            read_landmarks(self.write(tmp_path, "specimen_id,landmark_index,x,y\n"))
        assert str(exc.value) == "line 1: no landmark rows found"

    def test_digit_file_parses_bit_for_bit(self, tmp_path):
        lines = ["specimen_id,landmark_index,x,y"]
        for config in digit3_configs(n=200, seed=11):
            for i, (x, y) in enumerate(config.landmarks):
                lines.append(f"{config.specimen_id},{i},{float(x)!r},{float(y)!r}")
        configs = read_landmarks(self.write(tmp_path, "\n".join(lines) + "\n"))
        rows = [line.split(",") for line in lines[1:]]
        assert [c.specimen_id for c in configs] == list(dict.fromkeys(r[0] for r in rows))
        parsed = np.array([[float(r[2]), float(r[3])] for r in rows])
        np.testing.assert_array_equal(
            np.concatenate([c.landmarks for c in configs]).view(np.uint64), parsed.view(np.uint64))

    # Each message and line is the one that reading row by row meets first.
    # A specimen's landmark count and values are checked when the next
    # specimen starts, before that row's own checks, or after the last row.
    @pytest.mark.parametrize("body, error, message", [
        ("a,1,0,0\na,2,1\na,3,0,1\n", LandmarkFormatError, "line 3: expected 4 columns, got 3"),
        ("a,1,0,0\na,x,1,0\n", LandmarkFormatError,
         "line 3: unparsable row: invalid literal for int() with base 10: 'x'"),
        ("a,1,0,0\na,2,0,0\nb,1,0,0\n", LandmarkFormatError,
         "line 4: specimen 'a' has only 2 landmarks (need >= 3)"),
        ("a,1,0,0\na,2,1,0\na,3,0,1\nb,1,0,0\nb,2,1,0\n", LandmarkFormatError,
         "line 6: specimen 'b' has only 2 landmarks (need >= 3)"),
        ("a,1,0,0\na,2,nan,0\na,3,0,1\nb,1,0,0\n", ValueError,
         "landmark coordinates must be finite"),
        ("a,1,0,0\na,2,1,0\na,4,0,1\nb,1,0,0\nb,2,1,0\nb,3,0,1\n", LandmarkFormatError,
         "line 4: landmark_index jumps from 2 to 4"),
        # a short specimen before an unparsable row
        ("a,1,0,0\nb,1,0,0\nb,2,1,0\nb,3,oops,1\n", LandmarkFormatError,
         "line 3: specimen 'a' has only 1 landmarks (need >= 3)"),
        # a short specimen, then a repeated one on the same row
        ("a,1,0,0\nb,1,0,0\nb,2,1,0\nb,3,0,1\na,1,0,0\n", LandmarkFormatError,
         "line 3: specimen 'a' has only 1 landmarks (need >= 3)"),
        # an index jump on the last row, before the last specimen's count
        ("a,1,0,0\na,2,1,0\na,3,0,1\nb,1,0,0\nb,3,1,0", LandmarkFormatError,
         "line 6: landmark_index jumps from 1 to 3"),
        # blank lines count, quoted fields parse
        ('\na,1,0,0\n\n"a",2,1,0\na,3,0,1\nb,1,0,0\n', LandmarkFormatError,
         "line 7: specimen 'b' has only 1 landmarks (need >= 3)"),
        # int64 steps from the largest index to the smallest by +1 (mod 2**64)
        (f"a,{2**63 - 1},0,0\na,{-2**63},1,0\na,{1 - 2**63},0,1\n", LandmarkFormatError,
         f"line 3: landmark_index jumps from {2**63 - 1} to {-2**63}"),
    ])
    def test_errors_name_the_first_line(self, tmp_path, body, error, message):
        with pytest.raises(error) as exc:
            read_landmarks(self.write(tmp_path, "specimen_id,landmark_index,x,y\n" + body))
        assert str(exc.value) == message


class TestReadLandmarksBlocks:
    def test_blank_line_separated(self, tmp_path):
        path = tmp_path / "blocks.txt"
        lines = []
        for block in (LEAF_BASE, LEAF_BASE + 1.0):
            lines += [f"{x} {y}" for x, y in block]
            lines.append("")
        path.write_text("\n".join(lines), encoding="utf-8")
        configs = read_landmarks(path)
        assert [c.specimen_id for c in configs] == ["1", "2"]
        np.testing.assert_allclose(configs[1].landmarks, LEAF_BASE + 1.0, atol=0.0)

    def test_wrong_field_count(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("0 0\n1 0 9\n0 1\n", encoding="utf-8")
        with pytest.raises(LandmarkFormatError) as exc:
            read_landmarks(path)
        assert exc.value.line == 2

    def test_short_block(self, tmp_path):
        path = tmp_path / "short.txt"
        path.write_text("0 0\n1 0\n\n0 0\n1 0\n0 1\n", encoding="utf-8")
        with pytest.raises(LandmarkFormatError):
            read_landmarks(path)

    def test_empty_file(self, tmp_path):
        path = tmp_path / "empty.txt"
        path.write_text("\n\n", encoding="utf-8")
        with pytest.raises(LandmarkFormatError) as exc:
            read_landmarks(path)
        assert str(exc.value) == "line 1: no landmark rows found"

    def test_inconsistent_counts(self, tmp_path):
        path = tmp_path / "mixed.txt"
        path.write_text("0 0\n1 0\n0 1\n\n0 0\n1 0\n0 1\n1 1\n", encoding="utf-8")
        with pytest.raises(LandmarkFormatError) as exc:
            read_landmarks(path)
        assert str(exc.value) == "inconsistent landmark counts across blocks: [3, 4]"
