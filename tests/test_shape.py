"""Preshape embedding, rotation alignment, Procrustes, landmark files."""

import math

import numpy as np
import pytest

from psm.errors import (
    DegenerateConfigError,
    DegenerateOrbitError,
    DimensionMismatchError,
    LandmarkFormatError,
    NoConvergenceError,
    NotCenteredError,
)
from psm.geometry import SPHERE, Point, PointArray, geodesic_distance, points_matrix
from psm.tangent_stats import frechet_mean
from psm.shape import (
    _align_rotations,
    _preshape_rows,
    align_dataset,
    from_preshape,
    read_landmarks,
)

from helpers import DIGIT3_BASE, LEAF_BASE, digit3_configs, mirror_set, similarity_transform


def rotate(landmarks, theta):
    c, s = math.cos(theta), math.sin(theta)
    return landmarks @ np.array([[c, s], [-s, c]])


def preshape(landmarks):
    """The preshape row of one (k, 2) configuration."""
    return _preshape_rows(np.asarray(landmarks, dtype=float)[None], ["one"])[0]


def complex_inner(rows, base):
    """sum_j conj(z_j) w_j of each preshape row z with base w (a row or a matrix)."""
    return (rows.view(complex).conj() * base.view(complex)).sum(axis=-1)


class TestLandmarkConfig:
    """The (N, k, 2) array read_landmarks returns holds only planar
    configurations of k >= 3 finite landmarks."""

    def write(self, tmp_path, text):
        path = tmp_path / "lm.txt"
        path.write_text(text, encoding="utf-8")
        return path

    def test_shape_validation(self, tmp_path):
        # two landmarks, or three coordinates a landmark, in either layout
        for text in ("0 0\n1 0\n", "0 0 0\n1 0 0\n0 1 0\n",
                     "specimen_id,landmark_index,x,y\na,1,0,0\na,2,1,0\n"):
            with pytest.raises(LandmarkFormatError):
                read_landmarks(self.write(tmp_path, text))

    def test_nonfinite_rejected(self, tmp_path):
        for text in ("0 0\n1 nan\n0 1\n", "0 0\n1 0\n0 1\n\n0 0\n1 0\n-inf 1\n",
                     "specimen_id,landmark_index,x,y\na,1,0,0\na,2,1,0\na,3,0,inf\n"):
            with pytest.raises(ValueError, match="^landmark coordinates must be finite$"):
                read_landmarks(self.write(tmp_path, text))

    def test_k_property(self, tmp_path):
        blocks = "\n\n".join("\n".join(f"{x} {y}" for x, y in LEAF_BASE + i)
                             for i in range(3))
        csv_text = "specimen_id,landmark_index,x,y\n" + "".join(
            f"s{i},{j},{x},{y}\n" for i in range(3) for j, (x, y) in enumerate(LEAF_BASE + i))
        for text, ids in ((blocks, ["1", "2", "3"]), (csv_text, ["s0", "s1", "s2"])):
            landmarks, read_ids = read_landmarks(self.write(tmp_path, text))
            assert landmarks.shape == (3, 4, 2) and landmarks.dtype == np.float64
            assert landmarks.flags.c_contiguous
            assert read_ids == ids
            np.testing.assert_array_equal(landmarks, LEAF_BASE + np.arange(3.0)[:, None, None])


class TestToPreshape:
    def test_unit_norm_and_centered(self):
        rows = _preshape_rows(LEAF_BASE[None], ["leaf"])
        assert rows.shape == (1, 8)
        coords = rows[0]
        assert abs(np.linalg.norm(coords) - 1.0) <= 1e-12
        assert abs(coords[0::2].sum()) <= 1e-12
        assert abs(coords[1::2].sum()) <= 1e-12

    def test_interleaving_order(self):
        # isoceles triangle with known centered/scaled coordinates
        tri = np.array([[1.0, 0.0], [-1.0, 0.0], [0.0, 1.0]])
        p = preshape(tri)
        centered = tri - tri.mean(axis=0)
        expected = (centered / np.linalg.norm(centered)).ravel()
        np.testing.assert_allclose(p, expected, rtol=0.0, atol=1e-15)
        # x of landmark 2 sits at stride position 2
        assert p[2] == pytest.approx(expected[2])

    def test_translation_invariance(self):
        rows = _preshape_rows(np.stack([DIGIT3_BASE, DIGIT3_BASE + np.array([13.0, -4.5])]),
                              ["a", "b"])
        np.testing.assert_allclose(rows[0], rows[1], rtol=0.0, atol=1e-12)

    def test_scale_invariance(self):
        # scaled far past float64's square-root range the sizing neither
        # overflows nor underflows
        scales = [77.0, 1e-200, 1e200]
        rows = _preshape_rows(np.stack([DIGIT3_BASE] + [DIGIT3_BASE * s for s in scales]),
                              ["a", "b", "c", "d"])
        for row in rows[1:]:
            np.testing.assert_allclose(row, rows[0], rtol=0.0, atol=1e-12)

    def test_collapsed_configuration(self):
        landmarks = np.stack([DIGIT3_BASE[:5], np.ones((5, 2))])
        with pytest.raises(DegenerateConfigError, match="'point'"):
            _preshape_rows(landmarks, ["fine", "point"])


class TestAlignRotation:
    def test_undoes_known_rotation(self):
        base = preshape(DIGIT3_BASE)
        aligned = _align_rotations(preshape(rotate(DIGIT3_BASE, 0.9))[None], base)[0]
        np.testing.assert_allclose(aligned, base, rtol=0.0, atol=1e-12)

    def test_minimizes_over_orbit(self):
        rng = np.random.default_rng(80)
        base = Point(preshape(DIGIT3_BASE))
        other = preshape(DIGIT3_BASE + 0.2 * rng.standard_normal(DIGIT3_BASE.shape))
        aligned = _align_rotations(other[None], base.coords)
        inner = complex_inner(aligned, base.coords)[0]
        assert inner.real > 0.0 and abs(inner.imag) <= 1e-14
        best = geodesic_distance(Point(aligned[0]), base)
        for theta in np.linspace(0.0, 2.0 * math.pi, 720, endpoint=False):
            cand = Point(preshape(rotate(other.reshape(-1, 2), theta)))
            assert best <= geodesic_distance(cand, base) + 1e-12

    def test_idempotent_once_aligned(self):
        base = preshape(DIGIT3_BASE)
        once = _align_rotations(preshape(rotate(DIGIT3_BASE, -1.3))[None], base)
        twice = _align_rotations(once, base)
        np.testing.assert_allclose(once, twice, rtol=0.0, atol=1e-14)

    def test_orthogonal_orbit(self):
        # z and w with vanishing complex inner product: vdot cancels exactly
        z = np.array([[1.0, 0.0], [-1.0, 0.0], [0.0, 1.0], [0.0, -1.0]])
        w = np.array([[1.0, 0.0], [1.0, 0.0], [-1.0, 0.0], [-1.0, 0.0]])
        with pytest.raises(DegenerateOrbitError):
            _align_rotations(preshape(z)[None], preshape(w))


class TestAlignDataset:
    def test_similarity_orbit_collapses(self):
        # all inputs are similarity images of one configuration
        rng = np.random.default_rng(81)
        landmarks = np.stack([DIGIT3_BASE] + [similarity_transform(rng, DIGIT3_BASE)
                                              for _ in range(20)])
        aligned, mean = align_dataset(landmarks, ["orig"] + [str(i) for i in range(20)])
        mat = points_matrix(aligned)
        spread = np.abs(mat - mat[0]).max()
        assert spread <= 1e-8
        assert geodesic_distance(mean, aligned[0]) <= 1e-8

    def test_mean_is_frechet_stationary(self):
        aligned, mean = align_dataset(*digit3_configs(n=15, seed=9))
        from psm.geometry import log_map
        grad = np.mean([log_map(mean, p) for p in aligned], axis=0)
        assert np.linalg.norm(grad) <= 1e-8

    def test_aligned_rank_bound(self):
        # rotation + centering + scale remove 2k - (2k-3) = 3 dimensions
        aligned, mean = align_dataset(*digit3_configs(n=30, seed=42))
        mat = points_matrix(aligned)
        sv = np.linalg.svd(mat - mat.mean(axis=0), compute_uv=False)
        k = DIGIT3_BASE.shape[0]
        assert sv[2 * k - 3] <= 1e-10 * sv[0]

    def test_needs_two_configs(self):
        with pytest.raises(ValueError):
            align_dataset(DIGIT3_BASE[None], ["one"])

    def test_rows_match_the_single_pair_reference(self):
        # each row is a rotation of its own preshape whose complex inner
        # product with the returned mean is real and non-negative: the
        # rotation that brings it closest to the mean
        landmarks, ids = digit3_configs(n=25, seed=3)
        aligned, mean = align_dataset(landmarks, ids)
        assert isinstance(aligned, PointArray) and len(aligned) == 25
        rows = points_matrix(aligned)
        inner = complex_inner(rows, mean.coords)
        assert np.all(inner.real > 0.0)
        assert np.all(np.abs(inner.imag) <= 1e-14)
        own = complex_inner(rows, _preshape_rows(landmarks, ids))
        np.testing.assert_allclose(np.abs(own), 1.0, rtol=0.0, atol=1e-12)
        # a row does not depend on the others: one specimen aligned alone
        # onto the mean gives the same bits
        for i, row in enumerate(rows):
            alone = _align_rotations(_preshape_rows(landmarks[i:i + 1], ids[i:i + 1]), mean.coords)
            assert np.array_equal(row, alone[0])

    @pytest.mark.parametrize("seed", [53, 1029])
    def test_mirror_images_align(self, seed):
        # a shape, its mirror image and a jittered copy: 139 and 377
        # Procrustes rounds at these seeds
        aligned, mean = align_dataset(mirror_set(seed), ["shape", "mirror", "jittered"])
        inner = complex_inner(points_matrix(aligned), mean.coords)
        assert np.all(inner.real > 0.0)
        assert np.all(np.abs(inner.imag) <= 1e-14)
        assert geodesic_distance(frechet_mean(aligned), mean) <= 1e-8

    def test_no_convergence_names_the_cap(self, monkeypatch):
        monkeypatch.setattr("psm.shape._GPA_MAX_ITER", 50)
        with pytest.raises(NoConvergenceError, match="did not stabilize in 50 rounds$"):
            align_dataset(mirror_set(53), ["shape", "mirror", "jittered"])

    def test_collapsed_specimen_is_named(self):
        landmarks, ids = digit3_configs(n=9, seed=4)
        landmarks[4] = 2.5
        ids[4] = "flat-one"
        with pytest.raises(DegenerateConfigError, match="'flat-one'"):
            align_dataset(landmarks, ids)

    def test_builds_no_per_specimen_objects(self, monkeypatch):
        built = [0]

        def counted(self, post_init=Point.__post_init__):
            built[0] += 1
            post_init(self)

        monkeypatch.setattr(Point, "__post_init__", counted)
        per_size = []
        for n in (12, 120):
            built[0] = 0
            align_dataset(*digit3_configs(n=n, seed=1))
            per_size.append(built[0])
        # both sizes take the same number of Procrustes rounds at this seed,
        # so the Point count (a few per round) must not depend on n
        assert per_size[0] == per_size[1] < 12


class TestFromPreshape:
    def test_round_trip(self):
        p = preshape(DIGIT3_BASE)
        back = from_preshape(Point(p))
        assert back.shape == DIGIT3_BASE.shape and not back.flags.writeable
        assert back.tobytes() == p.tobytes()
        np.testing.assert_allclose(preshape(back), p, rtol=0.0, atol=1e-12)

    def test_rejects_uncentered_point(self):
        v = np.zeros(8)
        v[0] = 1.0  # x-sums to 1: not a centered configuration
        with pytest.raises(NotCenteredError):
            from_preshape(Point(v, SPHERE))

    def test_centering_tolerances(self):
        # from_preshape accepts a centroid offset up to 1e-6
        base = preshape(LEAF_BASE)
        for offset, recoverable in ((1e-8, True), (1e-5, False)):
            v = base + offset * np.eye(8)[0]
            p = Point(v / np.linalg.norm(v), SPHERE)
            if recoverable:
                assert from_preshape(p).shape == (4, 2)
            else:
                with pytest.raises(NotCenteredError):
                    from_preshape(p)

    def test_dimension_check(self):
        # an odd number of coordinates does not pair into (x, y) landmarks
        p = Point(np.array([0.6, 0.0, -0.8]))
        with pytest.raises(DimensionMismatchError, match="3 coordinates"):
            from_preshape(p)


class TestReadLandmarksCsv:
    def write(self, tmp_path, text):
        path = tmp_path / "lm.csv"
        path.write_text(text, encoding="utf-8")
        return path

    def test_basic_two_specimens(self, tmp_path, monkeypatch):
        text = "specimen_id,landmark_index,x,y\n"
        for sid in ("a", "b"):
            for i, (x, y) in enumerate(LEAF_BASE, start=1):
                text += f"{sid},{i},{x},{y}\n"
        # ids, indices and coordinates come from one np.loadtxt pass over the body
        calls = []
        loadtxt = np.loadtxt

        def counted(*args, **kwargs):
            calls.append(kwargs.get("usecols"))
            return loadtxt(*args, **kwargs)

        monkeypatch.setattr(np, "loadtxt", counted)
        landmarks, ids = read_landmarks(self.write(tmp_path, text))
        assert calls == [(0, 1, 2, 3)]
        assert ids == ["a", "b"]
        np.testing.assert_array_equal(landmarks, np.stack([LEAF_BASE, LEAF_BASE]))

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
        for block, sid in zip(*digit3_configs(n=200, seed=11)):
            for i, (x, y) in enumerate(block):
                lines.append(f"{sid},{i},{float(x)!r},{float(y)!r}")
        landmarks, ids = read_landmarks(self.write(tmp_path, "\n".join(lines) + "\n"))
        rows = [line.split(",") for line in lines[1:]]
        assert ids == list(dict.fromkeys(r[0] for r in rows))
        parsed = np.array([[float(r[2]), float(r[3])] for r in rows])
        np.testing.assert_array_equal(
            landmarks.reshape(-1, 2).view(np.uint64), parsed.view(np.uint64))

    # Each message and line is the one that reading row by row meets first.
    # A specimen's landmark count is checked when the next specimen starts,
    # before that row's own checks, or after the last row; the coordinates
    # are checked finite once every row is read.
    @pytest.mark.parametrize("body, error, message", [
        ("a,1,0,0\na,2,1\na,3,0,1\n", LandmarkFormatError, "line 3: expected 4 columns, got 3"),
        ("a,1,0,0\na,x,1,0\n", LandmarkFormatError,
         "line 3: unparsable row: invalid literal for int() with base 10: 'x'"),
        ("a,1,0,0\na,2,0,0\nb,1,0,0\n", LandmarkFormatError,
         "line 4: specimen 'a' has only 2 landmarks (need >= 3)"),
        ("a,1,0,0\na,2,1,0\na,3,0,1\nb,1,0,0\nb,2,1,0\n", LandmarkFormatError,
         "line 6: specimen 'b' has only 2 landmarks (need >= 3)"),
        ("a,1,0,0\na,2,nan,0\na,3,0,1\nb,1,0,0\nb,2,1,0\nb,3,0,1\n", ValueError,
         "landmark coordinates must be finite"),
        # a coordinate that is not finite, then a short specimen
        ("a,1,inf,0\na,2,1,0\na,3,0,1\nb,1,0,0\n", LandmarkFormatError,
         "line 5: specimen 'b' has only 1 landmarks (need >= 3)"),
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
        # a quoted id that spans lines: the next row's line is physical
        ('"a\nb",1,0,0\n"a\nb",2,1,0\n"a\nb",3,0,1\nc,x,1,0\n', LandmarkFormatError,
         "line 8: unparsable row: invalid literal for int() with base 10: 'x'"),
        ('"a\r\nb",1,0,0\n"a\nb",2,1,0\n\n"a\nb",3,0,1\nc,1,0,0\nd,1,0,0\n',
         LandmarkFormatError, "line 10: specimen 'c' has only 1 landmarks (need >= 3)"),
        ('a,1,0,0\n"a\nb",x,1,0\n', LandmarkFormatError,
         "line 3: unparsable row: invalid literal for int() with base 10: 'x'"),
        # int64 steps from the largest index to the smallest by +1 (mod 2**64)
        (f"a,{2**63 - 1},0,0\na,{-2**63},1,0\na,{1 - 2**63},0,1\n", LandmarkFormatError,
         f"line 3: landmark_index jumps from {2**63 - 1} to {-2**63}"),
    ])
    def test_errors_name_the_first_line(self, tmp_path, body, error, message):
        with pytest.raises(error) as exc:
            read_landmarks(self.write(tmp_path, "specimen_id,landmark_index,x,y\n" + body))
        assert str(exc.value) == message

    def test_index_beyond_int64_jumps_exactly(self, tmp_path):
        # 2**64 and 2**64 + 2 round to one float64; the jump names both ints
        body = f"a,{2**64},0,0\na,{2**64 + 2},1,0\na,{2**64 + 3},0,1\n"
        with pytest.raises(LandmarkFormatError) as exc:
            read_landmarks(self.write(tmp_path, "specimen_id,landmark_index,x,y\n" + body))
        assert str(exc.value) == \
            f"line 3: landmark_index jumps from {2**64} to {2**64 + 2}"

    def test_ids_that_strip_alike_are_one_specimen(self, tmp_path):
        body = "a,1,0,0\n a,2,1,0\na,3,0,1\n"
        landmarks, ids = read_landmarks(
            self.write(tmp_path, "specimen_id,landmark_index,x,y\n" + body))
        assert ids == ["a"]
        np.testing.assert_array_equal(landmarks, [[[0, 0], [1, 0], [0, 1]]])


class TestReadLandmarksBlocks:
    def test_blank_line_separated(self, tmp_path):
        path = tmp_path / "blocks.txt"
        lines = []
        for block in (LEAF_BASE, LEAF_BASE + 1.0):
            lines += [f"{x} {y}" for x, y in block]
            lines.append("")
        path.write_text("\n".join(lines), encoding="utf-8")
        landmarks, ids = read_landmarks(path)
        assert ids == ["1", "2"]
        np.testing.assert_allclose(landmarks[1], LEAF_BASE + 1.0, atol=0.0)

    def test_wrong_field_count(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("0 0\n1 0 9\n0 1\n", encoding="utf-8")
        with pytest.raises(LandmarkFormatError) as exc:
            read_landmarks(path)
        assert exc.value.line == 2

    def test_unparsable_numbers(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("0 0\n1 0\n0.5 abc\n", encoding="utf-8")
        with pytest.raises(LandmarkFormatError) as exc:
            read_landmarks(path)
        assert str(exc.value) == "line 3: unparsable numbers: '0.5 abc'"
        assert exc.value.line == 3

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

    # Each message and line is the one that reading row by row meets first:
    # a block's row count is checked at the blank line after it, or at the
    # last line, before any later row is parsed.
    @pytest.mark.parametrize("text, message", [
        ("0 0\n1 0\n\n0 0\nx 1\n0 1\n",
         "line 3: block starting at line 1 has only 2 rows (need >= 3)"),
        ("0 0\nx 1\n\n0 0\n1 0\n0 1\n", "line 2: unparsable numbers: 'x 1'"),
        ("0 0\n1 0\n0 1\n\n0 0\n1 0",
         "line 6: block starting at line 5 has only 2 rows (need >= 3)"),
        ("0 0\n1 0\n0 1\n\n0 0\n1 0\n\n\n",
         "line 7: block starting at line 5 has only 2 rows (need >= 3)"),
        ("0 0\n1 0\n0 1 2\n",
         "line 3: expected two whitespace-separated numbers, got 3 fields"),
    ])
    def test_errors_name_the_first_line(self, tmp_path, text, message):
        path = tmp_path / "blocks.txt"
        path.write_text(text, encoding="utf-8")
        with pytest.raises(LandmarkFormatError) as exc:
            read_landmarks(path)
        assert str(exc.value) == message


def test_landmark_rules_live_once(tmp_path, monkeypatch):
    # one array check states the specimen rules: numpy's path hands it int64
    # indices, the CSV row loop Python ints, and no streaming state is left
    import inspect

    import psm.shape

    check, seen = psm.shape._specimen_fault, []

    def spy(ids, index):
        seen.append(index.dtype)
        return check(ids, index)

    monkeypatch.setattr(psm.shape, "_specimen_fault", spy)
    header = "specimen_id,landmark_index,x,y\n"
    path = tmp_path / "lm.csv"
    path.write_text(header + "a,1,0,0\na,2,1,0\na,3,0,1\n", encoding="utf-8")
    read_landmarks(path)
    assert seen == [np.int64]
    path.write_text(header + "a,1,0,0\na,3,1,0\na,4,0,1\n", encoding="utf-8")
    with pytest.raises(LandmarkFormatError):
        read_landmarks(path)
    assert seen == [np.int64, np.int64, object]
    assert "flush" not in inspect.getsource(psm.shape)

