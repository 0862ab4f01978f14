"""Property tests of the geometry and the fit (hypothesis, derandomized).

derandomize=True draws the same examples on every run, so these tests are
as deterministic as the rest of the suite.
"""

import contextlib
import io
import json
import math
import shutil
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from psm import datagen, shape
from psm.cli import main
from psm.datagen import generate, meta_path_for
from psm.errors import PsmError
from psm.fitting import FitConfig, fit_submanifold
from psm.geometry import (
    FLAT,
    SPHERE,
    Point,
    PointArray,
    _distance_rows,
    _exp_rows,
    _log_rows,
    exp_map,
    geodesic_distance,
    log_map,
    points_matrix,
    project_to_sphere,
)
from psm.tangent_stats import GAUSSIAN, UNIFORM_BALL, KernelSpec, frechet_mean, local_covariance
from psm.viz import principal_directions, project_submanifold

from helpers import stacked

PROPERTY = settings(derandomize=True, max_examples=100, deadline=None)
CHARTS = pytest.mark.parametrize("chart", [SPHERE, FLAT])
COORD = st.floats(min_value=-5.0, max_value=5.0, allow_nan=False, allow_subnormal=False)


def _vector(draw, dim: int) -> np.ndarray:
    return np.array(draw(st.lists(COORD, min_size=dim, max_size=dim)))


@st.composite
def point_sets(draw, chart: str, count: int, min_dim: int = 2):
    """count points of one random ambient dimension in [min_dim, 6] on chart."""
    dim = draw(st.integers(min_value=min_dim, max_value=6))
    points = []
    for _ in range(count):
        vec = _vector(draw, dim)
        if chart == FLAT:
            points.append(Point(vec, FLAT))
        else:
            assume(np.linalg.norm(vec) > 0.1)
            points.append(project_to_sphere(vec))
    return points


@CHARTS
@PROPERTY
@given(data=st.data())
def test_exp_of_log_returns_the_point(chart, data):
    x, y = data.draw(point_sets(chart, 2))
    if chart == SPHERE:
        assume(float(x.coords @ y.coords) > -0.99)  # log is singular at the antipode
    back = exp_map(x, log_map(x, y))
    np.testing.assert_allclose(back.coords, y.coords, rtol=0.0, atol=1e-12)


@CHARTS
@PROPERTY
@given(data=st.data(), length=st.floats(min_value=1e-9, max_value=3.0))
def test_log_of_exp_returns_the_vector(chart, data, length):
    # A tangent of length 1e-9 to 3 comes back to within 2e-15 absolute
    # plus 1e-12 relative: the log takes its angle as atan2(|u|, <x, y>),
    # which keeps the digits of a short arc that arccos(<x, y>) loses.
    x, direction = data.draw(point_sets(chart, 2))
    vec = direction.coords
    if chart == SPHERE:
        vec = vec - (vec @ x.coords) * x.coords  # the part tangent at x
    assume(np.linalg.norm(vec) > 0.1)
    v = length * vec / np.linalg.norm(vec)
    back = log_map(x, exp_map(x, v))
    assert np.linalg.norm(back - v) <= 2e-15 + 1e-12 * length


@CHARTS
@PROPERTY
@given(data=st.data())
def test_distance_is_symmetric_and_satisfies_the_triangle_inequality(chart, data):
    x, y, z = data.draw(point_sets(chart, 3))
    assert geodesic_distance(x, y) == geodesic_distance(y, x)
    assert geodesic_distance(x, x) == 0.0
    assert (geodesic_distance(x, z)
            <= geodesic_distance(x, y) + geodesic_distance(y, z) + 1e-12)
    if chart == SPHERE:
        assert geodesic_distance(x, y) <= math.pi


def _kernel_rows(chart: str, dim: int, seed: int):
    """240 stacked (xs, ys, vs) rows on chart: ys equal to xs, exactly
    antipodal, an arc of about 1e-9 away, or random; vs of length 0, 1e-9,
    or up to 3.5, past the cut locus at pi."""
    rng = np.random.default_rng(seed)
    count = 240
    xs = rng.standard_normal((count, dim))
    raw = rng.standard_normal((count, dim))
    if chart == SPHERE:
        xs /= np.linalg.norm(xs, axis=1)[:, None]
        raw -= np.sum(raw * xs, axis=1)[:, None] * xs  # tangent at xs
    unit = raw / np.linalg.norm(raw, axis=1)[:, None]
    lengths = np.where(rng.random(count) < 0.5, rng.choice([0.0, 1e-9, math.pi, 3.5], count),
                       rng.uniform(0.0, 3.5, count))
    vs = lengths[:, None] * unit
    ys = rng.standard_normal((count, dim))
    if chart == SPHERE:
        ys /= np.linalg.norm(ys, axis=1)[:, None]
    kind = np.arange(count) % 4
    ys[kind == 0] = xs[kind == 0]
    ys[kind == 1] = -xs[kind == 1]
    near = _exp_rows(xs, 1e-9 * unit, chart)[0]
    ys[kind == 2] = near[kind == 2]
    return xs, ys, vs


@CHARTS
@PROPERTY
@given(dim=st.integers(min_value=2, max_value=6), seed=st.integers(0, 2**32 - 1))
def test_row_kernels_do_not_depend_on_stacking(chart, dim, seed):
    # Each row of _exp_rows, _log_rows and _distance_rows, values and flags
    # alike, is the same bits alone, in the stack, and in the reversed stack.
    def parts(out):
        return out if isinstance(out, tuple) else (out,)

    xs, ys, vs = _kernel_rows(chart, dim, seed)
    for kernel, other in ((_exp_rows, vs), (_log_rows, ys), (_distance_rows, ys)):
        stacked_out = parts(kernel(xs, other, chart))
        alone = [parts(kernel(xs[i:i + 1], other[i:i + 1], chart)) for i in range(len(xs))]
        reversed_out = parts(kernel(xs[::-1], other[::-1], chart))
        for part, values in enumerate(stacked_out):
            np.testing.assert_array_equal(np.concatenate([out[part] for out in alone]), values)
            np.testing.assert_array_equal(reversed_out[part][::-1], values)
    if chart == SPHERE:
        assert _exp_rows(xs, vs, chart)[1].any()
        assert _log_rows(xs, ys, chart)[1].any()


@PROPERTY
@given(data=st.data(),
       kernel=st.sampled_from([KernelSpec(), KernelSpec(UNIFORM_BALL, 2.0),
                               KernelSpec(GAUSSIAN, 0.5)]),
       demean=st.booleans())
def test_local_covariance_annihilates_its_base_point(data, kernel, demean):
    center, *points = data.draw(point_sets(SPHERE, 6, min_dim=3))
    assume(all(float(center.coords @ p.coords) > -0.99 for p in points))
    assume(any(geodesic_distance(center, p) <= 2.0 for p in points))
    cov = local_covariance(center, stacked(points), kernel, demean=demean)
    np.testing.assert_allclose(cov @ center.coords, 0.0, rtol=0.0, atol=1e-12)


# A small anisotropic Gaussian cloud on a flat chart, fitted from the origin.
_CLOUD = np.random.default_rng(7).standard_normal((40, 3)) * [1.0, 0.5, 0.2]
_CLOUD_CFG = FitConfig(epsilon=0.05, delta=0.5, kernel=KernelSpec(GAUSSIAN, 0.5),
                       num_directions=8, max_net_length=1.0)

# A sea_wave sheet on S^3, fitted from its Frechet mean with a Gaussian
# kernel, which has no edge for a rounding to carry a data row across.  Every
# decision of the reference fit keeps a margin far above rounding: at each
# net point the hull test's min <log_c(y), log_c(prev)> / |log_c(prev)| is
# at least 0.43 from 0, the nearest data row at least 3.6e-3 from delta, and
# the second and third eigenvalues of each covariance at least 0.43 of the
# first apart (0.26 for the first two at the start, which order the fan).
# Rotated and permuted fits matched every net to 5e-15 in a probe of 60 each;
# the sphere tests allow 1e-12.
_SHEET = generate("sea_wave", 100, 3)[0].coords
_SHEET_CFG = FitConfig(epsilon=0.05, kernel=KernelSpec(GAUSSIAN, 0.3), num_directions=16,
                       max_net_length=0.6)
_SHEET_START = frechet_mean(PointArray(_SHEET)).coords


def _fit_from(rows: np.ndarray, start: np.ndarray, chart: str, cfg: FitConfig):
    return fit_submanifold(PointArray(rows, chart), Point(start, chart), cfg)


def _assert_same_nets(fit, ref, atol: float, relabel=lambda index: index, rotate=None):
    """Each net of ref equals fit's net relabel(index), its points times rotate.T."""
    assert len(fit.nets) == len(ref.nets)
    for net in ref.nets:
        mate = fit.nets[relabel(net.direction_index) - 1]
        assert mate.stop_reason is net.stop_reason
        assert len(mate.points) == len(net.points)
        want = points_matrix(net.points)
        np.testing.assert_allclose(points_matrix(mate.points),
                                   want if rotate is None else want @ rotate.T,
                                   rtol=0.0, atol=atol)


_CLOUD_FIT = _fit_from(_CLOUD, np.zeros(3), FLAT, _CLOUD_CFG)
_SHEET_FIT = _fit_from(_SHEET, _SHEET_START, SPHERE, _SHEET_CFG)


@PROPERTY
@given(order=st.permutations(range(len(_CLOUD))))
def test_fit_does_not_depend_on_data_order(order):
    fit = _fit_from(_CLOUD[list(order)], np.zeros(3), FLAT, _CLOUD_CFG)
    _assert_same_nets(fit, _CLOUD_FIT, atol=1e-9)


@PROPERTY
@given(order=st.permutations(range(len(_SHEET))))
def test_sphere_fit_does_not_depend_on_data_order(order):
    fit = _fit_from(_SHEET[list(order)], _SHEET_START, SPHERE, _SHEET_CFG)
    _assert_same_nets(fit, _SHEET_FIT, atol=1e-12)


# An orthogonal Q applied to the data and the start maps every net to Q times
# a net of the original fan.  eigenframe fixes each eigenvector's sign by its
# first nonzero coordinate, so the rotated fit's e1 and e2 are +/- Q e1 and
# +/- Q e2, and the fan is relabelled: net l maps to net l, D/2 - l, D - l or
# D/2 + l (mod D).  The flat cloud's start is off the origin, which every Q
# fixes.
_START = np.array([0.1, -0.05, 0.02])
# (e1 sign, e2 sign) -> (offset, sign) of the relabelling l -> offset + sign * l
_RELABEL = {(1, 1): (0, 1), (-1, 1): (1, -1), (1, -1): (0, -1), (-1, -1): (1, 1)}


class _Rotated:
    """A reference fit of rows from start, and its exports, for rotations of
    both to be checked against: nets, PD1 and PD2, and the data block of the
    projection, to atol."""

    def __init__(self, rows, start, chart, cfg, atol):
        self.rows, self.start, self.chart, self.cfg, self.atol = rows, start, chart, cfg, atol
        self.fit = _fit_from(rows, start, chart, cfg)
        self.pds = principal_directions(self.fit)[0]
        self.data_block = self.block(self.fit, rows)

    def block(self, sub, rows):
        blocks = project_submanifold(sub, PointArray(rows, self.chart))
        return next(block for kind, _, block in blocks if kind == "data")

    def check(self, q: np.ndarray) -> None:
        ref, dim, num = self.fit, self.cfg.dim, self.cfg.num_directions
        rows = self.rows @ q.T
        fit = _fit_from(rows, q @ self.start, self.chart, self.cfg)
        rotated_frame = ref.frame_at_start.basis[:dim] @ q.T
        flips = np.sign(np.sum(fit.frame_at_start.basis[:dim] * rotated_frame, axis=1))
        half, sign = _RELABEL[tuple(int(f) for f in flips)]
        _assert_same_nets(fit, ref, self.atol, rotate=q,
                          relabel=lambda index: (half * num // 2 + sign * index - 1) % num + 1)
        # the exports: the relabelling maps PD1's net pair (D/2, D) onto
        # itself, reversed when e1 flips, and PD2's (D/4, 3D/4) reversed when
        # e2 flips; the projection basis maps to its rotation up to one sign
        # per vector
        pds, _ = principal_directions(fit)
        for name, flip in (("pd1", flips[0]), ("pd2", flips[1])):
            got = pds[name].coords[::-1] if flip < 0 else pds[name].coords
            np.testing.assert_allclose(got, self.pds[name].coords @ q.T, rtol=0.0, atol=self.atol)
        got = self.block(fit, rows)
        column_signs = np.where(np.sum(got * self.data_block, axis=0) < 0.0, -1.0, 1.0)
        np.testing.assert_allclose(got, self.data_block * column_signs, rtol=0.0, atol=self.atol)


_CLOUD_ROTATED = _Rotated(_CLOUD, _START, FLAT, _CLOUD_CFG, atol=1e-9)
_SHEET_ROTATED = _Rotated(_SHEET, _SHEET_START, SPHERE, _SHEET_CFG, atol=1e-12)


def _orthogonal(entries, reflect: bool) -> np.ndarray:
    n = math.isqrt(len(entries))
    q, _ = np.linalg.qr(np.reshape(entries, (n, n)))
    return -q if reflect else q


@PROPERTY
@given(entries=st.lists(COORD, min_size=9, max_size=9), reflect=st.booleans())
def test_fit_is_rotation_equivariant(entries, reflect):
    _CLOUD_ROTATED.check(_orthogonal(entries, reflect))


@PROPERTY
@given(entries=st.lists(COORD, min_size=16, max_size=16), reflect=st.booleans())
def test_sphere_fit_is_rotation_equivariant(entries, reflect):
    # Q in O(4) maps S^3 onto itself; rows and start stay unit vectors
    _SHEET_ROTATED.check(_orthogonal(entries, reflect))


# -- file readers: numpy's parse against the row loops that word its errors --

# tokens the row loops meet in the wild: non-finite values, a quoted number
# (the csv module unquotes it, numpy does not), a padded one, and tokens that
# float() or int() reject, or that numpy rejects and Python accepts (1_0)
_ODD_TOKENS = ["nan", "inf", "-inf", "Infinity", "1e999", '"0.5"', " 0.5 ", "one", "1_0",
               "1.0", "", " ", "1.0.0"]
# rows the row loops skip or reject: empty, whitespace-only, blank fields
_ODD_ROWS = ["", "", "", "   ", "\t", " , ", ",", ",,,"]
# ids that numpy might read otherwise than the csv module after
# str.splitlines: quoted, holding NUL, or a line break other than \n and \r
_ODD_IDS = ['"d"', "e\x00", "f\x0c", "g\u2028", "h\x85"]


def _number(draw, value: float) -> str:
    return "%.17g" % value if draw(st.booleans()) else repr(value)


def _spoil(draw, lines: list[str]) -> list[str]:
    """lines with 0-2 of: an odd row inserted, a field of a data row swapped
    for an odd token, dropped, doubled, quoted, or quoted with a line break
    inside, so that its record spans two lines."""
    for _ in range(draw(st.integers(0, 2))):
        if len(lines) < 2:
            break
        at = draw(st.integers(1, len(lines) - 1))
        fields = lines[at].split(",")
        col = draw(st.integers(0, len(fields) - 1))
        kind = draw(st.integers(0, 5))
        if kind == 0:
            lines.insert(at, draw(st.sampled_from(_ODD_ROWS)))
            continue
        if kind == 1:
            fields[col] = draw(st.sampled_from(_ODD_TOKENS))
        elif kind == 2:
            del fields[col]
        elif kind == 3:
            fields.insert(col, fields[col])
        elif kind == 4:
            fields[col] = f'"{fields[col]}"'
        else:
            cut = draw(st.integers(0, len(fields[col])))
            fields[col] = '"' + fields[col][:cut] + draw(st.sampled_from(["\n", "\r\n"])) \
                + fields[col][cut:] + '"'
        lines[at] = ",".join(fields)
    return lines


def _text(draw, lines: list[str]) -> str:
    newline = draw(st.sampled_from(["\n", "\r\n"]))
    return newline.join(_spoil(draw, lines)) + draw(st.sampled_from([newline, ""]))


@st.composite
def dataset_files(draw):
    """(csv text, sidecar text or None) of 0-6 rows, unit vectors or not,
    now and then each with a column too many."""
    width = draw(st.integers(2, 4))
    unit = draw(st.booleans())
    extra = draw(st.sampled_from(["", "", "", ",0"]))  # one column too many in every row
    lines = ["point_index," + ",".join(f"c{j}" for j in range(width))]
    for i in range(draw(st.integers(0, 6))):
        row = _vector(draw, width)
        if unit:
            assume(np.linalg.norm(row) > 0.1)
            row = row / np.linalg.norm(row)
        lines.append(",".join([str(i)] + [_number(draw, v) for v in row.tolist()]) + extra)
    chart = draw(st.sampled_from([None, SPHERE, FLAT]))
    sidecar = None if chart is None else json.dumps({"chart": chart})
    return _text(draw, lines), sidecar


@st.composite
def landmark_files(draw):
    """CSV-layout landmark text: 0-4 specimens of k landmarks, now and then
    one short or long, empty lines between them, an extra column, ids that
    repeat, carry spaces or are _ODD_IDS, first indices up to the int64
    edge and past it, and indices that are no int (1.0, 1_0, one)."""
    k = draw(st.integers(3, 4))
    extra = draw(st.sampled_from(["", "", "", ",9"]))
    lines = ["specimen_id,landmark_index,x,y" + extra]
    n = draw(st.sampled_from([0, 1, 2, 2, 3, 3, 4]))
    ids = draw(st.lists(st.sampled_from(["a", " b", "c ", "spec0001"]), min_size=n, max_size=n,
                        unique=draw(st.integers(0, 3)) > 0))
    if ids and draw(st.integers(0, 3)) == 0:
        ids[draw(st.integers(0, n - 1))] = draw(st.sampled_from(_ODD_IDS))
    gap = draw(st.sampled_from([[], [], [], [""]]))  # an empty line before each specimen
    for sid in ids:
        lines += gap
        first = draw(st.sampled_from([0] * 6 + [1, -1, 2**63 - 2, 2**64]))
        count = k + draw(st.sampled_from([0] * 10 + [-1, 1]))
        for i in range(count):
            index = str(first + i) if draw(st.integers(0, 79)) else \
                draw(st.sampled_from(["1.0", "1_0", "one"]))
            x, y = _vector(draw, 2).tolist()
            lines.append(f"{sid},{index},{_number(draw, x)},{_number(draw, y)}{extra}")
    return _text(draw, lines)


def _outcome(read, path):
    """read(path) as ("ok", result) or as the type and message it raised."""
    try:
        return "ok", read(path)
    except Exception as exc:  # the row loops may raise any type; compare them
        return type(exc), str(exc)


def _row_loop_only(module, loader: str, read, path):
    """_outcome of read(path) with module's numpy loader declining every file."""
    with mock.patch.object(module, loader, lambda path: None):
        return _outcome(read, path)


FILES = settings(PROPERTY, max_examples=500,
                 suppress_health_check=[HealthCheck.function_scoped_fixture])


@FILES
@given(files=dataset_files())
def test_dataset_reader_equals_its_row_loop(tmp_path, files):
    text, sidecar = files
    path = tmp_path / "d.csv"
    path.write_text(text, encoding="utf-8", newline="")
    meta = meta_path_for(path)
    meta.unlink(missing_ok=True)
    if sidecar is not None:
        meta.write_text(sidecar, encoding="utf-8")
    got = _outcome(datagen.read_dataset_csv, path)
    want = _row_loop_only(datagen, "_load_coordinates", datagen.read_dataset_csv, path)
    if got[0] == "ok" and want[0] == "ok":
        (points, meta_got), (points_want, meta_want) = got[1], want[1]
        assert points.coords.tobytes() == points_want.coords.tobytes()
        assert points.coords.shape == points_want.coords.shape
        assert (points.chart, meta_got) == (points_want.chart, meta_want)
    else:
        assert got == want


@FILES
@given(text=landmark_files())
def test_landmark_reader_equals_its_row_loop(tmp_path, text):
    path = tmp_path / "lm.csv"
    path.write_text(text, encoding="utf-8", newline="")
    got = _outcome(shape.read_landmarks, path)
    want = _row_loop_only(shape, "_load_landmarks_csv", shape.read_landmarks, path)
    if got[0] == "ok" and want[0] == "ok":
        (landmarks, ids), (landmarks_want, ids_want) = got[1], want[1]
        assert ids == ids_want
        assert landmarks.shape == landmarks_want.shape
        assert landmarks.tobytes() == landmarks_want.tobytes()
    else:
        assert got == want


# -- the command line's contract: exit 0 with a finite score, or 1/2 with one line --

@st.composite
def fit_runs(draw):
    """(points, command and flags, values): 3-60 rows of 2-5 columns on
    either chart, a Gaussian cloud scaled and shifted up to 1e16, one column
    maybe zeroed (then normalized on the sphere), and fit or
    compare-geodesic with the flags of a fit from the mean or from one data
    row; values holds the same settings for an in-process fit."""
    chart = draw(st.sampled_from([SPHERE, FLAT]))
    rows, width = draw(st.integers(3, 60)), draw(st.integers(2, 5))
    scale = draw(st.sampled_from([1e-3, 0.1, 1.0, 10.0]))
    shift = draw(st.sampled_from([0.0, 1.0, 1e6, 1e12, 5e12, 1e14, 1e16]))
    xs = np.random.default_rng(draw(st.integers(0, 2**16))).standard_normal((rows, width))
    xs = xs * scale + shift
    zero = draw(st.none() | st.integers(0, width - 1))
    if zero is not None:
        xs[:, zero] = 0.0
    if chart == SPHERE:
        xs = xs / np.linalg.norm(xs, axis=1, keepdims=True)
    values = {"command": draw(st.sampled_from(["fit", "compare-geodesic"])),
              "k": draw(st.integers(1, 4)),
              "directions": draw(st.sampled_from([4, 8, 12])),
              "epsilon": draw(st.sampled_from([0.005, 0.02, 0.1])),
              "kernel": draw(st.sampled_from(["uniform", "gaussian"])),
              "bandwidth": draw(st.sampled_from(["0.1", "0.4", "2", "inf", "1e-160"])),
              "start": draw(st.none() | st.integers(0, rows - 1))}
    flags = [values["command"]]
    for key in ("k", "directions", "epsilon", "kernel", "bandwidth"):
        flags += [f"--{key}", str(values[key])]
    if values["start"] is not None:
        flags.append("--start=" + ",".join(repr(v) for v in xs[values["start"]].tolist()))
    return PointArray(xs, chart), flags, values


def _fit_raises(points: PointArray, values: dict) -> bool:
    """Whether the library itself refuses a run's fit: its start (the
    Frechet mean, or the chosen data row) or fit_submanifold raises."""
    kernel = KernelSpec(UNIFORM_BALL if values["kernel"] == "uniform" else GAUSSIAN,
                        float(values["bandwidth"]))
    try:
        cfg = FitConfig(epsilon=values["epsilon"], kernel=kernel,
                        num_directions=values["directions"], dim=values["k"])
        row = values["start"]
        if row is None:
            start = frechet_mean(points)
        elif points.chart == SPHERE:
            start = project_to_sphere(points.coords[row])
        else:
            start = Point(points.coords[row], FLAT)
        fit_submanifold(points, start, cfg)
    except (PsmError, ValueError):
        return True
    return False


CLI_RUNS = settings(PROPERTY, max_examples=150,
                    suppress_health_check=[HealthCheck.function_scoped_fixture])


@CLI_RUNS
@given(case=fit_runs())
def test_cli_fit_exits_cleanly(tmp_path, case):
    # Exit 0 with every export, 2 for a usage error, or 1 only where the
    # library's own fit of the same data refuses it: no export or diagnostic
    # may fail a fit that has finished.
    points, (command, *flags), values = case
    data, out = tmp_path / "data.csv", tmp_path / "run"
    shutil.rmtree(out, ignore_errors=True)
    datagen.write_dataset_csv(points, data, {"chart": points.chart})
    err = io.StringIO()
    with warnings.catch_warnings(), contextlib.redirect_stderr(err):
        warnings.simplefilter("error")
        code = main([command, str(data), *flags, "--quiet", "--out", str(out)])
        refused = code == 1 and _fit_raises(datagen.read_dataset_csv(data)[0], values)
    lines = err.getvalue().splitlines()
    written = sorted(p.name for p in out.glob("*"))
    if code == 0:
        assert lines == []
        assert written == ["projected.csv", "submanifold.csv", "summary.json"]
        summary = json.loads((out / "summary.json").read_text())
        assert math.isfinite(summary["variation_score"]["total"])
    else:
        assert code == 2 or refused, lines
        assert len(lines) == 1
        assert lines[0].startswith("error: " if code == 1 else "usage error: ")
        assert written == []


# -- psm shapes: exit 0 with centred unit preshapes, or 1 with one line --

@st.composite
def shape_runs(draw):
    """Landmark-file text of 1-6 specimens of k = 3-6 landmarks: each a
    rotated, scaled and moved image of one jittered base shape, a repeat of
    an earlier specimen, or a collinear configuration; then every
    coordinate scaled by 10^-200 to 10^200 and shifted."""
    k, n = draw(st.integers(3, 6)), draw(st.sampled_from([3, 2, 4, 6, 1]))
    rng = np.random.default_rng(draw(st.integers(0, 2**16)))
    base = rng.standard_normal((k, 2))
    jitter = draw(st.sampled_from([0.0, 0.01, 0.3]))
    specimens = []
    for _ in range(n):
        kind = draw(st.sampled_from(["image", "image", "repeat", "collinear"]))
        if kind == "repeat" and specimens:
            specimens.append(specimens[draw(st.integers(0, len(specimens) - 1))])
            continue
        block = np.outer(rng.standard_normal(k), rng.standard_normal(2)) \
            if kind == "collinear" else base + jitter * rng.standard_normal((k, 2))
        angle = rng.uniform(0.0, 2.0 * math.pi)
        rot = np.array([[math.cos(angle), -math.sin(angle)], [math.sin(angle), math.cos(angle)]])
        specimens.append(block @ rot.T * rng.uniform(0.5, 2.0) + rng.uniform(-3.0, 3.0, 2))
    scale = 10.0 ** draw(st.integers(-200, 200))
    # an absolute shift, or one relative to the scale
    shift = draw(st.sampled_from([0.0, 1.0, 1e6])) * draw(st.sampled_from([1.0, scale]))
    lines = ["specimen_id,landmark_index,x,y"]
    for s, block in enumerate(specimens):
        rows = (block * scale + shift).tolist()
        lines += [f"s{s},{i},{x!r},{y!r}" for i, (x, y) in enumerate(rows)]
    return "\n".join(lines) + "\n"


def _align_raises(path) -> bool:
    """Whether the library itself refuses to align the landmark file."""
    try:
        shape.align_dataset(*shape.read_landmarks(path))
    except (PsmError, ValueError):
        return True
    return False


@CLI_RUNS
@given(text=shape_runs())
def test_cli_shapes_exits_cleanly(tmp_path, text):
    # Exit 0 with centred unit preshapes, or 1 with one error line only where
    # the library's own alignment of the same file raises; never a
    # traceback or a numpy warning.
    path, out = tmp_path / "landmarks.csv", tmp_path / "pre"
    shutil.rmtree(out, ignore_errors=True)
    path.write_text(text, encoding="utf-8")
    err = io.StringIO()
    with warnings.catch_warnings(), contextlib.redirect_stderr(err):
        warnings.simplefilter("error")
        code = main(["shapes", str(path), "--quiet", "--out", str(out)])
    lines = err.getvalue().splitlines()
    written = sorted(p.name for p in out.glob("*"))
    if code == 0:
        assert lines == []
        assert written == ["preshapes.csv", "preshapes.meta.json"]
        xs = np.loadtxt(out / "preshapes.csv", delimiter=",", skiprows=1, ndmin=2)[:, 1:]
        np.testing.assert_allclose(np.linalg.norm(xs, axis=1), 1.0, rtol=0.0, atol=1e-12)
        # a centroid is known to the rounding of the largest |coordinate|:
        # k eps of it, over the configuration's centred size
        landmarks, _ = shape.read_landmarks(path)
        unit = landmarks / np.abs(landmarks).max(axis=(1, 2))[:, None, None]
        size = np.linalg.norm(unit - unit.mean(axis=1, keepdims=True), axis=(1, 2))
        tol = 4 * landmarks.shape[1] * np.finfo(float).eps * (1.0 + 1.0 / size)
        assert np.all(np.abs(xs[:, 0::2].sum(axis=1)) <= tol)
        assert np.all(np.abs(xs[:, 1::2].sum(axis=1)) <= tol)
    else:
        assert code == 1 and _align_raises(path), lines
        assert len(lines) == 1 and lines[0].startswith("error: ")
        assert written == []
