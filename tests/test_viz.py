"""Polyline pairing, eigen projection, shape grids, file writers."""

import json
import math
import tracemalloc

import numpy as np
import pytest

from psm.datagen import generate
from psm.errors import NotAShapeFitError
from psm.fitting import FitConfig, Net, StopReason, Submanifold, fit_submanifold
from psm.geometry import FLAT, Point, PointArray, exp_map, log_map
from psm.shape import _preshape_rows
from psm.tangent_stats import (
    GAUSSIAN,
    EigenFrame,
    KernelSpec,
    eigenframe,
    frechet_mean,
    local_covariance,
)
from psm.viz import (
    _pd_pairs,
    _resample_branch,
    principal_directions,
    principal_geodesics,
    project_submanifold,
    shape_grid,
    write_projected_csv,
    write_shapes_json,
    write_submanifold_csv,
)

from helpers import DIGIT3_BASE, read_csv_rows


def synthetic_submanifold(num_directions=8, levels=3, epsilon=0.05, dim=2,
                          ambient=4):
    """Fan of straight flat-chart nets: net l walks along angle 2*pi*l/D."""
    start = Point(np.zeros(ambient), FLAT)
    e1 = np.eye(ambient)[0]
    e2 = np.eye(ambient)[1]
    frame = EigenFrame(np.stack([e1, e2])[:dim], np.array([2.0, 1.0])[:dim])
    if dim == 1:
        dirs = {1: e1, 2: -e1}
    else:
        dirs = {l: math.cos(2 * math.pi * l / num_directions) * e1
                   + math.sin(2 * math.pi * l / num_directions) * e2
                for l in range(1, num_directions + 1)}
    cfg = FitConfig(epsilon=epsilon, delta=0.2, kernel=KernelSpec(),
                    num_directions=num_directions, dim=dim)
    nets = []
    for l, d in dirs.items():
        pts = PointArray([i * epsilon * d for i in range(levels + 1)], FLAT)
        nets.append(Net(l, pts, StopReason.LENGTH_EXCEEDED))
    return Submanifold(start, tuple(nets), frame, cfg)


def preshape_submanifold(num_directions=8, levels=4, epsilon=0.05, dim=2,
                         seed=110):
    """Fan of geodesic nets on the preshape sphere of the digit-3 template."""
    start = Point(_preshape_rows(DIGIT3_BASE[None], ["digit3"])[0])
    n = start.ambient_dim
    k = n // 2
    # tangent directions with vanishing stride sums keep every net point a preshape
    sx = np.zeros(n)
    sx[0::2] = 1.0
    sy = np.zeros(n)
    sy[1::2] = 1.0
    rng = np.random.default_rng(seed)
    basis = []
    for _ in range(2):
        v = rng.standard_normal(n)
        for w in (start.coords, sx / math.sqrt(k), sy / math.sqrt(k), *basis):
            v = v - (v @ w) * w
        basis.append(v / np.linalg.norm(v))
    u, w = basis
    frame = EigenFrame(np.stack([u, w])[:dim], np.array([2.0, 1.0])[:dim])
    if dim == 1:
        dirs = {1: u, 2: -u}
    else:
        dirs = {l: math.cos(2 * math.pi * l / num_directions) * u
                   + math.sin(2 * math.pi * l / num_directions) * w
                for l in range(1, num_directions + 1)}
    cfg = FitConfig(epsilon=epsilon, delta=0.2, kernel=KernelSpec(),
                    num_directions=num_directions, dim=dim)
    nets = []
    for l, d in dirs.items():
        pts = [start]
        for i in range(1, levels + 1):
            pts.append(exp_map(start, i * epsilon * d))
        nets.append(Net(l, PointArray([p.coords for p in pts]), StopReason.LENGTH_EXCEEDED))
    return Submanifold(start, tuple(nets), frame, cfg)


class TestPrincipalDirections:
    def test_pairing_indices(self):
        sub = synthetic_submanifold(num_directions=8, levels=3)
        pds, note = principal_directions(sub)
        assert list(pds) == ["pd1", "pd2", "pd3", "pd4"]
        by_index = {n.direction_index: n for n in sub.nets}

        def expect(first, second):
            points = (list(reversed(by_index[first].points[1:])) + [sub.start]
                      + list(by_index[second].points[1:]))
            return np.stack([p.coords for p in points])

        for name, (first, second) in (("pd1", (4, 8)), ("pd2", (2, 6)),
                                      ("pd3", (1, 5)), ("pd4", (3, 7))):
            polyline = pds[name]
            assert isinstance(polyline, PointArray) and polyline.chart == FLAT
            np.testing.assert_array_equal(polyline.coords, expect(first, second))
        assert note is None

    def test_polyline_through_start_once(self):
        sub = synthetic_submanifold(num_directions=8, levels=3)
        pd1 = principal_directions(sub)[0]["pd1"]
        hits = [p for p in pd1 if np.array_equal(p.coords, sub.start.coords)]
        assert len(hits) == 1
        assert len(pd1) == 3 + 1 + 3

    def test_not_divisible_by_eight(self):
        sub = synthetic_submanifold(num_directions=4, levels=2)
        pds, note = principal_directions(sub)
        assert list(pds) == ["pd1", "pd2"]
        assert "8" in note

    def test_flow_only_pd1(self):
        sub = synthetic_submanifold(dim=1, levels=3)
        pds, note = principal_directions(sub)
        by_index = {n.direction_index: n for n in sub.nets}
        want = (list(reversed(by_index[2].points[1:])) + [sub.start]
                + list(by_index[1].points[1:]))
        np.testing.assert_array_equal(pds["pd1"].coords, np.stack([p.coords for p in want]))
        assert list(pds) == ["pd1"]
        assert "flow" in note

    def test_dict_holds_only_defined_pds(self):
        sub = synthetic_submanifold(num_directions=4, levels=2)
        pds, _ = principal_directions(sub)
        assert sorted(pds) == ["pd1", "pd2"] == sorted(_pd_pairs(sub))


class TestPairingOnFits:
    @pytest.mark.parametrize("dim, num_directions, names", [
        (1, 4, ["pd1"]),
        (2, 16, ["pd1", "pd2", "pd3", "pd4"]),
    ])
    def test_paired_seeds_are_opposite(self, dim, num_directions, names):
        data, _ = generate("sea_wave", 200, 1)
        start = frechet_mean(data)
        sub = fit_submanifold(data, start, FitConfig(dim=dim, num_directions=num_directions))
        pairs = _pd_pairs(sub)
        assert list(pairs) == names
        for first, second in pairs.values():
            np.testing.assert_allclose(log_map(start, first.points[1]),
                                       -log_map(start, second.points[1]),
                                       rtol=0.0, atol=1e-12)
        # each geodesic leaves the join along its PD's second-listed net
        pds, _ = principal_directions(sub)
        geodesics = principal_geodesics(sub)
        assert sorted(geodesics) == [int(name[2]) for name in names[:2]]
        for key, curve in geodesics.items():
            first, second = pairs[f"pd{key}"]
            assert len(curve) == len(pds[f"pd{key}"])
            join = len(first.points) - 1
            np.testing.assert_array_equal(curve[join].coords, start.coords)
            np.testing.assert_allclose(log_map(start, curve[join + 1]),
                                       log_map(start, second.points[1]),
                                       rtol=0.0, atol=1e-12)

    def test_k3_fan_exports_no_directions(self):
        rng = np.random.default_rng(113)
        xs = rng.standard_normal((60, 4)) * [2.0, 1.5, 1.0, 0.1]
        data = PointArray(xs, FLAT)
        start = Point(xs.mean(axis=0), FLAT)
        cfg = FitConfig(epsilon=0.05, delta=3.0, kernel=KernelSpec(), num_directions=8,
                        max_net_length=0.2, dim=3)
        sub = fit_submanifold(data, start, cfg)
        assert len(sub.nets) == 8
        pds, note = principal_directions(sub)
        assert pds == {}
        assert "no opposite nets" in note
        assert principal_geodesics(sub) == {}


class TestProjectSubmanifold:
    def fit_small(self, seed=111, kernel=KernelSpec()):
        rng = np.random.default_rng(seed)
        xs = rng.standard_normal((80, 4)) * [2.0, 1.0, 0.5, 0.1]
        data = PointArray(xs, FLAT)
        start = Point(xs.mean(axis=0), FLAT)
        cfg = FitConfig(epsilon=0.05, delta=3.0, kernel=kernel,
                        num_directions=4, max_net_length=0.3)
        return fit_submanifold(data, start, cfg), data

    @staticmethod
    def rows_of(blocks, kind):
        return [rows for block_kind, _, rows in blocks if block_kind == kind]

    def test_start_maps_to_origin(self):
        sub, data = self.fit_small()
        pds, _ = principal_directions(sub)
        blocks = project_submanifold(sub, data, pds)
        # the start is PD1's row at the join, after the reversed first branch
        join = len(_pd_pairs(sub)["pd1"][0].points) - 1
        np.testing.assert_allclose(self.rows_of(blocks, "pd1")[0][join], np.zeros(3),
                                   rtol=0.0, atol=1e-15)
        for rows in self.rows_of(blocks, "net"):
            np.testing.assert_allclose(rows[0], np.zeros(3), rtol=0.0, atol=1e-15)

    def test_basis_vectors_hit_standard_axes(self):
        sub, data = self.fit_small()
        basis = eigenframe(local_covariance(sub.start, data, sub.config.kernel),
                           sub.start, 3).basis
        shifted = {i: PointArray((sub.start.coords + basis[i])[None], FLAT) for i in range(3)}
        blocks = project_submanifold(sub, data, geodesics=shifted)
        for i, rows in enumerate(self.rows_of(blocks, "geodesic")):
            np.testing.assert_allclose(rows[0], np.eye(3)[i], rtol=0.0, atol=1e-10)

    def test_shapes(self):
        sub, data = self.fit_small()
        pds, _ = principal_directions(sub)
        blocks = project_submanifold(sub, data, pds)
        assert [(kind, index) for kind, index, _ in blocks] == (
            [("net", net.direction_index) for net in sub.nets]
            + [("data", 0), ("pd1", 0), ("pd2", 0)])
        (data_rows,) = self.rows_of(blocks, "data")
        assert data_rows.shape == (80, 3)
        assert len(self.rows_of(blocks, "net")) == 4
        for net, rows in zip(sub.nets, self.rows_of(blocks, "net")):
            assert rows.shape == (len(net.points), 3)
        for name, points in pds.items():
            assert self.rows_of(blocks, name)[0].shape == (len(points), 3)

    def test_held_out_data_land_on_the_fit_frame(self):
        # the basis is the fit's own start frame, not one derived from the rows
        # projected: another cloud, wide along other axes, keeps the fit's basis
        sub, _ = self.fit_small()
        rows = np.random.default_rng(119).standard_normal((50, 4)) * [0.1, 0.5, 1.0, 2.0]
        (got,) = self.rows_of(project_submanifold(sub, PointArray(rows, FLAT)), "data")
        basis = sub.frame_at_start.basis[:3]
        want = np.zeros((len(rows), 3))
        want[:, :len(basis)] = (rows - sub.start.coords) @ basis.T
        np.testing.assert_array_equal(got, want)

    def test_default_kernel_is_fit_kernel(self):
        sub, data = self.fit_small(kernel=KernelSpec(GAUSSIAN, 0.5))
        (rows,) = self.rows_of(project_submanifold(sub, data), "data")
        centred = np.stack([p.coords for p in data]) - sub.start.coords
        frame = eigenframe(local_covariance(sub.start, data, sub.config.kernel), sub.start, 3)
        np.testing.assert_array_equal(rows, centred @ frame.basis.T)
        # the uniform ball would give another basis
        ball = eigenframe(local_covariance(sub.start, data, KernelSpec()), sub.start, 3)
        assert not np.allclose(rows, centred @ ball.basis.T)


class TestShapeGrid:
    def test_layout_and_ids(self):
        sub = preshape_submanifold(levels=4)
        grid = shape_grid(sub, 5)
        assert len(grid) == 5 and all(len(row) == 5 for row in grid)
        filled = {(r, c) for r in range(5) for c in range(5)
                  if grid[r][c] is not None}
        assert len(filled) == 17
        c, k = 2, DIGIT3_BASE.shape[0]
        pairs = _pd_pairs(sub)

        def branch(name, side, level):
            """The (k, 2) shape at a level of a PD's first (side 0) or second net."""
            return pairs[name][side].points.coords[level].reshape(k, 2)

        assert grid[c][c].shape == (k, 2) and not grid[c][c].flags.writeable
        assert grid[c][c].tobytes() == sub.start.coords.tobytes()
        # 4 levels, 2 picks per side: the cells hold levels 2 and 4
        # row: pd1, first-listed branch on the left
        np.testing.assert_array_equal(grid[c][c - 1], branch("pd1", 0, 2))
        np.testing.assert_array_equal(grid[c][c + 2], branch("pd1", 1, 4))
        # column: pd2, first branch above
        np.testing.assert_array_equal(grid[c - 1][c], branch("pd2", 0, 2))
        np.testing.assert_array_equal(grid[c + 2][c], branch("pd2", 1, 4))
        # main diagonal: pd3, first branch top-left
        np.testing.assert_array_equal(grid[c - 1][c - 1], branch("pd3", 0, 2))
        np.testing.assert_array_equal(grid[c + 1][c + 1], branch("pd3", 1, 2))
        # anti-diagonal: pd4, first branch top-right
        np.testing.assert_array_equal(grid[c - 1][c + 1], branch("pd4", 0, 2))
        np.testing.assert_array_equal(grid[c + 1][c - 1], branch("pd4", 1, 2))

    def test_resampling_snaps_to_levels(self):
        # 4 levels, 2 picks per side: targets at half and full arc -> levels 2, 4
        sub = preshape_submanifold(levels=4, epsilon=0.05)
        grid = shape_grid(sub, 5)
        c = 2
        d = sub.config.num_directions
        first = next(n for n in sub.nets if n.direction_index == d // 2)
        second = next(n for n in sub.nets if n.direction_index == d)
        np.testing.assert_allclose(
            grid[c][c - 1].ravel(), first.points[2].coords,
            rtol=0.0, atol=1e-12)
        np.testing.assert_allclose(
            grid[c][c - 2].ravel(), first.points[4].coords,
            rtol=0.0, atol=1e-12)
        np.testing.assert_allclose(
            grid[c][c + 2].ravel(), second.points[4].coords,
            rtol=0.0, atol=1e-12)

    def test_resampling_ties_go_to_the_lower_level(self):
        # a 3-step net at q = 4: the targets at 0.75, 1.5, 2.25 and 3 steps
        # snap to levels 1, 1 (the tie), 2 and 3
        path = np.array([[0.1 * j, 0.3 + 0.05 * j] for j in range(4)])

        def levels(rows):
            return _resample_branch(PointArray(rows, FLAT), 4)

        assert levels(path) == [1, 1, 2, 3]
        # one ulp either way moves the summed step lengths, not the picks
        for toward in (-np.inf, np.inf):
            assert levels(np.nextafter(path, toward)) == [1, 1, 2, 3]

    def test_flow_fills_row_only(self):
        sub = preshape_submanifold(dim=1, levels=4)
        grid = shape_grid(sub, 5)
        filled = {(r, c) for r in range(5) for c in range(5)
                  if grid[r][c] is not None}
        assert filled == {(2, 0), (2, 1), (2, 2), (2, 3), (2, 4)}

    def test_no_diagonals_when_d_not_multiple_of_eight(self):
        sub = preshape_submanifold(num_directions=4, levels=4)
        grid = shape_grid(sub, 5)
        filled = {(r, c) for r in range(5) for c in range(5)
                  if grid[r][c] is not None}
        assert len(filled) == 9  # center + row + column only
        assert grid[1][1] is None and grid[1][3] is None

    def test_odd_size_required(self):
        sub = preshape_submanifold(levels=4)
        with pytest.raises(ValueError):
            shape_grid(sub, 4)
        with pytest.raises(ValueError):
            shape_grid(sub, 1)

    def test_rejects_non_preshape_fit(self):
        import dataclasses
        sub = preshape_submanifold(levels=4)
        odd = dataclasses.replace(sub, start=Point(np.eye(5)[0]))
        with pytest.raises(NotAShapeFitError):
            shape_grid(odd, 5)
        uncentered = dataclasses.replace(sub, start=Point(np.eye(6)[0]))
        with pytest.raises(NotAShapeFitError):
            shape_grid(uncentered, 5)

    def test_names_a_branch_point_that_is_no_preshape(self):
        # PD1's second net, moved 1e-5 off centre past the start: the error
        # names the PD, the net and the first level the grid samples
        import dataclasses
        sub = preshape_submanifold(levels=4)
        index = next(i for i, net in enumerate(sub.nets) if net.direction_index == 8)
        net = sub.nets[index]
        rows = net.points.coords.copy()
        rows[1:, 0] += 1e-5
        rows[1:] /= np.linalg.norm(rows[1:], axis=1, keepdims=True)
        moved = Net(net.direction_index, PointArray(rows), net.stop_reason)
        nets = sub.nets[:index] + (moved,) + sub.nets[index + 1:]
        with pytest.raises(NotAShapeFitError,
                           match=r"^pd1 net 8 at level 2 is no preshape: coordinates carry "
                                 r"a centroid offset"):
            shape_grid(dataclasses.replace(sub, nets=nets), 5)


class TestWriteSubmanifoldCsv:
    def test_round_trip(self, tmp_path):
        sub = synthetic_submanifold(num_directions=4, levels=2)
        path = tmp_path / "submanifold.csv"
        write_submanifold_csv(sub, path)
        header, rows = read_csv_rows(path)
        assert header == ["net_index", "level", "c0", "c1", "c2", "c3"]
        assert len(rows) == sum(len(n.points) for n in sub.nets)
        by_net = {}
        for row in rows:
            by_net.setdefault(int(row[0]), []).append([float(v) for v in row[2:]])
        for net in sub.nets:
            got = np.array(by_net[net.direction_index])
            want = np.stack([p.coords for p in net.points])
            np.testing.assert_array_equal(got, want)

    def test_line_endings(self, tmp_path):
        sub = synthetic_submanifold(num_directions=4, levels=1)
        path = tmp_path / "submanifold.csv"
        write_submanifold_csv(sub, path)
        raw = path.read_bytes()
        assert b"\r" not in raw
        assert raw.endswith(b"\n")


class TestWriteProjectedCsv:
    def build(self, num_directions=8):
        sub = synthetic_submanifold(num_directions=num_directions, levels=2)
        rng = np.random.default_rng(112)
        data = PointArray(rng.standard_normal((10, 4)), FLAT)
        pds, _ = principal_directions(sub)
        return sub, data, pds

    def test_kinds_and_counts(self, tmp_path):
        sub, data, pds = self.build()
        path = tmp_path / "projected.csv"
        write_projected_csv(path, project_submanifold(sub, data, pds))
        header, rows = read_csv_rows(path)
        assert header == ["kind", "net_index", "level", "p1", "p2", "p3"]
        kinds = {r[0] for r in rows}
        assert kinds == {"net", "data", "pd1", "pd2", "pd3", "pd4"}
        assert sum(1 for r in rows if r[0] == "data") == 10
        assert sum(1 for r in rows if r[0] == "net") == sum(
            len(n.points) for n in sub.nets)
        assert sum(1 for r in rows if r[0] == "pd1") == len(pds["pd1"])

    def test_diagonal_disclaimer_comment(self, tmp_path):
        sub, data, pds = self.build()
        path = tmp_path / "projected.csv"
        write_projected_csv(path, project_submanifold(sub, data, pds))
        lines = path.read_text(encoding="utf-8").splitlines()
        assert lines[-1].startswith("#")
        assert "pd3/pd4" in lines[-1]

    def test_no_comment_without_diagonals(self, tmp_path):
        sub, data, pds = self.build(num_directions=4)
        path = tmp_path / "projected.csv"
        write_projected_csv(path, project_submanifold(sub, data, pds))
        lines = path.read_text(encoding="utf-8").splitlines()
        assert not any(ln.startswith("#") for ln in lines)

    def test_geodesic_rows_sorted(self, tmp_path):
        sub, data, _ = self.build()
        curve = PointArray([[t, 0.0, 0.0, 0.0] for t in (-0.1, 0.0, 0.1)], FLAT)
        path = tmp_path / "projected.csv"
        write_projected_csv(path, project_submanifold(sub, data, geodesics={2: curve, 1: curve}))
        header, rows = read_csv_rows(path)
        geo = [r for r in rows if r[0] == "geodesic"]
        assert [r[1] for r in geo] == ["1", "1", "1", "2", "2", "2"]

    def test_header_only_when_empty(self, tmp_path):
        path = tmp_path / "projected.csv"
        write_projected_csv(path, [])
        assert path.read_text(encoding="utf-8") == "kind,net_index,level,p1,p2,p3\n"

    def test_float_round_trip(self, tmp_path):
        sub, data, _ = self.build()
        blocks = project_submanifold(sub, data)
        path = tmp_path / "projected.csv"
        write_projected_csv(path, blocks)
        header, rows = read_csv_rows(path)
        got = np.array([[float(v) for v in r[3:]] for r in rows if r[0] == "data"])
        np.testing.assert_array_equal(got, next(rows for kind, _, rows in blocks
                                                if kind == "data"))


    def test_rows_are_streamed(self, tmp_path):
        # a 20,000-row data block, as on wide_flow: no list of every row's
        # text or floats is held, so the writer's peak stays far below the file
        rows = np.random.default_rng(113).standard_normal((20_000, 3))
        path = tmp_path / "projected.csv"
        tracemalloc.start()
        try:
            write_projected_csv(path, [("data", 0, rows)])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        size = path.stat().st_size
        assert size > 1_000_000
        assert peak < size / 20

class TestWriteShapesJson:
    def test_payload(self, tmp_path):
        sub = preshape_submanifold(levels=4)
        grid = shape_grid(sub, 5)
        path = tmp_path / "shapes.json"
        write_shapes_json(path, grid, "mean")
        payload = json.loads(path.read_text(encoding="utf-8"))
        assert payload["k"] == DIGIT3_BASE.shape[0]
        assert payload["samples_per_direction"] == 5
        assert payload["start_kind"] == "mean"
        assert len(payload["grid"]) == 5
        # diagonals claim the corners; (0, 1) sits off every principal line
        assert payload["grid"][0][1] is None
        center = payload["grid"][2][2]
        np.testing.assert_allclose(np.array(center), grid[2][2],
                                   rtol=0.0, atol=0.0)
