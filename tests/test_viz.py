"""Polyline pairing, eigen projection, shape grids, file writers."""

import json
import math

import numpy as np
import pytest

from psm.datagen import GenSpec, generate
from psm.errors import NotAShapeFitError
from psm.fitting import FitConfig, Net, StopReason, Submanifold, fit_flow, fit_submanifold
from psm.geometry import FLAT, Point, PointArray, Tangent, exp_map, log_map
from psm.shape import LandmarkConfig, to_preshape
from psm.tangent_stats import (
    GAUSSIAN,
    EigenFrame,
    KernelSpec,
    eigenframe,
    frechet_mean,
    local_covariance,
)
from psm.viz import (
    PrincipalDirections,
    ProjectedSubmanifold,
    _pd_pairs,
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
    frame = EigenFrame(start, (Tangent(start, e1), Tangent(start, e2)),
                       np.array([2.0, 1.0])[:dim])
    if dim == 1:
        frame = EigenFrame(start, (Tangent(start, e1),), np.array([2.0]))
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
    start = to_preshape(LandmarkConfig(DIGIT3_BASE)).point
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
    frame = EigenFrame(start, (Tangent(start, u), Tangent(start, w)),
                       np.array([2.0, 1.0])[:dim])
    if dim == 1:
        frame = EigenFrame(start, (Tangent(start, u),), np.array([2.0]))
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
            pts.append(exp_map(start, Tangent(start, i * epsilon * d)))
        nets.append(Net(l, PointArray([p.coords for p in pts]), StopReason.LENGTH_EXCEEDED))
    return Submanifold(start, tuple(nets), frame, cfg)


class TestPrincipalDirections:
    def test_pairing_indices(self):
        sub = synthetic_submanifold(num_directions=8, levels=3)
        pds = principal_directions(sub)
        by_index = {n.direction_index: n for n in sub.nets}

        def expect(first, second):
            points = (list(reversed(by_index[first].points[1:])) + [sub.start]
                      + list(by_index[second].points[1:]))
            return np.stack([p.coords for p in points])

        for name, (first, second) in (("pd1", (4, 8)), ("pd2", (2, 6)),
                                      ("pd3", (1, 5)), ("pd4", (3, 7))):
            polyline = getattr(pds, name)
            assert isinstance(polyline, PointArray) and polyline.chart == FLAT
            np.testing.assert_array_equal(polyline.coords, expect(first, second))
        assert pds.note is None

    def test_polyline_through_start_once(self):
        sub = synthetic_submanifold(num_directions=8, levels=3)
        pds = principal_directions(sub)
        hits = [p for p in pds.pd1 if np.array_equal(p.coords, sub.start.coords)]
        assert len(hits) == 1
        assert len(pds.pd1) == 3 + 1 + 3

    def test_not_divisible_by_eight(self):
        sub = synthetic_submanifold(num_directions=4, levels=2)
        pds = principal_directions(sub)
        assert pds.pd1 is not None and pds.pd2 is not None
        assert pds.pd3 is None and pds.pd4 is None
        assert "8" in pds.note

    def test_flow_only_pd1(self):
        sub = synthetic_submanifold(dim=1, levels=3)
        pds = principal_directions(sub)
        by_index = {n.direction_index: n for n in sub.nets}
        want = (list(reversed(by_index[2].points[1:])) + [sub.start]
                + list(by_index[1].points[1:]))
        np.testing.assert_array_equal(pds.pd1.coords, np.stack([p.coords for p in want]))
        assert pds.pd2 is None and pds.pd3 is None and pds.pd4 is None
        assert "flow" in pds.note

    def test_as_dict_skips_missing(self):
        sub = synthetic_submanifold(num_directions=4, levels=2)
        d = principal_directions(sub).as_dict()
        assert sorted(d) == ["pd1", "pd2"]


class TestPairingOnFits:
    @pytest.mark.parametrize("fit, dim, num_directions, names", [
        (fit_flow, 1, 4, ["pd1"]),
        (fit_submanifold, 2, 16, ["pd1", "pd2", "pd3", "pd4"]),
    ])
    def test_paired_seeds_are_opposite(self, fit, dim, num_directions, names):
        data, _ = generate(GenSpec("sea_wave", 200, 1))
        start = frechet_mean(data)
        sub = fit(data, start, FitConfig(dim=dim, num_directions=num_directions))
        pairs = _pd_pairs(sub)
        assert list(pairs) == names
        for first, second in pairs.values():
            np.testing.assert_allclose(log_map(start, first.points[1]).vec,
                                       -log_map(start, second.points[1]).vec,
                                       rtol=0.0, atol=1e-12)
        # each geodesic leaves the join along its PD's second-listed net
        pds = principal_directions(sub).as_dict()
        geodesics = principal_geodesics(sub)
        assert sorted(geodesics) == [int(name[2]) for name in names[:2]]
        for key, curve in geodesics.items():
            first, second = pairs[f"pd{key}"]
            assert len(curve) == len(pds[f"pd{key}"])
            join = len(first.points) - 1
            np.testing.assert_array_equal(curve[join].coords, start.coords)
            np.testing.assert_allclose(log_map(start, curve[join + 1]).vec,
                                       log_map(start, second.points[1]).vec,
                                       rtol=0.0, atol=1e-12)

    def test_k3_fan_exports_no_directions(self):
        rng = np.random.default_rng(113)
        xs = rng.standard_normal((60, 4)) * [2.0, 1.5, 1.0, 0.1]
        data = [Point(r, FLAT) for r in xs]
        start = Point(xs.mean(axis=0), FLAT)
        cfg = FitConfig(epsilon=0.05, delta=3.0, kernel=KernelSpec(), num_directions=8,
                        max_net_length=0.2, dim=3)
        sub = fit_submanifold(data, start, cfg)
        assert len(sub.nets) == 8
        pds = principal_directions(sub)
        assert (pds.pd1, pds.pd2, pds.pd3, pds.pd4) == (None, None, None, None)
        assert pds.as_dict() == {}
        assert "no opposite nets" in pds.note
        assert principal_geodesics(sub) == {}


class TestProjectSubmanifold:
    def fit_small(self, seed=111, kernel=KernelSpec()):
        rng = np.random.default_rng(seed)
        xs = rng.standard_normal((80, 4)) * [2.0, 1.0, 0.5, 0.1]
        data = [Point(r, FLAT) for r in xs]
        start = Point(xs.mean(axis=0), FLAT)
        cfg = FitConfig(epsilon=0.05, delta=3.0, kernel=kernel,
                        num_directions=4, max_net_length=0.3)
        return fit_submanifold(data, start, cfg), data

    def test_start_maps_to_origin(self):
        sub, data = self.fit_small()
        proj = project_submanifold(sub, data)
        np.testing.assert_allclose(proj.project([sub.start]), np.zeros((1, 3)),
                                   rtol=0.0, atol=1e-15)
        for rows in proj.nets:
            np.testing.assert_allclose(rows[0], np.zeros(3), rtol=0.0, atol=1e-15)

    def test_basis_vectors_hit_standard_axes(self):
        sub, data = self.fit_small()
        proj = project_submanifold(sub, data)
        for i, t in enumerate(proj.basis):
            shifted = Point(sub.start.coords + t.vec, FLAT)
            np.testing.assert_allclose(proj.project([shifted])[0], np.eye(3)[i],
                                       rtol=0.0, atol=1e-10)

    def test_shapes(self):
        sub, data = self.fit_small()
        proj = project_submanifold(sub, data)
        assert proj.data.shape == (80, 3)
        assert len(proj.nets) == 4
        for net, rows in zip(sub.nets, proj.nets):
            assert rows.shape == (len(net.points), 3)
        assert proj.project([]).shape == (0, 3)

    def test_default_kernel_is_fit_kernel(self):
        sub, data = self.fit_small(kernel=KernelSpec(GAUSSIAN, 0.5))
        basis = [t.vec for t in project_submanifold(sub, data).basis]
        frame = eigenframe(local_covariance(sub.start, data, sub.config.kernel), sub.start, 3)
        np.testing.assert_array_equal(basis, [t.vec for t in frame.vectors])
        # the uniform ball would give another basis
        ball = eigenframe(local_covariance(sub.start, data, KernelSpec()), sub.start, 3)
        assert not np.allclose(basis, [t.vec for t in ball.vectors])


class TestShapeGrid:
    def test_layout_and_ids(self):
        sub = preshape_submanifold(levels=4)
        grid = shape_grid(sub, 5)
        assert len(grid) == 5 and all(len(row) == 5 for row in grid)
        filled = {(r, c) for r in range(5) for c in range(5)
                  if grid[r][c] is not None}
        assert len(filled) == 17
        c = 2
        assert grid[c][c].specimen_id == "start"
        np.testing.assert_allclose(
            to_preshape(grid[c][c]).point.coords, sub.start.coords, atol=1e-12)
        # row: pd1, first-listed branch on the left
        assert grid[c][c - 1].specimen_id == "pd1-1"
        assert grid[c][c + 2].specimen_id == "pd1+2"
        # column: pd2, first branch above
        assert grid[c - 1][c].specimen_id == "pd2-1"
        assert grid[c + 2][c].specimen_id == "pd2+2"
        # main diagonal: pd3, first branch top-left
        assert grid[c - 1][c - 1].specimen_id == "pd3-1"
        assert grid[c + 1][c + 1].specimen_id == "pd3+1"
        # anti-diagonal: pd4, first branch top-right
        assert grid[c - 1][c + 1].specimen_id == "pd4-1"
        assert grid[c + 1][c - 1].specimen_id == "pd4+1"

    def test_resampling_snaps_to_levels(self):
        # 4 levels, 2 picks per side: targets at half and full arc -> levels 2, 4
        sub = preshape_submanifold(levels=4, epsilon=0.05)
        grid = shape_grid(sub, 5)
        c = 2
        d = sub.config.num_directions
        first = next(n for n in sub.nets if n.direction_index == d // 2)
        second = next(n for n in sub.nets if n.direction_index == d)
        np.testing.assert_allclose(
            to_preshape(grid[c][c - 1]).point.coords, first.points[2].coords,
            rtol=0.0, atol=1e-12)
        np.testing.assert_allclose(
            to_preshape(grid[c][c - 2]).point.coords, first.points[4].coords,
            rtol=0.0, atol=1e-12)
        np.testing.assert_allclose(
            to_preshape(grid[c][c + 2]).point.coords, second.points[4].coords,
            rtol=0.0, atol=1e-12)

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
        data = [Point(r, FLAT) for r in rng.standard_normal((10, 4))]
        proj = project_submanifold(sub, data)
        return sub, data, proj

    def test_kinds_and_counts(self, tmp_path):
        sub, data, proj = self.build()
        pds = principal_directions(sub)
        path = tmp_path / "projected.csv"
        write_projected_csv(path, proj, sub, pds)
        header, rows = read_csv_rows(path)
        assert header == ["kind", "net_index", "level", "p1", "p2", "p3"]
        kinds = {r[0] for r in rows}
        assert kinds == {"net", "data", "pd1", "pd2", "pd3", "pd4"}
        assert sum(1 for r in rows if r[0] == "data") == 10
        assert sum(1 for r in rows if r[0] == "net") == sum(
            len(n.points) for n in sub.nets)
        assert sum(1 for r in rows if r[0] == "pd1") == len(pds.pd1)

    def test_diagonal_disclaimer_comment(self, tmp_path):
        sub, data, proj = self.build()
        pds = principal_directions(sub)
        path = tmp_path / "projected.csv"
        write_projected_csv(path, proj, sub, pds)
        lines = path.read_text(encoding="utf-8").splitlines()
        assert lines[-1].startswith("#")
        assert "pd3/pd4" in lines[-1]

    def test_no_comment_without_diagonals(self, tmp_path):
        sub, data, proj = self.build(num_directions=4)
        pds = principal_directions(sub)
        path = tmp_path / "projected.csv"
        write_projected_csv(path, proj, sub, pds)
        lines = path.read_text(encoding="utf-8").splitlines()
        assert not any(ln.startswith("#") for ln in lines)

    def test_geodesic_rows_sorted(self, tmp_path):
        sub, data, proj = self.build()
        curve = [Point(np.array([t, 0.0, 0.0, 0.0]), FLAT)
                 for t in (-0.1, 0.0, 0.1)]
        path = tmp_path / "projected.csv"
        write_projected_csv(path, proj, sub, geodesics={2: curve, 1: curve})
        header, rows = read_csv_rows(path)
        geo = [r for r in rows if r[0] == "geodesic"]
        assert [r[1] for r in geo] == ["1", "1", "1", "2", "2", "2"]

    def test_header_only_when_empty(self, tmp_path):
        start = Point(np.zeros(4), FLAT)
        basis = tuple(Tangent(start, np.eye(4)[i]) for i in range(3))
        proj = ProjectedSubmanifold((), np.zeros((0, 3)), basis, start)
        sub = Submanifold(start, (), EigenFrame(start, basis, np.ones(3)), FitConfig())
        path = tmp_path / "projected.csv"
        write_projected_csv(path, proj, sub)
        assert path.read_text(encoding="utf-8") == "kind,net_index,level,p1,p2,p3\n"

    def test_float_round_trip(self, tmp_path):
        sub, data, proj = self.build()
        path = tmp_path / "projected.csv"
        write_projected_csv(path, proj, sub)
        header, rows = read_csv_rows(path)
        got = np.array([[float(v) for v in r[3:]] for r in rows if r[0] == "data"])
        np.testing.assert_array_equal(got, proj.data)


class TestWriteShapesJson:
    def test_payload(self, tmp_path):
        sub = preshape_submanifold(levels=4)
        grid = shape_grid(sub, 5)
        path = tmp_path / "shapes.json"
        write_shapes_json(path, grid, 5, "mean")
        payload = json.loads(path.read_text(encoding="utf-8"))
        assert payload["k"] == DIGIT3_BASE.shape[0]
        assert payload["samples_per_direction"] == 5
        assert payload["start_kind"] == "mean"
        assert len(payload["grid"]) == 5
        # diagonals claim the corners; (0, 1) sits off every principal line
        assert payload["grid"][0][1] is None
        center = payload["grid"][2][2]
        np.testing.assert_allclose(np.array(center), grid[2][2].landmarks,
                                   rtol=0.0, atol=0.0)
