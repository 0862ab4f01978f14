"""Command-line surface: generate data, align shapes, fit, export.

Commands share a plain-text config file format (`key = value`, one per
line, # comments); command-line flags override file values, which override
defaults.  All computation happens before any file is written, partial
outputs are removed on failure, and runs are deterministic for fixed
inputs and flags.  Exit codes: 0 success, 1 any computation or IO error,
2 usage problems.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from pathlib import Path

import numpy as np

from .datagen import (
    ELLIPSOID,
    FAMILIES,
    S_CURVE,
    SEA_WAVE,
    GenSpec,
    generate,
    meta_path_for,
    read_dataset_csv,
    write_dataset_csv,
)
from .errors import PsmError
from .fitting import FitConfig, fit_submanifold, net_length, variation_score
from .geometry import FLAT, SPHERE, Point, Tangent, exp_map, project_to_sphere
from .shape import align_dataset, read_landmarks
from .tangent_stats import GAUSSIAN, UNIFORM_BALL, KernelSpec, frechet_mean
from .viz import (
    principal_directions,
    project_submanifold,
    shape_grid,
    write_projected_csv,
    write_shapes_json,
    write_submanifold_csv,
)

_KERNEL_NAMES = {"uniform": UNIFORM_BALL, "gaussian": GAUSSIAN}


class UsageError(Exception):
    """Bad flags, config keys, or parameter combinations; exits with code 2."""


def _float_or_inf(text: str) -> float:
    return float(text)  # float() accepts 'inf' already


def _shift_value(text: str):
    return text if text == "auto" else float(text)


def _bool_value(text: str) -> bool:
    low = text.strip().lower()
    if low in ("1", "true", "yes", "on"):
        return True
    if low in ("0", "false", "no", "off"):
        return False
    raise ValueError(f"expected a boolean, got {text!r}")


# Key tables drive both config-file conversion and post-merge validation.
_COMMON_KEYS = {"seed": int, "out": str, "quiet": _bool_value}
_GENERATE_KEYS = {
    "family": str, "n": int, "noise_level": float, "noise_scale_u": float,
    "a": float, "b": float, "c": float, "mode": str, "shift": _shift_value,
}
_FIT_KEYS = {
    "epsilon": float, "delta": float, "bandwidth": _float_or_inf, "kernel": str,
    "directions": int, "max_length": float, "k": int, "start": str,
    "coords": str, "grid_samples": int,
}
_KEYS_BY_COMMAND = {
    "generate": {**_COMMON_KEYS, **_GENERATE_KEYS},
    "shapes": dict(_COMMON_KEYS),
    "fit": {**_COMMON_KEYS, **_FIT_KEYS},
    "compare-geodesic": {**_COMMON_KEYS, **_FIT_KEYS},
}
_ALL_KEYS = {k for keys in _KEYS_BY_COMMAND.values() for k in keys}

_CHOICES = {
    "family": FAMILIES,
    "kernel": tuple(_KERNEL_NAMES),
    "mode": ("solid", "surface"),
    "start": ("mean", "custom"),
}

_DEFAULTS_COMMON = {"seed": 0, "out": ".", "quiet": False}
_DEFAULTS_BY_COMMAND = {
    "generate": {**_DEFAULTS_COMMON, "family": None, "n": 200,
                 "noise_level": 0.05, "noise_scale_u": 1.0 / 32.0,
                 "a": 2.5, "b": math.sqrt(2.0), "c": 1.0,
                 "mode": "solid", "shift": "auto"},
    "shapes": dict(_DEFAULTS_COMMON),
    "fit": {**_DEFAULTS_COMMON, "start": "mean", "coords": None, "grid_samples": 9},
    "compare-geodesic": {**_DEFAULTS_COMMON, "start": "mean", "coords": None,
                         "grid_samples": 9},
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="psm",
        description="Fit principal sub-manifolds to data on embedded spheres.")
    sub = parser.add_subparsers(dest="command", required=True)
    sup = argparse.SUPPRESS

    def add_common(p):
        p.add_argument("--config", metavar="PATH", default=sup,
                       help="key = value config file; flags override it")
        p.add_argument("--seed", type=int, default=sup)
        p.add_argument("--out", metavar="DIR", default=sup,
                       help="output directory (default: current directory)")
        p.add_argument("--quiet", action="store_true", default=sup)

    gen = sub.add_parser("generate", help="write a synthetic dataset CSV")
    add_common(gen)
    gen.add_argument("--family", choices=FAMILIES, default=sup)
    gen.add_argument("--n", type=int, default=sup)
    gen.add_argument("--noise-level", dest="noise_level", type=float, default=sup,
                     help="sea_wave: isotropic noise scale")
    gen.add_argument("--noise-scale-u", dest="noise_scale_u", type=float, default=sup,
                     help="s_curve: multiplier of the 32*U noise term")
    gen.add_argument("--a", type=float, default=sup, help="ellipsoid: first semi-axis")
    gen.add_argument("--b", type=float, default=sup)
    gen.add_argument("--c", type=float, default=sup)
    gen.add_argument("--mode", choices=_CHOICES["mode"], default=sup,
                     help="ellipsoid: solid or surface sampling")
    gen.add_argument("--shift", type=_shift_value, default=sup,
                     help="lift constant, 'auto' or a number")

    shp = sub.add_parser("shapes", help="align a landmark file into preshape points")
    add_common(shp)
    shp.add_argument("input", metavar="LANDMARKS")

    def add_fit_flags(p):
        add_common(p)
        p.add_argument("input", metavar="DATASET")
        p.add_argument("--epsilon", type=float, default=sup)
        p.add_argument("--delta", type=float, default=sup)
        p.add_argument("--bandwidth", type=_float_or_inf, default=sup)
        p.add_argument("--kernel", choices=_CHOICES["kernel"], default=sup)
        p.add_argument("--directions", type=int, default=sup)
        p.add_argument("--max-length", dest="max_length", type=float, default=sup)
        p.add_argument("--k", type=int, default=sup,
                       help="sub-manifold dimension (1 grows a two-net flow)")
        p.add_argument("--start", choices=_CHOICES["start"], default=sup)
        p.add_argument("--coords", default=sup,
                       help="comma-separated start coordinates for --start custom")
        p.add_argument("--grid-samples", dest="grid_samples", type=int, default=sup,
                       help="shape grid side length (odd), preshape data only")

    fit = sub.add_parser("fit", help="fit a principal sub-manifold and export")
    add_fit_flags(fit)
    cmp_ = sub.add_parser("compare-geodesic",
                          help="fit, then add principal geodesic rows to projected.csv")
    add_fit_flags(cmp_)
    return parser


def _read_config_file(path: str) -> dict:
    values = {}
    try:
        with open(path, "r", encoding="utf-8") as fh:
            for line_no, raw in enumerate(fh, start=1):
                line = raw.split("#", 1)[0].strip()
                if not line:
                    continue
                key, eq, val = line.partition("=")
                if not eq:
                    raise UsageError(f"{path}: line {line_no}: expected key = value")
                values[key.strip().replace("-", "_")] = val.strip()
    except FileNotFoundError:
        raise UsageError(f"config file not found: {path}") from None
    return values


def _merge_settings(command: str, flag_values: dict, file_values: dict) -> dict:
    known = _KEYS_BY_COMMAND[command]
    merged = dict(_DEFAULTS_BY_COMMAND[command])
    for key, text in file_values.items():
        if key not in _ALL_KEYS:
            raise UsageError(f"unknown config key {key!r}")
        if key not in known:
            continue  # shared config files may hold other commands' keys
        try:
            merged[key] = known[key](text)
        except ValueError as exc:
            raise UsageError(f"config key {key!r}: {exc}") from None
    merged.update(flag_values)
    for key, choices in _CHOICES.items():
        value = merged.get(key)
        if value is not None and value not in choices:
            raise UsageError(f"{key} must be one of {', '.join(choices)}")
    return merged


def _fit_config(merged: dict) -> FitConfig:
    kwargs = {}
    for key, field in (("epsilon", "epsilon"), ("delta", "delta"),
                       ("directions", "num_directions"),
                       ("max_length", "max_net_length"), ("k", "dim")):
        if key in merged:
            kwargs[field] = merged[key]
    if "kernel" in merged or "bandwidth" in merged:
        kwargs["kernel"] = KernelSpec(_KERNEL_NAMES[merged.get("kernel", "uniform")],
                                      merged.get("bandwidth", 0.4))
    try:
        return FitConfig(**kwargs)
    except ValueError as exc:
        raise UsageError(str(exc)) from None


def _parse_coords(text: str) -> np.ndarray:
    try:
        values = [float(part) for part in text.split(",")]
    except ValueError:
        raise UsageError(f"--coords must be a comma-separated float list, got {text!r}") from None
    if len(values) < 2:
        raise UsageError("--coords needs at least two components")
    return np.array(values)


def _start_point(merged: dict, points: list[Point]) -> tuple[Point, str]:
    if merged["start"] == "custom":
        if merged["coords"] is None:
            raise UsageError("--start custom requires --coords")
        coords = _parse_coords(merged["coords"])
        if points[0].chart == SPHERE:
            norm = float(np.linalg.norm(coords))
            if abs(norm - 1.0) > 1e-6:
                raise UsageError(f"custom start must be a unit vector (norm {norm!r})")
            return project_to_sphere(coords), "custom"
        return Point(coords, FLAT), "custom"
    return frechet_mean(points), "mean"


# -- output bookkeeping: compute first, write late, clean up on failure --

def _remove_outputs(paths: list[Path]) -> None:
    for p in paths:
        try:
            p.unlink()
        except OSError:
            pass


def _validate_written(paths: list[Path]) -> None:
    for p in paths:
        if p.suffix == ".json":
            with open(p, "r", encoding="utf-8") as fh:
                json.load(fh)
            continue
        with open(p, "r", encoding="utf-8") as fh:
            header = fh.readline().rstrip("\n")
            if not header:
                raise PsmError(f"{p}: written file has no header")
            width = len(header.split(","))
            for line_no, line in enumerate(fh, start=2):
                if not line.strip() or line.startswith("#"):
                    continue
                if len(line.rstrip("\n").split(",")) != width:
                    raise PsmError(f"{p}: line {line_no}: column count mismatch")


def _say(merged: dict, text: str) -> None:
    if not merged["quiet"]:
        print(text)


def _out_dir(merged: dict) -> Path:
    out = Path(merged["out"])
    out.mkdir(parents=True, exist_ok=True)
    return out


def _cmd_generate(merged: dict, written: list[Path]) -> None:
    family = merged["family"]
    if family is None:
        raise UsageError("generate requires --family (or a config file entry)")
    if family == S_CURVE:
        params = {"noise_scale_u": merged["noise_scale_u"]}
    elif family == SEA_WAVE:
        params = {"noise_level": merged["noise_level"]}
    else:
        params = {"a": merged["a"], "b": merged["b"], "c": merged["c"],
                  "mode": merged["mode"]}
    spec = GenSpec(family, merged["n"], merged["seed"],
                   {**params, "shift_c": merged["shift"]})
    points, info = generate(spec)
    out = _out_dir(merged)
    path = out / f"{family}.csv"
    meta = {
        "kind": "dataset", "chart": SPHERE, "family": family,
        "n": merged["n"], "seed": merged["seed"], "params": params,
        "shift": merged["shift"], "resolved_shift": info["resolved_shift"],
        "generator": info["generator"],
    }
    write_dataset_csv(points, path, meta)
    written.extend([path, meta_path_for(path)])
    back, _ = read_dataset_csv(path)
    if len(back) != len(points):
        raise PsmError(f"{path}: wrote {len(points)} points but read back {len(back)}")
    _say(merged, f"wrote {path} ({len(points)} points, family {family})")


def _cmd_shapes(merged: dict, input_path: Path, written: list[Path]) -> None:
    configs = read_landmarks(input_path)
    aligned, mean = align_dataset(configs)
    out = _out_dir(merged)
    path = out / "preshapes.csv"
    meta = {
        "kind": "preshape", "chart": SPHERE, "k": configs[0].k,
        "n": len(aligned), "mean": [float(v) for v in mean.coords],
        "specimen_ids": [c.specimen_id for c in configs],
    }
    write_dataset_csv(aligned, path, meta)
    written.extend([path, meta_path_for(path)])
    back, _ = read_dataset_csv(path)
    if len(back) != len(aligned):
        raise PsmError(f"{path}: wrote {len(aligned)} points but read back {len(back)}")
    _say(merged, f"aligned {len(aligned)} configurations of {configs[0].k} "
                 f"landmarks -> {path}")


def _geodesic_curves(sub) -> dict[int, list[Point]]:
    """Great circles through the start along e1 (and e2), arc-matched to PD1/PD2."""
    cfg = sub.config
    basis = sub.frame_at_start.basis()
    nets = {net.direction_index: net for net in sub.nets}
    if cfg.dim == 1:
        pairs = [(1, nets[2], nets[1], basis[0])]
    else:
        d = cfg.num_directions
        pairs = [(1, nets[d // 2], nets[d], basis[0]),
                 (2, nets[d // 4], nets[3 * d // 4], -basis[1])]
    curves: dict[int, list[Point]] = {}
    for key, first, second, direction in pairs:
        m1 = len(first.points) - 1
        m2 = len(second.points) - 1
        curve = []
        for i in range(m1 + m2 + 1):
            t = (i - m1) * cfg.epsilon
            curve.append(exp_map(sub.start, Tangent(sub.start, t * direction)))
        curves[key] = curve
    return curves


def _kernel_dict(kernel: KernelSpec) -> dict:
    bw = kernel.bandwidth
    return {"kind": kernel.kind, "bandwidth": bw if math.isfinite(bw) else "inf"}


def _cmd_fit(merged: dict, input_path: Path, written: list[Path],
             with_geodesics: bool) -> None:
    points, meta = read_dataset_csv(input_path)
    cfg = _fit_config(merged)
    if merged["grid_samples"] < 3 or merged["grid_samples"] % 2 == 0:
        raise UsageError("--grid-samples must be an odd number >= 3")
    start, start_kind = _start_point(merged, points)

    sub = fit_submanifold(points, start, cfg)
    pds = principal_directions(sub)
    proj = project_submanifold(sub, points)
    score = variation_score(sub, points)
    geodesics = _geodesic_curves(sub) if with_geodesics else None
    is_shape_data = meta.get("kind") == "preshape"
    grid = shape_grid(sub, merged["grid_samples"]) if is_shape_data else None

    per_net = np.array(score.per_net)
    _say(merged, f"fitted {len(sub.nets)} nets from the {start_kind} start "
                 f"({len(points)} data points)")
    for net in sub.nets:
        _say(merged, f"net {net.direction_index:>3}: {net.stop_reason.value} "
                     f"after {len(net.points) - 1} levels "
                     f"(length {net_length(net):.4f})")
    _say(merged, f"variation score: total {score.total:.6g} "
                 f"(per-net mean {per_net.mean():.6g}, max {per_net.max():.6g})")

    out = _out_dir(merged)
    sub_path = out / "submanifold.csv"
    proj_path = out / "projected.csv"
    summary_path = out / "summary.json"
    write_submanifold_csv(sub, sub_path)
    written.append(sub_path)
    write_projected_csv(proj_path, proj, sub, pds, geodesics)
    written.append(proj_path)
    summary = {
        "command": "compare-geodesic" if with_geodesics else "fit",
        "input": input_path.name,
        "n_points": len(points),
        "config": {
            "epsilon": cfg.epsilon, "delta": cfg.delta,
            "kernel": _kernel_dict(cfg.kernel),
            "num_directions": cfg.num_directions,
            "max_net_length": cfg.max_net_length,
            "max_levels": cfg.max_levels, "dim": cfg.dim,
        },
        "start_kind": start_kind,
        "start": [float(v) for v in start.coords],
        "stop_reasons": {str(n.direction_index): n.stop_reason.value
                         for n in sub.nets},
        "variation_score": {"total": score.total, "per_net": list(score.per_net),
                            "skipped": score.skipped},
    }
    if pds.note:
        summary["note"] = pds.note
    if geodesics is not None:
        summary["geodesic_levels"] = {str(k): len(v) for k, v in geodesics.items()}
    with open(summary_path, "w", encoding="utf-8", newline="\n") as fh:
        json.dump(summary, fh, indent=2, sort_keys=True)
        fh.write("\n")
    written.append(summary_path)
    if grid is not None:
        shapes_path = out / "shapes.json"
        write_shapes_json(shapes_path, grid, merged["grid_samples"], start_kind)
        written.append(shapes_path)
    for p in written:
        _say(merged, f"wrote {p}")


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    flag_values = vars(args).copy()
    command = flag_values.pop("command")
    input_arg = flag_values.pop("input", None)
    config_path = flag_values.pop("config", None)

    written: list[Path] = []
    try:
        file_values = _read_config_file(config_path) if config_path else {}
        merged = _merge_settings(command, flag_values, file_values)
        input_path = None
        if input_arg is not None:
            input_path = Path(input_arg)
            if not input_path.is_file():
                raise UsageError(f"input file not found: {input_path}")
        if command == "generate":
            _cmd_generate(merged, written)
        elif command == "shapes":
            _cmd_shapes(merged, input_path, written)
        else:
            _cmd_fit(merged, input_path, written,
                     with_geodesics=(command == "compare-geodesic"))
        _validate_written(written)
    except UsageError as exc:
        _remove_outputs(written)
        print(f"usage error: {exc}", file=sys.stderr)
        return 2
    except (PsmError, OSError, ValueError) as exc:
        _remove_outputs(written)
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
