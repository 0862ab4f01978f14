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
import dataclasses
import math
import re
import sys
from pathlib import Path

import numpy as np

from .datagen import (
    ELLIPSOID_MODES,
    RECIPES,
    _open_text,
    _write_json,
    generate,
    meta_path_for,
    read_dataset_csv,
    write_dataset_csv,
)
from .errors import InfeasibleShiftError, PsmError
from .fitting import FitConfig, fit_submanifold, net_length, variation_score
from .geometry import (
    _INPUT_UNIT_TOL,
    FLAT,
    SPHERE,
    Point,
    PointArray,
    _tangent_dim,
    project_to_sphere,
)
from .shape import align_dataset, read_landmarks
from .tangent_stats import GAUSSIAN, UNIFORM_BALL, KernelSpec, frechet_mean
from .viz import (
    principal_directions,
    principal_geodesics,
    project_submanifold,
    shape_grid,
    write_projected_csv,
    write_shapes_json,
    write_submanifold_csv,
)

_KERNEL_NAMES = {"uniform": UNIFORM_BALL, "gaussian": GAUSSIAN}


class UsageError(Exception):
    """Bad flags, config keys, or parameter combinations; exits with code 2."""


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # one usage error line, as main prints every other
        raise UsageError(message)


def _shift_value(text: str):
    return text if text == "auto" else float(text)


def _bool_value(text: str) -> bool:
    low = text.strip().lower()
    if low in ("1", "true", "yes", "on"):
        return True
    if low in ("0", "false", "no", "off"):
        return False
    raise ValueError(f"expected a boolean, got {text!r}")


# command -> (help, metavar of its input file, or None if it reads none)
_COMMANDS = {
    "generate": ("write a synthetic dataset CSV", None),
    "shapes": ("align a landmark file into preshape points", "LANDMARKS"),
    "fit": ("fit a principal sub-manifold and export", "DATASET"),
    "compare-geodesic": ("fit, then add principal geodesic rows to projected.csv", "DATASET"),
}


class _Setting:
    """One setting: the flag --name (dashes for underscores) and the config key name.

    convert reads the text of both.  A setting with a fit_field passes its
    value to that FitConfig field, and a family parameter's setting to the
    generator; a None default keeps the library default.
    """

    def __init__(self, commands, convert, default=None, fit_field=None, **flag):
        self.commands, self.convert, self.default = commands, convert, default
        self.fit_field = fit_field
        # argparse keywords; a store_true flag takes no type
        self.flag = flag if "action" in flag else {"type": convert, **flag}


_ALL = tuple(_COMMANDS)
_GENERATE = ("generate",)
_FIT = ("fit", "compare-geodesic")
_SETTINGS = {
    "out": _Setting(_ALL, str, ".", metavar="DIR",
                    help="output directory (default: current directory)"),
    "quiet": _Setting(_ALL, _bool_value, False, action="store_true"),
    "family": _Setting(_GENERATE, str, choices=tuple(RECIPES)),
    "seed": _Setting(_GENERATE, int, 0),
    "n": _Setting(_GENERATE, int, 200),
    "noise_level": _Setting(_GENERATE, float, help="sea_wave: isotropic noise scale"),
    "noise_scale_u": _Setting(_GENERATE, float, help="s_curve: multiplier of the 32*U noise term"),
    "a": _Setting(_GENERATE, float, help="ellipsoid: first semi-axis"),
    "b": _Setting(_GENERATE, float),
    "c": _Setting(_GENERATE, float),
    "mode": _Setting(_GENERATE, str, choices=ELLIPSOID_MODES,
                     help="ellipsoid: solid or surface sampling"),
    "shift": _Setting(_GENERATE, _shift_value, "auto", help="lift constant, 'auto' or a number"),
    "epsilon": _Setting(_FIT, float, fit_field="epsilon"),
    "delta": _Setting(_FIT, float, fit_field="delta"),
    "bandwidth": _Setting(_FIT, float),
    "kernel": _Setting(_FIT, str, choices=tuple(_KERNEL_NAMES)),
    "directions": _Setting(_FIT, int, fit_field="num_directions"),
    "max_length": _Setting(_FIT, float, fit_field="max_net_length"),
    "k": _Setting(_FIT, int, fit_field="dim",
                  help="sub-manifold dimension (1 grows a two-net flow)"),
    "start": _Setting(_FIT, str, "mean",
                      help="'mean' or the start's comma-separated coordinates; "
                      "write a negative first value as --start=-1,0,0,0"),
    "grid_samples": _Setting(_FIT, int, 9, help="shape grid side length (odd), preshape data only"),
}


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="psm",
        description="Fit principal sub-manifolds to data on embedded spheres.")
    sub = parser.add_subparsers(dest="command", required=True)
    for command, (help_text, input_metavar) in _COMMANDS.items():
        p = sub.add_parser(command, help=help_text)
        p.add_argument("--config", metavar="PATH", default=argparse.SUPPRESS,
                       help="key = value config file; flags override it")
        if input_metavar:
            p.add_argument("input", metavar=input_metavar)
        for name, setting in _SETTINGS.items():
            if command in setting.commands:
                p.add_argument("--" + name.replace("_", "-"), default=argparse.SUPPRESS,
                               **setting.flag)
    return parser


def _read_config_file(path: str) -> dict:
    values = {}
    try:
        with _open_text(path) as fh:
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
    except (OSError, ValueError) as exc:  # a directory, say, or not UTF-8; both name it
        raise UsageError(str(exc)) from None
    return values


def _merge_settings(command: str, flag_values: dict, file_values: dict) -> dict:
    settings = {k: s for k, s in _SETTINGS.items() if command in s.commands}
    merged = {k: s.default for k, s in settings.items()}
    for key, text in file_values.items():
        if key not in _SETTINGS:
            raise UsageError(f"unknown config key {key!r}")
        if key not in settings:
            continue  # shared config files may hold other commands' keys
        try:
            merged[key] = settings[key].convert(text)
        except ValueError as exc:
            raise UsageError(f"config key {key!r}: {exc}") from None
    merged.update(flag_values)
    for key, setting in settings.items():
        choices = setting.flag.get("choices")
        if choices and merged[key] is not None and merged[key] not in choices:
            raise UsageError(f"{key} must be one of {', '.join(choices)}")
    return merged


def _fit_config(merged: dict) -> FitConfig:
    kwargs = {s.fit_field: merged[key] for key, s in _SETTINGS.items()
              if s.fit_field and merged[key] is not None}
    try:
        if merged["kernel"] is not None or merged["bandwidth"] is not None:
            default = FitConfig().kernel
            kwargs["kernel"] = KernelSpec(
                default.kind if merged["kernel"] is None else _KERNEL_NAMES[merged["kernel"]],
                default.bandwidth if merged["bandwidth"] is None else merged["bandwidth"])
        return FitConfig(**kwargs)
    except ValueError as exc:
        # FitConfig words its fields; name the settings the user set instead
        settings = {s.fit_field: key for key, s in _SETTINGS.items() if s.fit_field}
        text = re.sub(r"\w+", lambda word: settings.get(word[0], word[0]), str(exc))
        raise UsageError(text) from None


def _start_point(text: str, points: PointArray) -> tuple[Point, str]:
    if text == "mean":
        return frechet_mean(points), "mean"
    try:
        coords = np.array([float(part) for part in text.split(",")])
    except ValueError:
        raise UsageError("--start must be mean or a comma-separated float list, "
                         f"got {text!r}") from None
    if not np.isfinite(coords).all():
        raise UsageError(f"--start must be finite, got {text!r}")
    if len(coords) != points.coords.shape[1]:
        raise UsageError(f"--start has {len(coords)} components but the data has "
                         f"{points.coords.shape[1]} coordinate columns")
    if points.chart == SPHERE:
        norm = float(np.linalg.norm(coords))
        if abs(norm - 1.0) > _INPUT_UNIT_TOL:
            raise UsageError(f"custom start must be a unit vector (norm {norm!r})")
        return project_to_sphere(coords), "custom"
    return Point(coords, FLAT), "custom"


# -- output bookkeeping: compute first, write late, clean up on failure --

# each output path, registered before its writer opens it, so a failure
# part-way removes it too
_Written = list[Path]


def _remove_outputs(written: _Written) -> None:
    for p in written:
        try:
            p.unlink()
        except OSError:
            pass


def _say(merged: dict, text: str) -> None:
    if not merged["quiet"]:
        print(text)


def _out_dir(merged: dict) -> Path:
    out = Path(merged["out"])
    out.mkdir(parents=True, exist_ok=True)
    return out


def _write_dataset(points: PointArray, path: Path, meta: dict, written: _Written) -> None:
    written.extend([path, meta_path_for(path)])
    write_dataset_csv(points, path, meta)


def _cmd_generate(merged: dict, written: _Written) -> None:
    family = merged["family"]
    if family is None:
        raise UsageError("generate requires --family (or a config file entry)")
    # the family's parameters that are set; generate fills in the rest
    params = {name: merged[name] for name in RECIPES[family][1] if merged[name] is not None}
    try:
        # out-of-range values raise ValueError, an infeasible shift InfeasibleShiftError
        points, info = generate(family, merged["n"], merged["seed"], params, merged["shift"])
    except (ValueError, InfeasibleShiftError) as exc:
        raise UsageError(str(exc)) from None
    path = _out_dir(merged) / f"{family}.csv"
    _write_dataset(points, path, {"kind": "dataset", "chart": SPHERE, **info}, written)
    _say(merged, f"wrote {path} ({len(points)} points, family {family})")


def _cmd_shapes(merged: dict, input_path: Path, written: _Written) -> None:
    landmarks, ids = read_landmarks(input_path)
    aligned, mean = align_dataset(landmarks, ids)
    k = landmarks.shape[1]
    path = _out_dir(merged) / "preshapes.csv"
    meta = {
        "kind": "preshape", "chart": SPHERE, "k": k,
        "n": len(aligned), "mean": [float(v) for v in mean.coords],
        "specimen_ids": ids,
    }
    _write_dataset(aligned, path, meta, written)
    _say(merged, f"aligned {len(aligned)} configurations of {k} landmarks -> {path}")


def _kernel_dict(kernel: KernelSpec) -> dict:
    bw = kernel.bandwidth
    return {"kind": kernel.kind, "bandwidth": bw if math.isfinite(bw) else "inf"}


def _cmd_fit(merged: dict, input_path: Path, written: _Written,
             with_geodesics: bool) -> None:
    points, meta = read_dataset_csv(input_path)
    cfg = _fit_config(merged)
    width = points.coords.shape[1]
    tangent_dim = _tangent_dim(points.chart, width)
    if cfg.dim > tangent_dim:
        raise UsageError(f"--k {cfg.dim} exceeds the data's tangent dimension {tangent_dim} "
                         f"({width} coordinate columns on the {points.chart} chart)")
    if merged["grid_samples"] < 3 or merged["grid_samples"] % 2 == 0:
        raise UsageError("--grid-samples must be an odd number >= 3")
    start, start_kind = _start_point(merged["start"], points)

    sub = fit_submanifold(points, start, cfg)
    pds, note = principal_directions(sub)
    geodesics = principal_geodesics(sub) if with_geodesics else None
    proj = project_submanifold(sub, points, pds, geodesics)
    score = variation_score(sub, points)
    is_shape_data = meta.get("kind") == "preshape"
    grid = shape_grid(sub, merged["grid_samples"]) if is_shape_data else None

    if not merged["quiet"]:
        per_net = np.array(score.per_net)
        print(f"fitted {len(sub.nets)} nets from the {start_kind} start ({len(points)} data points)")
        for net in sub.nets:
            print(f"net {net.direction_index:>3}: {net.stop_reason.value} "
                  f"after {len(net.points) - 1} levels (length {net_length(net):.4f})")
        print(f"variation score: total {score.total:.6g} "
              f"(per-net mean {per_net.mean():.6g}, max {per_net.max():.6g})")

    out = _out_dir(merged)
    sub_path = out / "submanifold.csv"
    proj_path = out / "projected.csv"
    summary_path = out / "summary.json"
    written.append(sub_path)
    write_submanifold_csv(sub, sub_path)
    written.append(proj_path)
    write_projected_csv(proj_path, proj)
    summary = {
        "command": "compare-geodesic" if with_geodesics else "fit",
        "input": input_path.name,
        "n_points": len(points),
        "config": {**dataclasses.asdict(cfg), "kernel": _kernel_dict(cfg.kernel)},
        "start_kind": start_kind,
        "start": [float(v) for v in start.coords],
        "stop_reasons": {str(n.direction_index): n.stop_reason.value
                         for n in sub.nets},
        "variation_score": {"total": score.total, "per_net": list(score.per_net),
                            "skipped": score.skipped},
    }
    if note:
        summary["note"] = note
    if geodesics is not None:
        summary["geodesic_levels"] = {str(k): len(v) for k, v in geodesics.items()}
    written.append(summary_path)
    _write_json(summary_path, summary, sort_keys=True)
    if grid is not None:
        shapes_path = out / "shapes.json"
        written.append(shapes_path)
        write_shapes_json(shapes_path, grid, start_kind)
    for p in written:
        _say(merged, f"wrote {p}")


def main(argv=None) -> int:
    written: _Written = []
    try:
        try:
            flag_values = vars(_build_parser().parse_args(argv)).copy()
        except SystemExit as exc:  # --help has printed
            return int(exc.code or 0)
        command = flag_values.pop("command")
        input_arg = flag_values.pop("input", None)
        config_path = flag_values.pop("config", None)
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
