"""End-to-end and per-layer benchmark of the psm command line.

    python3 bench/run.py --workload sheet --seed 1 --seconds 32 --trace 0

Run from the root of a source checkout: the benchmark imports psm from
./src, never from an installed copy, and keeps its inputs and outputs under
./.bench_work.  One process runs one workload.  After set-up it calls
psm.cli.main in-process for whole rounds of the workload's invocations
until --seconds have passed, checks every output with its own numpy code
(bench/checks.py), and prints one JSON object as the last line of stdout.

--trace 0 reports the end-to-end metrics (medians over rounds; setup_s is
the median over several set-ups).  --trace 1 wraps the public functions
that psm.cli calls with timing spans and reports the per-layer metrics.
BLAS is pinned to one thread; PSM_THREADS is passed through to psm, so
leave it unset to measure the default fit pool.  See bench/README.md for
the workloads, the metrics and how they relate.
"""

from __future__ import annotations

import os

# One BLAS thread: the default fit pool already runs one thread per CPU, and
# BLAS threads on top of it oversubscribe the machine.  Must precede numpy.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import gc
import hashlib
import importlib
import json
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

import numpy as np

import checks

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"

SETUP_REPEATS = 3    # set-ups before the first round; one more precedes each later round
MICRO_SECONDS = 0.5  # per micro-measure of one public call in the traced run

# psm's FitConfig defaults, which the workloads rely on.
EPSILON, DELTA, MAX_LENGTH, DIRECTIONS = 0.02, 0.2, 1.0, 180

# The 13-landmark "3" outline of the digit recipe: jitter each landmark,
# then rotate, scale and shift the whole specimen.
DIGIT3_BASE = np.array([
    [0.0, 1.0], [0.5, 1.1], [0.9, 0.8], [0.6, 0.45], [0.2, 0.35],
    [0.6, 0.25], [0.95, 0.0], [0.9, -0.5], [0.5, -0.9], [0.0, -1.0],
    [-0.4, -0.8], [-0.1, 0.1], [-0.35, 0.85],
])
DIGIT_SPECIMENS = 3000
DIGIT_JITTER = 0.03


def specimen_ids() -> list[str]:
    return [f"spec{s:04d}" for s in range(DIGIT_SPECIMENS)]


def write_digit_landmarks(path: Path, seed: int) -> None:
    rng = np.random.default_rng(seed)
    lines = ["specimen_id,landmark_index,x,y"]
    for sid in specimen_ids():
        noisy = DIGIT3_BASE + rng.normal(0.0, DIGIT_JITTER, DIGIT3_BASE.shape)
        ang = rng.uniform(0.0, 2.0 * np.pi)
        rot = np.array([[np.cos(ang), -np.sin(ang)], [np.sin(ang), np.cos(ang)]])
        scale = rng.uniform(0.5, 2.0)
        shift = rng.uniform(-3.0, 3.0, 2)
        for i, (x, y) in enumerate(noisy @ rot.T * scale + shift):
            lines.append(f"{sid},{i},{float(x)!r},{float(y)!r}")
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


# -- workloads: set-up, one round of CLI invocations, output checks --
#
# Each workload names the dataset its fit reads (`data`), the output
# directories one round writes (`outputs`) and the kernel and k of that fit.

class Sheet:
    """psm fit on sea_wave n=200: defaults (k=2, 180 directions), Gaussian kernel 0.4.

    The default uniform ball of 0.4 fails some seeds' fits after the nets are
    grown (variation_score raises RankDeficientError, exit 1), so this
    workload uses the Gaussian profile at the same bandwidth.
    """

    kernel, bandwidth, dim = "gaussian", 0.4, 2
    outputs = ("fit",)

    def __init__(self, work: Path):
        self.data = work / "in" / "sea_wave.csv"
        self.out = work / "fit"

    def setup(self, cli, seed: int) -> None:
        setup_cli(cli, ["generate", "--family", "sea_wave", "--n", "200",
                      "--seed", str(seed), "--out", str(self.data.parent)])

    def round(self) -> list[list[str]]:
        return [["fit", str(self.data), "--kernel", self.kernel,
                 "--bandwidth", str(self.bandwidth), "--out", str(self.out)]]

    def check(self) -> list[str]:
        return checks.check_fit(self.out, self.data, epsilon=EPSILON, delta=DELTA,
                                max_length=MAX_LENGTH, num_nets=DIRECTIONS)


class WideFlow:
    """psm compare-geodesic, a k=1 Gaussian flow, on s_curve n=20000."""

    kernel, bandwidth, dim, epsilon = "gaussian", 0.15, 1, 0.005
    outputs = ("fit",)

    def __init__(self, work: Path):
        self.data = work / "in" / "s_curve.csv"
        self.out = work / "fit"

    def setup(self, cli, seed: int) -> None:
        setup_cli(cli, ["generate", "--family", "s_curve", "--n", "20000",
                      "--seed", str(seed), "--out", str(self.data.parent)])

    def round(self) -> list[list[str]]:
        return [["compare-geodesic", str(self.data), "--k", "1", "--kernel", self.kernel,
                 "--bandwidth", str(self.bandwidth), "--epsilon", str(self.epsilon),
                 "--out", str(self.out)]]

    def check(self) -> list[str]:
        return (checks.check_fit(self.out, self.data, epsilon=self.epsilon, delta=DELTA,
                                 max_length=MAX_LENGTH, num_nets=2)
                + checks.check_flow_first_steps(self.out, self.data, self.bandwidth))


class Procrustes:
    """psm shapes on jittered digit-3 landmarks, then psm fit with a shape grid."""

    kernel, bandwidth, dim, grid = "uniform_ball", 0.4, 2, 9
    outputs = ("shapes", "fit")

    def __init__(self, work: Path):
        self.landmarks = work / "in" / "digits.csv"
        self.data = work / "shapes" / "preshapes.csv"
        self.out = work / "fit"

    def setup(self, cli, seed: int) -> None:
        self.landmarks.parent.mkdir(parents=True, exist_ok=True)
        write_digit_landmarks(self.landmarks, seed)

    def round(self) -> list[list[str]]:
        return [["shapes", str(self.landmarks), "--out", str(self.data.parent)],
                ["fit", str(self.data), "--grid-samples", str(self.grid),
                 "--out", str(self.out)]]

    def check(self) -> list[str]:
        return (checks.check_preshapes(self.data, specimen_ids())
                + checks.check_fit(self.out, self.data, epsilon=EPSILON, delta=DELTA,
                                   max_length=MAX_LENGTH, num_nets=DIRECTIONS)
                + checks.check_shape_grid(self.out, self.grid))


WORKLOADS = {"sheet": Sheet, "wide_flow": WideFlow, "procrustes": Procrustes}


# -- per-layer tracing: spans around the calls psm.cli makes into each layer --

# name in the psm.cli namespace -> per-layer span it is timed under
TRACED_CALLS = {
    "generate": "datagen.generate_s",
    "read_dataset_csv": "datagen.read_s",
    "read_landmarks": "shape.read_landmarks_s",
    "align_dataset": "shape.align_dataset_s",
    "frechet_mean": "tangent_stats.frechet_mean_s",
    "fit_submanifold": "fitting.fit_s",
    "variation_score": "fitting.variation_score_s",
    "principal_directions": "viz.project_s",
    "project_submanifold": "viz.project_s",
    "shape_grid": "viz.shape_grid_s",
    "write_dataset_csv": "viz.write_s",
    "write_submanifold_csv": "viz.write_s",
    "write_projected_csv": "viz.write_s",
    "write_shapes_json": "viz.write_s",
}
SPAN_NAMES = sorted(set(TRACED_CALLS.values()))


class Tracer:
    """Records (span, start, end) for every wrapped call, in memory."""

    def __init__(self):
        self.spans: list[tuple[str, float, float]] = []
        self.rows_read = 0

    def install(self, cli) -> None:
        for attr, span in TRACED_CALLS.items():
            if not hasattr(cli, attr):
                raise RuntimeError(f"psm.cli no longer calls {attr}; update TRACED_CALLS")
            setattr(cli, attr, self._wrap(getattr(cli, attr), span, attr == "read_dataset_csv"))

    def _wrap(self, fn, span, counts_rows):
        def timed(*args, **kwargs):
            t0 = time.perf_counter()
            out = fn(*args, **kwargs)
            self.spans.append((span, t0, time.perf_counter()))
            if counts_rows:
                self.rows_read += len(out[0])
            return out
        return timed

    def take(self) -> tuple[dict[str, float], int]:
        totals = dict.fromkeys(SPAN_NAMES, 0.0)
        for span, t0, t1 in self.spans:
            totals[span] += t1 - t0
        rows, self.spans, self.rows_read = self.rows_read, [], 0
        return totals, rows


# -- running --

def run_cli(cli, argv: list[str]) -> int:
    return cli.main(argv + ["--quiet"])


def setup_cli(cli, argv: list[str]) -> None:
    if run_cli(cli, argv) != 0:
        raise RuntimeError(f"set-up invocation failed: psm {' '.join(argv)}")


def import_psm_cli():
    """Import psm.cli afresh from ./src (any earlier import is dropped first)."""
    for name in [m for m in sys.modules if m == "psm" or m.startswith("psm.")]:
        del sys.modules[name]
    importlib.invalidate_caches()
    cli = importlib.import_module("psm.cli")
    if Path(cli.__file__).resolve().parent != SRC / "psm":
        raise RuntimeError(f"psm was imported from {cli.__file__}, not from {SRC}")
    return cli


def digest(dirs: list[Path]) -> str:
    h = hashlib.sha256()
    for d in dirs:
        for p in sorted(d.rglob("*")):
            h.update(str(p.relative_to(d.parent)).encode())
            h.update(p.read_bytes())
    return h.hexdigest()


def output_bytes(dirs: list[Path]) -> int:
    return sum(p.stat().st_size for d in dirs for p in d.rglob("*"))


def net_steps(fit_dir: Path) -> int:
    nets = checks.read_nets(fit_dir / "submanifold.csv")
    return sum(len(pts) - 1 for pts in nets.values())


def median_us(fn, seconds: float) -> float:
    times = []
    stop = time.perf_counter() + seconds
    while len(times) < 5 or time.perf_counter() < stop:
        t0 = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t0)
    return statistics.median(times) * 1e6


def micro_layers(wl) -> dict[str, float]:
    """Median cost of one local_covariance and one eigenframe call at the start."""
    from psm import KernelSpec, eigenframe, frechet_mean, local_covariance, read_dataset_csv

    points, _ = read_dataset_csv(wl.data)
    start = frechet_mean(points)
    kernel = KernelSpec(wl.kernel, wl.bandwidth)
    cov = local_covariance(start, points, kernel)
    return {
        "tangent_stats.local_covariance_us":
            median_us(lambda: local_covariance(start, points, kernel), MICRO_SECONDS),
        "tangent_stats.eigenframe_us":
            median_us(lambda: eigenframe(cov, start, wl.dim), MICRO_SECONDS),
    }


def bench(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    work = WORK / workload
    shutil.rmtree(work, ignore_errors=True)
    wl = WORKLOADS[workload](work)
    out_dirs = [work / name for name in wl.outputs]
    tracer = Tracer() if trace else None

    # Set-up is repeated between rounds too, so that setup_s samples the
    # same stretch of machine time as wall_s rather than its first seconds.
    setup_times, generate_times = [], []

    def set_up():
        t0 = time.perf_counter()
        cli = import_psm_cli()
        if tracer:
            tracer.install(cli)
        wl.setup(cli, seed)
        setup_times.append(time.perf_counter() - t0)
        if tracer:
            generate_times.append(tracer.take()[0]["datagen.generate_s"])
        return cli

    for _ in range(SETUP_REPEATS):
        cli = set_up()
    attempted = failed = 0
    rounds: list[dict] = []
    first_digest = None
    deterministic = True
    stop = time.perf_counter() + seconds
    while not rounds or time.perf_counter() < stop:
        if rounds:
            cli = set_up()
        gc.collect()
        w0, c0 = time.perf_counter(), time.process_time()
        codes = [run_cli(cli, argv) for argv in wl.round()]
        wall, cpu = time.perf_counter() - w0, time.process_time() - c0
        attempted += len(codes)
        failed += sum(code != 0 for code in codes)
        record = {"wall_s": wall, "cpu_s": cpu}
        if tracer:
            totals, rows = tracer.take()
            record.update(totals, rows=rows)
        rounds.append(record)
        if failed:
            continue
        d = digest(out_dirs)
        first_digest = first_digest or d
        deterministic &= d == first_digest

    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024  # before the checks
    errors = [] if deterministic else ["repeated invocations wrote different bytes"]
    if not failed:
        errors += wl.check()
    for msg in errors:
        print(f"check failed: {msg}", file=sys.stderr)
    print("round wall_s/cpu_s: " + " ".join(f"{r['wall_s']:.3f}/{r['cpu_s']:.3f}" for r in rounds),
          file=sys.stderr)

    def med(key):
        return statistics.median(r[key] for r in rounds)

    if not trace:
        metrics = {
            "wall_s": (med("wall_s"), "s"),
            "cpu_s": (med("cpu_s"), "s"),
            "peak_rss_mb": (peak_rss_mb, "MB"),
            "setup_s": (statistics.median(setup_times), "s"),
        }
    else:
        spans = {name: med(name) for name in SPAN_NAMES}
        spans["datagen.generate_s"] = statistics.median(generate_times)
        steps = net_steps(wl.out) if not failed else 0

        def per_step_us(seconds):
            return seconds / steps * 1e6 if steps else 0.0

        metrics = {name: (value, "s") for name, value in spans.items()}
        metrics.update({
            "fitting.net_steps": (steps, "count"),
            "fitting.step_us": (per_step_us(spans["fitting.fit_s"]), "us"),
            "fitting.score_us": (per_step_us(spans["fitting.variation_score_s"]), "us"),
            "datagen.rows_read": (int(med("rows")), "count"),
            "viz.bytes_written": (output_bytes(out_dirs), "bytes"),
            "cli.main_s": (med("wall_s"), "s"),
            "cli.self_s": (statistics.median(
                r["wall_s"] - sum(r[n] for n in SPAN_NAMES) for r in rounds), "s"),
        })
        if not failed:
            metrics.update({k: (v, "us") for k, v in micro_layers(wl).items()})
    return {
        "correct": not errors,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in sorted(metrics.items())},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "psm" / "__init__.py").is_file():
        print(f"error: no psm sources under {SRC}; run from a psm checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    result = bench(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
