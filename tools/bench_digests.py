"""SHA-256 of every input and output of the benchmark workloads.

    python3 tools/bench_digests.py CHECKOUT [--seeds 1,2,3] [--workload NAME]

Imports psm from CHECKOUT/src and the workloads from CHECKOUT/bench/run.py,
then, for each workload and seed, runs its set-up and one round of its CLI
invocations in a temporary directory.  Prints one line per file,
"workload seed path sha256", sorted.  Nothing is written under CHECKOUT (no
.bench_work, no bytecode), so two checkouts compare with diff:

    python3 tools/bench_digests.py . > change.txt
    python3 tools/bench_digests.py ../parent > parent.txt
    diff parent.txt change.txt
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.util
import sys
import tempfile
from pathlib import Path

sys.dont_write_bytecode = True


def load_bench(checkout: Path):
    """CHECKOUT/bench/run.py as a module, with CHECKOUT/src first on sys.path.

    Loading it first lets run.py pin BLAS to one thread before numpy loads."""
    sys.path[:0] = [str(checkout / "src"), str(checkout / "bench")]
    spec = importlib.util.spec_from_file_location("bench_run", checkout / "bench" / "run.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def digests(bench, workload: str, seed: int) -> list[tuple[str, int, str, str]]:
    """(workload, seed, path, sha256) of every file that the workload's set-up
    and one round write, the path relative to its work directory."""
    with tempfile.TemporaryDirectory() as tmp:
        work = Path(tmp)
        cli = bench.import_psm_cli()
        wl = bench.WORKLOADS[workload](work)
        wl.setup(cli, seed)
        for argv in wl.round():
            if bench.run_cli(cli, argv) != 0:
                raise RuntimeError(f"{workload} seed {seed}: psm {' '.join(argv)} failed")
        return [(workload, seed, p.relative_to(work).as_posix(),
                 hashlib.sha256(p.read_bytes()).hexdigest())
                for p in work.rglob("*") if p.is_file()]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("checkout", type=Path)
    parser.add_argument("--seeds", default="1,2,3",
                        help="comma-separated seeds (default 1,2,3)")
    parser.add_argument("--workload", help="one workload (default: all)")
    args = parser.parse_args(argv)
    checkout = args.checkout.resolve()
    if not (checkout / "bench" / "run.py").is_file():
        parser.error(f"{checkout} holds no bench/run.py")
    seeds = [int(s) for s in args.seeds.split(",")]
    bench = load_bench(checkout)
    names = [args.workload] if args.workload else sorted(bench.WORKLOADS)
    for name in names:
        if name not in bench.WORKLOADS:
            parser.error(f"unknown workload {name!r}; choose from {sorted(bench.WORKLOADS)}")
    rows = sorted(row for name in names for seed in seeds for row in digests(bench, name, seed))
    for row in rows:
        print(*row)
    return 0


if __name__ == "__main__":
    sys.exit(main())
