"""Alternating pairs of benchmark runs on two checkouts, summed up in one JSON object.

    python3 tools/bench_pairs.py PARENT CHANGE [--workloads sheet,wide_flow,procrustes]
                                 [--pairs 10] [--seconds S] [--seed 1]

For each workload and pair, runs `python3 bench/run.py --workload W --seed N
--seconds S --trace 0` in a subprocess from the root of each checkout: the
parent first in odd pairs, the change first in even pairs, so that a drift of
the machine does not favour one side.  --seconds defaults to the run_seconds
of CHANGE/BENCHMARK.json, whose end_to_end list names the metrics and says
which way is better.

Prints one JSON object.  For each workload and end-to-end metric it holds the
parent's and the change's median, the spread between the quartiles of the
parent's runs (statistics.quantiles, n=4; null for fewer than two runs) and
the number of pairs that the change wins.  It also lists every run with its
correct, attempted and failed counts and its metrics.  Exits 1 when a run is
not correct or its subprocess fails.  The tool writes no file itself; each
run writes what bench/run.py writes in its checkout (.bench_work).
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

SIDES = ("parent", "change")


def run_once(checkout: Path, workload: str, seed: int, seconds: float) -> dict:
    """One bench/run.py run from checkout's root: its JSON result, or a run
    that is not correct, with the error, when the subprocess fails."""
    done = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=checkout, capture_output=True, text=True)
    lines = done.stdout.splitlines()
    if done.returncode != 0 or not lines:
        return {"correct": False, "error": (done.stderr.strip().splitlines() or [""])[-1]}
    result = json.loads(lines[-1])
    result["metrics"] = {name: m["value"] for name, m in result["metrics"].items()}
    return result


def summary(runs: list[dict], metrics: list[dict]) -> dict:
    """Medians, the parent's quartile spread and the change's wins per metric."""
    out = {}
    for metric in metrics:
        name, lower = metric["name"], metric["better"] == "lower"
        values = {side: [r["metrics"][name] for r in runs if r["side"] == side and "metrics" in r]
                  for side in SIDES}
        pairs = {}
        for r in runs:
            if "metrics" in r:
                pairs.setdefault(r["pair"], {})[r["side"]] = r["metrics"][name]
        wins = sum(len(p) == 2 and (p["change"] < p["parent"] if lower
                                    else p["change"] > p["parent"])
                   for p in pairs.values())
        parent = values["parent"]
        quartiles = statistics.quantiles(parent, n=4) if len(parent) >= 2 else None
        out[name] = {
            "unit": metric["unit"],
            "better": metric["better"],
            "parent_median": statistics.median(parent) if parent else None,
            "change_median": statistics.median(values["change"]) if values["change"] else None,
            "parent_quartile_spread": quartiles[2] - quartiles[0] if quartiles else None,
            "change_wins": wins,
            "pairs": len(pairs),
        }
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path)
    parser.add_argument("--workloads", default="sheet,wide_flow,procrustes",
                        help="comma-separated workloads (default sheet,wide_flow,procrustes)")
    parser.add_argument("--pairs", type=int, default=10, help="pairs per workload (default 10)")
    parser.add_argument("--seconds", type=float,
                        help="seconds per run (default: CHANGE/BENCHMARK.json run_seconds)")
    parser.add_argument("--seed", type=int, default=1, help="workload seed (default 1)")
    args = parser.parse_args(argv)
    declared = json.loads((args.change / "BENCHMARK.json").read_text())
    seconds = declared["run_seconds"] if args.seconds is None else args.seconds
    checkouts = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    report = {"seed": args.seed, "seconds": seconds, "pairs": args.pairs, "workloads": {}}
    ok = True
    for workload in args.workloads.split(","):
        runs = []
        for pair in range(1, args.pairs + 1):
            for side in SIDES if pair % 2 else SIDES[::-1]:
                result = run_once(checkouts[side], workload, args.seed, seconds)
                ok &= result["correct"]
                runs.append({"pair": pair, "side": side, **result})
                print(f"{workload} pair {pair} {side}: "
                      f"{result.get('metrics', result.get('error'))}", file=sys.stderr)
        report["workloads"][workload] = {"metrics": summary(runs, declared["end_to_end"]),
                                         "runs": runs}
    print(json.dumps(report, indent=1))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
