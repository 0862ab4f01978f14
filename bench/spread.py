"""Run the benchmark over several seeds and report each metric's spread.

    python3 bench/spread.py --workload sheet --seeds 1-10 [--seconds N] [--trace 1]

Runs bench/run.py once per seed, one run at a time, from the checkout root.
For every metric it prints the median and the quartile spread (Q3 - Q1, as
statistics.quantiles(values, n=4) gives them) as a share of the median, next
to the metric's bound from BENCHMARK.json.  Raw result lines are appended to
.bench_work/spread-<workload>.jsonl.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def parse_seeds(text: str) -> list[int]:
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    log = ROOT / ".bench_work" / f"spread-{args.workload}.jsonl"
    log.parent.mkdir(parents=True, exist_ok=True)
    results = []
    for seed in parse_seeds(args.seeds):
        cmd = spec["command"] + ["--workload", args.workload, "--seed", str(seed),
                                 "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, check=True)
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        results.append(result)
        with open(log, "a", encoding="utf-8") as fh:
            fh.write(json.dumps({"seed": seed, "trace": args.trace, **result}) + "\n")
        print(f"seed {seed}: correct={result['correct']} attempted={result['attempted']} "
              f"failed={result['failed']}", file=sys.stderr)

    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"]}
    print(f"{args.workload}: {len(results)} runs, all correct: "
          f"{all(r['correct'] for r in results)}, failed shares: "
          f"{sorted({r['failed'] / r['attempted'] for r in results})}")
    for name in results[0]["metrics"]:
        values = [r["metrics"][name]["value"] for r in results]
        med = statistics.median(values)
        line = f"  {name:36s} median {med:12.6g} {results[0]['metrics'][name]['unit']:6s}"
        if len(values) >= 2 and med:
            q1, _, q3 = statistics.quantiles(values, n=4)
            line += f"  spread {(q3 - q1) / med:7.2%}"
        if bounds.get(name) is not None:
            line += f"  bound {bounds[name]:.0%}"
        print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main())
