"""Smoke test of tools/bench_digests.py."""

import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
TOOL = ROOT / "tools" / "bench_digests.py"


def files_under(root):
    return sorted(p.relative_to(root).as_posix() for p in root.rglob("*"))


def test_bench_digests_repeat_and_write_nothing_to_the_checkout(tmp_path):
    # a copy of the sources and the benchmark, which the tool must leave as it is
    checkout = tmp_path / "checkout"
    for part in ("src", "bench"):
        shutil.copytree(ROOT / part, checkout / part,
                        ignore=shutil.ignore_patterns("__pycache__"))
    before = files_under(checkout)
    runs = [subprocess.run([sys.executable, str(TOOL), str(checkout), "--seeds", "1",
                            "--workload", "sheet"],
                           capture_output=True, text=True, check=True).stdout
            for _ in range(2)]
    assert runs[0] == runs[1]
    lines = [line.split() for line in runs[0].splitlines()]
    assert [line[:3] for line in lines] == [
        ["sheet", "1", path] for path in ("fit/projected.csv", "fit/submanifold.csv",
                                         "fit/summary.json", "in/sea_wave.csv",
                                         "in/sea_wave.meta.json")]
    assert all(len(line) == 4 and len(line[3]) == 64 for line in lines)
    assert files_under(checkout) == before
