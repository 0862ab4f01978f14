"""Smoke tests of the scripts under tools/, an unused-import lint and a recipe guard."""

import ast
import json
import shutil
import subprocess
import sys
from pathlib import Path

from psm.cli import _SETTINGS
from psm.datagen import RECIPES

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


def test_untested_lines_lists_statements_a_run_misses(tmp_path):
    # test_geometry.py runs no command line, so statements of cli.py are listed
    done = subprocess.run([sys.executable, str(ROOT / "tools" / "untested_lines.py"), "-q",
                           str(ROOT / "tests" / "test_geometry.py")],
                          cwd=tmp_path, capture_output=True, text=True, check=True,
                          timeout=300)
    lines = done.stdout.splitlines()
    listed = [line for line in lines if line.startswith("src/psm/")]
    assert any(line.startswith("src/psm/cli.py:") for line in listed)
    assert lines[-1] == f"{len(listed)} statements under src/psm never ran"
    assert list(tmp_path.iterdir()) == []


def _bench_checkout(root, with_sources=True):
    for part in ("src", "bench") if with_sources else ("bench",):
        shutil.copytree(ROOT / part, root / part, ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", root)
    return str(root)


def _bench_pairs(tmp_path, parent, change):
    return subprocess.run([sys.executable, str(ROOT / "tools" / "bench_pairs.py"), parent, change,
                           "--workloads", "sheet", "--pairs", "1", "--seconds", "0.1"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=300)


def test_bench_pairs_reports_medians_and_every_run(tmp_path):
    done = _bench_pairs(tmp_path, _bench_checkout(tmp_path / "parent"),
                        _bench_checkout(tmp_path / "change"))
    assert done.returncode == 0, done.stderr
    report = json.loads(done.stdout)["workloads"]["sheet"]
    assert sorted(report["metrics"]) == ["cpu_s", "peak_rss_mb", "setup_s", "wall_s"]
    assert all(m["pairs"] == 1 and m["parent_median"] > 0 for m in report["metrics"].values())
    assert [(run["side"], run["correct"]) for run in report["runs"]] == [
        ("parent", True), ("change", True)]


def test_bench_pairs_fails_when_a_run_fails(tmp_path):
    # a checkout without sources makes bench/run.py exit 2
    done = _bench_pairs(tmp_path, _bench_checkout(tmp_path / "parent"),
                        _bench_checkout(tmp_path / "change", with_sources=False))
    assert done.returncode == 1
    runs = json.loads(done.stdout)["workloads"]["sheet"]["runs"]
    assert [(run["side"], run["correct"]) for run in runs] == [
        ("parent", True), ("change", False)]


def _unused_imports(path):
    """The names path imports that no ast.Name in it uses."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"{path.relative_to(ROOT)}:{line}: {name}"
            for name, line in imported.items() if name not in used]


def test_no_unused_imports():
    # psm/__init__.py imports to re-export; bench/ belongs to the benchmark
    paths = [p for p in sorted((ROOT / "src" / "psm").glob("*.py")) if p.name != "__init__.py"]
    paths += sorted((ROOT / "tests").glob("*.py")) + sorted((ROOT / "tools").glob("*.py"))
    assert [entry for path in paths for entry in _unused_imports(path)] == []


def test_every_recipe_parameter_is_a_generate_setting():
    # _cmd_generate reads each of the family's parameters from the settings
    for family, (_, defaults) in RECIPES.items():
        for key in defaults:
            assert key in _SETTINGS and "generate" in _SETTINGS[key].commands, (family, key)
