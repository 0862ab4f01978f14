"""Statements under src/psm that a pytest run never executes.

    python3 tools/untested_lines.py [PYTEST_ARGS...]

Runs pytest in this process with PYTEST_ARGS, plus the repository's tests
directory when they name no existing test path.  A line tracer, set through
sys.settrace and threading.settrace, follows only frames whose code lives
under src/psm.  Then prints "path:line: statement" for each statement that
never ran, in file order, and a last line with their count.  Statements
come from each module's ast; def and class headers, imports, docstrings and
global/nonlocal declarations are left out, as they run at import or emit
no line event.  The exit code is pytest's.  The tool writes no file (no
bytecode, no pytest cache); the tests write what they always do, such as
hypothesis' .hypothesis directory.  No coverage package is needed.
"""

from __future__ import annotations

import ast
import sys
import threading
from pathlib import Path

sys.dont_write_bytecode = True

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "psm"

_SKIPPED = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef, ast.Import,
            ast.ImportFrom, ast.Global, ast.Nonlocal)


def _is_docstring(node: ast.stmt, parent: ast.AST) -> bool:
    return (isinstance(node, ast.Expr) and isinstance(node.value, ast.Constant)
            and isinstance(node.value.value, str) and parent.body[0] is node)


def statements(path: Path) -> list[tuple[int, range]]:
    """(first line, lines that report it) of each counted statement in a module.

    A simple statement reports on any of its lines; a compound one (if, for,
    while, try, with) on the lines of its header, up to its first body line.
    """
    tree = ast.parse(path.read_text(encoding="utf-8"))
    found = []
    for parent in ast.walk(tree):
        for name in ("body", "orelse", "finalbody"):
            block = getattr(parent, name, None)
            for node in block if isinstance(block, list) else ():
                if isinstance(node, _SKIPPED):
                    continue
                if name == "body" and _is_docstring(node, parent):
                    continue
                inner = getattr(node, "body", None)
                last = inner[0].lineno - 1 if inner else node.end_lineno
                found.append((node.lineno, range(node.lineno, max(last, node.lineno) + 1)))
    return sorted(found)


def main(argv: list[str]) -> int:
    sys.path.insert(0, str(ROOT / "src"))
    prefix = str(PACKAGE) + "/"
    ran: set[tuple[str, int]] = set()

    def local(frame, event, arg):
        if event == "line":
            ran.add((frame.f_code.co_filename, frame.f_lineno))
        return local

    def tracer(frame, event, arg):
        return local if frame.f_code.co_filename.startswith(prefix) else None

    import pytest

    named = any(Path(arg.split("::")[0]).exists() for arg in argv if not arg.startswith("-"))
    paths = [] if named else [str(ROOT / "tests")]

    threading.settrace(tracer)
    sys.settrace(tracer)
    try:
        code = pytest.main(["-p", "no:cacheprovider", "-p", "no:benchmark", *argv, *paths])
    finally:
        sys.settrace(None)
        threading.settrace(None)

    missed = 0
    for path in sorted(PACKAGE.rglob("*.py")):
        lines = path.read_text(encoding="utf-8").splitlines()
        for first, span in statements(path):
            if not any((str(path), line) in ran for line in span):
                missed += 1
                print(f"{path.relative_to(ROOT).as_posix()}:{first}: {lines[first - 1].strip()}")
    print(f"{missed} statements under src/psm never ran")
    return int(code)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
