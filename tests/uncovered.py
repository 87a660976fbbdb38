"""Counts the statement lines of src/eslc that no tier-1 test runs.

    python tests/uncovered.py [tests/test_x.py ...]

runs each given test file (by default every tests/test_*.py) under
pytest in its own process, with a sys.settrace collector that starts
before eslc is imported and is installed again before each test, since a
RecursionError drops it: what a test runs after one is not seen.  A
statement line is the first line of a statement in the body of a
function, at any depth, other than a docstring; module-level and
class-level code is not counted.  Code run in a subprocess of a test is
not seen either.

It prints the count and a markdown table of the lines per module.  The
count is a figure to read, not a gate: the exit status is 0 unless a
test process could not report.  pytest does not collect this file.
"""

from __future__ import annotations

import ast
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "eslc"


def statement_lines(path: Path) -> set[int]:
    """The first line of every statement in a function body of `path`,
    docstrings left out: they run no code."""
    tree = ast.parse(path.read_text(), str(path))
    scopes = [n for n in ast.walk(tree) if isinstance(
        n, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))]
    docs = {n.body[0].lineno for n in scopes if isinstance(n.body[0], ast.Expr)
            and isinstance(n.body[0].value, ast.Constant)
            and isinstance(n.body[0].value.value, str)}
    lines: set[int] = set()
    for node in scopes:
        if not isinstance(node, ast.ClassDef):
            lines.update(n.lineno for stmt in node.body for n in ast.walk(stmt)
                         if isinstance(n, ast.stmt)
                         and not isinstance(n, (ast.Global, ast.Nonlocal)))
    return lines - docs


def _child(test_file: str, out: str) -> int:
    """Runs one test file under the collector and writes the lines hit in
    src/eslc, per file, to `out`."""
    prefix = str(SRC) + os.sep
    hit: set[tuple[str, int]] = set()

    def local(frame, event, arg):
        if event == "line":
            hit.add((frame.f_code.co_filename, frame.f_lineno))
        return local

    def on_call(frame, event, arg):
        return local if frame.f_code.co_filename.startswith(prefix) else None

    class Reinstall:
        @staticmethod
        def pytest_runtest_setup(item):
            sys.settrace(on_call)

    sys.settrace(on_call)
    import pytest

    code = pytest.main(["-q", "-p", "no:cacheprovider", test_file],
                       plugins=[Reinstall()])
    sys.settrace(None)
    by_file: dict[str, list[int]] = {}
    for f, line in hit:
        by_file.setdefault(f, []).append(line)
    Path(out).write_text(json.dumps(by_file))
    return int(code)


def _ranges(lines: list[int]) -> str:
    out: list[list[int]] = []
    for n in sorted(lines):
        if out and out[-1][1] == n - 1:
            out[-1][1] = n
        else:
            out.append([n, n])
    return ", ".join(f"{a}" if a == b else f"{a}–{b}" for a, b in out)


def main(argv: list[str]) -> int:
    if argv[:1] == ["--child"]:
        return _child(argv[1], argv[2])
    tests = argv or sorted(str(p) for p in (ROOT / "tests").glob("test_*.py"))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))}
    hit: dict[str, set[int]] = {}
    lost = []
    with tempfile.TemporaryDirectory() as tmp:
        out = os.path.join(tmp, "hit.json")
        for t in tests:
            done = subprocess.run(
                [sys.executable, __file__, "--child", t, out], cwd=ROOT, env=env,
                stdout=subprocess.DEVNULL)
            if not os.path.exists(out):
                lost.append(t)
                continue
            for f, lines in json.loads(Path(out).read_text()).items():
                hit.setdefault(f, set()).update(lines)
            os.remove(out)
            if done.returncode:
                print(f"{t}: pytest exited {done.returncode}", file=sys.stderr)
    rows = []
    for path in sorted(SRC.glob("*.py")):
        stmts = statement_lines(path)
        rows.append((path.name, sorted(stmts - hit.get(str(path), set())),
                     len(stmts)))
    missed = sum(len(m) for _, m, _ in rows)
    print(f"unexecuted statement lines in src/eslc: {missed} of "
          f"{sum(n for *_, n in rows)}\n")
    print("| module | unexecuted | statements | lines |")
    print("| --- | ---: | ---: | --- |")
    for name, m, n in rows:
        print(f"| {name} | {len(m)} | {n} | {_ranges(m)} |")
    for t in lost:
        print(f"{t}: no lines reported", file=sys.stderr)
    return 1 if lost else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
