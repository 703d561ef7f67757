"""List the lines of `src/knotdom` that no tier-1 test executes.

The tier-1 suite runs in this interpreter under a line tracer
(`sys.settrace`, and `threading.settrace` for the threads tests start)
that records the lines run in frames of code under `src/knotdom`.  The
lines a module's code objects hold (`co_lines`, nested code included)
that were never recorded are printed, one `path:line: text` each, in
file and line order, then their count.  A line run only in a child
process, such as a CLI command started in a fresh interpreter, is not
seen, so it is listed.  pytest does not collect this file.  From the
repository root:

    python tests/unexecuted_lines.py              # the whole tier-1 suite
    python tests/unexecuted_lines.py -k Parse     # pytest arguments pass through

The exit status is pytest's.  The whole suite runs about five times
slower under the tracer than without it.
"""
from __future__ import annotations

import os
import sys
import threading
from pathlib import Path
from types import CodeType

import pytest

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "knotdom"


def code_lines(path: Path) -> set[int]:
    """The line numbers of every instruction compiled from `path`."""
    lines: set[int] = set()
    stack = [compile(path.read_text(encoding="utf-8"), str(path), "exec")]
    while stack:
        code = stack.pop()
        lines.update(line for _, _, line in code.co_lines() if line)  # 0: the module's entry
        stack.extend(const for const in code.co_consts if isinstance(const, CodeType))
    return lines


def main(args: list[str]) -> int:
    os.chdir(ROOT)  # the README's code blocks read paths from the root
    sys.path.insert(0, str(PACKAGE.parent))
    executed: dict[str, set[int]] = {}  # module path -> lines run
    paths: dict[str, str | None] = {}  # co_filename -> module path, None outside the package

    def trace_line(frame, event, arg):
        if event == "line":
            executed[frame.f_code.co_filename].add(frame.f_lineno)
        return trace_line

    def trace_call(frame, event, arg):
        filename = frame.f_code.co_filename
        if filename not in paths:
            path = Path(filename).resolve()
            paths[filename] = str(path) if path.parent == PACKAGE else None
        if paths[filename] is None:
            return None
        executed.setdefault(filename, set()).add(frame.f_lineno)  # a def line runs no line event
        return trace_line

    threading.settrace(trace_call)
    sys.settrace(trace_call)
    try:
        status = pytest.main(["-q", "-p", "no:cacheprovider", "--continue-on-collection-errors", *args])
    finally:
        sys.settrace(None)
        threading.settrace(None)

    run: dict[str, set[int]] = {}
    for filename, lines in executed.items():
        run.setdefault(paths[filename], set()).update(lines)
    count = 0
    for path in sorted(PACKAGE.glob("*.py")):
        text = path.read_text(encoding="utf-8").splitlines()
        for line in sorted(code_lines(path) - run.get(str(path), set())):
            print(f"{path.relative_to(ROOT)}:{line}: {text[line - 1].strip()}")
            count += 1
    print(f"{count} unexecuted lines")
    return status


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
