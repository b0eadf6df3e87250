"""The lines of ``rispace`` that a pytest run never executes.

    PYTHONPATH=src python -m tests.linecov [pytest args]

runs pytest in this process under ``sys.settrace``, tracing only the code
compiled from the ``rispace`` package, and prints, per module, the lines that
compile to code (``co_lines``) but never ran.  Code run in a subprocess (the
console-script test) is not seen.  It needs nothing past the standard library
and pytest; the whole suite runs a few times slower than plain pytest.  The
exit code is pytest's.  Unless the arguments give ``--hypothesis-seed``, it
passes ``--hypothesis-seed=0``, so the Hypothesis tests draw the same examples
on every run and two runs on one source list the same lines.
"""

from __future__ import annotations

import importlib.util
import sys
import threading
import types
from pathlib import Path

import pytest


def code_lines(path: Path) -> set[int]:
    """The line numbers of every code object compiled from the file."""
    lines, todo = set(), [compile(path.read_text(), str(path), "exec")]
    while todo:
        code = todo.pop()
        # a line of None or 0 (a module's start) is no line of the file
        lines.update(line for _, _, line in code.co_lines() if line)
        todo += [c for c in code.co_consts if isinstance(c, types.CodeType)]
    return lines


def spans(lines: list[int]) -> str:
    """Increasing line numbers as comma-separated runs, 4-7 for 4,5,6,7."""
    out, start = [], None
    for a, b in zip(lines, lines[1:] + [None]):
        start = a if start is None else start
        if b != a + 1:
            out.append(str(a) if a == start else f"{start}-{a}")
            start = None
    return ", ".join(out)


def main(argv: list[str]) -> int:
    # found without importing it, so its module-level lines run under the tracer
    root = Path(importlib.util.find_spec("rispace").origin).resolve().parent
    hits: dict[Path, set[int]] = {}
    by_name: dict[str, set[int] | None] = {}  # co_filename -> its lines run, None outside rispace

    def tracer(frame, event, arg):
        name = frame.f_code.co_filename
        if name not in by_name:
            path = Path(name).resolve()
            by_name[name] = hits.setdefault(path, set()) if path.parent == root else None
        ran = by_name[name]
        if ran is None:
            return None
        ran.add(frame.f_lineno)

        def local(frame, event, arg):
            if event == "line":
                ran.add(frame.f_lineno)
            return local

        return local

    if not any(a.startswith("--hypothesis-seed") for a in argv):
        argv = [*argv, "--hypothesis-seed=0"]
    threading.settrace(tracer)
    sys.settrace(tracer)
    try:
        rc = pytest.main(argv)
    finally:
        sys.settrace(None)
        threading.settrace(None)
    total = 0
    print("\nrispace lines that compile to code but never ran:")
    for path in sorted(root.glob("*.py")):
        missed = sorted(code_lines(path) - hits.get(path, set()))
        total += len(missed)
        print(f"  {path.name}: {len(missed)}" + (f" ({spans(missed)})" if missed else ""))
    print(f"  total: {total}")
    return int(rc)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
