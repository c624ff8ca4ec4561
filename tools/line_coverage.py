"""Print the lines of the package that a pytest run never executes.

Run from the repository root::

    python tools/line_coverage.py [pytest args]

pytest runs in this process under a line tracer (``sys.settrace`` and
``threading.settrace``) that records only frames of code under
``src/netgrad``. For each module the tool then prints how many of its
lines never ran and which, and last the totals. A module's lines are the
lines of its function bodies, as its code objects' ``co_lines()`` give
them; its module and class bodies run at import, so they are left out.

Tests that run the package in a subprocess (the command line smoke tests
and the one-thread checks, for example) are not traced: a line only they
run is reported as missed. Tracing makes the suite several times slower.
The exit status is pytest's.
"""

from __future__ import annotations

import inspect
import os
import sys
import threading
import types
from pathlib import Path

#: The package the tool reports on.
PACKAGE = Path(__file__).resolve().parents[1] / "src" / "netgrad"


def executable_lines(source: str, filename: str) -> set[int]:
    """The lines of the function bodies in ``source``: every line a call can run."""
    lines: set[int] = set()
    stack = [compile(source, filename, "exec")]
    while stack:
        code = stack.pop()
        if code.co_flags & inspect.CO_OPTIMIZED:
            lines.update(line for _, _, line in code.co_lines() if line is not None)
        stack.extend(const for const in code.co_consts if isinstance(const, types.CodeType))
    return lines


class LineTracer:
    """Records the lines run in the files under ``root`` while it is started."""

    def __init__(self, root: Path) -> None:
        self.root = str(root.resolve()) + os.sep
        #: The lines run, by the resolved path of their file.
        self.hits: dict[str, set[int]] = {}
        # Each code file name seen, mapped to its hit set or to None when
        # the file is outside ``root``.
        self._files: dict[str, set[int] | None] = {}
        self._previous = None

    def _lines_of(self, filename: str) -> set[int] | None:
        if filename not in self._files:
            path = os.path.realpath(filename)
            self._files[filename] = self.hits.setdefault(path, set()) if path.startswith(self.root) else None
        return self._files[filename]

    def __call__(self, frame: types.FrameType, event: str, arg: object):
        lines = self._lines_of(frame.f_code.co_filename)
        if lines is None:
            return None
        lines.add(frame.f_lineno)

        def trace_lines(frame: types.FrameType, event: str, arg: object):
            if event == "line":
                lines.add(frame.f_lineno)
            return trace_lines

        return trace_lines

    def start(self) -> None:
        """Trace every new frame of this thread and of threads started from now on."""
        self._previous = sys.gettrace()
        sys.settrace(self)
        threading.settrace(self)

    def stop(self) -> None:
        """Stop tracing and put back the tracer that ran before :meth:`start`."""
        sys.settrace(self._previous)
        threading.settrace(self._previous)


def _spans(lines: list[int]) -> str:
    """``lines`` (sorted) with each run of consecutive numbers written ``a-b``."""
    spans: list[list[int]] = []
    for line in lines:
        if spans and line == spans[-1][1] + 1:
            spans[-1][1] = line
        else:
            spans.append([line, line])
    return ", ".join(str(a) if a == b else f"{a}-{b}" for a, b in spans)


def report(root: Path, hits: dict[str, set[int]]) -> list[str]:
    """One line per module under ``root``: its missed count, lines and missed lines; then the totals."""
    out = []
    total = missed_total = 0
    for path in sorted(root.rglob("*.py")):
        expected = executable_lines(path.read_text(encoding="utf-8"), str(path))
        missed = sorted(expected - hits.get(os.path.realpath(path), set()))
        total += len(expected)
        missed_total += len(missed)
        name = path.relative_to(root).as_posix()
        out.append(f"{len(missed):5d} of {len(expected):5d} missed  {name}" + (f": {_spans(missed)}" if missed else ""))
    out.append(f"{missed_total:5d} of {total:5d} missed  total")
    return out


def main(argv: list[str]) -> int:
    """Run pytest with ``argv`` under the tracer, print the report and return pytest's status."""
    import pytest

    tracer = LineTracer(PACKAGE)
    tracer.start()
    try:
        status = pytest.main(argv)
    finally:
        tracer.stop()
    print("\n".join(report(PACKAGE, tracer.hits)))
    return int(status)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
