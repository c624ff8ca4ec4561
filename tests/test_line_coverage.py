"""The rules of ``tools/line_coverage.py``, the line report of a traced pytest run."""

from __future__ import annotations

import importlib.util
import sys
from pathlib import Path

_SCRIPT_PATH = Path(__file__).resolve().parents[1] / "tools" / "line_coverage.py"


def _load_script():
    name = "tools_line_coverage"
    if name not in sys.modules:
        spec = importlib.util.spec_from_file_location(name, _SCRIPT_PATH)
        module = importlib.util.module_from_spec(spec)
        sys.modules[name] = module
        spec.loader.exec_module(module)
    return sys.modules[name]


_TOY = '''"""A toy module."""

LIMIT = 3


class Box:
    """Class docstring."""

    size = 1

    def grow(self):
        return self.size + 1


def sign(x):
    """Function docstring."""
    if x > 0:
        return "plus"
    return "minus"
'''


def _import(path: Path):
    spec = importlib.util.spec_from_file_location("line_coverage_toy", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_the_lines_of_a_module_are_its_function_bodies():
    # Not the docstrings, nor the module and class bodies, which run at import.
    assert _load_script().executable_lines(_TOY, "toy.py") == {11, 12, 15, 17, 18, 19}


def test_the_branch_not_taken_is_the_line_reported_missed(tmp_path):
    script = _load_script()
    package = tmp_path / "pkg"
    package.mkdir()
    (package / "toy.py").write_text(_TOY, encoding="utf-8")
    tracer = script.LineTracer(package)
    tracer.start()
    try:
        toy = _import(package / "toy.py")
        assert toy.sign(1) == "plus"
        assert toy.Box().grow() == 2
    finally:
        tracer.stop()
    assert script.report(package, tracer.hits) == [
        "    1 of     6 missed  toy.py: 19",
        "    1 of     6 missed  total",
    ]


def test_consecutive_missed_lines_are_reported_as_spans(tmp_path):
    script = _load_script()
    (tmp_path / "toy.py").write_text(_TOY, encoding="utf-8")
    lines = script.report(tmp_path, {})
    assert lines[0] == "    6 of     6 missed  toy.py: 11-12, 15, 17-19"


def test_stopping_puts_back_the_tracer_that_ran_before(tmp_path):
    script = _load_script()
    previous = sys.gettrace()
    tracer = script.LineTracer(tmp_path)
    tracer.start()
    assert sys.gettrace() is tracer
    tracer.stop()
    assert sys.gettrace() is previous
