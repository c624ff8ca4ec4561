"""The rules of ``tools/code_lines.py``, the code-line count of the package."""

from __future__ import annotations

import importlib.util
import sys
from pathlib import Path

_SCRIPT_PATH = Path(__file__).resolve().parents[1] / "tools" / "code_lines.py"


def _load_script():
    name = "tools_code_lines"
    if name not in sys.modules:
        spec = importlib.util.spec_from_file_location(name, _SCRIPT_PATH)
        module = importlib.util.module_from_spec(spec)
        sys.modules[name] = module
        spec.loader.exec_module(module)
    return sys.modules[name]


_SOURCE = '''"""Module docstring,
over two lines."""

# A comment-only line.
import math


class Box:
    """Class docstring."""

    size = 1  # a trailing comment does not make the line a comment


def area(width,
         height):
    """Function docstring.

    It spans three lines.
    """

    "A string statement after the docstring is code."
    return (width
            * height)
'''


def test_docstrings_comments_and_blank_lines_are_not_code():
    # Counted: import, class, size, the two lines of the def, the string
    # statement and the two lines of the return.
    assert _load_script().code_lines(_SOURCE) == 8


def test_each_kind_of_line_counts_as_the_rules_say():
    code_lines = _load_script().code_lines
    assert code_lines('"""Only a docstring."""\n') == 0
    assert code_lines("# only a comment\n\n") == 0
    assert code_lines("x = (\n    1,\n    2,\n)\n") == 4
    assert code_lines('x = 1\n"not a docstring"\n') == 2


def test_the_counts_of_a_directory_end_in_their_total(tmp_path, capsys):
    (tmp_path / "a.py").write_text("x = 1\n", encoding="utf-8")
    (tmp_path / "b.py").write_text('"""Doc."""\ny = 2\nz = 3\n', encoding="utf-8")
    assert _load_script().main([str(tmp_path)]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert [line.split()[0] for line in lines] == ["1", "2", "3"]
    assert lines[-1].split()[1] == "total"


def test_a_missing_path_or_none_exits_two_with_the_usage(tmp_path, capsys):
    script = _load_script()
    missing = str(tmp_path / "nowhere")
    assert script.main([missing]) == 2
    err = capsys.readouterr().err
    assert missing in err and "usage:" in err
    assert script.main(["--help"]) == 2
    assert "usage:" in capsys.readouterr().err
    assert script.main([]) == 2
    assert "usage:" in capsys.readouterr().err
