"""The package's exports resolve and its modules import nothing they do not use.

An import that no line of its module reads is left over from code that moved
or went away; walking each module's syntax tree finds it. Nor does importing
the package load the standard library's network stack, which every short
``netgrad`` process would pay for in memory and start-up time.
"""

from __future__ import annotations

import ast
import importlib
import json
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

import netgrad

PACKAGE = Path(netgrad.__file__).resolve().parent
MODULES = ["netgrad"] + [f"netgrad.{info.name}" for info in pkgutil.iter_modules([str(PACKAGE)])]

#: Imports that no line of their module reads, kept because the benchmark's
#: layer probe wraps these names on these modules.
PROBE_ONLY = {
    ("algorithms", "stochastic_gradients"),
    ("diagnostics", "global_suboptimality"),
}


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_resolves(name):
    module = importlib.import_module(name)
    missing = [item for item in getattr(module, "__all__", ()) if not hasattr(module, item)]
    assert missing == []


def unused_imports(source: str) -> list[str]:
    """The names a module's imports bind that nothing else in it reads.

    A name counts as read when it appears as a name anywhere in the module
    (annotations included) or is listed in the module's ``__all__``.
    """
    tree = ast.parse(source)
    bound: list[str] = []
    read: set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            bound += [alias.asname or alias.name.split(".")[0] for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound += [alias.asname or alias.name for alias in node.names]
        elif isinstance(node, ast.Name):
            read.add(node.id)
        elif isinstance(node, ast.Assign) and any(
            isinstance(target, ast.Name) and target.id == "__all__" for target in node.targets
        ):
            read.update(ast.literal_eval(node.value))
    return [name for name in bound if name not in read]


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda path: path.name)
def test_no_module_imports_a_name_it_never_uses(path):
    unused = unused_imports(path.read_text(encoding="utf-8"))
    assert [name for name in unused if (path.stem, name) not in PROBE_ONLY] == []


def test_the_walk_finds_a_leftover_import():
    source = "import csv\nfrom itertools import chain\nimport json\n\n__all__ = ['x']\nx = json.dumps\n"
    assert unused_imports(source) == ["csv", "chain"]


#: Modules of the network stack that importing the package must not load.
NETWORK_MODULES = ("xml.sax", "urllib.request", "http.client", "email", "ssl", "socket")

_ADDED_MODULES = """
import sys, numpy, argparse, json
before = set(sys.modules)
import netgrad, netgrad.cli
print(json.dumps(sorted(set(sys.modules) - before)))
"""


def test_importing_the_package_loads_no_network_module():
    # One fresh interpreter; the difference of two snapshots ignores what
    # site hooks and numpy load before the package does.
    path = os.pathsep.join(filter(None, [str(PACKAGE.parent), os.environ.get("PYTHONPATH")]))
    argv = [sys.executable, "-c", _ADDED_MODULES]
    done = subprocess.run(argv, capture_output=True, text=True, env=dict(os.environ, PYTHONPATH=path), timeout=120)
    assert done.returncode == 0, done.stderr
    added = json.loads(done.stdout)
    assert "netgrad.cli" in added
    assert [name for name in added if name in NETWORK_MODULES] == []


def topology_imports(source: str) -> list[str]:
    """The names a module imports from ``netgrad.topology``, or the module itself.

    Relative imports are read as imports inside the ``netgrad`` package.
    """
    found: list[str] = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            found += [alias.name for alias in node.names if alias.name == "netgrad.topology"]
        elif isinstance(node, ast.ImportFrom):
            module = node.module or ""
            if node.level:
                module = f"netgrad.{module}" if module else "netgrad"
            if module == "netgrad.topology":
                found += [alias.name for alias in node.names]
            elif module == "netgrad":
                found += [alias.name for alias in node.names if alias.name == "topology"]
    return found


def test_the_command_line_builds_no_network_of_its_own():
    # The harness owns the one chain from flags to graph, matrix and gap;
    # a topology import in the CLI would be a second owner.
    assert topology_imports((PACKAGE / "cli.py").read_text(encoding="utf-8")) == []


def test_the_topology_walk_finds_every_import_form():
    source = (
        "from .topology import build_graph\n"
        "from netgrad.topology import lazify\n"
        "from . import topology\n"
        "import netgrad.topology\n"
        "from .harness import prepare_run\n"
    )
    assert topology_imports(source) == ["build_graph", "lazify", "topology", "netgrad.topology"]


def truncating_writes(source: str) -> list[int]:
    """The lines where a module opens a file to write it or names ``O_TRUNC``.

    A call of ``open`` counts when its mode holds ``w``, ``a``, ``x`` or
    ``+``, or is not a string literal. Code inside ``_write_text``, the one
    writer of every output file, is not counted.
    """
    tree = ast.parse(source)
    writer = {
        id(inner)
        for node in ast.walk(tree)
        if isinstance(node, ast.FunctionDef) and node.name == "_write_text"
        for inner in ast.walk(node)
    }
    lines: list[int] = []
    for node in ast.walk(tree):
        if id(node) in writer:
            continue
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id == "open":
            modes = node.args[1:2] + [k.value for k in node.keywords if k.arg == "mode"]
            literal = all(isinstance(m, ast.Constant) and isinstance(m.value, str) for m in modes)
            if not literal or any(set(m.value) & set("wax+") for m in modes):
                lines.append(node.lineno)
        elif (isinstance(node, ast.Attribute) and node.attr == "O_TRUNC") or (
            isinstance(node, ast.Name) and node.id == "O_TRUNC"
        ):
            lines.append(node.lineno)
    return sorted(lines)


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda path: path.name)
def test_every_output_file_goes_through_the_one_writer(path):
    # A plain `open(path, "w")` truncates the old file to zero before it
    # writes, the slow part of a rewrite; `_write_text` rewrites in place.
    assert truncating_writes(path.read_text(encoding="utf-8")) == []


def test_the_write_walk_finds_every_truncating_form():
    source = (
        "import os\n"
        "from os import O_TRUNC\n"
        "open(p)\n"
        "open(p, 'r', encoding='utf-8')\n"
        "open(p, 'w')\n"
        "open(p, mode='a')\n"
        "open(p, 'r+b')\n"
        "open(p, 'x')\n"
        "open(p, kind)\n"
        "os.open(p, os.O_WRONLY | os.O_TRUNC)\n"
        "def _write_text(path, text):\n"
        "    with open(os.open(path, os.O_WRONLY | os.O_TRUNC), 'wb') as handle:\n"
        "        handle.write(text)\n"
    )
    assert truncating_writes(source) == [5, 6, 7, 8, 9, 10]
