"""The package's exports resolve and its modules import nothing they do not use.

An import that no line of its module reads is left over from code that moved
or went away; walking each module's syntax tree finds it.
"""

from __future__ import annotations

import ast
import importlib
import pkgutil
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
