"""No module of the package imports a name it never uses.

No linter ships with the toolchain, so this walks each module's syntax tree
with the standard library.  A name listed in the module's ``__all__``
counts as used: that is how ``__init__`` re-exports the public API.
"""

import ast
import pathlib

import pytest

import socmorse

MODULES = sorted(pathlib.Path(socmorse.__file__).parent.glob("*.py"))


def unused_imports(source):
    """Names that an import in ``source`` binds and nothing else reads,
    sorted; ``__future__`` imports are directives, not names."""
    tree = ast.parse(source)
    imported = set()
    exported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported |= {alias.asname or alias.name.split(".")[0] for alias in node.names}
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported |= {alias.asname or alias.name for alias in node.names}
        elif isinstance(node, ast.Assign) and any(
                isinstance(target, ast.Name) and target.id == "__all__"
                for target in node.targets):
            exported |= set(ast.literal_eval(node.value))
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(imported - used - exported)


def test_checker_finds_unused_names():
    source = ("from __future__ import annotations\n"
              "import os.path\nimport numpy as np\nfrom math import pi, tau\n"
              "__all__ = ['tau']\nx = np.zeros(3) * pi\n")
    assert unused_imports(source) == ["os"]


@pytest.mark.parametrize("module", MODULES, ids=lambda path: path.name)
def test_no_unused_import(module):
    assert unused_imports(module.read_text()) == []
