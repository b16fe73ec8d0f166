"""The public surface resolves: every exported name exists, once.

A deletion that leaves a name in a module's ``__all__`` or in the package's
imports fails here rather than at a user's ``from phaseiso import ...``.
"""

import ast
import importlib
from pathlib import Path

import pytest

import phaseiso

MODULES = ["spaces", "orthogonality", "phase_maps", "decomposition", "harness"]
INIT = Path(phaseiso.__file__)


@pytest.mark.parametrize("name", MODULES)
def test_all_resolves_without_duplicates(name):
    module = importlib.import_module(f"phaseiso.{name}")
    exported = module.__all__
    assert len(exported) == len(set(exported)), f"duplicates in phaseiso.{name}.__all__"
    assert [n for n in exported if not hasattr(module, n)] == []


def test_package_imports_exist():
    imports = [node for node in ast.parse(INIT.read_text()).body
               if isinstance(node, ast.ImportFrom) and node.level == 1]
    assert imports, "phaseiso/__init__.py imports nothing from its modules"
    for node in imports:
        module = importlib.import_module(f"phaseiso.{node.module}")
        names = [alias.name for alias in node.names]
        assert [n for n in names if not hasattr(module, n)] == [], node.module
        assert [n for n in names if not hasattr(phaseiso, n)] == [], node.module
