"""Every name a module exports, and every name the package imports, exists."""

import ast
import importlib
import pkgutil
from pathlib import Path

import pytest

import bregmanprox

MODULES = sorted(m.name for m in pkgutil.iter_modules(bregmanprox.__path__))


@pytest.mark.parametrize("module", MODULES)
def test_star_import_resolves_all(module):
    exec(f"from bregmanprox.{module} import *", {})


def test_package_names_resolve():
    tree = ast.parse(Path(bregmanprox.__file__).read_text())
    imported = [(node.module, alias.name) for node in tree.body
                if isinstance(node, ast.ImportFrom) for alias in node.names]
    assert imported
    for module, name in imported:
        source = importlib.import_module(f"bregmanprox.{module}")
        assert getattr(bregmanprox, name) is getattr(source, name), name
