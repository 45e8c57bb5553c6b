"""Every name a module exports, and every name the package imports, exists."""

import ast
import importlib
import pkgutil
import subprocess
import sys
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
    for name in bregmanprox._VERIFY:  # resolved on first use
        assert getattr(bregmanprox, name) is getattr(bregmanprox.verify, name), name


def test_the_command_line_does_not_load_the_harness():
    """In a fresh process: the CLI leaves the harness unloaded, and the
    package loads it on first use of one of its names."""
    code = ("import sys, bregmanprox, bregmanprox.cli; "
            "assert 'bregmanprox.verify' not in sys.modules, 'loaded'; "
            "assert bregmanprox.run_suite is sys.modules['bregmanprox.verify'].run_suite; "
            "assert bregmanprox.verify is sys.modules['bregmanprox.verify']; "
            "from bregmanprox import check_dfne, verify")
    src = str(Path(bregmanprox.__file__).parents[1])
    subprocess.run([sys.executable, "-c", code], check=True, cwd=src)
