"""The public names: each listed in a module's __all__ exists, and the
package imports only names that its modules export."""

import ast
import importlib
from pathlib import Path

import pytest

import twistselmer


@pytest.mark.parametrize("module", ["arith", "ekstats", "selmer"])
def test_all_names_exist(module):
    # a stale entry breaks `from twistselmer.<module> import *`
    mod = importlib.import_module(f"twistselmer.{module}")
    assert [name for name in mod.__all__ if not hasattr(mod, name)] == []


def test_package_imports_only_exported_names():
    tree = ast.parse(Path(twistselmer.__file__).read_text())
    imports = [node for node in tree.body if isinstance(node, ast.ImportFrom)]
    assert len(imports) >= 5
    for node in imports:
        mod = importlib.import_module(f"twistselmer.{node.module}")
        # `import *` takes __all__, or every public name of a module without one
        exported = getattr(mod, "__all__", [name for name in vars(mod) if not name.startswith("_")])
        for alias in node.names:
            assert alias.name in exported, (node.module, alias.name)
