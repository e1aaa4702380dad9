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


def _names_used_in_the_package() -> set[str]:
    """Every Name and Attribute in the modules other than __init__.py: code
    that reaches a name, not a docstring or a message that mentions it."""
    used = set()
    for path in Path(twistselmer.__file__).parent.glob("*.py"):
        if path.name == "__init__.py":
            continue
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
    return used


def test_every_public_name_is_reached_by_the_package():
    # a sum that no command computes lives in the tests, not behind a public name
    modules = [importlib.import_module(f"twistselmer.{module}") for module in ("arith", "ekstats", "selmer")]
    public = {name for mod in modules for name in mod.__all__}
    tree = ast.parse(Path(twistselmer.__file__).read_text())
    public.update(alias.name for node in tree.body if isinstance(node, ast.ImportFrom) for alias in node.names)
    assert sorted(public - _names_used_in_the_package()) == []
