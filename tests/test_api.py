"""The public names: each listed in a module's __all__ exists and is
reached from the package's own code, and the package root binds none of
them."""

import ast
import importlib
from pathlib import Path

import pytest

import twistselmer

MODULES = ("arith", "quadfield", "characters", "selmer", "ekstats")


@pytest.mark.parametrize("module", MODULES)
def test_all_names_exist(module):
    # a stale entry breaks `from twistselmer.<module> import *`
    mod = importlib.import_module(f"twistselmer.{module}")
    assert [name for name in mod.__all__ if not hasattr(mod, name)] == []


def test_package_root_binds_only_its_version():
    # names are imported from their modules, so importing one module loads no other
    tree = ast.parse(Path(twistselmer.__file__).read_text())
    bound = set()
    for node in tree.body:
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            bound.update(alias.asname or alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            bound.add(node.name)
        else:
            bound.update(n.id for n in ast.walk(node) if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Store))
    assert sorted(name for name in bound if not name.startswith("_")) == []
    assert "__version__" in bound


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
    public = {name for module in MODULES for name in importlib.import_module(f"twistselmer.{module}").__all__}
    assert sorted(public - _names_used_in_the_package()) == []


def test_the_field_modules_export_what_the_package_root_did():
    # the 13 names of quadfield and characters that the package root once re-exported
    quadfield = importlib.import_module("twistselmer.quadfield")
    characters = importlib.import_module("twistselmer.characters")
    assert sorted(quadfield.__all__) == [
        "IdealK",
        "PrimeIdealK",
        "QuadraticField",
        "count_sf",
        "mainterm_sf",
        "make_field",
        "phi_qd",
        "primes_up_to",
        "split_prime",
        "squarefree_ideals_up_to",
        "zeta_at_2",
        "zeta_residue",
    ]
    assert characters.__all__ == ["enumerate_characters"]
