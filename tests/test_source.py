"""Checks on the package source itself, read as syntax trees."""

import ast
import pathlib

import pytest

import zenomap

PACKAGE = pathlib.Path(zenomap.__file__).parent
# __init__ imports only to re-export
MODULES = sorted(path for path in PACKAGE.glob("*.py") if path.name != "__init__.py")


def _imported_names(tree: ast.Module) -> set[str]:
    """The names that the module-level imports bind, ``__future__`` aside."""
    names = set()
    for node in tree.body:
        if isinstance(node, ast.Import):
            names.update(alias.asname or alias.name.partition(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            names.update(alias.asname or alias.name for alias in node.names)
    return names


@pytest.mark.parametrize("path", MODULES, ids=[path.stem for path in MODULES])
def test_every_module_level_import_is_used(path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    assert sorted(_imported_names(tree) - used) == []
