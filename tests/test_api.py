"""The public surface: every callable the package exports has a reader in src."""

import ast
from pathlib import Path

import asyncmetro

SRC = Path(asyncmetro.__file__).parent

# Exported for the acceptance criteria, which read them and stay as they are:
# thresholds (criterion 2), path_graph (criteria 2 and 3), lipschitz_bound (criterion 5).
READ_ONLY_BY_ACCEPTANCE = {"path_graph", "lipschitz_bound", "thresholds"}


def names_read_in_src() -> set[str]:
    """Every Name id and Attribute attr in the package's modules, __init__.py aside."""
    read = set()
    for path in SRC.glob("*.py"):
        if path.name == "__init__.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Name):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
    return read


def test_every_exported_callable_is_read_in_src():
    exported = {name for name, obj in vars(asyncmetro).items() if not name.startswith("_") and callable(obj)}
    assert READ_ONLY_BY_ACCEPTANCE <= exported
    assert sorted(exported - READ_ONLY_BY_ACCEPTANCE - names_read_in_src()) == []
