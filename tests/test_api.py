"""The package's surface: every module-level function, class and constant has a reader in src."""

import ast
import re
from pathlib import Path

import asyncmetro

SRC = Path(asyncmetro.__file__).parent
ROOT = SRC.parent.parent

# Names that nothing in src reads, each with the file outside src that reads it. The
# acceptance criteria stay as they are, and so do the names they read.
READ_OUTSIDE_SRC = {
    "write_trace": "bench/workloads.py",
    "thresholds": "tests/test_acceptance.py",  # criterion 2
    "path_graph": "tests/test_acceptance.py",  # criteria 2 and 3
    "lipschitz_bound": "tests/test_acceptance.py",  # criterion 5
    "TV_LIMIT": "tests/test_acceptance.py",  # criterion 3
    "FIT_R2_LIMIT": "tests/test_acceptance.py",  # criterion 4
}


def module_level_names() -> set[str]:
    """Every function, class and assigned name at the top level of the package's modules, dunders aside."""
    names = set()
    for path in SRC.glob("*.py"):
        for node in ast.parse(path.read_text(), str(path)).body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                names.add(node.name)
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                names.update(t.id for t in targets if isinstance(t, ast.Name))
    return {name for name in names if not name.startswith("__")}


def names_read_in_src() -> set[str]:
    """Every Name id loaded and every Attribute attr in the package's modules, __init__.py aside."""
    read = set()
    for path in SRC.glob("*.py"):
        if path.name == "__init__.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
    return read


def test_every_module_level_name_is_read():
    unread = module_level_names() - names_read_in_src()
    assert sorted(unread - set(READ_OUTSIDE_SRC)) == []
    # each allowed name is still unread in src, and its named reader reads it
    assert sorted(unread) == sorted(READ_OUTSIDE_SRC)
    for name, reader in READ_OUTSIDE_SRC.items():
        assert re.search(rf"\b{name}\b", (ROOT / reader).read_text()), (name, reader)
