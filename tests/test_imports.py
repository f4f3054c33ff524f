"""Every package module but ``__init__`` uses each name it imports.

A stdlib ``ast`` scan, so that an import left behind by a deletion fails
the suite without a linter installed.
"""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "gqd"
# __init__ imports names only to re-export them.
MODULES = sorted(p.name for p in PACKAGE.glob("*.py") if p.name != "__init__.py")


def unused_imports(source: str) -> list[str]:
    """Names bound by an import in ``source`` and never read as a name."""
    tree = ast.parse(source)
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(a.asname or a.name.split(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update(a.asname or a.name for a in node.names)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(imported - used)


def test_modules_are_found():
    assert {"checks.py", "discord.py", "measurement.py", "qcore.py"} <= set(MODULES)


@pytest.mark.parametrize("module", MODULES)
def test_module_uses_every_import(module):
    assert unused_imports((PACKAGE / module).read_text()) == []


def test_flags_an_import_left_behind():
    source = (PACKAGE / "discord.py").read_text()
    stale = "from .qcore import partial_trace, von_neumann_entropy\n"
    assert unused_imports(stale + source) == ["partial_trace", "von_neumann_entropy"]
    assert unused_imports("import os.path\nfrom a import b as c\n") == ["c", "os"]
