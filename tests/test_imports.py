"""Every package module but ``__init__`` uses each name it imports, and
every module-level private name of the package is read somewhere in it.

Stdlib ``ast`` scans, so that an import or a helper left behind by a
deletion fails the suite without a linter installed.
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


def private_definitions(source: str) -> set[str]:
    """Private (``_x``, not dunder) names bound at the top level of ``source``."""
    names = set()
    for node in ast.parse(source).body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names.update(t.id for t in targets if isinstance(t, ast.Name))
    return {n for n in names if n.startswith("_") and not n.startswith("__")}


def names_read(source: str) -> set[str]:
    """Names ``source`` reads: loaded names, attributes and imported names."""
    read = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            read.add(node.id)
        elif isinstance(node, ast.Attribute):
            read.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            read.update(a.name for a in node.names)
    return read


def unread_private_names(sources: dict[str, str]) -> list[str]:
    """``module.name`` for each module-level private name no module reads."""
    read = set().union(*map(names_read, sources.values()))
    return sorted(
        f"{module}.{name}"
        for module, source in sources.items()
        for name in private_definitions(source) - read
    )


def package_sources() -> dict[str, str]:
    return {p.stem: p.read_text() for p in sorted(PACKAGE.glob("*.py"))}


def test_every_private_name_is_read():
    assert unread_private_names(package_sources()) == []


def test_flags_a_private_name_left_behind():
    sources = package_sources()
    sources["discord"] += (
        "\n\ndef _is_maximally_mixed(rho):\n"
        "    return bool(np.max(np.abs(rho.matrix - np.eye(rho.dim) / rho.dim)) <= 1e-12)\n"
    )
    assert unread_private_names(sources) == ["discord._is_maximally_mixed"]
    # A store or a definition is not a read; a read in another module is.
    assert unread_private_names({"a": "_x = 1\n_x = 2\n", "b": ""}) == ["a._x"]
    assert unread_private_names({"a": "_x = 1\n", "b": "from a import _x\n"}) == []
    assert unread_private_names({"a": "_x = 1\n", "b": "import a\na._x\n"}) == []
