"""Every name a module imports is used, and the package root exports only what is read.

No lint tool is installed, so each file under ``src/`` and ``tests/`` is
parsed with ``ast``, and an imported name that no expression reads fails
its test.  A name re-exported through ``__all__`` counts as used.  The
files under ``bench/`` and ``tests/`` are parsed for the names they
import from the package root, which must be ``branchbox.__all__``.
"""

import ast
from pathlib import Path

import pytest

import branchbox

ROOT = Path(__file__).resolve().parent.parent
FILES = sorted(path for top in ("src", "tests") for path in (ROOT / top).rglob("*.py"))


def unused_imports(source: str) -> list[str]:
    """Names ``source`` imports and never reads, each with its line."""
    tree = ast.parse(source)
    imported, used = {}, set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
        elif isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            used.update(elt.value for elt in node.value.elts)
    return [f"{name} (line {line})" for name, line in imported.items() if name not in used]


def test_unused_imports_are_found():
    source = "import os\nimport numpy as np\nfrom x import a, b as c\nnp.zeros(c)\n"
    assert unused_imports(source) == ["os (line 1)", "a (line 3)"]
    assert unused_imports("from x import a\n__all__ = ['a']\n") == []


@pytest.mark.parametrize("path", FILES, ids=lambda p: str(p.relative_to(ROOT)))
def test_every_imported_name_is_used(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def root_imports() -> set[str]:
    """Names ``from branchbox import ...`` reads under bench/ and tests/, submodules aside."""
    submodules = {path.stem for path in (ROOT / "src" / "branchbox").glob("*.py")}
    names = set()
    for path in (p for top in ("bench", "tests") for p in (ROOT / top).rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ImportFrom) and node.module == "branchbox" and not node.level:
                names.update(alias.name for alias in node.names)
    return names - submodules


def test_the_package_root_exports_what_is_read_from_it():
    assert root_imports() == set(branchbox.__all__)
