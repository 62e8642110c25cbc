"""Source hygiene: every imported name is read somewhere in its module.

``__init__.py`` is left out because its imports are the package's exports.
A name that appears only in a comment or a docstring counts as unread.
"""

import ast
import pathlib

ROOT = pathlib.Path(__file__).resolve().parent.parent
SOURCES = sorted(
    [p for p in (ROOT / "src" / "mclab").glob("*.py") if p.name != "__init__.py"]
    + list((ROOT / "tests").glob("*.py"))
)


def unread_imports(path):
    """(line, name) for each name imported by ``path`` and never loaded."""
    tree = ast.parse(path.read_text(), str(path))
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    read = {
        node.id
        for node in ast.walk(tree)
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
    }
    return sorted((line, name) for name, line in imported.items() if name not in read)


def test_scan_covers_engine_and_tests():
    names = {p.name for p in SOURCES}
    assert {"lifting.py", "premodel.py", "test_hygiene.py", "bruteforce.py"} <= names
    assert "__init__.py" not in names


def test_scan_finds_an_unread_import(tmp_path):
    probe = tmp_path / "probe.py"
    probe.write_text("import os\nfrom a.b import c, d as e\n# c\nprint(e)\n")
    assert unread_imports(probe) == [(1, "os"), (2, "c")]


def test_no_unread_imports():
    found = {
        str(p.relative_to(ROOT)): unread
        for p in SOURCES
        if (unread := unread_imports(p))
    }
    assert found == {}
