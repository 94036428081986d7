"""The public API is no larger than what its users need.

Every name ``cylpc/__init__.py`` exports must be referenced somewhere in
the CLI, the tests or the benchmark. An export that none of them uses is
surface nobody exercises: drop it from ``__init__`` (or delete it).
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
INIT = ROOT / "src" / "cylpc" / "__init__.py"


def _exported_names() -> list[str]:
    tree = ast.parse(INIT.read_text())
    return [
        alias.asname or alias.name
        for node in tree.body
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
    ]


def _referenced_names() -> set[str]:
    """Identifiers the CLI, the tests (but this one) and the benchmark use."""
    files = [ROOT / "src" / "cylpc" / "cli.py"]
    files += sorted((ROOT / "tests").glob("*.py"))
    files += sorted((ROOT / "perfbench").glob("*.py"))
    names = set()
    for path in files:
        if path.resolve() == Path(__file__).resolve():
            continue
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                names.add(node.attr)
            elif isinstance(node, ast.alias):
                names.add(node.name)
    return names


def test_every_export_has_a_user():
    exported = _exported_names()
    assert len(exported) > 10, "cylpc/__init__.py no longer parses as expected"
    unused = sorted(set(exported) - _referenced_names())
    assert not unused, f"exported from cylpc but used by no CLI, test or benchmark: {unused}"
