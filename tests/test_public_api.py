"""The package exports no name that nothing outside the tests uses."""

import ast
from pathlib import Path

import prefattach

ROOT = Path(__file__).resolve().parents[1]


def _referenced_names():
    """Every bare name and attribute name in the package modules (not
    ``__init__``) and the benchmark scripts."""
    paths = [p for p in (ROOT / "src" / "prefattach").glob("*.py") if p.name != "__init__.py"]
    paths += (ROOT / "perfbench").glob("*.py")
    names = set()
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                names.add(node.attr)
    return names


def test_every_exported_name_is_referenced_outside_the_tests():
    unused = sorted(set(prefattach.__all__) - _referenced_names())
    assert unused == [], f"in prefattach.__all__ but never used by src/ or perfbench/: {unused}"
