import ast
from pathlib import Path

import remlab

SOURCES = sorted(Path(remlab.__file__).parent.glob("*.py"))


def test_package_validates_without_assert():
    # python -O strips assert statements, so checks must raise instead
    assert SOURCES
    found = []
    for path in SOURCES:
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        found += [f"{path.name}:{node.lineno}" for node in ast.walk(tree)
                  if isinstance(node, ast.Assert)]
    assert not found, found
