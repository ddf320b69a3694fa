import ast
import importlib.util
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


def test_traced_boundaries_exist():
    # perfbench/spans.py rebinds these attributes for --trace 1; one that
    # moved or was renamed would make the traced benchmark run fail
    path = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"
    spec = importlib.util.spec_from_file_location("perfbench_spans", path)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    table = spans.patch_table()
    assert table
    missing = [f"{getattr(owner, '__name__', owner)}.{attr}" for owner, attr, _, _ in table
               if attr not in owner.__dict__]
    assert not missing, missing


def test_no_unused_imports():
    # a deletion that leaves its import behind fails here; __init__ only re-exports
    unused = []
    for path in SOURCES:
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                bound = [a.asname or a.name.split(".")[0] for a in node.names]
            elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
                bound = [a.asname or a.name for a in node.names]
            else:
                continue
            unused += [f"{path.name}:{node.lineno} {name}" for name in bound if name not in used]
    assert not unused, unused


def _is_private(name: str) -> bool:
    return name.startswith("_") and not name.endswith("__")


def test_no_module_reads_another_modules_private_names():
    # a private name is its module's to change; reading it elsewhere pins it
    found = []
    for path in SOURCES:
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        imported_modules = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.level:
                if node.module is None:  # from . import theory
                    imported_modules |= {a.asname or a.name for a in node.names}
                else:
                    found += [f"{path.name}:{node.lineno} {a.name}" for a in node.names
                              if _is_private(a.name)]
        found += [f"{path.name}:{node.lineno} {node.value.id}.{node.attr}"
                  for node in ast.walk(tree)
                  if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                  and node.value.id in imported_modules and _is_private(node.attr)]
    assert not found, found
