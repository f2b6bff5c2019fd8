"""Every function, method and class in ``src/quadsys`` has a caller outside
the tests: the package itself, the demos or the bench.  Code that only its
own unit tests reach is dead weight and should go."""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "quadsys"


def _trees(paths):
    return [(p, ast.parse(p.read_text(encoding="utf-8"), str(p))) for p in paths]


def _definitions(trees):
    """(file name, name) of every def and class that is not a dunder."""
    return {
        (path.name, node.name)
        for path, tree in trees
        for node in ast.walk(tree)
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
        and not (node.name.startswith("__") and node.name.endswith("__"))
    }


def _references(trees):
    """Every name read, attribute, imported name and identifier string.
    The package's own re-exports in ``__init__.py`` are not callers."""
    names = set()
    for path, tree in trees:
        reexports = path == PACKAGE / "__init__.py"
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                names.add(node.attr)
            elif isinstance(node, (ast.Import, ast.ImportFrom)) and not reexports:
                for alias in node.names:
                    names.update(alias.name.split("."))
            elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                if node.value.isidentifier():
                    names.add(node.value)
    return names


def test_every_definition_in_src_has_a_caller_outside_the_tests():
    package = _trees(sorted(PACKAGE.glob("*.py")))
    others = _trees(sorted((ROOT / "demos").glob("*.py")) + sorted((ROOT / "bench").glob("*.py")))
    assert len(package) >= 9 and len(others) >= 6
    used = _references(package + others)
    unused = sorted(f"{file}: {name}" for file, name in _definitions(package) if name not in used)
    assert unused == []
