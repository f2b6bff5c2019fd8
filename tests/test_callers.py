"""Every function, method and class in ``src/quadsys`` has a caller outside
the tests: the package itself, the demos or the bench.  Code that only its
own unit tests reach is dead weight and should go.  Likewise every file in
``src/quadsys/data`` is read by a catalog loader."""

import ast
from pathlib import Path

from quadsys import catalog, formats

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
    The package's own re-exports in ``__init__.py`` are not callers: neither
    its imports nor the name strings of its lazy table."""
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
            elif isinstance(node, ast.Constant) and isinstance(node.value, str) and not reexports:
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


def test_a_name_only_the_lazy_table_lists_has_no_caller():
    init = PACKAGE / "__init__.py"
    tree = ast.parse("_LAZY = {'orphan': 'catalog'}\nfrom .core import stray\n")
    assert {"orphan", "stray"}.isdisjoint(_references([(init, tree)]))
    assert {"orphan", "stray"} <= _references([(PACKAGE / "cli.py", tree)])


def test_every_shipped_data_file_is_read_by_a_catalog_loader(monkeypatch):
    read = []
    read_data = formats.read_data

    def recording(name):
        read.append(name)
        return read_data(name)

    monkeypatch.setattr(formats, "read_data", recording)
    loaders = [*catalog.GENERATORS.values(), *catalog.RESOLUTIONS.values(), catalog.sqs28_star]
    for load in loaders:
        load.cache_clear()
    for load in loaders:
        load()
    assert set(read) == {path.name for path in (PACKAGE / "data").iterdir()}
