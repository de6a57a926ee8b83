"""perfbench/spans.py wraps ramseylb functions where their callers bind
them.  A binding that moves or disappears would make its metric read 0,
so every one of them must resolve."""

import ast
import importlib.util
import sys
from pathlib import Path

import pytest

import ramseylb.cliques

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"
PACKAGE = Path(ramseylb.cliques.__file__).resolve().parent


@pytest.fixture
def spans(monkeypatch):
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, spans)
    spec.loader.exec_module(spans)
    return spans


def test_every_traced_binding_resolves(spans):
    rank = ramseylb.cliques.rank
    tracer = spans.Tracer()
    tracer.install()  # raises TargetMissing before it wraps anything
    try:
        assert tracer.active
        assert ramseylb.cliques.rank is not rank
    finally:
        tracer.uninstall()
    assert ramseylb.cliques.rank is rank


def unused_imports(path):
    """The names a module imports and never reads."""
    tree = ast.parse(path.read_text())
    imported = set()
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update(a.asname or a.name for a in node.names)
        elif isinstance(node, ast.Import):
            imported.update((a.asname or a.name).split(".")[0] for a in node.names)
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return imported - read


def test_every_unused_import_is_a_traced_binding(spans):
    """A name a module imports but never calls is kept only so that the
    tracer can wrap it there."""
    traced = {(t.owner, t.attr) for t in spans.TARGETS}
    unused = {
        (f"ramseylb.{path.stem}", name)
        for path in sorted(PACKAGE.glob("*.py"))
        if path.stem != "__init__"
        for name in unused_imports(path)
    }
    assert ("ramseylb.cli", "sample_distinct") in unused
    assert unused <= traced, unused - traced


def reads(path):
    """Per top-level statement of a module, the names and attributes it
    reads."""
    return [
        {n.id if isinstance(n, ast.Name) else n.attr
         for n in ast.walk(stmt) if isinstance(n, (ast.Name, ast.Attribute))}
        for stmt in ast.parse(path.read_text()).body
    ]


def test_every_public_definition_has_a_reader_outside_the_tests():
    """Each public top-level function or class of the package is read
    somewhere in the package, outside its own definition, or in
    perfbench.  Criteria 03 and 06 pin the two exceptions."""
    files = sorted(PACKAGE.glob("*.py")) + sorted(SPANS.parent.glob("*.py"))
    read_by = {path: reads(path) for path in files}
    unread = set()
    for path in sorted(PACKAGE.glob("*.py")):
        if path.stem == "__init__":
            continue
        for i, stmt in enumerate(ast.parse(path.read_text()).body):
            if isinstance(stmt, (ast.FunctionDef, ast.ClassDef)) and not stmt.name.startswith("_"):
                if not any(stmt.name in names for other, per_stmt in read_by.items()
                           for j, names in enumerate(per_stmt) if (other, j) != (path, i)):
                    unread.add(stmt.name)
    assert unread <= {"rank_count_bound", "recommended_n"}, unread
