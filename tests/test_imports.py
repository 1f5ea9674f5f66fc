"""Every module under ``src/cade`` and ``tests`` reads each name it imports."""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def unused_imports(source: str) -> list[str]:
    """The names ``source`` binds by an import and never reads.  A name
    listed in a module-level ``__all__`` counts as read."""
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                if alias.name == "*":
                    continue
                name = alias.asname or alias.name.split(".")[0]
                imported.setdefault(name, node.lineno)
    read = {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    for node in tree.body:
        if (isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "__all__"
                        for t in node.targets)):
            read |= {e.value for e in node.value.elts
                     if isinstance(e, ast.Constant)}
    return [f"{name} (line {line})" for name, line in imported.items()
            if name not in read]


def test_the_scan_sees_reads_and_all():
    src = ("import os, sys as system\nfrom a.b import c, d as e\n"
           "import x.y\n__all__ = ['e']\nprint(system.argv, x.y)\n")
    assert unused_imports(src) == ["os (line 1)", "c (line 2)"]


def test_no_module_imports_a_name_it_never_reads():
    files = sorted([*(ROOT / "src" / "cade").rglob("*.py"),
                    *(ROOT / "tests").glob("*.py")])
    assert len(files) > 20
    unused = {str(f.relative_to(ROOT)): names for f in files
              if (names := unused_imports(f.read_text()))}
    assert unused == {}


def definitions_never_read(sources: dict[str, str]) -> list[str]:
    """The module-level functions and classes of ``sources`` (path ->
    source) that no code in them reads: no name load and no attribute of
    that name outside the definition's own body.  An ``__all__`` entry is
    not a read."""
    defined, loads, own = [], {}, {}
    for path, source in sources.items():
        tree = ast.parse(source)
        for node in ast.walk(tree):
            name = (node.id if isinstance(node, ast.Name)
                    and isinstance(node.ctx, ast.Load)
                    else node.attr if isinstance(node, ast.Attribute) else None)
            if name is not None:
                loads[name] = loads.get(name, 0) + 1
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                 ast.ClassDef)):
                defined.append((path, node.name, node.lineno))
                own[path, node.name] = sum(
                    1 for sub in ast.walk(node)
                    if (isinstance(sub, ast.Name) and sub.id == node.name
                        and isinstance(sub.ctx, ast.Load))
                    or (isinstance(sub, ast.Attribute) and sub.attr == node.name))
    return [f"{path}: {name} (line {line})" for path, name, line in defined
            if loads.get(name, 0) <= own[path, name]]


def test_the_definition_scan_sees_reads_all_and_recursion():
    sources = {"a.py": ("__all__ = ['listed']\ndef listed(): pass\n"
                        "def itself(n): return itself(n - 1)\n"
                        "def called(): pass\nclass Kind: pass\n"),
               "b.py": "import a\nx = a.called() if isinstance(1, a.Kind) else 0\n"}
    assert definitions_never_read(sources) == ["a.py: listed (line 2)",
                                               "a.py: itself (line 3)"]


def test_no_src_definition_without_a_src_reader():
    files = sorted((ROOT / "src" / "cade").rglob("*.py"))
    assert len(files) > 10
    sources = {str(f.relative_to(ROOT)): f.read_text() for f in files}
    assert definitions_never_read(sources) == []
