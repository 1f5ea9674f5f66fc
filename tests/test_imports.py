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
