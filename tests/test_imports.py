"""Every name a module of the package imports is used in that module."""

import ast
from pathlib import Path

import andor

PACKAGE = Path(andor.__file__).resolve().parent


def unused_imports(path: Path) -> list[str]:
    """``file:line name`` for each imported name the module never reads."""
    tree = ast.parse(path.read_text(), filename=str(path))
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported.setdefault(name, node.lineno)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"{path.name}:{line} {name}" for name, line in imported.items()
            if name not in used]


def test_no_unused_imports():
    # __init__.py imports to re-export
    modules = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")
    assert len(modules) > 1
    assert [hit for p in modules for hit in unused_imports(p)] == []


def test_one_function_imports_the_private_highs_bindings():
    """scipy's private HiGHS module is imported in one function of the
    package, and linprog nowhere."""
    importers, linprog = [], []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        for func in ast.walk(tree):
            if not isinstance(func, ast.FunctionDef):
                continue
            for node in ast.walk(func):
                if isinstance(node, ast.ImportFrom) and "_highspy" in (node.module or ""):
                    importers.append(f"{path.name}:{func.name}")
        linprog += [f"{path.name}:{node.lineno}" for node in ast.walk(tree)
                    if isinstance(node, (ast.Name, ast.alias, ast.Attribute))
                    and "linprog" in (getattr(node, "id", None) or getattr(node, "name", None)
                                      or getattr(node, "attr", ""))]
    assert importers == ["extraction.py:_lp_model"]
    assert linprog == []
