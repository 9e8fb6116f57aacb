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


def test_oracle_imports_no_transform():
    """The oracle takes only its size check from the package, so it shares
    no code with the fast transforms it certifies."""
    tree = ast.parse((PACKAGE / "oracle.py").read_text())
    own = set()
    for node in ast.walk(tree):
        module = getattr(node, "module", None) or ""
        if isinstance(node, ast.ImportFrom) and (node.level or module.startswith("andor")):
            own |= {(module.removeprefix("andor."), alias.name) for alias in node.names}
        elif isinstance(node, ast.Import):
            own |= {(alias.name, None) for alias in node.names
                    if alias.name.startswith("andor")}
    assert own == {("lattice", "LatticeSizeError"), ("lattice", "infer_n")}


def names_highspy(node: ast.AST) -> bool:
    """Whether node imports from, or is a string naming, scipy's ``_highspy``."""
    if isinstance(node, ast.ImportFrom):
        return "_highspy" in (node.module or "")
    if isinstance(node, ast.Import):
        return any("_highspy" in alias.name for alias in node.names)
    return isinstance(node, ast.Constant) and "_highspy" in str(node.value)


def highs_names(node: ast.AST, path: Path, scope: str = "") -> list[str]:
    """``file:function`` (``file:`` at module level) for each node under node,
    docstrings aside, that names scipy's private ``_highspy``."""
    body = getattr(node, "body", None)
    docstring = body[0] if isinstance(body, list) and body and isinstance(body[0], ast.Expr) \
        and isinstance(body[0].value, ast.Constant) else None
    hits = [f"{path.name}:{scope}"] if names_highspy(node) else []
    for child in ast.iter_child_nodes(node):
        if child is not docstring:
            inner = child.name if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)) \
                else scope
            hits += highs_names(child, path, inner)
    return hits


def test_one_function_imports_the_private_highs_bindings():
    """scipy's private HiGHS module is named, to import or load it, in exactly
    one function of the package, and linprog nowhere."""
    names, linprog = [], []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        names += highs_names(tree, path)
        linprog += [f"{path.name}:{node.lineno}" for node in ast.walk(tree)
                    if isinstance(node, (ast.Name, ast.alias, ast.Attribute))
                    and "linprog" in (getattr(node, "id", None) or getattr(node, "name", None)
                                      or getattr(node, "attr", ""))]
    assert names == ["extraction.py:_highs_core"]
    assert linprog == []


def test_every_exported_name_resolves():
    """Each name in ``andor.__all__`` is an attribute of the package, and a
    star import binds them all."""
    assert len(set(andor.__all__)) == len(andor.__all__)
    assert [name for name in andor.__all__ if not hasattr(andor, name)] == []
    namespace = {}
    exec("from andor import *", namespace)
    assert set(andor.__all__) <= set(namespace)


def test_only_io_parses_json_and_with_orjson():
    """JSON is read and written in ``io`` alone, and no module parses with
    ``json.loads``: its float decoding cost most of an ``oracle verify``."""
    codecs, loads = [], []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                modules = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                modules = [node.module or ""]
            else:
                modules = []
            codecs += [f"{path.name} {m}" for m in modules if m in ("json", "orjson")]
            # json.loads, or loads imported from json
            if isinstance(node, ast.Attribute) and node.attr == "loads" \
                    and isinstance(node.value, ast.Name) and node.value.id == "json" \
                    or modules == ["json"] and isinstance(node, ast.ImportFrom) \
                    and any(alias.name == "loads" for alias in node.names):
                loads.append(f"{path.name}:{node.lineno}")
    assert codecs == ["io.py json", "io.py orjson"]
    assert loads == []
