"""Every module under ``src/repro`` uses each name it imports.

An ``ast`` scan, scope-blind: a name imported anywhere in a module counts
as used when the module loads it anywhere, names it in a string
annotation, or lists it in ``__all__``.  A package's ``__init__.py``
imports to re-export, so its imports all count as used.
"""

import ast
import pathlib

SRC = pathlib.Path(__file__).resolve().parents[1] / "src" / "repro"


def _annotation_names(annotation):
    """Names an annotation loads, string annotations parsed."""
    for node in ast.walk(annotation):
        if isinstance(node, ast.Name):
            yield node.id
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            yield from _annotation_names(ast.parse(node.value, mode="eval"))


def _annotations(tree):
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            if node.returns is not None:
                yield node.returns
        elif isinstance(node, ast.arg):
            if node.annotation is not None:
                yield node.annotation
        elif isinstance(node, ast.AnnAssign):
            yield node.annotation


def _exported(tree):
    """The string entries of a module-level ``__all__``."""
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(target, ast.Name) and target.id == "__all__"
            for target in node.targets
        ):
            for item in ast.walk(node.value):
                if isinstance(item, ast.Constant) and isinstance(item.value, str):
                    yield item.value


def unused_imports(path: pathlib.Path):
    """``(line, name)`` of each name ``path`` imports and never uses."""
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                name = alias.asname or alias.name.partition(".")[0]
                imported.append((node.lineno, name))
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported.append((node.lineno, alias.asname or alias.name))
    used = {
        node.id
        for node in ast.walk(tree)
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store)
    }
    for annotation in _annotations(tree):
        used.update(_annotation_names(annotation))
    used.update(_exported(tree))
    return [(line, name) for line, name in imported if name not in used]


def test_modules_use_every_name_they_import():
    modules = sorted(SRC.rglob("*.py"))
    assert modules
    unused = [
        f"{path.relative_to(SRC.parent)}:{line}: {name}"
        for path in modules
        if path.name != "__init__.py"
        for line, name in unused_imports(path)
    ]
    assert unused == []


#: The packages a tree module may import from: the relational view of a
#: tree sits below :mod:`repro.wrap`, so ``Document`` depends on
#: ``repro.trees`` and never the reverse.
TREES_MAY_IMPORT = ("repro.trees", "repro.html", "repro.structures", "repro.errors")


def repro_imports(path: pathlib.Path):
    """``(line, module)`` of each ``repro`` module ``path`` imports,
    imports inside functions included."""
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            modules = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            modules = ["repro.trees" if node.level else node.module]
        else:
            continue
        for module in modules:
            if module == "repro" or module.startswith("repro."):
                yield node.lineno, module


def test_tree_modules_import_only_from_lower_layers():
    modules = sorted((SRC / "trees").rglob("*.py"))
    assert modules
    outside = [
        f"{path.relative_to(SRC.parent)}:{line}: {module}"
        for path in modules
        for line, module in repro_imports(path)
        if not any(
            module == allowed or module.startswith(allowed + ".")
            for allowed in TREES_MAY_IMPORT
        )
    ]
    assert outside == []
