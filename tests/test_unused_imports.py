"""Source hygiene: the package is plain Python, every import in the package
and test modules is used (``__init__`` re-exports aside, which ``__all__``
lists exactly), every private module-level name of the package is read
somewhere in the package, and so is every public function, class, method
and property, bar a named few."""

import ast
from pathlib import Path

import pytest

import dpsmdi

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = sorted((ROOT / "src" / "dpsmdi").glob("*.py"))
MODULES = sorted(
    p for p in [*PACKAGE, *(ROOT / "tests").glob("*.py")] if p.name != "__init__.py"
)


def imported_names(tree):
    """Name bound by each import statement -> line number."""
    names = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                names[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                names[alias.asname or alias.name] = node.lineno
    return names


def used_names(tree):
    """Names read anywhere, string annotations included."""
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            used.add(node.id)
        annotations = []
        if isinstance(node, ast.arg):
            annotations.append(node.annotation)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            annotations.append(node.returns)
        elif isinstance(node, ast.AnnAssign):
            annotations.append(node.annotation)
        for annotation in annotations:
            if isinstance(annotation, ast.Constant) and isinstance(annotation.value, str):
                used |= used_names(ast.parse(annotation.value, mode="eval"))
    return used


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    used = used_names(tree)
    unused = sorted(
        f"{name} (line {line})"
        for name, line in imported_names(tree).items()
        if name not in used
    )
    assert not unused, f"{path.name}: unused imports {', '.join(unused)}"


def test_all_lists_exactly_the_imported_names():
    # __init__ names its public surface twice, in its imports and in __all__
    init = ROOT / "src" / "dpsmdi" / "__init__.py"
    imported = set(imported_names(ast.parse(init.read_text(encoding="utf-8"))))
    assert len(dpsmdi.__all__) == len(set(dpsmdi.__all__)), "__all__ repeats a name"
    assert set(dpsmdi.__all__) == imported | {"__version__"}


def package_trees(include_init=True):
    return {
        p.name: ast.parse(p.read_text(encoding="utf-8"), filename=str(p))
        for p in PACKAGE
        if include_init or p.name != "__init__.py"
    }


def attributes_read(trees):
    """Names taken as attributes, ``x.name``."""
    return {
        node.attr
        for tree in trees.values()
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute)
    }


def names_read(trees):
    """Names loaded, taken as attributes or imported by name."""
    read = attributes_read(trees)
    for node in (node for tree in trees.values() for node in ast.walk(tree)):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            read.add(node.id)
        elif isinstance(node, ast.ImportFrom):
            read.update(alias.name for alias in node.names)
    return read


def module_level_names(tree, constants=True):
    """(name, line) of each module-level function, class and, optionally,
    constant."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield node.name, node.lineno
        elif constants and isinstance(node, (ast.Assign, ast.AnnAssign)):
            nodes = node.targets if isinstance(node, ast.Assign) else [node.target]
            yield from ((t.id, node.lineno) for t in nodes if isinstance(t, ast.Name))


def test_private_names_are_read_in_the_package():
    trees = package_trees()
    read = names_read(trees)
    unread = [
        f"{module}: {name} (line {line})"
        for module, tree in trees.items()
        for name, line in module_level_names(tree)
        if name.startswith("_") and not name.startswith("__") and name not in read
    ]
    assert not unread, f"private names never read in the package: {', '.join(unread)}"


# Public functions, classes, methods and properties the package itself does
# not read, each kept for a reader outside it.
UNREAD_PUBLIC = {
    # the per-trial oracle the tests and the benchmark check the kernel with
    "replay_trials",
    # read by the benchmark's backend gate; goes with that gate
    "available_backends",
}


def test_public_names_are_read_in_the_package():
    # the re-exports of __init__ do not count as reads
    trees = package_trees(include_init=False)
    read = names_read(trees) | UNREAD_PUBLIC
    unread = [
        f"{module}: {name} (line {line})"
        for module, tree in trees.items()
        for name, line in module_level_names(tree, constants=False)
        if not name.startswith("_") and name not in read
    ]
    assert not unread, f"public names only read outside the package: {', '.join(unread)}"


def public_methods(tree):
    """(class, name, line) of each public method and property of the
    module's classes."""
    for cls in tree.body:
        if isinstance(cls, ast.ClassDef):
            for node in cls.body:
                if isinstance(node, ast.FunctionDef) and not node.name.startswith("_"):
                    yield cls.name, node.name, node.lineno


def test_public_methods_are_read_in_the_package():
    # a method is read only where the package takes it as an attribute,
    # self.name or Class.name; the re-exports of __init__ do not count
    trees = package_trees(include_init=False)
    read = attributes_read(trees) | UNREAD_PUBLIC
    unread = [
        f"{module}: {cls}.{name} (line {line})"
        for module, tree in trees.items()
        for cls, name, line in public_methods(tree)
        if name not in read
    ]
    assert not unread, f"public methods only read outside the package: {', '.join(unread)}"


def test_package_holds_only_python_sources():
    # one Monte Carlo kernel, in numpy: no extension source or build product
    package = ROOT / "src" / "dpsmdi"
    others = sorted(
        str(p.relative_to(package))
        for p in package.rglob("*")
        if p.is_file() and p.suffix != ".py" and "__pycache__" not in p.parts
    )
    assert not others, f"non-Python files in src/dpsmdi: {', '.join(others)}"
