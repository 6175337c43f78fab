"""Import layering, read from the source: the link model, the config, the
closed-form rates and the plotter reach only the standard library, so none
of them loads the simulator, numpy or scipy on its own."""

import ast
import sys
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "dpsmdi"
STDLIB_ONLY = ("channel", "config", "keyrate_asymptotic", "svgplot")


def imports(module):
    """(package modules, outside top-level modules) that ``module`` imports,
    at module level or inside a function."""
    tree = ast.parse((PACKAGE / f"{module}.py").read_text(encoding="utf-8"))
    inside, outside = set(), set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            outside.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level:
            if node.module:
                inside.add(node.module.split(".")[0])
            else:
                # from . import x, y
                inside.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            outside.add(node.module.split(".")[0])
    return inside, outside


def reach(module):
    """Outside top-level modules imported by ``module`` or by any package
    module it reaches through package-relative imports.  The package's
    ``__init__``, which Python runs first, is not followed."""
    seen, todo, outside = set(), [module], {}
    while todo:
        current = todo.pop()
        if current in seen:
            continue
        seen.add(current)
        inside, names = imports(current)
        for name in names:
            outside.setdefault(name, current)
        todo.extend(inside - seen)
    return outside


def test_the_walk_follows_package_edges():
    # montecarlo reaches numpy both directly and through its kernel
    assert reach("montecarlo")["numpy"] in {"montecarlo", "_mc_kernel", "_mc_tables", "_rng"}
    assert "scipy" in reach("cli")


@pytest.mark.parametrize("module", STDLIB_ONLY)
def test_module_reaches_only_the_standard_library(module):
    third_party = {
        name: via for name, via in reach(module).items()
        if name != "__future__" and name not in sys.stdlib_module_names
    }
    assert not third_party, f"{module} reaches {third_party} (module: imported by)"
