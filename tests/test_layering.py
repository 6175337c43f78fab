"""Import layering, read from the source: the link model, the config, the
closed-form rates, the optics, the sifting rules and the plotter reach
only the standard library, so none of them loads the simulator, numpy or
scipy on its own; the simulator, the noise bound and the finite-key
analysis reach numpy besides, and only the decoy analysis imports scipy."""

import ast
import sys
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "dpsmdi"
STDLIB_ONLY = (
    "channel", "config", "fock_optics", "keyrate_asymptotic", "protocol_sifting", "svgplot",
)
NUMPY_ONLY = ("_rng", "_mc_tables", "_mc_kernel", "montecarlo", "noise_security", "finite_key")


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


def third_party(module):
    return {
        name: via for name, via in reach(module).items()
        if name != "__future__" and name not in sys.stdlib_module_names
    }


@pytest.mark.parametrize("module", STDLIB_ONLY)
def test_module_reaches_only_the_standard_library(module):
    found = third_party(module)
    assert not found, f"{module} reaches {found} (module: imported by)"


@pytest.mark.parametrize("module", NUMPY_ONLY)
def test_module_reaches_only_numpy_and_the_standard_library(module):
    found = {name: via for name, via in third_party(module).items() if name != "numpy"}
    assert not found, f"{module} reaches {found} (module: imported by)"


def test_only_the_decoy_analysis_imports_scipy():
    modules = sorted(path.stem for path in PACKAGE.glob("*.py"))
    assert [m for m in modules if "scipy" in imports(m)[1]] == ["keyrate_decoy"]
