"""The benchmark under perfbench/ drives the package from outside: every
name its worker and tracer read off a dpsmdi module, and every function
the tracer wraps, must still resolve. Only perfbench's files are read."""

import ast
import importlib
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import dpsmdi
from dpsmdi import finite_key

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
READERS = ("worker.py", "tracing.py")


def package_bindings(tree):
    """Local name -> the dotted dpsmdi path each import binds it to."""
    bound = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                # import dpsmdi.x binds dpsmdi; import dpsmdi.x as y binds y
                if alias.name.split(".")[0] == "dpsmdi":
                    bound[alias.asname or "dpsmdi"] = alias.name if alias.asname else "dpsmdi"
        elif isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "dpsmdi":
            for alias in node.names:
                bound[alias.asname or alias.name] = f"{node.module}.{alias.name}"
    return bound


def names_read(tree):
    """Every dotted dpsmdi path the module imports, reads as an attribute
    chain off an imported name, or lists as a (module, "name") pair in
    TRACED."""
    bound = package_bindings(tree)
    read = set(bound.values())
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute):
            attrs = []
            while isinstance(node, ast.Attribute):
                attrs.append(node.attr)
                node = node.value
            if isinstance(node, ast.Name) and node.id in bound:
                read.add(".".join([bound[node.id], *reversed(attrs)]))
        elif isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "TRACED" for t in node.targets
        ):
            for pair in node.value.elts:
                module, name = pair.elts
                read.add(f"{bound[module.id]}.{name.value}")
    return read


def resolves(dotted):
    obj = dpsmdi
    for attr in dotted.split(".")[1:]:
        if not hasattr(obj, attr):
            return False
        obj = getattr(obj, attr)
    return True


def test_every_name_the_benchmark_reads_resolves():
    # import every submodule, so that each is an attribute of the package
    for info in pkgutil.iter_modules(dpsmdi.__path__):
        importlib.import_module(f"dpsmdi.{info.name}")
    read = set()
    for name in READERS:
        path = PERFBENCH / name
        read |= names_read(ast.parse(path.read_text(encoding="utf-8"), filename=str(path)))
    # TRACED was parsed, and chains are followed past the module
    assert "dpsmdi.keyrate_decoy.direct_qber_quadrature" in read
    assert "dpsmdi.montecarlo.ChannelParams.from_total_distance" in read
    missing = sorted(name for name in read if not resolves(name))
    assert not missing, f"perfbench reads names the package lacks: {', '.join(missing)}"


def constant(node):
    """Value of a constant expression such as (10**6, 0.02) or 1e-5."""
    return eval(compile(ast.Expression(node), "<tracing.py>", "eval"), {"__builtins__": {}})


def finite_key_probes(tree):
    """(n_signals, epsilon, epsilon_EC, e_b) of each optimize_rate call in
    the tracer's loop over (n_signals, e_b) pairs."""
    for loop in ast.walk(tree):
        if not isinstance(loop, ast.For):
            continue
        calls = [
            node for stmt in loop.body for node in ast.walk(stmt)
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
            and node.func.attr == "optimize_rate"
        ]
        if calls:
            (call,) = calls
            epsilon, epsilon_ec = (constant(arg) for arg in call.args[1:3])
            return [(n, epsilon, epsilon_ec, e_b) for n, e_b in constant(loop.iter)]
    raise AssertionError("tracing.py has no loop over optimize_rate probe points")


def test_each_traced_optimum_reports_through_finite_rate(monkeypatch):
    # The traced run's finite_key.finite_rate_us is a median over the calls
    # the tracer's wrapper of the module attribute sees while optimize_rate
    # runs at its probe points: each optimum there must call it exactly once
    path = PERFBENCH / "tracing.py"
    probes = finite_key_probes(ast.parse(path.read_text(encoding="utf-8"), filename=str(path)))
    assert [(n, e_b) for n, _, _, e_b in probes] == [(10**6, 0.02), (10**9, 0.04), (10**12, 0.01)]
    calls = []
    real = finite_key.finite_rate

    def counting(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(finite_key, "finite_rate", counting)
    for n_signals, epsilon, epsilon_ec, e_b in probes:
        calls.clear()
        finite_key.optimize_rate(n_signals, epsilon, epsilon_ec, e_b)
        assert len(calls) == 1, (n_signals, e_b)


def setup_code():
    """run.py's SETUP_CODE, the statement each set-up sample runs."""
    tree = ast.parse((PERFBENCH / "run.py").read_text(encoding="utf-8"))
    (value,) = [
        node.value.value for node in tree.body
        if isinstance(node, ast.Assign)
        and any(isinstance(t, ast.Name) and t.id == "SETUP_CODE" for t in node.targets)
    ]
    return value


def test_set_up_runs_and_its_import_trace_lists_what_run_py_reads():
    # run.py times SETUP_CODE in fresh interpreters and reads the cumulative
    # import time of dpsmdi and of scipy.integrate from -X importtime; a
    # missing line stops the benchmark.  The scipy.integrate half goes when
    # the benchmark drops import.scipy_integrate_ms (ROADMAP item 1).
    root = PERFBENCH.parent
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    proc = subprocess.run(
        [sys.executable, "-X", "importtime", "-c", setup_code()],
        cwd=root, env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    listed = set()
    for line in proc.stderr.splitlines():
        # the parse of run.py's import_times: "import time: self | cumulative | name"
        parts = line.removeprefix("import time:").split("|")
        if len(parts) == 3 and parts[1].strip().isdigit():
            listed.add(parts[2].strip())
    assert {"dpsmdi", "scipy.integrate"} <= listed
