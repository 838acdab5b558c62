"""Every name a module exports in ``__all__`` resolves, so no retired name lingers,
every function the benchmark tracer wraps exists and takes the arguments the
benchmark passes, and no module imports scipy when the package loads."""

import ast
import importlib
import importlib.util
import inspect
import math
import pkgutil
import sys
from pathlib import Path

import pytest

import sextic
from sextic import oracle, qes

MODULES = [importlib.import_module(f"sextic.{info.name}")
           for info in pkgutil.iter_modules(sextic.__path__)]


def test_every_exported_name_resolves():
    exporting = [mod for mod in MODULES if hasattr(mod, "__all__")]
    assert {mod.__name__ for mod in exporting} >= {
        "sextic.model", "sextic.oracle", "sextic.qes", "sextic.render", "sextic.tables",
        "sextic.verify"}
    for mod in exporting:
        missing = [name for name in mod.__all__ if not hasattr(mod, name)]
        assert not missing, f"{mod.__name__}.__all__ names {missing}"
        assert len(set(mod.__all__)) == len(mod.__all__), f"{mod.__name__}.__all__ repeats a name"


def _perfbench(name):
    """perfbench/NAME.py, loaded as the module ``perfbench_NAME``."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / f"{name}.py"
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses resolve annotations through it
    spec.loader.exec_module(module)
    return module


def test_every_traced_function_resolves():
    # perfbench/tracing.py wraps functions by (module, attribute): a renamed or
    # removed one would leave its metric silently empty under --trace 1
    tracing = _perfbench("tracing")
    missing = [(mod, attr) for mod, attr in tracing._spans()
               if not callable(getattr(importlib.import_module(mod), attr, None))]
    assert not missing, f"traced functions that do not resolve: {missing}"


def _import_time_nodes(node):
    """The nodes that run when the module is imported: all but function bodies."""
    for child in ast.iter_child_nodes(node):
        if not isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            yield child
            yield from _import_time_nodes(child)


def test_no_module_imports_scipy_at_import_time():
    # no command needs scipy; only the oracle's fallback dstebz binding imports it
    found = []
    for path in sorted(Path(sextic.__file__).parent.glob("*.py")):
        for node in _import_time_nodes(ast.parse(path.read_text(), str(path))):
            names = ([a.name for a in node.names] if isinstance(node, ast.Import)
                     else [node.module or ""] if isinstance(node, ast.ImportFrom) else [])
            found += [f"{path.name}:{node.lineno}" for name in names
                      if name == "scipy" or name.startswith("scipy.")]
    assert not found, f"module-level scipy imports: {found}"


def test_the_benchmark_call_shapes_bind():
    # perfbench/workloads.py calls spectrum, refine and suggest_grid in these
    # shapes; perfbench/tracing.py reads refine's fifth positional argument as
    # the grid and critical_roots' first as the family
    workloads = _perfbench("workloads")
    mode, j, params = workloads.make_inputs("block", 7)[0]
    inspect.signature(qes.spectrum).bind(params, j, mode, digits=workloads.DIGITS)
    family = qes.polynomial_family(qes.derived_recurrence(params, j, None, mode))
    assert inspect.signature(qes.critical_roots).bind(family).arguments["family"] is family
    spec = workloads.run_one("block", (mode, j, params))
    assert spec.critical == family.critical and len(spec.roots_reduced) == j + 1

    box = next(item for item in workloads.make_inputs("ladder", 7)
               if item.kind == "box" and item.r_max is None)
    grid = oracle.Grid(math.pi, workloads.LADDER_N)
    bound = inspect.signature(oracle.refine).bind(box.params, box.m, box.mode, box.count, grid)
    assert bound.arguments["grid"] is grid
    inspect.signature(oracle.suggest_grid).bind(box.params, box.m, box.mode, box.count,
                                                n=workloads.LADDER_N)
    spec = workloads.run_one("ladder", box)
    assert spec.grid == grid
    exact = workloads.closed_form(box, grid.r_max)
    assert [rec.extrapolated for rec in spec.records] == \
        pytest.approx(exact, abs=max(rec.error_estimate for rec in spec.records))
