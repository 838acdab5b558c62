"""Every name a module exports in ``__all__`` resolves, so no retired name lingers,
every function the benchmark tracer wraps exists, and no module imports scipy when
the package loads."""

import ast
import importlib
import importlib.util
import pkgutil
from pathlib import Path

import sextic

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


def test_every_traced_function_resolves():
    # perfbench/tracing.py wraps functions by (module, attribute): a renamed or
    # removed one would leave its metric silently empty under --trace 1
    path = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracing", path)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
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
    # the exact commands never need scipy; only the float oracle's calls import it
    found = []
    for path in sorted(Path(sextic.__file__).parent.glob("*.py")):
        for node in _import_time_nodes(ast.parse(path.read_text(), str(path))):
            names = ([a.name for a in node.names] if isinstance(node, ast.Import)
                     else [node.module or ""] if isinstance(node, ast.ImportFrom) else [])
            found += [f"{path.name}:{node.lineno}" for name in names
                      if name == "scipy" or name.startswith("scipy.")]
    assert not found, f"module-level scipy imports: {found}"
