"""Every name a module exports in ``__all__`` resolves, so no retired name lingers."""

import importlib
import pkgutil

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
