"""Every public export resolves, so ``from rgpe.<module> import *`` works."""

import importlib
import pkgutil

import rgpe


def test_every_exported_name_resolves():
    modules = [rgpe] + [importlib.import_module(f"rgpe.{info.name}")
                        for info in pkgutil.iter_modules(rgpe.__path__)]
    missing = [f"{mod.__name__}.{name}" for mod in modules
               for name in getattr(mod, "__all__", ())
               if not hasattr(mod, name)]
    assert not missing
