"""Every public export resolves, so ``from rgpe.<module> import *`` works."""

import importlib
import os
import pkgutil
import subprocess
import sys

import rgpe


def test_every_exported_name_resolves():
    modules = [rgpe] + [importlib.import_module(f"rgpe.{info.name}")
                        for info in pkgutil.iter_modules(rgpe.__path__)]
    missing = [f"{mod.__name__}.{name}" for mod in modules
               for name in getattr(mod, "__all__", ())
               if not hasattr(mod, name)]
    assert not missing


def test_import_leaves_scipy_linalg_unloaded():
    # only the oracle's dense references use scipy.linalg; loading it with
    # the package would slow every run's start-up
    env = dict(os.environ,
               PYTHONPATH=os.path.dirname(os.path.dirname(rgpe.__file__)))
    code = ("import sys, rgpe, rgpe.harness; "
            "print('scipy.linalg' in sys.modules)")
    out = subprocess.run([sys.executable, "-c", code], env=env,
                         capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "False"
