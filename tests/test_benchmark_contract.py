"""The names the traced benchmark run reaches into must keep existing.

``certbench/tracer.py`` wraps every name in its ``TRACED`` table in its
home module and reads ``cache_info()`` from every name in ``CACHED``. A
deletion or a dropped ``lru_cache`` in the program would otherwise only
show when the benchmark is run with tracing on.
"""

import importlib
import runpy
from pathlib import Path

import pytest

# run_path compiles the file in memory, so nothing is written next to it
TRACER = runpy.run_path(str(Path(__file__).resolve().parents[1] / "certbench" / "tracer.py"))

TRACED = [(layer, name) for layer, names in TRACER["TRACED"].items() for name in names]


@pytest.mark.parametrize("layer,name", TRACED, ids=[f"{l}.{n}" for l, n in TRACED])
def test_traced_name_resolves_in_its_home_module(layer, name):
    home = importlib.import_module(f"clutterlab.{layer}")
    assert callable(getattr(home, name, None))


@pytest.mark.parametrize("qualname", TRACER["CACHED"])
def test_cached_name_has_cache_info(qualname):
    layer, name = qualname.split(".")
    fn = getattr(importlib.import_module(f"clutterlab.{layer}"), name)
    assert callable(fn.cache_info)


def test_every_traced_module_imports():
    for module in TRACER["MODULES"]:
        importlib.import_module(module)
