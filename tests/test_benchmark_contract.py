"""The names the traced benchmark run reaches into must keep existing.

``certbench/tracer.py`` wraps every name in its ``TRACED`` table in its
home module and reads ``cache_info()`` from every name in ``CACHED``. A
deletion or a dropped ``lru_cache`` in the program would otherwise only
show when the benchmark is run with tracing on. Likewise the known-answer
gate of ``certbench/workloads.py`` reads one check key per workload, which
must stay a key of ``certify.CHECKS``.
"""

import importlib
import runpy
from pathlib import Path

import pytest

from clutterlab.certify import CHECKS

CERTBENCH = Path(__file__).resolve().parents[1] / "certbench"
# run_path compiles the file in memory, so nothing is written next to it
TRACER = runpy.run_path(str(CERTBENCH / "tracer.py"))
WORKLOADS = runpy.run_path(str(CERTBENCH / "workloads.py"))["WORKLOADS"]

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


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_the_gated_check_is_a_key_of_the_check_table(name):
    workload = WORKLOADS[name]
    assert workload.required_check in CHECKS[workload.instance_type].checks
