"""The benchmark's tracer wraps package functions by module attribute.

bench/tracing.py lists each traced function with every module holding a
binding of it; a refactor that drops one of those bindings would break only
the benchmark run. This test loads the tracer's table, without editing or
installing anything, and checks every binding it names.
"""

from __future__ import annotations

import importlib
import importlib.util
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"


def _targets():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.TARGETS


@pytest.mark.parametrize(
    "owner,func,sites",
    [pytest.param(owner, func, sites, id=f"{owner}.{func}") for owner, func, sites, _ in _targets()],
)
def test_every_traced_binding_resolves(owner, func, sites):
    defined = getattr(importlib.import_module(f"evdispatch.{owner}"), func)
    assert callable(defined)
    for site in sites:
        bound = getattr(importlib.import_module(f"evdispatch.{site}"), func, None)
        assert bound is defined, f"evdispatch.{site}.{func} is not evdispatch.{owner}.{func}"
