"""The traced benchmark names only functions that exist.

``pipebench/tracing.py`` wraps each function its ``SPANS`` table names
with ``getattr``, so a renamed or deleted function would crash a traced
benchmark run. Its per-item workers are matched by name.
"""

import importlib
import importlib.util
import os

import pytest

_TRACING = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                        os.pardir, "pipebench", "tracing.py")


def _tracing():
    spec = importlib.util.spec_from_file_location("pipebench_tracing", _TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


tracing = _tracing()


@pytest.mark.parametrize("mod_name, attr", [(m, a) for m, a, _, _ in tracing.SPANS])
def test_span_target_exists(mod_name, attr):
    target = importlib.import_module(f"egolink.{mod_name}")
    for part in attr.split("."):
        target = getattr(target, part)
    assert callable(target)


@pytest.mark.parametrize("worker", sorted(tracing.WORKER_SPANS))
def test_worker_exists(worker):
    modules = [importlib.import_module(f"egolink.{m}") for m in ("empirical", "evaluation")]
    assert any(callable(getattr(m, worker, None)) for m in modules)
