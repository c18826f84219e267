"""The benchmark's layer spans wrap dgskew functions by name: every target
in bench/tracing.py must still name a function or method that exists."""

import importlib
import importlib.util
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parent.parent / "bench" / "tracing.py"


def _layer_spans():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.LAYER_SPANS


@pytest.mark.parametrize("name,target", sorted((n, t) for n, (t, _) in _layer_spans().items()))
def test_layer_span_targets_resolve(name, target):
    module_name, _, path = target.partition(":")
    module = importlib.import_module(f"dgskew.{module_name}")
    if "." in path:
        # the hook replaces the attribute on this class, not on a base
        cls_name, attr = path.split(".")
        assert callable(getattr(module, cls_name).__dict__.get(attr)), target
    else:
        fn = getattr(module, path, None)
        assert callable(fn) and fn.__module__ == module.__name__, target
