"""The benchmark's layer spans wrap dgskew functions by name: every target
in bench/tracing.py must still name a function or method that exists, and
the engine's own calls must pass through the spans."""

import importlib
import importlib.util
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parent.parent / "bench" / "tracing.py"


def _tracing():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("name,target",
                         sorted((n, t) for n, (t, _) in _tracing().LAYER_SPANS.items()))
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


# the spans a class query and a flagship certificate pass through
ENGINE_SPANS = ("cohomology.cohomology", "cohomology.class_of", "linalg.rowspan.add",
                "linalg.rowspan.reduce", "classify.classify", "presentations.truncate",
                "presentations.mul", "resolution.minimal_resolution",
                "resolution.assert_complex", "resolution.ext_against_algebra",
                "resolution.certificate")


def test_layer_spans_see_the_engine():
    import dgskew as dg

    spec = dg.DGSpec.from_rows(dg.QQ, [[1, 1, 0], [1, 1, 0], [1, 1, 0]])
    recorder = _tracing().SpanRecorder()
    recorder.install()
    try:
        recorder.begin_job("class_of")
        report = dg.cohomology(spec, 4)
        # a representative plus a boundary: the boundary reduces away
        below = dg.GradedElement.from_vector(dg.QQ, 3, [1] * len(dg.degree_basis(3)))
        cls = report.class_of(report.bases[4][0].add(dg.d(spec, below)))
        recorder.end_job()
        recorder.begin_job("certificate")
        cert = dg.gorenstein_certificate(dg.classify(spec.matrix).predicted_presentation, 6, 10)
        recorder.end_job()
    finally:
        recorder.uninstall()
    assert cls.coordinates[0] == 1 and not any(cls.coordinates[1:])
    assert cert.is_refuted
    spans = recorder.aggregate()
    assert [name for name in ENGINE_SPANS if not spans.get(name, {}).get("calls")] == []
