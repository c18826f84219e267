"""Benchmark-side instrumentation of the dgskew layers.

Nothing in `src/` is edited: the public functions of each layer are wrapped
from here, in every loaded `dgskew` module that holds a reference to them,
and the originals are put back afterwards.

- `SpanRecorder` keeps spans in memory (name, start, end, parent, job id and
  the problem size of the call) and derives inclusive and self time per span
  name.  Sizes that cost time to compute (nonzero counts) are taken when the
  job has ended, so they never land inside a span.
- `FieldCounter` counts calls into the session fields' methods.  It runs in
  a pass of its own because a wrapper on every scalar operation would
  inflate the span times.
- `SizeProbe` records the truncated-algebra basis size and the number of
  resolution generators of each certificate job; it adds two calls per job
  and stays on in untraced runs.
"""

from __future__ import annotations

import functools
import json
import sys
from collections import defaultdict
from time import perf_counter


def dgskew_modules():
    return {name: mod for name, mod in sys.modules.items()
            if name == "dgskew" or name.startswith("dgskew.")}


class Patches:
    """Replacements of functions and methods that can be undone."""

    def __init__(self):
        self._undo = []

    def replace(self, target: str, make):
        """target is "module:function" or "module:Class.method"."""
        modules = dgskew_modules()
        module_name, _, path = target.partition(":")
        owner = modules[f"dgskew.{module_name}"]
        if "." in path:
            cls_name, attr = path.split(".")
            cls = getattr(owner, cls_name)
            original = cls.__dict__[attr]
            self._set(cls, attr, make(original))
            return
        original = getattr(owner, path)
        new = make(original)
        for mod in modules.values():
            if getattr(mod, path, None) is original:
                self._set(mod, path, new)

    def _set(self, obj, attr, value):
        self._undo.append((obj, attr, getattr(obj, attr)))
        setattr(obj, attr, value)

    def undo(self):
        for obj, attr, value in reversed(self._undo):
            setattr(obj, attr, value)
        self._undo.clear()


def _nnz(entries) -> int:
    return sum(1 for row in entries for x in row if x)


def _rref_size(args, out):
    m = args[0]
    return {"cells": m.nrows * m.ncols, "nnz": _nnz(m.entries), "fp": int(m.field.name != "Q")}


def _mul_size(args, out):
    a, b = args[0], args[1]
    return {"cells": a.nrows * a.ncols * b.ncols}


# span name -> (patch target, size function of (args, result) or None)
LAYER_SPANS = {
    "linalg.rref": ("linalg:Matrix.rref", _rref_size),
    "linalg.mul": ("linalg:Matrix.mul", _mul_size),
    "linalg.rowspan.add": ("linalg:RowSpan.add", lambda args, out: {"grew": int(out)}),
    "linalg.rowspan.reduce": ("linalg:RowSpan.reduce", None),
    "dg.d_matrix": ("dg:d_matrix", lambda args, out: {"nnz": _nnz(out.entries)}),
    "dg.verify_dg": ("dg:verify_dg", None),
    "cohomology.cohomology": ("cohomology:cohomology", None),
    "cohomology.class_of": ("cohomology:CohomologyReport.class_of", None),
    "cohomology.class_product": ("cohomology:CohomologyReport.class_product", None),
    "skew.mul": ("skew:GradedElement.mul", None),
    "classify.classify": ("classify:classify", None),
    "classify.crosscheck": ("classify:crosscheck", None),
    "presentations.truncate": ("presentations:truncate", lambda args, out: {"words": sum(out.dims)}),
    "presentations.mul": ("presentations:TruncatedAlgebra.mul", None),
    "resolution.minimal_resolution": (
        "resolution:minimal_resolution",
        lambda args, out: {"generators": sum(len(s.gen_degrees) for s in out.steps)}),
    "resolution.assert_complex": ("resolution:_assert_complex", None),
    "resolution.ext_against_algebra": ("resolution:ext_against_algebra", None),
    "resolution.certificate": ("resolution:gorenstein_certificate", None),
    "transform.apply_transform": ("transform:apply_transform", None),
    "transform.invariance_check": ("transform:invariance_check", None),
}


class SpanRecorder:
    """In-memory spans around the layer functions; records only inside a job."""

    def __init__(self):
        self.spans = []        # [name, start, end, parent index or None, job, size]
        self._stack = []
        self._pending = []     # (span, size function, args, result) until the job ends
        self.job = None
        self._patches = Patches()

    def install(self):
        for name, (target, size) in LAYER_SPANS.items():
            self._patches.replace(target, functools.partial(self._wrap, name, size=size))

    def uninstall(self):
        self._patches.undo()

    def _wrap(self, name, fn, size):
        rec = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if rec.job is None:
                return fn(*args, **kwargs)
            span = [name, 0.0, 0.0, rec._stack[-1] if rec._stack else None, rec.job, None]
            rec._stack.append(len(rec.spans))
            rec.spans.append(span)
            span[1] = perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                span[2] = perf_counter()
                rec._stack.pop()
            if size is not None:
                rec._pending.append((span, size, args, out))
            return out
        return traced

    def begin_job(self, job_id: str):
        self.job = job_id

    def end_job(self):
        self.job = None
        for span, size, args, out in self._pending:
            span[5] = size(args, out)
        self._pending.clear()

    def aggregate(self):
        """Per span name: calls, inclusive seconds, self seconds, summed sizes."""
        child = [0.0] * len(self.spans)
        for s in self.spans:
            if s[3] is not None:
                child[s[3]] += s[2] - s[1]
        agg = defaultdict(lambda: defaultdict(float))
        for i, (name, start, end, _parent, _job, size) in enumerate(self.spans):
            a = agg[name]
            a["calls"] += 1
            a["s"] += end - start
            a["self_s"] += end - start - child[i]
            for key, value in (size or {}).items():
                a[key] += value
            if name == "linalg.rref":
                a["fp_s" if size["fp"] else "q_s"] += end - start
        return agg

    def write(self, path, header):
        t0 = self.spans[0][1] if self.spans else 0.0
        with open(path, "w") as fh:
            json.dump({**header,
                       "columns": ["name", "start_us", "end_us", "parent", "job", "size"],
                       "spans": [[n, round((s - t0) * 1e6), round((e - t0) * 1e6), p, j, z]
                                 for n, s, e, p, j, z in self.spans]}, fh)
            fh.write("\n")


FIELD_METHODS = ("coerce", "add", "sub", "mul", "neg", "inv", "div", "is_zero", "to_str")


class FieldCounter:
    """Counts calls into the scalar methods of every session field."""

    def __init__(self):
        self.calls = 0
        self._patches = Patches()

    def install(self):
        for cls_name in ("Rationals", "PrimeField"):
            for method in FIELD_METHODS:
                self._patches.replace(f"fields:{cls_name}.{method}", self._wrap)

    def uninstall(self):
        self._patches.undo()

    def _wrap(self, fn):
        counter = self

        def counted(*args):
            counter.calls += 1
            return fn(*args)
        return counted


class SizeProbe:
    """Problem sizes of certificate jobs, taken from the pipeline's results."""

    def __init__(self):
        self.sizes = {}
        self._patches = Patches()

    def install(self):
        self._patches.replace("presentations:truncate", self._probe(
            lambda t: {"basis_words": sum(t.dims), "dims": t.dims}))
        self._patches.replace("resolution:minimal_resolution", self._probe(
            lambda r: {"generators": sum(len(s.gen_degrees) for s in r.steps),
                       "betti": [len(s.gen_degrees) for s in r.steps]}))

    def uninstall(self):
        self._patches.undo()

    def _probe(self, size):
        def make(fn):
            @functools.wraps(fn)
            def probed(*args, **kwargs):
                out = fn(*args, **kwargs)
                self.sizes.update(size(out))
                return out
            return probed
        return make
