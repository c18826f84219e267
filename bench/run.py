#!/usr/bin/env python3
"""The dgskew benchmark: seeded, closed-loop job streams over the engine's
public entry points, with an output check on every job.

    python3 bench/run.py --workload cohomology-deep --seed 0 --seconds 30 --trace 0

Run it from the root of a source checkout; `dgskew` is imported from
`src/`, nothing needs installing.  One client in one process, no threads:
the next job starts when the previous one has returned and been checked.
The job list of a workload is fixed by the seed, and the run repeats whole
passes over it for about `--seconds` seconds (at least one pass).

`--trace 0` reports the end-to-end metrics, times in reference seconds
(wall seconds scaled to a fixed machine speed, see reference.py; the raw
wall-clock figures are printed next to them):
  jobs_per_s   correct jobs per second of job time (1 / mean job seconds)
  job_s_p50    median seconds of a correct job
  setup_s      median of five fresh set-ups: a clean `import dgskew` (with
               its bytecode cached) plus building the job list from the seed
  peak_rss_mb  peak resident memory of the process
  ok_frac      jobs that returned and passed their check, over jobs
               attempted (1 - failed_frac; failed_frac itself is printed)

`--trace 1` runs every job of the list twice, untraced and then with spans
around every layer function (see tracing.py), then one more pass counting
field calls, and reports the per-layer metrics of the traced runs: `.s` is
the inclusive wall time of a function's calls, `.self_s` the part not
covered by a traced callee, and sizes and counts are summed over the list.
The tracing overhead compares the traced and untraced runs in reference
seconds.  `--seconds` does not apply to it.  Spans go to
`bench/out/<workload>-seed<seed>-spans.json`.

Every run writes its per-job records (time, problem size, field, check
outcome) and environment to `bench/out/`.  The last line of standard output
is the JSON result.  Exit status 2 when the sources are missing or the
arguments are bad.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import platform
import resource
import statistics
import sys
import traceback
from pathlib import Path
from time import perf_counter

import reference
import tracing
import workloads

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"
DIGESTS = BENCH / "digests.json"
SETUP_REPEATS = 5


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seconds <= 0:
        ap.error("--seconds must be positive")
    return args


def fresh_setup(workload: str, seed: int, speed):
    """Import dgskew from scratch and build the job list; returns the set-up
    time in reference seconds and the jobs."""
    for name in list(tracing.dgskew_modules()):
        del sys.modules[name]
    speed.sample()
    t0 = perf_counter()
    dg = importlib.import_module("dgskew")
    jobs = workloads.JOB_LISTS[workload](dg, seed)
    t1 = perf_counter()
    speed.sample()
    if Path(dg.__file__).resolve().parent != SRC / "dgskew":
        raise SystemExit(f"error: imported dgskew from {dg.__file__}, not from {SRC}")
    return (t1 - t0) * speed.scale(t0, t1), jobs


class Runner:
    """Runs jobs one at a time, checks each output, keeps one record per job."""

    def __init__(self, digests):
        self.digests = digests          # job name -> recorded digest, or {}
        self.probe = tracing.SizeProbe()
        self.speed = reference.SpeedProbe()
        self.recorder = None
        self.records = []

    def run_job(self, job, pass_no):
        self.probe.sizes = {}
        self.speed.sample_if_due()
        job_id = f"{pass_no}:{job.name}"
        if self.recorder is not None:
            self.recorder.begin_job(job_id)
        error, out = None, None
        t0 = perf_counter()
        try:
            out = job.run()
        except Exception:
            error = traceback.format_exc(limit=4)
        t1 = perf_counter()
        if self.recorder is not None:
            self.recorder.end_job()
        record = {"job": job.name, "id": job_id, "kind": job.kind, "field": job.field,
                  "start": t0, "seconds": t1 - t0, "ok": False, "error": error}
        if error is None:
            try:
                record["digest"] = workloads.digest(job.check(out))
                want = self.digests.get(job.name)
                if want is not None and want != record["digest"]:
                    raise workloads.CheckFailed(
                        f"output digest {record['digest']} differs from the recorded {want}")
                record["size"] = {**job.size, **self.probe.sizes,
                                  **(job.sizer(out) if job.sizer else {})}
                record["ok"] = True
            except Exception:
                record["error"] = traceback.format_exc(limit=4)
        self.records.append(record)
        return record

    def finish(self):
        """Close the speed record and convert every job to reference seconds."""
        self.speed.sample()
        for r in self.records:
            r["ref_seconds"] = r["seconds"] * self.speed.scale(r["start"], r["start"] + r["seconds"])

    def run_passes(self, jobs, seconds):
        """Whole passes until about `seconds` have gone (None: one pass)."""
        first = len(self.records)
        t0 = perf_counter()
        passes = 0
        while True:
            for job in jobs:
                self.run_job(job, passes)
            passes += 1
            elapsed = perf_counter() - t0
            if seconds is None or elapsed + elapsed / passes / 2 >= seconds:
                return self.records[first:], passes


def percentile_with_tail(values, min_beyond=10):
    """The highest of p90/p95/p99 with at least `min_beyond` samples above it."""
    n = len(values)
    for p in (99, 95, 90):
        if n * (100 - p) / 100 >= min_beyond:
            return p, statistics.quantiles(values, n=100)[p - 1]
    return None, None


def end_to_end(records, setup_times):
    ok = [r for r in records if r["ok"]]
    times = [r["ref_seconds"] for r in ok] or [r["ref_seconds"] for r in records]
    return {
        "jobs_per_s": (len(ok) / sum(r["ref_seconds"] for r in records), "1/s"),
        "job_s_p50": (statistics.median(times), "s"),
        "setup_s": (statistics.median(setup_times), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        "ok_frac": (len(ok) / len(records), "frac"),
    }


def per_layer(agg, field_calls, untraced_s, traced_s):
    def a(name):
        return agg[name] if name in agg else {}

    def v(name, key):
        return a(name).get(key, 0.0)

    rref_cells = v("linalg.rref", "cells")
    adds = v("linalg.rowspan.add", "calls")
    return {
        "linalg.rref.s": (v("linalg.rref", "s"), "s"),
        "linalg.rref.calls": (int(v("linalg.rref", "calls")), "count"),
        "linalg.rref.cells": (int(rref_cells), "count"),
        "linalg.rref.nnz": (int(v("linalg.rref", "nnz")), "count"),
        "linalg.rref.density": (v("linalg.rref", "nnz") / rref_cells if rref_cells else 0.0, "ratio"),
        "linalg.rref.q_s": (v("linalg.rref", "q_s"), "s"),
        "linalg.rref.fp_s": (v("linalg.rref", "fp_s"), "s"),
        "linalg.mul.s": (v("linalg.mul", "s"), "s"),
        "linalg.mul.cells": (int(v("linalg.mul", "cells")), "count"),
        "linalg.rowspan.add.s": (v("linalg.rowspan.add", "s"), "s"),
        "linalg.rowspan.add.calls": (int(adds), "count"),
        "linalg.rowspan.add.grew_frac": (v("linalg.rowspan.add", "grew") / adds if adds else 0.0, "ratio"),
        "linalg.rowspan.reduce.s": (v("linalg.rowspan.reduce", "s"), "s"),
        "fields.calls": (field_calls, "count"),
        "dg.d_matrix.s": (v("dg.d_matrix", "s"), "s"),
        "dg.d_matrix.nnz": (int(v("dg.d_matrix", "nnz")), "count"),
        "dg.verify_dg.s": (v("dg.verify_dg", "s"), "s"),
        "cohomology.cohomology.self_s": (v("cohomology.cohomology", "self_s"), "s"),
        "cohomology.class_of.s": (v("cohomology.class_of", "s"), "s"),
        "cohomology.class_product.s": (v("cohomology.class_product", "s"), "s"),
        "skew.mul.s": (v("skew.mul", "s"), "s"),
        "classify.crosscheck.self_s": (v("classify.crosscheck", "self_s"), "s"),
        "presentations.truncate.s": (v("presentations.truncate", "s"), "s"),
        "presentations.truncate.words": (int(v("presentations.truncate", "words")), "count"),
        "presentations.mul.s": (v("presentations.mul", "s"), "s"),
        "presentations.mul.calls": (int(v("presentations.mul", "calls")), "count"),
        "resolution.minimal_resolution.self_s": (v("resolution.minimal_resolution", "self_s"), "s"),
        "resolution.assert_complex.s": (v("resolution.assert_complex", "s"), "s"),
        "resolution.generators": (int(v("resolution.minimal_resolution", "generators")), "count"),
        "resolution.ext_against_algebra.s": (v("resolution.ext_against_algebra", "s"), "s"),
        "resolution.certificate.self_s": (v("resolution.certificate", "self_s"), "s"),
        "transform.invariance_check.self_s": (v("transform.invariance_check", "self_s"), "s"),
        "trace.overhead_s": (traced_s - untraced_s, "s"),
        "trace.overhead_frac": ((traced_s - untraced_s) / untraced_s, "ratio"),
    }


def environment(records):
    return {"python": platform.python_version(), "implementation": platform.python_implementation(),
            "machine": platform.machine(), "nproc": os.cpu_count(),
            "usable_cpus": len(os.sched_getaffinity(0)),
            "fields": sorted({r["field"] for r in records})}


def print_jobs(records):
    by_job = {}
    for r in records:
        by_job.setdefault(r["job"], []).append(r)
    print(f"{'job':<34} {'field':<13} {'n':>3} {'ref s':>8} {'wall s':>8}  size")
    for name, rs in by_job.items():
        size = next((r["size"] for r in rs if r.get("size")), {})
        shown = {k: v for k, v in size.items() if k not in ("matrix", "transform", "dims", "presentation")}
        print(f"{name:<34} {rs[0]['field']:<13} {len(rs):>3} "
              f"{statistics.median(r['ref_seconds'] for r in rs):>8.4f} "
              f"{statistics.median(r['seconds'] for r in rs):>8.4f}  {json.dumps(shown)}")
    for r in records:
        if not r["ok"]:
            print(f"FAILED {r['id']}:\n{r['error']}")


def print_layers(agg, total):
    print(f"{'span':<34} {'calls':>8} {'incl s':>9} {'self s':>9} {'self %':>7}")
    for name, a in sorted(agg.items(), key=lambda kv: -kv[1]["self_s"]):
        print(f"{name:<34} {int(a['calls']):>8} {a['s']:>9.4f} {a['self_s']:>9.4f} "
              f"{100 * a['self_s'] / total:>6.1f}%")


def main(argv=None):
    args = parse_args(argv)
    if not (SRC / "dgskew" / "__init__.py").is_file():
        print(f"error: no dgskew sources at {SRC / 'dgskew'}; run from a source checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    # measure warm imports, as an installed package has its bytecode cached
    sys.dont_write_bytecode = False
    setup_speed = reference.SpeedProbe()
    setup_times = []
    for _ in range(SETUP_REPEATS):
        seconds, jobs = fresh_setup(args.workload, args.seed, setup_speed)
        setup_times.append(seconds)

    digests = {}
    if DIGESTS.is_file():
        digests = json.loads(DIGESTS.read_text()).get(args.workload, {}).get(str(args.seed), {})
    runner = Runner(digests)
    runner.probe.install()
    OUT.mkdir(exist_ok=True)
    stem = OUT / f"{args.workload}-seed{args.seed}"
    print(f"workload {args.workload}, seed {args.seed}, {len(jobs)} jobs per pass, "
          f"closed loop, 1 client; digests {'checked' if digests else 'not recorded for this seed'}")

    if args.trace == 0:
        records, passes = runner.run_passes(jobs, args.seconds)
        runner.finish()
        metrics = end_to_end(records, setup_times)
        wall = [r["seconds"] for r in records]
        print(f"wall clock: {len(wall) / sum(wall):.4f} jobs/s, median job {statistics.median(wall):.4f} s; "
              f"reference kernel median {statistics.median(runner.speed.seconds):.4f} s "
              f"against {reference.REF_SECONDS} s")
    else:
        # each job runs untraced and then traced, back to back, so that a
        # drift in machine speed does not pass for tracing overhead
        recorder = tracing.SpanRecorder()
        pairs = []
        for job in jobs:
            untraced = runner.run_job(job, 0)
            recorder.install()
            runner.recorder = recorder
            pairs.append((untraced, runner.run_job(job, 1)))
            runner.recorder = None
            recorder.uninstall()
        counter = tracing.FieldCounter()
        counter.install()
        runner.run_passes(jobs, None)
        counter.uninstall()
        runner.finish()
        records, passes = runner.records, 3
        untraced_s = sum(u["ref_seconds"] for u, _ in pairs)
        traced_s = sum(t["ref_seconds"] for _, t in pairs)
        agg = recorder.aggregate()
        metrics = per_layer(agg, counter.calls, untraced_s, traced_s)
        recorder.write(f"{stem}-spans.json", {"workload": args.workload, "seed": args.seed})
        print(f"traced jobs {traced_s:.3f} ref s against untraced {untraced_s:.3f} ref s; "
              f"{len(recorder.spans)} spans; {counter.calls} field calls; span times in wall seconds")
        print_layers(agg, sum(t["seconds"] for _, t in pairs))
    runner.probe.uninstall()

    failed = sum(not r["ok"] for r in records)
    print_jobs(records)
    times = [r["ref_seconds"] for r in records if r["ok"]]
    tail, tail_s = percentile_with_tail(times)
    print(f"{len(records)} jobs in {passes} passes, failed_frac {failed / len(records):.4f}, "
          f"median job {statistics.median(times) if times else float('nan'):.4f} ref s over {len(times)} samples"
          + (f", p{tail} {tail_s:.4f} ref s" if tail else ""))
    for name, (value, unit) in metrics.items():
        print(f"{name:<38} {value:>14.6g} {unit}")

    env = environment(records)
    with open(f"{stem}-trace{args.trace}.json", "w") as fh:
        json.dump({"workload": args.workload, "seed": args.seed, "trace": args.trace,
                   "env": env, "setup_s": setup_times, "passes": passes,
                   "speed_samples": list(zip(runner.speed.starts, runner.speed.seconds)),
                   "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
                   "records": records}, fh, indent=1)
        fh.write("\n")
    print(json.dumps({"correct": failed == 0, "attempted": len(records), "failed": failed,
                      "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
