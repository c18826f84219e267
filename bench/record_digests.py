#!/usr/bin/env python3
"""Record the output digests that bench/run.py checks for its recorded seeds.

    python3 bench/record_digests.py [workload ...]

Runs one pass of each named workload (default: all) for each seed in SEEDS,
requires every job to pass its own check, and updates bench/digests.json:
workload -> seed -> job name -> digest of the job's JSON output.  A later change to a
representative basis, a witness or any other reported output then fails the
job in the benchmark.  Record only from a commit whose outputs are known to
be right.
"""

from __future__ import annotations

import json
import sys

import reference
import run
import workloads

SEEDS = range(16)


def main():
    sys.path.insert(0, str(run.SRC))
    names = sys.argv[1:] or workloads.WORKLOADS
    unknown = set(names) - set(workloads.WORKLOADS)
    if unknown:
        raise SystemExit(f"unknown workload(s): {', '.join(sorted(unknown))}")
    digests = json.loads(run.DIGESTS.read_text()) if run.DIGESTS.is_file() else {}
    for workload in names:
        digests[workload] = {}
        for seed in SEEDS:
            _, jobs = run.fresh_setup(workload, seed, reference.SpeedProbe())
            runner = run.Runner({})
            records, _ = runner.run_passes(jobs, None)
            failed = [r for r in records if not r["ok"]]
            if failed:
                raise SystemExit(f"{workload} seed {seed}: {failed[0]['id']} failed:\n{failed[0]['error']}")
            digests[workload][str(seed)] = {r["job"]: r["digest"] for r in records}
            print(f"{workload} seed {seed}: {len(records)} digests", flush=True)
    with open(run.DIGESTS, "w") as fh:
        json.dump(digests, fh, indent=1, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    main()
