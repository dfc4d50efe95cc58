"""Record bench/reference.json: the pinned result fields of every job of
every workload at the default seed, at full and at smoke sizes.

    python3 bench/record_reference.py

Re-record only when a change alters results on purpose, and say so in the
change: the benchmark compares these fields bit-exactly.
"""

from __future__ import annotations

import json
import os
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import workloads  # noqa: E402
from worker import import_library  # noqa: E402


def main():
    root = os.path.dirname(HERE)
    cli = import_library(root)
    table = {}
    for key, smoke in (("full", False), ("smoke", True)):
        table[key] = {}
        for name in workloads.WORKLOADS:
            wl = workloads.build(name, workloads.DEFAULT_SEED, smoke)
            jobs = {}
            with tempfile.TemporaryDirectory(dir=root) as out:
                for job in wl.jobs:
                    code = cli.run(job.config, out_dir=out, jobs=wl.threads,
                                   dump_defects=wl.dump)
                    if code != job.exit:
                        raise SystemExit(f"{name}/{job.label}: exit {code}, expected {job.exit}")
                    with open(os.path.join(out, "report.json")) as fh:
                        jobs[job.label] = workloads.pinned(json.load(fh)["result"])
            table[key][name] = jobs
    with open(os.path.join(HERE, "reference.json"), "w") as fh:
        json.dump(table, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
