"""Print the sha256 of every report file the benchmark's job configs write.

Every job config of every workload in bench/workloads.py runs through
infostab.cli.run at smoke and full size, with 1 and 2 worker threads and
with defects.csv dumps on.  One line is printed per report.json,
summary.csv and defects.csv written: its sha256, then the workload, size,
thread count, job index and label, the exit code and the file name.  Two
checkouts that write the same bytes print the same lines, so a change meant
to keep every output byte for byte is checked with a diff of two runs:

    python3 tools/output_digests.py > before.txt    # at the parent commit
    python3 tools/output_digests.py > after.txt     # with the change
    diff before.txt after.txt

infostab is imported from src/ next to this directory, and bench/ is only
read.  The script uses the standard library and infostab alone, and is not
part of the test suite.
"""

from __future__ import annotations

import hashlib
import os
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path[:0] = [os.path.join(ROOT, "src"), os.path.join(ROOT, "bench")]

import workloads  # noqa: E402
from infostab import cli  # noqa: E402

SEED = 3  # not the bench's default seed, so the bench's reference does not mask a change


def digests():
    """Yield one output line per report file, in a fixed order."""
    for name in workloads.WORKLOADS:
        for size, smoke in (("smoke", True), ("full", False)):
            for jobs in (1, 2):
                for i, job in enumerate(workloads.build(name, SEED, smoke).jobs):
                    with tempfile.TemporaryDirectory() as out:
                        code = cli.run(job.config, out_dir=out, jobs=jobs, dump_defects=True)
                        for file in sorted(os.listdir(out)):
                            with open(os.path.join(out, file), "rb") as fh:
                                digest = hashlib.sha256(fh.read()).hexdigest()
                            yield f"{digest}  {name} {size} jobs={jobs} {i}:{job.label} exit={code} {file}"


if __name__ == "__main__":
    for line in digests():
        print(line, flush=True)
