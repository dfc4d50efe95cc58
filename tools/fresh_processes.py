"""Time fresh library processes and fresh CLI processes on every benchmark
workload, with the minor page faults of each library pass.

A program that imports infostab and a `python -m infostab` process should
sweep alike from their first pass.  For each workload in bench/workloads.py
this script, k times over:

- starts a fresh Python process that imports infostab and runs the
  workload's jobs through infostab.cli.run for several passes, with the
  workload's thread count and dump setting, and records each pass's wall
  time and minor page faults (getrusage ru_minflt);
- runs `python -m infostab` once on each of the workload's job configs and
  records each process's wall time.

The two alternate, so a drift of the machine's speed reaches both alike.
Every exit code is checked against the one the workload expects.  One table
is printed; per workload: the median first pass, the median later pass, the
first pass over the later one, the median faults of the first pass, the
most faults of any later pass, and the CLI round, the sum over the jobs of
each job's median process time.

    python3 tools/fresh_processes.py [--processes 4] [--passes 5] [--seed 1]
                                     [--workload NAME]

infostab is imported from src/ next to this directory, bench/ is only read,
and every report is written to a temporary directory.  The script uses the
standard library alone, and is not part of the test suite.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import tempfile
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC, BENCH = os.path.join(ROOT, "src"), os.path.join(ROOT, "bench")
sys.path.insert(0, BENCH)
sys.dont_write_bytecode = True  # leave bench/ as it is

import workloads  # noqa: E402

# argv: workload name, seed, passes; prints [[seconds, minor faults], ...]
LIBRARY_PROCESS = """
import json, resource, sys, tempfile, time
import workloads
from infostab import cli
wl = workloads.build(sys.argv[1], int(sys.argv[2]))
passes = []
with tempfile.TemporaryDirectory() as out:
    for _ in range(int(sys.argv[3])):
        faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
        t0 = time.perf_counter()
        for job in wl.jobs:
            code = cli.run(job.config, out_dir=out, jobs=wl.threads, dump_defects=wl.dump)
            if code != job.exit:
                sys.exit(f"{job.label}: exit {code}, expected {job.exit}")
        seconds = time.perf_counter() - t0
        passes.append([seconds, resource.getrusage(resource.RUSAGE_SELF).ru_minflt - faults])
print(json.dumps(passes))
"""


def library_process(name, seed, passes, env):
    proc = subprocess.run(
        [sys.executable, "-B", "-c", LIBRARY_PROCESS, name, str(seed), str(passes)],
        env=env, capture_output=True, text=True, timeout=600,
    )
    if proc.returncode:
        sys.exit(f"{name}: library process failed: {proc.stderr.strip()}")
    return json.loads(proc.stdout)


def cli_process(wl, config_path, out_dir, env):
    cmd = [sys.executable, "-m", "infostab", "--config", config_path, "--out", out_dir,
           "--jobs", str(wl.threads)] + (["--dump-defects"] if wl.dump else [])
    t0 = time.perf_counter()
    proc = subprocess.run(cmd, env=env, capture_output=True, text=True, timeout=600)
    return time.perf_counter() - t0, proc


def measure(name, seed, processes, passes, env):
    wl = workloads.build(name, seed)
    library, cli = [], [[] for _ in wl.jobs]
    with tempfile.TemporaryDirectory() as tmp:
        paths = []
        for i, job in enumerate(wl.jobs):
            paths.append(os.path.join(tmp, f"{i:02d}.json"))
            with open(paths[-1], "w") as fh:
                json.dump(job.config, fh)
        for _ in range(processes):
            library.append(library_process(name, seed, passes, env))
            for i, job in enumerate(wl.jobs):
                seconds, proc = cli_process(wl, paths[i], os.path.join(tmp, "out"), env)
                if proc.returncode != job.exit:
                    sys.exit(f"{name} {job.label}: CLI exit {proc.returncode}, "
                             f"expected {job.exit}: {proc.stderr.strip()}")
                cli[i].append(seconds)
    first = statistics.median(run[0][0] for run in library)
    later = statistics.median(s for run in library for s, _ in run[1:])
    return (
        name, first, later, first / later,
        statistics.median(run[0][1] for run in library),
        max(f for run in library for _, f in run[1:]),
        sum(statistics.median(times) for times in cli),
    )


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--processes", type=int, default=4,
                        help="fresh library processes, and CLI runs per job (default 4)")
    parser.add_argument("--passes", type=int, default=5,
                        help="passes per library process, at least 2 (default 5)")
    parser.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    parser.add_argument("--workload", choices=sorted(workloads.WORKLOADS))
    args = parser.parse_args(argv)
    if args.processes < 1 or args.passes < 2:
        parser.error("need --processes >= 1 and --passes >= 2")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([SRC, BENCH]))
    names = [args.workload] if args.workload else list(workloads.WORKLOADS)
    print(f"{args.processes} fresh processes x {args.passes} passes, seed {args.seed}; "
          "medians, except the most faults of any later pass")
    header = ("workload", "first s", "later s", "first/later", "first faults",
              "later faults", "cli round s")
    print("| " + " | ".join(header) + " |")
    print("|" + "---|" * len(header))
    for name in names:
        row = measure(name, args.seed, args.processes, args.passes, env)
        print(f"| {row[0]} | {row[1]:.3f} | {row[2]:.3f} | {row[3]:.2f} | {row[4]:.0f} | "
              f"{row[5]} | {row[6]:.3f} |", flush=True)


if __name__ == "__main__":
    main()
