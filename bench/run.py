"""Benchmark of the infostab certificate pipeline.

    python3 bench/run.py --workload triangle_certify --seed 1 --seconds 30 --trace 0
    python3 bench/run.py --workload all --trace 0

Runs one workload (see workloads.py) through the public API in a closed
loop with one client: a pass starts only after the previous one returned.
With ``--trace 0`` it reports the end-to-end metrics, with ``--trace 1`` the
per-layer metrics of a traced run.

The host is a share of a machine whose speed drifts by a quarter and more,
within seconds and over minutes, and most kinds of work slow down together.
So every timed sample (a pass, a set-up, a CLI process) lies between two
runs of a fixed calibration that runs none of the program
(worker.calibrate), and the end-to-end times are reported in reference
seconds: the measured time scaled by REFERENCE_CAL_S over the mean of the
two calibration times.  The cost of starting a process drifts apart from
that, so set-up and CLI samples count the start of a fresh interpreter that
imports numpy (timed on its own, start_calibration) at REFERENCE_START_S
and scale only the rest.  A change to the program moves the figures as it
moves wall time; a change in the host's speed moves them far less.  The
tables print the times as measured too.

Human-readable lines come first; the last line of standard output is one
JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With ``--workload all`` each workload prints its own such line and a last
line sums them, with metric names prefixed by the workload.  The command
exits with code 1 when any output check failed.

``--smoke`` shrinks every lattice so a run takes seconds; bench/test_smoke.py
uses it.  The program is imported from ``src/`` next to this directory; the
command exits with code 2 and prints no result when it is missing.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import workloads  # noqa: E402

SLICE_S = 2.0  # timed passes per segment
REFERENCE_CAL_S = 0.1  # calibration time that makes a reference second
REFERENCE_START_S = 0.3  # interpreter start and numpy import, in reference seconds
MIN_SEGMENTS = 3
CLI_SEGMENTS_PER_ROUND = 3  # a multi-job workload spreads one CLI round over this many segments
WORKER_TIMEOUT_S = 170

# name -> unit, in the order BENCHMARK.json lists them
END_TO_END = {
    "pass_s.p50": "s",
    "points_per_s": "1/s",
    "peak_rss_mb": "MB",
    "setup_s": "s",
    "cli_s": "s",
}
PER_LAYER = {
    "cli.self_s": "s",
    "cli.calls": "count",
    "cli.report_bytes": "bytes",
    "certifiers.self_s": "s",
    "certifiers.calls": "count",
    "equations.calls": "count",
    "equations.samples": "count",
    "equations.sweeps_per_job": "count",
    "equations.dump_bytes": "bytes",
    "measures.calls": "count",
    "measures.rows": "count",
    "models.self_s": "s",
    "models.calls": "count",
    "models.values": "count",
    "models.values_per_point": "ratio",
    "domains.self_s": "s",
    "domains.points": "count",
    "domains.bytes_computed": "bytes",
    "domains.pow0_s": "s",
    "domains.pow0_calls": "count",
    "trace.overhead_ratio": "ratio",
}
# per-layer times that are exactly zero on a workload that bypasses the
# layer; printed with the others but kept out of the JSON result line
PRINTED_ONLY = {
    "equations.self_s": "s",
    "equations.dump_s": "s",
    "measures.self_s": "s",
}


def machine_context():
    info = {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": None,
        "cpu_model": None,
        "l2": None,
        "l3": None,
    }
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    info["cpu_model"] = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    for index in range(8):
        base = f"/sys/devices/system/cpu/cpu0/cache/index{index}"
        try:
            with open(f"{base}/level") as fh:
                level = fh.read().strip()
            with open(f"{base}/size") as fh:
                size = fh.read().strip()
        except OSError:
            continue
        if level in ("2", "3"):
            info[f"l{level}"] = size
    try:
        import numpy

        info["numpy"] = numpy.__version__
    except ImportError:
        pass
    info["note"] = (
        "largest lattice (R=2048 triangle, ~33 MB of points) fits in L3; "
        "no bandwidth or roofline claim is made; domains.bytes_computed "
        "counts bytes of point arrays computed, not bytes moved"
    )
    return info


def normalize(seconds, cal):
    """Measured seconds in reference seconds, sample by sample."""
    return [t * REFERENCE_CAL_S / c for t, c in zip(seconds, cal)]


def normalize_process(seconds, cal, start):
    """Measured seconds of whole processes in reference seconds: the part a
    bare interpreter importing numpy takes (the run's median `start`) counts
    REFERENCE_START_S, the rest is scaled like a pass."""
    bare = statistics.median(start)
    return [REFERENCE_START_S + (t - bare) * REFERENCE_CAL_S / c for t, c in zip(seconds, cal)]


def start_calibration():
    """Wall seconds for a fresh interpreter to import numpy and exit: how
    fast the host starts a process, with none of the program."""
    t0 = time.perf_counter()
    subprocess.run([sys.executable, "-c", "import numpy"], cwd=ROOT, check=True,
                   capture_output=True, timeout=60)
    return time.perf_counter() - t0


def quartile_spread(values):
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


class Worker:
    """worker.py in a fresh interpreter, driven one JSON command a line."""

    def __init__(self, params, log_path):
        cmd = [sys.executable, os.path.join(HERE, "worker.py"), json.dumps(params)]
        self.log = open(log_path, "w+")
        self.proc = subprocess.Popen(cmd, cwd=ROOT, stdin=subprocess.PIPE,
                                     stdout=subprocess.PIPE, stderr=self.log, text=True)
        self.watchdog = threading.Timer(WORKER_TIMEOUT_S, self.proc.kill)
        self.watchdog.start()
        self._read()  # the worker is warm and its first pass checked

    def _read(self):
        line = self.proc.stdout.readline()
        if not line:
            self.proc.wait()
            self.log.seek(0)
            raise RuntimeError(f"worker exited {self.proc.returncode}: "
                               f"{self.log.read().strip()[-2000:]}")
        return json.loads(line)

    def call(self, cmd, **args):
        self.proc.stdin.write(json.dumps(dict(args, cmd=cmd)) + "\n")
        self.proc.stdin.flush()
        return self._read()

    def close(self):
        self.watchdog.cancel()
        if self.proc.poll() is None:
            self.proc.kill()
        self.proc.wait()
        self.log.close()


def setup_probe(base):
    """Wall seconds for a fresh interpreter to import infostab and build the
    workload's configs."""
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), json.dumps(dict(base, setup_only=True))]
    t0 = time.perf_counter()
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=60)
    wall = time.perf_counter() - t0
    if proc.returncode != 0:
        raise RuntimeError(f"setup probe exited {proc.returncode}: {proc.stderr[-2000:]}")
    return wall


def _read(path):
    try:
        with open(path, "rb") as fh:
            return fh.read()
    except FileNotFoundError:
        return None


class CliProbe:
    """Runs the workload's jobs through `python -m infostab`, round robin,
    and compares each report to the in-process one."""

    def __init__(self, wl, out_dir, worker_dirs, calibrate):
        self.wl = wl
        self.calibrate = calibrate
        self.out_dir = out_dir
        self.worker_dirs = worker_dirs
        self.env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
        self.times = [[] for _ in wl.jobs]
        self.cal = [[] for _ in wl.jobs]
        self.next = 0
        self.attempted = 0
        self.problems = []
        for i, job in enumerate(wl.jobs):
            with open(os.path.join(out_dir, f"{i:02d}.json"), "w") as fh:
                json.dump(job.config, fh)

    def step(self, count):
        for _ in range(count):
            i = self.next
            self.next = (i + 1) % len(self.wl.jobs)
            self._one(i)

    def fill(self):
        """Give every job at least one sample."""
        for i, samples in enumerate(self.times):
            if not samples:
                self._one(i)

    def _one(self, i):
        job = self.wl.jobs[i]
        d = os.path.join(self.out_dir, f"cli-{i:02d}")
        os.makedirs(d, exist_ok=True)
        cmd = [sys.executable, "-m", "infostab", "--config",
               os.path.join(self.out_dir, f"{i:02d}.json"), "--out", d,
               "--jobs", str(self.wl.threads)]
        if self.wl.dump:
            cmd.append("--dump-defects")
        before = self.calibrate()
        t0 = time.perf_counter()
        proc = subprocess.run(cmd, cwd=ROOT, env=self.env, capture_output=True, timeout=120)
        self.times[i].append(time.perf_counter() - t0)
        self.cal[i].append((before + self.calibrate()) / 2)
        if self.wl.dump and os.path.exists(os.path.join(d, "defects.csv")):
            os.unlink(os.path.join(d, "defects.csv"))  # as in worker.py: a new file each run
        self.attempted += 1
        if proc.returncode != job.exit:
            self.problems.append(f"cli {job.label}: exit {proc.returncode}, expected {job.exit}")
        elif _read(os.path.join(d, "report.json")) != _read(
            os.path.join(self.worker_dirs[i], "report.json")
        ):
            self.problems.append(f"cli {job.label}: report differs from the in-process run")

    def seconds(self, start=None):
        """Time of one CLI round of the workload: the sum over its jobs of
        each job's median process time, in reference seconds given the run's
        start calibrations, else as measured."""
        if start is None:
            return sum(statistics.median(t) for t in self.times)
        return sum(statistics.median(normalize_process(t, c, start))
                   for t, c in zip(self.times, self.cal))


def interleaved(args, wl, base, out_dir, worker):
    """Segments of timed passes, each followed by one set-up probe and a few
    CLI processes, until --seconds have passed, so every end-to-end metric
    samples the same stretch of the machine's time."""
    worker_dirs = [os.path.join(base["out"], f"{i:02d}-{job.label}")
                   for i, job in enumerate(wl.jobs)]

    def calibrate():
        return worker.call("calibrate")["cal_s"]

    cli = CliProbe(wl, out_dir, worker_dirs, calibrate)
    cli_per_segment = math.ceil(len(wl.jobs) / CLI_SEGMENTS_PER_ROUND)
    passes, pass_cal, setup, setup_cal, start_cal = [], [], [], [], []
    least = 1 if args.smoke else MIN_SEGMENTS
    slice_s = min(SLICE_S, args.seconds / least)
    start = time.perf_counter()
    segments = 0
    # start a segment only if one of average length still ends in time
    while segments < least or (time.perf_counter() - start) * (segments + 1) / segments <= args.seconds:
        got = worker.call("passes", seconds=slice_s)
        passes += got["pass_s"]
        pass_cal += got["cal_s"]
        start_cal.append(start_calibration())
        before = calibrate()
        setup.append(setup_probe(base))
        setup_cal.append((before + calibrate()) / 2)
        cli.step(cli_per_segment)
        segments += 1
    cli.fill()
    res = worker.call("finish")
    res["pass_s"], res["pass_cal_s"], res["start_cal_s"] = passes, pass_cal, start_cal
    return res, (setup, setup_cal), cli


def layer_metrics(res, wl):
    per = res["per_pass"]
    plain = statistics.median(res["plain_s"])
    traced = statistics.median(res["traced_s"])
    points = wl.points_per_pass
    values = {
        "cli.self_s": per["cli.self_s"],
        "cli.calls": per["cli.calls"],
        "cli.report_bytes": per.get("cli.report_bytes", 0.0),
        "certifiers.self_s": per["certifiers.self_s"],
        "certifiers.calls": per["certifiers.calls"],
        "equations.calls": per["equations.calls"],
        "equations.samples": per.get("equations.samples", 0.0),
        "equations.sweeps_per_job": per["equations.calls"] / len(wl.jobs),
        "equations.dump_bytes": per.get("equations.dump_bytes", 0.0),
        "measures.calls": per["measures.calls"],
        "measures.rows": per.get("measures.rows", 0.0),
        "models.self_s": per["models.self_s"],
        "models.calls": per["models.calls"],
        "models.values": per.get("models.values", 0.0),
        "models.values_per_point": per.get("models.values", 0.0) / points,
        "domains.self_s": per["domains.self_s"],
        "domains.points": per.get("domains.points", 0.0),
        "domains.bytes_computed": per.get("domains.bytes", 0.0),
        "domains.pow0_s": per["pow0_s"],
        "domains.pow0_calls": per["pow0_calls"],
        "trace.overhead_ratio": traced / plain,
        "equations.self_s": per["equations.self_s"],
        "equations.dump_s": per["dump_s"],
        "measures.self_s": per["measures.self_s"],
    }
    self_sum = sum(per[f"{name}.self_s"] for name in ("cli", "certifiers", "equations",
                                                      "measures", "models", "domains"))
    return values, self_sum, per["root_s"]


def print_table(title, rows):
    print(title)
    for name, value, unit in rows:
        print(f"  {name:<28} {value:>16.6g} {unit}")


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS) + ["all"],
                    help="one workload, or all of them one after another")
    ap.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true", help="tiny lattices, for tests")
    args = ap.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "infostab", "__init__.py")):
        print(f"error: no infostab sources under {os.path.join(ROOT, 'src')}", file=sys.stderr)
        return 2
    print(json.dumps({"machine": machine_context()}))
    names = list(workloads.WORKLOADS) if args.workload == "all" else [args.workload]
    results = {}
    for name in names:
        result = run_workload(args, name)
        if result is None:
            return 2
        print(json.dumps(result))
        results[name] = result
    if len(names) > 1:
        # one line over all workloads, metric names prefixed with the workload
        print(json.dumps({
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{name}/{k}": v for name, r in results.items()
                        for k, v in r["metrics"].items()},
        }))
    return 0 if all(r["correct"] for r in results.values()) else 1


def run_workload(args, name):
    """Run one workload and print its tables; return its result object, or
    None when the benchmark itself could not run."""
    wl = workloads.build(name, args.seed, args.smoke)
    out_dir = os.path.join(ROOT, ".bench_out", f"run-{os.getpid()}")
    os.makedirs(out_dir, exist_ok=True)
    base = {"root": ROOT, "workload": wl.name, "seed": args.seed, "smoke": args.smoke,
            "out": os.path.join(out_dir, "worker")}
    try:
        return report(args, wl, base, out_dir)
    except (RuntimeError, subprocess.TimeoutExpired, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return None
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(out_dir))
        except OSError:
            pass


def report(args, wl, base, out_dir):
    print(f"workload {wl.name}: {len(wl.jobs)} job(s) per pass, jobs={wl.threads}, "
          f"{wl.points_per_pass} lattice points per pass (closed form)")
    print(f"  why: {wl.why}")
    worker = Worker(base, os.path.join(out_dir, "worker.log"))
    try:
        if args.trace:
            worker.call("traced", seconds=args.seconds)
            res = worker.call("finish")
        else:
            res, setup, cli = interleaved(args, wl, base, out_dir, worker)
    finally:
        worker.close()
    attempted, failed = res["attempted"], res["failed"]
    problems = res["reasons"]

    if args.trace:
        values, self_sum, root = layer_metrics(res, wl)
        n = len(res["traced_s"])
        print_table(f"per-layer metrics, mean per traced pass over {n} passes",
                    [(k, values[k], u) for k, u in {**PER_LAYER, **PRINTED_ONLY}.items()])
        print(f"  self times sum to {self_sum:.6f} s of {root:.6f} s traced pass time "
              f"(ratio {self_sum / root:.6f})")
        for site, calls in res["site_calls"].items():
            print(f"  site {site:<42} {calls:>10.1f} calls/pass")
        metrics = {k: {"value": values[k], "unit": u} for k, u in PER_LAYER.items()}
    else:
        attempted += cli.attempted
        failed += len(cli.problems)
        problems += cli.problems
        passes = normalize(res["pass_s"], res["pass_cal_s"])
        p50 = statistics.median(passes)
        values = {
            "pass_s.p50": p50,
            "points_per_s": wl.points_per_pass / p50,
            "peak_rss_mb": res["peak_rss_mb"],
            "setup_s": statistics.median(normalize_process(*setup, res["start_cal_s"])),
            "cli_s": cli.seconds(res["start_cal_s"]),
        }
        rows = [(k, values[k], u) for k, u in END_TO_END.items()]
        if len(passes) >= 100:
            rows.append(("pass_s.p90", statistics.quantiles(passes, n=10)[-1], "s"))
        if wl.dump:
            rows.append(("dump_mb_per_s", res["dump_bytes"] / 1e6 / p50, "MB/s"))
        rows.append(("error_rate", failed / attempted, "ratio"))
        print_table(f"end-to-end metrics in reference seconds ({len(passes)} timed passes, "
                    f"{len(setup[0])} setups, {sum(map(len, cli.times))} cli processes)", rows)
        print(f"  pass_s quartile spread {quartile_spread(passes):.4f} of the median")
        cal = res["pass_cal_s"] + setup[1] + [c for job in cli.cal for c in job]
        print_table("as measured, wall seconds", [
            ("calibration_s.p50", statistics.median(cal), "s"),
            ("start_calibration_s.p50", statistics.median(res["start_cal_s"]), "s"),
            ("pass_s.p50", statistics.median(res["pass_s"]), "s"),
            ("setup_s", statistics.median(setup[0]), "s"),
            ("cli_s", cli.seconds(), "s"),
        ])
        print(f"  calibration quartile spread {quartile_spread(cal):.4f} of the median")
        metrics = {k: {"value": values[k], "unit": u} for k, u in END_TO_END.items()}

    for reason in problems:
        print(f"FAILED {reason}")
    return {"correct": failed == 0, "attempted": attempted, "failed": failed,
            "metrics": metrics}


if __name__ == "__main__":
    sys.exit(main())
