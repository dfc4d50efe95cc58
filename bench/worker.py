"""One benchmark process: warm up, time closed-loop passes, check outputs.

Started by run.py in a fresh interpreter so that its peak RSS belongs to
the workload alone.  Takes its parameters as one JSON argument and then
serves run.py's commands (see main).

A pass runs the workload's jobs one after another through ``cli.run``,
from the first call's entry to the last report written.  Every job of every
pass is checked: exit code, report bytes equal to the warm-up pass, residual
sample counts equal to their closed forms, and on job_mix report bytes equal
to a jobs=1 run made before timing.  The warm-up pass is also checked
against the reference: bit-exact pinned fields for the default seed,
verdicts for every other seed.  Before timing, every lattice the workload
declares is built once and its node count compared with its closed form.
"""

from __future__ import annotations

import hashlib
import json
import os
import resource
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import tracer as tracing  # noqa: E402
import workloads  # noqa: E402
from workloads import DEFAULT_SEED, lattice_size, pinned, verdicts  # noqa: E402


def import_library(root):
    src = os.path.join(root, "src")
    sys.path.insert(0, src)
    import infostab
    import infostab.cli

    where = os.path.dirname(os.path.abspath(infostab.__file__))
    if os.path.commonpath([where, src]) != src:
        raise ImportError(f"infostab imported from {where}, not from {src}")
    return infostab.cli


class Checker:
    """Counts job executions and failures with their reasons."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.reasons = []

    def job(self, label, problems):
        self.attempted += 1
        if problems:
            self.failed += 1
            if len(self.reasons) < 20:
                self.reasons.append(f"{label}: {'; '.join(problems)}")

    def fail(self, message):
        self.failed += 1
        if len(self.reasons) < 20:
            self.reasons.append(message)


class Runner:
    def __init__(self, cli, wl, out_root, checker):
        self.cli = cli
        self.wl = wl
        self.checker = checker
        self.dirs = []
        for i, job in enumerate(wl.jobs):
            d = os.path.join(out_root, f"{i:02d}-{job.label}")
            os.makedirs(d, exist_ok=True)
            self.dirs.append(d)
        self.baseline = None  # report bytes and dump digests of the warm-up pass
        self.serial = None  # job_mix reports from a jobs=1 run

    def run_pass(self, jobs=None):
        """Run every job once; return (seconds, exit codes or error messages)."""
        threads = self.wl.threads if jobs is None else jobs
        codes = []
        t0 = time.perf_counter()
        for job, d in zip(self.wl.jobs, self.dirs):
            try:
                codes.append(
                    self.cli.run(job.config, out_dir=d, jobs=threads, dump_defects=self.wl.dump)
                )
            except Exception as exc:  # a failing job counts, the loop goes on
                codes.append(f"raised {type(exc).__name__}: {exc}")
        return time.perf_counter() - t0, codes

    def outputs(self):
        out = []
        for d in self.dirs:
            try:
                with open(os.path.join(d, "report.json"), "rb") as fh:
                    report = fh.read()
            except FileNotFoundError:  # the job raised before writing one
                report = None
            dump = None
            path = os.path.join(d, "defects.csv")
            if self.wl.dump and os.path.exists(path):
                with open(path, "rb") as fh:
                    data = fh.read()
                dump = (hashlib.sha256(data).hexdigest(), data.count(b"\n"), len(data))
                # every pass writes a new file: truncating one whose pages are
                # still being written back stalls the next pass by a varying time
                os.unlink(path)
            out.append((report, dump))
        return out

    def check(self, codes, reference=None):
        outputs = self.outputs()
        for i, (job, code, (report, dump)) in enumerate(zip(self.wl.jobs, codes, outputs)):
            if isinstance(code, str) or report is None:
                self.checker.job(job.label, [str(code)])
                continue
            problems = []
            if code != job.exit:
                problems.append(f"exit {code}, expected {job.exit}")
            result = json.loads(report)["result"]
            if job.samples is not None and result.get("samples") != job.samples:
                problems.append(f"samples {result.get('samples')}, closed form {job.samples}")
            if self.baseline is not None and (report, dump) != self.baseline[i]:
                problems.append("outputs differ from the warm-up pass")
            if self.serial is not None and report != self.serial[i]:
                problems.append("report differs from the jobs=1 run")
            if self.wl.dump:
                expected_rows = lattice_size(("triangle", job.config["resolution"], False))
                if dump is None or dump[1] != expected_rows:
                    problems.append(f"defects.csv rows {dump and dump[1]}, closed form "
                                    f"{expected_rows}")
            if reference is not None:
                problems.extend(compare_reference(job, result, reference))
            self.checker.job(job.label, problems)
        return outputs


def compare_reference(job, result, reference):
    ref = reference.get("jobs", {}).get(job.label)
    if ref is None:
        return ["no reference recorded"]
    got = pinned(result)
    if reference["exact"]:
        return [] if got == ref else ["pinned fields differ from the reference"]
    if verdicts(got) != verdicts(ref):
        return [f"verdicts {verdicts(got)}, reference {verdicts(ref)}"]
    return []


def load_reference(wl, seed, smoke):
    with open(os.path.join(HERE, "reference.json")) as fh:
        table = json.load(fh)
    key = "smoke" if smoke else "full"
    jobs = table[key][wl.name]
    return {"exact": seed == DEFAULT_SEED, "jobs": jobs}


def declared_lattices(wl):
    return set().union(*(job.lattices for job in wl.jobs))


def check_lattice_sizes(wl, checker):
    """Build each lattice the workload declares through the library and
    compare its node count with the closed form."""
    from infostab import domains

    grids = {
        "unit": lambda r, closed: domains.UnitGrid(r, closed=closed),
        "triangle": lambda r, closed: domains.TriangleGrid(r, closed=closed),
        "simplex": lambda n, r, closed: domains.SimplexGrid(n, r, closed=closed, budget=10**7),
        "cone": domains.ConeGrid,
        "pair": domains.PairGrid,
    }
    for key in sorted(declared_lattices(wl), key=repr):
        rows = grids[key[0]](*key[1:]).points.shape[0]
        if rows != lattice_size(key):
            checker.fail(f"lattice {key} has {rows} nodes, closed form {lattice_size(key)}")


def check_lattices(wl, events, checker):
    """Compare the lattices a traced pass built with the declared ones."""
    declared = declared_lattices(wl)
    seen = set()
    for key, rows in events:
        seen.add(key)
        if key not in declared:
            checker.fail(f"lattice {key} built but not declared for {wl.name}")
        elif rows != lattice_size(key):
            checker.fail(f"lattice {key} gave {rows} nodes, closed form {lattice_size(key)}")
    for key in sorted(declared - seen, key=repr):
        checker.fail(f"lattice {key} declared but never built")


_CAL_DATA = None


def calibrate():
    """Wall seconds of a fixed piece of numpy and float-formatting work that
    runs none of the program: how fast the host is at this moment."""
    global _CAL_DATA
    import numpy

    if _CAL_DATA is None:
        _CAL_DATA = (numpy.arange(400_000) * 0.6180339887498949) % 1.0
    t0 = time.perf_counter()
    for _ in range(3):
        numpy.sort(_CAL_DATA)
        numpy.power(_CAL_DATA, 0.5)
    ";".join(f"{v:.17g}" for v in _CAL_DATA[:60_000].tolist())
    return time.perf_counter() - t0


def untraced(runner, seconds):
    """Timed passes, at least one, each between two calibrations; a pass
    starts only if one of average length still ends within `seconds`.
    Returns the pass times and, per pass, the mean of its calibrations."""
    times, cal = [], []
    before = calibrate()
    start = time.perf_counter()
    while not times or (time.perf_counter() - start) * (len(times) + 1) / len(times) <= seconds:
        dt, codes = runner.run_pass()
        after = calibrate()
        runner.check(codes)
        times.append(dt)
        cal.append((before + after) / 2)
        before = after
    return times, cal


class TracedRun:
    """Alternates untraced and traced passes and sums per-layer figures."""

    def __init__(self, runner, wl):
        self.tracer = tracing.Tracer()
        self.runner = runner
        self.wl = wl
        self.plain, self.timed = [], []
        self.totals = {}
        self.site_calls = {}

    def passes(self, seconds):
        runner, tr = self.runner, self.tracer
        start = time.perf_counter()
        pairs = 0
        # start a pair of passes only if one of average length still ends in time
        while not pairs or (time.perf_counter() - start) * (pairs + 1) / pairs <= seconds:
            pairs += 1
            dt, codes = runner.run_pass()
            runner.check(codes)
            self.plain.append(dt)

            tr.reset()
            tr.install(tracing.SITES)
            try:
                dt, codes = runner.run_pass()
            finally:
                tr.uninstall()
            runner.check(codes)
            self.timed.append(dt)
            check_lattices(self.wl, tr.lattices, runner.checker)
            layers, extra, counts, calls = tracing.summarize(tr.spans)
            rows = [(f"{name}.{k}", v) for name, row in layers.items() for k, v in row.items()]
            for k, v in rows + list(extra.items()) + list(counts.items()):
                self.totals[k] = self.totals.get(k, 0.0) + v
            for k, v in calls.items():
                self.site_calls[k] = self.site_calls.get(k, 0) + v
            tr.reset()

    def result(self):
        for site in self.wl.must_call:
            if self.site_calls.get(site, 0) == 0:
                self.runner.checker.fail(f"trace site {site} was never called on {self.wl.name}")
        n = len(self.timed)
        return {
            "plain_s": self.plain,
            "traced_s": self.timed,
            "per_pass": {k: v / n for k, v in self.totals.items()},
            "site_calls": {k: v / n for k, v in sorted(self.site_calls.items())},
        }


def reply(obj):
    sys.stdout.write(json.dumps(obj) + "\n")
    sys.stdout.flush()


def main():
    """Warm up and check, then serve commands read from standard input, one
    JSON object a line: {"cmd": "passes" | "traced", "seconds": s} runs
    passes for s seconds, {"cmd": "calibrate"} replies with one calibration
    time, {"cmd": "finish"} replies with the totals."""
    params = json.loads(sys.argv[1])
    cli = import_library(params["root"])
    wl = workloads.build(params["workload"], params["seed"], params["smoke"])
    if params.get("setup_only"):
        return 0
    checker = Checker()
    runner = Runner(cli, wl, params["out"], checker)

    _, codes = runner.run_pass()
    # peak RSS of a fresh process through its first pass, taken before the
    # timed loop so it does not depend on how many passes fit into the run
    first_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    runner.baseline = runner.check(codes, load_reference(wl, params["seed"], params["smoke"]))
    check_lattice_sizes(wl, checker)
    if wl.threads > 1:
        _, codes = runner.run_pass(jobs=1)
        runner.serial = [report for report, _ in runner.check(codes)]
    calibrate()  # the first call allocates its data
    reply({"ready": True})

    traced = None
    for line in sys.stdin:
        cmd = json.loads(line)
        if cmd["cmd"] == "passes":
            times, cal = untraced(runner, cmd["seconds"])
            reply({"pass_s": times, "cal_s": cal})
        elif cmd["cmd"] == "calibrate":
            reply({"cal_s": calibrate()})
        elif cmd["cmd"] == "traced":
            traced = traced or TracedRun(runner, wl)
            traced.passes(cmd["seconds"])
            reply({})
        else:
            result = traced.result() if traced else {}
            result["peak_rss_mb"] = first_rss_mb
            result["dump_bytes"] = sum(dump[2] for _, dump in runner.baseline if dump)
            result["attempted"] = checker.attempted
            result["failed"] = checker.failed
            result["reasons"] = checker.reasons
            reply(result)
            return 0
    return 1


if __name__ == "__main__":
    sys.exit(main())
