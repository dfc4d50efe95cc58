"""Print every src/ statement that the benchmark's jobs and the demos leave unrun.

Two passes run in this process under one line tracer, installed with
sys.settrace and, for the sweeps' worker threads, threading.settrace.  It
records each line of src/infostab that runs:

1. every job config of every workload in bench/workloads.py at smoke size,
   through infostab.cli.run with 1 and 2 worker threads and defects.csv
   dumps on, then the 7 demos under demos/;
2. the tier-1 test suite, tests/, through pytest in this process.

Then one line is printed for each src/ statement the first pass leaves
unrun, in file and line order, followed by the counts:

    src/infostab/cli.py:123: run only by tests: <the statement's first line>
    src/infostab/cli.py:130: unrun by both passes: <...>

A statement counts as run when any line of its own code runs: a compound
statement's header, not its body, and a multi-line statement's any line.
Statements without code of their own, such as `try:` and docstrings, are not
listed.  So the first kind of line names code that only tests reach, and the
second code that nothing runs.  Run it from any directory:

    python3 tools/line_trace.py > unrun.txt

infostab is imported from src/ next to this directory and bench/ is only
read.  Reports, demo output, pytest's temporary folders and hypothesis'
database go to a temporary directory, and no bytecode is written, so the
tree is left as it was.  The script uses the standard library and infostab,
plus pytest for the second pass, and is not part of the test suite.  Under
the tracer tier-1 takes about 1.5 times as long as without it.
"""

from __future__ import annotations

import ast
import contextlib
import io
import os
import runpy
import sys
import tempfile
import threading

sys.dont_write_bytecode = True
ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src", "infostab")
sys.path[:0] = [os.path.join(ROOT, "src"), os.path.join(ROOT, "bench")]

FILES = sorted(os.path.join(SRC, name) for name in os.listdir(SRC) if name.endswith(".py"))
TRACED = frozenset(FILES)


class LineTracer:
    """Records (file, line) of every src/ line run while it is installed."""

    def __init__(self):
        self.hits = set()

    def _global(self, frame, event, arg):
        # called on every function entry; only src/ frames get the line tracer
        return self._local if frame.f_code.co_filename in TRACED else None

    def _local(self, frame, event, arg):
        if event == "line":
            self.hits.add((frame.f_code.co_filename, frame.f_lineno))
        return self._local

    @contextlib.contextmanager
    def installed(self):
        sys.settrace(self._global)
        threading.settrace(self._global)
        try:
            yield self.hits
        finally:
            sys.settrace(None)
            threading.settrace(None)


def bench_and_demos(scratch):
    """Pass 1: every smoke-size bench job config, then every demo."""
    import workloads
    from infostab import cli

    for name in workloads.WORKLOADS:
        for jobs in (1, 2):
            for job in workloads.build(name, workloads.DEFAULT_SEED, True).jobs:
                with tempfile.TemporaryDirectory(dir=scratch) as out:
                    cli.run(job.config, out_dir=out, jobs=jobs, dump_defects=True)
    demos = os.path.join(ROOT, "demos")
    for name in sorted(os.listdir(demos)):
        if name.endswith(".py"):
            with contextlib.redirect_stdout(io.StringIO()):
                runpy.run_path(os.path.join(demos, name), run_name="__main__")


def tier1(scratch):
    """Pass 2: the tier-1 suite, run from the scratch directory."""
    import pytest

    os.chdir(scratch)
    with contextlib.redirect_stdout(sys.stderr):  # stdout carries only the listing
        code = pytest.main([
            "-q", "-p", "no:cacheprovider", "--continue-on-collection-errors",
            f"--rootdir={ROOT}", "-c", os.path.join(ROOT, "pyproject.toml"),
            f"--basetemp={os.path.join(scratch, 'pytest')}", os.path.join(ROOT, "tests"),
        ])
    if code not in (0, 1):
        raise SystemExit(f"pytest exited {code}")


def statements(path):
    """(line, header lines) of each statement of a file that has code of its
    own; header lines are the lines of that code."""
    with open(path) as fh:
        text = fh.read()
    code_lines, stack = set(), [compile(text, path, "exec")]
    while stack:
        co = stack.pop()
        code_lines.update(line for _, _, line in co.co_lines() if line is not None)
        stack.extend(c for c in co.co_consts if hasattr(c, "co_lines"))
    out = []
    for node in ast.walk(ast.parse(text)):
        if not isinstance(node, ast.stmt):
            continue
        if isinstance(node, ast.Expr) and isinstance(node.value, ast.Constant) \
                and isinstance(node.value.value, str):
            continue
        first = min([node.lineno] + [d.lineno for d in getattr(node, "decorator_list", [])])
        body = getattr(node, "body", None)
        last = body[0].lineno - 1 if body else node.end_lineno
        lines = code_lines.intersection(range(first, max(first, last) + 1))
        if lines:
            out.append((node.lineno, lines))
    return sorted(out, key=lambda s: s[0])


def main():
    tracer_bench, tracer_tests = LineTracer(), LineTracer()
    cwd = os.getcwd()
    with tempfile.TemporaryDirectory() as scratch:
        tempfile.tempdir = scratch  # the demos' mkdtemp lands here too
        try:
            with tracer_bench.installed():
                bench_and_demos(scratch)
            with tracer_tests.installed():
                tier1(scratch)
        finally:
            tempfile.tempdir = None
            os.chdir(cwd)
    counts = {"run only by tests": 0, "unrun by both passes": 0}
    total = 0
    for path in FILES:
        with open(path) as fh:
            source = fh.read().splitlines()
        for line, lines in statements(path):
            total += 1
            if any((path, n) in tracer_bench.hits for n in lines):
                continue
            tested = any((path, n) in tracer_tests.hits for n in lines)
            what = "run only by tests" if tested else "unrun by both passes"
            counts[what] += 1
            where = os.path.relpath(path, ROOT)
            print(f"{where}:{line}: {what}: {source[line - 1].strip()}")
    print(f"{total} statements: {counts['run only by tests']} run only by tests, "
          f"{counts['unrun by both passes']} unrun by both passes")


if __name__ == "__main__":
    main()
