"""The benchmark tracer's sites must name attributes the library still has,
and the bench worker must build every lattice it declares."""

import importlib
import importlib.util
import sys
from pathlib import Path

import pytest

from infostab import domains

BENCH = Path(__file__).resolve().parents[1] / "bench"
TRACER_PATH = BENCH / "tracer.py"


def load_tracer():
    spec = importlib.util.spec_from_file_location("bench_tracer", TRACER_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def resolve(site):
    """(owner, attribute name) of a site, looked up as Tracer.install does."""
    mod_name, _, attr = site.partition(".")
    owner = importlib.import_module(f"infostab.{mod_name}")
    if "." in attr:
        cls_name, attr = attr.split(".")
        owner = getattr(owner, cls_name)
    return owner, attr


def test_every_site_resolves():
    tracer = load_tracer()
    originals = {}
    for site in tracer.SITES:
        owner, attr = resolve(site)
        assert vars(owner).get(attr) is not None, site
        originals[site] = vars(owner)[attr]
    t = tracer.Tracer()
    try:
        t.install(tracer.SITES)
        for site in tracer.SITES:
            owner, attr = resolve(site)
            assert vars(owner)[attr] is not originals[site], site
    finally:
        t.uninstall()
    for site in tracer.SITES:
        owner, attr = resolve(site)
        assert vars(owner)[attr] is originals[site], site


@pytest.fixture
def bench_worker():
    """bench/worker.py, loaded as a bench process loads it.  It puts bench/ on
    sys.path and imports its siblings by their own names; both are undone, and
    no bytecode is written under bench/."""
    path, names = list(sys.path), {"tracer", "workloads"} - set(sys.modules)
    writes, sys.dont_write_bytecode = sys.dont_write_bytecode, True
    try:
        spec = importlib.util.spec_from_file_location("bench_worker", BENCH / "worker.py")
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
        yield module
    finally:
        sys.dont_write_bytecode = writes
        sys.path[:] = path
        for name in names:
            sys.modules.pop(name, None)


def test_worker_builds_every_declared_lattice(bench_worker, monkeypatch):
    # the worker builds each grid by its own signature (ConeGrid(r),
    # SimplexGrid(..., budget=)), so a changed grid signature fails here
    built = []

    def recording(check):
        def post_init(grid):
            check(grid)
            built.append(grid)

        return post_init

    names = {"UnitGrid", "TriangleGrid", "SimplexGrid", "ConeGrid", "PairGrid"}
    for name in names:
        cls = getattr(domains, name)
        monkeypatch.setattr(cls, "__post_init__", recording(cls.__post_init__))
    workloads = bench_worker.workloads
    for name in workloads.WORKLOADS:
        checker = bench_worker.Checker()
        bench_worker.check_lattice_sizes(workloads.build(name, workloads.DEFAULT_SEED, True), checker)
        assert (checker.failed, checker.reasons) == (0, []), name
    assert {type(g).__name__ for g in built} == names
    for g in built:
        if hasattr(g, "count"):
            key = bench_worker.tracing.grid_key(g)
            assert g.count == workloads.lattice_size(key), key


def test_smoke_workloads_keep_the_bench_contract(bench_worker, tmp_path):
    # each workload once at smoke size, traced in-process as a bench pass is:
    # exit codes and pinned fields equal the reference at the default seed,
    # every must_call site is called, the lattices built are the declared
    # ones, and job_mix's reports at jobs = 2 equal those at jobs = 1
    from infostab import cli

    workloads, tracing = bench_worker.workloads, bench_worker.tracing
    seed = workloads.DEFAULT_SEED
    threaded = []
    for name in workloads.WORKLOADS:
        wl = workloads.build(name, seed, True)
        checker = bench_worker.Checker()
        runner = bench_worker.Runner(cli, wl, str(tmp_path / name), checker)
        if wl.threads > 1:
            threaded.append(name)
            _, codes = runner.run_pass(jobs=1)
            runner.serial = [report for report, _ in runner.check(codes)]
        tracer = tracing.Tracer()
        try:
            tracer.install(tracing.SITES)
            _, codes = runner.run_pass()
        finally:
            tracer.uninstall()
        runner.check(codes, bench_worker.load_reference(wl, seed, True))
        bench_worker.check_lattices(wl, tracer.lattices, checker)
        called = {span.site for span in tracer.spans}
        assert [site for site in wl.must_call if site not in called] == [], name
        assert (checker.failed, checker.reasons) == (0, []), name
        assert checker.attempted == len(wl.jobs) * (1 + (wl.threads > 1)), name
    assert threaded == ["job_mix"]
