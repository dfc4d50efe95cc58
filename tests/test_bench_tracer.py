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
