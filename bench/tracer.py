"""Span tracing around the library's public layer boundaries.

Wrappers are installed only for traced passes and only by the benchmark.
Each wrapper goes where the calling module binds the name (``certifiers``
and ``models`` do ``from .domains import pow0``), so every call site of a
layer is seen.  A span records its layer, site, start, end and parent; a
layer's self time is the time its spans are open with no child open (see
self_times).

Worker threads of a threaded sweep start with an empty span stack; their
spans are parented to the innermost span open on the thread that installed
the tracer, which is the sweep waiting on them.
"""

from __future__ import annotations

import functools
import importlib
import os
import threading
import time

LAYERS = ("cli", "certifiers", "equations", "measures", "models", "domains")


class Span:
    __slots__ = ("layer", "site", "start", "end", "parent", "attrs")

    def __init__(self, layer, site, parent):
        self.layer = layer
        self.site = site
        self.parent = parent
        self.attrs = None
        self.start = time.perf_counter()
        self.end = None


class Tracer:
    def __init__(self):
        self.spans = []
        self.lattices = []  # (grid key, rows) per lattice build
        self._local = threading.local()
        self._main_stack = None
        self._lock = threading.Lock()
        self._restore = []

    # -- span bookkeeping -------------------------------------------------

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def open(self, layer, site):
        stack = self._stack()
        if stack:
            parent = stack[-1]
        elif self._main_stack:
            parent = self._main_stack[-1]
        else:
            parent = None
        span = Span(layer, site, parent)
        stack.append(span)
        with self._lock:
            self.spans.append(span)
        return span

    def close(self, span, **attrs):
        span.end = time.perf_counter()
        if attrs:
            span.attrs = attrs
        self._stack().pop()

    def reset(self):
        self.spans = []
        self.lattices = []

    # -- installation -----------------------------------------------------

    def install(self, sites):
        """Wrap every site; raise if a target is missing."""
        self._main_stack = self._stack()
        for site in sites:
            mod_name, _, attr = site.partition(".")
            owner = importlib.import_module(f"infostab.{mod_name}")
            if "." in attr:
                cls_name, attr = attr.split(".")
                owner = getattr(owner, cls_name)
            original = vars(owner).get(attr)
            if original is None:
                raise AttributeError(f"trace target {site} is missing")
            self._restore.append((owner, attr, original))
            setattr(owner, attr, self._wrap(site, original))

    def uninstall(self):
        while self._restore:
            owner, name, value = self._restore.pop()
            setattr(owner, name, value)
        self._main_stack = None

    # -- wrappers ----------------------------------------------------------

    def _wrap_function(self, site, fn):
        layer = _layer_of(site, fn)
        count = _COUNTERS.get(fn.__name__)
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = tracer.open(layer, site)
            try:
                out = fn(*args, **kwargs)
            except BaseException:
                tracer.close(span)
                raise
            tracer.close(span, **(count(args, kwargs, out) if count else {}))
            return out

        return wrapper

    def _wrap(self, site, member):
        tracer = self
        if isinstance(member, functools.cached_property):
            build = member.func

            def points(grid):
                span = tracer.open("domains", site)
                try:
                    out = build(grid)
                except BaseException:
                    tracer.close(span)
                    raise
                tracer.close(span, points=int(out.shape[0]), bytes=int(out.nbytes))
                tracer.lattices.append((grid_key(grid), int(out.shape[0])))
                return out

            prop = functools.cached_property(points)
            prop.__set_name__(None, member.attrname)
            return prop
        if member.__name__ == "iter_blocks":
            return self._wrap_blocks(site, member)
        return self._wrap_function(site, member)

    def _wrap_blocks(self, site, iter_blocks):
        tracer = self

        @functools.wraps(iter_blocks)
        def wrapper(grid, *args, **kwargs):
            it = iter_blocks(grid, *args, **kwargs)
            rows = 0
            try:
                while True:
                    span = tracer.open("domains", site)
                    try:
                        block = next(it)
                    except StopIteration:
                        tracer.close(span)
                        return
                    except BaseException:
                        tracer.close(span)
                        raise
                    tracer.close(span, points=int(block.shape[0]), bytes=int(block.nbytes))
                    rows += int(block.shape[0])
                    yield block
            finally:
                tracer.lattices.append((grid_key(grid), rows))

        return wrapper


def grid_key(grid):
    kind = type(grid).__name__
    if kind == "UnitGrid":
        return ("unit", grid.resolution, bool(grid.closed))
    if kind == "TriangleGrid":
        return ("triangle", grid.resolution, bool(grid.closed))
    if kind == "SimplexGrid":
        return ("simplex", grid.n, grid.resolution, bool(grid.closed))
    if kind == "ConeGrid":
        return ("cone", grid.resolution)
    if kind == "PairGrid":
        return ("pair", grid.resolution)
    raise ValueError(f"unknown grid type {kind}")


def _layer_of(site, fn):
    module = fn.__module__.rpartition(".")[2]
    if module not in LAYERS:
        raise ValueError(f"{site} resolves to {fn.__module__}, not a library layer")
    return module


# -- per-call counters, run inside the span ----------------------------------


def _count_run(args, kwargs, out):
    path = os.path.join(kwargs.get("out_dir", "."), "report.json")
    return {"report_bytes": os.path.getsize(path)}


def _count_report(args, kwargs, out):
    return {"samples": int(out.samples)}


def _count_dump(args, kwargs, out):
    path = args[3] if len(args) > 3 else kwargs["path"]
    return {"dump_bytes": os.path.getsize(path)}


def _count_eval_rows(args, kwargs, out):
    return {"rows": int(out.shape[0])}


def _count_values(args, kwargs, out):
    return {"values": int(getattr(out, "size", 1))}


_COUNTERS = {
    "run": _count_run,
    "residual": _count_report,
    "symmetry_residual": _count_report,
    "homogeneity_residual": _count_report,
    "dump_defects_csv": _count_dump,
    "eval_rows": _count_eval_rows,
    "__call__": _count_values,
}


# ---------------------------------------------------------------------------
# the sites every traced run wraps

SITES = (
    "cli.run",
    # certifiers, where cli binds them
    "cli.certify_associativity", "cli.certify_entropy_equation",
    "cli.certify_fundamental_closed", "cli.certify_fundamental_open",
    "cli.certify_hyperstable", "cli.certify_measure_sequence",
    "cli.certify_modified_entropy", "cli.certify_sum_form",
    "cli.certify_sum_form_mixed", "cli.certify_sum_form_multiplicative",
    "cli.hyperstability_blowup_probe",
    # equations
    "cli.residual", "certifiers.residual", "measures.residual",
    "certifiers.symmetry_residual", "certifiers.homogeneity_residual",
    "cli.dump_defects_csv",
    # measures
    "measures.InformationMeasure.eval_rows",
    "cli.check_symmetry", "cli.check_semisymmetry3", "cli.check_normalization",
    "cli.recursivity_defect", "cli.derive_generating_defect", "cli.tabulate",
    "certifiers.check_semisymmetry3", "certifiers.recursivity_defect",
    # models
    "models.ScalarFunction.__call__", "models.TernaryFunction.__call__",
    "models.BivariateFunction.__call__",
    # domains
    "domains.UnitGrid.points", "domains.TriangleGrid.points",
    "domains.SimplexGrid.points", "domains.ConeGrid.points", "domains.PairGrid.points",
    "domains.SimplexGrid.iter_blocks",
    "models.pow0", "equations.pow0", "certifiers.pow0", "measures.pow0",
)


# ---------------------------------------------------------------------------
# aggregation


def _depth(span):
    depth = 0
    while span.parent is not None:
        span, depth = span.parent, depth + 1
    return depth


def self_times(spans):
    """Wall time each span spends as a leaf, open with no child open.

    Where threaded sweeps keep several leaves open at once, that stretch is
    shared equally among them, so the self times of a pass add up exactly to
    the wall time of its root spans.  Without threads this equals a span's
    duration minus the time its children cover.
    """
    events = []
    for span in spans:
        depth = _depth(span)
        events.append((span.start, 1, depth, span))
        events.append((span.end, 0, -depth, span))
    # at equal times: ends before starts, parents open before and close after children
    events.sort(key=lambda e: e[:3])
    own = dict.fromkeys(spans, 0.0)
    open_children = dict.fromkeys(spans, 0)
    is_open = set()
    leaves = set()
    prev = None
    for t, starts, _, span in events:
        if leaves and t > prev:
            share = (t - prev) / len(leaves)
            for leaf in leaves:
                own[leaf] += share
        prev = t
        parent = span.parent
        if starts:
            is_open.add(span)
            leaves.add(span)
            if parent is not None:
                open_children[parent] += 1
                leaves.discard(parent)
        else:
            is_open.discard(span)
            leaves.discard(span)
            if parent is not None:
                open_children[parent] -= 1
                if open_children[parent] == 0 and parent in is_open:
                    leaves.add(parent)
    return own


def summarize(spans):
    """Per-layer self time, entry calls and counters for one pass's spans."""
    layers = {name: {"self_s": 0.0, "calls": 0} for name in LAYERS}
    extra = {"pow0_s": 0.0, "pow0_calls": 0, "dump_s": 0.0, "root_s": 0.0}
    counts = {}
    site_calls = {}
    own_times = self_times(spans)
    for span in spans:
        own = own_times[span]
        layer = layers[span.layer]
        layer["self_s"] += own
        site_calls[span.site] = site_calls.get(span.site, 0) + 1
        entry = span.parent is None or span.parent.layer != span.layer
        if entry:
            layer["calls"] += 1
        if span.parent is None:
            extra["root_s"] += span.end - span.start
        if span.site.endswith(".pow0"):
            extra["pow0_s"] += own
            extra["pow0_calls"] += 1
        if span.site.endswith(".dump_defects_csv"):
            extra["dump_s"] += own
        if span.attrs:
            for k, v in span.attrs.items():
                if k == "values" and not entry:
                    continue
                key = f"{span.layer}.{k}"
                counts[key] = counts.get(key, 0) + v
    return layers, extra, counts, site_calls
