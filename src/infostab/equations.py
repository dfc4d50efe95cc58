"""Functional-equation registry and the residual sweep engine.

A residual sweep evaluates one equation's defect over a finite grid and
reduces it to a report (exact sup, argmax point, mean on request).  Defects
are computed and summarised in fixed-size blocks, so the report is
bit-identical for any worker count: the max is exact with a first-index
tie-break, and each block's sum of |defect| is an exact integer, summed from
the IEEE bits of its values (_exact_total), so the total does not depend on
block order.  The mean is that total rounded once, then divided by the
count, like ``math.fsum(v) / n``, bit for bit.  Sweeps are sup only: no
block computes a total and the report's mean is None, unless residual is
asked for the mean, which only the CLI's residual job does.  A NaN or
infinite defect raises NonFiniteDefectError, so numpy's overflow and
invalid-value warnings are off while a block runs.

Every sweep has one block contract: work(item) returns (points, defects),
and value i of defects belongs to row i % len(points), so a block that
stacks several variants of each point carries its points once; a mirrored
block adds the rank of each value.  Blocks of _CHUNK rows come from
_row_blocks (a point matrix), _pair_blocks (a pair lattice, whose points
build a row only on request) or _simplex_blocks (a streamed simplex
lattice); _within_budget checks a sweep's defect samples against its
budget before the lattice is built.  Each equation kind states its
equation, lattice, function count and defect (a sum form's cross, and
FundamentalParametric's the node-table kernel below); _blocks gives the
(work, items) of any kind on a grid, residual reduces them to a report,
which holds no target, and dump_defects_csv writes them through
domains._write_csv.  _sweep summarises each block and _fold folds the
summaries, so a stream that yields two defects per block can fold each into
its own report.  _imap runs the blocks of every sweep on up to jobs threads
and returns them in order.

The fundamental-equation kernel reads node tables: f(k/R) and
(1 - k/R)^alpha are evaluated once per sweep over the node indices k the
triangle uses, and each block recovers its indices as rint(block * R), which
is exact for k < 2^51.  A reduction sweeps it mirrored: point (j, i) needs f
at the two quotients y/(1-x) and x/(1-y) of (i, j), so a block of the points
with i <= j and their mirrors evaluates f once per point and yields each
defect with the lexicographic rank of its point; _summary and _fold break
sup ties and pick the first non-finite point by least rank.  A point and
its mirror also share their node-table gathers and their two products, so
each pair gathers and multiplies once.  Every defect is bit-identical to
the per-point expression.
"""

from __future__ import annotations

import collections
import functools
import itertools
import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .domains import (
    _CHUNK, ConeGrid, PairGrid, SimplexGrid, TriangleGrid, UnitGrid, _g17, _pairs,
    _write_csv, pow0,
)
from .errors import BudgetExceededError, ConfigurationError, DomainError, NonFiniteDefectError
from .models import BivariateFunction, TernaryFunction, _finite

__all__ = [
    "FundamentalParametric",
    "SumFormAdditive",
    "SumFormAlpha",
    "SumFormMultiplicative",
    "Cocycle",
    "EntropyEq",
    "ModifiedEntropy",
    "CauchyAdditive",
    "Multiplicative",
    "Logarithmic",
    "PhiEquation",
    "DaroczyIdentity",
    "InfoFunctionForm",
    "ResidualReport",
    "residual",
    "symmetry_residual",
    "homogeneity_residual",
    "dump_defects_csv",
]


# ---------------------------------------------------------------------------
# equation kinds: each states its lattice (see _points) and function count


@dataclass(frozen=True)
class FundamentalParametric:
    """f(x) + (1-x)^a f(y/(1-x)) = f(y) + (1-y)^a f(x/(1-y)) on the triangle;
    its defect is _fundamental_kernel's."""

    alpha: float
    lattice = "triangle"
    functions = 1


@dataclass(frozen=True)
class SumFormAdditive:
    """sum_i sum_j f(p_i q_j) = sum_i f(p_i) + sum_j f(q_j)."""

    n: int
    m: int
    lattice = "simplex pairs"
    functions = 1

    def cross(self, fpq, fp, fq):
        return fpq - fp - fq


@dataclass(frozen=True)
class SumFormAlpha:
    """Additive-with-product-term sum form of degree alpha:
    sum_i sum_j f(p_i q_j) = sum_i f(p_i) + sum_j f(q_j)
    + (2^(1-alpha) - 1) sum_i f(p_i) sum_j f(q_j)."""

    alpha: float
    n: int
    m: int
    lattice = "simplex pairs"
    functions = 1

    def __post_init__(self):
        _finite(f"2**(1 - alpha) at alpha = {self.alpha!r}", lambda: 2.0 ** (1.0 - self.alpha))

    def cross(self, fpq, fp, fq):
        return fpq - fp - fq - (2.0 ** (1.0 - self.alpha) - 1.0) * fp * fq


@dataclass(frozen=True)
class SumFormMultiplicative:
    """sum_i sum_j g(p_i q_j) = sum_i g(p_i) * sum_j g(q_j)."""

    n: int
    m: int
    lattice = "simplex pairs"
    functions = 1

    def cross(self, fpq, fp, fq):
        return fpq - fp * fq


@dataclass(frozen=True)
class Cocycle:
    """F(x+y, z) + F(x, y) = F(x, y+z) + F(y, z) on positive triples."""

    lattice = "cone"
    functions = 1

    def defect(self, p, F):
        x, y, z = p[:, 0], p[:, 1], p[:, 2]
        return F(x + y, z) + F(x, y) - F(x, y + z) - F(y, z)


@dataclass(frozen=True)
class EntropyEq:
    """H(x,y,z) = H(x+y, 0, z) + H(x, y, 0) on the positive cone."""

    lattice = "cone"
    functions = 1

    def defect(self, p, H):
        x, y, z = p[:, 0], p[:, 1], p[:, 2]
        zero = np.zeros_like(x)
        return H(x, y, z) - H(x + y, zero, z) - H(x, y, zero)


@dataclass(frozen=True)
class ModifiedEntropy:
    """f(x,y,z) = f(x, y+z, 0) + (y+z)^a f(0, y/(y+z), z/(y+z))."""

    alpha: float
    lattice = "cone"
    functions = 1

    def defect(self, p, f):
        x, y, z = p[:, 0], p[:, 1], p[:, 2]
        s = y + z
        zero = np.zeros_like(x)
        return f(x, y, z) - f(x, s, zero) - pow0(s, self.alpha) * f(zero, y / s, z / s)


@dataclass(frozen=True)
class CauchyAdditive:
    """a(x+y) = a(x) + a(y) on pairs whose sum stays in the interval."""

    lattice = "domain pairs"
    functions = 1

    def defect(self, p, f):
        return f(p[:, 0] + p[:, 1]) - f(p[:, 0]) - f(p[:, 1])


@dataclass(frozen=True)
class Multiplicative:
    """m(xy) = m(x) m(y)."""

    lattice = "pairs"
    functions = 1

    def defect(self, p, f):
        return f(p[:, 0] * p[:, 1]) - f(p[:, 0]) * f(p[:, 1])


@dataclass(frozen=True)
class Logarithmic:
    """l(xy) = l(x) + l(y)."""

    lattice = "pairs"
    functions = 1

    def defect(self, p, f):
        return f(p[:, 0] * p[:, 1]) - f(p[:, 0]) - f(p[:, 1])


@dataclass(frozen=True)
class PhiEquation:
    """phi(xy) = x phi(y) + y phi(x)."""

    lattice = "pairs"
    functions = 1

    def defect(self, p, f):
        x, y = p[:, 0], p[:, 1]
        return f(x * y) - x * f(y) - y * f(x)


@dataclass(frozen=True)
class DaroczyIdentity:
    """(x+y) f(y/(x+y)) = phi(x) + phi(y) - phi(x+y); functions (f, phi)."""

    lattice = "nonzero pairs"
    functions = 2

    def defect(self, p, f, phi):
        x, y = p[:, 0], p[:, 1]
        s = x + y
        return s * f(y / s) - (phi(x) + phi(y) - phi(s))


@dataclass(frozen=True)
class InfoFunctionForm:
    """f(x) = phi(x) + phi(1-x); functions (f, phi)."""

    lattice = "unit"
    functions = 2

    def defect(self, p, f, phi):
        x = p[:, 0]
        return f(x) - phi(x) - phi(1.0 - x)


# ---------------------------------------------------------------------------
# report and reduction


@dataclass(frozen=True)
class ResidualReport:
    sup: float
    mean: Optional[float]  # None unless residual was asked for it
    argmax_point: tuple
    samples: int


def certificate_slack(bound) -> float:
    """Uniform numeric slack added to every bound check."""
    return 1e-9 * (1.0 + float(bound))


def _passes(value, bound) -> bool:
    """value <= bound plus the slack; a NaN or infinite value or bound never passes."""
    v, b = float(value), float(bound)
    return math.isfinite(v) and math.isfinite(b) and v <= b + certificate_slack(b)


# Exact sums.  A finite nonnegative float's biased exponent e and 52 fraction
# bits make it m * 2**(max(e, 1) - _SCALE) for a 53-bit integer m, so
# _exact_total sums a block from its IEEE bits: bincount sums the high and low
# 26-bit halves of the mantissas per exponent, exactly while it adds fewer than
# 2**26 values (_EXACT_ROWS per slice), and each exponent's two sums shift
# into one Python int, the sum times 2**_SCALE.
_SCALE = 1023 + 52  # the exponent bias plus the fraction bits
_HALF = 26
_EXACT_ROWS = (1 << _HALF) - 1


def _exact_total(values):
    """sum(values) * 2**_SCALE as an exact int, for finite and nonnegative
    floats; values is only read."""
    total = 0
    for s in range(0, values.size, _EXACT_ROWS):
        bits = values[s : s + _EXACT_ROWS].view(np.int64)
        e = np.maximum(bits >> 52, 1)
        mant = bits - ((e - 1) << 52)
        hi = np.bincount(e, weights=mant >> _HALF)
        lo = np.bincount(e, weights=mant & ((1 << _HALF) - 1))
        k = np.flatnonzero((hi != 0) | (lo != 0))
        for b, h, l in zip(k.tolist(), hi[k].tolist(), lo[k].tolist()):
            total += ((int(h) << _HALF) + int(l)) << b
    return total


def _summary(points, defects, ranks=None, *, mean: bool = False):
    """(size, sup, exact total, non-finite count, rank, point) of one block of
    |defects|; rank and point are the sup's, or the first non-finite value's.
    Value i belongs to row i % len(points) and ranks 0, so _fold keeps the
    earlier of two blocks; a mirrored block ranks it ranks[i] instead.  The
    total is None unless mean is true."""
    ab = np.abs(np.asarray(defects, dtype=float)).ravel()
    i = int(np.argmax(ab))  # the first NaN, else the first inf, else the max
    bad = None if math.isfinite(ab[i]) else ~np.isfinite(ab)
    if ranks is not None:
        i = _first(ab == ab[i] if bad is None else bad, ranks)
    elif bad is not None:
        i = int(np.argmax(bad))
    rank = 0 if ranks is None else int(ranks[i])
    if bad is None:
        sup = float(ab[i])
        total = _exact_total(ab) if mean else None
        return ab.size, sup, total, 0, rank, _row(points, i)
    return ab.size, -1.0, 0, int(np.count_nonzero(bad)), rank, _row(points, i)


def _first(mask, ranks):
    """The index of the least-ranked value that mask selects."""
    k = np.flatnonzero(mask)
    return int(k[np.argmin(ranks[k])])


def _row(points, i):
    return tuple(np.atleast_1d(points[i % len(points)]).tolist())


def _imap(fn, items, jobs):
    """fn over items, results in item order, on up to jobs threads.

    With jobs <= 1 this is map.  Otherwise at most 2 * jobs items are in
    flight, so a streamed lattice is never held whole, and items are pulled
    only on the calling thread.  An error is raised at its item's place, as
    map raises it; the pending items are then cancelled and every worker
    thread has ended before the error propagates.  A sweep of one item
    starts no thread.  Each item runs with numpy's overflow and invalid-value
    warnings off, set in the thread that runs it: a sweep reports every NaN
    or infinite value it meets with NonFiniteDefectError.
    """
    fn = functools.partial(_quiet, fn)
    items = iter(items)
    head = list(itertools.islice(items, 2)) if jobs > 1 else []
    if len(head) < 2:
        yield from map(fn, itertools.chain(head, items))
        return
    pending = collections.deque()
    # the pool starts a thread per submit until jobs are running, so it never
    # holds more threads than items in flight
    with ThreadPoolExecutor(max_workers=int(jobs)) as pool:
        try:
            for item in itertools.chain(head, items):
                pending.append(pool.submit(fn, item))
                if len(pending) >= 2 * jobs:
                    yield pending.popleft().result()
            while pending:
                yield pending.popleft().result()
        finally:
            for future in pending:
                future.cancel()


def _quiet(fn, item):
    with np.errstate(over="ignore", invalid="ignore"):
        return fn(item)


def _sweep(work, items, *, jobs=1, mean: bool = False):
    """Reduce work(item) -> (points, defects) over items to one report.

    Each block is summarised where it is computed, in a worker thread when
    jobs > 1, so no defect array outlives its block, and the summaries are
    folded in item order.  Only with mean true does each block compute its
    exact total; otherwise the report's mean is None.
    """
    summaries = _imap(lambda item: _summary(*work(item), mean=mean), items, jobs)
    return _fold(summaries)


def _fold(summaries):
    """The report of block summaries, folded in order: the sup and the first
    non-finite point are of least rank, then of the earlier block, and the
    mean is the exact total rounded once, then divided by the sample count,
    like math.fsum(v) / n; a total past the float range is divided by the
    count before its one rounding.  A block without a total (None) leaves the
    mean None."""
    size = total = bad = 0
    sup, sup_rank, point, first = -1.0, 0, (), None
    for n, block_sup, block_total, block_bad, rank, block_point in summaries:
        size, bad = size + n, bad + block_bad
        total = None if None in (total, block_total) else total + block_total
        if block_bad and (first is None or rank < first[0]):
            first = rank, block_point
        if block_sup > sup or block_sup == sup and rank < sup_rank:
            sup, sup_rank, point = block_sup, rank, block_point
    if bad:
        raise _non_finite(bad, size, first[1])
    if size == 0:
        raise ConfigurationError("empty grid: nothing to sweep")
    if total is None:
        mean = None
    else:
        try:
            mean = total / (1 << _SCALE) / size
        except OverflowError:
            # the sum passes the float range, the mean of finite values does not
            mean = total / ((1 << _SCALE) * size)
    return ResidualReport(
        sup=sup,
        mean=mean,
        argmax_point=point,
        samples=size,
    )


def _non_finite(bad, size, first):
    """The error of a sweep with bad NaN or infinite defects out of size."""
    return NonFiniteDefectError(
        f"{bad} of {size} defects are NaN or infinite, the first at {first}"
    )


def _within_budget(samples, budget):
    """Refuse a sweep whose report would hold more than budget defect samples."""
    if samples > budget:
        raise BudgetExceededError(f"{samples} defect samples exceed the budget of {budget}")


def _spans(count, step=_CHUNK):
    """Consecutive (start, stop) spans of at most step rows covering range(count)."""
    return [(s, min(s + step, count)) for s in range(0, count, step)]


def _row_blocks(pts, defect):
    """(work, spans) of defect(rows) over the rows of pts, _CHUNK rows a block."""

    def work(span):
        block = pts[span[0] : span[1]]
        return block, defect(block)

    return work, _spans(pts.shape[0])


def _simplex_blocks(n, resolution, closed, budget, defect):
    """(work, blocks) of defect(rows) over a simplex lattice within budget,
    streamed _CHUNK rows a block; _sweep's window holds at most 2 * jobs
    blocks at once."""
    grid = SimplexGrid(n, resolution, closed=closed)
    _within_budget(grid.count, budget)
    return (lambda P: (P, defect(P))), grid.iter_blocks()


# ---------------------------------------------------------------------------
# defect kernels


def _quotient(y, x):
    # on the closed edge x + y = 1 the quotient is 1 exactly but can round
    # above it; inside the triangle it stays at most 1 - 1/R
    return np.minimum(y / (1.0 - x), 1.0)


def _fundamental_kernel(f, alpha, grid):
    """defect(block) of FundamentalParametric(alpha) on a TriangleGrid, and
    as defect.mirrored the (work, spans) of a sweep with half the f work.

    Every coordinate is the grid's node k/R for a node index k in
    lo..R-1-lo (lo = 0 closed, 1 open), so f(k/R) and (1 - k/R)^alpha come
    from tables over grid.nodes built once, before any block runs.  A block
    recovers its indices as rint(block * R), exactly, since
    |fl(k/R) R - k| <= k 2^-52 < 1/2.  Point (j, i) needs f at
    the quotients of (i, j), so a mirrored block keeps the points with
    i <= j of _CHUNK / 2 rows of grid.points, adds the mirrors of those off
    the diagonal, evaluates f once per point, at y/(1-x), and reads f at
    x/(1-y) from the mirror.  A point (i, j) off the diagonal and its mirror
    share A = f(x), C = f(y), B = (1-x)^a f(y/(1-x)) and E = (1-y)^a
    f(x/(1-y)): their defects are ((A + B) - C) - E and ((C + E) - A) - B.
    It returns the points, their defects and their lexicographic ranks (row
    start plus j - lo).  Every defect is the per-point expression's, bit for
    bit, and a DomainError replays the per-point sweep to raise the first it
    meets.
    """
    r, lo = grid.resolution, 0 if grid.closed else 1
    pts = grid.points
    nodes = grid.nodes[lo : r - lo]

    def first_domain_error(fn, *args):
        try:
            return fn(*args)
        except DomainError:
            # raise what the per-point sweep meets first: f at x, y/(1-x), y,
            # x/(1-y), block by block
            for a, b in _spans(pts.shape[0]):
                x, y = pts[a:b, 0], pts[a:b, 1]
                for v in (x, _quotient(y, x), y, _quotient(x, y)):
                    f(v)
            raise

    fk = first_domain_error(lambda: np.broadcast_to(f(nodes), nodes.shape))  # f may return a scalar
    pk = pow0(1.0 - nodes, alpha)
    length = np.minimum(r - 2 * lo - np.arange(nodes.size), r - 1) - lo + 1
    end = np.cumsum(length)
    start = end - length  # the rank of each row's first point

    def expression(i, j, f1, f2):
        # the per-point defect, left to right, from f at y/(1-x) and x/(1-y)
        return fk[i] + pk[i] * f1 - fk[j] - pk[j] * f2

    def defect(block):
        x, y = block[:, 0], block[:, 1]
        i, j = (np.rint(block * r).astype(np.intp) - lo).T
        return expression(i, j, f(_quotient(y, x)), f(_quotient(x, y)))

    def mirrored(span):
        i, j = (np.rint(pts[span[0] : span[1]] * r).astype(np.intp) - lo).T
        off = i < j
        io, jo, ii = i[off], j[off], i[i == j]
        # the points with i < j in [:n], those with i == j in [n:m], then the
        # mirrors of the first in [m:]
        n = io.size
        m = n + ii.size
        xy, ranks = np.empty((2, m + n)), np.empty(m + n, np.intp)
        np.take(nodes, io, out=xy[0, :n])
        np.take(nodes, jo, out=xy[1, :n])
        np.take(nodes, ii, out=xy[0, n:m])
        xy[1, n:m], xy[0, m:], xy[1, m:] = xy[0, n:m], xy[1, :n], xy[0, :n]
        np.add(start[io], jo, out=ranks[:n])
        np.add(start[ii], ii, out=ranks[n:m])
        np.add(start[jo], io, out=ranks[m:])
        fq = np.broadcast_to(f(_quotient(xy[1], xy[0])), ranks.shape)
        # x/(1-y) of a point is y/(1-x) of its mirror, so the pair shares its
        # four terms; each defect is expression's ((A + B) - C) - E at its point
        a, c = fk[io], fk[jo]
        b, e = pk[io] * fq[:n], pk[jo] * fq[m:]
        d = np.empty(m + n)
        np.add(a, b, out=d[:n])
        d[:n] -= c
        d[:n] -= e
        np.add(c, e, out=d[m:])
        d[m:] -= a
        d[m:] -= b
        d[n:m] = expression(ii, ii, fq[n:m], fq[n:m])
        return xy.T, d, ranks

    # a block holds at most _CHUNK values, and rows past node (R - lo) // 2 keep none
    last = int(end[(r - lo) // 2 - lo])
    defect.mirrored = (lambda span: first_domain_error(mirrored, span)), _spans(last, _CHUNK // 2)
    return defect


def _functions(kind, fns):
    """fns as a tuple of the kind's number of functions; one may come bare."""
    fns = tuple(fns) if isinstance(fns, (list, tuple)) else (fns,)
    if len(fns) != kind.functions:
        raise ConfigurationError(
            f"{type(kind).__name__} takes exactly {kind.functions} function(s), got {len(fns)}"
        )
    return fns


def _points(kind, grid, budget):
    """The rows a single-matrix kind's defect is swept over, within budget:
    the points of its "triangle" or "cone" lattice, else a UnitGrid's rows
    (see _unit_rows).  Triangle, cone and pair counts are checked in closed
    form before any row is built."""
    name = type(kind).__name__
    cls = {"triangle": TriangleGrid, "cone": ConeGrid}.get(kind.lattice)
    if cls is None:
        return _unit_rows(_expect_grid(grid, UnitGrid, name), kind.lattice, budget)
    _within_budget(_expect_grid(grid, cls, name).count, budget)
    return grid.points


def _unit_rows(g, lattice, budget):
    """The rows of a UnitGrid lattice, within budget: its points as one column
    ("unit"), or its (x, y) pairs, x-major: all of them ("pairs"), those with
    x + y in the grid's interval ("domain pairs"), or those with x + y > 0
    ("nonzero pairs").  The closed-form count is checked first, and _pairs
    builds only the kept pairs: point i of a "domain pairs" lattice pairs with
    the first n - i points (n - 1 - i when open), since its coordinates are
    k/R, and the open lattice is the open TriangleGrid's, bit for bit."""
    x = g.points
    n = x.size
    if lattice == "unit":
        _within_budget(n, budget)
        return x[:, None]
    if lattice == "domain pairs":
        counts = np.arange(n, 0, -1) - (not g.closed)
    else:
        counts = np.full(n, n)
    drop = int(lattice == "nonzero pairs" and g.closed)  # the pair (0, 0) comes first
    _within_budget(int(counts.sum()) - drop, budget)
    return _pairs(x, counts)[drop:]


def _expect_grid(grid, cls, kind_name):
    if not isinstance(grid, cls):
        raise ConfigurationError(
            f"{kind_name} sweeps need a {cls.__name__}, got {type(grid).__name__}"
        )
    return grid


class _PairRows:
    """The points of a pair block, P-major: row i is the P row i // len(Q),
    then the Q row i % len(Q).  A row is built only when asked for; the
    whole matrix only when numpy converts the block, as a dump does."""

    def __init__(self, P, Q):
        self.P, self.Q = P, Q

    def __len__(self):
        return len(self.P) * len(self.Q)

    def __getitem__(self, i):
        p, q = divmod(i, len(self.Q))
        return np.concatenate((self.P[p], self.Q[q]))

    def __array__(self, dtype=None, copy=None):
        n = self.P.shape[1]
        out = np.empty((len(self.P), len(self.Q), n + self.Q.shape[1]), dtype=dtype)
        out[:, :, :n] = self.P[:, None]
        out[:, :, n:] = self.Q
        return out.reshape(len(self), -1)


def _pair_blocks(gp, gq, budget, cross):
    """(work, spans) over the pair lattice of two simplex grids, within budget.
    work((a, b)) pairs the rows P[a:b] with every row of Q, P-major: a pair's
    point is its P row, then its Q row (a _PairRows block), and its defect
    comes from cross(a, b, prods), where prods[i, j] holds the coordinates of
    the product P[a + i] * Q[j].  A span holds about _CHUNK pairs and at least
    one row of P."""
    _within_budget(gp.count * gq.count, budget)
    P = gp.points
    Q = gq.points

    def work(span):
        a, b = span
        prods = P[a:b, None, :, None] * Q[None, :, None, :]
        defects = np.ravel(cross(a, b, prods.reshape(b - a, len(Q), -1)))
        return _PairRows(P[a:b], Q), defects

    return work, _spans(P.shape[0], max(1, _CHUNK // len(Q)))


def _sum_form_blocks(kind, f, grid, budget):
    """Return the _pair_blocks (work, spans) of a sum-form kind on a pair of
    simplex grids."""
    if not (isinstance(grid, tuple) and len(grid) == 2):
        raise ConfigurationError(
            f"{type(kind).__name__} sweeps need a pair of SimplexGrids"
        )
    gp, gq = grid
    _expect_grid(gp, SimplexGrid, type(kind).__name__)
    _expect_grid(gq, SimplexGrid, type(kind).__name__)
    if gp.n != kind.n or gq.n != kind.m:
        raise ConfigurationError(
            f"{type(kind).__name__}(n={kind.n}, m={kind.m}) got simplex grids "
            f"with n={gp.n}, m={gq.n}"
        )

    def cross(a, b, prods):
        return kind.cross(np.sum(f(prods), axis=2), fp[a:b, None], fq[None, :])

    blocks = _pair_blocks(gp, gq, budget, cross)
    fp = np.sum(np.asarray(f(gp.points)), axis=1)
    fq = np.sum(np.asarray(f(gq.points)), axis=1)
    return blocks


def _blocks(kind, fns, grid, budget, mirrored=False):
    """The (work, items) of one equation's defect sweep over a grid, within
    budget; a reduction asks for the mirrored FundamentalParametric blocks."""
    fns = _functions(kind, fns)
    if kind.lattice == "simplex pairs":
        return _sum_form_blocks(kind, *fns, grid, budget)
    pts = _points(kind, grid, budget)
    if not isinstance(kind, FundamentalParametric):
        return _row_blocks(pts, lambda p: kind.defect(p, *fns))
    defect = _fundamental_kernel(*fns, kind.alpha, grid)
    return defect.mirrored if mirrored else _row_blocks(pts, defect)


def residual(
    kind,
    fns,
    grid,
    *,
    jobs: int = 1,
    budget: int = 10**7,
    mean: bool = False,
) -> ResidualReport:
    """Sweep one equation's defect over a grid and reduce it to a report; its
    mean is None unless mean is true, when the sweep sums the exact total."""
    return _sweep(*_blocks(kind, fns, grid, budget, mirrored=True), jobs=jobs, mean=mean)


def dump_defects_csv(kind, fns, grid, path, *, budget: int = 10**7):
    """Stream per-point defects to CSV (point coordinates, then the defect)
    as bytes; the budget is checked before the file is opened.  The text of
    the lattice's node table (the first grid's, for a pair of simplex grids)
    is formatted once per dump, and every block's coordinates take theirs
    from it (see domains._write_csv)."""
    work, items = _blocks(kind, fns, grid, budget)
    nodes = (grid[0] if isinstance(grid, tuple) else grid).nodes
    text = _g17(nodes)
    with open(path, "wb") as fh:
        for item in items:
            _write_csv(fh, *work(item), nodes=nodes, text=text)


# ---------------------------------------------------------------------------
# symmetry and homogeneity sweeps

_PERMS3 = (
    (0, 1, 2),
    (0, 2, 1),
    (1, 0, 2),
    (1, 2, 0),
    (2, 0, 1),
    (2, 1, 0),
)


def symmetry_residual(
    F: TernaryFunction, grid: ConeGrid, *, jobs: int = 1, budget: int = 10**7
) -> ResidualReport:
    """sup over all six argument permutations of |F(P) - F(sigma P)|; its 6 *
    grid.count samples are checked against budget before the points are built."""
    _within_budget(6 * _expect_grid(grid, ConeGrid, "symmetry").count, budget)

    def gaps(block):
        # _PERMS3 starts with the identity, whose values are the base
        vals = [np.asarray(F(*(block[:, i] for i in perm))) for perm in _PERMS3]
        return np.concatenate([v - vals[0] for v in vals])

    return _sweep(*_row_blocks(grid.points, gaps), jobs=jobs)


def homogeneity_residual(
    F: BivariateFunction, alpha, grid: PairGrid, *, jobs: int = 1
) -> ResidualReport:
    """sup over the scales t in (1/4, 1/2, 2, 4) and the grid pairs of
    |F(tu, tv) - t^alpha F(u, v)|."""
    a = float(alpha)
    # the largest t**alpha; certify_entropy_equation checks it before its first sweep
    _finite(f"4**|alpha| at alpha = {a!r}", lambda: 4.0 ** abs(a))
    pts = _expect_grid(grid, PairGrid, "homogeneity").points
    ts = (0.25, 0.5, 2.0, 4.0)

    def gaps(block):
        u, v = block[:, 0], block[:, 1]
        base = np.asarray(F(u, v))
        return np.concatenate([np.asarray(F(t * u, t * v)) - (t**a) * base for t in ts])

    return _sweep(*_row_blocks(pts, gaps), jobs=jobs)
