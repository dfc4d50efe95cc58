"""Functional-equation registry and the residual sweep engine.

A residual sweep evaluates one equation's defect over a finite grid and
reduces it to a report (exact sup, exactly rounded mean, argmax point).
Defects are computed and summarised in fixed-size blocks, so the report is
bit-identical for any worker count: the max is exact with a first-index
tie-break, and the mean is the exact sum of |defect| as an integer, rounded
once, so it matches ``math.fsum`` bit for bit and does not depend on block
order.  A NaN or infinite defect raises NonFiniteDefectError.

Every sweep has one block contract: work(item) returns (points, defects),
and value i of defects belongs to row i % len(points), so a block that
stacks several variants of each point carries its points once.  Blocks of
_CHUNK rows come from _row_blocks (a point matrix), _pair_blocks (a pair
lattice) or _simplex_blocks (a streamed simplex lattice); _within_budget
checks a sweep's defect samples against its budget before the lattice is
built.  _blocks gives the (work, items) of an equation kind on a grid;
residual reduces those blocks and dump_defects_csv writes them.

The fundamental-equation kernel reads node tables: f(k/R) and
(1 - k/R)^alpha are evaluated once per sweep over the node indices k the
triangle uses, and each block recovers its indices as rint(block * R), which
is exact for k < 2^51.  Only the two quotients y/(1-x) and x/(1-y) are
evaluated per point, and every defect is bit-identical to the per-point
expression.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .domains import _CHUNK, ConeGrid, PairGrid, SimplexGrid, TriangleGrid, UnitGrid, pow0
from .errors import BudgetExceededError, ConfigurationError, DomainError, NonFiniteDefectError
from .models import Alpha, BivariateFunction, ScalarFunction, TernaryFunction

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
    "product_distribution",
    "dump_defects_csv",
]


# ---------------------------------------------------------------------------
# equation kinds


@dataclass(frozen=True)
class FundamentalParametric:
    """f(x) + (1-x)^a f(y/(1-x)) = f(y) + (1-y)^a f(x/(1-y)) on the triangle."""

    alpha: float


@dataclass(frozen=True)
class SumFormAdditive:
    """sum_i sum_j f(p_i q_j) = sum_i f(p_i) + sum_j f(q_j)."""

    n: int
    m: int


@dataclass(frozen=True)
class SumFormAlpha:
    """Additive-with-product-term sum form of degree alpha."""

    alpha: float
    n: int
    m: int


@dataclass(frozen=True)
class SumFormMultiplicative:
    """sum_i sum_j g(p_i q_j) = sum_i g(p_i) * sum_j g(q_j)."""

    n: int
    m: int


@dataclass(frozen=True)
class Cocycle:
    """F(x+y, z) + F(x, y) = F(x, y+z) + F(y, z) on positive triples."""


@dataclass(frozen=True)
class EntropyEq:
    """H(x,y,z) = H(x+y, 0, z) + H(x, y, 0) on the positive cone."""


@dataclass(frozen=True)
class ModifiedEntropy:
    """f(x,y,z) = f(x, y+z, 0) + (y+z)^a f(0, y/(y+z), z/(y+z))."""

    alpha: float


@dataclass(frozen=True)
class CauchyAdditive:
    """a(x+y) = a(x) + a(y) on pairs whose sum stays in the interval."""


@dataclass(frozen=True)
class Multiplicative:
    """m(xy) = m(x) m(y)."""


@dataclass(frozen=True)
class Logarithmic:
    """l(xy) = l(x) + l(y)."""


@dataclass(frozen=True)
class PhiEquation:
    """phi(xy) = x phi(y) + y phi(x)."""


@dataclass(frozen=True)
class DaroczyIdentity:
    """(x+y) f(y/(x+y)) = phi(x) + phi(y) - phi(x+y); functions (f, phi)."""


@dataclass(frozen=True)
class InfoFunctionForm:
    """f(x) = phi(x) + phi(1-x); functions (f, phi)."""


# ---------------------------------------------------------------------------
# report and reduction


@dataclass(frozen=True)
class ResidualReport:
    sup: float
    mean: float
    argmax_point: tuple
    samples: int
    epsilon_target: Optional[float] = None

    @property
    def within_target(self) -> bool:
        return self.epsilon_target is None or _passes(self.sup, self.epsilon_target)


def certificate_slack(bound) -> float:
    """Uniform numeric slack added to every bound check."""
    return 1e-9 * (1.0 + float(bound))


def _passes(value, bound) -> bool:
    return float(value) <= float(bound) + certificate_slack(bound)


# Exact sums: frexp writes a finite float as m * 2**e with a 53-bit integer
# mantissa ldexp(m, 53); bincount sums the high and low 26-bit halves of the
# mantissas per exponent, exactly while it adds fewer than 2**26 values, and
# the bins fold into one integer that holds the sum times 2**_SCALE.
_EXP_BIAS = 1073  # frexp exponents of finite nonzero floats run from -1073 to 1024
_SCALE = _EXP_BIAS + 53
_HALF = 26
_EXACT_ROWS = (1 << _HALF) - 1


def _exact_total(values):
    """sum(values) * 2**_SCALE as an exact int, for finite float64 values."""
    total = 0
    for s in range(0, values.size, _EXACT_ROWS):
        m, e = np.frexp(values[s : s + _EXACT_ROWS])
        mant = np.ldexp(m, 53).astype(np.int64)
        e += _EXP_BIAS
        hi = np.bincount(e, weights=mant >> _HALF)
        lo = np.bincount(e, weights=mant & ((1 << _HALF) - 1))
        k = np.flatnonzero((hi != 0) | (lo != 0))
        for b, h, l in zip(k.tolist(), hi[k].tolist(), lo[k].tolist()):
            total += ((int(h) << _HALF) + int(l)) << b
    return total


def _summary(points, defects):
    """(size, sup, its point, exact total, non-finite count, first non-finite
    point) of one block of |defects|; value i belongs to row i % len(points)."""
    ab = np.abs(np.asarray(defects, dtype=float)).ravel()
    i = int(np.argmax(ab))  # the first NaN, else the first inf, else the max
    if math.isfinite(ab[i]):
        return ab.size, float(ab[i]), _row(points, i), _exact_total(ab), 0, ()
    bad = ~np.isfinite(ab)
    return ab.size, -1.0, (), 0, int(np.count_nonzero(bad)), _row(points, int(np.argmax(bad)))


def _row(points, i):
    return tuple(np.atleast_1d(points[i % len(points)]).tolist())


def _sweep(work, items, *, jobs=1, epsilon_target=None):
    """Reduce work(item) -> (points, defects) over items to one report.

    Each block is summarised where it is computed, in a worker thread when
    jobs > 1, so no defect array outlives its block.  Summaries are folded in
    item order: the sup keeps the first index, and the mean is the exact
    total, correctly rounded, over the sample count.
    """
    if jobs > 1:
        with ThreadPoolExecutor(max_workers=int(jobs)) as pool:
            summaries = list(pool.map(lambda item: _summary(*work(item)), items))
    else:
        summaries = (_summary(*work(item)) for item in items)
    size = total = bad = 0
    sup, point, bad_point = -1.0, (), ()
    for n, block_sup, block_point, block_total, block_bad, block_bad_point in summaries:
        size, total, bad = size + n, total + block_total, bad + block_bad
        if block_bad and not bad_point:
            bad_point = block_bad_point
        if block_sup > sup:
            sup, point = block_sup, block_point
    if bad:
        raise _non_finite(bad, size, bad_point)
    if size == 0:
        raise ConfigurationError("empty grid: nothing to sweep")
    return ResidualReport(
        sup=sup,
        mean=total / (1 << _SCALE) / size,
        argmax_point=point,
        samples=size,
        epsilon_target=epsilon_target,
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
    streamed _CHUNK rows a block.  Sweep them on one thread: a thread pool
    would submit, and so hold, every block at once."""
    grid = SimplexGrid(n, resolution, closed=closed)
    _within_budget(grid.count, budget)
    return (lambda P: (P, defect(P))), grid.iter_blocks(_CHUNK)


# ---------------------------------------------------------------------------
# defect kernels


def _one_function(fns):
    if isinstance(fns, (list, tuple)):
        if len(fns) != 1:
            raise ConfigurationError(
                f"this equation takes exactly one function, got {len(fns)}"
            )
        return fns[0]
    return fns


def _two_functions(fns):
    if not isinstance(fns, (list, tuple)) or len(fns) != 2:
        raise ConfigurationError("this equation takes exactly two functions")
    return fns


def _fundamental_kernel(f, alpha, grid):
    """defect(block) of FundamentalParametric(alpha) on a TriangleGrid.

    Every coordinate is k/R for a node index k in lo..R-1-lo (lo = 0 closed,
    1 open), so f(k/R) and (1 - k/R)^alpha come from node tables built once,
    before any block runs.  A block recovers its indices as rint(block * R),
    exactly, since |fl(k/R) R - k| <= k 2^-52 < 1/2; only the two quotients
    are evaluated per point, and every defect is the per-point expression's
    bit for bit.
    """
    r, lo = grid.resolution, 0 if grid.closed else 1
    nodes = np.arange(lo, r - lo) / float(r)
    try:
        fk = np.broadcast_to(f(nodes), nodes.shape)  # f may return a scalar
    except DomainError:
        # raise what the per-point sweep meets first: f at x, y/(1-x), y,
        # x/(1-y), block by block
        pts = grid.points
        for a, b in _spans(pts.shape[0]):
            x, y = pts[a:b, 0], pts[a:b, 1]
            for v in (x, np.minimum(y / (1.0 - x), 1.0), y, np.minimum(x / (1.0 - y), 1.0)):
                f(v)
        raise
    pk = pow0(1.0 - nodes, alpha)

    def defect(block):
        x, y = block[:, 0], block[:, 1]
        i = np.rint(x * r).astype(np.intp) - lo
        j = np.rint(y * r).astype(np.intp) - lo
        # on the closed edge x + y = 1 the quotients are 1 exactly but can
        # round above it; inside the triangle they stay at most 1 - 1/R
        return (
            fk[i]
            + pk[i] * f(np.minimum(y / (1.0 - x), 1.0))
            - fk[j]
            - pk[j] * f(np.minimum(x / (1.0 - y), 1.0))
        )

    return defect


def _unit_pairs(kind, grid, budget, keep="all"):
    """The (x, y) pairs of a UnitGrid's points, x-major, within budget: all of
    them, those with x + y in the grid's interval ("domain"), or those with
    x + y > 0 ("nonzero").  The closed-form count is checked first."""
    g = _expect_grid(grid, UnitGrid, type(kind).__name__)
    r, n = g.resolution, g.points.size
    if keep == "domain":
        count = (r + 1) * (r + 2) // 2 if g.closed else (r - 1) * (r - 2) // 2
    else:
        count = n * n - (keep == "nonzero" and g.closed)
    _within_budget(count, budget)
    x, y = np.meshgrid(g.points, g.points, indexing="ij")
    pts = np.stack([x.ravel(), y.ravel()], axis=1)
    if keep == "all":
        return pts
    s = pts[:, 0] + pts[:, 1]
    if keep == "nonzero":
        return pts[s > 0]
    return pts[s <= 1.0 + 1e-12 if g.closed else s < 1.0 - 1e-12]


def _cone_points(kind, grid, budget):
    """A ConeGrid's points, once its resolution**3 points fit the budget."""
    g = _expect_grid(grid, ConeGrid, type(kind).__name__)
    _within_budget(g.resolution**3, budget)
    return g.points


def product_distribution(p, q):
    """P*Q: the nm-coordinate product distribution (p_1 q_1 ... p_n q_m)."""
    p = np.atleast_2d(np.asarray(p, dtype=float))
    q = np.atleast_2d(np.asarray(q, dtype=float))
    out = p[:, :, None] * q[:, None, :]
    return out.reshape(p.shape[0], -1)


def _expect_grid(grid, cls, kind_name):
    if not isinstance(grid, cls):
        raise ConfigurationError(
            f"{kind_name} sweeps need a {cls.__name__}, got {type(grid).__name__}"
        )
    return grid


def _pair_blocks(gp, gq, budget, cross):
    """(work, spans) over the pair lattice of two simplex grids, within budget.
    work((a, b)) pairs the rows P[a:b] with every row of Q, P-major: a pair's
    point is its P row, then its Q row, and its defect comes from
    cross(a, b, prods), where prods[i, j] holds the coordinates of the product
    P[a + i] * Q[j].  A span holds about _CHUNK pairs and at least one row of P."""
    _within_budget(gp.count * gq.count, budget)
    P = gp.points
    Q = gq.points
    n = P.shape[1]

    def work(span):
        a, b = span
        prods = P[a:b, None, :, None] * Q[None, :, None, :]
        points = np.empty((b - a, len(Q), n + Q.shape[1]))
        points[:, :, :n] = P[a:b, None]
        points[:, :, n:] = Q
        defects = np.ravel(cross(a, b, prods.reshape(b - a, len(Q), -1)))
        return points.reshape(defects.size, -1), defects

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
    if isinstance(kind, SumFormAlpha):
        lam = 2.0 ** (1.0 - kind.alpha) - 1.0

    def cross(a, b, prods):
        c = np.sum(f(prods), axis=2)
        if isinstance(kind, SumFormAdditive):
            return c - fp[a:b, None] - fq[None, :]
        if isinstance(kind, SumFormAlpha):
            return c - fp[a:b, None] - fq[None, :] - lam * fp[a:b, None] * fq[None, :]
        return c - fp[a:b, None] * fq[None, :]

    blocks = _pair_blocks(gp, gq, budget, cross)
    fp = np.sum(np.asarray(f(gp.points)), axis=1)
    fq = np.sum(np.asarray(f(gq.points)), axis=1)
    return blocks


def _defect_and_points(kind, fns, grid, budget):
    """Return (points, defect_fn) for the single-matrix equation kinds, within
    budget.  The triangle, cone and unit-pair kinds check the closed-form
    count of their points before they build them."""
    if isinstance(kind, FundamentalParametric):
        f = _one_function(fns)
        g = _expect_grid(grid, TriangleGrid, "FundamentalParametric")
        _within_budget(g.count, budget)
        pts = g.points
        defect = _fundamental_kernel(f, kind.alpha, g)
    elif isinstance(kind, Cocycle):
        F = _one_function(fns)
        pts = _cone_points(kind, grid, budget)

        def defect(pts):
            x, y, z = pts[:, 0], pts[:, 1], pts[:, 2]
            return F(x + y, z) + F(x, y) - F(x, y + z) - F(y, z)

    elif isinstance(kind, EntropyEq):
        H = _one_function(fns)
        pts = _cone_points(kind, grid, budget)

        def defect(pts):
            x, y, z = pts[:, 0], pts[:, 1], pts[:, 2]
            zero = np.zeros_like(x)
            return H(x, y, z) - H(x + y, zero, z) - H(x, y, zero)

    elif isinstance(kind, ModifiedEntropy):
        f = _one_function(fns)
        pts = _cone_points(kind, grid, budget)
        a = kind.alpha

        def defect(pts):
            x, y, z = pts[:, 0], pts[:, 1], pts[:, 2]
            s = y + z
            zero = np.zeros_like(x)
            return (
                f(x, y, z)
                - f(x, s, zero)
                - pow0(s, a) * f(zero, y / s, z / s)
            )

    elif isinstance(kind, CauchyAdditive):
        f = _one_function(fns)
        pts = _unit_pairs(kind, grid, budget, "domain")
        defect = lambda p: f(p[:, 0] + p[:, 1]) - f(p[:, 0]) - f(p[:, 1])
    elif isinstance(kind, Multiplicative):
        f = _one_function(fns)
        pts = _unit_pairs(kind, grid, budget)
        defect = lambda p: f(p[:, 0] * p[:, 1]) - f(p[:, 0]) * f(p[:, 1])
    elif isinstance(kind, Logarithmic):
        f = _one_function(fns)
        pts = _unit_pairs(kind, grid, budget)
        defect = lambda p: f(p[:, 0] * p[:, 1]) - f(p[:, 0]) - f(p[:, 1])
    elif isinstance(kind, PhiEquation):
        f = _one_function(fns)
        pts = _unit_pairs(kind, grid, budget)

        def defect(p):
            x, y = p[:, 0], p[:, 1]
            return f(x * y) - x * f(y) - y * f(x)

    elif isinstance(kind, DaroczyIdentity):
        f, phi = _two_functions(fns)
        pts = _unit_pairs(kind, grid, budget, "nonzero")

        def defect(p):
            x, y = p[:, 0], p[:, 1]
            s = x + y
            return s * f(y / s) - (phi(x) + phi(y) - phi(s))

    elif isinstance(kind, InfoFunctionForm):
        f, phi = _two_functions(fns)
        pts = _expect_grid(grid, UnitGrid, "InfoFunctionForm").points[:, None]
        _within_budget(pts.shape[0], budget)

        def defect(p):
            x = p[:, 0]
            return f(x) - phi(x) - phi(1.0 - x)

    else:
        raise ConfigurationError(f"unknown equation kind {kind!r}")
    return pts, defect


def _blocks(kind, fns, grid, budget):
    """The (work, items) of one equation's defect sweep over a grid, within budget."""
    if isinstance(kind, (SumFormAdditive, SumFormAlpha, SumFormMultiplicative)):
        return _sum_form_blocks(kind, _one_function(fns), grid, budget)
    return _row_blocks(*_defect_and_points(kind, fns, grid, budget))


def residual(
    kind,
    fns,
    grid,
    *,
    jobs: int = 1,
    budget: int = 10**7,
    epsilon_target: Optional[float] = None,
) -> ResidualReport:
    """Sweep one equation's defect over a grid and reduce it to a report."""
    work, items = _blocks(kind, fns, grid, budget)
    return _sweep(work, items, jobs=jobs, epsilon_target=epsilon_target)


def _write_defect_rows(fh, pts, defects):
    """Write one CSV row per point: its coordinates, then its defect, all %.17g.

    Lattice coordinates repeat across a block, so each distinct value is
    formatted once; values are keyed on their bit pattern so that -0.0 and
    0.0 keep their own text.
    """
    pts = np.ascontiguousarray(pts, dtype=np.float64)
    rows, d = pts.shape
    keys, inverse = np.unique(pts.view(np.uint64).ravel(), return_inverse=True)
    text = np.array(["%.17g" % v for v in keys.view(np.float64).tolist()], dtype=object)
    args = np.empty((rows, d + 1), dtype=object)
    args[:, :d] = text[inverse.reshape(rows, d)]
    args[:, d] = np.asarray(defects, dtype=np.float64).tolist()
    fh.write((("%s," * d + "%.17g\n") * rows) % tuple(args.ravel().tolist()))


def dump_defects_csv(kind, fns, grid, path, *, budget: int = 10**7):
    """Stream per-point defects to CSV (point coordinates, then the defect);
    the budget is checked before the file is opened."""
    work, items = _blocks(kind, fns, grid, budget)
    with open(path, "w") as fh:
        for item in items:
            _write_defect_rows(fh, *work(item))


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


def symmetry_residual(F: TernaryFunction, grid: ConeGrid, *, jobs: int = 1) -> ResidualReport:
    """sup over all six argument permutations of |F(P) - F(sigma P)|."""
    pts = _expect_grid(grid, ConeGrid, "symmetry").points

    def gaps(block):
        # _PERMS3 starts with the identity, whose values are the base
        vals = [np.asarray(F(*(block[:, i] for i in perm))) for perm in _PERMS3]
        return np.concatenate([v - vals[0] for v in vals])

    return _sweep(*_row_blocks(pts, gaps), jobs=jobs)


def homogeneity_residual(
    F: BivariateFunction,
    alpha,
    grid: PairGrid,
    t_set=(0.25, 0.5, 2.0, 4.0),
    *,
    jobs: int = 1,
) -> ResidualReport:
    """sup over scales t and grid pairs of |F(tu, tv) - t^alpha F(u, v)|."""
    a = Alpha.of(alpha).value
    pts = _expect_grid(grid, PairGrid, "homogeneity").points
    ts = [float(t) for t in t_set]
    if not ts or any(t <= 0 for t in ts):
        raise ConfigurationError("t_set must hold strictly positive scales")

    def gaps(block):
        u, v = block[:, 0], block[:, 1]
        base = np.asarray(F(u, v))
        return np.concatenate([np.asarray(F(t * u, t * v)) - (t**a) * base for t in ts])

    return _sweep(*_row_blocks(pts, gaps), jobs=jobs)
