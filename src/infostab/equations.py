"""Functional-equation registry and the residual sweep engine.

A residual sweep evaluates one equation's defect over a finite grid and
reduces it to a report (exact sup, exactly rounded mean, argmax point).
Defects are computed and summarised in fixed-size blocks, so the report is
bit-identical for any worker count: the max is exact with a first-index
tie-break, and the mean is the exact sum of |defect| as an integer, rounded
once, so it matches ``math.fsum`` bit for bit and does not depend on block
order.  A NaN or infinite defect raises NonFiniteDefectError.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .domains import ConeGrid, PairGrid, SimplexGrid, TriangleGrid, UnitGrid, pow0
from .errors import BudgetExceededError, ConfigurationError, NonFiniteDefectError
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

_CHUNK = 1 << 15


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
        if self.epsilon_target is None:
            return True
        return self.sup <= self.epsilon_target + 1e-9 * (1.0 + self.epsilon_target)


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


def _summary(defects, point_at):
    """(size, sup, its point, exact total, non-finite count, first non-finite
    point) of one block of |defects|; point_at(i) is the point of value i."""
    ab = np.abs(np.asarray(defects, dtype=float)).ravel()
    i = int(np.argmax(ab))  # the first NaN, else the first inf, else the max
    if not math.isfinite(ab[i]):
        bad = ~np.isfinite(ab)
        first = tuple(np.atleast_1d(point_at(int(np.argmax(bad)))).tolist())
        return ab.size, -1.0, (), 0, int(np.count_nonzero(bad)), first
    point = tuple(np.atleast_1d(point_at(i)).tolist())
    return ab.size, float(ab[i]), point, _exact_total(ab), 0, ()


def _sweep(worker, items, *, jobs=1, epsilon_target=None):
    """Reduce worker(item) -> (defects, point_at) over items to one report.

    Each block is summarised where it is computed, in a worker thread when
    jobs > 1, so no defect array outlives its block.  Summaries are folded in
    item order: the sup keeps the first index, and the mean is the exact
    total, correctly rounded, over the sample count.
    """
    if jobs > 1:
        with ThreadPoolExecutor(max_workers=int(jobs)) as pool:
            summaries = list(pool.map(lambda item: _summary(*worker(item)), items))
    else:
        summaries = (_summary(*worker(item)) for item in items)
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


def _spans(count, step=_CHUNK):
    """Consecutive (start, stop) spans of at most step rows covering range(count)."""
    return [(s, min(s + step, count)) for s in range(0, count, step)]


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


def _fundamental_defect(f, alpha, pts):
    x = pts[:, 0]
    y = pts[:, 1]
    rx = 1.0 - x
    ry = 1.0 - y
    # on the closed edge x + y = 1 the quotients are 1 exactly but can round
    # above it; inside the triangle they stay at most 1 - 1/R
    return (
        f(x)
        + pow0(rx, alpha) * f(np.minimum(y / rx, 1.0))
        - f(y)
        - pow0(ry, alpha) * f(np.minimum(x / ry, 1.0))
    )


def _pairs_in_domain(grid: UnitGrid):
    pts = grid.points
    x, y = np.meshgrid(pts, pts, indexing="ij")
    x = x.ravel()
    y = y.ravel()
    s = x + y
    keep = s <= 1.0 + 1e-12 if grid.closed else s < 1.0 - 1e-12
    return np.stack([x[keep], y[keep]], axis=1)


def _all_pairs(grid: UnitGrid):
    pts = grid.points
    x, y = np.meshgrid(pts, pts, indexing="ij")
    return np.stack([x.ravel(), y.ravel()], axis=1)


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
    """(P, Q, spans, worker) of the pair lattice of two simplex grids, within
    budget: worker(a, b) is cross(a, b, prods), flattened P-major, where
    prods[i, j] holds the coordinates of the product P[a + i] * Q[j].  A span
    holds about _CHUNK pairs and at least one row of P."""
    pairs = gp.count * gq.count
    if pairs > budget:
        raise BudgetExceededError(
            f"{pairs} distribution pairs exceed the budget of {budget}"
        )
    P = gp.points
    Q = gq.points

    def worker(a, b):
        prods = P[a:b, None, :, None] * Q[None, :, None, :]
        return np.ravel(cross(a, b, prods.reshape(b - a, Q.shape[0], -1)))

    return P, Q, _spans(P.shape[0], max(1, _CHUNK // len(Q))), worker


def _pair_sweep(P, Q, spans, worker, **kwargs):
    """_sweep over _pair_blocks; a pair's point is its P row, then its Q row."""
    nq = Q.shape[0]

    def block(span):
        a, b = span
        return worker(a, b), lambda k: np.concatenate([P[a + k // nq], Q[k % nq]])

    return _sweep(block, spans, **kwargs)


def _sum_form_blocks(kind, f, grid, budget):
    """Return (P, Q, spans, worker): worker(a, b) is the defect of rows P[a:b]
    against every row of Q, flattened P-major."""
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

    P, Q, spans, worker = _pair_blocks(gp, gq, budget, cross)
    fp = np.sum(np.asarray(f(P)), axis=1)
    fq = np.sum(np.asarray(f(Q)), axis=1)
    return P, Q, spans, worker


def _defect_and_points(kind, fns, grid, budget):
    """Return (points, defect_fn) for the single-matrix equation kinds, within budget."""
    if isinstance(kind, FundamentalParametric):
        f = _one_function(fns)
        pts = _expect_grid(grid, TriangleGrid, "FundamentalParametric").points
        defect = lambda p: _fundamental_defect(f, kind.alpha, p)
    elif isinstance(kind, Cocycle):
        F = _one_function(fns)
        pts = _expect_grid(grid, ConeGrid, "Cocycle").points

        def defect(pts):
            x, y, z = pts[:, 0], pts[:, 1], pts[:, 2]
            return F(x + y, z) + F(x, y) - F(x, y + z) - F(y, z)

    elif isinstance(kind, EntropyEq):
        H = _one_function(fns)
        pts = _expect_grid(grid, ConeGrid, "EntropyEq").points

        def defect(pts):
            x, y, z = pts[:, 0], pts[:, 1], pts[:, 2]
            zero = np.zeros_like(x)
            return H(x, y, z) - H(x + y, zero, z) - H(x, y, zero)

    elif isinstance(kind, ModifiedEntropy):
        f = _one_function(fns)
        pts = _expect_grid(grid, ConeGrid, "ModifiedEntropy").points
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
        g = _expect_grid(grid, UnitGrid, "CauchyAdditive")
        pts = _pairs_in_domain(g)
        defect = lambda p: f(p[:, 0] + p[:, 1]) - f(p[:, 0]) - f(p[:, 1])
    elif isinstance(kind, Multiplicative):
        f = _one_function(fns)
        g = _expect_grid(grid, UnitGrid, "Multiplicative")
        pts = _all_pairs(g)
        defect = lambda p: f(p[:, 0] * p[:, 1]) - f(p[:, 0]) * f(p[:, 1])
    elif isinstance(kind, Logarithmic):
        f = _one_function(fns)
        g = _expect_grid(grid, UnitGrid, "Logarithmic")
        pts = _all_pairs(g)
        defect = lambda p: f(p[:, 0] * p[:, 1]) - f(p[:, 0]) - f(p[:, 1])
    elif isinstance(kind, PhiEquation):
        f = _one_function(fns)
        g = _expect_grid(grid, UnitGrid, "PhiEquation")
        pts = _all_pairs(g)

        def defect(p):
            x, y = p[:, 0], p[:, 1]
            return f(x * y) - x * f(y) - y * f(x)

    elif isinstance(kind, DaroczyIdentity):
        f, phi = _two_functions(fns)
        g = _expect_grid(grid, UnitGrid, "DaroczyIdentity")
        pts = _all_pairs(g)
        pts = pts[(pts[:, 0] + pts[:, 1]) > 0]

        def defect(p):
            x, y = p[:, 0], p[:, 1]
            s = x + y
            return s * f(y / s) - (phi(x) + phi(y) - phi(s))

    elif isinstance(kind, InfoFunctionForm):
        f, phi = _two_functions(fns)
        g = _expect_grid(grid, UnitGrid, "InfoFunctionForm")
        pts = g.points[:, None]

        def defect(p):
            x = p[:, 0]
            return f(x) - phi(x) - phi(1.0 - x)

    else:
        raise ConfigurationError(f"unknown equation kind {kind!r}")
    if pts.shape[0] > budget:
        raise BudgetExceededError(f"{pts.shape[0]} grid points exceed the budget of {budget}")
    return pts, defect


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
    if isinstance(kind, (SumFormAdditive, SumFormAlpha, SumFormMultiplicative)):
        blocks = _sum_form_blocks(kind, _one_function(fns), grid, budget)
        return _pair_sweep(*blocks, jobs=jobs, epsilon_target=epsilon_target)
    pts, defect = _defect_and_points(kind, fns, grid, budget)

    def block(span):
        return defect(pts[span[0] : span[1]]), lambda i: pts[span[0] + i]

    return _sweep(block, _spans(pts.shape[0]), jobs=jobs, epsilon_target=epsilon_target)


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
    if isinstance(kind, (SumFormAdditive, SumFormAlpha, SumFormMultiplicative)):
        P, Q, spans, worker = _sum_form_blocks(kind, _one_function(fns), grid, budget)
        tiles = ((np.hstack([np.repeat(P[a:b], len(Q), axis=0), np.tile(Q, (b - a, 1))]),
                  worker(a, b)) for a, b in spans)
    else:
        pts, defect = _defect_and_points(kind, fns, grid, budget)
        tiles = ((pts[a : a + _CHUNK], defect(pts[a : a + _CHUNK]))
                 for a in range(0, pts.shape[0], _CHUNK))
    with open(path, "w") as fh:
        for block, defects in tiles:
            _write_defect_rows(fh, block, defects)


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


def _stacked_point(pts, width, idx):
    """The point behind flat defect index idx of a sweep whose blocks stack
    ``width`` variants of each _CHUNK rows: chunk, then variant, then row.
    idx = -1 maps to the last row of the first chunk."""
    chunk = max(idx, 0) // (_CHUNK * width)
    local = idx - chunk * _CHUNK * width
    return pts[chunk * _CHUNK + local % min(_CHUNK, pts.shape[0] - chunk * _CHUNK)]


def symmetry_residual(F: TernaryFunction, grid: ConeGrid, *, jobs: int = 1) -> ResidualReport:
    """sup over all six argument permutations of |F(P) - F(sigma P)|."""
    g = _expect_grid(grid, ConeGrid, "symmetry")
    pts = g.points
    base = np.asarray(F(pts[:, 0], pts[:, 1], pts[:, 2]))

    width = len(_PERMS3)

    def block(span):
        a, b = span
        chunk = pts[a:b]
        cols = []
        for perm in _PERMS3:
            v = np.asarray(F(chunk[:, perm[0]], chunk[:, perm[1]], chunk[:, perm[2]]))
            cols.append(v - base[a:b])
        return np.concatenate(cols), lambda i: _stacked_point(pts, width, a * width + i)

    return _sweep(block, _spans(pts.shape[0]), jobs=jobs)


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
    g = _expect_grid(grid, PairGrid, "homogeneity")
    pts = g.points
    base = np.asarray(F(pts[:, 0], pts[:, 1]))
    ts = [float(t) for t in t_set]
    if not ts or any(t <= 0 for t in ts):
        raise ConfigurationError("t_set must hold strictly positive scales")

    def block(span):
        a0, b0 = span
        chunk = pts[a0:b0]
        cols = []
        for t in ts:
            v = np.asarray(F(t * chunk[:, 0], t * chunk[:, 1]))
            cols.append(v - (t**a) * base[a0:b0])
        return np.concatenate(cols), lambda i: _stacked_point(pts, len(ts), a0 * len(ts) + i)

    return _sweep(block, _spans(pts.shape[0]), jobs=jobs)
