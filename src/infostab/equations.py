"""Functional-equation registry and the residual sweep engine.

A residual sweep evaluates one equation's defect over a finite grid and
reduces it to a report (exact sup, compensated mean, argmax point).  Defects
are computed in fixed-size blocks so the reduction is bit-identical for any
worker count: block boundaries depend only on a constant chunk size, blocks
are reassembled in order, the max is exact with a first-index tie-break and
the mean is a single compensated summation over the ordered values.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .domains import ConeGrid, PairGrid, SimplexGrid, TriangleGrid, UnitGrid, pow0
from .errors import BudgetExceededError, ConfigurationError
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


def _parallel_blocks(worker, count, jobs):
    """Run worker(start, stop) over fixed chunks, in order, possibly threaded."""
    spans = [(s, min(s + _CHUNK, count)) for s in range(0, count, _CHUNK)]
    if jobs <= 1 or len(spans) <= 1:
        return [worker(a, b) for a, b in spans]
    with ThreadPoolExecutor(max_workers=int(jobs)) as pool:
        futs = [pool.submit(worker, a, b) for a, b in spans]
        return [f.result() for f in futs]


def _reduce(points_for, defect_blocks, samples, epsilon_target):
    sup = -1.0
    arg_idx = -1
    offset = 0
    abs_blocks = []
    for block in defect_blocks:
        ab = np.abs(block)
        abs_blocks.append(ab)
        if ab.size:
            i = int(np.argmax(ab))
            if float(ab[i]) > sup:
                sup = float(ab[i])
                arg_idx = offset + i
        offset += ab.size
    if offset == 0:
        raise ConfigurationError("empty grid: nothing to sweep")
    mean = math.fsum(np.concatenate(abs_blocks).tolist()) / offset
    point = points_for(arg_idx)
    return ResidualReport(
        sup=sup,
        mean=mean,
        argmax_point=tuple(float(c) for c in np.atleast_1d(point)),
        samples=samples,
        epsilon_target=epsilon_target,
    )


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


def _expect_simplex_pair(grid, kind, budget):
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
    pairs = gp.count * gq.count
    if pairs > budget:
        raise BudgetExceededError(
            f"{pairs} distribution pairs exceed the pair budget of {budget}"
        )
    return gp, gq


def _sum_form_blocks(kind, f, grid, budget):
    """Return (P, Q, spans, worker): worker(a, b) is the defect of rows P[a:b]
    against every row of Q, flattened P-major."""
    gp, gq = _expect_simplex_pair(grid, kind, budget)
    P = gp.points
    Q = gq.points
    fp = np.sum(np.asarray(f(P)), axis=1)
    fq = np.sum(np.asarray(f(Q)), axis=1)
    if isinstance(kind, SumFormAlpha):
        lam = 2.0 ** (1.0 - kind.alpha) - 1.0
    rows_per_block = max(1, _CHUNK // max(1, Q.shape[0]))

    def worker(a, b):
        prods = P[a:b, None, :, None] * Q[None, :, None, :]
        cross = np.sum(f(prods.reshape(b - a, Q.shape[0], -1)), axis=2)
        if isinstance(kind, SumFormAdditive):
            d = cross - fp[a:b, None] - fq[None, :]
        elif isinstance(kind, SumFormAlpha):
            d = cross - fp[a:b, None] - fq[None, :] - lam * fp[a:b, None] * fq[None, :]
        else:
            d = cross - fp[a:b, None] * fq[None, :]
        return d.ravel()

    spans = [
        (s, min(s + rows_per_block, P.shape[0]))
        for s in range(0, P.shape[0], rows_per_block)
    ]
    return P, Q, spans, worker


def _sum_form_sweep(kind, f, grid, budget, jobs, epsilon_target):
    P, Q, spans, worker = _sum_form_blocks(kind, f, grid, budget)
    if jobs <= 1 or len(spans) <= 1:
        blocks = [worker(a, b) for a, b in spans]
    else:
        with ThreadPoolExecutor(max_workers=int(jobs)) as pool:
            blocks = [fut.result() for fut in [pool.submit(worker, a, b) for a, b in spans]]

    def point_for(idx):
        i, j = divmod(idx, Q.shape[0])
        return np.concatenate([P[i], Q[j]])

    return _reduce(point_for, blocks, P.shape[0] * Q.shape[0], epsilon_target)


def _defect_and_points(kind, fns, grid, budget):
    """Return (points, defect_fn) for the single-matrix equation kinds."""
    if isinstance(kind, FundamentalParametric):
        f = _one_function(fns)
        g = _expect_grid(grid, TriangleGrid, "FundamentalParametric")
        return g.points, lambda pts: _fundamental_defect(f, kind.alpha, pts)
    if isinstance(kind, Cocycle):
        F = _one_function(fns)
        g = _expect_grid(grid, ConeGrid, "Cocycle")

        def defect(pts):
            x, y, z = pts[:, 0], pts[:, 1], pts[:, 2]
            return F(x + y, z) + F(x, y) - F(x, y + z) - F(y, z)

        return g.points, defect
    if isinstance(kind, EntropyEq):
        H = _one_function(fns)
        g = _expect_grid(grid, ConeGrid, "EntropyEq")

        def defect(pts):
            x, y, z = pts[:, 0], pts[:, 1], pts[:, 2]
            zero = np.zeros_like(x)
            return H(x, y, z) - H(x + y, zero, z) - H(x, y, zero)

        return g.points, defect
    if isinstance(kind, ModifiedEntropy):
        f = _one_function(fns)
        g = _expect_grid(grid, ConeGrid, "ModifiedEntropy")
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

        return g.points, defect
    if isinstance(kind, CauchyAdditive):
        f = _one_function(fns)
        g = _expect_grid(grid, UnitGrid, "CauchyAdditive")
        pts = _pairs_in_domain(g)
        return pts, lambda p: f(p[:, 0] + p[:, 1]) - f(p[:, 0]) - f(p[:, 1])
    if isinstance(kind, Multiplicative):
        f = _one_function(fns)
        g = _expect_grid(grid, UnitGrid, "Multiplicative")
        pts = _all_pairs(g)
        return pts, lambda p: f(p[:, 0] * p[:, 1]) - f(p[:, 0]) * f(p[:, 1])
    if isinstance(kind, Logarithmic):
        f = _one_function(fns)
        g = _expect_grid(grid, UnitGrid, "Logarithmic")
        pts = _all_pairs(g)
        return pts, lambda p: f(p[:, 0] * p[:, 1]) - f(p[:, 0]) - f(p[:, 1])
    if isinstance(kind, PhiEquation):
        f = _one_function(fns)
        g = _expect_grid(grid, UnitGrid, "PhiEquation")
        pts = _all_pairs(g)

        def defect(p):
            x, y = p[:, 0], p[:, 1]
            return f(x * y) - x * f(y) - y * f(x)

        return pts, defect
    if isinstance(kind, DaroczyIdentity):
        f, phi = _two_functions(fns)
        g = _expect_grid(grid, UnitGrid, "DaroczyIdentity")
        pts = _all_pairs(g)
        pts = pts[(pts[:, 0] + pts[:, 1]) > 0]

        def defect(p):
            x, y = p[:, 0], p[:, 1]
            s = x + y
            return s * f(y / s) - (phi(x) + phi(y) - phi(s))

        return pts, defect
    if isinstance(kind, InfoFunctionForm):
        f, phi = _two_functions(fns)
        g = _expect_grid(grid, UnitGrid, "InfoFunctionForm")
        pts = g.points[:, None]

        def defect(p):
            x = p[:, 0]
            return f(x) - phi(x) - phi(1.0 - x)

        return pts, defect
    raise ConfigurationError(f"unknown equation kind {kind!r}")


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
        f = _one_function(fns)
        return _sum_form_sweep(kind, f, grid, budget, jobs, epsilon_target)
    pts, defect = _defect_and_points(kind, fns, grid, budget)
    if pts.shape[0] > budget:
        raise BudgetExceededError(
            f"{pts.shape[0]} grid points exceed the budget of {budget}"
        )
    blocks = _parallel_blocks(lambda a, b: defect(pts[a:b]), pts.shape[0], jobs)
    return _reduce(lambda i: pts[i], blocks, pts.shape[0], epsilon_target)


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
    """Stream per-point defects to CSV (point coordinates, then the defect)."""
    with open(path, "w") as fh:
        if isinstance(kind, (SumFormAdditive, SumFormAlpha, SumFormMultiplicative)):
            P, Q, spans, worker = _sum_form_blocks(kind, _one_function(fns), grid, budget)
            for a, b in spans:
                pts = np.hstack([np.repeat(P[a:b], Q.shape[0], axis=0), np.tile(Q, (b - a, 1))])
                _write_defect_rows(fh, pts, worker(a, b))
            return
        pts, defect = _defect_and_points(kind, fns, grid, budget)
        for a in range(0, pts.shape[0], _CHUNK):
            block = pts[a : a + _CHUNK]
            _write_defect_rows(fh, block, defect(block))


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
    g = _expect_grid(grid, ConeGrid, "symmetry")
    pts = g.points
    base = np.asarray(F(pts[:, 0], pts[:, 1], pts[:, 2]))

    def worker(a, b):
        chunk = pts[a:b]
        cols = []
        for perm in _PERMS3:
            v = np.asarray(F(chunk[:, perm[0]], chunk[:, perm[1]], chunk[:, perm[2]]))
            cols.append(v - base[a:b])
        return np.concatenate(cols)

    blocks = _parallel_blocks(worker, pts.shape[0], jobs)

    def point_for(idx):
        n = pts.shape[0]
        # blocks interleave per chunk: chunk index, then permutation, then row
        chunk_sizes = [min(_CHUNK, n - s) for s in range(0, n, _CHUNK)]
        off = 0
        for ci, size in enumerate(chunk_sizes):
            span = size * len(_PERMS3)
            if idx < off + span:
                local = idx - off
                row = local % size
                return pts[ci * _CHUNK + row]
            off += span
        raise IndexError(idx)

    return _reduce(point_for, blocks, pts.shape[0] * len(_PERMS3), None)


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

    def worker(a0, b0):
        chunk = pts[a0:b0]
        cols = []
        for t in ts:
            v = np.asarray(F(t * chunk[:, 0], t * chunk[:, 1]))
            cols.append(v - (t**a) * base[a0:b0])
        return np.concatenate(cols)

    blocks = _parallel_blocks(worker, pts.shape[0], jobs)

    def point_for(idx):
        n = pts.shape[0]
        chunk_sizes = [min(_CHUNK, n - s) for s in range(0, n, _CHUNK)]
        off = 0
        for ci, size in enumerate(chunk_sizes):
            span = size * len(ts)
            if idx < off + span:
                local = idx - off
                row = local % size
                return pts[ci * _CHUNK + row]
            off += span
        raise IndexError(idx)

    return _reduce(point_for, blocks, pts.shape[0] * len(ts), None)
