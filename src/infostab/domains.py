"""Sample grids for every domain the residual and certifier sweeps use, plus
the zero-probability evaluation conventions.

All grids are rational lattices with step 1/resolution.  That keeps sweeps
reproducible, makes refinement nesting exact in floating point (k/R and
2k/(2R) round identically), and guarantees that the anchor 1/2 is a node
whenever the resolution is even.  Point arrays are materialised once per grid
and returned read-only, so grids are safe to share across threads.

Conventions (applied uniformly, for every exponent alpha):

    0 * log2(0) = 0        0 / (0 + 0) = 0        0 ** alpha = 0
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import (
    BudgetExceededError,
    ConfigurationError,
    DomainError,
    InvalidResolutionError,
)

__all__ = [
    "pow0",
    "xlog2",
    "ratio0",
    "UnitGrid",
    "TriangleGrid",
    "SimplexGrid",
    "ConeGrid",
    "PairGrid",
    "grid_to_csv",
]


# ---------------------------------------------------------------------------
# conventions


def pow0(x, alpha):
    """x**alpha with the convention 0**alpha == 0 for every alpha.

    Negative bases are a domain error; everything in this library lives on
    nonnegative coordinates.
    """
    arr = np.asarray(x, dtype=float)
    if arr.size and float(arr.min()) < 0.0:
        bad = float(arr[arr < 0].flat[0])
        raise DomainError(f"negative base {bad!r} in convention power")
    with np.errstate(divide="ignore"):
        out = np.power(arr, alpha)
    # also for alpha > 0, where np.power(-0.0, 3.0) is -0.0
    zero = arr == 0.0
    if zero.any():
        out = np.where(zero, 0.0, out)
    if np.ndim(x) == 0:
        return float(out)
    return out


def xlog2(x):
    """x * log2(x) with the convention 0 * log2(0) == 0."""
    arr = np.asarray(x, dtype=float)
    if arr.size and float(arr.min()) < 0.0:
        bad = float(arr[arr < 0].flat[0])
        raise DomainError(f"negative argument {bad!r} in x*log2(x) convention")
    safe = np.where(arr == 0.0, 1.0, arr)
    out = np.where(arr == 0.0, 0.0, arr * np.log2(safe))
    if np.ndim(x) == 0:
        return float(out)
    return out


def ratio0(num, den):
    """num/den with the convention 0/(0+0) == 0 (zero numerator and denominator)."""
    num_arr = np.asarray(num, dtype=float)
    den_arr = np.asarray(den, dtype=float)
    both_zero = (num_arr == 0.0) & (den_arr == 0.0)
    if np.any((den_arr == 0.0) & ~both_zero):
        raise DomainError("zero denominator with nonzero numerator")
    safe = np.where(both_zero, 1.0, den_arr)
    out = np.where(both_zero, 0.0, num_arr / safe)
    if np.ndim(num) == 0 and np.ndim(den) == 0:
        return float(out)
    return out


# ---------------------------------------------------------------------------
# grids


def _freeze(arr):
    arr.flags.writeable = False
    return arr


def _compositions(prefix, rem, parts, lo):
    """Integer columns of every way to split ``rem[i]`` into ``parts`` parts of
    at least ``lo`` after the fixed leading parts ``prefix[j][i]``, prefix by
    prefix in lexicographic order (Knuth, TAOCP 4A, 7.2.1.3)."""
    cols = list(prefix)
    for t in range(parts - 1, 0, -1):
        # the next part runs over lo .. rem - lo*t, leaving t parts to place
        counts = rem - lo * (t + 1) + 1
        starts = np.cumsum(counts) - counts
        k = np.arange(lo, int(starts[-1] + counts[-1]) + lo) - np.repeat(starts, counts)
        cols = [np.repeat(c, counts) for c in cols] + [k]
        rem = np.repeat(rem, counts) - k
    return cols + [rem]


def _scaled(cols, resolution):
    """Stack integer columns into a C-ordered point matrix divided by R."""
    out = np.empty((cols[0].size, len(cols)))
    for j, c in enumerate(cols):
        out[:, j] = c
    return np.divide(out, float(resolution), out=out)


class _CsvMixin:
    def to_csv(self, path):
        grid_to_csv(self.points, path)


@dataclass(frozen=True)
class UnitGrid(_CsvMixin):
    """Lattice on the unit interval: {k/R} with k = 1..R-1, or 0..R when closed."""

    resolution: int
    closed: bool = False

    def __post_init__(self):
        if self.resolution < 2:
            raise InvalidResolutionError(
                f"unit grid needs resolution >= 2, got {self.resolution}"
            )

    @cached_property
    def points(self):
        r = self.resolution
        ks = np.arange(0, r + 1) if self.closed else np.arange(1, r)
        return _freeze(ks / float(r))


@dataclass(frozen=True)
class TriangleGrid(_CsvMixin):
    """Lattice on the triangle domain of the two-variable functional equation.

    Open variant: x, y and x+y all in (0,1), i.e. i,j >= 1 with i+j <= R-1.
    Closed variant: x, y in [0,1) with x+y <= 1 (the asymmetric closure that
    keeps 1-x and 1-y positive), i.e. i,j <= R-1 with i+j <= R.
    """

    resolution: int
    closed: bool = False

    def __post_init__(self):
        least = 2 if self.closed else 3
        if self.resolution < least:
            raise InvalidResolutionError(
                f"triangle grid ({'closed' if self.closed else 'open'}) needs "
                f"resolution >= {least}, got {self.resolution}"
            )

    @cached_property
    def points(self):
        # (i, j) are the leading parts of the 3-part compositions of R; the
        # closed variant drops the corners (0, R) and (R, 0)
        r = self.resolution
        cols = _compositions([], np.array([r]), 3, 0 if self.closed else 1)[:2]
        if self.closed:
            cols = [np.delete(c, [r, c.size - 1]) for c in cols]
        return _freeze(_scaled(cols, r))


@dataclass(frozen=True)
class SimplexGrid(_CsvMixin):
    """Lattice on the probability simplex with n coordinates.

    Open variant: all coordinates k_i/R with k_i >= 1 (strict interior).
    Closed variant: k_i >= 0.  Points are ordered lexicographically in the
    integer compositions (k_1, ..., k_n), so the first coordinate is
    nondecreasing.  ``points`` materialises the lattice within ``budget``;
    ``iter_blocks(rows)`` streams the same points, bit for bit and in the same
    order, as blocks of 1..rows rows whose working memory stays within a small
    multiple of ``rows * n * 8`` bytes at any lattice size.
    """

    n: int
    resolution: int
    closed: bool = False
    budget: int = 10**6

    def __post_init__(self):
        if self.n < 2:
            raise InvalidResolutionError(f"simplex needs n >= 2, got {self.n}")
        least = 1 if self.closed else self.n
        if self.resolution < least:
            raise InvalidResolutionError(
                f"simplex grid needs resolution >= {least} for n={self.n}, "
                f"got {self.resolution}"
            )

    @property
    def count(self):
        r, n = self.resolution, self.n
        if self.closed:
            return math.comb(r + n - 1, n - 1)
        return math.comb(r - 1, n - 1)

    def _blocks(self, rows, prefix=()):
        """The lattice points under a fixed leading ``prefix``, in order, as
        blocks of 1..rows points.  The points under one longer prefix form a
        group of closed-form size; a group larger than ``rows`` is split on
        its next coordinate, and runs of consecutive groups that fit are
        packed together.  At most ``rows`` next values are held at a time."""
        lo = 0 if self.closed else 1
        m, parts = self.resolution - sum(prefix), self.n - len(prefix) - 1

        def run(k):
            cols = [np.full(k.size, v) for v in prefix] + [k]
            return _scaled(_compositions(cols, m - k, parts, lo), self.resolution)

        top = m - lo * parts
        for first in range(lo, top + 1, rows):
            k = np.arange(first, min(first + rows, top + 1))
            start = held = 0
            for i, x in enumerate((m - k).tolist()):
                size = math.comb(x - lo * parts + parts - 1, parts - 1)
                if held and held + size > rows:
                    yield run(k[start:i])
                    held = 0
                if size > rows:
                    yield from self._blocks(rows, prefix + (int(k[i]),))
                    continue
                if not held:
                    start = i
                held += size
            if held:
                yield run(k[start:])

    @cached_property
    def points(self):
        if self.count > self.budget:
            raise BudgetExceededError(
                f"simplex grid would hold {self.count} points, over the "
                f"budget of {self.budget}; raise the budget or stream blocks"
            )
        (pts,) = self._blocks(self.count)
        return _freeze(pts)

    def iter_blocks(self, rows=250_000):
        """Yield ``points`` in order as blocks of 1..``rows`` rows, for sweeps
        past the budget, which it ignores.  Blocks follow leading-prefix
        groups, so they may be short; working memory stays within a small
        multiple of ``rows * n * 8`` bytes at any lattice size."""
        if rows < 1:
            raise ConfigurationError(f"blocks need at least one row, got {rows}")
        return self._blocks(rows)


@dataclass(frozen=True)
class ConeGrid(_CsvMixin):
    """Strictly positive lattice triples in (0, bound]^3 for the cone domain."""

    resolution: int
    bound: float = 1.0
    budget: int = 2_000_000

    def __post_init__(self):
        if self.resolution < 2:
            raise InvalidResolutionError(
                f"cone grid needs resolution >= 2, got {self.resolution}"
            )
        if not self.bound > 0:
            raise DomainError(f"cone bound must be positive, got {self.bound}")
        if self.resolution**3 > self.budget:
            raise BudgetExceededError(
                f"cone grid would hold {self.resolution ** 3} points, over "
                f"the budget of {self.budget}"
            )

    @cached_property
    def points(self):
        step = self.bound / self.resolution
        axis = np.arange(1, self.resolution + 1) * step
        x, y, z = np.meshgrid(axis, axis, axis, indexing="ij")
        pts = np.stack([x.ravel(), y.ravel(), z.ravel()], axis=1)
        return _freeze(pts)


@dataclass(frozen=True)
class PairGrid(_CsvMixin):
    """Strictly positive lattice pairs in (0, bound]^2."""

    resolution: int
    bound: float = 1.0

    def __post_init__(self):
        if self.resolution < 2:
            raise InvalidResolutionError(
                f"pair grid needs resolution >= 2, got {self.resolution}"
            )
        if not self.bound > 0:
            raise DomainError(f"pair bound must be positive, got {self.bound}")

    @cached_property
    def points(self):
        step = self.bound / self.resolution
        axis = np.arange(1, self.resolution + 1) * step
        u, v = np.meshgrid(axis, axis, indexing="ij")
        return _freeze(np.stack([u.ravel(), v.ravel()], axis=1))


def grid_to_csv(points, path):
    """Write grid points to CSV, one point per row, full float precision."""
    arr = np.asarray(points, dtype=float)
    if arr.ndim == 1:
        arr = arr[:, None]
    np.savetxt(path, arr, delimiter=",", fmt="%.17g")

