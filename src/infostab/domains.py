"""Sample grids for every domain the residual and certifier sweeps use, plus
the zero-probability evaluation conventions.

All grids are rational lattices with step 1/resolution.  That keeps sweeps
reproducible, makes refinement nesting exact in floating point (k/R and
2k/(2R) round identically), and guarantees that the anchor 1/2 is a node
whenever the resolution is even.  Point arrays are materialised once per grid
and returned read-only, so grids are safe to share across threads.

Every grid has a cached, read-only ``nodes`` table, the 1-D values its
coordinates take: k/R for k = 0..R (one definition), or k * (bound/R) on the
box (0, bound]^3 of ``ConeGrid`` and its face (0, bound]^2, ``PairGrid``.
Each lattice shape has one builder, which copies table values into one float
matrix of the final shape, so a build peaks at its output: ``_pairs`` writes
x-major pair rows (the triangle and the unit pairs), ``_box`` stacks a
Cartesian product from broadcast views (the cone, the pair grid and the
associativity boxes).  Simplex lattices are enumerated as integer
compositions and scaled block by block, which gives their table's bits too.
No grid holds a budget except ``SimplexGrid``, whose guard covers
``.points`` only; a sweep with a budget checks its samples.

Conventions (applied uniformly, for every exponent alpha):

    0 * log2(0) = 0        0 / (0 + 0) = 0        0 ** alpha = 0
"""

from __future__ import annotations

import math
import mmap
from dataclasses import dataclass
from functools import cache, cached_property

import numpy as np

from .errors import (
    BudgetExceededError,
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
]

_CHUNK = 1 << 15  # rows per block of every blocked sweep
# glibc maps each allocation over its mmap threshold (128 KiB at first; a
# _CHUNK-row column is 256 KiB) afresh, faulting its pages in, until freeing a
# mapped chunk under 32 MiB raises the threshold to that chunk's size.  This
# request maps the largest such chunk and, freed untouched, costs no memory.
# A process's own mallopt or MALLOC_*_ settings turn glibc's rule off.
np.empty((32 << 20) - 2 * mmap.PAGESIZE, np.uint8)
_TEXT_ROWS = 1 << 12  # rows per slice of CSV text


# ---------------------------------------------------------------------------
# conventions


def pow0(x, alpha):
    """x**alpha with the convention 0**alpha == 0 for every alpha.

    Negative bases are a domain error; everything in this library lives on
    nonnegative coordinates.  One min reduction serves the domain check and
    the zero test; only a NaN minimum, which hides the other values, costs
    a second look for negative bases.  A power past the float range is inf,
    without a warning, as a power of zero with negative alpha is before the
    convention replaces it.
    """
    arr = np.asarray(x, dtype=float)
    least = float(arr.min(initial=math.inf))
    if not least >= 0.0 and (arr < 0).any():
        bad = float(arr[arr < 0].flat[0])
        raise DomainError(f"negative base {bad!r} in convention power")
    with np.errstate(divide="ignore", over="ignore"):
        out = np.power(arr, alpha)
    # also for alpha > 0, where np.power(-0.0, 3.0) is -0.0
    if not least > 0.0:
        out = np.where(arr == 0.0, 0.0, out)
    if np.ndim(x) == 0:
        return float(out)
    return out


def xlog2(x):
    """x * log2(x) with the convention 0 * log2(0) == 0."""
    arr = np.asarray(x, dtype=float)
    if not arr.min(initial=math.inf) >= 0.0 and (arr < 0).any():
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


def _box(*axes):
    """The Cartesian product of axes as a C-ordered (prod len, k) matrix,
    first axis slowest (meshgrid "ij" order), stacked from broadcast views,
    so the matrix is the one copy."""
    return np.stack(np.meshgrid(*axes, indexing="ij", copy=False), axis=-1).reshape(-1, len(axes))


def _pairs(x, counts):
    """The pairs (x[i], x[j]) with j < counts[i], x-major, written row by row
    into one C-ordered matrix, so a build peaks at its output."""
    out = np.empty((int(counts.sum()), 2))
    start = 0
    for i, c in enumerate(counts.tolist()):
        out[start : start + c, 0] = x[i]
        out[start : start + c, 1] = x[:c]
        start += c
    return out


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


def _unit_nodes(resolution):
    """The node table k/R, k = 0..R, read-only."""
    return _freeze(np.arange(resolution + 1) / float(resolution))


class _UnitNodes:
    """The one ``nodes`` of the unit, triangle and simplex grids: the table
    k/R, k = 0..R, that their coordinates are copied from or equal to."""

    @cached_property
    def nodes(self):
        return _unit_nodes(self.resolution)


@dataclass(frozen=True)
class UnitGrid(_UnitNodes):
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
        lo = 0 if self.closed else 1
        return _freeze(self.nodes[lo : self.resolution + 1 - lo].copy())


@dataclass(frozen=True)
class TriangleGrid(_UnitNodes):
    """Lattice on the triangle domain of the two-variable functional equation.

    Open variant: x, y and x+y all in (0,1), i.e. i,j >= 1 with i+j <= R-1.
    Closed variant: x, y in [0,1) with x+y <= 1 (the asymmetric closure that
    keeps 1-x and 1-y positive), i.e. i,j <= R-1 with i+j <= R.  ``count``
    gives the number of points without building them.
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

    @property
    def count(self):
        r = self.resolution
        return (r + 1) * (r + 2) // 2 - 2 if self.closed else (r - 1) * (r - 2) // 2

    @cached_property
    def points(self):
        # lexicographic rows (i/R, j/R): row i holds j = lo..min(R - lo - i, R - 1)
        r, lo = self.resolution, 0 if self.closed else 1
        i = np.arange(lo, r)
        return _freeze(_pairs(self.nodes[lo:r], np.minimum(r - lo - i, r - 1) - lo + 1))


@dataclass(frozen=True)
class SimplexGrid(_UnitNodes):
    """Lattice on the probability simplex with n coordinates.

    Open variant: all coordinates k_i/R with k_i >= 1 (strict interior).
    Closed variant: k_i >= 0.  Points are ordered lexicographically in the
    integer compositions (k_1, ..., k_n), so the first coordinate is
    nondecreasing.  ``points`` materialises the lattice within ``budget``;
    ``iter_blocks()`` streams the same points, bit for bit and in the same
    order, as blocks of 1.._CHUNK rows whose working memory stays within a
    small multiple of ``_CHUNK * n * 8`` bytes at any lattice size.
    ``nodes`` is the table k/R, k = 0..R: every coordinate is one of its
    entries, bit for bit, since both divide the integer k by float(R).
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
        return math.comb(r + n - 1 if self.closed else r - 1, n - 1)

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

    def iter_blocks(self):
        """Yield ``points`` in order as blocks of 1.._CHUNK rows, the one
        block size of every blocked sweep.  The grid's budget guards
        ``points`` only; a sweep checks its own before it streams.  Blocks
        follow leading-prefix groups, so they may be short; working memory
        stays within a small multiple of ``_CHUNK * n * 8`` bytes at any
        lattice size."""
        return self._blocks(_CHUNK)


@dataclass(frozen=True)
class _BoxGrid:
    """Strictly positive lattice points in (0, bound]^dim for a finite bound:
    the dim-tuples of ``nodes[1:]``, ``count`` = R**dim of them.  Each
    subclass owns its ``points``, since bench/tracer.py wraps them per class."""

    resolution: int
    bound: float = 1.0

    def __post_init__(self):
        kind = type(self).__name__.removesuffix("Grid").lower()
        if self.resolution < 2:
            raise InvalidResolutionError(
                f"{kind} grid needs resolution >= 2, got {self.resolution}"
            )
        if not 0 < self.bound < math.inf:
            raise DomainError(f"{kind} bound must be positive and finite, got {self.bound}")

    @property
    def count(self):
        return self.resolution**self.dim

    @cached_property
    def nodes(self):
        return _freeze(np.arange(self.resolution + 1) * (self.bound / self.resolution))


class ConeGrid(_BoxGrid):
    """Strictly positive lattice triples in (0, bound]^3 for the cone domain."""

    dim = 3

    @cached_property
    def points(self):
        return _freeze(_box(*[self.nodes[1:]] * 3))


class PairGrid(_BoxGrid):
    """Strictly positive lattice pairs in (0, bound]^2, the cone's face."""

    dim = 2

    @cached_property
    def points(self):
        return _freeze(_box(*[self.nodes[1:]] * 2))


# ---------------------------------------------------------------------------
# %.17g text


@cache
def _g17_tables():
    """The tables of _g17, built on first use.

    hi + lo is 10**(16 - e), to 2**-106 relative, at index e + 281 for
    e = -281..281.
    quad holds the ASCII digits of 0..9999 as 4-byte words, and zeros counts
    their trailing zeros (4 for 0).  A text is 32 bytes, and digit k of the
    17 sits at byte 7 + k.  keep, frac and pattern are text masks per (sign,
    layout, cut) key, where cut digits are kept: layouts 0..3 are 0.ddd with
    0..3 zeros after the point, 4..20 put 1..17 digits before it, and 21 is
    d.ddde+XX.  keep selects the digits before the point and frac those after
    it, which move one byte up; pattern adds the sign, then the "0." and
    zeros, or the point.  exp holds the last text word: the exponent when
    e < -4 or e >= 17, else nothing.
    """
    hi, lo = [], []
    for e in range(-281, 282):
        p, q = 10 ** max(16 - e, 0), 10 ** max(e - 16, 0)
        n, d = (p / q).as_integer_ratio()
        hi.append(n / d)
        lo.append((p * d - n * q) / (q * d))
    g = np.arange(10000)
    quad = np.stack([g // 1000, g // 100 % 10, g // 10 % 10, g % 10], axis=1) + 48
    zeros = (g % 10 == 0) * 1 + (g % 100 == 0) + (g % 1000 == 0) + (g == 0)
    neg, lay, cut, b = np.ix_(range(2), range(22), range(18), range(32))
    ints = np.where(lay < 4, 0, np.where(lay < 21, lay - 3, 1))
    small = lay < 4
    k = b - 7
    pattern = (
        45 * ((b == 0) & (neg == 1))
        + 48 * (small & ((b == 1) | ((b >= 3) & (b < 3 + lay))))
        + 46 * ((small & (b == 2)) | (~small & (b == 7 + ints) & (cut > ints)))
    )
    keep, frac = 255 * ((k >= 0) & (k < ints)), 255 * ((k >= ints) & (k < cut))
    masks = np.stack(np.broadcast_arrays(keep, frac, pattern))
    exp = np.zeros((563, 8), np.uint8)
    for e in [*range(-281, -4), *range(17, 282)]:
        text = b"e%+03d" % e
        exp[e + 281, 1 : 1 + len(text)] = list(text)
    return (
        np.array(hi),
        np.array(lo),
        quad.astype(np.uint8).view(np.uint32).ravel(),
        zeros,
        *masks.astype(np.uint8).view("<u8").reshape(3, -1, 4),
        exp.view("<u8").ravel(),
    )


def _g17(values):
    """The text of '%.17g' % v for each float v, byte for byte, as 32-byte
    strings with NUL bytes in and after the text, in the shape of values;
    the last byte is NUL.

    For finite |v| in [1e-280, 1e280], v * 10**(16 - e) with e = floor(log10
    |v|) is formed to about 1e-14 and rounded to the integer N.  N is kept
    when it had 17 digits before rounding, cannot carry into an 18th, and
    the remainder lay more than 1e-6 from a tie (Gay 1990).  Zeros are
    written directly.  Every other value goes to Python's '%.17g': NaN, inf,
    |v| out of range, a near-tie, and a value next to a power of ten whose
    log10 lands a decade off.
    """
    hi, lo10, quad, zeros, keep, frac, pattern, exp = _g17_tables()
    shape = np.shape(values)
    x = np.asarray(values, dtype=np.float64).ravel()
    a = np.abs(x)
    zero = a == 0.0
    fast = (a >= 1e-280) & (a <= 1e280)
    a = np.where(fast, a, 1.0)
    e = np.floor(np.log10(a)).astype(np.int64)
    # a * 10**(16 - e) as p + lo: Dekker's exact product of a and the
    # table's hi, with Veltkamp's splits by 2**27 + 1, plus a times its lo
    th = hi[e + 281]
    p = a * th
    c, d = a * 134217729.0, th * 134217729.0
    ah, bh = c - (c - a), d - (d - th)
    al, bl = a - ah, th - bh
    lo = ((ah * bh - p) + ah * bl + al * bh) + al * bl + a * lo10[e + 281]
    floor = np.floor(lo)
    rem = lo - floor
    n = p.astype(np.int64) + floor.astype(np.int64)
    fast &= (n >= 10**16) & (n < 10**17 - 1) & (np.abs(rem - 0.5) > 1e-6)
    n += rem > 0.5
    n[zero] = e[zero] = 0
    # N as the digit groups d dddd dddd dddd dddd, in words 1..5 of the text
    top, low = np.divmod(n, 10**8)
    first, mid = np.divmod(top, 10**8)
    groups = (first, *np.divmod(mid, 10**4), *np.divmod(low, 10**4))
    words = np.zeros((n.size, 8), np.uint32)
    for j, g in enumerate(groups):
        words[:, j + 1] = quad[g]
    digits = words.view("<u8")  # little-endian: a shift by 8 moves a byte up
    tz = zeros[groups[4]]
    for j in (1, 2, 3):
        tz += (tz == 4 * j) * zeros[groups[4 - j]]
    expo = (e < -4) | (e >= 17)
    ints = np.where(expo, 1, np.where(e < 0, 0, e + 1))
    lay = np.where(expo, 21, np.where(e < 0, -e - 1, e + 4))
    cut = np.maximum(17 - tz, ints)
    key = (np.signbit(x) * 22 + lay) * 18 + cut
    out = (digits & np.take(keep, key, axis=0)) | np.take(pattern, key, axis=0)
    moved = (digits & np.take(frac, key, axis=0)).ravel()
    flat = out.ravel()
    flat |= moved << np.uint64(8)
    flat[1:] |= moved[:-1] >> np.uint64(56)  # word 3 holds no digits to carry
    out[:, 3] |= exp[e + 281]
    text = out.view("S32").ravel()
    slow = np.flatnonzero(~(fast | zero))
    text[slow] = ["%.17g" % v for v in x[slow].tolist()]
    return text.reshape(shape)


def _write_csv(fh, points, last, *, nodes, text):
    """Write each row of the float matrix points, then the matching value of
    last, to the binary file fh as one CSV line of %.17g fields,
    _TEXT_ROWS rows at a time.  nodes is a grid's node table (at least two
    entries) and text its _g17 text.  Lattice coordinates are node values,
    so a coordinate x takes its text from the node at rint(x / nodes[1]),
    clipped to the table, when its bits are that node's; any other
    coordinate, -0.0 among them, is formatted on its own, so each cell is
    '%.17g' of its own bits.  Both points and last may be array-likes."""
    points = np.asarray(points, dtype=np.float64)
    rows, d = points.shape
    for s in range(0, rows, _TEXT_ROWS):
        pts = points[s : s + _TEXT_ROWS]
        cells = np.empty((len(pts), d + 1), "S32")
        coords = cells[:, :d]
        with np.errstate(over="ignore"):
            k = np.rint(pts / nodes[1])
        # fmax sends NaN to node 0, and the bits check sends it on to _g17
        k = np.fmin(np.fmax(k, 0.0), nodes.size - 1).astype(np.intp)
        coords[...] = text[k]
        miss = pts.view(np.uint64) != nodes.view(np.uint64)[k]
        if miss.any():
            coords[miss] = _g17(pts[miss])
        cells[:, d] = _g17(last[s : s + _TEXT_ROWS])
        cells.view(np.uint8)[:, 31::32] = ord(",")
        cells.view(np.uint8)[:, -1] = ord("\n")
        fh.write(cells.tobytes().translate(None, b"\0"))
