"""Grids and evaluation conventions."""

import gc
import itertools
import math
import os
import platform
import subprocess
import sys
import tracemalloc
import weakref
from itertools import product
from math import comb

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from infostab import (
    BudgetExceededError,
    ConeGrid,
    DomainError,
    InvalidResolutionError,
    PairGrid,
    SimplexGrid,
    TriangleGrid,
    UnitGrid,
    pow0,
    ratio0,
    xlog2,
)
from infostab.domains import _g17, _write_csv

from _helpers import UNIT_ARRAYS, float_bits, two_where_pow0


class TestConventions:
    def test_zero_to_any_power_is_zero(self):
        # the convention applies to every exponent, negative ones included
        for a in (-3.0, -1.0, -0.5, 0.0, 0.5, 1.0, 2.0):
            assert pow0(0.0, a) == 0.0

    def test_positive_base_matches_power(self):
        xs = np.array([0.25, 0.5, 1.0, 2.0])
        assert np.allclose(pow0(xs, -1.0), 1.0 / xs)
        assert np.allclose(pow0(xs, 0.0), 1.0)
        assert np.allclose(pow0(xs, 2.0), xs**2)

    def test_xlog2_vanishes_at_zero(self):
        assert xlog2(0.0) == 0.0
        assert math.isclose(float(xlog2(0.5)), -0.5)

    def test_negative_arguments_raise(self):
        with pytest.raises(DomainError, match="negative base -0.25 in convention power"):
            pow0(np.array([0.5, -0.25]), 2.0)
        with pytest.raises(DomainError, match="negative argument -0.5 in x"):
            xlog2(-0.5)

    def test_ratio0_zero_over_zero(self):
        assert ratio0(0.0, 0.0) == 0.0
        assert ratio0(1.0, 4.0) == 0.25
        with pytest.raises(DomainError, match="zero denominator with nonzero numerator"):
            ratio0(np.array([0.0, 1.0]), np.array([0.0, 0.0]))

    def test_pow0_batch_mixed(self):
        out = pow0(np.array([0.0, 0.5, 1.0]), -2.0)
        assert out[0] == 0.0
        assert math.isclose(out[1], 4.0)
        assert out[2] == 1.0

    @pytest.mark.parametrize("alpha", [-2.0, -1.0, -0.5, 0.0, 0.25, 0.5, 1.0, 1.7, 2.0, 3.0])
    def test_pow0_matches_two_where_oracle(self, alpha):
        pts = TriangleGrid(96, closed=True).points
        arrays = [
            pts[:, 0],
            1.0 - pts[:, 1],
            pts[::3, 1],
            np.random.default_rng(7).random(4099),
            np.array([0.0, -0.0, 5e-324, 1e-310, 1.0, 1e300, np.nan]),
            np.array([]),
        ]
        with np.errstate(over="ignore"):
            for x in arrays:
                assert float_bits(pow0(x, alpha)) == float_bits(two_where_pow0(x, alpha))
            for x in (0.0, -0.0, 5e-324, 0.3, 1.0):
                got = pow0(x, alpha)
                assert type(got) is float
                assert float_bits(got) == float_bits(two_where_pow0(x, alpha))
        # +0.0, never the -0.0 that np.power(-0.0, 3.0) gives
        assert float_bits(pow0(np.array([-0.0]), alpha)) == [0]

    @settings(max_examples=200, deadline=None)
    @given(x=UNIT_ARRAYS, alpha=st.floats(-3.0, 4.0))
    def test_pow0_matches_two_where_oracle_on_any_bits(self, x, alpha):
        with np.errstate(over="ignore"):
            assert float_bits(pow0(x, alpha)) == float_bits(two_where_pow0(x, alpha))

    @pytest.mark.parametrize("fn, message", [
        (lambda x: pow0(x, 0.5), "negative base -1.0 in convention power"),
        (xlog2, "negative argument -1.0 in x"),
    ])
    def test_nan_does_not_hide_a_negative_argument(self, fn, message):
        # min and max return NaN when any value is NaN
        with pytest.raises(DomainError, match=message):
            fn(np.array([np.nan, -1.0]))
        with pytest.raises(DomainError, match=message):
            fn(np.array([[0.5, np.nan], [-1.0, 0.25]]))
        assert np.isnan(fn(np.array([np.nan, np.nan]))).all()


class TestUnitGrid:
    def test_open_points(self):
        assert UnitGrid(4).points.tolist() == [0.25, 0.5, 0.75]

    def test_closed_points(self):
        assert UnitGrid(4, closed=True).points.tolist() == [0.0, 0.25, 0.5, 0.75, 1.0]

    def test_resolution_floor(self):
        with pytest.raises(InvalidResolutionError):
            UnitGrid(1)

    def test_points_are_frozen(self):
        g = UnitGrid(8)
        with pytest.raises(ValueError):
            g.points[0] = 0.9


def _bits(arr):
    return arr.shape, arr.view(np.uint64).tobytes()


def _stars_and_bars(n, r, closed):
    """The itertools enumerator the numpy one replaced, kept as its oracle."""
    if closed:
        cuts = itertools.combinations(range(r + n - 1), n - 1)
    else:
        cuts = itertools.combinations(range(1, r), n - 1)
    cuts = np.array(list(cuts), dtype=np.int64).reshape(-1, n - 1)
    gap = 1 if closed else 0
    last = (r + n - 2 if closed else r) - cuts[:, -1:]
    ks = np.concatenate([cuts[:, :1], np.diff(cuts, axis=1) - gap, last], axis=1)
    return ks / float(r)


def _masked_triangle(r, closed):
    """The meshgrid-and-mask triangle build, kept as the oracle of its replacement."""
    if closed:
        i, j = np.meshgrid(np.arange(r), np.arange(r), indexing="ij")
        mask = i + j <= r
    else:
        i, j = np.meshgrid(np.arange(1, r), np.arange(1, r), indexing="ij")
        mask = i + j <= r - 1
    return np.stack([i[mask], j[mask]], axis=1) / float(r)


class TestTriangleGrid:
    @pytest.mark.parametrize(
        "r, closed",
        [(2, True)]
        + [(r, closed) for r in (3, 5, 7, 96, 512, 2048) for closed in (False, True)],
    )
    def test_matches_masked_meshgrid(self, r, closed):
        assert _bits(TriangleGrid(r, closed=closed).points) == _bits(_masked_triangle(r, closed))

    def test_open_resolution_4(self):
        # the three interior nodes of the R=4 lattice, in lexicographic order
        assert TriangleGrid(4).points.tolist() == [
            [0.25, 0.25],
            [0.25, 0.5],
            [0.5, 0.25],
        ]

    def test_closed_resolution_4_count(self):
        assert TriangleGrid(4, closed=True).points.shape[0] == 13

    def test_open_counts_match_binomial(self):
        for r in (3, 4, 7, 12):
            assert TriangleGrid(r).points.shape[0] == comb(r - 1, 2)

    def test_closed_keeps_complements_positive(self):
        # closure stops short of x = 1 and y = 1 so 1-x and 1-y stay positive
        pts = TriangleGrid(6, closed=True).points
        assert pts.min() == 0.0
        assert pts.max() < 1.0
        assert np.max(pts[:, 0] + pts[:, 1]) == 1.0

    def test_open_strict_interior(self):
        pts = TriangleGrid(9).points
        assert pts.min() > 0.0
        assert np.max(pts[:, 0] + pts[:, 1]) < 1.0

    @pytest.mark.parametrize(
        "r, closed",
        [(2, True)] + [(r, closed) for r in (3, 4, 5, 7, 64, 96, 2048) for closed in (False, True)],
    )
    def test_count_is_the_number_of_points(self, r, closed):
        grid = TriangleGrid(r, closed=closed)
        assert grid.count == len(grid.points)

    def test_minimum_resolutions(self):
        with pytest.raises(InvalidResolutionError):
            TriangleGrid(2)
        assert TriangleGrid(2, closed=True).points.shape[0] == 4


class TestSimplexGrid:
    def test_closed_two_coordinates(self):
        pts = SimplexGrid(2, 3, closed=True).points
        third = 1.0 / 3.0
        expect = [[0.0, 1.0], [third, 2 * third], [2 * third, third], [1.0, 0.0]]
        assert pts.tolist() == expect

    def test_counts_match_binomial(self):
        for n, r in ((2, 5), (3, 5), (4, 6), (5, 8)):
            assert SimplexGrid(n, r, closed=True).count == comb(r + n - 1, n - 1)
            assert SimplexGrid(n, r).count == comb(r - 1, n - 1)

    def test_open_matches_brute_force(self):
        r = 6
        brute = sorted(
            (i / r, j / r, (r - i - j) / r)
            for i, j in product(range(1, r), repeat=2)
            if r - i - j >= 1
        )
        pts = SimplexGrid(3, r).points
        assert np.allclose(pts, np.array(brute))

    def test_rows_sum_to_one(self):
        pts = SimplexGrid(4, 9).points
        assert np.allclose(pts.sum(axis=1), 1.0, atol=1e-12)

    def test_size_floors(self):
        with pytest.raises(InvalidResolutionError, match="simplex needs n >= 2, got 1"):
            SimplexGrid(1, 8)
        with pytest.raises(InvalidResolutionError, match="resolution >= 4 for n=4, got 3"):
            SimplexGrid(4, 3)
        assert SimplexGrid(4, 3, closed=True).count == comb(6, 3)

    def test_budget_guard(self):
        g = SimplexGrid(6, 60, budget=10**6)
        assert g.count == 5_006_386
        with pytest.raises(BudgetExceededError):
            g.points

    def test_iter_blocks_streams_everything(self):
        g = SimplexGrid(3, 24)
        streamed = np.concatenate(list(g._blocks(37)), axis=0)
        assert np.array_equal(streamed, g.points)

    def test_iter_blocks_ignores_budget(self):
        g = SimplexGrid(3, 40, budget=10)
        total = sum(b.shape[0] for b in g._blocks(100))
        assert total == g.count

    @pytest.mark.parametrize("rows", [1, 7, 8, 10**4])
    @pytest.mark.parametrize(
        "n, r, closed",
        # closed n=3, R=12: the group under k_1 = 0 holds 13 points, more than 7
        [(4, 12, False), (3, 12, True), (5, 9, True), (2, 30, False)],
    )
    def test_iter_blocks_concatenate_to_oracle(self, n, r, closed, rows):
        blocks = list(SimplexGrid(n, r, closed=closed)._blocks(rows))
        assert all(1 <= b.shape[0] <= rows for b in blocks)
        assert _bits(np.concatenate(blocks, axis=0)) == _bits(_stars_and_bars(n, r, closed))

    def test_iter_blocks_memory_stays_near_one_block(self):
        # 1,502,501 points; one block per leading coordinate would hold 76,076
        g = SimplexGrid(5, 80, budget=10)
        rows = 10**4
        tracemalloc.start()
        try:
            total = 0
            for block in g._blocks(rows):
                total += block.shape[0]
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert total == g.count == 1_502_501
        assert peak <= 4 * rows * g.n * 8, peak

    def test_built_grid_is_freed_without_the_cycle_collector(self):
        # a lattice held alive by a reference cycle stays in memory until the
        # next collection, raising the peak of the sweep that follows
        gc.disable()
        try:
            g = SimplexGrid(4, 30)
            g.points
            list(g._blocks(50))
            ref = weakref.ref(g)
            del g
            assert ref() is None
        finally:
            gc.enable()


def _meshgrid_box(resolution, bound, k):
    """The meshgrid-and-stack cone and pair build, kept as the oracle of its
    replacement."""
    axis = np.arange(1, resolution + 1) * (bound / resolution)
    return np.stack([c.ravel() for c in np.meshgrid(*[axis] * k, indexing="ij")], axis=1)


def _peak_over_output(build):
    """tracemalloc peak of build() over the nbytes of the array it returns."""
    tracemalloc.start()
    try:
        out = build()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return peak / out.nbytes


class TestInPlaceBuilds:
    @pytest.mark.parametrize("r", [2, 3, 7, 40, 125])
    @pytest.mark.parametrize("bound", [1.0, 2.0, 0.3, 7.5])
    def test_cone_and_pair_match_meshgrid(self, r, bound):
        assert _bits(ConeGrid(r, bound=bound).points) == _bits(_meshgrid_box(r, bound, 3))
        assert _bits(PairGrid(r, bound=bound).points) == _bits(_meshgrid_box(r, bound, 2))

    @pytest.mark.parametrize(
        "grid", [TriangleGrid(64), TriangleGrid(64, closed=True), ConeGrid(6), PairGrid(6)]
    )
    def test_points_are_frozen_c_ordered_floats(self, grid):
        pts = grid.points
        assert pts.dtype == np.float64 and pts.flags.c_contiguous
        with pytest.raises(ValueError):
            pts[0, 0] = 0.5

    @pytest.mark.parametrize(
        "build",
        [
            lambda: TriangleGrid(2048, closed=True).points,
            lambda: TriangleGrid(2048).points,
            # 1,953,125 points, the largest cube under the default budget
            lambda: ConeGrid(125).points,
            lambda: PairGrid(1000).points,
        ],
        ids=["triangle-closed", "triangle-open", "cone", "pair"],
    )
    def test_build_peaks_at_its_output(self, build):
        # room for the node table and the loop's views, not for a second copy
        assert _peak_over_output(build) <= 1.05


# k = 1/(sqrt(2) - 1) makes PowerFamily(k, k, 1/2) the exact generator; the
# n = 5, R = 40 interior lattice is 82,251 points, three blocks whose
# columns are each over glibc's initial 128 KiB mmap threshold
_SECOND_SWEEP_FAULTS = """
import resource
from infostab import InformationMeasure, PowerFamily
from infostab.measures import recursivity_defect
k = 1 / (2 ** 0.5 - 1)
m = InformationMeasure(PowerFamily(k, k, 0.5), 0.5, 6)
recursivity_defect(m, 5, 40)
before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
recursivity_defect(m, 5, 40)
print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
"""


@pytest.mark.skipif(platform.libc_ver()[0] != "glibc", reason="glibc malloc thresholds")
def test_a_fresh_library_process_reuses_freed_sweep_blocks():
    # importing infostab frees one untouched block that lifts glibc's dynamic
    # mmap threshold, so a second sweep maps and faults in no fresh columns
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    proc = subprocess.run(
        [sys.executable, "-c", _SECOND_SWEEP_FAULTS],
        env=env, capture_output=True, text=True, timeout=120, check=True,
    )
    assert int(proc.stdout) < 100


class TestConeAndPair:
    def test_cone_points_strictly_positive(self):
        g = ConeGrid(5, bound=2.0)
        pts = g.points
        assert pts.shape == (125, 3)
        assert pts.min() > 0.0
        assert pts.max() == 2.0

    def test_cone_budget_at_construction(self):
        with pytest.raises(BudgetExceededError):
            ConeGrid(200, budget=10**6)

    def test_pair_grid(self):
        g = PairGrid(4, bound=1.0)
        assert g.points.shape == (16, 2)
        assert g.points.min() == 0.25

    def test_cone_resolution_floor(self):
        with pytest.raises(InvalidResolutionError):
            ConeGrid(1)

    def test_pair_resolution_floor_and_positive_bounds(self):
        with pytest.raises(InvalidResolutionError):
            PairGrid(1)
        for bound in (0.0, -1.0):
            with pytest.raises(DomainError, match="cone bound must be positive"):
                ConeGrid(4, bound=bound)
            with pytest.raises(DomainError, match="pair bound must be positive"):
                PairGrid(4, bound=bound)


def _grid_csv(grid, path):
    """Write a grid's points through _write_csv, the last coordinate as its
    last column (a unit grid's one column)."""
    pts = grid.points.reshape(len(grid.points), -1)
    with open(path, "wb") as fh:
        _write_csv(fh, pts[:, :-1], pts[:, -1], nodes=grid.nodes, text=_g17(grid.nodes))


class TestCsv:
    def test_round_trip(self, tmp_path):
        g = TriangleGrid(5)
        path = tmp_path / "tri.csv"
        _grid_csv(g, path)
        back = np.loadtxt(path, delimiter=",")
        assert np.array_equal(back, g.points)

    def test_unit_grid_column(self, tmp_path):
        g = UnitGrid(6)
        path = tmp_path / "unit.csv"
        _grid_csv(g, path)
        back = np.loadtxt(path, delimiter=",")
        assert np.array_equal(np.atleast_1d(back), g.points)

    @pytest.mark.parametrize(
        "grid",
        [
            UnitGrid(6),
            UnitGrid(768, closed=True),
            TriangleGrid(40),
            TriangleGrid(33, closed=True),
            SimplexGrid(4, 13),
            SimplexGrid(3, 9, closed=True),
            ConeGrid(9, bound=2.5),
        ],
        ids=repr,
    )
    def test_bytes_match_savetxt(self, tmp_path, grid):
        # np.savetxt is the oracle of the library's one %.17g text path
        path, oracle = tmp_path / "grid.csv", tmp_path / "oracle.csv"
        _grid_csv(grid, path)
        pts = grid.points
        np.savetxt(oracle, pts[:, None] if pts.ndim == 1 else pts, delimiter=",", fmt="%.17g")
        assert path.read_bytes() == oracle.read_bytes()


_GRIDS = st.one_of(
    st.builds(UnitGrid, st.integers(2, 400), st.booleans()),
    st.builds(TriangleGrid, st.integers(3, 400), st.booleans()),
    st.integers(2, 5).flatmap(
        lambda n: st.builds(SimplexGrid, st.just(n), st.integers(n, 30), st.booleans())
    ),
    st.builds(
        ConeGrid,
        st.integers(2, 40),
        st.one_of(st.sampled_from([2.5, 0.3, 1.0 / 3.0]), st.floats(1e-3, 1e3)),
    ),
)


@settings(max_examples=80, deadline=None)
@given(grid=_GRIDS)
def test_points_are_entries_of_the_node_table(grid):
    # a defect dump takes each coordinate's text from the node table, so
    # every coordinate must be one of its entries, bit for bit
    nodes = grid.nodes
    assert grid.nodes is nodes and not nodes.flags.writeable
    assert nodes.dtype == np.float64 and nodes.shape == (grid.resolution + 1,)
    assert nodes[0] == 0.0 and np.all(np.diff(nodes) > 0)
    bits = nodes.view(np.uint64)
    pts = np.asarray(grid.points)
    assert np.isin(pts.view(np.uint64), bits).all()
    # the node recovered from the table's step is the coordinate's own
    k = np.rint(pts / nodes[1]).astype(np.intp)
    assert np.array_equal(bits[k], pts.view(np.uint64))


def _python_g17(values):
    return [b"%.17g" % v for v in values.tolist()]


def _texts(values):
    return [t.replace(b"\0", b"") for t in _g17(values).tolist()]


class TestG17Text:
    """_g17 prints Python's '%.17g' % v byte for byte."""

    @settings(max_examples=50, deadline=None)
    @given(st.lists(st.integers(0, 2**64 - 1), min_size=1, max_size=64))
    def test_any_bit_pattern(self, bits):
        # NaN payloads, infinities, signed zeros and subnormals included
        x = np.array(bits, dtype=np.uint64).view(np.float64)
        assert _texts(x) == _python_g17(x)

    def test_edges(self):
        tens = np.array([float(f"1e{k}") for k in range(-300, 301)])
        odd = np.arange(1, 2**20, 2**13 - 1, dtype=np.float64)
        ties = np.concatenate([odd / 2.0**m for m in range(1, 80)])
        edges = [
            0.0, 5e-324, 2.2250738585072014e-308, 1.7976931348623157e308,
            np.inf, np.nan, 1e-280, 1e280, 9.9999999999999996e-281,
            1e-4, 1e-5, 0.00012345678901234567, 1.2345678901234567e-5,
            1e16, 1e17, 12345678901234568.0, 99999999999999999.0, 1.5e-150, 2.5e200,
        ]
        x = np.concatenate([tens, np.nextafter(tens, 0), np.nextafter(tens, np.inf), ties, edges])
        x = np.concatenate([x, -x])
        assert _texts(x) == _python_g17(x)

    @pytest.mark.parametrize("shape", [(), (3, 2), (1, 2), (2, 1), (2, 0)])
    def test_any_shape(self, shape):
        # the texts come back in the input's shape, each at its value's place
        values = np.array([-0.0, np.nan, np.inf, 5e-324, 0.1, -2.5])
        for start in range(values.size):
            a = np.resize(np.roll(values, -start), shape)
            assert np.array_equal(_g17(a), _g17(a.ravel()).reshape(a.shape))


@settings(max_examples=40, deadline=None)
@given(r=st.integers(min_value=3, max_value=40))
def test_triangle_open_inside_closed(r):
    open_pts = {tuple(p) for p in TriangleGrid(r).points.tolist()}
    closed_pts = {tuple(p) for p in TriangleGrid(r, closed=True).points.tolist()}
    assert open_pts <= closed_pts


@settings(max_examples=60, deadline=None)
@given(data=st.data(), closed=st.booleans())
def test_triangle_indices_what_the_kernel_reads(data, closed):
    # the fundamental kernel gathers one node table at rint(points * R) for
    # both coordinates, so the j range must be the i range
    r = data.draw(st.integers(min_value=2 if closed else 3, max_value=400), label="r")
    grid = TriangleGrid(r, closed=closed)
    pts = grid.points
    assert grid.count == len(pts)
    ij = np.rint(pts * r)
    assert np.array_equal(ij / r, pts)
    lo = 0 if closed else 1  # the node tables hold k = lo..R-1-lo
    assert ij.min() >= lo and ij.max() <= r - 1 - lo
    keys = ij[:, 0] * (r + 1) + ij[:, 1]
    assert np.all(np.diff(keys) > 0)
    swapped = np.sort(ij[:, 1] * (r + 1) + ij[:, 0])
    assert np.array_equal(swapped, keys)


@settings(max_examples=30, deadline=None)
@given(n=st.integers(min_value=2, max_value=5), r=st.integers(min_value=2, max_value=12))
def test_simplex_counts_and_interior(n, r):
    g = SimplexGrid(n, r, closed=True)
    assert g.points.shape == (comb(r + n - 1, n - 1), n)
    if r >= n:
        go = SimplexGrid(n, r)
        pts = go.points
        assert pts.shape[0] == comb(r - 1, n - 1)
        assert pts.min() > 0.0
        assert np.allclose(pts.sum(axis=1), 1.0, atol=1e-12)


@settings(max_examples=60, deadline=None)
@given(
    n=st.integers(min_value=2, max_value=6),
    r=st.integers(min_value=1, max_value=14),
    closed=st.booleans(),
)
def test_simplex_points_match_stars_and_bars(n, r, closed):
    if not closed and r < n:
        r = n
    assert _bits(SimplexGrid(n, r, closed=closed).points) == _bits(_stars_and_bars(n, r, closed))
