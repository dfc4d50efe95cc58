"""Residual sweeps for every supported equation kind."""

import functools
import hashlib
import io
import math
import re
import threading
import time
import tracemalloc
from fractions import Fraction
from itertools import permutations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from _helpers import (
    alpha_sum_generator, exact_measure, float_bits, fundamental_defect, sampled, scaled_sum,
)
from infostab import (
    BudgetExceededError,
    CauchyAdditive,
    Cocycle,
    CocycleForm,
    ConeGrid,
    ConfigurationError,
    DaroczyIdentity,
    DomainError,
    EntropyEq,
    EntropySolution,
    FunctionSum,
    FundamentalParametric,
    GridSample,
    InfoFunctionForm,
    InfostabError,
    LogFamily,
    Logarithmic,
    ModifiedEntropy,
    ModifiedEntropySolution,
    Multiplicative,
    NonFiniteDefectError,
    PairGrid,
    PhiEquation,
    PhiForm,
    PhiOfSum,
    PowerFamily,
    PowerLaw,
    PowerLog,
    RatioLift,
    ScaledBump,
    ShannonInfo,
    SimplexGrid,
    SumFormAdditive,
    SumFormAlpha,
    SumFormMultiplicative,
    TriangleGrid,
    UnitGrid,
    XLogX,
    certify_associativity,
    certify_fundamental_open,
    certify_measure_sequence,
    certify_sum_form,
    check_semisymmetry3,
    check_sum_property,
    check_symmetry,
    dump_defects_csv,
    homogeneity_residual,
    hyperstability_blowup_probe,
    recursivity_defect,
    residual,
    symmetry_residual,
    tabulate,
)
from infostab.domains import _g17, _write_csv
from infostab.equations import (
    _CHUNK,
    _SCALE,
    _blocks,
    _exact_total,
    _imap,
    _row,
    _sum_form_blocks,
    _unit_rows,
)
from infostab.models import BivariateFunction, TernaryFunction

TINY = 1e-12


class TestFundamental:
    @pytest.mark.parametrize("alpha", [-1.0, 0.3, 2.0, 4.0])
    def test_power_family_is_exact(self, alpha):
        f = PowerFamily(1.7, -0.4, alpha)
        rep = residual(FundamentalParametric(alpha), f, TriangleGrid(64))
        assert rep.sup <= TINY

    def test_log_family_solves_degree_zero(self):
        f = LogFamily(0.8, 0.3)
        rep = residual(FundamentalParametric(0.0), f, TriangleGrid(64))
        assert rep.sup <= TINY

    def test_shannon_info_solves_degree_one(self):
        rep = residual(FundamentalParametric(1.0), ShannonInfo(), TriangleGrid(64))
        assert rep.sup <= TINY

    def test_bump_breaks_it(self):
        f = PowerFamily(1.0, 1.0, 2.0)
        bumped = lambda x: f(x) + ScaledBump(0.5, 0.2, 0.01)(x)
        rep = residual(FundamentalParametric(2.0), bumped, TriangleGrid(64))
        assert rep.sup > 1e-4

    def test_wrong_grid_type(self):
        with pytest.raises(ConfigurationError):
            residual(FundamentalParametric(2.0), ShannonInfo(), UnitGrid(8))


_NODE_FUNCTIONS = {
    "noisy_power_bump": FunctionSum(
        (sampled(PowerFamily(2.0, 1.0, 0.5), 37), ScaledBump(0.4, 0.2, 1e-3))
    ),
    "power_family": PowerFamily(1.7, -0.4, 0.5),
    "log_family": LogFamily(0.8, 0.3),
    "shannon": ShannonInfo(),
    "lambda": lambda x: np.sin(3.0 * x) + x * np.log1p(x),
    "scalar_lambda": lambda x: 1.0,
}
_NODE_ALPHAS = (-1.0, 0.0, 0.5, 2.0)


def _oracle_blocks(f, alpha, grid):
    """The per-point defect of every _CHUNK-row block of the grid, in order."""
    pts = grid.points
    return [
        (pts[a : a + _CHUNK], fundamental_defect(f, alpha, pts[a : a + _CHUNK]))
        for a in range(0, pts.shape[0], _CHUNK)
    ]


def _outcome(run):
    """run()'s value, or the type and message of what it raised."""
    try:
        return run()
    except InfostabError as exc:
        return type(exc), str(exc)


def _digest(blocks):
    """The sha256 of the bits of a sequence of float64 arrays."""
    h = hashlib.sha256()
    for d in blocks:
        assert d.dtype == np.float64
        h.update(np.ascontiguousarray(d))
    return h.hexdigest()


def _node_configs(resolution):
    """The (alpha, function name) pairs the oracle tests run at a resolution."""
    if resolution >= 1000:
        # every alpha and every function once, to keep the suite fast
        return list(zip(_NODE_ALPHAS * 2, _NODE_FUNCTIONS))
    return [(a, name) for a in _NODE_ALPHAS for name in _NODE_FUNCTIONS]


@functools.cache
def _oracle(name, alpha, resolution, closed):
    """The digest of the per-point defects of the triangle in lattice order,
    or the type and message of what the per-point sweep raised; built once
    per module, and shared by the tests of both kernel layouts."""
    grid = TriangleGrid(resolution, closed=closed)
    blocks = _outcome(lambda: _oracle_blocks(_NODE_FUNCTIONS[name], alpha, grid))
    return blocks if isinstance(blocks, tuple) else _digest(d for _, d in blocks)


_ORACLE_RESOLUTIONS = [3, 7, 96, 384, 768, 1000, 2048]


class TestNodeTables:
    """The node-table kernel against the per-point oracle, bit for bit."""

    @pytest.mark.parametrize("closed", [False, True])
    @pytest.mark.parametrize("resolution", _ORACLE_RESOLUTIONS)
    def test_blocks_match_the_oracle(self, resolution, closed):
        # the lattice-order blocks a dump writes
        grid = TriangleGrid(resolution, closed=closed)
        for alpha, name in _node_configs(resolution):

            def tabled():
                kind, f = FundamentalParametric(alpha), _NODE_FUNCTIONS[name]
                work, items = _blocks(kind, f, grid, 10**7)
                return [work(item) for item in items]

            got, want = _outcome(tabled), _oracle(name, alpha, resolution, closed)
            if isinstance(want, tuple):  # LogFamily at 1 on the closed edge
                assert got == want, (name, alpha)
                continue
            assert len(got) == -(-grid.count // _CHUNK)
            for k, (gp, gd) in enumerate(got):
                assert np.array_equal(gp, grid.points[k * _CHUNK : (k + 1) * _CHUNK])
                assert gd.dtype == np.float64 and gd.shape == (len(gp),)
            assert _digest(gd for _, gd in got) == want, (name, alpha)

    @pytest.mark.parametrize("closed", [False, True])
    @pytest.mark.parametrize("resolution", _ORACLE_RESOLUTIONS)
    def test_mirrored_blocks_match_the_oracle(self, resolution, closed):
        # the blocks every reduction folds, put back in lattice order by rank
        grid = TriangleGrid(resolution, closed=closed)
        for k, (alpha, name) in enumerate(_node_configs(resolution)):

            def mirrored():
                kind, f = FundamentalParametric(alpha), _NODE_FUNCTIONS[name]
                work, items = _blocks(kind, f, grid, 10**7, mirrored=True)
                defects, seen, size = np.empty(grid.count), np.zeros(grid.count, bool), 0
                for points, d, r in map(work, items):
                    assert d.dtype == np.float64 and len(points) == d.size == r.size
                    if k == 0:  # the points and ranks do not depend on f
                        assert np.array_equal(np.asarray(points), grid.points[r])
                        seen[r] = True
                    defects[r], size = d, size + d.size
                # every point has one defect
                assert size == grid.count and (k > 0 or seen.all())
                return _digest([defects])

            assert _outcome(mirrored) == _oracle(name, alpha, resolution, closed), (name, alpha)

    @pytest.mark.parametrize("closed", [False, True])
    @pytest.mark.parametrize("f", [PowerFamily(0.0, 0.0, 2.0), PowerFamily(1.7, -0.4, 2.0)])
    def test_sup_ties_keep_the_first_lattice_point(self, f, closed):
        # every defect of the zero function is 0; this exact member's sup is a
        # rounding error that 8 points share, and the first mirrored block to
        # meet it does not hold the first of them in lattice order
        grid = TriangleGrid(768, closed=closed)
        d = np.abs(fundamental_defect(f, 2.0, grid.points))
        ties = np.flatnonzero(d == d.max())
        assert ties.size > 1
        for jobs in (1, 2):
            rep = residual(FundamentalParametric(2.0), f, grid, jobs=jobs)
            assert rep.sup == d[ties[0]]
            assert rep.argmax_point == tuple(grid.points[ties[0]].tolist())

    @pytest.mark.parametrize("closed", [False, True])
    def test_residual_reduces_the_oracle(self, closed):
        f, grid = _NODE_FUNCTIONS["noisy_power_bump"], TriangleGrid(768, closed=closed)
        d = np.abs(fundamental_defect(f, 0.5, grid.points))
        for jobs in (1, 2):
            rep = residual(FundamentalParametric(0.5), f, grid, jobs=jobs, mean=True)
            assert rep.mean.hex() == (math.fsum(d.tolist()) / d.size).hex()
            assert rep.sup == float(d.max()) and rep.samples == d.size
            assert rep.argmax_point == tuple(grid.points[int(np.argmax(d))].tolist())

    @pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
    @pytest.mark.parametrize("resolution", [64, 768])
    def test_nan_node_raises_the_oracle_message(self, resolution):
        f, grid = _with_bad_node(math.nan), TriangleGrid(resolution)
        d = fundamental_defect(f, 0.5, grid.points)
        bad = ~np.isfinite(d)
        first = tuple(grid.points[int(np.argmax(bad))].tolist())
        msg = f"{int(bad.sum())} of {d.size} defects are NaN or infinite, the first at {first}"
        for jobs in (1, 2):
            with pytest.raises(NonFiniteDefectError) as exc:
                residual(FundamentalParametric(0.5), f, grid, jobs=jobs)
            assert str(exc.value) == msg

    @pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
    def test_first_non_finite_point_is_first_in_lattice_order(self):
        # f is NaN only at the quotient of the diagonal point (5, 5) and at
        # y/(1-x) of (5, 20), which (20, 5) shares; a mirrored block lists
        # (5, 20) before (5, 5), which comes first in lattice order
        r = 64
        q = lambda i, j: (j / r) / (1.0 - i / r)
        holes = np.array([q(5, 5), q(5, 20)])
        f = lambda x: np.where(np.isin(x, holes), math.nan, x)
        pts = TriangleGrid(r).points
        bad = ~np.isfinite(fundamental_defect(f, -1.0, pts))
        assert bad.sum() == 3 and pts[int(np.argmax(bad))].tolist() == [5 / r, 5 / r]
        msg = f"3 of {bad.size} defects are NaN or infinite, the first at {(5 / r, 5 / r)}"
        for jobs in (1, 2):
            with pytest.raises(NonFiniteDefectError, match=re.escape(msg)):
                residual(FundamentalParametric(-1.0), f, TriangleGrid(r), jobs=jobs)
            with pytest.raises(NonFiniteDefectError, match=re.escape(msg)):
                hyperstability_blowup_probe(f, -1.0, [0.25], r, jobs=jobs)

    @pytest.mark.parametrize("closed", [False, True])
    @pytest.mark.parametrize("resolution", [64, 1000])
    @pytest.mark.parametrize("span", [(0.0, 0.5), (0.25, 1.0)])
    def test_narrow_domain_raises_the_oracle_message(self, span, resolution, closed):
        xs = np.linspace(*span, 33)
        f, grid = GridSample(tuple(xs), tuple(xs * xs)), TriangleGrid(resolution, closed=closed)
        want = _outcome(lambda: _oracle_blocks(f, 2.0, grid))
        assert want[0] is DomainError
        for jobs in (1, 2):
            got = _outcome(lambda: residual(FundamentalParametric(2.0), f, grid, jobs=jobs))
            assert got == want

    @pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
    @pytest.mark.parametrize("resolution", [97, 768])
    def test_blowup_probe_matches_the_oracle(self, resolution):
        f, pts = _NODE_FUNCTIONS["noisy_power_bump"], TriangleGrid(resolution).points
        d = np.abs(fundamental_defect(f, -1.0, pts))
        s = pts[:, 0] + pts[:, 1]
        margins = [0.25, 0.125, 1.5 / resolution]
        want = [(h, float(np.max(d, where=s <= 1.0 - h + 1e-12, initial=0.0))) for h in margins]
        bad = _with_bad_node(math.nan)
        with pytest.raises(NonFiniteDefectError) as sweep:
            residual(FundamentalParametric(-1.0), bad, TriangleGrid(resolution))
        for jobs in (1, 2):
            probe = hyperstability_blowup_probe(f, -1.0, margins, resolution, jobs=jobs)
            assert probe == want
            with pytest.raises(NonFiniteDefectError) as exc:
                hyperstability_blowup_probe(bad, -1.0, margins, resolution, jobs=jobs)
            assert str(exc.value) == str(sweep.value)

    @pytest.mark.parametrize("closed", [False, True])
    def test_f_on_one_value_per_point_and_one_pow0_per_sweep(self, closed, monkeypatch):
        from infostab import equations

        grid, values, pow0_calls = TriangleGrid(64, closed=closed), [], []
        real_pow0 = equations.pow0
        monkeypatch.setattr(
            equations, "pow0", lambda *a: pow0_calls.append(1) or real_pow0(*a)
        )

        def counted(x):
            values.append(np.size(x))
            return ShannonInfo()(x)

        residual(FundamentalParametric(0.5), counted, grid)
        # the node table, then one value per point: a point's mirror shares
        # its two quotients, and the two quotients agree on the diagonal
        assert sum(values) <= grid.count + grid.resolution + 1
        assert len(pow0_calls) == 1


class TestConeEquations:
    def test_cocycle_exact(self):
        rep = residual(Cocycle(), CocycleForm(XLogX(1.0)), ConeGrid(10))
        assert rep.sup <= TINY

    def test_entropy_eq_exact_power(self):
        rep = residual(EntropyEq(), EntropySolution(0.7, 2.0), ConeGrid(10))
        assert rep.sup <= TINY

    def test_entropy_eq_exact_phi(self):
        rep = residual(EntropyEq(), PhiForm(XLogX(1.0)), ConeGrid(10))
        assert rep.sup <= 1e-11

    def test_modified_entropy_exact(self):
        f = ModifiedEntropySolution(0.4, 2.0, XLogX(1.0))
        rep = residual(ModifiedEntropy(2.0), f, ConeGrid(10))
        assert rep.sup <= 1e-11

    def test_modified_entropy_negative_degree(self):
        f = ModifiedEntropySolution(0.4, -1.0, PowerLaw(0.3, 1.0))
        rep = residual(ModifiedEntropy(-1.0), f, ConeGrid(10))
        assert rep.sup <= 1e-11


class TestIntervalEquations:
    def test_cauchy_linear(self):
        rep = residual(CauchyAdditive(), PowerLaw(2.5, 1.0), UnitGrid(32))
        assert rep.sup <= TINY

    def test_multiplicative_power(self):
        rep = residual(Multiplicative(), PowerLaw(1.0, 1.7), UnitGrid(32))
        assert rep.sup <= TINY

    def test_logarithmic(self):
        rep = residual(Logarithmic(), PowerLog(2.0, 0.0), UnitGrid(32))
        assert rep.sup <= TINY

    def test_phi_equation(self):
        rep = residual(PhiEquation(), XLogX(-1.0), UnitGrid(32))
        assert rep.sup <= TINY

    def test_daroczy_pair(self):
        rep = residual(
            DaroczyIdentity(), (ShannonInfo(), XLogX(-1.0)), UnitGrid(32)
        )
        assert rep.sup <= 1e-11

    def test_info_function_form(self):
        rep = residual(
            InfoFunctionForm(), (ShannonInfo(), XLogX(-1.0)), UnitGrid(32)
        )
        assert rep.sup <= TINY

    def test_two_function_kinds_reject_one(self):
        with pytest.raises(ConfigurationError):
            residual(DaroczyIdentity(), ShannonInfo(), UnitGrid(8))

    def test_one_function_kinds_reject_two(self):
        with pytest.raises(ConfigurationError):
            residual(CauchyAdditive(), (ShannonInfo(), ShannonInfo()), UnitGrid(8))

    def test_empty_lattice_refused(self):
        # the open UnitGrid(2) has the one point 1/2, and 1/2 + 1/2 leaves (0, 1)
        with pytest.raises(ConfigurationError, match="^empty grid: nothing to sweep$"):
            residual(CauchyAdditive(), PowerLaw(2.5, 1.0), UnitGrid(2))


class TestSumForms:
    def test_additive_exact(self):
        grids = (SimplexGrid(2, 6, closed=True), SimplexGrid(3, 6, closed=True))
        rep = residual(SumFormAdditive(2, 3), XLogX(-1.0), grids)
        assert rep.sup <= 1e-11
        assert rep.samples == grids[0].count * grids[1].count

    @pytest.mark.parametrize("alpha", [0.5, 2.0])
    def test_alpha_form_exact(self, alpha):
        grids = (SimplexGrid(2, 6, closed=True), SimplexGrid(2, 6, closed=True))
        f = alpha_sum_generator(alpha)
        rep = residual(SumFormAlpha(alpha, 2, 2), f, grids)
        assert rep.sup <= 1e-11

    def test_multiplicative_exact(self):
        grids = (SimplexGrid(2, 6, closed=True), SimplexGrid(2, 6, closed=True))
        rep = residual(SumFormMultiplicative(2, 2), PowerLaw(1.0, 1.7), grids)
        assert rep.sup <= 1e-11

    def test_needs_grid_pair(self):
        with pytest.raises(ConfigurationError):
            residual(SumFormAdditive(2, 2), XLogX(-1.0), SimplexGrid(2, 6))

    def test_dimension_mismatch(self):
        grids = (SimplexGrid(3, 6, closed=True), SimplexGrid(2, 6, closed=True))
        with pytest.raises(ConfigurationError):
            residual(SumFormAdditive(2, 2), XLogX(-1.0), grids)

    def test_pair_budget(self):
        grids = (SimplexGrid(2, 50, closed=True), SimplexGrid(2, 50, closed=True))
        with pytest.raises(BudgetExceededError):
            residual(SumFormAdditive(2, 2), XLogX(-1.0), grids, budget=100)

    def test_sum_form_blocks_carry_their_rows_apart(self):
        # a block holds views of its P rows and of Q, not a pairs x (n+m)
        # matrix; a row, or the whole matrix, is built on request
        grids = (SimplexGrid(3, 40, closed=True), SimplexGrid(3, 40, closed=True))
        work, spans = _sum_form_blocks(SumFormAdditive(3, 3), XLogX(-1.0), grids, 10**7)
        P, Q = grids[0].points, grids[1].points
        assert len(spans) > 1
        for a, b in (spans[0], spans[-1]):
            points, defects = work((a, b))
            assert len(points) == defects.size == (b - a) * len(Q)
            assert np.shares_memory(points.P, P) and points.Q is Q
            full = np.asarray(points)
            oracle = np.concatenate(
                [np.repeat(P[a:b], len(Q), axis=0), np.tile(Q, (b - a, 1))], axis=1
            )
            assert full.view(np.uint64).tobytes() == oracle.view(np.uint64).tobytes()
            for i in (0, len(Q) - 1, len(Q), defects.size - 1):
                assert _row(points, i) == tuple(oracle[i].tolist())


class TestReport:
    def test_fields_and_argmax(self):
        f = PowerFamily(1.0, 1.0, 2.0)
        bump = ScaledBump(0.25, 0.1, 0.05)
        g = lambda x: f(x) + bump(x)
        rep = residual(FundamentalParametric(2.0), g, TriangleGrid(32), mean=True)
        assert rep.samples == TriangleGrid(32).points.shape[0]
        assert len(rep.argmax_point) == 2
        assert 0.0 < rep.mean <= rep.sup
        # the worst point re-evaluates to the reported sup
        pts = np.array([rep.argmax_point])
        again = abs(float(fundamental_defect(g, 2.0, pts)[0]))
        assert math.isclose(again, rep.sup, rel_tol=1e-12)

    def test_jobs_bitwise_deterministic(self):
        f = lambda x: ShannonInfo()(x) + ScaledBump(0.3, 0.25, 0.02)(x)
        a = residual(FundamentalParametric(1.0), f, TriangleGrid(128), jobs=1, mean=True)
        b = residual(FundamentalParametric(1.0), f, TriangleGrid(128), jobs=4, mean=True)
        assert a.sup == b.sup
        assert a.mean == b.mean
        assert a.argmax_point == b.argmax_point

    def test_budget_guard(self):
        with pytest.raises(BudgetExceededError):
            residual(
                FundamentalParametric(2.0),
                PowerFamily(1.0, 1.0, 2.0),
                TriangleGrid(256),
                budget=100,
            )


class TestDumpCsv:
    def test_matches_report(self, tmp_path):
        f = lambda x: ShannonInfo()(x) + ScaledBump(0.4, 0.2, 0.01)(x)
        kind = FundamentalParametric(1.0)
        grid = TriangleGrid(24)
        path = tmp_path / "defects.csv"
        dump_defects_csv(kind, f, grid, path)
        rows = np.loadtxt(path, delimiter=",")
        rep = residual(kind, f, grid)
        assert rows.shape == (rep.samples, 3)
        assert math.isclose(float(np.abs(rows[:, 2]).max()), rep.sup, rel_tol=1e-12)

    def test_sum_form_dump(self, tmp_path):
        grids = (SimplexGrid(2, 4, closed=True), SimplexGrid(2, 4, closed=True))
        path = tmp_path / "defects.csv"
        dump_defects_csv(SumFormAdditive(2, 2), XLogX(-1.0), grids, path)
        rows = np.loadtxt(path, delimiter=",")
        assert rows.shape == (grids[0].count * grids[1].count, 5)

    def test_budget_guard(self, tmp_path):
        # the dump holds the budget that residual holds on the same points
        args = (FundamentalParametric(0.5), PowerFamily(1.0, 1.0, 0.5), TriangleGrid(256))
        with pytest.raises(BudgetExceededError):
            residual(*args, budget=100)
        path = tmp_path / "defects.csv"
        with pytest.raises(BudgetExceededError):
            dump_defects_csv(*args, path, budget=100)
        assert not path.exists()


def _rowwise_csv(rows):
    """The row-at-a-time formatting the block writer replaced, kept as its oracle."""
    out = []
    for coords, d in rows:
        out.append(",".join(f"{float(c):.17g}" for c in coords))
        out.append(f",{float(d):.17g}\n")
    return "".join(out).encode()


def _table(grid):
    """The node table arguments of _write_csv for a grid."""
    return {"nodes": grid.nodes, "text": _g17(grid.nodes)}


def _rows_in_sweep_order(kind, fns, grid):
    if isinstance(kind, SumFormAdditive):
        work, spans = _sum_form_blocks(kind, fns, grid, 10**7)
        P, Q = grid[0].points, grid[1].points
        for a, b in spans:
            for local, d in enumerate(work((a, b))[1]):
                i, j = divmod(local, Q.shape[0])
                yield np.concatenate([P[a + i], Q[j]]), d
        return
    yield from zip(*_lattice_defects(kind, fns, grid))


def _lattice_defects(kind, fns, grid):
    """The points and defects of a single-matrix kind's sweep, in lattice order."""
    work, spans = _blocks(kind, fns, grid, 10**7)
    # the open domain pairs of UnitGrid(2) are the one empty lattice, with no block
    blocks = [work(span) for span in spans] or [(np.empty((0, 2)), np.empty(0))]
    return tuple(np.concatenate(column) for column in zip(*blocks))


def _noisy_info(x):
    return ShannonInfo()(x) + ScaledBump(0.4, 0.2, 0.01)(x)


# the defect_dump benchmark's function: a power family plus a small bump
_NOISY_POWER = FunctionSum((PowerFamily(2.0, 1.0, 0.5), ScaledBump(0.47, 0.2, 1e-3)))


class TestDumpBytes:
    @pytest.mark.parametrize(
        "kind, fns, grid",
        [
            (FundamentalParametric(1.0), _noisy_info, TriangleGrid(24)),
            (FundamentalParametric(1.0), _noisy_info, TriangleGrid(32, closed=True)),
            # more than one _CHUNK block
            (FundamentalParametric(0.5), PowerFamily(1.7, -0.4, 0.5), TriangleGrid(300)),
            (EntropyEq(), EntropySolution(0.7, 2.0), ConeGrid(10, bound=2.0)),
            (ModifiedEntropy(2.0), ModifiedEntropySolution(0.4, 2.0, XLogX(1.0)), ConeGrid(10)),
            (PhiEquation(), XLogX(-1.0), UnitGrid(32, closed=True)),
            (SumFormAdditive(2, 2), XLogX(-1.0),
             (SimplexGrid(2, 4, closed=True), SimplexGrid(2, 4, closed=True))),
            # one P row per block, so the dump spans two blocks; the node
            # table is P's (R = 3), so almost every Q coordinate misses it
            # and is formatted on its own
            (SumFormAdditive(2, 2), XLogX(-1.0),
             (SimplexGrid(2, 3), SimplexGrid(2, _CHUNK // 2, closed=True))),
            # the benchmark's dump shape: two blocks, and defects written as
            # exact zeros, 0.000ddd and d.ddde-XX
            (FundamentalParametric(0.5), _NOISY_POWER, TriangleGrid(300)),
            (EntropyEq(), EntropySolution(0.7, 2.0), ConeGrid(9, bound=2.5)),
            # one kind on each unit-pair lattice
            (Multiplicative(), PowerLaw(1.0, 1.7), UnitGrid(40)),
            (CauchyAdditive(), PowerLaw(2.5, 1.0), UnitGrid(40, closed=True)),
            (DaroczyIdentity(), (ShannonInfo(), XLogX(-1.0)), UnitGrid(40, closed=True)),
        ],
    )
    def test_block_writer_matches_rowwise(self, tmp_path, kind, fns, grid):
        path = tmp_path / "defects.csv"
        dump_defects_csv(kind, fns, grid, path)
        assert path.read_bytes() == _rowwise_csv(_rows_in_sweep_order(kind, fns, grid))

    def test_special_values(self, tmp_path):
        pts = np.array(
            [[0.0, -0.0], [-0.0, 0.0], [0.5, 1.0 / 3.0], [0.0, 0.0], [-0.0, 5e-324], [1.0, 0.5]]
        )
        defects = np.array([np.nan, np.inf, -np.inf, -0.0, 5e-324, 0.1])
        path = tmp_path / "defects.csv"
        with open(path, "wb") as fh:
            _write_csv(fh, pts, defects, **_table(TriangleGrid(8)))
        assert path.read_bytes() == _rowwise_csv(zip(pts, defects))
        assert path.read_text().splitlines()[:2] == ["0,-0,nan", "-0,0,inf"]

    def test_noisy_power_defects_take_every_form(self, tmp_path):
        # the last case of the test above
        path = tmp_path / "defects.csv"
        dump_defects_csv(FundamentalParametric(0.5), _NOISY_POWER, TriangleGrid(300), path)
        texts = [line.rsplit(",", 1)[1] for line in path.read_text().splitlines()]
        assert len(texts) > _CHUNK
        assert "0" in texts
        assert any("e-" in t for t in texts)
        assert any(t.lstrip("-").startswith("0.0") for t in texts)

    def test_table_misses_are_formatted_on_their_own(self, tmp_path):
        # coordinates whose bits are not the table node at rint(x / step):
        # signed zero, values between and past the nodes, a node of another
        # resolution, and values whose quotient overflows or is NaN
        pts = np.array(
            [[0.125, -0.0], [1.0 / 3.0, 0.875], [1.0, 1.5], [-0.125, 1e308],
             [np.nan, np.inf], [-np.inf, 5e-324], [0.5, 0.0625 + 2**-55]]
        )
        defects = np.arange(len(pts)) / 7.0
        path = tmp_path / "defects.csv"
        with open(path, "wb") as fh:
            _write_csv(fh, pts, defects, **_table(TriangleGrid(8)))
        assert path.read_bytes() == _rowwise_csv(zip(pts, defects))

    def test_coordinates_formatted_once_per_node(self, tmp_path, monkeypatch):
        # the benchmark's dump formats its 293,761 defects and, once, the
        # 769 nodes of the table; a slice-by-slice writer formatted 37,429
        # coordinate values
        from infostab import domains, equations

        grid, sizes = TriangleGrid(768), []
        real = domains._g17
        for module in (domains, equations):
            monkeypatch.setattr(module, "_g17", lambda v: sizes.append(np.size(v)) or real(v))
        dump_defects_csv(FundamentalParametric(0.5), _NOISY_POWER, grid, tmp_path / "d.csv")
        assert grid.count == 293_761
        assert grid.count <= sum(sizes) <= grid.count + grid.resolution + 1

    def test_block_writer_memory(self):
        # one full R=768 block of the benchmark's dump, whose text the
        # BytesIO holds; the writer that called '%.17g' per value peaked at
        # 2.9 times that text
        work, items = _blocks(FundamentalParametric(0.5), _NOISY_POWER, TriangleGrid(768), 10**7)
        pts, defects = work(items[0])
        assert len(pts) == _CHUNK
        table = _table(TriangleGrid(768))
        fh = io.BytesIO()
        tracemalloc.start()
        try:
            _write_csv(fh, pts, defects, **table)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 3 * len(fh.getvalue())


class TestSymmetryHomogeneity:
    def test_symmetric_function_passes(self):
        rep = symmetry_residual(EntropySolution(0.7, 2.0), ConeGrid(8))
        assert rep.sup <= TINY

    def test_asymmetric_function_fails(self):
        class Lopsided(EntropySolution):
            def _values(self, x, y, z):
                return x * 0.0 + x

        rep = symmetry_residual(Lopsided(1.0, 2.0), ConeGrid(4))
        assert rep.sup > 0.1

    @pytest.mark.parametrize("budget", [100, 6 * 120**3 - 1])
    def test_symmetry_budget_refuses_before_the_points(self, budget):
        # the 1,728,000 points of ConeGrid(120) take 41 MB; the grid holds
        # no budget, so the sweep checks its 6 R^3 samples before it reads them
        grid = ConeGrid(120)
        tracemalloc.start()
        try:
            with pytest.raises(
                BudgetExceededError, match=f"^10368000 defect samples exceed the budget of {budget}$"
            ):
                symmetry_residual(EntropySolution(0.7, 2.0), grid, budget=budget)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**20
        assert "points" not in vars(grid)

    def test_homogeneous_lift(self):
        F = RatioLift(ShannonInfo(), 1.0)
        rep = homogeneity_residual(F, 1.0, PairGrid(12, bound=0.5))
        assert rep.sup <= TINY

    def test_degree_mismatch_detected(self):
        F = RatioLift(ShannonInfo(), 1.0)
        rep = homogeneity_residual(F, 2.0, PairGrid(8, bound=0.5))
        assert rep.sup > 0.1

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_stacked_blocks_match_whole_array_oracle(self, jobs):
        # a block stacks every variant of its rows, so in sweep order a hit
        # sorts by its block of _CHUNK rows, then its variant, then its row
        def first_in_sweep_order(pts, hits):
            variant, row = np.nonzero(hits)
            return tuple(pts[min(zip(row // _CHUNK, variant, row))[2]].tolist())

        class Skewed(TernaryFunction):
            def __init__(self, holed):
                self.holed = holed

            def _values(self, x, y, z):
                out = x * y * y + 2.0 * x * z - z * z * z
                return np.where((x > 0.9) & (z < 0.1), math.nan, out) if self.holed else out

        class Tilted(BivariateFunction):
            def __init__(self, holed):
                self.holed = holed

            def _values(self, u, v):
                out = u * u * v + 0.3 * v
                return np.where((u > 0.95) & (v < 0.05), math.nan, out) if self.holed else out

        cone, pairs, ts = ConeGrid(33), PairGrid(200), (0.25, 0.5, 2.0, 4.0)

        def symmetry_whole(F):
            x, y, z = cone.points.T
            cols = (x, y, z)
            return np.stack([F(*(cols[i] for i in p)) - F(x, y, z) for p in permutations(range(3))])

        def homogeneity_whole(F):
            u, v = pairs.points.T
            return np.stack([F(t * u, t * v) - t**2.0 * F(u, v) for t in ts])

        cases = (
            (Skewed, cone, lambda F: symmetry_residual(F, cone, jobs=jobs), symmetry_whole),
            (Tilted, pairs, lambda F: homogeneity_residual(F, 2.0, pairs, jobs=jobs),
             homogeneity_whole),
        )
        for cls, grid, sweep, whole in cases:
            pts = grid.points
            assert pts.shape[0] > _CHUNK
            d = np.abs(whole(cls(False)))
            rep = sweep(cls(False))
            assert rep.sup == d.max()
            assert rep.argmax_point == first_in_sweep_order(pts, d == d.max())
            assert rep.mean is None
            bad = ~np.isfinite(whole(cls(True)))
            assert 0 < bad.sum() < bad.size
            with pytest.raises(NonFiniteDefectError) as exc:
                sweep(cls(True))
            assert f"{bad.sum()} of {bad.size} defects" in str(exc.value)
            assert f"the first at {first_in_sweep_order(pts, bad)}" in str(exc.value)


@settings(max_examples=25, deadline=None)
@given(
    a=st.floats(-3, 3, allow_nan=False),
    b=st.floats(-3, 3, allow_nan=False),
    alpha=st.sampled_from([-1.0, 0.5, 2.0, 3.0]),
)
def test_family_members_always_solve(a, b, alpha):
    rep = residual(
        FundamentalParametric(alpha), PowerFamily(a, b, alpha), TriangleGrid(12)
    )
    assert rep.sup <= 1e-10


def _exact_sum(blocks):
    arrays = [np.asarray(b, dtype=float) for b in blocks]
    return sum(_exact_total(a) for a in arrays) / (1 << _SCALE)


_NONNEG_FINITE = st.one_of(
    st.sampled_from([0.0, 5e-324, 2.0**-1022, 1.0, 1e308, 1.7976931348623157e308]),
    st.floats(min_value=0.0, max_value=2.0**-1022),
    st.floats(min_value=0.0, allow_infinity=False),
)


# zero, the least and largest subnormals, the least normal, one and the
# largest float: the edges of the exponent and mantissa decode
_DECODE_EDGES = [0.0, 5e-324, 2.225073858507201e-308, 2.2250738585072014e-308, 1.0,
                 1.7976931348623157e308]


class TestExactMean:
    @settings(max_examples=300, deadline=None)
    @given(values=st.lists(_NONNEG_FINITE, max_size=40), data=st.data())
    def test_matches_fsum_for_any_split_and_order(self, values, data):
        cuts = sorted(data.draw(st.lists(st.integers(0, len(values)), max_size=4)))
        bounds = [0, *cuts, len(values)]
        blocks = data.draw(st.permutations([values[a:b] for a, b in zip(bounds, bounds[1:])]))
        try:
            want = math.fsum(values)
        except OverflowError:
            with pytest.raises(OverflowError):
                _exact_sum(blocks)
            return
        assert _exact_sum(blocks).hex() == want.hex()

    @pytest.mark.parametrize("seed", range(6))
    def test_matches_fsum_on_wide_blocks(self, seed):
        rng = np.random.default_rng(seed)
        v = np.abs(rng.standard_normal(50_000)) * 10.0 ** rng.integers(-300, 300, 50_000)
        if seed % 2:
            v[::7] = rng.integers(0, 2**52, v[::7].size).view(np.float64)  # subnormals
        blocks = np.array_split(v, 5)[::-1]
        assert _exact_sum(blocks).hex() == math.fsum(v.tolist()).hex()

    @pytest.mark.parametrize("value", _DECODE_EDGES)
    def test_decode_edges_alone(self, value):
        assert _exact_sum([[value]]).hex() == math.fsum([value]).hex()
        # the largest float stays alone: two of it overflow
        n = 1 if value == _DECODE_EDGES[-1] else 1000
        assert _exact_sum([[value] * n]).hex() == math.fsum([value] * n).hex()

    def test_decode_edges_mixed(self):
        *small, largest = _DECODE_EDGES
        mixed = [v for v in small for _ in range(7)] + small[::-1]
        for blocks in ([mixed], [mixed[::2], mixed[1::2]], [[v] for v in mixed]):
            assert _exact_sum(blocks).hex() == math.fsum(mixed).hex()
            # the largest float once, in a block of its own and in the first block
            want = math.fsum([*mixed, largest]).hex()
            assert _exact_sum([*blocks, [largest]]).hex() == want
            assert _exact_sum([[*blocks[0], largest], *blocks[1:]]).hex() == want

    def test_overflow_parity(self):
        with pytest.raises(OverflowError):
            math.fsum([1.7e308, 1.7e308])
        with pytest.raises(OverflowError):
            _exact_sum([[1.7e308, 1.7e308]])
        with pytest.raises(OverflowError):
            _exact_sum([[1.7e308], [1.7e308]])

    def test_residual_mean_is_fsum_and_independent_of_jobs(self):
        f = FunctionSum((PowerFamily(2.0, 1.0, 0.5), ScaledBump(0.4, 0.2, 1e-3)))
        grid = TriangleGrid(700)
        kind = FundamentalParametric(0.5)
        reps = [residual(kind, f, grid, jobs=j, mean=True) for j in (1, 2)]
        assert grid.points.shape[0] > 4 * _CHUNK
        assert reps[0] == reps[1]
        assert reps[0].mean.hex() == reps[1].mean.hex()
        pts, d = _lattice_defects(kind, f, grid)
        d = np.abs(d)
        # the concatenate-and-fsum mean the blocked accumulator replaced
        assert reps[0].mean.hex() == (math.fsum(d.tolist()) / d.size).hex()
        assert reps[0].sup == float(d.max())
        assert reps[0].argmax_point == tuple(pts[int(np.argmax(d))].tolist())

    def test_mean_of_a_total_past_the_float_range(self):
        # the sum of |defect| overflows a float and its mean does not: the
        # exact mean, rounded once
        f = FunctionSum((PowerFamily(2.0, 1.0, 0.5), ScaledBump(0.5, 0.2, 1e307)))
        kind, grid = FundamentalParametric(0.5), TriangleGrid(16)
        d = np.abs(_lattice_defects(kind, f, grid)[1])
        with pytest.raises(OverflowError):
            math.fsum(d.tolist())
        want = float(sum(map(Fraction, d.tolist())) / d.size)
        for jobs in (1, 2):
            assert residual(kind, f, grid, jobs=jobs, mean=True).mean.hex() == want.hex()


# blocks whose exact sums need far more than 53 bits: 1.5 beside 4,093 values
# just above 2**-40 with bits down to 2**-82; the exponent and mantissa edges;
# the largest float beside 1e307, 3.0 and 1e-300; subnormals alone; 1.0 beside
# 5e-324; powers of two 37 binades apart down to 2**-999; and blocks of
# zeros, of one value and of none.
_EXTRACTION_EDGES = {
    "remainders_at_the_bound": [1.5, *(2.0**-40 + np.arange(1, 4094) * 2.0**-82).tolist()],
    "decode_edges": _DECODE_EDGES,
    "sigma_above_range": [1e307, 3.0, 0.0, 1.7976931348623157e308, 1e-300, 1e307],
    "sigma_below_range": [5e-324, 2.225073858507201e-308, 0.0, 1e-310, 5e-324],
    "level_cap": [1.0, 5e-324],
    "level_cap_ladder": (2.0 ** -np.arange(0.0, 1000.0, 37.0)).tolist(),
    "all_zero": [0.0] * 9,
    "one_value": [0.1],
    "empty": [],
}


def _assert_exact_total(values):
    v = np.asarray(values, dtype=float)
    before = v.copy()
    assert _exact_total(v) == scaled_sum(v, _SCALE)
    assert float_bits(v) == float_bits(before)  # the caller's array is only read


class TestExactTotal:
    @settings(max_examples=100, deadline=None)
    @given(
        size=st.integers(0, 3000),
        exponents=st.tuples(st.integers(0, 2046), st.integers(0, 2046)),
        zeros=st.floats(0.0, 1.0),
        seed=st.integers(0, 2**32 - 1),
        raw=st.lists(st.integers(0, 0x7FEFFFFFFFFFFFFF), max_size=8),
    )
    def test_matches_the_oracle_on_raw_bits(self, size, exponents, zeros, seed, raw):
        # biased exponents in a drawn window and uniform fraction bits, some
        # values zeroed, and a few raw bit patterns anywhere in the block
        rng = np.random.default_rng(seed)
        lo, hi = sorted(exponents)
        bits = (rng.integers(lo, hi + 1, size) << 52) | rng.integers(0, 1 << 52, size)
        bits[rng.random(size) < zeros] = 0
        bits = np.concatenate((bits, np.array(raw, dtype=np.int64)))
        rng.shuffle(bits)
        _assert_exact_total(bits.view(np.float64))

    @pytest.mark.parametrize("value", _DECODE_EDGES)
    def test_decode_edges(self, value):
        _assert_exact_total([value])
        _assert_exact_total([value] * 1000)

    @pytest.mark.parametrize("values", _EXTRACTION_EDGES.values(), ids=_EXTRACTION_EDGES)
    def test_extraction_edges(self, values):
        _assert_exact_total(values)

    @pytest.mark.parametrize("size", [0, 1, 7, 8, 15, 1000])
    def test_slices(self, monkeypatch, size):
        # with slices of 7 values, a block of 8 or more spans several, and
        # each slice must add its own values
        from infostab import equations

        monkeypatch.setattr(equations, "_EXACT_ROWS", 7)
        rng = np.random.default_rng(size)
        wide = np.abs(rng.standard_normal(size)) * 10.0 ** rng.integers(-300, 300, size)
        _assert_exact_total(np.resize(_DECODE_EDGES, size))
        _assert_exact_total(rng.permutation(np.concatenate((_DECODE_EDGES, wide)))[:size])


_FAMILY = PowerFamily(1.0, 1.0, 0.5)
_MEASURE = exact_measure(0.5, max_n=6)
_UNIT = (0.0, 1.0)

_REFUSAL = r"^\d+ defect samples exceed the budget of \d+$"
# each sweep asks for more defect samples than its budget: the count it names
# is the "samples" its report would carry
_OVER_BUDGET = {
    "residual_triangle": lambda path: residual(
        FundamentalParametric(0.5), _FAMILY, TriangleGrid(64), budget=100
    ),
    "residual_sum_form": lambda path: residual(
        SumFormAdditive(3, 3), XLogX(-1.0), (SimplexGrid(3, 12, closed=True),) * 2, budget=1000
    ),
    "dump_defects_csv": lambda path: dump_defects_csv(
        FundamentalParametric(0.5), _FAMILY, TriangleGrid(64), path, budget=100
    ),
    # 165 points fit the budget, their 24 permutations do not
    "check_symmetry": lambda path: check_symmetry(_MEASURE, 4, 12, budget=500),
    "recursivity_defect": lambda path: recursivity_defect(_MEASURE, 4, 40, budget=100),
    # levels 3 and 4 fit, level 5 does not
    "certify_measure_sequence": lambda path: certify_measure_sequence(
        _MEASURE, 6, 30, budget=10_000
    ),
    # refused at the semi-symmetry sweep, by the sweep's budget and not the grid's
    "certify_measure_sequence_small": lambda path: certify_measure_sequence(
        _MEASURE, 6, 30, budget=100
    ),
    "check_semisymmetry3": lambda path: check_semisymmetry3(_MEASURE, 40, budget=100),
    "check_sum_property": lambda path: check_sum_property(
        _MEASURE, XLogX(-1.0), 4, 40, budget=100
    ),
    "tabulate": lambda path: tabulate(_MEASURE, 4, 40, budget=100),
    "certify_sum_form": lambda path: certify_sum_form(PowerLaw(1.0, 1.0), 3, 64, budget=100),
    "certify_associativity": lambda path: certify_associativity(
        PhiOfSum(PowerLaw(1.0, 2.0)), PhiOfSum(PowerLaw(1.0, 2.0)), _UNIT, _UNIT, _UNIT, 20,
        budget=100,
    ),
}
# the unit-pair and cone kinds of residual, each with a grid of its kind
_PAIR_AND_CONE_KINDS = {
    "cauchy_additive": (CauchyAdditive(), PowerLaw(2.5, 1.0), UnitGrid),
    "multiplicative": (Multiplicative(), PowerLaw(1.0, 1.7), UnitGrid),
    "logarithmic": (Logarithmic(), PowerLog(2.0, 0.0), UnitGrid),
    "phi_equation": (PhiEquation(), XLogX(-1.0), UnitGrid),
    "daroczy_identity": (DaroczyIdentity(), (ShannonInfo(), XLogX(-1.0)), UnitGrid),
    "cocycle": (Cocycle(), CocycleForm(XLogX(1.0)), ConeGrid),
    "entropy_eq": (EntropyEq(), EntropySolution(0.7, 2.0), ConeGrid),
    "modified_entropy": (
        ModifiedEntropy(2.0), ModifiedEntropySolution(0.4, 2.0, XLogX(1.0)), ConeGrid
    ),
}
_OVER_BUDGET.update(
    (f"residual_{name}", lambda path, k=k, f=f, g=g: residual(k, f, g(16), budget=100))
    for name, (k, f, g) in _PAIR_AND_CONE_KINDS.items()
)


_NOISY_POWER = FunctionSum((PowerFamily(2.0, 1.0, 0.5), ScaledBump(0.4, 0.2, 1e-3)))
_SIMPLEX_PAIR = (SimplexGrid(3, 20, closed=True),) * 2
# every equation kind on a lattice of more than one block
_EVERY_KIND = {
    "fundamental_open": (FundamentalParametric(0.5), _NOISY_POWER, TriangleGrid(400)),
    "fundamental_closed": (
        FundamentalParametric(0.5), _NOISY_POWER, TriangleGrid(400, closed=True)
    ),
    "sum_form_additive": (SumFormAdditive(3, 3), _NOISY_POWER, _SIMPLEX_PAIR),
    "sum_form_alpha": (SumFormAlpha(0.5, 3, 3), _NOISY_POWER, _SIMPLEX_PAIR),
    "sum_form_multiplicative": (SumFormMultiplicative(3, 3), _NOISY_POWER, _SIMPLEX_PAIR),
    "info_function_form": (InfoFunctionForm(), (ShannonInfo(), XLogX(-1.0)), UnitGrid(40_000)),
    **{name: (k, f, g(300) if g is UnitGrid else g(40))
       for name, (k, f, g) in _PAIR_AND_CONE_KINDS.items()},
}


class TestSupOnlySweeps:
    @pytest.mark.parametrize("name", sorted(_EVERY_KIND))
    def test_sup_only_report_keeps_every_other_field(self, name):
        kind, fns, grid = _EVERY_KIND[name]
        assert len(_blocks(kind, fns, grid, 10**7, mirrored=True)[1]) > 1
        want = residual(kind, fns, grid, mean=True)
        assert want.mean > 0.0
        for jobs in (1, 2):
            got = residual(kind, fns, grid, jobs=jobs)
            assert got.mean is None
            assert got.sup.hex() == want.sup.hex()
            assert (got.argmax_point, got.samples) == (want.argmax_point, want.samples)


class TestBudget:
    @pytest.mark.parametrize("sweep", sorted(_OVER_BUDGET))
    def test_every_sweep_refuses_with_one_message(self, tmp_path, sweep):
        path = tmp_path / "defects.csv"
        with pytest.raises(BudgetExceededError, match=_REFUSAL):
            _OVER_BUDGET[sweep](path)
        assert not path.exists()

    def test_triangle_refused_before_it_is_built(self):
        # its 4,495,501 points alone would take 72 MB
        tracemalloc.start()
        try:
            with pytest.raises(BudgetExceededError, match="^4495501 defect samples"):
                residual(FundamentalParametric(0.5), _FAMILY, TriangleGrid(3000), budget=100)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**20

    @pytest.mark.parametrize("name", sorted(_PAIR_AND_CONE_KINDS))
    def test_pairs_and_cones_refused_before_they_are_built(self, name):
        # at resolution 3000 the pairs alone would take 72 to 144 MB, and the
        # 1,728,000 points of ConeGrid(120) take 41 MB
        kind, fns, grid = _PAIR_AND_CONE_KINDS[name]
        grid = grid(3000) if grid is UnitGrid else grid(120)
        tracemalloc.start()
        try:
            with pytest.raises(BudgetExceededError, match=_REFUSAL):
                residual(kind, fns, grid, budget=100)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**20

    @pytest.mark.parametrize("name", sorted(_PAIR_AND_CONE_KINDS))
    def test_closed_form_counts_match_the_built_points(self, name):
        kind, fns, grid = _PAIR_AND_CONE_KINDS[name]
        grids = [grid(r) for r in range(2, 41)]
        if grid is UnitGrid:
            grids += [UnitGrid(r, closed=True) for r in range(2, 41)]
        for g in grids:
            n = _lattice_defects(kind, fns, g)[0].shape[0]
            _blocks(kind, fns, g, n)
            with pytest.raises(BudgetExceededError, match=f"^{n} defect samples"):
                _blocks(kind, fns, g, n - 1)


def _meshgrid_pairs(grid, keep):
    """The meshgrid-and-filter unit-pair build, kept as the oracle of its
    replacement."""
    x, y = np.meshgrid(grid.points, grid.points, indexing="ij")
    pts = np.stack([x.ravel(), y.ravel()], axis=1)
    if keep == "all":
        return pts
    s = pts[:, 0] + pts[:, 1]
    if keep == "nonzero":
        return pts[s > 0]
    return pts[s <= 1.0 + 1e-12 if grid.closed else s < 1.0 - 1e-12]


class TestUnitPairs:
    @pytest.mark.parametrize("closed", [False, True])
    @pytest.mark.parametrize("keep", ["all", "domain", "nonzero"])
    def test_matches_the_meshgrid_oracle(self, keep, closed):
        # the kinds whose lattices are these pairs
        name = {"all": "multiplicative", "domain": "cauchy_additive", "nonzero": "daroczy_identity"}
        kind, fns, _ = _PAIR_AND_CONE_KINDS[name[keep]]
        for r in [*range(2, 41), 96, 255, 256, 1000]:
            grid = UnitGrid(r, closed=closed)
            got = _lattice_defects(kind, fns, grid)[0]
            want = _meshgrid_pairs(grid, keep)
            assert got.shape == want.shape, r
            assert np.array_equal(got.view(np.uint64), want.view(np.uint64)), r

    @pytest.mark.parametrize("r", [2, 3, 7, 96, 1000])
    def test_open_domain_pairs_are_the_open_triangle(self, r):
        # one x-major pair set, bit for bit; at R = 2 its only row holds no pair
        got = _unit_rows(UnitGrid(r), "domain pairs", 10**7)
        want = TriangleGrid(r).points if r > 2 else np.empty((0, 2))
        assert got.shape == want.shape
        assert np.array_equal(got.view(np.uint64), want.view(np.uint64))

    def test_builds_only_the_kept_pairs(self):
        # 1,997,001 kept pairs take 30 MB; the meshgrid build peaked at 202 MB
        tracemalloc.start()
        try:
            residual(CauchyAdditive(), PowerLaw(2.5, 1.0), UnitGrid(2000))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 80 * 2**20


def _with_bad_node(bad, node=20):
    g = sampled(PowerFamily(1.0, 1.0, 0.5), 64)
    ys = list(g.ys)
    ys[node] = bad
    return GridSample(g.xs, tuple(ys))


@pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
class TestNonFiniteDefects:
    def test_error_type(self):
        assert issubclass(NonFiniteDefectError, InfostabError)
        assert issubclass(NonFiniteDefectError, ArithmeticError)

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_residual_and_certificate_raise(self, bad):
        f = _with_bad_node(bad)
        kind, grid = FundamentalParametric(0.5), TriangleGrid(64)
        pts, defects = _lattice_defects(kind, f, grid)
        nonfinite = ~np.isfinite(defects)
        first = tuple(pts[int(np.argmax(nonfinite))].tolist())
        msg = f"{int(nonfinite.sum())} of {pts.shape[0]} defects"
        for jobs in (1, 2):
            with pytest.raises(NonFiniteDefectError) as exc:
                residual(kind, f, grid, jobs=jobs)
            assert msg in str(exc.value) and str(first) in str(exc.value)
        with pytest.raises(NonFiniteDefectError):
            certify_fundamental_open(f, 0.5, 64)

    def test_all_nan_sweep_raises(self):
        class Undefined(EntropySolution):
            def _values(self, x, y, z):
                return x * math.nan

        with pytest.raises(NonFiniteDefectError, match=f"{6 * 4**3} of {6 * 4**3}"):
            symmetry_residual(Undefined(1.0, 2.0), ConeGrid(4))

    def test_sum_form_points_follow_sweep_order(self):
        # more than _CHUNK Q rows, so each P row is a block of its own
        grids = (SimplexGrid(2, 8, closed=True), SimplexGrid(3, 260, closed=True))
        kind = SumFormAdditive(2, 3)

        def point_of_first(flags):
            # the global divmod the per-block point maps replaced, kept as their oracle
            i, j = divmod(int(np.argmax(flags)), grids[1].count)
            return tuple(np.concatenate([grids[0].points[i], grids[1].points[j]]).tolist())

        def all_defects(f):
            work, spans = _sum_form_blocks(kind, f, grids, 10**7)
            assert len(spans) == grids[0].count and grids[1].count > _CHUNK
            return np.concatenate([work(span)[1] for span in spans])

        noisy = FunctionSum((XLogX(-1.0), ScaledBump(0.4, 0.2, 1e-3)))
        d = np.abs(all_defects(noisy))
        assert int(np.argmax(d)) >= grids[1].count
        for jobs in (1, 2):
            rep = residual(kind, noisy, grids, jobs=jobs)
            assert rep.argmax_point == point_of_first(d == d.max())
        bad = _with_bad_node(math.nan, node=40)
        first = point_of_first(~np.isfinite(all_defects(bad)))
        with pytest.raises(NonFiniteDefectError) as exc:
            residual(kind, bad, grids, jobs=2)
        assert str(first) in str(exc.value)


class TestOrderedMap:
    """_imap: results in item order, a bounded window, errors in order."""

    @pytest.mark.parametrize("jobs", [1, 2, 3])
    def test_results_come_back_in_item_order(self, jobs):
        def fn(i):
            time.sleep((i * 7 % 5) * 2e-4)  # later items often finish first
            return i * i

        assert list(_imap(fn, range(30), jobs)) == [i * i for i in range(30)]

    @pytest.mark.parametrize("jobs", [1, 2, 3])
    def test_items_are_pulled_at_most_two_jobs_ahead(self, jobs):
        consumed, ahead = [0], []

        def items():
            for i in range(40):
                ahead.append(i + 1 - consumed[0])
                yield i

        for _ in _imap(lambda i: time.sleep(1e-4), items(), jobs):
            consumed[0] += 1
        assert consumed[0] == 40
        assert max(ahead) == (1 if jobs == 1 else 2 * jobs)

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_the_first_error_in_item_order_is_raised(self, jobs):
        calls = []

        def fn(i):
            calls.append(i)
            if i == 3:
                time.sleep(0.02)  # block 5 raises first in time
            if i in (3, 5):
                raise ValueError(f"block {i}")
            return i

        before = threading.active_count()
        with pytest.raises(ValueError, match="block 3"):
            list(_imap(fn, range(40), jobs))
        assert threading.active_count() == before
        # the window stopped at block 3 + 2 * jobs; pending blocks were cancelled
        assert max(calls) <= 3 + 2 * jobs

    @pytest.mark.parametrize("count", [0, 1])
    def test_a_one_item_sweep_starts_no_thread(self, count):
        seen = []
        fn = lambda i: seen.append((threading.current_thread(), threading.active_count()))
        before = threading.active_count()
        list(_imap(fn, range(count), 4))
        assert seen == [(threading.main_thread(), before)] * count

    def test_no_more_threads_than_items(self):
        counts = []
        before = threading.active_count()
        list(_imap(lambda i: counts.append(threading.active_count()), range(3), 16))
        assert max(counts) <= before + 3
        assert threading.active_count() == before
