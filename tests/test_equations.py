"""Residual sweeps for every supported equation kind."""

import math
import tracemalloc
from itertools import permutations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from _helpers import exact_measure, fundamental_defect
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
    alpha_sum_generator,
    certify_associativity,
    certify_fundamental_open,
    certify_measure_sequence,
    certify_sum_form,
    check_symmetry,
    dump_defects_csv,
    homogeneity_residual,
    product_distribution,
    recursivity_defect,
    residual,
    sampled,
    sum_property_cauchy_gap,
    symmetry_residual,
)
from infostab.equations import (
    _CHUNK,
    _SCALE,
    _blocks,
    _defect_and_points,
    _exact_total,
    _sum_form_blocks,
    _write_defect_rows,
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


class TestNodeTables:
    """The node-table kernel against the per-point oracle, bit for bit."""

    @pytest.mark.parametrize("closed", [False, True])
    @pytest.mark.parametrize("resolution", [3, 7, 96, 384, 768, 1000, 2048])
    def test_blocks_match_the_oracle(self, resolution, closed):
        grid = TriangleGrid(resolution, closed=closed)
        configs = [(a, name) for a in _NODE_ALPHAS for name in _NODE_FUNCTIONS]
        if resolution >= 1000:
            # every alpha and every function once, to keep the suite fast
            configs = list(zip(_NODE_ALPHAS * 2, _NODE_FUNCTIONS))
        for alpha, name in configs:
            f = _NODE_FUNCTIONS[name]
            want = _outcome(lambda: _oracle_blocks(f, alpha, grid))

            def tabled():
                work, items = _blocks(FundamentalParametric(alpha), f, grid, 10**7)
                return [work(item) for item in items]

            got = _outcome(tabled)
            if isinstance(want, tuple):  # LogFamily at 1 on the closed edge
                assert got == want, (name, alpha)
                continue
            assert len(got) == len(want)
            for (gp, gd), (wp, wd) in zip(got, want):
                assert np.array_equal(gp, wp) and gd.dtype == np.float64
                assert np.array_equal(gd.view(np.uint64), wd.view(np.uint64)), (name, alpha)

    @pytest.mark.parametrize("closed", [False, True])
    def test_residual_reduces_the_oracle(self, closed):
        f, grid = _NODE_FUNCTIONS["noisy_power_bump"], TriangleGrid(768, closed=closed)
        d = np.abs(fundamental_defect(f, 0.5, grid.points))
        for jobs in (1, 2):
            rep = residual(FundamentalParametric(0.5), f, grid, jobs=jobs)
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

    @pytest.mark.parametrize("closed", [False, True])
    @pytest.mark.parametrize("resolution", [64, 1000])
    @pytest.mark.parametrize("span", [(0.0, 0.5), (0.25, 1.0)])
    def test_narrow_domain_raises_the_oracle_message(self, span, resolution, closed):
        xs = np.linspace(*span, 33)
        f, grid = GridSample(tuple(xs), tuple(xs * xs)), TriangleGrid(resolution, closed=closed)
        want = _outcome(lambda: _oracle_blocks(f, 2.0, grid))
        assert want[0] is DomainError
        assert _outcome(lambda: residual(FundamentalParametric(2.0), f, grid)) == want

    @pytest.mark.parametrize("closed", [False, True])
    def test_f_on_two_values_per_point_and_one_pow0_per_sweep(self, closed, monkeypatch):
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
        assert sum(values) <= 2 * grid.count + grid.resolution + 1
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

    def test_product_distribution(self):
        out = product_distribution([0.5, 0.5], [0.5, 0.25, 0.25])
        assert out.shape == (1, 6)
        assert math.isclose(float(out.sum()), 1.0, abs_tol=1e-12)


class TestReport:
    def test_fields_and_argmax(self):
        f = PowerFamily(1.0, 1.0, 2.0)
        bump = ScaledBump(0.25, 0.1, 0.05)
        g = lambda x: f(x) + bump(x)
        rep = residual(FundamentalParametric(2.0), g, TriangleGrid(32))
        assert rep.samples == TriangleGrid(32).points.shape[0]
        assert len(rep.argmax_point) == 2
        assert 0.0 < rep.mean <= rep.sup
        # the worst point re-evaluates to the reported sup
        pts = np.array([rep.argmax_point])
        again = abs(float(fundamental_defect(g, 2.0, pts)[0]))
        assert math.isclose(again, rep.sup, rel_tol=1e-12)

    def test_within_target_logic(self):
        rep = residual(
            FundamentalParametric(2.0),
            PowerFamily(1.0, 2.0, 2.0),
            TriangleGrid(16),
            epsilon_target=1e-9,
        )
        assert rep.within_target
        rep2 = residual(
            FundamentalParametric(2.0),
            lambda x: PowerFamily(1.0, 2.0, 2.0)(x) + ScaledBump(0.5, 0.2, 1.0)(x),
            TriangleGrid(16),
            epsilon_target=1e-9,
        )
        assert not rep2.within_target
        assert rep2.epsilon_target == 1e-9

    def test_jobs_bitwise_deterministic(self):
        f = lambda x: ShannonInfo()(x) + ScaledBump(0.3, 0.25, 0.02)(x)
        a = residual(FundamentalParametric(1.0), f, TriangleGrid(128), jobs=1)
        b = residual(FundamentalParametric(1.0), f, TriangleGrid(128), jobs=4)
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


def _rows_in_sweep_order(kind, fns, grid):
    if isinstance(kind, SumFormAdditive):
        work, spans = _sum_form_blocks(kind, fns, grid, 10**7)
        P, Q = grid[0].points, grid[1].points
        for a, b in spans:
            for local, d in enumerate(work((a, b))[1]):
                i, j = divmod(local, Q.shape[0])
                yield np.concatenate([P[a + i], Q[j]]), d
        return
    pts, defect = _defect_and_points(kind, fns, grid, 10**7)
    for a in range(0, pts.shape[0], _CHUNK):
        block = pts[a : a + _CHUNK]
        yield from zip(block, np.asarray(defect(block)))


def _noisy_info(x):
    return ShannonInfo()(x) + ScaledBump(0.4, 0.2, 0.01)(x)


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
            # one P row per block, so the dump spans two blocks
            (SumFormAdditive(2, 2), XLogX(-1.0),
             (SimplexGrid(2, 3), SimplexGrid(2, _CHUNK // 2, closed=True))),
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
        with open(path, "w") as fh:
            _write_defect_rows(fh, pts, defects)
        assert path.read_bytes() == _rowwise_csv(zip(pts, defects))
        assert path.read_text().splitlines()[:2] == ["0,-0,nan", "-0,0,inf"]


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

    def test_homogeneous_lift(self):
        F = RatioLift(ShannonInfo(), 1.0)
        rep = homogeneity_residual(F, 1.0, PairGrid(12, bound=0.5))
        assert rep.sup <= TINY

    def test_degree_mismatch_detected(self):
        F = RatioLift(ShannonInfo(), 1.0)
        rep = homogeneity_residual(F, 2.0, PairGrid(8, bound=0.5))
        assert rep.sup > 0.1

    def test_bad_t_set(self):
        F = RatioLift(ShannonInfo(), 1.0)
        with pytest.raises(ConfigurationError):
            homogeneity_residual(F, 1.0, PairGrid(4), t_set=(0.5, -1.0))

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
            (Tilted, pairs, lambda F: homogeneity_residual(F, 2.0, pairs, ts, jobs=jobs),
             homogeneity_whole),
        )
        for cls, grid, sweep, whole in cases:
            pts = grid.points
            assert pts.shape[0] > _CHUNK
            d = np.abs(whole(cls(False)))
            rep = sweep(cls(False))
            assert rep.sup == d.max()
            assert rep.argmax_point == first_in_sweep_order(pts, d == d.max())
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
    return sum(_exact_total(np.asarray(b, dtype=float)) for b in blocks) / (1 << _SCALE)


_NONNEG_FINITE = st.one_of(
    st.sampled_from([0.0, 5e-324, 2.0**-1022, 1.0, 1e308, 1.7976931348623157e308]),
    st.floats(min_value=0.0, max_value=2.0**-1022),
    st.floats(min_value=0.0, allow_infinity=False),
)


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
        reps = [residual(kind, f, grid, jobs=j) for j in (1, 2)]
        assert grid.points.shape[0] > 4 * _CHUNK
        assert reps[0] == reps[1]
        assert reps[0].mean.hex() == reps[1].mean.hex()
        pts, defect = _defect_and_points(kind, f, grid, 10**7)
        d = np.abs(defect(pts))
        # the concatenate-and-fsum mean the blocked accumulator replaced
        assert reps[0].mean.hex() == (math.fsum(d.tolist()) / d.size).hex()
        assert reps[0].sup == float(d.max())
        assert reps[0].argmax_point == tuple(pts[int(np.argmax(d))].tolist())


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
    "certify_sum_form": lambda path: certify_sum_form(PowerLaw(1.0, 1.0), 3, 64, budget=100),
    "certify_associativity": lambda path: certify_associativity(
        PhiOfSum(PowerLaw(1.0, 2.0)), PhiOfSum(PowerLaw(1.0, 2.0)), _UNIT, _UNIT, _UNIT, 20,
        budget=100,
    ),
    "sum_property_cauchy_gap": lambda path: sum_property_cauchy_gap(
        0.1, PowerLaw(1.0, 1.0), 64, budget=10
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
            n = _defect_and_points(kind, fns, g, 10**7)[0].shape[0]
            _defect_and_points(kind, fns, g, n)
            with pytest.raises(BudgetExceededError, match=f"^{n} defect samples"):
                _defect_and_points(kind, fns, g, n - 1)


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
        pts, defect = _defect_and_points(kind, f, grid, 10**7)
        nonfinite = ~np.isfinite(defect(pts))
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
