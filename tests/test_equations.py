"""Residual sweeps for every supported equation kind."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from infostab import (
    BudgetExceededError,
    CauchyAdditive,
    Cocycle,
    CocycleForm,
    ConeGrid,
    ConfigurationError,
    DaroczyIdentity,
    EntropyEq,
    EntropySolution,
    FundamentalParametric,
    InfoFunctionForm,
    LogFamily,
    Logarithmic,
    ModifiedEntropy,
    ModifiedEntropySolution,
    Multiplicative,
    PairGrid,
    PhiEquation,
    PhiForm,
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
    dump_defects_csv,
    homogeneity_residual,
    product_distribution,
    residual,
    symmetry_residual,
)
from infostab.equations import (
    _CHUNK,
    _defect_and_points,
    _sum_form_blocks,
    _write_defect_rows,
)

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
        from infostab.equations import _fundamental_defect

        again = abs(float(_fundamental_defect(g, 2.0, pts)[0]))
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


def _rowwise_csv(rows):
    """The row-at-a-time formatting the block writer replaced, kept as its oracle."""
    out = []
    for coords, d in rows:
        out.append(",".join(f"{float(c):.17g}" for c in coords))
        out.append(f",{float(d):.17g}\n")
    return "".join(out).encode()


def _rows_in_sweep_order(kind, fns, grid):
    if isinstance(kind, SumFormAdditive):
        P, Q, spans, worker = _sum_form_blocks(kind, fns, grid, 10**7)
        for a, b in spans:
            for local, d in enumerate(worker(a, b)):
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
