"""Recursively built information measures and their axiom checks."""

import itertools
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from infostab import (
    BudgetExceededError,
    ConfigurationError,
    Constant,
    FunctionSum,
    InformationMeasure,
    InvalidDistributionError,
    LevelNoise,
    NonFiniteDefectError,
    PowerFamily,
    ScaledBump,
    ShannonInfo,
    SimplexGrid,
    TriangleGrid,
    XLogX,
    alpha_entropy,
    alpha_sum_generator,
    check_additivity,
    check_normalization,
    check_semisymmetry3,
    check_sum_property,
    check_symmetry,
    derive_generating_defect,
    pow0,
    recursivity_defect,
    sampled,
    shannon_entropy,
    sum_property_cauchy_gap,
    tabulate,
)

from _helpers import exact_measure, kappa

LOG2_3 = 1.5849625007211562


class TestConstruction:
    def test_level_noise_floor(self):
        with pytest.raises(ConfigurationError):
            LevelNoise(2, 0.01, seed=1)

    def test_perturbation_beyond_max_n(self):
        with pytest.raises(ConfigurationError):
            InformationMeasure(
                ShannonInfo(), 1.0, max_n=4, perturbations=(LevelNoise(5, 0.01, 1),)
            )

    def test_perturbation_type_checked(self):
        with pytest.raises(ConfigurationError):
            InformationMeasure(ShannonInfo(), 1.0, perturbations=("noise",))

    def test_scaled(self):
        m = exact_measure(2.0, perturbations=(LevelNoise(3, 0.01, 1),))
        m2 = m.scaled(2.0)
        assert m2.perturbations[0].height == 0.02
        assert m2.generator is m.generator

    def test_eval_rejects_bad_input(self):
        m = exact_measure(1.0)
        with pytest.raises(InvalidDistributionError):
            m.eval([0.5, 0.5, 0.0])
        with pytest.raises(InvalidDistributionError):
            m.eval([0.5, 0.4])
        with pytest.raises(InvalidDistributionError):
            m.eval_rows(np.array([0.5, 0.5]))
        with pytest.raises(ConfigurationError):
            InformationMeasure(ShannonInfo(), 1.0, max_n=3).eval([0.25] * 4)


class TestRecursionExactness:
    def test_shannon_uniform_three(self):
        m = exact_measure(1.0)
        val = m.eval([1 / 3, 1 / 3, 1 / 3])
        assert math.isclose(val, LOG2_3, rel_tol=0, abs_tol=1e-12)

    def test_degree_two_oracle(self):
        m = exact_measure(2.0)
        assert math.isclose(m.eval([0.5, 0.25, 0.25]), 1.25, abs_tol=1e-14)

    @pytest.mark.parametrize("alpha", [1.0, 0.5, 2.0, -1.0])
    def test_matches_entropy_up_to_level_six(self, alpha):
        m = exact_measure(alpha)
        for n, r in ((3, 12), (4, 10), (5, 10), (6, 9)):
            pts = SimplexGrid(n, r).points
            got = m.eval_rows(pts)
            want = (
                shannon_entropy(pts)
                if alpha == 1.0
                else alpha_entropy(pts, alpha)
            )
            assert np.max(np.abs(got - want)) <= 1e-10

    def test_unperturbed_recursivity_defect(self):
        for alpha in (1.0, 2.0, -1.0):
            rep = recursivity_defect(exact_measure(alpha), 4, 12)
            assert rep.sup <= 1e-10


class TestAxiomChecks:
    def test_symmetry_exact(self):
        rep = check_symmetry(exact_measure(2.0), 3, 12)
        assert rep.sup <= 1e-12
        assert rep.samples == SimplexGrid(3, 12).count * 6

    def test_semisymmetry_exact(self):
        rep = check_semisymmetry3(exact_measure(0.5), 16)
        assert rep.sup <= 1e-12

    def test_additivity_degree_two(self):
        rep = check_additivity(exact_measure(2.0), 2, 2, 24)
        assert rep.sup <= 1e-10

    def test_additivity_shannon_2x3(self):
        rep = check_additivity(exact_measure(1.0), 2, 3, 16)
        assert rep.sup <= 1e-10

    def test_additivity_breaks_under_shift(self):
        gen = FunctionSum((ShannonInfo(), Constant(0.25)))
        m = InformationMeasure(gen, 1.0)
        rep = check_additivity(m, 2, 2, 16)
        assert rep.sup > 1e-2

    def test_additivity_level_guard(self):
        with pytest.raises(ConfigurationError):
            check_additivity(exact_measure(1.0, max_n=4), 2, 3, 8)

    def test_normalization(self):
        assert check_normalization(exact_measure(0.5)) <= 1e-12
        doubled = InformationMeasure(FunctionSum((ShannonInfo(), ShannonInfo())), 1.0)
        assert math.isclose(check_normalization(doubled), 1.0, abs_tol=1e-12)

    @pytest.mark.parametrize("alpha", [1.0, 0.5, 2.0])
    def test_sum_property(self, alpha):
        m = exact_measure(alpha)
        f = alpha_sum_generator(alpha)
        for n in (3, 4):
            rep = check_sum_property(m, f, n, 10)
            assert rep.sup <= 1e-10


class TestPerturbations:
    def test_noise_is_level_local(self):
        m = exact_measure(1.0, perturbations=(LevelNoise(4, 1e-3, seed=7),))
        # level 3 never sees level-4 noise
        assert recursivity_defect(m, 3, 12).sup <= 1e-12
        rep4 = recursivity_defect(m, 4, 12)
        assert 0.0 < rep4.sup <= 1e-3 + 1e-12

    def test_lower_level_noise_cancels(self):
        # level-3 noise enters both sides of the level-4 defect identically
        m = exact_measure(1.0, perturbations=(LevelNoise(3, 1e-3, seed=7),))
        assert recursivity_defect(m, 4, 12).sup <= 1e-12 + 2e-3
        assert recursivity_defect(m, 3, 12).sup > 1e-5

    def test_semisymmetry_bounded_by_twice_height(self):
        delta = 1e-3
        m = exact_measure(2.0, perturbations=(LevelNoise(3, delta, seed=11),))
        rep = check_semisymmetry3(m, 16)
        assert rep.sup <= 2.0 * delta + 1e-12

    def test_perturbation_linearity(self):
        m = exact_measure(2.0, perturbations=(LevelNoise(3, 1e-3, seed=3),))
        a = recursivity_defect(m, 3, 12).sup
        b = recursivity_defect(m.scaled(2.0), 3, 12).sup
        assert b <= 2.0 * a + 1e-12

    def test_deterministic_across_order(self):
        m = exact_measure(1.0, perturbations=(LevelNoise(3, 1e-3, seed=5),))
        pts = SimplexGrid(4, 10).points
        once = m.eval_rows(pts)
        parts = np.concatenate([m.eval_rows(pts[:10]), m.eval_rows(pts[10:])])
        assert np.array_equal(once, parts)


def _noisy_measure(alpha=0.5):
    # the shape of the benchmark's measure-sequence workload
    k = kappa(alpha)
    noise = (LevelNoise(3, 3e-5, 11), LevelNoise(4, 5e-5, 12), LevelNoise(5, 7e-5, 13))
    return InformationMeasure(PowerFamily(k, k, alpha), alpha, 6, noise)


def _whole_report(diff, points):
    """sup, mean, argmax point and samples the way the hand-built reports
    computed them from whole arrays, kept as the blocked reducer's oracle."""
    diff = np.abs(diff).ravel()
    i = int(np.argmax(diff))
    point = tuple(float(c) for c in points(i))
    return (float(diff[i]).hex(), (math.fsum(diff.tolist()) / diff.size).hex(), point, diff.size)


def _fields(rep):
    return (rep.sup.hex(), rep.mean.hex(), rep.argmax_point, rep.samples)


class TestBlockedChecks:
    @pytest.mark.parametrize("n, r", [(3, 400), (4, 70), (5, 36), (6, 24)])
    def test_streamed_recursivity_matches_whole_lattice(self, n, r):
        m = _noisy_measure()
        pts = SimplexGrid(n, r).points
        assert pts.shape[0] > 32768
        s = pts[:, 0] + pts[:, 1]
        merged = np.concatenate([s[:, None], pts[:, 2:]], axis=1)
        level2 = np.stack([pts[:, 0] / s, pts[:, 1] / s], axis=1)
        diff = m.eval_rows(pts) - m.eval_rows(merged) - pow0(s, 0.5) * m.eval_rows(level2)
        assert _fields(recursivity_defect(m, n, r)) == _whole_report(diff, pts.__getitem__)

    def test_recursivity_budget(self):
        with pytest.raises(BudgetExceededError):
            recursivity_defect(_noisy_measure(), 4, 40, budget=100)

    def test_streamed_recursivity_memory(self):
        m = _noisy_measure()
        tracemalloc.start()
        try:
            recursivity_defect(m, 6, 40)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # the whole 575,757-point lattice alone is 27.6 MB
        assert peak < 32 * 2**20

    def test_checks_match_whole_array_reports(self):
        m = _noisy_measure()
        pts = SimplexGrid(3, 400).points
        diff = m.eval_rows(pts[:, (0, 2, 1)]) - m.eval_rows(pts)
        assert _fields(check_semisymmetry3(m, 400)) == _whole_report(diff, pts.__getitem__)

        f = XLogX(-1.0)
        pts = SimplexGrid(4, 70).points
        diff = m.eval_rows(pts) - np.sum(f(pts), axis=1)
        assert _fields(check_sum_property(m, f, 4, 70)) == _whole_report(diff, pts.__getitem__)

        pts = SimplexGrid(4, 20).points
        base = m.eval_rows(pts)
        perms = list(itertools.permutations(range(4)))
        diff = np.concatenate([m.eval_rows(pts[:, p]) - base for p in perms])
        got = check_symmetry(m, 4, 20, budget=10**6)
        assert _fields(got) == _whole_report(diff, lambda i: pts[i % pts.shape[0]])

        P, Q = SimplexGrid(2, 60).points, SimplexGrid(3, 60).points
        prod = (P[:, None, :, None] * Q[None, :, None, :]).reshape(-1, 6)
        ip, iq = m.eval_rows(P)[:, None], m.eval_rows(Q)[None, :]
        lam = 2.0**0.5 - 1.0
        diff = m.eval_rows(prod).reshape(ip.size, iq.size) - ip - iq - lam * ip * iq
        want = _whole_report(diff, lambda i: np.r_[P[i // iq.size], Q[i % iq.size]])
        assert _fields(check_additivity(m, 2, 3, 60)) == want

        g = FunctionSum((XLogX(-1.0), ScaledBump(0.4, 0.2, 1e-3)))
        pts = TriangleGrid(400, closed=True).points
        x, y = pts[:, 0], pts[:, 1]
        diff = g(x + y) - g(x) - g(y) + float(g(0.0))
        assert _fields(sum_property_cauchy_gap(1.0, g, 400)) == _whole_report(diff, pts.__getitem__)

    def test_nonfinite_generator_raises(self):
        g = sampled(ShannonInfo(), 64)
        ys = list(g.ys)
        ys[20] = math.nan
        bad = InformationMeasure(type(g)(g.xs, tuple(ys)), 1.0, 4)
        with pytest.raises(NonFiniteDefectError):
            check_semisymmetry3(bad, 32)
        with pytest.raises(NonFiniteDefectError):
            recursivity_defect(bad, 4, 32)


class TestGeneratingDefect:
    def test_exact_measure_within(self):
        gd = derive_generating_defect(exact_measure(2.0), 24)
        assert gd.report.sup <= 1e-12
        assert gd.within

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_noisy_measure_within(self, seed):
        m = exact_measure(2.0, perturbations=(LevelNoise(3, 1e-3, seed=seed),))
        gd = derive_generating_defect(m, 24)
        assert gd.within
        assert gd.bound == 2.0 * gd.eps_recursivity + gd.eps_semisymmetry

    def test_generator_bump_within(self):
        gen = FunctionSum((ShannonInfo(), ScaledBump(0.5, 0.3, 1e-3)))
        m = InformationMeasure(gen, 1.0)
        gd = derive_generating_defect(m, 24)
        assert gd.within
        assert gd.report.sup > 1e-6

    def test_needs_level_three(self):
        with pytest.raises(ConfigurationError):
            derive_generating_defect(exact_measure(1.0, max_n=2), 16)


class TestCauchyGap:
    def test_within_generous_bound(self):
        rep = sum_property_cauchy_gap(2.0, XLogX(-1.0), 32)
        assert rep.epsilon_target == 4.0
        assert rep.within_target
        assert math.isclose(rep.sup, 1.0, abs_tol=1e-9)

    def test_tight_bound_fails(self):
        rep = sum_property_cauchy_gap(0.1, XLogX(-1.0), 32)
        assert not rep.within_target


class TestTabulate:
    def test_shapes_and_values(self):
        m = exact_measure(1.0)
        pts, vals = tabulate(m, 3, 10)
        assert pts.shape == (SimplexGrid(3, 10).count, 3)
        assert vals.shape == (pts.shape[0],)
        assert np.max(np.abs(vals - shannon_entropy(pts))) <= 1e-10


@settings(max_examples=40, deadline=None)
@given(
    p=st.floats(0.02, 0.98),
    alpha=st.sampled_from([1.0, 0.5, 2.0, -1.0, 3.0]),
)
def test_level_two_matches_entropy(p, alpha):
    m = exact_measure(alpha)
    want = (
        shannon_entropy([1.0 - p, p])
        if alpha == 1.0
        else alpha_entropy([1.0 - p, p], alpha)
    )
    assert math.isclose(m.eval([1.0 - p, p]), want, rel_tol=1e-10, abs_tol=1e-10)
