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
    DomainError,
    FunctionSum,
    InformationMeasure,
    InvalidDistributionError,
    LevelNoise,
    LogFamily,
    NonFiniteDefectError,
    PowerFamily,
    ScaledBump,
    ShannonInfo,
    SimplexGrid,
    UnsupportedParameterError,
    XLogX,
    alpha_entropy,
    check_additivity,
    check_normalization,
    check_semisymmetry3,
    check_sum_property,
    check_symmetry,
    derive_generating_defect,
    recursivity_defect,
    shannon_entropy,
    tabulate,
)

from infostab import certifiers, measures
from infostab.models import ScalarFunction

from _helpers import (
    alpha_sum_generator, exact_measure, kappa, recursive_measure, recursivity_oracle, sampled,
    scaled_measure,
)

LOG2_3 = 1.5849625007211562


class TestConstruction:
    def test_level_noise_floor(self):
        with pytest.raises(ConfigurationError):
            LevelNoise(2, 0.01, seed=1)

    def test_max_n_floor(self):
        with pytest.raises(ConfigurationError, match="^max_n must be >= 2, got 1$"):
            InformationMeasure(ShannonInfo(), 1.0, max_n=1)

    def test_level_noise_seed_nonnegative(self):
        with pytest.raises(UnsupportedParameterError, match="^noise seed must be nonnegative"):
            LevelNoise(3, 0.01, seed=-7)

    def test_perturbation_beyond_max_n(self):
        with pytest.raises(ConfigurationError):
            InformationMeasure(
                ShannonInfo(), 1.0, max_n=4, perturbations=(LevelNoise(5, 0.01, 1),)
            )

    def test_perturbation_type_checked(self):
        with pytest.raises(ConfigurationError):
            InformationMeasure(ShannonInfo(), 1.0, perturbations=("noise",))

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
        with pytest.raises(InvalidDistributionError, match="^empty distribution$"):
            m.eval_rows(np.empty((0, 3)))
        with pytest.raises(InvalidDistributionError, match="^measures are evaluated on strictly"):
            m.eval([1.5, -0.5])  # positivity is checked before the sign
        with pytest.raises(InvalidDistributionError, match="^eval takes a single distribution$"):
            m.eval([[0.5, 0.5]])


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

    def test_recursivity_needs_level_three(self):
        with pytest.raises(ConfigurationError, match="^recursivity defect needs n >= 3, got 2$"):
            recursivity_defect(exact_measure(1.0), 2, 12)

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

    def test_additivity_refuses_an_overflowing_product_term(self, monkeypatch):
        # 2**(1 - alpha) at alpha = -1100 is past the float range: SumFormAlpha
        # refuses it before any lattice is built
        monkeypatch.setattr(measures, "SimplexGrid", lambda *a, **k: pytest.fail("lattice built"))
        m = InformationMeasure(ShannonInfo(), -1100.0, 6)
        msg = r"^2\*\*\(1 - alpha\) at alpha = -1100.0 is not a finite float$"
        with pytest.raises(UnsupportedParameterError, match=msg):
            check_additivity(m, 2, 3, 8)

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
        b = recursivity_defect(scaled_measure(m, 2.0), 3, 12).sup
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
    """sup, argmax point and samples the way the hand-built reports computed
    them from whole arrays, kept as the blocked reducer's oracle."""
    diff = np.abs(diff).ravel()
    i = int(np.argmax(diff))
    point = tuple(float(c) for c in points(i))
    return (float(diff[i]).hex(), point, diff.size)


def _fields(rep):
    return (rep.sup.hex(), rep.argmax_point, rep.samples)


class TestBlockedChecks:
    @pytest.mark.parametrize("n, r", [(3, 400), (4, 70), (5, 36), (6, 24)])
    def test_streamed_recursivity_matches_whole_lattice(self, n, r):
        m = _noisy_measure()
        pts = SimplexGrid(n, r).points
        assert pts.shape[0] > 32768
        diff = recursivity_oracle(m, pts)
        rep = recursivity_defect(m, n, r)
        assert _fields(rep) == _whole_report(diff, pts.__getitem__)

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
        rep = check_semisymmetry3(m, 400)
        assert _fields(rep) == _whole_report(diff, pts.__getitem__)
        assert check_semisymmetry3(m, 400, jobs=2) == rep

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
        assert check_symmetry(m, 4, 20, jobs=2) == got

        P, Q = SimplexGrid(2, 60).points, SimplexGrid(3, 60).points
        prod = (P[:, None, :, None] * Q[None, :, None, :]).reshape(-1, 6)
        ip, iq = m.eval_rows(P)[:, None], m.eval_rows(Q)[None, :]
        lam = 2.0**0.5 - 1.0
        diff = m.eval_rows(prod).reshape(ip.size, iq.size) - ip - iq - lam * ip * iq
        want = _whole_report(diff, lambda i: np.r_[P[i // iq.size], Q[i % iq.size]])
        assert _fields(check_additivity(m, 2, 3, 60)) == want

    def test_nonfinite_generator_raises(self):
        g = sampled(ShannonInfo(), 64)
        ys = list(g.ys)
        ys[20] = math.nan
        bad = InformationMeasure(type(g)(g.xs, tuple(ys)), 1.0, 4)
        with pytest.raises(NonFiniteDefectError):
            check_semisymmetry3(bad, 32)
        with pytest.raises(NonFiniteDefectError):
            recursivity_defect(bad, 4, 32)


# generators of the one-pass checks: degrees 0.5, 2, -1, 3, 1 and 0
_GENERATORS = (
    (PowerFamily(kappa(0.5), kappa(0.5), 0.5), 0.5),
    (PowerFamily(kappa(2.0), kappa(2.0), 2.0), 2.0),
    (PowerFamily(kappa(-1.0), kappa(-1.0), -1.0), -1.0),
    (PowerFamily(kappa(3.0), kappa(3.0), 3.0), 3.0),
    (ShannonInfo(), 1.0),
    (LogFamily(-1.0, 0.25), 0.0),
)
_ONE_PASS_MEASURES = [
    InformationMeasure(g, a, 6, noise)
    for g, a in _GENERATORS
    for noise in ((), tuple(LevelNoise(k, 1e-4 * k, 20 + k) for k in (3, 4, 5, 6)))
]


class _Counted(ScalarFunction):
    """A generator that counts the values it is evaluated on."""

    def __init__(self, inner):
        self.inner = inner
        self.values = 0

    def _values(self, arr):
        self.values += arr.size
        return self.inner(arr)


class TestOnePass:
    """The unrolled recursion and the one-pass splitting defect against the
    recursive oracles, bit for bit."""

    @pytest.mark.parametrize("r", [7, 13, 40])
    @pytest.mark.parametrize("n", [3, 4, 5, 6])
    def test_recursivity_blocks_match_the_oracle(self, n, r, monkeypatch):
        blocks = []

        def sweep(work, items, **options):
            items = list(items)
            blocks.extend(work(item) for item in items)
            return real_sweep(work, items, **options)

        real_sweep = measures._sweep
        monkeypatch.setattr(measures, "_sweep", sweep)
        # at n=6, R=40 (575,757 points) the bench's noisy shape and one plain
        # measure, to keep the suite fast
        chosen = _ONE_PASS_MEASURES if (n, r) != (6, 40) else _ONE_PASS_MEASURES[1:3]
        for m in chosen:
            blocks.clear()
            recursivity_defect(m, n, r)
            assert len(blocks) == len(list(SimplexGrid(n, r).iter_blocks()))
            for P, got in blocks:
                want = recursivity_oracle(m, P)
                assert got.dtype == np.float64
                assert np.array_equal(got.view(np.uint64), want.view(np.uint64)), m

    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
    def test_private_and_public_rows_match_the_recursion(self, n):
        for m in _ONE_PASS_MEASURES:
            for block in SimplexGrid(n, 24).iter_blocks():
                want = recursive_measure(m, block).view(np.uint64)
                assert np.array_equal(m._eval_rows(block).view(np.uint64), want), m
                assert np.array_equal(m.eval_rows(block).view(np.uint64), want), m

    @pytest.mark.parametrize("n", [3, 4, 6])
    def test_generator_runs_once_per_level(self, n):
        counted = _Counted(PowerFamily(kappa(0.5), kappa(0.5), 0.5))
        m = InformationMeasure(counted, 0.5, 6, _noisy_measure().perturbations)
        recursivity_defect(m, n, 20)
        # one recursion per block: f(p_n) and the deepest step per point, and
        # each upper step once per run of equal (running sum, column) bits
        # where at most half the rows start one, else per point
        want = 0
        for P in SimplexGrid(n, 20).iter_blocks():
            sums = np.cumsum(P, axis=1)
            want += 2 * len(P)
            for i in range(1, n - 2):
                pairs = np.stack([sums[:, i], P[:, i]], axis=1).view(np.uint64)
                runs = 1 + int(np.count_nonzero((pairs[1:] != pairs[:-1]).any(axis=1)))
                want += runs if 2 * runs <= len(P) else len(P)
        assert counted.values == want
        if n > 3:
            assert counted.values < (n - 1) * SimplexGrid(n, 20).count

    def test_upper_steps_run_once_per_leading_prefix(self, monkeypatch):
        # a 3,876-row level-6 block of the R=40 lattice: the steps of levels
        # 4, 5 and 6 see 815, 136 and 16 runs
        P = next(P for P in SimplexGrid(6, 40).iter_blocks() if len(P) == 3876)
        m, sizes, real = _noisy_measure(), [], measures.pow0
        monkeypatch.setattr(measures, "pow0", lambda x, a: sizes.append(np.size(x)) or real(x, a))
        got = m._eval_rows(P)
        assert sizes == [len(P), 815, 136, 16]
        assert np.array_equal(got.view(np.uint64), recursive_measure(m, P).view(np.uint64))

    @settings(max_examples=40, deadline=None)
    @given(
        n=st.integers(4, 6),
        picks=st.lists(st.integers(0, 10**6), min_size=1, max_size=60),
        runs=st.lists(st.integers(1, 4), min_size=60, max_size=60),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_rows_from_no_lattice_match_the_recursion(self, n, picks, runs, seed):
        # lattice rows in any order, each repeated, then random rows whose
        # leading coordinates repeat: the runs depend on values alone
        lattice = SimplexGrid(n, 9).points
        rows = np.repeat(lattice[[k % len(lattice) for k in picks]], runs[: len(picks)], axis=0)
        rng = np.random.default_rng(seed)
        head = np.repeat(rng.dirichlet(np.ones(n), size=len(picks))[:, :2] / 2, 3, axis=0)
        tail = rng.dirichlet(np.ones(n - 2), size=len(head)) * (1.0 - head.sum(axis=1))[:, None]
        for P in (rows, np.concatenate([head, tail], axis=1)):
            for m in _ONE_PASS_MEASURES[:4]:
                want = recursive_measure(m, P).view(np.uint64)
                assert np.array_equal(m.eval_rows(P).view(np.uint64), want), m
                assert np.array_equal(m._split(P)[0].view(np.uint64), want), m

    def test_rows_in_no_prefix_order_are_evaluated_row_by_row(self, monkeypatch):
        # a permuted lattice, as check_symmetry evaluates it, has a run start
        # at most rows: the runs are not gathered and no step sees fewer rows
        P = SimplexGrid(5, 12).points[:, (4, 2, 0, 3, 1)]
        m, sizes, real = _noisy_measure(), [], measures.pow0
        monkeypatch.setattr(measures, "pow0", lambda x, a: sizes.append(np.size(x)) or real(x, a))
        got = m._eval_rows(P)
        assert sizes == [len(P)] * 3
        assert np.array_equal(got.view(np.uint64), recursive_measure(m, P).view(np.uint64))

    def test_signed_zeros_are_separate_runs(self):
        class SignOfZero(ScalarFunction):
            def _values(self, arr):
                return np.copysign(0.25, arr) + arr

        m = InformationMeasure(SignOfZero(), 0.5, 5)
        P = np.array([[0.25, 0.0, 0.25, 0.25, 0.25]] * 6)
        P[2:4, 1] = -0.0  # three runs of two rows at the top step
        got = m._split(P)[0]
        assert np.array_equal(got.view(np.uint64), recursive_measure(m, P).view(np.uint64))
        assert got[1] != got[2] and got[1] == got[4]

    def test_a_failing_quotient_names_the_value_the_rows_meet(self):
        class Lower(ScalarFunction):
            _hi = 0.6

            def _values(self, arr):
                return arr * (1.0 - arr)

        m = InformationMeasure(Lower(), 2.0, 5)
        # every f(p5) and deeper quotient lies in [0, 0.6]; p2 / (p1 + p2)
        # reaches 0.5 / 0.6 in the third run of the top step
        row = lambda p1, p2: [p1, p2, 0.2, 0.1, 1.0 - p1 - p2 - 0.3]
        P = np.array([row(0.4, 0.2)] * 3 + [row(0.3, 0.3), row(0.1, 0.5), row(0.1, 0.5)])
        want = f"Lower evaluated at {0.5 / (0.1 + 0.5)!r}, outside [0.0, 0.6]"
        for fn in (lambda P: recursive_measure(m, P), m.eval_rows, m._eval_rows):
            with pytest.raises(DomainError) as err:
                fn(P)
            assert str(err.value) == want

    def test_lattice_sweeps_skip_the_distribution_scans(self, monkeypatch):
        scans, per_block = [], []
        real_validate = measures.validate_distribution
        monkeypatch.setattr(
            measures,
            "validate_distribution",
            lambda *a, **k: scans.append(1) or real_validate(*a, **k),
        )
        real_blocks = measures._simplex_blocks

        def blocks(n, resolution, closed, budget, defect):
            def counted(P):
                before = len(scans)
                out = defect(P)
                per_block.append(len(scans) - before)
                return out

            return real_blocks(n, resolution, closed, budget, counted)

        # the level-2 distance streams from certifiers, every fused level
        # from recursivity_defect in measures
        monkeypatch.setattr(certifiers, "_simplex_blocks", blocks)
        monkeypatch.setattr(measures, "_simplex_blocks", blocks)
        m = _noisy_measure()
        recursivity_defect(m, 5, 30)
        assert scans == []
        certifiers.certify_measure_sequence(m, 6, 20)
        assert len(per_block) >= 5 and not any(per_block)
        before = len(scans)
        m.eval_rows(SimplexGrid(3, 8).points)
        assert len(scans) == before + 1  # the public entry still validates

    @pytest.mark.parametrize("n", [3, 5])
    def test_fused_distance_matches_its_own_sweep(self, n):
        m = _noisy_measure()
        against = lambda P: np.asarray(alpha_entropy(P, 0.5))
        split, dist = recursivity_defect(m, n, 24, against=against)
        assert split == recursivity_defect(m, n, 24)
        pts = SimplexGrid(n, 24).points
        gap = m._eval_rows(pts) - against(pts)
        assert dist.sup == float(np.max(np.abs(gap)))
        assert dist.samples == gap.size
        assert dist.argmax_point == tuple(pts[int(np.argmax(np.abs(gap)))].tolist())

    def test_level_check_keeps_its_place(self):
        m = _noisy_measure()
        with pytest.raises(ConfigurationError, match="^level 7 beyond this measure's max_n=6$"):
            recursivity_defect(m, 7, 12)
        with pytest.raises(BudgetExceededError):
            recursivity_defect(m, 7, 12, budget=100)
        with pytest.raises(ConfigurationError, match="^level 7 beyond"):
            check_sum_property(m, XLogX(-1.0), 7, 12)


class TestLevelNoiseCache:
    def test_drawn_once_and_equal_to_a_fresh_draw(self, monkeypatch):
        noise = LevelNoise(5, 1e-3, seed=9)
        P = SimplexGrid(5, 12).points
        first = noise.values(P)
        rng = np.random.default_rng((9, 5))
        freqs = rng.uniform(2.0, 11.0, size=5)
        phase = rng.uniform(0.0, 2.0 * math.pi)
        assert np.array_equal(noise._params[0].view(np.uint64), freqs.view(np.uint64))
        assert noise._params[1] == phase
        assert np.array_equal(first, 1e-3 * np.sin(P @ freqs + phase))
        assert not noise._params[0].flags.writeable

        def no_draw(*args):
            raise AssertionError("LevelNoise drew its parameters again")

        monkeypatch.setattr(np.random, "default_rng", no_draw)
        assert np.array_equal(noise.values(P), first)

    def test_equality_hash_and_scaling_see_only_the_fields(self):
        used, fresh = LevelNoise(4, 2e-3, seed=3), LevelNoise(4, 2e-3, seed=3)
        used.values(SimplexGrid(4, 8).points)
        assert used == fresh and hash(used) == hash(fresh)
        assert repr(used) == repr(fresh)
        m = InformationMeasure(ShannonInfo(), 1.0, 4, (used,))
        assert scaled_measure(m, 2.0).perturbations == (LevelNoise(4, 4e-3, seed=3),)


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

    def test_generator_endpoints_come_from_the_generator(self):
        m = exact_measure(2.0)
        f = derive_generating_defect(m, 24).f
        ends = [float(m.generator(0.0)), float(m.generator(1.0))]
        assert [f(0.0), f(1.0)] == ends
        vals = f(np.array([0.0, 0.25, 1.0]))
        assert [vals[0], vals[2]] == ends
        assert vals[1] == m.eval([0.75, 0.25])


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
