"""Stability certifiers: constants, fits, bounds and verdicts."""

import json
import math
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from _helpers import exact_measure, kappa, sampled, two_sweep_sequences
from infostab import (
    AffineSum,
    AssociativityCertificate,
    BudgetExceededError,
    ConfigurationError,
    Constant,
    Constant3,
    DispatchError,
    EndpointPatch,
    EntropySolution,
    FunctionSum,
    FundamentalParametric,
    GridSample,
    InformationMeasure,
    LevelNoise,
    LogFamily,
    MeasureSequenceCertificate,
    ModifiedEntropySolution,
    NonFiniteDefectError,
    PhiForm,
    PhiOfSum,
    PowerFamily,
    PowerLaw,
    PowerLog,
    ProductUV,
    ScaledBump,
    SequenceRow,
    ShannonInfo,
    SimplexGrid,
    StabilityCertificate,
    Sum3,
    TriangleGrid,
    UnsupportedParameterError,
    Wave2,
    Wave3,
    XLogX,
    box_growth_constants,
    certificate_slack,
    certify_associativity,
    certify_entropy_equation,
    certify_fundamental_closed,
    certify_fundamental_open,
    certify_hyperstable,
    certify_measure_sequence,
    certify_modified_entropy,
    certify_sum_form,
    certify_sum_form_mixed,
    certify_sum_form_multiplicative,
    hyperstability_blowup_probe,
    pow0,
    residual,
    scalar_from_config,
    stability_constant_K,
    stability_constant_T,
)
from infostab.certifiers import _hyperstable_fit, _lattice_pow0
from infostab.equations import _passes
from infostab.models import _plain


def perturbed(f, height, center=0.5, width=0.2):
    bump = ScaledBump(center, width, height)
    return lambda x: np.asarray(f(x)) + np.asarray(bump(x))


class TestConstants:
    def test_pinned_values(self):
        assert math.isclose(stability_constant_K(2.0), 2406.0, rel_tol=1e-9)
        assert math.isclose(stability_constant_T(2.0), 300.0, rel_tol=1e-9)
        assert stability_constant_K(0.0) == 63.0

    @pytest.mark.parametrize("alpha", [0.25, 0.5, 2.0, 3.0, 5.0])
    def test_closed_open_relation(self, alpha):
        # K(alpha) |2^(1-alpha) - 1| = 4 T(alpha) + 3
        lhs = stability_constant_K(alpha) * abs(2.0 ** (1.0 - alpha) - 1.0)
        rhs = 4.0 * stability_constant_T(alpha) + 3.0
        assert math.isclose(lhs, rhs, rel_tol=1e-12)

    def test_closed_bound_weight_is_K(self):
        # |2^(1-alpha) - 1| < 1 for every alpha > 0 but 1, so K > 4T + 3 > T + 1
        # and the closed bound max{K, T + 1} * eps is K * eps
        alphas = np.concatenate((np.linspace(0.005, 0.995, 199), np.linspace(1.005, 200.0, 801)))
        for alpha in alphas.tolist():
            assert stability_constant_K(alpha) > stability_constant_T(alpha) + 1.0, alpha

    def test_unsupported_parameters(self):
        with pytest.raises(UnsupportedParameterError):
            stability_constant_K(1.0)
        with pytest.raises(UnsupportedParameterError):
            stability_constant_T(-1.0)
        with pytest.raises(UnsupportedParameterError):
            stability_constant_T(0.0)

    def test_box_growth_values(self):
        c1, d1 = box_growth_constants(1, 2.0)
        assert math.isclose(c1, 67370.0, rel_tol=1e-12)
        assert math.isclose(d1, 269476.0, rel_tol=1e-12)
        c10, _ = box_growth_constants(10, 2.0)
        assert math.isclose(c10, 6736802.0, rel_tol=1e-12)

    def test_box_growth_monotone(self):
        cs = [box_growth_constants(n, 2.0)[0] for n in range(1, 11)]
        assert all(a < b for a, b in zip(cs, cs[1:]))

    def test_bad_box_bound(self):
        with pytest.raises(ConfigurationError):
            box_growth_constants(0, 2.0)


class TestTrace:
    def test_json_coercion(self):
        t = dict(x=np.float64(1.5), flag=np.bool_(True), arr=np.array([1, 2]))
        d = _plain(t)
        assert d == {"x": 1.5, "flag": True, "arr": [1, 2]}
        assert isinstance(d["flag"], bool)

    def test_slack(self):
        assert certificate_slack(0.0) == 1e-9
        assert certificate_slack(1.0) == 2e-9


class TestDerivedVerdicts:
    """Every certificate record computes its verdict from its own numbers."""

    def test_stability_verdict_follows_distance(self):
        cert = certify_fundamental_open(PowerFamily(2.0, 1.0, 0.5), 0.5, 16)
        assert cert.satisfied
        worse = replace(cert, distance=2 * cert.bound + 1)
        assert worse.satisfied is False
        assert replace(worse, distance=cert.distance).satisfied is True

    def test_verdict_holds_at_bound_plus_slack(self):
        # the edge is inclusive: a distance of exactly bound + slack passes,
        # and the next float up fails
        cert = certify_fundamental_open(PowerFamily(2.0, 1.0, 0.5), 0.5, 16)
        edge = cert.bound + certificate_slack(cert.bound)
        above = float(np.nextafter(edge, np.inf))
        assert _passes(edge, cert.bound) and not _passes(above, cert.bound)
        assert replace(cert, distance=edge).satisfied is True
        assert replace(cert, distance=above).satisfied is False

    def test_infinite_bound_is_not_satisfied(self):
        # K * epsilon overflows: a verdict against an infinite bound proves nothing
        f = FunctionSum((PowerFamily(2.0, 1.0, 0.5), ScaledBump(0.5, 0.2, 1e307)))
        cert = certify_fundamental_open(f, alpha=0.5, resolution=16)
        assert math.isfinite(cert.epsilon) and math.isfinite(cert.distance)
        assert cert.bound == math.inf and cert.satisfied is False
        for value, bound in [(1.0, math.inf), (math.inf, math.inf), (math.nan, 1.0),
                             (1.0, math.nan), (-math.inf, 1.0)]:
            assert _passes(value, bound) is False

    def test_associativity_bounds_follow_epsilon(self):
        UVW = ((0.0, 1.0), (0.0, 1.0), (0.0, 1.0))
        cert = certify_associativity(ProductUV(1.0), ProductUV(1.0), *UVW, 8)
        assert cert.satisfied and cert.distance_a > 0
        tight = replace(cert, epsilon=cert.epsilon / 4)
        assert tight.bound_a == 2.0 * tight.epsilon
        assert tight.bound_b == tight.epsilon
        assert tight.satisfied is (
            tight.distance_a <= tight.bound_a + certificate_slack(tight.bound_a)
            and tight.distance_b <= tight.bound_b + certificate_slack(tight.bound_b)
        )
        assert replace(cert, distance_a=3 * cert.epsilon).satisfied is False

    def test_sequence_verdict_follows_rows(self):
        assert SequenceRow(3, 1e-3).satisfied is None
        assert SequenceRow(3, 1e-3, 2e-3).satisfied is False
        cert = lambda *rows: MeasureSequenceCertificate(
            2.0, 3, 8, (), None, {}, rows, {}
        ).satisfied
        ok, bad, statement = SequenceRow(2, 1.0, 0.5), SequenceRow(3, 1.0, 2.0), SequenceRow(3, 1.0)
        assert cert(ok) is True
        assert cert(ok, bad) is False
        assert cert(ok, statement) is None
        assert cert(statement) is None

    @pytest.mark.parametrize(
        "record",
        [StabilityCertificate, SequenceRow, MeasureSequenceCertificate, AssociativityCertificate],
    )
    def test_verdict_is_not_an_argument(self, record):
        with pytest.raises(TypeError, match="satisfied"):
            record(satisfied=True)


class TestFundamentalOpen:
    @pytest.mark.parametrize(
        "a,b,alpha",
        [(2.0, 1.0, 0.5), (-1.3, 0.7, 2.0), (0.4, -2.1, 4.0), (1.0, 1.0, 0.3)],
    )
    def test_exact_recovery(self, a, b, alpha):
        cert = certify_fundamental_open(PowerFamily(a, b, alpha), alpha, 256)
        assert cert.epsilon <= 1e-10
        assert abs(cert.candidate.a - a) <= 1e-6
        assert abs(cert.candidate.b - b) <= 1e-6
        assert cert.satisfied
        assert cert.epsilon_source == "measured"

    def test_b_is_a_plus_c_exactly(self):
        cert = certify_fundamental_open(PowerFamily(1.1, -0.6, 2.0), 2.0, 64)
        assert cert.candidate.b == cert.trace["a"] + cert.trace["c"]

    def test_log_branch_recovery(self):
        cert = certify_fundamental_open(LogFamily(0.8, 0.3), 0.0, 256)
        assert cert.epsilon <= 1e-10
        assert abs(cert.candidate.slope - 0.8) <= 1e-9
        assert abs(cert.candidate.offset - 0.3) <= 1e-9
        assert cert.constants["K"] == 63.0
        assert cert.satisfied

    @pytest.mark.parametrize("delta", [1e-4, 1e-3, 1e-2])
    @pytest.mark.parametrize("alpha", [0.3, 2.0])
    def test_perturbed_within_bound(self, delta, alpha):
        f = perturbed(PowerFamily(1.0, 1.0, alpha), delta)
        cert = certify_fundamental_open(f, alpha, 256)
        assert cert.epsilon <= 4.0 * delta
        assert cert.satisfied
        assert cert.bound == stability_constant_K(alpha) * cert.epsilon

    def test_epsilon_override(self):
        f = PowerFamily(1.0, 2.0, 2.0)
        cert = certify_fundamental_open(f, 2.0, 64, epsilon=1e-3)
        assert cert.epsilon == 1e-3
        assert cert.epsilon_source == "supplied"
        assert cert.bound == stability_constant_K(2.0) * 1e-3
        # a supplied defect follows certify_measure_sequence's rule: -0.0 is zero
        assert certify_fundamental_open(f, 2.0, 64, epsilon=-0.0).satisfied
        for bad in (-1.0, math.nan, math.inf):
            with pytest.raises(ConfigurationError, match="must be finite and nonnegative"):
                certify_fundamental_closed(f, 2.0, 64, epsilon=bad)

    def test_odd_resolution_rejected(self):
        with pytest.raises(ConfigurationError):
            certify_fundamental_open(PowerFamily(1.0, 1.0, 2.0), 2.0, 63)

    def test_dispatch_guards(self):
        with pytest.raises(DispatchError):
            certify_fundamental_open(PowerFamily(1.0, 1.0, -1.0), -1.0, 64)
        with pytest.raises(DispatchError):
            certify_fundamental_open(PowerFamily(1.0, 1.0, 1.0), 1.0, 64)

    def test_json_round_trip(self):
        cert = certify_fundamental_open(PowerFamily(2.0, 1.0, 0.5), 0.5, 64)
        d = cert.to_json_dict()
        json.dumps(d)
        back = scalar_from_config(d["candidate"])
        assert back == cert.candidate
        assert d["theorem"] == "fundamental_open"
        assert set(d) >= {
            "alpha",
            "bound",
            "candidate",
            "constants",
            "distance",
            "epsilon",
            "satisfied",
            "trace",
        }


class TestFundamentalClosed:
    def test_exact_power(self):
        cert = certify_fundamental_closed(PowerFamily(1.5, -0.5, 2.0), 2.0, 128)
        assert cert.epsilon <= 1e-10
        assert cert.satisfied
        k, t = cert.constants["K"], cert.constants["T"]
        assert cert.bound == max(k, t + 1.0) * cert.epsilon

    def test_perturbed_power(self):
        f = perturbed(PowerFamily(1.0, 1.0, 0.5), 1e-3)
        cert = certify_fundamental_closed(f, 0.5, 128)
        assert cert.satisfied
        assert cert.distance > 0.0

    @pytest.mark.parametrize("resolution", [96, 384])
    def test_power_family_off_powers_of_two(self, resolution):
        # x/(1-y) rounds above 1 on the edge x+y=1 unless it is clamped
        cert = certify_fundamental_closed(PowerFamily(1.7, -0.4, 0.5), 0.5, resolution)
        assert cert.satisfied
        assert cert.epsilon <= 1e-8

    def test_degree_zero_patch(self):
        data = EndpointPatch(Constant(1.3), 0.4, -0.2)
        cert = certify_fundamental_closed(data, 0.0, 128)
        assert cert.epsilon <= 1e-12
        assert isinstance(cert.candidate, EndpointPatch)
        assert cert.candidate.value0 == 0.4
        assert cert.candidate.value1 == -0.2
        assert abs(cert.candidate.inner.value - 1.3) <= 1e-9
        assert cert.satisfied


class TestHyperstable:
    def test_exact_member_passes(self):
        f = PowerFamily(0.9, -1.7, -1.0)
        cert = certify_hyperstable(f, -1.0, 256)
        assert cert.satisfied
        assert abs(cert.trace["c"] - 0.9) <= 1e-9
        assert abs(cert.trace["d"] + 1.7) <= 1e-9
        assert cert.bound == cert.constants["tolerance"]

    def test_perturbed_member_fails(self):
        f = perturbed(PowerFamily(0.9, -1.7, -1.0), 1e-3)
        cert = certify_hyperstable(f, -1.0, 256)
        assert not cert.satisfied

    def test_zero_function_edge(self):
        cert = certify_hyperstable(PowerFamily(0.0, 0.0, -2.0), -2.0, 64)
        assert cert.satisfied
        assert cert.distance == 0.0

    def test_closed_variant_traces_endpoints(self):
        f = PowerFamily(0.9, -1.7, -1.0)
        cert = certify_hyperstable(f, -1.0, 128, closed=True)
        assert cert.satisfied
        assert cert.trace["endpoint_gap0"] == 0.0
        assert cert.trace["endpoint_gap1"] <= 1e-12

    def test_wrong_regime(self):
        with pytest.raises(DispatchError):
            certify_hyperstable(PowerFamily(1.0, 1.0, 2.0), 2.0, 64)

    def test_fits_before_its_sweep(self, monkeypatch):
        import infostab.certifiers as certifiers

        calls = []
        for name in ("_hyperstable_fit", "residual"):
            real = getattr(certifiers, name)
            spy = lambda *a, real=real, name=name, **k: calls.append(name) or real(*a, **k)
            monkeypatch.setattr(certifiers, name, spy)
        certify_hyperstable(PowerFamily(0.9, -1.7, -1.0), -1.0, 64)
        assert calls == ["_hyperstable_fit", "residual"]

    def test_singular_anchor_system(self):
        with pytest.raises(UnsupportedParameterError):
            _hyperstable_fit(PowerFamily(1.0, 1.0, 0.0), 0.0)


class TestSupOnlySweeps:
    @pytest.mark.parametrize("jobs", [1, 2])
    def test_only_the_residual_job_sums_exact_totals(self, jobs, monkeypatch, tmp_path):
        # every certificate reads sups alone, and so do the measure job and
        # derive_generating_defect; the residual job writes the exact mean
        import infostab.equations as equations
        from infostab.cli import run
        from infostab.measures import derive_generating_defect

        calls = []
        real = equations._exact_total
        monkeypatch.setattr(equations, "_exact_total", lambda *a: calls.append(1) or real(*a))
        noisy = FunctionSum((PowerFamily(2.0, 1.0, 0.5), ScaledBump(0.4, 0.2, 1e-3)))
        noisy_neg = FunctionSum((PowerFamily(1.0, 1.0, -1.0), ScaledBump(0.4, 0.2, 1e-3)))
        noise = (LevelNoise(3, 3e-5, 11), LevelNoise(4, 5e-5, 12))
        measure = InformationMeasure(PowerFamily(kappa(0.5), kappa(0.5), 0.5), 0.5, 6, noise)
        phi = FunctionSum((PowerLaw(0.3, 1.0), ScaledBump(0.5, 0.2, 1e-4)))
        A = PhiOfSum(PowerLaw(1.0, 2.0))
        # the triangle, level-2 and level-3 lattices at R=300 hold two blocks
        certify_fundamental_open(noisy, 0.5, 300, jobs=jobs)
        certify_fundamental_closed(noisy, 0.5, 300, jobs=jobs)
        certify_hyperstable(noisy_neg, -1.0, 300, jobs=jobs)
        for levels, r in ((2, 300), (3, 300), (5, 30)):
            certify_measure_sequence(measure, levels, r, jobs=jobs)
        certify_entropy_equation(EntropySolution(0.7, 2.0), 2.0, 33, jobs=jobs)
        certify_modified_entropy(ModifiedEntropySolution(0.4, 2.0, XLogX(1.0)), 2.0, 1.0, 33,
                                 jobs=jobs)
        certify_associativity(A, A, (0.0, 1.0), (0.0, 1.0), (0.0, 1.0), 8, jobs=jobs)
        certify_sum_form(phi, 3, 64, jobs=jobs)
        certify_sum_form_multiplicative(PowerLaw(1.0, 1.7), 3, 3, 10, jobs=jobs)
        certify_sum_form_mixed(PowerLog(0.7, 2.0), 2.0, 2.0, 3, 3, 10, jobs=jobs)
        noisy_measure = InformationMeasure(
            PowerFamily(-2.0, -2.0, 2.0), 2.0, 4, (LevelNoise(3, 5e-5, 7),))
        # at R=260 every check sweeps at least two blocks
        assert derive_generating_defect(noisy_measure, 260, jobs=jobs).report.mean is None
        spec = {"generator": {"kind": "power_family", "a": -2.0, "b": -2.0, "alpha": 2.0},
                "alpha": 2.0, "max_n": 4,
                "perturbations": [{"level": 3, "height": 5e-5, "seed": 7}]}
        config = {"schema": 1, "job": "measure", "measure": spec, "n": 3, "resolution": 260}
        (tmp_path / "measure").mkdir()
        run(config, out_dir=str(tmp_path / "measure"), jobs=jobs)
        assert calls == []
        config = {"schema": 1, "job": "residual", "equation": "fundamental", "alpha": 0.5,
                  "function": _plain(noisy), "grid": {"kind": "triangle", "resolution": 300}}
        run(config, out_dir=str(tmp_path), jobs=jobs)
        assert calls
        mean = json.loads((tmp_path / "report.json").read_text())["result"]["mean"]
        assert mean.hex() == "0x1.1475f7687bed7p-12"


class TestBlowupProbe:
    MARGINS = [2.0**-k for k in range(3, 10)]

    def test_exact_member_stays_flat(self):
        f = PowerFamily(1.0, 0.5, -1.0)
        rows = hyperstability_blowup_probe(f, -1.0, self.MARGINS, resolution=512)
        assert all(sup <= 1e-9 for _, sup in rows)

    def test_perturbed_member_blows_up(self):
        f = perturbed(PowerFamily(1.0, 0.5, -1.0), 1e-3)
        rows = hyperstability_blowup_probe(f, -1.0, self.MARGINS, resolution=1024)
        sups = [sup for _, sup in rows]
        assert sups[-1] / sups[0] >= 10.0

    def test_margin_validation(self):
        f = PowerFamily(1.0, 0.5, -1.0)
        with pytest.raises(ConfigurationError):
            hyperstability_blowup_probe(f, -1.0, [], resolution=64)
        with pytest.raises(ConfigurationError):
            hyperstability_blowup_probe(f, -1.0, [0.125, 0.25], resolution=64)
        with pytest.raises(ConfigurationError):
            hyperstability_blowup_probe(f, -1.0, [1.5, 0.1], resolution=64)
        with pytest.raises(DispatchError):
            hyperstability_blowup_probe(f, 2.0, [0.25], resolution=64)

    def test_margin_domain_holds_a_lattice_point(self):
        # the smallest x + y on the open R = 16 lattice is 2/16 = 1 - 0.875
        f = PowerFamily(1.0, 0.5, -1.0)
        with pytest.raises(ConfigurationError, match="^margin 0.9375 leaves no point of the "
                           "resolution-16 lattice: its smallest x \\+ y is 2/16 > 1 - h$"):
            hyperstability_blowup_probe(f, -1.0, [0.9375, 0.5], resolution=16)
        rows = hyperstability_blowup_probe(f, -1.0, [0.875, 0.5], resolution=16)
        assert [h for h, _ in rows] == [0.875, 0.5]


def _streamed_levels(monkeypatch):
    """The list that records the level n of every simplex lattice streamed."""
    streamed = []
    real = SimplexGrid.iter_blocks
    monkeypatch.setattr(
        SimplexGrid, "iter_blocks", lambda g, *a: streamed.append(g.n) or real(g, *a)
    )
    return streamed


class TestMeasureSequence:
    @pytest.mark.parametrize("alpha", [0.5, 2.0, -1.0])
    def test_exact_measure_levels(self, alpha):
        cert = certify_measure_sequence(exact_measure(alpha), 5, 24)
        assert cert.satisfied
        assert [r.n for r in cert.rows] == [2, 3, 4, 5]
        assert all(r.distance <= 1e-10 for r in cert.rows)

    def test_exact_coefficients(self):
        cert = certify_measure_sequence(exact_measure(2.0), 4, 24)
        assert abs(cert.coefficients["c"] - 1.0) <= 1e-9
        assert abs(cert.coefficients["d"]) <= 1e-9

    def test_degree_zero_sequence(self):
        # generator of the degree-0 entropy: I_n = n - 1
        cert = certify_measure_sequence(exact_measure(0.0), 5, 24)
        assert cert.satisfied
        assert abs(cert.coefficients["c"] - 1.0) <= 1e-12
        assert abs(cert.coefficients["lam"]) <= 1e-12

    @pytest.mark.parametrize("alpha", [0.5, 2.0, -1.0])
    def test_noisy_measure_within_bounds(self, alpha):
        m = exact_measure(
            alpha,
            perturbations=(LevelNoise(3, 1e-3, 7), LevelNoise(4, 1e-3, 8)),
        )
        cert = certify_measure_sequence(m, 5, 24)
        assert cert.satisfied

    def test_streamed_levels_memory(self):
        noise = tuple(LevelNoise(k, 1e-4, seed=20 + k) for k in (3, 4, 5))
        m = exact_measure(0.5, max_n=6, perturbations=noise)
        tracemalloc.start()
        try:
            cert = certify_measure_sequence(m, 6, 30)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert cert.satisfied
        # about 10 MB in _CHUNK-row blocks; one block per level, 5.7 MB of
        # points at level 6, peaks at 28 MB
        assert peak < 16 * 2**20

    def test_statement_mode(self):
        gen = PowerFamily(kappa(2.0), kappa(2.0), 2.0)
        cert = certify_measure_sequence(
            (gen, [1e-3, 1e-3, 1e-3, 1e-3]), 5, 24, alpha=2.0
        )
        assert cert.satisfied is None
        assert all(r.distance is None and r.satisfied is None for r in cert.rows)
        bounds = [r.bound for r in cert.rows]
        assert all(b > 0 for b in bounds)
        assert bounds == sorted(bounds)

    def test_error_paths(self):
        gen = PowerFamily(kappa(2.0), kappa(2.0), 2.0)
        with pytest.raises(ConfigurationError):
            certify_measure_sequence(exact_measure(2.0), 1, 16)
        with pytest.raises(ConfigurationError):
            certify_measure_sequence((gen, [1e-3] * 4), 5, 16)
        with pytest.raises(ConfigurationError):
            certify_measure_sequence((gen, [1e-3]), 5, 16, alpha=2.0)
        for bad in (-1e-3, math.nan, math.inf):
            with pytest.raises(ConfigurationError, match="must be finite and nonnegative"):
                certify_measure_sequence((gen, [1e-3, bad, 0, 0]), 5, 16, alpha=2.0)
        with pytest.raises(ConfigurationError):
            certify_measure_sequence(exact_measure(2.0), 5, 16, alpha=0.5)
        with pytest.raises(ConfigurationError):
            certify_measure_sequence(exact_measure(2.0, max_n=4), 5, 16)
        with pytest.raises(ConfigurationError):
            certify_measure_sequence(42, 5, 16)
        with pytest.raises(UnsupportedParameterError):
            certify_measure_sequence((gen, [0.0] * 4), 5, 16, alpha=1.0)

    def test_json_round_trip(self):
        cert = certify_measure_sequence(exact_measure(2.0), 4, 16)
        d = cert.to_json_dict()
        json.dumps(d)
        assert d["theorem"] == "measure_sequence"
        assert len(d["rows"]) == 3

    @pytest.mark.parametrize("noisy", [False, True])
    @pytest.mark.parametrize("alpha", [0.5, 2.0, 3.0, -1.0, 0.0])
    def test_fused_levels_match_the_two_sweep_oracle(self, alpha, noisy):
        noise = (LevelNoise(3, 1e-3, 11), LevelNoise(5, 2e-3, 12)) if noisy else ()
        if alpha == 0.0:
            m = InformationMeasure(LogFamily(-0.5, 1.0), 0.0, 6, noise)
        else:
            m = exact_measure(alpha, max_n=6, perturbations=noise)
        for r in (7, 13, 24, 40):
            want = two_sweep_sequences(m, (2, 3, 4, 6), r)
            for levels, cert in want.items():
                got = certify_measure_sequence(m, levels, r)
                assert json.dumps(got.to_json_dict()) == json.dumps(cert.to_json_dict())

    @pytest.mark.parametrize("r", [7, 13, 40, 96])
    @pytest.mark.parametrize("alpha", [-1.0, 0.5, 2.0, 3.0])
    def test_node_table_gather_matches_pow0(self, alpha, r):
        powers_of = _lattice_pow0(r, alpha)
        for n in (2, 3, 4):
            for block in SimplexGrid(n, r).iter_blocks():
                got = powers_of(block)
                assert np.array_equal(got.view(np.uint64), pow0(block, alpha).view(np.uint64))

    @pytest.mark.parametrize("levels", [2, 4, 6])
    def test_each_level_lattice_streams_once(self, levels, monkeypatch):
        streamed = _streamed_levels(monkeypatch)
        noise = (LevelNoise(3, 1e-3, 11), LevelNoise(5, 2e-3, 12))
        cert = certify_measure_sequence(exact_measure(0.5, 6, noise), levels, 20)
        assert cert.satisfied
        # level 2 streams for its distance only, and levels == 2 still
        # streams level 3 for eps_2
        assert sorted(streamed) == list(range(2, max(3, levels) + 1))

    @pytest.mark.parametrize("r, budget", [(40, 10**6), (400, 10**5)])
    def test_alpha_one_refused_before_any_sweep(self, r, budget, monkeypatch):
        streamed = _streamed_levels(monkeypatch)
        m = InformationMeasure(ShannonInfo(), 1.0, 6)
        with pytest.raises(UnsupportedParameterError, match="alpha = 1"):
            certify_measure_sequence(m, 6, r, budget=budget)
        assert streamed == []


class TestEntropyEquation:
    def test_exact_power_degree(self):
        cert = certify_entropy_equation(EntropySolution(0.7, 2.0), 2.0, 12)
        assert cert.satisfied
        assert abs(cert.candidate.scale - 0.7) <= 1e-12
        assert cert.trace["eps1"] <= 1e-12
        assert cert.trace["eps2"] <= 1e-12
        assert cert.trace["eps3"] <= 1e-12
        assert not cert.trace["anchor_proxy"]

    def test_exact_degree_one(self):
        cert = certify_entropy_equation(PhiForm(XLogX(0.8)), 1.0, 12)
        assert cert.satisfied
        assert abs(cert.candidate.phi.scale - 0.8) <= 1e-12

    def test_degree_zero_noise(self):
        cert = certify_entropy_equation(Wave3(1e-3, seed=6), 0.0, 10)
        assert isinstance(cert.candidate, Constant3)
        assert cert.satisfied
        assert cert.bound == (
            49.0 * cert.trace["eps1"]
            + 25.0 * cert.trace["eps2"]
            + 8.0 * cert.trace["eps3"]
        )

    def test_noised_power_degree(self):
        H = Sum3((EntropySolution(0.7, 2.0), Wave3(1e-4, seed=3)))
        cert = certify_entropy_equation(H, 2.0, 10)
        assert cert.satisfied
        assert cert.distance > 0.0
        assert cert.bound == cert.trace["eps1"] + cert.trace["eps2"]

    def test_anchor_proxy_path(self):
        inner = EntropySolution(0.7, 2.0)

        class FaceShy:
            def __call__(self, x, y, z):
                scalars = np.ndim(x) == 0 and np.ndim(y) == 0 and np.ndim(z) == 0
                if scalars and float(z) == 0.0:
                    raise ValueError("zero face unavailable")
                return inner(x, y, z)

        cert = certify_entropy_equation(FaceShy(), 2.0, 12)
        assert cert.trace["anchor_proxy"]
        assert cert.trace["anchor_tau"] == 1.0 / 12.0
        # the proxy anchor H(1,1,tau) shifts the fit by O(tau)
        assert abs(cert.candidate.scale - 0.7) <= 1.5 * 1.4 * cert.trace["anchor_tau"]


class TestAssociativity:
    UVW = ((0.0, 1.0), (0.0, 1.0), (0.0, 1.0))

    def test_exact_operation(self):
        A = B = PhiOfSum(PowerLaw(1.0, 2.0))
        cert = certify_associativity(A, B, *self.UVW, resolution=8)
        assert cert.epsilon == 0.0
        assert cert.satisfied
        assert cert.distance_a <= 1e-12
        assert cert.distance_b <= 1e-12

    def test_bridge_recovers_phi(self):
        A = B = PhiOfSum(PowerLaw(1.0, 2.0))
        cert = certify_associativity(A, B, *self.UVW, resolution=8)
        # exact at the snapshot nodes; between nodes it interpolates linearly
        s = np.asarray(cert.phi.xs)
        assert s.size == 17
        assert np.max(np.abs(cert.phi(s) - s**2)) <= 1e-12

    def test_nonassociative_still_bounded(self):
        # the bridge bounds hold for arbitrary data, however bad epsilon is
        cert = certify_associativity(
            ProductUV(1.0), ProductUV(1.0), *self.UVW, resolution=8
        )
        assert cert.epsilon > 0.1
        assert cert.satisfied

    def test_noisy_side(self):
        base = PhiOfSum(PowerLaw(1.0, 2.0))
        wave = Wave2(1e-3, seed=4)
        A = lambda u, v: np.asarray(base(u, v)) + np.asarray(wave(u, v))
        cert = certify_associativity(A, base, *self.UVW, resolution=8)
        assert cert.epsilon <= 1e-3 + 1e-12
        assert cert.satisfied
        assert cert.bound_a == 2.0 * cert.epsilon
        assert cert.bound_b == cert.epsilon

    def test_interval_validation(self):
        A = B = AffineSum()
        with pytest.raises(ConfigurationError):
            certify_associativity(A, B, (1.0, 0.5), (0.0, 1.0), (0.0, 1.0), 4)
        with pytest.raises(ConfigurationError):
            certify_associativity(A, B, (0.0, math.inf), (0.0, 1.0), (0.0, 1.0), 4)
        with pytest.raises(ConfigurationError):
            certify_associativity(A, B, "bad", (0.0, 1.0), (0.0, 1.0), 4)
        for iv in ((0.0,), (0.0, 1.0, 5.0)):
            with pytest.raises(ConfigurationError, match="interval V must be a"):
                certify_associativity(A, B, (0.0, 1.0), iv, (0.0, 1.0), 4)
        with pytest.raises(ConfigurationError):
            certify_associativity(A, B, *self.UVW, resolution=0)
        with pytest.raises(BudgetExceededError):
            certify_associativity(A, B, *self.UVW, resolution=200, budget=100)

    @pytest.mark.parametrize("side", [0, 1])
    def test_nan_off_the_epsilon_lattice_raises(self, side):
        # with widths 1, 2, 1 at resolution 2 the distance lattices (15 nodes)
        # hold the sum coordinate 0.75, which no u + v or v + w of the epsilon
        # lattice (27 nodes) reaches; A is NaN at first argument 0.75, B at
        # second argument 0.75
        exact = PhiOfSum(PowerLaw(1.0, 2.0))

        def holed(u, v):
            return np.where(np.asarray((u, v)[side]) == 0.75, math.nan, exact(u, v))

        ops = (holed, exact) if side == 0 else (exact, holed)
        with pytest.raises(NonFiniteDefectError, match=" of 15 defects"):
            certify_associativity(*ops, (0.0, 1.0), (0.0, 2.0), (0.0, 1.0), 2)

    def test_json_round_trip(self):
        cert = certify_associativity(
            AffineSum(), AffineSum(), *self.UVW, resolution=4
        )
        d = cert.to_json_dict()
        json.dumps(d)
        assert d["theorem"] == "associativity"


class TestModifiedEntropy:
    def test_exact_positive_degree(self):
        f = ModifiedEntropySolution(0.4, 2.0, XLogX(1.0))
        cert = certify_modified_entropy(f, 2.0, 1.0, 12)
        assert cert.satisfied
        assert abs(cert.trace["a"] - 0.4) <= 1e-8
        assert cert.constants["c_n"] == box_growth_constants(1.0, 2.0)[0]

    def test_exact_negative_degree(self):
        f = ModifiedEntropySolution(0.4, -1.0, PowerLaw(0.3, 1.0))
        cert = certify_modified_entropy(f, -1.0, 1.0, 12)
        assert cert.satisfied
        assert abs(cert.trace["a"] - 0.4) <= 1e-8
        assert cert.bound == 2.0 * cert.trace["eps1"] + 3.0 * cert.trace["eps2"]

    def test_exact_degree_zero(self):
        f = ModifiedEntropySolution(0.4, 0.0, XLogX(1.0))
        cert = certify_modified_entropy(f, 0.0, 1.0, 12)
        assert cert.satisfied
        assert cert.trace["a"] == 0.0
        assert cert.bound == 191.0 * cert.trace["eps1"] + 1263.0 * cert.trace["eps2"]

    def test_noised_within_bound(self):
        base = ModifiedEntropySolution(0.4, 2.0, XLogX(1.0))
        f = Sum3((base, Wave3(1e-5, seed=2)))
        cert = certify_modified_entropy(f, 2.0, 1.0, 12)
        assert cert.satisfied
        assert cert.distance > 0.0

    def test_guards(self):
        f = ModifiedEntropySolution(0.4, 2.0, XLogX(1.0))
        with pytest.raises(UnsupportedParameterError):
            certify_modified_entropy(f, 1.0, 1.0, 12)
        with pytest.raises(ConfigurationError):
            certify_modified_entropy(f, 2.0, 0.0, 12)


# the cone certifiers' symmetry sweep holds six permutations of R^3 points
CONE_CERTIFIERS = {
    "entropy_equation": lambda budget: certify_entropy_equation(
        EntropySolution(0.7, 2.0), 2.0, 20, budget=budget
    ),
    "modified_entropy": lambda budget: certify_modified_entropy(
        ModifiedEntropySolution(0.4, 2.0, XLogX(1.0)), 2.0, 1.0, 20, budget=budget
    ),
}


@pytest.mark.parametrize("budget", [8000, 16000, 47999])
@pytest.mark.parametrize("name", list(CONE_CERTIFIERS))
def test_cone_symmetry_sweep_keeps_the_budget(name, budget):
    message = f"^48000 defect samples exceed the budget of {budget}$"
    with pytest.raises(BudgetExceededError, match=message):
        CONE_CERTIFIERS[name](budget)


@pytest.mark.parametrize("name", list(CONE_CERTIFIERS))
def test_cone_certifiers_run_at_their_sample_count(name):
    assert CONE_CERTIFIERS[name](48000).satisfied


class TestSumForms:
    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_nonfinite_epsilon_raises(self, bad):
        # the blocked max loops these sweeps replaced skipped a block whose max was NaN
        g = sampled(PowerLaw(0.3, 1.0), 64)
        ys = list(g.ys)
        ys[16] = bad
        with pytest.raises(NonFiniteDefectError, match=r"first at \(0.0, 0.25, 0.75\)"):
            certify_sum_form(type(g)(g.xs, tuple(ys)), 3, 16)

    def test_vanishing_sum_exact(self):
        n = 3
        phi = FunctionSum((PowerLaw(0.7, 1.0), Constant(-0.7 / n)))
        cert = certify_sum_form(phi, n, 12)
        assert cert.epsilon <= 1e-12
        assert abs(cert.trace["kappa"] - 0.7) <= 1e-9
        assert cert.satisfied
        assert cert.alpha is None

    def test_linear_plus_noise(self):
        phi = FunctionSum((PowerLaw(0.3, 1.0), ScaledBump(0.5, 0.2, 1e-4)))
        cert = certify_sum_form(phi, 3, 64)
        assert abs(cert.trace["kappa"] - 0.3) <= 1e-4
        assert cert.satisfied

    def test_zero_function(self):
        # sup|phi| = 0 leaves no bracket to search: kappa is 0
        cert = certify_sum_form(Constant(0.0), 3, 8)
        assert (cert.epsilon, cert.distance, cert.trace["kappa"]) == (0.0, 0.0, 0.0)
        assert cert.trace["bracket"] == 0.0
        assert cert.satisfied

    def test_needs_three_parts(self):
        with pytest.raises(ConfigurationError):
            certify_sum_form(Constant(0.0), 2, 12)

    def test_budget(self):
        with pytest.raises(BudgetExceededError):
            certify_sum_form(Constant(0.0), 3, 200, budget=100)

    def test_multiplicative_exact_power(self):
        cert = certify_sum_form_multiplicative(PowerLaw(1.0, 1.7), 3, 3, 10)
        assert cert.epsilon <= 1e-11
        assert cert.trace["kappa"] == 0.0
        assert abs(cert.trace["beta"] - 1.7) <= 1e-6
        assert not cert.trace["fit_failed"]
        assert cert.satisfied

    def test_multiplicative_fit_failure(self):
        cert = certify_sum_form_multiplicative(Constant(0.0), 3, 3, 8)
        assert cert.trace["fit_failed"]
        assert cert.satisfied
        assert cert.candidate == PowerLaw(0.0, 1.0)

    def test_multiplicative_guards(self):
        with pytest.raises(ConfigurationError):
            certify_sum_form_multiplicative(PowerLaw(1.0, 2.0), 2, 3, 8)

    def test_mixed_distinct_degrees(self):
        f = FunctionSum((PowerLaw(0.6, 2.0), PowerLaw(-0.6, 0.5)))
        cert = certify_sum_form_mixed(f, 2.0, 0.5, 3, 3, 10)
        assert cert.epsilon <= 1e-11
        assert abs(cert.trace["c"] - 0.6) <= 1e-9
        assert cert.satisfied

    def test_mixed_equal_degrees(self):
        f = PowerLog(0.7, 2.0)
        cert = certify_sum_form_mixed(f, 2.0, 2.0, 3, 3, 10)
        assert cert.epsilon <= 1e-11
        assert abs(cert.trace["lam"] - 0.7) <= 1e-9
        assert isinstance(cert.candidate, PowerLog)
        assert cert.satisfied

    def test_mixed_guards(self):
        f = PowerLog(0.7, 1.0)
        with pytest.raises(UnsupportedParameterError):
            certify_sum_form_mixed(f, 1.0, 1.0, 3, 3, 8)
        with pytest.raises(ConfigurationError):
            certify_sum_form_mixed(f, 2.0, 0.5, 2, 3, 8)
        with pytest.raises(BudgetExceededError):
            certify_sum_form_mixed(f, 2.0, 0.5, 3, 3, 40, budget=1000)


@settings(max_examples=30, deadline=None)
@given(
    a=st.floats(-3, 3, allow_nan=False),
    b=st.floats(-3, 3, allow_nan=False),
    alpha=st.sampled_from([0.3, 0.7, 2.0, 4.0]),
)
def test_open_certifier_round_trip(a, b, alpha):
    cert = certify_fundamental_open(PowerFamily(a, b, alpha), alpha, 64)
    assert cert.satisfied
    scale = 1.0 + abs(a) + abs(b)
    assert abs(cert.candidate.a - a) <= 1e-7 * scale
    assert abs(cert.candidate.b - b) <= 1e-7 * scale
    assert cert.candidate.b == cert.trace["a"] + cert.trace["c"]


def _with_nan_node(alpha, node):
    g = sampled(PowerFamily(1.0, 1.0, alpha), 64)
    ys = list(g.ys)
    ys[node] = math.nan
    return GridSample(g.xs, tuple(ys))


@pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
class TestNonFiniteFundamental:
    @pytest.mark.parametrize(
        "certify, count", [(certify_fundamental_open, 63), (certify_fundamental_closed, 65)]
    )
    def test_distance_with_nan_node_raises(self, certify, count):
        # a supplied epsilon skips the defect sweep, so the distance meets the NaN
        g = _with_nan_node(0.5, 20)
        with pytest.raises(NonFiniteDefectError) as exc:
            certify(g, 0.5, 64, epsilon=1e-3)
        assert str(exc.value) == (
            f"1 of {count} defects are NaN or infinite, the first at (0.3125,)"
        )

    def test_blowup_probe_with_nan_node_raises(self):
        f = _with_nan_node(-1.0, 40)  # x = 0.625
        with pytest.raises(NonFiniteDefectError) as sweep:
            residual(FundamentalParametric(-1.0), f, TriangleGrid(64))
        with pytest.raises(NonFiniteDefectError) as exc:
            hyperstability_blowup_probe(f, -1.0, [0.25, 0.125], resolution=64)
        assert str(exc.value) == str(sweep.value)
        assert str(exc.value).startswith("166 of 1953 defects are NaN or infinite")

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_blowup_probe_nan_message_at_any_jobs(self, jobs):
        # six blocks, folded by _fold as residual folds them
        f = _with_nan_node(-1.0, 40)
        message = ("13196 of 130305 defects are NaN or infinite, "
                   "the first at (0.001953125, 0.609375)")
        with pytest.raises(NonFiniteDefectError, match=r"^13196 of 130305") as sweep:
            residual(FundamentalParametric(-1.0), f, TriangleGrid(512), jobs=jobs)
        with pytest.raises(NonFiniteDefectError) as exc:
            hyperstability_blowup_probe(f, -1.0, [0.25, 0.125], resolution=512, jobs=jobs)
        assert str(exc.value) == str(sweep.value) == message

    def test_blowup_probe_finite_profile_unchanged(self):
        # the per-margin fold the NaN check sits in front of
        f = perturbed(PowerFamily(1.0, 0.5, -1.0), 1e-3)
        margins = [0.25, 0.125, 0.0625]
        pts = TriangleGrid(256).points
        d = np.abs(
            f(pts[:, 0])
            + (1.0 - pts[:, 0]) ** -1.0 * f(pts[:, 1] / (1.0 - pts[:, 0]))
            - f(pts[:, 1])
            - (1.0 - pts[:, 1]) ** -1.0 * f(pts[:, 0] / (1.0 - pts[:, 1]))
        )
        s = pts[:, 0] + pts[:, 1]
        expected = [(h, float(np.max(d[s <= 1.0 - h + 1e-12]))) for h in margins]
        assert hyperstability_blowup_probe(f, -1.0, margins, resolution=256) == expected


def _printed_K(v):
    outer = abs(2.0 ** (1.0 - v) - 1.0)
    return (3.0 + 12.0 * 2.0**v + 32.0 * 3.0 ** (v + 1.0) / abs(2.0**-v - 1.0)) / outer


def _printed_T(v):
    return 3.0 * 2.0**v + 8.0 * 3.0 ** (v + 1.0) / abs(2.0**-v - 1.0)


class TestNonFiniteConstants:
    @pytest.mark.parametrize("alpha", [math.nan, 645.0, 646.0, 1e3, 1e-17, -1100.0])
    def test_K_outside_finite_range(self, alpha):
        with pytest.raises(UnsupportedParameterError, match="not a finite float"):
            stability_constant_K(alpha)

    @pytest.mark.parametrize("alpha", [math.nan, 645.0, 646.0, 1e-17])
    def test_T_outside_finite_range(self, alpha):
        with pytest.raises(UnsupportedParameterError, match="not a finite float"):
            stability_constant_T(alpha)

    @pytest.mark.parametrize(
        "n, alpha", [(10, 300.0), (10, 400.0), (1e-10, -40.0), (1e300, 2.0)]
    )
    def test_box_growth_outside_finite_range(self, n, alpha):
        with pytest.raises(UnsupportedParameterError, match="not a finite float"):
            box_growth_constants(n, alpha)

    @settings(max_examples=200, deadline=None)
    @given(v=st.one_of(st.floats(), st.floats(-1e-15, 1e-15), st.floats(0.999, 1.001)))
    def test_finite_values_keep_the_printed_formula(self, v):
        if v == 0.0 or v == 1.0:
            return
        pairs = [(stability_constant_K, _printed_K)]
        if v > 0:
            pairs.append((stability_constant_T, _printed_T))
        for constant, printed in pairs:
            try:
                want = printed(v)
            except ArithmeticError:
                want = math.nan
            if math.isfinite(want):
                assert constant(v) == want
            else:
                with pytest.raises(UnsupportedParameterError):
                    constant(v)
