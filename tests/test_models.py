"""Representations, entropies and descriptor round-trips."""

import ast
import importlib
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import infostab
from infostab import (
    AffineSum,
    CocycleForm,
    Constant,
    Constant3,
    DomainError,
    EndpointPatch,
    EntropySolution,
    FunctionSum,
    GridSample,
    InformationMeasure,
    InvalidDistributionError,
    LogFamily,
    ModifiedEntropySolution,
    PhiForm,
    PhiOfSum,
    PowerFamily,
    PowerLaw,
    PowerLog,
    ProductUV,
    RatioLift,
    Regime,
    ScaledBump,
    ShannonInfo,
    Sum3,
    UnsupportedParameterError,
    Wave2,
    Wave3,
    XLogX,
    alpha_entropy,
    bivariate_from_config,
    config_of,
    entropy_limit_gap,
    scalar_from_config,
    shannon_entropy,
    ternary_from_config,
    validate_distribution,
)

from _helpers import UNIT_ARRAYS, alpha_sum_generator, float_bits, sampled, two_where_pow0

LOG2_3 = 1.5849625007211562


class TestAlpha:
    def test_regimes(self):
        assert Regime.of(-1.0) is Regime.NEGATIVE
        assert Regime.of(0.0) is Regime.ZERO
        assert Regime.of(1.0) is Regime.ONE
        assert Regime.of(2.0) is Regime.POSITIVE_NOT_ONE


class TestScalarModels:
    def test_shannon_info_values(self):
        s = ShannonInfo()
        assert s(0.5) == 1.0
        assert s(0.0) == 0.0
        assert s(1.0) == 0.0
        assert math.isclose(s(0.25), 0.8112781244591328, rel_tol=0, abs_tol=1e-15)

    def test_power_family_closed_endpoints(self):
        # zero-power convention makes the family closed for every alpha
        for alpha in (-1.5, 0.0, 0.5, 2.0):
            f = PowerFamily(2.0, 3.0, alpha)
            assert f(0.0) == 0.0
            assert f(1.0) == 2.0 - 3.0

    def test_power_family_midpoint(self):
        f = PowerFamily(2.0, 1.0, 2.0)
        assert math.isclose(f(0.5), (2.0 + 1.0) * 0.25 - 1.0)

    def test_power_family_domain(self):
        f = PowerFamily(1.0, 1.0, 2.0)
        with pytest.raises(DomainError):
            f(1.5)
        with pytest.raises(DomainError):
            f(-0.1)
        # min and max return NaN when any value is NaN
        with pytest.raises(DomainError, match="evaluated at -3.0, outside"):
            f(np.array([np.nan, -3.0]))
        with pytest.raises(DomainError, match="evaluated at 1.5, outside"):
            f(np.array([[np.nan, 0.5], [1.5, 0.25]]))
        with pytest.raises(DomainError, match="evaluated at 1.0, outside"):
            LogFamily(1.0)(np.array([np.nan, 1.0]))
        assert np.isnan(f(np.array([np.nan, np.nan]))).all()

    def test_log_family_open_at_one(self):
        f = LogFamily(2.0, offset=1.0)
        assert math.isclose(f(0.5), -2.0 + 1.0)
        with pytest.raises(DomainError):
            f(1.0)

    def test_xlogx(self):
        f = XLogX(3.0)
        assert f(0.0) == 0.0
        assert math.isclose(f(2.0), 3.0 * 2.0)
        assert math.isclose(f(0.5), -1.5)

    def test_power_law_zero_convention(self):
        assert PowerLaw(1.0, -1.0)(0.0) == 0.0
        assert math.isclose(PowerLaw(2.0, -1.0)(0.5), 4.0)

    def test_power_log(self):
        f = PowerLog(1.0, 2.0)
        assert f(0.0) == 0.0
        assert math.isclose(f(2.0), 4.0)
        assert math.isclose(f(0.5), -0.25)

    def test_constant_unbounded(self):
        assert Constant(7.0)(-5.0) == 7.0

    def test_grid_sample(self):
        g = GridSample((0.0, 1.0), (0.0, 2.0))
        assert math.isclose(g(0.25), 0.5)
        with pytest.raises(DomainError):
            g(1.5)
        with pytest.raises(DomainError):
            GridSample((0.0, 0.0), (1.0, 2.0))
        with pytest.raises(DomainError):
            GridSample((0.0,), (1.0,))

    def test_function_sum(self):
        f = FunctionSum((Constant(1.0), XLogX(1.0)))
        assert math.isclose(f(0.5), 0.5)
        # domain is the intersection, so the open-at-one factor wins
        g = FunctionSum((LogFamily(1.0), XLogX(1.0)))
        with pytest.raises(DomainError):
            g(1.0)

    def test_bump_peak_and_support(self):
        b = ScaledBump(0.5, 0.2, 0.003)
        assert b(0.5) == 0.003
        assert b(0.39) == 0.0
        assert b(0.61) == 0.0
        assert 0.0 < b(0.45) < 0.003
        with pytest.raises(DomainError):
            ScaledBump(0.5, 0.0, 1.0)

    def test_endpoint_patch(self):
        f = EndpointPatch(Constant(5.0), -1.0, 3.0)
        assert f(0.0) == -1.0
        assert f(1.0) == 3.0
        assert f(0.5) == 5.0
        out = f(np.array([0.0, 0.25, 1.0]))
        assert out.tolist() == [-1.0, 5.0, 3.0]

    def test_sampled_matches_at_nodes(self):
        fn = ShannonInfo()
        g = sampled(fn, 8)
        xs = np.arange(9) / 8.0
        assert np.allclose(g(xs), fn(xs), atol=1e-15)


# The whole-array expressions the in-place and support-only evaluations
# replaced, kept as their bit-identity oracles.
def _power_family_oracle(f, arr):
    return (
        f.a * two_where_pow0(arr, f.alpha)
        + f.b * two_where_pow0(1.0 - arr, f.alpha)
        - f.b
    )


def _bump_oracle(f, arr):
    u = (arr - f.center) / (f.width / 2.0)
    inside = np.abs(u) < 1.0
    usafe = np.where(inside, u, 0.0)
    with np.errstate(over="ignore"):
        vals = np.where(inside, np.exp(1.0 - 1.0 / (1.0 - usafe * usafe)), 0.0)
    return f.height * vals


def _sum_oracle(f, arr):
    out = np.zeros_like(arr)
    for t in f.terms:
        out = out + _ORACLES.get(type(t), type(t)._values)(t, arr)
    return out


_ORACLES = {PowerFamily: _power_family_oracle, ScaledBump: _bump_oracle,
            FunctionSum: _sum_oracle}


def _assert_oracle_bits(f, x):
    arr = np.asarray(x, dtype=float)
    with np.errstate(over="ignore", invalid="ignore"):
        got, want = f(x), _ORACLES[type(f)](f, arr)
    if np.ndim(x) == 0:
        assert type(got) is float
    else:
        assert got.shape == arr.shape
    assert float_bits(got) == float_bits(want)


def _nudge(v, k):
    """v moved k floats up (k > 0) or down."""
    for _ in range(abs(k)):
        v = np.nextafter(v, math.copysign(math.inf, k))
    return float(v)


_ALPHAS = st.one_of(st.sampled_from([-2.0, -1.0, 0.0, 0.5, 2.0, 3.0]), st.floats(-3.0, 4.0))
_COEFFS = st.one_of(st.sampled_from([0.0, -0.0, 1, -1.0]), st.floats(-5.0, 5.0))
_BUMPS = st.builds(
    ScaledBump, center=st.floats(0.0, 1.0), width=st.floats(1e-3, 2.0),
    height=st.one_of(st.sampled_from([-0.0, -1e-3]), st.floats(-1.0, 1.0)),
)


class TestBitOracles:
    @settings(max_examples=150, deadline=None)
    @given(x=UNIT_ARRAYS, a=_COEFFS, b=_COEFFS, alpha=_ALPHAS)
    def test_power_family(self, x, a, b, alpha):
        _assert_oracle_bits(PowerFamily(a, b, alpha), x)

    @settings(max_examples=150, deadline=None)
    @given(x=UNIT_ARRAYS, bump=_BUMPS)
    def test_bump(self, x, bump):
        _assert_oracle_bits(bump, x)

    @settings(max_examples=150, deadline=None)
    @given(x=UNIT_ARRAYS, a=_COEFFS, alpha=_ALPHAS, bump=_BUMPS)
    def test_function_sum(self, x, a, alpha, bump):
        # Constant(-0.0) and a bump off its support return -0.0 terms
        f = FunctionSum((Constant(-0.0), PowerFamily(a, 1.0, alpha), bump))
        _assert_oracle_bits(f, x)
        _assert_oracle_bits(FunctionSum((Constant(-0.0), bump)), x)

    @pytest.mark.parametrize("bump", [
        ScaledBump(0.5, 0.25, 1e-3),  # u is exact near the edges
        ScaledBump(0.4, 0.2, -5e-4),
        ScaledBump(0.0, 0.3, 2.0),
        ScaledBump(1.0, 1.0, -0.0),
    ])
    def test_bump_edges(self, bump):
        c, h = bump.center, bump.width / 2.0
        steps = [-3, -2, -1, 0, 1, 2, 3]
        x = np.array([c] + [_nudge(e, k) for e in (c - h, c + h) for k in steps])
        u = np.abs((x - c) / h)
        assert u[0] == 0.0 and ((u < 1.0) & (u > 1.0 - 1e-12)).any()
        for shaped in (x, x.reshape(1, -1), x[:3].reshape(3, 1, 1), x[:0], x[0], float(x[1])):
            _assert_oracle_bits(bump, shaped)
            _assert_oracle_bits(FunctionSum((Constant(-0.0), bump)), shaped)


class TestTernaryModels:
    def test_entropy_solution_formula(self):
        f = EntropySolution(0.7, 2.0)
        x, y, z = 1.0, 2.0, 3.0
        expect = 0.7 * (6.0**2 - 1.0 - 4.0 - 9.0)
        assert math.isclose(f(x, y, z), expect)

    def test_entropy_solution_rejects_negative(self):
        with pytest.raises(DomainError):
            EntropySolution(1.0, 2.0)(-1.0, 1.0, 1.0)

    def test_phi_form(self):
        f = PhiForm(XLogX(1.0))
        # phi(2) - 2 phi(1) - phi(0) with phi = x log2 x
        assert math.isclose(f(1.0, 1.0, 0.0), 2.0)

    def test_constant3_and_sum3(self):
        f = Sum3((Constant3(1.0), EntropySolution(1.0, 2.0)))
        assert math.isclose(f(1.0, 1.0, 0.0), 1.0 + (4.0 - 2.0))

    def test_wave3_bounded_and_interior(self):
        w = Wave3(0.01, seed=5)
        pts = np.linspace(0.1, 2.0, 50)
        vals = w(pts, pts[::-1], pts)
        assert np.max(np.abs(vals)) <= 0.01
        assert w(0.0, 1.0, 1.0) == 0.0
        full = Wave3(0.01, seed=5, interior_only=False)
        assert full(0.0, 1.0, 1.0) != 0.0

    def test_wave3_seed_nonnegative(self):
        with pytest.raises(UnsupportedParameterError, match="^noise seed must be nonnegative"):
            Wave3(1e-4, seed=-1)

    @pytest.mark.parametrize("x, y, z", [
        (0.5, -1.0, 0.1),
        ([np.nan, 0.5], [0.1, -1.0], [0.1, 0.1]),  # a NaN hides no negative
        ([0.5, 0.5], [0.1, 0.1], [np.nan, -1.0]),
    ])
    def test_negative_argument_refused(self, x, y, z):
        with pytest.raises(DomainError, match="^Wave3 needs nonnegative arguments$"):
            Wave3(1e-3, 1)(np.array(x), np.array(y), np.array(z))

    def test_modified_entropy_face_shift(self):
        f = ModifiedEntropySolution(0.4, 2.0, XLogX(1.0))
        y, z = 0.5, 0.25
        interior = 0.4 * (y**2 + z**2) + XLogX(1.0)(y + z)
        shift = XLogX(1.0)(1.0) + 0.4
        assert math.isclose(f(0.0, y, z), interior - shift)


class TestBivariateModels:
    def test_ratio_lift(self):
        f = RatioLift(ShannonInfo(), 1.0)
        assert math.isclose(f(1.0, 1.0), 2.0)
        assert f(0.0, 0.0) == 0.0

    def test_cocycle_form(self):
        f = CocycleForm(XLogX(1.0))
        assert math.isclose(f(1.0, 1.0), 2.0)

    def test_phi_of_sum_and_affine(self):
        assert math.isclose(PhiOfSum(XLogX(1.0))(1.0, 1.0), 2.0)
        assert AffineSum(2.0, 1.0)(1.0, 2.0) == 7.0
        assert ProductUV(3.0)(2.0, 2.0) == 12.0

    def test_wave2_bounded(self):
        w = Wave2(0.02, seed=3)
        u = np.linspace(0.0, 2.0, 40)
        assert np.max(np.abs(w(u, u))) <= 0.02

    def test_wave2_seed_nonnegative(self):
        with pytest.raises(UnsupportedParameterError, match="^noise seed must be nonnegative"):
            Wave2(0.02, seed=-2)


class TestDistributions:
    def test_validate_accepts_and_clips(self):
        out = validate_distribution([0.5, 0.5])
        assert out.tolist() == [0.5, 0.5]
        out = validate_distribution([1.0 + 1e-12, -1e-12])
        assert out.min() == 0.0

    def test_validate_clips_only_where_it_changes_a_value(self):
        rows = np.array([[0.25, 0.75], [0.5, 0.5]])
        assert validate_distribution(rows) is rows  # positive: the clip is the identity
        out = validate_distribution(np.array([-0.0, 1.0]))
        assert out.tolist() == [0.0, 1.0] and not np.signbit(out[0])
        out = validate_distribution(np.array([-1e-12, 1.0 + 1e-12]))
        assert out[0] == 0.0 and not np.signbit(out[0])

    def test_validate_positive_keeps_the_measure_message(self):
        positive = "^measures are evaluated on strictly positive distributions$"
        for rows in ([[0.0, 1.0]], [[-0.0, 1.0]], [[1.5, -0.5]]):
            with pytest.raises(InvalidDistributionError, match=positive):
                validate_distribution(rows, positive=True)
        with pytest.raises(InvalidDistributionError, match="^negative coordinate -0.5 "):
            validate_distribution([[1.5, -0.5]])
        with pytest.raises(InvalidDistributionError, match="^coordinates sum to 1 only"):
            validate_distribution([[0.7, 0.7]], positive=True)

    def test_validate_rejects(self):
        with pytest.raises(InvalidDistributionError):
            validate_distribution([0.7, 0.7])
        with pytest.raises(InvalidDistributionError):
            validate_distribution([1.5, -0.5])
        with pytest.raises(InvalidDistributionError):
            validate_distribution([])

    def test_nan_coordinate_rejected_at_every_entry(self):
        nan_message = "^NaN coordinate in distribution$"
        with pytest.raises(InvalidDistributionError, match=nan_message):
            validate_distribution([math.nan, 0.5])
        with pytest.raises(InvalidDistributionError, match=nan_message):
            alpha_entropy([math.nan, 0.5], 2.0)
        with pytest.raises(InvalidDistributionError, match=nan_message):
            InformationMeasure(ShannonInfo(), 1.0, 4).eval([math.nan, 0.5])

    def test_shannon_uniform_three(self):
        h = shannon_entropy([1 / 3, 1 / 3, 1 / 3])
        assert math.isclose(h, LOG2_3, rel_tol=0, abs_tol=1e-12)

    def test_alpha_entropy_oracle(self):
        h = alpha_entropy([0.5, 0.25, 0.25], 2.0)
        assert math.isclose(h, 1.25, rel_tol=0, abs_tol=1e-15)

    def test_alpha_entropy_normalised_pair(self):
        for alpha in (0.5, 1.0, 2.0):
            assert math.isclose(
                alpha_entropy([0.5, 0.5], alpha), 1.0, rel_tol=0, abs_tol=1e-12
            )

    def test_alpha_one_is_shannon(self):
        p = [0.2, 0.3, 0.5]
        assert alpha_entropy(p, 1.0) == shannon_entropy(p)

    def test_batch_rows(self):
        rows = np.array([[0.5, 0.5], [0.25, 0.75]])
        h = shannon_entropy(rows)
        assert h.shape == (2,)
        assert math.isclose(h[0], 1.0)

    def test_entropy_limit_gap(self):
        p = [0.1, 0.2, 0.3, 0.4]
        assert entropy_limit_gap(p, 1e-4) <= 1e-3
        assert entropy_limit_gap(p, -1e-4) <= 1e-3
        with pytest.raises(DomainError):
            entropy_limit_gap(p, 0.0)

    def test_sum_generator_reproduces_entropy(self):
        p = np.array([0.5, 0.25, 0.25])
        for alpha in (0.5, 1.0, 2.0):
            f = alpha_sum_generator(alpha)
            total = float(np.sum(f(p)))
            assert math.isclose(total, alpha_entropy(p, alpha), abs_tol=1e-12)


SCALAR_EXAMPLES = [
    PowerFamily(2.0, 1.0, 0.5),
    LogFamily(1.5, 0.25),
    ShannonInfo(),
    XLogX(-1.0),
    PowerLaw(0.5, 2.0),
    PowerLog(1.0, 2.0),
    Constant(3.0),
    GridSample((0.0, 0.5, 1.0), (0.0, 1.0, 0.0)),
    FunctionSum((Constant(1.0), PowerLaw(1.0, 2.0))),
    ScaledBump(0.5, 0.2, 0.01),
    EndpointPatch(Constant(2.0), 0.0, 1.0),
]

TERNARY_EXAMPLES = [
    EntropySolution(0.7, 2.0),
    PhiForm(XLogX(1.0)),
    ModifiedEntropySolution(0.4, 2.0, XLogX(1.0)),
    Constant3(2.5),
    Sum3((Constant3(1.0), EntropySolution(1.0, 2.0))),
    Wave3(0.01, seed=7),
]

BIVARIATE_EXAMPLES = [
    RatioLift(ShannonInfo(), 1.0),
    CocycleForm(XLogX(1.0)),
    PhiOfSum(PowerLaw(1.0, 2.0)),
    AffineSum(2.0, -1.0),
    ProductUV(1.5),
    Wave2(0.02, seed=9),
]


class TestDescriptors:
    @pytest.mark.parametrize("fn", SCALAR_EXAMPLES, ids=lambda f: type(f).__name__)
    def test_scalar_round_trip(self, fn):
        cfg = config_of(fn)
        back = scalar_from_config(cfg)
        assert config_of(back) == cfg
        xs = np.array([0.1, 0.45, 0.9])
        assert np.allclose(back(xs), fn(xs), atol=0)

    @pytest.mark.parametrize("fn", TERNARY_EXAMPLES, ids=lambda f: type(f).__name__)
    def test_ternary_round_trip(self, fn):
        cfg = config_of(fn)
        back = ternary_from_config(cfg)
        assert config_of(back) == cfg
        assert back(0.3, 0.4, 0.2) == fn(0.3, 0.4, 0.2)

    @pytest.mark.parametrize("fn", BIVARIATE_EXAMPLES, ids=lambda f: type(f).__name__)
    def test_bivariate_round_trip(self, fn):
        cfg = config_of(fn)
        back = bivariate_from_config(cfg)
        assert config_of(back) == cfg
        assert back(0.7, 1.3) == fn(0.7, 1.3)

    def test_unknown_kind(self):
        with pytest.raises(UnsupportedParameterError):
            scalar_from_config({"kind": "mystery"})

    def test_extra_field(self):
        with pytest.raises(UnsupportedParameterError):
            scalar_from_config({"kind": "constant", "value": 1.0, "colour": "red"})

    def test_not_a_dict(self):
        with pytest.raises(UnsupportedParameterError):
            ternary_from_config([1, 2, 3])

    def test_missing_required_field(self):
        with pytest.raises(UnsupportedParameterError):
            scalar_from_config({"kind": "power_family", "a": 1.0})

    @pytest.mark.parametrize("load, cfg, name, what", [
        (scalar_from_config, {"a": "x"}, "a", "a real number"),
        (scalar_from_config, {"a": True}, "a", "a real number"),
        (scalar_from_config, {"a": [1.0]}, "a", "a real number"),
        (scalar_from_config, {"a": None}, "a", "a real number"),
        (scalar_from_config, {"kind": "grid_sample", "xs": [0.0, "a", 1.0]}, "xs",
         "a list of real numbers"),
        (scalar_from_config, {"kind": "grid_sample", "xs": [0.0, False, 1.0]}, "xs",
         "a list of real numbers"),
        (scalar_from_config, {"kind": "grid_sample", "xs": 0.5}, "xs",
         "a list of real numbers"),
        (ternary_from_config, {"kind": "wave3", "seed": 6.0}, "seed", "an integer"),
        (ternary_from_config, {"kind": "wave3", "seed": True}, "seed", "an integer"),
        (ternary_from_config, {"kind": "wave3", "interior_only": "no"}, "interior_only",
         "a boolean"),
        (ternary_from_config, {"kind": "wave3", "interior_only": 0}, "interior_only",
         "a boolean"),
    ])
    def test_malformed_value_names_field_and_kind(self, load, cfg, name, what):
        base = {
            scalar_from_config: {"kind": "power_family", "a": 2.0, "b": 1.0, "alpha": 0.5},
            ternary_from_config: {"kind": "wave3", "height": 1e-3, "seed": 6},
        }[load]
        if cfg.get("kind") == "grid_sample":
            base = {"kind": "grid_sample", "xs": [0.0, 0.5, 1.0], "ys": [0.0, 1.0, 2.0]}
        desc = {**base, **cfg}
        with pytest.raises(UnsupportedParameterError) as info:
            load(desc)
        assert str(info.value) == (
            f"field {name!r} of {load.__name__.split('_')[0]} function kind "
            f"{desc['kind']!r} must be {what}, got {cfg[name]!r}"
        )

    def test_numpy_scalars_are_accepted(self):
        f = scalar_from_config({"kind": "power_family", "a": np.float64(2.0),
                                "b": np.int64(1), "alpha": np.float32(0.5)})
        assert f(0.5) == PowerFamily(2.0, 1.0, 0.5)(0.5)
        g = ternary_from_config({"kind": "wave3", "height": 1e-3, "seed": np.int64(6),
                                 "interior_only": np.bool_(False)})
        assert g(0.3, 0.4, 0.2) == Wave3(1e-3, seed=6, interior_only=False)(0.3, 0.4, 0.2)
        s = scalar_from_config({"kind": "grid_sample", "xs": [0.0, np.float64(1.0)],
                                "ys": [1, 2.0]})
        assert s.xs == (0.0, 1.0)


@settings(max_examples=60, deadline=None)
@given(
    a=st.floats(-5, 5, allow_nan=False),
    b=st.floats(-5, 5, allow_nan=False),
    alpha=st.floats(-3, 4, allow_nan=False),
)
def test_power_family_midpoint_identity(a, b, alpha):
    f = PowerFamily(a, b, alpha)
    expect = (a + b) * 0.5**alpha - b
    assert math.isclose(f(0.5), expect, rel_tol=1e-12, abs_tol=1e-12)


@settings(max_examples=40, deadline=None)
@given(p=st.floats(0.01, 0.99), alpha=st.floats(-2, 3).filter(lambda a: abs(a - 1) > 1e-3))
def test_two_point_entropy_symmetry(p, alpha):
    h1 = alpha_entropy([p, 1.0 - p], alpha)
    h2 = alpha_entropy([1.0 - p, p], alpha)
    assert math.isclose(h1, h2, rel_tol=1e-12, abs_tol=1e-12)


@pytest.mark.parametrize(
    "module", ["certifiers", "domains", "equations", "errors", "measures", "models"]
)
def test_every_public_name_is_exported(module):
    mod = importlib.import_module(f"infostab.{module}")
    # errors.py has no __all__: its public names are the exceptions it defines
    names = getattr(mod, "__all__", None) or [
        n for n, v in vars(mod).items()
        if not n.startswith("_") and getattr(v, "__module__", None) == mod.__name__
    ]
    assert names and [n for n in names if not hasattr(infostab, n)] == []


def test_library_raises_typed_errors_not_asserts():
    # python -O strips assert statements, so a check written as one vanishes
    found = [
        f"{path.name}:{node.lineno}"
        for path in sorted(Path(infostab.__file__).parent.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, ast.Assert)
    ]
    assert found == []
