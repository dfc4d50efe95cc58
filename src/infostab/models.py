"""Function representations and entropy formulas.

Scalar representations model candidate and perturbed solutions of the
two-variable functional equation on the unit interval; ternary and bivariate
representations cover the entropy-style equations on the positive cone.
Every representation is an immutable dataclass, evaluates vectorised over
numpy arrays, applies the zero-probability conventions at domain endpoints,
and serialises to a plain-dict descriptor for configs and reports.
"""

from __future__ import annotations

import enum
import math
import numbers
from dataclasses import dataclass, fields, is_dataclass

import numpy as np

from .domains import pow0, ratio0, xlog2
from .errors import (
    DomainError,
    InvalidDistributionError,
    UnsupportedParameterError,
)

__all__ = [
    "Regime",
    "ScalarFunction",
    "PowerFamily",
    "LogFamily",
    "ShannonInfo",
    "XLogX",
    "PowerLaw",
    "PowerLog",
    "Constant",
    "GridSample",
    "FunctionSum",
    "ScaledBump",
    "EndpointPatch",
    "TernaryFunction",
    "EntropySolution",
    "PhiForm",
    "ModifiedEntropySolution",
    "Constant3",
    "Sum3",
    "Wave3",
    "BivariateFunction",
    "RatioLift",
    "CocycleForm",
    "PhiOfSum",
    "AffineSum",
    "ProductUV",
    "Wave2",
    "shannon_entropy",
    "alpha_entropy",
    "entropy_limit_gap",
    "validate_distribution",
    "scalar_from_config",
    "ternary_from_config",
    "bivariate_from_config",
    "config_of",
]


# ---------------------------------------------------------------------------
# the equation parameter


class Regime(enum.Enum):
    NEGATIVE = "negative"
    ZERO = "zero"
    POSITIVE_NOT_ONE = "positive_not_one"
    ONE = "one"

    @staticmethod
    def of(alpha) -> "Regime":
        """The certifier-dispatch regime of the equation parameter alpha."""
        if alpha < 0:
            return Regime.NEGATIVE
        if alpha == 0:
            return Regime.ZERO
        if alpha == 1:
            return Regime.ONE
        return Regime.POSITIVE_NOT_ONE


def _finite(what, formula):
    """formula() when all it gives is finite; what names it.  Float powers of
    alpha overflow for large |alpha| and divide by 0 next to alpha = 0 and 1."""
    try:
        value = formula()
    except ArithmeticError:
        value = math.nan
    if not np.isfinite(value).all():
        raise UnsupportedParameterError(f"{what} is not a finite float")
    return value


class _SeededNoise:
    """Seeded noise: numpy takes no negative seed, so the noise refuses one when built."""

    def __post_init__(self):
        if self.seed < 0:
            raise UnsupportedParameterError(f"noise seed must be nonnegative, got {self.seed}")


# ---------------------------------------------------------------------------
# scalar representations on (sub-intervals of) the line


class ScalarFunction:
    """Base class: vectorised evaluation plus domain policing."""

    _lo = 0.0
    _hi = 1.0
    _open_hi = False

    def _check(self, arr):
        if arr.size == 0:
            return
        lo, hi = self._lo, self._hi
        mn, mx = float(arr.min()), float(arr.max())
        if math.isnan(mn):  # a NaN hides the other values from min and max
            mn, mx = float(np.fmin.reduce(arr, axis=None)), float(np.fmax.reduce(arr, axis=None))
        tol = 1e-12
        bad = None
        if mn < lo - tol:
            bad = mn
        elif self._open_hi and mx >= hi:
            bad = mx
        elif not self._open_hi and mx > hi + tol:
            bad = mx
        if bad is not None:
            raise DomainError(
                f"{type(self).__name__} evaluated at {bad!r}, outside "
                f"[{lo}, {hi}{')' if self._open_hi else ']'}"
            )

    def __call__(self, x):
        arr = np.asarray(x, dtype=float)
        self._check(arr)
        out = self._values(arr)
        if np.ndim(x) == 0:
            return float(out)
        return out

    def _values(self, arr):
        raise NotImplementedError


@dataclass(frozen=True)
class PowerFamily(ScalarFunction):
    """a*x**alpha + b*(1-x)**alpha - b.

    With the zero-power convention this is already the closed-interval
    extension: value 0 at x=0 and a-b at x=1, for every alpha.
    """

    a: float
    b: float
    alpha: float

    def _values(self, arr):
        out = pow0(arr, self.alpha)
        out *= self.a
        rest = pow0(1.0 - arr, self.alpha)
        rest *= self.b
        out += rest
        out -= self.b
        return out


@dataclass(frozen=True)
class LogFamily(ScalarFunction):
    """slope * log2(1-x) + offset on [0, 1)."""

    slope: float
    offset: float = 0.0
    _open_hi = True

    def _values(self, arr):
        return self.slope * np.log2(1.0 - arr) + self.offset


@dataclass(frozen=True)
class ShannonInfo(ScalarFunction):
    """The nonnegative binary entropy -x*log2(x) - (1-x)*log2(1-x) on [0, 1]."""

    def _values(self, arr):
        return -(xlog2(arr) + xlog2(1.0 - arr))


@dataclass(frozen=True)
class XLogX(ScalarFunction):
    """scale * x * log2(x) on [0, inf), with 0*log2(0) = 0."""

    scale: float = 1.0
    _hi = math.inf

    def _values(self, arr):
        return self.scale * xlog2(arr)


@dataclass(frozen=True)
class PowerLaw(ScalarFunction):
    """scale * x**alpha on [0, inf), with 0**alpha = 0."""

    scale: float
    alpha: float
    _hi = math.inf

    def _values(self, arr):
        return self.scale * pow0(arr, self.alpha)


@dataclass(frozen=True)
class PowerLog(ScalarFunction):
    """scale * x**alpha * log2(x) on [0, inf), with 0 mapped to 0."""

    scale: float
    alpha: float
    _hi = math.inf

    def _values(self, arr):
        out = np.zeros_like(arr)
        pos = arr > 0
        out[pos] = self.scale * np.power(arr[pos], self.alpha) * np.log2(arr[pos])
        return out


@dataclass(frozen=True)
class Constant(ScalarFunction):
    value: float
    _lo = -math.inf
    _hi = math.inf

    def _values(self, arr):
        return np.full_like(arr, self.value)


@dataclass(frozen=True, eq=False)
class GridSample(ScalarFunction):
    """Piecewise-linear interpolant through (xs, ys); xs strictly increasing."""

    xs: tuple
    ys: tuple

    def __post_init__(self):
        xs = np.asarray(self.xs, dtype=float)
        ys = np.asarray(self.ys, dtype=float)
        if xs.ndim != 1 or xs.shape != ys.shape or xs.size < 2:
            raise DomainError("grid sample needs matching 1-d abscissae/ordinates")
        if not np.all(np.diff(xs) > 0):
            raise DomainError("grid sample abscissae must be strictly increasing")
        object.__setattr__(self, "xs", tuple(float(v) for v in xs))
        object.__setattr__(self, "ys", tuple(float(v) for v in ys))

    @property
    def _lo(self):
        return self.xs[0]

    @property
    def _hi(self):
        return self.xs[-1]

    def _values(self, arr):
        return np.interp(arr, np.asarray(self.xs), np.asarray(self.ys))


@dataclass(frozen=True, eq=False)
class FunctionSum(ScalarFunction):
    """Pointwise sum of scalar representations; domain is the intersection."""

    terms: tuple

    def __post_init__(self):
        object.__setattr__(self, "terms", tuple(self.terms))

    @property
    def _lo(self):
        return max(t._lo for t in self.terms)

    @property
    def _hi(self):
        return min(t._hi for t in self.terms)

    @property
    def _open_hi(self):
        return any(t._open_hi for t in self.terms)

    def _values(self, arr):
        out = np.zeros_like(arr)  # 0.0 + (-0.0) is +0.0, and dumps print a zero's sign
        for t in self.terms:
            out += t._values(arr)
        return out


@dataclass(frozen=True)
class ScaledBump(ScalarFunction):
    """Smooth compactly supported bump of the given height.

    Support is (center - width/2, center + width/2); the peak value is
    exactly ``height``.  Used to manufacture bounded perturbations.
    """

    center: float
    width: float
    height: float
    _lo = -math.inf
    _hi = math.inf

    def __post_init__(self):
        if not self.width > 0:
            raise DomainError(f"bump width must be positive, got {self.width}")

    def _values(self, arr):
        u = (arr - self.center) / (self.width / 2.0)
        inside = np.abs(u) < 1.0
        vals = np.zeros_like(u)
        ui = u[inside]  # only the support is evaluated
        with np.errstate(over="ignore"):
            vals[inside] = np.exp(1.0 - 1.0 / (1.0 - ui * ui))
        vals *= self.height  # -0.0 off the support for a negative height
        return vals


@dataclass(frozen=True, eq=False)
class EndpointPatch(ScalarFunction):
    """An inner function on (0,1) with independently pinned endpoint values."""

    inner: ScalarFunction
    value0: float
    value1: float

    def _values(self, arr):
        out = np.empty_like(arr)
        at0 = arr == 0.0
        at1 = arr == 1.0
        mid = ~(at0 | at1)
        if np.any(mid):
            out[mid] = np.asarray(self.inner(arr[mid]), dtype=float)
        out[at0] = self.value0
        out[at1] = self.value1
        return out


# ---------------------------------------------------------------------------
# ternary representations on the positive cone


class TernaryFunction:
    def __call__(self, x, y, z):
        xa = np.asarray(x, dtype=float)
        ya = np.asarray(y, dtype=float)
        za = np.asarray(z, dtype=float)
        if (xa < 0).any() or (ya < 0).any() or (za < 0).any():  # a NaN hides no negative
            raise DomainError(f"{type(self).__name__} needs nonnegative arguments")
        out = self._values(xa, ya, za)
        if np.ndim(x) == 0 and np.ndim(y) == 0 and np.ndim(z) == 0:
            return float(out)
        return out

    def _values(self, x, y, z):
        raise NotImplementedError


@dataclass(frozen=True)
class EntropySolution(TernaryFunction):
    """scale * ((x+y+z)**alpha - x**alpha - y**alpha - z**alpha)."""

    scale: float
    alpha: float

    def _values(self, x, y, z):
        s = x + y + z
        return self.scale * (
            pow0(s, self.alpha)
            - pow0(x, self.alpha)
            - pow0(y, self.alpha)
            - pow0(z, self.alpha)
        )


@dataclass(frozen=True, eq=False)
class PhiForm(TernaryFunction):
    """phi(x+y+z) - phi(x) - phi(y) - phi(z)."""

    phi: ScalarFunction

    def _values(self, x, y, z):
        return self.phi(x + y + z) - self.phi(x) - self.phi(y) - self.phi(z)


@dataclass(frozen=True, eq=False)
class ModifiedEntropySolution(TernaryFunction):
    """coeff*(x**a + y**a + z**a) + phi(x+y+z) on the open cone.

    The zero-first-slot face carries the value pinned by the splitting
    recursion (phi(1) is replaced by -coeff there); with that completion the
    representation solves the recursion identically for every (coeff, phi).
    """

    coeff: float
    alpha: float
    phi: ScalarFunction

    def _values(self, x, y, z):
        base = (
            self.coeff
            * (pow0(x, self.alpha) + pow0(y, self.alpha) + pow0(z, self.alpha))
            + self.phi(x + y + z)
        )
        face = x == 0.0
        if np.any(face):
            shift = float(self.phi(1.0)) + self.coeff
            base = np.where(face, base - shift, base)
        return base


@dataclass(frozen=True)
class Constant3(TernaryFunction):
    value: float

    def _values(self, x, y, z):
        return np.full_like(x + y + z, self.value)


@dataclass(frozen=True, eq=False)
class Sum3(TernaryFunction):
    terms: tuple

    def __post_init__(self):
        object.__setattr__(self, "terms", tuple(self.terms))

    def _values(self, x, y, z):
        out = np.zeros_like(x + y + z)
        for t in self.terms:
            out = out + t._values(x, y, z)
        return out


@dataclass(frozen=True)
class Wave3(_SeededNoise, TernaryFunction):
    """Deterministic seeded trig noise, bounded by ``height``.

    With interior_only (the default) the noise vanishes whenever a coordinate
    is zero, modelling perturbed interior data.
    """

    height: float
    seed: int
    interior_only: bool = True

    def _values(self, x, y, z):
        rng = np.random.default_rng((int(self.seed), 3))
        freqs = rng.uniform(3.0, 17.0, size=3)
        phase = rng.uniform(0.0, 2.0 * math.pi)
        out = self.height * np.sin(
            freqs[0] * x + freqs[1] * y + freqs[2] * z + phase
        )
        if self.interior_only:
            out = np.where((x > 0) & (y > 0) & (z > 0), out, 0.0)
        return out


# ---------------------------------------------------------------------------
# bivariate representations on the positive quadrant


class BivariateFunction:
    def __call__(self, u, v):
        ua = np.asarray(u, dtype=float)
        va = np.asarray(v, dtype=float)
        out = self._values(ua, va)
        if np.ndim(u) == 0 and np.ndim(v) == 0:
            return float(out)
        return out

    def _values(self, u, v):
        raise NotImplementedError


@dataclass(frozen=True, eq=False)
class RatioLift(BivariateFunction):
    """(u+v)**alpha * f(v/(u+v)), the two-variable lift of a scalar f."""

    f: ScalarFunction
    alpha: float

    def _values(self, u, v):
        s = u + v
        return pow0(s, self.alpha) * self.f(ratio0(v, s))


@dataclass(frozen=True, eq=False)
class CocycleForm(BivariateFunction):
    """phi(u+v) - phi(u) - phi(v)."""

    phi: ScalarFunction

    def _values(self, u, v):
        return self.phi(u + v) - self.phi(u) - self.phi(v)


@dataclass(frozen=True, eq=False)
class PhiOfSum(BivariateFunction):
    """phi(u+v); the exact associative form."""

    phi: ScalarFunction

    def _values(self, u, v):
        return self.phi(u + v)


@dataclass(frozen=True)
class AffineSum(BivariateFunction):
    """scale*(u+v) + offset."""

    scale: float = 1.0
    offset: float = 0.0

    def _values(self, u, v):
        return self.scale * (u + v) + self.offset


@dataclass(frozen=True)
class ProductUV(BivariateFunction):
    scale: float = 1.0

    def _values(self, u, v):
        return self.scale * u * v


@dataclass(frozen=True)
class Wave2(_SeededNoise, BivariateFunction):
    """Deterministic seeded trig noise in two variables, bounded by height."""

    height: float
    seed: int

    def _values(self, u, v):
        rng = np.random.default_rng((int(self.seed), 2))
        freqs = rng.uniform(3.0, 17.0, size=2)
        phase = rng.uniform(0.0, 2.0 * math.pi)
        return self.height * np.sin(freqs[0] * u + freqs[1] * v + phase)


# ---------------------------------------------------------------------------
# entropies

_DISTRIBUTION_TOL = 1e-9  # how far a coordinate may fall below 0 and a sum miss 1


def validate_distribution(p, *, positive=False):
    """Check nonnegativity (strict positivity when positive) and unit sum
    with one min scan and one row-sum scan; returns the cleaned float array.

    Coordinates down to -_DISTRIBUTION_TOL are clipped to 0.0.  When every
    coordinate is positive the clip is the identity and the float array
    itself is returned; a zero may be -0.0, which the clip turns into 0.0.
    """
    arr = np.asarray(p, dtype=float)
    rows = np.atleast_2d(arr)
    if rows.size == 0 or rows.shape[-1] < 1:
        raise InvalidDistributionError("empty distribution")
    low = float(rows.min())
    if math.isnan(low):
        raise InvalidDistributionError("NaN coordinate in distribution")
    if positive and low <= 0.0:
        raise InvalidDistributionError(
            "measures are evaluated on strictly positive distributions"
        )
    if low < -_DISTRIBUTION_TOL:
        raise InvalidDistributionError(f"negative coordinate {low!r} in distribution")
    sums = rows.sum(axis=-1)
    worst = float(np.abs(sums - 1.0).max())
    if worst > _DISTRIBUTION_TOL:
        raise InvalidDistributionError(
            f"coordinates sum to 1 only within {worst:.3e}, tolerance {_DISTRIBUTION_TOL:.1e}"
        )
    return arr if low > 0.0 else np.clip(arr, 0.0, None)


def shannon_entropy(p):
    """Shannon entropy -sum p_i log2 p_i in bits; rows of a matrix batch."""
    arr = validate_distribution(p)
    out = -np.sum(xlog2(np.atleast_2d(arr)), axis=-1)
    if arr.ndim == 1:
        return float(out[0])
    return out

def alpha_entropy(p, alpha):
    """Entropy of degree alpha: (2**(1-alpha)-1)**(-1) (sum p_i**alpha - 1).

    Dispatches to the Shannon formula at alpha == 1 (the degree-one limit).
    """
    alpha = float(alpha)
    if Regime.of(alpha) is Regime.ONE:
        return shannon_entropy(p)
    arr = validate_distribution(p)
    scale = 1.0 / (2.0 ** (1.0 - alpha) - 1.0)
    out = scale * (np.sum(pow0(np.atleast_2d(arr), alpha), axis=-1) - 1.0)
    if arr.ndim == 1:
        return float(out[0])
    return out


def entropy_limit_gap(p, delta):
    """|H^(1+delta) - H^1| at the distribution p, for nonzero delta."""
    if delta == 0:
        raise DomainError("delta must be nonzero")
    return abs(alpha_entropy(p, 1.0 + delta) - shannon_entropy(p))


# ---------------------------------------------------------------------------
# descriptor serialisation

_SCALAR_KINDS = {
    "power_family": PowerFamily,
    "log_family": LogFamily,
    "shannon_info": ShannonInfo,
    "xlog2": XLogX,
    "power_law": PowerLaw,
    "power_log": PowerLog,
    "constant": Constant,
    "grid_sample": GridSample,
    "sum": FunctionSum,
    "bump": ScaledBump,
    "endpoint_patch": EndpointPatch,
}

_TERNARY_KINDS = {
    "entropy_solution": EntropySolution,
    "phi_form": PhiForm,
    "modified_entropy_solution": ModifiedEntropySolution,
    "constant3": Constant3,
    "sum3": Sum3,
    "wave3": Wave3,
}

_BIVARIATE_KINDS = {
    "ratio_lift": RatioLift,
    "cocycle_form": CocycleForm,
    "phi_of_sum": PhiOfSum,
    "affine_sum": AffineSum,
    "product_uv": ProductUV,
    "wave2": Wave2,
}

_KIND_OF = {}
for _name, _cls in {**_SCALAR_KINDS, **_TERNARY_KINDS, **_BIVARIATE_KINDS}.items():
    _KIND_OF[_cls] = _name

_NESTED_SCALAR_FIELDS = {"phi", "f", "inner"}
_NESTED_LIST_FIELDS = {"terms"}


def _real(v):
    return isinstance(v, numbers.Real) and not isinstance(v, bool)


# what a descriptor value must be, by its field's annotation; a bool is no number
_FIELD_VALUES = {
    "float": ("a real number", _real),
    "int": ("an integer", lambda v: _real(v) and isinstance(v, numbers.Integral)),
    "bool": ("a boolean", lambda v: isinstance(v, (bool, np.bool_))),
    "tuple": ("a list of real numbers",
              lambda v: isinstance(v, (list, tuple)) and all(map(_real, v))),
}


def config_of(fn) -> dict:
    """Plain-dict descriptor of a representation, invertible by *_from_config."""
    name = _KIND_OF.get(type(fn))
    if name is None:
        raise UnsupportedParameterError(f"{type(fn).__name__} has no config descriptor")
    return {"kind": name, **{f.name: _plain(getattr(fn, f.name)) for f in fields(fn)}}


def _plain(v):
    """The JSON value of a library value, the one path from reports to JSON:
    numpy scalars become Python scalars, tuples, lists and arrays lists,
    anything with items() an object, function representations their config_of
    descriptors and other dataclasses their fields in order."""
    if v is None or isinstance(v, (bool, str)):
        return v
    if isinstance(v, np.bool_):
        return bool(v)
    if isinstance(v, (int, np.integer)):
        return int(v)
    if isinstance(v, (float, np.floating)):
        return float(v)
    if isinstance(v, (tuple, list, np.ndarray)):
        return [_plain(u) for u in v]
    if hasattr(v, "items"):
        return {k: _plain(u) for k, u in v.items()}
    if callable(v):
        return config_of(v)
    if is_dataclass(v):
        return {f.name: _plain(getattr(v, f.name)) for f in fields(v)}
    return v


def _from_config(cfg, kinds, label):
    if not isinstance(cfg, dict) or "kind" not in cfg:
        raise UnsupportedParameterError(
            f"{label} descriptor must be a dict with a 'kind' field, got {cfg!r}"
        )
    kind = cfg["kind"]
    if kind not in kinds:
        raise UnsupportedParameterError(
            f"unknown {label} kind {kind!r}; known: {sorted(kinds)}"
        )
    cls = kinds[kind]
    kwargs = {}
    for f in fields(cls):
        if f.name not in cfg:
            continue
        val = cfg[f.name]
        if f.name in _NESTED_SCALAR_FIELDS:
            kwargs[f.name] = scalar_from_config(val)
        elif f.name in _NESTED_LIST_FIELDS:
            loader = ternary_from_config if kind == "sum3" else scalar_from_config
            kwargs[f.name] = tuple(loader(t) for t in val)
        else:
            what, ok = _FIELD_VALUES[f.type]
            if not ok(val):
                raise UnsupportedParameterError(
                    f"field {f.name!r} of {label} kind {kind!r} must be {what}, got {val!r}"
                )
            kwargs[f.name] = tuple(val) if f.type == "tuple" else val
    extra = set(cfg) - {"kind"} - {f.name for f in fields(cls)}
    if extra:
        raise UnsupportedParameterError(
            f"unknown field(s) {sorted(extra)} for {label} kind {kind!r}"
        )
    try:
        return cls(**kwargs)
    except TypeError as exc:
        raise UnsupportedParameterError(
            f"bad descriptor for {label} kind {kind!r}: {exc}"
        ) from exc


def scalar_from_config(cfg) -> ScalarFunction:
    return _from_config(cfg, _SCALAR_KINDS, "scalar function")


def ternary_from_config(cfg) -> TernaryFunction:
    return _from_config(cfg, _TERNARY_KINDS, "ternary function")


def bivariate_from_config(cfg) -> BivariateFunction:
    return _from_config(cfg, _BIVARIATE_KINDS, "bivariate function")
