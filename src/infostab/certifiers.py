"""Executable stability pipelines.

Each certifier mirrors one stability proof: measure the relevant defect
suprema on a grid, run the proof's construction to obtain a concrete
candidate solution, evaluate the explicit constants, and check that the
distance between the data and the candidate stays under constant * epsilon.
The outcome is a frozen certificate that serialises to a plain JSON dict.

Each certificate record computes its own verdict from its distances and
bounds, so a verdict cannot disagree with the numbers beside it.  Bound
checks carry a uniform numeric slack of 1e-9 * (1 + bound) so that
exactly-tight instances do not flap on rounding.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .domains import (
    ConeGrid, PairGrid, SimplexGrid, TriangleGrid, UnitGrid, _box, _unit_nodes, pow0,
)
from .equations import (
    EntropyEq,
    FundamentalParametric,
    ModifiedEntropy,
    SumFormMultiplicative,
    _blocks,
    _fold,
    _imap,
    _pair_blocks,
    _passes,
    _row_blocks,
    _simplex_blocks,
    _spans,
    _summary,
    _sweep,
    _within_budget,
    certificate_slack,
    homogeneity_residual,
    residual,
    symmetry_residual,
)
from .errors import (
    ConfigurationError,
    DispatchError,
    UnsupportedParameterError,
)
from .measures import (
    InformationMeasure,
    _GeneratorFunction,
    check_semisymmetry3,
    recursivity_defect,
)
from .models import (
    Constant,
    Constant3,
    EndpointPatch,
    EntropySolution,
    FunctionSum,
    GridSample,
    LogFamily,
    ModifiedEntropySolution,
    PhiForm,
    PowerFamily,
    PowerLaw,
    PowerLog,
    Regime,
    XLogX,
    _finite,
    _plain,
)

__all__ = [
    "stability_constant_K",
    "stability_constant_T",
    "box_growth_constants",
    "certificate_slack",
    "StabilityCertificate",
    "certify_fundamental_open",
    "certify_fundamental_closed",
    "certify_hyperstable",
    "hyperstability_blowup_probe",
    "SequenceRow",
    "MeasureSequenceCertificate",
    "certify_measure_sequence",
    "certify_entropy_equation",
    "AssociativityCertificate",
    "certify_associativity",
    "certify_modified_entropy",
    "certify_sum_form",
    "certify_sum_form_multiplicative",
    "certify_sum_form_mixed",
]


# ---------------------------------------------------------------------------
# explicit constants


def stability_constant_K(alpha) -> float:
    """Constant of the open-domain stability bound.

    The printed formula divides by |2**(-alpha) - 1| and is singular at
    alpha = 0; there the proof's direct constant 63 applies and is returned.
    At alpha = 1 the constant diverges and no value exists, and wherever the
    formula is not a finite float UnsupportedParameterError is raised.
    """
    v = float(alpha)
    regime = Regime.of(v)
    if regime is Regime.ONE:
        raise UnsupportedParameterError(
            "no stability constant at alpha = 1; K(alpha) diverges there"
        )
    if regime is Regime.ZERO:
        return 63.0

    def formula():
        outer = abs(2.0 ** (1.0 - v) - 1.0)
        inner = 3.0 + 12.0 * 2.0**v + 32.0 * 3.0 ** (v + 1.0) / abs(2.0**-v - 1.0)
        return inner / outer

    return _finite(f"K({v!r})", formula)


def stability_constant_T(alpha) -> float:
    """Companion constant of the closed-domain bound; defined for 1 != alpha > 0
    where the formula is a finite float."""
    v = float(alpha)
    if Regime.of(v) is not Regime.POSITIVE_NOT_ONE:
        raise UnsupportedParameterError(
            f"T(alpha) is defined for positive alpha != 1, got {v}"
        )
    return _finite(
        f"T({v!r})", lambda: 3.0 * 2.0**v + 8.0 * 3.0 ** (v + 1.0) / abs(2.0**-v - 1.0)
    )


def box_growth_constants(n, alpha):
    """(c_n, d_n) of the modified-entropy bound on the box (0, n]^3.

    c_n = 2 + 7 * 2**alpha * n**alpha * K(alpha) and
    d_n = 4 + 7 * 2**(alpha+2) * n**alpha * K(alpha); both grow without
    bound in n for alpha > 0. Past the offsets the growth is an exact power
    law: (c_n - 2) / (c_1 - 2) = (d_n - 4) / (d_1 - 4) = n**alpha. The +2
    offset keeps the full ratio below that: c_n / c_1 < n**alpha for n > 1
    and alpha > 0.
    """
    if not float(n) > 0:
        raise ConfigurationError(f"box bound must be positive, got {n}")
    v = float(alpha)
    k = stability_constant_K(v)
    where = f"at n = {n!r}, alpha = {v!r}"
    c = _finite(f"c_n {where}", lambda: 2.0 + 7.0 * 2.0**v * float(n) ** v * k)
    d = _finite(f"d_n {where}", lambda: 4.0 + 7.0 * 2.0 ** (v + 2.0) * float(n) ** v * k)
    return c, d


# ---------------------------------------------------------------------------
# certificates


def _distance(points, gap):
    """sup |gap| over points as one _sweep block: exact, and a NaN or inf raises."""
    return _sweep(lambda block: block, [(points, gap)]).sup


def _ternary_distance(F, G, pts, jobs):
    """sup over the rows of pts of |F - G|, two ternary functions."""
    gap = lambda P: np.asarray(F(*P.T)) - np.asarray(G(*P.T))
    return _sweep(*_row_blocks(pts, gap), jobs=jobs).sup


@dataclass(frozen=True)
class StabilityCertificate:
    """Outcome of one stability pipeline: candidate, distance, bound, verdict.

    The verdict is computed, not passed: satisfied is distance <= bound plus
    the certificate slack.  epsilon_source is "measured" when epsilon came
    from a grid sweep inside the certifier and "supplied" when the caller
    overrode it to reproduce a statement-style bound.
    """

    theorem: str
    alpha: Optional[float]
    resolution: int
    epsilon: float
    epsilon_source: str = field(default="measured", kw_only=True)
    constants: dict = field(default_factory=dict, kw_only=True)
    candidate: object
    distance: float
    bound: float
    satisfied: bool = field(init=False)
    trace: dict

    def __post_init__(self):
        object.__setattr__(self, "resolution", int(self.resolution))
        object.__setattr__(self, "satisfied", _passes(self.distance, self.bound))

    def to_json_dict(self) -> dict:
        return _plain(self)


# ---------------------------------------------------------------------------
# fundamental equation, open and closed domain


def _power_fit(f, v: float):
    # proof pipeline for alpha not in {0, 1}: one g sample at 1/2 pins c,
    # the shifted function's value at 1/2 pins a, and b = a + c exactly
    g_half = 1.5**v * (float(f(2.0 / 3.0)) - float(f(1.0 / 3.0)))
    c = g_half / (2.0**-v - 1.0)
    f0_half = float(f(0.5)) - c * (2.0**-v - 1.0)
    coef_a = f0_half / (2.0 ** (1.0 - v) - 1.0)
    coef_b = coef_a + c
    candidate = PowerFamily(coef_a, coef_b, v)
    return candidate, dict(g_half=g_half, c=c, f0_half=f0_half, a=coef_a, b=coef_b)


def _log_fit(f, resolution: int):
    # alpha = 0 branch: g(u) = f(1/(1+u)) - f(u/(1+u)) tracks lambda*log2(u);
    # one-parameter least squares, then the offset from the value at 1/2
    us = UnitGrid(resolution).points
    g = np.asarray(f(1.0 / (1.0 + us))) - np.asarray(f(us / (1.0 + us)))
    basis = np.log2(us)
    lam = float(np.dot(g, basis) / np.dot(basis, basis))
    c = float(f(0.5)) + lam
    return LogFamily(lam, c), dict(lam=lam, c=c, g_samples=int(us.size))


def _fit(f, alpha: float, resolution: int):
    """The proof's candidate and trace in the regime of alpha: the two-anchor
    family for alpha < 0, the log fit at alpha = 0, the power fit otherwise."""
    regime = Regime.of(alpha)
    if regime is Regime.NEGATIVE:
        c, d = _hyperstable_fit(f, alpha)
        return PowerFamily(c, d, alpha), dict(c=c, d=d)
    if regime is Regime.ZERO:
        return _log_fit(f, resolution)
    return _power_fit(f, alpha)


def _fundamental_theorem(theorem, alpha: float):
    """The fundamental-equation theorem that runs for theorem at alpha:
    "fundamental" is hyperstability for alpha < 0 and fundamental_open
    otherwise.  A theorem whose regime excludes alpha is refused, and so is
    an alpha at which its constant or its fit is not a finite float."""
    regime = Regime.of(alpha)
    if theorem == "fundamental":
        theorem = "hyperstability" if regime is Regime.NEGATIVE else "fundamental_open"
    if theorem == "hyperstability":
        if regime is not Regime.NEGATIVE:
            raise DispatchError("hyperstability needs alpha < 0; use the fundamental certifiers")
    elif regime is Regime.NEGATIVE:
        raise DispatchError("negative alpha is the hyperstable regime; use certify_hyperstable")
    elif regime is Regime.ONE:
        raise DispatchError("alpha = 1 is outside the method; no certifier exists there")
    if theorem == "hyperstability":
        _anchor_matrix(alpha)
    else:
        stability_constant_K(alpha)
    return theorem


def _epsilon(f, alpha, resolution, closed, jobs, budget):
    """The equation defect's sup on the triangle lattice of the domain."""
    grid = TriangleGrid(resolution, closed=closed)
    kind = FundamentalParametric(alpha)
    return residual(kind, f, grid, jobs=jobs, budget=budget).sup


def _certify_fundamental(theorem, f, alpha, resolution, closed, jobs, budget, epsilon):
    """The stability proof of the two-variable equation for alpha >= 0;
    theorem is the public name whose regime check runs first.  Epsilon comes
    from the triangle lattice of the domain unless supplied, the distance
    from its unit lattice."""
    alpha = float(alpha)
    _fundamental_theorem(theorem, alpha)
    if int(resolution) % 2:
        raise ConfigurationError(
            f"resolution must be even so 1/2 is a grid node, got {resolution}"
        )
    if epsilon is None:
        eps, source = _epsilon(f, alpha, resolution, closed, jobs, budget), "measured"
    else:
        eps, source = float(epsilon), "supplied"
        if not 0.0 <= eps < math.inf:
            raise ConfigurationError(f"epsilon must be finite and nonnegative, got {eps}")
    k = stability_constant_K(alpha)
    constants = {"K": k}
    candidate, trace = _fit(f, alpha, resolution)
    if closed and Regime.of(alpha) is Regime.ZERO:
        # the interior collapses to the constant c
        value0, value1 = float(f(0.0)), float(f(1.0))
        candidate = EndpointPatch(Constant(candidate.offset), value0, value1)
        trace |= {"value0": value0, "value1": value1}
    elif closed:
        # the proof's bound max{K, T + 1} * eps is K * eps: K = (4T + 3) /
        # |2^(1-alpha) - 1|, whose denominator lies in (0, 1) here
        constants["T"] = stability_constant_T(alpha)
    xs = UnitGrid(resolution, closed=closed).points
    distance = _distance(xs, np.asarray(f(xs)) - np.asarray(candidate(xs)))
    return StabilityCertificate(
        theorem, alpha, resolution, eps, candidate, distance, k * eps, trace,
        epsilon_source=source, constants=constants,
    )


def certify_fundamental_open(
    f,
    alpha,
    resolution: int,
    *,
    jobs: int = 1,
    budget: int = 10**7,
    epsilon=None,
) -> StabilityCertificate:
    """Open-domain stability certificate for the two-variable equation.

    Measures the equation defect on the open triangle lattice, reruns the
    proof's construction (power family for alpha not in {0,1}, logarithmic
    family at alpha = 0) and checks sup |f - candidate| <= K(alpha) * eps
    on the open unit lattice.  A given epsilon replaces the measured defect
    and is reported with epsilon_source "supplied".
    """
    return _certify_fundamental(
        "fundamental_open", f, alpha, resolution, False, jobs, budget, epsilon
    )


def certify_fundamental_closed(
    f,
    alpha,
    resolution: int,
    *,
    jobs: int = 1,
    budget: int = 10**7,
    epsilon=None,
) -> StabilityCertificate:
    """Closed-domain variant: epsilon from the closed triangle lattice and the
    candidate extended to [0, 1].

    For alpha > 0 the piecewise extension coincides with the power family
    under the zero-power convention (0 at x=0, a-b at x=1) and the bound is
    max{K, T+1} * eps, which is K * eps, since K > 4T + 3 at every such
    alpha; T is reported beside K.  For alpha = 0 the interior collapses to
    the constant c with f's own endpoint values patched in, bound K(0) * eps.
    """
    return _certify_fundamental(
        "fundamental_closed", f, alpha, resolution, True, jobs, budget, epsilon
    )


# ---------------------------------------------------------------------------
# hyperstable regime, alpha < 0

_MARGIN_SLACK = 1e-12  # the blow-up probe keeps the points with x + y <= 1 - h + slack


def _anchor_matrix(v: float):
    """The family's values at 1/2 and 1/4 as a system in (c, d), regular for alpha < 0."""
    m = lambda: np.array([[2.0**-v, 2.0**-v - 1.0], [4.0**-v, 0.75**v - 1.0]])
    return _finite(f"the anchor system at alpha = {v!r}", m)


def _hyperstable_fit(f, v: float):
    # anchor the family through f(1/2) and f(1/4)
    m = _anchor_matrix(v)
    rhs = np.array([float(f(0.5)), float(f(0.25))])
    det = m[0, 0] * m[1, 1] - m[0, 1] * m[1, 0]
    if det == 0.0:
        raise UnsupportedParameterError(
            f"the anchor system is singular at alpha = {v!r}; it is regular for alpha < 0"
        )
    c, d = np.linalg.solve(m, rhs)
    return float(c), float(d)


def certify_hyperstable(
    f,
    alpha,
    resolution: int,
    closed: bool = False,
    *,
    jobs: int = 1,
    budget: int = 10**7,
) -> StabilityCertificate:
    """Hyperstability check for alpha < 0: the data must BE a family member.

    Fits (c, d) through two anchor values and passes only when
    sup |f - family| stays under the scale-aware exactness tolerance
    1e-8 * sup|f|, independent of the measured equation defect.  The closed
    variant also compares the endpoint values f(0) = 0 and f(1) = c - d,
    which the closed unit lattice covers automatically.
    """
    alpha = float(alpha)
    _fundamental_theorem("hyperstability", alpha)
    candidate, trace = _fit(f, alpha, resolution)
    eps = _epsilon(f, alpha, resolution, closed, jobs, budget)
    xs = UnitGrid(resolution, closed=closed).points
    fv = np.asarray(f(xs))
    distance = _distance(xs, fv - np.asarray(candidate(xs)))
    scale = float(np.max(np.abs(fv)))
    trace |= {"scale": scale}
    if closed:
        trace |= {
            "endpoint_gap0": abs(float(f(0.0))),
            "endpoint_gap1": abs(float(f(1.0)) - (candidate.a - candidate.b)),
        }
    tolerance = 1e-8 * scale
    return StabilityCertificate(
        "hyperstability", alpha, resolution, eps, candidate, distance, tolerance, trace,
        constants={"tolerance": tolerance},
    )


def _probe_lattice(margins, resolution, budget):
    """The blow-up probe's margins as floats and its lattice within budget, checked."""
    hs = [float(h) for h in margins]
    if not hs or any(not 0.0 < h < 1.0 for h in hs):
        raise ConfigurationError("margins must lie strictly between 0 and 1")
    if any(hs[i] <= hs[i + 1] for i in range(len(hs) - 1)):
        raise ConfigurationError("margins must decrease strictly toward 0")
    grid, r = TriangleGrid(resolution), resolution
    if 2.0 / r > 1.0 - hs[0] + _MARGIN_SLACK:  # the first margin's domain is the smallest
        raise ConfigurationError(f"margin {hs[0]} leaves no point of the resolution-{r} "
                                 f"lattice: its smallest x + y is 2/{r} > 1 - h")
    _within_budget(grid.count, budget)
    return hs, grid


def hyperstability_blowup_probe(
    f, alpha, margins, resolution: int = 2048, *, budget: int = 10**7, jobs: int = 1
):
    """Equation-defect suprema on the shrinking domains {x + y <= 1 - h}.

    For data that is an exact family member every supremum is at rounding
    level; for family-plus-bounded-perturbation data the sequence grows
    without bound as h -> 0, which is the numerical signature of the
    hyperstable regime.  Returns [(h, sup), ...] in the given margin order.
    Blocks are swept on up to jobs threads and their maxima folded in block
    order, so every supremum is exact at any jobs.
    """
    alpha = float(alpha)
    if Regime.of(alpha) is not Regime.NEGATIVE:
        raise DispatchError("the blow-up probe applies to alpha < 0 only")
    hs, grid = _probe_lattice(margins, resolution, budget)
    work, items = _blocks(FundamentalParametric(alpha), f, grid, budget, mirrored=True)

    def maxima(item):
        # the block's summary, of its size alone when every defect is finite,
        # and its per-margin maxima; x + y is the same at a point's mirror
        points, d, ranks = work(item)
        d = np.abs(d)
        if not np.isfinite(d).all():
            return _summary(points, d, ranks), ()
        s = points[:, 0] + points[:, 1]
        sups = [float(np.max(d, where=s <= 1.0 - h + _MARGIN_SLACK, initial=0.0)) for h in hs]
        return (d.size, -1.0, None, 0, 0, ()), sups

    blocks = list(_imap(maxima, items, jobs))
    _fold(summary for summary, _ in blocks)  # raises at the first non-finite defect
    return list(zip(hs, map(max, zip(*(sups for _, sups in blocks)))))


# ---------------------------------------------------------------------------
# sequences of information measures


def _sequence_candidate(v: float, coefficients, resolution):
    """J_n(P) on blocks P of any level's simplex lattice of the resolution."""
    c = coefficients["c"]
    if Regime.of(v) is Regime.ZERO:
        lam = coefficients["lam"]
        return lambda P: c * float(P.shape[1] - 1) + lam * np.log2(P[:, 0])
    d = coefficients["d"]
    scale = 1.0 / (2.0 ** (1.0 - v) - 1.0)
    powers_of = _lattice_pow0(resolution, v)

    def j_rows(P):
        powers = powers_of(P)
        # H_n sums the powers in alpha_entropy's order, so it keeps its bits
        hn = scale * (np.sum(powers, axis=-1) - 1.0)
        return c * hn + d * (powers[:, 0] - 1.0)

    return j_rows


def _lattice_pow0(resolution, alpha):
    """pow0(P, alpha) for blocks P of a simplex lattice of the resolution,
    bit for bit: one node table pow0(k/R, alpha), k = 0..R, gathered at
    rint(P * R), which recovers every k exactly (as in _fundamental_kernel)."""
    table = pow0(_unit_nodes(resolution), alpha)
    return lambda P: table[np.rint(P * resolution).astype(np.intp)]


@dataclass(frozen=True)
class SequenceRow:
    """One level of a measure-sequence certificate; its verdict is None when
    the distance is not computable (statement mode)."""

    n: int
    bound: float
    distance: Optional[float] = None
    satisfied: Optional[bool] = field(init=False)

    def __post_init__(self):
        ok = None if self.distance is None else _passes(self.distance, self.bound)
        object.__setattr__(self, "satisfied", ok)


@dataclass(frozen=True)
class MeasureSequenceCertificate:
    """Per-level certificates for a recursive sequence of measures.

    epsilons holds (eps_1, eps_2, ...): the 3-semi-symmetry defect first,
    then the recursivity defects of levels 3, 4, ...  In statement mode
    (generator plus supplied defects) distances are not computable and stay
    None, and so does the verdict; otherwise it holds when every row's does.
    """

    theorem: str = field(default="measure_sequence", init=False)
    alpha: float
    levels: int
    resolution: int
    epsilons: tuple
    candidate: object
    coefficients: dict
    rows: tuple
    satisfied: Optional[bool] = field(init=False)
    trace: dict

    def __post_init__(self):
        verdicts = [r.satisfied for r in self.rows]
        ok = None if None in verdicts else all(verdicts)
        object.__setattr__(self, "satisfied", ok)

    def to_json_dict(self) -> dict:
        return _plain(self)


def certify_measure_sequence(
    measure,
    levels: int,
    resolution: int,
    *,
    alpha=None,
    budget: int = 10**6,
    jobs: int = 1,
) -> MeasureSequenceCertificate:
    """Certify sup |I_n - J_n| level by level against the sequence bounds.

    measure is either an InformationMeasure (defects are measured on interior
    simplex lattices, distances are checked) or a (generator, epsilon-seq)
    pair reproducing a statement-style bound table; the pair form needs the
    alpha keyword.  For alpha >= 0 the bound at level n is
    sum(eps_k, k=2..n-1) + (n-1) K(alpha) (2 eps_2 + eps_1); for alpha < 0
    the K term drops and only the recursivity defects remain.

    The candidate is fitted first, since it reads only the level-2
    generator.  Then every level's lattice is streamed once, on up to jobs
    threads with at most 2 * jobs blocks in flight: one splitting recursion
    per block gives both the level's recursivity defect and its distance to
    J_n.  Errors are raised in that order: configuration, K (none exists at
    alpha = 1), the fit, the semi-symmetry sweep, then the levels in order,
    each level's recursivity error before its distance error.
    """
    if levels < 2:
        raise ConfigurationError(f"levels must be at least 2, got {levels}")
    top = max(2, int(levels) - 1)

    if isinstance(measure, InformationMeasure):
        v = measure.alpha
        if alpha is not None and float(alpha) != v:
            raise ConfigurationError(
                f"alpha={alpha} disagrees with the measure's alpha={v}"
            )
        if measure.max_n < max(3, levels):
            raise ConfigurationError(
                f"measure supports n <= {measure.max_n}, need {max(3, levels)}"
            )
        f = _GeneratorFunction(measure)
        statement = False
    else:
        try:
            f, supplied = measure
        except (TypeError, ValueError) as exc:
            raise ConfigurationError(
                "measure must be an InformationMeasure or a (generator, "
                "epsilon-sequence) pair"
            ) from exc
        if alpha is None:
            raise ConfigurationError(
                "the (generator, epsilon-sequence) form needs an explicit alpha"
            )
        v = float(alpha)
        eps = [float(e) for e in supplied]
        if len(eps) < top:
            raise ConfigurationError(
                f"need {top} defect values (eps_1..eps_{top}), got {len(eps)}"
            )
        if not all(0.0 <= e < math.inf for e in eps):
            raise ConfigurationError("defect values must be finite and nonnegative")
        statement = True

    regime = Regime.of(v)
    # K first: it refuses alpha = 1, and where it is finite so is the power fit
    k_const = None if regime is Regime.NEGATIVE else stability_constant_K(v)
    candidate, trace = _fit(f, v, resolution)

    if regime is Regime.ZERO:
        coefficients = {"c": candidate.offset, "lam": candidate.slope}
    else:
        # J_n = c H_n + d (p_1**alpha - 1) with the proof's translations
        coefficients = {
            "c": (2.0 ** (1.0 - v) - 1.0) * candidate.a,
            "d": candidate.b - candidate.a,
        }
        trace |= {"j_c": coefficients["c"], "j_d": coefficients["d"]}

    distances = {}
    if not statement:
        opts = {"budget": budget, "jobs": jobs}
        eps = [check_semisymmetry3(measure, resolution, **opts).sup]
        # built once the budget has bounded the resolution
        j_rows = _sequence_candidate(v, coefficients, resolution)
        gap = lambda P: measure._eval_rows(P) - j_rows(P)
        blocks = _simplex_blocks(2, resolution, False, budget, gap)
        distances[2] = _sweep(*blocks, jobs=jobs).sup
        for n in range(3, int(levels) + 1):
            split, dist = recursivity_defect(measure, n, resolution, against=j_rows, **opts)
            eps.append(split.sup)
            distances[n] = dist.sup
        if levels == 2:  # the level-2 bound still reads eps_2
            eps.append(recursivity_defect(measure, 3, resolution, **opts).sup)

    rows = []
    for n in range(2, int(levels) + 1):
        row_bound = math.fsum(eps[k - 1] for k in range(2, n))
        if regime is not Regime.NEGATIVE:
            row_bound += (n - 1) * k_const * (2.0 * eps[1] + eps[0])
        rows.append(SequenceRow(n, row_bound, distances.get(n)))

    return MeasureSequenceCertificate(
        alpha=v,
        levels=int(levels),
        resolution=int(resolution),
        epsilons=tuple(eps[:top]),
        candidate=candidate,
        coefficients=coefficients,
        rows=tuple(rows),
        trace=trace,
    )


# ---------------------------------------------------------------------------
# entropy equation on the positive cone


def certify_entropy_equation(
    H,
    alpha,
    resolution: int,
    *,
    bound: float = 1.0,
    jobs: int = 1,
    budget: int = 10**7,
) -> StabilityCertificate:
    """Stability certificate for the cone entropy equation.

    Measures the symmetry defect eps_1, the equation defect eps_2 and the
    homogeneity defect eps_3 on the box (0, bound]^3, fits the regime's
    candidate from the anchor value H(1,1,0) (or its limit proxy when the
    zero face is inaccessible), and checks the regime's bound.
    """
    v = float(alpha)
    # homogeneity's largest t**alpha, before the first sweep; it bounds the fit's 2**alpha
    _finite(f"4**|alpha| at alpha = {v!r}", lambda: 4.0 ** abs(v))
    grid = ConeGrid(resolution, bound=bound)
    # the symmetry sweep checks its 6 R^3 samples first; they bound homogeneity's 4 R^2
    eps1 = symmetry_residual(H, grid, jobs=jobs, budget=budget).sup
    eps2 = residual(EntropyEq(), H, grid, jobs=jobs, budget=budget).sup

    def face(u, v):
        u = np.asarray(u, dtype=float)
        return H(u, v, np.zeros_like(u))

    eps3 = homogeneity_residual(face, v, PairGrid(resolution, bound), jobs=jobs).sup

    proxy = False
    tau = 0.0
    try:
        anchor = float(H(1.0, 1.0, 0.0))
    except (ValueError, ArithmeticError):
        # zero face inaccessible: step inside by one grid spacing
        proxy = True
        tau = float(bound) / float(resolution)
        anchor = float(H(1.0, 1.0, tau))

    pts = grid.points
    regime = Regime.of(v)
    if regime is Regime.ONE:
        c = anchor / 2.0
        candidate = PhiForm(XLogX(c))
        constants = {"eps1_weight": 1.0, "eps2_weight": 1.0}
        bnd = eps1 + eps2
        fit_trace = {"c": c}
    elif regime is Regime.ZERO:
        vals = [np.asarray(H(*pts[a:b].T)) for a, b in _spans(pts.shape[0])]
        c = float(np.median(np.concatenate(vals)))
        candidate = Constant3(c)
        constants = {"eps1_weight": 49.0, "eps2_weight": 25.0, "eps3_weight": 8.0}
        bnd = 8.0 * eps3 + 25.0 * eps2 + 49.0 * eps1
        fit_trace = {"median": c}
    else:
        c = anchor / (2.0**v - 2.0)
        candidate = EntropySolution(c, v)
        constants = {"eps1_weight": 1.0, "eps2_weight": 1.0}
        bnd = eps1 + eps2
        fit_trace = {"c": c}

    distance = _ternary_distance(H, candidate, pts, jobs)
    trace = dict(
        eps1=eps1,
        eps2=eps2,
        eps3=eps3,
        anchor=anchor,
        anchor_proxy=proxy,
        anchor_tau=tau,
        **fit_trace,
    )
    return StabilityCertificate(
        "entropy_equation", v, resolution, eps2, candidate, distance, bnd, trace,
        constants=constants,
    )


# ---------------------------------------------------------------------------
# associativity-style sum representations


@dataclass(frozen=True)
class AssociativityCertificate:
    """Bridged representation phi with its two bounds: the B side must track
    phi(t+s) within epsilon and the A side within 2 * epsilon.  Both bounds
    and the verdict are computed from epsilon and the two distances."""

    theorem: str = field(default="associativity", init=False)
    epsilon: float
    resolution: int
    intervals: tuple
    phi: GridSample
    distance_a: float
    bound_a: float = field(init=False)
    distance_b: float
    bound_b: float = field(init=False)
    satisfied: bool = field(init=False)
    trace: dict

    def __post_init__(self):
        object.__setattr__(self, "bound_a", 2.0 * self.epsilon)
        object.__setattr__(self, "bound_b", self.epsilon)
        ok = _passes(self.distance_a, self.bound_a) and _passes(self.distance_b, self.bound_b)
        object.__setattr__(self, "satisfied", ok)

    def to_json_dict(self) -> dict:
        return _plain(self)


def certify_associativity(
    A, B, U, V, W, resolution: int, *, budget: int = 10**7, jobs: int = 1
) -> AssociativityCertificate:
    """Measure the associativity gap and check the bridged representation.

    epsilon is the sup of |A(u+v, w) - B(u, v+w)| on the interval lattice.
    phi(s) = A(p_a, s - p_a) slices A along the anti-diagonal, anchored at
    p_a = max(t_hi + min V, s - max W) where t_hi = min(max U, s - min(V+W));
    that choice keeps p_a - t inside V for every admissible t and s - p_a
    inside W, so each B value sits one defect application from phi and each
    A value two.  The A side is then checked within 2 * epsilon on
    (U+V) x W and the B side within epsilon on U x (V+W).
    """
    named = []
    for name, iv in (("U", U), ("V", V), ("W", W)):
        try:
            lo, hi = map(float, iv)
        except (TypeError, ValueError) as exc:
            raise ConfigurationError(
                f"interval {name} must be a (lo, hi) pair, got {iv!r}"
            ) from exc
        if not (math.isfinite(lo) and math.isfinite(hi) and lo < hi):
            raise ConfigurationError(
                f"interval {name} must satisfy lo < hi, got ({lo}, {hi})"
            )
        named.append((lo, hi))
    (u0, u1), (v0, v1), (w0, w1) = named
    r = int(resolution)
    if r < 1:
        raise ConfigurationError(f"resolution must be >= 1, got {resolution}")
    _within_budget((r + 1) ** 3, budget)
    us = np.linspace(u0, u1, r + 1)
    vs = np.linspace(v0, v1, r + 1)
    ws = np.linspace(w0, w1, r + 1)

    def gap(P):
        u, v, w = P.T
        return np.asarray(A(u + v, w)) - np.asarray(B(u, v + w))

    eps = _sweep(*_row_blocks(_box(us, vs, ws), gap), jobs=jobs).sup

    def phi(sv):
        sv = np.asarray(sv, dtype=float)
        t_lo = np.maximum(u0, sv - (v1 + w1))
        t_hi = np.minimum(u1, sv - (v0 + w0))
        pa = np.maximum(t_hi + v0, sv - w1)
        pa = np.minimum(pa, t_lo + v1)
        # A must stay on (U+V) x W even when U is wider than V
        pa = np.clip(pa, sv - w1, sv - w0)
        return np.asarray(A(pa, sv - pa))

    s_nodes = np.linspace(u0 + v0 + w0, u1 + v1 + w1, 2 * r + 1)
    snapshot = GridSample(
        tuple(float(t) for t in s_nodes), tuple(float(t) for t in phi(s_nodes))
    )

    def side(F, xs, ys):
        # sup |F(x, y) - phi(x + y)| over the box xs x ys
        pts = _box(xs, ys)
        x, y = pts.T
        return _distance(pts, np.asarray(F(x, y)) - phi(x + y))

    dist_a = side(A, np.linspace(u0 + v0, u1 + v1, 2 * r + 1), ws)
    dist_b = side(B, us, np.linspace(v0 + w0, v1 + w1, 2 * r + 1))

    trace = dict(
        anchor_v_window=(v0, v1),
        anchor_w_window=(w0, w1),
        s_lo=float(s_nodes[0]),
        s_hi=float(s_nodes[-1]),
    )
    return AssociativityCertificate(
        epsilon=eps,
        resolution=r,
        intervals=((u0, u1), (v0, v1), (w0, w1)),
        phi=snapshot,
        distance_a=dist_a,
        distance_b=dist_b,
        trace=trace,
    )


# ---------------------------------------------------------------------------
# modified entropy equation on a box


def certify_modified_entropy(
    f,
    alpha,
    n,
    resolution: int,
    *,
    jobs: int = 1,
    budget: int = 10**7,
) -> StabilityCertificate:
    """Stability certificate for the splitting recursion on the box (0, n]^3.

    Measures the recursion defect eps_1 and the symmetry defect eps_2, fits
    the coefficient of the power part from a probe pair near the corner, and
    tabulates phi along the diagonal.  Bounds: 2 eps_1 + 3 eps_2 for
    alpha < 0, 191 eps_1 + 1263 eps_2 at alpha = 0, and
    c_n eps_1 + d_n eps_2 for positive alpha != 1.
    """
    v = float(alpha)
    regime = Regime.of(v)
    if regime is Regime.ONE:
        raise UnsupportedParameterError(
            "the modified-entropy certifier needs alpha != 1"
        )
    if not float(n) > 0:
        raise ConfigurationError(f"box bound must be positive, got {n}")
    box = float(n)
    grid = ConeGrid(resolution, bound=box)
    eps1 = residual(ModifiedEntropy(v), f, grid, jobs=jobs, budget=budget).sup
    eps2 = symmetry_residual(f, grid, jobs=jobs, budget=budget).sup

    r = int(resolution)
    s_nodes = np.arange(3, 3 * r + 1) * (box / r)
    diag = s_nodes / 3.0
    diag_vals = np.asarray(f(diag, diag, diag))

    if regime is Regime.ZERO:
        coeff = 0.0
        phi_vals = diag_vals
        constants = {"eps1_weight": 191.0, "eps2_weight": 1263.0}
        bnd = 191.0 * eps1 + 1263.0 * eps2
        fit_trace = {"a": coeff}
    else:
        # probe pair on the sum level s = box; the small offset h keeps the
        # denominator large for alpha < 0 so the fitted coefficient error
        # stays well below the bound
        h = box / (64.0 * r)
        third = box / 3.0
        denom = 3.0 * third**v - ((box - 2.0 * h) ** v + 2.0 * h**v)
        if denom == 0.0:
            raise UnsupportedParameterError(
                f"the probe pair is degenerate at alpha = {v!r}; it is regular for alpha != 1"
            )
        coeff = (float(f(third, third, third)) - float(f(box - 2.0 * h, h, h))) / denom
        phi_vals = diag_vals - 3.0 * coeff * np.power(diag, v)
        if regime is Regime.NEGATIVE:
            constants = {"eps1_weight": 2.0, "eps2_weight": 3.0}
            bnd = 2.0 * eps1 + 3.0 * eps2
        else:
            c_n, d_n = box_growth_constants(box, v)
            constants = {"c_n": c_n, "d_n": d_n}
            bnd = c_n * eps1 + d_n * eps2
        fit_trace = {"a": coeff, "probe_h": h, "probe_denominator": denom}

    candidate = ModifiedEntropySolution(
        coeff,
        v,
        GridSample(
            tuple(float(t) for t in s_nodes), tuple(float(t) for t in phi_vals)
        ),
    )
    distance = _ternary_distance(f, candidate, grid.points, jobs)
    trace = dict(eps1=eps1, eps2=eps2, box=box, **fit_trace)
    return StabilityCertificate(
        "modified_entropy", v, r, eps1, candidate, distance, bnd, trace, constants=constants
    )


# ---------------------------------------------------------------------------
# sum-form inequalities on closed simplices


def certify_sum_form(
    phi, n: int, resolution: int, *, jobs: int = 1, budget: int = 10**7
) -> StabilityCertificate:
    """Vanishing sum form: |sum phi(p_i)| small forces phi - phi(0) near kappa*p.

    epsilon is the sup of |sum phi(p_i)| over the closed simplex lattice; the
    regular additive representative kappa*p is the one-parameter Chebyshev
    (minimax) fit on the closed unit lattice, solved by golden-section search
    over the bracket [-M, M], M = 2 * sup|phi| * resolution.  The certificate
    passes when the bounded remainder stays under epsilon.  The epsilon sweep
    streams its lattice on up to jobs threads, at most 2 * jobs blocks at once.
    """
    if n < 3:
        raise ConfigurationError(f"the sum-form theorem needs n >= 3, got {n}")
    sums = lambda P: np.sum(np.asarray(phi(P)), axis=1)
    eps = _sweep(*_simplex_blocks(n, resolution, True, budget, sums), jobs=jobs).sup

    xs = UnitGrid(resolution, closed=True).points
    pv = np.asarray(phi(xs))
    phi0 = float(phi(0.0))
    rel = pv - phi0

    def remainder_sup(kappa):
        return float(np.max(np.abs(rel - kappa * xs)))

    m_hi = 2.0 * float(np.max(np.abs(pv))) * resolution
    if m_hi == 0.0:
        kappa = 0.0
    else:
        # golden-section over the convex piecewise-linear minimax objective
        lo, hi = -m_hi, m_hi
        ratio = (math.sqrt(5.0) - 1.0) / 2.0
        x1 = hi - ratio * (hi - lo)
        x2 = lo + ratio * (hi - lo)
        f1, f2 = remainder_sup(x1), remainder_sup(x2)
        for _ in range(200):
            if f1 <= f2:
                hi, x2, f2 = x2, x1, f1
                x1 = hi - ratio * (hi - lo)
                f1 = remainder_sup(x1)
            else:
                lo, x1, f1 = x1, x2, f2
                x2 = lo + ratio * (hi - lo)
                f2 = remainder_sup(x2)
        kappa = 0.5 * (lo + hi)
    distance = _distance(xs, rel - kappa * xs)
    trace = dict(n=int(n), kappa=kappa, phi0=phi0, bracket=m_hi)
    return StabilityCertificate(
        "sum_form", None, resolution, eps, PowerLaw(kappa, 1.0), distance, eps, trace
    )


def certify_sum_form_multiplicative(
    g, n: int, m: int, resolution: int, *, jobs: int = 1, budget: int = 10**7
) -> StabilityCertificate:
    """Multiplicative sum form: decompose g into kappa*p + p**beta + bounded.

    epsilon comes from the product-distribution defect sweep.  kappa runs
    over a coarse symmetric grid (always containing 0), beta follows by
    log-log regression on the positive part of g - kappa*p, and the winner
    is the smallest remainder with ties broken toward the smaller |kappa|.
    When no kappa leaves a usable positive part the multiplicative term is
    dropped and the fit-failure is flagged in the trace; that is a fit
    degeneracy, not a certificate failure.  The pass itself is informational:
    remainder <= epsilon on the lattice.
    """
    if n < 3 or m < 3:
        raise ConfigurationError(
            f"the multiplicative sum form needs n, m >= 3, got ({n}, {m})"
        )
    pair = (
        SimplexGrid(n, resolution, closed=True, budget=budget),
        SimplexGrid(m, resolution, closed=True, budget=budget),
    )
    eps = residual(SumFormMultiplicative(n, m), g, pair, jobs=jobs, budget=budget).sup

    xs = UnitGrid(resolution, closed=True).points
    gv = np.asarray(g(xs))
    sup_g = float(np.max(np.abs(gv)))
    ks = [0.0] + [float(t) for t in np.linspace(-2.0 * sup_g, 2.0 * sup_g, 41)]
    ks.sort(key=lambda t: (abs(t), t))
    pos_x = xs > 0

    best = None
    for kappa in ks:
        resid = gv - kappa * xs
        mask = pos_x & (resid > 0)
        if int(mask.sum()) < 2:
            continue
        lx = np.log2(xs[mask])
        ly = np.log2(resid[mask])
        lxc = lx - lx.mean()
        beta = float(np.dot(lxc, ly - ly.mean()) / np.dot(lxc, lxc))
        rem = float(np.max(np.abs(gv - kappa * xs - pow0(xs, beta))))
        if best is None or rem < best[0] - 1e-12 * (1.0 + best[0]):
            best = (rem, kappa, beta)

    if best is None:
        # no positive residual part for any kappa: drop the multiplicative term
        options = [(float(np.max(np.abs(gv - k * xs))), abs(k), k) for k in ks]
        _, _, kappa = min(options)
        beta = None
        candidate = PowerLaw(kappa, 1.0)
        fit_failed = True
    else:
        _, kappa, beta = best
        candidate = FunctionSum((PowerLaw(kappa, 1.0), PowerLaw(1.0, beta)))
        fit_failed = False
    rem = _distance(xs, gv - kappa * xs if fit_failed else gv - kappa * xs - pow0(xs, beta))

    trace = dict(n=int(n), m=int(m), kappa=kappa, beta=beta, fit_failed=fit_failed, sup_g=sup_g)
    return StabilityCertificate(
        "sum_form_multiplicative", None, resolution, eps, candidate, rem, eps, trace
    )


def certify_sum_form_mixed(
    f,
    alpha,
    beta,
    n: int,
    m: int,
    resolution: int,
    *,
    jobs: int = 1,
    budget: int = 10**7,
) -> StabilityCertificate:
    """Mixed-weight sum form: f(p) ~ c(p**alpha - p**beta) plus bounded.

    The defect couples two closed simplices with weights alpha and beta.  The
    additive part is pinned to zero by the a(1) = 0 normalisation; for
    beta != alpha a single coefficient c is fitted by least squares against
    p**alpha - p**beta, and for beta == alpha != 1 the logarithmic branch
    fits lambda against p**alpha * log2(p).  alpha = beta = 1 is the Shannon
    case the theorem does not cover.
    """
    av, bv = float(alpha), float(beta)
    if Regime.of(av) is Regime.ONE and Regime.of(bv) is Regime.ONE:
        raise UnsupportedParameterError(
            "the mixed sum form does not cover alpha = beta = 1"
        )
    if n < 3 or m < 3:
        raise ConfigurationError(
            f"the mixed sum form needs n, m >= 3, got ({n}, {m})"
        )
    gp = SimplexGrid(n, resolution, closed=True, budget=budget)
    gq = SimplexGrid(m, resolution, closed=True, budget=budget)

    def cross(a, b, prods):
        c = np.sum(np.asarray(f(prods)), axis=2)
        return c - fp[a:b, None] * qb[None, :] - fq[None, :] * pa[a:b, None]

    work, spans = _pair_blocks(gp, gq, budget, cross)
    fp = np.sum(np.asarray(f(gp.points)), axis=1)
    fq = np.sum(np.asarray(f(gq.points)), axis=1)
    pa = np.sum(pow0(gp.points, av), axis=1)
    qb = np.sum(pow0(gq.points, bv), axis=1)
    eps = _sweep(work, spans, jobs=jobs).sup

    xs = UnitGrid(resolution, closed=True).points
    fv = np.asarray(f(xs))
    if av == bv:
        safe = np.where(xs > 0, xs, 1.0)
        basis = np.where(xs > 0, pow0(xs, av) * np.log2(safe), 0.0)
        denom = float(np.dot(basis, basis))
        lam = 0.0 if denom == 0.0 else float(np.dot(fv, basis) / denom)
        candidate = PowerLog(lam, av)
        fitted = {"lam": lam}
    else:
        w = pow0(xs, av) - pow0(xs, bv)
        denom = float(np.dot(w, w))
        c = 0.0 if denom == 0.0 else float(np.dot(fv, w) / denom)
        candidate = FunctionSum((PowerLaw(c, av), PowerLaw(-c, bv)))
        fitted = {"c": c}
    distance = _distance(xs, fv - np.asarray(candidate(xs)))

    trace = dict(n=int(n), m=int(m), beta=bv, kappa=0.0, **fitted)
    return StabilityCertificate(
        "sum_form_mixed", av, resolution, eps, candidate, distance, eps, trace
    )
