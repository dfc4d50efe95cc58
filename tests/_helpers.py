"""Shared constructions for the test modules."""

import math

import numpy as np
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from infostab import (
    FunctionSum,
    GridSample,
    InformationMeasure,
    LevelNoise,
    PowerFamily,
    PowerLaw,
    Regime,
    ShannonInfo,
    XLogX,
    alpha_entropy,
    pow0,
)


def two_where_pow0(x, alpha):
    """The two-np.where pow0 the one-pass version replaced, kept as its oracle."""
    arr = np.asarray(x, dtype=float)
    safe = np.where(arr == 0.0, 1.0, arr)
    out = np.where(arr == 0.0, 0.0, np.power(safe, alpha))
    return float(out) if np.ndim(x) == 0 else out


# any float in [0, 1] by its raw bit pattern, plus -0.0, edge subnormals and NaN
UNIT_FLOATS = st.one_of(
    st.integers(0, 0x3FF0000000000000).map(lambda b: float(np.int64(b).view(np.float64))),
    st.sampled_from([0.0, -0.0, 5e-324, 2.225073858507201e-308, 1.0, math.nan]),
)
# 0-d, empty, 1-d, 2-d and 3-d arrays of them
UNIT_ARRAYS = hnp.arrays(
    np.float64, hnp.array_shapes(min_dims=0, max_dims=3, min_side=0, max_side=6),
    elements=UNIT_FLOATS,
)


def float_bits(v):
    """The IEEE bit patterns of a float or float array, as comparable lists."""
    return np.asarray(v, dtype=np.float64).view(np.uint64).tolist()


def scaled_sum(values, scale):
    """sum(values) * 2**scale as an exact int, value by value from each
    float's integer ratio: the oracle of equations._exact_total, which shares
    none of its code.  Exact for 2**scale at least the least float's inverse."""
    total = 0
    for v in np.asarray(values, dtype=float).tolist():
        num, den = v.as_integer_ratio()
        total += (num << scale) // den
    return total


def kappa(alpha):
    return 1.0 / (2.0 ** (1.0 - alpha) - 1.0)


def sampled(fn, resolution):
    """fn tabulated on the closed unit lattice {k/R} as a GridSample."""
    xs = np.arange(0, resolution + 1) / float(resolution)
    return GridSample(tuple(xs), tuple(np.asarray(fn(xs), dtype=float)))


def alpha_sum_generator(alpha):
    """Generator of the sum property: sum f(p_i) equals the degree-alpha entropy."""
    if alpha == 1.0:
        return XLogX(-1.0)
    k = kappa(alpha)
    return FunctionSum((PowerLaw(k, alpha), PowerLaw(-k, 1.0)))


def scaled_measure(m, factor):
    """m with every perturbation height multiplied by factor."""
    perts = tuple(LevelNoise(p.level, factor * p.height, p.seed) for p in m.perturbations)
    return InformationMeasure(m.generator, m.alpha, m.max_n, perts)


def exact_measure(alpha, max_n=8, perturbations=()):
    """The degree-alpha entropy sequence: generator x -> H_2(1-x, x)."""
    if alpha == 1.0:
        return InformationMeasure(ShannonInfo(), 1.0, max_n, perturbations)
    k = kappa(alpha)
    return InformationMeasure(PowerFamily(k, k, alpha), alpha, max_n, perturbations)


def fundamental_defect(f, alpha, pts):
    """The fundamental equation's defect evaluated point by point: the oracle
    of the node-table kernel, which must match it bit for bit."""
    x = pts[:, 0]
    y = pts[:, 1]
    rx = 1.0 - x
    ry = 1.0 - y
    return (
        f(x)
        + pow0(rx, alpha) * f(np.minimum(y / rx, 1.0))
        - f(y)
        - pow0(ry, alpha) * f(np.minimum(x / ry, 1.0))
    )


def recursivity_oracle(m, P):
    """The level-n splitting defect from three eval_rows calls on whole
    matrices: the oracle of recursivity_defect's one-pass blocks, which must
    match it bit for bit."""
    s = P[:, 0] + P[:, 1]
    merged = np.concatenate([s[:, None], P[:, 2:]], axis=1)
    level2 = np.stack([P[:, 0] / s, P[:, 1] / s], axis=1)
    return m.eval_rows(P) - m.eval_rows(merged) - pow0(s, m.alpha) * m.eval_rows(level2)


def recursive_measure(m, P):
    """I_n by the splitting recursion written recursively, level n first: the
    oracle of the measure's unrolled evaluation, which must match it bit for
    bit."""
    n = P.shape[1]
    if n == 2:
        return np.asarray(m.generator(P[:, 1]), dtype=float)
    s = P[:, 0] + P[:, 1]
    merged = np.concatenate([s[:, None], P[:, 2:]], axis=1)
    out = recursive_measure(m, merged) + pow0(s, m.alpha) * np.asarray(
        m.generator(P[:, 1] / s)
    )
    for pert in m.perturbations:
        if pert.level == n:
            out = out + pert.values(P)
    return out


def two_sweep_sequences(measure, levels, resolution, *, budget=10**6):
    """certify_measure_sequence as it was before its level sweeps were fused,
    at each count in levels: every epsilon first, then each level's lattice
    swept again for the distance, with J_n from the public alpha_entropy.
    The oracle of the fused certificate, which must match it byte for byte.

    One set of sweeps up to max(levels) serves every count, since a level's
    epsilon, bound and distance do not depend on how many levels are
    certified."""
    from infostab import certifiers as c
    from infostab.measures import check_semisymmetry3, recursivity_defect

    v = measure.alpha
    regime = Regime.of(v)
    last = max(levels)
    f = c._GeneratorFunction(measure)
    eps = [check_semisymmetry3(measure, resolution, budget=budget).sup]
    for k in range(2, max(2, last - 1) + 1):
        eps.append(recursivity_defect(measure, k + 1, resolution, budget=budget).sup)
    candidate, trace = c._fit(f, v, resolution)
    k_const = None if regime is Regime.NEGATIVE else c.stability_constant_K(v)
    if regime is Regime.ZERO:
        coefficients = {"c": candidate.offset, "lam": candidate.slope}
    else:
        coefficients = {
            "c": (2.0 ** (1.0 - v) - 1.0) * candidate.a,
            "d": candidate.b - candidate.a,
        }
        trace = trace | {"j_c": coefficients["c"], "j_d": coefficients["d"]}

    def j_rows(block, n):
        p1 = block[:, 0]
        if regime is Regime.ZERO:
            return coefficients["c"] * float(n - 1) + coefficients["lam"] * np.log2(p1)
        hn = np.asarray(alpha_entropy(block, v))
        return coefficients["c"] * hn + coefficients["d"] * (pow0(p1, v) - 1.0)

    rows = []
    for n in range(2, last + 1):
        row_bound = math.fsum(eps[k - 1] for k in range(2, n))
        if regime is not Regime.NEGATIVE:
            row_bound += (n - 1) * k_const * (2.0 * eps[1] + eps[0])
        gap = lambda P: measure._eval_rows(P) - j_rows(P, n)
        dist = c._sweep(*c._simplex_blocks(n, resolution, False, budget, gap)).sup
        rows.append(c.SequenceRow(n, row_bound, dist))
    return {
        m: c.MeasureSequenceCertificate(
            alpha=v,
            levels=m,
            resolution=int(resolution),
            epsilons=tuple(eps[: max(2, m - 1)]),
            candidate=candidate,
            coefficients=coefficients,
            rows=tuple(rows[: m - 1]),
            trace=trace,
        )
        for m in levels
    }
