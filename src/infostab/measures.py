"""Recursively built information measures and their axiom checkers.

A measure is generated from its two-coordinate restriction f (the generator,
f(x) = I_2(1-x, x)) by unrolling the degree-alpha splitting recursion

    I_n(p_1 ... p_n) = I_{n-1}(p_1+p_2, p_3 ... p_n)
                       + (p_1+p_2)^alpha I_2(p_1/(p_1+p_2), p_2/(p_1+p_2))

left to right, plus optional bounded per-level perturbations that manufacture
approximate measures with measurable defects.  Checkers sweep the axioms on
interior simplex lattices block by block and reduce the defects with the
residual sweeps' reducer, so their reports carry the same exact sup,
argmax point and exactly rounded mean, and fail on NaN or inf the same way.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .domains import SimplexGrid, TriangleGrid, pow0
from .equations import _CHUNK, FundamentalParametric, ResidualReport, _spans, _sweep, residual
from .equations import _pair_blocks, _pair_sweep
from .errors import BudgetExceededError, ConfigurationError, InvalidDistributionError
from .models import Alpha, ScalarFunction, validate_distribution

__all__ = [
    "LevelNoise",
    "InformationMeasure",
    "check_symmetry",
    "check_semisymmetry3",
    "check_additivity",
    "check_normalization",
    "check_sum_property",
    "recursivity_defect",
    "GeneratingDefect",
    "derive_generating_defect",
    "sum_property_cauchy_gap",
    "tabulate",
]


@dataclass(frozen=True)
class LevelNoise:
    """Deterministic seeded trig perturbation attached at one recursion level.

    Bounded by |height|; vectorises over point matrices and is reproducible
    in any evaluation order.
    """

    level: int
    height: float
    seed: int

    def __post_init__(self):
        if self.level < 3:
            raise ConfigurationError(
                f"perturbations attach at levels >= 3, got {self.level}"
            )

    def values(self, P: np.ndarray) -> np.ndarray:
        rng = np.random.default_rng((int(self.seed), int(self.level)))
        freqs = rng.uniform(2.0, 11.0, size=self.level)
        phase = rng.uniform(0.0, 2.0 * math.pi)
        return self.height * np.sin(P @ freqs + phase)


@dataclass(frozen=True)
class InformationMeasure:
    """A sequence (I_n) built from a generator by the splitting recursion."""

    generator: ScalarFunction
    alpha: float
    max_n: int = 8
    perturbations: tuple = ()

    def __post_init__(self):
        object.__setattr__(self, "perturbations", tuple(self.perturbations))
        if self.max_n < 2:
            raise ConfigurationError(f"max_n must be >= 2, got {self.max_n}")
        for pert in self.perturbations:
            if not isinstance(pert, LevelNoise):
                raise ConfigurationError("perturbations must be LevelNoise entries")
            if pert.level > self.max_n:
                raise ConfigurationError(
                    f"perturbation at level {pert.level} exceeds max_n={self.max_n}"
                )

    @property
    def alpha_value(self) -> float:
        return Alpha.of(self.alpha).value

    def scaled(self, factor: float) -> "InformationMeasure":
        """Same measure with every perturbation height multiplied by factor."""
        perts = tuple(
            LevelNoise(p.level, factor * p.height, p.seed) for p in self.perturbations
        )
        return InformationMeasure(self.generator, self.alpha, self.max_n, perts)

    def _noise_at(self, n: int):
        return [p for p in self.perturbations if p.level == n]

    def eval_rows(self, P) -> np.ndarray:
        """Evaluate I_n on the rows of an (N, n) matrix of interior points."""
        P = np.asarray(P, dtype=float)
        if P.ndim != 2 or P.shape[1] < 2:
            raise InvalidDistributionError("expected an (N, n) matrix with n >= 2")
        n = P.shape[1]
        if n > self.max_n:
            raise ConfigurationError(
                f"level {n} beyond this measure's max_n={self.max_n}"
            )
        if float(P.min()) <= 0.0:
            raise InvalidDistributionError(
                "measures are evaluated on strictly positive distributions"
            )
        validate_distribution(P, tol=1e-9)
        return self._recurse(P)

    def _recurse(self, P: np.ndarray) -> np.ndarray:
        n = P.shape[1]
        if n == 2:
            return np.asarray(self.generator(P[:, 1]), dtype=float)
        s = P[:, 0] + P[:, 1]
        merged = np.concatenate([s[:, None], P[:, 2:]], axis=1)
        out = self._recurse(merged) + pow0(s, self.alpha_value) * np.asarray(
            self.generator(P[:, 1] / s)
        )
        for pert in self._noise_at(n):
            out = out + pert.values(P)
        return out

    def eval(self, p) -> float:
        """Evaluate I_n at a single distribution."""
        arr = np.asarray(p, dtype=float)
        if arr.ndim != 1:
            raise InvalidDistributionError("eval takes a single distribution")
        return float(self.eval_rows(arr[None, :])[0])


def _interior_grid(n, resolution, budget):
    return SimplexGrid(n, resolution, closed=False, budget=budget)


def check_symmetry(
    measure: InformationMeasure, n: int, resolution: int, *, budget: int = 10**6
) -> ResidualReport:
    """sup over all n! coordinate permutations and grid points of the gap."""
    grid = _interior_grid(n, resolution, budget)
    pts = grid.points
    perms = list(itertools.permutations(range(n)))
    if pts.shape[0] * len(perms) > budget:
        raise BudgetExceededError(
            f"{pts.shape[0]} points x {len(perms)} permutations exceed the "
            f"budget of {budget}"
        )
    base = measure.eval_rows(pts)
    # one block per permutation, in order
    return _sweep(lambda perm: (measure.eval_rows(pts[:, perm]) - base, pts.__getitem__), perms)


def check_semisymmetry3(
    measure: InformationMeasure, resolution: int, *, budget: int = 10**6
) -> ResidualReport:
    """sup over the interior 3-simplex of |I_3(p1,p2,p3) - I_3(p1,p3,p2)|."""
    pts = _interior_grid(3, resolution, budget).points

    def block(span):
        P = pts[span[0] : span[1]]
        return measure.eval_rows(P[:, (0, 2, 1)]) - measure.eval_rows(P), P.__getitem__

    return _sweep(block, _spans(pts.shape[0]))


def check_additivity(
    measure: InformationMeasure,
    n: int,
    m: int,
    resolution: int,
    *,
    budget: int = 10**6,
) -> ResidualReport:
    """Defect of degree-alpha additivity over pairs of interior lattices:

        I_nm(P*Q) - I_n(P) - I_m(Q) - (2^(1-alpha)-1) I_n(P) I_m(Q)
    """
    if n * m > measure.max_n:
        raise ConfigurationError(
            f"product level {n * m} beyond this measure's max_n={measure.max_n}"
        )
    gp = _interior_grid(n, resolution, budget)
    gq = _interior_grid(m, resolution, budget)

    def cross(a, b, prods):
        # prods[i, j] holds the nm coordinates of P[a + i] * Q[j]
        left = measure.eval_rows(prods.reshape(-1, prods.shape[2])).reshape(b - a, -1)
        return left - ip[a:b] - iq - lam * ip[a:b] * iq

    P, Q, spans, worker = _pair_blocks(gp, gq, budget, cross)
    lam = 2.0 ** (1.0 - measure.alpha_value) - 1.0
    ip = measure.eval_rows(P)[:, None]
    iq = measure.eval_rows(Q)[None, :]
    return _pair_sweep(P, Q, spans, worker)


def check_normalization(measure: InformationMeasure) -> float:
    """|I_2(1/2, 1/2) - 1|."""
    return abs(measure.eval(np.array([0.5, 0.5])) - 1.0)


def check_sum_property(
    measure: InformationMeasure,
    f: ScalarFunction,
    n: int,
    resolution: int,
    *,
    budget: int = 10**6,
) -> ResidualReport:
    """sup over the interior lattice of |I_n(P) - sum_i f(p_i)|."""
    pts = _interior_grid(n, resolution, budget).points

    def block(span):
        P = pts[span[0] : span[1]]
        return measure.eval_rows(P) - np.sum(np.asarray(f(P)), axis=1), P.__getitem__

    return _sweep(block, _spans(pts.shape[0]))


def recursivity_defect(
    measure: InformationMeasure, n: int, resolution: int, *, budget: int = 10**6
) -> ResidualReport:
    """sup over the interior n-lattice of the level-n splitting defect

        |I_n(P) - I_{n-1}(p1+p2, p3 ...) - (p1+p2)^alpha I_2(p1/s, p2/s)|
    """
    if n < 3:
        raise ConfigurationError(f"recursivity defect needs n >= 3, got {n}")
    grid = _interior_grid(n, resolution, budget)
    if grid.count > budget:
        raise BudgetExceededError(
            f"simplex grid would hold {grid.count} points, over the budget of {budget}"
        )
    a = measure.alpha_value

    def block(P):
        s = P[:, 0] + P[:, 1]
        merged = np.concatenate([s[:, None], P[:, 2:]], axis=1)
        level2 = np.stack([P[:, 0] / s, P[:, 1] / s], axis=1)
        d = (
            measure.eval_rows(P)
            - measure.eval_rows(merged)
            - pow0(s, a) * measure.eval_rows(level2)
        )
        return d, P.__getitem__

    # streamed, so the lattice is never held whole
    return _sweep(block, grid.iter_blocks(_CHUNK))


class _GeneratorFunction(ScalarFunction):
    """The x -> I_2(1-x, x) restriction of a measure, as a scalar function."""

    def __init__(self, measure: InformationMeasure):
        self._measure = measure
        self._lo = 0.0
        self._hi = 1.0

    def _values(self, arr):
        flat = np.ravel(arr)
        inner = (flat > 0) & (flat < 1)
        out = np.empty_like(flat)
        if np.any(inner):
            rows = np.stack([1.0 - flat[inner], flat[inner]], axis=1)
            out[inner] = self._measure.eval_rows(rows)
        if np.any(~inner):
            # endpoint values come from the generator directly, conventions apply
            out[~inner] = np.asarray(self._measure.generator(flat[~inner]))
        return out.reshape(np.shape(arr))


@dataclass(frozen=True)
class GeneratingDefect:
    """Result of extracting the generator and checking its equation residual."""

    f: ScalarFunction
    report: ResidualReport
    eps_semisymmetry: float
    eps_recursivity: float

    @property
    def bound(self) -> float:
        return 2.0 * self.eps_recursivity + self.eps_semisymmetry

    @property
    def within(self) -> bool:
        return self.report.sup <= self.bound + 1e-9 * (1.0 + self.bound)


def derive_generating_defect(
    measure: InformationMeasure, resolution: int, *, budget: int = 10**6, jobs: int = 1
) -> GeneratingDefect:
    """Extract f(x) = I_2(1-x, x) and verify its two-variable equation residual
    against twice the level-3 splitting defect plus the 3-semi-symmetry defect,
    all measured on matching lattices."""
    if measure.max_n < 3:
        raise ConfigurationError("needs a measure defined at least up to level 3")
    f = _GeneratorFunction(measure)
    eps1 = check_semisymmetry3(measure, resolution, budget=budget).sup
    eps2 = recursivity_defect(measure, 3, resolution, budget=budget).sup
    rep = residual(
        FundamentalParametric(measure.alpha_value),
        f,
        TriangleGrid(resolution),
        jobs=jobs,
        budget=budget,
    )
    return GeneratingDefect(f=f, report=rep, eps_semisymmetry=eps1, eps_recursivity=eps2)


def sum_property_cauchy_gap(
    bound_i3: float, f: ScalarFunction, resolution: int, *, budget: int = 10**6
) -> ResidualReport:
    """Gap |f(x+y) - f(x) - f(y) + f(0)| on the closed triangle, with the
    target 2*bound_i3 implied by a bounded level-3 measure."""
    pts = TriangleGrid(resolution, closed=True).points
    f0 = float(f(0.0))

    def block(span):
        P = pts[span[0] : span[1]]
        x, y = P[:, 0], P[:, 1]
        d = np.asarray(f(x + y)) - np.asarray(f(x)) - np.asarray(f(y)) + f0
        return d, P.__getitem__

    return _sweep(block, _spans(pts.shape[0]), epsilon_target=2.0 * float(bound_i3))


def tabulate(measure: InformationMeasure, n: int, resolution: int, *, budget: int = 10**6):
    """Interior lattice points and I_n values, ready for CSV export."""
    grid = _interior_grid(n, resolution, budget)
    pts = grid.points
    vals = measure.eval_rows(pts)
    return pts, vals
