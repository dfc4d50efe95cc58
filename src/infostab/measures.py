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

Distributions are validated at the public entry only: eval_rows (and eval)
scan their rows for positivity and unit sums, while the lattice sweeps,
whose rows are interior simplex points by construction, evaluate through
_eval_rows, which keeps only the level check.  The splitting defect runs one
recursion per block: _split returns I_n(P) together with the I_{n-1} value,
the (p1+p2)^alpha weight and the level-2 generator value it was built from,
and the same recursion can also give a block's distance to a candidate.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .domains import SimplexGrid, TriangleGrid, pow0
from .equations import (
    FundamentalParametric, ResidualReport, _fold, _imap, _pair_blocks, _passes, _row_blocks,
    _simplex_blocks, _summary, _sweep, _within_budget, residual,
)
from .errors import ConfigurationError, InvalidDistributionError
from .models import ScalarFunction, validate_distribution

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

    @cached_property
    def _params(self):
        """The seeded frequencies (a read-only array) and phase, drawn on
        first use; equality and hashing still see only the fields."""
        rng = np.random.default_rng((int(self.seed), int(self.level)))
        freqs = rng.uniform(2.0, 11.0, size=self.level)
        freqs.flags.writeable = False
        return freqs, rng.uniform(0.0, 2.0 * math.pi)

    def values(self, P: np.ndarray) -> np.ndarray:
        freqs, phase = self._params
        return self.height * np.sin(P @ freqs + phase)


@dataclass(frozen=True)
class InformationMeasure:
    """A sequence (I_n) built from a generator by the splitting recursion."""

    generator: ScalarFunction
    alpha: float
    max_n: int = 8
    perturbations: tuple = ()

    def __post_init__(self):
        object.__setattr__(self, "alpha", float(self.alpha))
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

    def _noise_at(self, n: int):
        return [p for p in self.perturbations if p.level == n]

    def eval_rows(self, P) -> np.ndarray:
        """Evaluate I_n on the rows of an (N, n) matrix of interior points."""
        P = np.asarray(P, dtype=float)
        if P.ndim != 2 or P.shape[1] < 2:
            raise InvalidDistributionError("expected an (N, n) matrix with n >= 2")
        self._check_level(P.shape[1])
        validate_distribution(P, positive=True)
        return self._recurse(P)

    def _eval_rows(self, P: np.ndarray) -> np.ndarray:
        """eval_rows for lattice blocks, whose rows are interior distributions
        by construction: the level check without the distribution scans."""
        self._check_level(P.shape[1])
        return self._recurse(P)

    def _check_level(self, n: int):
        if n > self.max_n:
            raise ConfigurationError(
                f"level {n} beyond this measure's max_n={self.max_n}"
            )

    def _recurse(self, P: np.ndarray) -> np.ndarray:
        if P.shape[1] == 2:
            return np.asarray(self.generator(P[:, 1]), dtype=float)
        return self._split(P)[0]

    def _split(self, P: np.ndarray):
        """The top splitting step at level n >= 3, from one pass:
        (I_n(P), I_{n-1}(p1+p2, p3 ...), (p1+p2)^alpha, f(p2/(p1+p2))).

        The recursion is unrolled bottom up, in the order it evaluates.  Its
        level-k rows are (p1+...+p_{n-k+1}, p_{n-k+2} ... p_n), and their
        merged first coordinates are the running sums of P, added left to
        right as the recursion adds them; a level's rows are built only where
        a perturbation reads them."""
        n = P.shape[1]
        sums = [P[:, 0]]
        for j in range(1, n - 1):
            sums.append(sums[-1] + P[:, j])
        out = np.asarray(self.generator(P[:, -1]), dtype=float)
        for k in range(3, n + 1):
            i = n + 1 - k  # the column split off from the running sum at level k
            inner = out
            weight = pow0(sums[i], self.alpha)
            g2 = np.asarray(self.generator(P[:, i] / sums[i]))
            out = inner + weight * g2
            for pert in self._noise_at(k):
                rows = P if k == n else np.concatenate([sums[i - 1][:, None], P[:, i:]], axis=1)
                out = out + pert.values(rows)
        return out, inner, weight, g2

    def eval(self, p) -> float:
        """Evaluate I_n at a single distribution."""
        arr = np.asarray(p, dtype=float)
        if arr.ndim != 1:
            raise InvalidDistributionError("eval takes a single distribution")
        return float(self.eval_rows(arr[None, :])[0])


def check_symmetry(
    measure: InformationMeasure, n: int, resolution: int, *, budget: int = 10**6, jobs: int = 1
) -> ResidualReport:
    """sup over all n! coordinate permutations and grid points of the gap."""
    grid = SimplexGrid(n, resolution, budget=budget)
    _within_budget(grid.count * math.factorial(n), budget)
    pts = grid.points
    perms = list(itertools.permutations(range(n)))
    base = measure._eval_rows(pts)
    # one block per permutation, in order
    return _sweep(lambda perm: (pts, measure._eval_rows(pts[:, perm]) - base), perms, jobs=jobs)


def check_semisymmetry3(
    measure: InformationMeasure, resolution: int, *, budget: int = 10**6, jobs: int = 1
) -> ResidualReport:
    """sup over the interior 3-simplex of |I_3(p1,p2,p3) - I_3(p1,p3,p2)|."""
    grid = SimplexGrid(3, resolution, budget=budget)
    _within_budget(grid.count, budget)
    pts = grid.points
    swap = lambda P: measure._eval_rows(P[:, (0, 2, 1)]) - measure._eval_rows(P)
    return _sweep(*_row_blocks(pts, swap), jobs=jobs)


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
    gp = SimplexGrid(n, resolution, budget=budget)
    gq = SimplexGrid(m, resolution, budget=budget)

    def cross(a, b, prods):
        # prods[i, j] holds the nm coordinates of P[a + i] * Q[j]
        left = measure._eval_rows(prods.reshape(-1, prods.shape[2])).reshape(b - a, -1)
        return left - ip[a:b] - iq - lam * ip[a:b] * iq

    work, spans = _pair_blocks(gp, gq, budget, cross)
    lam = 2.0 ** (1.0 - measure.alpha) - 1.0
    ip = measure._eval_rows(gp.points)[:, None]
    iq = measure._eval_rows(gq.points)[None, :]
    return _sweep(work, spans)


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
    """sup over the interior lattice of |I_n(P) - sum_i f(p_i)|, streamed."""
    gap = lambda P: measure._eval_rows(P) - np.sum(np.asarray(f(P)), axis=1)
    return _sweep(*_simplex_blocks(n, resolution, False, budget, gap))


def recursivity_defect(
    measure: InformationMeasure,
    n: int,
    resolution: int,
    *,
    budget: int = 10**6,
    against=None,
    jobs: int = 1,
):
    """sup over the interior n-lattice of the level-n splitting defect

        |I_n(P) - I_{n-1}(p1+p2, p3 ...) - (p1+p2)^alpha I_2(p1/s, p2/s)|

    With against, a callable J on the lattice's rows, the same stream also
    measures the distance |I_n(P) - J(P)|: one recursion per block gives both
    defects, and the pair (splitting report, distance report) is returned.
    """
    if n < 3:
        raise ConfigurationError(f"recursivity defect needs n >= 3, got {n}")

    def split(P):
        measure._check_level(n)
        out, inner, weight, g2 = measure._split(P)
        return out, out - inner - weight * g2

    if against is None:
        blocks = _simplex_blocks(n, resolution, False, budget, lambda P: split(P)[1])
        return _sweep(*blocks, jobs=jobs)

    def both(P):
        out, defect = split(P)
        return _summary(P, defect), _summary(P, out - against(P))

    work, blocks = _simplex_blocks(n, resolution, False, budget, both)
    splits, gaps = zip(*_imap(lambda P: work(P)[1], blocks, jobs))
    return _fold(splits), _fold(gaps)


class _GeneratorFunction(ScalarFunction):
    """The x -> I_2(1-x, x) restriction of a measure, as a scalar function."""

    def __init__(self, measure: InformationMeasure):
        self._measure = measure

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
        return _passes(self.report.sup, self.bound)


def derive_generating_defect(
    measure: InformationMeasure, resolution: int, *, budget: int = 10**6, jobs: int = 1
) -> GeneratingDefect:
    """Extract f(x) = I_2(1-x, x) and verify its two-variable equation residual
    against twice the level-3 splitting defect plus the 3-semi-symmetry defect,
    all measured on matching lattices."""
    if measure.max_n < 3:
        raise ConfigurationError("needs a measure defined at least up to level 3")
    f = _GeneratorFunction(measure)
    eps1 = check_semisymmetry3(measure, resolution, budget=budget, jobs=jobs).sup
    eps2 = recursivity_defect(measure, 3, resolution, budget=budget, jobs=jobs).sup
    rep = residual(
        FundamentalParametric(measure.alpha),
        f,
        TriangleGrid(resolution),
        jobs=jobs,
        budget=budget,
    )
    return GeneratingDefect(f=f, report=rep, eps_semisymmetry=eps1, eps_recursivity=eps2)


def tabulate(measure: InformationMeasure, n: int, resolution: int, *, budget: int = 10**6):
    """Interior lattice points and I_n values, ready for CSV export."""
    grid = SimplexGrid(n, resolution, budget=budget)
    _within_budget(grid.count, budget)
    pts = grid.points
    vals = measure._eval_rows(pts)
    return pts, vals
