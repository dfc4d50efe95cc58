"""Benchmark workloads: seeded job configs, closed-form work counts and the
outcomes each job must produce.

The seed only draws noise parameters (bump center, width and height, and
the seeds and heights of level perturbations) from ranges that leave every
verdict unchanged.  Lattice sizes are fixed per workload, so every seed does
the same amount of work.  Point counts come from closed forms here, never
from the library, so they stay an independent check on the lattices.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass

DEFAULT_SEED = 1

POWER = {"kind": "power_family", "a": 2.0, "b": 1.0, "alpha": 0.5}
NEG_FAMILY = {"kind": "power_family", "a": 1.0, "b": 1.0, "alpha": -1.0}
KAPPA_HALF = 1.0 / (2.0**0.5 - 1.0)
KAPPA_TWO = 1.0 / (2.0**-1.0 - 1.0)


# ---------------------------------------------------------------------------
# closed-form lattice sizes, keyed like the grids the library builds


def tri(r, closed=False):
    """Open: i, j >= 1, i + j <= r - 1.  Closed: i, j <= r - 1, i + j <= r."""
    return r * (r + 1) // 2 + r - 1 if closed else (r - 1) * (r - 2) // 2


def unit(r, closed=False):
    return r + 1 if closed else r - 1


def simplex(n, r, closed=False):
    return math.comb(r + n - 1, n - 1) if closed else math.comb(r - 1, n - 1)


def lattice_size(key):
    """Closed-form node count of a grid key as recorded by the tracer."""
    kind = key[0]
    if kind == "unit":
        return unit(key[1], key[2])
    if kind == "triangle":
        return tri(key[1], key[2])
    if kind == "simplex":
        return simplex(key[1], key[2], key[3])
    if kind == "cone":
        return key[1] ** 3
    if kind == "pair":
        return key[1] ** 2
    raise ValueError(f"unknown lattice kind {kind!r}")


# ---------------------------------------------------------------------------
# jobs


@dataclass
class Job:
    """One cli.run call: its config, expected exit code, the lattice points
    its pipeline sweeps, and the library grids it must build."""

    label: str
    config: dict
    exit: int
    swept: int
    lattices: frozenset
    samples: int | None = None  # expected report "samples" for residual jobs


@dataclass
class Workload:
    name: str
    why: str
    jobs: list
    threads: int = 1
    dump: bool = False
    must_call: tuple = ()

    @property
    def points_per_pass(self):
        return sum(j.swept for j in self.jobs)


def _bump(rng, lo=5e-4, hi=2e-3):
    return {
        "kind": "bump",
        "center": rng.uniform(0.4, 0.6),
        "width": rng.uniform(0.15, 0.25),
        "height": rng.uniform(lo, hi),
    }


def _level_noise(rng, level, lo, hi):
    return {"level": level, "height": rng.uniform(lo, hi), "seed": rng.randrange(1, 10**6)}


def _noisy_power(rng):
    return {"kind": "sum", "terms": [POWER, _bump(rng)]}


def _certify_fundamental(label, theorem, function, alpha, r, closed, exit=0, **extra):
    config = {"schema": 1, "job": "certify", "theorem": theorem, "function": function,
              "alpha": alpha, "resolution": r}
    config.update(extra)
    swept = tri(r, closed) + unit(r, closed)
    lattices = {("triangle", r, closed), ("unit", r, closed)}
    if "margins" in extra:
        pr = extra["probe_resolution"]
        swept += tri(pr)
        lattices.add(("triangle", pr, False))
    return Job(label, config, exit, swept, frozenset(lattices))


def _measure_sequence(label, measure, levels, r):
    top = max(2, levels - 1)
    eps_levels = [3] + [k + 1 for k in range(2, top + 1)]
    row_levels = list(range(2, levels + 1))
    swept = sum(simplex(n, r) for n in eps_levels + row_levels)
    lattices = {("simplex", n, r, False) for n in eps_levels + row_levels}
    config = {"schema": 1, "job": "certify", "theorem": "measure_sequence",
              "measure": measure, "levels": levels, "resolution": r}
    return Job(label, config, 0, swept, frozenset(lattices))


def triangle_certify(seed, smoke=False):
    rng = random.Random(seed)
    r = 64 if smoke else 2048
    job = _certify_fundamental("fundamental_open", "fundamental_open",
                               _noisy_power(rng), 0.5, r, False)
    return Workload(
        "triangle_certify",
        "the hot path: open-triangle certificate at R=2048, dominated by model "
        "evaluation, pow0, the defect kernel and the mean reduction",
        [job],
        must_call=("cli.run", "cli.certify_fundamental_open", "certifiers.residual",
                   "models.ScalarFunction.__call__", "models.pow0", "equations.pow0",
                   "domains.TriangleGrid.points", "domains.UnitGrid.points"),
    )


def simplex_sequence(seed, smoke=False):
    rng = random.Random(seed)
    r = 12 if smoke else 40
    measure = {
        "generator": {"kind": "power_family", "a": KAPPA_HALF, "b": KAPPA_HALF, "alpha": 0.5},
        "alpha": 0.5,
        "max_n": 6,
        "perturbations": [_level_noise(rng, lvl, 1e-5, 1e-4) for lvl in (3, 4, 5)],
    }
    job = _measure_sequence("measure_sequence", measure, 6, r)
    return Workload(
        "simplex_sequence",
        "simplex lattices and the splitting recursion do the work; the "
        "equation kernel is never called",
        [job],
        must_call=("cli.run", "cli.certify_measure_sequence",
                   "certifiers.check_semisymmetry3", "certifiers.recursivity_defect",
                   "measures.InformationMeasure.eval_rows", "measures.pow0",
                   "certifiers.pow0", "models.ScalarFunction.__call__", "models.pow0",
                   "domains.SimplexGrid.points", "domains.SimplexGrid.iter_blocks"),
    )


def defect_dump(seed, smoke=False):
    rng = random.Random(seed)
    r = 64 if smoke else 768
    job = _certify_fundamental("fundamental_open_dump", "fundamental_open",
                               _noisy_power(rng), 0.5, r, False)
    return Workload(
        "defect_dump",
        "the write path: the triangle certificate at R=768 plus defects.csv, "
        "dominated by per-row CSV formatting and the second sweep",
        [job],
        dump=True,
        must_call=("cli.run", "cli.certify_fundamental_open", "cli.dump_defects_csv",
                   "certifiers.residual", "models.ScalarFunction.__call__",
                   "models.pow0", "equations.pow0", "domains.TriangleGrid.points",
                   "domains.UnitGrid.points"),
    )


def job_mix(seed, smoke=False):
    rng = random.Random(seed)
    s = smoke
    jobs = []

    r = 32 if s else 512
    jobs.append(Job(
        "residual_fundamental",
        {"schema": 1, "job": "residual", "equation": "fundamental", "alpha": 0.5,
         "function": _noisy_power(rng), "grid": {"kind": "triangle", "resolution": r}},
        0, tri(r), frozenset({("triangle", r, False)}), samples=tri(r)))

    r = 32 if s else 192
    jobs.append(Job(
        "residual_daroczy",
        {"schema": 1, "job": "residual", "equation": "daroczy",
         "functions": [{"kind": "shannon_info"}, {"kind": "xlog2", "scale": -1.0}],
         "grid": {"kind": "unit", "resolution": r}},
        0, unit(r) ** 2, frozenset({("unit", r, False)}), samples=unit(r) ** 2))

    r = 4 if s else 10
    pairs = simplex(3, r, True) ** 2
    jobs.append(Job(
        "residual_sum_form_additive",
        {"schema": 1, "job": "residual", "equation": "sum_form_additive", "n": 3, "m": 3,
         "function": {"kind": "xlog2", "scale": -1.0},
         "grid": {"kind": "simplex_pair", "n": 3, "m": 3, "resolution": r}},
        0, pairs, frozenset({("simplex", 3, r, True)}), samples=pairs))

    # a power of two: at R=384 the closed certificate raises DomainError, since
    # t = x / (1 - y) rounds above 1 on the edge x + y = 1 and the power
    # family's pow0(1 - t) rejects the negative base
    r = 32 if s else 512
    jobs.append(_certify_fundamental("certify_fundamental_open", "fundamental_open",
                                     _noisy_power(rng), 0.5, r, False))
    jobs.append(_certify_fundamental("certify_fundamental_closed", "fundamental_closed",
                                     _noisy_power(rng), 0.5, r, True))

    r = 32 if s else 192
    noisy_neg = {"kind": "sum", "terms": [NEG_FAMILY, _bump(rng, 0.02, 0.08)]}
    jobs.append(_certify_fundamental("certify_hyperstability", "hyperstability", noisy_neg,
                                     -1.0, r, False, exit=1,
                                     margins=[0.125, 0.0625, 0.03125],
                                     probe_resolution=r))

    measure = {"generator": {"kind": "power_family", "a": KAPPA_TWO, "b": KAPPA_TWO,
                             "alpha": 2.0},
               "alpha": 2.0, "max_n": 4,
               "perturbations": [_level_noise(rng, 3, 1e-5, 1e-4)]}
    jobs.append(_measure_sequence("certify_measure_sequence", measure, 4, 8 if s else 20))

    r = 6 if s else 20
    jobs.append(Job(
        "certify_entropy_equation",
        {"schema": 1, "job": "certify", "theorem": "entropy_equation",
         "function": {"kind": "entropy_solution", "scale": 0.7, "alpha": 2.0},
         "alpha": 2.0, "resolution": r},
        0, 6 * r**3 + r**3 + 4 * r**2 + r**3, frozenset({("cone", r), ("pair", r)})))
    jobs.append(Job(
        "certify_modified_entropy",
        {"schema": 1, "job": "certify", "theorem": "modified_entropy",
         "function": {"kind": "modified_entropy_solution", "coeff": 0.4, "alpha": 2.0,
                      "phi": {"kind": "xlog2", "scale": 1.0}},
         "alpha": 2.0, "n": 1.0, "resolution": r},
        0, r**3 + 6 * r**3 + r**3 + (3 * r - 2), frozenset({("cone", r)})))

    r = 4 if s else 16
    phi = {"kind": "phi_of_sum", "phi": {"kind": "power_law", "scale": 1.0, "alpha": 2.0}}
    jobs.append(Job(
        "certify_associativity",
        {"schema": 1, "job": "certify", "theorem": "associativity", "functions": [phi, phi],
         "resolution": r, "intervals": [[0.0, 1.0], [0.0, 1.0], [0.0, 1.0]]},
        0, (r + 1) ** 3 + 2 * (2 * r + 1) * (r + 1) + (2 * r + 1), frozenset()))

    r = 6 if s else 24
    sum_phi = {"kind": "sum", "terms": [{"kind": "power_law", "scale": 0.7, "alpha": 1.0},
                                        {"kind": "constant", "value": -0.7 / 3.0}]}
    jobs.append(Job(
        "certify_sum_form",
        {"schema": 1, "job": "certify", "theorem": "sum_form", "function": sum_phi,
         "n": 3, "resolution": r},
        0, simplex(3, r, True) + unit(r, True),
        frozenset({("simplex", 3, r, True), ("unit", r, True)})))

    r = 4 if s else 8
    pair_lattices = frozenset({("simplex", 3, r, True), ("unit", r, True)})
    pair_swept = simplex(3, r, True) ** 2 + unit(r, True)
    jobs.append(Job(
        "certify_sum_form_multiplicative",
        {"schema": 1, "job": "certify", "theorem": "sum_form_multiplicative",
         "function": {"kind": "power_law", "scale": 1.0, "alpha": 1.7},
         "n": 3, "m": 3, "resolution": r},
        0, pair_swept, pair_lattices))
    jobs.append(Job(
        "certify_sum_form_mixed",
        {"schema": 1, "job": "certify", "theorem": "sum_form_mixed",
         "function": {"kind": "sum", "terms": [
             {"kind": "power_law", "scale": 0.6, "alpha": 0.5},
             {"kind": "power_law", "scale": -0.6, "alpha": 2.0}]},
         "n": 3, "m": 3, "alpha": 0.5, "beta": 2.0, "resolution": r},
        0, pair_swept, pair_lattices))

    r, top, level = (8 if s else 24), 4, 3
    measure = {"generator": {"kind": "power_family", "a": KAPPA_TWO, "b": KAPPA_TWO,
                             "alpha": 2.0},
               "alpha": 2.0, "max_n": 4,
               "perturbations": [_level_noise(rng, 3, 1e-5, 1e-4)]}
    swept = (
        sum(simplex(n, r) * math.factorial(n) for n in range(2, top + 1))
        + sum(simplex(n, r) for n in range(3, top + 1))
        + simplex(3, r)
        + 1
        + 2 * simplex(3, r) + tri(r)
        + simplex(level, r)
    )
    lattices = {("simplex", n, r, False) for n in range(2, top + 1)} | {("triangle", r, False)}
    jobs.append(Job(
        "measure_tabulate",
        {"schema": 1, "job": "measure", "measure": measure, "n": top, "resolution": r,
         "tabulate": level},
        0, swept, frozenset(lattices)))

    jobs.append(Job(
        "sweep_constants",
        {"schema": 1, "job": "sweep", "target": "constants",
         "alphas": [0.25, 0.5, 2.0, 3.0, 5.0]},
        0, 0, frozenset()))

    r, probe = (16 if s else 96), 2048
    alphas = [-1.0, 0.0, 0.5, 2.0]
    # every alpha sweeps the open triangle and unit lattice; alpha = 0 fits on
    # the unit lattice once more and the failing alpha = -1 runs the blow-up probe
    swept = len(alphas) * (tri(r) + unit(r)) + unit(r) + tri(probe)
    jobs.append(Job(
        "sweep_fundamental",
        {"schema": 1, "job": "sweep", "target": "fundamental", "alphas": alphas,
         "family": {"a": 1.0, "b": 1.0},
         "noise": {k: v for k, v in _bump(rng, 3e-4, 1e-3).items() if k != "kind"},
         "resolution": r},
        1, swept,
        frozenset({("triangle", r, False), ("unit", r, False), ("triangle", probe, False)})))

    r = 32 if s else 256
    jobs.append(Job(
        "blowup",
        {"schema": 1, "job": "blowup",
         "function": {"kind": "sum", "terms": [NEG_FAMILY, _bump(rng, 0.02, 0.08)]},
         "alpha": -1.0, "margins": [0.125, 0.0625, 0.03125, 0.015625], "resolution": r},
        0, tri(r), frozenset({("triangle", r, False)})))

    return Workload(
        "job_mix",
        "every job kind and theorem in one threaded pass: cone, box, pair-product "
        "and associativity paths, jobs=2, and cli dispatch and report writing",
        jobs,
        threads=2,
        must_call=(
            "cli.run", "cli.residual", "cli.check_symmetry", "cli.check_semisymmetry3",
            "cli.check_normalization", "cli.recursivity_defect",
            "cli.derive_generating_defect", "cli.tabulate",
            "cli.certify_fundamental_open", "cli.certify_fundamental_closed",
            "cli.certify_hyperstable", "cli.hyperstability_blowup_probe",
            "cli.certify_measure_sequence", "cli.certify_entropy_equation",
            "cli.certify_associativity", "cli.certify_modified_entropy",
            "cli.certify_sum_form", "cli.certify_sum_form_multiplicative",
            "cli.certify_sum_form_mixed", "certifiers.residual",
            "certifiers.symmetry_residual", "certifiers.homogeneity_residual",
            "certifiers.check_semisymmetry3", "certifiers.recursivity_defect",
            "measures.residual", "measures.InformationMeasure.eval_rows",
            "models.ScalarFunction.__call__", "models.TernaryFunction.__call__",
            "models.BivariateFunction.__call__", "models.pow0", "equations.pow0",
            "certifiers.pow0", "measures.pow0", "domains.UnitGrid.points",
            "domains.TriangleGrid.points", "domains.SimplexGrid.points",
            "domains.SimplexGrid.iter_blocks", "domains.ConeGrid.points",
            "domains.PairGrid.points",
        ),
    )


WORKLOADS = {
    "triangle_certify": triangle_certify,
    "simplex_sequence": simplex_sequence,
    "defect_dump": defect_dump,
    "job_mix": job_mix,
}


def build(name, seed, smoke=False):
    return WORKLOADS[name](seed, smoke)


# ---------------------------------------------------------------------------
# pinned result fields

_PINNED = (
    "epsilon", "distance", "bound", "satisfied", "candidate", "phi", "rows",
    "distance_a", "distance_b", "bound_a", "bound_b", "blowup", "growth_ratio",
    "sup", "mean", "samples", "within_target", "semisymmetry3", "symmetry",
    "recursivity", "generating_defect", "normalization_gap",
)


def pinned(result):
    """The result fields a job's correctness is judged by."""
    out = {k: result[k] for k in _PINNED if k in result}
    if "certificates" in result:
        out["certificates"] = [pinned(c) for c in result["certificates"]]
    return out


def verdicts(value):
    """Every pass/fail flag in a pinned structure, in sorted-key order."""
    if isinstance(value, dict):
        flags = []
        for k in sorted(value):
            v = value[k]
            if k in ("satisfied", "within_target", "within") and isinstance(v, bool):
                flags.append(v)
            else:
                flags.extend(verdicts(v))
        return flags
    if isinstance(value, list):
        return [f for v in value for f in verdicts(v)]
    return []
