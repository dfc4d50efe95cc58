"""Command-line front end.

Reads a versioned JSON run configuration, dispatches residual / certify /
measure / sweep / blowup jobs, and writes machine-readable reports:
report.json always, summary.csv for tabular jobs, defects.csv on request.

Exit codes: 0 when every certificate is satisfied (or the residual met its
target), 1 when a bound was violated, 2 for configuration errors and for
NaN or infinite values, which no report.json is written with.  Reports
carry no timestamps and all reductions are order-fixed, so identical configs
produce byte-identical report.json at any parallelism.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import sys

from .certifiers import (
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
    stability_constant_K,
    stability_constant_T,
)
from .domains import ConeGrid, PairGrid, SimplexGrid, TriangleGrid, UnitGrid
from .equations import (
    CauchyAdditive,
    Cocycle,
    DaroczyIdentity,
    EntropyEq,
    FundamentalParametric,
    InfoFunctionForm,
    Logarithmic,
    ModifiedEntropy,
    Multiplicative,
    PhiEquation,
    SumFormAdditive,
    SumFormAlpha,
    SumFormMultiplicative,
    dump_defects_csv,
    residual,
)
from .errors import ConfigurationError, InfostabError, NonFiniteDefectError
from .measures import (
    InformationMeasure,
    LevelNoise,
    check_normalization,
    check_semisymmetry3,
    check_symmetry,
    derive_generating_defect,
    recursivity_defect,
    tabulate,
)
from .models import (
    Alpha,
    FunctionSum,
    PowerFamily,
    Regime,
    ScaledBump,
    bivariate_from_config,
    scalar_from_config,
    ternary_from_config,
)

__all__ = ["run", "main", "console_main"]

EXIT_OK = 0
EXIT_VIOLATION = 1
EXIT_CONFIG = 2

_MISSING = object()


# ---------------------------------------------------------------------------
# config plumbing


def _field(cfg, name, default=_MISSING):
    if isinstance(cfg, dict) and name in cfg:
        return cfg[name]
    if default is _MISSING:
        raise ConfigurationError(f"config field '{name}' is required")
    return default


def _int_field(cfg, name, default=_MISSING):
    v = _field(cfg, name, default)
    if isinstance(v, bool) or not isinstance(v, int):
        raise ConfigurationError(f"config field '{name}' must be an integer, got {v!r}")
    return int(v)


def _float_field(cfg, name, default=_MISSING):
    v = _field(cfg, name, default)
    if isinstance(v, bool) or not isinstance(v, (int, float)):
        raise ConfigurationError(f"config field '{name}' must be a number, got {v!r}")
    return float(v)


def _build_function(builder, desc, field_name):
    if not isinstance(desc, dict):
        raise ConfigurationError(
            f"config field '{field_name}' must be a function descriptor object"
        )
    try:
        return builder(dict(desc))
    except TypeError as exc:
        raise ConfigurationError(
            f"config field '{field_name}' is malformed: {exc}"
        ) from exc


def _build_grid(desc, budget):
    if not isinstance(desc, dict):
        raise ConfigurationError("config field 'grid' must be an object")
    kind = _field(desc, "kind")
    if kind == "unit":
        return UnitGrid(
            _int_field(desc, "resolution"), closed=bool(_field(desc, "closed", False))
        )
    if kind == "triangle":
        return TriangleGrid(
            _int_field(desc, "resolution"), closed=bool(_field(desc, "closed", False))
        )
    if kind == "simplex":
        return SimplexGrid(
            _int_field(desc, "n"),
            _int_field(desc, "resolution"),
            closed=bool(_field(desc, "closed", False)),
            budget=_int_field(desc, "budget", budget),
        )
    if kind == "simplex_pair":
        r = _int_field(desc, "resolution")
        closed = bool(_field(desc, "closed", True))
        b = _int_field(desc, "budget", budget)
        return (
            SimplexGrid(_int_field(desc, "n"), r, closed=closed, budget=b),
            SimplexGrid(_int_field(desc, "m"), r, closed=closed, budget=b),
        )
    if kind == "cone":
        return ConeGrid(
            _int_field(desc, "resolution"),
            bound=_float_field(desc, "bound", 1.0),
            budget=_int_field(desc, "budget", budget),
        )
    if kind == "pair":
        return PairGrid(
            _int_field(desc, "resolution"), bound=_float_field(desc, "bound", 1.0)
        )
    raise ConfigurationError(f"config field 'grid.kind' is unknown: '{kind}'")


def _build_measure(desc):
    if not isinstance(desc, dict):
        raise ConfigurationError("config field 'measure' must be an object")
    gen = _build_function(
        scalar_from_config, _field(desc, "generator"), "measure.generator"
    )
    alpha = _float_field(desc, "alpha")
    max_n = _int_field(desc, "max_n", 8)
    perts = []
    for p in _field(desc, "perturbations", []):
        if not isinstance(p, dict):
            raise ConfigurationError(
                "config field 'measure.perturbations' must list objects"
            )
        perts.append(
            LevelNoise(
                _int_field(p, "level"),
                _float_field(p, "height"),
                _int_field(p, "seed"),
            )
        )
    return InformationMeasure(gen, alpha, max_n, tuple(perts))


# ---------------------------------------------------------------------------
# equation registry for residual jobs

# name -> (factory(cfg), descriptor builder, how many functions)
_EQUATIONS = {
    "fundamental": (
        lambda cfg: FundamentalParametric(Alpha.of(_float_field(cfg, "alpha")).value),
        scalar_from_config,
        1,
    ),
    "entropy": (lambda cfg: EntropyEq(), ternary_from_config, 1),
    "modified_entropy": (
        lambda cfg: ModifiedEntropy(Alpha.of(_float_field(cfg, "alpha")).value),
        ternary_from_config,
        1,
    ),
    "cocycle": (lambda cfg: Cocycle(), bivariate_from_config, 1),
    "cauchy_additive": (lambda cfg: CauchyAdditive(), scalar_from_config, 1),
    "multiplicative": (lambda cfg: Multiplicative(), scalar_from_config, 1),
    "logarithmic": (lambda cfg: Logarithmic(), scalar_from_config, 1),
    "phi": (lambda cfg: PhiEquation(), scalar_from_config, 1),
    "daroczy": (lambda cfg: DaroczyIdentity(), scalar_from_config, 2),
    "info_function_form": (lambda cfg: InfoFunctionForm(), scalar_from_config, 2),
    "sum_form_additive": (
        lambda cfg: SumFormAdditive(_int_field(cfg, "n"), _int_field(cfg, "m")),
        scalar_from_config,
        1,
    ),
    "sum_form_alpha": (
        lambda cfg: SumFormAlpha(
            Alpha.of(_float_field(cfg, "alpha")).value,
            _int_field(cfg, "n"),
            _int_field(cfg, "m"),
        ),
        scalar_from_config,
        1,
    ),
    "sum_form_multiplicative": (
        lambda cfg: SumFormMultiplicative(_int_field(cfg, "n"), _int_field(cfg, "m")),
        scalar_from_config,
        1,
    ),
}


def _job_residual(cfg, jobs, out_dir, dump):
    name = _field(cfg, "equation")
    if name not in _EQUATIONS:
        raise ConfigurationError(f"config field 'equation' is unknown: '{name}'")
    factory, builder, arity = _EQUATIONS[name]
    kind = factory(cfg)
    budget = _int_field(cfg, "budget", 10**7)
    grid = _build_grid(_field(cfg, "grid"), budget)
    if arity == 1:
        fns = _build_function(builder, _field(cfg, "function"), "function")
    else:
        descs = _field(cfg, "functions")
        if not isinstance(descs, list) or len(descs) != arity:
            raise ConfigurationError(
                f"config field 'functions' must list {arity} descriptors"
            )
        fns = tuple(
            _build_function(builder, d, f"functions[{i}]")
            for i, d in enumerate(descs)
        )
    target = _field(cfg, "epsilon_target", None)
    if target is not None:
        target = _float_field(cfg, "epsilon_target")
    rep = residual(kind, fns, grid, jobs=jobs, budget=budget, epsilon_target=target)
    result = {
        "equation": name,
        "sup": rep.sup,
        "mean": rep.mean,
        "argmax_point": [float(c) for c in rep.argmax_point],
        "samples": rep.samples,
        "epsilon_target": target,
        "within_target": rep.within_target,
    }
    files = {}
    if dump:
        dump_defects_csv(
            kind, fns, grid, os.path.join(out_dir, "defects.csv"), budget=budget
        )
        files["defects_csv"] = "defects.csv"
    return result, files, EXIT_OK if rep.within_target else EXIT_VIOLATION


# ---------------------------------------------------------------------------
# certify job

_FUNDAMENTAL = ("fundamental", "fundamental_open", "fundamental_closed", "hyperstability")


def _certify_fundamental(
    theorem, f, alpha, resolution, jobs, budget, *, closed=False, override=None
):
    """Run one fundamental-equation theorem and return (certificate, closed),
    closed naming the triangle it swept.  "fundamental" picks hyperstability
    for alpha < 0 and the open domain otherwise.  The certifiers are looked
    up in this module at call time, so a wrapper installed on them sees it."""
    if theorem == "fundamental":
        negative = Alpha.of(alpha).regime is Regime.NEGATIVE
        theorem = "hyperstability" if negative else "fundamental_open"
    if theorem == "hyperstability":
        return certify_hyperstable(f, alpha, resolution, closed, jobs=jobs, budget=budget), closed
    closed = theorem == "fundamental_closed"
    certify = certify_fundamental_closed if closed else certify_fundamental_open
    cert = certify(f, alpha, resolution, jobs=jobs, budget=budget, epsilon_override=override)
    return cert, closed


def _job_certify(cfg, jobs, out_dir, dump):
    theorem = _field(cfg, "theorem")
    budget = _int_field(cfg, "budget", 10**7)
    dump_args = None

    if theorem in _FUNDAMENTAL:
        f = _build_function(scalar_from_config, _field(cfg, "function"), "function")
        alpha = _float_field(cfg, "alpha")
        resolution = _int_field(cfg, "resolution")
        override = _field(cfg, "epsilon", None)
        if override is not None:
            override = _float_field(cfg, "epsilon")
        cert, closed = _certify_fundamental(
            theorem, f, alpha, resolution, jobs, budget,
            closed=bool(_field(cfg, "closed", False)), override=override,
        )
        dump_args = (FundamentalParametric(cert.alpha), f, TriangleGrid(resolution, closed=closed))
        result = cert.to_json_dict()
        margins = _field(cfg, "margins", None)
        if cert.theorem == "hyperstability" and margins is not None:
            probe = hyperstability_blowup_probe(
                f,
                alpha,
                [float(h) for h in margins],
                resolution=_int_field(cfg, "probe_resolution", 2048),
                budget=budget,
            )
            result["blowup"] = [[h, s] for h, s in probe]
    elif theorem == "measure_sequence":
        levels = _int_field(cfg, "levels")
        resolution = _int_field(cfg, "resolution")
        if "measure" in cfg:
            cert = certify_measure_sequence(
                _build_measure(cfg["measure"]),
                levels,
                resolution,
                alpha=_field(cfg, "alpha", None),
                budget=budget,
                jobs=jobs,
            )
        else:
            gen = _build_function(
                scalar_from_config, _field(cfg, "generator"), "generator"
            )
            eps = _field(cfg, "epsilons")
            if not isinstance(eps, list) or not eps:
                raise ConfigurationError(
                    "config field 'epsilons' must be a non-empty list"
                )
            cert = certify_measure_sequence(
                (gen, [float(e) for e in eps]),
                levels,
                resolution,
                alpha=_float_field(cfg, "alpha"),
                budget=budget,
                jobs=jobs,
            )
        result = cert.to_json_dict()
    elif theorem == "entropy_equation":
        H = _build_function(ternary_from_config, _field(cfg, "function"), "function")
        resolution = _int_field(cfg, "resolution")
        box = _float_field(cfg, "bound", 1.0)
        cert = certify_entropy_equation(
            H,
            _float_field(cfg, "alpha"),
            resolution,
            bound=box,
            jobs=jobs,
            budget=budget,
        )
        dump_args = (EntropyEq(), H, ConeGrid(resolution, bound=box, budget=budget))
        result = cert.to_json_dict()
    elif theorem == "associativity":
        descs = _field(cfg, "functions")
        if not isinstance(descs, list) or len(descs) != 2:
            raise ConfigurationError(
                "config field 'functions' must list the two operations [A, B]"
            )
        A = _build_function(bivariate_from_config, descs[0], "functions[0]")
        B = _build_function(bivariate_from_config, descs[1], "functions[1]")
        ivs = _field(cfg, "intervals")
        if not isinstance(ivs, list) or len(ivs) != 3:
            raise ConfigurationError(
                "config field 'intervals' must list three (lo, hi) pairs"
            )
        cert = certify_associativity(
            A, B, ivs[0], ivs[1], ivs[2], _int_field(cfg, "resolution"), budget=budget
        )
        result = cert.to_json_dict()
    elif theorem == "modified_entropy":
        f = _build_function(ternary_from_config, _field(cfg, "function"), "function")
        alpha = _float_field(cfg, "alpha")
        box = _float_field(cfg, "n")
        resolution = _int_field(cfg, "resolution")
        cert = certify_modified_entropy(
            f, alpha, box, resolution, jobs=jobs, budget=budget
        )
        dump_args = (
            ModifiedEntropy(cert.alpha),
            f,
            ConeGrid(resolution, bound=box, budget=budget),
        )
        result = cert.to_json_dict()
    elif theorem == "sum_form":
        phi = _build_function(scalar_from_config, _field(cfg, "function"), "function")
        cert = certify_sum_form(
            phi,
            _int_field(cfg, "n"),
            _int_field(cfg, "resolution"),
            jobs=jobs,
            budget=budget,
        )
        result = cert.to_json_dict()
    elif theorem == "sum_form_multiplicative":
        g = _build_function(scalar_from_config, _field(cfg, "function"), "function")
        cert = certify_sum_form_multiplicative(
            g,
            _int_field(cfg, "n"),
            _int_field(cfg, "m"),
            _int_field(cfg, "resolution"),
            jobs=jobs,
            budget=budget,
        )
        result = cert.to_json_dict()
    elif theorem == "sum_form_mixed":
        f = _build_function(scalar_from_config, _field(cfg, "function"), "function")
        cert = certify_sum_form_mixed(
            f,
            _float_field(cfg, "alpha"),
            _float_field(cfg, "beta"),
            _int_field(cfg, "n"),
            _int_field(cfg, "m"),
            _int_field(cfg, "resolution"),
            jobs=jobs,
            budget=budget,
        )
        result = cert.to_json_dict()
    else:
        raise ConfigurationError(f"config field 'theorem' is unknown: '{theorem}'")

    files = {}
    if dump and dump_args is not None:
        kind, fns, grid = dump_args
        dump_defects_csv(
            kind, fns, grid, os.path.join(out_dir, "defects.csv"), budget=budget
        )
        files["defects_csv"] = "defects.csv"
    code = EXIT_VIOLATION if cert.satisfied is False else EXIT_OK
    return result, files, code


# ---------------------------------------------------------------------------
# measure job


def _job_measure(cfg, jobs, out_dir, dump):
    budget = _int_field(cfg, "budget", 10**6)
    measure = _build_measure(_field(cfg, "measure"))
    resolution = _int_field(cfg, "resolution")
    top = _int_field(cfg, "n", 3)
    if top < 2 or top > measure.max_n:
        raise ConfigurationError(
            f"config field 'n' must lie in [2, max_n={measure.max_n}], got {top}"
        )
    symmetry = [
        {"n": n, "sup": check_symmetry(measure, n, resolution, budget=budget).sup}
        for n in range(2, top + 1)
    ]
    recursivity = [
        {"n": n, "sup": recursivity_defect(measure, n, resolution, budget=budget).sup}
        for n in range(3, top + 1)
    ]
    gd = derive_generating_defect(measure, resolution, budget=budget, jobs=jobs)
    result = {
        "alpha": measure.alpha_value,
        "max_n": measure.max_n,
        "normalization_gap": float(check_normalization(measure)),
        "semisymmetry3": check_semisymmetry3(measure, resolution, budget=budget).sup,
        "symmetry": symmetry,
        "recursivity": recursivity,
        "generating_defect": {
            "sup": gd.report.sup,
            "bound": gd.bound,
            "within": gd.within,
            "eps_semisymmetry": gd.eps_semisymmetry,
            "eps_recursivity": gd.eps_recursivity,
        },
    }
    files = {}
    level = _field(cfg, "tabulate", None)
    if level is not None:
        pts, vals = tabulate(measure, _int_field(cfg, "tabulate"), resolution, budget=budget)
        rows = [list(p) + [v] for p, v in zip(pts.tolist(), vals.tolist())]
        header = [f"p{i + 1}" for i in range(pts.shape[1])] + ["value"]
        _write_summary(out_dir, header, rows)
        files["summary_csv"] = "summary.csv"
    return result, files, EXIT_OK if gd.within else EXIT_VIOLATION


# ---------------------------------------------------------------------------
# sweep and blowup jobs


def _job_sweep(cfg, jobs, out_dir, dump):
    target = _field(cfg, "target", "constants")
    alphas = _field(cfg, "alphas")
    if not isinstance(alphas, list) or not alphas:
        raise ConfigurationError("config field 'alphas' must be a non-empty list")
    alphas = [float(a) for a in alphas]

    if target == "constants":
        rows = []
        table = []
        for av in alphas:
            a = Alpha.of(av)
            k = stability_constant_K(a)
            t = (
                stability_constant_T(a)
                if a.regime is Regime.POSITIVE_NOT_ONE
                else None
            )
            gap = (
                None
                if t is None
                else abs(k * abs(2.0 ** (1.0 - a.value) - 1.0) - (4.0 * t + 3.0))
            )
            rows.append({"alpha": a.value, "K": k, "T": t, "relation_gap": gap})
            table.append([a.value, k, t, gap])
        _write_summary(out_dir, ["alpha", "K", "T", "relation_gap"], table)
        return {"rows": rows}, {"summary_csv": "summary.csv"}, EXIT_OK

    if target not in _FUNDAMENTAL:
        raise ConfigurationError(
            "config field 'target' must be 'constants' or a fundamental-equation "
            f"theorem, got '{target}'"
        )
    if any(Alpha.of(av).regime is Regime.ONE for av in alphas):
        raise ConfigurationError(
            "config field 'alphas' contains 1, which no certifier supports"
        )
    fam = _field(cfg, "family")
    a0 = _float_field(fam, "a") if isinstance(fam, dict) else None
    if a0 is None:
        raise ConfigurationError("config field 'family' must be an object with a, b")
    b0 = _float_field(fam, "b")
    noise = _field(cfg, "noise", None)
    bump = None
    if noise is not None:
        bump = ScaledBump(
            _float_field(noise, "center", 0.5),
            _float_field(noise, "width", 0.2),
            _float_field(noise, "height"),
        )
    resolution = _int_field(cfg, "resolution")
    budget = _int_field(cfg, "budget", 10**7)
    certs = []
    table = []
    all_ok = True
    for av in alphas:
        base = PowerFamily(a0, b0, Alpha.of(av).value)
        f = base if bump is None else FunctionSum((base, bump))
        regime = Alpha.of(av).regime
        cert, _ = _certify_fundamental(target, f, av, resolution, jobs, budget)
        entry = cert.to_json_dict()
        if cert.theorem == "hyperstability" and not cert.satisfied:
            margins = [2.0**-k for k in range(3, 10)]
            probe = hyperstability_blowup_probe(f, av, margins, budget=budget)
            entry["blowup"] = [[h, s] for h, s in probe]
        certs.append(entry)
        table.append(
            [
                cert.alpha,
                regime.name.lower(),
                cert.epsilon,
                cert.bound,
                cert.distance,
                cert.satisfied,
            ]
        )
        all_ok = all_ok and cert.satisfied
    _write_summary(
        out_dir,
        ["alpha", "regime", "epsilon", "bound", "distance", "satisfied"],
        table,
    )
    files = {"summary_csv": "summary.csv"}
    return {"certificates": certs}, files, EXIT_OK if all_ok else EXIT_VIOLATION


def _job_blowup(cfg, jobs, out_dir, dump):
    f = _build_function(scalar_from_config, _field(cfg, "function"), "function")
    alpha = _float_field(cfg, "alpha")
    margins = _field(cfg, "margins")
    if not isinstance(margins, list) or not margins:
        raise ConfigurationError("config field 'margins' must be a non-empty list")
    probe = hyperstability_blowup_probe(
        f,
        alpha,
        [float(h) for h in margins],
        resolution=_int_field(cfg, "resolution", 2048),
        budget=_int_field(cfg, "budget", 10**7),
    )
    rows = [[h, s] for h, s in probe]
    first, last = probe[0][1], probe[-1][1]
    result = {
        "rows": rows,
        "growth_ratio": None if first == 0.0 else last / first,
    }
    _write_summary(out_dir, ["margin", "sup"], rows)
    return result, {"summary_csv": "summary.csv"}, EXIT_OK


# ---------------------------------------------------------------------------
# report writing and entry points


def _write_summary(out_dir, header, rows):
    with open(os.path.join(out_dir, "summary.csv"), "w", newline="") as fh:
        w = csv.writer(fh, lineterminator="\n")
        w.writerow(header)
        for row in rows:
            w.writerow(["" if v is None else v for v in row])


_JOBS = {
    "residual": _job_residual,
    "certify": _job_certify,
    "measure": _job_measure,
    "sweep": _job_sweep,
    "blowup": _job_blowup,
}


def run(config, *, out_dir: str = ".", jobs: int = 1, dump_defects: bool = False) -> int:
    """Execute one parsed config, write reports into out_dir, return exit code."""
    if not isinstance(config, dict):
        raise ConfigurationError("config must be a JSON object")
    schema = config.get("schema")
    if schema != 1:
        raise ConfigurationError(f"config field 'schema' must be 1, got {schema!r}")
    job = _field(config, "job")
    if job not in _JOBS:
        raise ConfigurationError(
            f"config field 'job' must be one of {sorted(_JOBS)}, got '{job}'"
        )
    result, files, code = _JOBS[job](config, int(jobs), out_dir, bool(dump_defects))
    payload = {
        "schema": 1,
        "job": job,
        "config": config,
        "result": result,
        "files": files,
    }
    try:
        text = json.dumps(payload, indent=2, sort_keys=True, allow_nan=False)
    except ValueError as exc:
        raise NonFiniteDefectError("report.json would hold a NaN or infinite value") from exc
    with open(os.path.join(out_dir, "report.json"), "w") as fh:
        fh.write(text + "\n")
    return code


def _refuse_constant(name):
    # json.load accepts NaN, Infinity and -Infinity, which JSON does not
    raise ConfigurationError(f"{name} is a NaN or infinite literal")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="infostab",
        description="Grid sweeps and stability certificates for the "
        "parametric equations of information measures.",
    )
    parser.add_argument(
        "--config", required=True, help="path to the JSON run configuration"
    )
    parser.add_argument("--out", default=".", help="directory for report files")
    parser.add_argument(
        "--jobs", type=int, default=1, help="worker threads for grid sweeps"
    )
    parser.add_argument(
        "--dump-defects",
        action="store_true",
        help="also write per-point defects.csv where the job supports it",
    )
    args = parser.parse_args(argv)
    try:
        with open(args.config) as fh:
            config = json.load(fh, parse_constant=_refuse_constant)
    except OSError as exc:
        print(f"error: cannot read config: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (json.JSONDecodeError, ConfigurationError) as exc:
        print(f"error: config is not valid JSON: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    try:
        os.makedirs(args.out, exist_ok=True)
        return run(
            config,
            out_dir=args.out,
            jobs=args.jobs,
            dump_defects=args.dump_defects,
        )
    except InfostabError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


def console_main():
    raise SystemExit(main())


if __name__ == "__main__":
    console_main()
