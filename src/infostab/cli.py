"""Command-line front end.

Reads a versioned JSON run configuration, dispatches residual / certify /
measure / sweep / blowup jobs, and writes machine-readable reports:
report.json always, summary.csv for tabular jobs, defects.csv on request.
Equations and theorems are table entries read by one path.  An `_EQUATIONS`
entry holds the kind class, whose dataclass fields are its parameters and
which states how many functions it takes, and the descriptor builder; a
`_THEOREMS` entry the certifier's name, its defects.csv equation and
lattice, and exactly the config fields the certifier takes, with their
readers.  certifiers._fundamental_theorem resolves "fundamental" to an
entry by regime and refuses a regime the theorem excludes; associativity's
list checks and measure_sequence's two input forms keep code of their own.

The readers are the one record of which config fields exist: `run` records
the names `_field` reads from each config object, and each job, before its
first sweep, refuses the first field no reader read.  Function descriptors
are left to their builders, which refuse unknown fields themselves.

Exit codes: 0 when every certificate is satisfied (or the residual met its
target), 1 when a bound was violated, 2 for configuration errors, for NaN or
infinite values and for files that cannot be read or written; no report is
written in those cases.  Reports carry no timestamps and all reductions are
order-fixed, so identical configs produce byte-identical report.json at any
parallelism.
"""

from __future__ import annotations

import argparse
import contextvars
import csv
import dataclasses
import json
import math
import os
import sys

from .certifiers import (
    _fundamental_theorem,
    _probe_lattice,
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
from .domains import ConeGrid, SimplexGrid, TriangleGrid, UnitGrid
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
    _passes,
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
    FunctionSum,
    PowerFamily,
    Regime,
    ScaledBump,
    _plain,
    bivariate_from_config,
    scalar_from_config,
    ternary_from_config,
)

__all__ = ["run", "main", "console_main"]

EXIT_OK = 0
EXIT_VIOLATION = 1
EXIT_CONFIG = 2

_MISSING = object()

# id(config object) -> the names read from it, while run() works; the config
# outlives the run, so no other object takes the id of one of its objects
_READS = contextvars.ContextVar("infostab_config_reads")


# ---------------------------------------------------------------------------
# config plumbing


def _field(cfg, name, default=_MISSING):
    if isinstance(cfg, dict):
        _READS.get().setdefault(id(cfg), set()).add(name)
        if name in cfg:
            return cfg[name]
    if default is _MISSING:
        raise ConfigurationError(f"config field '{name}' is required")
    return default


def _int_field(cfg, name, default=_MISSING):
    v = _field(cfg, name, default)
    if v is None and default is None:
        return None
    if isinstance(v, bool) or not isinstance(v, int):
        raise ConfigurationError(f"config field '{name}' must be an integer, got {v!r}")
    return int(v)


def _float_field(cfg, name, default=_MISSING):
    v = _field(cfg, name, default)
    if v is None and default is None:
        return None
    if isinstance(v, bool) or not isinstance(v, (int, float)):
        raise ConfigurationError(f"config field '{name}' must be a number, got {v!r}")
    return float(v)


def _bool_field(cfg, name, default=_MISSING):
    v = _field(cfg, name, default)
    if not isinstance(v, bool):
        raise ConfigurationError(f"config field '{name}' must be true or false, got {v!r}")
    return v


def _float_list(cfg, name):
    v = _field(cfg, name)
    if not isinstance(v, list) or not v:
        raise ConfigurationError(f"config field '{name}' must be a non-empty list, got {v!r}")
    return [_float_field({name: x}, name) for x in v]


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


def _function_list(cfg, builder, count):
    descs = _field(cfg, "functions")
    if not isinstance(descs, list) or len(descs) != count:
        raise ConfigurationError(f"config field 'functions' must list {count} descriptors")
    return tuple(_build_function(builder, d, f"functions[{i}]") for i, d in enumerate(descs))


def _refuse_unread(value, path=""):
    """Refuse the first field of a config value that no reader read, by its
    dotted path: report.json echoes the config as the input its claim holds for."""
    reads = _READS.get()
    if isinstance(value, list):
        for i, v in enumerate(value):
            _refuse_unread(v, f"{path}[{i}]")
    elif isinstance(value, dict) and id(value) in reads:
        known = reads[id(value)]
        for key, v in value.items():
            where = f"{path}.{key}" if path else str(key)
            if key not in known:
                raise ConfigurationError(
                    f"config field '{where}' is unknown; known: {', '.join(sorted(known))}"
                )
            _refuse_unread(v, where)


def _build_grid(desc, budget):
    if not isinstance(desc, dict):
        raise ConfigurationError("config field 'grid' must be an object")
    kind = _field(desc, "kind")
    if kind in ("unit", "triangle"):
        return (UnitGrid if kind == "unit" else TriangleGrid)(
            _int_field(desc, "resolution"), closed=_bool_field(desc, "closed", False)
        )
    if kind == "simplex_pair":
        r = _int_field(desc, "resolution")
        closed = _bool_field(desc, "closed", True)
        return (
            SimplexGrid(_int_field(desc, "n"), r, closed=closed, budget=budget),
            SimplexGrid(_int_field(desc, "m"), r, closed=closed, budget=budget),
        )
    if kind == "cone":
        return ConeGrid(_int_field(desc, "resolution"), bound=_float_field(desc, "bound", 1.0))
    raise ConfigurationError(f"config field 'grid.kind' is unknown: '{kind}'")


def _build_measure(desc):
    if not isinstance(desc, dict):
        raise ConfigurationError("config field 'measure' must be an object")
    gen = _build_function(
        scalar_from_config, _field(desc, "generator"), "measure.generator"
    )
    alpha = _float_field(desc, "alpha")
    max_n = _int_field(desc, "max_n", 8)
    perts = _field(desc, "perturbations", [])
    if not isinstance(perts, list) or not all(isinstance(p, dict) for p in perts):
        raise ConfigurationError("config field 'measure.perturbations' must list objects")
    noise = tuple(
        LevelNoise(_int_field(p, "level"), _float_field(p, "height"), _int_field(p, "seed"))
        for p in perts
    )
    return InformationMeasure(gen, alpha, max_n, noise)


# ---------------------------------------------------------------------------
# equation registry for residual jobs

# a kind's parameters are its dataclass fields, read by their annotated type
_PARAMETERS = {"float": _float_field, "int": _int_field}

# name -> (kind class, descriptor builder); the class states how many functions
_EQUATIONS = {
    "fundamental": (FundamentalParametric, scalar_from_config),
    "entropy": (EntropyEq, ternary_from_config),
    "modified_entropy": (ModifiedEntropy, ternary_from_config),
    "cocycle": (Cocycle, bivariate_from_config),
    "cauchy_additive": (CauchyAdditive, scalar_from_config),
    "multiplicative": (Multiplicative, scalar_from_config),
    "logarithmic": (Logarithmic, scalar_from_config),
    "phi": (PhiEquation, scalar_from_config),
    "daroczy": (DaroczyIdentity, scalar_from_config),
    "info_function_form": (InfoFunctionForm, scalar_from_config),
    "sum_form_additive": (SumFormAdditive, scalar_from_config),
    "sum_form_alpha": (SumFormAlpha, scalar_from_config),
    "sum_form_multiplicative": (SumFormMultiplicative, scalar_from_config),
}


def _equation_kind(name, cfg):
    cls = _EQUATIONS[name][0]
    return cls(*(_PARAMETERS[f.type](cfg, f.name) for f in dataclasses.fields(cls)))


def _job_residual(cfg, jobs, dump):
    name = _field(cfg, "equation")
    if name not in _EQUATIONS:
        raise ConfigurationError(f"config field 'equation' is unknown: '{name}'")
    kind = _equation_kind(name, cfg)
    builder = _EQUATIONS[name][1]
    budget = _int_field(cfg, "budget", 10**7)
    grid = _build_grid(_field(cfg, "grid"), budget)
    if kind.functions == 1:
        fns = _build_function(builder, _field(cfg, "function"), "function")
    else:
        fns = _function_list(cfg, builder, kind.functions)
    target = _float_field(cfg, "epsilon_target", None)
    if target is not None and target < 0:
        raise ConfigurationError(f"config field 'epsilon_target' must be nonnegative, got {target}")
    _refuse_unread(cfg)
    rep = residual(kind, fns, grid, jobs=jobs, budget=budget, mean=True)
    within = target is None or _passes(rep.sup, target)
    result = {"equation": name, **_plain(rep), "epsilon_target": target, "within_target": within}
    files = _defects_file(kind, fns, grid, budget) if dump else {}
    return result, files, EXIT_OK if within else EXIT_VIOLATION


# ---------------------------------------------------------------------------
# certify job

_FUNDAMENTAL = ("fundamental", "fundamental_open", "fundamental_closed", "hyperstability")


def _function_field(builder):
    return lambda cfg, name: _build_function(builder, _field(cfg, name), name)


_SCALAR, _TERNARY = _function_field(scalar_from_config), _function_field(ternary_from_config)


def _triangle(closed):
    # the triangle the certifier swept: hyperstability reads `closed`, the others fix it
    return lambda v: TriangleGrid(v["resolution"], closed=v.get("closed", closed))


def _cone(box):
    return lambda v: ConeGrid(v["resolution"], bound=v[box])


_FUNDAMENTAL_FIELDS = (
    ("function", _SCALAR), ("alpha", _float_field), ("resolution", _int_field))

# name -> (certifier name, looked up in this module at call time so that a
# wrapper installed on it sees the call; defects.csv as (equation name, its
# grid built from the values read) or None; (config field,
# reader[, default]) in argument order, a field with a default optional and
# passed by keyword)
_THEOREMS = {
    "fundamental_open": ("certify_fundamental_open", ("fundamental", _triangle(False)), (
        *_FUNDAMENTAL_FIELDS, ("epsilon", _float_field, None))),
    "fundamental_closed": ("certify_fundamental_closed", ("fundamental", _triangle(True)), (
        *_FUNDAMENTAL_FIELDS, ("epsilon", _float_field, None))),
    "hyperstability": ("certify_hyperstable", ("fundamental", _triangle(False)), (
        *_FUNDAMENTAL_FIELDS, ("closed", _bool_field, False))),
    "entropy_equation": ("certify_entropy_equation", ("entropy", _cone("bound")), (
        ("function", _TERNARY), ("alpha", _float_field), ("resolution", _int_field),
        ("bound", _float_field, 1.0))),
    "modified_entropy": ("certify_modified_entropy", ("modified_entropy", _cone("n")), (
        ("function", _TERNARY), ("alpha", _float_field), ("n", _float_field),
        ("resolution", _int_field))),
    "sum_form": ("certify_sum_form", None, (
        ("function", _SCALAR), ("n", _int_field), ("resolution", _int_field))),
    "sum_form_multiplicative": ("certify_sum_form_multiplicative", None, (
        ("function", _SCALAR), ("n", _int_field), ("m", _int_field), ("resolution", _int_field))),
    "sum_form_mixed": ("certify_sum_form_mixed", None, (
        ("function", _SCALAR), ("alpha", _float_field), ("beta", _float_field),
        ("n", _int_field), ("m", _int_field), ("resolution", _int_field))),
}


def _job_certify(cfg, jobs, dump):
    theorem = _field(cfg, "theorem")
    budget = _int_field(cfg, "budget", 10**7)
    if theorem == "fundamental":  # an excluded regime is refused before any other field is read
        theorem = _fundamental_theorem(theorem, _float_field(cfg, "alpha"))
    dump_args = probe = None

    if theorem == "measure_sequence":
        levels = _int_field(cfg, "levels")
        resolution = _int_field(cfg, "resolution")
        desc = _field(cfg, "measure", None)
        if desc is not None:
            measure = _build_measure(desc)
            alpha = _float_field(cfg, "alpha", None)
        else:
            measure = (_SCALAR(cfg, "generator"), _float_list(cfg, "epsilons"))
            alpha = _float_field(cfg, "alpha")
        _refuse_unread(cfg)
        cert = certify_measure_sequence(
            measure, levels, resolution, alpha=alpha, budget=budget, jobs=jobs
        )
    elif theorem == "associativity":
        A, B = _function_list(cfg, bivariate_from_config, 2)
        ivs = _field(cfg, "intervals")
        if not isinstance(ivs, list) or len(ivs) != 3:
            raise ConfigurationError(
                "config field 'intervals' must list three (lo, hi) pairs"
            )
        ivs = [_float_list({f"intervals[{i}]": iv}, f"intervals[{i}]") for i, iv in enumerate(ivs)]
        resolution = _int_field(cfg, "resolution")
        _refuse_unread(cfg)
        cert = certify_associativity(
            A, B, ivs[0], ivs[1], ivs[2], resolution, budget=budget, jobs=jobs
        )
    elif theorem in _THEOREMS:
        certifier, dump_spec, fields = _THEOREMS[theorem]
        args, keywords = {}, {}
        for name, read, *default in fields:
            (keywords if default else args)[name] = read(cfg, name, *default)
        margins = None
        if theorem == "hyperstability" and _field(cfg, "margins", None) is not None:
            margins = _float_list(cfg, "margins")
            probe_resolution = _int_field(cfg, "probe_resolution", 2048)
            _probe_lattice(margins, probe_resolution, budget)  # before the certificate's sweep
        _refuse_unread(cfg)
        cert = globals()[certifier](*args.values(), jobs=jobs, budget=budget, **keywords)
        if margins is not None:
            probe = hyperstability_blowup_probe(
                args["function"], args["alpha"], margins,
                resolution=probe_resolution, budget=budget, jobs=jobs,
            )
        if dump_spec is not None:
            equation, grid = dump_spec
            values = {**args, **keywords}
            dump_args = (_equation_kind(equation, cfg), values["function"], grid(values))
    else:
        raise ConfigurationError(f"config field 'theorem' is unknown: '{theorem}'")

    result = cert.to_json_dict()
    if probe is not None:
        result["blowup"] = probe
    files = _defects_file(*dump_args, budget) if dump and dump_args is not None else {}
    code = EXIT_VIOLATION if cert.satisfied is False else EXIT_OK
    return result, files, code


# ---------------------------------------------------------------------------
# measure job


def _level_field(cfg, name, max_n, default):
    v = _int_field(cfg, name, default)
    if v is not None and not 2 <= v <= max_n:
        raise ConfigurationError(f"config field '{name}' must lie in [2, max_n={max_n}], got {v}")
    return v


def _job_measure(cfg, jobs, dump):
    budget = _int_field(cfg, "budget", 10**6)
    measure = _build_measure(_field(cfg, "measure"))
    if measure.max_n < 3:  # the generating defect reads level 3
        raise ConfigurationError(
            f"config field 'measure.max_n' must be at least 3, got {measure.max_n}"
        )
    resolution = _int_field(cfg, "resolution")
    top = _level_field(cfg, "n", measure.max_n, 3)
    level = _level_field(cfg, "tabulate", measure.max_n, None)
    _refuse_unread(cfg)
    opts = {"budget": budget, "jobs": jobs}
    symmetry = [
        {"n": n, "sup": check_symmetry(measure, n, resolution, **opts).sup}
        for n in range(2, top + 1)
    ]
    recursivity = [
        {"n": n, "sup": recursivity_defect(measure, n, resolution, **opts).sup}
        for n in range(3, top + 1)
    ]
    gd = derive_generating_defect(measure, resolution, budget=budget, jobs=jobs)
    result = {
        "alpha": measure.alpha,
        "max_n": measure.max_n,
        "normalization_gap": float(check_normalization(measure)),
        "semisymmetry3": check_semisymmetry3(measure, resolution, **opts).sup,
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
    if level is not None:
        pts, vals = tabulate(measure, level, resolution, budget=budget)
        rows = [list(p) + [v] for p, v in zip(pts.tolist(), vals.tolist())]
        header = [f"p{i + 1}" for i in range(pts.shape[1])] + ["value"]
        files = _summary_file(header, rows)
    return result, files, EXIT_OK if gd.within else EXIT_VIOLATION


# ---------------------------------------------------------------------------
# sweep and blowup jobs


def _job_sweep(cfg, jobs, dump):
    target = _field(cfg, "target", "constants")
    alphas = _float_list(cfg, "alphas")

    if target == "constants":
        _refuse_unread(cfg)
        header, table = ["alpha", "K", "T", "relation_gap"], []
        for av in alphas:
            k = stability_constant_K(av)
            t = gap = None
            if Regime.of(av) is Regime.POSITIVE_NOT_ONE:
                t = stability_constant_T(av)
                gap = abs(k * abs(2.0 ** (1.0 - av) - 1.0) - (4.0 * t + 3.0))
            table.append([av, k, t, gap])
        rows = [dict(zip(header, row)) for row in table]
        return {"rows": rows}, _summary_file(header, table), EXIT_OK

    if target not in _FUNDAMENTAL:
        raise ConfigurationError(
            "config field 'target' must be 'constants' or a fundamental-equation "
            f"theorem, got '{target}'"
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
    _refuse_unread(cfg)
    # a regime the target excludes is refused before any sweep
    theorems = [_fundamental_theorem(target, av) for av in alphas]
    certs = []
    table = []
    all_ok = True
    for av, theorem in zip(alphas, theorems):
        base = PowerFamily(a0, b0, av)
        f = base if bump is None else FunctionSum((base, bump))
        certify = globals()[_THEOREMS[theorem][0]]
        cert = certify(f, av, resolution, jobs=jobs, budget=budget)
        entry = cert.to_json_dict()
        if cert.theorem == "hyperstability" and not cert.satisfied:
            margins = [2.0**-k for k in range(3, 10)]
            entry["blowup"] = hyperstability_blowup_probe(f, av, margins, budget=budget, jobs=jobs)
        certs.append(entry)
        table.append(
            [
                cert.alpha,
                Regime.of(av).name.lower(),
                cert.epsilon,
                cert.bound,
                cert.distance,
                cert.satisfied,
            ]
        )
        all_ok = all_ok and cert.satisfied
    files = _summary_file(
        ["alpha", "regime", "epsilon", "bound", "distance", "satisfied"], table
    )
    return {"certificates": certs}, files, EXIT_OK if all_ok else EXIT_VIOLATION


def _job_blowup(cfg, jobs, dump):
    f = _SCALAR(cfg, "function")
    alpha = _float_field(cfg, "alpha")
    margins = _float_list(cfg, "margins")
    resolution = _int_field(cfg, "resolution", 2048)
    budget = _int_field(cfg, "budget", 10**7)
    _refuse_unread(cfg)
    probe = hyperstability_blowup_probe(
        f, alpha, margins, resolution=resolution, budget=budget, jobs=jobs
    )
    first, last = probe[0][1], probe[-1][1]
    result = {
        "rows": probe,
        "growth_ratio": None if first == 0.0 else last / first,
    }
    return result, _summary_file(["margin", "sup"], probe), EXIT_OK


# ---------------------------------------------------------------------------
# report writing and entry points


def _summary_file(header, rows):
    """A job's summary.csv: {report key: (file name, writer of that path)}."""

    def write(path):
        with open(path, "w", newline="") as fh:
            w = csv.writer(fh, lineterminator="\n")
            w.writerow(header)
            for row in rows:
                w.writerow(["" if v is None else v for v in row])

    return {"summary_csv": ("summary.csv", write)}


def _defects_file(kind, fns, grid, budget):
    """A job's defects.csv, written by this module's dump_defects_csv."""
    write = lambda path: dump_defects_csv(kind, fns, grid, path, budget=budget)
    return {"defects_csv": ("defects.csv", write)}


_JOBS = {
    "residual": _job_residual,
    "certify": _job_certify,
    "measure": _job_measure,
    "sweep": _job_sweep,
    "blowup": _job_blowup,
}


def run(config, *, out_dir: str = ".", jobs: int = 1, dump_defects: bool = False) -> int:
    """Execute one parsed config, write reports into out_dir, return exit code."""
    if int(jobs) < 1:
        raise ConfigurationError(f"--jobs must be at least 1, got {jobs}")
    if not isinstance(config, dict):
        raise ConfigurationError("config must be a JSON object")
    reads = _READS.set({})
    try:
        schema = _int_field(config, "schema")
        if schema != 1:
            raise ConfigurationError(f"config field 'schema' must be 1, got {schema!r}")
        job = _field(config, "job")
        if job not in _JOBS:
            raise ConfigurationError(
                f"config field 'job' must be one of {sorted(_JOBS)}, got '{job}'"
            )
        result, files, code = _JOBS[job](config, int(jobs), bool(dump_defects))
    finally:
        _READS.reset(reads)
    payload = {
        "schema": 1,
        "job": job,
        "config": config,
        "result": result,
        "files": {key: name for key, (name, _) in files.items()},
    }
    try:
        text = json.dumps(payload, indent=2, sort_keys=True, allow_nan=False)
    except ValueError as exc:
        raise NonFiniteDefectError(
            "report.json would hold a NaN or infinite value in field "
            f"'{_non_finite_field(payload)}'"
        ) from exc
    for name, write in files.values():
        write(os.path.join(out_dir, name))
    with open(os.path.join(out_dir, "report.json"), "w") as fh:
        fh.write(text + "\n")
    return code


def _non_finite_field(value, path=""):
    """The dotted path of the first NaN or infinite float in value, in
    report.json's sorted-key order, or None if it holds none."""
    if isinstance(value, float):
        return None if math.isfinite(value) else path
    if isinstance(value, dict):
        items = ((f"{path}.{key}" if path else str(key), value[key]) for key in sorted(value))
    elif isinstance(value, (list, tuple)):
        items = ((f"{path}[{i}]", v) for i, v in enumerate(value))
    else:
        return None
    return next(filter(None, (_non_finite_field(v, where) for where, v in items)), None)


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
        with open(args.config, encoding="utf-8") as fh:
            config = json.load(fh, parse_constant=_refuse_constant)
    except (OSError, UnicodeDecodeError) as exc:
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
    except OSError as exc:
        print(f"error: cannot write reports: {exc}", file=sys.stderr)
        return EXIT_CONFIG


def console_main():
    raise SystemExit(main())


if __name__ == "__main__":
    console_main()
