"""End-to-end checks for the config-driven command line runner."""

import csv
import inspect
import json
import os
import subprocess
import sys
import warnings

import pytest

from infostab import (
    ConfigurationError,
    DispatchError,
    InfostabError,
    NonFiniteDefectError,
    PowerFamily,
    ShannonInfo,
    UnsupportedParameterError,
    config_of,
    residual,
    stability_constant_K,
)
from infostab.cli import EXIT_CONFIG, EXIT_OK, EXIT_VIOLATION, _non_finite_field, main, run

from _helpers import sampled

POWER = {"kind": "power_family", "a": 2.0, "b": 1.0, "alpha": 0.5}
BUMP = {"kind": "bump", "center": 0.5, "width": 0.2, "height": 1e-3}
NOISY_POWER = {"kind": "sum", "terms": [POWER, BUMP]}
NEG_FAMILY = {"kind": "power_family", "a": 1.0, "b": 1.0, "alpha": -1.0}
PHI_OF_SUM = {"kind": "phi_of_sum", "phi": {"kind": "power_law", "scale": 1.0, "alpha": 2.0}}
NOISY_NEG = {"kind": "sum", "terms": [NEG_FAMILY, dict(BUMP, height=0.05)]}
NOISY_MEASURE = {"generator": {"kind": "power_family", "a": -2.0, "b": -2.0, "alpha": 2.0},
                 "alpha": 2.0, "max_n": 4,
                 "perturbations": [{"level": 3, "height": 5e-5, "seed": 7}]}


def run_job(tmp_path, config, **kwargs):
    code = run(config, out_dir=str(tmp_path), **kwargs)
    report = json.loads((tmp_path / "report.json").read_text())
    return code, report


def read_rows(path):
    with open(path, newline="") as handle:
        return list(csv.DictReader(handle))


def certify_config(theorem, function, alpha, **extra):
    config = {"schema": 1, "job": "certify", "theorem": theorem,
              "function": function, "alpha": alpha, "resolution": 64}
    config.update(extra)
    return config


class Reached(Exception):
    """A stubbed sweep was called."""


def stub_sweeps(monkeypatch):
    """Replace every certifiers, equations and measures entry point the cli
    calls with a stub that raises Reached; the theorem dispatch, which runs
    no sweep, stays."""
    import infostab.cli as cli

    def reached(*args, **kwargs):
        raise Reached

    for name, value in list(vars(cli).items()):
        if name != "_fundamental_theorem" and inspect.isfunction(value) and value.__module__ in (
            "infostab.certifiers", "infostab.equations", "infostab.measures"
        ):
            monkeypatch.setattr(cli, name, reached)


class TestRunCertify:
    def test_exact_fundamental_passes(self, tmp_path):
        config = certify_config("fundamental", POWER, 0.5, resolution=256)
        code, report = run_job(tmp_path, config)
        assert code == EXIT_OK
        assert report["schema"] == 1
        assert report["job"] == "certify"
        assert report["result"]["satisfied"] is True
        assert report["result"]["theorem"] == "fundamental_open"
        cand = report["result"]["candidate"]
        assert cand["kind"] == "power_family"
        assert cand["a"] == pytest.approx(2.0, abs=1e-8)
        assert report["files"] == {}

    def test_config_echoed_untouched(self, tmp_path):
        config = certify_config("fundamental", POWER, 0.5)
        _, report = run_job(tmp_path, config)
        assert report["config"] == config

    def test_negative_alpha_dispatches_to_hyperstability(self, tmp_path):
        code, report = run_job(tmp_path, certify_config("fundamental", NEG_FAMILY, -1.0))
        assert code == EXIT_OK
        assert report["result"]["theorem"] == "hyperstability"

    def test_violation_exits_one(self, tmp_path):
        big = {"kind": "sum", "terms": [NEG_FAMILY, dict(BUMP, height=0.05)]}
        code, report = run_job(tmp_path, certify_config("hyperstability", big, -1.0))
        assert code == EXIT_VIOLATION
        assert report["result"]["satisfied"] is False

    def test_epsilon_override_recorded(self, tmp_path):
        config = certify_config("fundamental_open", POWER, 0.5, epsilon=1e-4)
        code, report = run_job(tmp_path, config)
        assert code == EXIT_OK
        assert report["result"]["epsilon"] == 1e-4
        assert report["result"]["epsilon_source"] == "supplied"

    def test_closed_theorem(self, tmp_path):
        code, report = run_job(tmp_path, certify_config("fundamental_closed", POWER, 0.5))
        assert code == EXIT_OK
        assert report["result"]["theorem"] == "fundamental_closed"

    def test_hyperstability_with_probe(self, tmp_path):
        noisy = {"kind": "sum", "terms": [NEG_FAMILY, dict(BUMP, height=0.05)]}
        config = certify_config("hyperstability", noisy, -1.0,
                                margins=[0.125, 0.0625, 0.03125],
                                probe_resolution=128)
        code, report = run_job(tmp_path, config)
        assert code == EXIT_VIOLATION
        probe = report["result"]["blowup"]
        assert [row[0] for row in probe] == [0.125, 0.0625, 0.03125]
        sups = [row[1] for row in probe]
        assert sups == sorted(sups)

    def test_measure_sequence_statement_mode(self, tmp_path):
        config = {"schema": 1, "job": "certify", "theorem": "measure_sequence",
                  "generator": POWER, "epsilons": [1e-6, 1e-5, 1e-4],
                  "alpha": 0.5, "levels": 4, "resolution": 16}
        code, report = run_job(tmp_path, config)
        assert code == EXIT_OK
        result = report["result"]
        assert result["satisfied"] is None
        rows = result["rows"]
        assert [r["n"] for r in rows] == [2, 3, 4]
        assert all(r["distance"] is None for r in rows)
        bounds = [r["bound"] for r in rows]
        assert all(b > 0.0 for b in bounds)
        assert bounds == sorted(bounds)

    def test_measure_sequence_from_description(self, tmp_path):
        kappa = 1.0 / (2.0 ** 0.5 - 1.0)
        gen = {"kind": "power_family", "a": kappa, "b": kappa, "alpha": 0.5}
        config = {"schema": 1, "job": "certify", "theorem": "measure_sequence",
                  "measure": {"generator": gen, "alpha": 0.5, "max_n": 4},
                  "levels": 4, "resolution": 16}
        code, report = run_job(tmp_path, config)
        assert code == EXIT_OK
        result = report["result"]
        assert result["satisfied"] is True
        assert max(r["distance"] for r in result["rows"]) <= 1e-9

    def test_entropy_equation(self, tmp_path):
        sol = {"kind": "entropy_solution", "scale": 0.7, "alpha": 2.0}
        config = {"schema": 1, "job": "certify", "theorem": "entropy_equation",
                  "function": sol, "alpha": 2.0, "resolution": 24}
        code, report = run_job(tmp_path, config)
        assert code == EXIT_OK
        assert report["result"]["satisfied"] is True

    def test_associativity(self, tmp_path):
        phi = {"kind": "phi_of_sum",
               "phi": {"kind": "power_law", "scale": 1.0, "alpha": 2.0}}
        config = {"schema": 1, "job": "certify", "theorem": "associativity",
                  "functions": [phi, phi], "resolution": 8,
                  "intervals": [[0.0, 1.0], [0.0, 1.0], [0.0, 1.0]]}
        code, report = run_job(tmp_path, config)
        assert code == EXIT_OK
        assert report["result"]["epsilon"] == 0.0

    def test_modified_entropy(self, tmp_path):
        sol = {"kind": "modified_entropy_solution", "coeff": 0.4, "alpha": 2.0,
               "phi": {"kind": "xlog2", "scale": 1.0}}
        config = {"schema": 1, "job": "certify", "theorem": "modified_entropy",
                  "function": sol, "alpha": 2.0, "n": 1.0, "resolution": 24}
        code, report = run_job(tmp_path, config)
        assert code == EXIT_OK
        assert report["result"]["satisfied"] is True

    def test_sum_form(self, tmp_path):
        phi = {"kind": "sum", "terms": [{"kind": "power_law", "scale": 0.7, "alpha": 1.0},
                                        {"kind": "constant", "value": -0.7 / 3.0}]}
        config = {"schema": 1, "job": "certify", "theorem": "sum_form",
                  "function": phi, "n": 3, "resolution": 12}
        code, report = run_job(tmp_path, config)
        assert code == EXIT_OK
        assert report["result"]["trace"]["kappa"] == pytest.approx(0.7, abs=1e-4)

    def test_sum_form_multiplicative(self, tmp_path):
        g = {"kind": "power_law", "scale": 1.0, "alpha": 1.7}
        config = {"schema": 1, "job": "certify", "theorem": "sum_form_multiplicative",
                  "function": g, "n": 3, "m": 3, "resolution": 10}
        code, report = run_job(tmp_path, config)
        assert code == EXIT_OK
        assert report["result"]["trace"]["beta"] == pytest.approx(1.7, rel=1e-3)

    def test_sum_form_mixed(self, tmp_path):
        f = {"kind": "sum", "terms": [{"kind": "power_law", "scale": 0.6, "alpha": 0.5},
                                      {"kind": "power_law", "scale": -0.6, "alpha": 2.0}]}
        config = {"schema": 1, "job": "certify", "theorem": "sum_form_mixed",
                  "function": f, "n": 3, "m": 3, "alpha": 0.5, "beta": 2.0,
                  "resolution": 10}
        code, report = run_job(tmp_path, config)
        assert code == EXIT_OK
        assert report["result"]["trace"]["c"] == pytest.approx(0.6, abs=1e-6)

    def test_dump_defects(self, tmp_path):
        config = certify_config("fundamental", NOISY_POWER, 0.5, resolution=32)
        code, report = run_job(tmp_path, config, dump_defects=True)
        assert code == EXIT_OK
        assert report["files"]["defects_csv"] == "defects.csv"
        lines = (tmp_path / "defects.csv").read_text().splitlines()
        sup = max(abs(float(line.split(",")[2])) for line in lines)
        assert sup == pytest.approx(report["result"]["epsilon"], rel=1e-12)

    def test_unknown_theorem(self, tmp_path):
        with pytest.raises(ConfigurationError):
            run(certify_config("grand_unified", POWER, 0.5), out_dir=str(tmp_path))

    def test_alpha_one_bubbles_up(self, tmp_path):
        fam = {"kind": "power_family", "a": 1.0, "b": 1.0, "alpha": 1.0}
        with pytest.raises(InfostabError):
            run(certify_config("fundamental", fam, 1.0), out_dir=str(tmp_path))


class TestRunResidual:
    def residual_config(self, **extra):
        config = {"schema": 1, "job": "residual", "equation": "fundamental",
                  "alpha": 0.5, "function": POWER,
                  "grid": {"kind": "triangle", "resolution": 64}}
        config.update(extra)
        return config

    def test_exact_solution_small_sup(self, tmp_path):
        code, report = run_job(tmp_path, self.residual_config())
        assert code == EXIT_OK
        result = report["result"]
        assert result["equation"] == "fundamental"
        assert result["sup"] <= 1e-10
        assert result["mean"] <= result["sup"]
        assert result["samples"] > 0
        assert result["epsilon_target"] is None
        assert result["within_target"] is True

    def test_epsilon_target_gates_exit(self, tmp_path):
        config = self.residual_config(function=NOISY_POWER, epsilon_target=1e-8)
        code, report = run_job(tmp_path, config)
        assert code == EXIT_VIOLATION
        assert report["result"]["within_target"] is False
        loose = self.residual_config(function=NOISY_POWER, epsilon_target=1.0)
        code, report = run_job(tmp_path, loose)
        assert code == EXIT_OK
        assert report["result"]["within_target"] is True

    def test_argmax_point_reported(self, tmp_path):
        _, report = run_job(tmp_path, self.residual_config(function=NOISY_POWER))
        point = report["result"]["argmax_point"]
        assert len(point) == 2
        assert 0.0 < sum(point) < 1.0

    def test_two_function_equation(self, tmp_path):
        config = {"schema": 1, "job": "residual", "equation": "daroczy",
                  "functions": [{"kind": "shannon_info"},
                                {"kind": "xlog2", "scale": -1.0}],
                  "grid": {"kind": "unit", "resolution": 64}}
        code, report = run_job(tmp_path, config)
        assert code == EXIT_OK
        assert report["result"]["sup"] <= 1e-10

    def test_simplex_pair_grid_config(self, tmp_path):
        config = {"schema": 1, "job": "residual", "equation": "sum_form_additive",
                  "n": 3, "m": 3, "function": {"kind": "xlog2", "scale": -1.0},
                  "grid": {"kind": "simplex_pair", "n": 3, "m": 3, "resolution": 8}}
        code, report = run_job(tmp_path, config)
        assert code == EXIT_OK
        assert report["result"]["sup"] <= 1e-10

    def test_cone_grid_config(self, tmp_path):
        config = {"schema": 1, "job": "residual", "equation": "entropy",
                  "function": {"kind": "entropy_solution", "scale": 0.7, "alpha": 2.0},
                  "grid": {"kind": "cone", "resolution": 12, "bound": 2.0}}
        code, report = run_job(tmp_path, config)
        assert code == EXIT_OK
        assert report["result"]["sup"] <= 1e-10

    def test_dump_defects_csv(self, tmp_path):
        config = self.residual_config(function=NOISY_POWER)
        _, report = run_job(tmp_path, config, dump_defects=True)
        assert report["files"]["defects_csv"] == "defects.csv"
        lines = (tmp_path / "defects.csv").read_text().splitlines()
        assert len(lines) == report["result"]["samples"]
        sup = max(abs(float(line.split(",")[2])) for line in lines)
        assert sup == pytest.approx(report["result"]["sup"], rel=1e-12)

    def test_unknown_equation(self, tmp_path):
        with pytest.raises(ConfigurationError):
            run(self.residual_config(equation="heat"), out_dir=str(tmp_path))

    def test_unknown_grid_kind(self, tmp_path):
        config = self.residual_config(grid={"kind": "moebius", "resolution": 8})
        with pytest.raises(ConfigurationError):
            run(config, out_dir=str(tmp_path))

    @pytest.mark.parametrize("kind, field", [
        ("unit", "bound"), ("triangle", "closd"), ("simplex", "m"),
        ("simplex_pair", "bound"), ("cone", "closed"), ("pair", "budget"),
        ("cone", "budget"),
    ])
    def test_unknown_grid_field_is_refused(self, tmp_path, kind, field):
        # a field another grid kind reads (or a misspelling) beside valid ones;
        # no equation sweeps a simplex or pair lattice, so neither kind is built
        grid = {"kind": kind, "resolution": 8, field: True}
        if kind == "simplex_pair":
            grid.update(n=3, m=3)
        refused = "kind" if kind in ("simplex", "pair") else field
        with pytest.raises(ConfigurationError, match=f"'grid.{refused}' is unknown"):
            run(self.residual_config(grid=grid), out_dir=str(tmp_path))
        assert not (tmp_path / "report.json").exists()

    def test_wrong_function_arity(self, tmp_path):
        config = {"schema": 1, "job": "residual", "equation": "daroczy",
                  "functions": [{"kind": "shannon_info"}],
                  "grid": {"kind": "unit", "resolution": 16}}
        with pytest.raises(ConfigurationError):
            run(config, out_dir=str(tmp_path))


class TestRunMeasure:
    def measure_config(self, alpha=2.0, **extra):
        if alpha == 1.0:
            gen = {"kind": "shannon_info"}
        else:
            kappa = 1.0 / (2.0 ** (1.0 - alpha) - 1.0)
            gen = {"kind": "power_family", "a": kappa, "b": kappa, "alpha": alpha}
        config = {"schema": 1, "job": "measure",
                  "measure": {"generator": gen, "alpha": alpha, "max_n": 4},
                  "n": 3, "resolution": 16}
        config.update(extra)
        return config

    def test_exact_measure_report(self, tmp_path):
        code, report = run_job(tmp_path, self.measure_config())
        assert code == EXIT_OK
        result = report["result"]
        assert result["alpha"] == 2.0
        assert result["max_n"] == 4
        assert result["normalization_gap"] <= 1e-12
        assert result["semisymmetry3"] <= 1e-10
        assert [row["n"] for row in result["symmetry"]] == [2, 3]
        assert all(row["sup"] <= 1e-10 for row in result["symmetry"])
        assert [row["n"] for row in result["recursivity"]] == [3]
        assert all(row["sup"] <= 1e-10 for row in result["recursivity"])
        gd = result["generating_defect"]
        assert gd["within"] is True
        assert gd["sup"] <= gd["bound"]

    def test_perturbed_measure_within_bound(self, tmp_path):
        base = self.measure_config()
        base["measure"]["perturbations"] = [{"level": 3, "height": 1e-4, "seed": 7}]
        code, report = run_job(tmp_path, base)
        assert code == EXIT_OK
        gd = report["result"]["generating_defect"]
        assert gd["eps_semisymmetry"] > 0.0
        assert gd["sup"] <= gd["bound"]

    def test_tabulate_writes_summary(self, tmp_path):
        config = self.measure_config(tabulate=3)
        _, report = run_job(tmp_path, config)
        assert report["files"]["summary_csv"] == "summary.csv"
        rows = read_rows(tmp_path / "summary.csv")
        assert set(rows[0]) == {"p1", "p2", "p3", "value"}
        probs = [float(rows[0][k]) for k in ("p1", "p2", "p3")]
        assert sum(probs) == pytest.approx(1.0, abs=1e-12)

    def test_shannon_generator(self, tmp_path):
        code, report = run_job(tmp_path, self.measure_config(alpha=1.0))
        assert code == EXIT_OK
        assert all(row["sup"] <= 1e-10 for row in report["result"]["recursivity"])

    def test_n_out_of_range(self, tmp_path):
        with pytest.raises(ConfigurationError):
            run(self.measure_config(n=9), out_dir=str(tmp_path))

    @pytest.mark.parametrize("n", [None, 2])
    def test_max_n_below_three_is_refused_before_any_sweep(self, tmp_path, capsys,
                                                           monkeypatch, n):
        # the generating defect reads level 3; the refusal names the field that
        # was set, not the unset 'n'
        stub_sweeps(monkeypatch)
        config = self.measure_config(n=n)
        config["measure"]["max_n"] = 2
        if n is None:
            del config["n"]
        path, out = tmp_path / "config.json", tmp_path / "out"
        path.write_text(json.dumps(config))
        assert main(["--config", str(path), "--out", str(out)]) == EXIT_CONFIG
        assert capsys.readouterr().err == (
            "error: config field 'measure.max_n' must be at least 3, got 2\n"
        )
        assert not (out / "report.json").exists()


class TestRunSweep:
    def test_constants_sweep(self, tmp_path):
        config = {"schema": 1, "job": "sweep", "target": "constants",
                  "alphas": [0.25, 0.5, 2.0, 3.0, 5.0]}
        code, report = run_job(tmp_path, config)
        assert code == EXIT_OK
        assert report["files"]["summary_csv"] == "summary.csv"
        rows = read_rows(tmp_path / "summary.csv")
        assert [float(r["alpha"]) for r in rows] == [0.25, 0.5, 2.0, 3.0, 5.0]
        for row in rows:
            assert abs(float(row["relation_gap"])) <= 1e-9
        by_alpha = {float(r["alpha"]): r for r in rows}
        assert float(by_alpha[2.0]["K"]) == 2406.0
        assert float(by_alpha[2.0]["T"]) == 300.0

    def test_constants_sweep_alpha_zero_has_no_T(self, tmp_path):
        config = {"schema": 1, "job": "sweep", "target": "constants", "alphas": [0.0, -1.0]}
        code, _ = run_job(tmp_path, config)
        assert code == EXIT_OK
        rows = read_rows(tmp_path / "summary.csv")
        assert float(rows[0]["K"]) == 63.0
        assert float(rows[1]["K"]) == stability_constant_K(-1.0)
        assert [(r["T"], r["relation_gap"]) for r in rows] == [("", "")] * 2

    def test_family_sweep_exact(self, tmp_path):
        config = {"schema": 1, "job": "sweep", "target": "fundamental",
                  "alphas": [-1.0, 0.0, 0.5, 2.0], "family": {"a": 1.0, "b": 1.0},
                  "resolution": 48}
        code, report = run_job(tmp_path, config)
        assert code == EXIT_OK
        rows = read_rows(tmp_path / "summary.csv")
        assert len(rows) == 4
        assert all(r["satisfied"] == "True" for r in rows)
        regimes = {float(r["alpha"]): r["regime"] for r in rows}
        assert regimes[-1.0] == "negative"
        assert regimes[0.0] == "zero"
        assert regimes[2.0] == "positive_not_one"
        assert len(report["result"]["certificates"]) == 4

    def test_family_sweep_noise_attaches_blowup(self, tmp_path):
        config = {"schema": 1, "job": "sweep", "target": "fundamental",
                  "alphas": [-1.0, 2.0], "family": {"a": 1.0, "b": 1.0},
                  "noise": {"height": 5e-4}, "resolution": 48}
        code, report = run_job(tmp_path, config)
        assert code == EXIT_VIOLATION
        certs = {c["alpha"]: c for c in report["result"]["certificates"]}
        assert certs[-1.0]["satisfied"] is False
        assert "blowup" in certs[-1.0]
        sups = [row[1] for row in certs[-1.0]["blowup"]]
        assert sups[-1] / sups[0] >= 10.0
        assert certs[2.0]["satisfied"] is True
        assert "blowup" not in certs[2.0]

    def test_family_sweep_rejects_alpha_one(self, tmp_path):
        config = {"schema": 1, "job": "sweep", "target": "fundamental_open",
                  "alphas": [1.0], "family": {"a": 1.0, "b": 1.0}, "resolution": 16}
        with pytest.raises(DispatchError, match="^alpha = 1 is outside the method"):
            run(config, out_dir=str(tmp_path))

    @pytest.mark.parametrize("target, alphas, message", [
        ("hyperstability", [-1.0, -0.5, 0.5], "hyperstability needs alpha < 0"),
        ("fundamental_open", [0.5, -1.0], "negative alpha is the hyperstable regime"),
    ])
    def test_regime_mismatch_refused_before_any_certificate(
        self, tmp_path, capsys, monkeypatch, target, alphas, message
    ):
        import infostab.cli as cli

        calls = []
        for name in [n for n in vars(cli) if n.startswith("certify_")]:
            monkeypatch.setattr(cli, name, lambda *a, **k: calls.append(a))
        monkeypatch.setattr(cli, "hyperstability_blowup_probe", lambda *a, **k: calls.append(a))
        config = {"schema": 1, "job": "sweep", "target": target, "alphas": alphas,
                  "family": {"a": 1.0, "b": 1.0}, "noise": {"height": 5e-4},
                  "resolution": 16}
        with pytest.raises(DispatchError, match=f"^{message}"):
            run(config, out_dir=str(tmp_path))
        path = tmp_path / "config.json"
        path.write_text(json.dumps(config))
        assert main(["--config", str(path), "--out", str(tmp_path / "out")]) == EXIT_CONFIG
        assert capsys.readouterr().err.startswith(f"error: {message}")
        assert calls == []

    def test_empty_alphas_rejected(self, tmp_path):
        config = {"schema": 1, "job": "sweep", "target": "constants", "alphas": []}
        with pytest.raises(ConfigurationError):
            run(config, out_dir=str(tmp_path))

    def test_family_required(self, tmp_path):
        config = {"schema": 1, "job": "sweep", "target": "fundamental_open",
                  "alphas": [2.0]}
        with pytest.raises(ConfigurationError):
            run(config, out_dir=str(tmp_path))

    def test_unknown_target(self, tmp_path):
        config = {"schema": 1, "job": "sweep", "target": "entropy", "alphas": [2.0]}
        with pytest.raises(ConfigurationError):
            run(config, out_dir=str(tmp_path))


class TestRunBlowup:
    def test_probe_job(self, tmp_path):
        noisy = {"kind": "sum", "terms": [NEG_FAMILY, dict(BUMP, height=0.05)]}
        config = {"schema": 1, "job": "blowup", "function": noisy,
                  "alpha": -1.0, "margins": [0.125, 0.0625, 0.03125],
                  "resolution": 256}
        code, report = run_job(tmp_path, config)
        assert code == EXIT_OK
        result = report["result"]
        assert result["growth_ratio"] > 1.0
        rows = read_rows(tmp_path / "summary.csv")
        assert [float(r["margin"]) for r in rows] == [0.125, 0.0625, 0.03125]
        sups = [float(r["sup"]) for r in rows]
        assert sups == sorted(sups)
        assert [row[1] for row in result["rows"]] == sups

    def test_margins_required(self, tmp_path):
        config = {"schema": 1, "job": "blowup", "function": NEG_FAMILY, "alpha": -1.0}
        with pytest.raises(ConfigurationError):
            run(config, out_dir=str(tmp_path))


class TestRunPlumbing:
    def test_schema_required(self, tmp_path):
        with pytest.raises(ConfigurationError):
            run({"job": "certify"}, out_dir=str(tmp_path))
        with pytest.raises(ConfigurationError):
            run({"schema": 2, "job": "certify"}, out_dir=str(tmp_path))

    @pytest.mark.parametrize("schema", [True, 1.0])
    def test_schema_is_the_integer_one(self, tmp_path, schema):
        config = {"schema": schema, "job": "sweep", "target": "constants", "alphas": [2.0]}
        with pytest.raises(ConfigurationError, match="'schema' must be an integer"):
            run(config, out_dir=str(tmp_path))
        assert list(tmp_path.iterdir()) == []

    def test_config_must_be_object(self, tmp_path):
        with pytest.raises(ConfigurationError):
            run(["schema", 1], out_dir=str(tmp_path))

    def test_unknown_job(self, tmp_path):
        with pytest.raises(ConfigurationError):
            run({"schema": 1, "job": "launch"}, out_dir=str(tmp_path))

    @pytest.mark.parametrize("config", [
        {"schema": 1, "job": "residual", "equation": "fundamental",
         "alpha": 0.5, "function": NOISY_POWER,
         "grid": {"kind": "triangle", "resolution": 128}},
        # each of the certify configs sweeps more than one block
        {"schema": 1, "job": "certify", "theorem": "sum_form_mixed",
         "function": {"kind": "sum", "terms": [
             {"kind": "power_law", "scale": 0.6, "alpha": 0.5}, dict(BUMP, height=1e-4)]},
         "n": 3, "m": 3, "alpha": 0.5, "beta": 2.0, "resolution": 20},
        {"schema": 1, "job": "certify", "theorem": "entropy_equation",
         "function": {"kind": "wave3", "height": 1e-3, "seed": 5},
         "alpha": 0.0, "resolution": 40},
        {"schema": 1, "job": "certify", "theorem": "modified_entropy",
         "function": {"kind": "sum3", "terms": [
             {"kind": "modified_entropy_solution", "coeff": 0.4, "alpha": 2.0,
              "phi": {"kind": "xlog2", "scale": 1.0}},
             {"kind": "wave3", "height": 1e-4, "seed": 2}]},
         "alpha": 2.0, "n": 1.0, "resolution": 40},
        # the blow-up probe sweeps the R=2048 triangle at the failing alpha
        {"schema": 1, "job": "sweep", "target": "fundamental", "alphas": [-1.0],
         "family": {"a": 1.0, "b": 1.0}, "noise": {"height": 1e-3}, "resolution": 32},
        {"schema": 1, "job": "blowup", "function": NOISY_NEG, "alpha": -1.0,
         "margins": [0.125, 0.0625, 0.03125], "resolution": 512},
        certify_config("hyperstability", NOISY_NEG, -1.0, margins=[0.125, 0.0625],
                       probe_resolution=512),
        # the level-4 lattice at R=64 holds 39,711 points
        {"schema": 1, "job": "certify", "theorem": "measure_sequence",
         "measure": NOISY_MEASURE, "levels": 4, "resolution": 64},
        {"schema": 1, "job": "certify", "theorem": "sum_form", "n": 3, "resolution": 300,
         "function": {"kind": "sum", "terms": [
             {"kind": "power_law", "scale": 0.7, "alpha": 1.0},
             {"kind": "constant", "value": -0.7 / 3.0}]}},
        {"schema": 1, "job": "certify", "theorem": "associativity",
         "functions": [PHI_OF_SUM, PHI_OF_SUM], "resolution": 40,
         "intervals": [[0.0, 1.0], [0.0, 1.0], [0.0, 1.0]]},
        # every measure check sweeps at least two blocks at R=260
        {"schema": 1, "job": "measure", "measure": NOISY_MEASURE, "n": 3, "resolution": 260},
    ], ids=["residual", "sum_form_mixed", "entropy_equation", "modified_entropy",
            "sweep_probe", "blowup", "hyperstability_margins", "measure_sequence",
            "sum_form", "associativity", "measure"])
    def test_report_bytes_independent_of_jobs(self, tmp_path, config):
        outputs = []
        for jobs in (1, 8):
            out = tmp_path / str(jobs)
            out.mkdir()
            run(config, out_dir=str(out), jobs=jobs)
            outputs.append({p.name: p.read_bytes() for p in sorted(out.iterdir())})
        assert outputs[0] == outputs[1]

    def test_report_is_sorted_and_newline_terminated(self, tmp_path):
        run_job(tmp_path, certify_config("fundamental", POWER, 0.5))
        raw = (tmp_path / "report.json").read_text()
        assert raw.endswith("\n")
        assert raw == json.dumps(json.loads(raw), indent=2, sort_keys=True) + "\n"



ENTROPY_SOLUTION = {"kind": "entropy_solution", "scale": 0.7, "alpha": 2.0}
MODIFIED_SOLUTION = {"kind": "modified_entropy_solution", "coeff": 0.4, "alpha": 2.0,
                     "phi": {"kind": "xlog2", "scale": 1.0}}
SHANNON_PAIR = [{"kind": "shannon_info"}, {"kind": "xlog2", "scale": -1.0}]
UNIT = {"kind": "unit", "resolution": 8}
CONE = {"kind": "cone", "resolution": 4}

# every field each table entry requires, and nothing optional
THEOREM_FIELDS = {
    "fundamental_open": {"function": POWER, "alpha": 0.5, "resolution": 16},
    "fundamental_closed": {"function": POWER, "alpha": 0.5, "resolution": 16},
    "hyperstability": {"function": NEG_FAMILY, "alpha": -1.0, "resolution": 16},
    "entropy_equation": {"function": ENTROPY_SOLUTION, "alpha": 2.0, "resolution": 6},
    "modified_entropy": {"function": MODIFIED_SOLUTION, "alpha": 2.0, "n": 1.0,
                         "resolution": 6},
    "sum_form": {"function": POWER, "n": 3, "resolution": 4},
    "sum_form_multiplicative": {"function": POWER, "n": 3, "m": 3, "resolution": 3},
    "sum_form_mixed": {"function": POWER, "alpha": 0.5, "beta": 2.0, "n": 3, "m": 3,
                       "resolution": 3},
}
EQUATION_FIELDS = {
    "fundamental": {"alpha": 0.5, "function": POWER,
                    "grid": {"kind": "triangle", "resolution": 8}},
    "entropy": {"function": ENTROPY_SOLUTION, "grid": CONE},
    "modified_entropy": {"alpha": 2.0, "function": MODIFIED_SOLUTION, "grid": CONE},
    "cocycle": {"function": PHI_OF_SUM, "grid": CONE},
    "cauchy_additive": {"function": POWER, "grid": UNIT},
    "multiplicative": {"function": POWER, "grid": UNIT},
    "logarithmic": {"function": POWER, "grid": UNIT},
    "phi": {"function": POWER, "grid": UNIT},
    "daroczy": {"functions": SHANNON_PAIR, "grid": UNIT},
    "info_function_form": {"functions": SHANNON_PAIR, "grid": UNIT},
    "sum_form_additive": {"n": 3, "m": 3, "function": POWER,
                          "grid": {"kind": "simplex_pair", "n": 3, "m": 3, "resolution": 4}},
    "sum_form_alpha": {"alpha": 0.5, "n": 3, "m": 3, "function": POWER,
                       "grid": {"kind": "simplex_pair", "n": 3, "m": 3, "resolution": 4}},
    "sum_form_multiplicative": {"n": 3, "m": 3, "function": POWER,
                                "grid": {"kind": "simplex_pair", "n": 3, "m": 3,
                                         "resolution": 4}},
}


def without_each_required_field():
    for theorem, fields in THEOREM_FIELDS.items():
        yield {"schema": 1, "job": "certify", "theorem": theorem, **fields}
    for equation, fields in EQUATION_FIELDS.items():
        yield {"schema": 1, "job": "residual", "equation": equation, **fields}


class TestTableEntriesRequireTheirFields:
    """The theorem and equation tables are read by one generic path; each
    entry must name every field it needs in the required-field message, and
    with all of them present must reach its sweep (stubbed out here)."""

    def test_the_cases_cover_every_entry(self):
        import infostab.cli as cli

        assert set(THEOREM_FIELDS) == set(cli._THEOREMS)
        assert set(EQUATION_FIELDS) == set(cli._EQUATIONS)

    def test_every_kind_has_an_entry_and_refuses_a_wrong_function_count(self):
        import dataclasses

        import infostab.cli as cli
        import infostab.equations as equations

        kinds = {getattr(equations, name) for name in equations.__all__}
        kinds = {k for k in kinds if isinstance(k, type)} - {equations.ResidualReport}
        assert kinds == {cls for cls, _ in cli._EQUATIONS.values()}
        for cls in kinds:
            kind = cls(*({"float": 0.5, "int": 2}[f.type] for f in dataclasses.fields(cls)))
            for count in (cls.functions - 1, cls.functions + 1):
                message = f"takes exactly {cls.functions} function"
                with pytest.raises(ConfigurationError, match=message):
                    residual(kind, (ShannonInfo(),) * count, None)

    @pytest.mark.parametrize("config", list(without_each_required_field()),
                             ids=lambda c: f"{c['job']}-{c.get('theorem', c.get('equation'))}")
    def test_dropping_any_field_names_it(self, tmp_path, monkeypatch, config):
        stub_sweeps(monkeypatch)
        with pytest.raises(Reached):
            run(config, out_dir=str(tmp_path))
        for name in config.keys() - {"schema", "job"}:
            partial = {k: v for k, v in config.items() if k != name}
            message = f"^config field '{name}' is required$"
            with pytest.raises(ConfigurationError, match=message):
                run(partial, out_dir=str(tmp_path))
        assert not (tmp_path / "report.json").exists()

    @pytest.mark.parametrize("theorem", sorted(THEOREM_FIELDS))
    def test_entries_match_their_certifier(self, theorem):
        """Each required field is one positional parameter without a default,
        and each optional field a parameter that accepts it by keyword."""
        import infostab.certifiers as certifiers
        import infostab.cli as cli

        certifier, _, fields = cli._THEOREMS[theorem]
        parameters = inspect.signature(getattr(certifiers, certifier)).parameters.values()
        positional = [p for p in parameters if p.default is p.empty
                      and p.kind in (p.POSITIONAL_ONLY, p.POSITIONAL_OR_KEYWORD)]
        keywords = {p.name for p in parameters
                    if p.kind in (p.POSITIONAL_OR_KEYWORD, p.KEYWORD_ONLY)}
        assert len(positional) == sum(1 for field in fields if len(field) == 2)
        assert {field[0] for field in fields if len(field) == 3} | {"jobs", "budget"} <= keywords


def with_field(config, path, value=True):
    """A deep copy of config with value set at path, a list of keys and
    indices whose last entry names the new field."""
    config = json.loads(json.dumps(config))
    *parents, name = path
    node = config
    for key in parents:
        node = node[key]
    node[name] = value
    return config


MEASURE_JOB = {"schema": 1, "job": "measure", "measure": NOISY_MEASURE, "resolution": 8}
FAMILY_SWEEP = {"schema": 1, "job": "sweep", "target": "fundamental", "alphas": [0.5],
                "family": {"a": 1.0, "b": 1.0}, "noise": {"height": 5e-4},
                "resolution": 16}
# (id, a config every reader accepts, the path of a field no reader reads)
UNREAD_FIELDS = [
    ("residual", {"schema": 1, "job": "residual", "equation": "fundamental",
                  "alpha": 0.5, "function": POWER,
                  "grid": {"kind": "triangle", "resolution": 8}}, ["epsilon_targte"]),
    ("grid", {"schema": 1, "job": "residual", "equation": "fundamental", "alpha": 0.5,
              "function": POWER, "grid": {"kind": "triangle", "resolution": 8}},
     ["grid", "closd"]),
    ("measure_sequence-statement",
     {"schema": 1, "job": "certify", "theorem": "measure_sequence", "generator": POWER,
      "epsilons": [1e-6, 1e-5], "alpha": 0.5, "levels": 3, "resolution": 8}, ["epsilon"]),
    ("measure_sequence-measure",
     {"schema": 1, "job": "certify", "theorem": "measure_sequence", "measure": NOISY_MEASURE,
      "levels": 3, "resolution": 8}, ["epsilons"]),
    ("measure_sequence-measure.field",
     {"schema": 1, "job": "certify", "theorem": "measure_sequence", "measure": NOISY_MEASURE,
      "levels": 3, "resolution": 8}, ["measure", "max_m"]),
    ("associativity",
     {"schema": 1, "job": "certify", "theorem": "associativity",
      "functions": [PHI_OF_SUM, PHI_OF_SUM], "resolution": 4,
      "intervals": [[0.0, 1.0], [0.0, 1.0], [0.0, 1.0]]}, ["bound"]),
    # fundamental_open: the config of the report that certified at R=16 and
    # echoed the misspelling; hyperstability takes `closed`
    *[(theorem, {"schema": 1, "job": "certify", "theorem": theorem, **fields},
       [{"fundamental_open": "resolutoin", "hyperstability": "margin"}.get(theorem, "closed")])
      for theorem, fields in THEOREM_FIELDS.items()],
    ("measure", MEASURE_JOB, ["tabluate"]),
    ("measure.field", MEASURE_JOB, ["measure", "perturbation"]),
    ("measure.perturbations", MEASURE_JOB, ["measure", "perturbations", 0, "sede"]),
    ("sweep-constants", {"schema": 1, "job": "sweep", "target": "constants", "alphas": [2.0]},
     ["family"]),
    ("sweep-family", FAMILY_SWEEP, ["resolutoin"]),
    ("family", FAMILY_SWEEP, ["family", "c"]),
    ("noise", FAMILY_SWEEP, ["noise", "widht"]),
    ("blowup", {"schema": 1, "job": "blowup", "function": NEG_FAMILY, "alpha": -1.0,
                "margins": [0.25, 0.125], "resolution": 16}, ["probe_resolution"]),
]


class TestUnreadFieldsAreRefused:
    """A field that no reader of its job reads exits 2 naming its dotted path,
    before any sweep runs and without writing a file."""

    @pytest.mark.parametrize("config, path", [case[1:] for case in UNREAD_FIELDS],
                             ids=[case[0] for case in UNREAD_FIELDS])
    def test_refused_before_any_sweep(self, tmp_path, capsys, monkeypatch, config, path):
        stub_sweeps(monkeypatch)
        with pytest.raises(Reached):
            run(config, out_dir=str(tmp_path))
        bad = tmp_path / "config.json"
        bad.write_text(json.dumps(with_field(config, path)))
        out = tmp_path / "out"
        assert main(["--config", str(bad), "--out", str(out)]) == EXIT_CONFIG
        dotted = "".join(f"[{k}]" if isinstance(k, int) else f".{k}" for k in path)[1:]
        assert f"error: config field '{dotted}' is unknown; known: " in capsys.readouterr().err
        assert list(out.iterdir()) == []

    @pytest.mark.parametrize("theorem, alpha, field", [
        ("fundamental_open", 0.5, "margins"), ("fundamental_closed", 0.5, "margins"),
        ("fundamental", 0.5, "margins"), ("hyperstability", -1.0, "probe_resolution"),
        ("fundamental_open", 0.5, "closed"), ("fundamental_closed", 0.5, "closed"),
        ("fundamental", 0.5, "closed"), ("hyperstability", -1.0, "epsilon"),
        ("fundamental", -1.0, "epsilon"),
    ])
    def test_probe_fields_only_where_the_probe_runs(
        self, tmp_path, monkeypatch, theorem, alpha, field
    ):
        """Fields only some fundamental theorems take: the probe's, `closed`
        (hyperstability's) and `epsilon` (the open and closed theorems')."""
        stub_sweeps(monkeypatch)
        value = {"closed": True, "epsilon": 0.5}.get(field, [0.25])
        config = certify_config(theorem, POWER, alpha, resolution=16, **{field: value})
        with pytest.raises(ConfigurationError, match=f"^config field '{field}' is unknown"):
            run(config, out_dir=str(tmp_path))
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("theorem", ["hyperstability", "fundamental"])
    def test_margins_add_the_blowup_profile_when_hyperstable(self, tmp_path, theorem):
        config = certify_config(theorem, NOISY_NEG, -1.0, resolution=16,
                                margins=[0.25, 0.125], probe_resolution=32)
        code, report = run_job(tmp_path, config)
        assert report["result"]["theorem"] == "hyperstability"
        assert [h for h, _ in report["result"]["blowup"]] == [0.25, 0.125]


class TestMain:
    def write_config(self, tmp_path, config):
        path = tmp_path / "config.json"
        path.write_text(json.dumps(config))
        return str(path)

    def test_successful_run_creates_out_dir(self, tmp_path):
        path = self.write_config(tmp_path, certify_config("fundamental", POWER, 0.5))
        out = tmp_path / "deep" / "nested"
        assert main(["--config", path, "--out", str(out)]) == EXIT_OK
        assert (out / "report.json").exists()

    def test_missing_config_file(self, tmp_path, capsys):
        code = main(["--config", str(tmp_path / "absent.json")])
        assert code == EXIT_CONFIG
        assert "absent.json" in capsys.readouterr().err

    def test_malformed_json(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        assert main(["--config", str(path)]) == EXIT_CONFIG
        assert capsys.readouterr().err.strip()

    def test_config_not_utf8_exits_two(self, tmp_path, capsys):
        path = tmp_path / "config.json"
        path.write_bytes(b'{"schema": 1, "job": "\xff"}')
        out = tmp_path / "out"
        assert main(["--config", str(path), "--out", str(out)]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith("error: cannot read config: ") and err.count("\n") == 1
        assert not out.exists()

    @pytest.mark.parametrize("blocked", ["out_under_a_file", "report_is_a_directory"])
    def test_unwritable_reports_exit_two(self, tmp_path, capsys, blocked):
        path = self.write_config(tmp_path, {"schema": 1, "job": "sweep",
                                            "target": "constants", "alphas": [2.0]})
        if blocked == "out_under_a_file":
            (tmp_path / "file").write_text("")
            out = tmp_path / "file" / "out"
        else:
            out = tmp_path / "out"
            (out / "report.json").mkdir(parents=True)
        assert main(["--config", path, "--out", str(out)]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith("error: cannot write reports: ") and err.count("\n") == 1

    def test_config_error_exits_two(self, tmp_path, capsys):
        path = self.write_config(tmp_path, {"schema": 1, "job": "launch"})
        assert main(["--config", path, "--out", str(tmp_path / "o")]) == EXIT_CONFIG
        assert "launch" in capsys.readouterr().err

    def test_alpha_one_exits_two(self, tmp_path, capsys):
        fam = {"kind": "power_family", "a": 1.0, "b": 1.0, "alpha": 1.0}
        path = self.write_config(tmp_path, certify_config("fundamental", fam, 1.0))
        assert main(["--config", path, "--out", str(tmp_path / "o")]) == EXIT_CONFIG
        assert capsys.readouterr().err.strip()

    def test_dump_defects_flag(self, tmp_path):
        config = {"schema": 1, "job": "residual", "equation": "fundamental",
                  "alpha": 0.5, "function": NOISY_POWER,
                  "grid": {"kind": "triangle", "resolution": 32}}
        path = self.write_config(tmp_path, config)
        out = tmp_path / "out"
        code = main(["--config", path, "--out", str(out), "--dump-defects"])
        assert code == EXIT_OK
        assert (out / "defects.csv").exists()

    def test_process_entry_point_writes_the_same_report(self, tmp_path):
        # a fresh python -m infostab process writes the report the in-process run writes
        config = certify_config("fundamental", NOISY_POWER, 0.5, resolution=256)
        path = self.write_config(tmp_path, config)
        out = tmp_path / "out"
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
        proc = subprocess.run(
            [sys.executable, "-m", "infostab", "--config", path, "--out", str(out)],
            env=env, capture_output=True, timeout=120,
        )
        assert proc.returncode == EXIT_OK, proc.stderr
        assert run(config, out_dir=str(tmp_path)) == EXIT_OK
        assert (out / "report.json").read_bytes() == (tmp_path / "report.json").read_bytes()

    def test_jobs_flag(self, tmp_path):
        path = self.write_config(tmp_path, certify_config("fundamental", POWER, 0.5))
        out = tmp_path / "out"
        assert main(["--config", path, "--out", str(out), "--jobs", "4"]) == EXIT_OK

    @pytest.mark.parametrize("jobs", [0, -1])
    def test_jobs_below_one_exits_two(self, tmp_path, capsys, jobs):
        path = self.write_config(tmp_path, certify_config("fundamental", POWER, 0.5))
        out = tmp_path / "out"
        assert main(["--config", path, "--out", str(out), "--jobs", str(jobs)]) == EXIT_CONFIG
        assert "--jobs" in capsys.readouterr().err
        assert not (out / "report.json").exists()
        with pytest.raises(ConfigurationError, match="--jobs"):
            run(certify_config("fundamental", POWER, 0.5), out_dir=str(out), jobs=jobs)

    def test_violation_passes_through(self, tmp_path):
        config = {"schema": 1, "job": "residual", "equation": "fundamental",
                  "alpha": 0.5, "function": NOISY_POWER, "epsilon_target": 1e-9,
                  "grid": {"kind": "triangle", "resolution": 32}}
        path = self.write_config(tmp_path, config)
        code = main(["--config", path, "--out", str(tmp_path / "o")])
        assert code == EXIT_VIOLATION

    @pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
    @pytest.mark.parametrize("bad", [float("nan"), float("inf")])
    @pytest.mark.parametrize("job", ["residual", "certify"])
    def test_nonfinite_defect_exits_two_without_report(self, tmp_path, capsys, bad, job):
        sample = config_of(sampled(PowerFamily(1.0, 1.0, 0.5), 64))
        sample["ys"][20] = bad
        if job == "certify":
            config = certify_config("fundamental", sample, 0.5)
        else:
            config = {"schema": 1, "job": "residual", "equation": "fundamental",
                      "alpha": 0.5, "function": sample,
                      "grid": {"kind": "triangle", "resolution": 64}}
        path = self.write_config(tmp_path, config)
        for jobs in ("1", "2"):
            out = tmp_path / f"out{jobs}"
            assert main(["--config", path, "--out", str(out), "--jobs", jobs]) == EXIT_CONFIG
            assert "NaN or infinite" in capsys.readouterr().err
            assert not (out / "report.json").exists()
        with pytest.raises(NonFiniteDefectError):
            run(config, out_dir=str(tmp_path))
        assert not (tmp_path / "report.json").exists()


def nan_node_sample():
    sample = config_of(sampled(PowerFamily(1.0, 1.0, 0.5), 64))
    sample["ys"][20] = float("nan")
    return sample


def triangle_residual(function, **grid):
    return {"schema": 1, "job": "residual", "equation": "fundamental", "alpha": 0.5,
            "function": function, "grid": {"kind": "triangle", "resolution": 16, **grid}}


KAPPA_HALF = 1.0 / (2.0**0.5 - 1.0)
MEASURE = {"generator": {"kind": "power_family", "a": KAPPA_HALF, "b": KAPPA_HALF,
                         "alpha": 0.5}, "alpha": 0.5, "max_n": 4}
CONE_JOBS = {
    "entropy_equation": {"function": {"kind": "entropy_solution", "scale": 0.7, "alpha": 2.0},
                         "alpha": 2.0},
    "modified_entropy": {"function": {"kind": "modified_entropy_solution", "coeff": 0.4,
                                      "alpha": 2.0, "phi": {"kind": "xlog2", "scale": 1.0}},
                         "alpha": 2.0, "n": 1.0},
}


class TestMalformedValues:
    """A config value of the wrong type exits 2 with a message naming its
    field, and writes no report."""

    @pytest.mark.parametrize("config, message", [
        (triangle_residual({**POWER, "a": "x"}), "field 'a' of scalar function kind"),
        (triangle_residual({**POWER, "a": True}), "must be a real number, got True"),
        (triangle_residual({**POWER, "a": [1.0]}), "must be a real number, got [1.0]"),
        (triangle_residual({"kind": "grid_sample", "xs": [0.0, "a", 1.0],
                            "ys": [0.0, 1.0, 2.0]}),
         "field 'xs' of scalar function kind 'grid_sample' must be a list of real numbers"),
        (triangle_residual(POWER, closed="false"),
         "config field 'closed' must be true or false, got 'false'"),
        (certify_config("hyperstability", NEG_FAMILY, -1.0, closed=1),
         "config field 'closed' must be true or false, got 1"),
        ({"schema": 1, "job": "certify", "theorem": "measure_sequence", "measure": MEASURE,
          "alpha": "x", "levels": 4, "resolution": 16},
         "config field 'alpha' must be a number, got 'x'"),
        ({"schema": 1, "job": "measure", "measure": {**NOISY_MEASURE, "perturbations": 5},
          "resolution": 8}, "config field 'measure.perturbations' must list objects"),
        ({"schema": 1, "job": "measure", "measure": NOISY_MEASURE, "resolution": 8,
          "tabulate": 1}, "config field 'tabulate' must lie in [2, max_n=4], got 1"),
        ({"schema": 1, "job": "measure", "measure": NOISY_MEASURE, "resolution": 8,
          "tabulate": 9}, "config field 'tabulate' must lie in [2, max_n=4], got 9"),
        ({**triangle_residual(POWER), "epsilon_target": -1},
         "config field 'epsilon_target' must be nonnegative, got -1.0"),
        ({"schema": 1, "job": "certify", "theorem": "associativity",
          "functions": [PHI_OF_SUM, PHI_OF_SUM], "resolution": 8,
          "intervals": [[False, True], [0.0, 1.0], [0.0, 1.0]]},
         "config field 'intervals[0]' must be a number, got False"),
        (certify_config("fundamental_open", 5, 0.5),
         "config field 'function' must be a function descriptor object"),
        (certify_config("fundamental_open", {"kind": "sum", "terms": 5}, 0.5),
         "config field 'function' is malformed: "),
        ({**triangle_residual(POWER), "grid": 5}, "config field 'grid' must be an object"),
        ({"schema": 1, "job": "measure", "measure": 5, "resolution": 8},
         "config field 'measure' must be an object"),
        ({"schema": 1, "job": "certify", "theorem": "associativity",
          "functions": [PHI_OF_SUM, PHI_OF_SUM], "resolution": 8,
          "intervals": [[0.0, 1.0], [0.0, 1.0]]},
         "config field 'intervals' must list three (lo, hi) pairs"),
        ({"schema": 1, "job": "sweep", "target": "fundamental", "alphas": [0.5],
          "family": 5, "resolution": 16},
         "config field 'family' must be an object with a, b"),
        ({"schema": 1, "job": "measure", "resolution": 8, "measure": {
            **NOISY_MEASURE, "perturbations": [{"level": 3, "height": 5e-5, "seed": -7}]}},
         "error: noise seed must be nonnegative, got -7"),
        (certify_config("entropy_equation", {"kind": "sum3", "terms": [
            ENTROPY_SOLUTION, {"kind": "wave3", "height": 1e-4, "seed": -1}]}, 2.0,
            resolution=6), "error: noise seed must be nonnegative, got -1"),
    ], ids=["string", "bool", "list", "grid_sample", "closed_string", "closed_int",
            "measure_alpha", "perturbations_not_a_list", "tabulate_low", "tabulate_high",
            "epsilon_target_negative", "interval_bool", "function_not_an_object",
            "function_builder_type_error", "grid_not_an_object", "measure_not_an_object",
            "intervals_not_three", "family_not_an_object", "level_noise_seed",
            "wave3_seed"])
    def test_exits_two_without_report(self, tmp_path, capsys, monkeypatch, config, message):
        stub_sweeps(monkeypatch)
        path = tmp_path / "config.json"
        path.write_text(json.dumps(config))
        out = tmp_path / "out"
        assert main(["--config", str(path), "--out", str(out)]) == EXIT_CONFIG
        assert message in capsys.readouterr().err
        assert not (out / "report.json").exists()

    @pytest.mark.parametrize("config, message", [
        (certify_config("hyperstability", NEG_FAMILY, -1.0, margins=[0.5, 0.7]),
         "margins must decrease strictly toward 0"),
        (certify_config("hyperstability", NEG_FAMILY, -1.0, margins=[1.5]),
         "margins must lie strictly between 0 and 1"),
        (certify_config("hyperstability", NEG_FAMILY, -1.0, margins=[0.5], probe_resolution=2),
         "needs resolution >= 3, got 2"),
        (certify_config("hyperstability", NEG_FAMILY, -1.0, margins=[0.5], budget=10**5),
         "2094081 defect samples exceed the budget of 100000"),
        (certify_config("fundamental_open", POWER, 0.5, epsilon=-1.0),
         "epsilon must be finite and nonnegative, got -1.0"),
        (certify_config("fundamental_closed", POWER, 0.5, epsilon=-1.0),
         "epsilon must be finite and nonnegative, got -1.0"),
        (certify_config("hyperstability", NEG_FAMILY, -1.0, margins=[0.9375, 0.5],
                        probe_resolution=16),
         "margin 0.9375 leaves no point of the resolution-16 lattice"),
    ], ids=["margins_increase", "margin_above_one", "probe_resolution", "probe_budget",
            "epsilon_open", "epsilon_closed", "margin_without_points"])
    def test_refused_before_the_certificate(self, tmp_path, capsys, monkeypatch, config, message):
        # a spy on the certifier alone: the checks live in certifiers helpers,
        # which stub_sweeps would replace too
        import infostab.cli as cli

        calls = []
        monkeypatch.setattr(cli, "certify_hyperstable", lambda *a, **k: calls.append(a))
        path = tmp_path / "config.json"
        path.write_text(json.dumps(config))
        out = tmp_path / "out"
        assert main(["--config", str(path), "--out", str(out)]) == EXIT_CONFIG
        assert message in capsys.readouterr().err
        assert not (out / "report.json").exists()
        assert calls == []

    def test_fundamental_alpha_one_refused_at_dispatch(self, tmp_path, capsys, monkeypatch):
        # refused before the other fields are read, so a malformed function goes unread
        import infostab.cli as cli

        calls = []
        monkeypatch.setattr(cli, "certify_fundamental_open", lambda *a, **k: calls.append(a))
        for function in (POWER, 5):
            config = certify_config("fundamental", function, 1.0)
            with pytest.raises(DispatchError, match="^alpha = 1 is outside the method"):
                run(config, out_dir=str(tmp_path))
            path = tmp_path / "config.json"
            path.write_text(json.dumps(config))
            out = tmp_path / "out"
            assert main(["--config", str(path), "--out", str(out)]) == EXIT_CONFIG
            assert capsys.readouterr().err.startswith("error: alpha = 1 is outside the method")
            assert list(out.iterdir()) == []
        assert calls == []

    def test_supplied_zero_bounds_are_accepted(self, tmp_path):
        for config in (certify_config("fundamental_open", POWER, 0.5, epsilon=-0.0),
                       {**triangle_residual(POWER), "epsilon_target": -0.0}):
            assert run_job(tmp_path, config)[0] == EXIT_OK

    @pytest.mark.parametrize("closed, samples", [(False, 105), (True, 151)])
    def test_closed_reads_a_boolean(self, tmp_path, closed, samples):
        code, report = run_job(tmp_path, triangle_residual(POWER, closed=closed))
        assert code == EXIT_OK and report["result"]["samples"] == samples

    def test_measure_alpha_may_be_given(self, tmp_path):
        config = {"schema": 1, "job": "certify", "theorem": "measure_sequence",
                  "measure": MEASURE, "alpha": 0.5, "levels": 4, "resolution": 16}
        code, report = run_job(tmp_path, config)
        assert code == EXIT_OK and report["result"]["satisfied"] is True

    @pytest.mark.parametrize("theorem", list(CONE_JOBS))
    def test_cone_budget_covers_the_symmetry_sweep(self, tmp_path, capsys, theorem):
        config = {"schema": 1, "job": "certify", "theorem": theorem, "resolution": 20,
                  "budget": 16000, **CONE_JOBS[theorem]}
        path = tmp_path / "config.json"
        path.write_text(json.dumps(config))
        out = tmp_path / "out"
        assert main(["--config", str(path), "--out", str(out)]) == EXIT_CONFIG
        assert "48000 defect samples exceed the budget of 16000" in capsys.readouterr().err
        assert not (out / "report.json").exists()
        assert run({**config, "budget": 48000}, out_dir=str(tmp_path)) == EXIT_OK

    @pytest.mark.parametrize("job, budget, samples", [
        ("entropy_equation", 7999, 48000), ("entropy_equation", 16000, 48000),
        ("modified_entropy", 7999, 8000), ("modified_entropy", 16000, 48000),
        ("residual", 7999, 8000), ("residual", 16000, None),
    ])
    def test_cone_jobs_refuse_through_the_sweep_budget(self, tmp_path, capsys, job, budget,
                                                       samples):
        # the R = 20 cone holds 8,000 points and no budget of its own: each
        # sweep refuses its own samples, the symmetry sweep's 6 R^3 included
        if job == "residual":
            config = {"schema": 1, "job": "residual", "equation": "entropy",
                      "function": ENTROPY_SOLUTION, "grid": {**CONE, "resolution": 20}}
        else:
            config = {"schema": 1, "job": "certify", "theorem": job, "resolution": 20,
                      **CONE_JOBS[job]}
        path = tmp_path / "config.json"
        path.write_text(json.dumps({**config, "budget": budget}))
        for jobs in ("1", "2"):
            out = tmp_path / f"out{jobs}"
            code = main(["--config", str(path), "--out", str(out), "--jobs", jobs])
            err = capsys.readouterr().err
            if samples is None:
                assert (code, err) == (EXIT_OK, "")
                continue
            assert code == EXIT_CONFIG
            assert err == f"error: {samples} defect samples exceed the budget of {budget}\n"
            assert list(out.iterdir()) == []


@pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
class TestNonFiniteReports:
    def run_main(self, tmp_path, text):
        path = tmp_path / "config.json"
        path.write_text(text)
        out = tmp_path / "out"
        code = main(["--config", str(path), "--out", str(out)])
        return code, out

    @pytest.mark.parametrize("theorem", ["fundamental_open", "fundamental_closed"])
    def test_supplied_epsilon_nan_distance(self, tmp_path, capsys, theorem):
        config = certify_config(theorem, nan_node_sample(), 0.5, epsilon=1e-3)
        with pytest.raises(NonFiniteDefectError, match="the first at \\(0.3125,\\)"):
            run(config, out_dir=str(tmp_path))
        assert not (tmp_path / "report.json").exists()
        code, out = self.run_main(tmp_path, json.dumps(config))
        assert code == EXIT_CONFIG
        assert "NaN or infinite" in capsys.readouterr().err
        assert not (out / "report.json").exists()

    @pytest.mark.parametrize("literal", ["NaN", "Infinity", "-Infinity"])
    def test_main_refuses_nonfinite_literals(self, tmp_path, capsys, literal):
        text = (
            '{"schema": 1, "job": "sweep", "target": "constants", "alphas": [2.0], '
            f'"note": {literal}}}'
        )
        code, out = self.run_main(tmp_path, text)
        assert code == EXIT_CONFIG
        assert literal in capsys.readouterr().err
        assert not (out / "report.json").exists()

    def test_constants_sweep_with_nan_alpha(self, tmp_path, capsys):
        text = '{"schema": 1, "job": "sweep", "target": "constants", "alphas": [NaN, 645.0]}'
        code, out = self.run_main(tmp_path, text)
        assert code == EXIT_CONFIG
        assert not (out / "report.json").exists()
        config = {"schema": 1, "job": "sweep", "target": "constants",
                  "alphas": [float("nan"), 645.0]}
        with pytest.raises(UnsupportedParameterError):
            run(config, out_dir=str(tmp_path))
        assert not (tmp_path / "report.json").exists()

    @pytest.mark.parametrize("alpha", [645.0, 646.0, 1e-17])
    def test_constants_sweep_without_finite_constant(self, tmp_path, capsys, alpha):
        config = {"schema": 1, "job": "sweep", "target": "constants", "alphas": [alpha]}
        with pytest.raises(UnsupportedParameterError):
            run(config, out_dir=str(tmp_path))
        code, out = self.run_main(tmp_path, json.dumps(config))
        assert code == EXIT_CONFIG
        assert "not a finite float" in capsys.readouterr().err
        assert not (out / "report.json").exists()

    @pytest.mark.parametrize("config, message", [
        (certify_config("hyperstability", NEG_FAMILY, -2000.0, resolution=16),
         "the anchor system at alpha = -2000.0"),
        ({"schema": 1, "job": "sweep", "target": "fundamental", "alphas": [-1.0, -2000.0],
          "family": {"a": 1.0, "b": 1.0}, "resolution": 16},
         "the anchor system at alpha = -2000.0"),
        ({"schema": 1, "job": "certify", "theorem": "measure_sequence",
          "measure": {**MEASURE, "alpha": 1e-300}, "levels": 4, "resolution": 16},
         "K(1e-300)"),
        ({"schema": 1, "job": "residual", "equation": "sum_form_alpha",
          **EQUATION_FIELDS["sum_form_alpha"], "alpha": -2000.0},
         "2**(1 - alpha) at alpha = -2000.0"),
        (certify_config("entropy_equation", ENTROPY_SOLUTION, 2000.0, resolution=6),
         "4**|alpha| at alpha = 2000.0"),
    ], ids=["hyperstable_fit", "sweep_hyperstable_fit", "power_fit", "sum_form_alpha",
            "homogeneity"])
    def test_alpha_arithmetic_refused_before_any_sweep(
        self, tmp_path, capsys, monkeypatch, config, message
    ):
        import infostab.certifiers as certifiers
        import infostab.equations as equations
        import infostab.measures as measures

        def reached(*args, **kwargs):
            raise Reached

        for module in (certifiers, equations, measures):
            monkeypatch.setattr(module, "_sweep", reached)
        code, out = self.run_main(tmp_path, json.dumps(config))
        assert code == EXIT_CONFIG
        assert capsys.readouterr().err == f"error: {message} is not a finite float\n"
        assert list(out.iterdir()) == []

    def test_report_with_nonfinite_value_is_not_written(self, tmp_path):
        # only run() can receive a NaN config value; main refuses the literal
        config = {"schema": 1, "job": "residual", "equation": "fundamental", "alpha": 0.5,
                  "function": POWER, "grid": {"kind": "triangle", "resolution": 16},
                  "epsilon_target": float("inf")}
        with pytest.raises(NonFiniteDefectError, match="report.json"):
            run(config, out_dir=str(tmp_path))
        assert list(tmp_path.iterdir()) == []

    def test_defects_without_report_are_not_written(self, tmp_path):
        config = {"schema": 1, "job": "residual", "equation": "fundamental", "alpha": 0.5,
                  "function": POWER, "grid": {"kind": "triangle", "resolution": 16},
                  "epsilon_target": float("inf")}
        with pytest.raises(NonFiniteDefectError, match="report.json"):
            run(config, out_dir=str(tmp_path), dump_defects=True)
        assert list(tmp_path.iterdir()) == []

    def test_defects_summing_past_the_float_range(self, tmp_path, capsys):
        # the mean of finite defects is finite; the certificate's distance is not
        huge = {"kind": "sum", "terms": [POWER, dict(BUMP, height=1e307)]}
        code, out = self.run_main(tmp_path, json.dumps(triangle_residual(huge)))
        assert code == EXIT_OK
        result = json.loads((out / "report.json").read_text())["result"]
        assert 0.0 < result["mean"] < result["sup"] < float("inf")
        config = certify_config("fundamental_open", huge, 0.5, resolution=16)
        (tmp_path / "certify").mkdir()
        code, out = self.run_main(tmp_path / "certify", json.dumps(config))
        assert code == EXIT_CONFIG
        assert capsys.readouterr().err == (
            "error: report.json would hold a NaN or infinite value in field 'result.bound'\n"
        )
        assert not (out / "report.json").exists()

    def test_first_non_finite_field_in_report_order(self):
        nan, inf = float("nan"), float("inf")
        payload = {"result": {"rows": [[0.5, 1.0], [0.25, inf]], "bound": 2.0,
                              "certificates": [{"epsilon": 1.0}, {"epsilon": nan}]},
                   "config": {"alpha": 0.5, "margins": (0.25, -inf)}}
        assert _non_finite_field(payload) == "config.margins[1]"
        del payload["config"]
        # sorted keys: certificates before rows
        assert _non_finite_field(payload) == "result.certificates[1].epsilon"
        assert _non_finite_field({"result": {"bound": 1.0, "note": "inf"}}) is None

    @pytest.mark.parametrize("config, message", [
        ({"schema": 1, "job": "blowup", "alpha": -2000.0, "margins": [0.25], "resolution": 512,
          "function": {"kind": "power_family", "a": 1.0, "b": 1.0, "alpha": -2000.0}},
         "130305 of 130305 defects are NaN or infinite, the first at (0.001953125, 0.001953125)"),
        ({"schema": 1, "job": "certify", "theorem": "modified_entropy", "alpha": 2000.0,
          "n": 1.0, "resolution": 40, "function": {**MODIFIED_SOLUTION, "alpha": 2000.0}},
         "11040 of 64000 defects are NaN or infinite, the first at (0.025, 0.45, 1.0)"),
        ({"schema": 1, "job": "certify", "theorem": "sum_form_mixed", "alpha": -2000.0,
          "beta": 2.0, "n": 3, "m": 3, "resolution": 8,
          "function": {"kind": "power_law", "scale": 0.6, "alpha": 0.5}},
         "1890 of 2025 defects are NaN or infinite, "
         "the first at (0.0, 0.125, 0.875, 0.0, 0.0, 1.0)"),
        ({"schema": 1, "job": "measure", "resolution": 8, "measure": {
            "generator": {"kind": "power_family", "a": -2.0, "b": -2.0, "alpha": -2000.0},
            "alpha": -2000.0, "max_n": 4}},
         "14 of 14 defects are NaN or infinite, the first at (0.125, 0.875)"),
    ], ids=["blowup", "modified_entropy", "sum_form_mixed", "measure"])
    def test_extreme_alpha_prints_only_the_error(self, tmp_path, capsys, config, message):
        # numpy's overflow and invalid-value warnings stay off in every
        # sweep thread; the sweep itself reports the NaN and infinite defects
        path = tmp_path / "config.json"
        path.write_text(json.dumps(config))
        for jobs in ("1", "2"):
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                code = main(["--config", str(path), "--out", str(tmp_path / "out"),
                             "--jobs", jobs])
            assert code == EXIT_CONFIG
            assert capsys.readouterr().err == f"error: {message}\n"
            assert [str(w.message) for w in caught] == []
            assert list((tmp_path / "out").iterdir()) == []

    @pytest.mark.parametrize("text", [
        '{"schema": 1, "job": "certify", "theorem": "entropy_equation", "resolution": 6, '
        '"function": {"kind": "entropy_solution", "scale": 0.7, "alpha": 2.0}, '
        '"alpha": 2.0, "bound": 1e309}',
        '{"schema": 1, "job": "certify", "theorem": "modified_entropy", "resolution": 6, '
        '"function": {"kind": "modified_entropy_solution", "coeff": 0.4, "alpha": 2.0, '
        '"phi": {"kind": "xlog2", "scale": 1.0}}, "alpha": 2.0, "n": 1e309}',
        '{"schema": 1, "job": "residual", "equation": "entropy", '
        '"function": {"kind": "entropy_solution", "scale": 0.7, "alpha": 2.0}, '
        '"grid": {"kind": "cone", "resolution": 6, "bound": 1e309}}',
    ], ids=["entropy_bound", "modified_entropy_n", "cone_residual_bound"])
    def test_overflowing_box_bound_is_refused(self, tmp_path, capsys, text):
        # json reads 1e309 as inf, which is no NaN or infinite literal; the box
        # refuses it before any node is computed
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code, out = self.run_main(tmp_path, text)
        assert code == EXIT_CONFIG
        assert capsys.readouterr().err == "error: cone bound must be positive and finite, got inf\n"
        assert [str(w.message) for w in caught] == []
        assert list(out.iterdir()) == []

    @pytest.mark.parametrize("config", [
        {"schema": 1, "job": "sweep", "target": "constants", "alphas": ["x"]},
        certify_config("hyperstability", NEG_FAMILY, -1.0, resolution=16, margins=["x"]),
        certify_config("hyperstability", NEG_FAMILY, -1.0, resolution=16, margins=0.5),
        {"schema": 1, "job": "blowup", "function": NEG_FAMILY, "alpha": -1.0,
         "margins": ["x"], "resolution": 16},
        {"schema": 1, "job": "certify", "theorem": "measure_sequence", "generator": POWER,
         "epsilons": ["x", 0.1], "alpha": 0.5, "levels": 3, "resolution": 8},
    ])
    def test_malformed_number_list_is_a_config_error(self, tmp_path, capsys, config):
        code, out = self.run_main(tmp_path, json.dumps(config))
        assert code == EXIT_CONFIG
        assert capsys.readouterr().err.startswith("error: config field ")
        assert list(out.iterdir()) == []


class TestDispatchLooksUpCertifiers:
    """The fundamental dispatch must call the certifiers through this module's
    names at call time, so a wrapper installed on cli.certify_* sees them."""

    NOISY_NEG = {"kind": "sum", "terms": [NEG_FAMILY, dict(BUMP, height=0.05)]}

    def configs(self):
        phi = {"kind": "phi_of_sum",
               "phi": {"kind": "power_law", "scale": 1.0, "alpha": 2.0}}
        yield certify_config("fundamental", POWER, 0.5, resolution=16)
        yield certify_config("fundamental_closed", POWER, 0.5, resolution=16)
        yield certify_config("fundamental", self.NOISY_NEG, -1.0, resolution=16,
                             margins=[0.25, 0.125], probe_resolution=32)
        yield {"schema": 1, "job": "certify", "theorem": "measure_sequence",
               "generator": POWER, "epsilons": [1e-6, 1e-5], "alpha": 0.5,
               "levels": 3, "resolution": 8}
        yield {"schema": 1, "job": "certify", "theorem": "entropy_equation",
               "function": {"kind": "entropy_solution", "scale": 0.7, "alpha": 2.0},
               "alpha": 2.0, "resolution": 6}
        yield {"schema": 1, "job": "certify", "theorem": "associativity",
               "functions": [phi, phi], "resolution": 4,
               "intervals": [[0.0, 1.0], [0.0, 1.0], [0.0, 1.0]]}
        yield {"schema": 1, "job": "certify", "theorem": "modified_entropy",
               "function": {"kind": "modified_entropy_solution", "coeff": 0.4,
                            "alpha": 2.0, "phi": {"kind": "xlog2", "scale": 1.0}},
               "alpha": 2.0, "n": 1.0, "resolution": 6}
        yield {"schema": 1, "job": "certify", "theorem": "sum_form",
               "function": POWER, "n": 3, "resolution": 4}
        yield {"schema": 1, "job": "certify", "theorem": "sum_form_multiplicative",
               "function": POWER, "n": 3, "m": 3, "resolution": 3}
        yield {"schema": 1, "job": "certify", "theorem": "sum_form_mixed",
               "function": POWER, "n": 3, "m": 3, "alpha": 0.5, "beta": 2.0,
               "resolution": 3}
        for target, alphas in (("fundamental", [-1.0, 0.5]), ("fundamental_open", [0.5]),
                               ("fundamental_closed", [0.5]), ("hyperstability", [-1.0])):
            yield {"schema": 1, "job": "sweep", "target": target, "alphas": alphas,
                   "family": {"a": 1.0, "b": 1.0}, "noise": {"height": 5e-4},
                   "resolution": 16}
        yield {"schema": 1, "job": "blowup", "function": self.NOISY_NEG, "alpha": -1.0,
               "margins": [0.25, 0.125], "resolution": 32}

    def test_every_certifier_call_goes_through_cli_names(self, tmp_path, monkeypatch):
        import infostab.cli as cli

        names = [n for n in vars(cli) if n.startswith("certify_")]
        names.append("hyperstability_blowup_probe")
        assert len(names) == 11
        calls = dict.fromkeys(names, 0)

        def counting(name, fn):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)

            return wrapper

        for name in names:
            monkeypatch.setattr(cli, name, counting(name, getattr(cli, name)))
        for i, config in enumerate(self.configs()):
            out = tmp_path / str(i)
            out.mkdir()
            run(config, out_dir=str(out))
        assert [n for n, c in calls.items() if c == 0] == []
