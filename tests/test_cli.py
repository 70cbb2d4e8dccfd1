import dataclasses
import hashlib
import json
import warnings
from pathlib import Path

import numpy as np
import pytest

from koopgram.cli import main
from koopgram.pipeline import (
    ARTIFACT_NAMES,
    _DATA_DEFAULTS,
    _SEED_DATA,
    MissingArtifactError,
    PipelineConfig,
    run_pipeline,
    stage_balance,
    stage_certify,
    stage_decompose,
    stage_fit_koopman,
    stage_report,
    stage_simulate,
)


# midway between the two largest default drift initial states of a
# one-dimensional system at seed 0
ONE_ESCAPE = float(np.mean(np.sort(np.random.default_rng([0, _SEED_DATA]).uniform(
    -_DATA_DEFAULTS["box"], _DATA_DEFAULTS["box"], size=_DATA_DEFAULTS["trajectories"]))[-2:]))


def small_config(tmp_path, **overrides):
    base: dict = {
        "system": "tanh_first_order",
        "reduction_orders": [1],
        "output_dir": str(tmp_path / "out"),
        "seed": 0,
        "ensemble_count": 3,
        "ode_tol": 1e-7,
    }
    base.update(overrides)
    return base


def write_config(tmp_path, **overrides):
    cfg = small_config(tmp_path, **overrides)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(cfg))
    return path, cfg


class TestPipelineConfig:
    def test_requires_orders(self):
        with pytest.raises(ValueError, match="nonempty"):
            PipelineConfig(system="tanh_first_order", reduction_orders=[])

    def test_rejects_small_slack(self):
        with pytest.raises(ValueError, match="slack"):
            PipelineConfig(system="tanh_first_order", reduction_orders=[1], slack=0.5)

    def test_unknown_config_keys_rejected(self, tmp_path):
        path = tmp_path / "config.json"
        path.write_text(json.dumps({"system": "tanh_first_order", "reduction_orders": [1], "bogus": 1}))
        with pytest.raises(ValueError, match="unknown config keys"):
            PipelineConfig.from_file(path)

    def test_overrides(self, tmp_path):
        path, _ = write_config(tmp_path)
        cfg = PipelineConfig.from_file(path, {"seed": 7, "slack": None})
        assert cfg.seed == 7


class TestStages:
    def test_run_produces_all_artifacts(self, tmp_path):
        path, raw = write_config(tmp_path)
        cfg = PipelineConfig.from_file(path)
        report, code = run_pipeline(cfg, verbose=False)
        assert code == 0
        out = Path(raw["output_dir"])
        for name in ARTIFACT_NAMES.values():
            assert (out / name).exists()
        assert (out / "report.csv").exists()
        assert report["rows"][0]["verdict"] in ("PASS", "SKIPPED-SMALL-GAIN")

    def test_stage_order_enforced(self, tmp_path):
        _, raw = write_config(tmp_path)
        cfg = PipelineConfig(**raw)
        with pytest.raises(MissingArtifactError, match="fit-koopman"):
            stage_decompose(cfg)

    def test_missing_artifact_names_earliest_stage(self, tmp_path):
        _, raw = write_config(tmp_path)
        cfg = PipelineConfig(**raw)
        stage_fit_koopman(cfg)
        for stage in (stage_certify, stage_simulate):
            with pytest.raises(MissingArtifactError, match="run the 'decompose' stage first"):
                stage(cfg)

    def test_stage_composition_equals_run(self, tmp_path):
        _, raw_a = write_config(tmp_path, output_dir=str(tmp_path / "a"))
        cfg_a = PipelineConfig(**raw_a)
        report_a, _ = run_pipeline(cfg_a, verbose=False)

        raw_b = dict(raw_a, output_dir=str(tmp_path / "b"))
        cfg_b = PipelineConfig(**raw_b)
        stage_fit_koopman(cfg_b)
        stage_decompose(cfg_b)
        stage_balance(cfg_b)
        stage_certify(cfg_b)
        stage_simulate(cfg_b)
        report_b, _ = stage_report(cfg_b)

        report_b["config"]["output_dir"] = report_a["config"]["output_dir"]
        assert report_a == report_b

    def test_rerun_is_byte_identical(self, tmp_path):
        path, raw = write_config(tmp_path)
        cfg = PipelineConfig.from_file(path)
        out = Path(raw["output_dir"])

        def digest():
            return {
                name: hashlib.sha256((out / name).read_bytes()).hexdigest()
                for name in ARTIFACT_NAMES.values()
            }

        run_pipeline(cfg, verbose=False)
        first = digest()
        run_pipeline(cfg, verbose=False)
        assert digest() == first

    def test_orders_validated_against_lifted_dimension(self, tmp_path):
        # q = 1 for tanh_first_order: every stage that takes the orders
        # rejects order 5, also when the earlier stages ran with valid ones
        _, raw = write_config(tmp_path, reduction_orders=[1])
        cfg = PipelineConfig(**raw)
        stage_fit_koopman(cfg)
        stage_decompose(cfg)
        stage_balance(cfg)
        bad = PipelineConfig(**{**raw, "reduction_orders": [1, 5]})
        for stage in (stage_fit_koopman, stage_decompose, stage_certify, stage_simulate):
            with pytest.raises(ValueError, match="exceed"):
                stage(bad)

    def test_certify_computes_order_independent_terms_once(self, tmp_path, monkeypatch):
        from koopgram import certify, pipeline

        orders = [1, 2, 4]
        _, raw = write_config(tmp_path, system="lti6", reduction_orders=orders)
        cfg = PipelineConfig(**raw)
        stage_fit_koopman(cfg)
        stage_decompose(cfg)
        stage_balance(cfg)

        calls = {"hinf_norm": 0, "factor_error_full": 0}

        def counted_hinf(original):
            def hinf_norm(*args, **kwargs):
                calls["hinf_norm"] += 1
                return original(*args, **kwargs)

            return hinf_norm

        def factor_error(bn, reduced=None, **kwargs):
            calls["factor_error_full"] += reduced is None
            return original_factor_error(bn, reduced=reduced, **kwargs)

        original_factor_error = pipeline.factor_error
        for module in (pipeline, certify):
            monkeypatch.setattr(module, "hinf_norm", counted_hinf(module.hinf_norm))
        monkeypatch.setattr(pipeline, "factor_error", factor_error)
        stage_certify(cfg)
        assert calls == {"hinf_norm": 2 + len(orders), "factor_error_full": 1}

    def test_one_balanced_nonlinear_serves_every_order(self, tmp_path, monkeypatch):
        from koopgram import pipeline

        _, raw = write_config(
            tmp_path, system="slow_manifold", reduction_orders=[1, 2, 3], ensemble_count=1
        )
        cfg = PipelineConfig(**raw)
        stage_fit_koopman(cfg)
        stage_decompose(cfg)
        stage_balance(cfg)

        calls = []
        original = pipeline.balanced_nonlinear

        def balanced_nonlinear(*args, **kwargs):
            calls.append(1)
            return original(*args, **kwargs)

        monkeypatch.setattr(pipeline, "balanced_nonlinear", balanced_nonlinear)
        for stage in (stage_certify, stage_simulate):
            calls.clear()
            stage(cfg)
            assert len(calls) == 1, stage.__name__

    def test_simulate_integrates_full_system_once_per_signal(self, tmp_path, monkeypatch):
        from koopgram import harness

        orders = [1, 2]
        _, raw = write_config(
            tmp_path, system="slow_manifold", reduction_orders=orders, ensemble_count=2
        )
        cfg = PipelineConfig(**raw)
        stage_fit_koopman(cfg)
        stage_decompose(cfg)
        stage_balance(cfg)

        calls = {"integrate_ode": 0}
        original = harness.integrate_ode

        def integrate_ode(*args, **kwargs):
            calls["integrate_ode"] += 1
            return original(*args, **kwargs)

        monkeypatch.setattr(harness, "integrate_ode", integrate_ode)
        # in-process: a forked worker's calls would not reach this counter
        monkeypatch.setattr(harness, "_usable_cpus", lambda: 1)
        stage_simulate(cfg)
        # one stacked integration per signal: the full system and every order
        assert calls == {"integrate_ode": 2}

    def test_fit_evaluates_output_map_once_per_state(self, tmp_path, monkeypatch):
        from koopgram import pipeline

        calls = []

        def get_builtin(name):
            system = original(name)
            h = system.h

            def counted(x):
                calls.append(len(x) if np.ndim(x) == 2 else 1)
                return h(x)

            return dataclasses.replace(system, h=counted)

        original = pipeline.get_builtin
        monkeypatch.setattr(pipeline, "get_builtin", get_builtin)
        _, raw = write_config(tmp_path, system="mild_cubic")
        koop = stage_fit_koopman(PipelineConfig(**raw))
        # one h(0) check when the system is built, then one call on the
        # stack of data states (30 trajectories of 10 samples); the output
        # scale of the span check comes from the fit's own evaluations
        assert calls == [1, 300]
        assert koop["output_scale"] > 0.0

    def test_artifact_schema(self, tmp_path):
        # artifacts serialise dataclass fields automatically, so a new field
        # must show up here as a deliberate schema edit
        _, raw = write_config(
            tmp_path, system="slow_manifold", reduction_orders=[1, 2], ensemble_count=1
        )
        report, _ = run_pipeline(PipelineConfig(**raw), verbose=False)
        out = Path(raw["output_dir"])

        def keys(stage):
            return json.loads((out / ARTIFACT_NAMES[stage]).read_text())

        assert set(keys("fit-koopman")) == {
            "a", "c", "data_provenance", "dictionary", "dims", "hurwitz",
            "output_residual", "output_scale", "residual_gain", "system",
        }
        decomposed = keys("decompose")
        assert set(decomposed) == {"gains", "lipschitz_u", "sigma", "slack", "u"}
        assert set(decomposed["gains"]) == {"coordinate_bounds", "sample_count", "source"}
        assert set(keys("balance")) == {
            "a_bal", "b_bal", "c_bal", "hsv", "q", "r", "state_dim", "t", "t_inv", "xc", "yo",
        }
        for cert in keys("certify")["orders"]:
            assert set(cert) == {
                "control_gain", "exact_representation", "failing_loop", "full_loop_gain",
                "ge_gain_full", "ge_gain_reduced", "hankel_tail", "hinf_identity",
                "hinf_output", "order", "output_gap_full", "output_gap_reduced",
                "provenance", "reduced_loop_gain", "removal_gap_full",
                "removal_gap_reduced", "small_gain_full", "small_gain_reduced", "status",
                "total_bound", "truncation_bound", "truncation_core",
            }
        for row in keys("simulate")["orders"]:
            assert set(row["estimate"]) == {"ensemble", "excluded", "per_signal", "value"}
        columns = [
            "order", "hankel_tail", "control_gain", "truncation_bound", "total_bound",
            "status", "small_gain_full", "small_gain_reduced", "empirical", "excluded",
            "verdict", "tightness",
        ]
        assert len(report["rows"]) == 2
        for row in report["rows"]:
            assert list(row) == columns
        header = (out / "report.csv").read_text().splitlines()[0]
        assert header.split(",") == columns

    def test_expression_system_runs(self, tmp_path):
        spec = {
            "name": "expr_lag",
            "n": 1, "l": 1, "p": 1,
            "f": [{"op": "add", "args": [
                {"op": "neg", "args": [{"var": "x1"}]},
                {"op": "tanh", "args": [{"var": "u1"}]}]}],
            "h": [{"var": "x1"}],
            "lipschitz_u": 1.0,
        }
        _, raw = write_config(tmp_path, system=spec)
        cfg = PipelineConfig(**raw)
        report, code = run_pipeline(cfg, verbose=False)
        assert code == 0
        assert report["system"] == "expr_lag"

    def test_config_gain_box_reaches_a_sampled_lipschitz_u(self, tmp_path):
        from koopgram.expr import system_from_spec

        # |df/du| = 0.03 u1^2 grows with the box: 1.92 at its edge u1 = 8
        spec = {
            "n": 1, "l": 1, "p": 1, "h": [{"var": "x1"}],
            "f": [{"op": "add", "args": [
                {"op": "neg", "args": [{"var": "x1"}]},
                {"op": "mul", "args": [0.01, {"op": "pow", "args": [{"var": "u1"}, 3]}]}]}],
        }
        _, raw = write_config(tmp_path, system=spec, gain_box=8)
        cfg = PipelineConfig(**raw)
        stage_fit_koopman(cfg)
        lipschitz_u = stage_decompose(cfg)["lipschitz_u"]
        assert lipschitz_u == system_from_spec({**spec, "gain_box": 8}).lipschitz_u
        assert lipschitz_u > 1.6 > system_from_spec(spec).lipschitz_u


class TestCliEntry:
    def test_run_exit_zero(self, tmp_path, capsys):
        path, raw = write_config(tmp_path)
        assert main(["run", "--config", str(path)]) == 0
        out = capsys.readouterr().out
        assert "verdict=PASS" in out

    def test_separable_drift_with_driven_observable_is_priced_and_passes(self, tmp_path, capsys):
        # f = (-x1 + 3 tanh u1, -2 x2 + x1^2) is separable, but the
        # observable x1^2 lifts the input into the row 6 x1 tanh u1, so the
        # control term depends on the state and must be priced; with it set
        # to 0 the r = 2 bound fell below the measured error (a FAIL)
        x1, x2, u1 = {"var": "x1"}, {"var": "x2"}, {"var": "u1"}
        system = {
            "n": 2, "l": 1, "p": 1, "lipschitz_u": 3.0, "gain_box": 3.0, "slack": 1.25,
            "f": [{"op": "add", "args": [{"op": "neg", "args": [x1]},
                                         {"op": "mul", "args": [3.0, {"op": "tanh", "args": [u1]}]}]},
                  {"op": "add", "args": [{"op": "mul", "args": [-2.0, x2]},
                                         {"op": "pow", "args": [x1, 2]}]}],
            "h": [{"op": "add", "args": [x1, x2]}],
            "dictionary": {"kind": "monomials", "exponents": [[1, 0], [0, 1], [2, 0]]},
        }
        path, raw = write_config(tmp_path, system=system, reduction_orders=[1, 2],
                                 ensemble_count=5, sample_budget=1000)
        assert main(["run", "--config", str(path)]) == 0
        capsys.readouterr()
        report = json.loads((Path(raw["output_dir"]) / "report.json").read_text())
        assert report["control_affine"] is False
        assert [row["verdict"] for row in report["rows"]] == ["PASS", "PASS"]
        for row in report["rows"]:
            assert np.isfinite(row["total_bound"])
            assert row["control_gain"] > 0.0
            assert row["total_bound"] >= row["empirical"]

    def test_stagewise_invocation(self, tmp_path):
        path, raw = write_config(tmp_path)
        for cmd in ["fit-koopman", "decompose", "balance", "certify", "simulate", "report"]:
            assert main([cmd, "--config", str(path)]) == 0

    def test_missing_artifact_exits_one(self, tmp_path, capsys):
        path, _ = write_config(tmp_path)
        assert main(["certify", "--config", str(path)]) == 1
        assert "fit-koopman" in capsys.readouterr().err

    def test_unreadable_config_exits_one(self, tmp_path, capsys):
        assert main(["run", "--config", str(tmp_path / "missing.json")]) == 1
        assert "unreadable config" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "text",
        [
            "[1, 2]",
            '{"system": "tanh_first_order", "reduction_orders": 1}',
            '{"system": 5, "reduction_orders": [1]}',
            '{"system": "tanh_first_order", "reduction_orders": [1], "data": [1]}',
            '{"system": "tanh_first_order", "reduction_orders": [1], "dictionary": "identity"}',
            '{"system": "tanh_first_order", "reduction_orders": [1], "slack": "x"}',
            '{"system": "tanh_first_order", "reduction_orders": [[1]]}',
            '{"system": "tanh_first_order", "reduction_orders": [1], "seed": [1]}',
            '{"system": "tanh_first_order", "reduction_orders": [1], "output_dir": 5}',
            '{"system": "tanh_first_order", "reduction_orders": [1], "seed": true}',
            '{"system": "tanh_first_order", "reduction_orders": [1], "slack": NaN}',
            '{"system": "tanh_first_order", "reduction_orders": [1], "gain_box": -1}',
            '{"system": "tanh_first_order", "reduction_orders": [1], "horizon": -3}',
            '{"system": "tanh_first_order", "reduction_orders": [1], "ode_tol": 0}',
            '{"system": "tanh_first_order", "reduction_orders": [1], "ode_tol": NaN}',
            '{"system": "tanh_first_order", "reduction_orders": [1], "data": {"tol": 1e-14}}',
            '{"system": "tanh_first_order", "reduction_orders": [1], "data": {"horizon": 0}}',
            '{"system": "tanh_first_order", "reduction_orders": [1], "data": {"trajectories": [1]}}',
            '{"system": "tanh_first_order", "reduction_orders": [1], "data": {"trajectoris": 3}}',
            '{"system": "tanh_first_order", "reduction_orders": [1],'
            ' "dictionary": {"kind": "monomials", "degree": "2"}}',
            '{"system": "tanh_first_order", "reduction_orders": [1],'
            ' "dictionary": {"kind": "monomials", "degree": 2.5}}',
            '{"system": "tanh_first_order", "reduction_orders": [1], "ensemble_count": 0}',
            '{"system": "tanh_first_order", "reduction_orders": [1], "sample_budget": 99}',
            '{"system": "tanh_first_order", "reduction_orders": [1], "data": {"trajectories": 0}}',
            '{"system": "tanh_first_order", "reduction_orders": [1],'
            ' "dictionary": {"kind": "identity", "degre": 2}}',
            '{"reduction_orders": [1]}',
            '{"system": "lti6"}',
            '{"system": "tanh_first_order", "reduction_orders": [1], "seed": -1}',
            '{"system": "tanh_first_order", "reduction_orders": [1], "data": {"box": 0}}',
            '{"system": "mild_cubic", "reduction_orders": [1], "dictionary": {"degree": 3}}',
            '{"system": "tanh_first_order", "reduction_orders": [1],'
            ' "dictionary": {"kind": "identity", "degree": 2}}',
            '{"system": "tanh_first_order", "reduction_orders": [1],'
            ' "dictionary": {"kind": "monomials"}}',
            '{"system": "tanh_first_order", "reduction_orders": [1], "dictionary": {"kind": "poly"}}',
        ],
        ids=["not-an-object", "orders-scalar", "system-number", "data-list",
             "dictionary-string", "slack-string", "orders-nested", "seed-list",
             "output-dir-number", "seed-bool", "slack-nan", "gain-box-negative",
             "horizon-negative", "ode-tol-zero", "ode-tol-nan", "data-tol-below-floor",
             "data-horizon-zero", "data-value-list",
             "data-key-misspelt", "degree-string", "degree-fractional",
             "ensemble-count-zero", "sample-budget-small", "data-trajectories-zero",
             "dictionary-key-misspelt", "system-missing", "orders-missing", "seed-negative",
             "data-box-zero", "dictionary-degree-without-kind", "dictionary-identity-with-degree",
             "dictionary-monomials-bare", "dictionary-kind-unknown"],
    )
    def test_malformed_config_exits_one(self, tmp_path, monkeypatch, capsys, text):
        # no --out: it would override a malformed output_dir; run inside
        # tmp_path so a config that parsed could not write elsewhere
        monkeypatch.chdir(tmp_path)
        path = tmp_path / "config.json"
        path.write_text(text)
        assert main(["fit-koopman", "--config", str(path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: unreadable config: ")
        assert "Traceback" not in err

    @pytest.mark.parametrize(
        "command, drift",
        [
            # x' = x^2 - x + tanh(u) blows up in finite time from |x| > 1
            ("fit-koopman", {"op": "add", "args": [
                {"op": "sub", "args": [{"op": "pow", "args": [{"var": "x1"}, 2]}, {"var": "x1"}]},
                {"op": "tanh", "args": [{"var": "u1"}]}]}),
            # x' = 10 x (x - c) + tanh(u) escapes from x0 > c, c lying between
            # the two largest initial states: one drift trajectory of 30 fails
            ("fit-koopman", {"op": "add", "args": [
                {"op": "mul", "args": [10.0, {"op": "sub", "args": [
                    {"op": "pow", "args": [{"var": "x1"}, 2]},
                    {"op": "mul", "args": [ONE_ESCAPE, {"var": "x1"}]}]}]},
                {"op": "tanh", "args": [{"var": "u1"}]}]}),
            # x1 / x1 divides by zero when f(0, 0) is checked
            ("fit-koopman", {"op": "add", "args": [
                {"op": "div", "args": [{"var": "x1"}, {"var": "x1"}]},
                {"op": "tanh", "args": [{"var": "u1"}]}]}),
            # x' = 0.01 x^1.5 - x + tanh(u): x^1.5 has no real value at the
            # negative initial states of the drift trajectories
            ("fit-koopman", {"op": "add", "args": [
                {"op": "sub", "args": [
                    {"op": "mul", "args": [0.01, {"op": "pow", "args": [{"var": "x1"}, 1.5]}]},
                    {"var": "x1"}]},
                {"op": "tanh", "args": [{"var": "u1"}]}]}),
            # a pole 1e-12 left of the imaginary axis: hinf_norm cannot
            # bracket the peak gain
            ("certify", {"op": "add", "args": [
                {"op": "mul", "args": [-1e-12, {"var": "x1"}]}, {"var": "u1"}]}),
        ],
        ids=["finite-time-blowup", "one-trajectory-blowup", "division-by-zero", "fractional-power-of-negative", "unbracketed-hinf"],
    )
    def test_library_failure_exits_one(self, tmp_path, capsys, command, drift):
        spec = {"name": "bad", "n": 1, "l": 1, "p": 1, "f": [drift],
                "h": [{"var": "x1"}], "lipschitz_u": 1.0}
        path, _ = write_config(tmp_path, system=spec)
        stages = ["fit-koopman", "decompose", "balance", "certify"]
        # no warning either: the blow-ups overflow integrate_ode's
        # sum-of-squares screen, which must stay silent
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            for cmd in stages[: stages.index(command)]:
                assert main([cmd, "--config", str(path)]) == 0
            assert main([command, "--config", str(path)]) == 1
        assert caught == []
        err = capsys.readouterr().err
        assert err.startswith(f"error [{command}]: ")
        assert "Traceback" not in err

    @pytest.mark.parametrize(
        "change, message",
        [
            ({"f": 5}, "system f has the wrong type: 5"),
            ({"dictionary": 5}, "system dictionary has the wrong type: 5"),
            ({"f": [{"op": "neg", "args": 5}]}, "neg arguments has the wrong type: 5"),
            ({"f": [{"var": 1}]}, "bad variable 1"),
            ({"f": [{"var": ""}]}, "bad variable ''"),
            ({"n": 1.5}, "system n has the wrong type: 1.5"),
            ({"lipschitz_u": None, "lipschitz": 1.0}, "unknown system keys ['lipschitz']"),
            ({"name": [1]}, "system name has the wrong type: [1]"),
            ({"lipschitz_u": float("nan")}, "system lipschitz_u must be finite"),
            ({"gain_box": -1}, "system gain_box must be positive, got -1"),
            ({"f": [{"op": ["neg"], "args": [{"var": "x1"}]}]},
             "expression operator has the wrong type"),
            ({"f": [{"op": "pow", "args": [{"var": "x1"}, None]}]},
             "pow exponent must be a constant"),
            ({"f": [{"op": "mul", "args": [{"const": [1]}, {"var": "x1"}]}]},
             "expression constant has the wrong type: [1]"),
            ({"dictionary": {"kind": "monomials", "exponents": 5}},
             "system dictionary exponents has the wrong type: 5"),
            ({"dictionary": {"kind": "monomials", "degree": "2"}},
             "system dictionary degree has the wrong type: '2'"),
            ({"seed": 3}, "unknown system keys ['seed']"),
            # an output that read an input would be evaluated at u = 0
            ({"h": [{"op": "add", "args": [{"var": "x1"}, {"var": "u1"}]}]},
             "variable 'u1' is out of range: use x1..x1 (an output reads no input)"),
            ({"f": {"a": [[-1.0], [0.0, -1.0]], "b": [[1.0]]}},
             "system f a must be 1x1 (n x n), got rows of lengths [1, 2]"),
            ({"f": {"a": [[-1.0, 0.0]], "b": [[1.0]]}},
             "system f a must be 1x1 (n x n), got rows of lengths [2]"),
            ({"f": {"a": [[-1.0]], "b": [[1.0], [1.0]]}},
             "system f b must be 1x1 (n x l), got rows of lengths [1, 1]"),
            ({"h": {"c": [[1.0, 0.0]]}}, "system h c must be 1x1 (p x n), got rows of lengths [2]"),
            ({"f": {"a": [-1.0], "b": [[1.0]]}}, "system f a row has the wrong type: -1.0"),
            ({"f": {"a": [[float("nan")]], "b": [[1.0]]}}, "system f a entry must be finite, got nan"),
            ({"h": {"c": [[True]]}}, "system h c entry has the wrong type: True"),
            ({"f": {"a": [[-1.0]], "b": [[1.0]], "d": [[0.0]]}},
             "unknown system f keys ['d']; known: ['a', 'b']"),
            ({"f": {"a": [[-1.0]]}}, "missing system f keys ['b']"),
        ],
        ids=["f-number", "dictionary-number", "args-number", "var-number", "var-empty",
             "n-fractional", "lipschitz-key-misspelt", "name-list", "lipschitz-nan",
             "gain-box-negative", "op-list", "pow-exponent-null", "const-list",
             "exponents-number", "degree-string", "seed-key", "h-reads-input",
             "matrix-ragged", "matrix-a-shape", "matrix-b-shape", "matrix-c-shape",
             "matrix-row-number", "matrix-nan", "matrix-bool", "matrix-unknown-key",
             "matrix-missing-key"],
    )
    def test_malformed_system_spec_exits_one(self, tmp_path, capsys, change, message):
        lag = {"op": "add", "args": [
            {"op": "neg", "args": [{"var": "x1"}]}, {"op": "tanh", "args": [{"var": "u1"}]}]}
        spec = {"name": "lag", "n": 1, "l": 1, "p": 1, "f": [lag], "h": [{"var": "x1"}],
                "lipschitz_u": 1.0}
        spec = {k: v for k, v in {**spec, **change}.items() if v is not None}
        path, _ = write_config(tmp_path, system=spec)
        assert main(["run", "--config", str(path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error [run]: ")
        assert message in err
        assert err.count("\n") == 1

    def test_ode_tol_below_lsoda_floor_exits_one(self, tmp_path, capsys):
        # LSODA refuses this tolerance; accepted, every probe signal would be
        # excluded and the run would report bound=8.16 empirical=0 FAIL
        path, _ = write_config(tmp_path, system="lti6", reduction_orders=[2], ensemble_count=2,
                               ode_tol=1e-14)
        assert main(["run", "--config", str(path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: unreadable config: ode_tol must be at least 2.22e-14")
        assert "Traceback" not in err

    def test_failed_full_system_solve_exits_one(self, tmp_path, capsys, monkeypatch):
        from koopgram import harness

        monkeypatch.setattr(harness, "_usable_cpus", lambda: 2)
        # x' = -x + 0.3 x^3 + 2u is driven past its unstable equilibrium
        # x = 1/sqrt(0.3) by tone-1 and escapes in finite time; reported as an
        # exclusion, the run would read empirical=1.39e-14 FAIL
        cubic = {"op": "add", "args": [
            {"op": "neg", "args": [{"var": "x1"}]},
            {"op": "mul", "args": [0.3, {"op": "pow", "args": [{"var": "x1"}, 3]}]}]}
        spec = {"name": "escaping_cubic", "n": 1, "l": 1, "p": 1, "h": [{"var": "x1"}],
                "f": [{"op": "add", "args": [cubic, {"op": "mul", "args": [2, {"var": "u1"}]}]}],
                "lipschitz_u": 2, "gain_box": 0.4}
        path, raw = write_config(tmp_path, system=spec, data={"box": 0.5})
        assert main(["run", "--config", str(path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error [run]: full-system solve failed under probe signal tone-1: ")
        assert err.count("\n") == 1
        assert not (Path(raw["output_dir"]) / ARTIFACT_NAMES["simulate"]).exists()

    def test_order_above_lifted_dimension_exits_one_before_fitting(self, tmp_path, capsys):
        out = tmp_path / "out"
        path = tmp_path / "config.json"
        path.write_text(json.dumps({"system": "tanh_first_order", "reduction_orders": [2],
                                    "output_dir": str(out)}))
        assert main(["run", "--config", str(path)]) == 1
        captured = capsys.readouterr()
        assert captured.err == "error [run]: reduction orders [2] exceed the lifted dimension 1\n"
        # no stage ran: no timing printed, no artifact written
        assert captured.out == ""
        assert not out.exists() or not any(out.iterdir())

    def test_variable_out_of_range_exits_one(self, tmp_path, capsys):
        spec = {"name": "bad", "n": 1, "l": 1, "p": 1, "lipschitz_u": 1.0, "h": [{"var": "x1"}],
                "f": [{"op": "add", "args": [{"var": "x2"}, {"var": "u1"}]}]}
        path, _ = write_config(tmp_path, system=spec)
        assert main(["fit-koopman", "--config", str(path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error [fit-koopman]: variable 'x2' is out of range: use x1..x1")
        assert "Traceback" not in err

    def test_output_outside_dictionary_span_exits_one(self, tmp_path, capsys):
        # h = sin(2 x1) is not in the span of the identity dictionary; without
        # the check the certificate ignores the output residual and FAILs
        spec = {"name": "sin_output", "n": 1, "l": 1, "p": 1,
                "f": [{"op": "add", "args": [
                    {"op": "neg", "args": [{"var": "x1"}]},
                    {"op": "tanh", "args": [{"var": "u1"}]}]}],
                "h": [{"op": "sin", "args": [{"op": "mul", "args": [2.0, {"var": "x1"}]}]}],
                "lipschitz_u": 1.0}
        path, raw = write_config(tmp_path, system=spec, ensemble_count=5)
        assert main(["run", "--config", str(path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error [run]: ")
        assert "the dictionary must span the output map h" in err
        assert not (Path(raw["output_dir"]) / ARTIFACT_NAMES["fit-koopman"]).exists()

    def test_unwritable_output_dir_exits_one(self, tmp_path, capsys):
        path, _ = write_config(tmp_path)
        blocker = tmp_path / "regular-file"
        blocker.write_text("")
        assert main(["fit-koopman", "--config", str(path), "--out", str(blocker / "sub")]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error [fit-koopman]: ")
        assert "Traceback" not in err

    def test_orders_flag_overrides(self, tmp_path):
        path, raw = write_config(tmp_path, system="lti6", reduction_orders=[2])
        assert main(["fit-koopman", "--config", str(path), "--orders", "3,5"]) == 0
        cfg = PipelineConfig.from_file(path, {"reduction_orders": [3, 5]})
        assert cfg.reduction_orders == [3, 5]

    def test_failed_soundness_exits_two(self, tmp_path):
        # hand-craft artifacts where the bound is violated, then run report
        path, raw = write_config(tmp_path)
        cfg = PipelineConfig(**raw)
        out = Path(raw["output_dir"])
        out.mkdir(parents=True, exist_ok=True)
        (out / ARTIFACT_NAMES["fit-koopman"]).write_text(json.dumps({
            "dims": {"n": 1, "l": 1, "p": 1, "q": 1},
            "residual_gain": 0.0,
        }))
        (out / ARTIFACT_NAMES["certify"]).write_text(json.dumps({
            "system": "tanh_first_order",
            "control_affine": True,
            "hsv": [0.5],
            "orders": [{
                "order": 1, "hankel_tail": 0.0, "control_gain": 0.0,
                "truncation_bound": 0.1, "total_bound": 0.1, "status": "finite",
                "small_gain_full": True, "small_gain_reduced": True,
            }],
        }))
        (out / ARTIFACT_NAMES["simulate"]).write_text(json.dumps({
            "system": "tanh_first_order", "horizon": 10.0, "ensemble_count": 1,
            "orders": [{"order": 1, "estimate": {
                "value": 0.5, "ensemble": "x", "per_signal": [], "excluded": []}}],
        }))
        report, code = stage_report(cfg)
        assert code == 2
        assert report["rows"][0]["verdict"] == "FAIL"
        assert main(["report", "--config", str(path)]) == 2
