"""End-to-end tests of the experiment harness and its file outputs."""

import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import nsmc
from nsmc.cli import ConfigError, load_config, main, parse_config, run_experiment


def _base_config(tmp_path, **overrides):
    cfg = {
        "name": "unit",
        "model": {
            "kind": "stssm",
            "n_x": 2,
            "T": 3,
            "tau": 1.0,
            "lambda": 1.0,
            "obs_var": 0.25,
            "a_coef": 0.5,
        },
        "data": {"seed": 5},
        "methods": [
            {"name": "kalman", "kind": "kalman"},
            {"name": "fapf", "kind": "fapf", "N": 30},
            {"name": "nsmc", "kind": "nsmc", "N": 30, "M": 3, "inner": "smc+bs"},
        ],
        "replicates": 2,
        "budget_matching": False,
        "output_dir": str(tmp_path / "out"),
    }
    cfg.update(overrides)
    return cfg


def _write(tmp_path, cfg, name="cfg.json"):
    path = tmp_path / name
    path.write_text(json.dumps(cfg))
    return path


def _with(block=None, drop=(), **fields):
    """Edit of a config: drop keys and set fields, at the top level or
    in ``block``; returns a new document."""

    def edit(cfg):
        target = cfg if block is None else cfg[block]
        target = {k: v for k, v in target.items() if k not in drop}
        target.update(fields)
        return target if block is None else {**cfg, block: target}

    return edit


def _method(**fields):
    """Edit that leaves one nested method with ``fields``."""
    return _with(methods=[{"name": "m", "kind": "nsmc", "N": 5, "M": 3, **fields}])


def _independent_with(kind):
    """Edit to the independent model with one method of ``kind``."""
    model = _with("model", kind="independent")
    return lambda cfg: _with(methods=[{"name": "m", "kind": kind, "N": 5}])(model(cfg))


#: (id, edit of the base config, pattern the ConfigError must match).
BAD_CONFIGS = [
    ("top-level-list", lambda cfg: [cfg], "top level"),
    ("model-missing", _with(drop=("model",)), "^model: missing"),
    ("model-not-object", _with(model=[1]), "model: expected a JSON object"),
    ("model-kind-unknown", _with("model", kind="grid"), "model.kind: unknown"),
    ("model-kind-not-string", _with("model", kind=["stssm"]), "model.kind: unknown"),
    ("model-field-missing", _with("model", drop=("tau",)), "model.tau: missing"),
    ("model-field-not-number", _with("model", tau=[1.0]), "model: "),
    ("model-field-string", _with("model", tau="1.0"), "model: tau: expected a number"),
    ("model-field-boolean", _with("model", **{"lambda": True}), "model: lambda: expected a number"),
    ("a_coef-boolean", _with("model", a_coef=True), "model: a_coef: expected a number"),
    (
        "independent-field-boolean",
        _with("model", kind="independent", init_mean=False),
        "model: init_mean: expected a number",
    ),
    ("T-missing", _with("model", drop=("T",)), "model.T: missing"),
    ("T-not-integer", _with("model", T="abc"), "model.T: expected an integer"),
    ("T-below-one", _with("model", T=0), "model.T: must be >= 1"),
    ("T-not-integral", _with("model", T=2.9), "model.T: expected an integer"),
    ("n_x-not-integral", _with("model", n_x=2.5), "model.n_x: expected an integer"),
    ("name-not-string", _with(name=["x"]), "^name: expected a string"),
    ("output-dir-null", _with(output_dir=None), "^output_dir: expected a string"),
    ("data-missing", _with(drop=("data",)), "^data: missing"),
    ("data-not-object", _with(data=5), "data: expected a JSON object"),
    ("data-no-seed-or-path", _with(data={}), "data: needs either"),
    ("seed-not-integer", _with(data={"seed": "x"}), "data.seed: expected an integer"),
    ("seed-negative", _with(data={"seed": -1}), "data.seed: must be >= 0"),
    ("data-path-not-string", _with(data={"path": 5}), "^data.path: expected a string"),
    ("methods-missing", _with(drop=("methods",)), "^methods: missing"),
    ("methods-not-list", _with(methods={"kind": "kalman"}), "methods: expected a list"),
    ("methods-empty", _with(methods=[]), "methods: at least one"),
    ("method-not-object", _with(methods=["kalman"]), r"methods\[0\]: expected"),
    ("method-kind-missing", _with(methods=[{"N": 5}]), r"methods\[0\].kind: missing"),
    ("method-kind-unknown", _method(kind="magic"), r"methods\[0\].kind: unknown"),
    ("method-name-not-string", _method(name=3), r"methods\[0\].name: expected a string"),
    ("N-not-integer", _method(N="many"), r"methods\[0\].N: expected an integer"),
    ("N-below-one", _method(N=0), r"methods\[0\].N: must be >= 1"),
    ("N-boolean", _method(N=True), r"methods\[0\].N: expected an integer"),
    ("M-not-integer", _method(M=[3]), r"methods\[0\].M: expected an integer"),
    ("M-below-one", _method(M=0), r"methods\[0\].M: must be >= 1"),
    ("inner-unknown", _method(inner="pmcmc"), r"methods\[0\].inner: unknown"),
    ("stage-proposal-unknown", _method(stage_proposal="bogus"), r"methods\[0\].stage_proposal"),
    (
        "stage-proposal-not-read",
        _method(inner="is", stage_proposal="optimal"),
        r"methods\[0\].stage_proposal: not read by kind 'nsmc' with inner procedure 'is'",
    ),
    (
        "stage-proposal-non-nested",
        _with(methods=[{"name": "b", "kind": "bpf", "N": 5, "stage_proposal": "prior"}]),
        r"methods\[0\].stage_proposal: not read by kind 'bpf'$",
    ),
    (
        "kalman-unread-keys",
        _with(methods=[{"kind": "kalman", "inner": "self-nested", "M": 7, "N": 5}]),
        r"methods\[0\].inner: not read by kind 'kalman'$",
    ),
    (
        "kalman-N-not-read",
        _with(methods=[{"name": "k", "kind": "kalman", "N": 5}]),
        r"methods\[0\].N: not read by kind 'kalman'$",
    ),
    (
        "fapf-M-not-read",
        _with(methods=[{"name": "f", "kind": "fapf", "N": 5, "M": 3}]),
        r"methods\[0\].M: not read by kind 'fapf'$",
    ),
    (
        "general-inner-not-read",
        _with(methods=[{"name": "g", "kind": "nsmc-general", "N": 5, "inner": "is"}]),
        r"methods\[0\].inner: not read by kind 'nsmc-general'$",
    ),
    (
        "general-M-not-read",
        _with(methods=[{"name": "g", "kind": "nsmc-general", "N": 5, "M": 3}]),
        r"methods\[0\].M: not read by kind 'nsmc-general'$",
    ),
    (
        "method-key-misspelt",
        _method(stage_propsal="optimal"),
        r"methods\[0\].stage_propsal: not read by kind 'nsmc' with inner procedure 'smc\+bs'",
    ),
    ("tau-infinite", _with("model", tau=float("inf")), "model: tau must be finite"),
    ("lambda-nan", _with("model", **{"lambda": float("nan")}), "model: lambda must be finite"),
    ("a_coef-nan", _with("model", a_coef=float("nan")), "model: a_coef must be finite"),
    (
        "independent-obs_var-infinite",
        _with("model", kind="independent", obs_var=float("inf")),
        "model: obs_var must be finite",
    ),
    ("kalman-independent", _independent_with("kalman"), r"methods\[0\].kind: kalman requires"),
    ("fapf-independent", _independent_with("fapf"), r"methods\[0\].kind: fapf requires"),
    (
        "duplicate-names",
        _with(methods=[{"name": "a", "kind": "kalman"}] * 2),
        "names must be unique",
    ),
    ("replicates-not-integer", _with(replicates="two"), "replicates: expected an integer"),
    ("replicates-below-one", _with(replicates=0), "replicates: must be >= 1"),
    ("replicates-not-integral", _with(replicates=1.5), "replicates: expected an integer"),
    ("replicates-numeric-string", _with(replicates="2"), "replicates: expected an integer"),
    (
        "budget-matching-string",
        _with(budget_matching="false"),
        "budget_matching: expected true or false",
    ),
]


class TestConfigValidation:
    @pytest.mark.parametrize(
        "edit,pattern",
        [case[1:] for case in BAD_CONFIGS],
        ids=[case[0] for case in BAD_CONFIGS],
    )
    def test_bad_config_names_the_field(self, tmp_path, edit, pattern):
        with pytest.raises(ConfigError, match=pattern):
            parse_config(edit(_base_config(tmp_path)))

    def test_mistyped_field_exits_2_through_main(self, tmp_path, capsys):
        cfg = _base_config(tmp_path)
        cfg["model"]["T"] = "abc"
        assert main(["run", "--config", str(_write(tmp_path, cfg))]) == 2
        assert "model.T: expected an integer" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "edit,field",
        [(_with(data={"path": 5}), "data.path"), (_with(name=["x"]), "name"),
         (_with(output_dir=None), "output_dir")],
        ids=["data-path", "name", "output-dir"],
    )
    def test_mistyped_string_field_exits_2_and_writes_nothing(
        self, tmp_path, capsys, monkeypatch, edit, field
    ):
        monkeypatch.chdir(tmp_path)
        cfg = _write(tmp_path, edit(_base_config(tmp_path)))
        assert main(["run", "--config", str(cfg)]) == 2
        assert f"error: {field}: expected a string" in capsys.readouterr().err
        assert [p.name for p in tmp_path.iterdir()] == ["cfg.json"]

    def test_exact_method_on_independent_model_exits_2_before_output(self, tmp_path, capsys):
        cfg = _independent_with("fapf")(_base_config(tmp_path))
        assert main(["run", "--config", str(_write(tmp_path, cfg))]) == 2
        assert "fapf requires the stssm model" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_overflowing_tau_exits_2_before_output(self, tmp_path, capsys):
        # JSON reads 1e400 as inf, which once ran to a zero-mean result.
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(_base_config(tmp_path)).replace('"tau": 1.0', '"tau": 1e400'))
        assert main(["run", "--config", str(path)]) == 2
        assert "model: tau must be finite, got inf" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_a_coef_whose_square_overflows_exits_2_before_output(self, tmp_path, capsys):
        path = _write(tmp_path, _with("model", a_coef=1e200)(_base_config(tmp_path)))
        assert main(["run", "--config", str(path)]) == 2
        assert "model: a_coef must have a finite square" in capsys.readouterr().err
        assert [p.name for p in tmp_path.iterdir()] == ["cfg.json"]

    def test_simulate_refuses_a_dataset_path_before_output(self, tmp_path, capsys):
        # simulate once ignored the path and wrote a seed-0 dataset.
        cfg = _base_config(tmp_path, data={"path": str(tmp_path / "dataset.csv")})
        assert main(["simulate", "--config", str(_write(tmp_path, cfg))]) == 2
        assert "error: data.path: simulate" in capsys.readouterr().err
        assert [p.name for p in tmp_path.iterdir()] == ["cfg.json"]

    def test_unknown_method_kind(self, tmp_path):
        cfg = _base_config(tmp_path, methods=[{"name": "x", "kind": "magic", "N": 5}])
        with pytest.raises(ConfigError, match=r"methods\[0\].kind"):
            parse_config(cfg)

    def test_missing_model_field(self, tmp_path):
        cfg = _base_config(tmp_path)
        del cfg["model"]["tau"]
        with pytest.raises(ConfigError, match="model.tau"):
            parse_config(cfg)

    def test_self_nested_runs_at_one_inner_particle(self, tmp_path):
        # One system with one candidate is properly weighted, so the CLI
        # runs it like any other M >= 1.
        cfg = _base_config(
            tmp_path,
            methods=[
                {"name": "sn", "kind": "nsmc", "N": 5, "M": 1, "inner": "self-nested"}
            ],
        )
        assert main(["run", "--config", str(_write(tmp_path, cfg))]) == 0
        rows = (tmp_path / "out" / "results.csv").read_text().splitlines()
        assert not any(",failed," in row for row in rows)
        assert sum(",sn,logZ," in row for row in rows) == 2

    def test_bad_json_reports_line(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text('{\n  "name": "x",\n  bad\n}')
        with pytest.raises(ConfigError, match="line 3"):
            load_config(path)

    def test_usage_error_exit_code(self, capsys):
        assert main(["run", "--config", "/nonexistent/c.json"]) == 2

    def test_unknown_subcommand_exit_code(self):
        with pytest.raises(SystemExit) as err:
            main(["frobnicate"])
        assert err.value.code == 2


class TestRunExperiment:
    def test_kalman_only_has_zero_variance(self, tmp_path):
        cfg = _base_config(
            tmp_path, methods=[{"name": "kalman", "kind": "kalman"}], replicates=3
        )
        config = parse_config(cfg)
        assert run_experiment(config) == 0
        summary = (tmp_path / "out" / "summary.csv").read_text()
        rows = [r.split(",") for r in summary.splitlines()[1:]]
        stderr_rows = [r for r in rows if r[1] == "kalman:logZ" and r[2] == "stderr"]
        assert float(stderr_rows[0][3]) == 0.0

    def test_rerun_is_byte_identical(self, tmp_path):
        config = parse_config(_base_config(tmp_path))
        run_experiment(config)
        first = (tmp_path / "out" / "results.csv").read_bytes()
        run_experiment(config)
        assert (tmp_path / "out" / "results.csv").read_bytes() == first

    def test_parallel_equals_serial(self, tmp_path):
        config = parse_config(_base_config(tmp_path))
        run_experiment(config, workers=1)
        serial = (tmp_path / "out" / "results.csv").read_bytes()
        run_experiment(config, workers=2)
        assert (tmp_path / "out" / "results.csv").read_bytes() == serial

    def test_config_echo_round_trips(self, tmp_path):
        config = parse_config(_base_config(tmp_path))
        run_experiment(config)
        with open(tmp_path / "out" / "config.echo.json") as fh:
            echoed = json.load(fh)
        assert parse_config(echoed).echo_dict() == config.echo_dict()
        # Only the keys a method reads are echoed.
        assert [sorted(m) for m in echoed["methods"]] == [
            ["kind", "name"],
            ["N", "kind", "name"],
            ["M", "N", "inner", "kind", "name", "stage_proposal"],
        ]

    def test_rerun_from_echo_is_byte_identical(self, tmp_path):
        # The echo once wrote tau = 3.3 as 3.3000000000000003, and the
        # rerun from it wrote different ESS values.
        cfg = _base_config(tmp_path, output_dir=str(tmp_path / "first"))
        cfg["model"].update({"n_x": 4, "tau": 3.3, "lambda": 0.9})
        assert main(["run", "--config", str(_write(tmp_path, cfg))]) == 0
        echo = tmp_path / "first" / "config.echo.json"
        assert main(["run", "--config", str(echo), "--out", str(tmp_path / "again")]) == 0
        first = (tmp_path / "first" / "results.csv").read_bytes()
        assert (tmp_path / "again" / "results.csv").read_bytes() == first

    def test_experiment_name_is_not_a_method_name(self, tmp_path):
        # The last method is named "nsmc"; the experiment stays "unit".
        config = parse_config(_base_config(tmp_path))
        assert config.name == "unit"
        run_experiment(config)
        with open(tmp_path / "out" / "config.echo.json") as fh:
            assert json.load(fh)["name"] == "unit"
        summary = (tmp_path / "out" / "summary.csv").read_text().splitlines()
        assert {row.split(",")[0] for row in summary[1:]} == {"unit"}

    def test_simulate_then_run_equals_inline_seed(self, tmp_path):
        cfg = _base_config(tmp_path)
        path = _write(tmp_path, cfg)
        assert main(["simulate", "--config", str(path), "--out", str(tmp_path / "data")]) == 0
        run_experiment(parse_config(cfg))
        inline = (tmp_path / "out" / "results.csv").read_bytes()

        cfg2 = _base_config(
            tmp_path,
            data={"path": str(tmp_path / "data" / "dataset.csv"), "seed": 5},
            output_dir=str(tmp_path / "out2"),
        )
        run_experiment(parse_config(cfg2))
        assert (tmp_path / "out2" / "results.csv").read_bytes() == inline

    def test_collapsed_replicate_flags_partial_failure(self, tmp_path):
        from nsmc.model import Dataset, StssmSpec, save_dataset, simulate

        spec = StssmSpec.chain(n_x=1, tau=1.0, lam=0.0, obs_var=1e-12)
        data = Dataset(T=2, observations=np.full((2, 1), 1e200), seed=0)
        save_dataset(data, spec, tmp_path / "bad.csv")
        cfg = _base_config(
            tmp_path,
            model={
                "kind": "stssm",
                "n_x": 1,
                "T": 2,
                "tau": 1.0,
                "lambda": 0.0,
                "obs_var": 1e-12,
            },
            data={"path": str(tmp_path / "bad.csv"), "seed": 1},
            methods=[
                {"name": "bpf", "kind": "bpf", "N": 10},
                {"name": "kalman", "kind": "kalman"},
            ],
            replicates=2,
        )
        status = run_experiment(parse_config(cfg))
        assert status == 1
        results = (tmp_path / "out" / "results.csv").read_text()
        assert "failed" in results

    def test_nsmc_general_method_runs(self, tmp_path):
        cfg = _base_config(
            tmp_path,
            methods=[{"name": "gen", "kind": "nsmc-general", "N": 20}],
        )
        assert run_experiment(parse_config(cfg)) == 0

    def test_independent_model_study_scores_against_kalman(self, tmp_path):
        # The Kalman truth of an independent model runs on its chain form.
        cfg = _base_config(
            tmp_path,
            model={"kind": "independent", "n_x": 3, "T": 3, "a_coef": 0.5, "obs_var": 0.5},
            methods=[
                {"name": "bpf", "kind": "bpf", "N": 50},
                {"name": "is", "kind": "nsmc", "N": 20, "M": 4, "inner": "is"},
            ],
        )
        assert run_experiment(parse_config(cfg)) == 0
        summary = (tmp_path / "out" / "summary.csv").read_text().splitlines()
        rows = {tuple(r.split(",")[1:3]) for r in summary}
        for method in ("bpf", "is"):
            for stat in ("se_logZ", "se_x_T_1", "se_x_T_n"):
                assert (f"{method}:{stat}", "median") in rows

    def test_dataset_not_matching_model_block_rejected(self, tmp_path):
        from nsmc.model import StssmSpec, save_dataset, simulate

        spec = StssmSpec.chain(n_x=2, tau=1.0, lam=1.0, obs_var=0.25, a_coef=0.5)
        save_dataset(simulate(spec, 2, seed=1), spec, tmp_path / "short.csv")
        cfg = _base_config(tmp_path, data={"path": str(tmp_path / "short.csv")})
        with pytest.raises(ConfigError, match="data.path: dataset does not match"):
            run_experiment(parse_config(cfg))

    def test_dataset_row_out_of_range_exits_2(self, tmp_path, capsys):
        from nsmc.model import StssmSpec, save_dataset, simulate

        spec = StssmSpec.chain(n_x=2, tau=1.0, lam=1.0, obs_var=0.25, a_coef=0.5)
        path = tmp_path / "d.csv"
        save_dataset(simulate(spec, 3, seed=1), spec, path)
        path.write_text(path.read_text() + "4,1,99.0,0.0\n")
        cfg = _base_config(tmp_path, data={"path": str(path)})
        assert main(["run", "--config", str(_write(tmp_path, cfg))]) == 2
        assert re.search(r"data\.path: .*line 8: .* outside", capsys.readouterr().err)
        # The dataset is checked before any output is written.
        assert not (tmp_path / "out").exists()

    def test_budget_matching_multiplies_bootstrap_size(self, tmp_path):
        cfg = _base_config(
            tmp_path,
            methods=[{"name": "bpf", "kind": "bpf", "N": 10, "M": 7}],
            budget_matching=True,
        )
        config = parse_config(cfg)
        from nsmc.cli import _run_method
        from nsmc.model import simulate as sim

        data = sim(config.model, config.T, seed=config.data_seed)
        out = _run_method(config.methods[0], config, data, np.random.default_rng(0))
        # ESS can only reach 70 if 70 particles were actually used.
        assert np.any(out.ess_trace > 10)


def _asymptotics_config(tmp_path, **fields):
    block = {"a_coef": 0.5, "obs_var": 1.0, "t": 2, "n_x": 2, "m_grid": [2, 5]}
    return {"asymptotics": {**block, **fields}, "output_dir": str(tmp_path / "asym")}


class TestAsymptoticsCommand:
    def test_curve_csv(self, tmp_path):
        cfg = _asymptotics_config(tmp_path, m_grid=[2, 5, 10, 100, 10**9])
        path = _write(tmp_path, cfg)
        assert main(["asymptotics", "--config", str(path)]) == 0
        rows = (tmp_path / "asym" / "variance_curve.csv").read_text().splitlines()
        assert rows[0] == "M,sigma_nsmc,sigma_fa"
        last = rows[-1].split(",")
        assert abs(float(last[1]) - float(last[2])) <= 1e-6 * float(last[2])

    @pytest.mark.parametrize(
        "fields, pattern",
        [
            ({"t": "abc"}, "asymptotics.t: expected an integer"),
            ({"t": 2.5}, "asymptotics.t: expected an integer"),
            ({"n_x": "two"}, "asymptotics.n_x: expected an integer"),
            ({"n_x": 1.5}, "asymptotics.n_x: expected an integer"),
            ({"m_grid": [2, "x"]}, r"asymptotics.m_grid\[1\]: expected an integer"),
            ({"m_grid": 5}, "asymptotics.m_grid: expected a list"),
            ({"m_grid": [2, 1]}, "asymptotics.m_grid: entries must be >= 2"),
            ({"ys": ["a", "b"]}, r"asymptotics.ys\[0\]: expected a number"),
            ({"t": 0}, "asymptotics: t must be a positive integer"),
            ({"ys": [0.1]}, "asymptotics: ys must have length t"),
            ({"a_coef": True}, "asymptotics: a_coef: expected a number"),
            ({"ys": [True, False]}, r"asymptotics.ys\[0\]: expected a number"),
            ({"ys": [0.5, "1"]}, r"asymptotics.ys\[1\]: expected a number"),
            ({"ys": 0.5}, "asymptotics.ys: expected a list"),
            ({"a_coef": 1e200}, "asymptotics: a_coef must have a finite square"),
        ],
        ids=["t-text", "t-fraction", "n_x-text", "n_x-fraction", "m_grid-entry",
             "m_grid-not-list", "m_grid-below-two", "ys-text", "t-below-one", "ys-length",
             "a_coef-boolean", "ys-boolean", "ys-numeric-string", "ys-not-list",
             "a_coef-square-overflows"],
    )
    def test_mistyped_field_exits_2(self, tmp_path, capsys, fields, pattern):
        path = _write(tmp_path, _asymptotics_config(tmp_path, **fields))
        assert main(["asymptotics", "--config", str(path)]) == 2
        assert re.search(pattern, capsys.readouterr().err)
        assert not (tmp_path / "asym").exists()

    @pytest.mark.parametrize(
        "doc, pattern",
        [
            ([1], "top level: expected a JSON object"),
            ({}, "asymptotics: missing required field"),
            ({"asymptotics": [1]}, "asymptotics: expected a JSON object"),
        ],
        ids=["top-level-list", "block-missing", "block-not-object"],
    )
    def test_malformed_document_exits_2(self, tmp_path, capsys, doc, pattern):
        path = _write(tmp_path, doc)
        assert main(["asymptotics", "--config", str(path)]) == 2
        assert re.search(pattern, capsys.readouterr().err)


def test_selftest_runs_in_process(capsys):
    assert main(["selftest", "--reps", "2000"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 12
    assert all(line.endswith("PASS") for line in lines)


@pytest.mark.parametrize("command", ["run", "simulate", "asymptotics"])
def test_verbose_reports_what_was_written(tmp_path, capsys, command):
    if command == "asymptotics":
        cfg, out = _asymptotics_config(tmp_path), tmp_path / "asym"
        line = f"wrote {out / 'variance_curve.csv'}"
    else:
        cfg, out = _base_config(tmp_path, methods=[{"name": "kalman", "kind": "kalman"}]), tmp_path / "out"
        line = {
            "run": "experiment unit: exit status 0",
            "simulate": f"wrote {out / 'dataset.csv'} and {out / 'dataset.meta.json'}",
        }[command]
    path = _write(tmp_path, cfg)
    assert main([command, "--config", str(path)]) == 0
    assert capsys.readouterr().out == ""
    assert main([command, "--config", str(path), "--verbose"]) == 0
    assert capsys.readouterr().out.splitlines() == [line]


def test_module_entry_point_prints_usage():
    src = Path(nsmc.__file__).resolve().parents[1]
    done = subprocess.run(
        [sys.executable, "-m", "nsmc.cli", "--help"], capture_output=True, text=True,
        env=dict(os.environ, PYTHONPATH=str(src)), timeout=60,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.startswith("usage: nsmc")
