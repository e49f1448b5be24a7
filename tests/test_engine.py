"""Tests of the shared outer run loop: input validation, the reduction
identities on every output field, and the spec serialisation it reads."""

import json

import numpy as np
import pytest

from nsmc.cli import _run_method, main, parse_config
from nsmc.exact import fapf_run, kalman_run
from nsmc.exceptions import InvalidInputError, NsmcError
from nsmc.model import (
    Dataset,
    IndependentSsmSpec,
    StssmSpec,
    load_dataset,
    save_dataset,
    simulate,
)
from nsmc.nested import (
    ExactFfbsProcedure,
    ExactTransitionProcedure,
    general_nsmc_step,
    nsmc_init,
    nsmc_run,
)
from nsmc.smc import _categorical_rows, bootstrap_pf

CHAIN = StssmSpec.chain(n_x=4, tau=1.0, lam=1.0, obs_var=0.25, a_coef=0.5)

RUNS = {
    "kalman": lambda spec, data: kalman_run(spec, data),
    "fapf": lambda spec, data: fapf_run(spec, data, 8, np.random.default_rng(1)),
    "bpf": lambda spec, data: bootstrap_pf(spec, data, 8, np.random.default_rng(1)),
    "nsmc": lambda spec, data: nsmc_run(spec, data, 8, 3, "smc+bs", np.random.default_rng(1)),
}


class TestInvalidInput:
    def test_error_is_an_nsmc_value_error(self):
        assert issubclass(InvalidInputError, NsmcError)
        assert issubclass(InvalidInputError, ValueError)

    @pytest.mark.parametrize("name", sorted(RUNS))
    def test_dimension_mismatch_rejected(self, name):
        wider = StssmSpec.chain(n_x=6, tau=1.0, lam=1.0, obs_var=0.25)
        data = simulate(wider, 3, seed=2)
        with pytest.raises(InvalidInputError, match="6 components"):
            RUNS[name](CHAIN, data)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("name", sorted(RUNS))
    def test_non_finite_observation_rejected(self, name, bad):
        obs = simulate(CHAIN, 3, seed=3).observations.copy()
        obs[1, 2] = bad
        with pytest.raises(InvalidInputError, match="non-finite"):
            RUNS[name](CHAIN, Dataset(T=3, observations=obs))

    @pytest.mark.parametrize("name", ["fapf", "kalman"])
    def test_exact_filters_reject_independent_spec(self, name):
        spec = IndependentSsmSpec(n_x=4, a_coef=0.5)
        with pytest.raises(InvalidInputError, match="needs a StssmSpec"):
            RUNS[name](spec, simulate(spec, 3, seed=4))

    @pytest.mark.parametrize(
        "run",
        [
            fapf_run,
            bootstrap_pf,
            lambda spec, data, N, rng: nsmc_run(spec, data, N, 3, "smc+bs", rng),
        ],
        ids=["fapf", "bpf", "nsmc"],
    )
    def test_zero_particles_rejected(self, run):
        with pytest.raises(InvalidInputError, match="^N must be a positive integer"):
            run(CHAIN, simulate(CHAIN, 2, seed=5), 0, np.random.default_rng(1))

    def test_cli_truncated_dataset_fails_replicates(self, tmp_path):
        model = {"kind": "stssm", "n_x": 2, "T": 3, "tau": 1.0, "lambda": 1.0,
                 "obs_var": 0.25, "a_coef": 0.5}
        spec = StssmSpec.chain(n_x=2, tau=1.0, lam=1.0, obs_var=0.25, a_coef=0.5)
        save_dataset(simulate(spec, 3, seed=4), spec, tmp_path / "d.csv")
        lines = (tmp_path / "d.csv").read_text().splitlines()
        (tmp_path / "d.csv").write_text("\n".join(lines[:-2]) + "\n")
        cfg = {
            "name": "trunc",
            "model": model,
            "data": {"path": str(tmp_path / "d.csv")},
            "methods": [
                {"name": "kalman", "kind": "kalman"},
                {"name": "fapf", "kind": "fapf", "N": 5},
                {"name": "bpf", "kind": "bpf", "N": 5},
                {"name": "nsmc", "kind": "nsmc", "N": 5, "M": 2},
                {"name": "gen", "kind": "nsmc-general", "N": 5},
            ],
            "replicates": 2,
            "output_dir": str(tmp_path / "out"),
        }
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg))
        assert main(["run", "--config", str(path)]) == 1
        rows = (tmp_path / "out" / "results.csv").read_text().splitlines()[1:]
        assert len(rows) == 10
        assert all(",failed," in r and "non-finite" in r for r in rows)
        assert (tmp_path / "out" / "summary.csv").exists()


class TestReductionOnEveryField:
    CELLS = [
        ("chain", 3, 10, 40),
        ("chain", 1, 4, 7),
        ("independent", 3, 10, 40),
        ("independent", 10, 8, 7),
    ]

    @staticmethod
    def _spec(kind, n_x):
        if kind == "chain":
            return StssmSpec.chain(n_x=n_x, tau=1.0, lam=0.7, obs_var=0.25)
        return IndependentSsmSpec(n_x=n_x, a_coef=0.5, init_var=1.3, trans_var=1.3, obs_var=0.6)

    @staticmethod
    def _assert_fields_equal(a, b):
        np.testing.assert_array_equal(a.filter_means, b.filter_means)
        np.testing.assert_array_equal(a.filter_vars, b.filter_vars)
        np.testing.assert_array_equal(a.logz_increments, b.logz_increments)
        assert a.logZ == b.logZ

    @pytest.mark.parametrize("kind,n_x,T,N", CELLS)
    def test_fapf_equals_nested_exact_procedure(self, kind, n_x, T, N):
        spec = self._spec(kind, n_x)
        exact = spec if kind == "chain" else spec.to_stssm()
        data = simulate(spec, T, seed=10 + T)
        fa = fapf_run(exact, data, N, np.random.default_rng(T))
        nested = nsmc_run(exact, data, N, 1, ExactFfbsProcedure(), np.random.default_rng(T))
        self._assert_fields_equal(fa, nested)

    @pytest.mark.parametrize("kind,n_x,T,N", CELLS)
    def test_bootstrap_equals_cli_general_engine(self, kind, n_x, T, N):
        spec = self._spec(kind, n_x)
        data = simulate(spec, T, seed=20 + T)
        config = parse_config({"model": {**spec.to_dict(), "T": T}, "data": {"seed": 0},
                               "methods": [{"name": "gen", "kind": "nsmc-general", "N": N}]})
        bpf = bootstrap_pf(spec, data, N, np.random.default_rng(T))
        gen = _run_method(config.methods[0], config, data, np.random.default_rng(T))
        self._assert_fields_equal(bpf, gen)
        assert gen.ess_trace is None and bpf.ess_trace is not None

    @pytest.mark.parametrize("kind,n_x,T,N", CELLS)
    def test_transition_tau_step_equals_one_step(self, kind, n_x, T, N):
        # Exact transition draws score tau = 1, so from a weighted system
        # the "tau" multipliers are constant and the step (through the
        # auxiliary object's take) must equal the "one" step bitwise.
        spec = self._spec(kind, n_x)
        data = simulate(spec, T, seed=30 + T)
        proc = ExactTransitionProcedure()
        rng = np.random.default_rng(T)
        system = general_nsmc_step(
            nsmc_init(spec, N), spec, proc, "transition", "one", data.observations[0], rng
        )
        for y in data.observations[1:]:
            state = rng.bit_generator.state
            one = general_nsmc_step(system, spec, proc, "transition", "one", y, rng)
            rng.bit_generator.state = state
            system = general_nsmc_step(system, spec, proc, "transition", "tau", y, rng)
            assert system.logZ == one.logZ
            np.testing.assert_array_equal(system.states, one.states)
            np.testing.assert_array_equal(system.logw, one.logw)
            np.testing.assert_array_equal(system.ancestors, one.ancestors)


class TestSpecSerialisation:
    @pytest.mark.parametrize("lam", [0.0, 0.1, 0.2, 0.7, 0.9, 1.0, 1.3, 7.0])
    @pytest.mark.parametrize("tau", [1e-3, 0.1, 0.3, 1.0, 2.5, 3.3, 7.7])
    def test_chain_spec_round_trips(self, tau, lam):
        # On this grid 26 specs once read back a different tau, e.g. 3.3
        # as 3.3000000000000003.
        spec = StssmSpec.chain(n_x=5, tau=tau, lam=lam, obs_var=0.3, a_coef=0.8)
        back = StssmSpec.from_dict(spec.to_dict())
        assert back == spec
        np.testing.assert_array_equal(back.noise_precision.dense(), spec.noise_precision.dense())

    def test_sidecar_keys_match_config_block(self, tmp_path):
        spec = StssmSpec.chain(n_x=2, tau=1.0, lam=0.5, obs_var=0.25)
        save_dataset(simulate(spec, 2, seed=1), spec, tmp_path / "d.csv")
        meta = json.loads((tmp_path / "d.meta.json").read_text())
        assert meta["kind"] == "stssm" and meta["lambda"] == 0.5
        _, loaded = load_dataset(tmp_path / "d.csv")
        np.testing.assert_array_equal(
            loaded.noise_precision.dense(), spec.noise_precision.dense()
        )


def test_categorical_rows_all_minus_inf_falls_back_to_last_index():
    logw = np.full((3, 5), -np.inf)
    logw[1] = 0.0
    idx = _categorical_rows(logw, np.random.default_rng(0))
    assert idx[0] == 4 and idx[2] == 4
    assert 0 <= idx[1] <= 4
