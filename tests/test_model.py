"""Tests for the model layer: chain precisions, GMRF sampling, simulators
and dataset round-trips."""

import json

import numpy as np
import pytest

from nsmc.exceptions import InvalidInputError
from nsmc.model import (
    Dataset,
    IndependentSsmSpec,
    StssmSpec,
    TridiagPrecision,
    chain_precision,
    load_dataset,
    make_model,
    sample_gmrf_chain,
    save_dataset,
    simulate,
)

from oracles import dense_gmrf_cov


def _append_row(row):
    """Dataset edit: append ``row`` as one more CSV line."""
    return lambda path: path.write_text(path.read_text() + row + "\n")


def _edit_sidecar(key, *value):
    """Dataset edit: set ``key`` of the JSON sidecar to ``value``, or
    remove it when no value is given."""

    def edit(path):
        sidecar = path.with_suffix(".meta.json")
        meta = json.loads(sidecar.read_text())
        if value:
            meta[key] = value[0]
        else:
            del meta[key]
        sidecar.write_text(json.dumps(meta))

    return edit


class TestChainPrecision:
    def test_two_node_chain(self):
        # Expanding -(v1^2 + v2^2 + (v2 - v1)^2)/2 by hand gives
        # diagonal (2, 2) and off-diagonal -1.
        p = chain_precision(1.0, 1.0, 2)
        np.testing.assert_array_equal(p.diag, [2.0, 2.0])
        np.testing.assert_array_equal(p.offdiag, [-1.0])

    def test_zero_coupling_is_diagonal(self):
        p = chain_precision(1.0, 0.0, 3)
        np.testing.assert_array_equal(p.diag, [1.0, 1.0, 1.0])
        np.testing.assert_array_equal(p.offdiag, [0.0, 0.0])

    def test_interior_node_sees_two_couplings(self):
        p = chain_precision(2.0, 1.0, 3)
        np.testing.assert_array_equal(p.diag, [3.0, 4.0, 3.0])
        np.testing.assert_array_equal(p.offdiag, [-1.0, -1.0])

    def test_single_node(self):
        p = chain_precision(1.7, 3.0, 1)
        np.testing.assert_array_equal(p.diag, [1.7])
        assert p.offdiag.size == 0

    @pytest.mark.parametrize("bad", [(0.0, 1.0, 2), (-1.0, 1.0, 2), (1.0, -0.5, 2), (1.0, 1.0, 0)])
    def test_invalid_parameters(self, bad):
        with pytest.raises(ValueError):
            chain_precision(*bad)

    def test_spd_for_random_parameters(self):
        # Factorization success doubles as the SPD check.
        rng = np.random.default_rng(0)
        for _ in range(100):
            tau = float(rng.uniform(0.01, 10.0))
            lam = float(rng.uniform(0.0, 10.0))
            n = int(rng.integers(1, 12))
            assert np.all(chain_precision(tau, lam, n).c > 0.0)

    def test_non_spd_rejected(self):
        with pytest.raises(np.linalg.LinAlgError):
            TridiagPrecision(diag=np.array([1.0, 1.0]), offdiag=np.array([2.0]))

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError):
            TridiagPrecision(diag=np.array([1.0, 1.0]), offdiag=np.array([]))


class TestGmrfSampling:
    def test_single_node_unit_variance(self):
        rng = np.random.default_rng(1)
        draws = sample_gmrf_chain(chain_precision(1.0, 0.0, 1), rng, size=(10**5,))
        # Var(v^2) = 2 for a standard normal.
        se = np.sqrt(2.0 / 10**5)
        assert abs(draws.var() - 1.0) < 3 * se

    def test_two_node_covariance_matches_analytic_inverse(self):
        # [[2,-1],[-1,2]]^-1 = [[2/3,1/3],[1/3,2/3]].
        rng = np.random.default_rng(2)
        R = 10**5
        draws = sample_gmrf_chain(chain_precision(1.0, 1.0, 2), rng, size=(R,))
        emp = draws.T @ draws / R
        expected = np.array([[2 / 3, 1 / 3], [1 / 3, 2 / 3]])
        se = np.sqrt((np.outer(np.diag(expected), np.diag(expected)) + expected**2) / R)
        assert np.all(np.abs(emp - expected) < 3 * se)

    @pytest.mark.parametrize("n", [3, 8, 16])
    def test_covariance_matches_dense_inverse(self, n):
        rng = np.random.default_rng(12 + n)
        prec = chain_precision(1.3, 0.9, n)
        R = 10**5
        draws = sample_gmrf_chain(prec, rng, size=(R,))
        emp = draws.T @ draws / R
        expected = dense_gmrf_cov(prec)
        d = np.diag(expected)
        se = np.sqrt((np.outer(d, d) + expected**2) / R)
        assert np.all(np.abs(emp - expected) < 3 * se)


class TestSimulate:
    def test_deterministic_in_seed(self):
        spec = StssmSpec.chain(n_x=4, tau=1.0, lam=1.0, obs_var=0.25)
        a = simulate(spec, 6, seed=123)
        b = simulate(spec, 6, seed=123)
        np.testing.assert_array_equal(a.observations, b.observations)
        np.testing.assert_array_equal(a.latent_truth, b.latent_truth)

    def test_degenerate_observation_noise(self):
        spec = StssmSpec.chain(n_x=3, tau=1.0, lam=0.5, obs_var=1e-20)
        data = simulate(spec, 5, seed=9)
        np.testing.assert_allclose(data.observations, data.latent_truth, atol=1e-9)

    def test_initial_state_is_zero_mean(self):
        spec = StssmSpec.chain(n_x=1, tau=1.0, lam=0.0, obs_var=1.0)
        xs = np.array(
            [simulate(spec, 1, seed=s).latent_truth[0, 0] for s in range(10**5)]
        )
        se = xs.std(ddof=1) / np.sqrt(xs.size)
        assert abs(xs.mean()) < 3 * se

    def test_independent_model_replicates_observations(self):
        spec = IndependentSsmSpec(n_x=4, a_coef=0.5)
        data = simulate(spec, 5, seed=11)
        for d in range(1, 4):
            np.testing.assert_array_equal(
                data.observations[:, d], data.observations[:, 0]
            )

    def test_invalid_horizon(self):
        spec = StssmSpec.chain(n_x=2, tau=1.0, lam=1.0, obs_var=0.5)
        with pytest.raises(ValueError):
            simulate(spec, 0, seed=1)

    @pytest.mark.parametrize("a_coef, T", [(1e30, 12), (1e154, 4)])
    @pytest.mark.parametrize(
        "build",
        [
            lambda a: IndependentSsmSpec(n_x=2, a_coef=a),
            lambda a: StssmSpec(n_x=2, tau=1.0, lam=1.0, obs_var=0.25, a_coef=a),
        ],
        ids=["independent", "stssm"],
    )
    def test_overflowing_draw_is_refused_by_step(self, build, a_coef, T):
        # Such a draw once returned inf observations with a RuntimeWarning.
        spec = build(a_coef)
        assert np.all(np.isfinite(simulate(spec, T - 1, seed=1).observations))
        with pytest.raises(InvalidInputError, match=rf"at step t={T} \(a_coef = "):
            simulate(spec, T, seed=1)


class TestDatasetIo:
    def test_roundtrip_stssm(self, tmp_path):
        # The sidecar once wrote tau = 3.3 as 3.3000000000000003.
        spec = StssmSpec.chain(n_x=3, tau=3.3, lam=0.9, obs_var=0.3, a_coef=0.4)
        data = simulate(spec, 4, seed=5)
        path = tmp_path / "data.csv"
        save_dataset(data, spec, path)
        loaded, model = load_dataset(path)
        np.testing.assert_allclose(loaded.observations, data.observations)
        np.testing.assert_allclose(loaded.latent_truth, data.latent_truth)
        assert loaded.T == data.T and loaded.seed == data.seed
        assert model == spec

    def test_roundtrip_independent(self, tmp_path):
        spec = IndependentSsmSpec(
            n_x=2, a_coef=0.3, init_mean=0.1, init_var=2.0, trans_var=0.5, obs_var=0.8
        )
        data = simulate(spec, 3, seed=6)
        path = tmp_path / "data.csv"
        save_dataset(data, spec, path)
        loaded, model = load_dataset(path)
        assert model == spec
        np.testing.assert_allclose(loaded.observations, data.observations)

    def test_csv_header(self, tmp_path):
        spec = StssmSpec.chain(n_x=2, tau=1.0, lam=0.0, obs_var=1.0)
        data = simulate(spec, 2, seed=1)
        path = tmp_path / "d.csv"
        save_dataset(data, spec, path)
        header = path.read_text().splitlines()[0]
        assert header == "t,d,y,x"
        assert (tmp_path / "d.meta.json").exists()

    def test_dataset_validation(self):
        with pytest.raises(ValueError):
            Dataset(T=3, observations=np.zeros((2, 4)))

    @pytest.mark.parametrize(
        "edit, problem",
        [
            (_append_row("0,1,99.0,0.0"), r"d\.csv, line 6: .* outside"),
            (_append_row("3,1,99.0,0.0"), r"d\.csv, line 6: .* outside"),
            (_append_row("1,0,99.0,0.0"), r"d\.csv, line 6: .* outside"),
            (_append_row("1,3,99.0,0.0"), r"d\.csv, line 6: .* outside"),
            (_append_row("2,1,99.0,0.0"), r"d\.csv, line 6: .* repeated"),
            (_append_row("2,2"), r"d\.csv, line 6: 2 cells, expected 4"),
            (_append_row(""), r"d\.csv, line 6: 0 cells, expected 4"),
            (_append_row("x,1,99.0,0.0"), r"d\.csv, line 6: invalid literal for int"),
            (lambda path: path.write_text(""), r"d\.csv: the file is empty"),
            (_edit_sidecar("T"), r"d\.meta\.json: missing field .*'T'"),
            (_edit_sidecar("T", 2.5), r"d\.meta\.json: T must be a positive integer"),
            (_edit_sidecar("T", True), r"d\.meta\.json: T must be a positive integer"),
            (_edit_sidecar("n_x", 2.5), r"d\.meta\.json: n_x must be a positive integer"),
            (_edit_sidecar("n_x", True), r"d\.meta\.json: n_x must be a positive integer"),
            (_edit_sidecar("seed", "x"), r"d\.meta\.json: seed must be a non-negative"),
            (_edit_sidecar("obs_var", -1.0), r"d\.meta\.json: obs_var must be positive"),
        ],
        ids=[
            "t-zero", "t-past-T", "d-zero", "d-past-n_x", "repeated",
            "short-row", "blank-line", "t-not-integer", "empty-csv", "sidecar-without-T",
            "sidecar-T-fraction", "sidecar-T-bool", "sidecar-n_x-fraction",
            "sidecar-n_x-bool", "sidecar-seed-string", "sidecar-obs_var-negative",
        ],
    )
    def test_bad_index_row_names_its_line(self, tmp_path, edit, problem):
        # T = 2 and n_x = 2: the header and four rows, then a bad row on
        # line 6, or an emptied CSV, or a sidecar without T or with a
        # field its rule refuses.  A t of 0 once overwrote the
        # observation at time T; the short-row to sidecar-without-T cases
        # once escaped as raw IndexError, StopIteration or KeyError, or
        # as a ValueError without the line.  Of the refused sidecar
        # fields, T once escaped as a raw TypeError, n_x was truncated,
        # the seed loaded silently and obs_var failed without the file.
        spec = StssmSpec.chain(n_x=2, tau=1.0, lam=0.0, obs_var=1.0)
        path = tmp_path / "d.csv"
        save_dataset(simulate(spec, 2, seed=1), spec, path)
        edit(path)
        with pytest.raises(ValueError, match=problem):
            load_dataset(path)


class TestIndependentSpec:
    def test_to_stssm_requires_matching_init(self):
        spec = IndependentSsmSpec(n_x=2, a_coef=0.5, init_var=2.0, trans_var=1.0)
        with pytest.raises(ValueError):
            spec.to_stssm()

    def test_to_stssm_equivalent_noise(self):
        spec = IndependentSsmSpec(n_x=3, a_coef=0.5, init_var=0.5, trans_var=0.5, obs_var=0.1)
        st = spec.to_stssm()
        np.testing.assert_allclose(
            st.noise_precision.dense(), np.eye(3) / 0.5
        )
        assert st.obs_var == 0.1


def _stssm(n_x=2, obs_var=1.0):
    return StssmSpec.chain(n_x=n_x, tau=1.0, lam=1.0, obs_var=obs_var)


def _independent(**fields):
    return IndependentSsmSpec(**{"n_x": 2, "a_coef": 0.5, **fields})


#: (id, call that must fail, exception type, message pattern): one row
#: per ``raise`` of the model-layer validators.
BAD_MODEL_INPUTS = [
    ("diag-empty", lambda: TridiagPrecision([], []), ValueError, "non-empty 1-d"),
    ("diag-2d", lambda: TridiagPrecision(np.ones((2, 2)), [0.0]), ValueError, "non-empty 1-d"),
    ("offdiag-length", lambda: TridiagPrecision([1.0, 1.0], [0.0, 0.0]), ValueError, "len"),
    ("diag-nonpositive", lambda: TridiagPrecision([1.0, 0.0], [0.0]), ValueError, "positive"),
    (
        "not-spd-inner-pivot",
        lambda: TridiagPrecision([1.0, 1.0, 1.0], [0.0, 2.0]),
        np.linalg.LinAlgError,
        r"\(pivot 2\)",
    ),
    (
        "not-spd-first-pivot",
        lambda: TridiagPrecision([1.0, 1.0], [2.0]),
        np.linalg.LinAlgError,
        r"not positive definite \(pivot 1\)$",
    ),
    ("tau-nonpositive", lambda: chain_precision(0.0, 1.0, 3), ValueError, "tau"),
    ("lambda-negative", lambda: chain_precision(1.0, -0.1, 3), ValueError, "lambda"),
    ("n-below-one", lambda: chain_precision(1.0, 1.0, 0), ValueError, "n must be"),
    ("stssm-n_x", lambda: _stssm(n_x=0), ValueError, "n_x must be"),
    ("stssm-obs_var", lambda: _stssm(obs_var=0.0), ValueError, "obs_var must be"),
    (
        "stssm-a_coef-square-overflows",
        lambda: StssmSpec(n_x=3, tau=1.0, lam=1.0, obs_var=0.25, a_coef=1e200),
        InvalidInputError,
        "^a_coef must have a finite square",
    ),
    (
        "stssm-negative-a_coef-square-overflows",
        lambda: StssmSpec(n_x=3, tau=1.0, lam=1.0, obs_var=0.25, a_coef=-1e200),
        InvalidInputError,
        "^a_coef must have a finite square",
    ),
    (
        "indep-a_coef-square-overflows",
        lambda: IndependentSsmSpec(n_x=2, a_coef=1e200),
        InvalidInputError,
        "^a_coef must have a finite square",
    ),
    (
        "indep-negative-a_coef-square-overflows",
        lambda: IndependentSsmSpec(n_x=2, a_coef=-1e200),
        InvalidInputError,
        "^a_coef must have a finite square",
    ),
    ("indep-init_var", lambda: _independent(init_var=0.0), ValueError, "init_var"),
    ("indep-trans_var", lambda: _independent(trans_var=-1.0), ValueError, "trans_var"),
    ("indep-obs_var", lambda: _independent(obs_var=0.0), ValueError, "obs_var"),
    ("indep-n_x", lambda: _independent(n_x=0), ValueError, "n_x must be"),
    ("make-model-non-model", lambda: make_model({"kind": "stssm"}), TypeError, "dict"),
    ("simulate-non-model", lambda: simulate({"kind": "stssm"}, 2, seed=0), TypeError, "dict"),
    (
        "dataset-latent-shape",
        lambda: Dataset(T=2, observations=np.zeros((2, 3)), latent_truth=np.zeros((2, 2))),
        ValueError,
        "latent_truth must match",
    ),
    (
        "stssm-from-dict-string",
        lambda: StssmSpec.from_dict({"n_x": 3, "tau": "1.0", "lambda": 0.5, "obs_var": 0.25}),
        TypeError,
        "^tau: expected a number",
    ),
    (
        "stssm-from-dict-boolean",
        lambda: StssmSpec.from_dict({"n_x": 3, "tau": 1.0, "lambda": True, "obs_var": 0.25}),
        TypeError,
        "^lambda: expected a number",
    ),
    (
        "indep-from-dict-boolean-default",
        lambda: IndependentSsmSpec.from_dict({"n_x": 3, "obs_var": 1.0, "a_coef": True}),
        TypeError,
        "^a_coef: expected a number",
    ),
]


@pytest.mark.parametrize(
    "call, exc, pattern",
    [case[1:] for case in BAD_MODEL_INPUTS],
    ids=[case[0] for case in BAD_MODEL_INPUTS],
)
def test_model_validators_reject_bad_input(call, exc, pattern):
    with pytest.raises(exc, match=pattern):
        call()


@pytest.mark.parametrize(
    "n_x", [2.5, 2.0, True, "3", None, 0, -1, np.int64(0)],
    ids=["fraction", "integral-float", "bool", "string", "none", "zero", "negative", "numpy-zero"],
)
@pytest.mark.parametrize("build", [_stssm, _independent], ids=["stssm", "independent"])
def test_specs_refuse_an_n_x_that_is_not_a_positive_integer(build, n_x):
    with pytest.raises(InvalidInputError, match="^n_x must be a positive integer"):
        build(n_x=n_x)


@pytest.mark.parametrize("n_x", [np.int64(3), np.int32(3), 3])
@pytest.mark.parametrize("build", [_stssm, _independent], ids=["stssm", "independent"])
def test_specs_accept_numpy_integer_n_x(build, n_x):
    assert build(n_x=n_x).n_x == 3


@pytest.mark.parametrize("a_coef", [1e154, -1e154])
def test_stssm_accepts_an_a_coef_whose_square_is_finite(a_coef):
    # The Kalman recursion squares a_coef; 1e154 squared is 1e308.
    spec = StssmSpec(n_x=3, tau=1.0, lam=1.0, obs_var=0.25, a_coef=a_coef)
    assert StssmSpec.from_dict(spec.to_dict()).a_coef == a_coef


@pytest.mark.parametrize("a_coef", [1e154, -1e154])
def test_independent_accepts_an_a_coef_whose_square_is_finite(a_coef):
    # The variance constants square a_coef in their Kalman recursion.
    spec = IndependentSsmSpec(n_x=2, a_coef=a_coef)
    assert IndependentSsmSpec.from_dict(spec.to_dict()).a_coef == a_coef


@pytest.mark.parametrize("spec", [_stssm(), _independent()], ids=["stssm", "independent"])
def test_make_model_returns_the_spec(spec):
    assert make_model(spec) is spec


NON_FINITE = [np.inf, -np.inf, np.nan]


@pytest.mark.parametrize("value", NON_FINITE, ids=["inf", "-inf", "nan"])
@pytest.mark.parametrize(
    "field, build",
    [
        ("tau", lambda v: chain_precision(v, 1.0, 3)),
        ("lambda", lambda v: chain_precision(1.0, v, 3)),
        ("tau", lambda v: StssmSpec.chain(n_x=3, tau=v, lam=1.0, obs_var=0.25)),
        ("lambda", lambda v: StssmSpec.chain(n_x=3, tau=1.0, lam=v, obs_var=0.25)),
        ("obs_var", lambda v: _stssm(obs_var=v)),
        ("a_coef", lambda v: StssmSpec.chain(n_x=3, tau=1.0, lam=1.0, obs_var=0.25, a_coef=v)),
        ("a_coef", lambda v: _independent(a_coef=v)),
        ("init_mean", lambda v: _independent(init_mean=v)),
        ("init_var", lambda v: _independent(init_var=v)),
        ("trans_var", lambda v: _independent(trans_var=v)),
        ("obs_var", lambda v: _independent(obs_var=v)),
    ],
    ids=[
        "chain_precision-tau", "chain_precision-lambda", "stssm-tau", "stssm-lambda",
        "stssm-obs_var", "stssm-a_coef", "indep-a_coef", "indep-init_mean",
        "indep-init_var", "indep-trans_var", "indep-obs_var",
    ],
)
def test_non_finite_parameters_are_refused(field, build, value):
    # A JSON 1e400 reads as inf: it once ran with every filtering mean 0,
    # and a NaN lambda once surfaced only when the spec was echoed.
    with pytest.raises(ValueError, match=f"^{field} must be finite"):
        build(value)
