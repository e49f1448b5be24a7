"""Tests for the exact stack: Kalman filter, the exact conditional of the
fully adapted particle filter (``ffbs_forward``/``ffbs_backward``), and
the fully adapted particle filter."""

import copy
import pickle
import threading

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.stats import kstest, norm

from nsmc.exact import (
    KalmanBelief,
    fapf_run,
    ffbs_backward,
    ffbs_forward,
    kalman_init,
    kalman_run,
    kalman_step,
)
from nsmc.model import Dataset, IndependentSsmSpec, StssmSpec, simulate
from nsmc.nested import nsmc_run

from oracles import dense_conditional, dense_joint_loglik


def _random_spec(rng, max_n=4):
    return StssmSpec.chain(
        n_x=int(rng.integers(1, max_n + 1)),
        tau=float(rng.uniform(0.2, 3.0)),
        lam=float(rng.uniform(0.0, 3.0)),
        obs_var=float(rng.uniform(0.05, 2.0)),
        a_coef=float(rng.uniform(-0.9, 0.9)),
    )


def _belief_cov(spec, belief):
    """Dense covariance ``basis @ diag(var) @ basis.T`` of a Kalman belief."""
    basis = spec.noise_precision.spectrum()[1]
    return (basis * belief.var) @ basis.T


def dense_kalman(spec, observations):
    """The dense Kalman filter: a Cholesky factorisation of the innovation
    covariance, solves against it and full covariance updates per step.
    Returns the filtering means, marginal variances and log-likelihood
    increments, shaped like a ``FilterOutput``'s."""
    n = spec.n_x
    eye = np.eye(n)
    proc_cov = np.linalg.inv(spec.noise_precision.dense())
    proc_cov = 0.5 * (proc_cov + proc_cov.T)
    mean, cov = np.zeros(n), np.zeros((n, n))
    means, variances, increments = [], [], []
    for y in observations:
        mean_pred = spec.a_coef * mean
        cov_pred = spec.a_coef**2 * cov + proc_cov
        s = cov_pred + spec.obs_var * eye
        s = 0.5 * (s + s.T)
        chol = np.linalg.cholesky(s)
        innovation = y - mean_pred
        gain = np.linalg.solve(s, cov_pred).T
        mean = mean_pred + gain @ innovation
        cov = (eye - gain) @ cov_pred
        cov = 0.5 * (cov + cov.T)
        logdet = 2.0 * np.sum(np.log(np.diag(chol)))
        maha = innovation @ np.linalg.solve(s, innovation)
        means.append(mean)
        variances.append(np.diag(cov))
        increments.append(-0.5 * (n * np.log(2 * np.pi) + logdet + maha))
    return np.array(means), np.array(variances), np.array(increments)


def _assert_rel_close(got, want, rtol):
    """Entrywise ``rtol``, measured against the largest entry, so that an
    entry that happens to sit near zero is not held to a tighter bound."""
    np.testing.assert_allclose(got, want, rtol=rtol, atol=rtol * np.max(np.abs(want)))


@given(
    n=st.integers(1, 8),
    tau=st.floats(0.1, 5.0),
    lam=st.one_of(st.just(0.0), st.floats(0.0, 5.0)),
    obs_var=st.one_of(st.just(1e-6), st.floats(0.01, 4.0)),
    a_coef=st.floats(-0.95, 0.95),
    seed=st.integers(0, 2**16),
)
@example(n=8, tau=0.1, lam=0.0, obs_var=1e-6, a_coef=0.9, seed=1)
@example(n=8, tau=0.1, lam=5.0, obs_var=1e-6, a_coef=-0.9, seed=2)
@settings(derandomize=True, deadline=None, max_examples=100)
def test_kalman_matches_the_dense_filter(n, tau, lam, obs_var, a_coef, seed):
    spec = StssmSpec.chain(n_x=n, tau=tau, lam=lam, obs_var=obs_var, a_coef=a_coef)
    data = simulate(spec, 6, seed=seed)
    out = kalman_run(spec, data)
    means, variances, increments = dense_kalman(spec, data.observations)
    _assert_rel_close(out.filter_means, means, 1e-9)
    _assert_rel_close(out.filter_vars, variances, 1e-9)
    np.testing.assert_allclose(out.logz_increments, increments, rtol=1e-9)
    np.testing.assert_allclose(out.logZ, increments.sum(), rtol=1e-9)


class TestKalman:
    def test_scalar_conjugate_update(self):
        # Prior N(0, 1) (tau = 1), obs_var = 1, y = 1: the conjugate
        # posterior is N(0.5, 0.5) and the predictive is N(1; 0, 2).
        spec = StssmSpec.chain(n_x=1, tau=1.0, lam=0.0, obs_var=1.0, a_coef=0.7)
        belief = kalman_step(kalman_init(spec), spec, np.array([1.0]))
        np.testing.assert_allclose(belief.mean, [0.5], atol=1e-12)
        np.testing.assert_allclose(_belief_cov(spec, belief), [[0.5]], atol=1e-12)
        expected_ll = -0.5 * np.log(4.0 * np.pi) - 0.25
        np.testing.assert_allclose(belief.loglik, expected_ll, atol=1e-12)

    def test_zero_innovation_keeps_predicted_mean(self):
        spec = StssmSpec.chain(n_x=3, tau=1.0, lam=1.0, obs_var=0.5, a_coef=0.5)
        belief = kalman_step(kalman_init(spec), spec, np.ones(3))
        predicted = spec.a_coef * belief.mean
        belief2 = kalman_step(belief, spec, predicted)
        np.testing.assert_allclose(belief2.mean, predicted, atol=1e-12)

    def test_loglik_matches_dense_joint(self):
        spec = StssmSpec.chain(n_x=2, tau=1.0, lam=1.0, obs_var=0.25**2, a_coef=0.5)
        data = simulate(spec, 2, seed=21)
        out = kalman_run(spec, data)
        oracle = dense_joint_loglik(spec, data.observations)
        np.testing.assert_allclose(out.logZ, oracle, atol=1e-8)

    def test_loglik_matches_dense_joint_random_instances(self):
        rng = np.random.default_rng(31)
        for _ in range(20):
            spec = _random_spec(rng)
            T = int(rng.integers(1, 4))
            data = simulate(spec, T, seed=int(rng.integers(10**6)))
            out = kalman_run(spec, data)
            oracle = dense_joint_loglik(spec, data.observations)
            np.testing.assert_allclose(out.logZ, oracle, rtol=1e-10, atol=1e-8)

    def test_covariance_stays_symmetric(self):
        spec = StssmSpec.chain(n_x=6, tau=0.5, lam=2.0, obs_var=0.1, a_coef=0.8)
        data = simulate(spec, 10, seed=3)
        belief = kalman_init(spec)
        for t in range(10):
            belief = kalman_step(belief, spec, data.observations[t])
            cov = _belief_cov(spec, belief)
            asym = np.max(np.abs(cov - cov.T))
            assert asym <= 1e-10
            np.linalg.cholesky(cov + 1e-12 * np.eye(6))


def _memo_spec(obs_var=0.25, a_coef=0.5):
    """The benchmark chain at n_x = 10, with ``obs_var`` and ``a_coef``
    free."""
    return StssmSpec.chain(n_x=10, tau=1.0, lam=1.0, obs_var=obs_var, a_coef=a_coef)


def _output_bytes(out):
    return tuple(
        getattr(out, name).tobytes()
        for name in ("filter_means", "filter_vars", "logz_increments")
    )


def _nested_run(spec, data):
    return nsmc_run(spec, data, 20, 3, "smc+bs", np.random.default_rng(4))


def _copies(spec):
    """``spec`` pickled, copied, deep-copied and rebuilt from its dict."""
    return [
        pickle.loads(pickle.dumps(spec)),
        copy.copy(spec),
        copy.deepcopy(spec),
        type(spec).from_dict(spec.to_dict()),
    ]


class TestCovarianceMemo:
    """``kalman_run`` reads the data-free half of each step from the
    spec's memo; its outputs must keep the bits of chained
    ``kalman_step`` calls however the memo was filled."""

    @pytest.mark.parametrize(
        "obs_var, a_coef",
        [
            pytest.param(0.25, 0.5, id="benchmark-chain"),
            pytest.param(1e8, 0.99, id="slow-convergence"),
            pytest.param(1e-8, 5.0, id="explosive"),
        ],
    )
    def test_run_equals_chained_steps_bit_for_bit(self, obs_var, a_coef):
        spec = _memo_spec(obs_var, a_coef)
        data = simulate(spec, 60, seed=7)
        out = kalman_run(spec, data)
        assert len(spec._riccati) == 60
        basis_sq = spec.noise_precision.spectrum()[1] ** 2
        belief = kalman_init(spec)
        means, variances, increments = [], [], []
        for y in data.observations:
            new = kalman_step(belief, spec, y)
            means.append(new.mean)
            variances.append(basis_sq @ new.var)
            increments.append(new.loglik - belief.loglik)
            belief = new
        assert np.all(np.isfinite(out.logz_increments))
        assert _output_bytes(out) == tuple(
            np.array(a).tobytes() for a in (means, variances, increments)
        )

    def test_warm_cold_and_copied_memos_give_the_same_bytes(self):
        data = simulate(_memo_spec(), 40, seed=8)
        runs = [
            lambda spec: kalman_run(spec, data),
            lambda spec: fapf_run(spec, data, 50, np.random.default_rng(3)),
            lambda spec: _nested_run(spec, data),
        ]
        want = [_output_bytes(run(_memo_spec())) for run in runs]
        warm = _memo_spec()
        kalman_run(warm, Dataset(5, data.observations[:5]))
        assert len(warm._riccati) == 5
        copies = _copies(warm)
        for spec in copies:
            assert spec == warm and spec._riccati == ()
        for spec in (warm, *copies):
            assert [_output_bytes(run(spec)) for run in runs] == want

    def test_copied_independent_specs_give_the_same_bytes(self):
        spec = IndependentSsmSpec(n_x=10, a_coef=0.5, init_var=2.0, obs_var=0.25)
        data = simulate(spec, 10, seed=8)
        want = _output_bytes(_nested_run(spec, data))
        for copied in _copies(spec):
            assert copied == spec
            assert _output_bytes(_nested_run(copied, data)) == want

    def test_threads_sharing_a_spec_match_their_serial_runs(self):
        long = simulate(_memo_spec(), 40, seed=9)
        runs = (Dataset(7, long.observations[:7]), long)
        serial = [_output_bytes(kalman_run(_memo_spec(), data)) for data in runs]
        for _ in range(10):
            spec = _memo_spec()
            barrier = threading.Barrier(len(runs))
            results = [None] * len(runs)

            def run(k):
                barrier.wait()
                results[k] = _output_bytes(kalman_run(spec, runs[k]))

            threads = [threading.Thread(target=run, args=(k,)) for k in range(len(runs))]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
            assert results == serial
        for s, gain, _, var, marginal in spec._riccati:
            for arr in (s, gain, var, marginal):
                assert not arr.flags.writeable


    def test_a_pickled_spec_keeps_its_arrays_read_only(self):
        # Pickle drops numpy's writeable flag, so a copy that carried the
        # memo would let a write to ``cache.var`` change its later runs.
        spec = _memo_spec()
        data = simulate(spec, 5, seed=10)
        kalman_run(spec, data)
        pickled = pickle.loads(pickle.dumps(spec))
        assert pickled._riccati == ()
        want = _output_bytes(kalman_run(pickled, data))
        cache = ffbs_forward(pickled, np.zeros(spec.n_x), data.observations[0])
        with pytest.raises(ValueError):
            cache.var[0] = 1.0
        prec = pickled.noise_precision
        for arr in (prec.c, prec.phi, *prec.spectrum()):
            assert not arr.flags.writeable
        assert _output_bytes(kalman_run(pickled, data)) == want

    def test_a_pickled_precision_keeps_its_arrays_read_only(self):
        prec = _memo_spec().noise_precision
        prec.spectrum()
        pickled = pickle.loads(pickle.dumps(prec))
        for arr in (pickled.c, pickled.phi, *pickled.spectrum()):
            assert not arr.flags.writeable
        for name in ("diag", "offdiag", "c", "phi"):
            assert getattr(pickled, name).tobytes() == getattr(prec, name).tobytes()

    def test_step_one_is_finite_for_any_finite_a_coef(self):
        # From the zero belief, step 1 predicts with ``a_coef**2 * 0`` plus
        # the noise variances, which is the noise variances alone for any
        # ``a_coef`` whose square is finite; the spec refuses the others.
        half, huge = _memo_spec(a_coef=0.5), _memo_spec(a_coef=1e150)
        data = simulate(half, 1, seed=12)
        for run in (
            lambda spec: kalman_run(spec, data),
            lambda spec: fapf_run(spec, data, 50, np.random.default_rng(3)),
        ):
            got = run(huge)
            assert np.isfinite(got.logZ)
            assert _output_bytes(got) == _output_bytes(run(half))


class TestFfbsForward:
    def test_decoupled_components(self):
        # lambda = 0: components are independent and the predictive
        # density is a product of 1-d convolutions N(0, 1/tau + obs_var).
        spec = StssmSpec.chain(n_x=4, tau=2.0, lam=0.0, obs_var=0.3, a_coef=0.5)
        rng = np.random.default_rng(0)
        x_prev = rng.standard_normal(4)
        y = rng.standard_normal(4)
        cache = ffbs_forward(spec, x_prev, y)
        ytil = y - 0.5 * x_prev
        expected = norm.logpdf(ytil, scale=np.sqrt(1 / 2.0 + 0.3)).sum()
        np.testing.assert_allclose(cache.log_nu, expected, rtol=1e-12)

    def test_single_component(self):
        spec = StssmSpec.chain(n_x=1, tau=1.5, lam=0.0, obs_var=0.2, a_coef=0.3)
        cache = ffbs_forward(spec, np.array([0.4]), np.array([1.1]))
        ytil = 1.1 - 0.3 * 0.4
        expected = norm.logpdf(ytil, scale=np.sqrt(1 / 1.5 + 0.2))
        np.testing.assert_allclose(cache.log_nu, expected, rtol=1e-12)

    def test_matches_dense_oracle_random_instances(self):
        rng = np.random.default_rng(7)
        for _ in range(100):
            spec = _random_spec(rng)
            x_prev = rng.standard_normal(spec.n_x)
            y = rng.standard_normal(spec.n_x)
            cache = ffbs_forward(spec, x_prev, y)
            log_nu, _, _ = dense_conditional(spec, x_prev, y)
            assert abs(np.exp(cache.log_nu - log_nu) - 1.0) <= 1e-8


@given(
    n=st.integers(1, 8),
    tau=st.floats(0.1, 5.0),
    lam=st.one_of(st.just(0.0), st.floats(0.0, 5.0)),
    obs_var=st.one_of(st.just(1e-6), st.floats(0.01, 4.0)),
    a_coef=st.floats(-0.95, 0.95),
    batch=st.sampled_from([(), (4,), (2, 3)]),
    seed=st.integers(0, 2**16),
)
@example(n=1, tau=2.0, lam=0.0, obs_var=0.3, a_coef=0.5, batch=(), seed=1)
@example(n=6, tau=0.1, lam=0.0, obs_var=1e-6, a_coef=0.9, batch=(4,), seed=2)
@example(n=8, tau=0.1, lam=5.0, obs_var=1e-6, a_coef=-0.9, batch=(2, 3), seed=3)
@example(n=1, tau=0.1, lam=0.0, obs_var=1e-6, a_coef=0.0, batch=(2, 3), seed=4)
@settings(derandomize=True, deadline=None, max_examples=100)
def test_conditional_matches_the_dense_oracle(n, tau, lam, obs_var, a_coef, batch, seed):
    # log nu to 1e-9 relative in nu, and the posterior mean and
    # covariance of x_t to 1e-9 relative, row by row of any batch shape.
    spec = StssmSpec.chain(n_x=n, tau=tau, lam=lam, obs_var=obs_var, a_coef=a_coef)
    rng = np.random.default_rng(seed)
    x_prev = rng.standard_normal(batch + (n,))
    y = rng.standard_normal(n)
    cache = ffbs_forward(spec, x_prev, y)
    assert cache.v_mean.shape == batch + (n,) and cache.log_nu.shape == batch
    cov = (cache.basis * cache.var) @ cache.basis.T
    for row in np.ndindex(batch):
        log_nu, mean_x, cov_v = dense_conditional(spec, x_prev[row], y)
        np.testing.assert_allclose(cache.log_nu[row], log_nu, rtol=1e-9, atol=1e-9)
        _assert_rel_close(a_coef * x_prev[row] + cache.v_mean[row], mean_x, 1e-9)
        _assert_rel_close(cov, cov_v, 1e-9)
    assert ffbs_backward(cache, rng).shape == batch + (n,)


def test_log_nu_is_the_kalman_predictive_from_a_point_mass():
    # The conditional is the Kalman update from a zero-variance belief
    # at x_prev, through the same code, so the two agree exactly.
    rng = np.random.default_rng(40)
    for _ in range(20):
        spec = _random_spec(rng, max_n=6)
        x_prev = rng.standard_normal(spec.n_x)
        y = rng.standard_normal(spec.n_x)
        cache = ffbs_forward(spec, x_prev, y)
        belief = kalman_step(KalmanBelief(x_prev, np.zeros(spec.n_x), 0.0), spec, y)
        assert cache.log_nu == belief.loglik
        np.testing.assert_array_equal(spec.a_coef * x_prev + cache.v_mean, belief.mean)
        np.testing.assert_array_equal(cache.var, belief.var)


class TestFfbsBackward:
    def test_decoupled_marginals(self):
        # lambda = 0: each component's posterior is the 1-d conjugate
        # N(ytil / (obs_var * tau + 1), obs_var / (obs_var * tau + 1)).
        spec = StssmSpec.chain(n_x=3, tau=2.0, lam=0.0, obs_var=0.5, a_coef=0.0)
        y = np.array([1.0, -0.5, 0.2])
        cache = ffbs_forward(spec, np.zeros(3), y)
        rng = np.random.default_rng(9)
        draws = np.stack([ffbs_backward(cache, rng) for _ in range(10**5)])
        denom = 0.5 * 2.0 + 1.0
        post_mean = y / denom
        post_var = 0.5 / denom
        se_mean = np.sqrt(post_var / 10**5)
        assert np.all(np.abs(draws.mean(axis=0) - post_mean) < 3 * se_mean)
        se_var = post_var * np.sqrt(2.0 / 10**5)
        assert np.all(np.abs(draws.var(axis=0) - post_var) < 3 * se_var)

    def test_two_component_moments_vs_dense(self):
        spec = StssmSpec.chain(n_x=2, tau=1.0, lam=1.0, obs_var=0.25, a_coef=0.5)
        rng = np.random.default_rng(10)
        x_prev = np.array([0.2, -0.4])
        y = np.array([0.9, 0.3])
        cache = ffbs_forward(spec, x_prev, y)
        R = 10**5
        draws = np.stack([ffbs_backward(cache, rng) for _ in range(R)])
        _, mean_x, cov_v = dense_conditional(spec, x_prev, y)
        mean_v = mean_x - spec.a_coef * x_prev
        se_mean = np.sqrt(np.diag(cov_v) / R)
        assert np.all(np.abs(draws.mean(axis=0) - mean_v) < 3 * se_mean)
        emp_cov = np.cov(draws.T)
        d = np.diag(cov_v)
        se_cov = np.sqrt((np.outer(d, d) + cov_v**2) / R)
        assert np.all(np.abs(emp_cov - cov_v) < 3 * se_cov)

    def test_five_component_moments_vs_dense(self):
        # 5 means and 25 covariance entries, each within 4 standard errors.
        spec = StssmSpec.chain(n_x=5, tau=0.5, lam=2.0, obs_var=0.3, a_coef=0.7)
        rng = np.random.default_rng(41)
        x_prev = rng.standard_normal(5)
        y = rng.standard_normal(5)
        R = 10**5
        draws = ffbs_backward(ffbs_forward(spec, np.tile(x_prev, (R, 1)), y), rng)
        _, mean_x, cov_v = dense_conditional(spec, x_prev, y)
        mean_v = mean_x - spec.a_coef * x_prev
        se_mean = np.sqrt(np.diag(cov_v) / R)
        assert np.all(np.abs(draws.mean(axis=0) - mean_v) < 4 * se_mean)
        d = np.diag(cov_v)
        se_cov = np.sqrt((np.outer(d, d) + cov_v**2) / R)
        assert np.all(np.abs(np.cov(draws.T) - cov_v) < 4 * se_cov)

    def test_degenerate_observation_noise_concentrates(self):
        spec = StssmSpec.chain(n_x=4, tau=1.0, lam=1.0, obs_var=1e-10, a_coef=0.5)
        rng = np.random.default_rng(11)
        x_prev = rng.standard_normal(4)
        y = rng.standard_normal(4)
        cache = ffbs_forward(spec, x_prev, y)
        v = ffbs_backward(cache, rng)
        np.testing.assert_allclose(v, y - 0.5 * x_prev, atol=1e-4)

    def test_joint_sampler_is_exact_ks(self):
        # Each marginal of the two-component conditional passes a KS
        # test against the dense-oracle Gaussian at alpha = 0.01.
        spec = StssmSpec.chain(n_x=2, tau=1.0, lam=1.0, obs_var=0.25, a_coef=0.5)
        x_prev = np.array([0.5, -0.1])
        y = np.array([0.4, 1.2])
        cache = ffbs_forward(spec, x_prev, y)
        rng = np.random.default_rng(12)
        tiled = ffbs_forward(spec, np.tile(x_prev, (10**5, 1)), y)
        draws = ffbs_backward(tiled, rng)
        _, mean_x, cov_v = dense_conditional(spec, x_prev, y)
        mean_v = mean_x - spec.a_coef * x_prev
        for d in range(2):
            stat = kstest(
                draws[:, d], "norm", args=(mean_v[d], np.sqrt(cov_v[d, d]))
            )
            assert stat.pvalue > 0.01


class TestFapf:
    def test_filtering_means_track_kalman(self):
        spec = StssmSpec.chain(n_x=10, tau=1.0, lam=1.0, obs_var=0.25**2, a_coef=0.5)
        data = simulate(spec, 10, seed=13)
        kal = kalman_run(spec, data)
        N = 10**4
        bound = 5.0 / np.sqrt(N)
        for seed in range(10):
            out = fapf_run(spec, data, N, np.random.default_rng(100 + seed))
            scaled = np.abs(out.filter_means - kal.filter_means) / np.sqrt(
                kal.filter_vars
            )
            assert scaled.max() < bound * 5

    def test_normalizer_unbiased(self):
        spec = StssmSpec.chain(n_x=2, tau=1.0, lam=1.0, obs_var=0.25, a_coef=0.5)
        data = simulate(spec, 5, seed=14)
        kal = kalman_run(spec, data).logZ
        rng = np.random.default_rng(15)
        ratios = np.array(
            [np.exp(fapf_run(spec, data, 50, rng).logZ - kal) for _ in range(200)]
        )
        se = ratios.std(ddof=1) / np.sqrt(ratios.size)
        assert abs(ratios.mean() - 1.0) < 3 * se

    def test_single_particle_logz_is_sum_of_predictives(self):
        spec = StssmSpec.chain(n_x=3, tau=1.0, lam=0.5, obs_var=0.4, a_coef=0.5)
        data = simulate(spec, 4, seed=16)
        rng1 = np.random.default_rng(17)
        rng2 = np.random.default_rng(17)
        out = fapf_run(spec, data, 1, rng1)
        # Replay the same trajectory: with N = 1 the filter reduces to a
        # chain of conditional draws and logZ must equal sum_t log nu_t.
        state = np.zeros((1, 3))
        total = 0.0
        for t in range(4):
            cache = ffbs_forward(spec, state, data.observations[t])
            total += float(cache.log_nu[0])
            rng2.random(1)  # resampling consumes one uniform per step
            v = ffbs_backward(cache, rng2)
            state = spec.a_coef * state + v
        np.testing.assert_allclose(out.logZ, total, rtol=1e-12)

    def test_single_particle_unbiased(self):
        spec = StssmSpec.chain(n_x=2, tau=1.0, lam=1.0, obs_var=0.5, a_coef=0.5)
        data = simulate(spec, 3, seed=18)
        kal = kalman_run(spec, data).logZ
        rng = np.random.default_rng(19)
        ratios = np.array(
            [np.exp(fapf_run(spec, data, 1, rng).logZ - kal) for _ in range(4000)]
        )
        se = ratios.std(ddof=1) / np.sqrt(ratios.size)
        assert abs(ratios.mean() - 1.0) < 3 * se
