"""Tests for the generic SMC layer: weights, resampling, ESS, bootstrap."""

import numpy as np
import pytest
from scipy.special import logsumexp
from scipy.stats import chisquare

from nsmc.exceptions import InvalidInputError, WeightCollapseError
from nsmc.exact import kalman_run
from nsmc.model import IndependentSsmSpec, StssmSpec, make_model, simulate
from nsmc.smc import (
    bootstrap_pf,
    ess,
    multinomial_resample,
    normalize_logweights,
)

from oracles import independent_loglik


class TestNormalizeLogweights:
    def test_equal_weights(self):
        probs, log_mean = normalize_logweights(np.zeros(3))
        np.testing.assert_allclose(probs, np.full(3, 1 / 3), atol=1e-15)
        assert log_mean == 0.0

    def test_hand_computed_example(self):
        probs, log_mean = normalize_logweights(np.log([2.0, 1.0, 1.0]))
        np.testing.assert_allclose(probs, [0.5, 0.25, 0.25], atol=1e-15)
        np.testing.assert_allclose(log_mean, np.log(4.0 / 3.0), atol=1e-15)

    def test_extreme_spread_stays_finite(self):
        probs, log_mean = normalize_logweights(np.array([-1000.0, 0.0]))
        assert probs[1] > 1.0 - 1e-12 and probs[0] < 1e-12
        np.testing.assert_allclose(log_mean, np.log(0.5), atol=1e-12)

    def test_shift_invariance(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            logw = rng.normal(size=20) * 5
            shift = rng.normal() * 100
            p1, m1 = normalize_logweights(logw)
            p2, m2 = normalize_logweights(logw + shift)
            np.testing.assert_allclose(p1, p2, atol=1e-12)
            np.testing.assert_allclose(m2 - m1, shift, rtol=1e-9)

    def test_probabilities_sum_to_one(self):
        rng = np.random.default_rng(1)
        for _ in range(50):
            probs, _ = normalize_logweights(rng.normal(size=64) * 30)
            assert abs(probs.sum() - 1.0) <= 1e-12

    def test_all_minus_inf_raises(self):
        with pytest.raises(WeightCollapseError):
            normalize_logweights(np.full(4, -np.inf))

    def test_nan_rejected(self):
        with pytest.raises(ValueError):
            normalize_logweights(np.array([0.0, np.nan]))


class TestEss:
    def test_uniform(self):
        assert ess(np.full(4, 0.25)) == pytest.approx(4.0)

    def test_one_hot(self):
        assert ess(np.array([0.0, 1.0, 0.0])) == pytest.approx(1.0)

    def test_hand_computed(self):
        assert ess(np.array([0.5, 0.25, 0.25])) == pytest.approx(8.0 / 3.0)

    def test_bounds(self):
        rng = np.random.default_rng(2)
        for _ in range(200):
            n = int(rng.integers(1, 50))
            w = rng.random(n) + 1e-12
            p = w / w.sum()
            val = ess(p)
            assert 1.0 - 1e-9 <= val <= n + 1e-9


class TestMultinomialResample:
    def test_deterministic_category(self):
        idx = multinomial_resample(np.array([0.0, 1.0, 0.0]), 5, np.random.default_rng(3))
        np.testing.assert_array_equal(idx, [1, 1, 1, 1, 1])

    def test_uniform_frequencies(self):
        rng = np.random.default_rng(4)
        idx = multinomial_resample(np.full(3, 1 / 3), 10**5, rng)
        counts = np.bincount(idx, minlength=3)
        se = np.sqrt(10**5 * (1 / 3) * (2 / 3))
        assert np.all(np.abs(counts - 10**5 / 3) < 3 * se)

    def test_chi_square_goodness_of_fit(self):
        rng = np.random.default_rng(5)
        p = np.array([0.2, 0.8])
        idx = multinomial_resample(p, 10**5, rng)
        counts = np.bincount(idx, minlength=2)
        result = chisquare(counts, f_exp=p * 10**5)
        assert result.pvalue > 0.01

    def test_zero_probability_never_selected(self):
        rng = np.random.default_rng(6)
        p = np.array([0.5, 0.0, 0.5, 0.0])
        idx = multinomial_resample(p, 10**5, rng)
        assert not np.any((idx == 1) | (idx == 3))

    def test_preserves_expectations(self):
        # Mean of a fixed test vector over resampled indices matches the
        # weighted average; 10^5 replicates of size 10 collapse into one
        # large draw.
        rng = np.random.default_rng(7)
        p = np.array([0.1, 0.2, 0.3, 0.4])
        phi = np.array([1.0, -2.0, 0.5, 3.0])
        idx = multinomial_resample(p, 10**6, rng)
        est = phi[idx].mean()
        truth = p @ phi
        se = np.sqrt(np.sum(p * (phi - truth) ** 2) / 10**6)
        assert abs(est - truth) < 3 * se


class TestBootstrap:
    def test_uninformative_likelihood_keeps_ess_high(self):
        spec = StssmSpec.chain(n_x=3, tau=1.0, lam=1.0, obs_var=1e12, a_coef=0.5)
        data = simulate(spec, 5, seed=8)
        out = bootstrap_pf(spec, data, 200, np.random.default_rng(9))
        assert np.all(out.ess_trace > 0.99 * 200)

    def test_normalizer_unbiased_vs_kalman(self):
        spec = StssmSpec.chain(n_x=2, tau=1.0, lam=1.0, obs_var=0.25, a_coef=0.5)
        data = simulate(spec, 5, seed=10)
        kal = kalman_run(spec, data).logZ
        rng = np.random.default_rng(11)
        ratios = np.array(
            [np.exp(bootstrap_pf(spec, data, 10**4, rng).logZ - kal) for _ in range(200)]
        )
        se = ratios.std(ddof=1) / np.sqrt(ratios.size)
        assert abs(ratios.mean() - 1.0) < 3 * se

    def test_deterministic_given_seed(self):
        spec = StssmSpec.chain(n_x=4, tau=1.0, lam=0.5, obs_var=0.3)
        data = simulate(spec, 6, seed=12)
        a = bootstrap_pf(spec, data, 64, np.random.default_rng(13))
        b = bootstrap_pf(spec, data, 64, np.random.default_rng(13))
        np.testing.assert_array_equal(a.filter_means, b.filter_means)
        assert a.logZ == b.logZ

    def test_independent_model_unbiased(self):
        spec = IndependentSsmSpec(
            n_x=3, a_coef=0.5, init_mean=0.2, init_var=1.5, trans_var=1.0, obs_var=0.5
        )
        data = simulate(spec, 4, seed=14)
        truth = independent_loglik(spec, data.observations)
        rng = np.random.default_rng(15)
        ratios = np.array(
            [np.exp(bootstrap_pf(spec, data, 4000, rng).logZ - truth) for _ in range(200)]
        )
        se = ratios.std(ddof=1) / np.sqrt(ratios.size)
        assert abs(ratios.mean() - 1.0) < 3 * se

    def test_adaptive_resampling_unbiased_when_every_step_resamples(self):
        spec = StssmSpec.chain(n_x=2, tau=1.0, lam=1.0, obs_var=0.25)
        data = simulate(spec, 5, seed=16)
        kal = kalman_run(spec, data).logZ
        rng = np.random.default_rng(17)
        ratios = np.array(
            [
                np.exp(
                    bootstrap_pf(spec, data, 2000, rng, ess_threshold=0.5).logZ - kal
                )
                for _ in range(200)
            ]
        )
        se = ratios.std(ddof=1) / np.sqrt(ratios.size)
        assert abs(ratios.mean() - 1.0) < 3 * se

    def test_adaptive_resampling_unbiased_when_it_skips_steps(self):
        # Criterion-3 protocol with a threshold at which the filter both
        # carries its weights over some steps and resamples at others.
        spec = StssmSpec.chain(n_x=2, tau=1.0, lam=1.0, obs_var=1.0)
        data = simulate(spec, 6, seed=16)
        kal = kalman_run(spec, data).logZ
        rng = np.random.default_rng(24)
        N, theta, reps = 100, 0.5, 500
        ratios, skipped = [], 0
        for _ in range(reps):
            out = bootstrap_pf(spec, data, N, rng, ess_threshold=theta)
            ratios.append(np.exp(out.logZ - kal))
            # The weights after step t are resampled at t + 1 iff their
            # ESS is below theta * N.
            skipped += int(np.sum(out.ess_trace[:-1] >= theta * N))
        assert 0 < skipped < reps * (data.T - 1)
        ratios = np.array(ratios)
        se = ratios.std(ddof=1) / np.sqrt(reps)
        assert abs(ratios.mean() - 1.0) <= 3 * se

    @pytest.mark.parametrize(
        "theta",
        [np.nan, -1.0, 1.5, np.inf, True, "0.5", [0.5]],
        ids=["nan", "negative", "above-one", "inf", "bool", "string", "list"],
    )
    def test_meaningless_ess_threshold_is_refused(self, theta):
        # NaN or a negative threshold once ran and never resampled.
        spec = StssmSpec.chain(n_x=3, tau=1.0, lam=1.0, obs_var=0.25)
        data = simulate(spec, 2, seed=20)
        with pytest.raises(InvalidInputError, match="^ess_threshold must be"):
            bootstrap_pf(spec, data, 10, np.random.default_rng(0), ess_threshold=theta)

    @pytest.mark.parametrize("theta", [None, 0, 0.0, 0.5, 1, 1.0, np.float64(0.5)])
    def test_ess_threshold_in_the_unit_interval_runs(self, theta):
        spec = StssmSpec.chain(n_x=3, tau=1.0, lam=1.0, obs_var=0.25)
        data = simulate(spec, 2, seed=20)
        out = bootstrap_pf(spec, data, 10, np.random.default_rng(0), ess_threshold=theta)
        assert np.isfinite(out.logZ)

    def test_never_resampling_equals_sequential_importance_sampling(self):
        # ess_threshold=0 never resamples after t = 1, so the filter is
        # plain SIS: logZ is the log-mean of the trajectory likelihoods
        # and the last filter mean is their weighted mean.
        spec = StssmSpec.chain(n_x=3, tau=1.0, lam=1.0, obs_var=0.25)
        data = simulate(spec, 5, seed=20)
        N = 50
        out = bootstrap_pf(spec, data, N, np.random.default_rng(21), ess_threshold=0.0)

        model = make_model(spec)
        rng = np.random.default_rng(21)
        x = np.zeros((N, 3))
        loglik = np.zeros(N)
        for t in range(data.T):
            x = model.sample_transition(x, rng, t + 1)
            loglik += model.log_obs(data.observations[t], x)
        np.testing.assert_allclose(out.logZ, logsumexp(loglik) - np.log(N), rtol=1e-12)
        weights = np.exp(loglik - logsumexp(loglik))
        np.testing.assert_allclose(out.filter_means[-1], weights @ x, rtol=1e-12)

    def test_weight_collapse_reports_step(self):
        # An observation far enough out that the squared residual
        # overflows drives every log-weight to -inf.
        spec = StssmSpec.chain(n_x=1, tau=1.0, lam=0.0, obs_var=1e-12)
        data = simulate(spec, 3, seed=18)
        data = type(data)(
            T=3, observations=np.full((3, 1), 1e200), latent_truth=None, seed=0
        )
        with pytest.raises(WeightCollapseError) as err:
            bootstrap_pf(spec, data, 16, np.random.default_rng(19))
        assert err.value.step == 1
