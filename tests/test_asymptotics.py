"""Tests for the variance constants and the N-versus-M trade-off formulas."""

import warnings

import numpy as np
import pytest
from scipy.stats import norm

from nsmc import InvalidInputError
from nsmc.asymptotics import (
    VarianceConstants,
    _ratio_constants,
    compute_constants,
    scalar_posterior_joint,
    sigma_fa,
    sigma_nsmc,
    variance_curve,
)
from nsmc.model import IndependentSsmSpec

SPEC = IndependentSsmSpec(
    n_x=2, a_coef=0.5, init_mean=0.0, init_var=1.0, trans_var=1.0, obs_var=1.0
)


class TestPosteriorJoint:
    def test_matches_scalar_kalman_filter(self):
        from oracles import scalar_kalman_loglik

        ys = np.array([0.7, -0.4, 1.1])
        mean, cov = scalar_posterior_joint(SPEC, ys)
        # Final-time marginal must agree with a forward filter.
        m, v = SPEC.init_mean, SPEC.init_var
        for k, y in enumerate(ys):
            if k > 0:
                m, v = SPEC.a_coef * m, SPEC.a_coef**2 * v + SPEC.trans_var
            s = v + SPEC.obs_var
            gain = v / s
            m, v = m + gain * (y - m), v * SPEC.obs_var / s
        np.testing.assert_allclose(mean[-1], m, rtol=1e-12)
        np.testing.assert_allclose(cov[-1, -1], v, rtol=1e-12)

    @pytest.mark.parametrize(
        "a_coef, init_mean, h", [(0.5, 0.0, 1), (0.9, 1.5, 4), (-1.2, -0.7, 6), (3.0, 0.4, 8)]
    )
    def test_matches_dense_information_form(self, a_coef, init_mean, h):
        from oracles import dense_scalar_posterior

        spec = IndependentSsmSpec(
            n_x=1, a_coef=a_coef, init_mean=init_mean, init_var=2.0, trans_var=0.5, obs_var=0.3
        )
        ys = np.sin(np.arange(1.0, h + 1.0))
        mean, cov = scalar_posterior_joint(spec, ys)
        ref_mean, ref_cov = dense_scalar_posterior(spec, ys)
        np.testing.assert_allclose(mean, ref_mean, rtol=1e-12, atol=1e-14)
        np.testing.assert_allclose(cov, ref_cov, rtol=1e-12, atol=1e-14)
        np.testing.assert_array_equal(cov, cov.T)


class TestConstants:
    def test_boundary_values_exact(self):
        consts = compute_constants(SPEC, 3)
        assert consts.a_s[0] == 0.0
        assert consts.b_s[0] == 1.0
        assert consts.c_s[0] == 0.0

    def test_symmetric_model_kills_odd_constants(self):
        consts = compute_constants(SPEC, 3)  # ys = 0: zero posterior means
        np.testing.assert_allclose(consts.c_s, 0.0, atol=1e-14)
        np.testing.assert_allclose(consts.c_tilde, 0.0, atol=1e-14)

    def test_closed_form_matches_gauss_hermite(self):
        # Each constant against the k-dimensional integral over the whole
        # prefix x_{1:k}: the one-dimensional reduction must be exact.
        from oracles import dense_predictive_joint, dense_scalar_posterior, ratio_integral_gh

        spec = IndependentSsmSpec(
            n_x=2, a_coef=-0.8, init_mean=0.6, init_var=1.5, trans_var=0.7, obs_var=0.9
        )
        t = 3
        ys = np.array([0.5, -0.2, 0.9])
        cf = compute_constants(spec, t, ys=ys)
        mean_t, cov_t = dense_scalar_posterior(spec, ys)

        def gh(k, den, name):
            beta = cov_t[t - 1, k - 1] / cov_t[k - 1, k - 1]
            alpha = mean_t[t - 1] - beta * mean_t[k - 1]
            num = (mean_t[:k], cov_t[:k, :k])
            return [ratio_integral_gh(*num, *den, alpha, beta, j, name) for j in (2, 0, 1)]

        for s in range(t):
            tilde = gh(s + 1, dense_predictive_joint(spec, ys[:s]), f"A/B/C~_{s}")
            np.testing.assert_allclose(
                [cf.a_tilde[s], cf.b_tilde[s], cf.c_tilde[s]], tilde, rtol=1e-6, atol=1e-12
            )
            if s > 0:
                plain = gh(s, dense_scalar_posterior(spec, ys[:s]), f"A/B/C_{s}")
                np.testing.assert_allclose(
                    [cf.a_s[s], cf.b_s[s], cf.c_s[s]], plain, rtol=1e-6, atol=1e-12
                )
        np.testing.assert_allclose(cf.a_t, mean_t[-1] ** 2 + cov_t[-1, -1], rtol=1e-12)

    @pytest.mark.parametrize("a_coef", [1e3, 1e5, 1e6])
    def test_explosive_model_matches_one_dimensional_reference(self, a_coef):
        # At large a_coef the k-dimensional ratio Gaussians are badly
        # conditioned (b~ spans 7e5 to 5e11 at 1e6); the scalar route must
        # keep its digits.
        from oracles import scalar_variance_constants

        spec = IndependentSsmSpec(n_x=2, a_coef=a_coef)
        ys = np.linspace(-0.5, 0.5, 4)
        consts = compute_constants(spec, 4, ys=ys)
        ref = scalar_variance_constants(spec, ys)
        for name, value in ref.items():
            np.testing.assert_allclose(getattr(consts, name), value, rtol=1e-9, err_msg=name)

    def test_monte_carlo_cross_check(self):
        # Importance sampling from the filtering joint (extended by the
        # transition for the tilde constants) reproduces every constant.
        t = 3
        ys = np.array([0.4, -0.3, 0.8])
        consts = compute_constants(SPEC, t, ys=ys)
        rng = np.random.default_rng(0)
        R = 2 * 10**5
        mean_t, cov_t = scalar_posterior_joint(SPEC, ys)
        chol_t = np.linalg.cholesky(cov_t)

        def joint_logpdf(x, mean, cov):
            lam = np.linalg.inv(cov)
            _, logdet = np.linalg.slogdet(cov)
            diff = x - mean
            return -0.5 * (
                np.einsum("...i,ij,...j->...", diff, lam, diff)
                + logdet
                + mean.size * np.log(2 * np.pi)
            )

        for s in range(1, t):
            mean_s, cov_s = scalar_posterior_joint(SPEC, ys[:s])
            chol_s = np.linalg.cholesky(cov_s)
            xs = mean_s + rng.standard_normal((R, s)) @ chol_s.T
            logr = 2.0 * joint_logpdf(xs, mean_t[:s], cov_t[:s, :s]) - 2.0 * (
                joint_logpdf(xs, mean_s, cov_s)
            )
            w = np.exp(logr)
            beta = cov_t[t - 1, s - 1] / cov_t[s - 1, s - 1]
            alpha = mean_t[t - 1] - beta * mean_t[s - 1]
            cond = alpha + beta * xs[:, -1]
            for value, truth in (
                (w, consts.b_s[s]),
                (w * cond, consts.c_s[s]),
                (w * cond**2, consts.a_s[s]),
            ):
                se = value.std(ddof=1) / np.sqrt(R)
                assert abs(value.mean() - truth) < 3 * se

        for s in range(t):
            k = s + 1
            if s == 0:
                xs = SPEC.init_mean + np.sqrt(SPEC.init_var) * rng.standard_normal(
                    (R, 1)
                )
                log_den = norm.logpdf(
                    xs[:, 0], SPEC.init_mean, np.sqrt(SPEC.init_var)
                )
            else:
                mean_s, cov_s = scalar_posterior_joint(SPEC, ys[:s])
                chol_s = np.linalg.cholesky(cov_s)
                head = mean_s + rng.standard_normal((R, s)) @ chol_s.T
                tail = SPEC.a_coef * head[:, -1:] + np.sqrt(
                    SPEC.trans_var
                ) * rng.standard_normal((R, 1))
                xs = np.concatenate([head, tail], axis=1)
                log_den = joint_logpdf(head, mean_s, cov_s) + norm.logpdf(
                    tail[:, 0], SPEC.a_coef * head[:, -1], np.sqrt(SPEC.trans_var)
                )
            logr = 2.0 * joint_logpdf(xs, mean_t[:k], cov_t[:k, :k]) - 2.0 * log_den
            w = np.exp(logr)
            beta = cov_t[t - 1, k - 1] / cov_t[k - 1, k - 1]
            alpha = mean_t[t - 1] - beta * mean_t[k - 1]
            cond = alpha + beta * xs[:, -1]
            for value, truth in (
                (w, consts.b_tilde[s]),
                (w * cond, consts.c_tilde[s]),
                (w * cond**2, consts.a_tilde[s]),
            ):
                se = value.std(ddof=1) / np.sqrt(R)
                assert abs(value.mean() - truth) < 3 * se

    def test_divergent_ratio_raises_named_error(self):
        # N(0, 4)^2 / N(0, 1) has precision 2/4 - 1/1 < 0.
        with pytest.raises(np.linalg.LinAlgError, match="A_test"):
            _ratio_constants(0.0, 4.0, 0.0, 1.0, 0.0, 1.0, "A_test")
        with pytest.raises(InvalidInputError, match="A_test"):
            _ratio_constants(0.0, 4.0, 0.0, 1.0, 0.0, 1.0, "A_test")

    @pytest.mark.parametrize("t", [1, 2, 3, 4, 6, 10])
    @pytest.mark.parametrize("sign", [1.0, -1.0], ids=["positive", "negative"])
    def test_explosive_grid_is_finite_or_named(self, sign, t):
        # Every spec the constructor accepts, up to |a_coef| = 1e154, gives
        # finite constants and curve rows or InvalidInputError, and never a
        # raw numpy error or a RuntimeWarning.
        ys = np.linspace(-0.5, 0.5, t)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for exponent in range(0, 155, 2):
                spec = IndependentSsmSpec(n_x=3, a_coef=sign * 10.0**exponent)
                try:
                    consts = compute_constants(spec, t, ys=ys)
                    rows = variance_curve(spec, t, 3, [2, 10], ys=ys)
                except InvalidInputError:
                    assert exponent > 2, exponent
                    continue
                for name in ("a_s", "a_tilde", "b_s", "b_tilde", "c_s", "c_tilde"):
                    assert np.all(np.isfinite(getattr(consts, name))), (exponent, name)
                assert np.isfinite(consts.a_t) and np.all(np.isfinite(rows)), exponent

    def test_variance_overflow_is_named(self):
        # b_s = 1.0019 raised to the power n_x - 1 = 10**6 - 1 overflows.
        consts = compute_constants(SPEC, 3)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(InvalidInputError, match="^sigma_fa is not finite"):
                sigma_fa(consts, 10**6, 3)
            with pytest.raises(InvalidInputError, match="^sigma_nsmc is not finite"):
                sigma_nsmc(consts, 10**6, 3, 2)

    def test_validation(self):
        with pytest.raises(ValueError):
            compute_constants(SPEC, 0)
        with pytest.raises(InvalidInputError, match="ys must be finite"):
            compute_constants(SPEC, 2, ys=[np.nan, 0.0])
        names = ("a_s", "a_tilde", "b_s", "b_tilde", "c_s", "c_tilde")
        fields = {name: np.ones(1) for name in names}
        with pytest.raises(ValueError, match="all b_s must be positive"):
            VarianceConstants(t=1, a_t=1.0, **{**fields, "b_s": np.zeros(1)})
        with pytest.raises(ValueError, match="c_tilde must have length t=1"):
            VarianceConstants(t=1, a_t=1.0, **{**fields, "c_tilde": np.ones(2)})


class TestSigmaFormulas:
    def test_single_dimension_collapses_to_sum(self):
        consts = compute_constants(SPEC, 3)
        expected = consts.a_t + consts.a_s[1] + consts.a_s[2]
        np.testing.assert_allclose(sigma_fa(consts, 1, 3), expected, rtol=1e-12)

    def test_symmetric_case_has_no_cross_terms(self):
        consts = compute_constants(SPEC, 2)
        n_x = 4
        expected = n_x * (consts.a_t + consts.b_s[1] ** (n_x - 1) * consts.a_s[1])
        np.testing.assert_allclose(sigma_fa(consts, n_x, 2), expected, rtol=1e-12)

    def test_limit_recovers_fully_adapted(self):
        for t in (2, 3):
            consts = compute_constants(SPEC, t, ys=np.linspace(-0.5, 0.5, t))
            for n_x in (1, 2, 10):
                fa = sigma_fa(consts, n_x, t)
                lim = sigma_nsmc(consts, n_x, t, 10**9)
                assert abs(lim - fa) / fa <= 1e-6

    def test_monotone_decrease_in_m(self):
        consts = compute_constants(SPEC, 2)
        vals = [sigma_nsmc(consts, 3, 2, m) for m in (2, 5, 10, 100, 10**4)]
        diffs = np.diff(vals)
        if not np.all(diffs <= 1e-12):
            pytest.fail(
                "variance not monotone in M on this instance; worth a closer "
                f"look: {vals}"
            )

    def test_nsmc_dominates_fully_adapted(self):
        consts = compute_constants(SPEC, 3)
        fa = sigma_fa(consts, 5, 3)
        for m in (2, 5, 50):
            assert sigma_nsmc(consts, 5, 3, m) >= fa - 1e-12

    def test_m_one_out_of_domain(self):
        consts = compute_constants(SPEC, 2)
        with pytest.raises(ValueError):
            sigma_nsmc(consts, 2, 2, 1)

    def test_horizon_mismatch_rejected(self):
        consts = compute_constants(SPEC, 2)
        with pytest.raises(ValueError, match="different horizon"):
            sigma_fa(consts, 2, 3)
        with pytest.raises(ValueError, match="different horizon"):
            sigma_nsmc(consts, 2, 3, 5)

    def test_variance_curve_rows(self):
        rows = variance_curve(SPEC, 2, 2, [2, 10, 10**9])
        assert [r[0] for r in rows] == [2, 10, 10**9]
        assert rows[-1][1] == pytest.approx(rows[-1][2], rel=1e-6)
