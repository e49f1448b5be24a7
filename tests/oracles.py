"""Dense-matrix reference computations used as independent test oracles.

Everything here works on full matrices with generic linear algebra; none
of it shares code with the package's banded/sequential recursions, which
is the point.
"""

import numpy as np
from scipy.stats import multivariate_normal


def dense_gmrf_cov(prec) -> np.ndarray:
    """Inverse of a tridiagonal precision via dense inversion."""
    cov = np.linalg.inv(prec.dense())
    return 0.5 * (cov + cov.T)


def dense_conditional(spec, x_prev, y_t):
    """Moments of one conditional update of the chain model.

    Returns ``(log_nu, mean_x, cov_x)``: the predictive log-density of
    ``y_t`` given ``x_prev`` and the posterior moments of ``x_t``, all
    from dense formulas.
    """
    n = spec.n_x
    q = spec.noise_precision.dense()
    ytil = np.asarray(y_t, dtype=float) - spec.a_coef * np.asarray(x_prev, dtype=float)
    marg_cov = np.linalg.inv(q) + spec.obs_var * np.eye(n)
    log_nu = multivariate_normal(mean=np.zeros(n), cov=marg_cov).logpdf(ytil)
    lam = q + np.eye(n) / spec.obs_var
    cov_v = np.linalg.inv(lam)
    cov_v = 0.5 * (cov_v + cov_v.T)
    mean_v = cov_v @ (ytil / spec.obs_var)
    mean_x = spec.a_coef * np.asarray(x_prev, dtype=float) + mean_v
    return float(log_nu), mean_x, cov_v


def dense_joint_loglik(spec, ys) -> float:
    """Marginal log-likelihood of stacked observations from the full
    joint Gaussian of the latent trajectory, built block by block."""
    ys = np.asarray(ys, dtype=float)
    T, n = ys.shape
    a = spec.a_coef
    noise_cov = dense_gmrf_cov(spec.noise_precision)
    marg = [noise_cov]
    for _ in range(1, T):
        marg.append(a * a * marg[-1] + noise_cov)
    full = np.zeros((T * n, T * n))
    for t in range(T):
        for s in range(T):
            lo, hi = min(t, s), max(t, s)
            full[t * n : (t + 1) * n, s * n : (s + 1) * n] = a ** (hi - lo) * marg[lo]
    full += spec.obs_var * np.eye(T * n)
    return float(
        multivariate_normal(mean=np.zeros(T * n), cov=full).logpdf(ys.ravel())
    )


def scalar_kalman_loglik(a, init_mean, init_var, trans_var, obs_var, ys) -> float:
    """Log-likelihood of one scalar linear-Gaussian chain."""
    mean, var = init_mean, init_var
    total = 0.0
    for k, y in enumerate(np.asarray(ys, dtype=float)):
        if k > 0:
            mean, var = a * mean, a * a * var + trans_var
        s = var + obs_var
        total += -0.5 * (np.log(2.0 * np.pi * s) + (y - mean) ** 2 / s)
        gain = var / s
        mean = mean + gain * (y - mean)
        var = var * obs_var / s
    return float(total)


def independent_loglik(spec, ys) -> float:
    """Exact log-likelihood of the independent product model (shared
    observations enter every coordinate's likelihood)."""
    ys = np.asarray(ys, dtype=float)
    total = 0.0
    for d in range(spec.n_x):
        total += scalar_kalman_loglik(
            spec.a_coef,
            spec.init_mean,
            spec.init_var,
            spec.trans_var,
            spec.obs_var,
            ys[:, d],
        )
    return total


def mvn_logpdf(x, mean, cov):
    """Dense multivariate normal log-density, batched over rows of ``x``."""
    lam = np.linalg.inv(cov)
    _, logdet = np.linalg.slogdet(cov)
    diff = x - mean
    return -0.5 * (
        np.einsum("...i,ij,...j->...", diff, lam, diff)
        + logdet
        + mean.size * np.log(2.0 * np.pi)
    )


def ratio_integral_gh(mean_n, cov_n, mean_d, cov_d, alpha, beta, degree, name, rel_tol=1e-6):
    """Tensor-product Gauss-Hermite evaluation of the integral of
    ``N_n(x)^2 / N_d(x) * (alpha + beta * x_last)^degree``, with the
    order doubled until two successive values agree to ``rel_tol``.

    ``degree`` 2, 0 and 1 give the three integrals of
    ``nsmc.asymptotics._ratio_constants``.  Only the reference Gaussian
    the nodes are placed on comes from the package's ``_ratio_moments``;
    the integrand is evaluated pointwise.  Raises ``AssertionError`` if
    order 128 is reached without agreement.
    """
    from nsmc.asymptotics import _ratio_moments

    mean_star, cov_star, _ = _ratio_moments(mean_n, cov_n, mean_d, cov_d, name)
    k = mean_star.size
    chol = np.linalg.cholesky(cov_star)
    prev = None
    order = 8
    while order <= 128:
        nodes, weights = np.polynomial.hermite.hermgauss(order)
        grids = np.meshgrid(*([nodes] * k), indexing="ij")
        z = np.stack([g.ravel() for g in grids], axis=-1)
        wgrid = np.meshgrid(*([weights] * k), indexing="ij")
        w = np.prod(np.stack([g.ravel() for g in wgrid], axis=-1), axis=-1)
        x = mean_star + np.sqrt(2.0) * z @ chol.T
        log_f = 2.0 * mvn_logpdf(x, mean_n, cov_n) - mvn_logpdf(x, mean_d, cov_d)
        poly = (alpha + beta * x[:, -1]) ** degree if degree else np.ones(len(x))
        log_ref = mvn_logpdf(x, mean_star, cov_star)
        val = np.pi ** (-k / 2.0) * np.sum(w * np.exp(log_f - log_ref) * poly)
        if prev is not None and abs(val - prev) <= rel_tol * max(abs(val), 1e-300):
            return float(val)
        prev = val
        order *= 2
    raise AssertionError(f"{name}: Gauss-Hermite did not converge by order 128")
