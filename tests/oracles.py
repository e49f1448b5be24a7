"""Reference computations used as independent test oracles.

Most of it works on full matrices with generic linear algebra.  The
scalar references for explosive models, where dense inverses lose their
digits, use a two-filter smoother instead of the package's
Rauch-Tung-Striebel pass.  None of it shares code with the package,
which is the point.
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


def dense_scalar_posterior(spec, ys):
    """Joint Gaussian posterior of one scalar chain, ``x_{1:h} | y_{1:h}``,
    from the dense inverse of its tridiagonal information matrix."""
    ys = np.asarray(ys, dtype=float)
    h = ys.size
    a, sv, sy = spec.a_coef, spec.trans_var, spec.obs_var
    lam = np.diag(np.full(h, 1.0 / sv + 1.0 / sy))
    lam[0, 0] = 1.0 / spec.init_var + 1.0 / sy
    for s in range(1, h):
        lam[s - 1, s - 1] += a * a / sv
        lam[s - 1, s] = lam[s, s - 1] = -a / sv
    # The prior's information vector is init_mean / init_var at x_1 only.
    eta = ys / sy
    eta[0] += spec.init_mean / spec.init_var
    cov = np.linalg.inv(lam)
    cov = 0.5 * (cov + cov.T)
    return cov @ eta, cov


def dense_predictive_joint(spec, ys):
    """Joint law of ``x_{1:s+1} | y_{1:s}`` for ``s = len(ys)``: the dense
    filtering joint extended by one transition (the initial law at s = 0)."""
    s = len(ys)
    if s == 0:
        return np.array([spec.init_mean]), np.array([[spec.init_var]])
    mean_s, cov_s = dense_scalar_posterior(spec, ys)
    a = spec.a_coef
    cov = np.zeros((s + 1, s + 1))
    cov[:s, :s] = cov_s
    cov[:s, s] = cov[s, :s] = a * cov_s[:, s - 1]
    cov[s, s] = a * a * cov_s[s - 1, s - 1] + spec.trans_var
    return np.append(mean_s, a * mean_s[s - 1]), cov


def ratio_integral_gh(mean_n, cov_n, mean_d, cov_d, alpha, beta, degree, name, rel_tol=1e-6):
    """Tensor-product Gauss-Hermite evaluation of the integral of
    ``N_n(x)^2 / N_d(x) * (alpha + beta * x_last)^degree``, with the
    order doubled until two successive values agree to ``rel_tol``.

    The nodes sit on the Gaussian with precision ``2 Lam_n - Lam_d`` and
    the matching mean, built here from dense inverses; the integrand is
    evaluated pointwise.  Raises ``AssertionError`` if that precision is
    not positive definite or order 128 is reached without agreement.
    """
    lam_n, lam_d = np.linalg.inv(cov_n), np.linalg.inv(cov_d)
    lam_star = 2.0 * lam_n - lam_d
    assert np.all(np.linalg.eigvalsh(lam_star) > 0.0), f"{name}: ratio integral diverges"
    cov_star = np.linalg.inv(lam_star)
    cov_star = 0.5 * (cov_star + cov_star.T)
    mean_star = cov_star @ (2.0 * lam_n @ mean_n - lam_d @ mean_d)
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


def _filter_moments(spec, ys, mean, var):
    """Filtering means and variances of one scalar chain over ``ys``,
    started from ``x_0 ~ N(mean, var)`` before the first transition, in
    information form."""
    out = []
    for y in ys:
        mean, var = spec.a_coef * mean, spec.a_coef**2 * var + spec.trans_var
        prec = 1.0 / var + 1.0 / spec.obs_var
        mean, var = (mean / var + y / spec.obs_var) / prec, 1.0 / prec
        out.append((mean, var))
    return out


def two_filter_marginals(spec, ys):
    """Marginals of one scalar chain and the regressions of ``x_h`` on
    each ``x_k``, with no dense inverse, by a different route than the
    package's Rauch-Tung-Striebel pass.

    Returns ``(pred, filt, smooth, reg)``, lists of ``(mean, var)`` per
    ``k`` for the predictive law given ``y_{1:k-1}``, the filtering law
    given ``y_{1:k}`` and the smoothing law given ``y_{1:h}``, and of
    ``(alpha, beta)`` with ``E[x_h | x_k, y_{1:h}] = alpha + beta * x_k``.
    Smoothing multiplies the filtering law by the backward information
    filter's likelihood ``p(y_{k+1:h} | x_k)``.  The regression is the
    filter over ``y_{k+1:h}`` started at a known ``x_k``: its final mean
    is linear in ``x_k``.
    """
    ys = np.asarray(ys, dtype=float)
    h = ys.size
    a, sv, sy = spec.a_coef, spec.trans_var, spec.obs_var
    pred = [(spec.init_mean, spec.init_var)]
    prec = 1.0 / spec.init_var + 1.0 / sy
    filt = [((spec.init_mean / spec.init_var + ys[0] / sy) / prec, 1.0 / prec)]
    for y in ys[1:]:
        m, v = filt[-1]
        pred.append((a * m, a * a * v + sv))
        filt.append(_filter_moments(spec, [y], m, v)[0])
    # Backward information filter: p(y_{k+1:h} | x_k) ~ exp(-P x^2 / 2 + r x).
    info = [(0.0, 0.0)]
    for y in ys[:0:-1]:
        p_next, r_next = info[0][0] + 1.0 / sy, info[0][1] + y / sy
        info.insert(0, (a * a * p_next / (1.0 + sv * p_next), a * r_next / (1.0 + sv * p_next)))
    smooth = []
    for (m, v), (p, r) in zip(filt, info):
        prec = 1.0 / v + p
        smooth.append(((m / v + r) / prec, 1.0 / prec))
    reg = []
    for k in range(h):
        if k == h - 1:
            reg.append((0.0, 1.0))
            continue
        alpha = _filter_moments(spec, ys[k + 1 :], 0.0, 0.0)[-1][0]
        reg.append((alpha, _filter_moments(spec, ys[k + 1 :], 1.0, 0.0)[-1][0] - alpha))
    return pred, filt, smooth, reg


def scalar_ratio_gh(mean_n, var_n, mean_d, var_d, alpha, beta, degree, rel_tol=1e-13):
    """One-dimensional Gauss-Hermite evaluation of the integral of
    ``N(x; mean_n, var_n)^2 / N(x; mean_d, var_d) * (alpha + beta * x)^degree``,
    nodes on the Gaussian with precision ``2 / var_n - 1 / var_d``, the
    integrand evaluated pointwise in logs, the order doubled until two
    values agree to ``rel_tol`` of the sum of the terms' magnitudes."""

    def log_pdf(x, mean, var):
        return -0.5 * (np.log(2.0 * np.pi * var) + (x - mean) ** 2 / var)

    prec = 2.0 / var_n - 1.0 / var_d
    assert prec > 0.0, "ratio integral diverges"
    var = 1.0 / prec
    mean = var * (2.0 * mean_n / var_n - mean_d / var_d)
    prev = None
    for order in (8, 16, 32, 64):
        nodes, weights = np.polynomial.hermite.hermgauss(order)
        x = mean + np.sqrt(2.0 * var) * nodes
        log_ratio = 2.0 * log_pdf(x, mean_n, var_n) - log_pdf(x, mean_d, var_d)
        ratio = np.exp(log_ratio - log_pdf(x, mean, var))
        terms = weights * ratio * (alpha + beta * x) ** degree / np.sqrt(np.pi)
        val = np.sum(terms)
        if prev is not None and abs(val - prev) <= rel_tol * np.sum(np.abs(terms)):
            return float(val)
        prev = val
    raise AssertionError("Gauss-Hermite did not converge by order 64")


def scalar_variance_constants(spec, ys) -> dict:
    """Every constant of ``nsmc.asymptotics.compute_constants`` as a
    one-dimensional integral over the marginals of
    :func:`two_filter_marginals`, keyed by the ``VarianceConstants``
    field names."""
    t = len(ys)
    pred, filt, smooth, reg = two_filter_marginals(spec, ys)
    out = {name: np.zeros(t) for name in ("a_s", "b_s", "c_s", "a_tilde", "b_tilde", "c_tilde")}
    out["b_s"][0] = 1.0
    for i in range(t):
        for den, names, s in ((pred[i], ("a_tilde", "b_tilde", "c_tilde"), i),
                              (filt[i], ("a_s", "b_s", "c_s"), i + 1)):
            if s < t:
                for name, degree in zip(names, (2, 0, 1)):
                    out[name][s] = scalar_ratio_gh(*smooth[i], *den, *reg[i], degree)
    out["a_t"] = smooth[-1][0] ** 2 + smooth[-1][1]
    return out
