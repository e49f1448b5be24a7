"""Asymptotic-variance calculators for the independent product model.

For ``n_x`` independent copies of a scalar linear-Gaussian SSM and the
test function ``phi = sum_d x_{t,d}``, the large-N variance of both the
fully adapted filter and the nested filter with ``M`` inner particles
reduces to closed-form combinations of scalar integrals: ratios of
smoothing and filtering marginals times conditional-mean polynomials.
This module evaluates those constants in closed form, and the two
variance formulas, whose gap closes as ``M`` grows.  A ``t``, ``n_x``
or ``M`` that is not an integer >= 1 raises ``InvalidInputError``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .model import _LOG_2PI, IndependentSsmSpec, _check_count

__all__ = [
    "VarianceConstants",
    "scalar_posterior_joint",
    "compute_constants",
    "sigma_fa",
    "sigma_nsmc",
    "variance_curve",
]


def scalar_posterior_joint(
    spec: IndependentSsmSpec, ys: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Joint Gaussian posterior of one scalar chain given observations.

    Returns mean vector and covariance of ``x_{1:h} | y_{1:h}`` for
    ``h = len(ys)``, built from the tridiagonal prior precision plus the
    observation precision.
    """
    ys = np.asarray(ys, dtype=float)
    h = ys.size
    a, sv, s1, sy = spec.a_coef, spec.trans_var, spec.init_var, spec.obs_var
    lam = np.zeros((h, h))
    lam[0, 0] = 1.0 / s1
    for s in range(1, h):
        lam[s, s] += 1.0 / sv
        lam[s - 1, s - 1] += a * a / sv
        lam[s - 1, s] -= a / sv
        lam[s, s - 1] -= a / sv
    prior_mean = spec.init_mean * a ** np.arange(h)
    eta = lam @ prior_mean + ys / sy
    lam_post = lam + np.eye(h) / sy
    cov = np.linalg.inv(lam_post)
    cov = 0.5 * (cov + cov.T)
    return cov @ eta, cov


@dataclass(frozen=True)
class VarianceConstants:
    """Scalar integral constants for horizons ``s = 0 .. t-1`` plus ``a_t``.

    Boundary values are pinned exactly: ``a_s[0] = 0``, ``b_s[0] = 1``,
    ``c_s[0] = 0``.
    """

    t: int
    a_t: float
    a_s: np.ndarray
    a_tilde: np.ndarray
    b_s: np.ndarray
    b_tilde: np.ndarray
    c_s: np.ndarray
    c_tilde: np.ndarray

    def __post_init__(self):
        for name in ("a_s", "a_tilde", "b_s", "b_tilde", "c_s", "c_tilde"):
            arr = np.asarray(getattr(self, name), dtype=float)
            object.__setattr__(self, name, arr)
            if arr.shape != (self.t,):
                raise ValueError(f"{name} must have length t={self.t}")
        if np.any(self.b_s <= 0.0):
            raise ValueError("all b_s must be positive")


def _log_gauss_const(mean, lam, logdet_lam):
    return -0.5 * (mean @ lam @ mean) + 0.5 * logdet_lam - 0.5 * mean.size * _LOG_2PI


def _ratio_moments(mean_n, cov_n, mean_d, cov_d, name: str):
    """Gaussian parameters of ``N_n(x)^2 / N_d(x)`` and its log mass.

    The squared-over-single ratio of Gaussians is an unnormalized
    Gaussian with precision ``2*Lam_n - Lam_d`` whenever that matrix is
    positive definite; otherwise the integral diverges.
    """
    lam_n = np.linalg.inv(cov_n)
    lam_d = np.linalg.inv(cov_d)
    lam_star = 2.0 * lam_n - lam_d
    try:
        np.linalg.cholesky(lam_star)
    except np.linalg.LinAlgError as err:
        raise np.linalg.LinAlgError(
            f"constant {name}: ratio integral diverges "
            "(2*Lam_n - Lam_d is not positive definite)"
        ) from err
    h = 2.0 * lam_n @ mean_n - lam_d @ mean_d
    cov_star = np.linalg.inv(lam_star)
    cov_star = 0.5 * (cov_star + cov_star.T)
    mean_star = cov_star @ h
    sign_n, logdet_n = np.linalg.slogdet(lam_n)
    sign_d, logdet_d = np.linalg.slogdet(lam_d)
    sign_s, logdet_s = np.linalg.slogdet(lam_star)
    log_mass = (
        2.0 * _log_gauss_const(mean_n, lam_n, logdet_n)
        - _log_gauss_const(mean_d, lam_d, logdet_d)
        + 0.5 * (h @ mean_star)
        + 0.5 * mean_n.size * _LOG_2PI
        - 0.5 * logdet_s
    )
    return mean_star, cov_star, log_mass


def _ratio_constants(mean_n, cov_n, mean_d, cov_d, alpha, beta, name):
    """``(A, B, C)``: the integrals of ``N_n(x)^2 / N_d(x)`` times
    ``(alpha + beta * x_last)^k`` for ``k = 2, 0, 1``, from one
    :func:`_ratio_moments` pass."""
    mean_star, cov_star, log_mass = _ratio_moments(
        mean_n, cov_n, mean_d, cov_d, name
    )
    mass = np.exp(log_mass)
    loc = alpha + beta * mean_star[-1]
    second = loc * loc + beta * beta * cov_star[-1, -1]
    return float(mass * second), float(mass), float(mass * loc)


def compute_constants(
    scalar_model: IndependentSsmSpec,
    t: int,
    ys: np.ndarray | None = None,
) -> VarianceConstants:
    """Evaluate the variance constants for estimation horizon ``t``.

    ``ys`` holds the shared scalar observations ``y_{1:t}`` (zeros by
    default, the symmetric zero-posterior-mean case).  The inner-stage
    proposal is the scalar transition density, with the initial density
    standing in at the first step.
    """
    t = _check_count(t, "t")
    ys = np.zeros(t) if ys is None else np.asarray(ys, dtype=float)
    if ys.shape != (t,):
        raise ValueError("ys must have length t")

    mean_t, cov_t = scalar_posterior_joint(scalar_model, ys)
    a_t = float(mean_t[t - 1] ** 2 + cov_t[t - 1, t - 1])

    a_s = np.zeros(t)
    b_s = np.zeros(t)
    c_s = np.zeros(t)
    a_s[0], b_s[0], c_s[0] = 0.0, 1.0, 0.0
    a_til = np.zeros(t)
    b_til = np.zeros(t)
    c_til = np.zeros(t)

    def regression(k):
        """Coefficients of E[x_t | x_k] under the horizon-t posterior."""
        beta = cov_t[t - 1, k - 1] / cov_t[k - 1, k - 1]
        alpha = mean_t[t - 1] - beta * mean_t[k - 1]
        return alpha, beta

    for s in range(t):
        k = s + 1
        num_mean, num_cov = mean_t[:k], cov_t[:k, :k]
        if s == 0:
            den_mean = np.array([scalar_model.init_mean])
            den_cov = np.array([[scalar_model.init_var]])
        else:
            mean_s, cov_s = scalar_posterior_joint(scalar_model, ys[:s])
            a_s[s], b_s[s], c_s[s] = _ratio_constants(
                mean_t[:s], cov_t[:s, :s], mean_s, cov_s, *regression(s), f"A/B/C_{s}"
            )
            den_mean = np.append(mean_s, scalar_model.a_coef * mean_s[s - 1])
            den_cov = np.zeros((k, k))
            den_cov[:s, :s] = cov_s
            den_cov[:s, s] = scalar_model.a_coef * cov_s[:, s - 1]
            den_cov[s, :s] = den_cov[:s, s]
            den_cov[s, s] = (
                scalar_model.a_coef**2 * cov_s[s - 1, s - 1] + scalar_model.trans_var
            )
        a_til[s], b_til[s], c_til[s] = _ratio_constants(
            num_mean, num_cov, den_mean, den_cov, *regression(k), f"A/B/C~_{s}"
        )

    return VarianceConstants(
        t=t,
        a_t=a_t,
        a_s=a_s,
        a_tilde=a_til,
        b_s=b_s,
        b_tilde=b_til,
        c_s=c_s,
        c_tilde=c_til,
    )


def sigma_fa(consts: VarianceConstants, n_x: int, t: int) -> float:
    """Asymptotic variance of the fully adapted filter for ``phi = sum_d x_{t,d}``."""
    if t != consts.t:
        raise ValueError("constants were computed for a different horizon")
    n_x = _check_count(n_x, "n_x")
    total = n_x * consts.a_t
    for s in range(1, t):
        total += n_x * consts.b_s[s] ** (n_x - 1) * consts.a_s[s]
        if n_x > 1:
            total += (
                n_x
                * (n_x - 1)
                * consts.b_s[s] ** (n_x - 2)
                * consts.c_s[s] ** 2
            )
    return float(total)


def sigma_nsmc(consts: VarianceConstants, n_x: int, t: int, M: int) -> float:
    """Asymptotic variance of the nested filter with ``M`` inner particles.

    Requires ``M >= 2``: the inner-correction factors carry an ``M - 1``
    denominator, so ``M = 1`` is outside the formula's domain.
    """
    if t != consts.t:
        raise ValueError("constants were computed for a different horizon")
    n_x, M = _check_count(n_x, "n_x"), _check_count(M, "M")
    if M < 2:
        raise ValueError("sigma_nsmc requires M >= 2")
    total = n_x * consts.a_t
    for s in range(t):
        bs, bt = consts.b_s[s], consts.b_tilde[s]
        infl = 1.0 + bt / (bs * (M - 1))
        shrink = 1.0 - 1.0 / M
        a_corr = consts.a_s[s] + (consts.a_tilde[s] - consts.a_s[s]) / M
        total += (
            n_x * bs ** (n_x - 1) * a_corr * shrink ** (n_x - 1) * infl ** (n_x - 1)
        )
        if n_x > 1:
            c_corr = consts.c_s[s] + (consts.c_tilde[s] - consts.c_s[s]) / M
            total += (
                n_x
                * (n_x - 1)
                * bs ** (n_x - 2)
                * c_corr**2
                * shrink ** (n_x - 2)
                * infl ** (n_x - 2)
            )
    return float(total)


def variance_curve(
    scalar_model: IndependentSsmSpec,
    t: int,
    n_x: int,
    m_grid,
    ys: np.ndarray | None = None,
) -> list[tuple[int, float, float]]:
    """``(M, sigma_nsmc, sigma_fa)`` rows for a grid of inner sizes."""
    consts = compute_constants(scalar_model, t, ys=ys)
    fa = sigma_fa(consts, n_x, t)
    ms = [_check_count(m, "M") for m in m_grid]
    return [(m, sigma_nsmc(consts, n_x, t, m), fa) for m in ms]
