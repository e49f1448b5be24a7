"""Asymptotic-variance calculators for the independent product model.

For ``n_x`` independent copies of a scalar linear-Gaussian SSM and the
test function ``phi = sum_d x_{t,d}``, the large-N variance of both the
fully adapted filter and the nested filter with ``M`` inner particles
reduces to closed-form combinations of scalar integrals.  This module
evaluates those constants, and the two variance formulas, whose gap
closes as ``M`` grows.

Each constant integrates ``N_n(x_{1:k})^2 / N_d(x_{1:k})`` times a
polynomial in ``x_k``, where ``N_n`` is the horizon-``t`` posterior of
the prefix and ``N_d`` its filtering law given ``y_{1:k}`` or its
predictive law given ``y_{1:k-1}``.  By the Markov property all three
give ``x_{1:k-1}`` the same law given ``x_k``, ``p(x_{1:k-1} | x_k,
y_{1:k-1})``, which cancels once from the ratio and integrates to one:
each constant is a one-dimensional integral over marginals of ``x_k``.

A ``t``, ``n_x`` or ``M`` that is not an integer >= 1 raises
``InvalidInputError``, and so does a constant or variance that is not
finite in double precision, naming it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .exceptions import InvalidInputError, NotPositiveDefiniteError
from .model import IndependentSsmSpec, _check_count

__all__ = [
    "VarianceConstants",
    "scalar_posterior_joint",
    "compute_constants",
    "sigma_fa",
    "sigma_nsmc",
    "variance_curve",
]


def _scalar_filter(spec: IndependentSsmSpec, ys: np.ndarray):
    """Kalman filter of one scalar chain: the predictive moments of each
    ``x_k`` given ``y_{1:k-1}`` and the filtering moments given ``y_{1:k}``,
    as four arrays ``(pred_mean, pred_var, filt_mean, filt_var)``.  The
    update weighs the prior mean by ``obs_var / (pred_var + obs_var)``
    instead of subtracting it, so an explosive ``a_coef`` loses no digits."""
    a, sv, sy = spec.a_coef, spec.trans_var, spec.obs_var
    moments = np.empty((4, ys.size))
    mean, var = spec.init_mean, spec.init_var
    for k, y in enumerate(ys):
        gain, keep = var / (var + sy), sy / (var + sy)
        moments[:, k] = mean, var, gain * y + keep * mean, gain * sy
        mean, var = a * moments[2, k], a * a * moments[3, k] + sv
    return moments


def scalar_posterior_joint(
    spec: IndependentSsmSpec, ys: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Joint Gaussian posterior of one scalar chain given observations.

    Returns mean vector and covariance of ``x_{1:h} | y_{1:h}`` for
    ``h = len(ys)``, from :func:`_scalar_filter` and a Rauch-Tung-Striebel
    backward pass: with ``J = a_coef * filt_var_k / pred_var_{k+1}``, row
    ``k`` of the covariance right of the diagonal is ``J`` times row
    ``k + 1``, and ``1 - J * a_coef = trans_var / pred_var_{k+1}`` keeps
    the smoothed moments free of cancellation.
    """
    ys = np.asarray(ys, dtype=float)
    h = ys.size
    a, sv = spec.a_coef, spec.trans_var
    _, pred_var, mean, filt_var = _scalar_filter(spec, ys)
    cov = np.diag(filt_var)
    for k in range(h - 2, -1, -1):
        gain, keep = a * cov[k, k] / pred_var[k + 1], sv / pred_var[k + 1]
        mean[k] = keep * mean[k] + gain * mean[k + 1]
        cov[k, k + 1 :] = gain * cov[k + 1, k + 1 :]
        cov[k + 1 :, k] = cov[k, k + 1 :]
        cov[k, k] = keep * cov[k, k] + gain * cov[k, k + 1]
    return mean, cov


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


def _finite(value, name: str):
    """``value``; any entry that is not finite raises ``InvalidInputError``."""
    if not np.all(np.isfinite(value)):
        raise InvalidInputError(f"{name} is not finite in double precision")
    return value


def _ratio_constants(mean_n, var_n, mean_d, var_d, alpha, beta, name):
    """``(A, B, C)``: the integrals of ``n(x)^2 / d(x)`` times
    ``(alpha + beta * x)^j`` for ``j = 2, 0, 1``, where ``n`` and ``d``
    are the scalar Gaussians ``N(mean_n, var_n)`` and ``N(mean_d, var_d)``.

    ``n^2 / d`` is an unnormalised Gaussian with precision
    ``2 / var_n - 1 / var_d``, carried as ``g``, ``var_n`` times it, which
    cannot overflow.  When it is not positive the integrals diverge and
    ``NotPositiveDefiniteError`` names the constant.
    """
    ratio = var_n / var_d
    g = 2.0 - ratio
    if g <= 0.0:
        raise NotPositiveDefiniteError(
            f"constant {name}: ratio integral diverges (2/v_n - 1/v_d <= 0)"
        )
    diff = mean_n - mean_d
    mass = np.sqrt(var_d) / np.sqrt(var_n * g) * np.exp(diff / var_d * diff / g)
    loc = alpha + beta * (mean_n + ratio * diff / g)
    second = loc * loc + (beta * np.sqrt(var_n / g)) ** 2
    values = _finite((mass * second, mass, mass * loc), f"constant {name}")
    return tuple(float(v) for v in values)


def compute_constants(
    scalar_model: IndependentSsmSpec,
    t: int,
    ys: np.ndarray | None = None,
) -> VarianceConstants:
    """Evaluate the variance constants for estimation horizon ``t``.

    ``ys`` holds the shared scalar observations ``y_{1:t}`` (zeros by
    default, the symmetric zero-posterior-mean case).  The inner-stage
    proposal is the scalar transition density, with the initial density
    standing in at the first step.  The constants for ``x_k`` take the
    smoothing marginal of ``x_k`` and the regression of ``x_t`` on it
    from one :func:`scalar_posterior_joint` call; a scalar Kalman filter
    gives the denominators, the filtering marginal ``p(x_k | y_{1:k})``
    for ``A/B/C_k`` and the predictive one ``p(x_k | y_{1:k-1})`` for
    ``A/B/C~_{k-1}``.
    """
    t = _check_count(t, "t")
    ys = np.zeros(t) if ys is None else np.asarray(ys, dtype=float)
    if ys.shape != (t,):
        raise ValueError("ys must have length t")
    if not np.all(np.isfinite(ys)):
        raise InvalidInputError("ys must be finite")
    a_s, b_s, c_s, a_tilde, b_tilde, c_tilde = np.zeros((6, t))
    b_s[0] = 1.0

    with np.errstate(all="ignore"):
        mean_t, cov_t = scalar_posterior_joint(scalar_model, ys)
        pred_mean, pred_var, filt_mean, filt_var = _scalar_filter(scalar_model, ys)
        a_t = float(_finite(mean_t[-1] ** 2 + cov_t[-1, -1], "a_t"))
        for i in range(t):
            # E[x_t | x_{i+1}] = alpha + beta * x_{i+1} under the horizon-t posterior.
            beta = cov_t[-1, i] / cov_t[i, i]
            law = (mean_t[i], cov_t[i, i])
            reg = (mean_t[-1] - beta * mean_t[i], beta)
            a_tilde[i], b_tilde[i], c_tilde[i] = _ratio_constants(
                *law, pred_mean[i], pred_var[i], *reg, f"A/B/C~_{i}"
            )
            if i + 1 < t:
                a_s[i + 1], b_s[i + 1], c_s[i + 1] = _ratio_constants(
                    *law, filt_mean[i], filt_var[i], *reg, f"A/B/C_{i + 1}"
                )

    return VarianceConstants(t, a_t, a_s, a_tilde, b_s, b_tilde, c_s, c_tilde)


def sigma_fa(consts: VarianceConstants, n_x: int, t: int) -> float:
    """Asymptotic variance of the fully adapted filter for ``phi = sum_d x_{t,d}``."""
    if t != consts.t:
        raise ValueError("constants were computed for a different horizon")
    n_x = _check_count(n_x, "n_x")
    total = n_x * consts.a_t
    with np.errstate(all="ignore"):
        for s in range(1, t):
            bs, a_s, c_s = consts.b_s[s], consts.a_s[s], consts.c_s[s]
            total += n_x * bs ** (n_x - 1) * a_s
            if n_x > 1:
                total += n_x * (n_x - 1) * bs ** (n_x - 2) * c_s**2
    return float(_finite(total, "sigma_fa"))


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
    shrink = 1.0 - 1.0 / M
    with np.errstate(all="ignore"):
        for s in range(t):
            bs, bt = consts.b_s[s], consts.b_tilde[s]
            infl = 1.0 + bt / (bs * (M - 1))
            a_corr = consts.a_s[s] + (consts.a_tilde[s] - consts.a_s[s]) / M
            p = n_x - 1
            total += n_x * bs**p * a_corr * shrink**p * infl**p
            if n_x > 1:
                c_corr = consts.c_s[s] + (consts.c_tilde[s] - consts.c_s[s]) / M
                p = n_x - 2
                total += n_x * (n_x - 1) * bs**p * c_corr**2 * shrink**p * infl**p
    return float(_finite(total, "sigma_nsmc"))


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
