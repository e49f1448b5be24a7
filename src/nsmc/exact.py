"""Exact inference for the chain-noise linear-Gaussian model.

Two oracles live here: the Kalman filter (ground truth for the filtering
posterior and the marginal likelihood) and the exact fully adapted
particle filter (FAPF).  The FAPF needs the per-particle predictive
density ``nu = integral of f(x_t|x_{t-1}) g(y_t|x_t) dx_t`` and exact
draws from the locally optimal proposal; both come from scalar forward
filtering / backward sampling over the state components, exploiting the
chain structure of the process noise.  Both filters run through the
package's outer run loop; the FAPF is its fully adapted step with the
exact FFBS auxiliary object, the same step the nested filter uses.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .exceptions import InvalidInputError
from .model import (
    _LOG_2PI,
    ChainFactorization,
    Dataset,
    StssmSpec,
)
from .smc import FilterOutput, _drive, _fully_adapted_filter

__all__ = [
    "KalmanBelief",
    "kalman_init",
    "kalman_step",
    "kalman_run",
    "GaussianMessage",
    "FfbsCache",
    "ffbs_forward",
    "ffbs_backward",
    "fapf_run",
]

_VAR_FLOOR = 1e-300


# ---------------------------------------------------------------------------
# Kalman filter
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class KalmanBelief:
    """Filtering posterior ``N(mean, cov)`` with accumulated log-likelihood."""

    mean: np.ndarray  # (n_x,)
    cov: np.ndarray  # (n_x, n_x), kept symmetric
    loglik: float


def kalman_init(model: StssmSpec) -> KalmanBelief:
    """Degenerate belief at zero; the first predict step then yields the
    initial prior ``N(0, Q^{-1})``."""
    n = model.n_x
    return KalmanBelief(mean=np.zeros(n), cov=np.zeros((n, n)), loglik=0.0)


def kalman_step(
    belief: KalmanBelief, model: StssmSpec, y_t: np.ndarray
) -> KalmanBelief:
    """One predict-update cycle with identity observation matrix.

    Raises :class:`InvalidInputError` when the log predictive density of
    ``y_t`` is not finite, e.g. for an observation so far out that its
    Mahalanobis distance overflows.
    """
    from scipy.linalg import cho_factor, cho_solve

    n = model.n_x
    y_t = np.asarray(y_t, dtype=float)
    a = model.a_coef
    proc_cov = model.noise_precision.covariance()

    mean_pred = a * belief.mean
    cov_pred = a * a * belief.cov + proc_cov

    innovation = y_t - mean_pred
    s = cov_pred + model.obs_var * np.eye(n)
    s = 0.5 * (s + s.T)
    try:
        chol = cho_factor(s, lower=True)
    except np.linalg.LinAlgError as err:
        raise np.linalg.LinAlgError(
            "innovation covariance is not positive definite"
        ) from err
    gain = cho_solve(chol, cov_pred).T
    mean = mean_pred + gain @ innovation
    cov = (np.eye(n) - gain) @ cov_pred
    cov = 0.5 * (cov + cov.T)

    logdet = 2.0 * np.sum(np.log(np.diag(chol[0])))
    with np.errstate(over="ignore"):
        maha = innovation @ cho_solve(chol, innovation)
    log_pred = -0.5 * (n * _LOG_2PI + logdet + maha)
    if not np.isfinite(log_pred):
        raise InvalidInputError(
            f"log predictive density is {log_pred}; the observation is "
            "numerically impossible under the model"
        )
    return KalmanBelief(mean=mean, cov=cov, loglik=belief.loglik + log_pred)


def kalman_run(model: StssmSpec, data: Dataset) -> FilterOutput:
    """Filter a whole dataset; marginal variances land in ``filter_vars``."""

    def step(belief, t, y_t):
        new = kalman_step(belief, model, y_t)
        return new, new.mean, np.diag(new.cov), new.loglik - belief.loglik, None

    return _drive("kalman", model.n_x, data, step, kalman_init(model))


# ---------------------------------------------------------------------------
# Forward filtering / backward sampling over state components
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class GaussianMessage:
    """Scalar filtered message for one component.

    ``log_scale`` is the accumulated log of the incremental normalizer up
    to and including this component.
    """

    mean: float
    var: float
    log_scale: float


@dataclass(frozen=True)
class FfbsCache:
    """Forward-pass messages for one conditional target, batched.

    Leading dimensions are arbitrary batch dimensions (one row per
    particle); the trailing dimension indexes state components.  The
    chain factorization and the conditioning context are retained so the
    backward pass (and tests) can replay the computation.
    """

    filt_mean: np.ndarray  # (..., n_x)
    filt_var: np.ndarray  # (..., n_x)
    log_scale_inc: np.ndarray  # (..., n_x) increments of log nu
    log_nu: np.ndarray  # (...,)
    fact: ChainFactorization
    x_prev: np.ndarray  # (..., n_x)
    y_t: np.ndarray  # (n_x,)
    model: StssmSpec

    @property
    def messages(self) -> list[GaussianMessage]:
        """Per-component messages (unbatched caches only)."""
        if self.filt_mean.ndim != 1:
            raise ValueError("messages view requires an unbatched cache")
        log_scale = np.cumsum(self.log_scale_inc)
        return [
            GaussianMessage(
                mean=float(self.filt_mean[d]),
                var=float(self.filt_var[d]),
                log_scale=float(log_scale[d]),
            )
            for d in range(self.filt_mean.size)
        ]


def ffbs_forward(
    model: StssmSpec, x_prev: np.ndarray, y_t: np.ndarray
) -> FfbsCache:
    """Forward filtering over components of the noise vector ``v``.

    Works on the centered observations ``ytil = y_t - a * x_prev`` and the
    chain factorization of the noise precision, which together form a
    scalar linear-Gaussian chain in the component index.  ``x_prev`` may
    carry arbitrary leading batch dimensions.  ``log_nu`` accumulates the
    exact predictive density ``log p(y_t | x_prev)``.
    """
    x_prev = np.asarray(x_prev, dtype=float)
    y_t = np.asarray(y_t, dtype=float)
    fact = model.noise_precision.fact
    cond_var = fact.cond_var
    n = model.n_x
    sigma2 = model.obs_var
    ytil = y_t - model.a_coef * x_prev

    batch = x_prev.shape[:-1]
    filt_mean = np.empty(batch + (n,))
    filt_var = np.empty(batch + (n,))
    log_inc = np.empty(batch + (n,))
    mean_d = np.zeros(batch)
    var_d = np.zeros(batch)
    for d in range(n):
        mean_pred = fact.phi[d] * mean_d
        var_pred = fact.phi[d] ** 2 * var_d + cond_var[d]
        s = var_pred + sigma2
        resid = ytil[..., d] - mean_pred
        log_inc[..., d] = -0.5 * (_LOG_2PI + np.log(s) + resid * resid / s)
        gain = var_pred / s
        mean_d = mean_pred + gain * resid
        var_d = np.maximum(var_pred * sigma2 / s, _VAR_FLOOR)
        filt_mean[..., d] = mean_d
        filt_var[..., d] = var_d

    return FfbsCache(
        filt_mean=filt_mean,
        filt_var=filt_var,
        log_scale_inc=log_inc,
        log_nu=np.sum(log_inc, axis=-1),
        fact=fact,
        x_prev=x_prev,
        y_t=y_t,
        model=model,
    )


def ffbs_backward(cache: FfbsCache, rng: np.random.Generator) -> np.ndarray:
    """Exact joint draw of the noise vector given the forward messages.

    Returns ``v ~ p(v | y_t, x_prev)`` with the same batch shape as the
    cache; the caller forms ``x_t = a * x_prev + v``.
    """
    fact = cache.fact
    n = fact.n
    z = rng.standard_normal(cache.filt_mean.shape)
    v = np.empty_like(cache.filt_mean)
    v[..., n - 1] = cache.filt_mean[..., n - 1] + np.sqrt(
        cache.filt_var[..., n - 1]
    ) * z[..., n - 1]
    for d in range(n - 2, -1, -1):
        prec = 1.0 / cache.filt_var[..., d] + fact.phi[d + 1] ** 2 * fact.c[d + 1]
        var = 1.0 / prec
        mean = var * (
            cache.filt_mean[..., d] / cache.filt_var[..., d]
            + fact.phi[d + 1] * fact.c[d + 1] * v[..., d + 1]
        )
        v[..., d] = mean + np.sqrt(var) * z[..., d]
    return v


@dataclass(frozen=True)
class _ExactFfbsAux:
    """Exact auxiliary object of the fully adapted step: ``tau`` is the
    predictive density and draws come from the locally optimal proposal."""

    cache: FfbsCache
    a_coef: float

    @property
    def log_tau(self):
        return self.cache.log_nu

    def take(self, idx):
        """Reindex the batch dimension (outer resampling)."""
        c = self.cache
        cache = replace(
            c,
            filt_mean=c.filt_mean[idx],
            filt_var=c.filt_var[idx],
            log_scale_inc=c.log_scale_inc[idx],
            log_nu=c.log_nu[idx],
            x_prev=c.x_prev[idx],
        )
        return _ExactFfbsAux(cache=cache, a_coef=self.a_coef)

    def draw(self, rng):
        v = ffbs_backward(self.cache, rng)
        return self.a_coef * self.cache.x_prev + v


# ---------------------------------------------------------------------------
# Fully adapted particle filter
# ---------------------------------------------------------------------------


def fapf_run(
    model: StssmSpec, data: Dataset, N: int, rng: np.random.Generator
) -> FilterOutput:
    """Exact fully adapted SMC for the chain-noise linear-Gaussian model.

    At each step the per-particle predictive densities ``nu`` act as
    resampling weights, propagation draws come from the locally optimal
    proposal via backward sampling, and all post-propagation importance
    weights are exactly uniform.  ``logZ`` accumulates
    ``log((1/N) * sum_i nu_i)``.
    """
    if N < 1:
        raise ValueError("N must be >= 1")

    def prepare(t, x_prev, y_t, rng):
        return _ExactFfbsAux(ffbs_forward(model, x_prev, y_t), model.a_coef)

    n = model.n_x
    return _fully_adapted_filter("fapf", prepare, n, data, N, rng, with_ess=False)
