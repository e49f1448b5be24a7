"""Exact inference for the chain-noise linear-Gaussian model.

Two oracles live here: the Kalman filter (ground truth for the filtering
posterior and the marginal likelihood) and the exact fully adapted
particle filter (FAPF).  The FAPF needs the per-particle predictive
density ``nu = integral of f(x_t|x_{t-1}) g(y_t|x_t) dx_t`` and exact
draws from the locally optimal proposal; both come from scalar forward
filtering / backward sampling over the state components, exploiting the
chain structure of the process noise.  Both filters run through the
package's outer run loop; the FAPF is its fully adapted step with the
forward-pass cache as the exact auxiliary object, the same step the
nested filter uses.
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
    """Filtering posterior ``N(mean, basis @ diag(var) @ basis.T)`` with
    accumulated log-likelihood, held in the eigenbasis of the noise
    precision ``Q`` (:meth:`TridiagPrecision.spectrum`).  The form is
    exact for every belief the package produces: with a zero initial
    covariance, ``a * I`` dynamics, noise covariance ``Q^{-1}`` and
    ``obs_var * I`` observations, each covariance commutes with ``Q``."""

    mean: np.ndarray  # (n_x,)
    var: np.ndarray  # (n_x,), variances along the columns of basis
    basis: np.ndarray  # (n_x, n_x), eigenvectors of Q as columns
    loglik: float

    @property
    def cov(self) -> np.ndarray:
        return (self.basis * self.var) @ self.basis.T


def kalman_init(model: StssmSpec) -> KalmanBelief:
    """Degenerate belief at zero; the first predict step then yields the
    initial prior ``N(0, Q^{-1})``."""
    n = model.n_x
    return KalmanBelief(np.zeros(n), np.zeros(n), model.noise_precision.spectrum()[1], 0.0)


def kalman_step(
    belief: KalmanBelief, model: StssmSpec, y_t: np.ndarray
) -> KalmanBelief:
    """One predict-update cycle with identity observation matrix, run as
    ``n_x`` scalar filters in the eigenbasis of ``Q``; exact because the
    belief's covariance commutes with ``Q`` (see :class:`KalmanBelief`).
    A step costs ``O(n_x^2)``: one projection and one back-projection.

    Raises :class:`InvalidInputError` when the log predictive density of
    ``y_t`` is not finite, e.g. for an observation so far out that its
    Mahalanobis distance overflows.
    """
    eigvals, basis = model.noise_precision.spectrum()
    mean_pred = model.a_coef * belief.mean
    var_pred = model.a_coef**2 * belief.var + 1.0 / eigvals
    innovation = basis.T @ (np.asarray(y_t, dtype=float) - mean_pred)
    s = var_pred + model.obs_var
    mean = mean_pred + basis @ (var_pred / s * innovation)
    with np.errstate(over="ignore"):
        maha = np.sum(innovation * innovation / s)
    log_pred = -0.5 * (model.n_x * _LOG_2PI + np.sum(np.log(s)) + maha)
    if not np.isfinite(log_pred):
        raise InvalidInputError(
            f"log predictive density is {log_pred}; the observation is "
            "numerically impossible under the model"
        )
    var = var_pred * model.obs_var / s
    return KalmanBelief(mean, var, basis, belief.loglik + log_pred)


def kalman_run(model: StssmSpec, data: Dataset) -> FilterOutput:
    """Filter a whole dataset; marginal variances land in ``filter_vars``.
    A model other than a ``StssmSpec`` raises :class:`InvalidInputError`."""
    if not isinstance(model, StssmSpec):
        raise InvalidInputError(f"kalman_run needs a StssmSpec, got {type(model).__name__}")
    basis_sq = model.noise_precision.spectrum()[1] ** 2

    def step(belief, t, y_t):
        new = kalman_step(belief, model, y_t)
        return new, new.mean, basis_sq @ new.var, new.loglik - belief.loglik, None

    return _drive("kalman", model.n_x, data, step, kalman_init(model))


# ---------------------------------------------------------------------------
# Forward filtering / backward sampling over state components
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class FfbsCache:
    """Forward-pass messages for one conditional target, batched.

    Leading dimensions are arbitrary batch dimensions (one row per
    particle); the trailing dimension indexes state components.  The
    chain factorization, ``x_prev`` and ``a_coef`` are kept for the
    backward pass and the draw ``x_t = a_coef * x_prev + v``.

    The cache is also the exact auxiliary object of the fully adapted
    step: ``log_tau`` is the predictive density, ``take`` reindexes the
    batch (outer resampling) and ``draw`` samples the locally optimal
    proposal.
    """

    filt_mean: np.ndarray  # (..., n_x)
    filt_var: np.ndarray  # (..., n_x)
    log_nu: np.ndarray  # (...,)
    fact: ChainFactorization
    x_prev: np.ndarray  # (..., n_x)
    a_coef: float

    @property
    def log_tau(self):
        return self.log_nu

    def take(self, idx):
        """Reindex the batch dimension (outer resampling)."""
        return replace(
            self,
            filt_mean=self.filt_mean[idx],
            filt_var=self.filt_var[idx],
            log_nu=self.log_nu[idx],
            x_prev=self.x_prev[idx],
        )

    def draw(self, rng):
        v = ffbs_backward(self, rng)
        return self.a_coef * self.x_prev + v


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
        log_nu=np.sum(log_inc, axis=-1),
        fact=fact,
        x_prev=x_prev,
        a_coef=model.a_coef,
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
    ``log((1/N) * sum_i nu_i)``.  Raises :class:`InvalidInputError`
    unless ``model`` is a ``StssmSpec``.
    """
    if not isinstance(model, StssmSpec):
        raise InvalidInputError(f"fapf_run needs a StssmSpec, got {type(model).__name__}")
    if N < 1:
        raise ValueError("N must be >= 1")

    def prepare(t, x_prev, y_t, rng):
        return ffbs_forward(model, x_prev, y_t)

    n = model.n_x
    return _fully_adapted_filter("fapf", prepare, n, data, N, rng, with_ess=False)
