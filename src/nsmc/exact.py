"""Exact inference for the chain-noise linear-Gaussian model.

Two oracles live here: the Kalman filter (ground truth for the filtering
posterior and the marginal likelihood) and the exact fully adapted
particle filter (FAPF).  The FAPF needs the per-particle predictive
density ``nu = integral of f(x_t|x_{t-1}) g(y_t|x_t) dx_t`` and exact
draws from the locally optimal proposal.  Each filter's step is one
Gaussian update whose covariances commute with the noise precision
``Q``, so both run it as ``n_x`` scalar updates in ``Q``'s eigenbasis;
the FAPF's update is the Kalman step from a zero-variance belief at
each particle, batched over particles.  The covariance half of a step
(:func:`_moments`) never reads the data, so the spec memoises it for
each step of the recursion from the zero belief (:func:`_riccati`): the
memo grows to the longest run asked for and stops growing at the first
step whose posterior variances repeat the previous step's bit for bit,
after which its last entry serves every later step.  Only the data half
(:func:`_condition`) runs per step.  Both filters run through the
package's outer run loop; the FAPF is the fully adapted configuration
of the package's one outer step (:mod:`nsmc.smc`) driven by
:class:`ExactFfbsProcedure`, whose auxiliary object is the
conditional's cache, as the nested filter is driven by an inner
procedure.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .exceptions import InvalidInputError
from .model import _LOG_2PI, Dataset, StssmSpec
from .smc import FilterOutput, ProperWeightingProcedure, _drive, _outer_run

__all__ = [
    "KalmanBelief",
    "kalman_init",
    "kalman_step",
    "kalman_run",
    "FfbsCache",
    "ffbs_forward",
    "ffbs_backward",
    "ExactFfbsProcedure",
    "fapf_run",
]

# ---------------------------------------------------------------------------
# Kalman filter
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class KalmanBelief:
    """Filtering posterior ``N(mean, basis @ diag(var) @ basis.T)`` with
    accumulated log-likelihood, where ``basis`` holds the eigenvectors of
    the model's noise precision ``Q`` (:meth:`TridiagPrecision.spectrum`),
    so the belief keeps only the variances along them.  The form is exact
    for every belief the package produces: with a zero initial
    covariance, ``a * I`` dynamics, noise covariance ``Q^{-1}`` and
    ``obs_var * I`` observations, each covariance commutes with ``Q``."""

    mean: np.ndarray  # (n_x,)
    var: np.ndarray  # (n_x,), variances along the eigenvectors of Q
    loglik: float


def kalman_init(model: StssmSpec) -> KalmanBelief:
    """Degenerate belief at zero; the first predict step then yields the
    initial prior ``N(0, Q^{-1})``."""
    n = model.n_x
    return KalmanBelief(np.zeros(n), np.zeros(n), 0.0)


def kalman_step(
    belief: KalmanBelief, model: StssmSpec, y_t: np.ndarray
) -> KalmanBelief:
    """One predict-update cycle with identity observation matrix, run as
    ``n_x`` scalar filters in the eigenbasis of ``Q``; exact because the
    belief's covariance commutes with ``Q`` (see :class:`KalmanBelief`).
    A step costs ``O(n_x^2)``: one projection and one back-projection.

    Takes any belief, so it computes its own :func:`_moments` rather
    than reading the spec's memo.

    Raises :class:`InvalidInputError` when the log predictive density of
    ``y_t`` is not finite, e.g. for an observation so far out that its
    Mahalanobis distance overflows.
    """
    eigvals, basis = model.noise_precision.spectrum()
    mean_pred = model.a_coef * belief.mean
    var_pred = model.a_coef**2 * belief.var + 1.0 / eigvals
    s, gain, const, var = _moments(var_pred, model.obs_var)
    shift, log_pred = _condition(
        np.asarray(y_t, dtype=float) - mean_pred, basis, s, gain, const
    )
    _check_predictive(log_pred)
    return KalmanBelief(mean_pred + shift, var, belief.loglik + log_pred)


def _moments(var_pred, obs_var):
    """The data-free half of conditioning ``N(0, basis @ diag(var_pred) @
    basis.T)`` on an observation under ``obs_var * I`` noise: the
    predictive variances ``s``, the gains, the constant
    ``n * log(2 pi) + sum(log(s))`` of the log predictive density and the
    posterior variances, all along the columns of ``basis``."""
    s = var_pred + obs_var
    const = var_pred.size * _LOG_2PI + np.log(s).sum()
    return s, var_pred / s, const, var_pred * obs_var / s


def _condition(resid, basis, s, gain, const):
    """The data half: the posterior mean shift and the log predictive
    density of the observation residual ``resid``, given the
    :func:`_moments` of its belief.  ``resid`` may carry leading batch
    dimensions; both results are batched like it."""
    proj = resid @ basis
    shift = (gain * proj) @ basis.T
    # ndarray.sum, not np.sum: the wrapper's dispatch is a measurable
    # share of a Kalman step at small n_x.
    with np.errstate(over="ignore"):
        maha = (proj * proj / s).sum(axis=-1)
    return shift, -0.5 * (const + maha)


def _check_predictive(log_pred) -> None:
    """Raise :class:`InvalidInputError` unless ``log_pred`` is finite."""
    if not np.isfinite(log_pred):
        raise InvalidInputError(
            f"log predictive density is {log_pred}; the observation is "
            "numerically impossible under the model"
        )


def _riccati(model: StssmSpec, T: int) -> tuple:
    """The covariance recursion of the first ``T`` Kalman steps from the
    zero belief (:func:`kalman_init`), memoised on ``model``.

    Entry ``t - 1`` holds step ``t``'s :func:`_moments` and the marginal
    variances ``basis**2 @ var`` that :func:`kalman_run` reports, as
    read-only arrays.  The memo stops at the first step whose posterior
    variances equal the previous step's bit for bit: every later step
    has the same moments, so a tuple shorter than ``T`` serves step
    ``t`` with its entry ``min(t, len) - 1``.  Step 1 predicts with the
    noise variances ``1 / eigvals`` alone: it does not square
    ``a_coef``, which overflows for a huge one.  A longer memo replaces
    the old tuple whole, so a reader never sees one half built; a
    pickled spec leaves the memo behind (see
    :class:`~nsmc.model.StssmSpec`).
    """
    memo = model._riccati
    if len(memo) >= T:
        return memo
    eigvals, basis = model.noise_precision.spectrum()
    basis_sq = basis**2
    steps = list(memo)
    zeros = np.zeros(model.n_x)
    var = steps[-1][3] if steps else zeros
    prev = steps[-2][3] if len(steps) > 1 else zeros
    noise_var = 1.0 / eigvals
    while len(steps) < T and not (steps and np.array_equal(var, prev)):
        var_pred = model.a_coef**2 * var + noise_var if steps else noise_var
        s, gain, const, post = _moments(var_pred, model.obs_var)
        marginal = basis_sq @ post
        for arr in (s, gain, post, marginal):
            arr.setflags(write=False)
        steps.append((s, gain, const, post, marginal))
        prev, var = var, post
    memo = tuple(steps)
    if len(memo) > len(model._riccati):
        object.__setattr__(model, "_riccati", memo)
    return memo


def kalman_run(model: StssmSpec, data: Dataset) -> FilterOutput:
    """Filter a whole dataset; marginal variances land in ``filter_vars``.
    The covariance half of every step comes from the spec's memo
    (:func:`_riccati`), so a run carries only the mean and the
    log-likelihood; increments are differences of the running
    log-likelihood, as :func:`kalman_step` chains them.  A model other
    than a ``StssmSpec`` raises :class:`InvalidInputError`, and a step
    whose log predictive density is not finite as in
    :func:`kalman_step`."""
    if not isinstance(model, StssmSpec):
        raise InvalidInputError(f"kalman_run needs a StssmSpec, got {type(model).__name__}")
    basis = model.noise_precision.spectrum()[1]
    moments = _riccati(model, data.T)
    last = len(moments)

    def step(state, t, y_t):
        mean, loglik = state
        s, gain, const, _, marginal_var = moments[min(t, last) - 1]
        mean_pred = model.a_coef * mean
        shift, log_pred = _condition(y_t - mean_pred, basis, s, gain, const)
        _check_predictive(log_pred)
        new_loglik = loglik + log_pred
        mean = mean_pred + shift
        return (mean, new_loglik), mean, marginal_var, new_loglik - loglik, None

    init = kalman_init(model)
    return _drive("kalman", model.n_x, data, step, (init.mean, init.loglik))


# ---------------------------------------------------------------------------
# Exact conditional of the fully adapted filter
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class FfbsCache:
    """The exact conditional ``p(v | y_t, x_prev)`` of the noise vector,
    batched.

    Leading dimensions of ``v_mean``, ``log_nu`` and ``x_prev`` are
    arbitrary batch dimensions (one row per particle); the trailing one
    indexes state components.  The posterior covariance
    ``basis @ diag(var) @ basis.T`` does not depend on ``x_prev``, so
    ``var`` and ``basis`` are shared by the batch.  ``x_prev`` and
    ``a_coef`` give the draw ``x_t = a_coef * x_prev + v``.

    The cache is also the exact auxiliary object of the fully adapted
    step: ``log_tau`` is the predictive density and ``draw(rng, rows)``
    samples the locally optimal proposal for the batch rows ``rows``
    that outer resampling chose (every row for ``None``).
    """

    v_mean: np.ndarray  # (..., n_x)
    var: np.ndarray  # (n_x,), variances along the columns of basis
    log_nu: np.ndarray  # (...,)
    basis: np.ndarray  # (n_x, n_x), eigenvectors of Q as columns
    x_prev: np.ndarray  # (..., n_x)
    a_coef: float

    @property
    def log_tau(self):
        return self.log_nu

    def draw(self, rng, rows=None):
        v = ffbs_backward(self, rng, rows)
        x_prev = self.x_prev if rows is None else self.x_prev[rows]
        return self.a_coef * x_prev + v


def ffbs_forward(
    model: StssmSpec, x_prev: np.ndarray, y_t: np.ndarray
) -> FfbsCache:
    """Exact conditional of the noise vector ``v`` given ``x_prev`` and
    ``y_t``, batched over the leading dimensions of ``x_prev``.

    The centered observation ``ytil = y_t - a * x_prev`` is ``v`` plus
    ``obs_var * I`` noise, with ``v ~ N(0, Q^{-1})``: the update of
    :func:`kalman_step` from a zero-variance belief at ``x_prev``, run in
    the eigenbasis of ``Q``.  Its covariance half is step 1 of the
    Kalman recursion from the zero belief, read from the spec's memo
    (:func:`_riccati`), so only the data half runs per call and the
    cache's ``var`` is the memo's read-only array.  ``log_nu`` is the
    exact predictive density ``log p(y_t | x_prev)``.  A batch of ``N``
    rows costs ``O(N * n_x^2)`` flops in two matrix products.
    """
    basis = model.noise_precision.spectrum()[1]
    s, gain, const, var, _ = _riccati(model, 1)[0]
    x_prev = np.asarray(x_prev, dtype=float)
    ytil = np.asarray(y_t, dtype=float) - model.a_coef * x_prev
    v_mean, log_nu = _condition(ytil, basis, s, gain, const)
    return FfbsCache(v_mean, var, log_nu, basis, x_prev, model.a_coef)


def ffbs_backward(cache: FfbsCache, rng: np.random.Generator, rows=None) -> np.ndarray:
    """Exact joint draw ``v ~ p(v | y_t, x_prev)`` from the cache, one
    per batch row ``rows`` (``None``: every row): independent normals
    scaled by the posterior standard deviations in the eigenbasis, then
    rotated back (``O(N * n_x^2)`` flops for ``N`` rows).  The caller
    forms ``x_t = a * x_prev + v``.
    """
    v_mean = cache.v_mean if rows is None else cache.v_mean[rows]
    z = rng.standard_normal(v_mean.shape)
    return v_mean + (z * np.sqrt(cache.var)) @ cache.basis.T


# ---------------------------------------------------------------------------
# Fully adapted particle filter
# ---------------------------------------------------------------------------


class ExactFfbsProcedure(ProperWeightingProcedure):
    """Zero-variance procedure for the tractable chain model: ``tau`` is
    the exact predictive density and draws are exact proposal draws.
    Running the outer filter with it is the fully adapted particle
    filter.  Any other model raises :class:`InvalidInputError`."""

    kind = "exact-ffbs"

    def prepare(self, model, t, x_prev, y_t, rng):
        if not isinstance(model, StssmSpec):
            raise InvalidInputError(f"exact-ffbs needs a StssmSpec, got {type(model).__name__}")
        return ffbs_forward(model, x_prev, y_t)


def fapf_run(
    model: StssmSpec, data: Dataset, N: int, rng: np.random.Generator
) -> FilterOutput:
    """Exact fully adapted SMC for the chain-noise linear-Gaussian model.

    At each step the per-particle predictive densities ``nu`` act as
    resampling weights, propagation draws come exactly from the locally
    optimal proposal (:func:`ffbs_forward`, :func:`ffbs_backward`, run in
    the eigenbasis of ``Q``), and all post-propagation importance
    weights are exactly uniform.  ``logZ`` accumulates
    ``log((1/N) * sum_i nu_i)``.  Raises :class:`InvalidInputError`
    unless ``model`` is a ``StssmSpec``, or for a bad ``N`` or ``rng``.
    """
    if not isinstance(model, StssmSpec):
        raise InvalidInputError(f"fapf_run needs a StssmSpec, got {type(model).__name__}")
    return _outer_run("fapf", model, ExactFfbsProcedure(), "tau", data, N, rng, False)
