"""Generic sequential Monte Carlo machinery.

Log-domain weight handling, multinomial resampling, effective sample
size, the particle-system container, the common filter-output record,
the outer run loop, the one outer step, the properly weighted procedure
protocol and the bootstrap particle filter baseline.

Every filter in the package runs through one outer loop, ``_drive``: it
checks the data against the model dimension and folds a step function
over the observations into a :class:`FilterOutput`.  A step reports its
own filtering mean and variance, its normalizer increment and
optionally an ESS.  Every particle filter steps through ``_outer_step``,
the general algorithm with adjustment multipliers, driven by a
:class:`ProperWeightingProcedure` that names its own proposal as
``log_r``: the fully adapted and the nested filter are ``tau``
multipliers with a ``"gamma-ratio"`` procedure, and the bootstrap filter
unit multipliers with the ``"transition"`` :class:`ExactTransitionProcedure`.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass

import numpy as np

from .exceptions import InvalidInputError, WeightCollapseError
from .model import Dataset, ModelBundle, _check_count, make_model

__all__ = [
    "normalize_logweights",
    "ess",
    "multinomial_resample",
    "ParticleSystem",
    "FilterOutput",
    "ProperWeightingProcedure",
    "ExactTransitionProcedure",
    "bootstrap_pf",
]


def normalize_logweights(logw: np.ndarray) -> tuple[np.ndarray, float]:
    """Normalize log-weights with a max shift.

    Returns the probability vector and ``log((1/N) * sum(exp(logw)))``.
    Entries of ``-inf`` are allowed; all ``-inf`` raises
    :class:`WeightCollapseError`, and a NaN or ``+inf`` ``ValueError``.
    """
    w, shift = _row_weights(np.asarray(logw, dtype=float))
    total = w.sum()
    if total == 0.0:
        raise WeightCollapseError(step=-1, detail="all log-weights are -inf")
    return w / total, float(shift[0] + np.log(total) - np.log(w.size))


def ess(probabilities: np.ndarray) -> float:
    """Effective sample size ``1 / sum(p_i^2)`` of normalized weights."""
    p = np.asarray(probabilities, dtype=float)
    return float(1.0 / np.sum(p * p))


def multinomial_resample(
    probabilities: np.ndarray, count: int, rng: np.random.Generator
) -> np.ndarray:
    """Draw ``count`` i.i.d. categorical indices by inverse CDF.

    Uses strict ``u < cum`` comparisons so indices with zero probability
    are never selected.  The trailing block of the cumulative array that
    equals its last entry is pinned to exactly 1.0, so a uniform just
    below 1 cannot pass a live mass that sums to slightly less than 1
    and land on a trailing zero-probability index.
    """
    cum = np.cumsum(np.asarray(probabilities, dtype=float))
    cum[cum >= cum[-1]] = 1.0
    u = rng.random(count)
    return np.searchsorted(cum, u, side="right")


def _row_weights(
    logw: np.ndarray, top: np.ndarray | None = None, out: np.ndarray | None = None
) -> tuple[np.ndarray, np.ndarray]:
    """The one shift-and-exp pass over log-weight rows ``(..., M)``:
    returns ``w = exp(logw - shift)``, written to ``out`` if given, and
    ``shift``, shape ``(..., 1)``, the row maximum, or 0 for a row of
    ``-inf`` entries, whose weights are then all 0.  A NaN or ``+inf``
    log-weight raises ``ValueError``.  ``top`` passes the row maxima,
    shape ``(..., 1)``, when the caller has them."""
    m = np.max(logw, axis=-1, keepdims=True) if top is None else top
    if not np.all(m < np.inf):  # a row's maximum is NaN iff it holds a NaN
        raise ValueError("log-weights contain NaN or +inf")
    shift = np.where(np.isfinite(m), m, 0.0)
    w = np.subtract(logw, shift, out=out)
    return np.exp(w, out=w), shift


def _row_log_mean(w: np.ndarray, shift: np.ndarray) -> np.ndarray:
    """Row log-means of ``exp(logw)`` from :func:`_row_weights`' output."""
    with np.errstate(divide="ignore"):
        return shift[..., 0] + np.log(np.sum(w, axis=-1)) - np.log(w.shape[-1])


def _row_logmeanexp(logw: np.ndarray) -> np.ndarray:
    """``log((1/M) sum exp(logw))`` along the last axis, -inf safe."""
    return _row_log_mean(*_row_weights(logw))


def _pick_rows(w: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """One index per row of nonnegative weights ``(..., M)``, from one
    uniform per row; a row of zeros falls back to the last index,
    ``M - 1`` (the caller is responsible for masking such rows)."""
    cum = np.cumsum(w, axis=-1)
    u = rng.random(w.shape[:-1] + (1,)) * cum[..., -1:]
    return np.minimum(np.sum(cum <= u, axis=-1), w.shape[-1] - 1)


def _pick_columns(cum: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """:func:`_pick_rows` over candidate-major running sums: ``cum`` has
    shape ``(M, ...)`` and holds, along its first axis, the running sums
    (:func:`_running_sums`) of one weight row per trailing index.  Draws
    the uniforms ``_pick_rows`` draws for those rows, in the same order,
    and returns its indices, shape ``cum.shape[1:]``."""
    m_size = cum.shape[0]
    u = rng.random(cum.shape[1:]) * cum[-1]
    # A count below 256 fits a byte, and a byte sum along the leading
    # axis is the fastest count numpy has.
    below = (cum <= u).view(np.uint8)
    count = below.sum(axis=0, dtype=np.uint8 if m_size < 256 else np.intp)
    return np.minimum(count, m_size - 1, dtype=np.intp)


def _running_sums(a: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Running sums of ``a`` along its first axis, into ``out`` (a new
    C-contiguous array for ``None``), added in ``np.cumsum``'s order, so
    the bits are ``np.cumsum(a, axis=0)``'s: one vectorized add per
    leading index is about twice as fast as ``cumsum`` along a leading
    axis, and ``a`` may be any strided view."""
    if out is None:
        out = np.empty(a.shape)
    np.copyto(out[0], a[0])
    for k in range(1, a.shape[0]):
        np.add(out[k - 1], a[k], out=out[k])
    return out


def _categorical_rows(logw: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """One categorical draw per row of log-weights ``(..., M)``, by
    :func:`_pick_rows` on the :func:`_row_weights` of ``logw``."""
    return _pick_rows(_row_weights(logw)[0], rng)


def _search_rows(w: np.ndarray, count: int, rng: np.random.Generator) -> np.ndarray:
    """``count`` categorical draws per row of nonnegative weights
    ``(..., M)``; shape ``(..., count)``.

    A draw with uniform ``u`` is the number of its own row's normalized
    cumulative weights not above ``u``, so a row of zeros gives the last
    index, ``M - 1``.  The search is binary, vectorized over all draws, so
    resolution does not depend on the batch size.  Rows are padded with
    ones to a power-of-two width, which no ``u < 1`` passes: every search
    stays in its row without a clamp and advances by additive steps into
    preallocated buffers.  Memory is ``rows * count`` indices; time is
    ``O(rows * count * log M)``.
    """
    m_size = w.shape[-1]
    width = 1 << (m_size - 1).bit_length()
    cum = np.cumsum(w, axis=-1)
    padded = np.ones(w.shape[:-1] + (width,))
    p = padded[..., :m_size]
    np.divide(cum, np.where(cum[..., -1:] > 0.0, cum[..., -1:], 1.0), out=p)
    p[..., -1] = 1.0
    u = rng.random(w.shape[:-1] + (count,))
    flat_p = padded.reshape(-1)
    # Flat position just before each row; a draw's index is its final
    # offset from there.
    before_row = np.arange(-1, flat_p.size - 1, width).reshape(w.shape[:-1] + (1,))
    pos = np.empty(u.shape, dtype=np.intp)
    pos[...] = before_row
    probe = np.empty_like(pos)
    vals = np.empty(u.shape)
    step = width >> 1
    while step:
        np.add(pos, step, out=probe)
        flat_p.take(probe, out=vals, mode="clip")
        # pos += (flat_p[pos + step] <= u) * step, through the buffers.
        np.less_equal(vals, u, out=probe, casting="unsafe")
        probe *= step
        pos += probe
        step >>= 1
    pos -= before_row
    return pos


@dataclass(frozen=True)
class ParticleSystem:
    """State of an outer particle filter after step ``t``.

    ``states`` holds the current time-step particles only, and
    ``ancestors`` the indices of their parents among the step ``t - 1``
    particles (the identity before the first step and wherever the step
    did not resample); no earlier step's lineage is kept.
    """

    states: np.ndarray  # (N, n_x)
    ancestors: np.ndarray  # (N,) indices into the previous step's particles
    logw: np.ndarray  # (N,) log-weights (zeros when fully adapted)
    logZ: float
    t: int
    log_increment: float = 0.0  # the step-t factor of logZ, as computed

    @property
    def n(self) -> int:
        return self.states.shape[0]


def _empty_system(N: int, n_x: int) -> ParticleSystem:
    """``N`` particles at zero with uniform weights, before the first step."""
    return ParticleSystem(np.zeros((N, n_x)), np.arange(N), np.zeros(N), 0.0, 0)


@dataclass(frozen=True)
class FilterOutput:
    """Per-step summaries of one filter run: filtering means and
    variances, normalizer increments and, for the filters that keep one,
    the ESS trace.  Row ``t`` holds time ``t + 1``."""

    method: str
    filter_means: np.ndarray  # (T, n_x)
    filter_vars: np.ndarray  # (T, n_x)
    logz_increments: np.ndarray  # (T,)
    ess_trace: np.ndarray | None = None  # (T,)

    @property
    def T(self) -> int:
        return self.filter_means.shape[0]

    @property
    def n_x(self) -> int:
        return self.filter_means.shape[1]

    @property
    def logZ(self) -> float:
        return float(np.sum(self.logz_increments))


def _drive(method: str, n_x: int, data: Dataset, step, state) -> FilterOutput:
    """Fold ``step`` over ``data.observations`` into a :class:`FilterOutput`.

    ``step(state, t, y_t)`` advances the filter to the 1-based time ``t``
    and returns ``(state, mean, var, log_increment, ess)``, with ``ess``
    ``None`` for filters that keep no ESS trace.  Increments are stored
    as the step computed them, never differenced from a running total.

    Raises :class:`InvalidInputError` when the data dimension differs
    from ``n_x`` or an observation is not finite.
    """
    if data.n_x != n_x:
        raise InvalidInputError(
            f"data have {data.n_x} components but the model has {n_x}"
        )
    if not np.all(np.isfinite(data.observations)):
        raise InvalidInputError("observations contain non-finite values")
    T = data.T
    means = np.empty((T, n_x))
    variances = np.empty((T, n_x))
    logz_inc = np.empty(T)
    ess_trace = []
    for t in range(T):
        state, means[t], variances[t], logz_inc[t], ess_t = step(
            state, t + 1, data.observations[t]
        )
        ess_trace.append(ess_t)
    return FilterOutput(
        method=method,
        filter_means=means,
        filter_vars=variances,
        logz_increments=logz_inc,
        ess_trace=np.array(ess_trace) if T and ess_trace[0] is not None else None,
    )


def _normalize_at(logw: np.ndarray, t: int, detail: str = "") -> tuple[np.ndarray, float]:
    """:func:`normalize_logweights`, with a collapse reported at step ``t``."""
    try:
        return normalize_logweights(logw)
    except WeightCollapseError:
        raise WeightCollapseError(step=t, detail=detail) from None


class ProperWeightingProcedure(ABC):
    """Factory for properly weighted ``(x_t, tau)`` pairs.

    ``log_r`` names the proposal ``r_t`` the pairs are properly weighted
    for, ``"gamma-ratio"`` (the incremental target, the default) or
    ``"transition"`` (the model transition); the outer step reads it.
    ``prepare(model, t, x_prev, y_t, rng)`` simulates the auxiliary
    variable (everything the inner method generated) for a batch of
    outer particles and returns an aux object carrying the scores
    ``log_tau`` and ``draw(rng, rows=None)``, the propagation draw for
    the batch rows ``rows`` that outer resampling chose (``None``: every
    row).  ``draw`` may be invoked repeatedly on the same aux; a repeated
    row gets independent randomness per occurrence.
    """

    kind: str = ""
    log_r: str = "gamma-ratio"

    @abstractmethod
    def prepare(self, model, t, x_prev, y_t, rng):
        """Simulate the auxiliary variable for the outer particles
        ``x_prev`` ``(*batch, n_x)`` at step ``t`` with observation
        ``y_t``, and return its aux object (``log_tau`` of shape
        ``batch`` and ``draw``)."""


@dataclass(frozen=True)
class _ExactTransitionAux:
    """Auxiliary object of exact draws from the transition ``f``: unit
    scores, so it is properly weighted for ``r_t = f``."""

    model: object
    t: int
    x_prev: np.ndarray

    @property
    def log_tau(self):
        return np.zeros(self.x_prev.shape[:-1])

    def draw(self, rng, rows=None):
        x_prev = self.x_prev if rows is None else self.x_prev[rows]
        return self.model.sample_transition(x_prev, rng, self.t)


class ExactTransitionProcedure(ProperWeightingProcedure):
    """Exact sampler from the transition prior with ``tau = 1``;
    properly weighted for ``r_t = f``.  Plugged into the general outer
    algorithm it reproduces the bootstrap filter."""

    kind = "exact-transition"
    log_r = "transition"

    def prepare(self, model, t, x_prev, y_t, rng):
        return _ExactTransitionAux(model, t, np.asarray(x_prev, dtype=float))


def _fully_adapted(proc, nu_hat: str) -> bool:
    """Whether ``gamma_t / r_t`` and ``tau / nu_hat`` cancel: uniform new weights."""
    return proc.log_r == "gamma-ratio" and nu_hat == "tau"


def _outer_step(
    system: ParticleSystem, model, proc, nu_hat: str, y_t, rng, ess_threshold=None
) -> tuple[ParticleSystem, np.ndarray]:
    """One step of the general outer algorithm, documented at
    :func:`nsmc.nested.general_nsmc_step`; the only code that resamples,
    draws and weights outer particles, for the proposal ``proc.log_r``; a
    non-Generator ``rng`` raises :class:`InvalidInputError`.

    ``proc.prepare(model, t, x_prev, y_t, rng)`` returns the auxiliary
    object; with ``tau`` multipliers the ancestors its scores select go
    to its ``draw(rng, rows)``, so no aux is copied.  With constant
    multipliers, ``ess_threshold`` resamples only when the ESS of the
    previous weights is below ``ess_threshold * N``, and otherwise
    carries them normalized to mean one.  Returns the new system and the
    normalized weights its ESS is taken on: the resampling probabilities
    of ``tau`` in the fully adapted configuration, whose new weights are
    uniform, else the new weights.
    """
    if not isinstance(rng, np.random.Generator):
        raise InvalidInputError(f"rng must be a np.random.Generator, got {rng!r}")
    t = system.t + 1
    N = system.n
    logw_prev = system.logw
    x_prev = system.states
    ancestors = rows = carried = None
    adj = 0.0
    if nu_hat == "one":
        # The multipliers do not read the auxiliary variable, so the
        # simulation runs after resampling and freshly selected ancestors
        # get conditionally independent draws.  Before the first step
        # resampling would be an identity permutation.
        if t > 1:
            probs, log_mean = _normalize_at(logw_prev, t)
            if ess_threshold is None or ess(probs) < ess_threshold * N:
                ancestors = multinomial_resample(probs, N, rng)
                x_prev = x_prev[ancestors]
            else:
                # Carried weights average to one, so the plain mean of the
                # new weights is the weighted mean of the increments.
                carried = logw_prev - log_mean
        if ancestors is None:
            ancestors = np.arange(N)
    aux = proc.prepare(model, t, x_prev, y_t, rng)
    if nu_hat == "tau":
        log_nu = np.asarray(aux.log_tau, dtype=float)
        detail = "all adjusted weights are zero"
        if np.count_nonzero(logw_prev):
            probs, log_mean_adjusted = _normalize_at(logw_prev + log_nu, t, detail)
            # log (sum w_prev*nu / sum w_prev), from the two shifted
            # log-means, so a tiny nu cannot underflow it.
            adj = log_mean_adjusted - normalize_logweights(logw_prev)[1]
        else:
            # All-zero previous weights: the same formula, bit for bit,
            # without its identity terms.
            probs, adj = _normalize_at(log_nu, t, detail)
        ancestors = rows = multinomial_resample(probs, N, rng)

    states = aux.draw(rng, rows)
    if _fully_adapted(proc, nu_hat):
        logw, log_mean_w = np.zeros(N), 0.0
    else:
        logw = 0.0 if proc.log_r == "gamma-ratio" else model.log_obs(y_t, states)
        # With tau multipliers tau / nu_hat is exactly one: resampling
        # never selects a zero-score ancestor.
        if nu_hat == "one":
            logw = logw + np.asarray(aux.log_tau, dtype=float)
        if carried is not None:
            logw = carried + logw
        probs, log_mean_w = _normalize_at(logw, t, "all carried weights zero")
        if t == 1 and nu_hat == "one":
            # The bootstrap filter's convention: the first step's weights
            # are stored normalized, which fixes the bits of carried ones.
            with np.errstate(divide="ignore"):
                logw = np.log(probs)
    new_system = ParticleSystem(
        states=states,
        ancestors=ancestors,
        logw=logw,
        logZ=system.logZ + adj + log_mean_w,
        t=t,
        log_increment=adj + log_mean_w,
    )
    return new_system, probs


def _outer_run(
    method: str, model, proc, nu_hat: str, data: Dataset, N: int, rng,
    with_ess: bool, ess_threshold=None,
) -> FilterOutput:
    """Run :func:`_outer_step` over ``data`` from ``N`` particles at zero.

    Filtering means and variances are weighted by the normalized new
    weights, or plain in the fully adapted configuration, whose weights
    are uniform; ``with_ess`` keeps the ESS trace of the weights each step
    returns.  A bad ``N`` or ``rng`` raises :class:`InvalidInputError`.
    """
    N = _check_count(N, "N")
    fully_adapted = _fully_adapted(proc, nu_hat)

    def step(system, t, y_t):
        system, probs = _outer_step(system, model, proc, nu_hat, y_t, rng, ess_threshold)
        states = system.states
        if fully_adapted:
            mean, var = states.mean(axis=0), states.var(axis=0)
        else:
            mean = probs @ states
            var = probs @ (states - mean) ** 2
        return system, mean, var, system.log_increment, ess(probs) if with_ess else None

    return _drive(method, model.n_x, data, step, _empty_system(N, model.n_x))


def bootstrap_pf(
    model: ModelBundle,
    data: Dataset,
    N: int,
    rng: np.random.Generator,
    ess_threshold: float | None = None,
) -> FilterOutput:
    """Bootstrap particle filter: propose from the transition prior.

    The general outer step with ``r_t = f``, exact transition draws and
    unit multipliers.  Resamples multinomially every step by default.
    ``ess_threshold`` optionally switches to adaptive resampling
    (resample only when the effective sample size drops below
    ``ess_threshold * N``); the default of ``None`` matches the
    per-step-resampling analysis used everywhere else in this package,
    and 0 never resamples.  A bad ``N`` or ``rng``, or an ``ess_threshold``
    not ``None`` or in ``[0, 1]``, raises :class:`InvalidInputError`.
    """
    if ess_threshold is not None and not (
        isinstance(ess_threshold, (int, float, np.integer, np.floating))
        and not isinstance(ess_threshold, bool) and 0.0 <= ess_threshold <= 1.0
    ):
        raise InvalidInputError(f"ess_threshold must be None or in [0, 1]: {ess_threshold!r}")
    proc = ExactTransitionProcedure()
    return _outer_run("bpf", make_model(model), proc, "one", data, N, rng, True, ess_threshold)
