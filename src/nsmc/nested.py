"""Nested sequential Monte Carlo.

The outer filter mimics a fully adapted sampler whose resampling weights
and propagation draws it cannot compute exactly.  Instead, each outer
particle runs an inner Monte Carlo procedure over the components of the
new state that produces a *properly weighted* pair ``(x_t, tau)``: a
nonnegative score ``tau`` standing in for the predictive density and a
draw ``x_t`` standing in for the locally optimal proposal.  Inner
procedures provided here: an inner SMC over components finished by
backward simulation or by an empirical draw, plain importance sampling,
a one-level self-nested variant, and exact (zero-variance) procedures
for the tractable cases.

All inner machinery is batched over outer particles: arrays carry shape
``(n_stages, *batch, M)`` and every stage operation is vectorized across
the batch, which is what makes replicated experiments cheap.  The inner
samplers carry and resample only the trailing prefix components a
target's Markov structure reads (``InnerTargetSequence.markov_order``:
one for the chain target, none for the independent target), so one
outer step on those models costs O(N * M * n_x); targets that declare no
order get the full prefix.

Procedures see the model only through the ``t``-aware protocol of
:mod:`nsmc.model` (transition sampler and densities, initial law at
``t = 1``, ``inner_target``), so no code here branches on the model
type.  ``PROCEDURES`` is the one table of procedure names.  The outer
filter is the package's fully adapted step (:mod:`nsmc.smc`) driven by a
procedure; with :class:`ExactFfbsProcedure` it is the fully adapted
particle filter.  :func:`general_nsmc_step` is the general algorithm with
arbitrary proposals and adjustment multipliers.
"""

from __future__ import annotations

import copy
from abc import ABC, abstractmethod
from dataclasses import dataclass
from functools import partial

import numpy as np

from .exceptions import InnerCollapseError, WeightCollapseError
from .model import (
    _LOG_2PI,
    Dataset,
    IndependentSsmSpec,
    ModelSpec,
    StssmModel,
    StssmSpec,
    make_model,
)
from .exact import _ExactFfbsAux, ffbs_forward
from .smc import (
    FilterOutput,
    ParticleSystem,
    _categorical_rows,
    _empty_system,
    _fully_adapted_filter,
    _fully_adapted_step,
    _multinomial_rows,
    multinomial_resample,
    normalize_logweights,
)


def _gauss_logpdf(x, mean, var):
    return -0.5 * ((x - mean) ** 2 / var + np.log(var) + _LOG_2PI)


def _row_logmeanexp(logw: np.ndarray) -> np.ndarray:
    """``log((1/M) sum exp(logw))`` along the last axis, -inf safe."""
    m = np.max(logw, axis=-1)
    shift = np.where(np.isfinite(m), m, 0.0)
    with np.errstate(divide="ignore"):
        out = shift + np.log(
            np.sum(np.exp(logw - shift[..., None]), axis=-1)
        ) - np.log(logw.shape[-1])
    return np.where(np.isfinite(m), out, -np.inf)


# ---------------------------------------------------------------------------
# Inner target sequences
# ---------------------------------------------------------------------------


class InnerTargetSequence(ABC):
    """Stage decomposition of one time-step's conditional target.

    Stages run over the components ``d = 0 .. n_stages - 1`` of the new
    state.  Implementations define unnormalized stage targets
    ``p_d(x_{0:d})`` whose final member is the incremental target ratio of
    the outer model (as a normalized function of the full new state, so
    that the inner normalizing constant equals the predictive density),
    plus stage proposals ``r_d``.

    ``markov_order`` is the number of trailing prefix components that
    ``sample_stage``, ``log_stage_proposal`` and ``log_p_increment``
    read.  The inner samplers pass those hooks only the last
    ``k = min(d, markov_order)`` components of the stage-``d`` prefix,
    as an array of shape ``(k, *batch, M)``; ``None`` (the default)
    passes the full prefix, ``k = d``.  A target that declares an order
    must override ``log_p_increment``, because the generic default
    evaluates ``log_p`` on the full prefix.  ``log_p`` and
    ``log_suffix_ratio`` are not windowed.  Only ``log_p`` is strictly
    required; the incremental and backward hooks have generic defaults
    that structured targets override for speed.
    """

    n_stages: int
    batch_shape: tuple[int, ...]
    markov_order: int | None = None

    @abstractmethod
    def sample_stage(self, d, prefix, m, rng) -> np.ndarray:
        """Draw stage-``d`` components from ``r_d``; shape ``(*batch, m)``."""

    @abstractmethod
    def log_stage_proposal(self, d, prefix, x_d) -> np.ndarray:
        """``log r_d(x_d | prefix)``."""

    @abstractmethod
    def log_p(self, d, traj) -> np.ndarray:
        """``log p_d`` on full prefixes ``traj`` of shape ``(d+1, *batch, M)``."""

    def log_p_increment(self, d, prefix, x_d) -> np.ndarray:
        """``log (p_d / p_{d-1})`` for the extension of ``prefix`` by ``x_d``."""
        joined = np.concatenate([prefix, x_d[None]], axis=0)
        inc = self.log_p(d, joined)
        if d > 0:
            inc = inc - self.log_p(d - 1, prefix)
        return inc

    def log_suffix_ratio(self, d, state: "InnerState", suffix) -> np.ndarray:
        """``log p_{n-1}((x_{0:d}^j, suffix)) - log p_d(x_{0:d}^j)``.

        ``suffix`` holds the already-chosen components ``d+1 .. n-1`` with
        shape ``(n-1-d, *batch)``.  May drop terms that are constant in
        ``j``; only differences across particles matter to the backward
        kernel.
        """
        prefixes = state.stage_trajectories(d)
        m = prefixes.shape[-1]
        tail = np.broadcast_to(
            suffix[..., None], suffix.shape + (m,)
        )
        joined = np.concatenate([prefixes, tail], axis=0)
        return self.log_p(self.n_stages - 1, joined) - self.log_p(d, prefixes)

    def take(self, idx: np.ndarray) -> "InnerTargetSequence":
        """Reindex the batch dimension (outer resampling support)."""
        return self


class ChainInnerTarget(InnerTargetSequence):
    """Stage targets for the chain-noise linear-Gaussian model.

    ``p_d`` collects, for components up to ``d``, the observation factors
    and the chain Markov factors of the transition noise.  Every factor
    is a normalized 1-d Gaussian, so the final-stage normalizing constant
    is exactly the predictive density of ``y_t``.  The default proposal
    is the per-component transition conditional ("prior"); the locally
    optimal per-component proposal is available as ``"optimal"``.  At
    ``t = 1`` the target is the initial law, whatever ``x_prev`` holds.
    """

    markov_order = 1

    def __init__(
        self, spec: StssmSpec, x_prev, y_t, proposal: str = "prior", t: int = 2
    ):
        if proposal not in ("prior", "optimal"):
            raise ValueError(f"unknown stage proposal: {proposal!r}")
        self.spec = spec
        fact = spec.noise_precision.fact
        self.c = fact.c
        self.phi = fact.phi
        self.obs_var = spec.obs_var
        self.proposal = proposal
        self.y = np.asarray(y_t, dtype=float)
        x_prev = np.asarray(x_prev, dtype=float)
        self.x_prev = x_prev
        self.n_stages = spec.n_x
        self.batch_shape = x_prev.shape[:-1]
        # Per-stage conditional mean is alpha_d + phi_d * x_{d-1}.
        ax = np.zeros_like(x_prev) if t == 1 else spec.a_coef * x_prev
        alpha = ax.copy()
        alpha[..., 1:] -= self.phi[1:] * ax[..., :-1]
        self.alpha = alpha

    def _cond_mean(self, d, prefix):
        mean = self.alpha[..., d]
        if d > 0:
            return mean[..., None] + self.phi[d] * prefix[-1]
        return np.broadcast_to(mean[..., None], mean.shape + (1,))

    def sample_stage(self, d, prefix, m, rng):
        mean = self._cond_mean(d, prefix)
        z = rng.standard_normal(self.batch_shape + (m,))
        if self.proposal == "prior":
            return mean + np.sqrt(1.0 / self.c[d]) * z
        post_prec = self.c[d] + 1.0 / self.obs_var
        post_mean = (self.c[d] * mean + self.y[d] / self.obs_var) / post_prec
        return post_mean + np.sqrt(1.0 / post_prec) * z

    def log_stage_proposal(self, d, prefix, x_d):
        mean = self._cond_mean(d, prefix)
        if self.proposal == "prior":
            return _gauss_logpdf(x_d, mean, 1.0 / self.c[d])
        post_prec = self.c[d] + 1.0 / self.obs_var
        post_mean = (self.c[d] * mean + self.y[d] / self.obs_var) / post_prec
        return _gauss_logpdf(x_d, post_mean, 1.0 / post_prec)

    def _log_factor(self, d, prefix, x_d):
        mean = self._cond_mean(d, prefix)
        return _gauss_logpdf(x_d, mean, 1.0 / self.c[d]) + _gauss_logpdf(
            self.y[d], x_d, self.obs_var
        )

    def log_p(self, d, traj):
        total = self._log_factor(0, None, traj[0])
        for e in range(1, d + 1):
            total = total + self._log_factor(e, traj[:e], traj[e])
        return total

    def log_p_increment(self, d, prefix, x_d):
        return self._log_factor(d, prefix, x_d)

    def log_suffix_ratio(self, d, state, suffix):
        # Only the factor linking components d and d+1 varies with the
        # stage-d candidate; everything further down the chain cancels.
        nxt = d + 1
        mean = self.alpha[..., nxt, None] + self.phi[nxt] * state.particles[d]
        return _gauss_logpdf(suffix[0][..., None], mean, 1.0 / self.c[nxt])

    def take(self, idx):
        out = copy.copy(self)
        out.x_prev, out.alpha = self.x_prev[idx], self.alpha[idx]
        out.batch_shape = out.x_prev.shape[:-1]
        return out


class IndependentInnerTarget(InnerTargetSequence):
    """Stage targets for the independent product model.

    Each stage contributes one coordinate's transition (or initial) and
    observation factor; stages do not interact, so the backward kernel
    carries no cross terms.
    """

    markov_order = 0

    def __init__(self, spec: IndependentSsmSpec, x_prev, y_t, t: int):
        self.spec = spec
        self.y = np.asarray(y_t, dtype=float)
        x_prev = np.asarray(x_prev, dtype=float)
        self.x_prev = x_prev
        self.n_stages = spec.n_x
        self.batch_shape = x_prev.shape[:-1]
        if t == 1:
            self.mean = np.broadcast_to(
                spec.init_mean, x_prev.shape
            ).astype(float)
            self.var = spec.init_var
        else:
            self.mean = spec.a_coef * x_prev
            self.var = spec.trans_var
        self.obs_var = spec.obs_var

    def sample_stage(self, d, prefix, m, rng):
        z = rng.standard_normal(self.batch_shape + (m,))
        return self.mean[..., d, None] + np.sqrt(self.var) * z

    def log_stage_proposal(self, d, prefix, x_d):
        return _gauss_logpdf(x_d, self.mean[..., d, None], self.var)

    def _log_factor(self, d, x_d):
        return _gauss_logpdf(x_d, self.mean[..., d, None], self.var) + (
            _gauss_logpdf(self.y[d], x_d, self.obs_var)
        )

    def log_p(self, d, traj):
        total = self._log_factor(0, traj[0])
        for e in range(1, d + 1):
            total = total + self._log_factor(e, traj[e])
        return total

    def log_p_increment(self, d, prefix, x_d):
        return self._log_factor(d, x_d)

    def log_suffix_ratio(self, d, state, suffix):
        shape = self.batch_shape + (state.particles.shape[-1],)
        return np.zeros(shape)

    def take(self, idx):
        out = copy.copy(self)
        out.x_prev, out.mean = self.x_prev[idx], self.mean[idx]
        out.batch_shape = out.x_prev.shape[:-1]
        return out


def make_inner_target(model, t: int, x_prev, y_t, proposal: str = "prior"):
    """Stage decomposition of ``gamma_t / gamma_{t-1}`` for a model."""
    return model.inner_target(t, x_prev, y_t, proposal)


# ---------------------------------------------------------------------------
# Inner SMC, backward simulation, empirical draw
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class InnerState:
    """Everything an inner SMC run generated.

    ``particles`` holds the post-propagation stage components,
    ``ancestors`` the stage resampling indices, ``logw`` the stage
    weights.  ``log_tau`` is the running product of stage weight means,
    one entry per batch row; ``-inf`` marks a collapsed (zero-score)
    system, which is legal as long as some sibling survives.
    """

    particles: np.ndarray  # (n_stages, *batch, M)
    ancestors: np.ndarray  # (n_stages - 1, *batch, M) int
    logw: np.ndarray  # (n_stages, *batch, M)
    log_tau: np.ndarray  # (*batch,)

    @property
    def n_stages(self) -> int:
        return self.particles.shape[0]

    @property
    def m(self) -> int:
        return self.particles.shape[-1]

    def take(self, idx: np.ndarray) -> "InnerState":
        return InnerState(
            particles=self.particles[:, idx],
            ancestors=self.ancestors[:, idx],
            logw=self.logw[:, idx],
            log_tau=self.log_tau[idx],
        )

    def stage_trajectories(self, d: int) -> np.ndarray:
        """Prefixes ``x_{0:d}^j`` as formed at stage ``d``; ``(d+1, *batch, M)``."""
        batch = self.particles.shape[1:-1]
        m = self.m
        idx = np.broadcast_to(np.arange(m), batch + (m,)).copy()
        out = np.empty((d + 1,) + batch + (m,))
        for e in range(d, -1, -1):
            out[e] = np.take_along_axis(self.particles[e], idx, axis=-1)
            if e > 0:
                idx = np.take_along_axis(self.ancestors[e - 1], idx, axis=-1)
        return out

    def recompute_log_tau(self) -> np.ndarray:
        return np.sum(_row_logmeanexp(self.logw), axis=0)


def _extend_window(window, x, order):
    """Append stage component ``x`` to a prefix window and keep its last
    ``order`` rows (every row when ``order`` is ``None``)."""
    joined = np.concatenate([window, x[None]], axis=0)
    if order is None:
        return joined
    return joined[max(joined.shape[0] - order, 0) :]


def inner_smc(
    target: InnerTargetSequence,
    m: int,
    rng: np.random.Generator,
    strict: bool = True,
) -> InnerState:
    """Inner SMC over the component stages of one conditional target.

    Stage 0 draws from ``r_0`` and weights by ``p_0 / r_0``; each later
    stage resamples multinomially on the previous weights, propagates
    through ``r_d`` and weights by ``p_d / (p_{d-1} r_d)``.  ``log_tau``
    is the product of per-stage weight means, the inner estimate of the
    final-stage normalizing constant.

    With ``strict=True`` a stage whose weights all vanish raises
    :class:`InnerCollapseError` carrying the 1-based stage index.  With
    ``strict=False`` (the batched mode used inside the outer filter)
    collapsed rows get ``log_tau = -inf`` and are carried along inertly.

    Only the last ``target.markov_order`` components of each prefix are
    carried and resampled, so carrying the prefix costs
    O(batch * M * markov_order) per stage rather than O(batch * M * d).
    """
    if m < 1:
        raise ValueError("m must be >= 1")
    n = target.n_stages
    order = target.markov_order
    batch = target.batch_shape
    particles = np.empty((n,) + batch + (m,))
    ancestors = np.zeros((max(n - 1, 0),) + batch + (m,), dtype=np.intp)
    logw = np.empty((n,) + batch + (m,))

    empty = np.empty((0,) + batch + (m,))
    x = target.sample_stage(0, empty, m, rng)
    particles[0] = x
    lw = target.log_p_increment(0, empty, x) - target.log_stage_proposal(
        0, empty, x
    )
    logw[0] = lw
    dead = ~np.isfinite(np.max(lw, axis=-1))
    if strict and np.any(dead):
        raise InnerCollapseError(stage=1)
    window = _extend_window(empty, x, order)

    for d in range(1, n):
        resample_lw = np.where(dead[..., None], 0.0, logw[d - 1])
        idx = _multinomial_rows(resample_lw, m, rng)
        ancestors[d - 1] = idx
        window = np.take_along_axis(window, idx[None], axis=-1)
        x = target.sample_stage(d, window, m, rng)
        particles[d] = x
        lw = target.log_p_increment(d, window, x) - target.log_stage_proposal(
            d, window, x
        )
        logw[d] = lw
        stage_dead = ~np.isfinite(np.max(lw, axis=-1))
        if strict and np.any(stage_dead):
            raise InnerCollapseError(stage=d + 1)
        dead = dead | stage_dead
        window = _extend_window(window, x, order)

    log_tau = np.sum(_row_logmeanexp(logw), axis=0)
    return InnerState(
        particles=particles, ancestors=ancestors, logw=logw, log_tau=log_tau
    )


def backward_simulate(
    inner: InnerState,
    target: InnerTargetSequence,
    rng: np.random.Generator,
    strict: bool = True,
) -> np.ndarray:
    """Draw one trajectory by a backward pass over the inner stages.

    The final component is drawn from the last stage's weights; earlier
    components are drawn with probability proportional to
    ``w_d^j * p_{n-1}((x_{0:d}^j, chosen suffix)) / p_d(x_{0:d}^j)``.
    Returns one assembled state per batch row, shape ``(*batch, n)``.
    """
    n = inner.n_stages
    batch = inner.particles.shape[1:-1]
    out = np.empty(batch + (n,))
    j = _categorical_rows(inner.logw[n - 1], rng)
    out[..., n - 1] = np.take_along_axis(
        inner.particles[n - 1], j[..., None], axis=-1
    )[..., 0]
    for d in range(n - 2, -1, -1):
        suffix = np.moveaxis(out[..., d + 1 :], -1, 0)
        lbw = inner.logw[d] + target.log_suffix_ratio(d, inner, suffix)
        if strict and np.any(~np.isfinite(np.max(lbw, axis=-1))):
            raise InnerCollapseError(
                stage=d + 1, detail="backward weights vanished"
            )
        j = _categorical_rows(lbw, rng)
        out[..., d] = np.take_along_axis(
            inner.particles[d], j[..., None], axis=-1
        )[..., 0]
    return out


def empirical_draw(
    inner: InnerState, rng: np.random.Generator
) -> np.ndarray:
    """Draw one ancestral trajectory proportionally to the final weights."""
    n = inner.n_stages
    batch = inner.particles.shape[1:-1]
    out = np.empty(batch + (n,))
    j = _categorical_rows(inner.logw[n - 1], rng)
    for d in range(n - 1, -1, -1):
        out[..., d] = np.take_along_axis(
            inner.particles[d], j[..., None], axis=-1
        )[..., 0]
        if d > 0:
            j = np.take_along_axis(
                inner.ancestors[d - 1], j[..., None], axis=-1
            )[..., 0]
    return out


def is_inner(
    proposal,
    log_target,
    m: int,
    rng: np.random.Generator,
) -> tuple[np.ndarray, np.ndarray]:
    """Properly weighted pair by plain importance sampling.

    ``proposal`` must expose ``sample(m, rng) -> (*batch, m, n_x)`` and
    ``logpdf(x) -> (*batch, m)``; ``log_target`` evaluates the
    unnormalized target density on the candidates.  Draws ``m``
    candidates, sets ``tau`` to the mean importance weight and returns
    one candidate drawn proportionally to the weights.
    """
    if m < 1:
        raise ValueError("m must be >= 1")
    aux = _importance_aux(proposal, log_target, m, rng)
    if aux.logw.ndim == 1 and not np.isfinite(aux.log_tau):
        raise InnerCollapseError(stage=1, detail="all importance weights zero")
    return aux.draw(rng), aux.log_tau


def _importance_aux(proposal, log_target, m, rng) -> "_ImportanceAux":
    """``m`` candidates from ``proposal`` with their importance weights."""
    cand = proposal.sample(m, rng)
    logw = np.asarray(log_target(cand)) - np.asarray(proposal.logpdf(cand))
    return _ImportanceAux(candidates=cand, logw=logw, log_tau=_row_logmeanexp(logw))


# ---------------------------------------------------------------------------
# Properly weighted procedures
# ---------------------------------------------------------------------------


class ProperWeightingProcedure(ABC):
    """Factory for properly weighted ``(x_t, tau)`` pairs.

    ``prepare`` simulates the auxiliary variable (everything the inner
    method generated) for a batch of outer particles and returns an aux
    object carrying ``log_tau``, a ``take`` method for outer resampling,
    and ``draw`` for the propagation draw.  ``draw`` may be invoked
    repeatedly on the same aux; shared ancestors use independent
    randomness per invocation.
    """

    kind: str = ""
    recursion_depth: int = 0
    #: whether tau is a deterministic function of the outer state only,
    #: allowing the auxiliary simulation to run after resampling.
    tau_independent_of_u: bool = False

    @abstractmethod
    def prepare(self, model, t, x_prev, y_t, rng):
        ...


@dataclass(frozen=True)
class _InnerSmcAux:
    target: InnerTargetSequence
    state: InnerState
    kappa: str

    @property
    def log_tau(self):
        return self.state.log_tau

    def take(self, idx):
        return _InnerSmcAux(
            target=self.target.take(idx),
            state=self.state.take(idx),
            kappa=self.kappa,
        )

    def draw(self, rng):
        if self.kappa == "backward":
            return backward_simulate(self.state, self.target, rng, strict=False)
        return empirical_draw(self.state, rng)


class InnerSmcProcedure(ProperWeightingProcedure):
    """Inner SMC over components, finished by backward simulation
    (``kappa="backward"``) or by an ancestral empirical draw
    (``kappa="empirical"``)."""

    def __init__(self, m: int, kappa: str = "backward", stage_proposal: str = "prior"):
        if m < 1:
            raise ValueError("m must be >= 1")
        if kappa not in ("backward", "empirical"):
            raise ValueError(f"unknown kappa: {kappa!r}")
        self.m = m
        self.kappa = kappa
        self.stage_proposal = stage_proposal
        self.kind = "smc+bs" if kappa == "backward" else "smc+empirical"

    def prepare(self, model, t, x_prev, y_t, rng):
        target = model.inner_target(t, x_prev, y_t, self.stage_proposal)
        state = inner_smc(target, self.m, rng, strict=False)
        return _InnerSmcAux(target=target, state=state, kappa=self.kappa)


@dataclass(frozen=True)
class _ImportanceAux:
    candidates: np.ndarray  # (*batch, m, n_x)
    logw: np.ndarray  # (*batch, m)
    log_tau: np.ndarray  # (*batch,)

    def take(self, idx):
        return _ImportanceAux(
            candidates=self.candidates[idx],
            logw=self.logw[idx],
            log_tau=self.log_tau[idx],
        )

    def draw(self, rng):
        j = _categorical_rows(self.logw, rng)
        return np.take_along_axis(
            self.candidates, j[..., None, None], axis=-2
        )[..., 0, :]


class _TransitionProposal:
    """Stage-free proposal: the model transition ``f(x_t | x_{t-1})``."""

    def __init__(self, model, t, x_prev):
        self.model = model
        self.t = t
        self.x_prev = np.asarray(x_prev, dtype=float)

    def sample(self, m, rng):
        tiled = np.broadcast_to(
            self.x_prev[..., None, :],
            self.x_prev.shape[:-1] + (m, self.x_prev.shape[-1]),
        )
        return self.model.sample_transition(tiled, rng, self.t)

    def logpdf(self, x):
        return self.model.log_transition(self.x_prev[..., None, :], x, self.t)


class ImportanceProcedure(ProperWeightingProcedure):
    """Plain importance sampling against the incremental target, with
    candidates drawn from the model transition."""

    kind = "is"

    def __init__(self, m: int):
        if m < 1:
            raise ValueError("m must be >= 1")
        self.m = m

    def prepare(self, model, t, x_prev, y_t, rng):
        x_prev = np.asarray(x_prev, dtype=float)
        return _importance_aux(
            _TransitionProposal(model, t, x_prev),
            lambda cand: model.log_gamma_ratio(x_prev[..., None, :], cand, y_t, t),
            self.m,
            rng,
        )


class ExactFfbsProcedure(ProperWeightingProcedure):
    """Zero-variance procedure for the tractable chain model: ``tau`` is
    the exact predictive density and draws are exact proposal draws.
    Running the outer filter with it reproduces the fully adapted
    sampler."""

    kind = "exact-ffbs"
    tau_independent_of_u = True

    def prepare(self, model, t, x_prev, y_t, rng):
        if not isinstance(model, StssmModel):
            raise TypeError("exact-ffbs requires the chain-noise model")
        cache = ffbs_forward(model.spec, np.asarray(x_prev, dtype=float), y_t)
        return _ExactFfbsAux(cache=cache, a_coef=model.spec.a_coef)


@dataclass(frozen=True)
class _ExactTransitionAux:
    model: object
    t: int
    x_prev: np.ndarray

    @property
    def log_tau(self):
        return np.zeros(self.x_prev.shape[:-1])

    def take(self, idx):
        return _ExactTransitionAux(
            model=self.model, t=self.t, x_prev=self.x_prev[idx]
        )

    def draw(self, rng):
        return self.model.sample_transition(self.x_prev, rng, self.t)


class ExactTransitionProcedure(ProperWeightingProcedure):
    """Exact sampler from the transition prior with ``tau = 1``;
    properly weighted for ``r_t = f``.  Plugged into the general outer
    algorithm it reproduces the bootstrap filter."""

    kind = "exact-transition"
    tau_independent_of_u = True

    def prepare(self, model, t, x_prev, y_t, rng):
        return _ExactTransitionAux(
            model=model, t=t, x_prev=np.asarray(x_prev, dtype=float)
        )


class SelfNestedProcedure(ProperWeightingProcedure):
    """One-level self-nesting: the auxiliary simulation is itself the
    outer algorithm run over the component stages, with per-stage scores
    from importance sampling and uniform stage weights handed to the
    final backward simulation."""

    kind = "self-nested"
    recursion_depth = 1

    def __init__(self, m_outer: int, m_inner: int, sub_ordering=None):
        if m_outer < 1 or m_inner < 1:
            raise ValueError("m_outer and m_inner must be >= 1")
        if sub_ordering is not None:
            raise ValueError(
                "only the natural component order is supported for chain "
                "stage sequences"
            )
        self.m = m_outer
        self.m_inner = m_inner

    def prepare(self, model, t, x_prev, y_t, rng):
        target = model.inner_target(t, x_prev, y_t)
        n = target.n_stages
        batch = target.batch_shape
        if len(batch) != 1:
            raise ValueError("self-nested procedures expect a 1-d particle batch")
        mo, mi = self.m, self.m_inner
        # Stage operations run on a (batch, mo)-shaped tiling of the
        # target: one copy per outer-stage system.
        tile_idx = np.broadcast_to(np.arange(batch[0])[:, None], batch + (mo,))
        tiled = target.take(tile_idx)
        particles = np.empty((n,) + batch + (mo,))
        ancestors = np.zeros((max(n - 1, 0),) + batch + (mo,), dtype=np.intp)
        log_tau = np.zeros(batch)
        order = target.markov_order
        window = np.empty((0,) + batch + (mo,))
        for d in range(n):
            # Candidates: (*batch, mo, mi) from the stage proposal, with
            # the conditioning window tiled across the inner axis.
            prefix = np.broadcast_to(window[..., None], window.shape + (mi,))
            cand = tiled.sample_stage(d, prefix, mi, rng)
            lw = tiled.log_p_increment(d, prefix, cand) - (
                tiled.log_stage_proposal(d, prefix, cand)
            )
            stage_log_tau = _row_logmeanexp(lw)  # (*batch, mo)
            log_tau = log_tau + _row_logmeanexp(stage_log_tau)
            idx = _multinomial_rows(stage_log_tau, mo, rng)
            if d > 0:
                ancestors[d - 1] = idx
                window = np.take_along_axis(window, idx[None], axis=-1)
            cand = np.take_along_axis(cand, idx[..., None], axis=-2)
            lw = np.take_along_axis(lw, idx[..., None], axis=-2)
            pick = _categorical_rows(lw, rng)
            x = np.take_along_axis(cand, pick[..., None], axis=-1)[..., 0]
            particles[d] = x
            window = _extend_window(window, x, order)
        state = InnerState(
            particles=particles,
            ancestors=ancestors,
            logw=np.zeros((n,) + batch + (mo,)),
            log_tau=log_tau,
        )
        return _InnerSmcAux(target=target, state=state, kappa="backward")


#: Procedure name -> (constructor taking ``(m, **kwargs)``, the
#: experiment-config fields passed on as keyword arguments).  ``None`` in
#: place of the fields marks the exact procedures, which configs cannot
#: select.
PROCEDURES = {
    "smc+bs": (partial(InnerSmcProcedure, kappa="backward"), ("stage_proposal",)),
    "smc+empirical": (partial(InnerSmcProcedure, kappa="empirical"), ("stage_proposal",)),
    "is": (ImportanceProcedure, ()),
    "self-nested": (lambda m, **kw: SelfNestedProcedure(m, kw.pop("m_inner", m), **kw), ()),
    "exact-ffbs": (lambda m, **_: ExactFfbsProcedure(), None),
    "exact-transition": (lambda m, **_: ExactTransitionProcedure(), None),
}


def make_procedure(kind: str, m: int, **kwargs) -> ProperWeightingProcedure:
    """Build a procedure from its name in :data:`PROCEDURES`."""
    if kind not in PROCEDURES:
        raise ValueError(f"unknown procedure kind: {kind!r}")
    return PROCEDURES[kind][0](m, **kwargs)


def self_nested_proc(
    m_outer: int, m_inner: int, sub_ordering=None
) -> SelfNestedProcedure:
    """Depth-1 self-nested procedure; deeper recursion is rejected."""
    return SelfNestedProcedure(m_outer, m_inner, sub_ordering=sub_ordering)


# ---------------------------------------------------------------------------
# Outer algorithm
# ---------------------------------------------------------------------------


def _check_uniform(system: ParticleSystem):
    if system.logw.size and np.any(system.logw != system.logw.flat[0]):
        raise ValueError(
            "outer particle weights must be uniform in fully adapted mode"
        )


def nsmc_init(model, N: int) -> ParticleSystem:
    """Empty particle system before the first step."""
    return _empty_system(N, model.n_x)


def nsmc_step(
    system: ParticleSystem,
    model,
    proc: ProperWeightingProcedure,
    y_t: np.ndarray,
    rng: np.random.Generator,
) -> ParticleSystem:
    """One outer step of the fully-adapted-approximation algorithm.

    Per particle, the procedure simulates its auxiliary variable and
    score ``tau``; ancestors are resampled proportionally to ``tau``, the
    new state is drawn by the procedure's propagation kernel on the
    resampled auxiliary state, and the normalizer estimate accrues
    ``log((1/N) sum tau)``.  Post-step weights stay uniform.  ``model``
    is a bundle from :func:`make_model`.
    """
    _check_uniform(system)
    return _fully_adapted_step(system, partial(proc.prepare, model), y_t, rng)[0]


def general_nsmc_step(
    system: ParticleSystem,
    model,
    proc: ProperWeightingProcedure,
    log_r,
    nu_hat,
    y_t: np.ndarray,
    rng: np.random.Generator,
) -> ParticleSystem:
    """One step of the general algorithm with arbitrary proposal and
    adjustment multipliers.

    ``proc`` must be properly weighted for the (unnormalized) proposal
    ``r_t``.  ``log_r`` evaluates it: a callable ``(x_prev, x, y_t)``, or
    one of the sentinels ``"gamma-ratio"`` (proposal equals the
    incremental target) and ``"transition"`` (proposal equals the model
    transition), for which the weight cancellations are carried out
    algebraically and therefore hold exactly in floating point.
    ``nu_hat`` selects the adjustment multiplier: ``"tau"`` uses the
    procedure score, ``"one"`` constant multipliers, or a callable
    ``(x_prev,) -> log nu_hat``.  Carried weights are

    ``w_t = (gamma_t / gamma_{t-1}) * tau / (nu_hat * r_t)``,

    which collapses to uniform weights when ``r_t`` is the incremental
    target and ``nu_hat = tau``, and to the bootstrap filter when
    ``r_t = f`` with unit multipliers and exact transition draws.

    When the multipliers do not depend on the auxiliary variable the
    simulation runs after resampling, so freshly selected ancestors get
    conditionally independent draws.  ``model`` is a bundle from
    :func:`make_model`.
    """
    t = system.t + 1
    N = system.n
    logw_prev = system.logw

    defer = nu_hat == "one" and proc.tau_independent_of_u
    if defer:
        log_nu = np.zeros(N)
        if t == 1:
            # No state exists yet and the multipliers are constant, so
            # resampling would be an identity permutation.
            ancestors = np.arange(N)
        else:
            try:
                probs, _ = normalize_logweights(logw_prev)
            except WeightCollapseError:
                raise WeightCollapseError(step=t) from None
            ancestors = multinomial_resample(probs, N, rng)
        aux = proc.prepare(model, t, system.states[ancestors], y_t, rng)
        log_nu_res = np.zeros(N)
    else:
        aux = proc.prepare(model, t, system.states, y_t, rng)
        if nu_hat == "tau":
            log_nu = np.asarray(aux.log_tau, dtype=float)
        elif nu_hat == "one":
            log_nu = np.zeros(N)
        else:
            log_nu = np.asarray(nu_hat(system.states), dtype=float)
        try:
            probs, _ = normalize_logweights(logw_prev + log_nu)
        except WeightCollapseError:
            raise WeightCollapseError(
                step=t, detail="all adjusted weights are zero"
            ) from None
        ancestors = multinomial_resample(probs, N, rng)
        aux = aux.take(ancestors)
        log_nu_res = log_nu[ancestors]

    x_prev_res = system.states[ancestors]
    states = aux.draw(rng)
    log_tau_res = np.asarray(aux.log_tau, dtype=float)
    if log_r == "gamma-ratio":
        core = np.zeros(N)
    elif log_r == "transition":
        core = model.log_obs(y_t, states)
    else:
        log_gamma = model.log_gamma_ratio(x_prev_res, states, y_t, t)
        core = log_gamma - np.asarray(log_r(x_prev_res, states, y_t))
    # Grouped so the fully adapted configuration cancels exactly.
    logw = core + (log_tau_res - log_nu_res)

    # Normalizer increment: (sum w_prev*nu / sum w_prev) * (1/N) sum w_t.
    shift = np.max(logw_prev)
    adj = np.log(np.sum(np.exp(logw_prev - shift + log_nu))) - np.log(
        np.sum(np.exp(logw_prev - shift))
    )
    try:
        _, log_mean_w = normalize_logweights(logw)
    except WeightCollapseError:
        raise WeightCollapseError(step=t, detail="all carried weights zero") from None
    return ParticleSystem(
        states=states,
        ancestry=system.ancestry + (ancestors,),
        logw=logw,
        logZ=system.logZ + adj + log_mean_w,
        t=t,
        log_increment=adj + log_mean_w,
    )


def nsmc_run(
    model: ModelSpec,
    data: Dataset,
    N: int,
    M: int,
    proc: str | ProperWeightingProcedure,
    rng: np.random.Generator,
) -> FilterOutput:
    """Run the nested filter over a whole dataset.

    ``proc`` is a procedure instance or one of the configuration names
    accepted by :func:`make_procedure` (``M`` is ignored when an instance
    is passed).  Emits per-step filtering summaries, the effective sample
    size of the ``tau`` scores and the normalizer increments.
    """
    if N < 1:
        raise ValueError("N must be >= 1")
    if isinstance(proc, str):
        proc = make_procedure(proc, M)
    m = make_model(model)
    prepare = partial(proc.prepare, m)
    method = f"nsmc-{proc.kind}"
    return _fully_adapted_filter(method, prepare, m.n_x, data, N, rng, with_ess=True)


# ---------------------------------------------------------------------------
# Proper-weighting diagnostics
# ---------------------------------------------------------------------------


def conditional_oracle(spec: StssmSpec, x_prev, y_t):
    """Dense-matrix moments of one conditional target.

    Returns ``(log_nu, mean, cov)`` of the locally optimal proposal for
    the chain model, computed with dense linear algebra (no component
    recursions), so it can validate the chain machinery.
    """
    x_prev = np.asarray(x_prev, dtype=float)
    y_t = np.asarray(y_t, dtype=float)
    n = spec.n_x
    q = spec.noise_precision.dense()
    ytil = y_t - spec.a_coef * x_prev
    cov_y = np.linalg.inv(q) + spec.obs_var * np.eye(n)
    sign, logdet = np.linalg.slogdet(cov_y)
    log_nu = -0.5 * (
        n * _LOG_2PI + logdet + ytil @ np.linalg.solve(cov_y, ytil)
    )
    lam = q + np.eye(n) / spec.obs_var
    cov = np.linalg.inv(lam)
    mean = spec.a_coef * x_prev + cov @ (ytil / spec.obs_var)
    return float(log_nu), mean, 0.5 * (cov + cov.T)


def proper_weighting_check(
    proc: ProperWeightingProcedure,
    spec: StssmSpec,
    x_prev,
    y_t,
    n_reps: int,
    rng: np.random.Generator,
    t: int = 2,
) -> dict[str, tuple[float, float, float]]:
    """Monte Carlo audit of the proper-weighting contract.

    Replicates the procedure ``n_reps`` times on a fixed conditional
    target and compares ``mean(tau * phi(x))`` against
    ``nu * E_q[phi]`` from the dense oracle, for the test functions
    ``phi in {1, x1, x1^2, x1*x2}``.  Returns per-phi tuples
    ``(estimate, truth, z_score)``.
    """
    model = make_model(spec)
    x_prev = np.asarray(x_prev, dtype=float)
    tiled = np.broadcast_to(x_prev, (n_reps,) + x_prev.shape)
    aux = proc.prepare(model, t, tiled, y_t, rng)
    xs = aux.draw(rng)
    tau = np.exp(np.asarray(aux.log_tau, dtype=float))

    log_nu, mean, cov = conditional_oracle(spec, x_prev, y_t)
    nu = np.exp(log_nu)
    phis = {
        "1": (np.ones(n_reps), 1.0),
        "x1": (xs[:, 0], mean[0]),
        "x1^2": (xs[:, 0] ** 2, mean[0] ** 2 + cov[0, 0]),
    }
    if spec.n_x >= 2:
        phis["x1*x2"] = (xs[:, 0] * xs[:, 1], mean[0] * mean[1] + cov[0, 1])
    out = {}
    for name, (vals, expectation) in phis.items():
        prods = tau * vals
        est = prods.mean()
        truth = nu * expectation
        se = prods.std(ddof=1) / np.sqrt(n_reps)
        if se == 0.0:
            # Zero-variance procedures: agreement up to the dense
            # oracle's own round-off counts as an exact pass.
            z = 0.0 if np.isclose(est, truth, rtol=1e-9, atol=0.0) else np.inf
        else:
            z = (est - truth) / se
        out[name] = (float(est), float(truth), float(z))
    return out
