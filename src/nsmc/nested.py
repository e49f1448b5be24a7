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

Both model families have the same stage law, a first-order Gaussian
chain over the components, so all stage code is in
:class:`GaussianStageTarget`, which each spec's ``inner_target`` builds
and which reads its Markov order off the chain coefficients: zero where
``phi = 0`` (the independent spec, or a chain with zero coupling), else
one.  Its stage hook ``propagate`` draws stage ``d`` given only the
resampled previous component and weights the draws in the same call, and
the backward kernel reads only the factor linking two neighbouring
components, so the inner samplers carry no prefix beyond the previous
component and one outer step costs O(N * M * n_x).  At Markov order 0 no
stage reads another, so the inner SMC does not resample between stages:
it draws and weights every stage in one ``propagate`` call and one
vectorized pass, and both of its draws, backward and empirical, pick
each component from the stage weights that pass stored, again in one
pass, over particle-major running sums.

The self-nested sampler reduces along its candidate axis over
contiguous rows: a reused candidate-major scratch slab gives its
row maxima and the running sums its pick reads, which numpy computes
2-3 times faster than along short row-major rows, with the same bits.  Only the row log-means stay row-major sums, as ``np.sum``'s
pairwise order is what pins ``tau``.

All inner machinery is batched over outer particles: arrays carry shape
``(n_stages, *batch, M)`` and every stage operation is vectorized across
the batch, which is what makes replicated experiments cheap.

Procedures see the model only through the ``t``-aware protocol of
:mod:`nsmc.model` (transition sampler, observation density, initial law
at ``t = 1``, ``inner_target``), so no code here branches on the model
type.  ``PROCEDURES`` is the one table of inner procedure names; the
exact procedures and the procedure base live next to their auxiliary
objects in :mod:`nsmc.exact` and :mod:`nsmc.smc` and are re-exported
here.  The outer filter is the package's one outer step driven by a
procedure, which names its own proposal as ``log_r``: :func:`general_nsmc_step`
is the general algorithm, with the procedure scores or constants as
adjustment multipliers, and :func:`nsmc_step` its fully adapted
configuration, with :class:`ExactFfbsProcedure` the fully adapted filter.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass
from functools import partial

import numpy as np

from .exceptions import InnerCollapseError, InvalidInputError
from .model import (
    _LOG_2PI, Dataset, ModelBundle, StssmSpec, _check_count, _gauss_logpdf, make_model,
)
from .exact import ExactFfbsProcedure
from .smc import (
    ExactTransitionProcedure,
    FilterOutput,
    ParticleSystem,
    ProperWeightingProcedure,
    _categorical_rows,
    _empty_system,
    _outer_run,
    _outer_step,
    _pick_columns,
    _pick_rows,
    _row_log_mean,
    _row_logmeanexp,
    _row_weights,
    _running_sums,
    _search_rows,
)


# ---------------------------------------------------------------------------
# Stage target
# ---------------------------------------------------------------------------


#: Stage proposals of :class:`GaussianStageTarget`: the stage law itself,
#: or the locally optimal per-component law.
STAGE_PROPOSALS = ("prior", "optimal")


class GaussianStageTarget:
    """Stage decomposition of one time step's conditional target, for a
    stage law that is a first-order Gaussian chain over the components.

    Stages run over the components ``d = 0 .. n_stages - 1`` of the new
    state.  The unnormalized stage target ``p_d`` multiplies, for
    components up to ``d``, the conditional laws
    ``Normal(x_e; alpha_e + phi_e * x_{e-1}, var_e)`` and the observation
    factors ``Normal(y_e; x_e, obs_var)``.  ``alpha`` has shape
    ``(*batch, n)``; ``phi``, the precisions ``c`` and ``var = 1 / c``
    have shape ``(n,)`` (both are kept: ``1 / (1 / v)`` need not be
    ``v``).  Every factor is a normalized 1-d Gaussian, so the
    final-stage normalizing constant is the predictive density of
    ``y_t``.  ``proposal`` is ``"prior"`` (the stage law) or
    ``"optimal"`` (the locally optimal per-component law).
    ``markov_order`` is read off ``phi``: 1 if it has a nonzero entry,
    else 0, where the stages do not interact and ``phi`` is not read.

    The samplers use three hooks:

    * ``propagate(d, prev, m, rng)`` draws ``x_d`` from the stage
      proposal ``r_d`` and returns it with ``log (p_d / (p_{d-1} r_d))``,
      both of shape ``(*batch, m)``: for ``"prior"`` that ratio is
      ``log Normal(y_d; x_d, obs_var)``, for ``"optimal"`` the draw-free
      ``log Normal(y_d; mean_d, var_d + obs_var)`` (a read-only
      broadcast).  ``prev`` is the resampled previous
      component: ``(*batch, m)`` from :func:`inner_smc`, or
      ``(*batch, mo, 1)`` from the self-nested sampler, whose unit axis
      broadcasts over the candidates.  The samplers pass ``None`` at
      ``d = 0`` and for ``markov_order`` 0.  At ``markov_order`` 0,
      ``d = None`` draws every stage at once: both arrays then lead with
      the stage axis, ``(n, *batch, m)``, and hold bit for bit what the
      calls for ``d = 0 .. n - 1`` would return, drawn by one
      ``standard_normal`` call that consumes ``rng`` as those calls do.
    * ``log_suffix_ratio(d, x_d, x_next)`` is
      ``log p_{n-1}((x_{0:d}^j, suffix)) - log p_d(x_{0:d}^j)`` up to a
      constant in ``j``, given the stage-``d`` particles ``x_d`` of shape
      ``(*batch, M)`` and the chosen next component ``x_next`` of shape
      ``(*batch,)``; only differences across particles matter to the
      backward kernel.
    * ``take(idx)`` indexes the flattened batch, for a backward draw at
      the rows outer resampling chose; ``tile(m)`` repeats every batch
      row ``m`` times as a broadcast view, for the self-nested systems.
    """

    def __init__(self, alpha, phi, c, var, y_t, obs_var, proposal):
        if proposal not in STAGE_PROPOSALS:
            raise InvalidInputError(f"unknown stage proposal: {proposal!r}")
        self.alpha = alpha
        self.phi = phi
        self.c = c
        self.var = var
        self.y = np.asarray(y_t, dtype=float)
        self.obs_var = obs_var
        self.proposal = proposal
        self.markov_order = int(np.any(phi != 0.0))
        self.n_stages = alpha.shape[-1]
        self.batch_shape = alpha.shape[:-1]

    def propagate(self, d, prev, m, rng):
        if d is None:
            if self.markov_order:
                raise ValueError("only a Markov order 0 target draws every stage at once")
            # Stage-leading parameters, broadcasting against (n, *batch, m).
            lead = (self.n_stages,) + (1,) * (len(self.batch_shape) + 1)
            mean = np.moveaxis(self.alpha, -1, 0)[..., None]
            var, c, y = (a.reshape(lead) for a in (self.var, self.c, self.y))
            shape = (self.n_stages,) + self.batch_shape + (m,)
        else:
            mean = self.alpha[..., d, None]
            if prev is not None:
                mean = mean + self.phi[d] * prev
            var, c, y = self.var[d], self.c[d], self.y[d]
            shape = self.batch_shape + (m,)
        z = rng.standard_normal(shape)
        if self.proposal == "prior":
            x = mean + np.sqrt(var) * z
            return x, _gauss_logpdf(x, y, self.obs_var)
        post_prec = c + 1.0 / self.obs_var
        post_mean = (c * mean + y / self.obs_var) / post_prec
        x = post_mean + np.sqrt(1.0 / post_prec) * z
        log_w = _gauss_logpdf(y, mean, var + self.obs_var)
        return x, np.broadcast_to(log_w, x.shape)

    def log_suffix_ratio(self, d, x_d, x_next):
        if self.markov_order == 0:
            return np.zeros(x_d.shape)
        # Only the factor linking components d and d+1 varies with the
        # stage-d candidate; everything further down the chain cancels.
        nxt = d + 1
        mean = self.alpha[..., nxt, None] + self.phi[nxt] * x_d
        return _gauss_logpdf(x_next[..., None], mean, self.var[nxt])

    def take(self, idx):
        return self._with_alpha(self.alpha.reshape(-1, self.n_stages)[idx])

    def tile(self, m):
        shape = self.batch_shape + (m, self.n_stages)
        return self._with_alpha(np.broadcast_to(self.alpha[..., None, :], shape))

    def _with_alpha(self, alpha):
        out = copy.copy(self)
        out.alpha = alpha
        out.batch_shape = alpha.shape[:-1]
        return out


# ---------------------------------------------------------------------------
# Inner SMC, backward simulation, empirical draw
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class InnerState:
    """Everything an inner SMC run generated.

    ``particles`` holds the post-propagation stage components,
    ``ancestors`` the stage resampling indices (none, shape
    ``(0, *batch, M)``, at Markov order 0, where no stage resamples),
    ``logw`` the stage log-weights and ``w`` the stage weights
    ``exp(logw - shift)`` that :func:`inner_smc` computed on the way,
    shifted by each row's maximum (0 for a row of ``-inf`` entries), which
    the order-0 draw reads; a self-nested state carries zeros and ones.
    ``log_tau`` is the running product of
    stage weight means, one entry per batch row; ``-inf`` marks a
    collapsed (zero-score) system, which is legal as long as some
    sibling survives.  Outer resampling never copies a state: the outer
    step passes the chosen batch rows to the auxiliary object's
    ``draw(rng, rows)``, and the draws read those rows.
    """

    particles: np.ndarray  # (n_stages, *batch, M)
    ancestors: np.ndarray  # (n_stages - 1 or 0, *batch, M) int
    logw: np.ndarray  # (n_stages, *batch, M)
    w: np.ndarray  # (n_stages, *batch, M)
    log_tau: np.ndarray  # (*batch,)

    @property
    def n_stages(self) -> int:
        return self.particles.shape[0]


def _weigh_stages(logw, out, strict, first_stage):
    """The pass after ``propagate`` over a stage-leading block of
    log-weights ``(k, *batch, M)``, stages ``first_stage ..``: the row
    maxima, the collapse check, then :func:`~nsmc.smc._row_weights`,
    which writes ``exp(logw - shift)`` to ``out``.  Returns ``shift`` and
    the mask of collapsed rows, both ``(k, *batch, 1)``.

    The first failing stage raises, as a stage-by-stage pass would: a
    NaN or ``+inf`` log-weight as ``ValueError``, before, with
    ``strict``, a collapsed row as :class:`InnerCollapseError` carrying
    the 1-based stage index.
    """
    top = np.max(logw, axis=-1, keepdims=True)
    dead = np.isneginf(top)
    if strict and np.any(dead):
        k = int(np.argmax(dead.reshape(dead.shape[0], -1).any(axis=-1)))
        _row_weights(logw[: k + 1], top[: k + 1])  # a NaN up to stage k raises first
        raise InnerCollapseError(stage=first_stage + k + 1)
    return _row_weights(logw, top, out)[1], dead


def inner_smc(
    target: GaussianStageTarget,
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
    A NaN or ``+inf`` stage weight raises ``ValueError`` in either mode;
    the first failing stage raises, the ``ValueError`` first.  A bad
    ``m`` raises :class:`InvalidInputError`.

    Of the prefix, only the previous component is resampled and handed
    to ``propagate``, so a stage costs O(batch * M) whatever its index.
    Stages resample only when ``target.markov_order`` is 1: at order 0
    no stage reads another, ``tau`` never reads the ancestors, and
    skipping the resampling keeps it unbiased (Whiteley, Lee and Heine,
    2016), so no ancestors are recorded.  Every stage is then drawn by
    one ``propagate(None, None, m, rng)`` call and weighted in one pass
    over the whole ``(n, *batch, M)`` block, with the same bits and
    random stream as a stage-by-stage loop; only the generator state
    left after an error differs, as the whole block is drawn first.

    Each stage takes its row maxima once, in the NaN and collapse check,
    and reuses them as the shift of its weights, which the next stage
    resamples on (a collapsed row on unit weights), ``tau`` averages and
    the state keeps; no later pass recomputes them.  The chosen previous
    components are gathered by one flat ``take``.
    """
    m = _check_count(m, "m")
    if not target.markov_order:
        particles, logw = target.propagate(None, None, m, rng)
        w = np.empty(logw.shape)
        shift = _weigh_stages(logw, w, strict, 0)[0]
        ancestors = np.zeros((0,) + particles.shape[1:], dtype=np.intp)
    else:
        n = target.n_stages
        batch = target.batch_shape
        particles = np.empty((n,) + batch + (m,))
        ancestors = np.zeros((max(n - 1, 0),) + batch + (m,), dtype=np.intp)
        logw = np.empty((n,) + batch + (m,))
        w = np.empty_like(logw)
        shift = np.empty((n,) + batch + (1,))
        dead = np.zeros(batch, dtype=bool)
        # Flat offset of each batch row's first particle within a stage.
        offsets = np.arange(0, int(np.prod(batch)) * m, m).reshape(batch + (1,))
        for d in range(n):
            prev = None
            if d:
                # A collapsed row resamples from unit weights.
                idx = _search_rows(np.where(dead[..., None], 1.0, w[d - 1]), m, rng)
                ancestors[d - 1] = idx
                idx += offsets
                prev = particles[d - 1].take(idx)
            particles[d], logw[d] = target.propagate(d, prev, m, rng)
            stage = slice(d, d + 1)
            shift[stage], stage_dead = _weigh_stages(logw[stage], w[stage], strict, d)
            dead |= stage_dead[0, ..., 0]
    log_tau = np.sum(_row_log_mean(w, shift), axis=0)
    return InnerState(
        particles=particles, ancestors=ancestors, logw=logw, w=w, log_tau=log_tau
    )


def _row_offsets(inner: InnerState, rows) -> np.ndarray:
    """Flat offset, within one stage of ``inner``, of the first particle
    of each chosen batch row.  ``rows`` indexes the flattened batch;
    ``None`` chooses every row, in order."""
    if rows is None:
        rows = np.arange(inner.log_tau.size).reshape(inner.log_tau.shape)
    return rows * inner.particles.shape[-1]


def _stage_rows(a: np.ndarray, rows) -> np.ndarray:
    """A stage array ``(*batch, M)`` at the chosen batch ``rows``."""
    return a if rows is None else np.take(a.reshape(-1, a.shape[-1]), rows, axis=0)


def _pick_stages(particles: np.ndarray, j: np.ndarray, offsets: np.ndarray) -> np.ndarray:
    """Particle ``j[d, row]`` of every stage ``d`` and chosen row, by one
    flat ``take``; a C-contiguous ``(*batch, n)`` array."""
    n = particles.shape[0]
    stage = np.arange(n).reshape((n,) + (1,) * offsets.ndim) * (particles.size // n)
    picked = particles.take(j + offsets + stage)
    return np.ascontiguousarray(np.moveaxis(picked, 0, -1))


def backward_simulate(
    inner: InnerState,
    target: GaussianStageTarget,
    rng: np.random.Generator,
    strict: bool = True,
    rows: np.ndarray | None = None,
) -> np.ndarray:
    """Draw one trajectory by a backward pass over the inner stages.

    The final component is drawn from the last stage's weights; earlier
    components are drawn with probability proportional to
    ``w_d^j * p_{n-1}((x_{0:d}^j, chosen suffix)) / p_d(x_{0:d}^j)``.
    Returns one assembled state per chosen batch row, shape
    ``(*rows, n)``.  ``rows`` indexes the flattened batch of ``inner``
    (``None``: every row, in order), whose chosen rows are read stage by
    stage, never copied; ``target`` is the one ``inner`` ran on, taken
    here at ``rows``.  A NaN or ``+inf`` backward log-weight raises
    ``ValueError``; with ``strict``, a row whose backward weights are all
    zero raises :class:`InnerCollapseError`.
    """
    n = inner.n_stages
    offsets = _row_offsets(inner, rows)
    target = target if rows is None else target.take(rows)
    out = np.empty(offsets.shape + (n,))
    j = _categorical_rows(_stage_rows(inner.logw[n - 1], rows), rng)
    out[..., n - 1] = inner.particles[n - 1].take(offsets + j)
    for d in range(n - 2, -1, -1):
        x_d = _stage_rows(inner.particles[d], rows)
        lbw = _stage_rows(inner.logw[d], rows) + target.log_suffix_ratio(
            d, x_d, out[..., d + 1]
        )
        w = _row_weights(lbw)[0]
        # A live row's weights peak at exactly exp(0) = 1.
        if strict and not np.all(np.max(w, axis=-1) > 0.0):
            raise InnerCollapseError(
                stage=d + 1, detail="backward weights vanished"
            )
        out[..., d] = inner.particles[d].take(offsets + _pick_rows(w, rng))
    return out


def _stagewise_draw(inner: InnerState, rows, rng: np.random.Generator) -> np.ndarray:
    """Pick every component from its own stage's weights, in one pass,
    for the batch ``rows`` of ``inner`` (every row for ``None``).

    The picks read the stage weights ``inner.w`` that the forward pass
    stored (a self-nested state's broadcast ones), with one uniform per
    stage and row, drawn last stage first as :func:`backward_simulate`
    draws them, whose result this equals bitwise when no stage reads
    another (all suffix ratios zero).  The chosen rows' running sums are
    built particle-major, ``(M, n, *rows)``, so every add and the
    comparisons of :func:`_pick_columns` run over contiguous
    ``(n, *rows)`` blocks rather than along ``M``-wide rows.  A stage
    weight row whose total is NaN or ``+inf`` raises ``ValueError``.
    Returns a C-contiguous ``(*batch, n)`` array.
    """
    w = inner.w[::-1]
    if rows is not None:
        w = w.reshape(w.shape[0], -1, w.shape[-1])[:, rows]
    cum = _running_sums(np.moveaxis(w, -1, 0))
    if not np.all(cum[-1] < np.inf):
        raise ValueError("stage weights contain NaN or +inf")
    j = _pick_columns(cum, rng)[::-1]
    return _pick_stages(inner.particles, j, _row_offsets(inner, rows))


def empirical_draw(
    inner: InnerState, rng: np.random.Generator, rows: np.ndarray | None = None
) -> np.ndarray:
    """Draw one ancestral trajectory proportionally to the final weights,
    for the batch ``rows`` of ``inner`` as in :func:`backward_simulate`,
    by one flat ``take`` of the ancestors per stage, then one of the
    particles.

    A state with no recorded ancestors (an inner SMC at Markov order 0)
    picks each component from its own stage's weights instead: there an
    ancestor is a fresh draw from its stage's weights, so the law is the
    same.  A NaN or ``+inf`` in the stored stage weights ``inner.w``
    then raises ``ValueError``.
    """
    if not inner.ancestors.shape[0]:
        return _stagewise_draw(inner, rows, rng)
    n = inner.n_stages
    offsets = _row_offsets(inner, rows)
    j = np.empty((n,) + offsets.shape, dtype=np.intp)
    j[n - 1] = _categorical_rows(_stage_rows(inner.logw[n - 1], rows), rng)
    for d in range(n - 1, 0, -1):
        j[d - 1] = inner.ancestors[d - 1].take(offsets + j[d])
    return _pick_stages(inner.particles, j, offsets)


# ---------------------------------------------------------------------------
# Properly weighted procedures
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class _InnerSmcAux:
    """The auxiliary object of an inner SMC run: its ``target`` and
    ``state`` and the draw ``kappa``.  ``draw(rng, rows)`` reads the
    batch ``rows`` of ``state`` (indices into the flattened batch, the
    outer particles) directly and never copies the state; only the
    empirical draw reads the ancestors."""

    target: GaussianStageTarget
    state: InnerState
    kappa: str

    @property
    def log_tau(self):
        return self.state.log_tau

    def draw(self, rng, rows=None):
        if not self.target.markov_order:
            return _stagewise_draw(self.state, rows, rng)
        if self.kappa == "backward":
            return backward_simulate(self.state, self.target, rng, strict=False, rows=rows)
        return empirical_draw(self.state, rng, rows=rows)


class InnerSmcProcedure(ProperWeightingProcedure):
    """Inner SMC over components, finished by backward simulation
    (``kappa="backward"``) or by an ancestral empirical draw
    (``kappa="empirical"``); a bad argument raises :class:`InvalidInputError`."""

    def __init__(self, m: int, kappa: str = "backward", stage_proposal: str = "prior"):
        if kappa not in ("backward", "empirical"):
            raise InvalidInputError(f"unknown kappa: {kappa!r}")
        if stage_proposal not in STAGE_PROPOSALS:
            raise InvalidInputError(f"unknown stage proposal: {stage_proposal!r}")
        self.m = _check_count(m, "m")
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

    def draw(self, rng, rows=None):
        cand, logw = self.candidates, self.logw
        if rows is not None:
            cand, logw = cand[rows], logw[rows]
        j = _categorical_rows(logw, rng)
        return np.take_along_axis(cand, j[..., None, None], axis=-2)[..., 0, :]


class ImportanceProcedure(ProperWeightingProcedure):
    """Plain importance sampling against the incremental target.

    Draws ``m`` candidates from the model transition and weights each by
    the incremental target over the transition density, which is the
    likelihood ``log_obs(y_t, x)``; ``tau`` is the mean weight, and the
    draw picks one candidate proportionally to the weights.  A bad ``m``
    raises :class:`InvalidInputError`."""

    kind = "is"

    def __init__(self, m: int):
        self.m = _check_count(m, "m")

    def prepare(self, model, t, x_prev, y_t, rng):
        x_prev = np.asarray(x_prev, dtype=float)[..., None, :]
        tiled = np.broadcast_to(
            x_prev, x_prev.shape[:-2] + (self.m, x_prev.shape[-1])
        )
        cand = model.sample_transition(tiled, rng, t)
        logw = model.log_obs(y_t, cand)
        return _ImportanceAux(candidates=cand, logw=logw, log_tau=_row_logmeanexp(logw))


class SelfNestedProcedure(ProperWeightingProcedure):
    """One-level self-nesting: the auxiliary simulation is itself the
    outer algorithm run over the component stages, with per-stage scores
    from importance sampling and uniform stage weights handed to the
    final backward simulation.  Each stage makes one weight pass over its
    ``(batch, mo, mi)`` candidates for both the stage scores and the pick
    among the resampled systems' candidates, gathered by flat index, and
    one over its ``(batch, mo)`` stage scores for both their log-mean and
    the resampling of the systems.

    The reductions along the candidate axis read one reused
    candidate-major scratch slab of shape ``(mi, batch * mo)``, whose
    rows are contiguous: the row maxima, with the NaN and ``+inf`` check,
    come from a copy of the log-weights, and the pick reads the running
    sums of the chosen systems' weight rows through :func:`_pick_columns`,
    with the uniforms and indices of a row-major pick.  The row
    log-means stay ``np.sum`` over the row-major weights: its pairwise
    order pins ``log tau`` on every numpy version, and a sum down the
    slab would add in another order.  The systems read their row's
    ``alpha`` through a broadcast view (``tile``), and the state carries
    broadcast zeros and ones as its ``logw`` and ``w``.  A bad ``m_outer``
    or ``m_inner`` raises :class:`InvalidInputError`."""

    kind = "self-nested"

    def __init__(self, m_outer: int, m_inner: int):
        self.m = _check_count(m_outer, "m_outer")
        self.m_inner = _check_count(m_inner, "m_inner")

    def prepare(self, model, t, x_prev, y_t, rng):
        target = model.inner_target(t, x_prev, y_t)
        n = target.n_stages
        batch = target.batch_shape
        if len(batch) != 1:
            raise ValueError("self-nested procedures expect a 1-d particle batch")
        mo, mi = self.m, self.m_inner
        # Stage operations run on a (batch, mo)-shaped tiling of the
        # target, a broadcast view: one row per outer-stage system.
        tiled = target.tile(mo)
        particles = np.empty((n,) + batch + (mo,))
        ancestors = np.zeros((max(n - 1, 0),) + batch + (mo,), dtype=np.intp)
        log_tau = np.zeros(batch)
        # Flat index of the first (batch, mo) system of each batch row.
        row0 = np.arange(0, batch[0] * mo, mo)[:, None]
        # Candidate-major scratch: column r holds system r's candidates.
        slab = np.empty((mi, batch[0] * mo))
        for d in range(n):
            # Candidates: (*batch, mo, mi) from the stage proposal; the
            # previous component's unit axis broadcasts over them.
            prev = particles[d - 1][..., None] if d and target.markov_order else None
            cand, lw = tiled.propagate(d, prev, mi, rng)
            lw = lw.reshape(-1, mi)
            np.copyto(slab, lw.T)
            w, shift = _row_weights(lw, top=slab.max(axis=0)[:, None])
            # Row-major sums: np.sum's pairwise order pins log tau.
            stage_lw = _row_log_mean(w, shift).reshape(batch + (mo,))
            stage_w, stage_shift = _row_weights(stage_lw)
            log_tau = log_tau + _row_log_mean(stage_w, stage_shift)
            idx = _search_rows(stage_w, mo, rng)
            if d > 0:
                ancestors[d - 1] = idx
            rows = (row0 + idx).reshape(-1)
            pick = _pick_columns(_running_sums(w.take(rows, axis=0).T, slab), rng)
            particles[d] = cand.reshape(-1, mi)[rows, pick].reshape(batch + (mo,))
        shape = (n,) + batch + (mo,)
        state = InnerState(
            particles=particles,
            ancestors=ancestors,
            logw=np.broadcast_to(0.0, shape),
            w=np.broadcast_to(1.0, shape),
            log_tau=log_tau,
        )
        return _InnerSmcAux(target=target, state=state, kappa="backward")


#: Inner procedure name -> (constructor taking ``(m, **kwargs)``, the
#: experiment-config fields passed on as keyword arguments).  The exact
#: procedures take no ``m`` and are passed as instances.
PROCEDURES = {
    "smc+bs": (partial(InnerSmcProcedure, kappa="backward"), ("stage_proposal",)),
    "smc+empirical": (partial(InnerSmcProcedure, kappa="empirical"), ("stage_proposal",)),
    "is": (ImportanceProcedure, ()),
    "self-nested": (lambda m: SelfNestedProcedure(m, m), ()),
}


def make_procedure(kind: str, m: int, **kwargs) -> ProperWeightingProcedure:
    """Build a procedure from its name in :data:`PROCEDURES`."""
    if kind not in PROCEDURES:
        raise InvalidInputError(f"unknown procedure kind: {kind!r}")
    return PROCEDURES[kind][0](m, **kwargs)


# ---------------------------------------------------------------------------
# Outer algorithm
# ---------------------------------------------------------------------------


def nsmc_init(model, N: int) -> ParticleSystem:
    """Empty particle system before the first step; a bad ``N`` raises
    :class:`InvalidInputError`."""
    return _empty_system(_check_count(N, "N"), model.n_x)


def nsmc_step(
    system: ParticleSystem,
    model,
    proc: ProperWeightingProcedure,
    y_t: np.ndarray,
    rng: np.random.Generator,
) -> ParticleSystem:
    """One outer step of the fully-adapted-approximation algorithm: the
    ``("gamma-ratio", "tau")`` configuration of :func:`general_nsmc_step`,
    which resamples on ``tau``, accrues ``log((1/N) sum tau)`` and leaves
    uniform weights.  Non-uniform incoming weights, or a procedure
    weighted for the transition, raise :class:`InvalidInputError`.
    """
    if system.logw.size and np.any(system.logw != system.logw.flat[0]):
        raise InvalidInputError("outer weights must be uniform in fully adapted mode")
    return general_nsmc_step(system, model, proc, "gamma-ratio", "tau", y_t, rng)


def general_nsmc_step(
    system: ParticleSystem,
    model,
    proc: ProperWeightingProcedure,
    log_r,
    nu_hat,
    y_t: np.ndarray,
    rng: np.random.Generator,
) -> ParticleSystem:
    """One step of the general algorithm with adjustment multipliers.

    ``proc`` is properly weighted for the (unnormalized) proposal ``r_t``
    it names as ``proc.log_r``: ``"gamma-ratio"`` (the incremental target)
    or ``"transition"`` (the model transition).  ``log_r`` must restate
    it.  The weight cancellations either implies are carried out
    algebraically, so they hold exactly in floating point.
    ``nu_hat`` selects the adjustment multiplier: ``"tau"`` uses the
    procedure score and ``"one"`` constant multipliers.  Any other
    ``log_r`` or ``nu_hat``, or a non-Generator ``rng``, raises
    :class:`InvalidInputError`.  Ancestors are resampled
    proportionally to ``w_{t-1} * nu_hat``, and the carried weights are

    ``w_t = (gamma_t / gamma_{t-1}) * tau / (nu_hat * r_t)``,

    which collapses to uniform weights when ``r_t`` is the incremental
    target and ``nu_hat = tau`` (the fully adapted filter and
    :func:`nsmc_step`), and to the bootstrap filter when ``r_t = f`` with
    unit multipliers and exact transition draws.  With unit multipliers
    the first step's weights are stored normalized.  The normalizer
    accrues ``log (sum w_{t-1} nu_hat / sum w_{t-1}) + log ((1/N) sum w_t)``.

    With constant multipliers the resampling does not read the auxiliary
    variable, so the simulation runs after resampling and freshly
    selected ancestors get conditionally independent draws.  ``model`` is
    a model spec (a :class:`~nsmc.model.ModelBundle`).
    """
    if nu_hat not in ("tau", "one"):
        raise InvalidInputError(f"nu_hat must be 'tau' or 'one': {nu_hat!r}")
    if log_r != proc.log_r:
        raise InvalidInputError(
            f"log_r must be {proc.log_r!r} for {type(proc).__name__}, got {log_r!r}"
        )
    return _outer_step(system, model, proc, nu_hat, y_t, rng)[0]


def nsmc_run(
    model: ModelBundle,
    data: Dataset,
    N: int,
    M: int,
    proc: str | ProperWeightingProcedure,
    rng: np.random.Generator,
) -> FilterOutput:
    """Run :func:`general_nsmc_step` with ``tau`` multipliers over a whole
    dataset, for the proposal the procedure names (:func:`nsmc_step` for a
    ``"gamma-ratio"`` one).  ``proc`` is a procedure instance or an inner
    kind of :data:`PROCEDURES` (``M`` is ignored for an instance).  Emits
    per-step filtering summaries, the effective sample size of the ``tau``
    scores and the normalizer increments.  A bad ``N``, ``M``, ``proc``
    name or ``rng`` raises :class:`InvalidInputError`.
    """
    if isinstance(proc, str):
        proc = make_procedure(proc, M)
    return _outer_run(f"nsmc-{proc.kind}", make_model(model), proc, "tau", data, N, rng, True)


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
    x_prev = np.asarray(x_prev, dtype=float)
    tiled = np.broadcast_to(x_prev, (n_reps,) + x_prev.shape)
    aux = proc.prepare(spec, t, tiled, y_t, rng)
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
        # Constants by equality: the std of equal floats need not be 0.
        se = 0.0 if np.all(prods == prods[0]) else prods.std(ddof=1) / np.sqrt(n_reps)
        if se == 0.0:
            # Zero-variance procedures: agreement up to the dense
            # oracle's own round-off counts as an exact pass.
            z = 0.0 if np.isclose(est, truth, rtol=1e-9, atol=0.0) else np.inf
        else:
            z = (est - truth) / se
        out[name] = (float(est), float(truth), float(z))
    return out
