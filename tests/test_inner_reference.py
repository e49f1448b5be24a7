"""Pins the random stream and the bits of the inner SMC at Markov order 1
against a plain reference: the stage loop, backward simulation, the
empirical draw and the nested filter written with ``_row_weights``, a
per-row ``np.searchsorted``, ``take_along_axis`` and an eager take of
the inner state.  At Markov order 0 the same reference runs stage by
stage, never resampling, against the library's one whole pass.  Also
checks that every auxiliary object's draw at the rows outer resampling
chose equals the draw of an eagerly indexed copy."""

import dataclasses

import numpy as np
import pytest

from nsmc.exact import FfbsCache
from nsmc.exceptions import InnerCollapseError
from nsmc.model import IndependentSsmSpec, StssmSpec, make_model, simulate
from nsmc.nested import (
    STAGE_PROPOSALS,
    ExactFfbsProcedure,
    ExactTransitionProcedure,
    GaussianStageTarget,
    InnerSmcProcedure,
    InnerState,
    _ImportanceAux,
    _InnerSmcAux,
    backward_simulate,
    empirical_draw,
    inner_smc,
    make_procedure,
    nsmc_run,
)
from nsmc.smc import _categorical_rows, _pick_rows, _row_logmeanexp, _row_weights

SPEC = StssmSpec.chain(n_x=6, tau=1.0, lam=0.8, obs_var=0.25, a_coef=0.5)
INDEP_SPEC = IndependentSsmSpec(n_x=6, a_coef=0.5, init_mean=0.3, obs_var=0.4)
M_GRID = [1, 2, 3, 16, 17, 20]
BATCH = 7


def _reference_multinomial_rows(logw, count, rng):
    """``count`` draws per row: a per-row ``searchsorted`` on the
    normalized cumulative weights; a row of zeros gives the last index."""
    cum = np.cumsum(_row_weights(logw)[0], axis=-1)
    p = cum / np.where(cum[..., -1:] > 0.0, cum[..., -1:], 1.0)
    p[..., -1] = 1.0
    u = rng.random(logw.shape[:-1] + (count,))
    rows = zip(p.reshape(-1, p.shape[-1]), u.reshape(-1, count))
    idx = [np.searchsorted(p_row, u_row, side="right") for p_row, u_row in rows]
    return np.array(idx, dtype=np.intp).reshape(u.shape)


def _reference_inner_smc(target, m, rng, strict=False):
    """Stage by stage; at Markov order 0 no stage resamples and every
    ``propagate`` call gets ``None``."""
    n, batch = target.n_stages, target.batch_shape
    resampled = n - 1 if target.markov_order else 0
    particles = np.empty((n,) + batch + (m,))
    ancestors = np.zeros((resampled,) + batch + (m,), dtype=np.intp)
    logw = np.empty((n,) + batch + (m,))
    dead = np.zeros(batch, dtype=bool)
    for d in range(n):
        prev = None
        if d and resampled:
            resample_lw = np.where(dead[..., None], 0.0, logw[d - 1])
            ancestors[d - 1] = _reference_multinomial_rows(resample_lw, m, rng)
            prev = np.take_along_axis(particles[d - 1], ancestors[d - 1], axis=-1)
        particles[d], logw[d] = target.propagate(d, prev, m, rng)
        _row_weights(logw[d])  # a NaN or +inf raises before a collapse
        stage_dead = np.isneginf(np.max(logw[d], axis=-1))
        if strict and np.any(stage_dead):
            raise InnerCollapseError(stage=d + 1)
        dead = dead | stage_dead
    log_tau = np.sum(_row_logmeanexp(logw), axis=0)
    return InnerState(particles, ancestors, logw, _row_weights(logw)[0], log_tau)


def _take_state(state, idx):
    """Eager outer resampling: every field of ``state`` copied at the
    batch rows ``idx``."""
    return InnerState(
        state.particles[:, idx], state.ancestors[:, idx], state.logw[:, idx], state.w[:, idx],
        state.log_tau[idx],
    )


def _reference_backward(inner, target, rng):
    n = inner.n_stages
    out = np.empty(inner.particles.shape[1:-1] + (n,))
    j = _categorical_rows(inner.logw[n - 1], rng)
    out[..., n - 1] = np.take_along_axis(inner.particles[n - 1], j[..., None], axis=-1)[..., 0]
    for d in range(n - 2, -1, -1):
        lbw = inner.logw[d] + target.log_suffix_ratio(d, inner.particles[d], out[..., d + 1])
        j = _pick_rows(_row_weights(lbw)[0], rng)
        out[..., d] = np.take_along_axis(inner.particles[d], j[..., None], axis=-1)[..., 0]
    return out


def _reference_empirical(inner, rng):
    n = inner.n_stages
    out = np.empty(inner.particles.shape[1:-1] + (n,))
    j = _categorical_rows(inner.logw[n - 1], rng)
    for d in range(n - 1, -1, -1):
        out[..., d] = np.take_along_axis(inner.particles[d], j[..., None], axis=-1)[..., 0]
        if d > 0:
            j = np.take_along_axis(inner.ancestors[d - 1], j[..., None], axis=-1)[..., 0]
    return out


@dataclasses.dataclass(frozen=True)
class _ReferenceAux:
    """Auxiliary object whose outer resampling copies the inner state."""

    target: GaussianStageTarget
    state: InnerState
    kappa: str

    @property
    def log_tau(self):
        return self.state.log_tau

    def draw(self, rng, rows=None):
        if rows is not None:
            taken = _ReferenceAux(self.target.take(rows), _take_state(self.state, rows), self.kappa)
            return taken.draw(rng)
        # At Markov order 0 an ancestor is a fresh draw from its stage's
        # weights: the empirical draw is the backward one.
        if self.kappa == "backward" or not self.target.markov_order:
            return _reference_backward(self.state, self.target, rng)
        return _reference_empirical(self.state, rng)


class _ReferenceProcedure(InnerSmcProcedure):
    def prepare(self, model, t, x_prev, y_t, rng):
        target = model.inner_target(t, x_prev, y_t, self.stage_proposal)
        return _ReferenceAux(target, _reference_inner_smc(target, self.m, rng), self.kappa)


class _EditedTarget(GaussianStageTarget):
    """A stage law whose stage-``d`` log-weights ``edit(d, lw)`` changes
    in place, stage by stage or, when ``d`` is None (the whole pass of an
    order-0 target), in every stage of the block."""

    def propagate(self, d, prev, m, rng):
        x, lw = super().propagate(d, prev, m, rng)
        lw = np.array(lw)
        for e, stage in enumerate(lw) if d is None else [(d, lw)]:
            self.edit(e, stage)
        return x, lw


class _DyingTarget(_EditedTarget):
    """Vanishing weights: at stage 1 the first particle of every row, at
    stage 2 all of batch row 1, at stage 3 all but the last particle of
    batch row 3."""

    def edit(self, d, lw):
        if d == 1:
            lw[:, 0] = -np.inf
        if d == 2:
            lw[1] = -np.inf
        if d == 3:
            lw[3, :-1] = -np.inf


class _NanAndDeadTarget(_EditedTarget):
    """One NaN log-weight, in batch row 0, at stage ``nan_stage``, and a
    collapsed batch row 2 at stage ``dead_stage``."""

    nan_stage = dead_stage = None

    def edit(self, d, lw):
        if d == self.nan_stage:
            lw[0, -1] = np.nan
        if d == self.dead_stage:
            lw[2] = -np.inf


def _inputs(seed=3, n_x=SPEC.n_x):
    rng = np.random.default_rng(seed)
    return rng.standard_normal((BATCH, n_x)), np.linspace(-0.5, 1.0, n_x)


def _target(proposal, cls=GaussianStageTarget, order=1):
    x_prev, y = _inputs()
    spec = SPEC if order else INDEP_SPEC
    base = make_model(spec).inner_target(2, x_prev, y, proposal)
    return cls(base.alpha, base.phi, base.c, base.var, y, base.obs_var, proposal)


def _assert_states_equal(state, ref):
    for field in ("particles", "ancestors", "logw", "w", "log_tau"):
        np.testing.assert_array_equal(getattr(state, field), getattr(ref, field))


@pytest.mark.parametrize("m", M_GRID)
@pytest.mark.parametrize("proposal", STAGE_PROPOSALS)
@pytest.mark.parametrize("cls", [GaussianStageTarget, _DyingTarget], ids=["live", "dying"])
def test_inner_smc_and_draws_match_the_reference(cls, proposal, m):
    target = _target(proposal, cls)
    state = inner_smc(target, m, np.random.default_rng(5), strict=False)
    ref = _reference_inner_smc(target, m, np.random.default_rng(5))
    _assert_states_equal(state, ref)
    if cls is _DyingTarget:
        # One particle per row leaves no survivor of stage 1.
        assert np.isneginf(state.log_tau[1])
        assert np.all(np.isfinite(np.delete(state.log_tau, 1))) == (m > 1)
    np.testing.assert_array_equal(
        backward_simulate(state, target, np.random.default_rng(6), strict=False),
        _reference_backward(ref, target, np.random.default_rng(6)),
    )
    np.testing.assert_array_equal(
        empirical_draw(state, np.random.default_rng(7)),
        _reference_empirical(ref, np.random.default_rng(7)),
    )


@pytest.mark.parametrize("proposal", STAGE_PROPOSALS)
def test_strict_mode_collapses_at_the_reference_stage(proposal):
    target = _target(proposal, _DyingTarget)
    with pytest.raises(InnerCollapseError) as err:
        inner_smc(target, 4, np.random.default_rng(5), strict=True)
    with pytest.raises(InnerCollapseError) as ref_err:
        _reference_inner_smc(target, 4, np.random.default_rng(5), strict=True)
    assert err.value.stage == ref_err.value.stage == 3


@pytest.mark.parametrize("m", M_GRID)
@pytest.mark.parametrize("proposal", STAGE_PROPOSALS)
@pytest.mark.parametrize("kappa", ["backward", "empirical"])
def test_nested_filter_matches_the_reference(kappa, proposal, m):
    data = simulate(SPEC, 3, seed=8)
    out = nsmc_run(SPEC, data, 12, m, InnerSmcProcedure(m, kappa, proposal), np.random.default_rng(9))
    ref = nsmc_run(SPEC, data, 12, m, _ReferenceProcedure(m, kappa, proposal), np.random.default_rng(9))
    for field in ("method", "filter_means", "filter_vars", "logz_increments", "ess_trace"):
        np.testing.assert_array_equal(getattr(out, field), getattr(ref, field))


@pytest.mark.parametrize("m", M_GRID)
@pytest.mark.parametrize("proposal", STAGE_PROPOSALS)
@pytest.mark.parametrize("cls", [GaussianStageTarget, _DyingTarget], ids=["live", "dying"])
def test_order_zero_whole_pass_and_draws_match_the_stage_loop(cls, proposal, m):
    target = _target(proposal, cls, order=0)
    state = inner_smc(target, m, np.random.default_rng(5), strict=False)
    ref = _reference_inner_smc(target, m, np.random.default_rng(5))
    _assert_states_equal(state, ref)
    assert state.ancestors.shape == (0, BATCH, m)
    if cls is _DyingTarget:
        assert np.isneginf(state.log_tau[1])
        assert np.all(np.isfinite(np.delete(state.log_tau, 1))) == (m > 1)
    # Both draws pick each component from its own stage's weights: the
    # backward reference, whose suffix ratios are all zero.
    want = _reference_backward(ref, target, np.random.default_rng(6))
    for kappa in ("backward", "empirical"):
        x = _InnerSmcAux(target, state, kappa).draw(np.random.default_rng(6))
        np.testing.assert_array_equal(x, want)
    np.testing.assert_array_equal(empirical_draw(state, np.random.default_rng(6)), want)


@pytest.mark.parametrize("proposal", STAGE_PROPOSALS)
def test_order_zero_strict_mode_collapses_at_the_reference_stage(proposal):
    target = _target(proposal, _DyingTarget, order=0)
    with pytest.raises(InnerCollapseError) as err:
        inner_smc(target, 4, np.random.default_rng(5), strict=True)
    with pytest.raises(InnerCollapseError) as ref_err:
        _reference_inner_smc(target, 4, np.random.default_rng(5), strict=True)
    assert err.value.stage == ref_err.value.stage == 3


@pytest.mark.parametrize("strict", [True, False], ids=["strict", "batched"])
@pytest.mark.parametrize("nan_stage,dead_stage", [(3, 1), (1, 3), (2, 2)])
def test_order_zero_first_failing_stage_raises_nan_before_collapse(nan_stage, dead_stage, strict):
    # The whole pass raises what the stage loop raises first: within a
    # stage a NaN before a collapse, and a collapse only when strict.
    target = _target("prior", _NanAndDeadTarget, order=0)
    target.nan_stage, target.dead_stage = nan_stage, dead_stage
    collapse_first = strict and dead_stage < nan_stage
    for run in (inner_smc, _reference_inner_smc):
        if collapse_first:
            with pytest.raises(InnerCollapseError) as err:
                run(target, 4, np.random.default_rng(5), strict=strict)
            assert err.value.stage == dead_stage + 1
        else:
            with pytest.raises(ValueError, match="NaN"):
                run(target, 4, np.random.default_rng(5), strict=strict)


@pytest.mark.parametrize("m", M_GRID)
@pytest.mark.parametrize("proposal", STAGE_PROPOSALS)
@pytest.mark.parametrize("kappa", ["backward", "empirical"])
def test_order_zero_nested_filter_matches_the_reference(kappa, proposal, m):
    data = simulate(INDEP_SPEC, 3, seed=8)
    out = nsmc_run(
        INDEP_SPEC, data, 12, m, InnerSmcProcedure(m, kappa, proposal), np.random.default_rng(9)
    )
    ref = nsmc_run(
        INDEP_SPEC, data, 12, m, _ReferenceProcedure(m, kappa, proposal), np.random.default_rng(9)
    )
    for field in ("method", "filter_means", "filter_vars", "logz_increments", "ess_trace"):
        np.testing.assert_array_equal(getattr(out, field), getattr(ref, field))


DRAW_MODELS = {
    "order-1": StssmSpec.chain(n_x=5, tau=1.0, lam=0.8, obs_var=0.25),
    "order-0": IndependentSsmSpec(n_x=5, a_coef=0.5, init_mean=0.3, obs_var=0.4),
}
EXACT_PROCEDURES = {"exact-ffbs": ExactFfbsProcedure, "exact-transition": ExactTransitionProcedure}
DRAW_CASES = [
    ("exact-ffbs", "order-1"),
    ("exact-transition", "order-1"),
    ("exact-transition", "order-0"),
    ("is", "order-1"),
    ("is", "order-0"),
] + [(kind, case) for kind in ("smc+bs", "smc+empirical") for case in ("order-1", "order-0")]


def _eager(aux, rows):
    """``aux`` with every batch field copied at ``rows``."""
    if isinstance(aux, _InnerSmcAux):
        return dataclasses.replace(
            aux, target=aux.target.take(rows), state=_take_state(aux.state, rows)
        )
    if isinstance(aux, FfbsCache):
        return dataclasses.replace(
            aux, v_mean=aux.v_mean[rows], log_nu=aux.log_nu[rows], x_prev=aux.x_prev[rows]
        )
    if isinstance(aux, _ImportanceAux):
        return _ImportanceAux(aux.candidates[rows], aux.logw[rows], aux.log_tau[rows])
    return dataclasses.replace(aux, x_prev=aux.x_prev[rows])


@pytest.mark.parametrize("kind,case", DRAW_CASES)
def test_draw_at_rows_equals_the_draw_of_an_eager_copy(kind, case):
    spec = DRAW_MODELS[case]
    x_prev, y = _inputs(n_x=spec.n_x)
    proc = EXACT_PROCEDURES[kind]() if kind in EXACT_PROCEDURES else make_procedure(kind, 4)
    aux = proc.prepare(spec, 2, x_prev, y, np.random.default_rng(10))
    rows = np.array([3, 3, 0, 6, 1, 5, 3, 2])
    x = aux.draw(np.random.default_rng(12), rows)
    np.testing.assert_array_equal(x, _eager(aux, rows).draw(np.random.default_rng(12)))
    assert x.shape == (rows.size, spec.n_x) and x.flags.c_contiguous
    if kind.startswith("smc") and case == "order-1":
        ref = _ReferenceAux(aux.target, aux.state, aux.kappa)
        np.testing.assert_array_equal(x, ref.draw(np.random.default_rng(12), rows))


@pytest.mark.parametrize("proposal", STAGE_PROPOSALS)
def test_backward_simulate_takes_the_target_at_its_rows(proposal):
    # backward_simulate gets the target the state was run on and takes it
    # at ``rows`` itself.  Far-apart rows make a target read at the wrong
    # rows move the backward weights, so a permutation of the whole batch
    # shows it.
    x_prev, y = _inputs()
    target = make_model(SPEC).inner_target(2, 3.0 * x_prev, y, proposal)
    state = inner_smc(target, 5, np.random.default_rng(14), strict=False)
    rows = np.random.default_rng(15).permutation(BATCH)
    x = backward_simulate(state, target, np.random.default_rng(16), strict=False, rows=rows)
    want = backward_simulate(
        _take_state(state, rows), target.take(rows), np.random.default_rng(16), strict=False
    )
    np.testing.assert_array_equal(x, want)


def test_backward_simulate_reads_rows_of_the_flattened_batch():
    # ``rows`` indexes the flattened batch, for the state and the target
    # alike, so a (2, 3) batch draws as its flattened (6,) twin.
    x_prev = 3.0 * np.random.default_rng(17).standard_normal((2, 3, SPEC.n_x))
    target = make_model(SPEC).inner_target(2, x_prev, np.zeros(SPEC.n_x))
    state = inner_smc(target, 5, np.random.default_rng(18), strict=False)
    flat_target = make_model(SPEC).inner_target(2, x_prev.reshape(6, -1), np.zeros(SPEC.n_x))
    stages = (state.particles, state.ancestors, state.logw, state.w)
    flat_state = InnerState(
        *(a.reshape((a.shape[0], 6, -1)) for a in stages), state.log_tau.reshape(6)
    )
    rows = np.array([5, 0, 4, 4])
    x = backward_simulate(state, target, np.random.default_rng(19), strict=False, rows=rows)
    want = backward_simulate(
        flat_state, flat_target, np.random.default_rng(19), strict=False, rows=rows
    )
    np.testing.assert_array_equal(x, want)
