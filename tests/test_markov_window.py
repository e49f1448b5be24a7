"""The inner samplers carry only the prefix window a target's Markov
order asks for, and that changes no output bit."""

import numpy as np
import pytest

from nsmc.model import IndependentSsmSpec, StssmSpec, make_model
from nsmc.nested import (
    ChainInnerTarget,
    IndependentInnerTarget,
    InnerTargetSequence,
    SelfNestedProcedure,
    inner_smc,
)

N_X = 7
BATCH = 5
MODELS = {
    "chain": make_model(StssmSpec.chain(n_x=N_X, tau=1.0, lam=0.8, obs_var=0.3)),
    "independent": make_model(IndependentSsmSpec(n_x=N_X, a_coef=0.5, obs_var=0.5)),
}


class FullPrefix(InnerTargetSequence):
    """Delegates every hook to ``inner`` but declares no Markov order, so
    the samplers hand it the full prefix."""

    markov_order = None

    def __init__(self, inner):
        self.inner = inner
        self.n_stages = inner.n_stages
        self.batch_shape = inner.batch_shape

    def sample_stage(self, d, prefix, m, rng):
        return self.inner.sample_stage(d, prefix, m, rng)

    def log_stage_proposal(self, d, prefix, x_d):
        return self.inner.log_stage_proposal(d, prefix, x_d)

    def log_p(self, d, traj):
        return self.inner.log_p(d, traj)

    def log_p_increment(self, d, prefix, x_d):
        return self.inner.log_p_increment(d, prefix, x_d)

    def log_suffix_ratio(self, d, state, suffix):
        return self.inner.log_suffix_ratio(d, state, suffix)

    def take(self, idx):
        return FullPrefix(self.inner.take(idx))


class TargetModel:
    """Stands in for a model bundle; ``make(t, x_prev, y_t, proposal)``
    builds its inner targets."""

    def __init__(self, make):
        self.make = make

    def inner_target(self, t, x_prev, y_t, proposal="prior"):
        return self.make(t, x_prev, y_t, proposal)


def _inputs(seed):
    rng = np.random.default_rng(seed)
    return rng.standard_normal((BATCH, N_X)), rng.standard_normal(N_X)


def _assert_states_equal(a, b):
    for field in ("particles", "ancestors", "logw", "log_tau"):
        np.testing.assert_array_equal(getattr(a, field), getattr(b, field))


@pytest.mark.parametrize("t", [1, 2])
@pytest.mark.parametrize("strict", [True, False])
@pytest.mark.parametrize("kind", sorted(MODELS))
def test_inner_smc_window_is_bitwise_full_prefix(kind, strict, t):
    model = MODELS[kind]
    x_prev, y = _inputs(1)
    target = model.inner_target(t, x_prev, y)
    got = inner_smc(target, 6, np.random.default_rng(2), strict=strict)
    ref = inner_smc(FullPrefix(target), 6, np.random.default_rng(2), strict=strict)
    _assert_states_equal(got, ref)


@pytest.mark.parametrize("kind", sorted(MODELS))
def test_self_nested_window_is_bitwise_full_prefix(kind):
    model = MODELS[kind]
    x_prev, y = _inputs(3)
    proc = SelfNestedProcedure(4, 3)
    got = proc.prepare(model, 2, x_prev, y, np.random.default_rng(4))
    full = TargetModel(lambda *args: FullPrefix(model.inner_target(*args)))
    ref = proc.prepare(full, 2, x_prev, y, np.random.default_rng(4))
    _assert_states_equal(got.state, ref.state)
    np.testing.assert_array_equal(
        got.draw(np.random.default_rng(5)), ref.draw(np.random.default_rng(5))
    )


def _recording(cls):
    class Recording(cls):
        """Records the prefix length every windowed hook receives."""

        def sample_stage(self, d, prefix, m, rng):
            self.widths.append(prefix.shape[0])
            return super().sample_stage(d, prefix, m, rng)

        def log_stage_proposal(self, d, prefix, x_d):
            self.widths.append(prefix.shape[0])
            return super().log_stage_proposal(d, prefix, x_d)

        def log_p_increment(self, d, prefix, x_d):
            self.widths.append(prefix.shape[0])
            return super().log_p_increment(d, prefix, x_d)

    return Recording


@pytest.mark.parametrize(
    "kind, cls, order",
    [("chain", ChainInnerTarget, 1), ("independent", IndependentInnerTarget, 0)],
)
def test_hooks_receive_only_the_markov_window(kind, cls, order):
    recording = _recording(cls)
    widths = []

    def make(t, x_prev, y_t, proposal):
        target = recording(MODELS[kind].spec, x_prev, y_t, t=t)
        target.widths = widths  # ``take`` copies share the list
        return target

    model = TargetModel(make)
    x_prev, y = _inputs(6)
    inner_smc(model.inner_target(2, x_prev, y), 5, np.random.default_rng(7))
    SelfNestedProcedure(4, 3).prepare(model, 2, x_prev, y, np.random.default_rng(9))
    # Three hooks per stage, every stage, in both samplers.
    assert len(widths) == 2 * 3 * N_X
    assert max(widths) <= order
