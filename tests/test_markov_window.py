"""The inner samplers hand a stage target's ``propagate`` only the
resampled previous component, and only when its Markov order is 1."""

import numpy as np
import pytest

from nsmc.model import IndependentSsmSpec, StssmSpec, make_model
from nsmc.nested import GaussianStageTarget, SelfNestedProcedure, inner_smc

N_X = 7
BATCH = 5
MODELS = {
    "chain": make_model(StssmSpec.chain(n_x=N_X, tau=1.0, lam=0.8, obs_var=0.3)),
    "independent": make_model(IndependentSsmSpec(n_x=N_X, a_coef=0.5, obs_var=0.5)),
}


class TargetModel:
    """Stands in for a model spec; ``make(t, x_prev, y_t, proposal)``
    builds its inner targets."""

    def __init__(self, make):
        self.make = make

    def inner_target(self, t, x_prev, y_t, proposal="prior"):
        return self.make(t, x_prev, y_t, proposal)


def _inputs(seed):
    rng = np.random.default_rng(seed)
    return rng.standard_normal((BATCH, N_X)), rng.standard_normal(N_X)


class Recording(GaussianStageTarget):
    """Records the previous component every ``propagate`` call receives."""

    def propagate(self, d, prev, m, rng):
        self.prevs.append(None if prev is None else prev.copy())
        return super().propagate(d, prev, m, rng)


@pytest.mark.parametrize("kind, order", [("chain", 1), ("independent", 0)])
def test_hooks_receive_only_the_markov_window(kind, order):
    prevs = []

    def make(t, x_prev, y_t, proposal):
        target = MODELS[kind].inner_target(t, x_prev, y_t, proposal)
        target.__class__ = Recording
        target.prevs = prevs  # ``take`` copies share the list
        return target

    model = TargetModel(make)
    x_prev, y = _inputs(6)
    m, mo, mi = 5, 4, 3
    state = inner_smc(model.inner_target(2, x_prev, y), m, np.random.default_rng(7))
    aux = SelfNestedProcedure(mo, mi).prepare(
        model, 2, x_prev, y, np.random.default_rng(9)
    )
    # The self-nested sampler makes one hook call per stage, and so does
    # inner_smc at order 1; at order 0 inner_smc makes one call for every
    # stage at once.  Stage 0 and every call at order 0 get None.
    smc_calls = N_X if order else 1
    assert len(prevs) == smc_calls + N_X
    smc_prevs, nested_prevs = prevs[:smc_calls], prevs[smc_calls:]
    assert smc_prevs[0] is None and nested_prevs[0] is None
    for d in range(1, N_X):
        if order == 0:
            assert nested_prevs[d] is None
            continue
        # inner_smc: the stage-(d-1) particles its stage-d resampling chose.
        np.testing.assert_array_equal(
            smc_prevs[d],
            np.take_along_axis(state.particles[d - 1], state.ancestors[d - 1], axis=-1),
        )
        assert smc_prevs[d].shape == (BATCH, m)
        # Self-nested: each system's stage-(d-1) pick, broadcast over
        # the candidate axis.
        np.testing.assert_array_equal(
            nested_prevs[d], aux.state.particles[d - 1][..., None]
        )
        assert nested_prevs[d].shape == (BATCH, mo, 1)
