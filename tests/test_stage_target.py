"""The independent model runs the stage proposal it is given, and with
the optimal proposal its inner estimate is the exact predictive density."""

import numpy as np
import pytest

from nsmc.model import IndependentSsmSpec, make_model
from nsmc.nested import inner_smc

SPEC = IndependentSsmSpec(
    n_x=6, a_coef=0.6, init_mean=0.8, init_var=1.7, trans_var=0.9, obs_var=0.4
)


@pytest.mark.parametrize("t", [1, 2])
def test_independent_optimal_proposal_is_exact(t):
    rng = np.random.default_rng(3)
    x_prev = rng.standard_normal((4, SPEC.n_x))
    y = rng.standard_normal(SPEC.n_x)
    if t == 1:
        mean, var = np.full_like(x_prev, SPEC.init_mean), SPEC.init_var
    else:
        mean, var = SPEC.a_coef * x_prev, SPEC.trans_var
    s = var + SPEC.obs_var
    exact = np.sum(-0.5 * ((y - mean) ** 2 / s + np.log(2.0 * np.pi * s)), axis=-1)

    target = make_model(SPEC).inner_target(t, x_prev, y, "optimal")
    state = inner_smc(target, 5, np.random.default_rng(4))
    np.testing.assert_allclose(state.log_tau, exact, rtol=0.0, atol=1e-12)
    # Every stage weight is the draw-free predictive density, so each
    # row's weights are bitwise equal and all draws are equal-weight.
    assert np.all(np.ptp(state.logw, axis=-1) == 0.0)
