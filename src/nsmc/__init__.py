"""Nested sequential Monte Carlo for high-dimensional filtering.

A numpy library for sequential Bayesian inference in
spatio-temporal state-space models, built around three layers: exact
inference for the tractable chain-noise linear-Gaussian case (Kalman
filter, the exact locally optimal conditional, fully adapted particle
filter), a generic SMC engine (bootstrap baseline, log-domain weights,
multinomial resampling), and the nested filter whose
inner Monte Carlo procedures produce properly weighted samples from the
locally optimal proposal.  An asymptotic-variance calculator quantifies
the inner/outer particle trade-off on independent product models.
"""

from .exceptions import (
    InnerCollapseError,
    InvalidInputError,
    NotPositiveDefiniteError,
    NsmcError,
    WeightCollapseError,
)
from .model import (
    Dataset,
    IndependentSsmSpec,
    StssmSpec,
    TridiagPrecision,
    chain_precision,
    load_dataset,
    make_model,
    sample_gmrf_chain,
    save_dataset,
    simulate,
)
from .smc import (
    FilterOutput,
    ParticleSystem,
    bootstrap_pf,
    ess,
    multinomial_resample,
    normalize_logweights,
)
from .exact import (
    FfbsCache,
    KalmanBelief,
    fapf_run,
    ffbs_backward,
    ffbs_forward,
    kalman_init,
    kalman_run,
    kalman_step,
)
from .nested import (
    ExactFfbsProcedure,
    ExactTransitionProcedure,
    ImportanceProcedure,
    InnerSmcProcedure,
    InnerState,
    SelfNestedProcedure,
    backward_simulate,
    empirical_draw,
    general_nsmc_step,
    inner_smc,
    make_procedure,
    nsmc_init,
    nsmc_run,
    nsmc_step,
    proper_weighting_check,
)
from .asymptotics import (
    VarianceConstants,
    compute_constants,
    sigma_fa,
    sigma_nsmc,
    variance_curve,
)

__version__ = "0.1.0"
