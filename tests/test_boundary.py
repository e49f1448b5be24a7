"""Tests of the API boundary: every public entry point refuses a bad
count or generator with a named :class:`NsmcError`, specs read from a
dict go through the same rule, and valid but extreme models are not
refused."""

import itertools
import re
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from nsmc.asymptotics import compute_constants, sigma_fa, sigma_nsmc, variance_curve
from nsmc.exact import fapf_run, kalman_run
from nsmc.exceptions import (
    InvalidInputError,
    NotPositiveDefiniteError,
    NsmcError,
    WeightCollapseError,
)
from nsmc.model import (
    IndependentSsmSpec,
    StssmSpec,
    simulate,
)
from nsmc.nested import (
    ImportanceProcedure,
    InnerSmcProcedure,
    SelfNestedProcedure,
    general_nsmc_step,
    inner_smc,
    make_procedure,
    nsmc_init,
    nsmc_run,
    nsmc_step,
)
from nsmc.smc import bootstrap_pf

BOUNDARY = settings(derandomize=True, deadline=None, max_examples=40)

CHAIN = StssmSpec(n_x=3, tau=1.0, lam=1.0, obs_var=0.25)
DATA = simulate(CHAIN, 2, seed=1)
TARGET = CHAIN.inner_target(2, np.zeros((2, 3)), DATA.observations[0])
SCALAR = IndependentSsmSpec(n_x=1, a_coef=0.5)
CONSTS = compute_constants(SCALAR, 2)


def _rng():
    return np.random.default_rng(0)


#: Anything the count rule refuses: bools, every float, strings, None,
#: and integers below 1, Python and NumPy.  The test adds two integers
#: past ``np.intp``: 2**63, and 10**400, which no float holds.
bad_counts = st.one_of(
    st.booleans(),
    st.floats(allow_nan=True, allow_infinity=True),
    st.text(max_size=3),
    st.none(),
    st.integers(max_value=0),
    st.integers(-(2**31), 0).map(np.int64),
)

#: Anything but an ``np.random.Generator``.
bad_rngs = st.one_of(
    st.none(),
    st.integers(),
    st.integers(0, 2**32 - 1).map(np.random.RandomState),
)

#: (argument name, call with the bad value in that argument's place).
COUNT_CASES = {
    "bootstrap_pf-N": ("N", lambda v: bootstrap_pf(CHAIN, DATA, v, _rng())),
    "fapf_run-N": ("N", lambda v: fapf_run(CHAIN, DATA, v, _rng())),
    "nsmc_run-N": ("N", lambda v: nsmc_run(CHAIN, DATA, v, 3, "smc+bs", _rng())),
    # M reaches the named procedure's constructor as its ``m``.
    "nsmc_run-M": ("m", lambda v: nsmc_run(CHAIN, DATA, 5, v, "smc+bs", _rng())),
    "nsmc_init-N": ("N", lambda v: nsmc_init(CHAIN, v)),
    "make_procedure-smc+bs": ("m", lambda v: make_procedure("smc+bs", v)),
    "make_procedure-smc+empirical": (
        "m", lambda v: make_procedure("smc+empirical", v)
    ),
    "make_procedure-is": ("m", lambda v: make_procedure("is", v)),
    "make_procedure-self-nested": (
        "m_outer", lambda v: make_procedure("self-nested", v)
    ),
    "InnerSmcProcedure-m": ("m", lambda v: InnerSmcProcedure(v)),
    "ImportanceProcedure-m": ("m", lambda v: ImportanceProcedure(v)),
    "SelfNestedProcedure-m_outer": ("m_outer", lambda v: SelfNestedProcedure(v, 2)),
    "SelfNestedProcedure-m_inner": ("m_inner", lambda v: SelfNestedProcedure(2, v)),
    "inner_smc-m": ("m", lambda v: inner_smc(TARGET, v, _rng())),
    "StssmSpec-n_x": (
        "n_x", lambda v: StssmSpec(n_x=v, tau=1.0, lam=1.0, obs_var=0.25)
    ),
    "IndependentSsmSpec-n_x": (
        "n_x", lambda v: IndependentSsmSpec(n_x=v, a_coef=0.5)
    ),
    "simulate-T": ("T", lambda v: simulate(CHAIN, v, seed=1)),
    "compute_constants-t": ("t", lambda v: compute_constants(SCALAR, v)),
    "sigma_fa-n_x": ("n_x", lambda v: sigma_fa(CONSTS, v, 2)),
    "sigma_nsmc-n_x": ("n_x", lambda v: sigma_nsmc(CONSTS, v, 2, 4)),
    "sigma_nsmc-M": ("M", lambda v: sigma_nsmc(CONSTS, 2, 2, v)),
    "variance_curve-t": ("t", lambda v: variance_curve(SCALAR, v, 2, [2, 4])),
    "variance_curve-n_x": ("n_x", lambda v: variance_curve(SCALAR, 2, v, [2, 4])),
    "variance_curve-M": ("M", lambda v: variance_curve(SCALAR, 2, 2, [2, v])),
}

RNG_CASES = {
    "bootstrap_pf": lambda r: bootstrap_pf(CHAIN, DATA, 5, r),
    "fapf_run": lambda r: fapf_run(CHAIN, DATA, 5, r),
    "nsmc_run": lambda r: nsmc_run(CHAIN, DATA, 5, 3, "smc+bs", r),
    "general_nsmc_step": lambda r: general_nsmc_step(
        nsmc_init(CHAIN, 5), CHAIN, make_procedure("smc+bs", 3), "gamma-ratio", "tau",
        DATA.observations[0], r,
    ),
    "nsmc_step": lambda r: nsmc_step(
        nsmc_init(CHAIN, 5), CHAIN, make_procedure("smc+bs", 3), DATA.observations[0], r
    ),
}


def _assert_refused_by_name(call, value, name):
    with pytest.raises(NsmcError) as err:
        call(value)
    assert re.match(rf"{name} must be ", str(err.value)), str(err.value)


@pytest.mark.parametrize("name, call", COUNT_CASES.values(), ids=list(COUNT_CASES))
@BOUNDARY
@given(value=bad_counts)
@example(value=2**63)
@example(value=10**400)
def test_every_count_argument_is_refused_by_name(name, call, value):
    _assert_refused_by_name(call, value, name)


@pytest.mark.parametrize("call", RNG_CASES.values(), ids=list(RNG_CASES))
@BOUNDARY
@given(value=bad_rngs)
def test_every_runner_refuses_a_non_generator_rng(call, value):
    _assert_refused_by_name(call, value, "rng")


@pytest.mark.parametrize("kind", ["exact-ffbs", "exact-transition"])
def test_exact_procedures_are_not_selected_by_name(kind):
    # They take no M, so a name would let a bad M through unread.
    with pytest.raises(InvalidInputError, match="^unknown procedure kind"):
        nsmc_run(CHAIN, DATA, 5, 2.5, kind, _rng())


def test_numpy_integer_counts_give_the_python_integer_bits():
    as_int = nsmc_run(CHAIN, DATA, 6, 3, "smc+bs", _rng())
    as_numpy = nsmc_run(CHAIN, DATA, np.int64(6), np.int32(3), "smc+bs", _rng())
    for field in ("filter_means", "filter_vars", "logz_increments", "ess_trace"):
        np.testing.assert_array_equal(getattr(as_numpy, field), getattr(as_int, field))
    assert simulate(CHAIN, np.int64(2), seed=1).T == 2


def test_a_precision_singular_in_floating_point_is_both_error_kinds():
    with pytest.raises(NotPositiveDefiniteError) as err:
        StssmSpec(n_x=3, tau=1e-300, lam=1.0, obs_var=0.25)
    assert isinstance(err.value, InvalidInputError)
    assert isinstance(err.value, np.linalg.LinAlgError)
    assert "(pivot 1)" in str(err.value)


@pytest.mark.parametrize("n_x", [2.5, True], ids=["fraction", "bool"])
@pytest.mark.parametrize(
    "spec", [CHAIN, IndependentSsmSpec(n_x=3, a_coef=0.5)], ids=["stssm", "independent"]
)
def test_from_dict_passes_a_bad_n_x_to_the_spec(spec, n_x):
    with pytest.raises(InvalidInputError, match="^n_x must be a positive integer"):
        type(spec).from_dict({**spec.to_dict(), "n_x": n_x})


def test_from_dict_reads_an_integral_float_n_x():
    block = CHAIN.to_dict()
    spec = StssmSpec.from_dict({**block, "n_x": 3.0})
    assert spec == CHAIN and type(spec.n_x) is int


# ---------------------------------------------------------------------------
# Valid extreme models
# ---------------------------------------------------------------------------

#: Every filter configuration, as a call on (spec, data, rng).
FILTERS = {
    "kalman": lambda spec, data, rng: kalman_run(spec, data),
    "fapf": lambda spec, data, rng: fapf_run(spec, data, 20, rng),
    "bpf": lambda spec, data, rng: bootstrap_pf(spec, data, 100, rng),
    "smc+bs": lambda spec, data, rng: nsmc_run(spec, data, 20, 5, "smc+bs", rng),
    "smc+bs-optimal": lambda spec, data, rng: nsmc_run(
        spec, data, 20, 5, make_procedure("smc+bs", 5, stage_proposal="optimal"), rng
    ),
    "smc+empirical": lambda spec, data, rng: nsmc_run(
        spec, data, 20, 5, "smc+empirical", rng
    ),
    "is": lambda spec, data, rng: nsmc_run(spec, data, 20, 5, "is", rng),
    "self-nested": lambda spec, data, rng: nsmc_run(
        spec, data, 20, 3, "self-nested", rng
    ),
}

#: The extreme-parameter grid, tau x lambda x obs_var x a_coef: 81 models
#: at n_x = 6 and T = 4, 648 runs in all, about a second.
EXTREMES = list(
    itertools.product((1e-6, 1.0, 1e6), (0.0, 1.0, 1e6), (1e-8, 0.25, 1e8), (0.0, 0.99, 5.0))
)


@pytest.mark.parametrize("tau, lam, obs_var, a_coef", EXTREMES)
def test_valid_extreme_models_give_finite_outputs(tau, lam, obs_var, a_coef):
    """No check refuses a valid model: every filter's output is finite,
    or the run reports an outer weight collapse."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        spec = StssmSpec(n_x=6, tau=tau, lam=lam, obs_var=obs_var, a_coef=a_coef)
        data = simulate(spec, 4, seed=7)
        for k, (name, run) in enumerate(FILTERS.items()):
            try:
                out = run(spec, data, np.random.default_rng([7, k]))
            except WeightCollapseError:
                continue
            for field in ("filter_means", "filter_vars", "logz_increments"):
                assert np.all(np.isfinite(getattr(out, field))), (name, field)
