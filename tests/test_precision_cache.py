"""The chain factorization and the noise covariance are computed once per
precision, and far-out observations fail cleanly instead of leaking
floating-point warnings."""

import warnings

import numpy as np
import pytest
from scipy.linalg import solveh_banded

from nsmc.exceptions import InvalidInputError
from nsmc.exact import kalman_run
from nsmc.model import (
    Dataset,
    StssmSpec,
    TridiagPrecision,
    chain_factorization,
    chain_precision,
    make_model,
)


@pytest.mark.parametrize("n", [1, 2, 9])
def test_stored_factorization_matches_a_fresh_one(n):
    prec = chain_precision(1.3, 0.7, n)
    fresh = chain_factorization(prec)
    np.testing.assert_array_equal(prec.fact.c, fresh.c)
    np.testing.assert_array_equal(prec.fact.phi, fresh.phi)
    assert not prec.fact.c.flags.writeable and not prec.fact.phi.flags.writeable


@pytest.mark.parametrize("n", [1, 2, 9])
def test_covariance_is_memoised_and_read_only(n):
    prec = TridiagPrecision(
        diag=np.linspace(2.0, 3.0, n), offdiag=np.linspace(-0.5, -0.9, n - 1)
    )
    cov = prec.covariance()
    if n == 1:
        fresh = np.array([[1.0 / prec.diag[0]]])
    else:
        ab = np.zeros((2, n))
        ab[0, 1:] = prec.offdiag
        ab[1] = prec.diag
        fresh = solveh_banded(ab, np.eye(n))
        fresh = 0.5 * (fresh + fresh.T)
    np.testing.assert_array_equal(cov, fresh)
    assert prec.covariance() is cov
    with pytest.raises(ValueError):
        cov[0, 0] = 0.0


def test_kalman_rejects_an_impossible_observation():
    spec = StssmSpec.chain(n_x=1, tau=1.0, lam=0.0, obs_var=1e-12)
    data = Dataset(T=2, observations=np.full((2, 1), 1e200))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(InvalidInputError):
            kalman_run(spec, data)


def test_overflowing_residual_gives_minus_inf_quietly():
    model = make_model(StssmSpec.chain(n_x=2, tau=1.0, lam=0.5, obs_var=1e-12))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        out = model.log_obs(np.full(2, 1e200), np.zeros((3, 2)))
    np.testing.assert_array_equal(out, np.full(3, -np.inf))
