"""The precision's Markov factorization and its spectrum are computed
once per precision and agree with dense linear algebra, and far-out
observations fail cleanly instead of leaking floating-point warnings."""

import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from nsmc.exceptions import InvalidInputError
from nsmc.exact import kalman_run
from nsmc.model import (
    Dataset,
    StssmSpec,
    TridiagPrecision,
    chain_precision,
    make_model,
)


@pytest.mark.parametrize("n", [1, 2, 9])
def test_stored_factorization_matches_a_fresh_one(n):
    prec = chain_precision(1.3, 0.7, n)
    fresh = chain_precision(1.3, 0.7, n)
    np.testing.assert_array_equal(prec.c, fresh.c)
    np.testing.assert_array_equal(prec.phi, fresh.phi)
    np.testing.assert_array_equal(prec.cond_var, 1.0 / fresh.c)
    assert not prec.c.flags.writeable and not prec.phi.flags.writeable


@given(
    tau=st.floats(0.05, 5.0),
    lam=st.one_of(st.just(0.0), st.floats(0.0, 10.0)),
    n=st.integers(1, 12),
)
@example(tau=1e-3, lam=10.0, n=12)
@settings(derandomize=True, deadline=None, max_examples=100)
def test_chain_factorization_matches_dense_cholesky(tau, lam, n):
    # Q = L^T diag(c) L with L unit lower bidiagonal, L[d, d-1] = -phi_d,
    # so R = L^T diag(sqrt(c)) is the upper-triangular factor Q = R R^T
    # with a positive diagonal: the dense Cholesky of the reversed matrix,
    # reversed back.
    prec = chain_precision(tau, lam, n)
    q = prec.dense()
    r = np.linalg.cholesky(q[::-1, ::-1])[::-1, ::-1]
    np.testing.assert_allclose(prec.c, np.diag(r) ** 2, rtol=1e-10)
    phi = -np.diag(r, 1) / np.diag(r)[1:]
    np.testing.assert_allclose(prec.phi[1:], phi, rtol=1e-10, atol=1e-14)
    assert prec.phi[0] == 0.0


@pytest.mark.parametrize("n", [1, 2, 9])
def test_spectrum_is_memoised_and_read_only(n):
    prec = TridiagPrecision(
        diag=np.linspace(2.0, 3.0, n), offdiag=np.linspace(-0.5, -0.9, n - 1)
    )
    eigvals, basis = prec.spectrum()
    fresh_vals, fresh_basis = np.linalg.eigh(prec.dense())
    np.testing.assert_array_equal(eigvals, fresh_vals)
    np.testing.assert_array_equal(basis, fresh_basis)
    again = prec.spectrum()
    assert again[0] is eigvals and again[1] is basis
    for arr in (eigvals, basis):
        with pytest.raises(ValueError):
            arr[0] = 0.0


@pytest.mark.parametrize(
    "tau, lam, n", [(1.0, 0.0, 1), (1.0, 0.8, 10), (0.2, 3.0, 50), (1e-3, 10.0, 100)]
)
def test_spectrum_reconstructs_the_precision(tau, lam, n):
    prec = chain_precision(tau, lam, n)
    eigvals, basis = prec.spectrum()
    assert np.all(eigvals > 0.0) and np.all(np.diff(eigvals) >= 0.0)
    np.testing.assert_allclose(basis.T @ basis, np.eye(n), atol=1e-12)
    scale = eigvals[-1]
    np.testing.assert_allclose(
        (basis * eigvals) @ basis.T, prec.dense(), rtol=0.0, atol=1e-12 * scale
    )
    np.testing.assert_allclose(
        (basis / eigvals) @ basis.T, np.linalg.inv(prec.dense()), rtol=0.0,
        atol=1e-10 / eigvals[0],
    )


def test_spectrum_refuses_an_indefinite_matrix():
    # The constructor's factorization rejects such a matrix, so swap the
    # diagonal of a valid precision behind it.
    prec = chain_precision(1.0, 1.0, 3)
    object.__setattr__(prec, "diag", np.array([1.0, -1.0, 1.0]))
    with pytest.raises(np.linalg.LinAlgError):
        prec.spectrum()


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
