"""Property tests for the log-weight primitives, plus the exact per-row
resolution of ``_multinomial_rows`` and the rejection of NaN rows."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from nsmc.exceptions import WeightCollapseError
from nsmc.smc import _categorical_rows, _multinomial_rows, normalize_logweights

PROPERTY = settings(derandomize=True, deadline=None, max_examples=200)

#: Log-weights in a range where exp(logw - max) does not underflow to 0
#: for a finite entry, with some entries forced to -inf.
entries = st.one_of(st.floats(-30.0, 30.0), st.just(-np.inf))
seeds = st.integers(0, 2**32 - 1)


def weight_rows(max_rows=6, max_m=8):
    return st.tuples(
        st.integers(1, max_rows), st.integers(1, max_m)
    ).flatmap(lambda shape: arrays(float, shape, elements=entries))


def _assert_no_dead_draws(logw, idx):
    """No index lands on a -inf entry of a row that has a finite one."""
    live = np.isfinite(np.max(logw, axis=-1))
    picked = np.take_along_axis(logw, idx.reshape(logw.shape[0], -1), axis=-1)
    assert np.all(np.isfinite(picked[live]))


@PROPERTY
@given(logw=arrays(float, st.integers(1, 12), elements=entries))
def test_normalize_logweights_zero_weight_for_minus_inf(logw):
    if not np.isfinite(np.max(logw)):
        with pytest.raises(WeightCollapseError):
            normalize_logweights(logw)
        return
    probs, log_mean = normalize_logweights(logw)
    assert probs.shape == logw.shape
    assert np.all(probs[np.isneginf(logw)] == 0.0)
    assert np.all(probs[np.isfinite(logw)] > 0.0)
    assert np.isclose(probs.sum(), 1.0, rtol=0.0, atol=1e-12)
    assert np.isfinite(log_mean)


@PROPERTY
@given(
    logw=arrays(float, st.integers(1, 12), elements=entries), pos=st.integers(0, 11)
)
def test_normalize_logweights_rejects_nan(logw, pos):
    logw[pos % logw.size] = np.nan
    with pytest.raises(ValueError):
        normalize_logweights(logw)


@PROPERTY
@given(logw=weight_rows(), seed=seeds)
def test_categorical_rows_draws_live_indices(logw, seed):
    idx = _categorical_rows(logw, np.random.default_rng(seed))
    m = logw.shape[-1]
    assert idx.shape == logw.shape[:-1]
    assert np.all((idx >= 0) & (idx < m))
    _assert_no_dead_draws(logw, idx)
    dead = ~np.isfinite(np.max(logw, axis=-1))
    assert np.all(idx[dead] == m - 1)


@PROPERTY
@given(logw=weight_rows(), count=st.integers(1, 7), seed=seeds)
def test_multinomial_rows_draws_live_indices(logw, count, seed):
    idx = _multinomial_rows(logw, count, np.random.default_rng(seed))
    assert idx.shape == logw.shape[:-1] + (count,)
    assert np.all((idx >= 0) & (idx < logw.shape[-1]))
    _assert_no_dead_draws(logw, idx)


@PROPERTY
@given(
    logw=arrays(
        float,
        st.tuples(st.integers(1, 3), st.integers(1, 3), st.integers(1, 5)),
        elements=entries,
    ),
    count=st.integers(1, 4),
    seed=seeds,
)
def test_multinomial_rows_keeps_batch_shape(logw, count, seed):
    idx = _multinomial_rows(logw, count, np.random.default_rng(seed))
    assert idx.shape == logw.shape[:-1] + (count,)
    assert np.all((idx >= 0) & (idx < logw.shape[-1]))
    _assert_no_dead_draws(logw.reshape(-1, logw.shape[-1]), idx.reshape(-1, count))


@PROPERTY
@given(logw=weight_rows(), row=st.integers(0, 5), col=st.integers(0, 7))
def test_row_samplers_reject_nan(logw, row, col):
    logw[row % logw.shape[0], col % logw.shape[1]] = np.nan
    with pytest.raises(ValueError, match="NaN"):
        _categorical_rows(logw, np.random.default_rng(0))
    with pytest.raises(ValueError, match="NaN"):
        _multinomial_rows(logw, 3, np.random.default_rng(0))


def test_row_samplers_reject_nan_rows():
    logw = np.array([[0.0, np.nan, 1.0], [np.nan, np.nan, np.nan]])
    with pytest.raises(ValueError, match="NaN"):
        _categorical_rows(logw, np.random.default_rng(0))
    with pytest.raises(ValueError, match="NaN"):
        _multinomial_rows(logw, 3, np.random.default_rng(0))


class _ConstantUniforms:
    """Stands in for a generator whose every uniform equals ``u``."""

    def __init__(self, u):
        self.u = u

    def random(self, shape):
        return np.full(shape, self.u)


def test_multinomial_rows_resolution_does_not_depend_on_row():
    # p = [0.5, 1] on every row and a uniform just below 0.5: index 0 is
    # the exact draw on every row, however many rows there are.
    logw = np.zeros((4096, 2))
    idx = _multinomial_rows(logw, 3, _ConstantUniforms(0.5 - 1e-13))
    assert np.all(idx == 0)
