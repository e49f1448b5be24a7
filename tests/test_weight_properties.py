"""Property tests for the log-weight primitives and outer resampling's
choice of live indices, plus the exact per-row
resolution of ``_search_rows`` on ``_row_weights``, its search against a per-row
``searchsorted``, the candidate-major pick ``_pick_columns`` against
``_pick_rows``, the rejection of NaN rows and chi-square frequency
tests of the row samplers."""

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from scipy.special import logsumexp
from scipy.stats import chisquare

from nsmc.exceptions import WeightCollapseError
from nsmc.model import StssmSpec
from nsmc.nested import GaussianStageTarget, inner_smc
from nsmc.smc import (
    _categorical_rows,
    _pick_columns,
    _pick_rows,
    _row_logmeanexp,
    _row_weights,
    _running_sums,
    _search_rows,
    multinomial_resample,
    normalize_logweights,
)

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
    idx = _search_rows(_row_weights(logw)[0], count, np.random.default_rng(seed))
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
    idx = _search_rows(_row_weights(logw)[0], count, np.random.default_rng(seed))
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
        _search_rows(_row_weights(logw)[0], 3, np.random.default_rng(0))


@PROPERTY
@given(logw=weight_rows())
def test_row_weights_and_log_mean(logw):
    w, shift = _row_weights(logw)
    live = np.isfinite(np.max(logw, axis=-1))
    assert w.shape == logw.shape and shift.shape == logw.shape[:-1] + (1,)
    assert np.all(np.max(w[live], axis=-1) == 1.0)
    assert np.all(w[~live] == 0.0)
    assert np.all(w[np.isneginf(logw)] == 0.0)
    lme = _row_logmeanexp(logw)
    assert np.all(np.isneginf(lme[~live]))
    expected = logsumexp(logw[live], axis=-1) - np.log(logw.shape[-1])
    np.testing.assert_allclose(lme[live], expected, rtol=1e-12, atol=1e-12)


@PROPERTY
@given(
    logw=weight_rows(),
    row=st.integers(0, 5),
    col=st.integers(0, 7),
    bad=st.sampled_from([np.nan, np.inf]),
)
def test_row_weights_reject_nan_and_plus_inf(logw, row, col, bad):
    # A NaN or +inf weight is an error, never a collapsed (-inf) row.
    logw[row % logw.shape[0], col % logw.shape[1]] = bad
    with pytest.raises(ValueError, match="NaN"):
        _row_weights(logw)
    with pytest.raises(ValueError, match="NaN"):
        _row_logmeanexp(logw)


class _NanStageTarget(GaussianStageTarget):
    """Chain stage law whose stage-1 weights hold one NaN in batch row 1."""

    def propagate(self, d, prev, m, rng):
        x, lw = super().propagate(d, prev, m, rng)
        if d == 1:
            lw[1, 0] = np.nan
        return x, lw


@pytest.mark.parametrize("strict", [True, False], ids=["strict", "batched"])
def test_inner_smc_rejects_nan_stage_weight(strict):
    spec = StssmSpec.chain(n_x=3, tau=1.0, lam=0.5, obs_var=0.25)
    prec = spec.noise_precision
    target = _NanStageTarget(
        np.zeros((2, 3)), prec.phi, prec.c, prec.cond_var, np.zeros(3), 0.25,
        "prior",
    )
    with pytest.raises(ValueError, match="NaN"):
        inner_smc(target, 4, np.random.default_rng(0), strict=strict)


def test_row_samplers_reject_nan_rows():
    logw = np.array([[0.0, np.nan, 1.0], [np.nan, np.nan, np.nan]])
    with pytest.raises(ValueError, match="NaN"):
        _categorical_rows(logw, np.random.default_rng(0))
    with pytest.raises(ValueError, match="NaN"):
        _search_rows(_row_weights(logw)[0], 3, np.random.default_rng(0))


#: Row widths 1-40, with every power of two up to 32 drawn as often as
#: any other width.
search_widths = st.one_of(st.integers(1, 40), st.sampled_from([1, 2, 4, 8, 16, 32]))


class _GivenUniforms:
    """Stands in for a generator whose uniforms are the array ``u``."""

    def __init__(self, u):
        self.u = u

    def random(self, shape):
        assert np.empty(shape).shape == self.u.shape
        return self.u


#: The largest uniform ``Generator.random`` can return, ``1 - 2**-53``.
U_MAX = np.nextafter(1.0, 0.0)


def test_multinomial_resample_skips_a_dead_tail_below_one():
    # The live mass sums to 1 - 2**-53 in floating point, so the largest
    # uniform lies above it; it must still pick the last live index.
    probs = np.array([0.3, 0.6, 0.1, 0.0])
    assert np.cumsum(probs)[-2] == U_MAX
    idx = multinomial_resample(probs, 1, _GivenUniforms(np.array([U_MAX])))
    assert idx.tolist() == [2]


@PROPERTY
@given(logw=arrays(float, st.integers(1, 12), elements=entries))
def test_multinomial_resample_draws_live_indices(logw):
    # Interior and trailing -inf weights, against the smallest, a middle
    # and the largest uniform.
    assume(np.isfinite(np.max(logw)))
    probs = normalize_logweights(logw)[0]
    u = np.array([0.0, 0.5, U_MAX])
    idx = multinomial_resample(probs, u.size, _GivenUniforms(u))
    assert np.all((idx >= 0) & (idx < logw.size))
    assert np.all(probs[idx] > 0.0)


@PROPERTY
@given(
    logw=st.tuples(st.integers(1, 6), search_widths).flatmap(
        lambda shape: arrays(float, shape, elements=entries)
    ),
    count=st.integers(1, 9),
    seed=seeds,
)
def test_search_rows_equals_per_row_searchsorted(logw, count, seed):
    # -inf entries give zero weights, and a row of them a row of zeros,
    # whose draws all take the last index.  About half the uniforms tie
    # with a normalized cumulative weight of their row (0.0 included),
    # where only a count of the weights not above u gives searchsorted's
    # side="right".
    w = _row_weights(logw)[0]
    cum = np.cumsum(w, axis=-1)
    total = cum[:, -1:]
    p = cum / np.where(total > 0.0, total, 1.0)
    rng = np.random.default_rng(seed)
    u = rng.random(logw.shape[:-1] + (count,))
    tied = np.take_along_axis(p, rng.integers(0, logw.shape[-1], u.shape), axis=-1)
    u = np.where((rng.random(u.shape) < 0.5) & (tied < 1.0), tied, u)
    idx = _search_rows(w, count, _GivenUniforms(u))
    assert idx.shape == u.shape and idx.dtype == np.intp
    for row, row_total in enumerate(total[:, 0]):
        if row_total == 0.0:
            assert np.all(idx[row] == logw.shape[-1] - 1)
        else:
            expected = np.searchsorted(cum[row] / row_total, u[row], side="right")
            np.testing.assert_array_equal(idx[row], expected)


@PROPERTY
@given(
    logw=st.tuples(st.integers(1, 6), st.integers(1, 40)).flatmap(
        lambda shape: arrays(float, shape, elements=entries)
    ),
    chosen=st.lists(st.integers(0, 7), max_size=12),
    hot=st.integers(0, 39),
    seed=seeds,
)
def test_pick_columns_equals_pick_rows_on_the_chosen_rows(logw, chosen, hot, seed):
    # An all-zero row and a single-mass row ride along with the drawn
    # ones; the chosen rows may repeat, or be none at all.
    m = logw.shape[-1]
    single = np.zeros(m)
    single[hot % m] = 1.0
    w = np.vstack([_row_weights(logw)[0], np.zeros(m), single])
    rows = np.array(chosen, dtype=np.intp) % len(w)
    cum = _running_sums(w.take(rows, axis=0).T)
    np.testing.assert_array_equal(cum, np.cumsum(w[rows], axis=-1).T)
    rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
    idx = _pick_columns(cum, rng)
    np.testing.assert_array_equal(idx, _pick_rows(w[rows], ref_rng))
    assert idx.shape == rows.shape and idx.dtype == np.intp
    assert np.all(idx[rows == len(w) - 2] == m - 1)
    assert np.all(idx[rows == len(w) - 1] == hot % m)
    # The same uniforms were consumed.
    assert rng.bit_generator.state == ref_rng.bit_generator.state


def test_pick_columns_counts_past_a_byte():
    # Rows wider than 255 count their picks in a wider integer.
    w = np.random.default_rng(3).random((50, 300)) ** 8
    w[:, 280:] = 0.0
    idx = _pick_columns(_running_sums(w.T), np.random.default_rng(4))
    np.testing.assert_array_equal(idx, _pick_rows(w, np.random.default_rng(4)))
    assert idx.max() >= 256


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
    idx = _search_rows(_row_weights(logw)[0], 3, _ConstantUniforms(0.5 - 1e-13))
    assert np.all(idx == 0)


#: Rows of known probabilities for the frequency tests: uniform, one
#: with a zero entry, one spanning 1e-6 to 1, and one whose log-weights
#: are large enough that an unshifted ``exp`` would overflow.
FREQ_ROWS = np.array(
    [
        [0.25, 0.25, 0.25, 0.25],
        [0.5, 0.25, 0.0, 0.25],
        [1e-6, 1e-3, 1e-1, 1.0],
        [np.exp(-1.0), 1.0, 0.0, np.exp(-2.0)],
    ]
)
FREQ_LOGW = np.log(np.where(FREQ_ROWS > 0.0, FREQ_ROWS, 1.0)) + np.where(
    FREQ_ROWS > 0.0, [[0.0], [0.0], [0.0], [800.0]], -np.inf
)
FREQ_DRAWS = 100_000
P_FLOOR = 1e-6


def _chi2_pvalue(counts, weights):
    """Chi-square p-value of ``counts`` against ``weights`` (normalized
    here); zero-weight cells must be empty, and cells expected to hold
    fewer than 5 draws are pooled with the next more likely cell."""
    probs = weights / weights.sum()
    assert np.all(counts[probs == 0.0] == 0)
    keep = probs > 0.0
    counts, expected = counts[keep], probs[keep] * counts.sum()
    order = np.argsort(expected)
    counts, expected = counts[order], expected[order]
    while expected[0] < 5.0:
        counts = np.concatenate([[counts[0] + counts[1]], counts[2:]])
        expected = np.concatenate([[expected[0] + expected[1]], expected[2:]])
    if counts.size == 1:
        return 1.0
    return chisquare(counts, expected).pvalue


def _assert_frequencies(idx):
    """``idx`` has shape ``(rows, draws)``, one row per ``FREQ_ROWS`` row."""
    for k, weights in enumerate(FREQ_ROWS):
        counts = np.bincount(idx[k], minlength=weights.size)
        assert _chi2_pvalue(counts, weights) > P_FLOOR, (k, counts)


def test_categorical_rows_frequencies():
    logw = np.repeat(FREQ_LOGW[:, None, :], FREQ_DRAWS, axis=1)
    _assert_frequencies(_categorical_rows(logw, np.random.default_rng(101)))


def test_multinomial_rows_frequencies():
    w = _row_weights(FREQ_LOGW)[0]
    _assert_frequencies(_search_rows(w, FREQ_DRAWS, np.random.default_rng(102)))


def test_pick_rows_frequencies():
    w = np.repeat(FREQ_ROWS[:, None, :], FREQ_DRAWS, axis=1)
    _assert_frequencies(_pick_rows(w, np.random.default_rng(103)))
