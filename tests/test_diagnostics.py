"""Tests for the replicate-evaluation helpers."""

import numpy as np
import pytest

from nsmc.diagnostics import (
    ReplicateSummary,
    aggregate,
    squared_error,
    unbiasedness_test,
    write_summary_csv,
)


class TestSquaredError:
    def test_exact_hit(self):
        assert squared_error(1.0, 1.0) == 0.0

    def test_plain_value(self):
        assert squared_error(2.0, 0.0) == 4.0

    def test_vectorized_matches_scalar_loop(self):
        rng = np.random.default_rng(0)
        est = rng.normal(size=20)
        truth = rng.normal(size=20)
        vec = squared_error(est, truth)
        loop = np.array([squared_error(e, t) for e, t in zip(est, truth)])
        np.testing.assert_array_equal(vec, loop)


class TestUnbiasednessTest:
    def test_constant_at_target_passes(self):
        z = unbiasedness_test(np.full(50, 2.5), 2.5)
        assert z == 0.0

    def test_constant_off_target_fails_hard(self):
        z = unbiasedness_test(np.full(50, 2.5), 2.0)
        assert z == np.inf

    @pytest.mark.parametrize("value", [0.01, 0.1, 1 / 3, -2.7, 1e-7])
    def test_non_dyadic_constants_are_exact(self, value):
        # The standard deviation of these constants is not 0.0 in
        # floating point; equality still makes them degenerate samples.
        samples = np.full(30, value)
        assert unbiasedness_test(samples, value) == 0.0
        assert unbiasedness_test(samples, np.nextafter(value, np.inf)) == -np.inf

    def test_null_distribution_passes(self):
        rng = np.random.default_rng(7)
        samples = rng.normal(3.0, 1.0, size=10**4)
        assert abs(unbiasedness_test(samples, 3.0)) <= 3.0

    def test_unit_shift_is_detected(self):
        rng = np.random.default_rng(8)
        samples = rng.normal(4.0, 1.0, size=10**4)
        z = unbiasedness_test(samples, 3.0)
        assert z > 3.0
        assert z == pytest.approx(100.0, rel=0.1)

    def test_small_samples_rejected(self):
        with pytest.raises(ValueError):
            unbiasedness_test(np.ones(10), 1.0)


class TestAggregate:
    def test_rank_interpolation(self):
        s = aggregate(np.array([1.0, 2.0, 3.0, 4.0, 5.0]))
        assert (s.q25, s.median, s.q75) == (2.0, 3.0, 4.0)

    def test_single_value(self):
        s = aggregate(np.array([7.0]))
        assert s.q25 == s.median == s.q75 == s.mean == 7.0
        assert s.stderr == 0.0

    def test_permutation_invariance(self):
        rng = np.random.default_rng(9)
        values = rng.normal(size=31)
        a = aggregate(values)
        b = aggregate(rng.permutation(values))
        assert (a.median, a.q25, a.q75) == (b.median, b.q25, b.q75)
        assert a.mean == pytest.approx(b.mean, rel=1e-14)

    def test_monotone_under_extension(self):
        rng = np.random.default_rng(10)
        values = rng.normal(size=20)
        a = aggregate(values)
        b = aggregate(np.append(values, values.max() + 10.0))
        assert b.median >= a.median and b.q25 >= a.q25 and b.q75 >= a.q75

    def test_quantile_ordering_invariant(self):
        rng = np.random.default_rng(11)
        for _ in range(50):
            s = aggregate(rng.normal(size=int(rng.integers(1, 40))))
            assert s.q25 <= s.median <= s.q75

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            aggregate(np.array([]))


def test_summary_csv_schema(tmp_path):
    summaries = {
        "m1": aggregate(np.array([1.0, 2.0, 3.0]), name="m1"),
    }
    path = tmp_path / "summary.csv"
    write_summary_csv(summaries, "exp", path)
    lines = path.read_text().splitlines()
    assert lines[0] == "experiment,estimator,stat,value"
    assert any(line.startswith("exp,m1,median,") for line in lines)
