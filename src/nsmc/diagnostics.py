"""Replicate-level statistical evaluation.

Squared errors against ground truth, quantile aggregation across seeds,
and the three-standard-error unbiasedness test used throughout the
acceptance checks.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from pathlib import Path

import numpy as np

__all__ = [
    "squared_error",
    "unbiasedness_test",
    "aggregate",
    "ReplicateSummary",
    "write_summary_csv",
]


def squared_error(estimate, truth):
    """``(estimate - truth)**2``, elementwise on array input."""
    return (np.asarray(estimate, dtype=float) - np.asarray(truth, dtype=float)) ** 2


def unbiasedness_test(samples: np.ndarray, target: float) -> float:
    """z-score of the sample mean against ``target``.

    The test passes when ``|z| <= 3``.  Degenerate samples (all equal,
    told by equality, as the std of equal floats need not round to 0)
    return ``z = 0.0`` when they hit the target exactly and signed
    infinity otherwise, so constants at the target count as a pass.
    """
    samples = np.asarray(samples, dtype=float)
    if samples.size < 30:
        raise ValueError("unbiasedness_test needs at least 30 samples")
    if np.all(samples == samples[0]):
        mean, stderr = samples[0], 0.0
    else:
        mean, stderr = samples.mean(), samples.std(ddof=1) / np.sqrt(samples.size)
    if stderr == 0.0:
        return 0.0 if mean == target else float(np.sign(mean - target) * np.inf)
    return float((mean - target) / stderr)


@dataclass(frozen=True)
class ReplicateSummary:
    """Order statistics and mean/stderr of one estimator across seeds."""

    estimator_name: str
    values: np.ndarray
    median: float
    q25: float
    q75: float
    mean: float
    stderr: float


def aggregate(values: np.ndarray, name: str = "") -> ReplicateSummary:
    """Summarize replicate values; quantiles interpolate linearly
    between closest ranks (the type-7 convention)."""
    values = np.asarray(values, dtype=float)
    if values.size < 1:
        raise ValueError("aggregate needs at least one value")
    stderr = (
        0.0
        if values.size == 1
        else float(values.std(ddof=1) / np.sqrt(values.size))
    )
    return ReplicateSummary(
        estimator_name=name,
        values=values,
        median=float(np.quantile(values, 0.5)),
        q25=float(np.quantile(values, 0.25)),
        q75=float(np.quantile(values, 0.75)),
        mean=float(values.mean()),
        stderr=stderr,
    )


def write_summary_csv(
    summaries: dict[str, ReplicateSummary], experiment: str, path: str | Path
) -> None:
    """Emit ``experiment,estimator,stat,value`` rows, sorted for
    deterministic output.  Quantiles use the type-7 convention noted in
    the header comment row."""
    with open(Path(path), "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["experiment", "estimator", "stat", "value"])
        writer.writerow([experiment, "_meta", "quantile_convention", "type-7"])
        for name in sorted(summaries):
            s = summaries[name]
            for stat in ("median", "q25", "q75", "mean", "stderr"):
                writer.writerow([experiment, name, stat, repr(float(getattr(s, stat)))])
