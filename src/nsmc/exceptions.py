"""Exception types shared across the filtering algorithms."""

import numpy as np


class NsmcError(Exception):
    """Base class for errors raised by this package."""


class WeightCollapseError(NsmcError):
    """All particle weights vanished at some step of an outer filter.

    Attributes
    ----------
    step : int
        1-based time index at which the collapse occurred.
    """

    def __init__(self, step: int, detail: str = ""):
        self.step = step
        msg = f"all particle weights are zero at step t={step}"
        if detail:
            msg = f"{msg} ({detail})"
        super().__init__(msg)


class InnerCollapseError(NsmcError):
    """All weights of an inner (nested) sampler vanished at some stage.

    Attributes
    ----------
    stage : int
        1-based component/stage index at which the collapse occurred.
    """

    def __init__(self, stage: int, detail: str = ""):
        self.stage = stage
        msg = f"all inner-sampler weights are zero at stage d={stage}"
        if detail:
            msg = f"{msg} ({detail})"
        super().__init__(msg)


class InvalidInputError(NsmcError, ValueError):
    """Input that no filter can run on, named in the message: observations
    of the wrong dimension or with non-finite values, or a bad argument,
    such as a count (``N``, ``M``, ``m``, ``n_x``, ``T``) that is not a
    Python or NumPy integer in 1..intp max, or an ``rng`` that is not a Generator."""


class NotPositiveDefiniteError(InvalidInputError, np.linalg.LinAlgError):
    """A precision matrix that is not positive definite."""
