"""Exception types shared across the filtering algorithms."""


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
    """Input that no filter can run on, such as observations whose
    dimension differs from the model's or that hold non-finite values."""
