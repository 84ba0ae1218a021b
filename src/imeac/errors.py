"""Exception types shared across the toolkit."""


class ImeacError(Exception):
    """Base class for all toolkit errors."""


class CaseFormatError(ImeacError):
    """Raised when a case file cannot be parsed at all."""


class CaseValidationError(ImeacError):
    """Raised when a parsed case violates an invariant.

    Carries the name of the offending field so callers (and the CLI)
    can point the user at the exact problem.
    """

    def __init__(self, field: str, message: str):
        self.field = field
        super().__init__(f"{field}: {message}")


class NetworkReductionError(ImeacError):
    """Raised when bus elimination fails (singular load subnetwork)."""

    def __init__(self, buses, message: str):
        self.buses = tuple(buses)
        super().__init__(f"{message} (buses: {list(self.buses)})")


class BracketError(ImeacError):
    """Raised when a CCT search bracket does not straddle the boundary."""


class HorizonError(ImeacError):
    """Raised when no machine reaches a verdict within the horizon."""


class DivergenceError(ImeacError):
    """Raised when the fault-on stage diverges; ``time`` is the first sample past the record, s."""

    def __init__(self, message: str, time: float):
        self.time = time
        super().__init__(message)
