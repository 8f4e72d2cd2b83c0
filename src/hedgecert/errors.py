"""Exception taxonomy shared across the package."""


class HedgecertError(Exception):
    """Base class for every error this package raises deliberately."""


class StructureError(HedgecertError, ValueError):
    """Input data is structurally unusable: bad dimensions, malformed market."""


class DomainError(HedgecertError, ValueError):
    """An argument is outside its documented domain (index, epsilon, leaf)."""


class ArbitrageError(HedgecertError):
    """The market's arbitrage state blocks the requested computation."""

    def __init__(self, message: str, *, blocking: str):
        super().__init__(message)
        self.blocking = blocking


class RobustArbitrageError(ArbitrageError):
    """Robust no-arbitrage fails.

    Carries the blocking description and, from super-hedging, a ray read off
    the measure program's Farkas vector: capital < 0 and a strategy with
    capital + gain >= 0 on every charged leaf.
    """

    def __init__(self, message: str, *, blocking: str, ray=None):
        super().__init__(message, blocking=blocking)
        self.ray = ray


class PreconditionError(HedgecertError):
    """A documented economic precondition does not hold for this market."""

    def __init__(self, message: str, *, details=None):
        super().__init__(message)
        self.details = details


class SoundnessError(HedgecertError):
    """An internal exactness identity failed. Always a bug, never data."""
