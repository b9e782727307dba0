"""Exception hierarchy shared across the package."""


class CohtrackError(Exception):
    """Base class for all package errors."""


class ValidationError(CohtrackError, ValueError):
    """An input failed a structural invariant (names the failed invariant)."""


class DomainError(CohtrackError, ValueError):
    """An input is outside the mathematical domain of an operation."""


class PastBreakdownError(DomainError):
    """A closed-form tracking quantity was requested at or past breakdown."""

    def __init__(self, t, t_b):
        super().__init__(f"t={t} is at or past the breakdown time t_b={t_b}")
        self.t = t
        self.t_b = t_b


class SingularPointError(DomainError):
    """The tracking-field denominators vanish at the requested state."""


class WaveformDomainError(DomainError):
    """A waveform was evaluated outside its time domain."""


class ConfigError(CohtrackError, ValueError):
    """A scenario or sweep configuration failed to parse or validate."""
