"""Exception hierarchy shared across the package."""


class CohtrackError(Exception):
    """Base class for all package errors."""


class ValidationError(CohtrackError, ValueError):
    """An input failed a structural invariant (names the failed invariant)."""


class DomainError(CohtrackError, ValueError):
    """An input is outside the mathematical domain of an operation."""


class PastBreakdownError(DomainError):
    """A closed-form tracking quantity was requested at, past or just short of breakdown."""

    def __init__(self, t, t_b):
        if t >= t_b:
            super().__init__(f"t={t} is at or past the breakdown time t_b={t_b}")
        else:   # refused by the guard that keeps the fields finite
            super().__init__(f"t={t} is inside the breakdown guard, "
                             f"{(t_b - t) / t_b:.1e} t_b short of t_b={t_b}")
        self.t = t
        self.t_b = t_b


class SingularPointError(DomainError):
    """The tracking-field denominators vanish at the requested state."""


class WaveformDomainError(DomainError):
    """A waveform was evaluated outside its time domain."""


class ConfigError(CohtrackError, ValueError):
    """A scenario or sweep configuration failed to parse or validate."""
