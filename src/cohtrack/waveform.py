"""Control waveforms: the three field functions (omega0, omega1, omega2) of time.

A waveform may be a constant triple, a uniformly sampled table with linear
interpolation, a closed-form rule defined only up to a breakdown time, or a
piecewise concatenation of segments. Waveforms evaluate to a (3,) float array
and carry an optional end of domain `t_end` plus `breakpoints` at which the
fields may be discontinuous (integrators split there). Piecewise-constant
waveforms also carry their `segments`, from which `propagate_bloch` steps
exactly, and the unclipped tracking waveform carries the `reference` state
its fields hold, from which `propagate_bloch` integrates the deviation.

Calling a waveform checks the time against its domain and the shape of the
fields. Integrators and field tables, which only evaluate inside
[0, t_end), check the shape once through `unchecked()` and then call the raw
field function.
"""

from __future__ import annotations

import bisect
import math

import numpy as np

from .errors import ValidationError, WaveformDomainError


def segment_index(starts, t: float) -> int:
    """Index of the segment holding t, given the sorted segment start times.

    Segments are closed on the left, so a time on a start belongs to the
    segment it starts. A time before the first start belongs to the first
    segment and a time past the last start to the last one.
    """
    return max(bisect.bisect_right(starts, t) - 1, 0)


class ControlWaveform:
    """Time-dependent control fields (omega0, omega1, omega2).

    Parameters
    ----------
    func : callable
        Maps a time t to a length-3 sequence (omega0, omega1, omega2). A
        returned sequence must not be changed afterwards: callers may keep
        it and reuse what they derived from it while the same object comes
        back.
    t_end : float or None
        End of the domain of definition (exclusive); None means unbounded.
    breakpoints : sequence of float
        Interior times where the fields may jump.

    Attributes
    ----------
    segments : tuple or None
        `(starts, triples)` of a waveform built by `piecewise_constant`,
        `constant` or `zero`: the sorted segment start times and the field
        triple held on each, looked up with `segment_index`. None for every
        other waveform, whose fields are known only through `func`.
    reference : callable or None
        `t -> (v*(t), dv*/dt(t))`, two (3,) arrays: the state an unclipped
        `tracking.tracked_waveform` is built to hold and its rate, defined
        where the fields are. None for every other waveform.

    `propagate_bloch` takes three routes: a waveform with `segments` is
    stepped exactly, one matrix exponential per step; one with a
    `reference` goes through RK45 on the deviation v - v*(t) (Encke's
    method), so `atol` bounds the deviation's local error; any other goes
    through RK45 on v.
    """

    def __init__(self, func, t_end=None, breakpoints=()):
        self._func = func
        self._segments = None
        self._reference = None
        self.t_end = t_end
        self.breakpoints = tuple(sorted(breakpoints))

    @property
    def segments(self):
        return self._segments

    @property
    def reference(self):
        return self._reference

    def __call__(self, t: float) -> np.ndarray:
        if t < 0:
            raise WaveformDomainError(f"waveform evaluated at negative time {t}")
        if self.t_end is not None and t >= self.t_end:
            raise WaveformDomainError(
                f"waveform evaluated at t={t} outside its domain [0, {self.t_end})"
            )
        w = np.asarray(self._func(t), dtype=float)
        if w.shape != (3,):
            raise ValidationError(f"waveform must yield 3 fields, got shape {w.shape}")
        return w

    def unchecked(self):
        """The raw field function, after one checked evaluation at t = 0.

        Fields that are not finite at t = 0 raise ValidationError, since no
        integrator can step through them. The function skips the domain and
        shape checks of `__call__`, so a caller may only evaluate it at times
        inside [0, t_end).
        """
        w0 = self(0.0)
        if not np.all(np.isfinite(w0)):
            raise ValidationError(f"waveform fields at t = 0 must be finite, got {w0}")
        return self._func

    @classmethod
    def zero(cls) -> "ControlWaveform":
        return cls.constant(0.0, 0.0, 0.0)

    @classmethod
    def constant(cls, omega0, omega1=0.0, omega2=0.0) -> "ControlWaveform":
        w = (float(omega0), float(omega1), float(omega2))
        if not all(map(math.isfinite, w)):
            raise ValidationError(f"constant fields must be finite, got {w}")
        return cls._held((0.0,), (w,))

    @classmethod
    def sampled(cls, t, omega) -> "ControlWaveform":
        """Uniformly sampled fields with linear interpolation.

        `t` is a strictly increasing uniform grid of finite times starting at
        0; `omega` has shape (len(t), 3) and finite entries. Evaluation past
        the last sample holds the end value.
        """
        t = np.asarray(t, dtype=float)
        omega = np.asarray(omega, dtype=float)
        if t.ndim != 1 or len(t) < 2:
            raise ValidationError("sampled waveform needs at least two time points")
        if not np.all(np.isfinite(t)):
            raise ValidationError("sampled waveform times must be finite")
        if t[0] != 0:
            raise ValidationError(f"sampled waveform time grid must start at 0, got {t[0]}")
        dt = np.diff(t)
        if np.any(dt <= 0):
            raise ValidationError("sampled waveform time grid must be strictly increasing")
        if np.max(np.abs(dt - dt[0])) > 1e-9 * max(1.0, abs(dt[0])):
            raise ValidationError("sampled waveform time grid must be uniform")
        if omega.shape != (len(t), 3):
            raise ValidationError(
                f"sampled waveform fields must have shape ({len(t)}, 3), got {omega.shape}"
            )
        if not np.all(np.isfinite(omega)):
            raise ValidationError("sampled waveform fields must be finite")

        def interp(s):
            return np.array([np.interp(s, t, omega[:, j]) for j in range(3)])

        return cls(interp)

    @classmethod
    def piecewise_constant(cls, edges, values) -> "ControlWaveform":
        """Constant fields on [edges[i], edges[i+1]); values has shape (n, 3), n >= 1.

        Edges and fields must be finite, and edges strictly increasing.
        """
        edges = np.asarray(edges, dtype=float)
        values = np.asarray(values, dtype=float)
        if len(edges) < 2:
            raise ValidationError("piecewise waveform needs at least one segment")
        if not np.all(np.isfinite(edges)):
            raise ValidationError("piecewise edges must be finite")
        if values.shape != (len(edges) - 1, 3):
            raise ValidationError(
                f"expected {len(edges) - 1} field triples, got shape {values.shape}"
            )
        if np.any(np.diff(edges) <= 0):
            raise ValidationError("piecewise edges must be strictly increasing")
        if not np.all(np.isfinite(values)):
            raise ValidationError("piecewise fields must be finite")
        return cls._held(tuple(edges[:-1].tolist()),
                         tuple(tuple(row) for row in values.tolist()))

    @classmethod
    def _held(cls, starts, triples) -> "ControlWaveform":
        """Fields triples[i] held from starts[i] on, recorded as `segments`."""
        def step(s):
            return triples[segment_index(starts, s)]

        waveform = cls(step, breakpoints=starts[1:])
        waveform._segments = (starts, triples)
        return waveform

    @classmethod
    def closed_form(cls, func, t_end, breakpoints=()) -> "ControlWaveform":
        """Closed-form fields defined only for t < t_end."""
        if t_end is not None and not (t_end > 0 or math.isinf(t_end)):
            raise ValidationError(f"t_end must be positive, got {t_end}")
        if t_end is not None and math.isinf(t_end):
            t_end = None
        return cls(func, t_end=t_end, breakpoints=breakpoints)

    @classmethod
    def _holding(cls, func, t_end, reference) -> "ControlWaveform":
        """Closed-form fields built to hold the state `reference(t)[0]`, recorded as `reference`."""
        waveform = cls.closed_form(func, t_end)
        waveform._reference = reference
        return waveform
