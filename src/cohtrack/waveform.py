"""Control waveforms: the three field functions (omega0, omega1, omega2) of time.

A waveform may be a constant triple, a uniformly sampled table with linear
interpolation, a closed-form rule defined only up to a breakdown time, or a
piecewise concatenation of segments. Waveforms evaluate to a (3,) float array
and carry an optional end of domain `t_end` plus `breakpoints` at which the
fields may be discontinuous or have a kink (integrators split there).
Piecewise-constant waveforms carry their `segments`, from which
`propagate_bloch` steps exactly. A tracking waveform carries its
`reference`, a `Reference`: the map from time to the variable sigma in which
the state its fields hold is linear, and its fields in that variable, from
which `propagate_bloch` integrates the deviation. A clipped one also carries
its saturated tail as `segments` that start at its last clamp.

Calling a waveform checks the time against its domain and the shape of the
fields. Integrators and field tables, which only evaluate inside
[0, t_end), check the shape once through `unchecked()` and then call the raw
field function, or `table` for a whole grid of times.
"""

from __future__ import annotations

import bisect
import math
from typing import Callable, NamedTuple

import numpy as np

from .errors import ValidationError, WaveformDomainError


def segment_index(starts, t: float) -> int:
    """Index of the segment holding t, given the sorted segment start times.

    Segments are closed on the left, so a time on a start belongs to the
    segment it starts. A time before the first start belongs to the first
    segment and a time past the last start to the last one.
    """
    return max(bisect.bisect_right(starts, t) - 1, 0)


class Reference(NamedTuple):
    """The variable sigma of the deviation route, the state held in it, and the drive.

    The reference state is v*(sigma) = origin + sigma * slope, and
    `drive(sigma)` gives (dt/dsigma, omega0 dt/dsigma, omega1 dt/dsigma,
    omega2 dt/dsigma), so dv/dsigma = dt/dsigma (m0 v + k) + M(sigma) v
    with the fields scaled by dt/dsigma. `to_sigma` maps an array of times
    to sigma, and `breakpoints` are the values of sigma at which the drive
    has a kink. `propagate_bloch` decides whether a run can step in sigma.
    """

    to_sigma: Callable
    breakpoints: tuple
    drive: Callable
    origin: tuple
    slope: tuple

    @classmethod
    def identity(cls, breakpoints, fields, origin) -> "Reference":
        """The map sigma = t about the constant state `origin`: RK45 on v - origin in t."""
        return cls(lambda ts: ts, breakpoints, lambda t: (1.0, *fields(t)), origin,
                   (0.0, 0.0, 0.0))


class ControlWaveform:
    """Time-dependent control fields (omega0, omega1, omega2).

    Parameters
    ----------
    func : callable
        Maps a time t to a length-3 sequence (omega0, omega1, omega2).
        Callers read the sequence as it is returned, so a function may
        return one list that it changes from call to call.
    t_end : float or None
        End of the domain of definition (exclusive), positive; None or inf
        means unbounded.
    breakpoints : sequence of float
        Interior times where the fields may jump or have a kink.

    Attributes
    ----------
    segments : tuple or None
        `(starts, triples)`: sorted start times and the field triple held
        from each, looked up with `segment_index`; from starts[0] on the
        fields are these alone. `piecewise_constant`, `constant` and `zero`
        hold from starts[0] <= 0; a clipped `tracking.tracked_waveform`
        holds one triple from its last clamp on. None for every other
        waveform.
    reference : Reference or None
        For times before the first start of `segments` (which may be the
        last of them): for a `tracking.tracked_waveform`, the state its
        fields hold and the fields, in a variable in which that state is
        linear, and for its `equivalence.transport_waveform`, the same
        rotated. None for every other waveform.

    `propagate_bloch` runs RK45 before the first start of `segments`, on the
    deviation from `reference` where the run can step in its variable, and
    otherwise from `Reference.identity` (RK45 in t, about the zero state if
    there is no reference), and exact steps from there. `table` evaluates
    the fields over a whole grid.
    """

    def __init__(self, func, t_end=None, breakpoints=()):
        if t_end is not None and not t_end > 0:
            raise ValidationError(f"t_end must be positive, got {t_end}")
        self._func = func
        self._segments = None
        self._reference = None
        self._table = None
        self.t_end = None if t_end == math.inf else t_end
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

    def table(self, grid: np.ndarray) -> np.ndarray:
        """(len(grid), 3) fields at the grid's times, all inside [0, t_end).

        Call `unchecked()` first, as for the raw field function. A tracking
        waveform evaluates its clamped law over the whole grid at once, and
        its raw function is one row of that; any other is called at each time,
        and each row is copied as it comes back.
        """
        if self._table is not None:
            return self._table(grid)
        return np.array([tuple(self._func(t)) for t in grid.tolist()], dtype=float)

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
        the last sample holds the end value. Every sample after the first is
        a breakpoint, so integrators do not step across the interpolant's kinks.
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

        return cls(interp, breakpoints=t[1:].tolist())

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
        """Fields triples[i] held from starts[i] on, recorded as `segments`.

        The first segment also holds before its start, so the recorded first
        start is moved to 0 if it lies later.
        """
        def step(s):
            return triples[segment_index(starts, s)]

        waveform = cls(step, breakpoints=starts[1:])
        waveform._segments = ((min(starts[0], 0.0), *starts[1:]), triples)
        return waveform

    @classmethod
    def _holding(cls, func, t_end, reference, breakpoints=(), table=None,
                 tail=None) -> "ControlWaveform":
        """Closed-form fields built to hold a state, recorded as `reference`.

        `table`, if given, is the field law over a time array, returned by
        `table`; `func` must give its rows one time at a time, bit for bit,
        as a tracking waveform's `func` does by evaluating one row of it.
        `tail`, if given, is the `segments` on which `func` is constant from
        their first start on.
        """
        waveform = cls(func, t_end, breakpoints)
        waveform._segments = tail
        waveform._reference = reference
        waveform._table = table
        return waveform
