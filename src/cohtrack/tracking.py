"""Synthesis of the coherence-holding control fields and their singularities.

The controller keeps the in-plane components of the Bloch vector fixed at
their initial values (a linearization of the constant-coherence objective).
For pure dephasing this has a closed form: v_z(t) = s sqrt(v_z(0)^2 - 2 gamma c t)
with breakdown at t_b = v_z(0)^2 / (2 gamma c), where the synthesized fields
diverge like (t_b - t)^(-1/2). In w = |v_z(t)| instead of t, with
dt/dw = -w / (gamma c), the held state is linear and the fields times
dt/dw are bounded up to t_b; the tracking waveform records that map and its
fields in w, and tracked runs integrate in w.
"""

from __future__ import annotations

import functools
import math
import sys
from dataclasses import dataclass

import numpy as np

from .bloch import (
    LAMBDA_0,
    BlochChannel,
    CoherenceVector,
    _freeze,
    coherence,
    control_matrix,
)
from .dynamics import (
    IntegratorConfig,
    SingularityReport,
    Termination,
    Trajectory,
    _integrate,
    _output_grid,
    _solve,
    _trajectory,
    propagate_bloch,
)
from .equivalence import _z_dephasing_rate
from .errors import DomainError, PastBreakdownError, SingularPointError
from .waveform import ControlWaveform, Reference

# Objective matrices: S1 = v^t O1 v = v_x^2, S2 = v^t O2 v = v_y^2.
# They commute with their paired generator: [O1, L1] = [O2, L2] = 0.
O_1 = np.diag([1.0, 0.0, 0.0])
O_2 = np.diag([0.0, 1.0, 0.0])

EPS_DENOMINATOR = 1e-10
EPS_NUMERATOR = 1e-8
TRIVIAL_RUN_LENGTH = 10  # consecutive zero denominators that make a singularity trivial
DETECT_VZ_FLOOR = 1e-3   # |v_z| at which `detect_breakdown` stops


def breakdown_time(v0: CoherenceVector, gamma: float) -> float:
    """Time v_z(0)^2 / (2 gamma c) at which the tracked v_z reaches zero.

    Infinite when gamma = 0 or c = 0 (nothing to counteract) or when
    2 gamma c underflows to zero (t_b overflows); zero when the state starts
    on the equator (c > 0, v_z(0) = 0).
    """
    return float(_breakdown(v0.vz**2, coherence(v0), gamma)[1])


def _breakdown(vz0_sq, c, gamma: float):
    """(2 gamma c, t_b) from v_z(0)^2 and c, numbers or arrays: the one t_b formula."""
    if not gamma >= 0:   # a NaN rate too
        raise DomainError(f"gamma must be >= 0, got {gamma}")
    two_gamma_c = 2.0 * gamma * np.asarray(c, dtype=float)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        t_b = np.where((c == 0.0) | (two_gamma_c == 0.0), math.inf,
                       vz0_sq / two_gamma_c)
    return two_gamma_c, t_b


def vz_tracked(v0: CoherenceVector, gamma: float, t: float) -> float:
    """Tracked z-component s * sqrt(v_z(0)^2 - 2 gamma c t) on [0, t_b]."""
    terms = _dephasing_terms(v0, gamma, 0.0, t)
    if t > terms.t_b:
        raise PastBreakdownError(t, terms.t_b)
    return terms.sign * float(terms.w(t))


@dataclass(frozen=True)
class _DephasingTerms:
    """The closed-form dephasing solution from one state, time counted from it.

    |v_z(t)| = w(t) = sqrt(max(0, vz0_sq - two_gamma_c t)), at one time or at
    each of a time array, and v_z(t) = sign w(t); with two_gamma_c = 0 it is
    sqrt(vz0_sq) at every time, t = inf included. The fields are
    omega_i(t) = num_i / w(t), the sign folded into num_i; `denominator`
    and `fields` refuse times where w is not positive, from t_b on.
    """

    sign: float
    num1: float
    num2: float
    vz0_sq: float
    two_gamma_c: float
    t_b: float

    def w(self, t):
        # 0 * inf is NaN; nothing moves v_z when two_gamma_c is 0.
        drop = self.two_gamma_c * t if self.two_gamma_c else np.zeros_like(t, dtype=float)
        return np.sqrt(np.maximum(0.0, self.vz0_sq - drop))

    def denominator(self, t: float) -> float:
        w = float(self.w(t))
        if not w > 0.0:
            raise PastBreakdownError(t, self.t_b)
        return w

    def fields(self, t: float) -> tuple[float, float]:
        denom = self.denominator(t)
        return self.num1 / denom, self.num2 / denom


def _dephasing_terms(v0: CoherenceVector, gamma: float, omega0: float,
                     t: float = 0.0) -> _DephasingTerms:
    """Checks gamma >= 0, v_z(0)^2 != 0 and t >= 0, NaN failing, and builds the terms."""
    vz0_sq = v0.vz**2
    two_gamma_c, t_b = map(float, _breakdown(vz0_sq, coherence(v0), gamma))
    if v0.vz == 0.0:
        raise DomainError("v_z(0) = 0: no control is possible")
    if vz0_sq < sys.float_info.min:
        # The tracked v_z and the fields divide by sqrt(v_z(0)^2), and a
        # subnormal radicand has too few digits to step back from t_b.
        raise DomainError(f"v_z(0)^2 underflows to {vz0_sq:g} (v_z(0) = {v0.vz!r}): "
                          "no control is possible")
    if not t >= 0:
        raise DomainError(f"t must be >= 0, got {t}")
    s = 1.0 if v0.vz > 0 else -1.0
    return _DephasingTerms(
        sign=s,
        num1=s * (-gamma * v0.vy + omega0 * v0.vx),
        num2=s * (-gamma * v0.vx - omega0 * v0.vy),
        vz0_sq=vz0_sq,
        two_gamma_c=two_gamma_c,
        t_b=t_b,
    )


def tracking_fields_dephasing(v0: CoherenceVector, gamma: float, omega0: float,
                              t: float) -> tuple[float, float]:
    """Closed-form in-plane fields holding v_x, v_y constant under dephasing."""
    return _dephasing_terms(v0, gamma, omega0, t).fields(t)


# The constant matrices of the quadratic forms below.
_N1_OMEGA0 = LAMBDA_0 @ O_2 - O_2 @ LAMBDA_0
_N2_OMEGA0 = LAMBDA_0 @ O_1 - O_1 @ LAMBDA_0


def _form(x: np.ndarray, m: np.ndarray, y: np.ndarray):
    """x^t m y, row by row when x or y is an (n, 3) stack of states.

    Each row is the same two matmuls as for one (3,) state, so a row of a
    stack is bit for bit what that state alone gives.
    """
    return np.matmul(np.matmul(x[..., None, :], m), y[..., :, None])[..., 0, 0]


@functools.lru_cache(maxsize=1)
def _anticommutators(m0_bytes: bytes):
    """(m0 O_2 + O_2 m0, m0 O_1 + O_1 m0) for the m0 whose float bytes these are.

    Keyed by content, so it cannot go stale: every call of a run hits the
    one entry, and another channel's m0 recomputes it.
    """
    m0 = np.frombuffer(m0_bytes).reshape(3, 3)
    return _freeze(m0 @ O_2 + O_2 @ m0), _freeze(m0 @ O_1 + O_1 @ m0)


def _general_numerators(ch: BlochChannel, v: np.ndarray, omega0: float):
    """(N1, N2) of the paper's field formula at a (3,) state or each row of an (n, 3) stack."""
    k = ch.k
    m0_o2, m0_o1 = _anticommutators(ch.m0.tobytes())
    n1 = (-omega0 * _form(v, _N1_OMEGA0, v) + _form(v, m0_o2, v)
          + _form(k, O_2, v) + _form(v, O_2, k))
    n2 = (-omega0 * _form(v, _N2_OMEGA0, v) + _form(v, m0_o1, v)
          + _form(k, O_1, v) + _form(v, O_1, k))
    return n1, n2


def _general_denominators(v: np.ndarray):
    """(D1, D2) = (2 v_y v_z, 2 v_x v_z) at a (3,) state or each row of an (n, 3) stack.

    Adding 0.0 maps -0.0 to 0.0, the zero of the quadratic forms v^t [L_j, O_i] v.
    """
    return 2.0 * (v[..., 1] * v[..., 2]) + 0.0, 2.0 * (v[..., 0] * v[..., 2]) + 0.0


def _no_fields(d1, d2):
    """Where the paper's formula has no fields: |D1| or |D2| <= 1e-12."""
    return (np.abs(d1) <= 1e-12) | (np.abs(d2) <= 1e-12)


def _numerator_scale(ch: BlochChannel, omega0: float) -> float:
    """Largest of |omega0| and the entries of |m0| and |k|: the numerators' scale.

    N1 and N2 are linear in omega0, m0 and k, so under the rescaling
    gamma -> lambda gamma, omega0 -> lambda omega0, t -> t / lambda, which
    leaves the trajectory unchanged, they scale with this number.
    """
    return max(abs(float(omega0)), float(np.max(np.abs(ch.m0))),
               float(np.max(np.abs(ch.k))))


def tracking_fields_general(ch: BlochChannel, v: CoherenceVector | np.ndarray,
                            omega0: float) -> tuple[float, float]:
    """In-plane fields holding S1 = v_x^2 and S2 = v_y^2 constant for any channel.

    Solves the quadratic-objective rate equations dS1/dt = dS2/dt = 0 for
    omega1 and omega2; on the pure-dephasing channel this reproduces
    `tracking_fields_dephasing` exactly. `v` may be a raw (3,) array, which
    is not checked against the Bloch ball: integrator stages can leave it.
    """
    arr = v.as_array() if isinstance(v, CoherenceVector) else v
    d1, d2 = _general_denominators(arr)
    n1, n2 = _general_numerators(ch, arr, omega0)
    if _no_fields(d1, d2):
        raise SingularPointError(f"vanishing field denominator (D1={d1:.3e}, D2={d2:.3e})")
    return float(n1 / d1), float(n2 / d2)


def omega_magnitude_sq(v0: CoherenceVector, gamma: float, omega0: float,
                       t: float) -> float:
    """Closed-form squared field magnitude |Omega|^2 of the tracked solution.

    Equals (gamma^2 + omega0^2) c / (v_z(0)^2 - 2 gamma c t) + omega0^2, which
    matches omega1^2 + omega2^2 + omega0^2 of the synthesized fields.
    """
    denom = _dephasing_terms(v0, gamma, omega0, t).denominator(t)
    return (gamma**2 + omega0**2) * coherence(v0) / denom**2 + omega0**2


def tracked_waveform(v0: CoherenceVector, gamma: float, omega0: float,
                     omega_max: float | None = None) -> ControlWaveform:
    """Closed-form tracking waveform for a pure-dephasing channel.

    Its fields follow one law, written once as the array function it passes
    as `table`: (omega0, omega1, omega2) with omega_i = num_i / |v_z(t)|
    clamped to +-omega_max, before T, and the held triple (omega0,
    +-omega_max or 0, +-omega_max or 0) from T on. T is the last clamp of a
    nonzero numerator (0 if both numerators are 0); without a level (None
    or inf) there is none, and the waveform ends at t_b. The per-time field
    function is one row of that table. The clamp times are breakpoints, and
    the held triple is the one segment of `segments`, which starts at T. T
    lies before t_b, so every field before T is finite and none is
    evaluated from t_b on. When 2 gamma c = 0 nothing moves v_z, and the
    row at t = 0 is one segment held from 0.

    Otherwise its `reference` is the state the fields hold in the variable
    sigma = -w, where w = |v_z(t)| = sqrt(v_z(0)^2 - 2 gamma c t) (a
    Sundman-type change of time): v*(sigma) = (v_x(0), v_y(0), -s sigma),
    dt/dsigma = w / (gamma c), and each field times dt/dsigma is
    omega0 w / (gamma c) or num / (gamma c) clamped to +-omega_max w / (gamma c),
    bounded up to t_b. The clamps are kinks at w = |num| / omega_max, and T
    maps to the w of its clamp exactly. A run whose times or channel leave
    RK45 no step in sigma integrates in t instead, about v*(0); that choice
    is `propagate_bloch`'s, not the waveform's.
    """
    terms = _dephasing_terms(v0, gamma, omega0)
    level = math.inf if omega_max is None else omega_max
    nums = (terms.num1, terms.num2)
    clamps = _clip_times(terms, level)
    w0 = terms.denominator(0.0)   # |v_z(0)|
    t_hold, w_hold = math.inf, 0.0
    if level < math.inf:
        t_hold = max((t for t, num in zip(clamps, nums) if num), default=0.0)
        w_hold = min((abs(num) / level for num in nums if num), default=w0)
        # A level so high that the clamp rounds to t_b: step back to where
        # v_z, and so every field before T, is still finite.
        while terms.w(t_hold) <= 0.0:
            t_hold = math.nextafter(t_hold, 0.0)
    # A zero numerator keeps its field at num / |v_z|, a zero of num's sign.
    held = (omega0, *(math.copysign(level, num) if num else num for num in nums))

    def table(ts):
        head = ts < t_hold
        w = terms.w(np.minimum(ts, t_hold))   # the tail reads w(T) > 0, not w past t_b
        rows = np.full((len(ts), 3), omega0, dtype=float)
        for j, num in ((1, terms.num1), (2, terms.num2)):
            with np.errstate(over="ignore"):   # inf is clamped, or refused at t = 0
                field = num / w
            rows[:, j] = np.where(head, np.where(np.abs(field) <= level, field,
                                                 np.copysign(level, field)), held[j])
        return rows

    def fields(t):
        return table(np.array([t]))[0]

    if terms.two_gamma_c == 0.0:
        return ControlWaveform._held((0.0,), (tuple(fields(0.0).tolist()),))

    # In sigma = -w: dt/dsigma = w rate and each field times it, rate = 1/(gamma c).
    rate = 2.0 / terms.two_gamma_c
    r0, r1, r2 = omega0 * rate, terms.num1 * rate, terms.num2 * rate

    def drive(sigma):
        dt = -sigma * rate
        cap = level * dt
        return (dt, -sigma * r0, r1 if abs(r1) <= cap else math.copysign(cap, r1),
                r2 if abs(r2) <= cap else math.copysign(cap, r2))

    kinks = tuple(sorted(t for t in clamps if 0.0 < t < terms.t_b))
    sigma_kinks = tuple(sorted(-abs(num) / level for num in nums
                               if 0.0 < abs(num) / level < w0))
    reference = Reference(lambda ts: np.where(ts < t_hold, -terms.w(ts), -w_hold),
                          sigma_kinks, drive, (v0.vx, v0.vy, 0.0), (0.0, 0.0, -terms.sign))
    t_end = None if level < math.inf else terms.t_b
    tail = ((t_hold,), (held,)) if t_hold < math.inf else None
    return ControlWaveform._holding(fields, t_end, reference, kinks, table, tail)


def _clip_times(terms: _DephasingTerms, omega_max: float) -> tuple[float, float]:
    """Times at which the tracked omega1 and omega2 each reach omega_max (inf: never)."""
    if not omega_max > 0:
        raise DomainError(f"omega_max must be positive, got {omega_max}")
    times = []
    for num in (terms.num1, terms.num2):
        if num == 0.0:
            times.append(math.inf)
        elif terms.two_gamma_c == 0.0:
            # Constant field num / |v_z(0)|: clips at t = 0 or never.
            times.append(0.0 if abs(num) / terms.denominator(0.0) >= omega_max
                         else math.inf)
        else:
            try:
                radicand = (num / omega_max) ** 2
            except OverflowError:   # past the float range: clamped from t = 0
                radicand = math.inf
            times.append(max(0.0, (terms.vz0_sq - radicand) / terms.two_gamma_c))
    return times[0], times[1]


def clip_time(v0: CoherenceVector, gamma: float, omega0: float,
              omega_max: float) -> float:
    """First time at which either in-plane tracked field reaches omega_max."""
    return min(_clip_times(_dephasing_terms(v0, gamma, omega0), omega_max))


def simulate_tracked(ch: BlochChannel, v0: CoherenceVector, omega0: float,
                     t_max: float, omega_max: float | None = None,
                     n_samples: int = 501) -> Trajectory:
    """Propagate the channel under the synthesized coherence-holding fields.

    Channels that dephase about z (m0 = diag(-gamma, -gamma, 0) to the
    dephasing-class tolerance) use the closed-form fields; any other channel
    is driven by state-feedback fields recomputed from the current state at
    every integrator evaluation. Both integrate at the default IntegratorConfig.
    Termination records horizon, breakdown at t_b, or the first clip time when
    omega_max is given. A state-feedback start with v_x = 0 or v_y = 0
    raises SingularPointError.
    """
    if v0.vz == 0.0:
        raise DomainError("v_z(0) = 0: no control is possible")
    gamma = _z_dephasing_rate(ch)
    if gamma is not None:
        w = tracked_waveform(v0, gamma, omega0, omega_max)
        traj = propagate_bloch(ch, w, v0, t_max, n_samples=n_samples)
        if omega_max is not None:
            t_clip = clip_time(v0, gamma, omega0, omega_max)
            if t_clip < t_max and traj.termination.kind == "horizon":
                traj = traj.with_termination(Termination("clipped", t_clip))
        return traj

    if omega_max is not None:
        raise DomainError("field clipping is only supported on the closed-form "
                          "pure-dephasing path")
    cfg = IntegratorConfig()
    grid, end = _output_grid(t_max, None, n_samples)
    ys, n_ok = _integrate(_feedback_rhs(ch, omega0, v0), v0.as_array(), grid, cfg)

    def fields(ts, vs):
        # The paper's formula at every kept sample at once; NaN where it has
        # no fields, as `tracking_fields_general` raises there.
        d1, d2 = _general_denominators(vs)
        n1, n2 = _general_numerators(ch, vs, omega0)
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
            omega = np.column_stack([np.full(len(ts), float(omega0)), n1 / d1, n2 / d2])
        omega[_no_fields(d1, d2)] = np.nan
        return omega

    return _trajectory(grid, ys, n_ok, cfg, end, fields)


def _feedback_rhs(ch: BlochChannel, omega0: float, v0: CoherenceVector):
    """dv/dt under state-feedback fields recomputed from the raw state.

    NaN where no fields exist or they are not finite, so the solver tries a
    shorter step; raises unless v0 has a rate, since RK45 never returns from
    a NaN first step.
    """
    m0, k = ch.m0, ch.k

    def rate(v):
        w1, w2 = tracking_fields_general(ch, v, omega0)
        return (m0 + control_matrix(omega0, w1, w2)) @ v + k

    def rhs(t, v):
        try:
            return rate(v)
        except DomainError:
            return np.full(3, np.nan)

    rate(v0.as_array())
    return rhs


def detect_breakdown(ch: BlochChannel, v0: CoherenceVector, omega0: float,
                     t_cap: float) -> float:
    """Numerically detect breakdown by running the state-feedback controller.

    Integrates until |v_z| falls below DETECT_VZ_FLOOR and returns that time
    (inf if not before t_cap); used to cross-check the closed-form breakdown
    time independently, at the default tolerances of IntegratorConfig. A
    NaN or negative t_cap, and a solver that stops early, raise DomainError.
    """
    if not t_cap >= 0:
        raise DomainError(f"t_cap must be >= 0, got {t_cap}")
    if v0.vz == 0.0:
        return 0.0

    def hit_floor(t, v):
        return abs(v[2]) - DETECT_VZ_FLOOR

    hit_floor.terminal = True
    hit_floor.direction = -1
    sol = _solve(_feedback_rhs(ch, omega0, v0), (0.0, t_cap), v0.as_array(),
                 IntegratorConfig(), events=hit_floor)
    if sol.status == -1:
        raise DomainError(f"breakdown detection stopped at t={sol.t[-1]}: {sol.message}")
    if sol.t_events[0].size:
        return float(sol.t_events[0][0])
    return math.inf


def classify_singularity(traj: Trajectory, ch: BlochChannel) -> SingularityReport:
    """Classify zeros of the field-formula denominators along a trajectory.

    A denominator is zero where |D| <= EPS_DENOMINATOR. `trivial` means one
    vanishes over >= TRIVIAL_RUN_LENGTH consecutive samples; an isolated zero
    is `nontrivial-a` (numerator above EPS_NUMERATOR at the scale of omega0,
    m0 and k, no field solution) or
    `nontrivial-b` (0/0, a limit may exist). A trajectory that
    terminated with breakdown contributes a virtual sample at t_b with
    v_z = 0.
    """
    ts, vs, w0s = traj.t, traj.v, traj.omega[:, 0]
    if traj.termination.kind == "breakdown" and traj.termination.time is not None:
        ts = np.append(ts, traj.termination.time)
        vs = np.vstack([vs, [vs[-1, 0], vs[-1, 1], 0.0]])
        w0s = np.append(w0s, w0s[-1])

    d1s, d2s = _general_denominators(vs)
    zero1 = np.abs(d1s) <= EPS_DENOMINATOR
    zero2 = np.abs(d2s) <= EPS_DENOMINATOR

    def report(cls, j, note=""):
        d1, d2 = float(d1s[j]), float(d2s[j])
        n1, n2 = map(float, _general_numerators(ch, vs[j], w0s[j]))
        if cls is None:
            # An isolated zero: no field solves a vanishing row whose numerator
            # is above EPS_NUMERATOR at the run's scale; otherwise 0/0.
            eps = EPS_NUMERATOR * _numerator_scale(ch, w0s[j])
            unsolvable = (zero1[j] and abs(n1) > eps) or (zero2[j] and abs(n2) > eps)
            cls = "nontrivial-a" if unsolvable else "nontrivial-b"
        return SingularityReport(cls, t=float(ts[j]), d1=d1, d2=d2, n1=n1, n2=n2,
                                 note=note)

    for zero in (zero1, zero2):
        # Longest run of zeros, the first of equal length.
        edges = np.diff(zero.astype(int), prepend=0, append=0)
        starts, ends = np.flatnonzero(edges == 1), np.flatnonzero(edges == -1)
        if len(starts):
            k = int(np.argmax(ends - starts))
            if ends[k] - starts[k] >= TRIVIAL_RUN_LENGTH:
                start = int(starts[k])
                return report("trivial", start,
                              "no control possible" if start == 0 else "")

    hits = np.flatnonzero(zero1 | zero2)
    if len(hits):
        return report(None, int(hits[0]))
    return SingularityReport("none")

