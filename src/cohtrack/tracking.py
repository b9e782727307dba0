"""Synthesis of the coherence-holding control fields and their singularities.

The controller keeps the in-plane components of the Bloch vector fixed at
their initial values (a linearization of the constant-coherence objective).
For pure dephasing this has a closed form: v_z(t) = s sqrt(v_z(0)^2 - 2 gamma c t)
with breakdown at t_b = v_z(0)^2 / (2 gamma c), where the synthesized fields
diverge like (t_b - t)^(-1/2).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.integrate import solve_ivp

from .bloch import (
    LAMBDA_0,
    LAMBDA_1,
    LAMBDA_2,
    BlochChannel,
    CoherenceVector,
    coherence,
    control_matrix,
)
from .dynamics import (
    BREAKDOWN_GUARD,
    IntegratorConfig,
    SingularityReport,
    Termination,
    Trajectory,
    _integrate,
    _output_grid,
    _trajectory,
    propagate_bloch,
)
from .equivalence import _z_dephasing_rate
from .errors import DomainError, PastBreakdownError, SingularPointError
from .waveform import ControlWaveform

# Objective matrices: S1 = v^t O1 v = v_x^2, S2 = v^t O2 v = v_y^2.
# They commute with their paired generator: [O1, L1] = [O2, L2] = 0.
O_1 = np.diag([1, 0, 0]).astype(int)
O_2 = np.diag([0, 1, 0]).astype(int)

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
    if gamma < 0:
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
    return terms.vz(t)


@dataclass(frozen=True)
class _DephasingTerms:
    """The closed-form dephasing solution from one state, time counted from it.

    v_z(t) = sign sqrt(radicand(t)) with radicand(t) = vz0_sq - two_gamma_c t,
    and omega_i(t) = num_i / sqrt(radicand(t)), the sign folded into num_i.
    `radicand` has no guard; `denominator` and `fields` refuse times from
    guard_end = t_b (1 - guard) on.
    """

    sign: float
    num1: float
    num2: float
    vz0_sq: float
    two_gamma_c: float
    t_b: float
    guard_end: float

    def radicand(self, t: float) -> float:
        return self.vz0_sq - self.two_gamma_c * t

    def vz(self, t: float) -> float:
        return self.sign * math.sqrt(max(0.0, self.radicand(t)))

    def denominator(self, t: float) -> float:
        if t >= self.guard_end:
            raise PastBreakdownError(t, self.t_b)
        return math.sqrt(self.radicand(t))

    def fields(self, t: float) -> tuple[float, float]:
        denom = self.denominator(t)
        return self.num1 / denom, self.num2 / denom


def _dephasing_terms(v0: CoherenceVector, gamma: float, omega0: float,
                     t: float = 0.0) -> _DephasingTerms:
    """Checks gamma >= 0, v_z(0) != 0 and t >= 0 and builds the closed-form terms."""
    vz0_sq = v0.vz**2
    two_gamma_c, t_b = map(float, _breakdown(vz0_sq, coherence(v0), gamma))
    if v0.vz == 0.0:
        raise DomainError("v_z(0) = 0: no control is possible")
    if t < 0:
        raise DomainError(f"t must be >= 0, got {t}")
    s = 1.0 if v0.vz > 0 else -1.0
    return _DephasingTerms(
        sign=s,
        num1=s * (-gamma * v0.vy + omega0 * v0.vx),
        num2=s * (-gamma * v0.vx - omega0 * v0.vy),
        vz0_sq=vz0_sq,
        two_gamma_c=two_gamma_c,
        t_b=t_b,
        guard_end=t_b * (1.0 - BREAKDOWN_GUARD),
    )


def tracking_fields_dephasing(v0: CoherenceVector, gamma: float, omega0: float,
                              t: float) -> tuple[float, float]:
    """Closed-form in-plane fields holding v_x, v_y constant under dephasing."""
    return _dephasing_terms(v0, gamma, omega0, t).fields(t)


def _general_numerators(ch: BlochChannel, v: np.ndarray,
                        omega0: float) -> tuple[float, float]:
    m0, k = ch.m0, ch.k
    n1 = (-omega0 * float(v @ (LAMBDA_0 @ O_2 - O_2 @ LAMBDA_0) @ v)
          + float(v @ (m0 @ O_2 + O_2 @ m0) @ v)
          + float(k @ O_2 @ v) + float(v @ O_2 @ k))
    n2 = (-omega0 * float(v @ (LAMBDA_0 @ O_1 - O_1 @ LAMBDA_0) @ v)
          + float(v @ (m0 @ O_1 + O_1 @ m0) @ v)
          + float(k @ O_1 @ v) + float(v @ O_1 @ k))
    return n1, n2


def _general_denominators(v: np.ndarray) -> tuple[float, float]:
    d1 = float(v @ (LAMBDA_1 @ O_2 - O_2 @ LAMBDA_1) @ v)   # = 2 v_y v_z
    d2 = float(v @ (LAMBDA_2 @ O_1 - O_1 @ LAMBDA_2) @ v)   # = 2 v_x v_z
    return d1, d2


def _numerator_scale(ch: BlochChannel, omega0: float) -> float:
    """Largest of |omega0| and the entries of |m0| and |k|: the numerators' scale.

    N1 and N2 are linear in omega0, m0 and k, so under the rescaling
    gamma -> lambda gamma, omega0 -> lambda omega0, t -> t / lambda, which
    leaves the trajectory unchanged, they scale with this number.
    """
    return max(abs(float(omega0)), float(np.max(np.abs(ch.m0))),
               float(np.max(np.abs(ch.k))))


def _isolated_zero_class(n1: float, n2: float, zero1: bool, zero2: bool,
                         scale: float) -> str:
    """Class of an isolated denominator zero, from the vanishing rows' numerators.

    `nontrivial-a` when one of them exceeds EPS_NUMERATOR times the run's
    `_numerator_scale` (no field solves that row), else `nontrivial-b` (0/0,
    a limit may exist).
    """
    eps = EPS_NUMERATOR * scale
    if (zero1 and abs(n1) > eps) or (zero2 and abs(n2) > eps):
        return "nontrivial-a"
    return "nontrivial-b"


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
    zero1, zero2 = abs(d1) <= 1e-12, abs(d2) <= 1e-12
    if zero1 or zero2:
        cls = _isolated_zero_class(n1, n2, zero1, zero2, _numerator_scale(ch, omega0))
        report = SingularityReport(cls, t=math.nan, d1=d1, d2=d2, n1=n1, n2=n2)
        raise SingularPointError(
            f"vanishing field denominator (D1={d1:.3e}, D2={d2:.3e})", report
        )
    return n1 / d1, n2 / d2


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

    Without a clip level the waveform ends at t_b; its fields refuse times
    from t_b (1 - BREAKDOWN_GUARD) on, where a run stops sampling, so they
    stay finite in double precision. It records as its `reference` the state
    the fields hold, v*(t) = (v_x(0), v_y(0), v_z(t)), and its rate. With
    omega_max, each in-plane field is clamped independently once it would
    exceed the level, the waveform is defined for all times (the fields
    saturate), and the clamp times are breakpoints; it has no reference.
    """
    terms = _dephasing_terms(v0, gamma, omega0)

    if omega_max is None:
        def fields(t):
            w1, w2 = terms.fields(t)
            return (omega0, w1, w2)

        def reference(t):
            # v* = (v_x0, v_y0, v_z(t)) and dv*/dt = (0, 0, -gamma c / v_z(t)).
            vz = terms.vz(t)
            return (np.array([v0.vx, v0.vy, vz]),
                    np.array([0.0, 0.0, -0.5 * terms.two_gamma_c / vz]))

        return ControlWaveform._holding(fields, terms.t_b, reference)

    if omega_max <= 0:
        raise DomainError(f"omega_max must be positive, got {omega_max}")
    num1, num2 = terms.num1, terms.num2

    def clipped(t):
        if t >= terms.guard_end:
            w1 = math.copysign(omega_max, num1) if num1 != 0 else 0.0
            w2 = math.copysign(omega_max, num2) if num2 != 0 else 0.0
            return (omega0, w1, w2)
        w1, w2 = terms.fields(t)
        return (omega0,
                max(-omega_max, min(omega_max, w1)),
                max(-omega_max, min(omega_max, w2)))

    # The fields have a kink where each is clamped and another at guard_end.
    kinks = {t for t in _clip_times(terms, omega_max) if 0.0 < t < terms.guard_end}
    if not math.isinf(terms.guard_end):
        kinks.add(terms.guard_end)
    return ControlWaveform(clipped, breakpoints=kinks)


def _clip_times(terms: _DephasingTerms, omega_max: float) -> tuple[float, float]:
    """Times at which the tracked omega1 and omega2 each reach omega_max (inf: never)."""
    times = []
    for num in (terms.num1, terms.num2):
        if num == 0.0:
            times.append(math.inf)
        elif terms.two_gamma_c == 0.0:
            # Constant field num / |v_z(0)|: clips at t = 0 or never.
            times.append(0.0 if abs(num) / math.sqrt(terms.vz0_sq) >= omega_max
                         else math.inf)
        else:
            radicand = (num / omega_max) ** 2
            times.append(max(0.0, (terms.vz0_sq - radicand) / terms.two_gamma_c))
    return times[0], times[1]


def clip_time(v0: CoherenceVector, gamma: float, omega0: float,
              omega_max: float) -> float:
    """First time at which either in-plane tracked field reaches omega_max."""
    return min(_clip_times(_dephasing_terms(v0, gamma, omega0), omega_max))


def simulate_tracked(ch: BlochChannel, v0: CoherenceVector, omega0: float,
                     t_max: float, omega_max: float | None = None,
                     cfg: IntegratorConfig | None = None,
                     n_samples: int = 501) -> Trajectory:
    """Propagate the channel under the synthesized coherence-holding fields.

    Channels that dephase about z (m0 = diag(-gamma, -gamma, 0) to the
    dephasing-class tolerance) use the closed-form fields; any other channel
    is driven by state-feedback fields recomputed from the current state at
    every integrator evaluation. Termination records horizon, breakdown at
    t_b, or the first clip time when omega_max is given.
    """
    if v0.vz == 0.0:
        raise DomainError("v_z(0) = 0: no control is possible")
    gamma = _z_dephasing_rate(ch)
    if gamma is not None:
        w = tracked_waveform(v0, gamma, omega0, omega_max)
        traj = propagate_bloch(ch, w, v0, t_max, cfg, n_samples)
        if omega_max is not None:
            t_clip = clip_time(v0, gamma, omega0, omega_max)
            if t_clip < t_max and traj.termination.kind == "horizon":
                traj = traj.with_termination(Termination("clipped", t_clip))
        return traj

    if omega_max is not None:
        raise DomainError("field clipping is only supported on the closed-form "
                          "pure-dephasing path")
    cfg = cfg or IntegratorConfig()
    grid, end = _output_grid(t_max, None, n_samples)
    try:
        ys, n_ok = _integrate(_feedback_rhs(ch, omega0), v0.as_array(), grid, cfg)
    except SingularPointError:
        ys, n_ok = np.array([v0.as_array()]), 1

    def fields(ts, vs):
        omega = np.full((len(ts), 3), np.nan)
        for i, v in enumerate(vs):
            try:
                omega[i] = (omega0, *tracking_fields_general(ch, v, omega0))
            except SingularPointError:
                pass
        return omega

    return _trajectory(grid, ys, n_ok, cfg, end, fields)


def _feedback_rhs(ch: BlochChannel, omega0: float):
    """dv/dt under state-feedback fields recomputed from the raw state."""
    m0, k = ch.m0, ch.k

    def rhs(t, v):
        w1, w2 = tracking_fields_general(ch, v, omega0)
        return (m0 + control_matrix(omega0, w1, w2)) @ v + k

    return rhs


def detect_breakdown(ch: BlochChannel, v0: CoherenceVector, omega0: float,
                     t_cap: float) -> float:
    """Numerically detect breakdown by running the state-feedback controller.

    Integrates until |v_z| falls below DETECT_VZ_FLOOR and returns that time; used
    to cross-check the closed-form breakdown time independently, at the
    default tolerances of IntegratorConfig.
    """
    if v0.vz == 0.0:
        return 0.0
    cfg = IntegratorConfig()

    def hit_floor(t, v):
        return abs(v[2]) - DETECT_VZ_FLOOR

    hit_floor.terminal = True
    hit_floor.direction = -1
    sol = solve_ivp(_feedback_rhs(ch, omega0), (0.0, t_cap), v0.as_array(),
                    method="RK45", rtol=cfg.rtol, atol=cfg.atol, events=hit_floor)
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
    if len(traj.t) == 0:
        raise DomainError("cannot classify an empty trajectory")
    ts, vs, w0s = traj.t, traj.v, traj.omega[:, 0]
    if traj.termination.kind == "breakdown" and traj.termination.time is not None:
        ts = np.append(ts, traj.termination.time)
        vs = np.vstack([vs, [vs[-1, 0], vs[-1, 1], 0.0]])
        w0s = np.append(w0s, w0s[-1])

    # Screen whole arrays for zeros of D1 = 2 v_y v_z and D2 = 2 v_x v_z; the
    # quadratic forms of `_general_denominators` that give the reported values
    # are NaN, never zero, when any component is not finite.
    finite = np.all(np.isfinite(vs), axis=1)
    zero1 = finite & (np.abs(2.0 * vs[:, 1] * vs[:, 2]) <= EPS_DENOMINATOR)
    zero2 = finite & (np.abs(2.0 * vs[:, 0] * vs[:, 2]) <= EPS_DENOMINATOR)

    def report(cls, j, note=""):
        d1, d2 = _general_denominators(vs[j])
        n1, n2 = _general_numerators(ch, vs[j], w0s[j])
        if cls is None:
            cls = _isolated_zero_class(n1, n2, zero1[j], zero2[j],
                                       _numerator_scale(ch, w0s[j]))
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

