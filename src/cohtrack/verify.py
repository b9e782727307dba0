"""Verification harness: reruns the library's quantitative claims end to end.

Each check returns the measured value alongside its tolerance so the CLI can
print one pass/fail line per check. Suites: `figures` (the three published
figures plus the field-magnitude identity), `oracle` (coherence-vector vs
density-matrix propagation), `properties` (monotonicity, equivalence-class
and singularity behavior, exact algebra), `all`.
"""

from __future__ import annotations

import math
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .bloch import (
    LAMBDA_0,
    LAMBDA_1,
    LAMBDA_2,
    BlochChannel,
    CoherenceVector,
    GKSMatrix,
    bloch_to_density,
    density_to_bloch,
    gks_to_channel,
)
from .config import SweepSpec
from .dynamics import IntegratorConfig, propagate_bloch, propagate_density, purity_rate
from .equivalence import HADAMARD, Rotation3, Unitary2, su2_to_so3, transform_channel
from .errors import DomainError
from .scenarios import sweep_breakdown
from .svgplot import read_csv_columns
from .tracking import (
    breakdown_time,
    classify_singularity,
    detect_breakdown,
    omega_magnitude_sq,
    simulate_tracked,
    tracking_fields_dephasing,
)
from .waveform import ControlWaveform

DEFAULT_SEED = 12345

GAMMA = 0.1
OMEGA0 = 4.0
FIG_V0 = CoherenceVector(math.sqrt(0.15), math.sqrt(0.15), math.sqrt(0.5))
T_B_EXPECTED = 25.0 / 3.0
# Direct evaluation of the closed-form fields at t = 0 with the figure
# parameters: omega1(0) = 3.9 sqrt(0.3), omega2(0) = -4.1 sqrt(0.3).
OMEGA1_AT_0 = 3.9 * math.sqrt(0.3)
OMEGA2_AT_0 = -4.1 * math.sqrt(0.3)


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    measured: float
    tolerance: float
    detail: str = ""

    def line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        extra = f" ({self.detail})" if self.detail else ""
        return (f"{status} {self.name}: measured={self.measured:.6g} "
                f"tolerance={self.tolerance:.6g}{extra}")


def _result(name, measured, tolerance, detail=""):
    return CheckResult(name, measured <= tolerance, float(measured),
                       float(tolerance), detail)


def _random_gks(rng, unital=False, scale=0.3) -> GKSMatrix:
    if unital:
        g = rng.normal(size=(3, 3))
        a = g @ g.T
    else:
        g = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
        a = g @ g.conj().T
    a *= scale / max(1.0, np.linalg.norm(a))
    return GKSMatrix(a)


def _random_state(rng, r_max=0.9) -> CoherenceVector:
    u = rng.normal(size=3)
    u /= np.linalg.norm(u)
    return CoherenceVector.from_array(r_max * rng.random() * u)


def _random_piecewise(rng, t_max, n_seg=5, amp=2.0) -> ControlWaveform:
    edges = np.linspace(0.0, t_max, n_seg + 1)
    values = rng.uniform(-amp, amp, size=(n_seg, 3))
    return ControlWaveform.piecewise_constant(edges, values)


def _random_su2(rng) -> Unitary2:
    g = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    q, r = np.linalg.qr(g)
    q = q @ np.diag(r.diagonal() / np.abs(r.diagonal()))
    q /= np.sqrt(np.linalg.det(q))
    return Unitary2(q)


def _rot_z(theta: float) -> Rotation3:
    c, s = math.cos(theta), math.sin(theta)
    return Rotation3(np.array([[c, -s, 0.0], [s, c, 0.0], [0.0, 0.0, 1.0]]))


# --- criteria ----------------------------------------------------------------

def check_breakdown_time(seed=DEFAULT_SEED):
    start = time.perf_counter()
    t_b = breakdown_time(FIG_V0, GAMMA)
    results = [_result("breakdown-time/closed-form", abs(t_b - T_B_EXPECTED), 1e-12)]
    detected = detect_breakdown(BlochChannel.dephasing(GAMMA), FIG_V0, OMEGA0,
                                t_cap=12.0)
    results.append(_result("breakdown-time/detected",
                           abs(detected - T_B_EXPECTED) / T_B_EXPECTED, 0.01,
                           f"detected t_b={detected:.6g}"))
    results.append(_result("breakdown-time/runtime",
                           time.perf_counter() - start, 1.0, "seconds"))
    return results


def check_fig2(seed=DEFAULT_SEED):
    start = time.perf_counter()
    ch = BlochChannel.dephasing(GAMMA)
    t_b = breakdown_time(FIG_V0, GAMMA)
    traj = simulate_tracked(ch, FIG_V0, OMEGA0, t_max=10.0, n_samples=2001)
    mask = traj.t <= 0.99 * t_b
    vx_err = float(np.max(np.abs(traj.v[mask, 0] - math.sqrt(0.15))))
    vz_ref = np.sqrt(0.5 - 0.06 * traj.t[mask])
    vz_err = float(np.max(np.abs(traj.v[mask, 2] - vz_ref)))
    free = propagate_bloch(ch, ControlWaveform.zero(), FIG_V0, 10.0)
    fx_err = float(np.max(np.abs(
        free.v[:, 0] - math.sqrt(0.15) * np.exp(-GAMMA * free.t))))
    fz_err = float(np.max(np.abs(free.v[:, 2] - math.sqrt(0.5))))
    return [
        _result("fig2/controlled-vx-constant", vx_err, 1e-6),
        _result("fig2/controlled-vz-closed-form", vz_err, 1e-6),
        _result("fig2/free-vx-decay", fx_err, 1e-9),
        _result("fig2/free-vz-constant", fz_err, 1e-9),
        _result("fig2/runtime", time.perf_counter() - start, 1.0, "seconds"),
    ]


def check_fig3(seed=DEFAULT_SEED):
    w1, w2 = tracking_fields_dephasing(FIG_V0, GAMMA, OMEGA0, 0.0)
    results = [
        _result("fig3/omega1-at-0", abs(w1 - OMEGA1_AT_0), 1e-9,
                f"omega1(0)={w1:.9g}"),
        _result("fig3/omega2-at-0", abs(w2 - OMEGA2_AT_0), 1e-9,
                f"omega2(0)={w2:.9g}"),
    ]
    t_b = breakdown_time(FIG_V0, GAMMA)
    ts = np.linspace(0.9 * t_b, 0.999 * t_b, 50)
    for idx, name in ((0, "omega1"), (1, "omega2")):
        vals = [abs(tracking_fields_dephasing(FIG_V0, GAMMA, OMEGA0, t)[idx])
                for t in ts]
        slope = np.polyfit(np.log(t_b - ts), np.log(vals), 1)[0]
        results.append(_result(f"fig3/{name}-divergence-exponent",
                               abs(slope + 0.5), 0.02, f"slope={slope:.4f}"))
    return results


def check_fig1_sweep(seed=DEFAULT_SEED):
    start = time.perf_counter()
    rng = np.random.default_rng(seed)
    with tempfile.TemporaryDirectory() as tmp:
        spec = SweepSpec.from_dict({
            "gamma": GAMMA,
            "c": {"min": 0.01, "max": 1.0, "count": 100},
            "p": {"min": 0.01, "max": 1.0, "count": 100},
            "output": str(Path(tmp) / "sweep.csv"),
        })
        path = sweep_breakdown(spec)
        _, rows, _ = read_csv_columns(path)
    worst = 0.0
    feasible = []
    for c, p, t_b in rows:
        if c > p:
            if t_b is not None:
                worst = math.inf
            continue
        expected = (p - c) / (0.2 * c)
        if t_b != expected:
            worst = max(worst, abs(t_b - expected))
        if 0.5 <= expected <= 100.0:
            feasible.append((c, p, expected))
    results = [_result("fig1/closed-form-exact", worst, 0.0)]
    worst_rel = 0.0
    for i in rng.choice(len(feasible), size=10, replace=False):
        c, p, t_b = feasible[i]
        r = math.sqrt(c / 2.0)
        v0 = CoherenceVector(r, r, math.sqrt(p - c))
        detected = detect_breakdown(BlochChannel.dephasing(GAMMA), v0, OMEGA0,
                                    t_cap=1.5 * t_b)
        worst_rel = max(worst_rel, abs(detected - t_b) / t_b)
    results.append(_result("fig1/simulation-spot-check", worst_rel, 0.01))
    results.append(_result("fig1/runtime", time.perf_counter() - start, 10.0,
                           "seconds"))
    return results


def check_oracle(seed=DEFAULT_SEED):
    start = time.perf_counter()
    rng = np.random.default_rng(seed)
    cfg = IntegratorConfig(rtol=1e-10, atol=1e-12)
    worst = 0.0
    for _ in range(100):
        a = _random_gks(rng)
        v0 = _random_state(rng)
        w = _random_piecewise(rng, 5.0)
        tb = propagate_bloch(gks_to_channel(a)[1], w, v0, 5.0, cfg, n_samples=11)
        td = propagate_density(a, w, bloch_to_density(v0), 5.0, cfg, n_samples=11)
        worst = max(worst, float(np.max(np.abs(tb.v - td.v))))
    return [
        _result("oracle/bloch-vs-density", worst, 1e-8),
        _result("oracle/runtime", time.perf_counter() - start, 30.0, "seconds"),
    ]


def check_purity_monotonicity(seed=DEFAULT_SEED):
    rng = np.random.default_rng(seed)
    worst_increase = -math.inf
    for _ in range(100):
        a = _random_gks(rng, unital=True)
        _, ch = gks_to_channel(a)
        v0 = _random_state(rng)
        w = _random_piecewise(rng, 3.0)
        traj = propagate_bloch(ch, w, v0, 3.0, n_samples=31)
        worst_increase = max(worst_increase, float(np.max(np.diff(traj.p))))
    results = [_result("purity/unital-monotone", worst_increase, 1e-10,
                       "max per-step purity increase")]

    a = _random_gks(rng, unital=True)
    _, ch = gks_to_channel(a)
    v0 = _random_state(rng)
    rate = purity_rate(ch, v0)
    h = 1e-4
    fd_rates = []
    for _ in range(10):
        w = ControlWaveform.constant(*rng.uniform(-3.0, 3.0, size=3))
        traj = propagate_bloch(ch, w, v0, 2.0 * h, n_samples=3)
        fd = (-3.0 * traj.p[0] + 4.0 * traj.p[1] - traj.p[2]) / (2.0 * h)
        fd_rates.append(fd)
    worst_fd = max(abs(fd - rate) for fd in fd_rates)
    spread = max(fd_rates) - min(fd_rates)
    results.append(_result("purity/no-cooling-vs-rate", worst_fd, 1e-8))
    results.append(_result("purity/no-cooling-spread", spread, 1e-8))
    return results


def check_field_magnitude(seed=DEFAULT_SEED):
    t_b = breakdown_time(FIG_V0, GAMMA)
    worst = 0.0
    for t in np.linspace(0.0, 0.95 * t_b, 100):
        closed = omega_magnitude_sq(FIG_V0, GAMMA, OMEGA0, float(t))
        w1, w2 = tracking_fields_dephasing(FIG_V0, GAMMA, OMEGA0, float(t))
        worst = max(worst, abs(closed - (OMEGA0**2 + w1**2 + w2**2)))
    at_zero = omega_magnitude_sq(FIG_V0, GAMMA, OMEGA0, 0.0)
    return [
        _result("field-magnitude/identity", worst, 1e-12),
        _result("field-magnitude/at-0", abs(at_zero - 25.606), 1e-9,
                f"|Omega(0)|^2={at_zero:.6f}"),
    ]


def check_equivalence(seed=DEFAULT_SEED):
    rng = np.random.default_rng(seed)
    results = []
    phase_flip = GKSMatrix(np.diag([0.0, 0.0, GAMMA / 2.0]).astype(complex))
    bit_flip = transform_channel(phase_flip, HADAMARD)
    expected = np.diag([GAMMA / 2.0, 0.0, 0.0])
    results.append(_result("equiv/hadamard-phase-to-bit-flip",
                           float(np.max(np.abs(bit_flip.matrix - expected))),
                           1e-12))
    u_flip = Unitary2(np.array([[0.0, 1.0], [-1.0, 0.0]], dtype=complex))
    r = su2_to_so3(u_flip)
    results.append(_result("equiv/exp-i-pi-sy-2-rotation",
                           float(np.max(np.abs(r.matrix - np.diag([-1.0, 1.0, -1.0])))),
                           1e-12))
    worst_hom, worst_cover = 0.0, 0.0
    for _ in range(100):
        u1, u2 = _random_su2(rng), _random_su2(rng)
        r12 = su2_to_so3(Unitary2(u1.matrix @ u2.matrix)).matrix
        r1r2 = su2_to_so3(u1).matrix @ su2_to_so3(u2).matrix
        worst_hom = max(worst_hom, float(np.max(np.abs(r12 - r1r2))))
        r_minus = su2_to_so3(Unitary2(-u1.matrix)).matrix
        worst_cover = max(worst_cover,
                          float(np.max(np.abs(r_minus - su2_to_so3(u1).matrix))))
    results.append(_result("equiv/homomorphism", worst_hom, 1e-12))
    results.append(_result("equiv/double-cover", worst_cover, 0.0))
    t_b = breakdown_time(FIG_V0, GAMMA)
    y_flip = Rotation3(np.diag([-1.0, 1.0, -1.0]))
    worst_tb = 0.0
    for theta in rng.uniform(0.0, 2.0 * math.pi, size=20):
        for rot in (_rot_z(float(theta)),
                    Rotation3(y_flip.matrix @ _rot_z(float(theta)).matrix)):
            v_rot = CoherenceVector.from_array(rot.matrix @ FIG_V0.as_array())
            worst_tb = max(worst_tb, abs(breakdown_time(v_rot, GAMMA) - t_b))
    results.append(_result("equiv/breakdown-time-invariance", worst_tb, 1e-14))
    return results


def check_singularity(seed=DEFAULT_SEED):
    ch = BlochChannel.dephasing(GAMMA)
    t_b = breakdown_time(FIG_V0, GAMMA)
    traj = simulate_tracked(ch, FIG_V0, OMEGA0, t_max=10.0)
    report = classify_singularity(traj, ch)
    ok_a = report.classification == "nontrivial-a" and abs(report.t - t_b) <= 1e-6
    results = [_result("singularity/tracked-nontrivial-a", 0.0 if ok_a else 1.0, 0.0,
                       f"class={report.classification} t={report.t:.6g}")]

    v_eq = CoherenceVector(math.sqrt(0.15), math.sqrt(0.15), 0.0)
    try:
        simulate_tracked(ch, v_eq, OMEGA0, t_max=1.0)
        ok_b, detail = False, "no error raised"
    except DomainError as e:
        ok_b = "no control is possible" in str(e)
        detail = str(e)
    free = propagate_bloch(ch, ControlWaveform.zero(), v_eq, 1.0, n_samples=51)
    rep_eq = classify_singularity(free, ch)
    ok_b = ok_b and rep_eq.classification == "trivial" and rep_eq.t == 0.0
    results.append(_result("singularity/equator-uncontrollable", 0.0 if ok_b else 1.0,
                           0.0, detail))

    ch0 = BlochChannel.dephasing(0.0)
    traj0 = simulate_tracked(ch0, FIG_V0, OMEGA0, t_max=5.0)
    rep0 = classify_singularity(traj0, ch0)
    ok_c = rep0.classification == "none"
    results.append(_result("singularity/gamma-zero-none", 0.0 if ok_c else 1.0, 0.0,
                           f"class={rep0.classification}"))
    return results


def check_exact_algebra(seed=DEFAULT_SEED):
    comm = lambda a, b: a @ b - b @ a
    exact = (np.array_equal(comm(LAMBDA_0, LAMBDA_1), -LAMBDA_2)
             and np.array_equal(comm(LAMBDA_1, LAMBDA_2), -LAMBDA_0)
             and np.array_equal(comm(LAMBDA_2, LAMBDA_0), -LAMBDA_1))
    results = [_result("algebra/so3-commutators-exact", 0.0 if exact else 1.0, 0.0)]
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(1000):
        v = _random_state(rng, r_max=0.999)
        back = density_to_bloch(bloch_to_density(v))
        worst = max(worst,
                    float(np.max(np.abs(back.as_array() - v.as_array()))))
    results.append(_result("algebra/bloch-density-round-trip", worst, 1e-14))
    return results


CRITERIA = [
    ("1", check_breakdown_time),
    ("2", check_fig2),
    ("3", check_fig3),
    ("4", check_fig1_sweep),
    ("5", check_oracle),
    ("6", check_purity_monotonicity),
    ("7", check_field_magnitude),
    ("8", check_equivalence),
    ("9", check_singularity),
    ("10", check_exact_algebra),
]

SUITES = {
    "figures": ["1", "2", "3", "4", "7"],
    "oracle": ["5"],
    "properties": ["6", "8", "9", "10"],
}
SUITES["all"] = [num for num, _ in CRITERIA]


def run_suite(suite: str, seed: int = DEFAULT_SEED) -> bool:
    """Run a named suite, printing one line per check; True iff all passed."""
    if suite not in SUITES:
        raise ValueError(f"unknown suite {suite!r}; choose from {sorted(SUITES)}")
    wanted = set(SUITES[suite])
    print(f"suite={suite} seed={seed}")
    all_ok = True
    for num, fn in CRITERIA:
        if num not in wanted:
            continue
        for res in fn(seed=seed):
            print(res.line())
            all_ok = all_ok and res.passed
    print("RESULT " + ("PASS" if all_ok else "FAIL"))
    return all_ok
