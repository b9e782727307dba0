"""Control synthesis, breakdown, clipping, and singularities."""

import math
import tempfile

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cohtrack.bloch import (
    BlochChannel,
    CoherenceVector,
    GKSMatrix,
    coherence,
    gks_to_channel,
)
from cohtrack.dynamics import (
    BREAKDOWN_GUARD,
    IntegratorConfig,
    Termination,
    Trajectory,
    propagate_bloch,
    purity_rate,
)
from cohtrack.config import SweepSpec
from cohtrack.errors import (
    DomainError,
    PastBreakdownError,
    SingularPointError,
    ValidationError,
)
from cohtrack.tracking import (
    SingularityReport,
    _general_denominators,
    _general_numerators,
    breakdown_time,
    classify_singularity,
    clip_time,
    detect_breakdown,
    omega_magnitude_sq,
    simulate_tracked,
    tracked_waveform,
    tracking_fields_dephasing,
    tracking_fields_general,
    vz_tracked,
)
from cohtrack.scenarios import sweep_breakdown
from cohtrack.svgplot import read_csv_columns
from cohtrack.waveform import ControlWaveform

GAMMA = 0.1
OMEGA0 = 4.0
V0 = CoherenceVector(math.sqrt(0.15), math.sqrt(0.15), math.sqrt(0.5))
T_B = 25.0 / 3.0
DEPHASING = BlochChannel.dephasing(GAMMA)


class TestBreakdownTime:
    def test_reference_value(self):
        assert abs(breakdown_time(V0, GAMMA) - T_B) <= 1e-12

    def test_infinite_when_no_dephasing_or_no_coherence(self):
        assert breakdown_time(V0, 0.0) == math.inf
        pole = CoherenceVector(0.0, 0.0, 0.9)
        assert breakdown_time(pole, GAMMA) == math.inf

    def test_zero_on_equator(self):
        eq = CoherenceVector(0.5, 0.5, 0.0)
        assert breakdown_time(eq, GAMMA) == 0.0

    def test_negative_rate_rejected(self):
        with pytest.raises(DomainError):
            breakdown_time(V0, -0.1)

    def test_sign_symmetric_in_vz(self):
        down = CoherenceVector(V0.vx, V0.vy, -V0.vz)
        assert breakdown_time(down, GAMMA) == breakdown_time(V0, GAMMA)

    def test_infinite_when_two_gamma_c_underflows(self):
        # gamma and c are positive, but 2 gamma c underflows to zero.
        v0 = CoherenceVector(6.84606659750733e-09, 0.0, -0.5)
        gamma = 2.2250738585072014e-308
        assert 2.0 * gamma * coherence(v0) == 0.0
        assert breakdown_time(v0, gamma) == math.inf
        w = tracked_waveform(v0, gamma, 0.0)
        assert w.t_end is None
        assert np.all(np.isfinite(w(5.0)))

    @given(st.integers(0, 1024), st.integers(0, 1024),
           st.one_of(st.sampled_from([0.0, 5e-324]), st.floats(1e-3, 1e4)))
    @settings(max_examples=60, deadline=None)
    def test_sweep_cell_is_the_breakdown_time_of_its_state(self, i, j, gamma):
        # v_x = i/1024 and v_z = j/1024 have exact squares, so the state
        # (sqrt(c), 0, sqrt(p - c)) carries the cell's c and p - c exactly.
        # i = 0 is c = 0 and j = 0 is c = p.
        if i * i + j * j > 1024 * 1024:
            return
        c = (i / 1024) ** 2
        p = c + (j / 1024) ** 2
        with tempfile.TemporaryDirectory() as tmp:
            spec = SweepSpec.from_dict({
                "gamma": gamma, "c": {"min": c, "max": c, "count": 1},
                "p": {"min": p, "max": p, "count": 1}, "output": "sweep.csv"})
            [[c_cell, p_cell, t_b]] = read_csv_columns(sweep_breakdown(spec, tmp))[1]
        assert (c_cell, p_cell) == (c, p)
        v0 = CoherenceVector(math.sqrt(c), 0.0, math.sqrt(p - c))
        assert t_b == breakdown_time(v0, gamma)


class TestTrackedSolution:
    def test_vz_closed_form(self):
        for t in np.linspace(0.0, T_B, 20):
            expected = math.sqrt(max(0.0, 0.5 - 0.06 * float(t)))
            assert abs(vz_tracked(V0, GAMMA, float(t)) - expected) <= 1e-12

    def test_vz_negative_branch(self):
        down = CoherenceVector(V0.vx, V0.vy, -V0.vz)
        assert vz_tracked(down, GAMMA, 1.0) < 0

    def test_vz_past_breakdown_rejected(self):
        with pytest.raises(PastBreakdownError):
            vz_tracked(V0, GAMMA, T_B + 0.1)

    def test_equator_start_rejected_with_diagnostic(self):
        eq = CoherenceVector(0.5, 0.5, 0.0)
        with pytest.raises(DomainError, match="no control is possible"):
            tracking_fields_dephasing(eq, GAMMA, OMEGA0, 0.0)

    def test_origin_state_rejected_when_built(self):
        # c = 0 gives t_b = inf; v_z(0) = 0 still leaves nothing to control.
        with pytest.raises(DomainError, match="no control is possible"):
            tracked_waveform(CoherenceVector(0.0, 0.0, 0.0), GAMMA, OMEGA0)

    @pytest.mark.parametrize("omega_max", [None, 5.0], ids=["unclipped", "clipped"])
    def test_negative_rate_rejected_when_built(self, omega_max):
        with pytest.raises(DomainError, match="gamma must be >= 0") as exc:
            tracked_waveform(V0, -0.1, OMEGA0, omega_max)
        assert type(exc.value) is DomainError


class TestFieldSynthesis:
    def test_initial_values(self):
        w1, w2 = tracking_fields_dephasing(V0, GAMMA, OMEGA0, 0.0)
        assert abs(w1 - 3.9 * math.sqrt(0.3)) <= 1e-12
        assert abs(w2 + 4.1 * math.sqrt(0.3)) <= 1e-12

    def test_fields_diverge_toward_breakdown(self):
        w1_a, _ = tracking_fields_dephasing(V0, GAMMA, OMEGA0, 0.9 * T_B)
        w1_b, _ = tracking_fields_dephasing(V0, GAMMA, OMEGA0, 0.999 * T_B)
        assert abs(w1_b) > 9 * abs(w1_a)   # (t_b - t)^(-1/2) growth

    def test_guard_refuses_times_at_breakdown(self):
        with pytest.raises(PastBreakdownError):
            tracking_fields_dephasing(V0, GAMMA, OMEGA0, T_B * (1 - 1e-7))

    def test_magnitude_identity(self):
        for t in np.linspace(0.0, 0.95 * T_B, 25):
            w1, w2 = tracking_fields_dephasing(V0, GAMMA, OMEGA0, float(t))
            closed = omega_magnitude_sq(V0, GAMMA, OMEGA0, float(t))
            assert abs(closed - (OMEGA0**2 + w1**2 + w2**2)) <= 1e-12

    def test_magnitude_reference_value(self):
        assert abs(omega_magnitude_sq(V0, GAMMA, OMEGA0, 0.0) - 25.606) <= 1e-9

    def test_magnitude_negative_time_rejected(self):
        with pytest.raises(DomainError, match="t must be >= 0"):
            omega_magnitude_sq(V0, GAMMA, OMEGA0, -1.0)

    def test_magnitude_equator_start_rejected(self):
        eq = CoherenceVector(0.5, 0.5, 0.0)
        with pytest.raises(DomainError, match="no control is possible") as exc:
            omega_magnitude_sq(eq, GAMMA, OMEGA0, 0.0)
        assert type(exc.value) is DomainError

    @given(st.floats(0.05, 0.6), st.floats(-0.6, 0.6), st.floats(-0.6, 0.6),
           st.floats(0.0, 0.5), st.floats(-4.0, 4.0))
    @settings(max_examples=100)
    def test_general_formula_reduces_to_dephasing(self, vz, vx, vy, gamma, omega0):
        # Denominators are 2 v_y v_z and 2 v_x v_z: keep all three components
        # bounded away from the genuinely singular states.
        if abs(vx) < 1e-2 or abs(vy) < 1e-2 or vx**2 + vy**2 + vz**2 > 1.0:
            return
        v = CoherenceVector(vx, vy, vz)
        ch = BlochChannel.dephasing(gamma)
        got1, got2 = tracking_fields_general(ch, v, omega0)
        # Closed form evaluated at t = 0 with v as the initial state.
        want1 = (omega0 * vx - gamma * vy) / vz
        want2 = (-gamma * vx - omega0 * vy) / vz
        scale = max(1.0, abs(want1), abs(want2))
        assert abs(got1 - want1) <= 1e-10 * scale
        assert abs(got2 - want2) <= 1e-10 * scale

    def test_general_formula_singular_state_raises_with_report(self):
        eq = CoherenceVector(0.5, 0.5, 0.0)
        with pytest.raises(SingularPointError) as exc:
            tracking_fields_general(DEPHASING, eq, OMEGA0)
        report = exc.value.report
        assert report is not None
        assert report.classification in ("nontrivial-a", "nontrivial-b")

    def test_tracking_rhs_matches_closed_form_rate(self):
        # With v_x, v_y held, dp/dt = 2 v_z dv_z/dt, so dv_z/dt = -gamma c / v_z
        # for pure dephasing.
        got = purity_rate(DEPHASING, V0) / (2.0 * V0.vz)
        want = -GAMMA * 0.3 / V0.vz
        assert abs(got - want) <= 1e-12


class TestSimulateTracked:
    def test_holds_in_plane_components(self):
        traj = simulate_tracked(DEPHASING, V0, OMEGA0, t_max=10.0, n_samples=501)
        mask = traj.t <= 0.99 * T_B
        assert np.max(np.abs(traj.v[mask, 0] - V0.vx)) <= 1e-6
        assert np.max(np.abs(traj.v[mask, 1] - V0.vy)) <= 1e-6
        assert traj.termination.kind == "breakdown"
        assert abs(traj.termination.time - T_B) <= 1e-9

    def test_figure_run_stays_on_the_closed_form(self):
        traj = simulate_tracked(DEPHASING, V0, OMEGA0, t_max=10.0, n_samples=2001)
        assert traj.termination.kind == "breakdown"
        want = [[V0.vx, V0.vy, vz_tracked(V0, GAMMA, t)] for t in traj.t.tolist()]
        assert np.max(np.abs(traj.v - want)) <= 1e-10

    def test_horizon_before_breakdown(self):
        traj = simulate_tracked(DEPHASING, V0, OMEGA0, t_max=2.0)
        assert traj.termination.kind == "horizon"
        assert traj.t[-1] == 2.0

    def test_gamma_zero_runs_to_horizon(self):
        ch = BlochChannel.dephasing(0.0)
        traj = simulate_tracked(ch, V0, OMEGA0, t_max=5.0)
        assert traj.termination.kind == "horizon"
        assert np.max(np.abs(traj.c - traj.c[0])) <= 1e-8

    def test_equator_start_rejected(self):
        eq = CoherenceVector(0.5, 0.5, 0.0)
        with pytest.raises(DomainError, match="no control is possible"):
            simulate_tracked(DEPHASING, eq, OMEGA0, t_max=1.0)

    def test_non_finite_omega0_rejected_before_the_solver(self, no_solver):
        # Before the waveform check at t = 0 this run never returned.
        with pytest.raises(ValidationError, match="finite"):
            simulate_tracked(DEPHASING, V0, math.nan, 10.0, n_samples=11)

    @pytest.mark.parametrize("channel", ["dephasing", "feedback"])
    def test_fewer_than_two_samples_rejected(self, channel):
        ch = DEPHASING if channel == "dephasing" else BlochChannel(
            np.diag([-GAMMA, -1.2 * GAMMA, 0.0]), np.zeros(3))
        for n_samples in (0, 1):
            with pytest.raises(ValidationError, match="n_samples"):
                simulate_tracked(ch, V0, OMEGA0, 10.0, n_samples=n_samples)

    def test_general_channel_uses_state_feedback(self):
        # A slightly anisotropic unital channel is not pure-dephasing form,
        # but near-dephasing states should still be tracked accurately.
        a = GKSMatrix(np.diag([0.001, 0.0, GAMMA / 2.0]).astype(complex))
        _, ch = gks_to_channel(a)
        traj = simulate_tracked(ch, V0, OMEGA0, t_max=2.0, n_samples=101)
        assert traj.termination.kind == "horizon"
        assert np.max(np.abs(traj.v[:, 0] - V0.vx)) <= 1e-6
        assert np.max(np.abs(traj.v[:, 1] - V0.vy)) <= 1e-6

    @pytest.mark.xfail(strict=True, raises=AssertionError,
                       reason="a SingularPointError on the feedback path discards "
                              "every sample taken before it")
    def test_feedback_run_keeps_its_samples_near_a_singular_point(self):
        # At rtol = atol = 1e-8 the run ends invalid:t=0.1 with one sample;
        # at the default tolerances it keeps 84 and ends invalid:t=8.4.
        m0 = np.diag([-GAMMA, -GAMMA, 0.0])
        m0[0, 1] = m0[1, 0] = 1e-9   # off the dephasing form: the feedback path
        ch = BlochChannel(m0, np.zeros(3))
        traj = simulate_tracked(ch, V0, OMEGA0, t_max=10.0, n_samples=101,
                                cfg=IntegratorConfig(rtol=1e-8, atol=1e-8))
        assert traj.t[-1] > 8.0   # t_b = 25/3 for the dephasing part

    def test_feedback_path_rejects_nonpositive_horizon(self):
        ch = BlochChannel(np.diag([-GAMMA, -1.2 * GAMMA, 0.0]), np.zeros(3))
        with pytest.raises(DomainError, match="t_max"):
            simulate_tracked(ch, V0, OMEGA0, t_max=0.0)

    def test_feedback_fields_accept_raw_arrays(self):
        v = V0.as_array()
        assert tracking_fields_general(DEPHASING, v, OMEGA0) == \
            tracking_fields_general(DEPHASING, V0, OMEGA0)
        # Integrator stages near breakdown can leave the Bloch ball; the
        # fields of such a raw state are computed, not rejected.
        outside = np.array([0.8, 0.8, 0.5])
        assert np.all(np.isfinite(tracking_fields_general(DEPHASING, outside, OMEGA0)))

    def test_detect_breakdown_matches_closed_form(self):
        detected = detect_breakdown(DEPHASING, V0, OMEGA0, t_cap=12.0)
        assert abs(detected - T_B) / T_B <= 0.01


class TestClipping:
    def test_clip_time_closed_form(self):
        omega_max = 5.0
        t_clip = clip_time(V0, GAMMA, OMEGA0, omega_max)
        # The first field to reach the level defines the clip time.
        w1, w2 = tracking_fields_dephasing(V0, GAMMA, OMEGA0, t_clip)
        assert math.isclose(max(abs(w1), abs(w2)), omega_max, rel_tol=1e-9)

    def test_each_clamp_kink_is_a_breakpoint(self):
        omega_max = 5.0
        w = tracked_waveform(V0, GAMMA, OMEGA0, omega_max)
        first, second, guard_end = w.breakpoints
        assert first == clip_time(V0, GAMMA, OMEGA0, omega_max)
        # |omega1| = (omega0 - gamma) v_x / v_z and |omega2| = (omega0 + gamma) v_x / v_z
        # reach the level one after the other, both before the guard end.
        w1, _ = tracking_fields_dephasing(V0, GAMMA, OMEGA0, second)
        assert math.isclose(abs(w1), omega_max, rel_tol=1e-12)
        assert guard_end == T_B * (1.0 - BREAKDOWN_GUARD)
        assert tracked_waveform(V0, GAMMA, OMEGA0, 1e6).breakpoints == (guard_end,)
        assert tracked_waveform(V0, 0.0, OMEGA0, 1e6).breakpoints == ()

    def test_clip_never_reached_for_large_level(self):
        assert clip_time(V0, 0.0, 1.0, 1e6) == math.inf

    def test_clipped_run_terminates_with_clip_metadata(self):
        omega_max = 5.0
        t_clip = clip_time(V0, GAMMA, OMEGA0, omega_max)
        traj = simulate_tracked(DEPHASING, V0, OMEGA0, t_max=10.0,
                                omega_max=omega_max)
        assert traj.termination.kind == "clipped"
        assert math.isclose(traj.termination.time, t_clip, rel_tol=1e-9)
        assert np.max(np.abs(traj.omega[:, 1:])) <= omega_max + 1e-12

    def test_clipped_fields_saturate(self):
        w = tracked_waveform(V0, GAMMA, OMEGA0, omega_max=3.0)
        late = w(0.9999 * T_B)
        assert abs(late[1]) == 3.0
        assert abs(late[2]) == 3.0

    def test_unclipped_horizon_before_clip(self):
        omega_max = 5.0
        t_clip = clip_time(V0, GAMMA, OMEGA0, omega_max)
        traj = simulate_tracked(DEPHASING, V0, OMEGA0, t_max=0.5 * t_clip,
                                omega_max=omega_max)
        assert traj.termination.kind == "horizon"


class TestSingularityClassification:
    def test_tracked_run_is_nontrivial_a_at_breakdown(self):
        traj = simulate_tracked(DEPHASING, V0, OMEGA0, t_max=10.0)
        report = classify_singularity(traj, DEPHASING)
        assert report.classification == "nontrivial-a"
        assert abs(report.t - T_B) <= 1e-9
        assert max(abs(report.n1), abs(report.n2)) > 1e-8

    def test_equator_free_run_is_trivial(self):
        eq = CoherenceVector(0.5, 0.5, 0.0)
        traj = propagate_bloch(DEPHASING, ControlWaveform.zero(), eq, 1.0,
                               n_samples=51)
        report = classify_singularity(traj, DEPHASING)
        assert report.classification == "trivial"
        assert report.t == 0.0
        assert report.note == "no control possible"

    def test_gamma_zero_has_no_singularity(self):
        ch = BlochChannel.dephasing(0.0)
        traj = simulate_tracked(ch, V0, OMEGA0, t_max=5.0)
        assert classify_singularity(traj, ch).classification == "none"

    @pytest.mark.parametrize("lam", [1.0, 1e-3, 1e-6, 1e-9])
    def test_class_is_unchanged_by_time_rescaling(self, lam):
        # gamma -> lam gamma, omega0 -> lam omega0, t -> t / lam leaves the
        # trajectory unchanged and scales N1, N2 by lam. With the absolute
        # numerator tolerance 1e-8 the run was `nontrivial-b` at lam = 1e-9.
        ch = BlochChannel.dephasing(lam * GAMMA)
        traj = simulate_tracked(ch, V0, lam * OMEGA0, t_max=10.0 / lam)
        assert classify_singularity(traj, ch).classification == "nontrivial-a"
        v_b = np.array([V0.vx, V0.vy, 0.0])
        with pytest.raises(SingularPointError) as exc:
            tracking_fields_general(ch, v_b, lam * OMEGA0)
        assert exc.value.report.classification == "nontrivial-a"

    def test_comment_line_format(self):
        traj = simulate_tracked(DEPHASING, V0, OMEGA0, t_max=10.0)
        line = classify_singularity(traj, DEPHASING).comment_line()
        assert line.startswith("# singularity=nontrivial-a t=")
        for tag in ("D1=", "D2=", "N1=", "N2="):
            assert tag in line


def _classify_per_sample(traj, ch, eps_d=1e-10, eps_n=1e-8, run_length=10):
    """Reference: the per-sample loop that `classify_singularity` replaced.

    A numerator counts as nonzero above eps_n times the largest of |omega0|
    and the entries of |m0| and |k|.
    """
    ts = list(traj.t)
    vs = [traj.v[i] for i in range(len(traj.t))]
    w0s = list(traj.omega[:, 0])
    if traj.termination.kind == "breakdown" and traj.termination.time is not None:
        ts.append(traj.termination.time)
        vs.append(np.array([traj.v[-1, 0], traj.v[-1, 1], 0.0]))
        w0s.append(w0s[-1])

    d1s, d2s, n1s, n2s = [], [], [], []
    for v, w0 in zip(vs, w0s):
        d1, d2 = _general_denominators(v)
        n1, n2 = _general_numerators(ch, v, w0)
        d1s.append(d1)
        d2s.append(d2)
        n1s.append(n1)
        n2s.append(n2)

    def longest_zero_run(ds):
        best_len, best_start, cur, start = 0, None, 0, None
        for j, d in enumerate(ds):
            if abs(d) <= eps_d:
                if cur == 0:
                    start = j
                cur += 1
                if cur > best_len:
                    best_len, best_start = cur, start
            else:
                cur = 0
        return best_len, best_start

    for ds in (d1s, d2s):
        length, start = longest_zero_run(ds)
        if length >= run_length:
            note = "no control possible" if start == 0 else ""
            return SingularityReport("trivial", t=float(ts[start]),
                                     d1=d1s[start], d2=d2s[start],
                                     n1=n1s[start], n2=n2s[start], note=note)

    for j in range(len(ts)):
        zero1 = abs(d1s[j]) <= eps_d
        zero2 = abs(d2s[j]) <= eps_d
        if not (zero1 or zero2):
            continue
        mags = []
        if zero1:
            mags.append(abs(n1s[j]))
        if zero2:
            mags.append(abs(n2s[j]))
        scale = max([abs(w0s[j])] + [abs(x) for x in ch.m0.ravel()]
                    + [abs(x) for x in ch.k])
        cls = "nontrivial-a" if max(mags) > eps_n * scale else "nontrivial-b"
        return SingularityReport(cls, t=float(ts[j]), d1=d1s[j], d2=d2s[j],
                                 n1=n1s[j], n2=n2s[j])

    return SingularityReport("none")


def _table(rows, termination=Termination("horizon"), omega0=OMEGA0):
    v = np.array(rows, dtype=float)
    n = len(v)
    omega = np.column_stack([np.full(n, omega0), np.ones(n), -np.ones(n)])
    c = v[:, 0] ** 2 + v[:, 1] ** 2
    return Trajectory(np.linspace(0.0, 1.0, n), v, c + v[:, 2] ** 2, c, omega,
                      termination)


_GENERIC = [0.3, -0.2, 0.5]


def _singularity_cases():
    eq = CoherenceVector(0.5, 0.5, 0.0)
    nan_rows = [[math.nan, 0.0, 0.5], [0.3, math.nan, 0.0], [math.inf, 0.0, 0.0],
                [0.0, 0.4, math.nan]]
    return {
        "trivial-at-start": (propagate_bloch(DEPHASING, ControlWaveform.zero(), eq,
                                             1.0, n_samples=51), DEPHASING),
        "trivial-in-middle": (_table([_GENERIC] * 7 + [[0.3, 0.1, 0.0]] * 12
                                     + [_GENERIC] * 5), DEPHASING),
        "longest-run-wins": (_table([_GENERIC] + [[0.0, 0.2, 0.0]] * 10
                                    + [_GENERIC] + [[0.1, 0.0, 0.0]] * 14), DEPHASING),
        "run-of-nine-is-not-trivial": (_table([_GENERIC] * 3 + [[0.2, 0.0, 0.4]] * 9
                                              + [_GENERIC] * 3), DEPHASING),
        "nontrivial-a-at-breakdown": (simulate_tracked(DEPHASING, V0, OMEGA0, 10.0),
                                      DEPHASING),
        "nontrivial-b": (_table([_GENERIC] * 4 + [[0.0, 0.0, 0.3]] + [_GENERIC] * 4),
                         DEPHASING),
        "nan-rows": (_table([_GENERIC] + nan_rows + [[0.2, 0.3, 0.0]] + [_GENERIC]),
                     DEPHASING),
        "nan-run": (_table([_GENERIC] + [[math.nan, 0.0, 0.0]] * 12 + [_GENERIC]),
                    DEPHASING),
        "breakdown-after-nan": (_table([_GENERIC, [math.nan, 0.1, 0.2]],
                                       Termination("breakdown", 2.0)), DEPHASING),
        "none": (simulate_tracked(BlochChannel.dephasing(0.0), V0, OMEGA0, 5.0),
                 BlochChannel.dephasing(0.0)),
    }


@pytest.mark.parametrize("case", sorted(_singularity_cases()))
def test_classification_matches_per_sample_loop(case):
    traj, ch = _singularity_cases()[case]
    with np.errstate(invalid="ignore"):
        got = classify_singularity(traj, ch)
        want = _classify_per_sample(traj, ch)
    assert got.comment_line() == want.comment_line()
    assert got.note == want.note


def test_isolated_zero_classified_alike_by_formula_and_classifier():
    # D1 = 2 v_y v_z vanishes and D2 does not; N1 = 0 over D1 = 0 is 0/0,
    # while N2 of the regular row is nonzero.
    v = [0.5, 0.0, 0.5]
    with pytest.raises(SingularPointError) as exc:
        tracking_fields_general(DEPHASING, np.array(v), OMEGA0)
    report = classify_singularity(_table([_GENERIC, v, _GENERIC]), DEPHASING)
    assert exc.value.report.classification == report.classification == "nontrivial-b"
    assert (exc.value.report.n1, exc.value.report.n2) == (report.n1, report.n2)


class TestBreakdownLabel:
    """A closed-form run ends `breakdown` at the true t_b, not where it stops sampling."""

    def test_tracked_run_reports_breakdown_time(self):
        label = Termination("breakdown", breakdown_time(V0, GAMMA)).label()
        traj = propagate_bloch(DEPHASING, tracked_waveform(V0, GAMMA, OMEGA0), V0, 10.0,
                               n_samples=201)
        assert traj.termination.label() == label

    @given(st.floats(0.05, 0.9), st.booleans(), st.floats(-0.6, 0.6),
           st.floats(-0.6, 0.6), st.floats(0.1, 1.0), st.floats(-4.0, 4.0))
    @settings(max_examples=25, deadline=None)
    def test_closed_form_runs_end_at_breakdown_time(self, vz, up, vx, vy, gamma, omega0):
        if vx**2 + vy**2 + vz**2 > 1.0 or vx**2 + vy**2 < 0.05:
            return
        v0 = CoherenceVector(vx, vy, vz if up else -vz)
        t_b = breakdown_time(v0, gamma)
        ch = BlochChannel.dephasing(gamma)
        traj = propagate_bloch(ch, tracked_waveform(v0, gamma, omega0), v0, 1.5 * t_b,
                               n_samples=16)
        assert traj.termination == Termination("breakdown", t_b)
        assert traj.t[-1] < t_b * (1 - 1e-6)
