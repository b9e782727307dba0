"""Control synthesis, breakdown, clipping, and singularities."""

import math
import tempfile

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from cohtrack import tracking
from cohtrack.bloch import (
    LAMBDA_0,
    LAMBDA_1,
    LAMBDA_2,
    BlochChannel,
    CoherenceVector,
    GKSMatrix,
    coherence,
    control_matrix,
    gks_to_channel,
)
from cohtrack.dynamics import (
    Termination,
    Trajectory,
    _output_grid,
    propagate_bloch,
    purity_rate,
)
from cohtrack.config import SweepSpec
from cohtrack.equivalence import is_dephasing_class
from cohtrack.errors import (
    DomainError,
    PastBreakdownError,
    SingularPointError,
    ValidationError,
)
from cohtrack.tracking import (
    SingularityReport,
    _feedback_rhs,
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
from cohtrack.verify import _random_gks
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

    @pytest.mark.parametrize("v0, gamma", [(V0, 0.0), (CoherenceVector(0.0, 0.0, -0.6), 0.3)],
                             ids=["no-dephasing", "no-coherence"])
    def test_vz_without_decay_holds_at_every_time(self, v0, gamma):
        # 2 gamma c = 0 leaves t_b = inf, and 0 * inf must not read as NaN.
        want = vz_tracked(v0, gamma, 0.0)
        assert want == pytest.approx(v0.vz, rel=1e-15)
        for t in (1.0, 1e300, math.inf):
            assert vz_tracked(v0, gamma, t) == want

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

    def test_fields_refuse_times_from_breakdown_on(self):
        # A run stops sampling t_b 1e-6 short of t_b; the fields are finite
        # up to t_b, where v_z reaches 0.
        for t in T_B * (1.0 - np.logspace(-6.5, -14, 6)):
            w1, w2 = tracking_fields_dephasing(V0, GAMMA, OMEGA0, float(t))
            assert math.isfinite(w1) and math.isfinite(w2) and abs(w1) > 1e3
        with pytest.raises(PastBreakdownError,
                           match=f"t={T_B} is at or past the breakdown time t_b={T_B}"):
            tracking_fields_dephasing(V0, GAMMA, OMEGA0, T_B)

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

    def test_general_formula_singular_state_raises(self):
        # On the equator both denominators 2 v_y v_z and 2 v_x v_z vanish;
        # `classify_singularity` classifies such a state along a run.
        eq = CoherenceVector(0.5, 0.5, 0.0)
        with pytest.raises(SingularPointError,
                           match=r"vanishing field denominator \(D1=0.000e\+00, D2=0.000e\+00\)"):
            tracking_fields_general(DEPHASING, eq, OMEGA0)

    def test_tracking_rhs_matches_closed_form_rate(self):
        # With v_x, v_y held, dp/dt = 2 v_z dv_z/dt, so dv_z/dt = -gamma c / v_z
        # for pure dephasing.
        got = purity_rate(DEPHASING, V0) / (2.0 * V0.vz)
        want = -GAMMA * 0.3 / V0.vz
        assert abs(got - want) <= 1e-12


# Coordinates from 0 and tiny values, so that some rows have |D| <= 1e-12,
# to anywhere in [-1, 1].
_formula_coordinate = st.one_of(st.just(0.0), st.floats(-1e-7, 1e-7), st.floats(-1.0, 1.0))


def _scalar_formula(ch, v, omega0):
    """(D1, D2, N1, N2) of one state, each quadratic form written as `v @ A @ v`."""
    o1, o2 = np.diag([1, 0, 0]), np.diag([0, 1, 0])
    m0, k = ch.m0, ch.k
    return (float(v @ (LAMBDA_1 @ o2 - o2 @ LAMBDA_1) @ v),
            float(v @ (LAMBDA_2 @ o1 - o1 @ LAMBDA_2) @ v),
            -omega0 * float(v @ (LAMBDA_0 @ o2 - o2 @ LAMBDA_0) @ v)
            + float(v @ (m0 @ o2 + o2 @ m0) @ v) + float(k @ o2 @ v) + float(v @ o2 @ k),
            -omega0 * float(v @ (LAMBDA_0 @ o1 - o1 @ LAMBDA_0) @ v)
            + float(v @ (m0 @ o1 + o1 @ m0) @ v) + float(k @ o1 @ v) + float(v @ o1 @ k))


class TestArrayFormula:
    """The paper's general-channel formula on one state and on a stack of them."""

    @given(st.integers(0, 2**32 - 1), st.booleans(), st.floats(-5.0, 5.0),
           st.lists(st.tuples(*[_formula_coordinate] * 3), min_size=1, max_size=12))
    @settings(max_examples=100, deadline=None)
    def test_stack_rows_are_the_single_state_values(self, seed, unital, omega0, rows):
        ch = gks_to_channel(_random_gks(np.random.default_rng(seed), unital))[1]
        vs = np.array(rows, dtype=float)
        stacked = np.column_stack([*_general_denominators(vs),
                                   *_general_numerators(ch, vs, omega0)])
        single = np.array([[*_general_denominators(v), *_general_numerators(ch, v, omega0)]
                           for v in vs])
        assert _same_bits(stacked, single)
        assert _same_bits(single, np.array([_scalar_formula(ch, v, omega0) for v in vs]))

    @given(st.integers(0, 2**32 - 1), st.booleans(), st.floats(1.0, 5.0),
           st.lists(st.booleans(), min_size=21, max_size=21))
    @settings(max_examples=15, deadline=None)
    def test_feedback_fields_are_the_formula_at_each_sample(self, seed, unital, omega0,
                                                            singular):
        rng = np.random.default_rng(seed)
        ch = gks_to_channel(_random_gks(rng, unital, scale=0.05))[1]
        phase = rng.uniform(0.2, 1.3) + rng.integers(4) * math.pi / 2
        r, vz = math.sqrt(rng.uniform(0.05, 0.4)), rng.uniform(0.3, 0.7)
        v0 = CoherenceVector(r * math.cos(phase), r * math.sin(phase),
                             vz if rng.random() < 0.5 else -vz)
        traj = simulate_tracked(ch, v0, omega0, 2.0, n_samples=21)
        for v, omega in zip(traj.v, traj.omega):
            assert _same_bits(omega, np.array([omega0, *tracking_fields_general(ch, v, omega0)]))

        # The same run with some samples moved onto D1 = D2 = 0 (v_z = 0) or
        # next to it (|D| about 1e-13): those rows have no fields.
        moved = traj.v.copy()
        moved[np.array(singular)[:len(moved)], 2] = 0.0
        moved[1::4, 1] *= 1e-13 / max(abs(v0.vy * v0.vz), 1e-300)

        def samples(rhs, y0, grid, cfg, breakpoints=()):
            return moved, len(moved)

        with pytest.MonkeyPatch.context() as m:
            m.setattr(tracking, "_integrate", samples)
            table = simulate_tracked(ch, v0, omega0, 2.0, n_samples=21).omega
        for v, omega in zip(moved, table):
            try:
                want = (omega0, *tracking_fields_general(ch, v, omega0))
            except SingularPointError:
                assert np.all(np.isnan(omega))
            else:
                assert _same_bits(omega, np.array(want))


# omega0 up to 1e306, so that a field n/d with |D| just above 1e-12 overflows.
_rate_omega0 = st.one_of(st.floats(-5.0, 5.0), st.sampled_from([1e306, -1e306]))
_RATE_START = CoherenceVector(0.3, 0.4, 0.5)


class TestFeedbackRate:
    """The feedback right-hand side is bit for bit the control-matrix form."""

    @given(st.integers(0, 2**32 - 1), st.booleans(), _rate_omega0,
           st.lists(st.tuples(*[_formula_coordinate] * 3), min_size=1, max_size=12))
    @example(seed=2, unital=True, omega0=-4.0, rows=[(0.5, 0.0, 0.6), (0.5, 0.6, 0.0)])
    @settings(max_examples=100, deadline=None)
    def test_rate_is_the_control_matrix_form(self, seed, unital, omega0, rows):
        ch = gks_to_channel(_random_gks(np.random.default_rng(seed), unital))[1]
        rhs = _feedback_rhs(ch, omega0, _RATE_START)
        for v in np.array(rows, dtype=float):
            with np.errstate(over="ignore", invalid="ignore"):
                got = rhs(0.0, v)
                try:
                    fields = tracking_fields_general(ch, v, omega0)
                    want = (ch.m0 + control_matrix(omega0, *fields)) @ v + ch.k
                except DomainError:
                    assert np.all(np.isnan(got))
                else:
                    assert _same_bits(got, want)

    def test_an_overflowing_field_has_no_rate(self):
        # N1 about 1e306 over D1 = 2 v_y v_z = 1e-7: omega1 is inf.
        ch = gks_to_channel(_random_gks(np.random.default_rng(1)))[1]
        rhs = _feedback_rhs(ch, 1e306, _RATE_START)
        v = np.array([1.0, 0.5, 1e-7])
        with np.errstate(over="ignore"):
            assert not all(map(math.isfinite, tracking_fields_general(ch, v, 1e306)))
            assert np.all(np.isnan(rhs(0.0, v)))

    @pytest.mark.parametrize("omega0", [math.inf, -math.inf, math.nan])
    def test_a_start_without_finite_fields_raises(self, omega0):
        ch = gks_to_channel(_random_gks(np.random.default_rng(3)))[1]
        with pytest.raises(DomainError, match="finite"):
            _feedback_rhs(ch, omega0, _RATE_START)

    def test_numerators_follow_the_channel(self):
        # The m0 terms are kept for the last m0 seen; calls that alternate
        # between two channels must each get their own channel's terms.
        rng = np.random.default_rng(11)
        chs = [gks_to_channel(_random_gks(rng, unital))[1] for unital in (False, True)]
        assert not np.array_equal(chs[0].m0, chs[1].m0)
        vs = rng.uniform(-1.0, 1.0, (6, 3))
        wants = [np.array([_scalar_formula(ch, v, OMEGA0)[2:] for v in vs]) for ch in chs]
        assert not np.array_equal(*wants)
        for i in range(8):
            j = i % 2
            got = np.column_stack(_general_numerators(chs[j], vs, OMEGA0))
            assert _same_bits(got, wants[j])
            for v, want in zip(vs, wants[j]):
                assert _same_bits(np.array(_general_numerators(chs[j], v, OMEGA0)), want)


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

    @pytest.mark.parametrize("vx", [0.0, 1e-3], ids=["c=0", "c>0"])
    @pytest.mark.parametrize("omega_max", [None, 5.0])
    def test_underflowing_vz_squared_rejected(self, no_solver, vx, omega_max):
        # v_z(0)^2 = 1e-340 rounds to 0, so t_b = 0 and the closed form
        # divides by sqrt(v_z(0)^2); it is refused as v_z(0) = 0 is.
        v0 = CoherenceVector(vx, vx, 1e-170)
        with pytest.raises(DomainError, match="underflows to 0"):
            simulate_tracked(DEPHASING, v0, OMEGA0, 10.0, omega_max=omega_max,
                             n_samples=11)

    @pytest.mark.parametrize("omega_max", [None, 4.6e10])
    def test_subnormal_vz_squared_rejected(self, no_solver, omega_max):
        # A subnormal v_z(0)^2 (8.8e-321) keeps three digits: too few to place
        # t_b, or to step T back from it one ulp at a time.
        v0 = CoherenceVector(9.4e-161, 0.0, 9.4e-161)
        with pytest.raises(DomainError, match="underflows to 8.8"):
            simulate_tracked(BlochChannel.dephasing(0.88), v0, 2.2, 8.6,
                             omega_max=omega_max, n_samples=29)

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

    def test_feedback_run_keeps_its_samples_near_a_singular_point(self):
        # With v_y = 1e-4 a trial stage before t = 0.1 lands at v_z = 3e-9,
        # where |D1| = |2 v_y v_z| < 1e-12. Its NaN rate makes the solver
        # retry a shorter step instead of ending the run with one sample.
        m0 = np.diag([-GAMMA, -GAMMA, 0.0])
        m0[0, 1] = m0[1, 0] = 1e-9   # off the dephasing form: the feedback path
        ch = BlochChannel(m0, np.zeros(3))
        v0 = CoherenceVector(math.sqrt(0.3 - 1e-8), 1e-4, math.sqrt(0.5))
        traj = simulate_tracked(ch, v0, OMEGA0, t_max=10.0, n_samples=101)
        assert traj.t[-1] > 8.0   # t_b = 25/3 for the dephasing part

    def test_feedback_start_on_a_singular_point_raises_before_the_solver(self, no_solver):
        # D1 = 2 v_y v_z = 0: a NaN first rate would give scipy's RK45 a NaN
        # first step, from which it never returns.
        ch = BlochChannel(np.diag([-GAMMA, -1.2 * GAMMA, 0.0]), np.zeros(3))
        v0 = CoherenceVector(0.5, 0.0, 0.6)
        with pytest.raises(SingularPointError, match="D1=0.000e\\+00"):
            simulate_tracked(ch, v0, OMEGA0, t_max=10.0, n_samples=11)
        with pytest.raises(SingularPointError, match="D1=0.000e\\+00"):
            detect_breakdown(ch, v0, OMEGA0, t_cap=10.0)

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

    def test_detect_breakdown_of_an_equator_start_is_zero(self):
        v0 = CoherenceVector(math.sqrt(0.3), math.sqrt(0.2), 0.0)
        assert detect_breakdown(DEPHASING, v0, OMEGA0, t_cap=12.0) == 0.0

    def test_detect_breakdown_before_the_floor_is_infinite(self):
        # t_b = 25/3 lies past the cap, so |v_z| never reaches DETECT_VZ_FLOOR.
        assert detect_breakdown(DEPHASING, V0, OMEGA0, t_cap=1.0) == math.inf

    def test_detect_breakdown_at_an_overflowing_rate_returns_without_a_warning(self):
        # Rates of order 1e189: inside RK45 the error norm of a trial step
        # overflows. Such a step is rejected without a warning, and the run
        # meets the floor within a few multiples of 1e-189.
        ch = gks_to_channel(GKSMatrix(np.diag([1.0, 1e189, 1.0]).astype(complex)))[1]
        detected = detect_breakdown(ch, CoherenceVector(0.3, 0.3, -0.6), -1.0, t_cap=10.0)
        assert 0.0 < detected < 1e-180

    def test_detect_breakdown_raises_when_the_solver_stops(self, monkeypatch):
        # No rate below v_z = 0.5, which the run reaches at t = 25/6: the
        # solver's step shrinks to nothing there. That is no breakdown.
        fields = tracking.tracking_fields_general

        def no_fields_below_half(ch, v, omega0):
            if abs(v[2]) < 0.5:
                raise SingularPointError("no fields here")
            return fields(ch, v, omega0)

        monkeypatch.setattr(tracking, "tracking_fields_general", no_fields_below_half)
        with pytest.raises(DomainError, match=r"breakdown detection stopped at t=4\.16"):
            detect_breakdown(DEPHASING, V0, OMEGA0, t_cap=12.0)


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
        first, second = w.breakpoints
        assert first == clip_time(V0, GAMMA, OMEGA0, omega_max)
        # |omega1| = (omega0 - gamma) v_x / v_z and |omega2| = (omega0 + gamma) v_x / v_z
        # reach the level one after the other, both before t_b.
        w1, _ = tracking_fields_dephasing(V0, GAMMA, OMEGA0, second)
        assert math.isclose(abs(w1), omega_max, rel_tol=1e-12)
        assert second < T_B and w.t_end is None
        # A high level clamps just short of t_b; no level never clamps.
        high = tracked_waveform(V0, GAMMA, OMEGA0, 1e6).breakpoints
        assert len(high) == 2 and all(T_B * (1 - 1e-9) < t < T_B for t in high)
        assert tracked_waveform(V0, GAMMA, OMEGA0).breakpoints == ()
        assert tracked_waveform(V0, 0.0, OMEGA0, 1e6).breakpoints == ()

    @pytest.mark.parametrize("omega_max", [0.0, -5.0, math.nan])
    def test_level_must_be_positive(self, omega_max):
        # clip_time used to divide by a zero level.
        for build in (tracked_waveform, clip_time):
            with pytest.raises(DomainError, match="omega_max must be positive"):
                build(V0, GAMMA, OMEGA0, omega_max)

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

    def test_saturated_tail_is_held_without_reaching_breakdown(self, monkeypatch):
        # Past the last clamp T every field is constant: no evaluation of the
        # clipped waveform reaches the closed form at or past t_b.
        raised = []
        init = PastBreakdownError.__init__

        def recording_init(self, t, t_b):
            raised.append(t)
            init(self, t, t_b)

        monkeypatch.setattr(PastBreakdownError, "__init__", recording_init)
        omega_max = 5.0
        traj = simulate_tracked(DEPHASING, V0, OMEGA0, t_max=1.25 * T_B,
                                omega_max=omega_max, n_samples=301)
        assert traj.termination.kind == "clipped" and traj.t[-1] > 1.2 * T_B
        w = tracked_waveform(V0, GAMMA, OMEGA0, omega_max)
        (t_hold,), (held,) = w.segments
        assert t_hold == w.breakpoints[-1] < T_B
        grid = np.union1d(np.linspace(t_hold, 1.3 * T_B, 201), [T_B])
        fields = w.unchecked()
        want = np.tile(held, (len(grid), 1))
        assert _same_bits(w.table(grid), want)
        assert _same_bits(np.array([fields(t) for t in grid.tolist()]), want)
        assert held == (OMEGA0, math.copysign(omega_max, w(0.0)[1]),
                        math.copysign(omega_max, w(0.0)[2]))
        assert raised == []

    def test_a_zero_field_keeps_its_sign_in_the_tail(self):
        # omega0 v_x = gamma v_y with v_z < 0: omega1 is -0.0 all along, from
        # the closed form before the tail and from the held triple after it.
        w = tracked_waveform(CoherenceVector(0.25, 0.5, -0.6), 0.5, 1.0, 3.0)
        (t_hold,), _ = w.segments
        omega1 = w.table(np.linspace(0.0, 2.0 * t_hold, 9))[:, 1]
        assert not np.any(omega1) and np.all(np.signbit(omega1))

    # The figure state with t_b = 5 and initial fields near 3: each level
    # clamps within 1e-11 t_b of t_b, and from 1e9 on the clamp rounds to t_b.
    HIGH_V0 = CoherenceVector(math.sqrt(0.3), math.sqrt(0.2), math.sqrt(0.5))

    @pytest.mark.parametrize("omega_max", [
        1e6, 1e9, 1e12,
        pytest.param(1e300, marks=pytest.mark.xfail(
            strict=True, reason="ROADMAP item 12: from a level near 3e16 here, "
            "|Omega| dt near 1e16, the exact steps of the held tail lose the "
            "state, and the run ends invalid")),
    ])
    def test_high_levels_end_clipped_with_valid_samples(self, omega_max):
        # RK45 in w = |v_z*| reaches the last clamp however close it lies to
        # t_b; before it the samples lie on the closed form.
        traj = simulate_tracked(BlochChannel.dephasing(0.1), self.HIGH_V0, 4.0, 10.0,
                                omega_max, n_samples=51)
        assert traj.termination == Termination(
            "clipped", clip_time(self.HIGH_V0, 0.1, 4.0, omega_max))
        assert len(traj.t) == 51 and np.all(np.isfinite(traj.v))
        assert np.max(np.linalg.norm(traj.v, axis=1)) <= 1.0 + 1e-9
        head = traj.t < 5.0
        want = [[self.HIGH_V0.vx, self.HIGH_V0.vy, vz_tracked(self.HIGH_V0, 0.1, t)]
                for t in traj.t[head].tolist()]
        assert np.max(np.abs(traj.v[head] - want)) <= 1e-8

    def test_the_highest_level_returns_without_a_warning(self):
        # Warnings are errors in this suite; the samples it keeps are valid.
        traj = simulate_tracked(BlochChannel.dephasing(0.1), self.HIGH_V0, 4.0, 10.0,
                                1e300, n_samples=51)
        assert traj.termination.kind in ("clipped", "invalid")
        assert np.all(np.isfinite(traj.v))

    @pytest.mark.parametrize("t_max", [5.0, 10.0])
    def test_an_infinite_level_is_no_level(self, t_max):
        # inf clamps nothing: the waveform has no held tail and ends at t_b,
        # and the run is the unclipped one bit for bit.
        w = tracked_waveform(self.HIGH_V0, 0.1, 4.0, math.inf)
        assert w.segments is None and w.t_end == breakdown_time(self.HIGH_V0, 0.1)
        got, want = (simulate_tracked(BlochChannel.dephasing(0.1), self.HIGH_V0, 4.0,
                                      t_max, level) for level in (math.inf, None))
        assert got.termination == want.termination == Termination(
            "breakdown", breakdown_time(self.HIGH_V0, 0.1))
        for a, b in ((got.t, want.t), (got.v, want.v), (got.omega, want.omega)):
            assert _same_bits(a, b)

    def test_unclipped_horizon_before_clip(self):
        omega_max = 5.0
        t_clip = clip_time(V0, GAMMA, OMEGA0, omega_max)
        traj = simulate_tracked(DEPHASING, V0, OMEGA0, t_max=0.5 * t_clip,
                                omega_max=omega_max)
        assert traj.termination.kind == "horizon"


def _same_bits(got: np.ndarray, want: np.ndarray) -> bool:
    """Equal arrays, down to the sign of each zero: the bytes a CSV would show."""
    return got.shape == want.shape and got.tobytes() == want.tobytes()


def _scalar_law(v0, gamma, omega0, omega_max, t_hold, t):
    """The tracked fields at one time in Python floats: num_i / |v_z(t)| with
    |v_z(t)| = math.sqrt(max(0, v_z(0)^2 - 2 gamma c t)), clamped to the level
    by comparison, and the held triple from t_hold on."""
    s = 1.0 if v0.vz > 0 else -1.0
    nums = (s * (-gamma * v0.vy + omega0 * v0.vx), s * (-gamma * v0.vx - omega0 * v0.vy))
    level = math.inf if omega_max is None else omega_max
    if t >= t_hold:
        return (omega0, *(math.copysign(level, num) if num else num for num in nums))
    w = math.sqrt(max(0.0, v0.vz**2 - 2.0 * gamma * coherence(v0) * t))
    fields = [num / w for num in nums]
    return (omega0, *(f if abs(f) <= level else math.copysign(level, f) for f in fields))


class TestWholeGridTables:
    """`table` gives the clamped law written out one time at a time, bit for bit."""

    @given(st.one_of(st.just(0.0), st.floats(0.01, 1.0)),
           st.one_of(st.just(0.0), st.floats(-5.0, 5.0)),
           st.one_of(st.just(0.0), st.floats(-0.6, 0.6)),
           st.one_of(st.just(0.0), st.floats(-0.6, 0.6)),
           st.floats(0.05, 0.9), st.booleans(),
           st.one_of(st.none(), st.floats(0.5, 20.0)),
           st.floats(0.3, 1.5), st.integers(2, 60))
    @settings(max_examples=60, deadline=None)
    def test_tables_match_per_time_evaluation(self, gamma, omega0, vx, vy, vz, up,
                                              level, span, n_samples):
        if vx**2 + vy**2 + vz**2 > 1.0:
            return
        v0 = CoherenceVector(vx, vy, vz if up else -vz)
        t_b = breakdown_time(v0, gamma)
        omega_max = None
        if level is not None:
            # A level of 0.5 to 20 times the initial field (1 where it is 0).
            start = max(map(abs, tracking_fields_dephasing(v0, gamma, omega0, 0.0)))
            omega_max = level * (start or 1.0)
        w = tracked_waveform(v0, gamma, omega0, omega_max)
        t_max = span * (t_b if math.isfinite(t_b) else 10.0)
        # The unclipped grid stops at the breakdown guard; the clipped one
        # also holds t_b and the clamp times.
        grid, _ = _output_grid(t_max, w.t_end, n_samples)
        if w.t_end is None:
            extra = [t for t in (t_b, *w.breakpoints) if t <= t_max]
            grid = np.union1d(grid, extra)
        # The held triple starts at the waveform's last clamp T; with
        # 2 gamma c = 0 the fields never move and nothing is held.
        t_hold = math.inf
        if w.segments is not None and 2.0 * gamma * coherence(v0) != 0.0:
            t_hold = w.segments[0][0]
        want = [_scalar_law(v0, gamma, omega0, omega_max, t_hold, t) for t in grid.tolist()]
        w.unchecked()
        assert _same_bits(w.table(grid), np.array(want, dtype=float))


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


def test_isolated_zero_classified_by_its_vanishing_row():
    # D1 = 2 v_y v_z vanishes and D2 does not; N1 = 0 over D1 = 0 is 0/0,
    # while N2 of the regular row is nonzero and does not make it `nontrivial-a`.
    v = [0.5, 0.0, 0.5]
    report = classify_singularity(_table([_GENERIC, v, _GENERIC]), DEPHASING)
    assert report.classification == "nontrivial-b"
    assert report.n1 == 0.0 and report.n2 != 0.0


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


class TestTrackedTermination:
    """ROADMAP item 6: a z-dephasing tracked run ends `horizon`, `breakdown` at
    t_b or `clipped` at the clip time, or raises DomainError; never `invalid`.

    The property leaves out three regions. The strict xfails below pin a
    case that fails in each of two: unclipped fields that turn the state by
    more than about 200 rad (ROADMAP item 11, unbounded work; held from 0
    they also lose the state) and held clipped fields with |Omega| dt above
    1e10 per exact step. The third, a t_max whose uniform grid rounds to
    repeated times, raises DomainError. Horizons far below t_b are covered;
    the plain tests below pin two that ended invalid while RK45 ran them in
    sigma.
    """

    @given(st.tuples(*[st.floats(-1.0, 1.0)] * 3), st.floats(0.0, 1.0),
           st.floats(-5.0, 5.0),
           st.one_of(st.none(), st.floats(-3.0, 12.0).map(lambda e: 10.0**e)),
           st.floats(1e-300, 10.0), st.integers(2, 41))
    @settings(max_examples=50, deadline=None)
    def test_every_run_ends_horizon_breakdown_or_clipped(self, v, gamma, omega0, level,
                                                         t_max, n_samples):
        assume(sum(x * x for x in v) <= 1.0)
        v0 = CoherenceVector(*v)
        ch = BlochChannel.dephasing(gamma)
        try:
            w1, w2 = tracking_fields_dephasing(v0, gamma, omega0, 0.0)
        except DomainError:   # v_z(0)^2 is zero or subnormal
            with pytest.raises(DomainError):
                simulate_tracked(ch, v0, omega0, t_max, level, n_samples)
            return
        # The rate the run reads from the channel: below about 1e-146 the
        # eigensolver's scaling can move it by an ulp.
        rate = is_dephasing_class(ch)[2]
        t_b = breakdown_time(v0, rate)
        # The unclipped in-plane fields turn the state by at most
        # 2 |omega(0)| min(t_max, t_b).
        assume(math.hypot(w1, w2) * min(t_max, t_b) <= 100.0)
        assume(level is None or level * t_max / (n_samples - 1) <= 1e10)
        traj = simulate_tracked(ch, v0, omega0, t_max, level, n_samples)
        end = traj.termination
        assert (end.kind == "breakdown") == (level is None and t_b * (1 - 1e-6) <= t_max)
        clips = level is not None and clip_time(v0, rate, omega0, level) < t_max
        assert (end.kind == "clipped") == clips
        if end.kind == "breakdown":
            assert end.time == t_b
        elif end.kind == "clipped":
            assert end.time == clip_time(v0, rate, omega0, level)
        else:
            assert end == Termination("horizon")

    @pytest.mark.xfail(strict=True, reason="ROADMAP item 12: fields near 4e14 held "
                       "from 0 (gamma = 0, v_z(0) = 1e-14) give exact steps with "
                       "|Omega| dt near 4e14, which lose the state: the run ends invalid")
    def test_large_fields_held_from_the_start_end_horizon(self):
        traj = simulate_tracked(BlochChannel.dephasing(0.0),
                                CoherenceVector(0.6, 0.8 - 1e-9, 1e-14), OMEGA0, 10.0,
                                n_samples=11)
        assert traj.termination == Termination("horizon")

    @pytest.mark.xfail(strict=True, reason="ROADMAP item 12: a tail held at level "
                       "1e12 from T = 5.1e-4, in exact steps of 0.76 (|Omega| dt "
                       "near 1e12), loses the state: the run ends invalid at t = 2.27")
    def test_a_held_tail_with_long_steps_ends_clipped(self):
        v0 = CoherenceVector(0.99, 0.0, 1e-3)
        traj = simulate_tracked(BlochChannel.dephasing(1e-3), v0, -1.0, 6.8, 1e12,
                                n_samples=10)
        assert traj.termination == Termination("clipped", clip_time(v0, 1e-3, -1.0, 1e12))

    def test_a_horizon_far_below_breakdown_ends_horizon(self):
        # t_max = 2e-14 t_b: the run's times span 63 ulps of w, and RK45's
        # shortest step in sigma, 10 ulps, turns the state by about 6 rad.
        v0 = CoherenceVector(math.sqrt(0.3), math.sqrt(0.2), math.sqrt(0.5))
        traj = simulate_tracked(BlochChannel.dephasing(1e-15), v0, OMEGA0, 10.0,
                                n_samples=11)
        assert traj.termination == Termination("horizon")

    def test_a_stiff_drive_in_sigma_ends_horizon(self):
        # c = 9e-18: dt/dsigma times gamma is w/c, so RK45's shortest step in
        # sigma decays the deviation by about 60 times its size; the run's
        # times span 324 ulps of w. In sigma the run ended invalid at t = 6.
        v0 = CoherenceVector(3e-9, 0.0, 0.5)
        traj = simulate_tracked(BlochChannel.dephasing(100.0), v0, 0.0, 20.0,
                                n_samples=11)
        assert traj.termination == Termination("horizon")
        assert np.max(np.abs(traj.v - v0.as_array())) <= 1e-10   # the held state

    def test_a_horizon_below_the_sample_spacing_raises_a_domain_error(self):
        with pytest.raises(DomainError):
            simulate_tracked(BlochChannel.dephasing(GAMMA), V0, OMEGA0, 5e-324,
                             n_samples=12)
