"""SU(2)->SO(3) adjoint machinery and channel equivalence classes."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import solve_ivp

from cohtrack import dynamics
from cohtrack.bloch import (
    BlochChannel,
    CoherenceVector,
    GKSMatrix,
    gks_to_channel,
    purity,
)
from cohtrack.config import ScenarioConfig, complex_matrix_to_json
from cohtrack.dynamics import Termination, propagate_bloch
from cohtrack.equivalence import (
    HADAMARD,
    Rotation3,
    Unitary2,
    _z_dephasing_rate,
    is_dephasing_class,
    su2_to_so3,
    transform_channel,
    transform_state,
    transport_waveform,
)
from cohtrack.errors import ConfigError, DomainError, PastBreakdownError, ValidationError
from cohtrack.scenarios import emit_fields, equivalence_report
from cohtrack.tracking import (
    breakdown_time,
    simulate_tracked,
    tracked_waveform,
    tracking_fields_dephasing,
)
from cohtrack.verify import _rot_z
from cohtrack.waveform import ControlWaveform

GAMMA = 0.1
OMEGA0 = 4.0
V0 = CoherenceVector(math.sqrt(0.15), math.sqrt(0.15), math.sqrt(0.5))
PHASE_FLIP = GKSMatrix(np.diag([0.0, 0.0, GAMMA / 2.0]).astype(complex))
Y_FLIP = Rotation3(np.diag([-1.0, 1.0, -1.0]))
PHASE_FLIP_CHANNEL = gks_to_channel(PHASE_FLIP)[1]


def random_su2(rng):
    g = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    q, r = np.linalg.qr(g)
    q = q @ np.diag(r.diagonal() / np.abs(r.diagonal()))
    return Unitary2(q / np.sqrt(np.linalg.det(q)))


class TestValidatedTypes:
    def test_non_unitary_rejected(self):
        with pytest.raises(ValidationError):
            Unitary2(np.array([[1.0, 1.0], [0.0, 1.0]], dtype=complex))

    def test_global_phase_permitted(self):
        Unitary2(np.exp(0.3j) * np.eye(2, dtype=complex))

    def test_improper_rotation_rejected(self):
        with pytest.raises(ValidationError):
            Rotation3(np.diag([1.0, 1.0, -1.0]))

    def test_non_orthogonal_rejected(self):
        with pytest.raises(ValidationError):
            Rotation3(np.eye(3) * 1.001)


class TestAdjointMap:
    def test_identity_maps_to_identity(self):
        r = su2_to_so3(Unitary2(np.eye(2, dtype=complex)))
        assert np.max(np.abs(r.matrix - np.eye(3))) <= 1e-14

    def test_y_half_turn(self):
        u = Unitary2(np.array([[0.0, 1.0], [-1.0, 0.0]], dtype=complex))
        r = su2_to_so3(u)
        assert np.max(np.abs(r.matrix - np.diag([-1.0, 1.0, -1.0]))) <= 1e-12

    def test_z_rotation(self):
        theta = 0.7
        u = Unitary2(np.diag([np.exp(-0.5j * theta), np.exp(0.5j * theta)]))
        r = su2_to_so3(u).matrix
        c, s = math.cos(theta), math.sin(theta)
        expected = np.array([[c, -s, 0.0], [s, c, 0.0], [0.0, 0.0, 1.0]])
        assert np.max(np.abs(r - expected)) <= 1e-12

    def test_homomorphism_on_random_pairs(self):
        rng = np.random.default_rng(21)
        for _ in range(100):
            u1, u2 = random_su2(rng), random_su2(rng)
            lhs = su2_to_so3(Unitary2(u1.matrix @ u2.matrix)).matrix
            rhs = su2_to_so3(u1).matrix @ su2_to_so3(u2).matrix
            assert np.max(np.abs(lhs - rhs)) <= 1e-12

    def test_double_cover_exact(self):
        rng = np.random.default_rng(22)
        for _ in range(100):
            u = random_su2(rng)
            r_plus = su2_to_so3(u).matrix
            r_minus = su2_to_so3(Unitary2(-u.matrix)).matrix
            assert np.array_equal(r_plus, r_minus)


class TestChannelTransforms:
    def test_hadamard_phase_flip_to_bit_flip(self):
        a_new = transform_channel(PHASE_FLIP, HADAMARD)
        assert np.max(np.abs(a_new.matrix - np.diag([GAMMA / 2.0, 0.0, 0.0]))) <= 1e-12

    def test_both_routes_agree_on_random_inputs(self):
        # transform_channel raises internally if the A' = R A R^t route and
        # the (R m0 R^t, R k) route disagree beyond 1e-12.
        rng = np.random.default_rng(23)
        for _ in range(100):
            g = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
            a = GKSMatrix(0.2 * g @ g.conj().T)
            transform_channel(a, random_su2(rng))

    def test_state_rotation_preserves_purity(self):
        rng = np.random.default_rng(24)
        r = su2_to_so3(random_su2(rng))
        v_new = transform_state(V0, r)
        assert abs(purity(v_new) - purity(V0)) <= 1e-12

    def test_y_flip_state_action(self):
        v_new = transform_state(V0, Y_FLIP)
        assert v_new.vx == -V0.vx
        assert v_new.vy == V0.vy
        assert v_new.vz == -V0.vz


class TestFieldTransport:
    def test_identity_rotation_keeps_fields(self):
        r = Rotation3(np.eye(3))
        got = tracking_fields_dephasing(transform_state(V0, r), GAMMA, OMEGA0, 1.0)
        want = tracking_fields_dephasing(V0, GAMMA, OMEGA0, 1.0)
        assert got == want

    def test_y_flip_fields_by_substitution(self):
        # Transformed problem starts at (-vx, vy, -vz); the fields follow
        # from substituting that state into the closed form (negative branch).
        w1, w2 = tracking_fields_dephasing(transform_state(V0, Y_FLIP), GAMMA,
                                           OMEGA0, 0.0)
        s = -1.0   # sign of the transformed v_z(0)
        denom = math.sqrt(0.5)
        want1 = s * (-GAMMA * V0.vy + OMEGA0 * (-V0.vx)) / denom
        want2 = s * (-GAMMA * (-V0.vx) - OMEGA0 * V0.vy) / denom
        assert abs(w1 - want1) <= 1e-12
        assert abs(w2 - want2) <= 1e-12
        # Spelled out: omega2' = s (gamma vx0 - omega0 vy0) / sqrt(0.5) with
        # gamma vx0 - omega0 vy0 = -3.9 sqrt(0.15).
        assert abs(want2 - s * (-3.9 * math.sqrt(0.15)) / denom) <= 1e-12

    def test_breakdown_time_invariant_under_stabilizer(self):
        t_b = breakdown_time(V0, GAMMA)
        for theta in (0.0, 0.4, 1.9, 3.3):
            c, s = math.cos(theta), math.sin(theta)
            rz = Rotation3(np.array([[c, -s, 0.0], [s, c, 0.0], [0.0, 0.0, 1.0]]))
            for rot in (rz, Rotation3(Y_FLIP.matrix @ rz.matrix)):
                v_rot = transform_state(V0, rot)
                assert abs(breakdown_time(v_rot, GAMMA) - t_b) <= 1e-14

    def test_transform_past_breakdown_rejected(self):
        t_b = breakdown_time(V0, GAMMA)
        with pytest.raises(PastBreakdownError):
            tracking_fields_dephasing(transform_state(V0, Y_FLIP), GAMMA, OMEGA0, t_b)

    def test_dynamics_equivariance(self):
        # Propagate then rotate == rotate, transform channel and transport
        # the waveform, then propagate.
        rng = np.random.default_rng(25)
        for _ in range(5):
            u = random_su2(rng)
            r = su2_to_so3(u)
            g = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
            a = GKSMatrix(0.15 * g @ g.conj().T)
            w = ControlWaveform.piecewise_constant(
                [0.0, 2.0, 5.0], rng.uniform(-1.5, 1.5, size=(2, 3)))
            _, ch = gks_to_channel(a)
            _, ch_new = gks_to_channel(transform_channel(a, u))
            direct = propagate_bloch(ch, w, V0, 5.0, n_samples=11)
            rotated = propagate_bloch(ch_new, transport_waveform(w, r),
                                      transform_state(V0, r), 5.0, n_samples=11)
            assert np.max(np.abs(rotated.v - direct.v @ r.matrix.T)) <= 1e-8


    # Levels of 1.6 to 1.6e5 times the initial field on the figure state:
    # each clamps before t_b = 5 and holds its saturated tail past it.
    @pytest.mark.parametrize("omega_max", [10.0, 100.0, 1000.0, 1e6])
    def test_clipped_tracking_keeps_its_held_tail(self, omega_max):
        # Without the tail RK45 in t would step through the held fields at
        # about 3/|Omega|, a time that grows with the level.
        v0 = CoherenceVector(math.sqrt(0.3), math.sqrt(0.2), math.sqrt(0.5))
        w = tracked_waveform(v0, GAMMA, OMEGA0, omega_max)
        moved = transport_waveform(w, Rotation3(np.eye(3)))
        assert moved.segments[0] == w.segments[0]
        assert np.array_equal(moved.segments[1], w.segments[1])
        want = propagate_bloch(PHASE_FLIP_CHANNEL, w, v0, 6.0, n_samples=61)
        got = propagate_bloch(PHASE_FLIP_CHANNEL, moved, v0, 6.0, n_samples=61)
        assert got.termination == want.termination == Termination("horizon")
        assert np.max(np.abs(got.v - want.v)) <= 1e-9
        # Rotated fields drive the rotated channel along the rotated run.
        r = su2_to_so3(HADAMARD)
        a = transform_channel(PHASE_FLIP, HADAMARD)
        rotated = propagate_bloch(gks_to_channel(a)[1], transport_waveform(w, r),
                                  transform_state(v0, r), 6.0, n_samples=61)
        assert rotated.termination == Termination("horizon")
        assert np.max(np.abs(rotated.v - want.v @ r.matrix.T)) <= 1e-8

    @pytest.mark.parametrize("omega_max", [None, 10.0, 1e9])
    def test_tracking_keeps_its_reference(self, omega_max, monkeypatch):
        # Without its reference the transported waveform ran RK45 in t: 1,436
        # RHS calls to breakdown against 110, and level 1e9 ended `invalid`
        # at t = 5, short of a last clamp that close to t_b.
        v0 = CoherenceVector(math.sqrt(0.3), math.sqrt(0.2), math.sqrt(0.5))
        w = tracked_waveform(v0, GAMMA, OMEGA0, omega_max)
        moved = transport_waveform(w, Rotation3(np.eye(3)))
        assert moved.reference is not None
        nfev = []

        def counting_solve_ivp(*args, **kwargs):
            sol = solve_ivp(*args, **kwargs)
            nfev.append(sol.nfev)
            return sol

        monkeypatch.setattr(dynamics, "solve_ivp", counting_solve_ivp)
        want = propagate_bloch(PHASE_FLIP_CHANNEL, w, v0, 6.0, n_samples=61)
        direct_calls = sum(nfev)
        nfev.clear()
        got = propagate_bloch(PHASE_FLIP_CHANNEL, moved, v0, 6.0, n_samples=61)
        assert got.termination == want.termination
        assert want.termination.kind == ("breakdown" if omega_max is None else "horizon")
        assert sum(nfev) == direct_calls
        assert np.max(np.abs(got.v - want.v)) <= 1e-10
        # Rotated fields and reference drive the rotated channel along the
        # rotated run. On a held tail from T the state turns through
        # |Omega| (t - T) radians, whose rounding, about 3e-7 per unit time
        # at level 1e9, adds to the allowance there.
        hold, turn_rate = math.inf, 0.0
        if w.segments is not None:
            hold, turn_rate = w.segments[0][0], float(np.linalg.norm(w.segments[1][0]))
        r = su2_to_so3(HADAMARD)
        turned = transport_waveform(w, r)
        ts = np.linspace(0.0, min(hold, 4.0), 9)
        ref, turned_ref = w.reference, turned.reference
        sigmas = ref.to_sigma(ts)
        assert np.array_equal(turned_ref.to_sigma(ts), sigmas)
        assert turned_ref.breakpoints == ref.breakpoints
        assert np.array_equal(turned_ref.origin, r.matrix @ ref.origin)
        assert np.array_equal(turned_ref.slope, r.matrix @ ref.slope)
        for sigma in sigmas:
            # dt/dsigma as it was, the scaled fields rotated as fields are.
            dt, *scaled = ref.drive(sigma)
            turned_dt, *turned_scaled = turned_ref.drive(sigma)
            assert turned_dt == dt
            moved_fields = transport_waveform(ControlWaveform.constant(*scaled), r)(0.0)
            assert np.array_equal(turned_scaled, moved_fields)
        a = transform_channel(PHASE_FLIP, HADAMARD)
        rotated = propagate_bloch(gks_to_channel(a)[1], turned,
                                  transform_state(v0, r), 6.0, n_samples=61)
        assert rotated.termination == want.termination
        err = np.max(np.abs(rotated.v - want.v @ r.matrix.T), axis=1)
        allowance = 1e-8 + np.finfo(float).eps * turn_rate * np.maximum(want.t - hold, 0.0)
        assert np.all(err <= allowance)
        assert np.max(err[want.t < hold]) <= 1e-8

    @pytest.mark.parametrize("v0, gamma, omega0, t_max", [
        (CoherenceVector(math.sqrt(0.3), math.sqrt(0.2), math.sqrt(0.5)), 1e-300, OMEGA0, 5.0),
        (CoherenceVector(3e-9, 0.0, 0.5), 100.0, 0.0, 20.0),
    ], ids=["tiny-horizon", "stiff"])
    def test_transported_runs_that_leave_sigma(self, v0, gamma, omega0, t_max):
        # Runs that RK45 cannot step in sigma: one whose times all map to the
        # same w, and one whose drive in sigma is too stiff for its shortest
        # step. Transported, they still take t and follow the rotated run.
        w = tracked_waveform(v0, gamma, omega0)
        ch = BlochChannel.dephasing(gamma)
        want = propagate_bloch(ch, w, v0, t_max, n_samples=11)
        r = su2_to_so3(HADAMARD).matrix
        turned = BlochChannel(r @ ch.m0 @ r.T, r @ ch.k)
        got = propagate_bloch(turned, transport_waveform(w, Rotation3(r)),
                              transform_state(v0, Rotation3(r)), t_max, n_samples=11)
        assert got.termination == want.termination == Termination("horizon")
        assert np.max(np.abs(got.v - want.v @ r.T)) <= 1e-8


class TestDephasingClassMembership:
    def test_plain_dephasing_is_member(self):
        ok, r, gamma = is_dephasing_class(BlochChannel.dephasing(GAMMA))
        assert ok
        assert math.isclose(gamma, GAMMA, rel_tol=1e-12)
        m0 = BlochChannel.dephasing(GAMMA).m0
        diag = r.matrix.T @ m0 @ r.matrix
        assert np.max(np.abs(diag - np.diag([-GAMMA, -GAMMA, 0.0]))) <= 1e-10

    def test_rotated_dephasing_is_member(self):
        rng = np.random.default_rng(26)
        u = random_su2(rng)
        _, ch = gks_to_channel(transform_channel(PHASE_FLIP, u))
        ok, r, gamma = is_dephasing_class(ch)
        assert ok
        assert math.isclose(gamma, GAMMA, rel_tol=1e-9)
        diag = r.matrix.T @ ch.m0 @ r.matrix
        assert np.max(np.abs(diag - np.diag([-gamma, -gamma, 0.0]))) <= 1e-10

    def test_depolarizing_is_not_member(self):
        _, ch = gks_to_channel(GKSMatrix(0.05 * np.eye(3, dtype=complex)))
        ok, _, _ = is_dephasing_class(ch)
        assert not ok

    def test_non_unital_is_not_member(self):
        ch = BlochChannel(np.diag([-0.1, -0.1, 0.0]), np.array([0.0, 0.0, 0.01]))
        ok, _, _ = is_dephasing_class(ch)
        assert not ok

    def test_zero_channel_is_member_with_zero_rate(self):
        ok, _, gamma = is_dephasing_class(BlochChannel.dephasing(0.0))
        assert ok
        assert gamma == 0.0

    def test_large_rate_transforms_and_stays_member(self):
        # Entries of size 1e4 carry rounding residuals near 1e-11; the
        # Hermiticity test and the two-route cross-check scale with them.
        rng = np.random.default_rng(27)
        for size in (5e3, 5e8):
            a = GKSMatrix(np.diag([0.0, 0.0, size]).astype(complex))
            for _ in range(50):
                _, ch = gks_to_channel(transform_channel(a, random_su2(rng)))
                ok, _, gamma = is_dephasing_class(ch)
                assert ok
                assert math.isclose(gamma, 2.0 * size, rel_tol=1e-12)

    @pytest.mark.parametrize("scale", [10.0, 1e4, 1e8])
    def test_verdict_does_not_depend_on_the_rate_scale(self, scale):
        # t -> t / scale, gamma -> scale gamma leaves the dynamics alone, so
        # it leaves class membership alone (for rates above 1, where the
        # tolerance stops being absolute).
        def channel(split):
            m0 = np.diag([-GAMMA, -GAMMA, 0.0])
            m0[0, 1] = m0[1, 0] = split * GAMMA
            return BlochChannel(scale * m0, np.zeros(3))

        assert is_dephasing_class(channel(1e-12))[0]
        assert not is_dephasing_class(channel(1e-8))[0]
        assert _z_dephasing_rate(channel(1e-12)) is not None
        assert _z_dephasing_rate(channel(1e-8)) is None

    def test_non_finite_generator_is_not_member(self):
        # A NaN generator never reaches the class test: the channel refuses it.
        m0 = np.diag([-GAMMA, -GAMMA, 0.0])
        m0[2, 2] = math.nan
        with pytest.raises(ValidationError, match="finite"):
            BlochChannel(m0, np.zeros(3))


def _config_for(a: np.ndarray) -> ScenarioConfig:
    return ScenarioConfig.from_dict({
        "channel": {"type": "gks", "matrix": complex_matrix_to_json(a)},
        "initial_state": {"vx": V0.vx, "vy": V0.vy, "vz": V0.vz},
        "control": {"mode": "track", "omega0": OMEGA0},
        "t_max": 1.0,
        "samples": 11,
    })


class TestOneDephasingRule:
    """Which channels `simulate_tracked`, `emit_fields` and `equiv` treat in closed form."""

    @given(st.one_of(st.sampled_from([0.0, 5e-324]), st.floats(1e-3, 1e4)),
           st.floats(0.0, 2.0 * math.pi), st.booleans(), st.floats(-1.0, 1.0))
    @settings(max_examples=40, deadline=None)
    def test_dephasing_about_z_runs_in_closed_form(self, gamma, theta, flip, eps):
        # The z-axis stabilizer (rotations about z, the y-flip) maps the
        # dephasing generator to itself up to rounding; an xy coupling up
        # to 1e-11 max(1, gamma) is inside the class tolerance (and up to
        # gamma, so the diagonal of m0 stays non-positive).
        rot = _rot_z(theta).matrix
        if flip:
            rot = Y_FLIP.matrix @ rot
        m0 = np.diag([-gamma, -gamma, 0.0])
        m0[0, 1] = m0[1, 0] = eps * min(gamma, 1e-11 * max(1.0, gamma))
        ch = BlochChannel(rot @ m0 @ rot.T, np.zeros(3))
        rate = _z_dephasing_rate(ch)
        assert rate is not None
        assert abs(rate - gamma) <= 1e-14 * max(1.0, gamma)
        assert is_dephasing_class(ch)[2] == rate
        t_b = breakdown_time(V0, rate)
        t_max = 1.5 * t_b if t_b < 1e3 else 10.0
        traj = simulate_tracked(ch, V0, OMEGA0, t_max, n_samples=11)
        want = Termination("breakdown", t_b) if t_b < t_max else Termination("horizon")
        assert traj.termination == want

    @given(st.floats(1e-2, math.pi / 2), st.floats(0.0, 2.0 * math.pi),
           st.floats(1e-3, 1e4))
    @settings(max_examples=30, deadline=None)
    def test_dephasing_off_z_has_no_closed_form(self, tilt, azimuth, gamma):
        n = np.array([math.sin(tilt) * math.cos(azimuth),
                      math.sin(tilt) * math.sin(azimuth), math.cos(tilt)])
        a = (0.5 * gamma * np.outer(n, n)).astype(complex)   # m0 = -gamma (I - n n^t)
        cfg = _config_for(a)
        ch = gks_to_channel(cfg.channel)[1]
        ok, _, rate = is_dephasing_class(ch)
        assert ok and math.isclose(rate, gamma, rel_tol=1e-9)
        assert _z_dephasing_rate(ch) is None
        report = equivalence_report(cfg, Unitary2(np.eye(2, dtype=complex)))
        assert report["dephasing_class_before"]["member"]
        assert "breakdown_time_before" not in report
        assert "breakdown_time_after" not in report
        with pytest.raises(ConfigError, match="dephases about z"):
            emit_fields(cfg)
        with pytest.raises(DomainError, match="clipping"):
            simulate_tracked(ch, V0, OMEGA0, 1.0, omega_max=10.0)
