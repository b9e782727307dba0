"""Propagation in both pictures, waveforms, and trajectory serialization."""

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
    bloch_to_density,
    coherence,
)
from cohtrack.dynamics import (
    CSV_HEADER,
    IntegratorConfig,
    Termination,
    _trajectory,
    free_dephasing_analytic,
    phase_flip_probability,
    propagate_bloch,
    propagate_density,
    purity_rate,
    read_trajectory_csv,
    write_trajectory_csv,
)
from cohtrack.errors import DomainError, ValidationError, WaveformDomainError
from cohtrack.tracking import coherence_ramp_schedule
from cohtrack.waveform import ControlWaveform

V0 = CoherenceVector(0.39, 0.39, 1.0 / math.sqrt(2.0))
ZERO_CHANNEL = BlochChannel(np.zeros((3, 3)), np.zeros(3))


class TestWaveforms:
    def test_constant_and_zero(self):
        w = ControlWaveform.constant(1.0, 2.0, -3.0)
        assert np.array_equal(w(0.0), [1.0, 2.0, -3.0])
        assert np.array_equal(ControlWaveform.zero()(5.0), [0.0, 0.0, 0.0])

    def test_negative_time_rejected(self):
        with pytest.raises(WaveformDomainError):
            ControlWaveform.zero()(-0.1)

    def test_domain_end_enforced(self):
        w = ControlWaveform.closed_form(lambda t: (0.0, 0.0, 0.0), t_end=2.0)
        w(1.999)
        with pytest.raises(WaveformDomainError):
            w(2.0)

    def test_sampled_interpolation_and_hold(self):
        t = np.linspace(0.0, 1.0, 5)
        omega = np.column_stack([t, 2 * t, -t])
        w = ControlWaveform.sampled(t, omega)
        assert np.allclose(w(0.375), [0.375, 0.75, -0.375])
        assert np.allclose(w(3.0), [1.0, 2.0, -1.0])   # holds the end value

    def test_sampled_rejects_nonuniform_grid(self):
        with pytest.raises(ValidationError):
            ControlWaveform.sampled([0.0, 0.1, 0.5], np.zeros((3, 3)))

    def test_sampled_rejects_late_start(self):
        with pytest.raises(ValidationError, match="must start at 0, got 1.0"):
            ControlWaveform.sampled([1.0, 2.0, 3.0], np.zeros((3, 3)))

    def test_piecewise_constant_lookup_and_breakpoints(self):
        w = ControlWaveform.piecewise_constant(
            [0.0, 1.0, 2.0], [[1.0, 0.0, 0.0], [0.0, 2.0, 0.0]])
        assert np.array_equal(w(0.5), [1.0, 0.0, 0.0])
        assert np.array_equal(w(1.0), [0.0, 2.0, 0.0])
        assert w.breakpoints == (1.0,)

    def test_wrong_field_count_rejected(self):
        w = ControlWaveform(lambda t: (1.0, 2.0))
        with pytest.raises(ValidationError):
            w(0.0)
        with pytest.raises(ValidationError):
            w.unchecked()

    def test_unchecked_returns_the_raw_field_function(self):
        calls = []

        def func(t):
            calls.append(t)
            return (1.0, 2.0, 3.0)

        f = ControlWaveform.closed_form(func, t_end=1.0).unchecked()
        assert f is func
        assert calls == [0.0]   # the one checked evaluation

    @given(st.lists(st.floats(-10.0, 10.0), min_size=2, max_size=8, unique=True),
           st.data())
    @settings(max_examples=100)
    def test_piecewise_lookup_matches_searchsorted(self, edges, data):
        edges = np.sort(np.array(edges))
        n = len(edges) - 1
        values = np.arange(3.0 * n).reshape(n, 3)
        w = ControlWaveform.piecewise_constant(edges, values)
        fields = w.unchecked()
        on_edge = data.draw(st.sampled_from(edges.tolist()))
        inside = data.draw(st.floats(edges[0], edges[-1]))
        times = [on_edge, inside, edges[-1], edges[-1] + 1.0, edges[0] - 1.0, 0.0]
        for t in times:
            i = int(np.clip(np.searchsorted(edges, t, side="right") - 1, 0, n - 1))
            assert fields(t) == tuple(values[i])
            if t >= 0:
                assert np.array_equal(w(t), values[i])

        # A coherence ramp starting a segment at 0 and at every |edge|. Without
        # dephasing each segment's fields are constant, the first segment's
        # scaled by 2^-k on segment k (the target coherence drops fourfold).
        starts = np.union1d([0.0], np.abs(edges))
        v0 = CoherenceVector(0.3, 0.4, 0.5)
        ramp = coherence_ramp_schedule(v0, 0.0, [(s, coherence(v0) / 4**k)
                                                 for k, s in enumerate(starts)],
                                       omega0=1.0).unchecked()
        first = np.array(ramp(0.0))
        on_edge = data.draw(st.sampled_from(starts.tolist()))
        inside = data.draw(st.floats(0.0, starts[-1]))
        for t in [on_edge, inside, starts[-1], starts[-1] + 1.0, -1.0, 0.0]:
            k = int(np.clip(np.searchsorted(starts, t, side="right") - 1,
                            0, len(starts) - 1))
            got = np.array(ramp(t))
            assert got[0] == 1.0
            assert np.allclose(got[1:], first[1:] / 2**k, rtol=1e-12, atol=0.0)

    def test_constant_result_is_not_shared(self):
        w = ControlWaveform.constant(1.0, 2.0, 3.0)
        w(0.0)[0] = 9.0
        assert np.array_equal(w(1.0), [1.0, 2.0, 3.0])


class TestPropagateBloch:
    def test_zero_channel_zero_fields_is_constant(self):
        traj = propagate_bloch(ZERO_CHANNEL, ControlWaveform.zero(), V0, 5.0,
                               n_samples=21)
        assert np.max(np.abs(traj.v - V0.as_array())) <= 1e-12
        assert traj.termination.kind == "horizon"

    def test_free_dephasing_matches_analytic(self):
        ch = BlochChannel.dephasing(0.1)
        traj = propagate_bloch(ch, ControlWaveform.zero(), V0, 10.0, n_samples=101)
        for i, t in enumerate(traj.t):
            ref = free_dephasing_analytic(0.1, V0, float(t))
            assert abs(traj.v[i, 0] - ref.vx) <= 1e-9
            assert abs(traj.v[i, 1] - ref.vy) <= 1e-9
            assert abs(traj.v[i, 2] - ref.vz) <= 1e-9
        assert math.isclose(traj.v[-1, 0], 0.39 * math.exp(-1.0), rel_tol=1e-9)

    def test_pure_z_rotation_conserves_norms(self):
        w = ControlWaveform.constant(3.0)
        traj = propagate_bloch(ZERO_CHANNEL, w, V0, 8.0, n_samples=81)
        assert np.max(np.abs(traj.p - traj.p[0])) <= 1e-9
        assert np.max(np.abs(traj.c - traj.c[0])) <= 1e-9

    def test_waveform_domain_end_terminates_with_breakdown(self):
        w = ControlWaveform.closed_form(lambda t: (0.0, 0.0, 0.0), t_end=3.0)
        traj = propagate_bloch(ZERO_CHANNEL, w, V0, 10.0, n_samples=101)
        assert traj.termination.kind == "breakdown"
        assert traj.termination.time == 3.0
        assert traj.t[-1] < 3.0

    def test_samples_on_requested_grid(self):
        traj = propagate_bloch(ZERO_CHANNEL, ControlWaveform.zero(), V0, 1.0,
                               n_samples=11)
        assert np.allclose(traj.t, np.linspace(0.0, 1.0, 11))

    def test_invalid_t_max_rejected(self):
        with pytest.raises(DomainError):
            propagate_bloch(ZERO_CHANNEL, ControlWaveform.zero(), V0, -1.0)

    def test_wrong_field_count_rejected_before_the_solver(self, monkeypatch):
        def no_solver(*args, **kwargs):
            raise AssertionError("the solver ran")

        monkeypatch.setattr(dynamics, "solve_ivp", no_solver)
        w = ControlWaveform(lambda t: (1.0, 2.0))
        with pytest.raises(ValidationError, match="3 fields"):
            propagate_bloch(ZERO_CHANNEL, w, V0, 1.0)
        a = GKSMatrix(np.zeros((3, 3), dtype=complex))
        with pytest.raises(ValidationError, match="3 fields"):
            propagate_density(a, w, bloch_to_density(V0), 1.0)

    def test_solver_failure_keeps_the_samples_before_it(self, monkeypatch):
        # Fields that turn NaN at t = 1.05 make RK45 shrink its step below
        # the float spacing and stop; the run ends `invalid` at the first
        # grid point it did not reach, with the samples of a clean run.
        solved = []

        def recording_solve_ivp(*args, **kwargs):
            solved.append(solve_ivp(*args, **kwargs))
            return solved[-1]

        monkeypatch.setattr(dynamics, "solve_ivp", recording_solve_ivp)
        ch, v0 = BlochChannel.dephasing(0.1), CoherenceVector(0.3, 0.2, 0.5)
        fields = (1.0, 0.5, -0.3)
        w = ControlWaveform(lambda t: fields if t < 1.05 else (math.nan,) * 3)
        traj = propagate_bloch(ch, w, v0, 2.0, n_samples=21)
        assert [sol.success for sol in solved] == [False]
        assert traj.termination.label() == "invalid:t=1.1000000000000001"
        assert len(traj.t) == 11
        clean = propagate_bloch(ch, ControlWaveform.constant(*fields), v0, 2.0,
                                n_samples=21)
        assert clean.termination.kind == "horizon"
        assert np.array_equal(traj.t, clean.t[:11])
        assert np.array_equal(traj.v, clean.v[:11])
        assert np.array_equal(traj.omega, clean.omega[:11])


class TestPropagateDensity:
    def test_identity_on_zero_generator(self):
        a = GKSMatrix(np.zeros((3, 3), dtype=complex))
        traj = propagate_density(a, ControlWaveform.zero(), bloch_to_density(V0),
                                 4.0, n_samples=9)
        assert np.max(np.abs(traj.v - V0.as_array())) <= 1e-12

    def test_free_dephasing_coherence_decay(self):
        a = GKSMatrix(np.diag([0.0, 0.0, 0.05]).astype(complex))
        traj = propagate_density(a, ControlWaveform.zero(), bloch_to_density(V0),
                                 10.0, n_samples=11)
        # rho_01(t) = e^{-gamma t} rho_01(0) means v_x, v_y decay at rate gamma.
        for i, t in enumerate(traj.t):
            assert abs(traj.v[i, 0] - 0.39 * math.exp(-0.1 * t)) <= 1e-9

    def test_agrees_with_bloch_route_under_fields(self):
        rng = np.random.default_rng(3)
        g = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
        a = GKSMatrix(0.1 * g @ g.conj().T)
        from cohtrack.bloch import gks_to_channel
        _, ch = gks_to_channel(a)
        w = ControlWaveform.piecewise_constant(
            [0.0, 1.0, 2.0], [[1.0, -0.5, 0.3], [-0.2, 0.8, -1.1]])
        tb = propagate_bloch(ch, w, V0, 2.0, n_samples=21)
        td = propagate_density(a, w, bloch_to_density(V0), 2.0, n_samples=21)
        assert np.max(np.abs(tb.v - td.v)) <= 1e-8


def _trajectory_end_by_loop(grid, vs, n_ok, cfg, end):
    """Reference: the termination scan of `_trajectory`, one sample at a time."""
    norm_cap = 1.0 + 10.0 * cfg.rtol
    for i in range(n_ok):
        if not np.all(np.isfinite(vs[i])) or float(vs[i] @ vs[i]) > norm_cap**2:
            return Termination("invalid", float(grid[i])), max(1, i)
    if n_ok < len(grid):
        end = Termination("invalid", float(grid[n_ok]))
    return end, n_ok


NORM_CAP = 1.0 + 10.0 * IntegratorConfig().rtol


class TestTrajectoryScan:
    GRID = np.linspace(0.0, 1.0, 11)

    @pytest.mark.parametrize("bad, n_ok, end_at, kept", [
        ({4: [0.1, np.nan, 0.2], 7: [np.inf] * 3}, 11, 4, 4),         # NaN mid-run
        ({6: [0.6, 0.6, 0.6]}, 11, 6, 6),                              # out of the ball
        ({5: [NORM_CAP, 0.0, 0.0],
          6: [np.nextafter(NORM_CAP, 2.0), 0.0, 0.0]}, 11, 6, 6),      # on the cap is kept
        ({0: [2.0, 0.0, 0.0]}, 11, 0, 1),                              # keeps one sample
        ({}, 8, 8, 8),                                                 # unreached point
        ({3: [0.0, 0.0, -1.5]}, 8, 3, 3),                              # bad before unreached
        ({}, 11, None, 11),                                            # clean run
    ])
    def test_end_matches_reference_loop(self, bad, n_ok, end_at, kept):
        vs = np.tile(V0.as_array(), (len(self.GRID), 1))
        vs[n_ok:] = np.nan
        for i, row in bad.items():
            vs[i] = row
        cfg, end = IntegratorConfig(), Termination("horizon")
        traj = _trajectory(self.GRID, vs, n_ok, cfg, end, lambda g, _: np.zeros((len(g), 3)))
        expected = end if end_at is None else Termination("invalid", float(self.GRID[end_at]))
        assert (traj.termination, len(traj.t)) == (expected, kept)
        assert (traj.termination, len(traj.t)) == _trajectory_end_by_loop(
            self.GRID, vs, n_ok, cfg, end)
        assert np.array_equal(traj.v, vs[:kept])


class TestAnalyticHelpers:
    def test_phase_flip_probability(self):
        assert phase_flip_probability(0.1, 0.0) == 0.0
        assert math.isclose(phase_flip_probability(0.1, 10.0),
                            (1 - math.exp(-1.0)) / 2, rel_tol=1e-15)
        with pytest.raises(DomainError):
            phase_flip_probability(-0.1, 1.0)

    def test_free_analytic_rejects_bad_inputs(self):
        with pytest.raises(DomainError):
            free_dephasing_analytic(-0.1, V0, 1.0)
        with pytest.raises(DomainError):
            free_dephasing_analytic(0.1, V0, -1.0)

    def test_purity_rate_matches_finite_difference(self):
        ch = BlochChannel.dephasing(0.1)
        rate = purity_rate(ch, V0)
        h = 1e-5
        traj = propagate_bloch(ch, ControlWaveform.zero(), V0, 2 * h, n_samples=3)
        fd = (-3 * traj.p[0] + 4 * traj.p[1] - traj.p[2]) / (2 * h)
        assert abs(rate - fd) <= 1e-8

    def test_purity_rate_is_field_independent(self):
        ch = BlochChannel.dephasing(0.1)
        # The control only rotates v, so dp/dt depends on the channel alone.
        assert math.isclose(purity_rate(ch, V0), -2 * 0.1 * (0.39**2 * 2),
                            rel_tol=1e-12)


class TestTermination:
    def test_kinds_and_labels(self):
        assert Termination("horizon").label() == "horizon"
        assert Termination("breakdown", 2.5).label() == "breakdown:t_b=2.5"
        assert Termination("clipped", 1.0).label() == "clipped:t=1"
        assert Termination("invalid", 0.5).label() == "invalid:t=0.5"

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValidationError, match="bogus"):
            Termination("bogus")

    @pytest.mark.parametrize("kind", ["breakdown", "clipped", "invalid"])
    def test_non_horizon_kind_needs_time(self, kind):
        with pytest.raises(ValidationError, match="time"):
            Termination(kind)


class TestTrajectoryCSV:
    def test_round_trip(self, tmp_path):
        ch = BlochChannel.dephasing(0.1)
        traj = propagate_bloch(ch, ControlWaveform.zero(), V0, 5.0, n_samples=11)
        path = tmp_path / "traj.csv"
        write_trajectory_csv(traj, path)
        text = path.read_text()
        assert text.startswith(CSV_HEADER + "\n")
        assert "# termination=horizon" in text
        back = read_trajectory_csv(path)
        assert np.array_equal(back.t, traj.t)
        assert np.array_equal(back.v, traj.v)
        assert back.termination.kind == "horizon"

    def test_termination_metadata_round_trip(self, tmp_path):
        ch = BlochChannel.dephasing(0.1)
        traj = propagate_bloch(ch, ControlWaveform.zero(), V0, 1.0, n_samples=5)
        traj = traj.with_termination(Termination("breakdown", 25.0 / 3.0))
        path = tmp_path / "traj.csv"
        write_trajectory_csv(traj, path)
        back = read_trajectory_csv(path)
        assert back.termination.kind == "breakdown"
        assert back.termination.time == 25.0 / 3.0

    def test_malformed_rows_rejected_with_row_number(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text(CSV_HEADER + "\n1,2,3\n")
        with pytest.raises(ValidationError, match="row 2"):
            read_trajectory_csv(path)

    @pytest.mark.parametrize("cell", ["", "x"])
    def test_empty_or_non_numeric_cell_rejected(self, tmp_path, cell):
        path = tmp_path / "bad.csv"
        path.write_text(CSV_HEADER + "\n" + ",".join(["0"] * 9) + "\n"
                        + ",".join(["0", cell] + ["0"] * 7) + "\n")
        with pytest.raises(ValidationError, match="row 3: .*'vx'"):
            read_trajectory_csv(path)

    def test_singularity_line_round_trip(self, tmp_path):
        from cohtrack.tracking import classify_singularity, simulate_tracked

        ch = BlochChannel.dephasing(0.1)
        traj = simulate_tracked(ch, V0, 4.0, 10.0, n_samples=201)
        report = classify_singularity(traj, ch)
        traj = traj.with_singularity(report)
        first, second = tmp_path / "a.csv", tmp_path / "b.csv"
        write_trajectory_csv(traj, first)
        back = read_trajectory_csv(first)
        assert back.singularity.classification == "nontrivial-a"
        got = back.singularity
        assert (got.t, got.d1, got.d2, got.n1, got.n2) == (
            report.t, report.d1, report.d2, report.n1, report.n2)
        write_trajectory_csv(back, second)
        assert first.read_bytes() == second.read_bytes()

    @pytest.mark.parametrize("comment", [
        "# termination=bogus",
        "# termination=breakdown",
        "# termination=clipped:t=soon",
        "# singularity=trivial t=1 D1=0",
        "# singularity=trivial t=x D1=0 D2=0 N1=0 N2=0",
    ])
    def test_malformed_comment_lines_rejected(self, tmp_path, comment):
        path = tmp_path / "bad.csv"
        path.write_text(CSV_HEADER + "\n" + ",".join(["0"] * 9) + "\n"
                        + comment + "\n")
        with pytest.raises(ValidationError, match="row 3"):
            read_trajectory_csv(path)

    def test_wrong_header_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("time,x\n0,1\n")
        with pytest.raises(ValidationError, match="header"):
            read_trajectory_csv(path)

    def test_values_written_at_full_precision(self, tmp_path):
        ch = BlochChannel.dephasing(0.1)
        traj = propagate_bloch(ch, ControlWaveform.zero(), V0, 1.0, n_samples=7)
        path = tmp_path / "traj.csv"
        write_trajectory_csv(traj, path)
        back = read_trajectory_csv(path)
        assert np.array_equal(back.v, traj.v)   # %.17g round-trips exactly
