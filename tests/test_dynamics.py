"""Propagation in both pictures, waveforms, and trajectory serialization."""

import math
import warnings

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
    gks_to_channel,
)
from cohtrack.dynamics import (
    CSV_HEADER,
    IntegratorConfig,
    Termination,
    _bloch_rhs,
    _integrate,
    _trajectory,
    free_dephasing_analytic,
    propagate_bloch,
    propagate_density,
    purity_rate,
    read_trajectory_csv,
    write_trajectory_csv,
)
from cohtrack.equivalence import Rotation3, transport_waveform
from cohtrack.errors import DomainError, ValidationError, WaveformDomainError
from cohtrack.tracking import tracked_waveform
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

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_piecewise_constant_rejects_non_finite_fields(self, bad):
        # The first segment is finite, so the check at t = 0 would not see it.
        with pytest.raises(ValidationError, match="finite"):
            ControlWaveform.piecewise_constant([0.0, 1.0, 2.0],
                                               [[1.0, 0.0, 0.0], [bad, 0.0, 0.0]])

    @pytest.mark.parametrize("edges", [[0.0, math.nan, 2.0], [0.0, 1.0, math.inf]])
    def test_piecewise_constant_rejects_non_finite_edges(self, edges):
        # NaN compares false, so the increasing-edges test alone lets a NaN
        # edge through, and every t >= 0 would fall into the second segment.
        with pytest.raises(ValidationError, match="edges must be finite"):
            ControlWaveform.piecewise_constant(edges, [[1.0, 0.0, 0.0], [0.0, 3.0, 0.0]])

    def test_piecewise_constant_needs_a_segment(self):
        # With no triple, the first call would have nothing to look up.
        with pytest.raises(ValidationError, match="at least one segment"):
            ControlWaveform.piecewise_constant([0.0], np.zeros((0, 3)))

    def test_sampled_rejects_non_finite_times(self):
        # NaN compares false, so it passes the increasing and uniform grid tests.
        with pytest.raises(ValidationError, match="times must be finite"):
            ControlWaveform.sampled([0.0, math.nan, 2.0], np.zeros((3, 3)))

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

    def test_wrong_field_count_rejected_before_the_solver(self, no_solver):
        w = ControlWaveform(lambda t: (1.0, 2.0))
        with pytest.raises(ValidationError, match="3 fields"):
            propagate_bloch(ZERO_CHANNEL, w, V0, 1.0)
        a = GKSMatrix(np.zeros((3, 3), dtype=complex))
        with pytest.raises(ValidationError, match="3 fields"):
            propagate_density(a, w, bloch_to_density(V0), 1.0)

    def test_non_finite_fields_rejected_before_the_solver(self, no_solver):
        # RK45 cannot step through NaN fields; before this check such a run
        # never returned.
        w = ControlWaveform(lambda t: (math.nan, 0.0, 0.0))
        with pytest.raises(ValidationError, match="finite"):
            propagate_bloch(ZERO_CHANNEL, w, V0, 10.0)
        a = GKSMatrix(np.zeros((3, 3), dtype=complex))
        with pytest.raises(ValidationError, match="finite"):
            propagate_density(a, w, bloch_to_density(V0), 10.0)

    @pytest.mark.parametrize("n_samples", [0, 1])
    def test_fewer_than_two_samples_rejected(self, no_solver, n_samples):
        with pytest.raises(ValidationError, match="n_samples"):
            propagate_bloch(ZERO_CHANNEL, ControlWaveform.zero(), V0, 10.0,
                            n_samples=n_samples)

    def test_solver_failure_keeps_the_samples_before_it(self, monkeypatch):
        # Fields that turn NaN make RK45 shrink its step below the float
        # spacing and stop; the run ends `invalid` at the first grid point it
        # did not reach, with the samples of a clean run, in both pictures.
        # With NaN right after t = 0 the solver reaches no grid point and the
        # run keeps only its first sample.
        solved = []

        def recording_solve_ivp(*args, **kwargs):
            solved.append(solve_ivp(*args, **kwargs))
            return solved[-1]

        monkeypatch.setattr(dynamics, "solve_ivp", recording_solve_ivp)
        ch, v0 = BlochChannel.dephasing(0.1), CoherenceVector(0.3, 0.2, 0.5)
        a = GKSMatrix(np.diag([0.0, 0.0, 0.05]).astype(complex))   # the same channel

        def bloch(w, n_samples):
            return propagate_bloch(ch, w, v0, 2.0, n_samples=n_samples)

        def density(w, n_samples):
            # scipy's error norm divides by the NaN scale of a complex state.
            with warnings.catch_warnings():
                warnings.filterwarnings("ignore", "invalid value encountered in divide",
                                        RuntimeWarning)
                return propagate_density(a, w, bloch_to_density(v0), 2.0,
                                         n_samples=n_samples)

        fields = (1.0, 0.5, -0.3)
        cases = [
            (lambda t: fields if t < 1.05 else (math.nan,) * 3, fields, 21,
             "invalid:t=1.1000000000000001", 11),
            (lambda t: (0.0, 0.0, 0.0) if t == 0 else (math.nan, 0.0, 0.0),
             (0.0, 0.0, 0.0), 5, "invalid:t=0.5", 1),
        ]
        for run in (bloch, density):
            for func, clean_fields, n_samples, label, kept in cases:
                solved.clear()
                traj = run(ControlWaveform(func), n_samples)
                assert [sol.success for sol in solved] == [False]
                assert traj.termination.label() == label
                assert len(traj.t) == kept
                # A hand-built waveform has no segments, so the clean run is
                # RK45 too.
                clean = run(ControlWaveform(lambda t: clean_fields), n_samples)
                assert clean.termination.kind == "horizon"
                assert np.array_equal(traj.t, clean.t[:kept])
                assert np.array_equal(traj.v, clean.v[:kept])
                assert np.array_equal(traj.omega, clean.omega[:kept])


def _random_channel(rng, unital=False) -> BlochChannel:
    g = rng.normal(size=(3, 3)) + (0.0 if unital else 1j * rng.normal(size=(3, 3)))
    return gks_to_channel(GKSMatrix((0.1 * g @ g.conj().T).astype(complex)))[1]


def _rk45_reference(monkeypatch, ch, w, v0, t_max, n_samples):
    """The same Bloch RHS through `_integrate`, with the real solver restored."""
    grid = np.linspace(0.0, t_max, n_samples)
    with monkeypatch.context() as m:
        m.setattr(dynamics, "solve_ivp", solve_ivp)
        ys, n_ok = _integrate(_bloch_rhs(ch, w.unchecked()), v0.as_array(), grid,
                              IntegratorConfig(), w.breakpoints)
    assert n_ok == n_samples
    return ys


class TestExactSteps:
    """Piecewise-constant waveforms take exact steps, never the solver."""

    def test_matches_rk45_on_random_cases(self, no_solver, monkeypatch):
        rng = np.random.default_rng(2)
        for _ in range(25):
            ch = _random_channel(rng)
            n_seg, n_samples = int(rng.integers(1, 7)), int(rng.integers(2, 18))
            t_max = float(rng.uniform(0.3, 4.0))
            edges = np.sort(rng.uniform(-0.5, 4.5, n_seg + 1))
            w = ControlWaveform.piecewise_constant(edges, rng.uniform(-3, 3, (n_seg, 3)))
            v0 = CoherenceVector.from_array(0.9 * rng.uniform(-1, 1, 3) / math.sqrt(3))
            traj = propagate_bloch(ch, w, v0, t_max, n_samples=n_samples)
            ref = _rk45_reference(monkeypatch, ch, w, v0, t_max, n_samples)
            assert traj.termination.kind == "horizon"
            assert np.max(np.abs(traj.v - ref)) <= 1e-9
            assert np.array_equal(traj.omega, [w(t) for t in traj.t])

    @pytest.mark.parametrize("edges, t_max, n_samples", [
        ([0.0, 0.5, 1.0], 1.0, 5),          # grid points on every edge
        ([0.0, 1.0, 2.0, 3.0], 1.5, 7),     # t_max before the last segment start
        ([0.0, 0.4, 0.9], 3.5, 8),          # t_max past the last edge
        ([0.0, 0.3, 0.8], 2.0, 2),          # two samples, edges between them
    ])
    def test_edges_against_rk45_and_rotation(self, no_solver, monkeypatch, edges,
                                             t_max, n_samples):
        rng = np.random.default_rng(5)
        ch = _random_channel(rng)
        omega0 = rng.uniform(-3, 3, len(edges) - 1)
        values = np.column_stack([omega0, rng.uniform(-3, 3, (len(edges) - 1, 2))])
        w = ControlWaveform.piecewise_constant(edges, values)
        traj = propagate_bloch(ch, w, V0, t_max, n_samples=n_samples)
        ref = _rk45_reference(monkeypatch, ch, w, V0, t_max, n_samples)
        assert np.max(np.abs(traj.v - ref)) <= 1e-9
        # Without a channel, omega0 alone rotates v about z by its integral,
        # the last segment holding past the last edge.
        wz = ControlWaveform.piecewise_constant(edges, np.column_stack(
            [omega0, np.zeros((len(omega0), 2))]))
        rot = propagate_bloch(ZERO_CHANNEL, wz, V0, t_max, n_samples=n_samples)
        ends = np.append(edges[1:-1], np.inf)
        starts = np.array(edges[:-1])
        for t, v in zip(rot.t, rot.v):
            span = np.clip(np.minimum(t, ends) - starts, 0.0, None)
            angle = float(omega0 @ span)
            want = [V0.vx * math.cos(angle) - V0.vy * math.sin(angle),
                    V0.vx * math.sin(angle) + V0.vy * math.cos(angle), V0.vz]
            assert np.max(np.abs(v - want)) <= 1e-14

    def test_constant_and_zero_waveforms(self, no_solver, monkeypatch):
        ch = _random_channel(np.random.default_rng(8))
        w = ControlWaveform.constant(1.5, -0.7, 2.0)
        assert w.segments == ((0.0,), ((1.5, -0.7, 2.0),))
        traj = propagate_bloch(ch, w, V0, 3.0, n_samples=13)
        ref = _rk45_reference(monkeypatch, ch, w, V0, 3.0, 13)
        assert np.max(np.abs(traj.v - ref)) <= 1e-9
        free = propagate_bloch(BlochChannel.dephasing(0.1), ControlWaveform.zero(), V0,
                               10.0, n_samples=101)
        want = [free_dephasing_analytic(0.1, V0, float(t)).as_array() for t in free.t]
        assert np.max(np.abs(free.v - want)) <= 1e-14

    def test_unital_purity_never_rises(self, no_solver):
        rng = np.random.default_rng(4)
        for n_seg in range(1, 41):
            ch = _random_channel(rng, unital=True)
            w = ControlWaveform.piecewise_constant(np.linspace(0.0, 3.0, n_seg + 1),
                                                   rng.uniform(-5, 5, (n_seg, 3)))
            v0 = CoherenceVector.from_array(rng.uniform(-1, 1, 3) / math.sqrt(3))
            traj = propagate_bloch(ch, w, v0, 3.0, n_samples=61)
            assert np.max(np.diff(traj.p)) <= 1e-12

    def test_other_waveforms_call_the_solver(self, monkeypatch):
        runs = []

        def counting_solve_ivp(*args, **kwargs):
            runs.append(1)
            return solve_ivp(*args, **kwargs)

        monkeypatch.setattr(dynamics, "solve_ivp", counting_solve_ivp)
        piecewise = ControlWaveform.piecewise_constant([0.0, 1.0, 2.0],
                                                       [[1.0, 0.5, 0.0], [0.0, 1.0, -1.0]])
        rz = Rotation3(np.array([[0.0, -1.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 1.0]]))
        t = np.linspace(0.0, 2.0, 5)
        for w in (transport_waveform(piecewise, rz),
                  ControlWaveform.sampled(t, np.column_stack([t, -t, 2 * t])),
                  tracked_waveform(V0, 0.1, 4.0),
                  ControlWaveform(lambda s: (1.0, 0.0, 0.0))):
            assert w.segments is None
            before = len(runs)
            propagate_bloch(BlochChannel.dephasing(0.1), w, V0, 2.0, n_samples=5)
            assert len(runs) > before


def _direct(w: ControlWaveform) -> ControlWaveform:
    """The same fields on a plain closed-form waveform: no reference, RK45 on v."""
    return ControlWaveform.closed_form(w.unchecked(), w.t_end, w.breakpoints)


class TestDeviationRoute:
    """A waveform with a `reference` integrates v - v*(t) with RK45 (Encke's method)."""

    GAMMA, OMEGA0 = 0.1, 4.0

    def test_reference_solves_the_bloch_equation_under_its_fields(self):
        w = tracked_waveform(V0, self.GAMMA, self.OMEGA0)
        assert _direct(w).reference is None
        rhs = _bloch_rhs(BlochChannel.dephasing(self.GAMMA), w.unchecked())
        h = 1e-6
        for t in np.linspace(h, 0.99 * w.t_end, 7).tolist():
            state, rate = w.reference(t)
            assert np.array_equal(state[:2], [V0.vx, V0.vy])
            assert np.max(np.abs(rhs(t, state) - rate)) <= 1e-13
            fd = (w.reference(t + h)[0] - w.reference(t - h)[0]) / (2 * h)
            assert np.max(np.abs(fd - rate)) <= 1e-7

    def test_wrong_fields_still_show(self):
        # omega1 of the wrong sign drives v far from the reference; the change
        # of variable is exact, so the result is still that of the fields.
        w = tracked_waveform(V0, self.GAMMA, self.OMEGA0)
        fields = w.unchecked()

        def flipped(t):
            w0, w1, w2 = fields(t)
            return (w0, -w1, w2)

        held = ControlWaveform._holding(flipped, w.t_end, w.reference)
        plain = ControlWaveform.closed_form(flipped, w.t_end)
        got = propagate_bloch(BlochChannel.dephasing(self.GAMMA), held, V0, 8.0,
                              n_samples=161)
        want = propagate_bloch(BlochChannel.dephasing(self.GAMMA), plain, V0, 8.0,
                               n_samples=161)
        ref = np.array([w.reference(t)[0] for t in got.t])
        assert np.max(np.linalg.norm(got.v - ref, axis=1)) > 0.5
        assert np.max(np.abs(got.v - want.v)) <= 1e-8

    @pytest.mark.parametrize("channel", ["dephasing", "general"])
    def test_other_start_and_channel_agree_with_the_direct_route(self, channel):
        w = tracked_waveform(V0, self.GAMMA, self.OMEGA0)
        ch = (BlochChannel.dephasing(self.GAMMA) if channel == "dephasing"
              else _random_channel(np.random.default_rng(11)))
        v0 = CoherenceVector(0.2, -0.5, 0.6)
        got = propagate_bloch(ch, w, v0, 10.0, n_samples=201)
        want = propagate_bloch(ch, _direct(w), v0, 10.0, n_samples=201)
        assert got.termination == want.termination
        assert np.array_equal(got.t, want.t)
        assert np.max(np.abs(got.v - want.v)) <= 1e-8

    def test_clipped_and_other_waveforms_have_no_reference(self):
        t = np.linspace(0.0, 2.0, 5)
        for w in (tracked_waveform(V0, self.GAMMA, self.OMEGA0, omega_max=5.0),
                  ControlWaveform.sampled(t, np.column_stack([t, -t, 2 * t])),
                  transport_waveform(tracked_waveform(V0, self.GAMMA, self.OMEGA0),
                                     Rotation3(np.eye(3))),
                  ControlWaveform.constant(1.0)):
            assert w.reference is None


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
        text = path.read_text(encoding="utf-8")
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
        path.write_text(CSV_HEADER + "\n1,2,3\n", encoding="utf-8")
        with pytest.raises(ValidationError, match="row 2"):
            read_trajectory_csv(path)

    @pytest.mark.parametrize("cell", ["", "x"])
    def test_empty_or_non_numeric_cell_rejected(self, tmp_path, cell):
        path = tmp_path / "bad.csv"
        path.write_text(CSV_HEADER + "\n" + ",".join(["0"] * 9) + "\n"
                        + ",".join(["0", cell] + ["0"] * 7) + "\n", encoding="utf-8")
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
        "# singularity=bogus t=0 D1=0 D2=0 N1=0 N2=0",
    ])
    def test_malformed_comment_lines_rejected(self, tmp_path, comment):
        path = tmp_path / "bad.csv"
        path.write_text(CSV_HEADER + "\n" + ",".join(["0"] * 9) + "\n"
                        + comment + "\n", encoding="utf-8")
        with pytest.raises(ValidationError, match="row 3"):
            read_trajectory_csv(path)

    def test_wrong_header_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("time,x\n0,1\n", encoding="utf-8")
        with pytest.raises(ValidationError, match="header"):
            read_trajectory_csv(path)

    def test_values_written_at_full_precision(self, tmp_path):
        ch = BlochChannel.dephasing(0.1)
        traj = propagate_bloch(ch, ControlWaveform.zero(), V0, 1.0, n_samples=7)
        path = tmp_path / "traj.csv"
        write_trajectory_csv(traj, path)
        back = read_trajectory_csv(path)
        assert np.array_equal(back.v, traj.v)   # %.17g round-trips exactly
