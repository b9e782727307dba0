"""Propagation in both pictures, waveforms, and trajectory serialization."""

import math
import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import solve_ivp

from cohtrack import dynamics
from cohtrack.bloch import (
    BlochChannel,
    CoherenceVector,
    DensityMatrix,
    GKSMatrix,
    bloch_to_density,
    control_matrix,
    density_to_bloch,
    gks_to_channel,
)
from cohtrack.dynamics import (
    CSV_HEADER,
    IntegratorConfig,
    Termination,
    Trajectory,
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
from cohtrack.tracking import (
    breakdown_time,
    simulate_tracked,
    tracked_waveform,
    tracking_fields_dephasing,
    vz_tracked,
)
from cohtrack.waveform import ControlWaveform, segment_index

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
        w = ControlWaveform(lambda t: (0.0, 0.0, 0.0), t_end=2.0)
        w(1.999)
        with pytest.raises(WaveformDomainError):
            w(2.0)

    @pytest.mark.parametrize("t_end", [0.0, -1.0, math.nan, -math.inf])
    def test_domain_end_must_be_positive(self, t_end):
        # Every comparison with NaN is false: a NaN end would let the waveform
        # answer at any time and a run end `horizon`.
        with pytest.raises(ValidationError, match="t_end must be positive"):
            ControlWaveform(lambda t: (0.0, 0.0, 0.0), t_end=t_end)

    def test_infinite_domain_end_means_unbounded(self):
        assert ControlWaveform(lambda t: (0.0, 0.0, 0.0), t_end=math.inf).t_end is None

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

        f = ControlWaveform(func, t_end=1.0).unchecked()
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
        w = ControlWaveform(lambda t: (0.0, 0.0, 0.0), t_end=3.0)
        traj = propagate_bloch(ZERO_CHANNEL, w, V0, 10.0, n_samples=101)
        assert traj.termination.kind == "breakdown"
        assert traj.termination.time == 3.0
        assert traj.t[-1] < 3.0

    @pytest.mark.parametrize("route", ["tracked", "plain", "density"])
    def test_a_cut_before_the_second_sample_keeps_the_start(self, no_solver, route):
        # The guard cut t_end (1 - 1e-6) falls before the grid's second point:
        # the run is its first sample alone, ends `breakdown` at t_end, and
        # no solver runs.
        ch = BlochChannel.dephasing(0.1)
        if route == "tracked":
            t_end = breakdown_time(V0, 0.1)
            traj = simulate_tracked(ch, V0, 4.0, 100.0, n_samples=2)
        else:
            t_end = 0.01
            w = ControlWaveform(lambda t: (1.0, 0.5, -0.3), t_end=t_end)
            if route == "plain":
                traj = propagate_bloch(ch, w, V0, 1.0, n_samples=2)
            else:
                a = GKSMatrix(np.diag([0.0, 0.0, 0.05]).astype(complex))
                traj = propagate_density(a, w, bloch_to_density(V0), 1.0, n_samples=2)
        assert traj.termination == Termination("breakdown", t_end)
        assert np.array_equal(traj.t, [0.0])
        assert np.array_equal(traj.v, [V0.as_array()])

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
            return propagate_density(a, w, bloch_to_density(v0), 2.0, n_samples=n_samples)

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


    def test_a_head_that_stops_short_ends_the_run_there(self):
        # RK45 stops at the NaN fields from t = 0.45, before the held tail
        # from 1.5 on: the run ends `invalid` at the first grid point it did
        # not reach, and keeps the samples before it.
        fields = (1.0, 0.5, -0.3)
        w = ControlWaveform._holding(
            lambda t: fields if t < 0.45 or t >= 1.5 else (math.nan,) * 3, None, None,
            tail=((1.5,), (fields,)))
        traj = propagate_bloch(BlochChannel.dephasing(0.1), w, V0, 2.0, n_samples=21)
        assert traj.termination.label() == "invalid:t=0.5"
        assert len(traj.t) == 5 and np.all(np.isfinite(traj.v))


def _random_channel(rng, unital=False) -> BlochChannel:
    g = rng.normal(size=(3, 3)) + (0.0 if unital else 1j * rng.normal(size=(3, 3)))
    return gks_to_channel(GKSMatrix((0.1 * g @ g.conj().T).astype(complex)))[1]


def _bloch_rhs(ch, fields):
    """dv/dt = (m0 + M(t)) v + k written with the public control matrix."""
    def rhs(t, v):
        return (ch.m0 + control_matrix(*fields(t))) @ v + ch.k

    return rhs


def _rk45_reference(monkeypatch, ch, w, v0, t_max, n_samples):
    """RK45 on v in t through `_integrate`, with the real solver restored.

    The right-hand side is written here, apart from the production route.
    """
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

    @pytest.mark.parametrize("gamma, v0", [(0.0, V0), (0.1, CoherenceVector(0.0, 0.0, 0.7))],
                             ids=["gamma=0", "c=0"])
    @pytest.mark.parametrize("level", [None, 1.5])
    def test_constant_tracked_waveforms(self, no_solver, monkeypatch, gamma, v0, level):
        # 2 gamma c = 0: the fields num / |v_z(0)| (2.21, -2.21 and 0, 0 here)
        # hold from 0, clamped at the level if it is below them.
        w = tracked_waveform(v0, gamma, 4.0, level)
        raw = tuple(tracking_fields_dephasing(v0, gamma, 4.0, 0.0))
        fields = raw if level is None else tuple(
            f if abs(f) <= level else math.copysign(level, f) for f in raw)
        assert w.segments == ((0.0,), ((4.0, *fields),))
        assert w.reference is None and w.t_end is None and w.breakpoints == ()
        ch = BlochChannel.dephasing(gamma)
        traj = simulate_tracked(ch, v0, 4.0, 6.0, level, n_samples=13)
        ref = _rk45_reference(monkeypatch, ch, w, v0, 6.0, 13)
        assert traj.termination == (Termination("horizon") if fields == raw
                                    else Termination("clipped", 0.0))
        assert np.max(np.abs(traj.v - ref)) <= 1e-9

    def test_unital_purity_never_rises(self, no_solver):
        rng = np.random.default_rng(4)
        for n_seg in range(1, 41):
            ch = _random_channel(rng, unital=True)
            w = ControlWaveform.piecewise_constant(np.linspace(0.0, 3.0, n_seg + 1),
                                                   rng.uniform(-5, 5, (n_seg, 3)))
            v0 = CoherenceVector.from_array(rng.uniform(-1, 1, 3) / math.sqrt(3))
            traj = propagate_bloch(ch, w, v0, 3.0, n_samples=61)
            assert np.max(np.diff(traj.p)) <= 1e-12

    def test_transported_waveforms_keep_their_segments(self, no_solver, monkeypatch):
        # Rotating the fields rotates every held triple the same way, so the
        # transported waveform still takes exact steps and agrees with RK45.
        piecewise = ControlWaveform.piecewise_constant([0.0, 1.0, 2.0],
                                                       [[1.0, 0.5, 0.0], [0.0, 1.0, -1.0]])
        rz = Rotation3(np.array([[0.0, -1.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 1.0]]))
        w = transport_waveform(piecewise, rz)
        starts, triples = w.segments
        assert starts == piecewise.segments[0]
        assert np.array_equal(triples, [w(0.5), w(1.5)])
        assert np.array_equal(triples, [[1.0, 0.0, -0.5], [0.0, -1.0, -1.0]])
        assert w.reference is None and w.breakpoints == piecewise.breakpoints
        ch = _random_channel(np.random.default_rng(7))
        traj = propagate_bloch(ch, w, V0, 3.0, n_samples=13)
        ref = _rk45_reference(monkeypatch, ch, w, V0, 3.0, 13)
        assert np.max(np.abs(traj.v - ref)) <= 1e-9

    def test_other_waveforms_call_the_solver(self, monkeypatch):
        runs = []

        def counting_solve_ivp(*args, **kwargs):
            runs.append(1)
            return solve_ivp(*args, **kwargs)

        monkeypatch.setattr(dynamics, "solve_ivp", counting_solve_ivp)
        rz = Rotation3(np.array([[0.0, -1.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 1.0]]))
        t = np.linspace(0.0, 2.0, 5)
        for w in (transport_waveform(tracked_waveform(V0, 0.1, 4.0), rz),
                  ControlWaveform.sampled(t, np.column_stack([t, -t, 2 * t])),
                  tracked_waveform(V0, 0.1, 4.0),
                  ControlWaveform(lambda s: (1.0, 0.0, 0.0))):
            assert w.segments is None
            before = len(runs)
            propagate_bloch(BlochChannel.dephasing(0.1), w, V0, 2.0, n_samples=5)
            assert len(runs) > before


def _direct(w: ControlWaveform) -> ControlWaveform:
    """The same fields stripped of `segments` and `reference`: RK45 on v."""
    return ControlWaveform(w.unchecked(), w.t_end, w.breakpoints)


def _without_reference(w: ControlWaveform) -> ControlWaveform:
    """The same fields and `segments` stripped of `reference`: RK45 on v, then exact steps."""
    return ControlWaveform._holding(w.unchecked(), w.t_end, None, w.breakpoints,
                                    tail=w.segments)


class TestDeviationRoute:
    """A waveform with a `reference` integrates v - v*(sigma) with RK45 (Encke's
    method) in the variable sigma of its `Reference` (Sundman's)."""

    GAMMA, OMEGA0 = 0.1, 4.0

    def test_reference_solves_the_bloch_equation_under_its_fields(self):
        # sigma = -|v_z*(t)|, v*(sigma) is the closed form bit for bit, the drive
        # is the fields times dt/dsigma, and at v* the rate in sigma is the slope.
        w = tracked_waveform(V0, self.GAMMA, self.OMEGA0)
        assert _direct(w).reference is None
        h = 1e-7
        ts = np.linspace(h, 0.99 * w.t_end, 7)
        ref = w.reference(ts)
        vz = [vz_tracked(V0, self.GAMMA, t) for t in ts.tolist()]
        assert ref.sigma.tobytes() == (-np.abs(vz)).tobytes()
        states = np.asarray(ref.origin) + ref.sigma[:, None] * np.asarray(ref.slope)
        assert states.tobytes() == np.column_stack(
            [np.full(7, V0.vx), np.full(7, V0.vy), vz]).tobytes()
        assert ref.breakpoints == () and ref.slope == (0.0, 0.0, -1.0)
        ch, fields = BlochChannel.dephasing(self.GAMMA), w.unchecked()
        for t, sigma, state in zip(ts.tolist(), ref.sigma.tolist(), states):
            dt, *scaled = ref.drive(sigma)
            assert np.allclose(np.array(scaled) / dt, fields(t), rtol=1e-13, atol=0.0)
            # dt/dsigma is 1 / (dsigma/dt) of the map.
            ends = w.reference(np.array([t - h, t + h])).sigma
            assert math.isclose(dt, 2 * h / (ends[1] - ends[0]), rel_tol=1e-6)
            rate = dt * (ch.m0 @ state + ch.k) + control_matrix(*scaled) @ state
            assert np.max(np.abs(rate - ref.slope)) <= 1e-13

    def test_wrong_fields_still_show(self):
        # omega1 of the wrong sign, in the drive too, drives v far from the
        # reference state; the change of variable is exact, so the result is
        # still that of the fields.
        w = tracked_waveform(V0, self.GAMMA, self.OMEGA0)
        fields = w.unchecked()

        def flipped(t):
            w0, w1, w2 = fields(t)
            return (w0, -w1, w2)

        def flipped_reference(ts):
            ref = w.reference(ts)

            def drive(sigma):
                dt, a0, a1, a2 = ref.drive(sigma)
                return (dt, a0, -a1, a2)

            return ref._replace(drive=drive)

        held = ControlWaveform._holding(flipped, w.t_end, flipped_reference)
        plain = ControlWaveform(flipped, w.t_end)
        ch = BlochChannel.dephasing(self.GAMMA)
        got = propagate_bloch(ch, held, V0, 8.0, n_samples=161)
        want = propagate_bloch(ch, plain, V0, 8.0, n_samples=161)
        ref = w.reference(got.t)
        states = np.asarray(ref.origin) + ref.sigma[:, None] * np.asarray(ref.slope)
        assert np.max(np.linalg.norm(got.v - states, axis=1)) > 0.5
        assert np.max(np.abs(got.v - want.v)) <= 1e-8

    def test_a_wrong_reference_still_gives_the_fields_result(self):
        # A reference far from the solution: the change of variable is exact,
        # so the result is still that of the fields.
        w = tracked_waveform(V0, self.GAMMA, self.OMEGA0)

        def wrong(ts):
            return w.reference(ts)._replace(origin=(0.5, -0.4, 0.3), slope=(0.2, 0.0, 1.0))

        held = ControlWaveform._holding(w.unchecked(), w.t_end, wrong)
        ch = BlochChannel.dephasing(self.GAMMA)
        got = propagate_bloch(ch, held, V0, 8.0, n_samples=161)
        want = propagate_bloch(ch, _direct(w), V0, 8.0, n_samples=161)
        ref = wrong(got.t)
        states = np.asarray(ref.origin) + ref.sigma[:, None] * np.asarray(ref.slope)
        assert np.min(np.linalg.norm(got.v - states, axis=1)) > 0.5
        assert got.termination == want.termination
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

    def test_a_clipped_reference_is_the_unclipped_one_before_its_tail(self):
        # Up to the first kink the clipped drive is the unclipped one; the
        # kinks and the tail's start T lie at w = |num| / level exactly.
        plain = tracked_waveform(V0, self.GAMMA, self.OMEGA0)
        level = 5.0
        clipped = tracked_waveform(V0, self.GAMMA, self.OMEGA0, omega_max=level)
        t_hold = clipped.breakpoints[-1]
        assert plain.segments is None
        assert clipped.segments[0] == (t_hold,) and t_hold < plain.t_end
        nums = [abs(f) * V0.vz for f in tracking_fields_dephasing(V0, self.GAMMA,
                                                                   self.OMEGA0, 0.0)]
        head = np.linspace(0.0, t_hold, 9)
        got, want = clipped.reference(head), plain.reference(head[:-1])
        assert got.sigma[:-1].tobytes() == want.sigma.tobytes()
        assert math.isclose(got.sigma[-1], -min(nums) / level, rel_tol=1e-15)
        assert np.allclose(sorted(got.breakpoints), sorted(-n / level for n in nums),
                           rtol=1e-15, atol=0.0)
        assert (got.origin, got.slope) == (want.origin, want.slope)
        first = min(got.breakpoints)
        for sigma in np.linspace(want.sigma[0], first, 5, endpoint=False).tolist():
            assert got.drive(sigma) == want.drive(sigma)
        # Between the kinks one field is clamped, past both every field.
        scaled = np.array(got.drive(got.sigma[-1])[1:]) / got.drive(got.sigma[-1])[0]
        assert np.allclose(np.abs(scaled[1:]), level, rtol=1e-12, atol=0.0)

    def test_a_horizon_too_short_for_w_takes_the_identity_map(self):
        # With t_b near 1e301 every time of the run maps to the same w: the
        # route integrates in t about the constant reference v*(0) instead,
        # and still gives the result of the fields.
        gamma = 1e-300
        w = tracked_waveform(V0, gamma, self.OMEGA0)
        grid = np.linspace(0.0, 5.0, 11)
        ref = w.reference(grid)
        assert ref.sigma is grid and ref.slope == (0.0, 0.0, 0.0)
        assert ref.origin == (V0.vx, V0.vy, V0.vz)
        fields = w.unchecked()
        assert ref.drive(2.5) == (1.0, *fields(2.5))
        ch = BlochChannel.dephasing(gamma)
        got = propagate_bloch(ch, w, V0, 5.0, n_samples=11)
        want = propagate_bloch(ch, _direct(w), V0, 5.0, n_samples=11)
        assert got.termination == want.termination == Termination("horizon")
        assert np.max(np.abs(got.v - want.v)) <= 1e-8

    def test_other_waveforms_have_no_reference(self):
        t = np.linspace(0.0, 2.0, 5)
        for w in (ControlWaveform.sampled(t, np.column_stack([t, -t, 2 * t])),
                  ControlWaveform.constant(1.0),
                  tracked_waveform(V0, 0.0, self.OMEGA0)):
            assert w.reference is None


_coordinate = st.one_of(st.just(0.0), st.floats(-0.5, 0.5))


class TestRouteAgreement:
    """The waveform's attributes pick the Bloch route; every route agrees with
    the plain RK45 run of the same fields stripped of them, and the density
    route agrees too."""

    @given(st.sampled_from(["unital", "non-unital", "near-dephasing"]),
           st.lists(st.floats(-1.0, 1.0), min_size=18, max_size=18),
           st.floats(0.0, 1.0), st.lists(st.floats(0.01, 0.99), max_size=3),
           st.floats(0.5, 3.0), st.tuples(_coordinate, _coordinate, _coordinate),
           st.data())
    @settings(max_examples=20, deadline=None)
    def test_piecewise_fields_on_random_channels(self, kind, entries, gamma, cuts,
                                                 t_max, v, data):
        g = np.reshape(entries[:9], (3, 3)) + 1j * np.reshape(entries[9:], (3, 3))
        if kind == "unital":
            a = 0.1 * g.real @ g.real.T   # real A: k = 0
        elif kind == "non-unital":
            a = 0.1 * g @ g.conj().T
        else:   # dephasing about z with 1e-9 off-diagonals
            a = np.diag([0.0, 0.0, gamma / 2.0]) + 1e-9 * g @ g.conj().T
        a = GKSMatrix(a.astype(complex))
        ch = gks_to_channel(a)[1]
        edges = np.unique([0.0, *(t_max * np.array(cuts)), t_max])
        n_seg = len(edges) - 1
        values = data.draw(st.lists(st.tuples(*[st.floats(-3.0, 3.0)] * 3),
                                    min_size=n_seg, max_size=n_seg))
        w = ControlWaveform.piecewise_constant(edges, values)
        v0 = CoherenceVector(*v)
        exact = propagate_bloch(ch, w, v0, t_max, n_samples=11)
        rk45 = propagate_bloch(ch, _direct(w), v0, t_max, n_samples=11)
        density = propagate_density(a, w, bloch_to_density(v0), t_max, n_samples=11)
        for other in (rk45, density):
            assert other.termination == exact.termination == Termination("horizon")
            assert np.array_equal(other.t, exact.t)
            assert np.max(np.abs(other.v - exact.v)) <= 1e-8

    @given(_coordinate, _coordinate, st.floats(1e-3, 0.7), st.booleans(),
           st.one_of(st.just(0.0), st.floats(0.01, 1.0)), st.floats(-4.0, 4.0),
           st.floats(0.05, 1.0), st.one_of(st.none(), st.floats(0.0, 12.0)))
    @settings(max_examples=20, deadline=None)
    def test_tracked_dephasing_runs_before_breakdown(self, vx, vy, vz, up, gamma,
                                                     omega0, fraction, clip):
        # Unclipped runs end before t_b; clipped ones, at a level 1 to 1e12
        # times the larger initial field, run up to 1.3 t_b. The plain run
        # keeps the saturated tail, so from the last clamp T both take the
        # same exact steps. RK45 in t cannot reach a T within about 1e-12 t_b
        # of t_b, where the fields reach 1e6 times their start; the
        # comparison then covers every sample before T.
        v0 = CoherenceVector(vx, vy, vz if up else -vz)
        ch = BlochChannel.dephasing(gamma)
        if clip is None:
            w, reach = tracked_waveform(v0, gamma, omega0), 0.95
        else:
            initial = max(map(abs, tracking_fields_dephasing(v0, gamma, omega0, 0.0)))
            w = tracked_waveform(v0, gamma, omega0, 10.0**clip * (initial or 1.0))
            reach = 1.3
        t_max = fraction * reach * min(breakdown_time(v0, gamma), 10.0)
        route = propagate_bloch(ch, w, v0, t_max, n_samples=21)
        plain = propagate_bloch(ch, _without_reference(w), v0, t_max, n_samples=21)
        assert route.termination == Termination("horizon")
        n = len(plain.t)
        if plain.termination.kind == "invalid":
            assert plain.termination.time >= w.segments[0][0]
        else:
            assert plain.termination == route.termination
        assert np.array_equal(plain.t, route.t[:n])
        assert np.max(np.abs(route.v[:n] - plain.v)) <= 1e-8

    def test_clipped_run_with_a_zero_numerator(self):
        # omega1 = (omega0 v_x - gamma v_y) / v_z is 0 from this start; omega2
        # reaches -3 at t = 1.013, before t_b = 1.152, and stays there.
        gamma, v0 = 0.5, CoherenceVector(0.25, 0.5, 0.6)
        ch = BlochChannel.dephasing(gamma)
        w = tracked_waveform(v0, gamma, 1.0, 3.0)
        t_b = breakdown_time(v0, gamma)
        deviation = propagate_bloch(ch, w, v0, 1.3 * t_b, n_samples=27)
        rk45 = propagate_bloch(ch, _direct(w), v0, 1.3 * t_b, n_samples=27)
        assert deviation.termination == rk45.termination == Termination("horizon")
        assert np.max(np.abs(deviation.v - rk45.v)) <= 1e-8
        assert np.array_equal(deviation.omega, rk45.omega)
        assert not np.any(deviation.omega[:, 1])
        past = deviation.t >= t_b
        assert np.sum(past) >= 3 and np.all(deviation.omega[past, 2] == -3.0)

    # Clipped runs that reach the saturated tail: (gamma, v0, omega0, absolute
    # level, t_max). RK45 runs up to the last clamp T, exact steps from there.
    TAIL_CASES = {
        # Both numerators nonzero, past t_b = 8.33.
        "both-fields": (0.1, V0, 4.0, 5.0, 11.0),
        # omega0 v_x = gamma v_y: omega1 is 0 throughout; t_b = 1.152.
        "one-field-zero": (0.5, CoherenceVector(0.25, 0.5, 0.6), 1.0, 3.0, 1.5),
        # A level below both initial fields (2.15, -2.26): T = 0.
        "clamped-from-the-start": (0.1, V0, 4.0, 2.0, 11.0),
        # gamma = 0: constant fields 2.21, -2.21, above the level; T = 0.
        "no-dephasing": (0.0, V0, 4.0, 1.5, 5.0),
    }

    @pytest.mark.parametrize("case", sorted(TAIL_CASES))
    def test_clipped_runs_through_the_saturated_tail(self, case):
        gamma, v0, omega0, level, t_max = self.TAIL_CASES[case]
        a = GKSMatrix(np.diag([0.0, 0.0, gamma / 2.0]).astype(complex))
        ch = gks_to_channel(a)[1]
        w = tracked_waveform(v0, gamma, omega0, level)
        (t_hold,), _ = w.segments
        assert t_hold < 0.8 * t_max
        assert (t_hold == 0.0) == (case in ("clamped-from-the-start", "no-dephasing"))
        route = propagate_bloch(ch, w, v0, t_max, n_samples=23)
        rk45 = propagate_bloch(ch, _direct(w), v0, t_max, n_samples=23)
        density = propagate_density(a, w, bloch_to_density(v0), t_max, n_samples=23)
        for other in (rk45, density):
            assert other.termination == route.termination == Termination("horizon")
            assert np.array_equal(other.t, route.t)
            assert np.max(np.abs(other.v - route.v)) <= 1e-8
            assert np.array_equal(other.omega, route.omega)



class TestSampledWaveforms:
    """A sampled table's interpolant has a kink at every sample; both pictures
    split their solves there."""

    def test_both_routes_match_a_tight_run_split_at_every_sample(self):
        a = GKSMatrix(np.diag([0.02, 0.01, 0.05]).astype(complex))
        ch = gks_to_channel(a)[1]
        v0 = CoherenceVector(math.sqrt(0.3), math.sqrt(0.2), math.sqrt(0.5))
        t = np.linspace(0.0, 8.0, 401)
        w = ControlWaveform.sampled(t, np.column_stack(
            [4.0 + 0.5 * np.sin(t), 3.0 * np.cos(2.0 * t), -2.0 * np.sin(1.5 * t)]))
        assert w.breakpoints == tuple(t[1:].tolist())
        bloch = propagate_bloch(ch, w, v0, 8.0, n_samples=81)
        density = propagate_density(a, w, bloch_to_density(v0), 8.0, n_samples=81)
        ys, n_ok = _integrate(_bloch_rhs(ch, w.unchecked()), v0.as_array(), bloch.t,
                              IntegratorConfig(1e-13, 1e-15), w.breakpoints)
        assert n_ok == len(bloch.t) == 81
        # A solve that steps across the kinks misses this reference by 2.6e-8
        # (Bloch) and 6.4e-8 (density).
        for traj in (bloch, density):
            assert traj.termination == Termination("horizon")
            assert np.max(np.abs(traj.v - ys)) <= 1e-9


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

    @pytest.mark.parametrize("n_seg", range(1, 14))
    def test_held_segments_match_the_per_call_route(self, n_seg):
        # A piecewise-constant waveform's segments integrate one generator
        # each; the same fields as a plain function, which has no segments,
        # build the generator at every stage time. Odd counts are unital.
        rng = np.random.default_rng([n_seg, 29])
        g = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
        a = GKSMatrix(0.1 * (g.real @ g.real.T if n_seg % 2 else g @ g.conj().T))
        edges = np.unique([0.0, *rng.uniform(0.0, 2.0, n_seg - 1), 2.0])
        held = ControlWaveform.piecewise_constant(
            edges, rng.uniform(-3.0, 3.0, (len(edges) - 1, 3)))
        starts, triples = held.segments

        def step(t):
            return triples[segment_index(starts, t)]

        per_call = ControlWaveform(step, breakpoints=held.breakpoints)
        assert per_call.segments is None
        rho0 = bloch_to_density(V0)
        got = propagate_density(a, held, rho0, 2.0, n_samples=11)
        want = propagate_density(a, per_call, rho0, 2.0, n_samples=11)
        assert got.termination == want.termination == Termination("horizon")
        assert np.array_equal(got.table, want.table)

    @pytest.mark.parametrize("waveform", ["piecewise", "tracked"])
    def test_read_out_is_the_bloch_vector_of_each_sample(self, monkeypatch, waveform):
        integrated = []

        def recording_integrate(*args, **kwargs):
            integrated.append(_integrate(*args, **kwargs))
            return integrated[-1]

        monkeypatch.setattr(dynamics, "_integrate", recording_integrate)
        a = GKSMatrix(np.diag([0.02, 0.01, 0.05]).astype(complex))
        if waveform == "piecewise":
            w = ControlWaveform.piecewise_constant(
                [0.0, 0.7, 2.0], [[1.0, -0.5, 0.3], [-0.2, 0.8, -1.1]])
        else:
            w = tracked_waveform(V0, 0.1, 4.0, 3.0)
        traj = propagate_density(a, w, bloch_to_density(V0), 2.0, n_samples=21)
        [(ys, n_ok)] = integrated
        assert n_ok == len(traj.t) == 21
        for rho, v in zip(ys, traj.v):
            want = density_to_bloch(DensityMatrix(rho.reshape(2, 2))).as_array()
            assert np.array_equal(v, want)

    @pytest.mark.parametrize("route", ["density", "bloch"])
    def test_a_field_function_may_reuse_its_list(self, route):
        def fresh(t):
            return (1.0 + 0.5 * t, math.sin(3.0 * t), -0.4 * t)

        shared = [0.0, 0.0, 0.0]

        def reused(t):
            shared[:] = fresh(t)
            return shared

        a = GKSMatrix(np.diag([0.02, 0.01, 0.05]).astype(complex))
        runs = []
        for func in (fresh, reused):
            w = ControlWaveform(func, breakpoints=(0.9,))
            if route == "density":
                runs.append(propagate_density(a, w, bloch_to_density(V0), 2.0, n_samples=11))
            else:
                runs.append(propagate_bloch(gks_to_channel(a)[1], w, V0, 2.0, n_samples=11))
        got, want = runs
        assert got.termination == want.termination == Termination("horizon")
        assert np.array_equal(got.v, want.v)
        assert np.array_equal(got.omega, want.omega)
        assert len(np.unique(want.omega[:, 1])) == 11


class _RecordingSolves:
    """Field evaluations made inside each solver run, by the run's span.

    `fields(func)` wraps a field function, and `solve_ivp` is the solver
    that records which span is being solved while it runs.
    """

    def __init__(self):
        self.span, self.seen = None, []

    def fields(self, func):
        def recorded(t):
            if self.span is not None:
                self.seen.append((self.span, float(t)))
            return func(t)
        return recorded

    def solve_ivp(self, fun, t_span, *args, **kwargs):
        self.span = tuple(map(float, t_span))
        try:
            return solve_ivp(fun, t_span, *args, **kwargs)
        finally:
            self.span = None


PIECEWISE_STARTS = (0.0, 0.7, 1.3, 2.0)
PIECEWISE_TRIPLES = ((1.0, 2.0, -0.5), (-1.5, 0.3, 2.0), (0.5, -2.0, 1.0), (2.0, 1.0, 0.0))


class TestSegmentEnds:
    """No right-hand-side call of a segment that ends at a breakpoint sees the
    fields past it: every stage time is clamped to one ulp below the end."""

    A = GKSMatrix(np.diag([0.04, 0.05, 0.03]).astype(complex))

    def _piecewise(self, recorder):
        # The three-segment waveform of the goldens, with a fourth from 2.0 on,
        # evaluated through a recording field function.
        def step(t):
            return PIECEWISE_TRIPLES[segment_index(PIECEWISE_STARTS, t)]
        return ControlWaveform(recorder.fields(step), breakpoints=PIECEWISE_STARTS[1:])

    def _run(self, monkeypatch, route, w, t_max):
        recorder = _RecordingSolves()
        monkeypatch.setattr(dynamics, "solve_ivp", recorder.solve_ivp)
        w = w(recorder)
        if route == "density":
            traj = propagate_density(self.A, w, bloch_to_density(V0), t_max, n_samples=11)
        else:
            traj = propagate_bloch(gks_to_channel(self.A)[1], w, V0, t_max, n_samples=11)
        assert traj.termination == Termination("horizon")
        return recorder.seen

    @pytest.mark.parametrize("route", ["density", "bloch"])
    @pytest.mark.parametrize("t_max", [2.0, 1.3])   # 2.0 and 1.3 are segment starts
    def test_each_segment_sees_its_own_triple(self, monkeypatch, route, t_max):
        seen = self._run(monkeypatch, route, self._piecewise, t_max)
        spans = sorted({span for span, _ in seen})
        assert spans == [(a, b) for a, b in zip(PIECEWISE_STARTS, PIECEWISE_STARTS[1:])
                         if b <= t_max]
        for (a, b), t in seen:
            assert a <= t < b, (a, b, t)
        assert max(t for _, t in seen) == math.nextafter(t_max, 0.0)

    @pytest.mark.parametrize("route", ["density", "bloch"])
    def test_sampled_kinks_bound_every_stage(self, monkeypatch, route):
        grid = np.linspace(0.0, 2.0, 9)

        def sampled(recorder):
            w = ControlWaveform.sampled(grid, np.column_stack(
                [3.0 + np.sin(grid), 2.0 * np.cos(grid), -np.sin(2.0 * grid)]))
            return ControlWaveform(recorder.fields(w.unchecked()),
                                   breakpoints=w.breakpoints)

        seen = self._run(monkeypatch, route, sampled, 2.0)
        assert sorted({span for span, _ in seen}) == list(zip(grid[:-1].tolist(),
                                                              grid[1:].tolist()))
        for (a, b), t in seen:
            assert a <= t < b, (a, b, t)

    def test_a_smooth_grid_end_is_not_clamped(self, monkeypatch):
        # One segment, no breakpoint: the solve may evaluate at its end.
        seen = self._run(monkeypatch, "density",
                         lambda r: ControlWaveform(r.fields(lambda t: (1.0, 0.5, -0.5))),
                         2.0)
        assert {span for span, _ in seen} == {(0.0, 2.0)}
        assert max(t for _, t in seen) == 2.0


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


class TestTrajectoryTable:
    """A trajectory holds its samples as one read-only table in the CSV's order."""

    def _traj(self):
        return propagate_bloch(BlochChannel.dephasing(0.1), ControlWaveform.constant(1.0, 0.5),
                               V0, 2.0, n_samples=9)

    def test_columns_are_views_of_the_table(self):
        traj = self._traj()
        assert traj.table.shape == (9, 9)
        for name, cols in (("t", 0), ("v", slice(1, 4)), ("p", 4), ("c", 5),
                           ("omega", slice(6, 9))):
            view = getattr(traj, name)
            assert np.shares_memory(view, traj.table), name
            assert np.array_equal(view, traj.table[:, cols])
        for other in (traj.with_termination(Termination("clipped", 1.0)),
                      traj.with_singularity(None)):
            assert other.table is traj.table

    def test_assignment_raises(self):
        traj = self._traj()
        for name in ("t", "v", "table", "termination", "singularity"):
            with pytest.raises(AttributeError):
                setattr(traj, name, None)
        with pytest.raises(ValueError, match="read-only"):
            traj.v[0, 0] = 1.0
        copied = pickle.loads(pickle.dumps(traj))
        assert copied.table.tobytes() == traj.table.tobytes()
        assert copied.termination == traj.termination

    def test_positional_constructor_builds_the_table(self):
        traj = self._traj()
        again = Trajectory(traj.t, traj.v, traj.p, traj.c, traj.omega, traj.termination)
        assert np.array_equal(again.table, traj.table) and again.singularity is None
        with pytest.raises(ValidationError, match="9 columns"):
            Trajectory(traj.t, traj.v[:, :2], traj.p, traj.c, traj.omega, traj.termination)

    def test_csv_round_trip_is_bit_identical(self, tmp_path):
        traj = self._traj()
        write_trajectory_csv(traj, tmp_path / "traj.csv")
        back = read_trajectory_csv(tmp_path / "traj.csv")
        assert back.table.tobytes() == traj.table.tobytes()
        assert back.termination == traj.termination


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
