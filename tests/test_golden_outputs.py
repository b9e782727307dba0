"""Byte-identity of the CLI's CSV and SVG outputs, pinned by sha256.

The hashes were taken from the outputs of the per-sample implementation
(one formatted cell, one classified sample and one plotted point at a
time); the batched code must reproduce them byte for byte. The track CSVs
and the plots drawn from them hold RK45 results, so their hashes hold for
the numpy and scipy versions they were taken with (2.4.6 and 1.17.1).
The free and state-feedback CSVs and the density-route samples
were pinned while each route still ended its runs with its own copy of the
termination rule; the Bloch-route samples of the same piecewise case were
pinned while the integrators still evaluated the fields through the checked
`ControlWaveform.__call__`, and re-pinned when `gks_to_channel` moved from
the four-operator construction to its closed form: (m0, k) moved by at most
2.8e-17 and the samples by at most 3.3e-16.

`free.csv` and `BLOCH_PIECEWISE_V` were re-pinned when the Bloch route
moved from RK45 to exact matrix-exponential steps under piecewise-constant
fields. The new free samples match `free_dephasing_analytic` within 1.3e-15
(RK45: 1.1e-11); the new piecewise samples match the independent
`bench/reference.py::exact_piecewise` within 2.2e-16 (RK45: 9.4e-11); each
moved from the old bytes by at most 1.2e-10 (free 1.1e-11 in v and 1.7e-11
in p and c, piecewise 9.4e-11). Every other hash, the density route's
included, held.

`track.csv` and `track_clipped.csv` were re-pinned when the unclipped
tracked run moved to RK45 on its deviation from the closed-form state and
the clipped run's integrator began to split at the kinks where each field is
clamped. Their accuracy is asserted below before their hashes: the v columns
of `track.csv` lie within 2.87e-11 of the closed form (before: 2.90e-11),
and those of `track_clipped.csv` within 1.1e-10 of an rtol-1e-13 run split
at the same kinks (before: 1.7e-9). They moved from the old bytes by at
most 5.3e-11 and 1.7e-9 in v (1.6e-11 and 6.4e-10 in p and c), the fields
not at all; the N1, N2 of `track.csv`'s singularity line, exactly 1.17 and
-1.23, moved from 7.1e-12 and 7.4e-12 off to 1.4e-12 and 1.5e-12 off.
`trajectory.svg`, drawn from both, kept its bytes.

`track_clipped.csv` was re-pinned again when the clipped tracking waveform
became the closed form clamped at the level, with the unclipped waveform's
`reference` frozen from the first clamp on, so that the clipped run also
integrates its deviation from that state. Its v columns now lie within
7.3e-11 of the rtol-1e-13 run, split at its two clamp kinks (before:
1.1e-10 of that run split at the kinks and the old breakdown-guard end).
They moved from the old bytes by at most 6.5e-11 in v and 3.5e-11 in p and
c; the times, the fields and the comment lines did not move. Every other
hash held, `fields_clipped.csv` and `trajectory.svg` included.

`track_clipped.csv` was re-pinned a third time when the clipped run began
to integrate its deviation from the unclipped reference up to the last
clamp, and to take exact matrix-exponential steps on the saturated tail
from there. Its v columns now lie within 1.9e-11 of the rtol-1e-13 run
(before: 7.3e-11). They moved from the old bytes by at most 8.4e-11 in v
and 2.3e-11 in p and c; the times, the fields and the comment lines did not
move. Every other hash held.

`track.csv` and `track_clipped.csv` were re-pinned when tracked runs began
to integrate their deviation in the variable w = |v_z*(t)| instead of t,
where the fields times dt/dw stay bounded up to t_b. The v columns of
`track.csv` now lie within 2.4e-11 of the closed form (before: 2.87e-11),
and those of `track_clipped.csv` within 8.8e-12 of the rtol-1e-13 run
(before: 1.9e-11). They moved from the old bytes by at most 5.2e-11 and
1.2e-11 in v (1.7e-11 and 6.5e-12 in p and c); the times and the fields did
not move. The N1, N2 of `track.csv`'s singularity line, exactly 1.17 and
-1.23, moved from 1.4e-12 and 1.5e-12 off to 1.0e-13 and 7e-15 off. Every
other hash held.

`DENSITY_PIECEWISE_V` and `track_clipped.csv` were re-pinned when each
RK45 segment that ends at a breakpoint began to evaluate its right-hand
side at min(t, nextafter(b, a)), so that no stage sees the next segment's
fields. The density samples now lie within 5.5e-11 of the Bloch route's
exact steps (before: 1.27e-10), which is asserted before their hash. The v
columns of `track_clipped.csv`, whose clamp kinks are breakpoints, moved by
at most 3.1e-16 (p and c 1.9e-16; the times, the fields and the comment
lines not at all) and still lie within 8.8e-12 of the rtol-1e-13 run.
Every other hash held.
"""

import hashlib
import io
import json
import math

import numpy as np
import pytest
from scipy.integrate import solve_ivp

from cohtrack import dynamics

from cohtrack.bloch import (
    BlochChannel,
    CoherenceVector,
    GKSMatrix,
    bloch_to_density,
    control_matrix,
    gks_to_channel,
)
from cohtrack.cli import main
from cohtrack.dynamics import (
    IntegratorConfig,
    _integrate,
    propagate_bloch,
    propagate_density,
)
from cohtrack.tracking import simulate_tracked, tracked_waveform, vz_tracked
from cohtrack.waveform import ControlWaveform

TRACK = {
    "channel": {"type": "dephasing", "gamma": 0.1},
    "initial_state": {"coherence": 0.3, "purity": 0.8, "phase": 0.7853981633974483},
    "control": {"mode": "track", "omega0": 4.0},
    "t_max": 10.0,
    "samples": 2001,
    "output": "track.csv",
}
# v_z(0) < 0 and a clip level reached at t = 6.35, before t_b = 7.42.
TRACK_CLIPPED = dict(
    TRACK,
    initial_state={"vx": 0.45, "vy": -0.2, "vz": -0.6},
    control={"mode": "track", "omega0": 3.0, "omega_max": 6.0},
    samples=701,
    output="track_clipped.csv",
)
FREE = dict(TRACK, control={"mode": "free"}, samples=501, output="free.csv")
# Unequal x and y rates and a non-unital part: the state-feedback path.
TRACK_FEEDBACK = dict(
    TRACK,
    channel={"type": "gks", "matrix": [[[0.02, 0.0], [0.0, 0.01], [0.0, 0.0]],
                                       [[0.0, -0.01], [0.03, 0.0], [0.0, 0.0]],
                                       [[0.0, 0.0], [0.0, 0.0], [0.05, 0.0]]]},
    t_max=2.0,
    samples=201,
    output="track_feedback.csv",
)
SWEEP = {
    "gamma": 0.15,
    "c": {"min": 0.0, "max": 0.9, "count": 31},
    "p": {"min": 0.05, "max": 1.0, "count": 27},
    "output": "sweep.csv",
}

GOLDEN = {
    "fields.csv": "8d9fb69117f20e7773e1359c8abd971ea31e30365533bc93d747e2039ec66359",
    "fields.svg": "59261daaf35f25ad955c8691f2a8899a63d717834f3ae89714d03e98d7bfc9db",
    "fields_clipped.csv": "51763fef8fe5a954c6b67b9d1c6d1f07081c9e920c6f79834a4a07a8bb4cf9ef",
    "free.csv": "ecce829f0ac76e7240d2a9d6bf399f74d4828a17b87a09f1b8487b0875373a46",
    "surface.svg": "df368b16e664010a424c5ab8b79c52540b6595148e58b74a0e4321c16cac28a1",
    "sweep.csv": "affc85baad4b14b47f52f1f8e0dee44a7b6117754e1c7b9a42d6e1581cb4ca38",
    "track.csv": "37563866674f2acc444682d59dabb2b2aec8bda7d8b22e3475f56cda70562cb8",
    "track_clipped.csv": "049b32edbf657df65b2633d818d80b7bc6f54d5b801b30307289cdace1fd991d",
    "track_feedback.csv": "56312b988c6808f4866e85ed7863628ebda5d5fc71fa7d3f7fb0341acd47343a",
    "trajectory.svg": "a9e3a00912b25031fde83cdcb8df7e75822a05b36dbc0bb736160cad7dad78ee",
}
DENSITY_PIECEWISE_V = "f3c1888a5908e4ded2e4c4b04492ab305c291bc39c8462f19c33b466c824bbef"
BLOCH_PIECEWISE_V = "12d7e6a9af2bf9a290d63bc5610d8d721f21bfe8cd79e89b12c9fef92889de7c"


def produce(out_dir) -> dict:
    """Run the CLI on the fixed configs; return {output name: bytes}."""
    runs = [
        ("track", TRACK),
        ("track", TRACK_CLIPPED),
        ("track", TRACK_FEEDBACK),
        ("free", FREE),
        ("fields", dict(TRACK, output="fields.csv")),
        ("fields", dict(TRACK_CLIPPED, output="fields_clipped.csv")),
        ("sweep", SWEEP),
    ]
    for command, obj in runs:
        config = out_dir / f"{obj['output']}.json"
        config.write_text(json.dumps(obj), encoding="utf-8")
        assert main(["--out-dir", str(out_dir), command, str(config)]) == 0, obj
    plots = [
        (["track.csv", "track_clipped.csv"], "trajectory"),
        (["fields.csv"], "fields"),
        (["sweep.csv"], "surface"),
    ]
    for csvs, kind in plots:
        assert main(["plot", *(str(out_dir / c) for c in csvs), "--kind", kind,
                     "-o", str(out_dir / f"{kind}.svg")]) == 0, kind
    return {name: (out_dir / name).read_bytes() for name in GOLDEN}


@pytest.fixture(scope="module")
def outputs(tmp_path_factory):
    return produce(tmp_path_factory.mktemp("golden"))


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_output_bytes_match_golden_hash(outputs, name):
    assert hashlib.sha256(outputs[name]).hexdigest() == GOLDEN[name]


def _rows(data: bytes) -> np.ndarray:
    """The numeric rows of a trajectory CSV: t, v (3 columns), p, c, omega (3)."""
    return np.loadtxt(io.StringIO(data.decode("utf-8")), delimiter=",", comments="#",
                      skiprows=1, ndmin=2)


def test_track_samples_lie_on_the_closed_form(outputs):
    rows = _rows(outputs["track.csv"])
    v0 = CoherenceVector(*rows[0, 1:4])
    want = [[v0.vx, v0.vy, vz_tracked(v0, TRACK["channel"]["gamma"], t)]
            for t in rows[:, 0].tolist()]
    assert np.max(np.abs(rows[:, 1:4] - want)) <= 1e-10


def test_clipped_track_samples_match_a_tight_run(outputs):
    rows = _rows(outputs["track_clipped.csv"])
    gamma, control = TRACK_CLIPPED["channel"]["gamma"], TRACK_CLIPPED["control"]
    v0 = CoherenceVector(*rows[0, 1:4])
    w = tracked_waveform(v0, gamma, control["omega0"], control["omega_max"])
    assert len(w.breakpoints) == 2   # one clamp kink for each field
    ch, fields = BlochChannel.dephasing(gamma), w.unchecked()

    def rhs(t, v):
        # RK45 on v in t, apart from the production route's right-hand side.
        return (ch.m0 + control_matrix(*fields(t))) @ v + ch.k

    ys, n_ok = _integrate(rhs, v0.as_array(), rows[:, 0], IntegratorConfig(1e-13, 1e-15),
                          w.breakpoints)
    assert n_ok == len(rows)
    assert np.max(np.abs(rows[:, 1:4] - ys)) <= 3e-10


def test_clipped_track_runs_no_solver_past_the_last_clamp(monkeypatch):
    spans = []

    def recording_solve_ivp(fun, t_span, *args, **kwargs):
        spans.append(tuple(t_span))
        return solve_ivp(fun, t_span, *args, **kwargs)

    monkeypatch.setattr(dynamics, "solve_ivp", recording_solve_ivp)
    gamma, control = TRACK_CLIPPED["channel"]["gamma"], TRACK_CLIPPED["control"]
    v0 = CoherenceVector(**TRACK_CLIPPED["initial_state"])
    traj = simulate_tracked(BlochChannel.dephasing(gamma), v0, control["omega0"],
                            TRACK_CLIPPED["t_max"], control["omega_max"],
                            TRACK_CLIPPED["samples"])
    w = tracked_waveform(v0, gamma, control["omega0"], control["omega_max"])
    (t_hold,), _ = w.segments
    assert traj.t[-1] == TRACK_CLIPPED["t_max"] > t_hold
    # RK45 runs in sigma = -w = -|v_z*|, one solve up to each clamp, the last
    # ending at the w of the tail's start T: the smaller |N| / omega_max.
    sigma_hold = w.reference.to_sigma(np.array([0.0, t_hold]))[-1]
    nums = [abs(f) * abs(v0.vz) for f in w(0.0)[1:]]
    assert math.isclose(sigma_hold, -min(nums) / control["omega_max"], rel_tol=1e-15)
    assert len(spans) == 2 and spans[-1][1] == sigma_hold
    assert all(b <= sigma_hold for _, b in spans)


PIECEWISE_GKS = GKSMatrix(np.array([[0.04, 0.01 - 0.02j, 0.0],
                                    [0.01 + 0.02j, 0.05, 0.01j],
                                    [0.0, -0.01j, 0.03]]))
PIECEWISE_V0 = CoherenceVector(0.3, -0.4, 0.6)


def piecewise_waveform():
    return ControlWaveform.piecewise_constant(
        [0.0, 0.7, 1.3, 2.0], [[1.0, 2.0, -0.5], [-1.5, 0.3, 2.0], [0.5, -2.0, 1.0]])


def test_propagate_density_piecewise_golden():
    """The density route on a three-segment piecewise case, pinned by its v bytes."""
    rho0 = bloch_to_density(PIECEWISE_V0)
    traj = propagate_density(PIECEWISE_GKS, piecewise_waveform(), rho0, 2.0, n_samples=11)
    assert traj.termination.kind == "horizon"
    _, ch = gks_to_channel(PIECEWISE_GKS)
    exact = propagate_bloch(ch, piecewise_waveform(), PIECEWISE_V0, 2.0, n_samples=11)
    assert np.max(np.abs(traj.v - exact.v)) <= 1e-10
    assert hashlib.sha256(traj.v.tobytes()).hexdigest() == DENSITY_PIECEWISE_V


def test_propagate_bloch_piecewise_golden():
    """The Bloch route on the same case, pinned by its v bytes."""
    _, ch = gks_to_channel(PIECEWISE_GKS)
    traj = propagate_bloch(ch, piecewise_waveform(), PIECEWISE_V0, 2.0, n_samples=11)
    assert traj.termination.kind == "horizon"
    assert hashlib.sha256(traj.v.tobytes()).hexdigest() == BLOCH_PIECEWISE_V
