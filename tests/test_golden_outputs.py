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
`ControlWaveform.__call__`.
"""

import hashlib
import json

import numpy as np
import pytest

from cohtrack.bloch import CoherenceVector, GKSMatrix, bloch_to_density, gks_to_channel
from cohtrack.cli import main
from cohtrack.dynamics import propagate_bloch, propagate_density
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
    "free.csv": "b37e836078d45f45c7fa3a3bed886e0066c54f8775dd0e008d4f26d068d63c00",
    "surface.svg": "df368b16e664010a424c5ab8b79c52540b6595148e58b74a0e4321c16cac28a1",
    "sweep.csv": "affc85baad4b14b47f52f1f8e0dee44a7b6117754e1c7b9a42d6e1581cb4ca38",
    "track.csv": "79923cbbf60777cbc1b470e6c523109c2758fd893b8c983b57d6da98e1aacd03",
    "track_clipped.csv": "5d8545d05a68177672797864439ef6065b98b37cdf002539b78289e9d1972e7d",
    "track_feedback.csv": "56312b988c6808f4866e85ed7863628ebda5d5fc71fa7d3f7fb0341acd47343a",
    "trajectory.svg": "a9e3a00912b25031fde83cdcb8df7e75822a05b36dbc0bb736160cad7dad78ee",
}
DENSITY_PIECEWISE_V = "8aa9edccbf3af420fa2d6730e05c6ab12f18fcacb74aebb5ef72966e800c36d1"
BLOCH_PIECEWISE_V = "3c7211f7fd63bfffbc080ddd4620a89d1f2e29cbfac52d664b0540a96ed8887b"


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
        config.write_text(json.dumps(obj))
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
    assert hashlib.sha256(traj.v.tobytes()).hexdigest() == DENSITY_PIECEWISE_V


def test_propagate_bloch_piecewise_golden():
    """The Bloch route on the same case, pinned by its v bytes."""
    _, ch = gks_to_channel(PIECEWISE_GKS)
    traj = propagate_bloch(ch, piecewise_waveform(), PIECEWISE_V0, 2.0, n_samples=11)
    assert traj.termination.kind == "horizon"
    assert hashlib.sha256(traj.v.tobytes()).hexdigest() == BLOCH_PIECEWISE_V
