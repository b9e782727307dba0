"""Byte-identity of the CLI's CSV and SVG outputs, pinned by sha256.

The hashes were taken from the outputs of the per-sample implementation
(one formatted cell, one classified sample and one plotted point at a
time); the batched code must reproduce them byte for byte. The track CSVs
and the plots drawn from them hold RK45 results, so their hashes hold for
the numpy and scipy versions they were taken with (2.4.6 and 1.17.1).
"""

import hashlib
import json

import pytest

from cohtrack.cli import main

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
    "surface.svg": "df368b16e664010a424c5ab8b79c52540b6595148e58b74a0e4321c16cac28a1",
    "sweep.csv": "affc85baad4b14b47f52f1f8e0dee44a7b6117754e1c7b9a42d6e1581cb4ca38",
    "track.csv": "79923cbbf60777cbc1b470e6c523109c2758fd893b8c983b57d6da98e1aacd03",
    "track_clipped.csv": "5d8545d05a68177672797864439ef6065b98b37cdf002539b78289e9d1972e7d",
    "trajectory.svg": "a9e3a00912b25031fde83cdcb8df7e75822a05b36dbc0bb736160cad7dad78ee",
}


def produce(out_dir) -> dict:
    """Run the CLI on the fixed configs; return {output name: bytes}."""
    runs = [
        ("track", TRACK),
        ("track", TRACK_CLIPPED),
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
