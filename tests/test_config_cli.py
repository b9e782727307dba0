"""Configuration parsing, CLI subcommands, exit codes, and SVG output."""

import contextlib
import io
import json
import math
import os
import subprocess
import sys
import tempfile
from pathlib import Path
from xml.dom import minidom

import numpy as np
import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st

import cohtrack
from cohtrack import cli
from cohtrack.bloch import BlochChannel, gks_to_channel
from cohtrack.cli import main
from cohtrack.config import ScenarioConfig, SweepSpec, complex_matrix_to_json, parse_json
from cohtrack.dynamics import read_trajectory_csv, write_trajectory_csv
from cohtrack.errors import ConfigError, ValidationError
from cohtrack.scenarios import FIELDS_HEADER
from cohtrack.svgplot import read_csv_columns, write_table
from cohtrack.tracking import classify_singularity, simulate_tracked
from cohtrack.verify import _random_gks

TRACK_CONFIG = {
    "channel": {"type": "dephasing", "gamma": 0.1},
    "initial_state": {"coherence": 0.3, "purity": 0.8, "phase": 0.7853981633974483},
    "control": {"mode": "track", "omega0": 4.0},
    "t_max": 10.0,
    "output": "trajectory.csv",
}

FREE_CONFIG = {
    "channel": {"type": "dephasing", "gamma": 0.1},
    "initial_state": {"vx": 0.39, "vy": 0.39, "vz": 0.7071067811865476},
    "control": {"mode": "free"},
    "t_max": 10.0,
    "output": "free.csv",
}


SWEEP_CONFIG = {
    "gamma": 0.1,
    "c": {"min": 0.2, "max": 0.8, "count": 4},
    "p": {"min": 0.2, "max": 0.8, "count": 4},
    "output": "sweep.csv",
}


def write_config(tmp_path, obj, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(obj), encoding="utf-8")
    return str(path)


class TestScenarioConfig:
    def test_polar_initial_state(self):
        cfg = ScenarioConfig.from_dict(TRACK_CONFIG)
        v = cfg.initial_state
        assert math.isclose(v.vx**2 + v.vy**2, 0.3, rel_tol=1e-12)
        assert math.isclose(v.vz, math.sqrt(0.5), rel_tol=1e-12)

    def test_unknown_field_rejected_with_name(self):
        bad = dict(TRACK_CONFIG, extra=1)
        with pytest.raises(ConfigError, match="extra"):
            ScenarioConfig.from_dict(bad)

    def test_unknown_nested_field_rejected(self):
        bad = dict(TRACK_CONFIG, channel={"type": "dephasing", "gamma": 0.1, "rate": 2})
        with pytest.raises(ConfigError, match="rate"):
            ScenarioConfig.from_dict(bad)

    def test_coherence_exceeding_purity_rejected(self):
        bad = dict(TRACK_CONFIG,
                   initial_state={"coherence": 0.9, "purity": 0.5, "phase": 0.0})
        with pytest.raises(ConfigError, match="coherence"):
            ScenarioConfig.from_dict(bad)

    def test_gks_channel_parse(self):
        obj = dict(TRACK_CONFIG, channel={
            "type": "gks",
            "matrix": [[[0.0, 0.0]] * 3, [[0.0, 0.0]] * 3,
                       [[0.0, 0.0], [0.0, 0.0], [0.05, 0.0]]],
        })
        cfg = ScenarioConfig.from_dict(obj)
        ch = gks_to_channel(cfg.channel)[1]
        assert np.allclose(ch.m0, np.diag([-0.1, -0.1, 0.0]), atol=1e-15)

    def test_invalid_json_rejected(self):
        with pytest.raises(ConfigError, match="JSON"):
            ScenarioConfig.from_json("{not json")

    @pytest.mark.parametrize("key", ["max_step", "method", "dt"])
    def test_max_step_rejected_by_name(self, key):
        # Runs use IntegratorConfig's default tolerances: a config that still
        # carries an `integrator` section, whatever knob it holds, is refused.
        value = {"max_step": 0.1, "method": "adaptive-RKF45", "dt": 0.01}[key]
        bad = dict(TRACK_CONFIG, integrator={key: value, "rtol": 1e-8})
        with pytest.raises(ConfigError,
                           match=r"config: unknown field\(s\) \['integrator'\]"):
            ScenarioConfig.from_dict(bad)

    @pytest.mark.parametrize("key", ["channel", "control"])
    def test_non_object_section_rejected(self, key):
        with pytest.raises(ConfigError, match=f"{key}: expected a JSON object"):
            ScenarioConfig.from_dict(dict(TRACK_CONFIG, **{key: [1]}))

    @pytest.mark.parametrize("edit", [
        {"control": {"mode": "track", "omega0": math.nan}},
        {"control": {"mode": "track", "omega0": 4.0, "omega_max": math.nan}},
        {"channel": {"type": "dephasing", "gamma": math.nan}},
        {"channel": {"type": "gks", "matrix": [[[0.0, 0.0]] * 3, [[0.0, 0.0]] * 3,
                                               [[0.0, 0.0], [0.0, 0.0], [math.nan, 0.0]]]}},
        {"initial_state": {"coherence": 0.3, "purity": 0.8, "phase": math.inf}},
        {"t_max": math.inf},
        {"t_max": -math.inf},
        {"t_max": math.nan},
    ], ids=["omega0", "omega_max", "gamma", "gks-entry", "phase", "t_max-inf",
            "t_max-minus-inf", "t_max-nan"])
    def test_non_finite_number_rejected(self, edit):
        # json.dumps writes NaN, Infinity and -Infinity, which json.loads
        # would accept; the parser refuses them before any run starts.
        with pytest.raises(ConfigError, match="^config: non-finite number"):
            ScenarioConfig.from_json(json.dumps(dict(TRACK_CONFIG, **edit)))

    @pytest.mark.parametrize("literal", ["1e400", "1" + "0" * 309],
                             ids=["float", "integer"])
    def test_overflowing_literal_rejected(self, literal):
        text = json.dumps(dict(TRACK_CONFIG, t_max=10.5)).replace("10.5", literal)
        with pytest.raises(ConfigError, match=f"non-finite number {literal} "):
            ScenarioConfig.from_json(text)

    @pytest.mark.parametrize("edit, field", [
        ({"control": {"mode": "track", "omega0": math.nan}}, "control.omega0"),
        ({"channel": {"type": "dephasing", "gamma": math.inf}}, "channel.gamma"),
        ({"initial_state": {"vx": 0.1, "vy": math.nan, "vz": 0.5}}, "initial_state.vy"),
        ({"t_max": math.inf}, "t_max"),
        ({"t_max": 10**400}, "t_max"),
    ], ids=["omega0", "gamma", "vy", "t_max-inf", "t_max-huge-int"])
    def test_library_non_finite_number_names_its_field(self, edit, field):
        # A library caller hands from_dict Python numbers that parse_json
        # never sees; they are refused the same way.
        with pytest.raises(ConfigError, match=f"^{field}: expected a finite number"):
            ScenarioConfig.from_dict(dict(TRACK_CONFIG, **edit))

    def test_library_non_finite_sweep_rejected(self):
        grid = {"min": 0.1, "max": 0.9, "count": 2}
        with pytest.raises(ConfigError, match="^sweep.gamma: expected a finite number"):
            SweepSpec.from_dict({"gamma": math.nan, "c": grid, "p": grid})
        with pytest.raises(ConfigError, match="^sweep.c.max: expected a finite number"):
            SweepSpec.from_dict({"gamma": 0.1, "c": dict(grid, max=math.inf), "p": grid})

    def test_non_finite_sweep_and_unitary_rejected(self, tmp_path):
        spec = write_config(tmp_path, {
            "gamma": math.nan,
            "c": {"min": 0.1, "max": 0.9, "count": 2},
            "p": {"min": 0.1, "max": 0.9, "count": 2},
        })
        with pytest.raises(ConfigError, match="^sweep: non-finite number NaN"):
            SweepSpec.load(spec)
        with pytest.raises(ConfigError, match="^--unitary: non-finite number NaN"):
            parse_json("[[[NaN, 0], [0, 0]], [[0, 0], [1, 0]]]", "--unitary")

    def test_sweep_spec_parse(self):
        spec = SweepSpec.from_dict({
            "gamma": 0.1,
            "c": {"min": 0.1, "max": 0.9, "count": 5},
            "p": {"min": 0.1, "max": 0.9, "count": 5},
        })
        assert len(spec.c_grid.values()) == 5
        with pytest.raises(ConfigError):
            SweepSpec.from_dict({"gamma": -1, "c": {"min": 0, "max": 1, "count": 2},
                                 "p": {"min": 0, "max": 1, "count": 2}})


_NOT_PSD = [[[-0.1, 0.0], [0.0, 0.0], [0.0, 0.0]], [[0.0, 0.0]] * 3, [[0.0, 0.0]] * 3]

# One case for each check of the config reader (and the `fields` mode check)
# that no other test reaches.
CONFIG_CHECKS = {
    "config-not-object": ("track", [1], "config: expected a JSON object"),
    "missing-field": ("track", {k: v for k, v in TRACK_CONFIG.items() if k != "t_max"},
                      "config: missing required field 't_max'"),
    "non-number": ("track", dict(TRACK_CONFIG, t_max="10"),
                   "t_max: expected a number, got '10'"),
    "gks-rows": ("track", dict(TRACK_CONFIG, channel={"type": "gks", "matrix": [[1]]}),
                 "channel.matrix: expected rows of [re, im] pairs"),
    "gks-not-psd": ("track", dict(TRACK_CONFIG, channel={"type": "gks", "matrix": _NOT_PSD}),
                    "channel.matrix: "),
    "channel-type": ("track", dict(TRACK_CONFIG, channel={"type": "amplitude"}),
                     "channel.type: must be 'dephasing' or 'gks', got 'amplitude'"),
    "state-not-object": ("track", dict(TRACK_CONFIG, initial_state=[0.3, 0.3, 0.5]),
                         "initial_state: expected a JSON object"),
    "omega_max-zero": ("track", dict(TRACK_CONFIG, control={"mode": "track", "omega0": 4.0,
                                                             "omega_max": 0.0}),
                       "control.omega_max: must be positive"),
    "waveform-not-string": ("track", dict(TRACK_CONFIG, control={"mode": "fixed",
                                                                  "waveform": 3}),
                            "control.waveform: expected a file path string"),
    "control-mode": ("track", dict(TRACK_CONFIG, control={"mode": "hold"}),
                     "control.mode: must be 'free', 'track' or 'fixed', got 'hold'"),
    "samples-one": ("track", dict(TRACK_CONFIG, samples=1),
                    "samples: must be an integer >= 2, got 1"),
    "output-not-string": ("track", dict(TRACK_CONFIG, output=3),
                          "output: expected a file path string"),
    "fields-of-free": ("fields", FREE_CONFIG, "fields emission requires a track-mode config"),
    "grid-count-zero": ("sweep", dict(SWEEP_CONFIG, c={"min": 0.2, "max": 0.8, "count": 0}),
                        "sweep.c.count: must be an integer >= 1"),
    "grid-min-above-max": ("sweep", dict(SWEEP_CONFIG, p={"min": 0.8, "max": 0.2,
                                                          "count": 2}),
                           "sweep.p: need min <= max, got [0.8, 0.2]"),
    "sweep-output-not-string": ("sweep", dict(SWEEP_CONFIG, output=3),
                                "sweep.output: expected a file path string"),
}


@pytest.mark.parametrize("case", sorted(CONFIG_CHECKS))
def test_config_check_is_one_error_line(tmp_path, capsys, case):
    command, obj, message = CONFIG_CHECKS[case]
    assert main(["--out-dir", str(tmp_path), command, write_config(tmp_path, obj)]) == 1
    out, err = capsys.readouterr()
    assert out == "" and err.startswith(f"error: {message}") and err.count("\n") == 1


class TestCLITrajectories:
    def test_free_run_writes_csv(self, tmp_path, capsys):
        cfg = write_config(tmp_path, FREE_CONFIG)
        assert main(["--out-dir", str(tmp_path), "free", cfg]) == 0
        traj = read_trajectory_csv(tmp_path / "free.csv")
        assert traj.termination.kind == "horizon"
        assert "wrote" in capsys.readouterr().out

    def test_track_run_records_breakdown_and_singularity(self, tmp_path):
        cfg = write_config(tmp_path, TRACK_CONFIG)
        assert main(["--out-dir", str(tmp_path), "track", cfg]) == 0
        text = (tmp_path / "trajectory.csv").read_text(encoding="utf-8")
        assert "# termination=breakdown:t_b=" in text
        assert "# singularity=nontrivial-a" in text

    def test_free_command_rejects_track_config(self, tmp_path, capsys):
        cfg = write_config(tmp_path, TRACK_CONFIG)
        assert main(["--out-dir", str(tmp_path), "free", cfg]) == 1
        assert "control mode" in capsys.readouterr().err

    def test_missing_config_file_is_config_error(self, tmp_path, capsys):
        assert main(["free", str(tmp_path / "absent.json")]) == 1
        assert "not found" in capsys.readouterr().err

    def test_uncontrollable_state_exits_2(self, tmp_path, capsys):
        obj = dict(TRACK_CONFIG,
                   initial_state={"coherence": 0.5, "purity": 0.5, "phase": 0.0})
        cfg = write_config(tmp_path, obj)
        assert main(["--out-dir", str(tmp_path), "track", cfg]) == 2
        assert "no control is possible" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["track", "fields"])
    @pytest.mark.parametrize("vx", [0.0, 1e-3])
    def test_underflowing_vz_squared_exits_2(self, tmp_path, capsys, command, vx):
        # v_z(0)^2 = 1e-340 rounds to 0; at c = 0 the run used to end in a
        # ZeroDivisionError traceback, at c > 0 in "t_end must be positive".
        obj = dict(TRACK_CONFIG, initial_state={"vx": vx, "vy": vx, "vz": 1e-170},
                   samples=11)
        cfg = write_config(tmp_path, obj)
        assert main(["--out-dir", str(tmp_path), command, cfg]) == 2
        assert capsys.readouterr().err == (
            "infeasible: v_z(0)^2 underflows to 0 (v_z(0) = 1e-170): "
            "no control is possible\n")

    @pytest.mark.parametrize("command, base", [("track", TRACK_CONFIG),
                                               ("free", FREE_CONFIG),
                                               ("fields", TRACK_CONFIG)])
    def test_horizon_too_short_to_sample_exits_2(self, tmp_path, capsys, command, base):
        # linspace(0, 5e-324, 12) repeats t = 0: no run, and no CSV of it.
        obj = dict(base, t_max=5e-324, samples=12)
        cfg = write_config(tmp_path, obj)
        assert main(["--out-dir", str(tmp_path), command, cfg]) == 2
        assert capsys.readouterr().err == (
            "infeasible: t_max = 5e-324 is too short for 12 distinct sample times\n")
        assert not (tmp_path / base["output"]).exists()

    def test_singular_state_feedback_start_exits_2(self, tmp_path, capsys):
        # Unequal x and y rates: the state-feedback route, where v_y = 0 makes
        # the denominator D1 = 2 v_y v_z vanish.
        matrix = [[[0.0, 0.0]] * 3 for _ in range(3)]
        matrix[0][0], matrix[2][2] = [0.01, 0.0], [0.05, 0.0]
        obj = dict(TRACK_CONFIG, channel={"type": "gks", "matrix": matrix},
                   initial_state={"vx": 0.5, "vy": 0.0, "vz": 0.6})
        cfg = write_config(tmp_path, obj)
        assert main(["--out-dir", str(tmp_path), "track", cfg]) == 2
        assert capsys.readouterr().err == (
            "infeasible: vanishing field denominator (D1=0.000e+00, D2=6.000e-01)\n")
        assert not (tmp_path / "trajectory.csv").exists()

    def test_overflowing_component_is_one_error_line(self, tmp_path, capsys):
        # v_y^2 overflows; it used to end in a bare OverflowError traceback.
        obj = dict(TRACK_CONFIG, initial_state={"vx": 0.1, "vy": 1e300, "vz": 0.5})
        cfg = write_config(tmp_path, obj)
        assert main(["--out-dir", str(tmp_path), "track", cfg]) == 1
        assert capsys.readouterr().err == (
            "error: initial_state: |v|^2 = inf exceeds 1 (state outside Bloch ball)\n")

    @pytest.mark.parametrize("obj, label", [
        (dict(TRACK_CONFIG, channel={"type": "dephasing", "gamma": 0.4},
              initial_state={"vx": 0.3, "vy": -0.1, "vz": 0.6},
              control={"mode": "track", "omega0": 1e177}, t_max=6.0, samples=51),
         "invalid:t=0.12"),
        (dict(TRACK_CONFIG, channel={"type": "gks", "matrix": [
            [[1.0, 0.0], [0.0, 0.0], [0.0, 0.0]],
            [[0.0, 0.0], [1e189, 0.0], [0.0, 0.0]],
            [[0.0, 0.0], [0.0, 0.0], [1.0, 0.0]]]},
              initial_state={"vx": 0.3, "vy": 0.3, "vz": -0.6},
              control={"mode": "track", "omega0": -1.0}, t_max=10.0, samples=2),
         "invalid:t=10"),
    ], ids=["dephasing-omega0-1e177", "gks-rate-1e189"])
    def test_run_that_turns_non_finite_ends_invalid(self, tmp_path, capsys, obj, label):
        # Inside RK45 these runs meet an invalid value or an overflow (in
        # the deviation route and in the state-feedback route); numpy's
        # warning used to escape from the solver, a traceback under -W error.
        cfg = write_config(tmp_path, obj)
        assert main(["--out-dir", str(tmp_path), "track", cfg]) == 0
        out, err = capsys.readouterr()
        assert out.endswith(f", termination={label})\n") and err == ""

    def test_clip_level_whose_square_overflows_clamps_from_zero(self, tmp_path, capsys):
        # (num / omega_max)^2 overflows: the fields are clamped from t = 0,
        # the clip time formula's own limit, where `**` raised OverflowError.
        obj = dict(TRACK_CONFIG, initial_state={"vx": 0.3, "vy": 0.3, "vz": 0.5},
                   control={"mode": "track", "omega0": 4.0, "omega_max": 1e-200},
                   samples=11)
        fields = dict(obj, output="fields.csv")
        assert main(["--out-dir", str(tmp_path), "track", write_config(tmp_path, obj)]) == 0
        assert capsys.readouterr().out.endswith(", termination=clipped:t=0)\n")
        assert main(["--out-dir", str(tmp_path), "fields",
                     write_config(tmp_path, fields, "fields.json")]) == 0
        _, rows, _ = read_csv_columns(tmp_path / "fields.csv")
        assert [row[1:] for row in rows.tolist()] == [[4.0, 1e-200, -1e-200]] * 11

    @pytest.mark.parametrize("gamma, omega_max", [(1e154, 5.2e-44), (1.03e215, 23.0)])
    @pytest.mark.parametrize("command", ["track", "fields"])
    def test_huge_rate_with_a_clip_level_exits_0(self, tmp_path, capsys, command,
                                                 gamma, omega_max):
        # num / omega_max is about gamma v_y / omega_max, whose square overflows.
        obj = dict(TRACK_CONFIG, channel={"type": "dephasing", "gamma": gamma},
                   control={"mode": "track", "omega0": 4.0, "omega_max": omega_max},
                   samples=11)
        assert main(["--out-dir", str(tmp_path), command, write_config(tmp_path, obj)]) == 0
        assert capsys.readouterr().err == ""

    @pytest.mark.parametrize("command", ["track", "fields"])
    def test_field_that_overflows_at_t0_is_clamped_or_refused(self, tmp_path, capsys,
                                                               command):
        # num / |v_z(0)| = -1e300 / 1e-9 overflows: clamped from t = 0 at a
        # level, refused without one; both used to warn from the division.
        obj = dict(TRACK_CONFIG, channel={"type": "dephasing", "gamma": 1e300},
                   initial_state={"vx": 0.0, "vy": 1.0, "vz": 1e-9},
                   control={"mode": "track", "omega0": 0.0}, samples=2)
        clipped = dict(obj, control={"mode": "track", "omega0": 0.0, "omega_max": 5.0})
        assert main(["--out-dir", str(tmp_path), command,
                     write_config(tmp_path, clipped, "clipped.json")]) == 0
        assert main(["--out-dir", str(tmp_path), command, write_config(tmp_path, obj)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: waveform fields at t = 0 must be finite")
        assert err.count("\n") == 1

    def test_rate_near_the_float_maximum_is_an_exit_code(self, tmp_path, capsys):
        # 2 gamma overflows past 8.99e307: refused at the input boundary, as
        # one error line, before any formula sums or doubles the rate.
        obj = dict(TRACK_CONFIG, channel={"type": "dephasing", "gamma": 1e308},
                   initial_state={"coherence": 0.0, "purity": 1.0, "phase": 0.0},
                   control={"mode": "track", "omega0": 0.0}, t_max=1.0, samples=2)
        assert main(["--out-dir", str(tmp_path), "track", write_config(tmp_path, obj)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "2 gamma overflows" in err
        assert err.count("\n") == 1
        below = dict(obj, channel={"type": "dephasing", "gamma": 8.98e307})
        assert main(["--out-dir", str(tmp_path), "track",
                     write_config(tmp_path, below, "below.json")]) == 0

    def test_sweep_rate_near_the_float_maximum_is_an_exit_code(self, tmp_path, capsys):
        spec = {"gamma": 1e308, "c": {"min": 0.1, "max": 0.5, "count": 2},
                "p": {"min": 0.6, "max": 1.0, "count": 2}}
        assert main(["--out-dir", str(tmp_path), "sweep",
                     write_config(tmp_path, spec, "sweep.json")]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: sweep.gamma: ") and err.count("\n") == 1

    def test_infinite_phase_is_one_error_line(self, tmp_path, capsys):
        obj = dict(TRACK_CONFIG,
                   initial_state={"coherence": 0.3, "purity": 0.8, "phase": math.inf})
        cfg = write_config(tmp_path, obj)
        assert main(["--out-dir", str(tmp_path), "track", cfg]) == 1
        err = capsys.readouterr().err
        assert err == "error: config: non-finite number Infinity is not allowed\n"

    def test_determinism_byte_identical(self, tmp_path):
        cfg = write_config(tmp_path, TRACK_CONFIG)
        main(["--out-dir", str(tmp_path / "a"), "track", cfg])
        main(["--out-dir", str(tmp_path / "b"), "track", cfg])
        assert ((tmp_path / "a" / "trajectory.csv").read_bytes()
                == (tmp_path / "b" / "trajectory.csv").read_bytes())

    @pytest.mark.parametrize("gamma", [0.0, 1e-300, 0.1])
    @pytest.mark.parametrize("omega0", [0.0, 4.0])
    def test_dephasing_config_runs_the_dephasing_channel(self, tmp_path, gamma, omega0):
        # The rate's GKS matrix diag(0, 0, gamma/2) maps to the dephasing
        # channel itself: the CLI writes the bytes of a library run on it.
        obj = dict(TRACK_CONFIG, channel={"type": "dephasing", "gamma": gamma},
                   control={"mode": "track", "omega0": omega0}, samples=41)
        fields_obj = dict(obj, output="fields.csv")
        assert main(["--out-dir", str(tmp_path), "track",
                     write_config(tmp_path, obj, "track.json")]) == 0
        assert main(["--out-dir", str(tmp_path), "fields",
                     write_config(tmp_path, fields_obj, "fields.json")]) == 0
        v0 = ScenarioConfig.from_dict(obj).initial_state
        ch = BlochChannel.dephasing(gamma)
        traj = simulate_tracked(ch, v0, omega0, obj["t_max"], n_samples=obj["samples"])
        write_trajectory_csv(traj.with_singularity(classify_singularity(traj, ch)),
                             tmp_path / "library.csv")
        write_table(tmp_path / "library_fields.csv", FIELDS_HEADER,
                    np.column_stack([traj.t, traj.omega]).tolist())
        assert ((tmp_path / "trajectory.csv").read_bytes()
                == (tmp_path / "library.csv").read_bytes())
        assert ((tmp_path / "fields.csv").read_bytes()
                == (tmp_path / "library_fields.csv").read_bytes())

    @pytest.mark.parametrize("t_max", [2.0, 10.0])   # before and after t_b = 8.33
    def test_fields_sampled_on_track_grid(self, tmp_path, t_max):
        obj = dict(TRACK_CONFIG, t_max=t_max, samples=11)
        track = write_config(tmp_path, obj, "track.json")
        fields = write_config(tmp_path, dict(obj, output="fields.csv"), "fields.json")
        assert main(["--out-dir", str(tmp_path), "track", track]) == 0
        assert main(["--out-dir", str(tmp_path), "fields", fields]) == 0
        _, track_rows, _ = read_csv_columns(tmp_path / "trajectory.csv")
        _, field_rows, _ = read_csv_columns(tmp_path / "fields.csv")
        assert [row[0] for row in field_rows] == [row[0] for row in track_rows]

    @pytest.mark.parametrize("text", [
        "t,omega0,omega1,omega2\n",
        "t,omega0,omega1,omega2\n0,1,2,3\n",
        "t,omega0,omega1,omega2\n1,1,2,3\n2,1,2,3\n",
        "t,omega0,omega1,omega2\n0,1,,3\n1,1,2,3\n",
        "t,w0,w1,w2\n0,1,2,3\n1,1,2,3\n",
        "t,omega0,omega1,omega2\n0,1,2,3\nnan,1,2,3\n2,1,2,3\n",
    ], ids=["header-only", "one-row", "late-start", "empty-cell", "wrong-header",
            "nan-time"])
    def test_bad_waveform_table_is_one_error_line(self, tmp_path, capsys, text):
        table = tmp_path / "fields.csv"
        table.write_text(text, encoding="utf-8")
        obj = dict(TRACK_CONFIG, control={"mode": "fixed", "waveform": str(table)})
        assert main(["--out-dir", str(tmp_path), "track", write_config(tmp_path, obj)]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {table}: ") and err.count("\n") == 1

    def test_fixed_waveform_round_trip(self, tmp_path):
        # Emit tracked fields, then replay them as a fixed waveform.
        cfg_fields = write_config(tmp_path, dict(TRACK_CONFIG, output="fields.csv",
                                                 t_max=2.0), "fields.json")
        assert main(["--out-dir", str(tmp_path), "fields", cfg_fields]) == 0
        obj = dict(TRACK_CONFIG, t_max=2.0, output="replayed.csv",
                   control={"mode": "fixed",
                            "waveform": str(tmp_path / "fields.csv")})
        cfg = write_config(tmp_path, obj, "replay.json")
        assert main(["--out-dir", str(tmp_path), "track", cfg]) == 0
        traj = read_trajectory_csv(tmp_path / "replayed.csv")
        # Sampled replay of the closed-form fields still holds the coherence.
        assert np.max(np.abs(traj.c - traj.c[0])) <= 1e-4


class TestParserReuse:
    def test_main_does_not_rebuild_the_parser(self, tmp_path, monkeypatch):
        def rebuilt():
            raise AssertionError("parser rebuilt")
        monkeypatch.setattr(cli, "_build_parser", rebuilt)
        cfg = write_config(tmp_path, FREE_CONFIG)
        assert main(["--out-dir", str(tmp_path), "free", cfg]) == 0

    def test_consecutive_calls_do_not_share_options(self, tmp_path, monkeypatch):
        cwd, out = tmp_path / "cwd", tmp_path / "out"
        cwd.mkdir()
        monkeypatch.chdir(cwd)
        cfg = write_config(tmp_path, FREE_CONFIG)
        assert main(["--out-dir", str(out), "free", cfg]) == 0
        assert main(["free", cfg]) == 0
        assert sorted(p.name for p in cwd.iterdir()) == ["free.csv"]
        (cwd / "free.csv").unlink()
        assert main(["--out-dir", str(out / "b"), "free", cfg]) == 0
        assert list(cwd.iterdir()) == []
        assert (out / "free.csv").read_bytes() == (out / "b" / "free.csv").read_bytes()


class TestCLISweepAndPlots:
    def test_sweep_output_and_infeasible_cells(self, tmp_path):
        cfg = write_config(tmp_path, SWEEP_CONFIG)
        assert main(["--out-dir", str(tmp_path), "sweep", cfg]) == 0
        header, cells, _ = read_csv_columns(tmp_path / "sweep.csv")
        assert header == ["c", "p", "t_b"]
        assert cells.shape == (16, 3)
        for c, p, t_b in cells:
            if c > p:
                assert math.isnan(t_b)
            else:
                assert math.isclose(t_b, (p - c) / (0.2 * c), rel_tol=1e-15)

    def test_subnormal_rate_on_the_equator_is_infinite(self, tmp_path):
        # 2 gamma c underflows to 0 and v_z(0) = 0: breakdown_time gives inf.
        cfg = write_config(tmp_path, {
            "gamma": 5e-324,
            "c": {"min": 0.2, "max": 0.2, "count": 1},
            "p": {"min": 0.2, "max": 0.2, "count": 1},
            "output": "sweep.csv",
        })
        assert main(["--out-dir", str(tmp_path), "sweep", cfg]) == 0
        assert read_csv_columns(tmp_path / "sweep.csv")[1].tolist() == [[0.2, 0.2, math.inf]]

    def test_plot_kinds(self, tmp_path):
        cfg = write_config(tmp_path, FREE_CONFIG)
        main(["--out-dir", str(tmp_path), "free", cfg])
        csv = str(tmp_path / "free.csv")
        for kind in ("trajectory", "fields"):
            out = str(tmp_path / f"{kind}.svg")
            assert main(["plot", csv, "--kind", kind, "-o", out]) == 0
            text = (tmp_path / f"{kind}.svg").read_text(encoding="utf-8")
            assert text.startswith('<?xml version="1.0"')
            assert "<svg" in text and "</svg>" in text

    def test_surface_plot(self, tmp_path):
        cfg = write_config(tmp_path, {
            "gamma": 0.1,
            "c": {"min": 0.1, "max": 0.9, "count": 8},
            "p": {"min": 0.1, "max": 0.9, "count": 8},
            "output": "sweep.csv",
        })
        main(["--out-dir", str(tmp_path), "sweep", cfg])
        out = str(tmp_path / "surface.svg")
        assert main(["plot", str(tmp_path / "sweep.csv"),
                     "--kind", "surface", "-o", out]) == 0
        assert "<rect" in (tmp_path / "surface.svg").read_text(encoding="utf-8")

    def test_header_only_csv_gives_axes_only_svg(self, tmp_path):
        empty = tmp_path / "empty.csv"
        empty.write_text("t,vx,vy,vz,purity,coherence,omega0,omega1,omega2\n", encoding="utf-8")
        out = str(tmp_path / "empty.svg")
        assert main(["plot", str(empty), "-o", out]) == 0
        text = (tmp_path / "empty.svg").read_text(encoding="utf-8")
        assert "<polyline" not in text
        assert "<line" in text   # axes still drawn

    def test_legend_labels_are_escaped(self, tmp_path):
        cfg = write_config(tmp_path, dict(FREE_CONFIG, samples=11))
        main(["--out-dir", str(tmp_path), "free", cfg])
        csvs = [tmp_path / "a&b.csv", tmp_path / "c<d.csv", tmp_path / "données.csv"]
        for csv in csvs:
            csv.write_bytes((tmp_path / "free.csv").read_bytes())
        out = tmp_path / "legend.svg"
        assert main(["plot", *map(str, csvs), "-o", str(out)]) == 0
        texts = [node.firstChild.data for node in
                 minidom.parse(str(out)).getElementsByTagName("text")]
        assert "vz (a&b)" in texts and "vx (c<d)" in texts
        assert "vz (données)" in texts

    def test_plot_determinism(self, tmp_path):
        cfg = write_config(tmp_path, FREE_CONFIG)
        main(["--out-dir", str(tmp_path), "free", cfg])
        csv = str(tmp_path / "free.csv")
        main(["plot", csv, "-o", str(tmp_path / "p1.svg")])
        main(["plot", csv, "-o", str(tmp_path / "p2.svg")])
        assert ((tmp_path / "p1.svg").read_bytes()
                == (tmp_path / "p2.svg").read_bytes())

    def test_read_csv_columns_cells(self, tmp_path):
        path = tmp_path / "cells.csv"
        path.write_text("c,p,t_b\n0.5,0.25,\n# note\n0.25,0.5,2\n", encoding="utf-8")
        header, cells, comments = read_csv_columns(path)
        assert header == ["c", "p", "t_b"] and comments == [(3, "# note")]
        assert np.array_equal(cells, [[0.5, 0.25, np.nan], [0.25, 0.5, 2.0]],
                              equal_nan=True)
        path.write_text("c,p,t_b\n0.5,0.25,\n0.25,x,2\n", encoding="utf-8")
        with pytest.raises(ValidationError,
                           match="row 3: non-numeric value 'x' in column 'p'"):
            read_csv_columns(path)

    def test_missing_plot_input_is_config_error(self, tmp_path, capsys):
        assert main(["plot", str(tmp_path / "absent.csv"),
                     "-o", str(tmp_path / "x.svg")]) == 1

    def test_writers_name_their_encoding(self, tmp_path):
        # Under warn_default_encoding an open() without an encoding warns;
        # here the warning is an error, so each writer must name UTF-8.
        track = write_config(tmp_path, dict(TRACK_CONFIG, samples=11), "track.json")
        fields = write_config(tmp_path, dict(TRACK_CONFIG, samples=11,
                                             output="fields.csv"), "fields.json")
        sweep = write_config(tmp_path, {
            "gamma": 0.1, "output": "sweep.csv",
            "c": {"min": 0.2, "max": 0.8, "count": 3},
            "p": {"min": 0.2, "max": 0.8, "count": 3},
        }, "sweep.json")
        script = (
            "import sys\n"
            "from cohtrack.cli import main\n"
            "out, track, fields, sweep = sys.argv[1:]\n"
            "for argv in (['track', track], ['fields', fields], ['sweep', sweep],\n"
            "             ['plot', 'trajectory.csv', '-o', 'trajectory.svg']):\n"
            "    assert main(['--out-dir', out, *argv]) == 0, argv\n"
        )
        src = str(Path(cohtrack.__file__).parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            filter(None, [src, os.environ.get("PYTHONPATH")])))
        proc = subprocess.run(
            [sys.executable, "-X", "warn_default_encoding", "-W", "error::EncodingWarning",
             "-c", script, str(tmp_path), track, fields, sweep],
            cwd=tmp_path, env=env, capture_output=True, encoding="utf-8", timeout=120)
        assert proc.returncode == 0, proc.stderr
        assert (tmp_path / "trajectory.svg").exists()


def _missing_waveform(tmp_path):
    obj = dict(TRACK_CONFIG, control={"mode": "fixed",
                                      "waveform": str(tmp_path / "absent.csv")})
    return ["track", write_config(tmp_path, obj)]


def _output_is_directory(tmp_path):
    (tmp_path / "out").mkdir()
    return ["--out-dir", str(tmp_path), "free",
            write_config(tmp_path, dict(FREE_CONFIG, output="out"))]


def _non_utf8_config(tmp_path):
    path = tmp_path / "config.json"
    path.write_bytes(json.dumps(FREE_CONFIG).encode("utf-16"))
    return ["free", str(path)]


def _non_utf8_csv(tmp_path):
    path = tmp_path / "free.csv"
    path.write_bytes(b"t,vx\n\xff\xfe,1\n")
    return ["plot", str(path), "-o", str(tmp_path / "x.svg")]


def _non_utf8_csv_among_several(tmp_path):
    good, bad = tmp_path / "good.csv", tmp_path / "bad.csv"
    good.write_text("t,vx,vz\n0,0.5,0.5\n", encoding="utf-8")
    bad.write_bytes(b"t,vx,vz\n\xff\xfe,1,1\n")
    return ["plot", str(good), str(bad), "-o", str(tmp_path / "x.svg")]


IO_FAULTS = {
    "missing-waveform-csv": (_missing_waveform, "not found"),
    "output-is-directory": (_output_is_directory, "directory"),
    "sweep-config-is-directory": (lambda tmp: ["sweep", str(tmp)], "directory"),
    "free-config-is-directory": (lambda tmp: ["free", str(tmp)], "directory"),
    "non-utf8-config": (_non_utf8_config, "utf-8"),
    "non-utf8-csv": (_non_utf8_csv, "utf-8"),
    "non-utf8-csv-among-several": (_non_utf8_csv_among_several,
                                   "bad.csv: input is not utf-8"),
    "missing-sweep-config": (lambda tmp: ["sweep", str(tmp / "absent.json")],
                             "not found"),
}


@pytest.mark.parametrize("fault", sorted(IO_FAULTS))
def test_io_failure_is_one_error_line(tmp_path, capsys, fault):
    make_argv, wording = IO_FAULTS[fault]
    assert main(make_argv(tmp_path)) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert wording in err


# --- every generated config ends in an exit code, never in a traceback ------

# The numbers a generated config holds: these edges and 10^e, e in [-320, 308].
_EDGES = (0.0, 1.0, -1.0, 1e-300, 5e-324, 1e300, 1e154, -1e154)


def _numbers(lo=0.0, hi=math.inf):
    """Those numbers whose magnitude lies in [lo, hi]."""
    exponents = st.floats(math.log10(lo) if lo else -320.0, min(308.0, math.log10(hi)))
    powers = exponents.map(lambda e: 10.0**e).filter(lambda x: lo <= x <= hi)
    edges = [x for x in _EDGES if lo <= abs(x) <= hi]
    return st.one_of(st.sampled_from(edges), powers) if edges else powers


def _signed(numbers):
    return st.tuples(st.sampled_from((1.0, -1.0)), numbers).map(lambda sx: sx[0] * sx[1])


def _mostly(lo=0.0, hi=math.inf, others=_numbers()):
    """One of `others`, drawn 3 times in 4 from the positive numbers in [lo, hi].

    A config with a number outside its valid range exits 1 at once; the
    bias lets more of the examples run. Three components of at most 0.5
    make a state inside the Bloch ball.
    """
    valid = _numbers(lo, hi).map(abs)
    return st.one_of(valid, valid, valid, others)


def _ordered(numbers):
    return st.tuples(numbers, numbers).map(sorted)


def _channels(gamma_max=math.inf):
    """A dephasing channel, with a rate up to `gamma_max`, or a GKS matrix of order 1."""
    return st.one_of(
        st.builds(lambda gamma: {"type": "dephasing", "gamma": gamma},
                  _mostly(hi=gamma_max, others=_numbers(hi=gamma_max))),
        st.builds(lambda seed, unital: {"type": "gks", "matrix": complex_matrix_to_json(
            _random_gks(np.random.default_rng(seed), unital, scale=1.0).matrix)},
                  st.integers(0, 2**32 - 1), st.booleans()))


_POLAR_STATES = st.builds(
    lambda cp, phase: {"coherence": cp[0], "purity": cp[1], "phase": phase},
    _ordered(_mostly(hi=1.0)), _signed(_numbers()))


def _polar_vz(state) -> float:
    """v_z(0) = sqrt(p - c) of a polar state; inf where the config refuses it."""
    c, p = state["coherence"], state["purity"]
    return math.sqrt(p - c) if 0 <= c <= p <= 1 else math.inf


@st.composite
def _cli_runs(draw):
    """(command, config) for `track`, `free`, `fields` or `sweep`."""
    # `track` twice as often: it alone runs RK45.
    command = draw(st.sampled_from(["track", "track", "free", "fields", "sweep"]))
    if command == "sweep":
        grid = st.builds(
            lambda lohi, count: {"min": lohi[0], "max": lohi[1], "count": count},
            _ordered(_mostly(hi=1.0)), st.integers(1, 4))
        return command, {"gamma": draw(_mostly()), "c": draw(grid), "p": draw(grid)}
    vz, polar = _mostly(hi=0.5), _POLAR_STATES
    if command == "track":
        vz = _mostly(1e-3, 0.5, _numbers(lo=1e-3))
        polar = polar.filter(lambda state: _polar_vz(state) >= 1e-3)
    explicit = st.fixed_dictionaries({"vx": _signed(_mostly(hi=0.5)),
                                      "vy": _signed(_mostly(hi=0.5)), "vz": _signed(vz)})
    states = st.one_of(explicit, polar)
    control = {"mode": "free"}
    if command != "free":
        control = {"mode": "track", "omega0": draw(_signed(_numbers(hi=10.0)))}
        if draw(st.booleans()):
            control["omega_max"] = draw(_mostly(lo=5e-324))
    t_max = draw(_mostly(5e-324, 20.0, _numbers(hi=20.0)))
    channels = _channels(1e3 / abs(t_max) if command == "track" and t_max else math.inf)
    return command, {"channel": draw(channels), "initial_state": draw(states),
                     "control": control, "t_max": t_max,
                     "samples": draw(st.integers(2, 41))}


@given(_cli_runs())
@settings(max_examples=150, deadline=None)
def test_every_config_ends_in_an_exit_code(run):
    """`cli.main` returns 0, 1 or 2, with one error line, and raises and warns nothing.

    The suite turns every warning into an error, so a numpy warning from
    inside the solver fails here too. The work is bounded (|omega0| <= 10,
    t_max <= 20, GKS entries of order 1, and for `track` |v_z(0)| >= 1e-3
    and gamma t_max <= 1e3) because unbounded runs still need not return
    (ROADMAP item 11): gamma 1.8e-318 with t_max 2.4e166, gamma 2.3e-100
    with omega0 1e154, and gamma 1e300 with c = 5e-324 (t_b = 1e23, and
    RK45's steps bound by 1/gamma) each ran past 10 s.
    """
    command, obj = run
    out, err = io.StringIO(), io.StringIO()
    with tempfile.TemporaryDirectory() as tmp:
        path = write_config(Path(tmp), obj)
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(["--out-dir", tmp, command, path])
    event(f"{command} exit {code}")   # counted by --hypothesis-show-statistics
    assert code in (0, 1, 2)
    lines = err.getvalue().splitlines()
    if code:
        assert len(lines) == 1 and lines[0].startswith(("error: ", "infeasible: "))
    else:
        assert lines == []


IDENTITY_U = [[[1.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [1.0, 0.0]]]


class TestCLIEquiv:
    def test_hadamard_report(self, tmp_path, capsys):
        cfg = write_config(tmp_path, TRACK_CONFIG)
        h = 1.0 / math.sqrt(2.0)
        unitary = json.dumps([[[h, 0.0], [h, 0.0]], [[h, 0.0], [-h, 0.0]]])
        assert main(["equiv", cfg, "--unitary", unitary]) == 0
        report = json.loads(capsys.readouterr().out)
        after = np.array(report["gks_after"])
        assert abs(after[0][0][0] - 0.05) <= 1e-12
        assert report["dephasing_class_before"]["member"]
        assert report["dephasing_class_after"]["member"]
        assert math.isclose(report["breakdown_time_before"], 25.0 / 3.0,
                            rel_tol=1e-12)

    def test_near_dephasing_channel_is_one_case_everywhere(self, tmp_path, capsys):
        # An xy coupling of 2e-11 splits the eigenvalues of m0 by 8e-11, within
        # the class tolerance: track, fields and equiv all take the closed form.
        matrix = [[[0.0, 0.0]] * 3 for _ in range(3)]
        matrix[2][2] = [0.05, 0.0]
        matrix[0][1] = matrix[1][0] = [2e-11, 0.0]
        obj = dict(TRACK_CONFIG, channel={"type": "gks", "matrix": matrix}, samples=101)
        cfg = write_config(tmp_path, obj)
        assert main(["--out-dir", str(tmp_path), "track", cfg]) == 0
        _, _, comments = read_csv_columns(tmp_path / "trajectory.csv")
        label = comments[0][1]
        assert label == "# termination=breakdown:t_b=8.3333333333333357"
        assert comments[1][1].startswith("# singularity=nontrivial-a")
        assert main(["--out-dir", str(tmp_path), "fields",
                     write_config(tmp_path, dict(obj, output="f.csv"), "f.json")]) == 0
        capsys.readouterr()
        assert main(["equiv", cfg, "--unitary", json.dumps(IDENTITY_U)]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["breakdown_time_before"] == float(label.split("=")[-1])

    def test_hadamard_drops_the_breakdown_time_of_an_x_axis_channel(self, tmp_path,
                                                                    capsys):
        # Tracking an x-axis dephasing channel breaks down at ln 2 / (2 gamma),
        # not at v_z(0)^2 / (2 gamma c): there is no closed-form t_b to report.
        h = 1.0 / math.sqrt(2.0)
        unitary = json.dumps([[[h, 0.0], [h, 0.0]], [[h, 0.0], [-h, 0.0]]])
        assert main(["equiv", write_config(tmp_path, TRACK_CONFIG),
                     "--unitary", unitary]) == 0
        report = json.loads(capsys.readouterr().out)
        assert "breakdown_time_before" in report
        assert "breakdown_time_after" not in report

    def test_large_rate_transforms(self, tmp_path, capsys):
        # exp(-i 1.1 n.sigma / 2) with n = (1, 2, 3) / sqrt(14): at gamma = 1e4
        # the two transform routes differ by rounding above 1e-12.
        obj = dict(TRACK_CONFIG, channel={"type": "dephasing", "gamma": 1e4})
        unitary = json.dumps(
            [[[0.8525245220595057, -0.41908211380731497],
              [-0.27938807587154335, -0.13969403793577165]],
             [[0.2793880758715433, -0.13969403793577165],
              [0.8525245220595057, 0.41908211380731497]]])
        assert main(["equiv", write_config(tmp_path, obj), "--unitary", unitary]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["dephasing_class_after"]["member"]
        assert math.isclose(report["dephasing_class_after"]["gamma"], 1e4, rel_tol=1e-12)

    def test_invalid_unitary_is_config_error(self, tmp_path, capsys):
        cfg = write_config(tmp_path, TRACK_CONFIG)
        bad = json.dumps([[[1.0, 0.0], [1.0, 0.0]], [[0.0, 0.0], [1.0, 0.0]]])
        assert main(["equiv", cfg, "--unitary", bad]) == 1
        assert "unitary" in capsys.readouterr().err


class TestCLIVerify:
    def test_verify_properties_suite_passes(self, capsys):
        assert main(["verify", "properties"]) == 0
        out = capsys.readouterr().out
        assert "RESULT PASS" in out
        assert out.count("PASS ") >= 10
