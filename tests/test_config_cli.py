"""Configuration parsing, CLI subcommands, exit codes, and SVG output."""

import json
import math
from xml.dom import minidom

import numpy as np
import pytest

from cohtrack import cli
from cohtrack.cli import main
from cohtrack.config import ScenarioConfig, SweepSpec
from cohtrack.dynamics import read_trajectory_csv
from cohtrack.errors import ConfigError, ValidationError
from cohtrack.svgplot import read_csv_columns

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


def write_config(tmp_path, obj, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(obj))
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
        ch = cfg.channel.to_bloch_channel()
        assert np.allclose(ch.m0, np.diag([-0.1, -0.1, 0.0]), atol=1e-15)

    def test_invalid_json_rejected(self):
        with pytest.raises(ConfigError, match="JSON"):
            ScenarioConfig.from_json("{not json")

    @pytest.mark.parametrize("key", ["max_step", "method", "dt"])
    def test_max_step_rejected_by_name(self, key):
        # The integrator is RK45 alone: its only keys are rtol and atol, so
        # any method name, `adaptive-RKF45` included, is an unknown field.
        value = {"max_step": 0.1, "method": "adaptive-RKF45", "dt": 0.01}[key]
        bad = dict(TRACK_CONFIG, integrator={key: value, "rtol": 1e-8})
        with pytest.raises(ConfigError,
                           match=rf"integrator: unknown field\(s\) \['{key}'\]"):
            ScenarioConfig.from_dict(bad)

    @pytest.mark.parametrize("key", ["integrator", "channel"])
    def test_non_object_section_rejected(self, key):
        with pytest.raises(ConfigError, match=f"{key}: expected a JSON object"):
            ScenarioConfig.from_dict(dict(TRACK_CONFIG, **{key: [1]}))

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
        text = (tmp_path / "trajectory.csv").read_text()
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

    def test_determinism_byte_identical(self, tmp_path):
        cfg = write_config(tmp_path, TRACK_CONFIG)
        main(["--out-dir", str(tmp_path / "a"), "track", cfg])
        main(["--out-dir", str(tmp_path / "b"), "track", cfg])
        assert ((tmp_path / "a" / "trajectory.csv").read_bytes()
                == (tmp_path / "b" / "trajectory.csv").read_bytes())

    @pytest.mark.parametrize("t_max", [2.0, 10.0])   # before and after t_b = 8.33
    def test_fields_sampled_on_track_grid(self, tmp_path, t_max):
        obj = dict(TRACK_CONFIG, t_max=t_max, samples=11)
        track = write_config(tmp_path, obj, "track.json")
        fields = write_config(tmp_path, dict(obj, output="fields.csv"), "fields.json")
        assert main(["--out-dir", str(tmp_path), "track", track]) == 0
        assert main(["--out-dir", str(tmp_path), "fields", fields]) == 0
        _, track_rows = read_csv_columns(tmp_path / "trajectory.csv")
        _, field_rows = read_csv_columns(tmp_path / "fields.csv")
        assert [row[0] for row in field_rows] == [row[0] for row in track_rows]

    @pytest.mark.parametrize("body", ["", "0,1,2,3\n", "1,1,2,3\n2,1,2,3\n"],
                             ids=["header-only", "one-row", "late-start"])
    def test_bad_waveform_table_is_one_error_line(self, tmp_path, capsys, body):
        table = tmp_path / "fields.csv"
        table.write_text("t,omega0,omega1,omega2\n" + body)
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
        cfg = write_config(tmp_path, {
            "gamma": 0.1,
            "c": {"min": 0.2, "max": 0.8, "count": 4},
            "p": {"min": 0.2, "max": 0.8, "count": 4},
            "output": "sweep.csv",
        })
        assert main(["--out-dir", str(tmp_path), "sweep", cfg]) == 0
        header, rows = read_csv_columns(tmp_path / "sweep.csv")
        assert header == ["c", "p", "t_b"]
        assert len(rows) == 16
        for c, p, t_b in rows:
            if c > p:
                assert t_b is None
            else:
                assert math.isclose(t_b, (p - c) / (0.2 * c), rel_tol=1e-15)

    def test_plot_kinds(self, tmp_path):
        cfg = write_config(tmp_path, FREE_CONFIG)
        main(["--out-dir", str(tmp_path), "free", cfg])
        csv = str(tmp_path / "free.csv")
        for kind in ("trajectory", "fields"):
            out = str(tmp_path / f"{kind}.svg")
            assert main(["plot", csv, "--kind", kind, "-o", out]) == 0
            text = (tmp_path / f"{kind}.svg").read_text()
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
        assert "<rect" in (tmp_path / "surface.svg").read_text()

    def test_header_only_csv_gives_axes_only_svg(self, tmp_path):
        empty = tmp_path / "empty.csv"
        empty.write_text("t,vx,vy,vz,purity,coherence,omega0,omega1,omega2\n")
        out = str(tmp_path / "empty.svg")
        assert main(["plot", str(empty), "-o", out]) == 0
        text = (tmp_path / "empty.svg").read_text()
        assert "<polyline" not in text
        assert "<line" in text   # axes still drawn

    def test_legend_labels_are_escaped(self, tmp_path):
        cfg = write_config(tmp_path, dict(FREE_CONFIG, samples=11))
        main(["--out-dir", str(tmp_path), "free", cfg])
        csvs = [tmp_path / "a&b.csv", tmp_path / "c<d.csv"]
        for csv in csvs:
            csv.write_bytes((tmp_path / "free.csv").read_bytes())
        out = tmp_path / "legend.svg"
        assert main(["plot", *map(str, csvs), "-o", str(out)]) == 0
        texts = [node.firstChild.data for node in
                 minidom.parse(str(out)).getElementsByTagName("text")]
        assert "vz (a&b)" in texts and "vx (c<d)" in texts

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
        path.write_text("c,p,t_b\n0.5,0.25,\n# note\n0.25,0.5,2\n")
        assert read_csv_columns(path) == (["c", "p", "t_b"],
                                          [[0.5, 0.25, None], [0.25, 0.5, 2.0]])
        path.write_text("c,p,t_b\n0.5,0.25,\n0.25,x,2\n")
        with pytest.raises(ValidationError,
                           match="row 3: non-numeric value 'x' in column 'p'"):
            read_csv_columns(path)

    def test_missing_plot_input_is_config_error(self, tmp_path, capsys):
        assert main(["plot", str(tmp_path / "absent.csv"),
                     "-o", str(tmp_path / "x.svg")]) == 1


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
    good.write_text("t,vx,vz\n0,0.5,0.5\n")
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
