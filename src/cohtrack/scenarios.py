"""Orchestration of configured runs: trajectories, sweeps, field tables, transforms."""

from __future__ import annotations

from pathlib import Path

import numpy as np

from .bloch import gks_to_channel
from .config import ScenarioConfig, SweepSpec, complex_matrix_to_json
from .dynamics import Trajectory, _output_grid, propagate_bloch, write_trajectory_csv
from .equivalence import (
    Unitary2,
    _z_dephasing_rate,
    is_dephasing_class,
    su2_to_so3,
    transform_channel,
    transform_state,
)
from .errors import ConfigError, ValidationError
from .svgplot import CELL, read_csv_columns, write_table, write_text
from .tracking import (
    _breakdown,
    breakdown_time,
    classify_singularity,
    simulate_tracked,
    tracked_waveform,
)
from .waveform import ControlWaveform

FIELDS_HEADER = ["t", "omega0", "omega1", "omega2"]


def output_path(path, out_dir) -> Path:
    """Resolve an output path against `out_dir` and create its parent directory."""
    p = Path(path)
    if not p.is_absolute():
        p = Path(out_dir) / p
    p.parent.mkdir(parents=True, exist_ok=True)
    return p


def load_fixed_waveform(path) -> ControlWaveform:
    """Load a sampled waveform from a fields CSV (t,omega0,omega1,omega2)."""
    _, data, _ = read_csv_columns(path, FIELDS_HEADER)
    try:
        return ControlWaveform.sampled(data[:, 0], data[:, 1:4])
    except ValidationError as e:
        raise ConfigError(f"{path}: {e}") from None


def run_scenario(cfg: ScenarioConfig, out_dir=".") -> tuple[Trajectory, Path]:
    """Execute a scenario and write its trajectory CSV; returns both."""
    ch = gks_to_channel(cfg.channel)[1]
    v0 = cfg.initial_state
    control = cfg.control
    if control.mode == "track":
        traj = simulate_tracked(ch, v0, control.omega0, cfg.t_max,
                                omega_max=control.omega_max, n_samples=cfg.samples)
        traj = traj.with_singularity(classify_singularity(traj, ch))
    else:
        if control.mode == "free":
            w = ControlWaveform.zero()
        else:
            w = load_fixed_waveform(control.waveform_path)
        traj = propagate_bloch(ch, w, v0, cfg.t_max, n_samples=cfg.samples)
    out_path = output_path(cfg.output, out_dir)
    write_trajectory_csv(traj, out_path)
    return traj, out_path


def sweep_breakdown(spec: SweepSpec, out_dir=".") -> Path:
    """Write the breakdown-time grid CSV `c,p,t_b`; infeasible cells are empty."""
    c_vals, p_vals = spec.c_grid.values(), spec.p_grid.values()
    c, p = np.meshgrid(c_vals, p_vals, indexing="ij")
    infeasible = (c > p).tolist()
    t_b = _breakdown(p - c, c, spec.gamma)[1].tolist()
    p_strs = [CELL % x for x in p_vals]
    lines = ["c,p,t_b"]
    for i, c_str in enumerate(CELL % x for x in c_vals):
        for j, p_str in enumerate(p_strs):
            cell = "" if infeasible[i][j] else CELL % t_b[i][j]
            lines.append(f"{c_str},{p_str},{cell}")
    out_path = output_path(spec.output, out_dir)
    write_text(out_path, "\n".join(lines) + "\n")
    return out_path


def emit_fields(cfg: ScenarioConfig, out_dir=".") -> Path:
    """Write the synthesized tracking fields as a fields-only CSV."""
    if cfg.control.mode != "track":
        raise ConfigError("fields emission requires a track-mode config")
    gamma = _z_dephasing_rate(gks_to_channel(cfg.channel)[1])
    if gamma is None:
        raise ConfigError("fields emission requires a channel that dephases about z")
    w = tracked_waveform(cfg.initial_state, gamma, cfg.control.omega0, cfg.control.omega_max)
    grid, _ = _output_grid(cfg.t_max, w.t_end, cfg.samples)
    w.unchecked()   # refuses fields that are not finite at t = 0
    out_path = output_path(cfg.output, out_dir)
    write_table(out_path, FIELDS_HEADER, np.column_stack([grid, w.table(grid)]).tolist())
    return out_path


def equivalence_report(cfg: ScenarioConfig, u: Unitary2) -> dict:
    """Transform the configured channel and state by a unitary; report both pictures."""
    a = cfg.channel
    r = su2_to_so3(u)
    a_new = transform_channel(a, u)
    _, ch = gks_to_channel(a)
    _, ch_new = gks_to_channel(a_new)
    v0 = cfg.initial_state
    v_new = transform_state(v0, r)
    report = {
        "rotation": [[float(x) for x in row] for row in r.matrix],
        "gks_before": complex_matrix_to_json(a.matrix),
        "gks_after": complex_matrix_to_json(a_new.matrix),
        "m0_after": [[float(x) for x in row] for row in ch_new.m0],
        "k_after": [float(x) for x in ch_new.k],
        "state_before": [v0.vx, v0.vy, v0.vz],
        "state_after": [v_new.vx, v_new.vy, v_new.vz],
    }
    for when, channel, v in (("before", ch, v0), ("after", ch_new, v_new)):
        member, _, gamma = is_dephasing_class(channel)
        report[f"dephasing_class_{when}"] = {"member": member, "gamma": gamma}
        rate = _z_dephasing_rate(channel)   # t_b only where the closed form holds
        if rate is not None and v.vz != 0.0:
            report[f"breakdown_time_{when}"] = breakdown_time(v, rate)
    return report
