"""Each output check passes on real program output and rejects a perturbed copy.

Run with `python3 -m pytest bench -q` from the repository root.
"""

import math
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import reference as ref  # noqa: E402
import run  # noqa: E402

CT = run.import_program()


def _outputs(name, tmp_path):
    batch = run.build(CT, name, seed=0, short=True, workdir=tmp_path)
    return batch, [op.run() for op in batch.ops]


@pytest.fixture(scope="module")
def figures(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("figures")
    batch, outcomes = _outputs("paper-figures", tmp)
    assert batch.check(outcomes) == (0, [])
    return tmp


def _edit(path, old, new):
    text = path.read_text()
    assert old in text
    path.write_text(text.replace(old, new, 1))


def _scenario(tmp):
    import workloads
    return workloads.figure_scenarios(0, short=True)[0], tmp / "track" / "s0.csv"


def _rows(path):
    return [ln for ln in path.read_text().splitlines() if ln and not ln.startswith("#")]


def test_shifted_breakdown_time_rejected(figures, tmp_path):
    sc, _ = _scenario(figures)
    sc = {**sc, "omega_max": None}
    t_b = ref.closed_form(sc)[0]
    good = tmp_path / "good.csv"
    n = 50
    lines = ["t,vx,vy,vz,purity,coherence,omega0,omega1,omega2"]
    vx, vy, vz = ref.scenario_state(sc)
    for t in np.linspace(0.0, 0.99 * t_b, n):
        z = math.copysign(math.sqrt(ref.closed_form(sc)[3](t)), vz)
        lines.append(",".join(f"{x:.17g}" for x in (t, vx, vy, z, 0, 0, 0, 0, 0)))
    lines.append(f"# termination=breakdown:t_b={t_b:.17g}")
    lines.append(f"# singularity=nontrivial-a t={t_b:.17g} D1=0 D2=0 N1=1 N2=1")
    good.write_text("\n".join(lines) + "\n")
    assert ref.check_track_csv(sc, good) == []
    _edit(good, f"breakdown:t_b={t_b:.17g}", f"breakdown:t_b={t_b * (1 + 1e-9):.17g}")
    assert ref.check_track_csv(sc, good)


def test_shifted_clip_time_rejected(figures):
    sc, path = _scenario(figures)
    assert sc["omega_max"] is not None and ref.check_track_csv(sc, path) == []
    t_clip = ref.expected_clip_time(sc)
    _edit(path, f"clipped:t={t_clip:.17g}", f"clipped:t={t_clip * (1 + 1e-9):.17g}")
    assert any("clipped at" in e for e in ref.check_track_csv(sc, path))


def test_csv_value_off_by_1e_5_rejected(figures):
    sc, path = _scenario(figures)
    row = _rows(path)[5]
    cells = row.split(",")
    cells[1] = f"{float(cells[1]) + 1e-5:.17g}"
    _edit(path, row, ",".join(cells))
    assert any("drift" in e for e in ref.check_track_csv(sc, path))


def test_fields_value_off_by_1e_5_rejected(figures):
    sc, _ = _scenario(figures)
    path = figures / "fields" / "s0.csv"
    assert ref.check_fields_csv(sc, path) == []
    row = _rows(path)[3]
    cells = row.split(",")
    cells[2] = f"{float(cells[2]) * (1 + 1e-5):.17g}"
    _edit(path, row, ",".join(cells))
    assert ref.check_fields_csv(sc, path)


def test_altered_sweep_cell_rejected(figures):
    import workloads
    spec = workloads.figure_sweeps(0, short=True)[0]
    path = figures / "sweep" / "sweep0.csv"
    assert ref.check_sweep_csv(spec, path) == []
    rows = _rows(path)
    feasible = next(r for r in rows[1:] if not r.endswith(","))
    c, p, t_b = feasible.split(",")
    _edit(path, feasible, f"{c},{p},{float(t_b) * (1 + 1e-12):.17g}")
    assert ref.check_sweep_csv(spec, path)


def test_filled_infeasible_sweep_cell_rejected(figures):
    import workloads
    spec = workloads.figure_sweeps(0, short=True)[0]
    path = figures / "sweep" / "sweep0.csv"
    empty = next(r for r in _rows(path)[1:] if r.endswith(","))
    _edit(path, empty, empty + "1.0")
    assert ref.check_sweep_csv(spec, path)


def test_truncated_svg_rejected(figures):
    path = figures / "plots" / "traj0.svg"
    assert ref.check_svg(path) == []
    text = path.read_text()
    path.write_text(text[: len(text) // 2])
    assert ref.check_svg(path)


def test_non_svg_root_rejected(tmp_path):
    path = tmp_path / "x.svg"
    path.write_text("<html></html>")
    assert ref.check_svg(path)


def test_propagated_state_off_by_1e_7_rejected(tmp_path):
    batch, outcomes = _outputs("oracle-piecewise", tmp_path)
    assert batch.check(outcomes) == (0, [])
    tb, td = outcomes[1]
    bumped = tb.v.copy()
    bumped[4, 1] += 1e-7
    perturbed = list(outcomes)
    perturbed[1] = (tb.__class__(tb.t, bumped, tb.p, tb.c, tb.omega, tb.termination), td)
    _, errors = batch.check(perturbed)
    assert any("bloch vs density" in e for e in errors)
    assert any("bloch vs exact reference" in e for e in errors)


def test_exact_reference_is_exact_for_free_dephasing():
    gamma, t = 0.3, 1.7
    gks = np.diag([0.0, 0.0, gamma / 2.0]).astype(complex)
    v0 = np.array([0.3, -0.2, 0.5])
    out = ref.exact_piecewise(gks, v0, np.array([0.0, t]), np.zeros((1, 3)),
                              np.array([0.0, t]))
    expected = [0.3 * math.exp(-gamma * t), -0.2 * math.exp(-gamma * t), 0.5]
    assert np.max(np.abs(out[-1] - expected)) < 1e-14


def test_feedback_checks_reject_drift(tmp_path):
    batch, outcomes = _outputs("feedback-general", tmp_path)
    failed, errors = batch.check(outcomes)
    assert errors == [] and failed == sum(op.known_fault for op in batch.ops)
    import workloads
    case = workloads.feedback_cases(0, short=True)[0]
    traj = outcomes[0]
    v = traj.v.copy()
    v[-1, 0] += 1e-8
    assert ref.check_feedback_horizon(case, traj.t, v, "horizon")
    v = traj.v.copy()
    v[10, 2] += 1e-5
    assert ref.check_feedback_horizon(case, traj.t, v, "horizon")
    assert ref.check_feedback_horizon(case, traj.t, traj.v, "invalid:t=1") != []


def test_past_breakdown_needs_breakdown_near_reference():
    import workloads
    case = workloads.past_breakdown_cases()[0]
    t0 = case["t_zero"]
    assert abs(t0 - 25.0 / 3.0) < 1e-3 * t0   # rotated-dephasing reference t_b
    assert ref.check_feedback_breakdown(case, f"breakdown:t_b={t0:.17g}") == []
    assert ref.check_feedback_breakdown(case, f"breakdown:t_b={1.02 * t0:.17g}")
    assert ref.check_feedback_breakdown(case, "invalid:t=8.4000000000000004")


def test_self_test_mode_passes():
    proc = subprocess.run([sys.executable, str(Path(run.__file__)), "--self-test"],
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert "SELF-TEST PASS" in proc.stdout
