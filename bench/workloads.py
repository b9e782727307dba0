"""The three benchmark workloads: seeded inputs, the operations, their checks.

A workload is built once per run (this is set-up) and yields a fixed batch of
operations. The timed phase runs the batch in whole rounds, so every round
attempts the same operations. Each operation is a zero-argument callable
that calls cohtrack through module attributes looked up at call time, which
lets the traced run rebind those names. `check` runs after the timed phase.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import reference as ref

WORKLOADS = ("oracle-piecewise", "paper-figures", "feedback-general")


@dataclass
class Op:
    label: str
    run: object                      # callable returning the outcome
    known_fault: bool = False        # fails until tracking._propagate_feedback is mended


@dataclass
class Batch:
    name: str
    ops: list
    check: object                    # check(outcomes_of_one_round) -> (failed, errors)
    last_round_only: bool = False    # outputs live in files that each round overwrites


def _gks(rng, unital: bool, norm: float) -> np.ndarray:
    """Random 3x3 PSD GKS matrix with Frobenius norm `norm` (real iff unital)."""
    g = rng.normal(size=(3, 3))
    if not unital:
        g = g + 1j * rng.normal(size=(3, 3))
    a = g @ g.conj().T
    return (a * (norm / np.linalg.norm(a))).astype(complex)


def _ball_state(rng, r_max=0.9) -> np.ndarray:
    u = rng.normal(size=3)
    return r_max * rng.random() * u / np.linalg.norm(u)


# --- oracle-piecewise -----------------------------------------------------------

# One case each; odd counts unital, even not. An odd number of cases puts the
# median latency inside one case's cluster, not on the jump between two.
ORACLE_SEGMENTS = tuple(range(1, 14))
ORACLE_T_MAX = 2.0
ORACLE_SAMPLES = 11
ORACLE_OMEGA = 2.5                       # |(omega0, omega1, omega2)| on every segment


def _field_triples(rng, n: int, magnitude: float) -> np.ndarray:
    """n field triples of the given magnitude in uniformly random directions."""
    u = rng.normal(size=(n, 3))
    return magnitude * u / np.linalg.norm(u, axis=1, keepdims=True)


def oracle_cases(seed: int, short: bool = False) -> list[dict]:
    rng = np.random.default_rng([seed, 1])
    cases = []
    for n_seg in ORACLE_SEGMENTS[:2] if short else ORACLE_SEGMENTS:
        unital = n_seg % 2 == 1
        cases.append({
            "unital": unital,
            "gks": _gks(rng, unital, 0.3),
            "v0": _ball_state(rng),
            "edges": np.linspace(0.0, ORACLE_T_MAX, n_seg + 1),
            "values": _field_triples(rng, n_seg, ORACLE_OMEGA),
        })
    return cases


def build_oracle(ct, seed: int, workdir: Path, short: bool = False) -> Batch:
    cfg = ct.dynamics.IntegratorConfig(rtol=1e-10, atol=1e-12)
    cases = oracle_cases(seed, short)
    ops = []
    for i, case in enumerate(cases):
        a = ct.bloch.GKSMatrix(case["gks"])
        w = ct.waveform.ControlWaveform.piecewise_constant(case["edges"], case["values"])
        v0 = ct.bloch.CoherenceVector.from_array(case["v0"])
        rho0 = ct.bloch.bloch_to_density(v0)

        def run(a=a, w=w, v0=v0, rho0=rho0):
            ch = ct.bloch.gks_to_channel(a)[1]
            tb = ct.dynamics.propagate_bloch(ch, w, v0, ORACLE_T_MAX, cfg, ORACLE_SAMPLES)
            td = ct.dynamics.propagate_density(a, w, rho0, ORACLE_T_MAX, cfg, ORACLE_SAMPLES)
            return tb, td

        ops.append(Op(f"case{i}-seg{len(case['values'])}", run))

    grid = np.linspace(0.0, ORACLE_T_MAX, ORACLE_SAMPLES)
    exact = [None] * len(cases)

    def check(outcomes):
        errors = []
        for i, (case, out) in enumerate(zip(cases, outcomes)):
            if out is None:
                continue
            tb, td = out
            if exact[i] is None:
                exact[i] = ref.exact_piecewise(case["gks"], case["v0"], case["edges"],
                                               case["values"], grid)
            errs = ref.check_oracle(case, tb.v, td.v, tb.termination.label(),
                                    td.termination.label(), exact[i])
            errors += [f"{ops[i].label}: {e}" for e in errs]
        return 0, errors

    return Batch("oracle-piecewise", ops, check)


# --- paper-figures ----------------------------------------------------------------

FIGURE_SAMPLES = (201, 501, 1001, 2001)  # three track/fields scenarios of each
FIGURE_CLIPPED = (1, 6, 11)              # scenario indices run with a clip level
SWEEP_COUNTS = ((50, 60), (80, 80), (100, 120))
FIGURE_ANGLE = 20.0


def figure_scenarios(seed: int, short: bool = False) -> list[dict]:
    rng = np.random.default_rng([seed, 2])
    scenarios = []
    for k in range(1 if short else 3 * len(FIGURE_SAMPLES)):
        clipped = k in FIGURE_CLIPPED or short
        c = rng.uniform(0.1, 0.5)
        p = rng.uniform(c + 0.15, 0.95)
        phase = rng.uniform(0.0, 2.0 * math.pi)
        t_b = rng.uniform(6.0, 10.0)
        # The integrator's work grows with the angle the fields turn the state
        # through before t_b, about omega0 sqrt(c / (p - c)) t_b, so omega0 is
        # drawn to hold that angle near FIGURE_ANGLE whatever c, p and t_b are.
        angle = rng.uniform(0.9, 1.1) * FIGURE_ANGLE
        sc = {"form": "polar" if k % 2 == 0 else "vector", "c": c, "p": p,
              "phase": phase, "gamma": (p - c) / (2.0 * c * t_b),
              "omega0": angle * math.sqrt((p - c) / c) / t_b,
              "samples": FIGURE_SAMPLES[k % len(FIGURE_SAMPLES)],
              "omega_max": None}
        if sc["form"] == "vector":
            r = math.sqrt(c)
            sc.update(vx=r * math.cos(phase), vy=r * math.sin(phase),
                      vz=-math.sqrt(p - c))
        t_b, num1, num2, _ = ref.closed_form(sc)
        if clipped:
            # Clip at a field 3-4 times the initial one, well before t_b.
            sc["t_max"] = rng.uniform(1.02, 1.08) * t_b
            sc["omega_max"] = rng.uniform(3.0, 4.0) * max(abs(num1), abs(num2)) / math.sqrt(p - c)
        else:
            sc["t_max"] = rng.uniform(1.1, 1.3) * t_b
        scenarios.append(sc)
    return scenarios


def figure_sweeps(seed: int, short: bool = False) -> list[dict]:
    rng = np.random.default_rng([seed, 3])
    sweeps = []
    for nc, np_ in SWEEP_COUNTS[:1] if short else SWEEP_COUNTS:
        sweeps.append({
            "gamma": rng.uniform(0.05, 0.2),
            "c": {"min": rng.uniform(0.02, 0.1), "max": rng.uniform(0.6, 1.0), "count": nc},
            "p": {"min": rng.uniform(0.02, 0.2), "max": rng.uniform(0.8, 1.0), "count": np_},
        })
    return sweeps


def scenario_config(sc: dict, output: str) -> dict:
    if sc["form"] == "vector":
        state = {"vx": sc["vx"], "vy": sc["vy"], "vz": sc["vz"]}
    else:
        state = {"coherence": sc["c"], "purity": sc["p"], "phase": sc["phase"]}
    control = {"mode": "track", "omega0": sc["omega0"]}
    if sc["omega_max"] is not None:
        control["omega_max"] = sc["omega_max"]
    return {"channel": {"type": "dephasing", "gamma": sc["gamma"]},
            "initial_state": state, "control": control, "t_max": sc["t_max"],
            "samples": sc["samples"], "output": output}


def build_figures(ct, seed: int, workdir: Path, short: bool = False) -> Batch:
    dirs = {d: workdir / d for d in ("configs", "track", "fields", "sweep", "plots")}
    for d in dirs.values():
        d.mkdir(parents=True, exist_ok=True)
    scenarios = figure_scenarios(seed, short)
    sweeps = figure_sweeps(seed, short)

    def cli(argv):
        def run():
            with contextlib.redirect_stdout(io.StringIO()) as out, \
                    contextlib.redirect_stderr(io.StringIO()) as err:
                code = ct.cli.main(argv)
            return code, out.getvalue() + err.getvalue()
        return run

    ops, files = [], []
    for k, sc in enumerate(scenarios):
        cfg_path = dirs["configs"] / f"scenario{k}.json"
        cfg_path.write_text(json.dumps(scenario_config(sc, f"s{k}.csv")))
        track_csv, fields_csv = dirs["track"] / f"s{k}.csv", dirs["fields"] / f"s{k}.csv"
        traj_svg, fields_svg = dirs["plots"] / f"traj{k}.svg", dirs["plots"] / f"fields{k}.svg"
        ops += [
            Op(f"track{k}", cli(["--out-dir", str(dirs["track"]), "track", str(cfg_path)])),
            Op(f"fields{k}", cli(["--out-dir", str(dirs["fields"]), "fields", str(cfg_path)])),
            Op(f"plot-trajectory{k}", cli(["plot", str(track_csv), "--kind", "trajectory",
                                           "-o", str(traj_svg)])),
            Op(f"plot-fields{k}", cli(["plot", str(fields_csv), "--kind", "fields",
                                       "-o", str(fields_svg)])),
        ]
        files += [(ref.check_track_csv, sc, track_csv), (ref.check_fields_csv, sc, fields_csv),
                  (ref.check_svg, None, traj_svg), (ref.check_svg, None, fields_svg)]
    for k, spec in enumerate(sweeps):
        cfg_path = dirs["configs"] / f"sweep{k}.json"
        cfg_path.write_text(json.dumps({**spec, "output": f"sweep{k}.csv"}))
        sweep_csv, surface_svg = dirs["sweep"] / f"sweep{k}.csv", dirs["plots"] / f"surface{k}.svg"
        ops += [
            Op(f"sweep{k}", cli(["--out-dir", str(dirs["sweep"]), "sweep", str(cfg_path)])),
            Op(f"plot-surface{k}", cli(["plot", str(sweep_csv), "--kind", "surface",
                                        "-o", str(surface_svg)])),
        ]
        files += [(ref.check_sweep_csv, spec, sweep_csv), (ref.check_svg, None, surface_svg)]

    def check(outcomes):
        errors = [f"{op.label}: exit {out[0]}: {out[1].strip()}"
                  for op, out in zip(ops, outcomes) if out is not None and out[0] != 0]
        for fn, inputs, path in files:
            errs = fn(path) if inputs is None else fn(inputs, path)
            errors += [f"{path.name}: {e}" for e in errs]
        return 0, errors

    return Batch("paper-figures", ops, check, last_round_only=True)


# --- feedback-general ---------------------------------------------------------------

FEEDBACK_HORIZON_CASES = 28
FEEDBACK_SAMPLES = 101
FEEDBACK_T_CAP = 10.0

# Runs past breakdown. They do not depend on the seed: each is a rotated
# dephasing channel with small extra rates, an off-axis state and omega0.
# A 1e-9 off-diagonal term keeps even the unrotated first one off the
# closed-form dephasing path. Columns: rotation axis, angle,
# (dephasing rate, extra rates on the rotated x and y axes), v0, omega0.
PAST_BREAKDOWN = (
    ((0.0, 0.0, 1.0), 0.0, (0.1, 0.0, 0.0), (math.sqrt(0.15), math.sqrt(0.15), math.sqrt(0.5)), 4.0),
    ((1.0, 0.0, 0.0), 0.35, (0.08, 0.002, 0.001), (0.35, -0.3, 0.55), 2.0),
    ((0.0, 1.0, 1.0), 0.6, (0.1, 0.003, 0.002), (-0.4, 0.3, -0.5), 3.0),
    ((1.0, 1.0, 0.0), -0.5, (0.12, 0.001, 0.004), (0.3, 0.45, 0.45), 5.0),
)


def _rotation(axis, angle) -> np.ndarray:
    n = np.asarray(axis, dtype=float) / np.linalg.norm(axis)
    k = np.array([[0, -n[2], n[1]], [n[2], 0, -n[0]], [-n[1], n[0], 0]])
    return np.eye(3) + math.sin(angle) * k + (1 - math.cos(angle)) * (k @ k)


def past_breakdown_cases() -> list[dict]:
    cases = []
    for axis, angle, (rate, e1, e2), v0, omega0 in PAST_BREAKDOWN:
        r = _rotation(axis, angle)
        a = r @ np.diag([e1, e2, rate / 2.0]) @ r.T
        a[0, 1] += 1e-9
        a[1, 0] += 1e-9
        a = a + np.diag([2e-9, 2e-9, 0.0])
        m0, k = ref.affine_form(a)
        v0 = np.array(v0)
        _, t_zero = ref.frozen_plane_solution(m0, k, v0, 100.0)
        cases.append({"gks": a.astype(complex), "v0": v0, "omega0": omega0,
                      "t_zero": t_zero, "t_max": 1.25 * t_zero, "past_breakdown": True})
    return cases


def feedback_cases(seed: int, short: bool = False) -> list[dict]:
    rng = np.random.default_rng([seed, 4])
    n = 3 if short else FEEDBACK_HORIZON_CASES
    cases = []
    for i in range(n):
        a = _gks(rng, unital=i % 2 == 0, norm=0.2)
        c = rng.uniform(0.1, 0.35)
        p = rng.uniform(c + 0.25, 0.9)
        phase = math.pi / 4 + (i % 4) * math.pi / 2 + rng.uniform(-0.35, 0.35)
        s = 1.0 if rng.random() < 0.5 else -1.0
        v0 = np.array([math.sqrt(c) * math.cos(phase), math.sqrt(c) * math.sin(phase),
                       s * math.sqrt(p - c)])
        m0, k = ref.affine_form(a)
        sol, t_zero = ref.frozen_plane_solution(m0, k, v0, FEEDBACK_T_CAP)
        frac = 0.25 + 0.5 * (i + rng.random()) / n
        t_max = frac * min(t_zero, FEEDBACK_T_CAP)
        cases.append({"gks": a, "v0": v0, "omega0": rng.uniform(1.0, 5.0),
                      "t_max": t_max, "t_zero": t_zero, "reference": sol,
                      "past_breakdown": False})
    return cases + (past_breakdown_cases()[:1] if short else past_breakdown_cases())


def build_feedback(ct, seed: int, workdir: Path, short: bool = False) -> Batch:
    cases = feedback_cases(seed, short)
    ops = []
    for i, case in enumerate(cases):
        ch = ct.bloch.gks_to_channel(ct.bloch.GKSMatrix(case["gks"]))[1]
        v0 = ct.bloch.CoherenceVector.from_array(case["v0"])

        def run(ch=ch, v0=v0, case=case):
            return ct.tracking.simulate_tracked(ch, v0, case["omega0"], case["t_max"],
                                                n_samples=FEEDBACK_SAMPLES)

        label = f"{'past-breakdown' if case['past_breakdown'] else 'horizon'}{i}"
        ops.append(Op(label, run, known_fault=case["past_breakdown"]))

    def check(outcomes):
        failed, errors = 0, []
        for op, case, traj in zip(ops, cases, outcomes):
            if traj is None:
                continue
            term = traj.termination.label()
            if case["past_breakdown"]:
                failed += bool(ref.check_feedback_breakdown(case, term))
                continue
            errs = ref.check_feedback_horizon(case, traj.t, traj.v, term)
            errors += [f"{op.label}: {e}" for e in errs]
        return failed, errors

    return Batch("feedback-general", ops, check)


BUILDERS = {
    "oracle-piecewise": build_oracle,
    "paper-figures": build_figures,
    "feedback-general": build_feedback,
}
