"""Reference computations made apart from cohtrack, and the output checks.

Nothing here imports cohtrack. The references are built from the inputs the
benchmark generates (GKS matrices, states, fields, scenario parameters), and
program outputs are read with the stdlib `csv` and `xml` modules only. Every
check returns a list of error strings; an empty list means the output passed.
"""

from __future__ import annotations

import csv
import math
import xml.etree.ElementTree as ET

import numpy as np
from scipy.integrate import solve_ivp
from scipy.linalg import expm

SX = np.array([[0, 1], [1, 0]], dtype=complex)
SY = np.array([[0, -1j], [1j, 0]], dtype=complex)
SZ = np.array([[1, 0], [0, -1]], dtype=complex)
PAULI = (np.eye(2, dtype=complex), SX, SY, SZ)

ORACLE_TOL = 1e-8
PURITY_TOL = 1e-10
TB_RTOL = 1e-12
CLIP_RTOL = 1e-12
TRACK_TOL = 1e-6
FIELDS_RTOL = 1e-9
SWEEP_ULPS = 4
HOLD_TOL = 1e-9
VZ_TOL = 1e-6
BREAKDOWN_RTOL = 0.01
SVG_ROOT = "{http://www.w3.org/2000/svg}svg"


# --- the Liouvillian in the Pauli basis --------------------------------------

def liouvillian(gks, omega=(0.0, 0.0, 0.0)) -> np.ndarray:
    """Real 4x4 generator G of x = (1, v_x, v_y, v_z): dx/dt = G x.

    Built from the standard GKS form
    L(rho) = -i[H, rho] + sum_ij a_ij (F_i rho F_j - {F_j F_i, rho} / 2)
    with F = (sigma_x, sigma_y, sigma_z) and H = (w0 sz + w1 sx - w2 sy) / 2,
    projected as G[a, b] = Tr(sigma_a L(sigma_b)) / 2.
    """
    w0, w1, w2 = omega
    h = 0.5 * (w0 * SZ + w1 * SX - w2 * SY)
    f = PAULI[1:]

    def lind(x):
        out = -1j * (h @ x - x @ h)
        for i in range(3):
            for j in range(3):
                if gks[i][j] != 0:
                    ff = f[j] @ f[i]
                    out = out + gks[i][j] * (f[i] @ x @ f[j] - 0.5 * (ff @ x + x @ ff))
        return out

    g = np.empty((4, 4))
    for b in range(4):
        image = lind(PAULI[b])
        for a in range(4):
            g[a, b] = 0.5 * np.trace(PAULI[a] @ image).real
    return g


def affine_form(gks) -> tuple[np.ndarray, np.ndarray]:
    """(m0, k) of dv/dt = m0 v + k for the uncontrolled channel."""
    g = liouvillian(gks)
    return g[1:, 1:], g[1:, 0]


def exact_piecewise(gks, v0, edges, values, grid) -> np.ndarray:
    """Bloch vectors on `grid` under piecewise-constant fields, one expm per piece."""
    gens = [liouvillian(gks, w) for w in values]
    x = np.concatenate([[1.0], v0])
    t = 0.0
    out = np.empty((len(grid), 3))
    for n, target in enumerate(grid):
        while t < target:
            seg = min(int(np.searchsorted(edges, t, side="right")) - 1, len(values) - 1)
            stop = min(target, edges[seg + 1])
            x = expm(gens[seg] * (stop - t)) @ x
            t = stop
        out[n] = x[1:]
    return out


# --- state-feedback reference -------------------------------------------------

def frozen_plane_solution(m0, k, v0, t_end):
    """Integrate u = v_z^2 with v_x, v_y frozen: du/dt = 2 v^t (m0 v + k).

    This is dv_z/dt = v^t (m0 v + k) / v_z written without the division, so
    the zero of v_z is a regular event. Returns (dense solution, zero time or
    inf); v_z(t) = sign(v_z(0)) sqrt(u(t)).
    """
    s = 1.0 if v0[2] > 0 else -1.0

    def rhs(t, y):
        v = np.array([v0[0], v0[1], s * math.sqrt(max(y[0], 0.0))])
        return [2.0 * float(v @ (m0 @ v + k))]

    def hit_zero(t, y):
        return y[0]

    hit_zero.terminal = True
    hit_zero.direction = -1
    sol = solve_ivp(rhs, (0.0, t_end), [v0[2] ** 2], method="RK45", rtol=1e-12,
                    atol=1e-14, dense_output=True, events=hit_zero)
    t_zero = float(sol.t_events[0][0]) if sol.t_events[0].size else math.inf
    return sol, t_zero


# --- checks: oracle-piecewise --------------------------------------------------

def check_oracle(case, bloch_v, density_v, bloch_term, density_term, reference) -> list[str]:
    """Two pictures against each other and against the exact expm reference."""
    errs = []
    for name, term in (("bloch", bloch_term), ("density", density_term)):
        if term != "horizon":
            errs.append(f"{name}: termination {term}, expected horizon")
    for name, v in (("bloch", bloch_v), ("density", density_v)):
        if v.shape != reference.shape:
            errs.append(f"{name}: {v.shape[0]} samples, expected {reference.shape[0]}")
            return errs
    gap = float(np.max(np.abs(bloch_v - density_v)))
    if not gap <= ORACLE_TOL:
        errs.append(f"bloch vs density differ by {gap:.3e}")
    for name, v in (("bloch", bloch_v), ("density", density_v)):
        err = float(np.max(np.abs(v - reference)))
        if not err <= ORACLE_TOL:
            errs.append(f"{name} vs exact reference differ by {err:.3e}")
        if case["unital"]:
            rise = float(np.max(np.diff(np.sum(v * v, axis=1))))
            if not rise <= PURITY_TOL:
                errs.append(f"{name}: unital purity rises by {rise:.3e}")
    return errs


# --- checks: paper-figures ------------------------------------------------------

def read_table(path) -> tuple[list[str], list[list[str]], list[str]]:
    """Header, data rows and comment lines of a cohtrack CSV (stdlib csv)."""
    with open(path, newline="") as f:
        rows = [r for r in csv.reader(f) if r]
    comments = [",".join(r) for r in rows[1:] if r[0].startswith("#")]
    data = [r for r in rows[1:] if not r[0].startswith("#")]
    return rows[0], data, comments


def scenario_state(sc) -> tuple[float, float, float]:
    """Initial Bloch vector the scenario describes (polar or explicit)."""
    if sc["form"] == "vector":
        return sc["vx"], sc["vy"], sc["vz"]
    r = math.sqrt(sc["c"])
    return (r * math.cos(sc["phase"]), r * math.sin(sc["phase"]),
            math.sqrt(sc["p"] - sc["c"]))


def closed_form(sc):
    """t_b, the two field numerators and the denominator function."""
    vx, vy, vz = scenario_state(sc)
    g, w0 = sc["gamma"], sc["omega0"]
    c = vx * vx + vy * vy
    s = 1.0 if vz > 0 else -1.0
    t_b = vz * vz / (2.0 * g * c)
    num1 = s * (-g * vy + w0 * vx)
    num2 = s * (-g * vx - w0 * vy)

    def radicand(t):
        return vz * vz - 2.0 * g * c * t

    return t_b, num1, num2, radicand


def expected_clip_time(sc) -> float:
    """First t at which |num / sqrt(radicand(t))| reaches omega_max."""
    vx, vy, vz = scenario_state(sc)
    t_b, num1, num2, _ = closed_form(sc)
    g, wmax = sc["gamma"], sc["omega_max"]
    c = vx * vx + vy * vy
    times = [max(0.0, (vz * vz - (num / wmax) ** 2) / (2.0 * g * c))
             for num in (num1, num2) if num != 0.0]
    return min(times)


def _termination(comments) -> str | None:
    for line in comments:
        if line.startswith("# termination="):
            return line.split("=", 1)[1]
    return None


def _rel(a, b) -> float:
    return abs(a - b) / max(abs(b), 1e-300)


def check_track_csv(sc, path) -> list[str]:
    """Breakdown or clip time, held plane, closed-form v_z, singularity line."""
    errs = []
    header, data, comments = read_table(path)
    if header != ["t", "vx", "vy", "vz", "purity", "coherence",
                  "omega0", "omega1", "omega2"]:
        return [f"{path}: header {header}"]
    if len(data) < 2:
        return [f"{path}: only {len(data)} data rows"]
    rows = np.array([[float(x) for x in r] for r in data])
    vx, vy, vz = scenario_state(sc)
    t_b, _, _, radicand = closed_form(sc)
    term = _termination(comments) or ""
    hold_until = 0.99 * t_b
    if sc.get("omega_max") is None:
        if not term.startswith("breakdown:t_b="):
            errs.append(f"termination {term!r}, expected breakdown")
        elif not _rel(float(term.split("=", 1)[1]), t_b) <= TB_RTOL:
            errs.append(f"breakdown at {term.split('=', 1)[1]}, expected t_b={t_b!r}")
        sing = [ln for ln in comments if ln.startswith("# singularity=")]
        fields = dict(kv.split("=", 1) for kv in sing[0][2:].split()) if sing else {}
        if fields.get("singularity") != "nontrivial-a":
            errs.append(f"singularity {fields.get('singularity')!r}, expected nontrivial-a")
        elif not _rel(float(fields["t"]), t_b) <= TB_RTOL:
            errs.append(f"singularity at t={fields['t']}, expected {t_b!r}")
    else:
        t_clip = expected_clip_time(sc)
        hold_until = min(hold_until, t_clip)
        if not term.startswith("clipped:t="):
            errs.append(f"termination {term!r}, expected clipped")
        elif not _rel(float(term.split("=", 1)[1]), t_clip) <= CLIP_RTOL:
            errs.append(f"clipped at {term.split('=', 1)[1]}, expected {t_clip!r}")
    held = rows[rows[:, 0] <= hold_until]
    if len(held) == 0:
        return errs + ["no samples before breakdown"]
    plane = float(np.max(np.abs(held[:, 1:3] - [vx, vy])))
    if not plane <= TRACK_TOL:
        errs.append(f"v_x, v_y drift by {plane:.3e}")
    s = 1.0 if vz > 0 else -1.0
    vz_ref = np.array([s * math.sqrt(radicand(t)) for t in held[:, 0]])
    dz = float(np.max(np.abs(held[:, 3] - vz_ref)))
    if not dz <= TRACK_TOL:
        errs.append(f"v_z off its closed form by {dz:.3e}")
    return errs


def expected_fields(sc, t) -> tuple[float, float]:
    """Closed-form in-plane fields at t, clamped to omega_max when given."""
    _, num1, num2, radicand = closed_form(sc)
    wmax = sc.get("omega_max")
    rad = radicand(t)
    out = []
    for num in (num1, num2):
        if wmax is None:
            out.append(num / math.sqrt(rad))
        elif rad <= 0 or abs(num) >= wmax * math.sqrt(rad):
            out.append(math.copysign(wmax, num) if num != 0 else 0.0)
        else:
            out.append(num / math.sqrt(rad))
    return out[0], out[1]


def check_fields_csv(sc, path) -> list[str]:
    header, data, _ = read_table(path)
    if header != ["t", "omega0", "omega1", "omega2"]:
        return [f"{path}: header {header}"]
    t_b = closed_form(sc)[0]
    grid = np.linspace(0.0, sc["t_max"], sc["samples"])
    if sc.get("omega_max") is None:
        grid = grid[grid < t_b * (1.0 - 1e-6)]
    if len(data) != len(grid):
        return [f"{path}: {len(data)} rows, expected {len(grid)}"]
    worst = 0.0
    for row, t in zip(data, grid):
        t_csv, w0, w1, w2 = (float(x) for x in row)
        if t_csv != float(t) or w0 != sc["omega0"]:
            return [f"{path}: row t={row[0]} omega0={row[1]} does not match the grid"]
        e1, e2 = expected_fields(sc, t_csv)
        worst = max(worst, _rel(w1, e1), _rel(w2, e2))
    if not worst <= FIELDS_RTOL:
        return [f"{path}: fields off the closed form by relative {worst:.3e}"]
    return []


def check_sweep_csv(spec, path) -> list[str]:
    header, data, _ = read_table(path)
    if header != ["c", "p", "t_b"]:
        return [f"{path}: header {header}"]
    n = spec["c"]["count"] * spec["p"]["count"]
    if len(data) != n:
        return [f"{path}: {len(data)} cells, expected {n}"]
    g = spec["gamma"]
    for c_s, p_s, tb_s in data:
        c, p = float(c_s), float(p_s)
        if c > p:
            if tb_s != "":
                return [f"{path}: infeasible cell c={c_s} p={p_s} holds {tb_s!r}"]
            continue
        expected = (p - c) / (2.0 * g * c)
        if tb_s == "" or abs(float(tb_s) - expected) > SWEEP_ULPS * math.ulp(expected):
            return [f"{path}: cell c={c_s} p={p_s} holds {tb_s!r}, expected {expected!r}"]
    return []


def check_svg(path) -> list[str]:
    try:
        root = ET.parse(path).getroot()
    except ET.ParseError as e:
        return [f"{path}: not well-formed XML ({e})"]
    if root.tag != SVG_ROOT:
        return [f"{path}: root element {root.tag!r}, expected <svg>"]
    return []


# --- checks: feedback-general ---------------------------------------------------

def check_feedback_horizon(case, t, v, term) -> list[str]:
    """Held plane at the horizon and v_z on the frozen-plane ODE."""
    errs = []
    if term != "horizon":
        return [f"termination {term}, expected horizon"]
    if not math.isclose(t[-1], case["t_max"], rel_tol=1e-12):
        errs.append(f"ends at t={t[-1]!r}, expected {case['t_max']!r}")
    v0 = case["v0"]
    plane = float(np.max(np.abs(v[-1, :2] - v0[:2])))
    if not plane <= HOLD_TOL:
        errs.append(f"v_x, v_y at the horizon off by {plane:.3e}")
    sol = case["reference"]
    s = 1.0 if v0[2] > 0 else -1.0
    vz_ref = s * np.sqrt(np.maximum(sol.sol(t)[0], 0.0))
    dz = float(np.max(np.abs(v[:, 2] - vz_ref)))
    if not dz <= VZ_TOL:
        errs.append(f"v_z off the frozen-plane ODE by {dz:.3e}")
    return errs


def check_feedback_breakdown(case, term) -> list[str]:
    """A run past breakdown must end `breakdown` within 1 % of the reference zero."""
    t_ref = case["t_zero"]
    if not term.startswith("breakdown:t_b="):
        return [f"termination {term}, expected breakdown near t={t_ref:.6g}"]
    t = float(term.split("=", 1)[1])
    if not abs(t - t_ref) <= BREAKDOWN_RTOL * t_ref:
        return [f"breakdown at {t!r}, reference zero of v_z at {t_ref!r}"]
    return []
