"""Time propagation of free and controlled qubit dynamics.

Two independent routes are provided: `propagate_bloch` integrates the affine
coherence-vector ODE dv/dt = (m0 + M(t)) v + k, while `propagate_density`
integrates the density-matrix master equation and converts the samples to
Bloch coordinates. The density route serves as the oracle for the Bloch route.
Under piecewise-constant fields the Bloch route steps exactly, one matrix
exponential per step; under fields built to hold a known reference state it
integrates the deviation from that state (Encke's method); the density route
stays on the adaptive integrator.

hbar = 1 throughout; rates and frequencies share inverse-time units.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np
from scipy.integrate import solve_ivp
from scipy.linalg import expm

from .bloch import (
    LAMBDAS,
    PAULIS,
    SIGMA_X,
    SIGMA_Y,
    SIGMA_Z,
    BlochChannel,
    CoherenceVector,
    DensityMatrix,
    GKSMatrix,
)
from .errors import DomainError, ValidationError
from .svgplot import read_csv_columns, write_table
from .waveform import ControlWaveform, segment_index

BREAKDOWN_GUARD = 1e-6   # a run stops sampling t_end * guard short of a domain end


def _commutator_superop(h: np.ndarray) -> np.ndarray:
    """4x4 superoperator of -i[h, .] on the row-major vectorization."""
    eye = np.eye(2)
    return -1j * (np.kron(h, eye) - np.kron(eye, h.T))


# Per-field control generators: H = (1/2)(w0 sigma_z + w1 sigma_x - w2 sigma_y).
_COMM_Z = _commutator_superop(0.5 * SIGMA_Z)
_COMM_X = _commutator_superop(0.5 * SIGMA_X)
_COMM_MY = _commutator_superop(-0.5 * SIGMA_Y)


@dataclass(frozen=True)
class IntegratorConfig:
    """Tolerances of scipy's adaptive RK45, the Dormand-Prince 5(4) pair."""

    rtol: float = 1e-10
    atol: float = 1e-12

    def __post_init__(self):
        if not (0 < self.rtol < 1 and 0 < self.atol < 1):
            raise ValidationError("rtol and atol must lie in (0, 1)")


TERMINATION_KINDS = ("horizon", "breakdown", "clipped", "invalid")
SINGULARITY_CLASSES = ("none", "trivial", "nontrivial-a", "nontrivial-b")


@dataclass(frozen=True)
class Termination:
    """Why a trajectory ended: horizon, breakdown(t_b), clipped(t) or invalid(t)."""

    kind: str
    time: float | None = None

    def __post_init__(self):
        if self.kind not in TERMINATION_KINDS:
            raise ValidationError(f"unknown termination kind {self.kind!r}; "
                                  f"expected one of {', '.join(TERMINATION_KINDS)}")
        if self.kind != "horizon" and self.time is None:
            raise ValidationError(f"termination {self.kind!r} needs a time")

    def label(self) -> str:
        if self.kind == "horizon":
            return "horizon"
        if self.kind == "breakdown":
            return f"breakdown:t_b={self.time:.17g}"
        if self.kind == "clipped":
            return f"clipped:t={self.time:.17g}"
        return f"invalid:t={self.time:.17g}"


@dataclass(frozen=True)
class SingularityReport:
    """Denominator/numerator diagnostics of the field formulas at a singular time."""

    classification: str        # one of SINGULARITY_CLASSES
    t: float = math.nan
    d1: float = math.nan
    d2: float = math.nan
    n1: float = math.nan
    n2: float = math.nan
    note: str = ""

    def __post_init__(self):
        if self.classification not in SINGULARITY_CLASSES:
            raise ValidationError(f"unknown singularity class {self.classification!r}; "
                                  f"expected one of {', '.join(SINGULARITY_CLASSES)}")

    def comment_line(self) -> str:
        return (f"# singularity={self.classification} t={self.t:.17g} "
                f"D1={self.d1:.17g} D2={self.d2:.17g} "
                f"N1={self.n1:.17g} N2={self.n2:.17g}")


@dataclass(frozen=True)
class Trajectory:
    """Time series of the state, its derived scalars, and the applied fields."""

    t: np.ndarray          # (n,)
    v: np.ndarray          # (n, 3)
    p: np.ndarray          # (n,)
    c: np.ndarray          # (n,)
    omega: np.ndarray      # (n, 3) columns omega0, omega1, omega2
    termination: Termination
    singularity: SingularityReport | None = None   # attached by tracking code

    def __post_init__(self):
        if len(self.t) == 0:
            raise ValidationError("trajectory must contain at least one sample")
        if np.any(np.diff(self.t) <= 0):
            raise ValidationError("trajectory times must be strictly increasing")

    def with_termination(self, termination: Termination) -> "Trajectory":
        return replace(self, termination=termination)

    def with_singularity(self, report) -> "Trajectory":
        return replace(self, singularity=report)


def _integrate(rhs, y0, grid, cfg: IntegratorConfig, breakpoints=()):
    """Integrate on the caller's grid with RK45, splitting at field discontinuities.

    One solver run per smooth waveform segment samples the grid through
    t_eval, so internal steps can span grid intervals. Returns (ys, n_ok):
    samples of shape (len(grid), dim) and the number of grid points reached
    (the rest are left as NaN if the solver fails mid-way).
    """
    grid = np.asarray(grid, dtype=float)
    ys = np.full((len(grid), len(y0)), np.nan, dtype=np.asarray(y0).dtype)
    ys[0] = y0
    y = np.asarray(y0)
    n_ok = 1
    if len(grid) == 1:
        return ys, n_ok
    t0, t1 = grid[0], grid[-1]
    edges = np.array([t0, *(b for b in breakpoints if t0 < b < t1), t1])
    for a, b in zip(edges[:-1], edges[1:]):
        sel = np.nonzero((grid > a) & (grid <= b))[0]
        targets = grid[sel]
        if len(targets) == 0 or targets[-1] != b:
            targets = np.append(targets, b)
        sol = solve_ivp(rhs, (a, b), y, method="RK45", t_eval=targets,
                        rtol=cfg.rtol, atol=cfg.atol)
        reached = min(len(sol.t), len(sel))
        if reached:
            ys[sel[:reached]] = sol.y[:, :reached].T
            n_ok = int(sel[reached - 1]) + 1
        if not sol.success:
            return ys, n_ok
        y = sol.y[:, -1]
    return ys, n_ok


def _bloch_rhs(ch: BlochChannel, fields):
    """dv/dt = (m0 + M(t)) v + k under a raw field function."""
    m0, k = ch.m0, ch.k

    def rhs(t, v):
        # M(t) v written out as the cross product with (omega1, -omega2, omega0)
        # to avoid building the control matrix at every evaluation.
        w0, w1, w2 = fields(t)
        dv = m0 @ v + k
        dv[0] += -w0 * v[1] - w2 * v[2]
        dv[1] += w0 * v[0] - w1 * v[2]
        dv[2] += w2 * v[0] + w1 * v[1]
        return dv

    return rhs


def _exact_steps(ch: BlochChannel, segments, v0: np.ndarray,
                 grid: np.ndarray) -> np.ndarray:
    """Samples on the grid of dv/dt = (m0 + M) v + k under piecewise-constant fields.

    Steps run between the sorted union of the grid and the segment starts
    inside it, so the fields are constant on each. A step of length dt is
    the exponential of dt [[0, 0], [k, m0 + M]] acting on (1, v) (Van Loan,
    IEEE TAC 1978); all steps go to one batched `expm` call.
    """
    starts, triples = segments
    times = np.union1d(grid, [s for s in starts if grid[0] < s < grid[-1]])
    fields = np.array([triples[segment_index(starts, t)] for t in times[:-1].tolist()])
    gen = np.zeros((len(fields), 4, 4))
    gen[:, 1:, 0] = ch.k
    gen[:, 1:, 1:] = ch.m0 + np.tensordot(fields, LAMBDAS, axes=1)
    steps = expm(gen * np.diff(times)[:, None, None])
    x = np.concatenate([[1.0], v0])
    xs = [x]
    for step in steps:
        x = step @ x
        xs.append(x)
    return np.array(xs)[np.searchsorted(times, grid), 1:]


def _deviation_steps(ch: BlochChannel, fields, reference, v0: np.ndarray,
                     grid: np.ndarray, cfg: IntegratorConfig, breakpoints):
    """RK45 samples of v = v*(t) + e on the grid, integrating the deviation e.

    `reference(t)` gives the reference state v*(t) and its rate; e obeys
    de/dt = f(t, v* + e) - dv*/dt with e(0) = v0 - v*(0), an exact change of
    variable for any reference (Encke's method; Battin, AIAA 1999). When v*
    is what the fields hold, e stays small and smooth, so the steps are no
    longer limited by the rotation the fields drive. Returns (ys, n_ok) as
    `_integrate` does.
    """
    rhs = _bloch_rhs(ch, fields)

    def deviation_rhs(t, e):
        state, rate = reference(t)
        return rhs(t, state + e) - rate

    es, n_ok = _integrate(deviation_rhs, v0 - reference(grid[0])[0], grid, cfg,
                          breakpoints)
    return es + np.array([reference(t)[0] for t in grid.tolist()]), n_ok


def _output_grid(t_max: float, t_end: float | None,
                 n_samples: int) -> tuple[np.ndarray, Termination]:
    """Uniform output grid on [0, t_max] and the run's normal end.

    A domain end t_end whose guard cut t_end (1 - BREAKDOWN_GUARD) lies at or
    before t_max keeps the grid points below the cut, and a run that reaches
    the last kept sample then ends in `breakdown` at t_end.
    """
    if not t_max > 0:
        raise DomainError(f"t_max must be positive, got {t_max}")
    if n_samples < 2:
        raise ValidationError(f"n_samples must be at least 2, got {n_samples}")
    grid = np.linspace(0.0, t_max, n_samples)
    cut = math.inf if t_end is None else t_end * (1.0 - BREAKDOWN_GUARD)
    if cut <= t_max:
        grid = grid[grid < cut]
        if len(grid) == 0:
            grid = np.array([0.0])
        return grid, Termination("breakdown", float(t_end))
    return grid, Termination("horizon")


def _fields_on_grid(fields, grid: np.ndarray) -> np.ndarray:
    """(len(grid), 3) table of a raw field function on a grid inside its domain."""
    return np.array([fields(t) for t in grid.tolist()], dtype=float)


def _trajectory(grid: np.ndarray, vs: np.ndarray, n_ok: int, cfg: IntegratorConfig,
                end: Termination, fields) -> Trajectory:
    """The trajectory of the first n_ok integrated Bloch samples, and why it ended.

    The first sample that is not finite or lies outside the Bloch ball by
    more than 1 + 10*rtol ends the run `invalid` at its time and is dropped,
    as is everything after it; a solver that stopped early ends the run
    `invalid` at the first grid point it did not reach. Otherwise the run
    ends with `end`. `fields(grid, vs)` gives the applied fields of the kept
    samples.
    """
    norm_cap = 1.0 + 10.0 * cfg.rtol
    head = vs[:n_ok]
    with np.errstate(over="ignore", invalid="ignore"):
        # Row by row the dot kernel of `v @ v`; another summation order can
        # round to the other side of the cap.
        norm_sq = np.matmul(head[:, None, :], head[:, :, None])[:, 0, 0]
    bad = np.flatnonzero(~np.all(np.isfinite(head), axis=1) | (norm_sq > norm_cap**2))
    if len(bad):
        i = int(bad[0])
        end, n_ok = Termination("invalid", float(grid[i])), max(1, i)
    elif n_ok < len(grid):
        end = Termination("invalid", float(grid[n_ok]))
    grid, vs = grid[:n_ok], vs[:n_ok]
    c = vs[:, 0] ** 2 + vs[:, 1] ** 2
    return Trajectory(grid, vs, c + vs[:, 2] ** 2, c, fields(grid, vs), end)


def propagate_bloch(ch: BlochChannel, w: ControlWaveform, v0: CoherenceVector,
                    t_max: float, cfg: IntegratorConfig | None = None,
                    n_samples: int = 501) -> Trajectory:
    """Integrate dv/dt = (m0 + M(t)) v + k on a uniform output grid.

    The waveform picks one of three routes:
    - with `segments` (piecewise constant, constant or zero), exact steps,
      one matrix exponential per step between grid points and segment
      starts; `cfg.rtol` then only sets the 1 + 10*rtol cap of the Bloch
      ball below;
    - with a `reference` v*(t) (the unclipped tracking waveform), RK45 at
      `cfg` on the deviation e = v - v*(t), and the samples are v* + e;
      `atol` then bounds the deviation's local error;
    - any other, RK45 at `cfg` on v.

    A waveform with a declared domain end below t_max yields a trajectory
    terminating with `breakdown` at that end. A state leaving the Bloch ball
    beyond 1 + 10*rtol terminates the trajectory with `invalid` metadata
    rather than raising, so parameter sweeps can record failures.
    """
    cfg = cfg or IntegratorConfig()
    grid, end = _output_grid(t_max, w.t_end, n_samples)
    fields = w.unchecked()   # every time below lies in [0, grid[-1]]
    if w.segments is not None:
        ys, n_ok = _exact_steps(ch, w.segments, v0.as_array(), grid), len(grid)
    elif w.reference is not None:
        ys, n_ok = _deviation_steps(ch, fields, w.reference, v0.as_array(), grid, cfg,
                                    w.breakpoints)
    else:
        ys, n_ok = _integrate(_bloch_rhs(ch, fields), v0.as_array(), grid, cfg,
                              w.breakpoints)
    return _trajectory(grid, ys, n_ok, cfg, end, lambda g, _: _fields_on_grid(fields, g))


def propagate_density(a: GKSMatrix, w: ControlWaveform, rho0: DensityMatrix,
                      t_max: float, cfg: IntegratorConfig | None = None,
                      n_samples: int = 501) -> Trajectory:
    """Integrate drho/dt = -i [H(t), rho] + L(rho), reported in Bloch coordinates.

    Independent oracle for `propagate_bloch`: the right-hand side is built
    from 2x2 matrix algebra only and never touches the affine (m0, k) form.
    """
    cfg = cfg or IntegratorConfig()
    grid, end = _output_grid(t_max, w.t_end, n_samples)
    fields = w.unchecked()   # every time below lies in [0, grid[-1]]
    # Precompute the dissipator as a 4x4 superoperator on the row-major
    # vectorization: vec(F_i x F_j) = (F_i kron F_j^t) vec(x).
    eye = np.eye(2)
    dissipator = np.zeros((4, 4), dtype=complex)
    for i, fi in enumerate(PAULIS):
        for j, fj in enumerate(PAULIS):
            aij = a.matrix[i, j]
            if aij == 0:
                continue
            fjfi = fj @ fi
            dissipator += aij * (np.kron(fi, fj.T)
                                 - 0.5 * np.kron(fjfi, eye)
                                 - 0.5 * np.kron(eye, fjfi.T))

    # The generator of the last field triple; a piecewise-constant waveform
    # returns the same triple object all along a segment.
    last, gen = None, None

    def rhs(t, y):
        nonlocal last, gen
        triple = fields(t)
        if triple is not last:
            w0, w1, w2 = triple
            last, gen = triple, dissipator + w0 * _COMM_Z + w1 * _COMM_X + w2 * _COMM_MY
        return gen @ y

    y0 = rho0.matrix.ravel().astype(complex)
    ys, n_ok = _integrate(rhs, y0, grid, cfg, w.breakpoints)
    vs = np.full((len(grid), 3), np.nan)
    for i in range(n_ok):
        rho = ys[i].reshape(2, 2)
        vs[i] = [np.trace(rho @ s).real for s in PAULIS]
    return _trajectory(grid, vs, n_ok, cfg, end, lambda g, _: _fields_on_grid(fields, g))


def free_dephasing_analytic(gamma: float, v0: CoherenceVector, t: float) -> CoherenceVector:
    """Closed-form free pure-dephasing evolution of a Bloch vector."""
    if gamma < 0:
        raise DomainError(f"gamma must be >= 0, got {gamma}")
    if t < 0:
        raise DomainError(f"t must be >= 0, got {t}")
    decay = math.exp(-gamma * t)
    return CoherenceVector(decay * v0.vx, decay * v0.vy, v0.vz)


def purity_rate(ch: BlochChannel, v: CoherenceVector) -> float:
    """Instantaneous dp/dt = 2 v^t (m0 v + k).

    Control-field independent by construction: the antisymmetric control
    matrix contributes v^t M(t) v = 0.
    """
    arr = v.as_array()
    return float(2.0 * arr @ (ch.m0 @ arr + ch.k))


# --- trajectory CSV serialization -------------------------------------------

CSV_HEADER = "t,vx,vy,vz,purity,coherence,omega0,omega1,omega2"


def write_trajectory_csv(traj: Trajectory, path) -> None:
    """Write the trajectory in the documented CSV format (17 significant digits)."""
    data = np.column_stack([traj.t, traj.v, traj.p, traj.c, traj.omega])
    comments = [f"# termination={traj.termination.label()}"]
    if traj.singularity is not None:
        comments.append(traj.singularity.comment_line())
    write_table(path, CSV_HEADER.split(","), data.tolist(), comments)


def _parse_singularity(spec: str):
    """SingularityReport from the text after `# singularity=`."""
    cls, *fields = spec.split(" ")
    values = dict(field.split("=", 1) for field in fields)
    if sorted(values) != ["D1", "D2", "N1", "N2", "t"]:
        raise ValueError(spec)
    return SingularityReport(cls, t=float(values["t"]),
                             d1=float(values["D1"]), d2=float(values["D2"]),
                             n1=float(values["N1"]), n2=float(values["N2"]))


def read_trajectory_csv(path) -> Trajectory:
    """Read a trajectory CSV written by write_trajectory_csv."""
    _, rows, comments = read_csv_columns(path, CSV_HEADER.split(","))
    termination, singularity = Termination("horizon"), None
    for i, ln in comments:
        if ln.startswith("# termination="):
            spec = ln.split("=", 1)[1]
            kind = spec.split(":", 1)[0]
            try:
                time = float(spec.split("=")[-1]) if ":" in spec else None
                termination = Termination(kind, time)
            except (ValueError, ValidationError) as e:
                raise ValidationError(f"{path}: row {i}: bad termination "
                                      f"{spec!r}: {e}") from None
        elif ln.startswith("# singularity="):
            try:
                singularity = _parse_singularity(ln.split("=", 1)[1])
            except ValueError:
                raise ValidationError(f"{path}: row {i}: bad singularity line") from None
    if not rows:
        raise ValidationError(f"{path}: no data rows")
    data = np.array(rows)
    return Trajectory(data[:, 0], data[:, 1:4], data[:, 4], data[:, 5],
                      data[:, 6:9], termination, singularity)
