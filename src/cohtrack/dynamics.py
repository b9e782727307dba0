"""Time propagation of free and controlled qubit dynamics.

Two independent routes are provided: `propagate_bloch` integrates the affine
coherence-vector ODE dv/dt = (m0 + M(t)) v + k, while `propagate_density`
integrates the density-matrix master equation and converts the samples to
Bloch coordinates. The density route serves as the oracle for the Bloch route.
The Bloch route runs one sequence: RK45 up to the first time from which the
fields are piecewise constant, then exact steps, one matrix exponential per
step, from the state reached there. RK45 always integrates the deviation
from a reference state (Encke's method) in the variable a `Reference` maps
time to. For a tracking waveform that is the state its fields hold, in
w = |v_z*(t)| for tracked dephasing runs (a Sundman-type change of time),
in which the fields scaled by dt/dw stay bounded up to the breakdown time.
Any other waveform takes the identity map sigma = t about the zero state:
RK45 on v itself. A piecewise-constant waveform is all exact steps, an
unclipped tracking waveform all RK45, and a clipped one takes RK45 up to its
last clamp and exact steps on its saturated tail. The density route stays on
RK45: on segments where the waveform's `segments` hold the fields its
right-hand side is one constant generator times the state, elsewhere the
generator of the fields at each stage time. Each RK45 solve is one `_solve`
call; a non-finite run ends `invalid`. RK45 runs one solve per segment
between breakpoints, and no stage of a segment that ends at a breakpoint
evaluates the fields past it. Either route returns a `Trajectory`, whose
samples are one (n, 9) table in the CSV's column order.

hbar = 1 throughout; rates and frequencies share inverse-time units.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.integrate import solve_ivp
from scipy.linalg import expm

from .bloch import (
    PAULIS,
    SIGMA_X,
    SIGMA_Y,
    SIGMA_Z,
    BlochChannel,
    CoherenceVector,
    DensityMatrix,
    GKSMatrix,
    control_matrix,
)
from .errors import DomainError, ValidationError
from .svgplot import read_csv_columns, write_table
from .waveform import ControlWaveform, Reference, segment_index

BREAKDOWN_GUARD = 1e-6   # a run stops sampling t_end * guard short of a domain end


def _commutator_superop(h: np.ndarray) -> np.ndarray:
    """4x4 superoperator of -i[h, .] on the row-major vectorization."""
    eye = np.eye(2)
    return -1j * (np.kron(h, eye) - np.kron(eye, h.T))


# Per-field control generators: H = (1/2)(w0 sigma_z + w1 sigma_x - w2 sigma_y).
_COMM_Z = _commutator_superop(0.5 * SIGMA_Z)
_COMM_X = _commutator_superop(0.5 * SIGMA_X)
_COMM_MY = _commutator_superop(-0.5 * SIGMA_Y)

# Dissipator superoperators on the row-major vectorization, vec(F_i x F_j) =
# (F_i kron F_j^t) vec(x): entry [i, j] is F_i kron F_j^t - (1/2) F_j F_i
# kron I - (1/2) I kron (F_j F_i)^t, for the GKS coefficient a_ij.
_DISSIPATOR_BASIS = np.array([[np.kron(fi, fj.T)
                               - 0.5 * np.kron(fj @ fi, np.eye(2))
                               - 0.5 * np.kron(np.eye(2), (fj @ fi).T)
                               for fj in PAULIS] for fi in PAULIS])


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


@dataclass(frozen=True, slots=True)
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


class Trajectory:
    """Time series of the state, its derived scalars, and the applied fields.

    The samples are one read-only (n, 9) `table` in the CSV's column order:
    t, vx, vy, vz, purity, coherence, omega0, omega1, omega2. `t` (n,), `v`
    (n, 3), `p` (n,), `c` (n,) and `omega` (n, 3) are views of it, so a held
    trajectory costs one array. The constructor takes those five arrays,
    the `termination` and the `singularity` report that tracking code
    attaches. Immutable: assigning any attribute raises AttributeError.
    """

    __slots__ = ("table", "termination", "singularity")

    def __init__(self, t, v, p, c, omega, termination: Termination,
                 singularity: SingularityReport | None = None):
        table = np.column_stack([t, v, p, c, omega])
        if table.shape[1] != 9:
            raise ValidationError(f"trajectory needs 9 columns, got {table.shape[1]}")
        if len(table) == 0:
            raise ValidationError("trajectory must contain at least one sample")
        if np.any(np.diff(table[:, 0]) <= 0):
            raise ValidationError("trajectory times must be strictly increasing")
        table.flags.writeable = False
        self._hold(table, termination, singularity)

    def _hold(self, table, termination, singularity) -> None:
        object.__setattr__(self, "table", table)
        object.__setattr__(self, "termination", termination)
        object.__setattr__(self, "singularity", singularity)

    def __setattr__(self, name, value):
        raise AttributeError(f"Trajectory is immutable; cannot set {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"Trajectory is immutable; cannot delete {name!r}")

    def __reduce__(self):   # copy and pickle through the constructor
        return Trajectory, (self.t, self.v, self.p, self.c, self.omega,
                            self.termination, self.singularity)

    t = property(lambda self: self.table[:, 0])
    v = property(lambda self: self.table[:, 1:4])
    p = property(lambda self: self.table[:, 4])
    c = property(lambda self: self.table[:, 5])
    omega = property(lambda self: self.table[:, 6:9])

    def _sharing(self, termination, singularity) -> "Trajectory":
        """A trajectory on this one's table, not copied, with another end or report."""
        traj = object.__new__(Trajectory)
        traj._hold(self.table, termination, singularity)
        return traj

    def with_termination(self, termination: Termination) -> "Trajectory":
        return self._sharing(termination, self.singularity)

    def with_singularity(self, report) -> "Trajectory":
        return self._sharing(self.termination, report)


def _solve(rhs, t_span, y0, cfg: IntegratorConfig, t_eval=None, events=None):
    """The one RK45 call, at `cfg`'s tolerances; a non-finite value rejects a step silently."""
    with np.errstate(over="ignore", invalid="ignore"):
        return solve_ivp(rhs, t_span, y0, method="RK45", t_eval=t_eval,
                         events=events, rtol=cfg.rtol, atol=cfg.atol)


def _integrate(rhs, y0, grid, cfg: IntegratorConfig, breakpoints=(), held=None):
    """Integrate on the caller's grid with `_solve`, splitting at field discontinuities.

    One solver run per smooth waveform segment samples the grid through
    t_eval, so internal steps can span grid intervals. A segment that ends
    at a breakpoint, the grid's last time included, evaluates `rhs` at
    min(t, nextafter(b, a)): its last Dormand-Prince stages, at t = b, see
    the segment's own fields and not the next one's, so the step controller
    never resolves a jump outside [a, b] (Hairer, Norsett and Wanner,
    Solving ODEs I, sec. II.6). A segment ending at a smooth grid end is
    integrated as it is. `held`, if given, is (start, rhs_at): the fields
    are constant between breakpoints from `start` on, and a segment [a, b]
    with a >= start integrates `rhs_at(a)` instead, which gives what `rhs`
    gives there at any time. Returns (ys, n_ok): samples of shape
    (len(grid), dim) and the number of grid points reached (the rest NaN if
    the solver stops early, as on a non-finite state or rate).
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
    jumps = set(breakpoints)
    for a, b in zip(edges[:-1], edges[1:]):
        sel = np.nonzero((grid > a) & (grid <= b))[0]
        targets = grid[sel]
        if len(targets) == 0 or targets[-1] != b:
            targets = np.append(targets, b)
        f = rhs
        if held is not None and a >= held[0]:
            f = held[1](a)
        elif b in jumps:
            def f(t, x, last=math.nextafter(b, a)):
                return rhs(min(t, last), x)
        sol = _solve(f, (a, b), y, cfg, t_eval=targets)
        reached = min(len(sol.t), len(sel))
        if reached:
            ys[sel[:reached]] = sol.y[:, :reached].T
            n_ok = int(sel[reached - 1]) + 1
        if not sol.success:
            return ys, n_ok
        y = sol.y[:, -1]
    return ys, n_ok


def _exact_steps(ch: BlochChannel, segments, t0: float, v0: np.ndarray,
                 grid: np.ndarray) -> np.ndarray:
    """Samples on the grid of dv/dt = (m0 + M) v + k under piecewise-constant fields.

    The state is v0 at t0 <= grid[0], and the segments hold from t0 on.
    Steps run between the sorted union of t0, the grid and the segment
    starts inside it, so the fields are constant on each. A step of length
    dt is the exponential of dt [[0, 0], [k, m0 + M]] acting on (1, v) (Van
    Loan, IEEE TAC 1978); all steps go to one batched `expm` call.
    """
    starts, triples = segments
    times = np.union1d([t0, *grid], [s for s in starts if t0 < s < grid[-1]])
    gens = np.zeros((len(triples), 4, 4))
    gens[:, 1:, 0] = ch.k
    gens[:, 1:, 1:] = [ch.m0 + control_matrix(*triple) for triple in triples]
    gen = gens[[segment_index(starts, t) for t in times[:-1].tolist()]]
    x = np.concatenate([[1.0], v0])
    xs = [x]
    # A step whose fields times its length is far beyond 1/eps is no longer
    # accurate and may overflow; the run then ends `invalid` at that sample.
    with np.errstate(over="ignore", invalid="ignore"):
        steps = expm(gen * np.diff(times)[:, None, None])
        for step in steps:
            x = step @ x
            xs.append(x)
    return np.array(xs)[np.searchsorted(times, grid), 1:]


def _deviation_steps(ch: BlochChannel, ref: Reference, v0: np.ndarray,
                     cfg: IntegratorConfig):
    """RK45 samples of v = v*(sigma) + e at `ref.sigma`, integrating the deviation e.

    With v*(sigma) = origin + sigma slope and the drive (dt/dsigma, omega_j
    dt/dsigma) of `ref`, e obeys de/dsigma = dt/dsigma (m0 v + k) + M v -
    slope, M built from the scaled fields, with e = v0 - v*(sigma_0) at the
    first of `ref.sigma`: an exact change of variable for any reference
    (Encke's method; Battin, AIAA 1999) and any monotone map of time
    (Sundman's; Stiefel and Scheifele, 1971). When v* is what the fields
    hold, e stays small and smooth, so the steps are no longer limited by
    the rotation the fields drive, and in a variable where the scaled fields
    stay bounded they are not limited by a divergence at t_b either. The
    right-hand side is scalar arithmetic on the entries of m0 and k.
    Returns (ys, n_ok) as `_integrate` does.
    """
    (m00, m01, m02), (m10, m11, m12), (m20, m21, m22) = ch.m0.tolist()
    k0, k1, k2 = ch.k.tolist()
    (p0, p1, p2), (q0, q1, q2), drive = ref.origin, ref.slope, ref.drive

    def rhs(s, e):
        s = float(s)   # RK45's stage times are numpy scalars, slower in arithmetic
        dt, w0, w1, w2 = drive(s)
        e0, e1, e2 = e.tolist()
        x, y, z = p0 + s * q0 + e0, p1 + s * q1 + e1, p2 + s * q2 + e2
        return np.array([dt * (m00 * x + m01 * y + m02 * z + k0) - w0 * y - w2 * z - q0,
                         dt * (m10 * x + m11 * y + m12 * z + k1) + w0 * x - w1 * z - q1,
                         dt * (m20 * x + m21 * y + m22 * z + k2) + w2 * x + w1 * y - q2])

    states = np.asarray(ref.origin) + ref.sigma[:, None] * np.asarray(ref.slope)
    es, n_ok = _integrate(rhs, v0 - states[0], ref.sigma, cfg, ref.breakpoints)
    return es + states, n_ok


def _output_grid(t_max: float, t_end: float | None,
                 n_samples: int) -> tuple[np.ndarray, Termination]:
    """Uniform output grid on [0, t_max] and the run's normal end.

    A domain end t_end whose guard cut t_end (1 - BREAKDOWN_GUARD) lies at or
    before t_max keeps the grid points below the cut, and a run that reaches
    the last kept sample then ends in `breakdown` at t_end. A t_max too
    short for n_samples distinct times raises DomainError.
    """
    if not t_max > 0:
        raise DomainError(f"t_max must be positive, got {t_max}")
    if n_samples < 2:
        raise ValidationError(f"n_samples must be at least 2, got {n_samples}")
    grid = np.linspace(0.0, t_max, n_samples)
    if not np.all(np.diff(grid) > 0.0):
        raise DomainError(f"t_max = {t_max!r} is too short for {n_samples} "
                          "distinct sample times")
    cut = math.inf if t_end is None else t_end * (1.0 - BREAKDOWN_GUARD)
    if cut <= t_max:
        grid = grid[grid < cut]
        return grid, Termination("breakdown", float(t_end))
    return grid, Termination("horizon")


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

    RK45 at `cfg` runs up to the first start of the waveform's `segments`
    (all the way without them), on the deviation e = v - v*(sigma) in the
    variable sigma of the waveform's `reference`, reporting v* + e at the
    grid's sigma, so that `atol` bounds the deviation's local error. A
    waveform without a `reference` takes `Reference.identity` about the
    zero state: e = v in sigma = t. From that start on, exact steps, one
    matrix exponential per step between grid points and segment starts,
    carry the state reached there. So a piecewise-constant waveform is all
    exact steps (`cfg.rtol` then only sets the 1 + 10*rtol cap below), and a
    clipped tracking waveform takes RK45 up to its last clamp and exact
    steps on its saturated tail.

    A waveform with a declared domain end below t_max yields a trajectory
    terminating with `breakdown` at that end. A state leaving the Bloch ball
    beyond 1 + 10*rtol terminates the trajectory with `invalid` metadata
    rather than raising, so parameter sweeps can record failures.
    """
    cfg = cfg or IntegratorConfig()
    grid, end = _output_grid(t_max, w.t_end, n_samples)
    fields = w.unchecked()   # every time below lies in [0, grid[-1]]
    hold = w.segments[0][0] if w.segments is not None else math.inf
    # RK45 samples grid[:split], the times before `hold`; exact steps the rest.
    split = len(grid) if hold >= grid[-1] else int(np.searchsorted(grid, hold))
    ys, n_ok, v = np.full((len(grid), 3), np.nan), 0, v0.as_array()
    if split:
        head = grid if split == len(grid) else np.append(grid[:split], hold)
        ref = (w.reference(head) if w.reference is not None
               else Reference.identity(head, w.breakpoints, fields, (0.0, 0.0, 0.0)))
        vs, n_ok = _deviation_steps(ch, ref, v, cfg)
        ys[:split], v = vs[:split], vs[-1]
    if split < len(grid):
        # A head that stopped short left v NaN, and the run ends `invalid`
        # at the first sample it did not reach.
        ys[split:] = _exact_steps(ch, w.segments, max(hold, grid[0]), v, grid[split:])
        n_ok = len(grid)
    return _trajectory(grid, ys, n_ok, cfg, end, lambda g, _: w.table(g))


def propagate_density(a: GKSMatrix, w: ControlWaveform, rho0: DensityMatrix,
                      t_max: float, cfg: IntegratorConfig | None = None,
                      n_samples: int = 501) -> Trajectory:
    """Integrate drho/dt = -i [H(t), rho] + L(rho), reported in Bloch coordinates.

    Independent oracle for `propagate_bloch`: the right-hand side is built
    from 2x2 matrix algebra only and never touches the affine (m0, k) form.
    It is G @ rho on the row-major vectorization, with G the dissipator plus
    the commutator superoperators of the fields. RK45 runs one solve per
    segment between breakpoints; on a segment where the waveform's
    `segments` hold the fields G is built once, elsewhere at each stage time
    from the fields there. Each kept sample is read out as Tr(rho sigma_j).
    """
    cfg = cfg or IntegratorConfig()
    grid, end = _output_grid(t_max, w.t_end, n_samples)
    fields = w.unchecked()   # every time below lies in [0, grid[-1]]
    dissipator = np.zeros((4, 4), dtype=complex)
    for (i, j), aij in np.ndenumerate(a.matrix):
        if aij != 0:
            dissipator += aij * _DISSIPATOR_BASIS[i, j]

    def generator(triple):
        w0, w1, w2 = triple
        return dissipator + w0 * _COMM_Z + w1 * _COMM_X + w2 * _COMM_MY

    def rhs(t, y):
        return generator(fields(t)) @ y

    held = None
    if w.segments is not None:
        starts, triples = w.segments

        def held_rhs(start):
            gen = generator(triples[segment_index(starts, start)])
            return lambda t, y: gen @ y

        held = (starts[0], held_rhs)
    y0 = rho0.matrix.ravel().astype(complex)
    ys, n_ok = _integrate(rhs, y0, grid, cfg, w.breakpoints, held)
    rhos = ys[:n_ok].reshape(-1, 2, 2)
    vs = np.full((len(grid), 3), np.nan)
    for j, s in enumerate(PAULIS):
        vs[:n_ok, j] = np.trace(rhos @ s, axis1=1, axis2=2).real
    return _trajectory(grid, vs, n_ok, cfg, end, lambda g, _: w.table(g))


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
    comments = [f"# termination={traj.termination.label()}"]
    if traj.singularity is not None:
        comments.append(traj.singularity.comment_line())
    write_table(path, CSV_HEADER.split(","), traj.table.tolist(), comments)


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
    _, data, comments = read_csv_columns(path, CSV_HEADER.split(","))
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
    if not len(data):
        raise ValidationError(f"{path}: no data rows")
    return Trajectory(data[:, 0], data[:, 1:4], data[:, 4], data[:, 5],
                      data[:, 6:9], termination, singularity)
