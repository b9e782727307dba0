"""Coherence-vector (Bloch) representation of a qubit and its decoherence channels.

Conventions used throughout the package:

* rho = (1/2) (I + v . sigma), so v_alpha = Tr(rho sigma_alpha) and pure
  states have |v| = 1.
* "purity" means p = |v|^2 (the squared Bloch-sphere radius), not Tr(rho^2).
  The two are related by Tr(rho^2) = (1 + p) / 2.
* "coherence" means c = v_x^2 + v_y^2, the squared radius in the x-y plane.
* The Lindblad-operator basis is fixed as F_1 = sigma_x, F_2 = sigma_y,
  F_3 = sigma_z; the GKS coefficient matrix A lives in this basis.
* A generates dv/dt = (m0 + M(t)) v + k with the closed form
  m0 = Re A + (Re A)^t - 2 tr(Re A) I and k_a = -2 eps_abc Im A_bc; a pure
  dephasing rate gamma is A = diag(0, 0, gamma/2).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, ValidationError

SIGMA_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
SIGMA_Y = np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex)
SIGMA_Z = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)
IDENTITY2 = np.eye(2, dtype=complex)
PAULIS = (SIGMA_X, SIGMA_Y, SIGMA_Z)

# so(3) generators of the control matrix M(t) = sum_j omega_j Lambda_j.
# They satisfy [L0,L1] = -L2, [L1,L2] = -L0, [L2,L0] = -L1 exactly.
LAMBDA_0 = np.array([[0, -1, 0], [1, 0, 0], [0, 0, 0]], dtype=int)
LAMBDA_1 = np.array([[0, 0, 0], [0, 0, -1], [0, 1, 0]], dtype=int)
LAMBDA_2 = np.array([[0, 0, -1], [0, 0, 0], [1, 0, 0]], dtype=int)
LAMBDAS = (LAMBDA_0, LAMBDA_1, LAMBDA_2)

HERMITICITY_TOL = 1e-12
TRACE_TOL = 1e-12
PSD_SLACK = 1e-10
NORM_TOL = 1e-12


def _freeze(a: np.ndarray) -> np.ndarray:
    a.setflags(write=False)
    return a


def _entry_scale(a) -> float:
    """max(1, largest |entry|): the scale a relative tolerance is taken at."""
    return max(1.0, float(np.max(np.abs(a))))


@dataclass(frozen=True)
class DensityMatrix:
    """A validated 2x2 qubit density matrix."""

    matrix: np.ndarray

    def __post_init__(self):
        m = np.asarray(self.matrix, dtype=complex)
        if m.shape != (2, 2):
            raise ValidationError(f"density matrix must be 2x2, got {m.shape}")
        herm = np.max(np.abs(m - m.conj().T))
        if herm > HERMITICITY_TOL:
            raise ValidationError(f"density matrix not Hermitian: residual {herm:.3e}")
        tr = m[0, 0].real + m[1, 1].real
        if abs(tr - 1.0) > TRACE_TOL:
            raise ValidationError(f"density matrix trace {tr!r} differs from 1")
        eigs = np.linalg.eigvalsh(m)
        if eigs.min() < -1e-12:
            raise ValidationError(f"density matrix not PSD: eigenvalue {eigs.min():.3e}")
        pur = np.trace(m @ m).real
        if pur > 1.0 + 1e-12:
            raise ValidationError(f"Tr(rho^2) = {pur!r} exceeds 1")
        object.__setattr__(self, "matrix", _freeze(m))


@dataclass(frozen=True)
class CoherenceVector:
    """Real Bloch vector v with |v| <= 1."""

    vx: float
    vy: float
    vz: float

    def __post_init__(self):
        for name in ("vx", "vy", "vz"):
            val = getattr(self, name)
            if not math.isfinite(val):
                raise ValidationError(f"{name} must be finite, got {val!r}")
        try:
            n2 = self.vx**2 + self.vy**2 + self.vz**2
        except OverflowError:   # a component above about 1.3e154
            n2 = math.inf
        if n2 > 1.0 + NORM_TOL:
            raise ValidationError(f"|v|^2 = {n2!r} exceeds 1 (state outside Bloch ball)")

    def as_array(self) -> np.ndarray:
        return np.array([self.vx, self.vy, self.vz], dtype=float)

    @classmethod
    def from_array(cls, v) -> "CoherenceVector":
        v = np.asarray(v, dtype=float)
        return cls(float(v[0]), float(v[1]), float(v[2]))


@dataclass(frozen=True)
class GKSMatrix:
    """3x3 Hermitian PSD coefficient matrix of the Lindbladian in the Pauli basis."""

    matrix: np.ndarray

    def __post_init__(self):
        m = np.asarray(self.matrix, dtype=complex)
        if m.shape != (3, 3):
            raise ValidationError(f"GKS matrix must be 3x3, got {m.shape}")
        if not np.all(np.isfinite(m)):
            raise ValidationError("GKS matrix has non-finite entries")
        scale = _entry_scale(m)
        herm = float(np.max(np.abs(m - m.conj().T)))
        if herm > HERMITICITY_TOL * scale:
            raise ValidationError(f"GKS matrix not Hermitian: residual {herm:.3e}")
        min_eig = float(np.linalg.eigvalsh(m).min())
        # The slack is relative to |A|. Both sides are divided by the entry
        # scale, so entries above 1e154 cannot overflow |A| to inf; with every
        # |entry| <= 1 the scale is 1 and the division is exact.
        slack = PSD_SLACK * max(1.0 / scale, float(np.linalg.norm(m / scale)))
        if min_eig / scale < -slack:
            raise ValidationError(f"GKS matrix not PSD: min eigenvalue {min_eig:.3e}")
        object.__setattr__(self, "matrix", _freeze(m))


@dataclass(frozen=True)
class ChannelParams:
    """Scalar channel parameters read off the affine Bloch generator.

    The damping rates are labeled by the axis they damp: gamma3 damps v_x,
    gamma2 damps v_y, gamma1 damps v_z. This is the role the symbols play
    in the generalized Bloch equations; no other index convention is assumed.
    """

    gamma1: float
    gamma2: float
    gamma3: float
    alpha: float
    beta: float
    delta: float
    lam: float
    mu: float
    nu: float


@dataclass(frozen=True)
class BlochChannel:
    """Affine generator dv/dt = (m0 + M(t)) v + k of the coherence vector."""

    m0: np.ndarray
    k: np.ndarray

    def __post_init__(self):
        m0 = np.asarray(self.m0, dtype=float)
        k = np.asarray(self.k, dtype=float)
        if m0.shape != (3, 3):
            raise ValidationError(f"m0 must be 3x3, got {m0.shape}")
        if k.shape != (3,):
            raise ValidationError(f"k must be a 3-vector, got {k.shape}")
        if not (np.all(np.isfinite(m0)) and np.all(np.isfinite(k))):
            raise ValidationError("m0 and k must be finite")
        tol = HERMITICITY_TOL * _entry_scale(m0)
        sym = np.max(np.abs(m0 - m0.T))
        if sym > tol:
            raise ValidationError(f"m0 not symmetric: residual {sym:.3e}")
        if np.any(np.diag(m0) > tol):
            raise ValidationError("m0 diagonal must be non-positive")
        object.__setattr__(self, "m0", _freeze(m0))
        object.__setattr__(self, "k", _freeze(k))

    def params(self) -> ChannelParams:
        m0, k = self.m0, self.k
        return ChannelParams(
            gamma1=-float(m0[2, 2]),
            gamma2=-float(m0[1, 1]),
            gamma3=-float(m0[0, 0]),
            alpha=float(m0[0, 1]),
            beta=float(m0[0, 2]),
            delta=float(m0[1, 2]),
            lam=-float(self.k[0]) / 2.0,
            mu=-float(self.k[1]) / 2.0,
            nu=-float(k[2]) / 2.0,
        )

    @classmethod
    def dephasing(cls, gamma: float) -> "BlochChannel":
        """Pure dephasing channel: m0 = diag(-gamma, -gamma, 0), k = 0."""
        if gamma < 0:
            raise DomainError(f"dephasing rate must be >= 0, got {gamma}")
        return cls(np.diag([-gamma, -gamma, 0.0]), np.zeros(3))


def density_to_bloch(rho: DensityMatrix) -> CoherenceVector:
    """Bloch vector of a density matrix: v_alpha = Tr(rho sigma_alpha)."""
    m = rho.matrix
    v = [float(np.trace(m @ s).real) for s in PAULIS]
    return CoherenceVector(*v)


def bloch_to_density(v: CoherenceVector) -> DensityMatrix:
    """Density matrix of a Bloch vector: rho = (I + v . sigma) / 2."""
    m = 0.5 * (IDENTITY2 + v.vx * SIGMA_X + v.vy * SIGMA_Y + v.vz * SIGMA_Z)
    return DensityMatrix(m)


def purity(v: CoherenceVector) -> float:
    """Squared Bloch-sphere radius p = |v|^2."""
    return v.vx**2 + v.vy**2 + v.vz**2


def coherence(v: CoherenceVector) -> float:
    """Squared radius in the x-y plane, c = v_x^2 + v_y^2."""
    return v.vx**2 + v.vy**2


def gks_to_channel(a: GKSMatrix) -> tuple[ChannelParams, BlochChannel]:
    """Convert a GKS matrix to the affine Bloch generator (m0, k).

    Closed form (Gorini, Kossakowski and Sudarshan, J. Math. Phys. 17, 821,
    1976): m0 = Re A + (Re A)^t - 2 tr(Re A) I, which is exactly symmetric,
    and k_a = -2 eps_abc Im A_bc. Adding 0.0 turns a -0.0 entry into 0.0.
    """
    re, im = a.matrix.real, a.matrix.imag
    m0 = re + re.T - 2.0 * np.trace(re) * np.eye(3) + 0.0
    k = -2.0 * np.array([im[1, 2] - im[2, 1], im[2, 0] - im[0, 2],
                         im[0, 1] - im[1, 0]]) + 0.0
    ch = BlochChannel(m0, k)
    return ch.params(), ch


def control_matrix(omega0: float, omega1: float, omega2: float) -> np.ndarray:
    """Antisymmetric control matrix M = omega0 L0 + omega1 L1 + omega2 L2."""
    for name, w in (("omega0", omega0), ("omega1", omega1), ("omega2", omega2)):
        if not math.isfinite(w):
            raise DomainError(f"{name} must be finite, got {w!r}")
    return np.array([[0.0, -omega0, -omega2],
                     [omega0, 0.0, -omega1],
                     [omega2, omega1, 0.0]], dtype=float)
