"""Unitary equivalence classes of qubit decoherence channels.

A global unitary U applied to the Lindblad operators acts on the coherence
vector as the SO(3) rotation R with R_ab = (1/2) Tr(sigma_a U sigma_b U+).
The map is 2-to-1 (R(U) = R(-U)) and insensitive to the global phase of U.
The coefficient matrix transforms as A' = R A R^t, the affine generator as
(R m0 R^t, R k); both routes are computed and cross-checked.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .bloch import PAULIS, BlochChannel, CoherenceVector, GKSMatrix, gks_to_channel
from .bloch import _entry_scale
from .errors import ValidationError
from .waveform import ControlWaveform

DEPHASING_TOL = 1e-10   # of the class test, relative to max(1, largest |eigenvalue|)


@dataclass(frozen=True)
class Unitary2:
    """A validated 2x2 unitary (global phase permitted)."""

    matrix: np.ndarray

    def __post_init__(self):
        u = np.asarray(self.matrix, dtype=complex)
        if u.shape != (2, 2):
            raise ValidationError(f"unitary must be 2x2, got {u.shape}")
        resid = np.max(np.abs(u.conj().T @ u - np.eye(2)))
        if resid > 1e-12:
            raise ValidationError(f"matrix not unitary: residual {resid:.3e}")
        det = abs(np.linalg.det(u))
        if abs(det - 1.0) > 1e-12:
            raise ValidationError(f"|det U| = {det!r} differs from 1")
        u.setflags(write=False)
        object.__setattr__(self, "matrix", u)


@dataclass(frozen=True)
class Rotation3:
    """A validated proper rotation of the coherence vector."""

    matrix: np.ndarray

    def __post_init__(self):
        r = np.asarray(self.matrix, dtype=float)
        if r.shape != (3, 3):
            raise ValidationError(f"rotation must be 3x3, got {r.shape}")
        resid = np.max(np.abs(r.T @ r - np.eye(3)))
        if resid > 1e-12:
            raise ValidationError(f"matrix not orthogonal: residual {resid:.3e}")
        det = np.linalg.det(r)
        if abs(det - 1.0) > 1e-10:
            raise ValidationError(f"det R = {det!r} differs from +1")
        r.setflags(write=False)
        object.__setattr__(self, "matrix", r)


HADAMARD = Unitary2(np.array([[1, 1], [1, -1]], dtype=complex) / math.sqrt(2))


def su2_to_so3(u: Unitary2) -> Rotation3:
    """Adjoint rotation of a qubit unitary: R_ab = (1/2) Tr(sigma_a U sigma_b U+)."""
    um = u.matrix
    ud = um.conj().T
    r = np.empty((3, 3))
    for a, sa in enumerate(PAULIS):
        for b, sb in enumerate(PAULIS):
            r[a, b] = 0.5 * np.trace(sa @ um @ sb @ ud).real
    return Rotation3(r)


def transform_channel(a: GKSMatrix, u: Unitary2) -> GKSMatrix:
    """GKS matrix of the channel with conjugated Lindblad operators F_i -> U F_i U+.

    Computed as A' = R A R^t with R the adjoint rotation; cross-checked
    against the affine-generator route (R m0 R^t, R k) before returning.
    """
    r = su2_to_so3(u).matrix
    a_new = GKSMatrix(r @ a.matrix @ r.T)
    _, ch = gks_to_channel(a)
    _, ch_new = gks_to_channel(a_new)
    rotated = np.append(r @ ch.m0 @ r.T, r @ ch.k)
    if (np.max(np.abs(np.append(ch_new.m0, ch_new.k) - rotated))
            > 1e-12 * _entry_scale(rotated)):
        raise ValidationError("channel transform cross-check failed: the two "
                              "transformation routes disagree beyond 1e-12")
    return a_new


def transform_state(v: CoherenceVector, r: Rotation3) -> CoherenceVector:
    """Rotate a Bloch vector: v' = R v. Purity is invariant exactly."""
    return CoherenceVector.from_array(r.matrix @ v.as_array())


def transport_waveform(w: ControlWaveform, r: Rotation3) -> ControlWaveform:
    """Rotate a control waveform so M'(t) = R M(t) R^t.

    The control matrix acts as the cross product with Omega = (w1, -w2, w0),
    which transforms as Omega' = R Omega. The waveform's `segments`, if any,
    are rotated the same way, so a held tail still takes exact steps. So is
    its `reference`, if any: the `Reference` has its origin and slope
    rotated by R and its drive's scaled fields rotated as the fields are,
    with the same map to sigma, breakpoints and dt/dsigma, so a transported
    tracking waveform still integrates its deviation from the rotated state.
    """
    rm = r.matrix

    def rotate(triple):
        w0, w1, w2 = triple
        o = (rm @ np.array([w1, -w2, w0])).tolist()
        return (o[2], o[0], -o[1])

    def rotated(t):
        return rotate(w(t))

    tail = None
    if w.segments is not None:
        starts, triples = w.segments
        tail = (starts, tuple(map(rotate, triples)))
    ref = w.reference
    if ref is not None:
        def drive(sigma, unrotated=ref.drive):
            dt, *scaled = unrotated(sigma)
            return (dt, *rotate(scaled))

        ref = ref._replace(drive=drive, origin=tuple((rm @ ref.origin).tolist()),
                           slope=tuple((rm @ ref.slope).tolist()))
    return ControlWaveform._holding(rotated, w.t_end, ref, w.breakpoints, tail=tail)


def _dephasing_spectrum(ch: BlochChannel):
    """(gamma or None for a non-member, eigenvectors of m0, tol) of the class test."""
    eigvals, eigvecs = np.linalg.eigh(ch.m0)   # ascending: -gamma, -gamma, 0
    tol = DEPHASING_TOL * _entry_scale(eigvals)
    if not (np.linalg.norm(ch.k) <= tol and abs(eigvals[2]) <= tol
            and eigvals[1] - eigvals[0] <= tol):   # a NaN fails too
        return None, eigvecs, tol
    return max(0.0, -0.5 * float(eigvals[0] + eigvals[1])), eigvecs, tol


def is_dephasing_class(ch: BlochChannel) -> tuple[bool, Rotation3 | None, float | None]:
    """Test membership in the unitary equivalence class of pure dephasing.

    True iff the channel is unital and the spectrum of m0 is {-gamma, -gamma, 0}
    for some gamma >= 0, both within DEPHASING_TOL of the channel's scale. On
    success also returns gamma and a rotation whose columns are eigenvectors
    ordered so R^t m0 R = diag(-gamma, -gamma, 0).
    """
    gamma, eigvecs, _ = _dephasing_spectrum(ch)
    if gamma is None:
        return False, None, None
    r = eigvecs * [np.sign(np.linalg.det(eigvecs)), 1.0, 1.0]   # a proper rotation
    return True, Rotation3(r), gamma


def _z_dephasing_rate(ch: BlochChannel) -> float | None:
    """Class gamma when m0 = diag(-gamma, -gamma, 0) within tol: dephasing about z."""
    gamma, _, tol = _dephasing_spectrum(ch)
    if gamma is None or np.max(np.abs(ch.m0 - np.diag([-gamma, -gamma, 0.0]))) > tol:
        return None
    return gamma
