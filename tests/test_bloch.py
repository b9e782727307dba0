"""Domain types, picture conversions, and GKS validation."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cohtrack.bloch import (
    IDENTITY2,
    LAMBDA_0,
    LAMBDA_1,
    LAMBDA_2,
    PAULIS,
    SIGMA_X,
    SIGMA_Y,
    SIGMA_Z,
    BlochChannel,
    CoherenceVector,
    DensityMatrix,
    GKSMatrix,
    bloch_to_density,
    coherence,
    control_matrix,
    density_to_bloch,
    gks_to_channel,
    purity,
)
from cohtrack.dynamics import _COMM_MY, _COMM_X, _COMM_Z
from cohtrack.errors import DomainError, ValidationError

unit_interval = st.floats(-1.0, 1.0, allow_nan=False)


def lindblad_apply_raw(a: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Apply L(x) = (1/2) sum_ij a_ij ([F_i, x F_j] + [F_i x, F_j]) to a 2x2 matrix.

    The constructive reference of `gks_to_channel`'s closed form. The
    Lindblad basis is the fixed Pauli triple; `x` need not be a state.
    """
    out = np.zeros((2, 2), dtype=complex)
    for i, fi in enumerate(PAULIS):
        for j, fj in enumerate(PAULIS):
            aij = a[i, j]
            if aij == 0:
                continue
            out += 0.5 * aij * (fi @ x @ fj - x @ fj @ fi + fi @ x @ fj - fj @ fi @ x)
    return out


def constructive_generator(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(m0, k) from L applied to the basis {I/2, sigma_b/2}, projected back.

    m0[a, b] = Tr(L(sigma_b / 2) sigma_a) and k = Bloch image of L(I/2).
    """
    k = np.array([np.trace(lindblad_apply_raw(a, 0.5 * IDENTITY2) @ s).real
                  for s in PAULIS])
    m0 = np.array([[np.trace(lindblad_apply_raw(a, 0.5 * sb) @ sa).real
                    for sb in PAULIS] for sa in PAULIS])
    return m0, k


@st.composite
def psd_matrices(draw):
    """A = G G^H with G of rank 0 to 3, real or complex.

    Zero, rank-one and real matrices are all drawn.
    """
    rank = draw(st.integers(0, 3))
    real = draw(st.booleans())
    parts = st.lists(unit_interval, min_size=3 * rank, max_size=3 * rank)
    g = np.array(draw(parts)).reshape(3, rank)
    if not real:
        g = g + 1j * np.array(draw(parts)).reshape(3, rank)
    a = (g @ g.conj().T).astype(complex)
    return 0.5 * (a + a.conj().T)


def ball_vector(vx, vy, vz):
    """Scale an arbitrary cube point into the closed Bloch ball."""
    n = math.sqrt(vx * vx + vy * vy + vz * vz)
    if n > 1.0:
        vx, vy, vz = vx / n, vy / n, vz / n
    return CoherenceVector(vx, vy, vz)


class TestPauliAlgebra:
    def test_pauli_squares_are_identity(self):
        for s in PAULIS:
            assert np.array_equal(s @ s, np.eye(2, dtype=complex))

    def test_pauli_commutators(self):
        assert np.allclose(SIGMA_X @ SIGMA_Y - SIGMA_Y @ SIGMA_X, 2j * SIGMA_Z)
        assert np.allclose(SIGMA_Y @ SIGMA_Z - SIGMA_Z @ SIGMA_Y, 2j * SIGMA_X)
        assert np.allclose(SIGMA_Z @ SIGMA_X - SIGMA_X @ SIGMA_Z, 2j * SIGMA_Y)

    def test_so3_commutators_exact(self):
        comm = lambda a, b: a @ b - b @ a
        assert np.array_equal(comm(LAMBDA_0, LAMBDA_1), -LAMBDA_2)
        assert np.array_equal(comm(LAMBDA_1, LAMBDA_2), -LAMBDA_0)
        assert np.array_equal(comm(LAMBDA_2, LAMBDA_0), -LAMBDA_1)

    def test_control_matrix_is_antisymmetric(self):
        m = control_matrix(1.3, -0.7, 2.9)
        assert np.array_equal(m, -m.T)

    @given(*[st.one_of(st.floats(allow_nan=False, allow_infinity=False),
                       st.sampled_from([0.0, -0.0]), st.integers(-10, 10))] * 3)
    @settings(max_examples=200, deadline=None)
    def test_control_matrix_is_the_generator_sum(self, w0, w1, w2):
        # Equal to the array sum, float for ints too. The signs of its zero
        # entries may differ: no rate (m0 + M) v sees them.
        want = (w0 * LAMBDA_0 + w1 * LAMBDA_1 + w2 * LAMBDA_2).astype(float)
        got = control_matrix(w0, w1, w2)
        assert got.dtype == float and np.array_equal(got, want)

    def test_control_matrix_rejects_nonfinite(self):
        with pytest.raises(DomainError):
            control_matrix(math.inf, 0.0, 0.0)

    def test_hamiltonian_matches_control_matrix_action(self):
        # The density oracle's control generator -i[H, .] must act in the
        # Bloch picture as M = sum omega_j Lambda_j.
        w0, w1, w2 = 1.1, -0.4, 0.8
        gen = w0 * _COMM_Z + w1 * _COMM_X + w2 * _COMM_MY
        m = control_matrix(w0, w1, w2)
        for b, sb in enumerate(PAULIS):
            image = (gen @ (0.5 * sb).ravel()).reshape(2, 2)
            column = [np.trace(image @ sa).real for sa in PAULIS]
            assert np.allclose(column, m[:, b], atol=1e-14)


class TestStateTypes:
    def test_vector_outside_ball_rejected(self):
        with pytest.raises(ValidationError):
            CoherenceVector(0.8, 0.8, 0.8)

    def test_vector_nan_rejected(self):
        with pytest.raises(ValidationError):
            CoherenceVector(math.nan, 0.0, 0.0)

    def test_density_matrix_validation(self):
        with pytest.raises(ValidationError):
            DensityMatrix(np.array([[1.0, 0.5], [0.2, 0.0]]))   # not Hermitian
        with pytest.raises(ValidationError):
            DensityMatrix(np.diag([0.8, 0.8]))                  # trace != 1
        with pytest.raises(ValidationError):
            DensityMatrix(np.diag([1.5, -0.5]))                 # not PSD

    @given(unit_interval, unit_interval, unit_interval)
    @settings(max_examples=200)
    def test_round_trip_identity(self, vx, vy, vz):
        v = ball_vector(vx, vy, vz)
        back = density_to_bloch(bloch_to_density(v))
        assert abs(back.vx - v.vx) <= 1e-14
        assert abs(back.vy - v.vy) <= 1e-14
        assert abs(back.vz - v.vz) <= 1e-14

    @given(unit_interval, unit_interval, unit_interval)
    def test_purity_dominates_coherence(self, vx, vy, vz):
        v = ball_vector(vx, vy, vz)
        assert purity(v) >= coherence(v)
        assert purity(v) <= 1.0 + 1e-12

    def test_purity_is_squared_radius(self):
        v = CoherenceVector(0.3, 0.4, 0.5)
        assert math.isclose(purity(v), 0.5, rel_tol=1e-15)
        assert math.isclose(coherence(v), 0.25, rel_tol=1e-15)
        # Relation to the density-matrix purity Tr(rho^2) = (1 + |v|^2) / 2.
        rho = bloch_to_density(v).matrix
        assert math.isclose(np.trace(rho @ rho).real, (1 + 0.5) / 2, rel_tol=1e-14)


class TestGKSValidation:
    def test_valid_dephasing_matrix(self):
        a = np.diag([0.0, 0.0, 0.05]).astype(complex)
        assert np.array_equal(GKSMatrix(a).matrix, a)

    def test_non_hermitian_rejected(self):
        a = np.zeros((3, 3), dtype=complex)
        a[0, 1] = 1.0
        with pytest.raises(ValidationError, match="not Hermitian: residual 1.000e"):
            GKSMatrix(a)

    def test_negative_eigenvalue_rejected(self):
        with pytest.raises(ValidationError, match="not PSD: min eigenvalue -5.000e-01"):
            GKSMatrix(np.diag([1.0, 1.0, -0.5]).astype(complex))

    def test_wrong_shape_rejected(self):
        with pytest.raises(ValidationError, match=r"must be 3x3, got \(2, 2\)"):
            GKSMatrix(np.eye(2, dtype=complex))

    @pytest.mark.parametrize("scale", [1e3, 1e6, 1e10])
    def test_large_valid_matrix_accepted(self, scale):
        # The rounding residual of g g^+ grows with its entries; Hermiticity
        # is judged at max(1, largest |entry|), as the PSD slack is at |A|.
        rng = np.random.default_rng(0)
        g = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
        GKSMatrix(scale * (0.2 * g @ g.conj().T))

    @pytest.mark.parametrize("scale", [1.0, 1e6, 1e10])
    def test_relative_asymmetry_rejected_at_every_scale(self, scale):
        a = scale * np.eye(3, dtype=complex)
        a[0, 1] = 1e-6 * scale
        with pytest.raises(ValidationError, match="Hermitian"):
            GKSMatrix(a)
        m0 = -scale * np.eye(3)
        m0[0, 1] = 1e-6 * scale
        with pytest.raises(ValidationError, match="symmetric"):
            BlochChannel(m0, np.zeros(3))

    def test_rotated_large_generator_accepted(self):
        # R diag(-g, -g, 0) R^t is symmetric only up to rounding, which at
        # g = 1e6 exceeds 1e-12.
        rng = np.random.default_rng(3)
        q, _ = np.linalg.qr(rng.normal(size=(3, 3)))
        m0 = q @ np.diag([-1e6, -1e6, -1e-3]) @ q.T
        assert np.max(np.abs(m0 - m0.T)) > 1e-12
        BlochChannel(m0, np.zeros(3))

    @pytest.mark.parametrize("entry", [math.nan, math.inf, complex(0.0, -math.inf)])
    def test_non_finite_entry_rejected(self, entry):
        # A NaN passes the Hermiticity and eigenvalue comparisons unnoticed.
        a = np.diag([0.0, 0.0, 0.05]).astype(complex)
        a[2, 2] = entry
        with pytest.raises(ValidationError, match="non-finite"):
            GKSMatrix(a)


class TestBlochChannelValidation:
    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("part", ["m0", "k"])
    def test_non_finite_generator_rejected(self, part, value):
        # Before this check diag(-0.1, -0.1, NaN) was accepted, and
        # propagate_bloch under a closed-form waveform never returned on it.
        m0, k = np.diag([-0.1, -0.1, 0.0]), np.zeros(3)
        if part == "m0":
            m0[2, 2] = value
        else:
            k[0] = value
        with pytest.raises(ValidationError, match="finite"):
            BlochChannel(m0, k)

    @pytest.mark.parametrize("m0_diag, accepted", [
        ((-1e3, -1e3, 5e-10), True),    # 5e-13 of the channel's scale
        ((-1e3, -1e3, 5e-9), False),    # 5e-12 of it
        ((-0.1, -0.1, 5e-13), True),    # the scale is never below 1
    ])
    def test_positive_diagonal_judged_at_the_channel_scale(self, m0_diag, accepted):
        if accepted:
            BlochChannel(np.diag(m0_diag), np.zeros(3))
        else:
            with pytest.raises(ValidationError, match="non-positive"):
                BlochChannel(np.diag(m0_diag), np.zeros(3))


class TestChannelConversion:
    def test_dephasing_gks_to_bloch(self):
        # A rate gamma is the GKS matrix diag(0, 0, gamma/2), which maps to
        # the dephasing channel exactly.
        for gamma in (0.0, 1e-300, 0.037, 0.1, 1.0):
            a = GKSMatrix(np.diag([0.0, 0.0, gamma / 2.0]).astype(complex))
            _, ch = gks_to_channel(a)
            ref = BlochChannel.dephasing(gamma)
            assert np.array_equal(ch.m0, ref.m0)
            assert np.array_equal(ch.k, ref.k)

    def test_zero_matrix_gives_zero_generator(self):
        _, ch = gks_to_channel(GKSMatrix(np.zeros((3, 3), dtype=complex)))
        assert np.array_equal(ch.m0, np.zeros((3, 3)))
        assert np.array_equal(ch.k, np.zeros(3))

    @given(psd_matrices())
    @settings(max_examples=200)
    def test_closed_form_matches_constructive_route(self, a):
        _, ch = gks_to_channel(GKSMatrix(a))
        m0, k = constructive_generator(a)
        tol = 1e-15 * max(1.0, float(np.linalg.norm(a)))
        assert np.max(np.abs(ch.m0 - m0)) <= tol
        assert np.max(np.abs(ch.k - k)) <= tol
        assert np.array_equal(ch.m0, ch.m0.T)
        assert not np.any(np.signbit(ch.m0[ch.m0 == 0.0]))
        assert not np.any(np.signbit(ch.k[ch.k == 0.0]))

    def test_random_gks_matches_superoperator_action(self):
        # The affine generator must reproduce the Lindbladian on every basis
        # element: d v/dt from (m0, k) == Bloch image of L(rho).
        rng = np.random.default_rng(7)
        for _ in range(50):
            g = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
            a = GKSMatrix(0.2 * g @ g.conj().T)
            _, ch = gks_to_channel(a)
            u = rng.normal(size=3)
            u *= 0.9 * rng.random() / np.linalg.norm(u)
            v = CoherenceVector.from_array(u)
            rho = bloch_to_density(v).matrix
            image = lindblad_apply_raw(a.matrix, rho)
            vdot_density = [np.trace(image @ s).real for s in PAULIS]
            vdot_affine = ch.m0 @ v.as_array() + ch.k
            assert np.max(np.abs(np.array(vdot_density) - vdot_affine)) <= 1e-12

    def test_axis_labeled_damping_rates(self):
        ch = BlochChannel.dephasing(0.1)
        p = ch.params()
        assert p.gamma3 == 0.1
        assert p.gamma2 == 0.1
        assert p.gamma1 == 0.0

    def test_unital_iff_real_entries(self):
        rng = np.random.default_rng(11)
        for _ in range(20):
            g = rng.normal(size=(3, 3))
            real_a = GKSMatrix((0.2 * g @ g.T).astype(complex))
            assert np.linalg.norm(gks_to_channel(real_a)[1].k) <= 1e-12
        # A genuinely complex PSD matrix produces an affine shift.
        g = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
        a = GKSMatrix(0.2 * g @ g.conj().T)
        if np.max(np.abs(a.matrix.imag)) > 1e-12:
            assert np.linalg.norm(gks_to_channel(a)[1].k) > 1e-12

    def test_negative_dephasing_rate_rejected(self):
        with pytest.raises(DomainError):
            BlochChannel.dephasing(-0.1)
