"""Tracking control of single-qubit coherence under Markovian dephasing.

The package simulates the coherence-vector (Bloch) dynamics of a qubit
coupled to a Markovian environment, synthesizes the Hamiltonian control
fields that hold the transverse coherence constant under pure dephasing,
and analyzes the finite-time breakdown of that control. Channels are
specified either by a dephasing rate or by a general coefficient matrix
in the Pauli Lindblad basis; unitary equivalence between channels is
handled through the adjoint SO(3) action.
"""

from .bloch import (
    IDENTITY2,
    LAMBDA_0,
    LAMBDA_1,
    LAMBDA_2,
    LAMBDAS,
    PAULIS,
    SIGMA_X,
    SIGMA_Y,
    SIGMA_Z,
    BlochChannel,
    ChannelParams,
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
from .config import ScenarioConfig, SweepSpec
from .dynamics import (
    CSV_HEADER,
    IntegratorConfig,
    Termination,
    Trajectory,
    free_dephasing_analytic,
    propagate_bloch,
    propagate_density,
    purity_rate,
    read_trajectory_csv,
    write_trajectory_csv,
)
from .equivalence import (
    HADAMARD,
    Rotation3,
    Unitary2,
    is_dephasing_class,
    su2_to_so3,
    transform_channel,
    transform_state,
    transport_waveform,
)
from .errors import (
    CohtrackError,
    ConfigError,
    DomainError,
    PastBreakdownError,
    SingularPointError,
    ValidationError,
    WaveformDomainError,
)
from .scenarios import (
    emit_fields,
    equivalence_report,
    load_fixed_waveform,
    run_scenario,
    sweep_breakdown,
)
from .svgplot import emit_plot
from .tracking import (
    SingularityReport,
    breakdown_time,
    classify_singularity,
    clip_time,
    detect_breakdown,
    omega_magnitude_sq,
    simulate_tracked,
    tracked_waveform,
    tracking_fields_dephasing,
    tracking_fields_general,
    vz_tracked,
)
from .verify import run_suite
from .waveform import ControlWaveform

__version__ = "0.1.0"
