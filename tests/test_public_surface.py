"""The public surface of cohtrack: exported names and key parameter lists.

A removed name or parameter fails here until the change is recorded in
CHANGES.md and the lists below are updated with it.
"""

import inspect
import types

import cohtrack
from cohtrack import classify_singularity, detect_breakdown, tracking_fields_general

PUBLIC_NAMES = [
    "BlochChannel", "CSV_HEADER", "ChannelParams", "CohtrackError",
    "CoherenceVector", "ConfigError", "ControlWaveform", "DensityMatrix", "DomainError",
    "GKSMatrix", "GKSValidationReport", "HADAMARD", "IDENTITY2",
    "IntegratorConfig", "LAMBDAS", "LAMBDA_0", "LAMBDA_1", "LAMBDA_2", "PAULIS",
    "PastBreakdownError", "Rotation3", "SIGMA_X", "SIGMA_Y", "SIGMA_Z",
    "ScenarioConfig", "SingularPointError",
    "SingularityReport", "SweepSpec", "Termination", "Trajectory",
    "Unitary2", "ValidationError", "WaveformDomainError", "bloch_to_density",
    "breakdown_time", "classify_singularity", "clip_time", "coherence",
    "control_matrix",
    "density_to_bloch", "detect_breakdown", "emit_fields", "emit_plot",
    "equivalence_report", "free_dephasing_analytic", "gks_to_channel",
    "is_dephasing_class", "load_fixed_waveform",
    "omega_magnitude_sq", "propagate_bloch",
    "propagate_density", "purity", "purity_rate", "read_trajectory_csv", "run_scenario",
    "run_suite", "simulate_tracked", "su2_to_so3", "sweep_breakdown",
    "tracked_waveform", "tracking_fields_dephasing", "tracking_fields_general",
    "transform_channel", "transform_state",
    "transport_waveform", "validate_gks", "vz_tracked", "write_trajectory_csv",
]


def test_public_names_are_pinned():
    # Submodules become package attributes once imported; they are not API.
    names = sorted(n for n, obj in vars(cohtrack).items()
                   if not n.startswith("_") and not isinstance(obj, types.ModuleType))
    assert names == sorted(PUBLIC_NAMES)


def test_parameter_lists_are_pinned():
    def params(f):
        return list(inspect.signature(f).parameters)

    assert params(tracking_fields_general) == ["ch", "v", "omega0"]
    assert params(classify_singularity) == ["traj", "ch"]
    assert params(detect_breakdown) == ["ch", "v0", "omega0", "t_cap"]
