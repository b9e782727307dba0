"""The public surface of cohtrack: exported names, key parameter lists and input checks.

A removed name or parameter fails here until the change is recorded in
CHANGES.md and the lists below are updated with it.
"""

import inspect
import math
import types

import numpy as np
import pytest

import cohtrack
from cohtrack import (
    CSV_HEADER,
    BlochChannel,
    ControlWaveform,
    DensityMatrix,
    IntegratorConfig,
    Rotation3,
    Termination,
    Trajectory,
    Unitary2,
    ValidationError,
    classify_singularity,
    detect_breakdown,
    emit_plot,
    read_trajectory_csv,
    run_suite,
    simulate_tracked,
    tracking_fields_general,
)

PUBLIC_NAMES = [
    "BlochChannel", "CSV_HEADER", "ChannelParams", "CohtrackError",
    "CoherenceVector", "ConfigError", "ControlWaveform", "DensityMatrix", "DomainError",
    "GKSMatrix", "HADAMARD", "IDENTITY2",
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
    "transport_waveform", "vz_tracked", "write_trajectory_csv",
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
    assert params(simulate_tracked) == ["ch", "v0", "omega0", "t_max", "omega_max",
                                        "n_samples"]
    # One constructor: `closed_form` is gone and `__init__` checks `t_end`.
    assert params(ControlWaveform.__init__) == ["self", "func", "t_end", "breakpoints"]
    assert not hasattr(ControlWaveform, "closed_form")


def _file(tmp_path, text, name="in.csv"):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return str(path)


def _curves(tmp_path, name="in.csv"):
    return _file(tmp_path, "t,vx,vz\n0,0.1,0.5\n1,0.2,0.4\n", name)


def _no_samples():
    return Trajectory(np.zeros(0), np.zeros((0, 3)), np.zeros(0), np.zeros(0),
                      np.zeros((0, 3)), Termination("horizon"))


def _repeated_time():
    return Trajectory(np.zeros(2), np.zeros((2, 3)), np.zeros(2), np.zeros(2),
                      np.zeros((2, 3)), Termination("horizon"))


# One case for each input check of the library that no other test reaches;
# each takes a directory for the files it reads.
INPUT_CHECKS = {
    "constant-non-finite": (lambda tmp: ControlWaveform.constant(math.inf),
                            ValidationError, "constant fields must be finite"),
    "sampled-repeated-time": (lambda tmp: ControlWaveform.sampled([0.0, 1.0, 1.0],
                                                                  np.zeros((3, 3))),
                              ValidationError, "must be strictly increasing"),
    "sampled-field-shape": (lambda tmp: ControlWaveform.sampled([0.0, 1.0], np.zeros((2, 2))),
                            ValidationError, r"must have shape \(2, 3\)"),
    "sampled-non-finite": (lambda tmp: ControlWaveform.sampled(
        [0.0, 1.0], [[math.nan, 0.0, 0.0], [0.0, 0.0, 0.0]]),
        ValidationError, "sampled waveform fields must be finite"),
    "piecewise-triple-count": (lambda tmp: ControlWaveform.piecewise_constant(
        [0.0, 1.0, 2.0], np.zeros((1, 3))), ValidationError, "expected 2 field triples"),
    "piecewise-repeated-edge": (lambda tmp: ControlWaveform.piecewise_constant(
        [0.0, 1.0, 1.0], np.zeros((2, 3))), ValidationError, "must be strictly increasing"),
    "density-not-2x2": (lambda tmp: DensityMatrix(np.eye(3) / 3), ValidationError,
                        "density matrix must be 2x2"),
    "density-purity-above-1": (lambda tmp: DensityMatrix(np.diag([1 + 9e-13, -9e-13])),
                               ValidationError, r"Tr\(rho\^2\) = .* exceeds 1"),
    "m0-not-3x3": (lambda tmp: BlochChannel(np.eye(2), np.zeros(3)), ValidationError,
                   "m0 must be 3x3"),
    "k-not-3-vector": (lambda tmp: BlochChannel(np.zeros((3, 3)), np.zeros(2)),
                       ValidationError, "k must be a 3-vector"),
    "tolerance-outside-0-1": (lambda tmp: IntegratorConfig(rtol=1.0), ValidationError,
                              r"rtol and atol must lie in \(0, 1\)"),
    "trajectory-no-sample": (lambda tmp: _no_samples(), ValidationError,
                             "at least one sample"),
    "trajectory-repeated-time": (lambda tmp: _repeated_time(), ValidationError,
                                 "times must be strictly increasing"),
    "trajectory-csv-no-row": (lambda tmp: read_trajectory_csv(
        _file(tmp, CSV_HEADER + "\n# termination=horizon\n")), ValidationError,
        "no data rows"),
    "unitary-not-2x2": (lambda tmp: Unitary2(np.eye(3)), ValidationError,
                        "unitary must be 2x2"),
    "rotation-not-3x3": (lambda tmp: Rotation3(np.eye(2)), ValidationError,
                         "rotation must be 3x3"),
    "plot-empty-file": (lambda tmp: emit_plot([_file(tmp, "")], "trajectory",
                                              tmp / "out.svg"),
                        ValidationError, "empty file"),
    "plot-missing-column": (lambda tmp: emit_plot([_curves(tmp)], "fields", tmp / "out.svg"),
                            ValidationError, "missing required column 'omega1'"),
    "surface-of-two-csvs": (lambda tmp: emit_plot([_curves(tmp), _curves(tmp, "b.csv")],
                                                  "surface", tmp / "out.svg"),
                            ValidationError, "surface plots take exactly one CSV"),
    "plot-kind": (lambda tmp: emit_plot([_curves(tmp)], "bars", tmp / "out.svg"),
                  ValidationError, "unknown plot kind 'bars'"),
    "verify-suite": (lambda tmp: run_suite("everything"), ValueError,
                     "unknown suite 'everything'"),
}


@pytest.mark.parametrize("case", sorted(INPUT_CHECKS))
def test_each_input_check_refuses(tmp_path, case):
    call, error, message = INPUT_CHECKS[case]
    with pytest.raises(error, match=message):
        call(tmp_path)
