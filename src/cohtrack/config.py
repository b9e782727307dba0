"""Scenario and sweep configuration: strict JSON parsing.

The config format is a single JSON document. Unknown fields are rejected at
every level so that a typo'd parameter name fails loudly instead of silently
falling back to a default.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from .bloch import CoherenceVector, GKSMatrix
from .errors import CohtrackError, ConfigError
from .svgplot import read_text


def parse_json(text: str, context: str):
    """Decode a JSON document; malformed text or a non-finite number raises ConfigError.

    `NaN`, `Infinity` and `-Infinity`, which Python's json accepts, and a
    literal that overflows a float (`1e400`, or an integer above 1.8e308)
    are all refused here.
    """
    def finite(literal):
        x = float(literal)
        if not math.isfinite(x):
            raise ConfigError(f"{context}: non-finite number {literal} is not allowed")
        return x

    def integer(literal):
        finite(literal)
        return int(literal)

    try:
        return json.loads(text, parse_float=finite, parse_int=integer,
                          parse_constant=finite)
    except json.JSONDecodeError as e:
        raise ConfigError(f"{context}: invalid JSON: {e}") from None


def _require_keys(obj, allowed: set, context: str) -> None:
    if not isinstance(obj, dict):
        raise ConfigError(f"{context}: expected a JSON object")
    unknown = set(obj) - allowed
    if unknown:
        raise ConfigError(f"{context}: unknown field(s) {sorted(unknown)}")


def _get(obj: dict, key: str, context: str):
    if key not in obj:
        raise ConfigError(f"{context}: missing required field {key!r}")
    return obj[key]


def _number(value, context: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"{context}: expected a number, got {value!r}")
    try:
        x = float(value)
    except OverflowError:   # an integer beyond the float range
        x = math.inf
    if not math.isfinite(x):
        raise ConfigError(f"{context}: expected a finite number, got {value!r}")
    return x


def _rate(value, context: str) -> float:
    """A dephasing rate gamma >= 0 whose 2 gamma, the rate of every formula, is finite."""
    gamma = _number(value, context)
    if gamma < 0:
        raise ConfigError(f"{context}: rate must be >= 0, got {gamma}")
    if not math.isfinite(2.0 * gamma):
        raise ConfigError(f"{context}: rate {gamma!r} is too large (2 gamma overflows)")
    return gamma


def parse_complex_matrix(rows, context: str) -> np.ndarray:
    """Parse a complex matrix given as nested [re, im] pairs."""
    try:
        arr = np.array([[complex(e[0], e[1]) for e in row] for row in rows])
    except (TypeError, IndexError, ValueError):
        raise ConfigError(f"{context}: expected rows of [re, im] pairs") from None
    return arr


def complex_matrix_to_json(m: np.ndarray) -> list:
    return [[[float(e.real), float(e.imag)] for e in row] for row in m]


def channel_from_dict(obj, context="channel") -> GKSMatrix:
    """The GKS matrix of a channel; a dephasing rate gamma is diag(0, 0, gamma/2)."""
    if not isinstance(obj, dict):
        raise ConfigError(f"{context}: expected a JSON object")
    kind = _get(obj, "type", context)
    if kind == "dephasing":
        _require_keys(obj, {"type", "gamma"}, context)
        gamma = _rate(_get(obj, "gamma", context), f"{context}.gamma")
        return GKSMatrix(np.diag([0.0, 0.0, gamma / 2.0]).astype(complex))
    if kind == "gks":
        _require_keys(obj, {"type", "matrix"}, context)
        mat = parse_complex_matrix(_get(obj, "matrix", context), f"{context}.matrix")
        try:
            return GKSMatrix(mat)
        except CohtrackError as e:
            raise ConfigError(f"{context}.matrix: {e}") from None
    raise ConfigError(f"{context}.type: must be 'dephasing' or 'gks', got {kind!r}")


def initial_state_from_dict(obj, context="initial_state") -> CoherenceVector:
    """Explicit Bloch vector, or (coherence, purity, phase) with v_z = +sqrt(p - c)."""
    if not isinstance(obj, dict):
        raise ConfigError(f"{context}: expected a JSON object")
    if "vx" in obj or "vy" in obj or "vz" in obj:
        _require_keys(obj, {"vx", "vy", "vz"}, context)
        v = [_number(_get(obj, key, context), f"{context}.{key}")
             for key in ("vx", "vy", "vz")]
        try:
            return CoherenceVector(*v)
        except CohtrackError as e:
            raise ConfigError(f"{context}: {e}") from None
    _require_keys(obj, {"coherence", "purity", "phase"}, context)
    c = _number(_get(obj, "coherence", context), f"{context}.coherence")
    p = _number(_get(obj, "purity", context), f"{context}.purity")
    phi = _number(_get(obj, "phase", context), f"{context}.phase")
    if not (0 <= c <= p <= 1):
        raise ConfigError(f"{context}: need 0 <= coherence <= purity <= 1, "
                          f"got coherence={c}, purity={p}")
    rad = math.sqrt(c)
    return CoherenceVector(rad * math.cos(phi), rad * math.sin(phi), math.sqrt(p - c))


@dataclass(frozen=True)
class ControlSpec:
    """free, tracked (omega0, optional clip level), or a sampled waveform file."""

    mode: str                       # "free" | "track" | "fixed"
    omega0: float | None = None
    omega_max: float | None = None
    waveform_path: str | None = None

    @classmethod
    def from_dict(cls, obj, context="control") -> "ControlSpec":
        if not isinstance(obj, dict):
            raise ConfigError(f"{context}: expected a JSON object")
        mode = _get(obj, "mode", context)
        if mode == "free":
            _require_keys(obj, {"mode"}, context)
            return cls("free")
        if mode == "track":
            _require_keys(obj, {"mode", "omega0", "omega_max"}, context)
            omega0 = _number(_get(obj, "omega0", context), f"{context}.omega0")
            omega_max = obj.get("omega_max")
            if omega_max is not None:
                omega_max = _number(omega_max, f"{context}.omega_max")
                if omega_max <= 0:
                    raise ConfigError(f"{context}.omega_max: must be positive")
            return cls("track", omega0=omega0, omega_max=omega_max)
        if mode == "fixed":
            _require_keys(obj, {"mode", "waveform"}, context)
            path = _get(obj, "waveform", context)
            if not isinstance(path, str):
                raise ConfigError(f"{context}.waveform: expected a file path string")
            return cls("fixed", waveform_path=path)
        raise ConfigError(f"{context}.mode: must be 'free', 'track' or 'fixed', "
                          f"got {mode!r}")


_SCENARIO_KEYS = {"channel", "initial_state", "control", "t_max", "samples", "output"}


@dataclass(frozen=True)
class ScenarioConfig:
    """A fully validated simulation scenario."""

    channel: GKSMatrix
    initial_state: CoherenceVector
    control: ControlSpec
    t_max: float
    samples: int
    output: str

    @classmethod
    def from_dict(cls, obj) -> "ScenarioConfig":
        _require_keys(obj, _SCENARIO_KEYS, "config")
        channel = channel_from_dict(_get(obj, "channel", "config"))
        state = initial_state_from_dict(_get(obj, "initial_state", "config"))
        control = ControlSpec.from_dict(_get(obj, "control", "config"))
        t_max = _number(_get(obj, "t_max", "config"), "t_max")
        if t_max <= 0:
            raise ConfigError(f"t_max: must be positive, got {t_max}")
        samples = obj.get("samples", 501)
        if isinstance(samples, bool) or not isinstance(samples, int) or samples < 2:
            raise ConfigError(f"samples: must be an integer >= 2, got {samples!r}")
        output = obj.get("output", "trajectory.csv")
        if not isinstance(output, str):
            raise ConfigError("output: expected a file path string")
        return cls(channel, state, control, t_max, samples, output)

    @classmethod
    def from_json(cls, text: str) -> "ScenarioConfig":
        return cls.from_dict(parse_json(text, "config"))

    @classmethod
    def load(cls, path) -> "ScenarioConfig":
        return cls.from_json(read_text(path))


_GRID_KEYS = {"min", "max", "count"}
_SWEEP_KEYS = {"gamma", "c", "p", "output"}


@dataclass(frozen=True)
class GridSpec:
    lo: float
    hi: float
    count: int

    @classmethod
    def from_dict(cls, obj, context) -> "GridSpec":
        _require_keys(obj, _GRID_KEYS, context)
        lo = _number(_get(obj, "min", context), f"{context}.min")
        hi = _number(_get(obj, "max", context), f"{context}.max")
        count = _get(obj, "count", context)
        if isinstance(count, bool) or not isinstance(count, int) or count < 1:
            raise ConfigError(f"{context}.count: must be an integer >= 1")
        if not lo <= hi:
            raise ConfigError(f"{context}: need min <= max, got [{lo}, {hi}]")
        return cls(lo, hi, count)

    def values(self) -> np.ndarray:
        return np.linspace(self.lo, self.hi, self.count)


@dataclass(frozen=True)
class SweepSpec:
    """Breakdown-time sweep over a (coherence, purity) grid at fixed gamma."""

    gamma: float
    c_grid: GridSpec
    p_grid: GridSpec
    output: str

    @classmethod
    def from_dict(cls, obj) -> "SweepSpec":
        _require_keys(obj, _SWEEP_KEYS, "sweep")
        gamma = _rate(_get(obj, "gamma", "sweep"), "sweep.gamma")
        c_grid = GridSpec.from_dict(_get(obj, "c", "sweep"), "sweep.c")
        p_grid = GridSpec.from_dict(_get(obj, "p", "sweep"), "sweep.p")
        for name, grid in (("c", c_grid), ("p", p_grid)):
            if grid.lo < 0 or grid.hi > 1:
                raise ConfigError(f"sweep.{name}: grid must lie within [0, 1]")
        output = obj.get("output", "sweep.csv")
        if not isinstance(output, str):
            raise ConfigError("sweep.output: expected a file path string")
        return cls(gamma, c_grid, p_grid, output)

    @classmethod
    def load(cls, path) -> "SweepSpec":
        return cls.from_dict(parse_json(read_text(path), "sweep"))
