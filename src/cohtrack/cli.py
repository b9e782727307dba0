"""Command-line interface producing batch artifacts (CSV tables, SVG plots).

Exit codes: 0 success, 1 configuration or I/O error (a missing, unreadable or
undecodable input, an unwritable output), 2 infeasible scenario (no control
possible for the requested state/channel), 3 verification failure.
"""

from __future__ import annotations

import argparse
import json
import sys

from .config import ScenarioConfig, SweepSpec, parse_complex_matrix, parse_json
from .equivalence import Unitary2
from .errors import (
    CohtrackError,
    ConfigError,
    DomainError,
    ValidationError,
)
from .scenarios import (
    emit_fields,
    equivalence_report,
    output_path,
    run_scenario,
    sweep_breakdown,
)
from .svgplot import emit_plot
from .verify import DEFAULT_SEED, SUITES, run_suite

EXIT_CONFIG = 1
EXIT_INFEASIBLE = 2
EXIT_VERIFY = 3


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cohtrack",
        description="Simulation and control synthesis for qubit coherence "
                    "tracking under Markovian dephasing.",
    )
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED,
                        help="seed for randomized checks (default %(default)s)")
    parser.add_argument("--out-dir", default=".",
                        help="directory for relative output paths")
    sub = parser.add_subparsers(dest="command", required=True)

    p_free = sub.add_parser("free", help="simulate uncontrolled decay")
    p_free.add_argument("config", help="scenario JSON (control mode 'free')")

    p_track = sub.add_parser("track", help="synthesize and simulate tracking control")
    p_track.add_argument("config", help="scenario JSON (control mode 'track' "
                                        "or 'fixed')")

    p_sweep = sub.add_parser("sweep", help="breakdown-time grid over (c, p)")
    p_sweep.add_argument("config", help="sweep JSON")

    p_fields = sub.add_parser("fields", help="emit synthesized control fields")
    p_fields.add_argument("config", help="scenario JSON (control mode 'track')")

    p_equiv = sub.add_parser("equiv", help="transform channel/state by a unitary")
    p_equiv.add_argument("config", help="scenario JSON")
    p_equiv.add_argument("--unitary", required=True,
                         help="2x2 unitary as JSON rows of [re, im] pairs")

    p_plot = sub.add_parser("plot", help="render simulation CSVs to SVG")
    p_plot.add_argument("csv", nargs="+", help="input CSV file(s)")
    p_plot.add_argument("--kind", choices=["trajectory", "fields", "surface"],
                        default="trajectory")
    p_plot.add_argument("-o", "--output", default="plot.svg")

    p_verify = sub.add_parser("verify", help="run the verification checks")
    p_verify.add_argument("suite", choices=sorted(SUITES))
    return parser


_PARSER = _build_parser()


def _cmd_run(args, expected_modes: tuple[str, ...]) -> int:
    cfg = ScenarioConfig.load(args.config)
    if cfg.control.mode not in expected_modes:
        raise ConfigError(f"'{args.command}' requires control mode "
                          f"{' or '.join(map(repr, expected_modes))}, "
                          f"config has {cfg.control.mode!r}")
    traj, out_path = run_scenario(cfg, args.out_dir)
    print(f"wrote {out_path} ({traj.t.size} samples, "
          f"termination={traj.termination.label()})")
    if traj.singularity is not None and traj.singularity.classification != "none":
        rep = traj.singularity
        print(f"singularity: {rep.classification} at t={rep.t:.6g}"
              + (f" ({rep.note})" if rep.note else ""))
    return 0


def _cmd_sweep(args) -> int:
    print(f"wrote {sweep_breakdown(SweepSpec.load(args.config), args.out_dir)}")
    return 0


def _cmd_fields(args) -> int:
    print(f"wrote {emit_fields(ScenarioConfig.load(args.config), args.out_dir)}")
    return 0


def _cmd_equiv(args) -> int:
    cfg = ScenarioConfig.load(args.config)
    rows = parse_json(args.unitary, "--unitary")
    try:
        u = Unitary2(parse_complex_matrix(rows, "--unitary"))
    except ValidationError as e:
        raise ConfigError(f"--unitary: {e}") from None
    print(json.dumps(equivalence_report(cfg, u), indent=2, sort_keys=True))
    return 0


def _cmd_plot(args) -> int:
    out_path = output_path(args.output, args.out_dir)
    emit_plot(args.csv, args.kind, out_path)
    print(f"wrote {out_path}")
    return 0


def _cmd_verify(args) -> int:
    return 0 if run_suite(args.suite, seed=args.seed) else EXIT_VERIFY


_COMMANDS = {
    "free": lambda args: _cmd_run(args, ("free",)),
    "track": lambda args: _cmd_run(args, ("track", "fixed")),
    "sweep": _cmd_sweep,
    "fields": _cmd_fields,
    "equiv": _cmd_equiv,
    "plot": _cmd_plot,
    "verify": _cmd_verify,
}


def main(argv=None) -> int:
    args = _PARSER.parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except DomainError as e:
        print(f"infeasible: {e}", file=sys.stderr)
        return EXIT_INFEASIBLE
    except FileNotFoundError as e:
        print(f"error: file not found: {e.filename}", file=sys.stderr)
    except OSError as e:
        print(f"error: {e}", file=sys.stderr)
    except UnicodeDecodeError as e:
        print(f"error: input is not {e.encoding} text: {e.reason} at byte {e.start}",
              file=sys.stderr)
    except CohtrackError as e:
        print(f"error: {e}", file=sys.stderr)
    return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
