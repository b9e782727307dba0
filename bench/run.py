"""Benchmark harness for cohtrack.

    python3 bench/run.py --workload oracle-piecewise --seed 1 --seconds 20 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 20 --trace 0
    python3 bench/run.py --self-test

Builds one workload's inputs from the seed, then runs its fixed batch of
operations in whole rounds until --seconds have passed, then checks every
output against computations made apart from cohtrack. The last line of
standard output is one JSON object with `correct`, `attempted`, `failed`
and `metrics`: the end-to-end metrics with --trace 0, the per-layer
metrics of a traced run with --trace 1. See bench/README.md.
"""

from time import perf_counter

HARNESS_START = perf_counter()

import os  # noqa: E402

# Pin the BLAS/OpenMP pools before numpy is imported; the harness is single-threaded.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT = BENCH_DIR / "out"

MIN_ROUNDS = 3            # rounds per timed phase, whatever --seconds says
SETUP_CHILDREN = 2        # extra set-ups in fresh interpreters for the setup_s median
CAL_SHARE = 0.1           # calibration time after an operation, as a share of its latency
SETUP_CAL_S = 0.3         # calibration seconds after a set-up

END_TO_END = {"setup_s": "s", "wall_s": "s", "op_p50_ms": "ms", "op_p90_ms": "ms",
              "peak_rss_mb": "MB"}


def import_program():
    """Import cohtrack from this checkout's src/, or exit 2 if it is not there."""
    if not (SRC / "cohtrack" / "__init__.py").is_file():
        print(f"error: no cohtrack package under {SRC}", file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, str(SRC))
    import cohtrack
    import cohtrack.cli  # noqa: F401  (cli is not imported by the package)
    if Path(cohtrack.__file__).resolve().parent != (SRC / "cohtrack").resolve():
        print(f"error: imported cohtrack from {cohtrack.__file__}, not {SRC}", file=sys.stderr)
        sys.exit(2)
    return cohtrack


def build(ct, name, seed, short=False, workdir=None):
    from workloads import BUILDERS
    workdir = workdir or OUT / f"work-{name}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    return BUILDERS[name](ct, seed, workdir, short)


def run_round(batch, tracer=None):
    """Run every operation once, between calibration gaps.

    Returns (wall seconds, latencies, outcomes, raw wall seconds). Each
    latency is divided by the mean slowdown of the calibration gaps just
    before and just after its operation, so it reads in reference seconds;
    a gap lasts a tenth of the operation before it (the first, one slice).
    The wall time is the sum of the latencies, the raw wall time that sum
    before the division.
    """
    from calibrate import Meter
    raw, outcomes, gaps = [], [], [Meter()]
    gaps[0].run(0.0)
    for i, op in enumerate(batch.ops):
        if tracer is not None:
            tracer.op_id = i
        t = perf_counter()
        try:
            outcome = op.run()
        except Exception as e:  # recorded and reported by `check_rounds`
            outcome = e
        raw.append(perf_counter() - t)
        outcomes.append(outcome)
        gaps.append(Meter())
        gaps[-1].run(CAL_SHARE * raw[-1])
    latencies = [x * 2 / (before.slowdown() + after.slowdown())
                 for x, before, after in zip(raw, gaps, gaps[1:])]
    return sum(latencies), latencies, outcomes, sum(raw)


def check_rounds(batch, rounds):
    """(failed, errors) over all rounds; file outputs are read after the last round.

    An operation that raised counts as failed and is passed to the check as None.
    """
    failed, errors = 0, []
    for n, (_, _, outcomes, _) in enumerate(rounds):
        raised = [(op, out) for op, out in zip(batch.ops, outcomes) if isinstance(out, Exception)]
        failed += len(raised)
        errors += [f"round {n}: {op.label}: raised {type(out).__name__}: {out}"
                   for op, out in raised if not op.known_fault]
        if batch.last_round_only and n < len(rounds) - 1:
            continue
        f, errs = batch.check([None if isinstance(out, Exception) else out
                               for out in outcomes])
        failed += f
        errors += [f"round {n}: {e}" for e in errs]
    return failed, errors


def quantile(values, q):
    """The q-th decile of `values` (statistics.quantiles, exclusive method)."""
    return statistics.quantiles(values, n=10)[q - 1]


def child_setups(name, seed):
    """Set-up seconds measured in fresh interpreters, each building the inputs anew."""
    times = []
    for _ in range(SETUP_CHILDREN):
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--setup-only",
             "--workload", name, "--seed", str(seed)],
            capture_output=True, text=True, timeout=120, cwd=ROOT)
        if proc.returncode != 0:
            raise RuntimeError(f"set-up child failed: {proc.stderr.strip()}")
        times.append(float(proc.stdout.strip().splitlines()[-1]))
    return times


def measure(ct, name, seed, seconds, trace, setup_start):
    """Set up, run the timed phase, check; returns the result for one workload."""
    from calibrate import slowdown_now
    batch = build(ct, name, seed)
    setup_in_process = perf_counter() - setup_start
    setup_in_process /= slowdown_now(SETUP_CAL_S)
    tracer = None
    if trace:
        from tracing import PER_LAYER, Tracer
        tracer = Tracer()
    rounds, layer = [], []   # layer: per-layer metrics of each traced round
    elapsed = []             # seconds each round took, calibration included
    start = perf_counter()
    # Whole rounds only; start another while it is due to end, on average, by `seconds`.
    while (len(rounds) < MIN_ROUNDS or perf_counter() - start
           + statistics.median(elapsed) / 2 < seconds):
        round_start = perf_counter()
        # The traced run alternates untraced and traced rounds, so the
        # tracing overhead is measured on the same inputs in the same process.
        if tracer is not None and len(rounds) % 2 == 1:
            tracer.reset()
            tracer.install()
            try:
                rounds.append(run_round(batch, tracer))
            finally:
                tracer.uninstall()
            slow = rounds[-1][3] / rounds[-1][0]   # in reference seconds, as wall_s
            layer.append({m: v / slow if PER_LAYER[m][0] == "s" else v
                          for m, v in tracer.layer_metrics().items()})
            if len(layer) == 1:
                first_spans = tracer.spans   # reset() starts a new list
        else:
            rounds.append(run_round(batch))
        elapsed.append(perf_counter() - round_start)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    failed, errors = check_rounds(batch, rounds)
    attempted = len(batch.ops) * len(rounds)
    walls = [r[0] for r in rounds]
    untraced = rounds if tracer is None else rounds[0::2]
    untraced_walls = [r[0] for r in untraced]
    slowdowns = [r[3] / r[0] for r in untraced]
    info = {"raw_wall_s": statistics.median(r[3] for r in untraced),
            "slowdown": statistics.median(slowdowns),
            "slowdown_min": min(slowdowns), "slowdown_max": max(slowdowns)}

    if tracer is None:
        latencies = [x for _, lat, _, _ in rounds for x in lat]
        metrics = {
            "setup_s": statistics.median([setup_in_process] + child_setups(name, seed)),
            "wall_s": statistics.median(untraced_walls),
            "op_p50_ms": 1e3 * quantile(latencies, 5),
            "op_p90_ms": 1e3 * quantile(latencies, 9),
            "peak_rss_mb": peak_rss_mb,
        }
        units = END_TO_END
    else:
        from tracing import write_spans
        # Counts repeat exactly from round to round; median_low keeps them whole.
        metrics = {m: (statistics.median_low if unit in ("count", "bytes") else statistics.median)(
                       [values[m] for values in layer]) for m, (unit, _) in PER_LAYER.items()}
        # Each traced round against the untraced round just before it, so a
        # change in machine speed between distant rounds does not enter.
        metrics["trace.overhead_s"] = statistics.median(
            walls[i] - walls[i - 1] for i in range(1, len(walls), 2))
        units = {m: unit for m, (unit, _) in PER_LAYER.items()}
        units["trace.overhead_s"] = "s"
        write_spans(first_spans, OUT / f"{name}.spans.csv")
        with open(OUT / f"{name}.trace.json", "w") as f:
            json.dump({"workload": name, "seed": seed, "rounds": len(rounds),
                       "traced_rounds": len(layer),
                       "traced_wall_s": statistics.median(walls[1::2]),
                       "untraced_wall_s": statistics.median(untraced_walls),
                       "per_layer": metrics}, f, indent=1)
    return {"name": name, "ops_per_round": len(batch.ops), "rounds": len(rounds),
            "info": info, "attempted": attempted, "failed": failed, "errors": errors,
            "metrics": {m: {"value": v, "unit": units[m]} for m, v in metrics.items()}}


def report(results):
    """Human-readable lines, then the JSON result as the last line."""
    for res in results:
        print(f"[{res['name']}] {res['rounds']} rounds of {res['ops_per_round']} ops: "
              f"attempted={res['attempted']} failed={res['failed']}")
        print("  " + " ".join(f"{k}={v:.4g}" for k, v in res["info"].items()))
        for m, v in res["metrics"].items():
            print(f"  {m} = {v['value']:.6g} {v['unit']}")
        for e in res["errors"][:20]:
            print(f"  CHECK FAILED {e}")
    if len(results) == 1:
        metrics = results[0]["metrics"]
    else:
        metrics = {f"{r['name']}.{m}": v for r in results for m, v in r["metrics"].items()}
    print(json.dumps({"correct": not any(r["errors"] for r in results),
                      "attempted": sum(r["attempted"] for r in results),
                      "failed": sum(r["failed"] for r in results),
                      "metrics": metrics}))


def self_test(ct):
    """A few operations per workload, one untraced and one traced round each."""
    from tracing import Tracer
    from workloads import WORKLOADS
    ok = True
    for name in WORKLOADS:
        batch = build(ct, name, seed=0, short=True, workdir=OUT / f"selftest-{name}")
        tracer = Tracer()
        rounds = [run_round(batch)]
        tracer.install()
        try:
            rounds.append(run_round(batch, tracer))
        finally:
            tracer.uninstall()
        failed, errors = check_rounds(batch, rounds)
        expected = 2 * sum(op.known_fault for op in batch.ops)
        layer = tracer.layer_metrics()
        good = not errors and failed == expected and any(layer.values())
        ok = ok and good
        print(f"[self-test {name}] ops={len(batch.ops)} failed={failed} (expected {expected}) "
              f"spans={len(tracer.spans)} {'PASS' if good else 'FAIL'}")
        for e in errors:
            print(f"  {e}")
    print("SELF-TEST " + ("PASS" if ok else "FAIL"))
    return 0 if ok else 1


def main(argv=None):
    from workloads import WORKLOADS
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=35.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true")
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    ct = import_program()
    if args.self_test:
        return self_test(ct)
    if args.workload is None:
        parser.error("--workload is required")
    if args.setup_only:
        workdir = OUT / f"setup-{args.workload}"
        build(ct, args.workload, args.seed, workdir=workdir)
        setup = perf_counter() - HARNESS_START
        from calibrate import slowdown_now
        print(setup / slowdown_now(SETUP_CAL_S))
        shutil.rmtree(workdir, ignore_errors=True)
        return 0
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    results, setup_start = [], HARNESS_START
    for name in names:
        results.append(measure(ct, name, args.seed, args.seconds, args.trace, setup_start))
        setup_start = perf_counter()
    report(results)
    return 0


if __name__ == "__main__":
    sys.path.insert(0, str(BENCH_DIR))
    sys.exit(main())
