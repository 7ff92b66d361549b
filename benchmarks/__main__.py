"""Run the quick benchmark tiers: ``python -m benchmarks``.

``--suite simulator`` (the default) runs the simulator fast-path
benchmark; ``--suite experiments`` runs the experiment-layer
sweep-engine benchmark; ``--suite fleet`` runs the fleet-scheduling
smoke benchmark; ``--suite all`` runs every tier.  Each prints its
report and writes no file.  Exits non-zero when any equivalence,
determinism, speedup or wall-time gate fails, so each tier can serve as
a CI step.
"""

from __future__ import annotations

import argparse
import sys

from benchmarks.experiments_bench import main as experiments_main
from benchmarks.fleet_bench import main as fleet_main
from benchmarks.simulator_bench import (
    BENCH_MACHINE,
    BENCH_NUM_OPS,
    BENCH_SEED,
    EQUIVALENCE_TOLERANCE,
    SPEEDUP_GATE,
    format_report,
    run_simulator_benchmark,
)


def _simulator_main(args: argparse.Namespace, parser: argparse.ArgumentParser) -> int:
    try:
        report = run_simulator_benchmark(
            args.ops, seed=args.seed, repeats=args.repeats, machine=args.machine
        )
    except KeyError as exc:  # unknown --machine; str(KeyError) adds repr quotes
        parser.error(exc.args[0])
    except ValueError as exc:
        parser.error(str(exc))
    print(format_report(report))

    failures = []
    for name, scenario in report["scenarios"].items():
        if scenario["step_time_relative_error"] > EQUIVALENCE_TOLERANCE:
            failures.append(f"{name}: step_time diverged from the reference path")
    # The speedup gates were calibrated on the canonical KNL workload; on
    # other zoo machines the equivalence check is what matters.
    if args.machine == BENCH_MACHINE:
        if report["headline_speedup"] < SPEEDUP_GATE:
            failures.append(
                f"headline speedup {report['headline_speedup']}x below the "
                f"{SPEEDUP_GATE}x gate"
            )
        serial = report["scenarios"]["serial-recommendation"]["speedup"]
        if serial < 1.0:
            failures.append(
                f"serial-recommendation speedup {serial}x: the fast path is "
                "slower than the reference"
            )

    for failure in failures:
        print(f"FAIL: {failure}", file=sys.stderr)
    return 1 if failures else 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m benchmarks",
        description="Quick perf tiers (print each report and gate it)",
    )
    parser.add_argument(
        "--suite",
        choices=("simulator", "experiments", "fleet", "all"),
        default="simulator",
        help="which quick tier to run",
    )
    parser.add_argument("--ops", type=int, default=BENCH_NUM_OPS)
    parser.add_argument("--seed", type=int, default=BENCH_SEED)
    parser.add_argument("--repeats", type=int, default=3)
    parser.add_argument(
        "--machine",
        default=BENCH_MACHINE,
        metavar="NAME",
        help="machine-zoo topology to simulate on (default: the KNL "
        "baseline; the speedup gates apply to it alone)",
    )
    parser.add_argument("--jobs", type=int, default=None, help="experiment-suite worker count")
    args = parser.parse_args(argv)
    if args.repeats < 1:
        parser.error("--repeats must be at least 1")
    if args.jobs is not None and args.jobs < 1:
        parser.error("--jobs must be at least 1")

    # Surface flags that the selected suite will never read.
    if args.suite in ("experiments", "fleet"):
        ignored = [
            flag
            for flag, changed in (
                ("--ops", args.ops != BENCH_NUM_OPS),
                ("--seed", args.seed != BENCH_SEED),
                ("--repeats", args.repeats != 3),
                ("--machine", args.machine != BENCH_MACHINE),
            )
            if changed
        ]
        if ignored:
            parser.error(f"{', '.join(ignored)} only apply to --suite simulator/all")
    if args.suite == "all" and args.machine != BENCH_MACHINE:
        # The other tiers have no machine knob yet; refusing beats
        # silently measuring the tiers on different topologies.
        parser.error("--machine only applies to --suite simulator")
    if args.suite == "simulator" and args.jobs is not None:
        parser.error("--jobs only applies to --suite experiments/fleet/all")

    passthrough_args = []
    if args.jobs is not None:
        passthrough_args += ["--jobs", str(args.jobs)]

    status = 0
    if args.suite in ("simulator", "all"):
        status = max(status, _simulator_main(args, parser))
    if args.suite in ("experiments", "all"):
        status = max(status, experiments_main(passthrough_args))
    if args.suite in ("fleet", "all"):
        status = max(status, fleet_main(passthrough_args))
    return status


if __name__ == "__main__":
    raise SystemExit(main())
