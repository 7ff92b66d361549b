"""The experiment-layer perf harness: parallel sweep engine + result cache.

PR 1 made a single simulated step cheap; the wall-clock cost of
reproducing the paper's tables then moved to the experiment layer, which
re-ran identical sweeps across experiments and across invocations.  This
harness measures that layer end to end, in three phases over the default
benchmark experiment set (reduced model graphs):

1. ``serial-cold``   — serial backend, cache disabled: the baseline an
   unparallelised, uncached experiment layer pays on every invocation.
2. ``process-cold``  — process backend, fresh cache: first invocation
   cost with the sweep engine (fan-out plus cache population).
3. ``process-warm``  — process backend, warm cache: every following
   invocation (warm characterisation; this is what iterating on the
   experiment layer actually feels like).

Two gates are enforced:

* **equality** — all three phases must produce byte-identical reports
  (the sweep engine's deterministic ordering makes parallel output
  bit-identical to serial);
* **speedup** — serial-cold / process-warm wall clock ≥ 3×.

``python -m benchmarks --suite experiments`` prints the report and gates
it; it writes no file.
"""

from __future__ import annotations

import os
import tempfile
import time

from repro.experiments.cli import _run_one
from repro.sweep import SweepCache, SweepExecutor

#: Required end-to-end speedup of a warm-cache process-backend run over
#: the serial, uncached baseline (the hard acceptance gate).
SPEEDUP_GATE = 3.0

#: The experiments the harness replays (reduced graphs).  Chosen to span
#: the layer's workload families: standalone sweeps (fig1, table2),
#: co-run simulation (table3), policy grids (table1), hill-climbing
#: profiling + ground truth (table5) and the full strategy ladder (fig3).
BENCH_EXPERIMENTS: tuple[str, ...] = ("fig1", "table2", "table3", "table1", "table5", "fig3")


def _run_phase(
    names: tuple[str, ...], executor: SweepExecutor
) -> tuple[float, dict[str, str]]:
    """Run every experiment through ``executor``; (seconds, name->report)."""
    reports: dict[str, str] = {}
    start = time.perf_counter()
    try:
        for name in names:
            reports[name] = _run_one(name, reduced=True, executor=executor)
        return time.perf_counter() - start, reports
    finally:
        executor.close()


def run_experiments_benchmark(
    names: tuple[str, ...] = BENCH_EXPERIMENTS,
    *,
    jobs: int | None = None,
) -> dict:
    """Run the three phases and return the benchmark report."""
    jobs = jobs or os.cpu_count() or 1
    with tempfile.TemporaryDirectory(prefix="repro-bench-cache-") as cache_dir:
        serial = SweepExecutor("serial", cache=SweepCache(enabled=False))
        serial_seconds, serial_reports = _run_phase(names, serial)

        cold = SweepExecutor("process", jobs=jobs, cache=SweepCache(cache_dir))
        cold_seconds, cold_reports = _run_phase(names, cold)

        warm = SweepExecutor("process", jobs=jobs, cache=SweepCache(cache_dir))
        warm_seconds, warm_reports = _run_phase(names, warm)

    mismatched = sorted(
        name
        for name in names
        if not (serial_reports[name] == cold_reports[name] == warm_reports[name])
    )
    return {
        "benchmark": "experiments-sweep-engine",
        "workload": {
            "experiments": list(names),
            "reduced": True,
            "jobs": jobs,
            "cpu_count": os.cpu_count(),
        },
        "speedup_gate": SPEEDUP_GATE,
        "phases": {
            "serial-cold": {"seconds": round(serial_seconds, 4)},
            "process-cold": {
                "seconds": round(cold_seconds, 4),
                "speedup": round(serial_seconds / cold_seconds, 2),
                "tasks_executed": cold.stats.executed,
                "cache_hits": cold.stats.cache_hits,
            },
            "process-warm": {
                "seconds": round(warm_seconds, 4),
                "speedup": round(serial_seconds / warm_seconds, 2),
                "tasks_executed": warm.stats.executed,
                "cache_hits": warm.stats.cache_hits,
            },
        },
        "headline_speedup": round(serial_seconds / warm_seconds, 2),
        "reports_identical": not mismatched,
        "mismatched_experiments": mismatched,
    }


def format_report(report: dict) -> str:
    phases = report["phases"]
    lines = [
        "experiments sweep-engine benchmark — "
        f"{', '.join(report['workload']['experiments'])} "
        f"(reduced graphs, {report['workload']['jobs']} jobs)",
        f"{'phase':<16} {'seconds':>9} {'speedup':>9} {'executed':>9} {'hits':>6}",
    ]
    for name, phase in phases.items():
        lines.append(
            f"{name:<16} {phase['seconds']:>8.2f}s "
            f"{phase.get('speedup', 1.0):>8.2f}x "
            f"{phase.get('tasks_executed', '-'):>9} "
            f"{phase.get('cache_hits', '-'):>6}"
        )
    lines.append(
        f"headline speedup: {report['headline_speedup']}x "
        f"(gate: ≥{report['speedup_gate']}x); reports identical: "
        f"{report['reports_identical']}"
    )
    return "\n".join(lines)


def check_gates(report: dict) -> list[str]:
    """The failed-gate messages of one benchmark report (empty = pass)."""
    failures = []
    if not report["reports_identical"]:
        failures.append(
            "parallel/cached reports diverged from the serial baseline: "
            + ", ".join(report["mismatched_experiments"])
        )
    if report["headline_speedup"] < report["speedup_gate"]:
        failures.append(
            f"headline speedup {report['headline_speedup']}x below the "
            f"{report['speedup_gate']}x gate"
        )
    return failures


def main(argv: list[str] | None = None) -> int:
    import argparse
    import sys

    parser = argparse.ArgumentParser(
        prog="python -m benchmarks.experiments_bench",
        description="Quick experiment-layer perf tier (prints the report and gates)",
    )
    parser.add_argument("--jobs", type=int, default=None)
    args = parser.parse_args(argv)
    if args.jobs is not None and args.jobs < 1:
        parser.error("--jobs must be at least 1")

    report = run_experiments_benchmark(jobs=args.jobs)
    print(format_report(report))

    failures = check_gates(report)
    for failure in failures:
        print(f"FAIL: {failure}", file=sys.stderr)
    return 1 if failures else 0


if __name__ == "__main__":
    raise SystemExit(main())
