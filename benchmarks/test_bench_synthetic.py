"""Benchmark check: the incremental simulator fast path.

Runs the 500-op synthetic-graph scenario suite through both simulator
paths once and asserts numerical equivalence (step times are
deterministic, so one repeat checks as much as three).  The wall-clock
speedup gates (≥5× on the contention scenarios, serial not slower)
flake on a loaded host, so they run only in ``make bench``
(``python -m benchmarks``), with three repeats.
"""

from __future__ import annotations

import pytest

from benchmarks.simulator_bench import (
    EQUIVALENCE_TOLERANCE,
    format_report,
    run_simulator_benchmark,
)


@pytest.fixture(scope="module")
def bench_report():
    report = run_simulator_benchmark(repeats=1)
    print()
    print(format_report(report))
    return report


def test_bench_step_times_equivalent(bench_report):
    """Both simulator paths must agree on every scenario's step time."""
    for name, scenario in bench_report["scenarios"].items():
        assert scenario["step_time_relative_error"] <= EQUIVALENCE_TOLERANCE, name
