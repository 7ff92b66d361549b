"""Benchmark gate: the incremental simulator fast path.

Runs the 500-op synthetic-graph scenario suite through both simulator
paths and asserts numerical equivalence and the ≥5× contention-scenario
speedup.  The test writes no file: ``BENCH_simulator.json`` is updated
only by ``make bench`` (``python -m benchmarks``).
"""

from __future__ import annotations

import pytest

from benchmarks.simulator_bench import (
    EQUIVALENCE_TOLERANCE,
    SPEEDUP_GATE,
    format_report,
    run_simulator_benchmark,
)


@pytest.fixture(scope="module")
def bench_report():
    report = run_simulator_benchmark()
    print()
    print(format_report(report))
    return report


def test_bench_step_times_equivalent(bench_report):
    """Both simulator paths must agree on every scenario's step time."""
    for name, scenario in bench_report["scenarios"].items():
        assert scenario["step_time_relative_error"] <= EQUIVALENCE_TOLERANCE, name


def test_bench_speedup_gate(bench_report):
    """The contention-heavy scenarios must clear the ≥5× speedup gate."""
    assert bench_report["headline_speedup"] >= SPEEDUP_GATE, format_report(bench_report)


def test_bench_serial_not_slower(bench_report):
    """Even the contention-free serial scenario must not regress."""
    serial = bench_report["scenarios"]["serial-recommendation"]
    assert serial["speedup"] >= 1.0, format_report(bench_report)
