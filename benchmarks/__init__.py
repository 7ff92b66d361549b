"""Benchmark harness for the simulated substrate.

``pytest benchmarks/ --benchmark-only`` reproduces the paper's tables
and figures; ``python -m benchmarks`` runs the quick simulator
performance tier and gates its equivalence and speedups.  No benchmark
writes a tracked file; ``perfbench/`` is the timing harness of record.
"""
