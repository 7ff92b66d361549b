"""Chaos-harness gates: injected crashes, hangs, poison tasks and cache
rot must be *repaired* by the executor's fault tolerance — exact results,
deterministic order, nonzero recovery counters — never just survived."""

from concurrent.futures import Future
from concurrent.futures.process import BrokenProcessPool

import pytest

from repro.resilience import (
    ChaosPlan,
    ChaosWorkerCrash,
    RetryPolicy,
    SweepTaskFailure,
    chaos_call,
    corrupt_cache_entries,
)
from repro.sweep import SweepCache, SweepExecutor
from repro.sweep.executor import SweepTask

TASKS = 24


def probe(i):
    """Deterministic worker payload (module-level: process-picklable)."""
    return (i, i * i % 97)


def expected():
    return [probe(i) for i in range(TASKS)]


class InlinePool:
    """Stand-in worker pool that runs each task as it is submitted.

    Its ``break_at``-th submit raises ``BrokenProcessPool`` instead, as a
    process pool does once a worker of the batch being submitted has
    already died.
    """

    def __init__(self, break_at=None):
        self.break_at = break_at
        self.submits = 0

    def submit(self, fn, *args):
        self.submits += 1
        if self.submits == self.break_at:
            raise BrokenProcessPool("a worker died before the batch was submitted")
        future = Future()
        future.set_result(fn(*args))
        return future

    def shutdown(self, wait=True, *, cancel_futures=False):
        pass


class TestChaosPlan:
    def test_validation(self):
        with pytest.raises(ValueError):
            ChaosPlan(crash_rate=1.5)
        with pytest.raises(ValueError):
            ChaosPlan(hang_rate=-0.1)
        with pytest.raises(ValueError):
            ChaosPlan(hang_seconds=-1)
        with pytest.raises(ValueError):
            ChaosPlan(fail_attempts=-1)

    def test_bool_means_any_injection(self):
        assert not ChaosPlan()
        assert ChaosPlan(crash_rate=0.1)
        assert ChaosPlan(hang_rate=0.1)
        assert ChaosPlan(interrupt_after=10)

    def test_directives_are_deterministic_and_budgeted(self):
        plan = ChaosPlan(seed=3, crash_rate=0.5, fail_attempts=2)
        first = [plan.directive(n, 1) for n in range(50)]
        assert first == [plan.directive(n, 1) for n in range(50)]
        assert any(d == ("crash",) for d in first)
        # Beyond the fail budget every execution runs clean.
        assert all(plan.directive(n, 3) is None for n in range(50))

    def test_chaos_call_crash_without_process(self):
        with pytest.raises(ChaosWorkerCrash):
            chaos_call(probe, (1,), ("crash",), False)


class TestSweepChaos:
    def run_sweep(self, executor):
        try:
            return executor.run([SweepTask(probe, (i,)) for i in range(TASKS)])
        finally:
            executor.close(force=True)

    def test_retries_repair_injected_crashes(self):
        executor = SweepExecutor(
            backend="thread",
            jobs=4,
            retry=RetryPolicy(max_attempts=5, backoff=0.001, max_backoff=0.004),
            chaos=ChaosPlan(seed=7, crash_rate=0.4, fail_attempts=2),
        )
        assert self.run_sweep(executor) == expected()
        assert executor.stats.retries > 0

    def test_hang_detection_times_out_and_recovers(self):
        executor = SweepExecutor(
            backend="thread",
            jobs=4,
            retry=RetryPolicy(
                max_attempts=4,
                timeout=0.05,
                heartbeat=0.01,
                backoff=0.001,
                max_backoff=0.004,
            ),
            chaos=ChaosPlan(seed=7, hang_rate=0.2, hang_seconds=0.3, fail_attempts=1),
        )
        assert self.run_sweep(executor) == expected()
        assert executor.stats.timeouts > 0
        assert executor.stats.pool_restarts > 0

    def test_poison_tasks_quarantine_survivors_exact(self):
        executor = SweepExecutor(
            backend="thread",
            jobs=4,
            retry=RetryPolicy(
                max_attempts=2, backoff=0.001, quarantine=True, degrade=False
            ),
            chaos=ChaosPlan(seed=7, crash_rate=0.3, fail_attempts=10**6),
        )
        results = self.run_sweep(executor)
        want = expected()
        assert len(results) == TASKS
        failures = [r for r in results if isinstance(r, SweepTaskFailure)]
        assert failures and executor.stats.quarantined == len(failures)
        for i, got in enumerate(results):
            if isinstance(got, SweepTaskFailure):
                assert got.index == i  # input-ordered slots survive chaos
                assert not got  # falsy sentinel, never a silent value
            else:
                assert got == want[i]

    def test_persistent_pool_failures_degrade_backend(self):
        executor = SweepExecutor(
            backend="process",
            jobs=2,
            retry=RetryPolicy(max_attempts=4, backoff=0.001, max_backoff=0.004),
            chaos=ChaosPlan(seed=7, crash_rate=1.0, fail_attempts=10**6),
        )
        try:
            results = executor.run([SweepTask(probe, (i,)) for i in range(4)])
        finally:
            executor.close(force=True)
        # Every pool round died, the backend stepped down, and the local
        # degrade execution (no chaos there) still produced every value.
        assert results == [probe(i) for i in range(4)]
        assert executor.degraded_from == "process"
        assert executor.backend in ("thread", "serial")
        assert executor.stats.pool_restarts >= 2
        assert executor.stats.degraded > 0

    def test_pool_death_during_submission_resubmits_the_rest(self, monkeypatch):
        executor = SweepExecutor(
            backend="process",
            jobs=2,
            retry=RetryPolicy(max_attempts=2, backoff=0.001, max_backoff=0.004),
        )
        pools = [InlinePool(break_at=2), InlinePool()]

        def get_pool():
            if executor._pool is None:
                executor._pool = pools.pop(0)
            return executor._pool

        monkeypatch.setattr(executor, "_get_pool", get_pool)
        results = self.run_sweep(executor)
        # The pool died on the second submit: the first task's result
        # is kept, and the unsent tasks run on the next pool uncharged.
        assert results == expected()
        assert executor.stats.pool_restarts >= 1
        assert executor.stats.retries == 0
        assert not pools

    def test_crash_during_run_still_reaps_pool(self):
        executor = SweepExecutor(
            backend="thread",
            jobs=2,
            chaos=ChaosPlan(seed=7, crash_rate=1.0, fail_attempts=10**6),
        )
        # Seed semantics (no retry policy): first failure propagates —
        # but the worker pool must be reaped on the way out (the leak
        # this release fixed), not abandoned until interpreter exit.
        with pytest.raises(ChaosWorkerCrash):
            executor.run([SweepTask(probe, (i,)) for i in range(4)])
        assert executor._pool is None


class TestCacheChaos:
    def test_corrupted_entries_are_remisses_not_poison(self, tmp_path):
        cache = SweepCache(tmp_path, enabled=True)
        executor = SweepExecutor(backend="serial", cache=cache)
        tasks = [SweepTask(probe, (i,)) for i in range(TASKS)]
        assert executor.run(tasks) == expected()
        corrupted = corrupt_cache_entries(tmp_path, seed=7, fraction=0.5)
        assert corrupted  # the plan must actually rot something
        assert executor.run(tasks) == expected()
        # The rotted entries were rewritten: a third pass is all hits.
        cache.stats.reset()
        assert executor.run(tasks) == expected()
        assert cache.stats.misses == 0

    def test_corrupt_fraction_validation(self, tmp_path):
        with pytest.raises(ValueError):
            corrupt_cache_entries(tmp_path, fraction=1.5)
