"""Failure-path gates for the sweep executor, plus cache rot: a task
that raises propagates and the worker pool is reaped; a pool that dies
mid-submission either hands its unsent tasks to a fresh pool (exact,
input-ordered results) or fails the run; rotted cache entries are
re-misses, never poison."""

from concurrent.futures import Future
from concurrent.futures.process import BrokenProcessPool

import pytest
from cache_rot import corrupt_cache_entries

from repro.sweep import SweepCache, SweepExecutor
from repro.sweep.executor import SweepTask

TASKS = 24


def probe(i):
    """Deterministic worker payload (module-level: process-picklable)."""
    return (i, i * i % 97)


def fail(i):
    """A task that always raises (module-level: process-picklable)."""
    raise ValueError(f"task {i} failed")


def expected():
    return [probe(i) for i in range(TASKS)]


class InlinePool:
    """Stand-in worker pool that runs each task as it is submitted.

    Its ``break_at``-th submit raises ``BrokenProcessPool`` instead, as a
    process pool does once a worker of the batch being submitted has
    already died.  With ``finish=False`` the futures it hands out stay
    pending, like tasks still running on the dying pool, until a
    ``cancel_futures`` shutdown cancels them.
    """

    def __init__(self, break_at=None, finish=True):
        self.break_at = break_at
        self.finish = finish
        self.submits = 0
        self.pending = []

    def submit(self, fn, *args):
        self.submits += 1
        if self.submits == self.break_at:
            raise BrokenProcessPool("a worker died before the batch was submitted")
        future = Future()
        if not self.finish:
            self.pending.append(future)
            return future
        try:
            future.set_result(fn(*args))
        except Exception as exc:
            future.set_exception(exc)
        return future

    def shutdown(self, wait=True, *, cancel_futures=False):
        if cancel_futures:
            for future in self.pending:
                future.cancel()


def use_pools(monkeypatch, executor, pools):
    """Make ``executor`` take each fresh pool from ``pools`` in turn."""

    def get_pool():
        if executor._pool is None:
            executor._pool = pools.pop(0)
        return executor._pool

    monkeypatch.setattr(executor, "_get_pool", get_pool)


class TestSweepChaos:
    def test_pool_death_during_submission_resubmits_the_rest(self, monkeypatch):
        executor = SweepExecutor(backend="process", jobs=2)
        pools = [InlinePool(break_at=2), InlinePool()]
        use_pools(monkeypatch, executor, pools)
        try:
            results = executor.run([SweepTask(probe, (i,)) for i in range(TASKS)])
        finally:
            executor.close(force=True)
        # The pool died on the second submit: the first task's result
        # is kept, and the unsent tasks run on the next pool.
        assert results == expected()
        assert executor.stats.executed == TASKS
        assert not pools

    @pytest.mark.parametrize("outcome", ["unfinished", "raised"])
    def test_pool_death_with_unclean_tasks_fails_the_run(self, monkeypatch, outcome):
        executor = SweepExecutor(backend="process", jobs=2)
        pools = [InlinePool(break_at=2, finish=outcome == "raised"), InlinePool()]
        use_pools(monkeypatch, executor, pools)
        task = fail if outcome == "raised" else probe
        # The task sent before the pool died did not finish cleanly, so
        # its result went down with the pool: the run fails instead of
        # resubmitting, and the dead pool is reaped.
        with pytest.raises(RuntimeError, match="worker pool died mid-batch"):
            executor.run([SweepTask(task, (i,)) for i in range(4)])
        assert executor._pool is None
        assert len(pools) == 1

    @pytest.mark.parametrize("backend", ["serial", "thread", "process"])
    def test_crash_during_run_still_reaps_pool(self, backend):
        executor = SweepExecutor(backend=backend, jobs=2)
        tasks = [SweepTask(fail if i in (1, 2) else probe, (i,)) for i in range(4)]
        # The first failing task, in input order, propagates — and the
        # worker pool is reaped on the way out, not abandoned until
        # interpreter exit.
        with pytest.raises(ValueError, match="task 1 failed"):
            executor.run(tasks)
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
