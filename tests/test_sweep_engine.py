"""Unit tests for the sweep engine: cache keys, storage, executor backends."""

from __future__ import annotations

import dataclasses

import pytest

from repro.hardware.knl import knl_machine
from repro.ops.characteristics import OpCharacteristics
from repro.sweep import (
    SweepCache,
    SweepExecutor,
    SweepTask,
    UncacheableValue,
    cached_call,
    content_key,
    op_sweep,
    op_sweep_totals,
)
from repro.sweep import executor as executor_module


# Module-level task functions (picklable for the process backend).
def _square(x: int) -> int:
    return x * x


def _pair(x: int, y: int) -> tuple[int, int]:
    return (y, x)


def _total_flops(chars: OpCharacteristics, scale: float) -> float:
    return chars.flops * scale


_CHARS = OpCharacteristics(
    flops=1e9,
    bytes_touched=2e8,
    working_set=5e5,
    serial_fraction=0.02,
    reuse_potential=0.7,
    parallel_grains=4096,
)


class TestContentKey:
    def test_stable_across_equal_values(self):
        a = content_key("task", _total_flops, (_CHARS, 2.0))
        b = content_key(
            "task",
            _total_flops,
            (dataclasses.replace(_CHARS), 2.0),
        )
        assert a == b

    def test_sensitive_to_arguments(self):
        base = content_key("task", _total_flops, (_CHARS, 2.0))
        assert content_key("task", _total_flops, (_CHARS, 3.0)) != base
        changed = dataclasses.replace(_CHARS, flops=2e9)
        assert content_key("task", _total_flops, (changed, 2.0)) != base

    def test_sensitive_to_machine_description(self):
        machine = knl_machine()
        base = content_key("sweep", _CHARS, machine)
        smaller = dataclasses.replace(
            machine, topology=dataclasses.replace(machine.topology, num_cores=34)
        )
        assert content_key("sweep", _CHARS, smaller) != base

    def test_sensitive_to_package_version(self, monkeypatch):
        from repro.sweep import cache as cache_module

        base = content_key("task", _square, (3,))
        monkeypatch.setattr(cache_module, "__version__", "999.0.0")
        assert content_key("task", _square, (3,)) != base

    def test_sensitive_to_function_identity(self):
        assert content_key("task", _square, (3,)) != content_key("task", _pair, (3,))

    def test_rejects_lambdas_and_unknown_objects(self):
        with pytest.raises(UncacheableValue):
            content_key("task", lambda x: x, (1,))
        with pytest.raises(UncacheableValue):
            content_key("task", _square, (object(),))

    def test_rejects_bound_methods(self):
        """A bound method's key would drop the instance state — two caches
        with different roots must not share results."""
        with pytest.raises(UncacheableValue):
            content_key("task", SweepCache("a").lookup, ("k",))


class TestSweepCache:
    def test_roundtrip(self, tmp_path):
        cache = SweepCache(tmp_path)
        key = content_key("task", _square, (4,))
        hit, _ = cache.lookup(key)
        assert not hit
        cache.store(key, {"answer": 16})
        hit, value = cache.lookup(key)
        assert hit and value == {"answer": 16}
        assert len(cache) == 1

    def test_corrupt_entry_is_a_miss(self, tmp_path):
        cache = SweepCache(tmp_path)
        key = content_key("task", _square, (5,))
        cache.store(key, 25)
        path = cache._path(key)
        path.write_bytes(b"not a pickle")
        hit, _ = cache.lookup(key)
        assert not hit
        assert cache.stats.errors == 1
        assert not path.exists()  # dropped, will be rewritten

    def test_disabled_cache_never_stores(self, tmp_path):
        cache = SweepCache(tmp_path, enabled=False)
        key = content_key("task", _square, (6,))
        cache.store(key, 36)
        assert len(cache) == 0
        assert not cache.lookup(key)[0]

    def test_clear(self, tmp_path):
        cache = SweepCache(tmp_path)
        for value in range(3):
            cache.store(content_key("task", _square, (value,)), value)
        assert len(cache) == 3
        assert cache.clear() == 3
        assert len(cache) == 0

    def test_empty_cache_is_truthy(self, tmp_path):
        assert SweepCache(tmp_path)  # `cache or fallback` must keep `cache`


class TestSweepExecutor:
    @pytest.mark.parametrize("backend", ["serial", "thread", "process"])
    def test_results_in_input_order(self, backend):
        executor = SweepExecutor(backend, jobs=4)
        args = [(i, i + 1) for i in range(20)]
        assert executor.map(_pair, args) == [(i + 1, i) for i in range(20)]

    @pytest.mark.parametrize("backend", ["thread", "process"])
    def test_parallel_matches_serial(self, backend):
        serial = SweepExecutor("serial").map(_square, [(i,) for i in range(10)])
        parallel = SweepExecutor(backend, jobs=4).map(_square, [(i,) for i in range(10)])
        assert parallel == serial

    def test_unknown_backend_rejected(self):
        with pytest.raises(ValueError):
            SweepExecutor("fibers")
        with pytest.raises(ValueError):
            SweepExecutor("serial", jobs=0)

    def test_cache_hits_skip_execution(self, tmp_path):
        first = SweepExecutor("serial", cache=SweepCache(tmp_path))
        assert first.map(_square, [(i,) for i in range(5)]) == [0, 1, 4, 9, 16]
        assert first.stats.executed == 5

        second = SweepExecutor("serial", cache=SweepCache(tmp_path))
        assert second.map(_square, [(i,) for i in range(5)]) == [0, 1, 4, 9, 16]
        assert second.stats.executed == 0
        assert second.stats.cache_hits == 5

    @pytest.mark.parametrize("backend", ["thread", "process"])
    def test_only_misses_execute(self, tmp_path, backend):
        SweepExecutor("serial", cache=SweepCache(tmp_path)).map(
            _square, [(i,) for i in range(0, 10, 2)]
        )
        with SweepExecutor(backend, jobs=2, cache=SweepCache(tmp_path)) as executor:
            assert executor.map(_square, [(i,) for i in range(10)]) == [
                i * i for i in range(10)
            ]
        assert executor.stats.cache_hits == 5
        assert executor.stats.executed == 5

    def test_uncacheable_tasks_still_run(self, tmp_path):
        executor = SweepExecutor("serial", cache=SweepCache(tmp_path))
        doubler = lambda x: 2 * x  # noqa: E731 - deliberately unhashable
        assert executor.run([SweepTask(doubler, (21,))]) == [42]
        assert executor.stats.executed == 1
        assert len(executor.cache) == 0

    def test_opt_out_via_cacheable_flag(self, tmp_path):
        executor = SweepExecutor("serial", cache=SweepCache(tmp_path))
        executor.run([SweepTask(_square, (7,), cacheable=False)])
        assert len(executor.cache) == 0

    def test_process_backend_runs_closures_locally(self, tmp_path):
        executor = SweepExecutor("process", jobs=2, cache=SweepCache(tmp_path))
        doubler = lambda x: 2 * x  # noqa: E731
        results = executor.run(
            [SweepTask(_square, (3,)), SweepTask(doubler, (3,)), SweepTask(_square, (4,))]
        )
        assert results == [9, 6, 16]
        assert executor.stats.executed_local >= 1

    def test_worker_exception_propagates(self):
        with SweepExecutor("process", jobs=2) as executor:
            with pytest.raises(ZeroDivisionError):
                executor.map(_divide, [(1, 1), (1, 0)])

    def test_pool_reused_across_batches(self):
        with SweepExecutor("process", jobs=2) as executor:
            executor.map(_square, [(i,) for i in range(4)])
            pool = executor._pool
            assert pool is not None
            executor.map(_square, [(i,) for i in range(4, 8)])
            assert executor._pool is pool
        assert executor._pool is None  # context exit shuts the pool down


def _divide(a: int, b: int) -> float:
    return a / b


class TestDefaultExecutorConfiguration:
    def test_environment_configuration(self, monkeypatch, tmp_path):
        monkeypatch.setattr(executor_module, "_default_executor", None)
        monkeypatch.setenv(executor_module.BACKEND_ENV, "thread")
        monkeypatch.setenv(executor_module.JOBS_ENV, "3")
        monkeypatch.setenv(executor_module.NO_CACHE_ENV, "1")
        executor = executor_module.get_default_executor()
        assert executor.backend == "thread"
        assert executor.jobs == 3
        assert not executor.cache.enabled

    def test_library_default_is_uncached(self, monkeypatch):
        """Without explicit opt-in the default executor must not persist
        anything — otherwise a plain pytest run could later serve stale
        results after model-code edits."""
        monkeypatch.setattr(executor_module, "_default_executor", None)
        for env in (
            executor_module.BACKEND_ENV,
            executor_module.JOBS_ENV,
            executor_module.NO_CACHE_ENV,
        ):
            monkeypatch.delenv(env, raising=False)
        monkeypatch.delenv("REPRO_SWEEP_CACHE_DIR", raising=False)
        assert not executor_module.get_default_executor().cache.enabled

    def test_cache_dir_env_opts_in(self, monkeypatch, tmp_path):
        monkeypatch.setattr(executor_module, "_default_executor", None)
        monkeypatch.delenv(executor_module.NO_CACHE_ENV, raising=False)
        monkeypatch.setenv("REPRO_SWEEP_CACHE_DIR", str(tmp_path))
        executor = executor_module.get_default_executor()
        assert executor.cache.enabled
        assert executor.cache.root == tmp_path

    def test_configure_overrides(self, monkeypatch, tmp_path):
        monkeypatch.setattr(executor_module, "_default_executor", None)
        monkeypatch.delenv(executor_module.BACKEND_ENV, raising=False)
        executor = executor_module.configure(
            backend="thread", jobs=2, cache_dir=tmp_path, cache_enabled=True
        )
        assert executor is executor_module.get_default_executor()
        assert executor.backend == "thread"
        assert executor.cache.enabled
        assert executor.cache.root == tmp_path


class TestSharedTasks:
    def test_op_sweep_matches_direct_call(self):
        machine = knl_machine()
        from repro.execsim.op_runtime import sweep_thread_counts

        assert op_sweep(_CHARS, machine) == sweep_thread_counts(_CHARS, machine)
        totals = op_sweep_totals(_CHARS, machine)
        assert totals == {
            key: b.total for key, b in sweep_thread_counts(_CHARS, machine).items()
        }

    def test_cached_call_memoises(self, tmp_path):
        machine = knl_machine()
        cache = SweepCache(tmp_path)
        first = cached_call(cache, op_sweep_totals, _CHARS, machine)
        assert cache.stats.stores == 1
        second = cached_call(cache, op_sweep_totals, _CHARS, machine)
        assert cache.stats.hits == 1
        assert first == second

    def test_cached_call_without_cache(self):
        machine = knl_machine()
        assert cached_call(None, op_sweep_totals, _CHARS, machine)


class TestAvailableCpus:
    def test_default_jobs_respect_affinity_mask(self):
        """`jobs=None` must follow the process affinity mask, not the
        whole machine (containers/CI often restrict the mask)."""
        assert SweepExecutor("serial").jobs == executor_module.available_cpus()

    def test_available_cpus_matches_sched_getaffinity(self):
        import os

        if hasattr(os, "sched_getaffinity"):
            assert executor_module.available_cpus() == len(os.sched_getaffinity(0))
        else:  # pragma: no cover - macOS/Windows
            assert executor_module.available_cpus() == (os.cpu_count() or 1)


class TestEnvironmentParsing:
    @pytest.mark.parametrize("raw", ["1", "true", "TRUE", " yes ", "On"])
    def test_no_cache_truthy_spellings(self, monkeypatch, raw):
        monkeypatch.setenv(executor_module.NO_CACHE_ENV, raw)
        assert executor_module.no_cache_requested()

    @pytest.mark.parametrize("raw", ["", "0", "false", "No", " OFF "])
    def test_no_cache_falsy_spellings(self, monkeypatch, raw):
        monkeypatch.setenv(executor_module.NO_CACHE_ENV, raw)
        assert not executor_module.no_cache_requested()

    def test_no_cache_unset_is_false(self, monkeypatch):
        monkeypatch.delenv(executor_module.NO_CACHE_ENV, raising=False)
        assert not executor_module.no_cache_requested()

    def test_no_cache_invalid_raises(self, monkeypatch):
        monkeypatch.setenv(executor_module.NO_CACHE_ENV, "maybe")
        with pytest.raises(executor_module.EnvironmentConfigError, match="NO_CACHE"):
            executor_module.no_cache_requested()

    def test_backend_env_is_normalised(self, monkeypatch):
        monkeypatch.setattr(executor_module, "_default_executor", None)
        monkeypatch.setenv(executor_module.BACKEND_ENV, " Thread ")
        monkeypatch.delenv(executor_module.JOBS_ENV, raising=False)
        monkeypatch.delenv(executor_module.NO_CACHE_ENV, raising=False)
        assert executor_module.get_default_executor().backend == "thread"

    def test_backend_env_invalid_raises(self, monkeypatch):
        monkeypatch.setattr(executor_module, "_default_executor", None)
        monkeypatch.setenv(executor_module.BACKEND_ENV, "gpu")
        with pytest.raises(executor_module.EnvironmentConfigError, match="BACKEND"):
            executor_module.get_default_executor()

    @pytest.mark.parametrize("raw", ["two", "1.5", "0", "-3"])
    def test_jobs_env_invalid_raises(self, monkeypatch, raw):
        monkeypatch.setattr(executor_module, "_default_executor", None)
        monkeypatch.delenv(executor_module.BACKEND_ENV, raising=False)
        monkeypatch.delenv(executor_module.NO_CACHE_ENV, raising=False)
        monkeypatch.setenv(executor_module.JOBS_ENV, raw)
        with pytest.raises(executor_module.EnvironmentConfigError, match="JOBS"):
            executor_module.get_default_executor()

    def test_jobs_env_valid(self, monkeypatch):
        monkeypatch.setattr(executor_module, "_default_executor", None)
        monkeypatch.delenv(executor_module.BACKEND_ENV, raising=False)
        monkeypatch.delenv(executor_module.NO_CACHE_ENV, raising=False)
        monkeypatch.setenv(executor_module.JOBS_ENV, " 5 ")
        assert executor_module.get_default_executor().jobs == 5


class TestMixedTypeMapKeys:
    """Regression: dict canonicalisation sorted by repr(key) alone, which
    interleaves mixed-type keys unstably (the repr of a str key sorts
    before or after an int key depending on the digits involved)."""

    def test_sort_groups_by_type(self):
        from repro.sweep.cache import _canonical

        # With repr-only sorting, "0" (repr `'0'`, starting with a quote)
        # sorts before 1 but "2" sorts after 1 — the int/str interleaving
        # depended on the values.  Type-grouped sorting is stable.
        low = _canonical({1: "a", "0": "b"})
        high = _canonical({1: "a", "2": "b"})
        assert [type(k).__name__ for k, _ in low[1]] == ["int", "str"]
        assert [type(k).__name__ for k, _ in high[1]] == ["int", "str"]

    def test_mixed_keys_do_not_collide(self):
        assert content_key("t", {1: "a", "1": "b"}) != content_key(
            "t", {1: "b", "1": "a"}
        )
        assert content_key("t", {True: "a"}) != content_key("t", {1: "a"})

    def test_insertion_order_is_irrelevant(self):
        first = {1: "a", "0": "b", (2,): "c"}
        second = {(2,): "c", "0": "b", 1: "a"}
        assert content_key("t", first) == content_key("t", second)
