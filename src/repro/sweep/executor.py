"""Work-stealing sweep executor with pluggable backends.

The experiment layer decomposes every table/figure into *tasks*: pure,
module-level functions of picklable arguments (one op signature's sweep,
one (model, interval) profile, one (model, policy) simulated step, ...).
:class:`SweepExecutor` runs a batch of such tasks

* ``serial``  — in the calling thread (the reference semantics),
* ``thread``  — on a ``ThreadPoolExecutor`` (cheap, shares memory, but
  bounded by the GIL for this pure-Python workload),
* ``process`` — on a ``ProcessPoolExecutor`` (one worker per core; the
  backend that actually scales the experiment layer),

and always returns results **in task order**, so parallel output is
bit-identical to serial output regardless of completion order.

Before dispatching, each task's result is looked up in a
:class:`~repro.sweep.cache.SweepCache` keyed on the task function and a
content hash of its arguments; hits skip execution entirely, which is
what makes repeated ``repro-experiments`` invocations (and overlapping
sweeps *across* experiments) cheap.  Tasks whose function or arguments
cannot be hashed or pickled degrade gracefully: they run locally in the
parent process, uncached.

Failures have one path: the first task (in input order) that raises
propagates out of :meth:`SweepExecutor.run`, which reaps the worker
pool on the way out.  A pool that breaks while a batch is still being
submitted is reaped too; the batch survives only when every task
already sent to it finished cleanly (see ``_run_pooled``).
"""

from __future__ import annotations

import os
from concurrent.futures import (
    BrokenExecutor,
    Future,
    ProcessPoolExecutor,
    ThreadPoolExecutor,
)
from dataclasses import dataclass
from typing import Any, Callable, Iterable, Sequence

from repro.sweep.cache import (
    CACHE_DIR_ENV,
    SweepCache,
    UncacheableValue,
    content_key,
    is_module_level_function,
)

#: Recognised backend names.
BACKENDS: tuple[str, ...] = ("serial", "thread", "process")

#: Environment overrides for the process-wide default executor.
BACKEND_ENV = "REPRO_SWEEP_BACKEND"
JOBS_ENV = "REPRO_SWEEP_JOBS"
NO_CACHE_ENV = "REPRO_SWEEP_NO_CACHE"


def available_cpus() -> int:
    """CPUs this process may actually run on.

    ``os.cpu_count()`` reports the whole machine, which oversubscribes
    the worker pool inside containers/CI and under ``taskset``; the
    scheduler affinity mask is the real budget.  Falls back to
    ``os.cpu_count()`` on platforms without ``sched_getaffinity``.
    """
    try:
        return len(os.sched_getaffinity(0)) or 1
    except (AttributeError, OSError):  # pragma: no cover - macOS/Windows
        return os.cpu_count() or 1


@dataclass(frozen=True)
class SweepTask:
    """One unit of sweep work: ``fn(*args)``.

    ``fn`` must be a module-level function for the process backend and
    for caching; anything else still runs, just locally and uncached.
    ``cacheable=False`` opts a task out of the result cache (e.g. when
    the caller knows the function reads ambient state).
    """

    fn: Callable[..., Any]
    args: tuple = ()
    cacheable: bool = True


@dataclass
class ExecutorStats:
    """Counters describing how the last/accumulated runs were serviced."""

    submitted: int = 0
    cache_hits: int = 0
    executed: int = 0
    executed_local: int = 0

    def reset(self) -> None:
        self.submitted = self.cache_hits = self.executed = self.executed_local = 0


def _args_picklable(args: tuple) -> bool:
    import pickle

    try:
        pickle.dumps(args, protocol=pickle.HIGHEST_PROTOCOL)
    except Exception:
        return False
    return True


def _call(fn: Callable, args: tuple) -> Any:
    return fn(*args)


class SweepExecutor:
    """Run batches of sweep tasks with caching and deterministic ordering."""

    def __init__(
        self,
        backend: str = "serial",
        *,
        jobs: int | None = None,
        cache: SweepCache | None = None,
    ) -> None:
        if backend not in BACKENDS:
            raise ValueError(f"unknown backend {backend!r}; expected one of {BACKENDS}")
        if jobs is not None and jobs < 1:
            raise ValueError("jobs must be at least 1")
        self.backend = backend
        self.jobs = jobs or available_cpus()
        self.cache = cache if cache is not None else SweepCache(enabled=False)
        self.stats = ExecutorStats()
        self._pool: ThreadPoolExecutor | ProcessPoolExecutor | None = None

    # -- public API ----------------------------------------------------------------

    def map(
        self,
        fn: Callable[..., Any],
        arg_tuples: Iterable[tuple],
        *,
        cacheable: bool = True,
    ) -> list:
        """Apply ``fn`` to every argument tuple; results in input order."""
        return self.run([SweepTask(fn, tuple(args), cacheable=cacheable) for args in arg_tuples])

    def run(self, tasks: Sequence[SweepTask]) -> list:
        """Execute ``tasks``, consulting the cache first.

        The returned list is ordered like ``tasks`` for every backend,
        so downstream assembly is deterministic.
        """
        results: list[Any] = [None] * len(tasks)
        self.stats.submitted += len(tasks)

        keys: list[str | None] = []
        misses: list[int] = []
        for index, task in enumerate(tasks):
            key = self._key_for(task)
            keys.append(key)
            if key is not None:
                hit, value = self.cache.lookup(key)
                if hit:
                    results[index] = value
                    self.stats.cache_hits += 1
                    continue
            misses.append(index)

        if misses:
            try:
                self._execute(tasks, misses, results)
                for index in misses:
                    key = keys[index]
                    if key is not None:
                        self.cache.store(key, results[index])
            except BaseException:
                # Any exit path through run() must reap the pool: a task
                # (or the result merge) raising used to leak the worker
                # children until interpreter exit.
                self.close(force=True)
                raise
        return results

    # -- internals -----------------------------------------------------------------

    def _key_for(self, task: SweepTask) -> str | None:
        if not task.cacheable or not self.cache.enabled:
            return None
        if not is_module_level_function(task.fn):
            return None
        try:
            return content_key("task", task.fn, task.args)
        except UncacheableValue:
            return None

    def _execute(
        self,
        tasks: Sequence[SweepTask],
        misses: list[int],
        results: list,
    ) -> None:
        if self.backend == "serial" or self.jobs == 1 or len(misses) == 1:
            self._run_local(tasks, misses, results)
            return

        if self.backend == "thread":
            pooled, local = list(misses), []
        else:
            # The process backend can only ship module-level functions
            # (pickle-by-reference) with picklable arguments; everything
            # else runs in the parent.
            pooled, local = [], []
            for i in misses:
                if is_module_level_function(tasks[i].fn) and _args_picklable(tasks[i].args):
                    pooled.append(i)
                else:
                    local.append(i)

        if pooled:
            self._run_pooled(tasks, pooled, results)
        if local:
            self._run_local(tasks, local, results)

    def _run_local(
        self, tasks: Sequence[SweepTask], indices: Sequence[int], results: list
    ) -> None:
        for index in indices:
            task = tasks[index]
            results[index] = _call(task.fn, task.args)
            self.stats.executed += 1
            self.stats.executed_local += 1

    def _run_pooled(
        self, tasks: Sequence[SweepTask], pooled: list[int], results: list
    ) -> None:
        """Submit every task, then collect results in submission order.

        A pool whose ``submit`` raises ``BrokenExecutor`` lost a worker
        of the batch being submitted.  It is reaped at once.  When every
        task already sent to it finished cleanly, those keep their
        results and the unsent tasks go to a fresh pool; otherwise their
        results are lost with the pool and the run fails.
        """
        while pooled:
            pool = self._get_pool()
            submitted: list[tuple[int, Future]] = []
            unsent: list[int] = []
            for position, i in enumerate(pooled):
                try:
                    future = pool.submit(_call, tasks[i].fn, tasks[i].args)
                except BrokenExecutor:
                    self.close(force=True)
                    unsent = pooled[position:]
                    break
                submitted.append((i, future))
            if unsent and not all(
                future.done() and not future.cancelled() and future.exception() is None
                for _, future in submitted
            ):
                raise RuntimeError("worker pool died mid-batch")
            for i, future in submitted:
                results[i] = future.result()
                self.stats.executed += 1
            pooled = unsent

    def _get_pool(self):
        """The lazily-created worker pool, reused across run() batches.

        One experiment invocation issues many small batches; re-forking a
        process pool per batch would put the spawn cost right back on the
        hot path this executor exists to remove.
        """
        if self._pool is None:
            if self.backend == "thread":
                self._pool = ThreadPoolExecutor(max_workers=self.jobs)
            else:
                import multiprocessing as mp

                # fork reuses the parent's warm interpreter (imports, lru
                # caches); spawn would re-import repro in every worker.
                if "fork" in mp.get_all_start_methods():
                    context = mp.get_context("fork")
                else:  # pragma: no cover - Windows/macOS default
                    context = mp.get_context()
                self._pool = ProcessPoolExecutor(max_workers=self.jobs, mp_context=context)
        return self._pool

    def close(self, *, force: bool = False) -> None:
        """Shut the worker pool down (idempotent; the next run() revives it).

        ``force=True`` is the failure path: cancel queued work, don't
        wait for stragglers, and explicitly terminate + reap any process
        children so a stuck worker cannot outlive the pool object.
        """
        pool, self._pool = self._pool, None
        if pool is None:
            return
        if not force:
            pool.shutdown()
            return
        pool.shutdown(wait=False, cancel_futures=True)
        processes = getattr(pool, "_processes", None)
        if processes:
            for proc in list(processes.values()):
                try:
                    proc.terminate()
                except Exception:  # pragma: no cover - already-dead child
                    pass
            for proc in list(processes.values()):
                try:
                    proc.join(timeout=5)
                except Exception:  # pragma: no cover - already-reaped child
                    pass

    def __enter__(self) -> "SweepExecutor":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


# -- process-wide default executor -------------------------------------------------

_default_executor: SweepExecutor | None = None


#: Spellings accepted by boolean environment switches.
_TRUTHY = frozenset({"1", "true", "yes", "on"})
_FALSY = frozenset({"", "0", "false", "no", "off"})


class EnvironmentConfigError(ValueError):
    """A ``REPRO_*`` environment variable holds an invalid value."""


def parse_bool_env(name: str, *, default: bool = False) -> bool:
    """Strictly parse the boolean environment switch ``name``.

    Values are normalised (``TRUE``, `` yes ``, ``On`` all count), an
    unset variable yields ``default``, and an unrecognised value raises
    :class:`EnvironmentConfigError` instead of silently picking a side.
    Shared by every ``REPRO_*`` on/off switch so they all accept the
    same spellings.
    """
    raw = os.environ.get(name)
    if raw is None:
        return default
    value = raw.strip().lower()
    if value in _TRUTHY:
        return True
    if value in _FALSY:
        return False
    raise EnvironmentConfigError(
        f"${name}={raw!r} is not a boolean; "
        f"use one of {sorted(_TRUTHY)} or {sorted(_FALSY - {''})}"
    )


def no_cache_requested() -> bool:
    """True when ``$REPRO_SWEEP_NO_CACHE`` asks to skip the result cache."""
    return parse_bool_env(NO_CACHE_ENV)


def _from_environment() -> SweepExecutor:
    backend = os.environ.get(BACKEND_ENV, "serial").strip().lower() or "serial"
    if backend not in BACKENDS:
        raise EnvironmentConfigError(
            f"${BACKEND_ENV}={os.environ[BACKEND_ENV]!r} is not a backend; "
            f"expected one of {BACKENDS}"
        )
    jobs_raw = os.environ.get(JOBS_ENV)
    jobs = None
    if jobs_raw and jobs_raw.strip():
        try:
            jobs = int(jobs_raw.strip())
        except ValueError:
            raise EnvironmentConfigError(
                f"${JOBS_ENV}={jobs_raw!r} is not an integer"
            ) from None
        if jobs < 1:
            raise EnvironmentConfigError(f"${JOBS_ENV}={jobs_raw!r} must be >= 1")
    # The library default is cache-OFF: persistent state must be opted
    # into, either by exporting $REPRO_SWEEP_CACHE_DIR, via configure(),
    # or through the CLI (which defaults to caching under .sweep_cache).
    # Otherwise a plain `pytest` run would leave pickles behind and could
    # serve stale results after model-code edits.
    cache_dir = os.environ.get(CACHE_DIR_ENV)
    enabled = cache_dir is not None and not no_cache_requested()
    return SweepExecutor(backend, jobs=jobs, cache=SweepCache(cache_dir, enabled=enabled))


def get_default_executor() -> SweepExecutor:
    """The executor used when an API accepts ``executor=None``.

    Constructed lazily from the environment (``REPRO_SWEEP_BACKEND``,
    ``REPRO_SWEEP_JOBS``, ``REPRO_SWEEP_NO_CACHE``,
    ``REPRO_SWEEP_CACHE_DIR``) unless :func:`configure` installed one.
    """
    global _default_executor
    if _default_executor is None:
        _default_executor = _from_environment()
    return _default_executor


def configure(
    *,
    backend: str | None = None,
    jobs: int | None = None,
    cache_dir: str | os.PathLike | None = None,
    cache_enabled: bool | None = None,
) -> SweepExecutor:
    """Install (and return) the process-wide default executor."""
    current = get_default_executor()
    cache = current.cache
    if cache_dir is not None or cache_enabled is not None:
        cache = SweepCache(
            cache_dir if cache_dir is not None else current.cache.root,
            enabled=cache_enabled if cache_enabled is not None else current.cache.enabled,
        )
    executor = SweepExecutor(
        backend if backend is not None else current.backend,
        jobs=jobs if jobs is not None else current.jobs,
        cache=cache,
    )
    global _default_executor
    _default_executor = executor
    return executor
