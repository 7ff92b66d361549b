"""Analytic execution-time model for a single operation.

The model combines the classic ingredients of manycore kernel
performance:

* an Amdahl serial fraction,
* parallel compute time bounded by the cores' sustained FLOP rate,
* memory time bounded by achievable bandwidth after L2 reuse (roofline),
* a per-thread parallelisation overhead (thread spawn, private buffer
  setup and reduction) that grows linearly with the thread count.

The last term is what creates the *interior optimum* of the
time-vs-threads curve: the optimal thread count grows roughly as
``sqrt(parallel_work / per_thread_overhead)``, so large operations want
the whole chip while small or reduction-heavy operations prefer a few
tens of threads — the central empirical observation of the paper
(Fig. 1, Table II).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable

import numpy as np

from repro.hardware.affinity import AffinityMode, ThreadPlacement
from repro.hardware.topology import Machine
from repro.ops.characteristics import OpCharacteristics


@dataclass(frozen=True)
class OpTimeBreakdown:
    """Execution time of one operation run, with its components.

    ``total`` is what the runtime observes; the components are useful for
    analysis and for the contention model (which needs to know how
    memory-bound the run was).
    """

    threads: int
    affinity: AffinityMode
    compute_time: float
    memory_time: float
    overhead_time: float
    bytes_from_memory: float
    total: float

    @property
    def memory_bound_fraction(self) -> float:
        """Fraction of the core time that is memory-bound."""
        busy = self.compute_time + self.memory_time
        if busy <= 0:
            return 0.0
        return self.memory_time / busy

    @property
    def bandwidth_demand(self) -> float:
        """Average bytes/second pulled from memory over the run."""
        if self.total <= 0:
            return 0.0
        return self.bytes_from_memory / self.total


def execution_time(
    chars: OpCharacteristics,
    machine: Machine,
    threads: int,
    affinity: AffinityMode = AffinityMode.SHARED,
    *,
    reconfigured: bool = False,
) -> OpTimeBreakdown:
    """Time to execute an operation with ``threads`` threads.

    Parameters
    ----------
    chars:
        The operation's cost characteristics.
    machine:
        The machine model.
    threads:
        Number of threads used for the operation.  May exceed the number
        of physical cores (oversubscription, e.g. TensorFlow's default of
        one thread per logical CPU); the extra threads only add overhead
        here — the sharing slowdown is applied by the simulator, which
        knows the actual placement.
    affinity:
        Tile placement of the threads (cache sharing or not).
    reconfigured:
        True when the operation runs with a different thread count than
        its previous execution; adds the thread-pool reconfiguration
        penalty that Strategy 2 is designed to avoid.
    """
    if threads < 1:
        raise ValueError("threads must be at least 1")
    topo = machine.topology

    # --- placement-derived quantities -------------------------------------
    physical_threads = min(threads, topo.num_cores)
    try:
        placement = ThreadPlacement.plan(physical_threads, affinity, topo)
    except ValueError:
        # Infeasible placements (e.g. 40 "spread" threads on 34 tiles) are
        # silently promoted to the shared layout; the paper's search space
        # only contains feasible combinations, but user code may ask.
        placement = ThreadPlacement.plan(physical_threads, AffinityMode.SHARED, topo)
    tiles_used = placement.tiles_used
    cores_used = placement.cores_used

    # --- compute component --------------------------------------------------
    single_core_seconds = chars.flops / topo.effective_flops_per_core
    usable_parallelism = min(threads, chars.parallel_grains)
    serial = chars.serial_fraction
    compute_time = single_core_seconds * (serial + (1.0 - serial) / usable_parallelism)

    # --- memory component ---------------------------------------------------
    working_set_per_tile = chars.working_set / max(tiles_used, 1)
    reuse = machine.cache.reuse_fraction(
        working_set_per_tile,
        siblings_share_tile=placement.siblings_share_tile,
        reuse_potential=chars.reuse_potential,
    )
    bytes_from_memory = chars.bytes_touched * (1.0 - reuse)
    bandwidth = machine.memory.achievable_bandwidth(cores_used)
    memory_time = bytes_from_memory / bandwidth if bandwidth > 0 else float("inf")

    # --- overheads ------------------------------------------------------------
    overhead = (
        machine.op_dispatch_cost
        + machine.thread_spawn_cost * threads
        + machine.sync_cost * math.log2(threads + 1)
        + chars.per_thread_overhead * threads
    )
    if reconfigured:
        overhead += machine.reconfiguration_cost

    # Compute and memory phases overlap (hardware prefetch, out-of-order
    # execution), so the core time is the roofline maximum of the two.
    core_time = max(compute_time, memory_time)
    total = core_time + overhead
    return OpTimeBreakdown(
        threads=threads,
        affinity=affinity,
        compute_time=compute_time,
        memory_time=memory_time,
        overhead_time=overhead,
        bytes_from_memory=bytes_from_memory,
        total=total,
    )


@lru_cache(maxsize=262144)
def _execution_time_cached(
    chars: OpCharacteristics,
    machine: Machine,
    threads: int,
    affinity: AffinityMode,
    reconfigured: bool,
) -> OpTimeBreakdown:
    return execution_time(chars, machine, threads, affinity, reconfigured=reconfigured)


def execution_time_cached(
    chars: OpCharacteristics,
    machine: Machine,
    threads: int,
    affinity: AffinityMode = AffinityMode.SHARED,
    *,
    reconfigured: bool = False,
) -> OpTimeBreakdown:
    """Memoised :func:`execution_time`.

    The model is pure, ``OpCharacteristics``/``Machine`` are frozen, and a
    characteristics value already encodes everything an operation's
    signature determines — so the cache key
    ``(chars, machine, threads, affinity, reconfigured)`` is exactly the
    per-op ``(signature, threads, affinity, reconfigured)`` memoisation
    the scheduler's inner loop needs, while staying correct for two
    instances that share a signature but differ in attrs.  Simulation
    sweeps re-evaluate the same configurations thousands of times, so
    this avoids recomputing the roofline model on every launch.
    """
    try:
        return _execution_time_cached(chars, machine, threads, affinity, reconfigured)
    except TypeError:
        # Unhashable custom machine/characteristics: fall back to uncached.
        return execution_time(chars, machine, threads, affinity, reconfigured=reconfigured)


#: Noise-free standalone totals: machine -> {(chars, threads, affinity): total}.
_STANDALONE_TOTALS: dict[Machine, dict[tuple, float]] = {}

#: Entries one machine's memo may hold before it is dropped and regrown.
_STANDALONE_TOTALS_LIMIT = 262144


def standalone_totals(
    machine: Machine,
) -> Callable[[OpCharacteristics, int, AffinityMode], float]:
    """``total(chars, threads, affinity)``: the noise-free
    ``execution_time(chars, machine, threads, affinity).total``, memoised
    process-wide for ``machine``.

    Only the float is kept, not the breakdown: the hill climbs of every
    estimate in a process revisit the same cases, and a breakdown costs
    several times the memory.  Functions for equal machines share one
    memo.  Resolve the function once per runner: hashing a machine walks
    its whole frozen dataclass tree.  An unhashable machine or
    characteristics value is computed uncached.
    """
    try:
        totals = _STANDALONE_TOTALS.setdefault(machine, {})
    except TypeError:
        return lambda chars, threads, affinity: execution_time(
            chars, machine, threads, affinity
        ).total

    def total(chars: OpCharacteristics, threads: int, affinity: AffinityMode) -> float:
        key = (chars, threads, affinity)
        try:
            value = totals.get(key)
        except TypeError:
            return execution_time(chars, machine, threads, affinity).total
        if value is None:
            value = execution_time(chars, machine, threads, affinity).total
            if len(totals) >= _STANDALONE_TOTALS_LIMIT:
                totals.clear()
            totals[key] = value
        return value

    return total


def clear_execution_time_cache() -> None:
    """Drop all memoised execution times and standalone totals (tests and
    long sweeps)."""
    _execution_time_cached.cache_clear()
    for totals in _STANDALONE_TOTALS.values():
        totals.clear()
    _STANDALONE_TOTALS.clear()


@dataclass(frozen=True)
class _AffinityGridTable:
    """Machine-only, per-thread-count quantities of one affinity's grid.

    Everything an exhaustive sweep needs that does not depend on the
    operation: placements, bandwidths and the machine part of the
    overhead term.  Computed once per (machine, affinity) and reused for
    every signature, so the per-op grid pass is pure array arithmetic
    plus one cache-model call per thread count.
    """

    counts: tuple[int, ...]
    #: Thread counts as float64 (operand of the vector arithmetic).
    counts_f: np.ndarray
    tiles_used: np.ndarray
    siblings: tuple[bool, ...]
    #: ``achievable_bandwidth(cores_used)`` per count (exact: min/multiply).
    bandwidth: np.ndarray
    #: ``dispatch + spawn*threads + sync*log2(threads+1)`` per count,
    #: accumulated in exactly the scalar expression's association order so
    #: adding the op's ``per_thread_overhead*threads`` reproduces
    #: :func:`execution_time` bit-for-bit.
    overhead_base: np.ndarray


@lru_cache(maxsize=64)
def _affinity_grid_table(machine: Machine, affinity: AffinityMode) -> _AffinityGridTable:
    topo = machine.topology
    counts = ThreadPlacement.feasible_thread_counts(affinity, topo)
    placements = [ThreadPlacement.plan(count, affinity, topo) for count in counts]
    bandwidth = [machine.memory.achievable_bandwidth(p.cores_used) for p in placements]
    overhead_base = [
        machine.op_dispatch_cost
        + machine.thread_spawn_cost * count
        + machine.sync_cost * math.log2(count + 1)
        for count in counts
    ]
    return _AffinityGridTable(
        counts=counts,
        counts_f=np.array(counts, dtype=np.float64),
        tiles_used=np.array([p.tiles_used for p in placements], dtype=np.int64),
        siblings=tuple(p.siblings_share_tile for p in placements),
        bandwidth=np.array(bandwidth, dtype=np.float64),
        overhead_base=np.array(overhead_base, dtype=np.float64),
    )


def _grid_breakdowns(
    chars: OpCharacteristics, machine: Machine, affinity: AffinityMode
) -> list[OpTimeBreakdown]:
    """Characterise the whole thread-count grid of one affinity in one pass.

    Every arithmetic step mirrors :func:`execution_time` operand-for-
    operand with IEEE-exact vector operations (+, -, *, /, min, max), and
    the two non-trivially-rounded ingredients — ``log2`` in the overhead
    and ``pow`` inside :meth:`CacheModel.fit_fraction` — go through the
    very same scalar code paths, so the grid is bit-identical to the
    per-case model.
    """
    table = _affinity_grid_table(machine, affinity)
    topo = machine.topology

    single_core_seconds = chars.flops / topo.effective_flops_per_core
    serial = chars.serial_fraction
    usable = np.minimum(table.counts_f, float(chars.parallel_grains))
    compute_time = single_core_seconds * (serial + (1.0 - serial) / usable)

    working_set = chars.working_set
    reuse = np.array(
        [
            machine.cache.reuse_fraction(
                working_set / int(tiles),
                siblings_share_tile=siblings,
                reuse_potential=chars.reuse_potential,
            )
            for tiles, siblings in zip(table.tiles_used, table.siblings)
        ],
        dtype=np.float64,
    )
    bytes_from_memory = chars.bytes_touched * (1.0 - reuse)
    memory_time = bytes_from_memory / table.bandwidth

    overhead = table.overhead_base + chars.per_thread_overhead * table.counts_f
    total = np.maximum(compute_time, memory_time) + overhead

    return [
        OpTimeBreakdown(
            threads=count,
            affinity=affinity,
            compute_time=float(compute_time[i]),
            memory_time=float(memory_time[i]),
            overhead_time=float(overhead[i]),
            bytes_from_memory=float(bytes_from_memory[i]),
            total=float(total[i]),
        )
        for i, count in enumerate(table.counts)
    ]


@lru_cache(maxsize=8192)
def _sweep_grid_cached(
    chars: OpCharacteristics,
    machine: Machine,
    affinities: tuple[AffinityMode, ...],
) -> tuple[tuple[tuple[int, AffinityMode], OpTimeBreakdown], ...]:
    items: list[tuple[tuple[int, AffinityMode], OpTimeBreakdown]] = []
    for affinity in affinities:
        for breakdown in _grid_breakdowns(chars, machine, affinity):
            items.append(((breakdown.threads, affinity), breakdown))
    return tuple(items)


def sweep_thread_counts(
    chars: OpCharacteristics,
    machine: Machine,
    *,
    affinities: tuple[AffinityMode, ...] = (AffinityMode.SPREAD, AffinityMode.SHARED),
) -> dict[tuple[int, AffinityMode], OpTimeBreakdown]:
    """Execution time for every feasible (threads, affinity) prediction case.

    On the full KNL machine this is the 68-case space of Section III-B:
    1..34 threads spread one-per-tile plus even counts 2..68 packed
    two-per-tile.  The grid is characterised in a single vectorised pass
    per affinity (see :func:`_grid_breakdowns`) that is bit-identical to
    calling :func:`execution_time` per case; unhashable custom
    machines/characteristics fall back to exactly that per-case loop.
    """
    try:
        return dict(_sweep_grid_cached(chars, machine, tuple(affinities)))
    except TypeError:
        results: dict[tuple[int, AffinityMode], OpTimeBreakdown] = {}
        for affinity in affinities:
            for count in ThreadPlacement.feasible_thread_counts(affinity, machine.topology):
                results[(count, affinity)] = execution_time_cached(chars, machine, count, affinity)
        return results


def optimal_configuration(
    chars: OpCharacteristics,
    machine: Machine,
) -> tuple[int, AffinityMode, float]:
    """Exhaustively find the (threads, affinity) with the shortest time.

    This is the ground truth the hill-climbing model approximates; the
    experiments use it to measure prediction accuracy.
    """
    sweep = sweep_thread_counts(chars, machine)
    (threads, affinity), breakdown = min(sweep.items(), key=lambda item: item[1].total)
    return threads, affinity, breakdown.total
