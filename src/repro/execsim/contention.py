"""Interference between co-running operations.

When the scheduler co-runs operations (Strategy 3) or packs small
operations onto hyper-threads (Strategy 4), two resources are shared:

* **cores** — threads of different operations landing on the same physical
  core share its issue slots.  A KNL core's vector units are essentially
  saturated by one thread of a dense kernel, so two heavyweight threads
  each make a bit more than half progress (the aggregate is > 1 only
  thanks to latency hiding, which grows with how memory-bound the code
  is);
* **memory bandwidth** — the chip-level bandwidth ceiling is divided among
  all streaming operations, stretching the memory-bound part of each.

The simulator used to call ``corun_slowdowns`` — a from-scratch
recomputation over every running operation — on every scheduling event.
That function is kept as the test oracle in ``tests/reference_step.py``;
the simulator goes through :class:`ContentionState`, which maintains
per-core load, bandwidth demand totals and unpinned-pool counts
incrementally as operations are added and removed, and only recomputes
the slowdown factors whose inputs actually changed.
"""

from __future__ import annotations

from dataclasses import dataclass
from repro.hardware.topology import Machine


@dataclass(frozen=True)
class RunningOpView:
    """The minimal view of a running operation needed by the contention model."""

    key: str
    core_ids: tuple[int, ...]
    threads: int
    #: Average bytes/second the op pulls from memory when running alone.
    bandwidth_demand: float
    #: Fraction of the op's busy time that is memory-bound.
    memory_bound_fraction: float
    #: The op's intrinsic memory-boundness (drives the SMT latency-hiding bonus).
    memory_bound_char: float
    #: True when the op's threads are pinned to their cores (the runtime's
    #: partitioned co-running and hyper-thread packing); False for
    #: TensorFlow's shared, unpinned thread pool.
    pinned: bool = True

    def __post_init__(self) -> None:
        if not self.core_ids:
            raise ValueError("a running op must occupy at least one core")
        if self.threads < 1:
            raise ValueError("threads must be at least 1")
        if self.bandwidth_demand < 0:
            raise ValueError("bandwidth_demand must be non-negative")
        if not (0.0 <= self.memory_bound_fraction <= 1.0):
            raise ValueError("memory_bound_fraction must lie in [0, 1]")


#: Strength of the cache-thrashing / thread-migration interference between
#: unpinned thread pools sharing cores, per unit of foreign load.
UNPINNED_INTERFERENCE = 0.75
#: Additional interference per distinct co-running unpinned pool (pool
#: management, scheduler migration, allocator locks).
UNPINNED_POOL_INTERFERENCE = 0.3
#: Upper bound on the unpinned interference factor.
UNPINNED_INTERFERENCE_CAP = 2.6


class ContentionState:
    """Incrementally-maintained co-run slowdown factors.

    Semantically equivalent to calling ``corun_slowdowns``
    (``tests/reference_step.py``) on the
    current set of running operations after every change (the test suite
    asserts this over randomized add/remove sequences), but instead of
    rebuilding the per-core load map, bandwidth total and unpinned-pool
    count from scratch on every event, the state is updated in place and
    only the operations whose factor inputs changed are recomputed.

    The per-core load is split into two components:

    * a **uniform** component from *full-span* operations whose core set
      covers the whole chip (TensorFlow's oversubscribed intra-op pool,
      or a DEDICATED core-filling operation).  These contribute the same
      per-core load everywhere, so adding/removing/recomputing them is
      O(1) instead of O(num_cores);
    * **per-core** loads from partial-span operations (the runtime's
      disjoint partitions and hyper-thread packing).  A partial operation
      that shares none of its cores with another partial operation sees a
      uniform total too, so its factor is also O(1); genuinely shared
      cores fall back to the exact per-core loop.

    Core ids must be integers in ``[0, machine.num_cores)`` (which is what
    :class:`~repro.hardware.affinity.CoreAllocator` hands out).
    """

    def __init__(self, machine: Machine) -> None:
        self._machine = machine
        self._smt = machine.smt
        self._ceiling = machine.memory.fast_bandwidth
        num_cores = machine.num_cores
        self._num_cores = num_cores
        self._views: dict[str, RunningOpView] = {}
        #: Per-op threads-per-core contribution (threads / len(core_ids)).
        self._own: dict[str, float] = {}
        #: Per-op launch sequence — the order the reference implementation
        #: folds contributions in (needed for exact tie-breaking sums).
        self._seq: dict[str, int] = {}
        self._next_seq = 0
        #: Keys of full-span ops (core set covers the whole chip), in
        #: insertion order, plus their summed uniform per-core load.
        self._full_keys: list[str] = []
        self._uniform_load = 0.0
        self._uniform_unpinned = 0
        #: Per-core load/residency of *partial-span* ops only.
        self._load: list[float] = [0.0] * num_cores
        self._residents: list[list[str]] = [[] for _ in range(num_cores)]
        self._unpinned_on_core: list[int] = [0] * num_cores
        self._num_partial = 0
        #: Per partial op: number of its cores hosting another partial op.
        self._shared_cores: dict[str, int] = {}
        self._num_unpinned = 0
        self._total_demand = 0.0
        self._factors: dict[str, float] = {}
        #: Memoised SMT core throughput keyed by (resident, memory_bound):
        #: the resident counts are tiny integers and the distinct
        #: memory-bound characteristics are few, so this cache is hit on
        #: nearly every recomputation.
        self._throughput_cache: dict[tuple[int, float], float] = {}

    def __len__(self) -> int:
        return len(self._views)

    def __contains__(self, key: str) -> bool:
        return key in self._views

    def slowdown(self, key: str) -> float:
        """Current slowdown factor of one running operation."""
        return self._factors[key]

    def slowdowns(self) -> dict[str, float]:
        """Current slowdown factors of every running operation."""
        return dict(self._factors)

    # -- incremental updates ---------------------------------------------------

    def add(self, view: RunningOpView) -> set[str]:
        """Add a running operation; returns the keys whose factor changed."""
        if view.key in self._views:
            raise ValueError(f"operation {view.key!r} is already running")
        own = view.threads / len(view.core_ids)
        bandwidth_was_active = self._total_demand > self._ceiling
        full_span = len(view.core_ids) == self._num_cores
        self._views[view.key] = view
        self._own[view.key] = own
        self._seq[view.key] = self._next_seq
        self._next_seq += 1
        affected: set[str] = set()
        if full_span:
            # A full-span op overlaps every other op's cores.
            affected.update(self._views)
            self._full_keys.append(view.key)
            self._uniform_load = self._fold_uniform_load()
            if not view.pinned:
                self._uniform_unpinned += 1
        else:
            load = self._load
            residents = self._residents
            shared_cores = self._shared_cores
            newly_shared = 0
            for core in view.core_ids:
                core_residents = residents[core]
                if core_residents:
                    affected.update(core_residents)
                    newly_shared += 1
                    if len(core_residents) == 1:
                        shared_cores[core_residents[0]] += 1
                core_residents.append(view.key)
                load[core] = self._fold_core_load(core_residents)
                if not view.pinned:
                    self._unpinned_on_core[core] += 1
            shared_cores[view.key] = newly_shared
            self._num_partial += 1
            # Full-span ops see every core, including this op's.
            affected.update(self._full_keys)
        self._total_demand = self._fold_total_demand()
        if not view.pinned:
            self._num_unpinned += 1
        affected.add(view.key)
        if self._spans_everyone(view, bandwidth_was_active):
            affected = set(self._views)
        for key in affected:
            self._recompute(key)
        return affected

    def remove(self, key: str) -> set[str]:
        """Remove a running operation; returns the keys whose factor changed."""
        view = self._views.pop(key, None)
        if view is None:
            raise KeyError(f"operation {key!r} is not running")
        own = self._own.pop(key)
        del self._seq[key]
        bandwidth_was_active = self._total_demand > self._ceiling
        full_span = len(view.core_ids) == self._num_cores
        affected: set[str] = set()
        if full_span:
            self._full_keys.remove(key)
            self._uniform_load = self._fold_uniform_load()
            if not view.pinned:
                self._uniform_unpinned -= 1
            affected.update(self._views)
        else:
            load = self._load
            residents = self._residents
            shared_cores = self._shared_cores
            for core in view.core_ids:
                core_residents = residents[core]
                core_residents.remove(key)
                if len(core_residents) == 1:
                    shared_cores[core_residents[0]] -= 1
                load[core] = self._fold_core_load(core_residents)
                affected.update(core_residents)
                if not view.pinned:
                    self._unpinned_on_core[core] -= 1
            del shared_cores[key]
            self._num_partial -= 1
            affected.update(self._full_keys)
        self._total_demand = self._fold_total_demand()
        if not view.pinned:
            self._num_unpinned -= 1
        del self._factors[key]
        if self._spans_everyone(view, bandwidth_was_active):
            affected = set(self._views)
        for other in affected:
            self._recompute(other)
        return affected

    def _fold_core_load(self, core_residents: list[str]) -> float:
        """Exact per-core load: left-fold of the residents' contributions.

        Residents are stored in launch order — the same order the
        reference implementation accumulates loads in — so this yields
        bit-identical values to a from-scratch rebuild.  Recomputing the
        fold on every change (instead of running ``+=``/``-=``) keeps
        float drift from ever crossing a ``round()`` tie in
        ``_recompute``; resident lists are short, so the fold is cheap.
        """
        total = 0.0
        own = self._own
        for resident in core_residents:
            total += own[resident]
        return total

    def _fold_uniform_load(self) -> float:
        """Exact uniform load: left-fold over the full-span ops."""
        total = 0.0
        own = self._own
        for key in self._full_keys:
            total += own[key]
        return total

    def _fold_total_demand(self) -> float:
        """Exact bandwidth total (compared against a hard ceiling, so it
        must not drift either): left-fold over the views in launch order."""
        total = 0.0
        for view in self._views.values():
            total += view.bandwidth_demand
        return total

    @staticmethod
    def _near_round_tie(total: float) -> bool:
        """Whether ``total`` sits within float-reordering distance of a
        ``round()`` half-tie (n + 0.5), where a last-ulp difference between
        the decomposed sum and the reference's interleaved fold would flip
        the SMT resident count."""
        doubled = total * 2.0
        nearest = round(doubled)
        return nearest % 2 == 1 and abs(doubled - nearest) < 2e-9

    def _exact_core_total(self, core_keys: list[str], extra_key: str | None) -> float:
        """The reference's bit-exact total for one core: contributions of
        every op covering it, folded in launch order."""
        keys = list(core_keys)
        keys.extend(self._full_keys)
        if extra_key is not None:
            keys.append(extra_key)
        keys.sort(key=self._seq.__getitem__)
        own = self._own
        total = 0.0
        for key in keys:
            total += own[key]
        return total

    def _spans_everyone(self, view: RunningOpView, bandwidth_was_active: bool) -> bool:
        """Whether adding/removing ``view`` invalidates every factor.

        Unpinned pools change the per-pool interference term of every
        other unpinned pool, and a bandwidth-demand change while the
        ceiling is (or was) exceeded changes the stretch applied to
        everyone.
        """
        if not view.pinned:
            return True
        if view.bandwidth_demand != 0.0:
            return bandwidth_was_active or self._total_demand > self._ceiling
        return False

    # -- factor recomputation ---------------------------------------------------

    def _core_throughput(self, resident: int, memory_bound: float) -> float:
        key = (resident, memory_bound)
        value = self._throughput_cache.get(key)
        if value is None:
            value = self._smt.core_throughput(resident, memory_bound=memory_bound)
            self._throughput_cache[key] = value
        return value

    def _recompute(self, key: str) -> None:
        view = self._views[key]
        own = self._own[key]
        num_cores_op = len(view.core_ids)
        full_span = num_cores_op == self._num_cores
        memory_bound = view.memory_bound_char
        uniform_load = self._uniform_load
        load = self._load

        # An op sees a uniform total on all of its cores when no *partial*
        # op shares any of them: full-span ops always contribute uniformly.
        if full_span:
            uniform = self._num_partial == 0
        else:
            uniform = self._shared_cores[key] == 0
        foreign = None

        # Core-sharing term (identical arithmetic to the oracle's
        # _core_sharing_slowdown in tests/reference_step.py;
        # uniform totals collapse the per-core sum to one term).  The
        # decomposed uniform + per-core sums can differ from the
        # reference's interleaved fold by a last ulp, which only matters
        # if the total sits on a round() half-tie — the _near_round_tie
        # guard recomputes those rare totals with the bit-exact fold.
        residents = self._residents
        if uniform:
            total = uniform_load if full_span else uniform_load + own
            if self._full_keys and not full_span and self._near_round_tie(total):
                total = self._exact_core_total([], key)
            elif full_span and self._near_round_tie(total):
                total = self._exact_core_total([], None)
            if total == own:  # sole occupant: own/total == 1.0 exactly
                aggregate = self._core_throughput(max(1, round(own)), memory_bound)
                capacity = num_cores_op * min(own, aggregate)
            else:
                aggregate = self._core_throughput(max(1, round(total)), memory_bound)
                capacity = num_cores_op * min(own, aggregate * (own / total))
            foreign = total - own
        elif full_span:
            capacity = 0.0
            foreign_sum = 0.0
            for core in range(num_cores_op):
                total = uniform_load + load[core]
                if self._near_round_tie(total):
                    total = self._exact_core_total(residents[core], None)
                aggregate = self._core_throughput(max(1, round(total)), memory_bound)
                capacity += min(own, aggregate * (own / total))
                foreign_sum += total - own
            foreign = foreign_sum / num_cores_op
        else:
            has_full = bool(self._full_keys)
            capacity = 0.0
            foreign_sum = 0.0
            for core in view.core_ids:
                total = uniform_load + load[core]
                if has_full and self._near_round_tie(total):
                    total = self._exact_core_total(residents[core], None)
                aggregate = self._core_throughput(max(1, round(total)), memory_bound)
                capacity += min(own, aggregate * (own / total))
                foreign_sum += total - own
            foreign = foreign_sum / num_cores_op
        factor = view.threads / capacity if capacity > 0 else float("inf")

        # Bandwidth term (identical arithmetic to the oracle's
        # _bandwidth_slowdown).
        total_demand = self._total_demand
        if total_demand > self._ceiling and total_demand != 0.0:
            stretch = total_demand / self._ceiling
            factor *= (
                1.0 - view.memory_bound_fraction
                + view.memory_bound_fraction * stretch
            )

        # Unpinned-pool term (identical arithmetic to the oracle's
        # _unpinned_interference).
        if self._num_unpinned:
            exposed = (not view.pinned) or self._exposed_to_unpinned(view, full_span)
            if exposed:
                other_pools = max(0, self._num_unpinned - (0 if view.pinned else 1))
                unpinned = (
                    1.0
                    + UNPINNED_INTERFERENCE * max(0.0, foreign)
                    + UNPINNED_POOL_INTERFERENCE * other_pools
                )
                factor *= min(UNPINNED_INTERFERENCE_CAP, unpinned)

        self._factors[key] = factor

    def _exposed_to_unpinned(self, view: RunningOpView, full_span: bool) -> bool:
        """Whether a pinned op shares at least one core with an unpinned op."""
        if self._uniform_unpinned:
            return True  # full-span unpinned pools overlap every core.
        if full_span:
            # Overlaps every core, so any partial unpinned op exposes it.
            return self._num_unpinned > self._uniform_unpinned
        unpinned_on_core = self._unpinned_on_core
        return any(unpinned_on_core[core] for core in view.core_ids)
