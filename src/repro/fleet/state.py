"""The fleet's model layer: placements, machine state, fleet state.

Placement policies only ever see the immutable views defined here
(:class:`MachineView` inside a :class:`FleetState`); the simulator owns
the mutable :class:`MachineState`.  Keeping the policy-facing surface
frozen makes policies trivially safe to reuse across simulations and
keeps the decision inputs explicit — exactly the information a real
cluster scheduler would have.

Because one fleet simulation consults the policy thousands of times and
most machines do not change between consecutive consultations,
:class:`MachineState` caches its :class:`MachineView` behind a dirty
flag: the simulator calls :meth:`MachineState.touch` whenever it mutates
a machine, and :meth:`MachineState.view` rebuilds the frozen snapshot
only then.  A 50-machine fleet rebuilds one view per mutation instead of
fifty per policy call.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Sequence

from repro.core.interference import InterferenceTracker
from repro.fleet.job import Job
from repro.scenarios import Workload

#: Relative co-run slowdown (vs the slower solo estimate) above which a
#: workload pairing is blacklisted.  Gang rounds of two jobs land
#: between max(solo) (perfect overlap) and solo_a + solo_b (none); 0.75
#: flags pairings that recover almost none of the overlap.  Shared by
#: the fleet-wide tracker, the per-machine trackers and the policies.
DEFAULT_INTERFERENCE_THRESHOLD = 0.75


@dataclass(frozen=True)
class Placement:
    """One placement decision: which machine a job was assigned to, when."""

    job: str
    kind: str
    machine_id: str
    time: float


@dataclass(frozen=True)
class MachineView:
    """Read-only snapshot of one machine, as exposed to policies."""

    machine_id: str
    #: Zoo name of the hardware (``"desktop-8c"``, ...).
    machine_name: str
    #: Jobs inside the currently executing gang round.
    residents: tuple[Job, ...]
    #: Jobs admitted to this machine, joining at the next round boundary.
    waiting: tuple[Job, ...]
    #: Remaining training steps per member job name.
    remaining_steps: tuple[tuple[str, int], ...]
    #: Placement slots still open (capacity - residents - waiting; always
    #: 0 on a machine that is not accepting).
    free_slots: int
    #: When the current round ends (== now when the machine is idle).
    busy_until: float
    #: False once the machine has crashed or finished draining.  Policies
    #: must never score a dead machine; its ``free_slots`` is 0.
    alive: bool = True
    #: False while crashed, dead, or gracefully draining — no new
    #: placements, but a draining machine still runs its members.
    accepting: bool = True

    @property
    def members(self) -> tuple[Job, ...]:
        """Every job currently bound to the machine (running or waiting)."""
        return self.residents + self.waiting

    @cached_property
    def member_kinds(self) -> tuple[str, ...]:
        return tuple(job.kind for job in self.members)

    @cached_property
    def load(self) -> tuple[tuple[str, int, int, Workload], ...]:
        """Every member as ``(kind, graph_seed, remaining steps, workload)``,
        sorted by the first three.

        Step-time estimates depend only on the member multiset, so two
        views of the same hardware with equal loads drain identically and
        differ, to a policy, only in ``busy_until``.
        """
        return tuple(
            sorted(
                (
                    (job.kind, job.graph_seed, self.remaining_of(job.name), job.workload)
                    for job in self.members
                ),
                key=lambda entry: entry[:3],
            )
        )

    @cached_property
    def _remaining_map(self) -> dict[str, int]:
        return dict(self.remaining_steps)

    def remaining_of(self, job_name: str) -> int:
        try:
            return self._remaining_map[job_name]
        except KeyError:
            raise KeyError(f"{job_name!r} is not bound to {self.machine_id}") from None


@dataclass(frozen=True)
class FleetState:
    """Everything a placement policy may look at when placing one job."""

    time: float
    machines: tuple[MachineView, ...]
    queue: tuple[Job, ...]
    #: Admission controller's bound on the central queue (None when the
    #: fleet admits everything).  Policies can read
    #: ``queue_depth / queue_limit`` as a backpressure signal — a fleet
    #: near its limit is about to shed work.
    queue_limit: int | None = None

    @property
    def queue_depth(self) -> int:
        return len(self.queue)

    def machine(self, machine_id: str) -> MachineView:
        for view in self.machines:
            if view.machine_id == machine_id:
                return view
        raise KeyError(f"unknown machine {machine_id!r}")


@dataclass
class MachineState:
    """Mutable per-machine bookkeeping owned by the fleet simulator."""

    machine_id: str
    machine_name: str
    capacity: int
    residents: list[Job] = field(default_factory=list)
    waiting: list[Job] = field(default_factory=list)
    remaining_steps: dict[str, int] = field(default_factory=dict)
    busy_until: float = 0.0
    round_active: bool = False
    #: Duration of the round currently executing (reused at the round's
    #: end for interference accounting without re-querying the estimator).
    round_time: float = 0.0
    #: Accumulated busy seconds (drives the utilisation report).
    busy_time: float = 0.0
    rounds: int = 0
    corun_rounds: int = 0
    #: This machine's locally observed co-run interference; the simulator
    #: merges per-round deltas into the fleet-wide tracker via
    #: snapshot()/merge() so machines share what they learn, and the
    #: machine's own report carries what *it* observed.
    tracker: InterferenceTracker = field(
        default_factory=lambda: InterferenceTracker(
            threshold=DEFAULT_INTERFERENCE_THRESHOLD
        )
    )
    # -- round-compression bookkeeping (compressed fast path only) ---------------
    #: Gang rounds of the current compressed segment not yet flushed
    #: (0 when idle or on the reference path).
    seg_rounds_left: int = 0
    #: Every boundary instant of the current segment, accumulated once at
    #: its start by one sequential ``np.add.accumulate`` (an
    #: ``array('d')``, see ``repro.fleet.simulator._accumulate_rounds``);
    #: the next unflushed one is
    #: ``seg_bounds[len(seg_bounds) - seg_rounds_left]``.  Empty for a
    #: one-round (or truncated) segment, whose only boundary left is
    #: ``busy_until``.
    seg_bounds: Sequence[float] = field(default=(), repr=False)
    #: Per-round interference record plan, precomputed at segment start:
    #: one (machine history deque, fleet history deque, values) per
    #: distinct pairing of the residents, ``values`` being what one round
    #: appends to that pairing's history, in pair order.
    seg_records: tuple = field(default=(), repr=False)
    #: Threshold-crossing pairs of this segment, applied to both
    #: blacklists at the first flushed boundary (then cleared).
    seg_blacklist: tuple[tuple[str, str], ...] = ()
    #: Invalidation counter for heap events (a truncated segment's stale
    #: end event is recognised and skipped by its old epoch).
    epoch: int = 0
    # -- fault-injection bookkeeping (see repro.fleet.faults) --------------------
    #: False once the machine crashed or finished a graceful drain.
    alive: bool = True
    #: False while crashed, dead, or draining: no new placements land.
    accepting: bool = True
    #: True between a MachineLeave instant and the retirement of the
    #: machine's last member (then the machine dies).
    draining: bool = False
    #: Simulated instant the machine left the fleet (None while alive).
    dead_since: float | None = None
    #: Simulated instant the machine entered the fleet (0.0 for the
    #: initial zoo; the MachineJoin time for mid-trace joins).
    joined_at: float = 0.0
    #: Active straggler factors, in window-open order; the effective
    #: round duration is the estimator base scaled by their product.
    straggle: tuple[float, ...] = ()
    #: Unscaled estimator round duration of the round/segment currently
    #: executing — interference records use this (a straggling machine is
    #: slow, not a bad pairing), busy accounting uses ``round_time``.
    round_base: float = 0.0
    #: Crash-requeues charged to this machine (jobs sent back to the
    #: queue with retry budget burned).
    retries: int = 0
    #: JobPreempt events applied on this machine.
    preemptions: int = 0
    #: Training steps of progress destroyed by aborted in-flight rounds
    #: (one per resident per aborted round).
    lost_steps: int = 0
    #: Dirty-flag cached policy view (see module docstring).
    _view_cache: MachineView | None = field(
        default=None, repr=False, compare=False
    )

    @property
    def free_slots(self) -> int:
        if not self.accepting:
            return 0
        return self.capacity - len(self.residents) - len(self.waiting)

    def touch(self) -> None:
        """Invalidate the cached view after any policy-visible mutation."""
        self._view_cache = None

    def view(self) -> MachineView:
        view = self._view_cache
        if view is None:
            view = MachineView(
                machine_id=self.machine_id,
                machine_name=self.machine_name,
                residents=tuple(self.residents),
                waiting=tuple(self.waiting),
                remaining_steps=tuple(sorted(self.remaining_steps.items())),
                free_slots=self.free_slots,
                busy_until=self.busy_until,
                alive=self.alive,
                accepting=self.accepting,
            )
            self._view_cache = view
        return view
