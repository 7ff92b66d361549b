"""Pluggable job-placement policies.

Each policy answers one question — *which machine should this job run
on, if any?* — from an immutable :class:`~repro.fleet.state.FleetState`.
The ladder mirrors the paper's single-machine strategy ladder, one level
up:

* :class:`FirstFitPolicy` — the baseline a naive cluster uses: the first
  machine with a free slot (jobs pile onto early machines even while
  later ones idle, like TensorFlow's uniform defaults pile threads onto
  one pool);
* :class:`LoadBalancedPolicy` — spreads by *predicted* backlog, using
  the performance-model-driven solo step-time estimates (Strategy 1/2
  raised to machines: right-size each machine's load, ignore pairings);
* :class:`InterferenceAwarePolicy` — additionally consults the
  generalized :class:`~repro.core.interference.InterferenceTracker`
  (keyed by workload kind) and the per-mix co-run estimates, placing
  each job where its model-predicted marginal cost — its own steps plus
  the slowdown it imposes on residents — is smallest (Strategies 3/4
  raised to machines: co-locate only when the predictions say the mix
  is profitable, never on a blacklisted pairing).
"""

from __future__ import annotations

from typing import Callable, Protocol

from repro.core.interference import InterferenceTracker
from repro.fleet.estimates import StepTimeEstimator
from repro.fleet.job import Job
from repro.fleet.state import DEFAULT_INTERFERENCE_THRESHOLD, FleetState, MachineView


class PlacementPolicy(Protocol):
    """The interface the fleet simulator drives."""

    name: str

    def place(self, job: Job, fleet: FleetState) -> str | None:
        """The machine id to place ``job`` on, or ``None`` to keep it queued."""


class FirstFitPolicy:
    """Place on the first machine (in fleet order) with a free slot."""

    name = "first-fit"

    def place(self, job: Job, fleet: FleetState) -> str | None:
        for machine in fleet.machines:
            # A dead/draining machine reports zero free slots, but the
            # guard stays explicit: never place on a non-accepting box.
            if machine.accepting and machine.free_slots > 0:
                return machine.machine_id
        return None


class LoadBalancedPolicy:
    """Place on the machine with the least predicted backlog.

    Backlog is measured in predicted seconds, not job counts: every
    member's remaining steps are costed at its *solo* step-time estimate
    on that machine (the hill-climbing model's prediction), so a slow
    machine with one job can legitimately lose to a fast machine with
    two.  Pairing effects are deliberately ignored — that is the
    interference-aware policy's edge.
    """

    name = "load-balanced"

    def __init__(self, estimator: StepTimeEstimator) -> None:
        self.estimator = estimator

    def _backlog(self, machine: MachineView, job: Job, now: float) -> float:
        seconds = max(0.0, machine.busy_until - now)
        for member in machine.members:
            seconds += machine.remaining_of(member.name) * self.estimator.solo_time(
                machine.machine_name, member
            )
        seconds += job.num_steps * self.estimator.solo_time(machine.machine_name, job)
        return seconds

    def place(self, job: Job, fleet: FleetState) -> str | None:
        best: tuple[float, int] | None = None
        chosen: str | None = None
        for index, machine in enumerate(fleet.machines):
            if not machine.accepting or machine.free_slots <= 0:
                continue
            score = (self._backlog(machine, job, fleet.time), index)
            if best is None or score < best:
                best = score
                chosen = machine.machine_id
        return chosen


class InterferenceAwarePolicy:
    """Model-guided placement that avoids harmful co-run pairings.

    Machines whose members include a kind the shared interference
    tracker has blacklisted against the job's kind are skipped (unless
    *every* open machine is blacklisted, in which case the least-loaded
    open machine is used — starving a job is worse than a bad pairing).
    Each remaining candidate is scored by its predicted time-to-drain
    once the job joins:

    ``cost = ready + drain(members + job)``

    where ``ready`` is ``max(0, busy_until - now)`` and ``drain`` replays
    the gang-round dynamics on the memoised co-run estimates (the mix
    runs at its estimated round time until its shortest member finishes,
    then the smaller mix at *its* rate, and so on).  Minimising it
    greedily equalises predicted machine finish times (what balances the
    fleet) *and* penalises bad pairings (a mix whose round time
    approaches the sum of the solos drains far slower than a
    complementary one) — the fleet-level restatement of Strategy 3's
    "fill idle cores without decreasing system throughput".  The lowest
    ``(cost, machine index)`` wins.  The job stays queued instead when
    waiting for a slot on some full machine looks ``patience`` times
    cheaper:

    ``wait = (ready + (min_remaining - 1) * mix) + drain(survivors + job)``

    **Grouped scoring.**  ``drain`` depends only on the hardware and the
    member multiset (estimates are canonical), so machines with the same
    hardware and the same :attr:`~repro.fleet.state.MachineView.load`
    differ only in ``ready``, and ``+`` and ``*`` are monotone in it.
    Once per :class:`~repro.fleet.state.FleetState`, the policy groups the
    accepting machines by ``(hardware, load)``; a group is scored once
    per job class ``(kind, graph_seed, num_steps, workload)`` from its
    least ``(ready, index)`` machine (a larger ``ready`` whose cost rounds
    to the same float is checked for a lower index, so the tie rule is
    exactly the machine-by-machine one), and only a full group's
    least-``ready`` machine can make the job wait.  Drain and wait parts
    are memoised per ``(hardware, load, job class)`` for the run, whole
    decisions per ``(state, job class)`` until the tracker's blacklist
    changes — the simulator passes one state object to every ``place``
    call of a dispatch pass until a placement happens, so a queue full
    of repeated job classes costs one decision per class.
    """

    name = "interference-aware"

    def __init__(
        self,
        estimator: StepTimeEstimator,
        tracker: InterferenceTracker | None = None,
        *,
        patience: float = 2.0,
    ) -> None:
        if patience < 1.0:
            raise ValueError("patience must be at least 1.0")
        self.estimator = estimator
        self.tracker = (
            tracker
            if tracker is not None
            else InterferenceTracker(threshold=DEFAULT_INTERFERENCE_THRESHOLD)
        )
        #: How much cheaper (multiplicatively) waiting for a full machine
        #: must look before the policy declines an open slot.  Waiting
        #: competes with the rest of the queue for the freed slot, so the
        #: prediction is optimistic; demanding a clear margin keeps the
        #: policy from starving itself on near-ties.
        self.patience = patience
        self.clear_memo()

    def clear_memo(self) -> None:
        """Drop every memo (called at each simulation start, so per-run
        estimator traffic stays reproducible)."""
        #: Every (hardware, load) of the run, with its memoised costs.
        self._loads: dict[tuple, _Load] = {}
        #: Job classes of the run, numbered (cheap memo keys).
        self._classes: dict[tuple, int] = {}
        #: The state the groups and decisions below belong to.
        self._state: FleetState | None = None
        self._groups: tuple = ((), (), None)
        self._decisions: dict[tuple, str | None] = {}
        self._decided_at = -1

    def _drain(self, machine_name: str, members: list[tuple[Job, int]]) -> float:
        """Predicted seconds until ``members`` all finish on ``machine_name``."""
        total = 0.0
        current = [(job, steps) for job, steps in members if steps > 0]
        while current:
            mix_time = self.estimator.step_time(
                machine_name, [job for job, _ in current]
            )
            rounds = min(steps for _, steps in current)
            total += rounds * mix_time
            current = [
                (job, steps - rounds) for job, steps in current if steps - rounds > 0
            ]
        return total

    def _wait_parts(self, load: _Load, job: Job) -> tuple[float, float]:
        """``(min_remaining - 1) * mix`` and ``drain(survivors + job)``: the
        two parts of waiting for a slot on a full machine holding ``load``."""
        members = load.members
        current_mix = self.estimator.step_time(
            load.hardware, [member for member, _ in members]
        )
        min_remaining = min(steps for _, steps in members)
        survivors = [
            (member, steps - min_remaining)
            for member, steps in members
            if steps > min_remaining
        ]
        survivors.append((job, job.num_steps))
        return (
            (min_remaining - 1) * current_mix,
            self._drain(load.hardware, survivors),
        )

    def _group(self, fleet: FleetState) -> tuple:
        """Group ``fleet``'s accepting machines by ``(hardware, load)``.

        Returns ``(open, full, emptiest)``.  ``open`` lists, per group with
        free slots in first-index order, its :class:`_Load` and its
        distinct ``ready`` values ascending, each with its lowest machine
        index.  ``full`` lists, per group of full machines, its
        :class:`_Load` and least ``ready`` — a draining box's slots open
        for nobody, so a non-accepting machine is never waited on
        (declining for one forever would stall the fleet).  ``emptiest``
        is the open machine with the fewest members, lowest index first.
        """
        now = fleet.time
        loads = self._loads
        open_groups: dict[_Load, list[tuple[float, int]]] = {}
        full_groups: dict[_Load, float] = {}
        emptiest: tuple[int, str] | None = None
        for index, view in enumerate(fleet.machines):
            if not view.accepting:
                continue
            key = (view.machine_name, view.load)
            load = loads.get(key)
            if load is None:
                load = loads[key] = _Load(view)
            ready = max(0.0, view.busy_until - now)
            if view.free_slots > 0:
                size = len(view.load)
                if emptiest is None or size < emptiest[0]:
                    emptiest = (size, view.machine_id)
                readies = open_groups.get(load)
                if readies is None:
                    open_groups[load] = [(ready, index)]
                else:
                    readies.append((ready, index))
            elif view.load:
                least = full_groups.get(load)
                if least is None or ready < least:
                    full_groups[load] = ready
        open_list = []
        for load, readies in open_groups.items():
            readies.sort()
            distinct = [readies[0]]
            for entry in readies[1:]:
                if entry[0] != distinct[-1][0]:
                    distinct.append(entry)
            open_list.append((load, distinct))
        return (
            open_list,
            list(full_groups.items()),
            emptiest[1] if emptiest is not None else None,
        )

    def place(self, job: Job, fleet: FleetState) -> str | None:
        if fleet is not self._state:
            self._groups = self._group(fleet)
            self._state = fleet
            self._decisions = {}
            self._decided_at = self.tracker.changes
        elif self._decided_at != self.tracker.changes:
            self._decisions = {}
            self._decided_at = self.tracker.changes
        job_class = (job.kind, job.graph_seed, job.num_steps, job.workload)
        try:
            return self._decisions[job_class]
        except KeyError:
            choice = self._decisions[job_class] = self._decide(job, job_class)
            return choice

    def _decide(self, job: Job, job_class: tuple) -> str | None:
        open_groups, full_groups, emptiest = self._groups
        if not open_groups:
            return None
        number = self._classes.setdefault(job_class, len(self._classes))
        blocked = self.tracker.blocked_with(job.kind)
        best: tuple[float, int] | None = None
        for load, readies in open_groups:
            if blocked and not blocked.isdisjoint(load.kinds):
                continue
            drain = load.joins.get(number)
            if drain is None:
                drain = load.joins[number] = self._drain(
                    load.hardware, [*load.members, (job, job.num_steps)]
                )
            ready, index = readies[0]
            cost = ready + drain
            for later_ready, later_index in readies[1:]:
                # A larger ready can still round to the same cost; the
                # lowest index among equal costs wins, as machine by
                # machine.
                if later_ready + drain != cost:
                    break
                index = min(index, later_index)
            if best is None or (cost, index) < best:
                best = (cost, index)
        if best is None:
            # Every open machine pairs badly: fall back to the emptiest one
            # rather than queueing the job forever.
            return emptiest
        # Placing now is not always right.  When every open machine is a
        # bad fit — say an idle thermally-limited laptop while a fast box
        # drains its last rounds — it can be cheaper to stay queued and
        # join the fast box once a slot frees.  Progress is guaranteed: a
        # full machine always has a pending round end, and the simulator
        # re-dispatches the queue on every event.
        for load, ready in full_groups:
            parts = load.waits.get(number)
            if parts is None:
                parts = load.waits[number] = self._wait_parts(load, job)
            wait, drain = parts
            if (ready + wait + drain) * self.patience < best[0]:
                return None
        return self._state.machines[best[1]].machine_id


class _Load:
    """One ``(hardware, load)`` of a run: the members of a machine holding
    it, and its memoised join drains and wait parts by job-class number."""

    __slots__ = ("hardware", "members", "kinds", "joins", "waits")

    def __init__(self, view: MachineView) -> None:
        self.hardware = view.machine_name
        self.members = tuple(
            (member, view.remaining_of(member.name)) for member in view.members
        )
        self.kinds = view.member_kinds
        self.joins: dict[int, float] = {}
        self.waits: dict[int, tuple[float, float]] = {}


#: Policy factories by CLI name.  Each takes the simulator's shared
#: estimator and interference tracker (first-fit needs neither but keeps
#: the uniform signature).
POLICIES: dict[str, Callable[[StepTimeEstimator, InterferenceTracker], PlacementPolicy]] = {
    "first-fit": lambda estimator, tracker: FirstFitPolicy(),
    "load-balanced": lambda estimator, tracker: LoadBalancedPolicy(estimator),
    "interference-aware": InterferenceAwarePolicy,
}


def available_policies() -> tuple[str, ...]:
    return tuple(sorted(POLICIES))


def make_policy(
    name: str,
    *,
    estimator: StepTimeEstimator,
    tracker: InterferenceTracker,
) -> PlacementPolicy:
    """Build a registered placement policy by name."""
    try:
        factory = POLICIES[name]
    except KeyError:
        raise KeyError(
            f"unknown policy {name!r}; available: {', '.join(available_policies())}"
        ) from None
    return factory(estimator, tracker)
