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

from bisect import bisect_left, insort
from itertools import compress, count
from operator import is_not, itemgetter
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
    The policy keeps the accepting machines grouped by ``(hardware,
    load)`` from one :class:`~repro.fleet.state.FleetState` to the next,
    each group's open and full machines sorted by ``(busy_until,
    index)``; a new state moves only the machines whose view object
    changed (the simulator reuses an untouched machine's view).  ``ready``
    never decreases as ``busy_until`` grows, so a group's equal-cost
    machines are a prefix of that order.  Once per state each open group
    lists its distinct ``ready`` values in that order, each with its
    lowest index; it is scored once per job class ``(kind, graph_seed,
    num_steps, workload)`` from its least ``ready``, and a larger
    ``ready`` whose cost rounds to the same float is checked for a lower
    index, so the tie rule is exactly the machine-by-machine one.  Only a
    full group's least-``busy_until`` machine can make the job wait, and
    full groups are checked in order of their lowest machine index.
    Drain and wait parts are memoised per ``(hardware, load, job class)``
    for the run, whole decisions per ``(state, job class)`` until the
    tracker's blacklist changes — the simulator passes one state object
    to every ``place`` call of a dispatch pass until a placement happens,
    so a queue full of repeated job classes costs one decision per class.
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
        """Drop every memo and group (called at each simulation start, so
        per-run estimator traffic stays reproducible)."""
        #: Every (hardware, load) of the run, with its memoised costs and
        #: its machines in the last state seen.
        self._loads: dict[tuple, _Load] = {}
        #: Job classes of the run, numbered (cheap memo keys).
        self._classes: dict[tuple, int] = {}
        #: The last state seen, its machine views and, per machine index,
        #: where the machine sits: ``(group, open, (busy_until, index))``,
        #: or None outside every group.
        self._state: FleetState | None = None
        self._views: tuple[MachineView, ...] = ()
        self._slots: list[tuple[_Load, bool, tuple[float, int]] | None] = []
        #: Groups holding an open machine, and groups holding a full one
        #: with their lowest full machine index.
        self._open: dict[_Load, None] = {}
        self._full: dict[_Load, int] = {}
        #: The last state's scoring lists (see _regroup).
        self._groups: tuple = ((), ())
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

    def _regroup(self, fleet: FleetState) -> None:
        """Move the groups from the last state seen to ``fleet``.

        Only machines whose view object changed, or that joined, move: a
        view is immutable, so an unchanged one holds the same load, slots
        and ``busy_until``.  Then ``_groups`` becomes ``(open, full)`` for
        ``fleet.time``.  ``open`` lists, per group with an open machine,
        its :class:`_Load` and its distinct ``ready`` values ascending,
        each with its lowest machine index.  ``full`` lists, per group of
        full machines in order of its lowest machine index, its
        :class:`_Load` and least ``ready``.
        """
        views = fleet.machines
        old = self._views
        moved = [*compress(count(), map(is_not, old, views))]
        moved += range(min(len(old), len(views)), max(len(old), len(views)))
        slots = self._slots
        slots += [None] * (len(views) - len(slots))
        for index in moved:
            if slots[index] is not None:
                self._leave(index, *slots[index])
            if index < len(views):
                slots[index] = self._enter(index, views[index])
        del slots[len(views):]
        self._views = views
        # ``ready`` is ``max(0.0, busy_until - now)``, without the call:
        # ``busy_until - now`` is positive exactly when busy_until > now.
        now = fleet.time
        open_groups = []
        for load in self._open:
            readies = []
            for busy_until, index in load.open:
                ready = busy_until - now if busy_until > now else 0.0
                if not readies or ready != readies[-1][0]:
                    readies.append((ready, index))
                elif index < readies[-1][1]:
                    readies[-1] = (ready, index)
            open_groups.append((load, readies))
        full_groups = []
        for load, _ in sorted(self._full.items(), key=itemgetter(1)):
            busy_until = load.full[0][0]
            full_groups.append((load, busy_until - now if busy_until > now else 0.0))
        self._groups = (open_groups, full_groups)

    def _enter(self, index: int, view: MachineView) -> tuple | None:
        """Put machine ``index`` into the group of ``view``; return its
        slot, or None outside every group.

        A draining box's slots open for nobody, so a non-accepting machine
        is in no group: it is never placed on nor waited for (declining
        for one forever would stall the fleet)."""
        if not view.accepting:
            return None
        is_open = view.free_slots > 0
        if not is_open and not view.load:
            return None
        key = (view.machine_name, view.load)
        load = self._loads.get(key)
        if load is None:
            load = self._loads[key] = _Load(view)
        entry = (view.busy_until, index)
        if is_open:
            insort(load.open, entry)
            self._open[load] = None
        else:
            insort(load.full, entry)
            lowest = self._full.get(load)
            if lowest is None or index < lowest:
                self._full[load] = index
        return load, is_open, entry

    def _leave(self, index: int, load: _Load, is_open: bool, entry: tuple) -> None:
        """Take machine ``index`` out of ``load``'s group."""
        machines = load.open if is_open else load.full
        del machines[bisect_left(machines, entry)]
        if not machines:
            del (self._open if is_open else self._full)[load]
        elif not is_open and self._full[load] == index:
            self._full[load] = min(other for _, other in machines)

    def place(self, job: Job, fleet: FleetState) -> str | None:
        if fleet is not self._state:
            self._regroup(fleet)
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
        open_groups, full_groups = self._groups
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
            # (fewest members, lowest index) rather than queueing the job
            # forever.
            _, index = min(
                (len(load.members), min(index for _, index in readies))
                for load, readies in open_groups
            )
            return self._state.machines[index].machine_id
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
    it, its memoised join drains and wait parts by job-class number, and
    its open and full accepting machines in the last state seen, as
    ``(busy_until, index)`` ascending."""

    __slots__ = ("hardware", "members", "kinds", "joins", "waits", "open", "full")

    def __init__(self, view: MachineView) -> None:
        self.hardware = view.machine_name
        self.members = tuple(
            (member, view.remaining_of(member.name)) for member in view.members
        )
        self.kinds = view.member_kinds
        self.joins: dict[int, float] = {}
        self.waits: dict[int, tuple[float, float]] = {}
        self.open: list[tuple[float, int]] = []
        self.full: list[tuple[float, int]] = []


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
