"""The interference-aware policy scored machine by machine: a test oracle.

``repro.fleet.policies.InterferenceAwarePolicy`` scores each group of
machines with equal hardware and load once per job class.  This is the
same policy written the direct way — every open machine's join cost and
every full machine's wait cost computed on every call — kept here only
so the tests can check that the grouped policy answers exactly as this
one does.  It answers to the same ``name`` so fleet results compare
byte for byte.
"""

from __future__ import annotations

from repro.core.interference import InterferenceTracker
from repro.fleet.estimates import StepTimeEstimator
from repro.fleet.job import Job
from repro.fleet.state import DEFAULT_INTERFERENCE_THRESHOLD, FleetState, MachineView


class ReferenceInterferenceAwarePolicy:
    """Model-guided placement that avoids harmful co-run pairings.

    Machines whose members include a kind the shared interference
    tracker has blacklisted against the job's kind are skipped (unless
    *every* open machine is blacklisted, in which case the least-loaded
    open machine is used — starving a job is worse than a bad pairing).
    The remaining candidates are scored by predicted marginal cost:

    ``cost = mix_time * job.steps + (mix_time - current_time) * imposed``

    where ``mix_time`` is the estimated gang-round duration with the job
    joining, ``current_time`` without it, and ``imposed`` the resident
    steps that would suffer the slower rounds.  An idle machine scores
    ``solo_time * job.steps`` — co-location only wins when the model
    predicts the mix genuinely overlaps well, which is the fleet-level
    restatement of Strategy 3's "fill idle cores without decreasing
    system throughput".
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
        #: Memoised drain replays.  A queued job is re-scored against the
        #: whole fleet at every event until placed, and the drain of a
        #: (machine, member multiset) is a pure function of the
        #: estimator's pure step times — so identical replays are served
        #: from this dict instead of re-walking the subset ladder.  The
        #: simulator clears it at every run() entry so per-run estimator
        #: traffic stays reproducible.
        self._drain_memo: dict[tuple, float] = {}

    def clear_memo(self) -> None:
        """Drop memoised drain replays (called at each simulation start)."""
        self._drain_memo.clear()

    def _drain_time(self, machine_name: str, members: list[tuple[Job, int]]) -> float:
        """Predicted seconds until ``members`` all finish on ``machine_name``.

        Replays the gang-round dynamics symbolically: the current mix
        runs at its estimated round time until its shortest member
        drains, then the shrunken mix at *its* estimated rate, and so
        on.  Every subset estimate comes from the memoised estimator, so
        the replay costs a handful of dictionary hits — and the whole
        replay is itself memoised by the members' canonical signature.
        """
        key = (
            machine_name,
            tuple(
                sorted(
                    (
                        (job.kind, job.graph_seed, steps, job.workload)
                        for job, steps in members
                        if steps > 0
                    ),
                    key=lambda entry: entry[:3],
                )
            ),
        )
        cached = self._drain_memo.get(key)
        if cached is not None:
            return cached
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
        self._drain_memo[key] = total
        return total

    def _cost_after_join(self, machine: MachineView, job: Job, now: float) -> float:
        """The machine's predicted time-to-drain once ``job`` joins it.

        Minimising this greedily equalises predicted machine finish
        times (what balances the fleet) *and* penalises bad pairings
        (a mix whose round time approaches the sum of the solos drains
        far slower than a complementary one) in a single number.
        """
        members = [
            (member, machine.remaining_of(member.name)) for member in machine.members
        ]
        members.append((job, job.num_steps))
        ready = max(0.0, machine.busy_until - now)
        return ready + self._drain_time(machine.machine_name, members)

    def _cost_after_wait(self, machine: MachineView, job: Job, now: float) -> float:
        """Predicted cost of waiting for a slot on a currently full machine.

        A slot frees once the member with the fewest remaining steps
        drains (rounds until then run at the members' current mix rate);
        the job then joins whatever is left and the machine drains as in
        :meth:`_cost_after_join`.
        """
        members = [
            (member, machine.remaining_of(member.name)) for member in machine.members
        ]
        current_mix = self.estimator.step_time(
            machine.machine_name, [member for member, _ in members]
        )
        min_remaining = min(steps for _, steps in members)
        wait = max(0.0, machine.busy_until - now) + (min_remaining - 1) * current_mix
        survivors = [
            (member, steps - min_remaining)
            for member, steps in members
            if steps > min_remaining
        ]
        survivors.append((job, job.num_steps))
        return wait + self._drain_time(machine.machine_name, survivors)

    def place(self, job: Job, fleet: FleetState) -> str | None:
        open_machines = [
            (index, machine)
            for index, machine in enumerate(fleet.machines)
            if machine.accepting and machine.free_slots > 0
        ]
        if not open_machines:
            return None
        compatible = [
            (index, machine)
            for index, machine in open_machines
            if self.tracker.allowed_with_all(job.kind, machine.member_kinds)
        ]
        if not compatible:
            # Every open machine pairs badly: fall back to the emptiest one
            # rather than queueing the job forever.
            index, machine = min(
                open_machines, key=lambda im: (len(im[1].members), im[0])
            )
            return machine.machine_id
        best: tuple[float, int] | None = None
        chosen: str | None = None
        for index, machine in compatible:
            score = (self._cost_after_join(machine, job, fleet.time), index)
            if best is None or score < best:
                best = score
                chosen = machine.machine_id
        assert best is not None
        # Placing now is not always right.  When every open machine is a
        # bad fit — say an idle thermally-limited laptop while a fast box
        # drains its last rounds — it can be cheaper to stay queued and
        # join the fast box once a slot frees.  Progress is guaranteed: a
        # full machine always has a pending round end, and the simulator
        # re-dispatches the queue on every event.
        for machine in fleet.machines:
            # Never wait on a non-accepting machine: a draining box's
            # slots open for nobody, so the predicted wait is a mirage
            # (and declining for it forever would stall the fleet).
            if machine.free_slots > 0 or not machine.members or not machine.accepting:
                continue
            if self._cost_after_wait(machine, job, fleet.time) * self.patience < best[0]:
                return None
        return chosen
