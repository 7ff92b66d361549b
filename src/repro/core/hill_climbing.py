"""The hill-climbing performance model (Section III-C).

For every operation signature (type + input shapes) the profiler runs the
operation standalone with an increasing number of threads — starting from
the smallest feasible count and stepping by the *interval* ``x`` — once
per affinity (cache sharing / no cache sharing), and stops as soon as the
measured time increases (or the chip is full).  The measured samples give

* the best configuration found (the runtime's Strategy 1 choice), and
* a piecewise-linear interpolation that predicts the execution time of
  every *untested* configuration (what Strategy 3 needs to evaluate
  co-running candidates).

The model is architecture-independent and needs no knowledge of the
operation's internals, which is why the paper prefers it over the
regression model.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass, field
from operator import itemgetter
from typing import Callable, Iterable, Mapping

from repro.core.perf_model import ConfigurationPrediction, PredictionAccuracy
from repro.execsim.standalone import StandaloneRunner
from repro.graph.dataflow import DataflowGraph
from repro.graph.op import OpInstance, OpSignature
from repro.hardware.affinity import AffinityMode, ThreadPlacement
from repro.hardware.topology import Machine
from repro.sweep.executor import get_default_executor
from repro.sweep.tasks import op_sweep_totals


@dataclass
class HillClimbingProfile:
    """Profiling outcome for one operation signature."""

    signature: OpSignature
    #: Measured times of the sampled configurations.
    samples: dict[tuple[int, AffinityMode], float] = field(default_factory=dict)
    #: Number of standalone measurements taken.
    measurements: int = 0
    #: Lazily-built per-affinity ``(counts, times)`` arrays for bisect-based
    #: interpolation; rebuilt whenever the sample count changes.
    _tables: dict[AffinityMode, tuple[tuple[int, ...], tuple[float, ...]]] = field(
        default_factory=dict, init=False, repr=False, compare=False
    )
    #: ``(cases, ranked items)`` of the last :meth:`HillClimbingModel.top_configurations`
    #: ranking, dropped with the tables.
    _ranking: tuple | None = field(default=None, init=False, repr=False, compare=False)
    _tables_stamp: int = field(default=-1, init=False, repr=False, compare=False)

    def best(self) -> ConfigurationPrediction:
        if not self.samples:
            raise ValueError(f"no samples collected for {self.signature}")
        (threads, affinity), time = min(self.samples.items(), key=lambda kv: kv[1])
        return ConfigurationPrediction(threads=threads, affinity=affinity, predicted_time=time)

    def sampled_counts(self, affinity: AffinityMode) -> list[int]:
        return sorted(t for (t, a) in self.samples if a is affinity)

    def invalidate_tables(self) -> None:
        """Drop the cached interpolation tables and ranking.

        Call after *replacing* an existing sample's value in place;
        adding or removing samples is detected automatically (the cache
        is stamped with the sample count).
        """
        self._tables.clear()
        self._ranking = None
        self._tables_stamp = -1

    def _check_stamp(self) -> None:
        if self._tables_stamp != len(self.samples):
            self._tables.clear()
            self._ranking = None
            self._tables_stamp = len(self.samples)

    def ranking(self, cases: list, rank: Callable[[], list]) -> list:
        """``rank()``, memoised per ``cases`` list under the tables' stamp.

        ``rank`` returns the ``cases`` with their predicted times, sorted
        by time; it reads only the samples, so the result stays valid
        exactly as long as the interpolation tables do.
        """
        self._check_stamp()
        cached = self._ranking
        if cached is None or cached[0] is not cases:
            cached = self._ranking = (cases, rank())
        return cached[1]

    def interpolation_table(
        self, affinity: AffinityMode
    ) -> tuple[tuple[int, ...], tuple[float, ...]]:
        """Sorted ``(counts, times)`` arrays of the samples for ``affinity``.

        The prediction hot path binary-searches these instead of
        rebuilding a dict and linearly scanning for a bracketing interval
        on every call.  Tables rebuild whenever the sample *count*
        changes (the way profiling mutates ``samples``); code that
        overwrites an existing sample's value must call
        :meth:`invalidate_tables`.
        """
        self._check_stamp()
        table = self._tables.get(affinity)
        if table is None:
            counts = tuple(sorted(t for (t, a) in self.samples if a is affinity))
            times = tuple(self.samples[(c, affinity)] for c in counts)
            table = (counts, times)
            self._tables[affinity] = table
        return table


def _interpolate(counts: tuple[int, ...], times: tuple[float, ...], threads: int) -> float:
    """Predicted time at ``threads`` from one affinity's sorted samples."""
    index = bisect_left(counts, threads)
    if index < len(counts) and counts[index] == threads:
        return times[index]
    if index == 0:  # below the smallest sampled count
        return times[0]
    if index == len(counts):  # beyond the last sampled count
        if len(counts) == 1:
            return times[0]
        # Extrapolate past the stopping point with the average slope of
        # the last few samples, clamped to a plausible band: beyond the
        # optimum the true curve rises slowly, so a noisy two-point slope
        # must not be allowed to explode.
        first = -3 if len(counts) >= 3 else -2
        slope = (times[-1] - times[first]) / (counts[-1] - counts[first])
        slope = max(slope, 0.0)
        last = times[-1]
        extrapolated = last + slope * (threads - counts[-1])
        return float(min(max(extrapolated, last * 0.8), last * 2.5))
    # interior: counts[index - 1] < threads < counts[index]
    lower, upper = counts[index - 1], counts[index]
    weight = (threads - lower) / (upper - lower)
    return times[index - 1] * (1 - weight) + times[index] * weight


class HillClimbingModel:
    """Performance model built by hill climbing plus linear interpolation."""

    def __init__(
        self,
        machine: Machine,
        interval: int = 4,
        *,
        stop_tolerance: float = 0.02,
    ) -> None:
        if interval < 1:
            raise ValueError("interval must be at least 1")
        if stop_tolerance < 0:
            raise ValueError("stop_tolerance must be non-negative")
        self.machine = machine
        self.interval = interval
        #: Relative increase that counts as "the execution time increased";
        #: a small tolerance keeps measurement noise from stopping the climb
        #: prematurely.
        self.stop_tolerance = stop_tolerance
        self._profiles: dict[OpSignature, HillClimbingProfile] = {}
        self._cases: list[tuple[int, AffinityMode]] | None = None

    # -- profiling -----------------------------------------------------------------

    def _ladder(self, affinity: AffinityMode) -> list[int]:
        """The thread counts the hill climb may visit for ``affinity``."""
        feasible = ThreadPlacement.feasible_thread_counts(affinity, self.machine.topology)
        start = feasible[0]
        ladder = [c for c in feasible if (c - start) % self.interval == 0]
        if ladder[-1] != feasible[-1]:
            ladder.append(feasible[-1])
        return ladder

    def profile_operation(self, op: OpInstance, runner: StandaloneRunner) -> HillClimbingProfile:
        """Run the hill climb for one operation (both affinities)."""
        signature = op.signature
        if signature in self._profiles:
            return self._profiles[signature]
        profile = HillClimbingProfile(signature=signature)
        for affinity in (AffinityMode.SPREAD, AffinityMode.SHARED):
            previous: float | None = None
            for threads in self._ladder(affinity):
                measured = runner.run(op, threads, affinity)
                profile.samples[(threads, affinity)] = measured
                profile.measurements += 1
                if previous is not None and measured > previous * (1.0 + self.stop_tolerance):
                    # First increase: the previous count was the local optimum
                    # for this affinity — stop climbing (Section III-C).
                    break
                previous = min(measured, previous) if previous is not None else measured
        self._profiles[signature] = profile
        return profile

    def profile_graph(
        self,
        graph: DataflowGraph,
        runner: StandaloneRunner,
        *,
        only_tunable: bool = True,
    ) -> int:
        """Profile every unique signature in ``graph``.

        Returns the number of distinct signatures profiled.  Untunable
        (Eigen-implemented) operations are skipped when ``only_tunable``
        because the runtime does not change their concurrency.
        """
        count = 0
        for op in graph:
            if only_tunable and not op.is_tunable:
                continue
            if op.signature in self._profiles:
                continue
            self.profile_operation(op, runner)
            count += 1
        return count

    def add_profile(self, profile: HillClimbingProfile) -> None:
        """Insert an externally-built profile (useful for tests)."""
        self._profiles[profile.signature] = profile

    # -- bookkeeping ------------------------------------------------------------------

    @property
    def signatures(self) -> tuple[OpSignature, ...]:
        return tuple(self._profiles)

    def profile_for(self, signature: OpSignature) -> HillClimbingProfile:
        return self._profiles[signature]

    def knows(self, signature: OpSignature) -> bool:
        return signature in self._profiles

    def total_measurements(self) -> int:
        return sum(p.measurements for p in self._profiles.values())

    def profiling_steps_used(self) -> int:
        """Upper bound on the number of profiling *training steps* needed.

        The paper runs the ops serially inside N profiling steps, one
        (threads, affinity) sample case per step, so N is bounded by the
        longest ladder: at most ``C / x * 2`` where ``C`` is the core count.
        """
        spread = len(self._ladder(AffinityMode.SPREAD))
        shared = len(self._ladder(AffinityMode.SHARED))
        return spread + shared

    # -- prediction ----------------------------------------------------------------------

    def _profile(self, signature: OpSignature) -> HillClimbingProfile:
        profile = self._profiles.get(signature)
        if profile is None:
            raise KeyError(f"signature not profiled: {signature}")
        return profile

    @staticmethod
    def _table(
        profile: HillClimbingProfile, affinity: AffinityMode
    ) -> tuple[tuple[int, ...], tuple[float, ...]]:
        table = profile.interpolation_table(affinity)
        if not table[0]:
            raise KeyError(f"no samples for affinity {affinity} of {profile.signature}")
        return table

    def predict(self, signature: OpSignature, threads: int, affinity: AffinityMode) -> float:
        """Predicted execution time via piecewise-linear interpolation.

        Configurations beyond the last sampled count are extrapolated from
        the last two samples of that affinity (the climb stopped there
        because times started rising).
        """
        if threads < 1:
            raise ValueError("threads must be at least 1")
        counts, times = self._table(self._profile(signature), affinity)
        return _interpolate(counts, times, threads)

    def _all_cases(self) -> list[tuple[int, AffinityMode]]:
        if self._cases is None:
            cases: list[tuple[int, AffinityMode]] = []
            for affinity in (AffinityMode.SPREAD, AffinityMode.SHARED):
                for count in ThreadPlacement.feasible_thread_counts(
                    affinity, self.machine.topology
                ):
                    cases.append((count, affinity))
            self._cases = cases
        return self._cases

    def _predictions(self, signature: OpSignature) -> list[tuple[tuple[int, AffinityMode], float]]:
        """``(case, predict(signature, *case))`` for every case, in case order.

        The profile and each affinity's table are looked up once, not
        once per case.
        """
        profile = self._profile(signature)
        predictions = []
        table_affinity = None
        for case in self._all_cases():
            threads, affinity = case
            if affinity is not table_affinity:
                counts, times = self._table(profile, affinity)
                table_affinity = affinity
            predictions.append((case, _interpolate(counts, times, threads)))
        return predictions

    def predict_all(self, signature: OpSignature) -> dict[tuple[int, AffinityMode], float]:
        """Predictions for every feasible (threads, affinity) case."""
        return dict(self._predictions(signature))

    def best_configuration(self, signature: OpSignature) -> ConfigurationPrediction:
        """The best *measured* configuration (the hill climb's answer)."""
        return self._profiles[signature].best()

    def top_configurations(
        self, signature: OpSignature, count: int
    ) -> list[ConfigurationPrediction]:
        """The ``count`` most performant configurations by predicted time.

        The ranking is the :meth:`predict_all` items stably sorted by time
        (ties keep case order: SPREAD counts ascending, then SHARED).  It
        is kept on the profile beside its interpolation tables and dropped
        with them (a sample added, or
        :meth:`HillClimbingProfile.invalidate_tables`), so every Strategy-3
        decision after the first reads it.
        """
        if count < 1:
            raise ValueError("count must be at least 1")
        ranked = self._profile(signature).ranking(
            self._all_cases(),
            lambda: sorted(self._predictions(signature), key=itemgetter(1)),
        )
        return [
            ConfigurationPrediction(threads=t, affinity=a, predicted_time=time)
            for (t, a), time in ranked[:count]
        ]

    # -- accuracy -------------------------------------------------------------------------

    def accuracy_against(
        self,
        ground_truth: Mapping[OpSignature, Mapping[tuple[int, AffinityMode], float]],
        *,
        untested_only: bool = True,
    ) -> PredictionAccuracy:
        """Prediction accuracy against exhaustive ground-truth sweeps.

        ``untested_only`` restricts the evaluation to configurations the
        hill climb did *not* measure (the paper evaluates how well the
        interpolation predicts unseen cases).
        """
        true_times: list[float] = []
        predicted: list[float] = []
        for signature, truth in ground_truth.items():
            if not self.knows(signature):
                continue
            profile = self._profiles[signature]
            for (threads, affinity), true_time in truth.items():
                if untested_only and (threads, affinity) in profile.samples:
                    continue
                try:
                    predicted_time = self.predict(signature, threads, affinity)
                except KeyError:
                    continue
                true_times.append(true_time)
                predicted.append(predicted_time)
        return PredictionAccuracy.from_pairs(true_times, predicted)


def ground_truth_sweeps(
    ops: Iterable[OpInstance],
    runner: StandaloneRunner,
    *,
    executor=None,
) -> dict[OpSignature, dict[tuple[int, AffinityMode], float]]:
    """Exhaustive noise-free sweeps for a set of operations (per signature).

    The per-signature sweeps are independent, so they fan out over the
    sweep engine (and its cross-run cache); results are assembled in
    first-encounter order, identical to the original serial loop.
    """
    executor = executor or get_default_executor()
    pending: dict[OpSignature, OpInstance] = {}
    for op in ops:
        if op.signature not in pending:
            pending[op.signature] = op
    signatures = list(pending)
    totals = executor.map(
        op_sweep_totals,
        [
            (runner.characteristics(pending[signature]), runner.machine)
            for signature in signatures
        ],
    )
    return dict(zip(signatures, totals))
