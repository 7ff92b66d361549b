"""Regression tests: bisect-based HillClimbingModel.predict and the
memoised Strategy-3 ranking.

``predict`` was rewritten from a per-call dict rebuild plus linear
bracket scan to cached sorted arrays plus ``bisect``.  These tests pin
the new implementation to a verbatim copy of the original algorithm
across every feasible configuration, including the extrapolation band
beyond the climb's stopping point.

``top_configurations`` keeps each profile's ranking beside its tables.
A generated test compares it, for every ``count``, with the stable sort
of the reference predictions over the cases, bit for bit, before and
after the profile changes.  Tier-1 runs a small derandomized profile;
``make fuzz`` sets ``REPRO_FUZZ_EXAMPLES`` for a long randomized run.
"""

from __future__ import annotations

import os

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from repro.core.config import RuntimeConfig
from repro.core.hill_climbing import HillClimbingModel, HillClimbingProfile
from repro.core.runtime import TrainingRuntime
from repro.execsim.simulator import StepSimulator
from repro.execsim.standalone import StandaloneRunner
from repro.graph.synthetic import synthetic_graph
from repro.hardware.affinity import AffinityMode, ThreadPlacement
from repro.hardware.zoo import available_machines, get_machine

from tests.conftest import make_conv_op, make_elementwise_op

FUZZ_EXAMPLES = int(os.environ.get("REPRO_FUZZ_EXAMPLES", "0"))


def _reference_predict(profile: HillClimbingProfile, threads: int, affinity: AffinityMode):
    """Verbatim copy of the seed implementation's interpolation."""
    counts = sorted(t for (t, a) in profile.samples if a is affinity)
    if not counts:
        raise KeyError("no samples")
    times = {c: profile.samples[(c, affinity)] for c in counts}
    if threads in times:
        return times[threads]
    if threads < counts[0]:
        return times[counts[0]]
    if threads > counts[-1]:
        if len(counts) == 1:
            return times[counts[0]]
        tail = counts[-3:] if len(counts) >= 3 else counts[-2:]
        slope = (times[tail[-1]] - times[tail[0]]) / (tail[-1] - tail[0])
        slope = max(slope, 0.0)
        last = times[counts[-1]]
        extrapolated = last + slope * (threads - counts[-1])
        return float(min(max(extrapolated, last * 0.8), last * 2.5))
    for lower, upper in zip(counts, counts[1:]):
        if lower <= threads <= upper:
            weight = (threads - lower) / (upper - lower)
            return times[lower] * (1 - weight) + times[upper] * weight
    raise AssertionError("unreachable")


def _profiled_model(knl, ops, interval=4):
    model = HillClimbingModel(knl, interval=interval)
    runner = StandaloneRunner(knl)
    for op in ops:
        model.profile_operation(op, runner)
    return model


class TestBisectPredictRegression:
    def test_identical_predictions_across_all_cases(self, knl):
        ops = [
            make_conv_op("Conv2D", (32, 8, 8, 384)),
            make_conv_op("Conv2DBackpropFilter", (32, 16, 16, 128)),
            make_elementwise_op("Mul", (32, 8, 8, 384)),
        ]
        model = _profiled_model(knl, ops)
        for op in ops:
            profile = model.profile_for(op.signature)
            for affinity in (AffinityMode.SPREAD, AffinityMode.SHARED):
                for threads in range(1, knl.topology.num_logical_cpus + 1):
                    expected = _reference_predict(profile, threads, affinity)
                    actual = model.predict(op.signature, threads, affinity)
                    assert actual == expected, (op.op_type, threads, affinity)

    def test_identical_on_synthetic_graph_signatures(self, knl):
        graph = synthetic_graph(120, seed=21)
        model = HillClimbingModel(knl, interval=8)
        runner = StandaloneRunner(knl)
        model.profile_graph(graph, runner)
        assert model.signatures
        for signature in model.signatures:
            profile = model.profile_for(signature)
            for affinity in (AffinityMode.SPREAD, AffinityMode.SHARED):
                for threads in (1, 2, 3, 7, 17, 34, 35, 68, 100, 272):
                    expected = _reference_predict(profile, threads, affinity)
                    actual = model.predict(signature, threads, affinity)
                    assert actual == expected, (str(signature), threads, affinity)

    def test_single_sample_profile(self, knl):
        profile = HillClimbingProfile(signature=make_conv_op().signature)
        profile.samples[(4, AffinityMode.SPREAD)] = 2.5
        model = HillClimbingModel(knl)
        model.add_profile(profile)
        sig = make_conv_op().signature
        assert model.predict(sig, 1, AffinityMode.SPREAD) == 2.5
        assert model.predict(sig, 4, AffinityMode.SPREAD) == 2.5
        assert model.predict(sig, 40, AffinityMode.SPREAD) == 2.5
        with pytest.raises(KeyError):
            model.predict(sig, 4, AffinityMode.SHARED)

    def test_table_invalidated_when_samples_grow(self, knl):
        """Profiling after a prediction must not serve a stale table."""
        profile = HillClimbingProfile(signature=make_conv_op().signature)
        profile.samples[(1, AffinityMode.SPREAD)] = 4.0
        profile.samples[(9, AffinityMode.SPREAD)] = 1.0
        model = HillClimbingModel(knl)
        model.add_profile(profile)
        sig = make_conv_op().signature
        assert model.predict(sig, 5, AffinityMode.SPREAD) == pytest.approx(2.5)
        profile.samples[(5, AffinityMode.SPREAD)] = 2.0
        assert model.predict(sig, 5, AffinityMode.SPREAD) == 2.0

    def test_in_place_replacement_needs_invalidate(self, knl):
        """Overwriting a sample's value requires an explicit invalidate."""
        profile = HillClimbingProfile(signature=make_conv_op().signature)
        profile.samples[(1, AffinityMode.SPREAD)] = 4.0
        profile.samples[(9, AffinityMode.SPREAD)] = 1.0
        model = HillClimbingModel(knl)
        model.add_profile(profile)
        sig = make_conv_op().signature
        assert model.predict(sig, 9, AffinityMode.SPREAD) == 1.0
        profile.samples[(9, AffinityMode.SPREAD)] = 3.0
        profile.invalidate_tables()
        assert model.predict(sig, 9, AffinityMode.SPREAD) == 3.0
        assert model.predict(sig, 5, AffinityMode.SPREAD) == pytest.approx(3.5)

    def test_invalid_inputs(self, knl):
        model = HillClimbingModel(knl)
        with pytest.raises(ValueError):
            model.predict(make_conv_op().signature, 0, AffinityMode.SPREAD)
        with pytest.raises(KeyError):
            model.predict(make_conv_op().signature, 4, AffinityMode.SPREAD)


# -- Strategy-3 ranking ----------------------------------------------------------------

AFFINITIES = (AffinityMode.SPREAD, AffinityMode.SHARED)
ZOO = {name: get_machine(name) for name in available_machines()}
SIGNATURE = make_conv_op().signature

#: Repeated values give exact ties, between samples and between cases.
times = st.one_of(
    st.sampled_from((0.25, 0.5, 1.0, 2.0, 4.0)),
    st.floats(min_value=1e-6, max_value=10.0),
)


def _cases(machine):
    """Every feasible case in ranking tie order: SPREAD ascending, then SHARED."""
    return [
        (count, affinity)
        for affinity in AFFINITIES
        for count in sorted(ThreadPlacement.feasible_thread_counts(affinity, machine.topology))
    ]


@st.composite
def ranking_cases(draw):
    name = draw(st.sampled_from(sorted(ZOO)))
    cases = _cases(ZOO[name])
    samples = {}
    for affinity in AFFINITIES:
        counts = [count for count, mode in cases if mode is affinity]
        for count in draw(st.lists(st.sampled_from(counts), min_size=1, max_size=8, unique=True)):
            samples[(count, affinity)] = draw(times)
    unsampled = [case for case in cases if case not in samples]
    added = (draw(st.sampled_from(unsampled)), draw(times)) if unsampled else None
    replaced = (draw(st.sampled_from(list(samples))), draw(times))
    return dict(machine=name, samples=samples, added=added, replaced=replaced)


S, H = AffinityMode.SPREAD, AffinityMode.SHARED

#: The SPREAD tail rises steeply, so extrapolation hits the 2.5x ceiling;
#: the SHARED tail falls, so its slope is clamped to zero.
CLAMPED_TAILS = dict(
    machine="knl",
    samples={(1, S): 0.5, (5, S): 1.0, (9, S): 4.0, (2, H): 3.0, (6, H): 1.0, (10, H): 0.25},
    added=((13, S), 1.0),
    replaced=((10, H), 0.5),
)

#: One SPREAD sample, exact ties across and within affinities.
SINGLE_SAMPLE_TIES = dict(
    machine="desktop-8c",
    samples={(4, S): 1.0, (2, H): 1.0, (4, H): 1.0, (8, H): 2.0},
    added=((1, S), 1.0),
    replaced=((4, S), 2.0),
)


def _reference_ranking(profile, cases):
    predictions = [(case, _reference_predict(profile, *case)) for case in cases]
    ranked = sorted(predictions, key=lambda item: item[1])
    return [(threads, affinity, time.hex()) for (threads, affinity), time in ranked]


def _assert_ranking_matches(model, profile, cases):
    expected = _reference_ranking(profile, cases)
    for count in range(1, len(cases) + 2):
        top = model.top_configurations(profile.signature, count)
        got = [(c.threads, c.affinity, c.predicted_time.hex()) for c in top]
        assert got == expected[:count], count


@settings(
    max_examples=FUZZ_EXAMPLES or 80,
    derandomize=not FUZZ_EXAMPLES,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(case=ranking_cases())
@example(case=CLAMPED_TAILS)
@example(case=SINGLE_SAMPLE_TIES)
def test_ranking_matches_reference(case):
    machine = ZOO[case["machine"]]
    cases = _cases(machine)
    profile = HillClimbingProfile(signature=SIGNATURE)
    profile.samples.update(case["samples"])
    model = HillClimbingModel(machine)
    model.add_profile(profile)
    _assert_ranking_matches(model, profile, cases)
    if case["added"] is not None:
        key, time = case["added"]
        profile.samples[key] = time
        _assert_ranking_matches(model, profile, cases)
    key, time = case["replaced"]
    profile.samples[key] = time
    profile.invalidate_tables()
    _assert_ranking_matches(model, profile, cases)


class TestRanking:
    def test_examples_hit_both_clamps(self):
        profile = HillClimbingProfile(signature=SIGNATURE, samples=dict(CLAMPED_TAILS["samples"]))
        assert _reference_predict(profile, 34, S) == 2.5 * 4.0
        assert _reference_predict(profile, 68, H) == 0.25

    def test_errors_match_unmemoised(self, knl):
        model = HillClimbingModel(knl)
        with pytest.raises(ValueError):
            model.top_configurations(SIGNATURE, 0)
        with pytest.raises(KeyError):
            model.top_configurations(SIGNATURE, 3)
        profile = HillClimbingProfile(signature=SIGNATURE, samples={(4, S): 1.0})
        model.add_profile(profile)
        with pytest.raises(ValueError):
            model.top_configurations(SIGNATURE, 0)
        # SHARED has no samples; the failed ranking must not be kept.
        with pytest.raises(KeyError):
            model.top_configurations(SIGNATURE, 3)
        profile.samples[(2, H)] = 0.5
        _assert_ranking_matches(model, profile, _cases(knl))


class TestPolicyAcrossSteps:
    """A policy reused across steps ranks with the profiles' current samples."""

    def test_second_step_reads_new_samples(self, knl):
        graph = synthetic_graph(40, seed=5)
        runtime = TrainingRuntime(knl, RuntimeConfig())
        model = runtime.profile(graph)
        policy = runtime.build_policy(model)

        def step(policy):
            result = StepSimulator(knl).run_step(graph, policy)
            return [
                (r.op_name, r.threads, r.affinity, r.start_time.hex(), r.finish_time.hex())
                for r in result.trace.records
            ]

        first = step(policy)
        spread = ThreadPlacement.feasible_thread_counts(S, knl.topology)
        for signature in model.signatures:
            profile = model.profile_for(signature)
            missing = [count for count in spread if (count, S) not in profile.samples]
            profile.samples[(missing[0], S)] = min(profile.samples.values()) / 2
            profile.samples[(1, S)] *= 4
            profile.invalidate_tables()
        second = step(policy)
        fresh_policy = runtime.build_policy(model)
        assert second == step(fresh_policy)
        assert second != first
        for op in graph:
            assert policy._candidates(op) == fresh_policy._candidates(op)
