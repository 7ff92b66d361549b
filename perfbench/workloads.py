"""The benchmark's workloads: inputs, timed region and output checks.

Each workload is three steps run inside one fresh interpreter
(``child.py``):

* ``setup(seed, toy, tmp)`` generates every input from the seed and does
  the warm-up the workload declares (none for ``paper-cold``);
* ``timed(state)`` is the measured region and returns the raw results;
* ``check(state, raw)`` turns the results into per-operation digests,
  the ``sim_*`` figures and the names of operations that failed a check.

An *operation* is one checked unit of work: a model schedule, a Table IV
cell, a fleet run or a store round trip.  Every digest is the SHA-256 of
the ``sort_keys`` JSON of the operation's deterministic output, so two
commits can be compared digest by digest.

``toy=True`` shrinks every workload for the self-test; its digests are
never compared with the recorded ones.

Every ``repro`` module the timed regions use is imported here, so its
import cost is set-up time, the same in traced and untraced runs.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import math
from pathlib import Path

from repro.api import DEFAULT_FLEET
from repro.core.runtime import TrainingRuntime
from repro.experiments import fleet_corun, table4_regression
from repro.experiments.common import build_paper_model
from repro.fleet import (
    DEFAULT_JOB_MIX,
    AdmissionController,
    FleetSimulator,
    PoissonArrivals,
    ReplayArrivals,
    StepTimeEstimator,
    available_policies,
)
from repro.fleet.simulator import OVERHEAD_KEYS
from repro.hardware.knl import knl_machine
from repro.hardware.zoo import available_machines
from repro.resilience.checkpoint import CheckpointConfig
from repro.scenarios import Workload
from repro.store import RunStore, jsonify, make_record

#: Graph seed of the first catalog entry, whatever the benchmark seed.
#: The seed varies the traffic (kinds, step counts, arrival times); the
#: programs the jobs train stay the same, so every seed exercises the
#: same regime.  Equal to the default seed, so the default-seed traces
#: are exactly ``PoissonArrivals(seed=42)``'s.
CATALOG_SEED = 42

#: Small synthetic training graphs (12-24 ops) for the fleet workloads:
#: estimates are cheap to prewarm, so the timed region measures the
#: fleet layers, not profiling.
FLEET_CATALOG = (
    Workload(synthetic_ops=16, synthetic_width=4, heavy_fraction=0.6, label="train-heavy"),
    Workload(synthetic_ops=24, synthetic_width=4, heavy_fraction=0.3, label="train-wide"),
    Workload(synthetic_ops=12, synthetic_width=2, heavy_fraction=0.1, label="train-light"),
)

OVERLOAD_QUEUE_LIMIT = 16
LONG_CHECKPOINT_INTERVAL = 10_000


def digest(value) -> str:
    """SHA-256 of the ``sort_keys`` JSON encoding of ``value``."""
    token = json.dumps(value, sort_keys=True)
    return hashlib.sha256(token.encode("utf-8")).hexdigest()


def poisson_trace(seed: int, num_jobs: int, mean_interarrival: float, steps, workloads):
    """Poisson arrivals drawn from ``seed`` over the ``workloads`` catalog.

    Returned as a :class:`~repro.fleet.ReplayArrivals` stream of the
    generated jobs, with each job's graph seed moved from ``seed`` to
    :data:`CATALOG_SEED`.
    """
    process = PoissonArrivals(
        num_jobs=num_jobs,
        seed=seed,
        mean_interarrival=mean_interarrival,
        workloads=workloads,
        min_steps=steps[0],
        max_steps=steps[1],
    )
    shift = CATALOG_SEED - seed
    return ReplayArrivals(
        trace=tuple(
            dataclasses.replace(job, graph_seed=job.graph_seed + shift)
            for job in process.jobs()
        )
    )


def _fleet_digest(result) -> str:
    return digest(result.to_dict(include_overhead=False))


def _accounting_ok(result) -> bool:
    handled = len(result.completions) + len(result.failures) + len(result.rejections)
    return handled == result.num_jobs


# -- paper-cold ---------------------------------------------------------------------


def paper_cold_sizes(toy: bool) -> dict:
    return {
        "models": ["resnet50", "dcgan", "inception_v3", "lstm"],
        "reduced_models": toy,
        "table4_sample_counts": [4],
        "table4_max_ops": [8, 4] if toy else None,
        "fleet_jobs": 12 if toy else 200,
        "fleet_machines": 3 if toy else 9,
        "fleet_mean_interarrival_s": 1.0,
        "fleet_steps": [3, 10],
    }


def paper_cold_setup(seed: int, toy: bool, tmp: Path) -> dict:
    sizes = paper_cold_sizes(toy)
    return {
        "sizes": sizes,
        "machine": knl_machine(),
        "graphs": {
            name: build_paper_model(name, reduced=toy) for name in sizes["models"]
        },
        "fleet_trace": poisson_trace(
            seed,
            sizes["fleet_jobs"],
            sizes["fleet_mean_interarrival_s"],
            sizes["fleet_steps"],
            DEFAULT_JOB_MIX,
        ),
        "fleet_machines": available_machines()[: sizes["fleet_machines"]],
    }


def paper_cold_timed(state: dict) -> dict:
    sizes = state["sizes"]
    reports = {
        name: TrainingRuntime(state["machine"]).run(graph)
        for name, graph in state["graphs"].items()
    }
    max_ops = sizes["table4_max_ops"]
    table4 = table4_regression.run(
        sample_counts=tuple(sizes["table4_sample_counts"]),
        **({} if max_ops is None else {"max_train_ops": max_ops[0], "max_test_ops": max_ops[1]}),
    )
    fleet = fleet_corun.run(
        machines=state["fleet_machines"],
        num_jobs=sizes["fleet_jobs"],
        arrival_process=state["fleet_trace"],
    )
    return {"reports": reports, "table4": table4, "fleet": fleet}


def paper_cold_check(state: dict, raw: dict) -> dict:
    ops: dict[str, str] = {}
    failed: list[str] = []
    speedups = []
    for name, report in raw["reports"].items():
        key = f"schedule/{name}"
        times = (report.step_time, report.recommendation_time)
        ops[key] = digest([float(t).hex() for t in times])
        if not all(math.isfinite(t) and t > 0 for t in times):
            failed.append(key)
        else:
            speedups.append(report.recommendation_time / report.step_time)
    table4 = raw["table4"]
    for cell in sorted(table4.accuracy):
        key = "table4/{}/N={}".format(*cell)
        values = (table4.accuracy[cell], table4.r2[cell])
        ops[key] = digest([float(v).hex() for v in values])
        if not all(math.isfinite(v) for v in values):
            failed.append(key)
    rows = {row.policy: row for row in raw["fleet"].rows}
    for policy, row in sorted(rows.items()):
        key = f"fleet/{policy}"
        ops[key] = digest(jsonify(row))
        if not (row.makespan > 0 and row.failed_jobs == 0 and row.rejections == 0):
            failed.append(key)
    geomean = math.exp(sum(map(math.log, speedups)) / len(speedups)) if speedups else 0.0
    aware = rows["interference-aware"]
    return {
        "ops": ops,
        "failed": failed,
        "sim": {
            "sim_makespan_s": aware.makespan,
            "sim_speedup_vs_tf": geomean,
            "sim_p99_wait_s": aware.p99_wait,
            "sim_shed_rate": 0.0,
        },
    }


# -- fleet-overload -----------------------------------------------------------------


def fleet_overload_sizes(toy: bool) -> dict:
    return {
        "jobs": 150 if toy else 4500,
        "steps": [3, 10],
        "mean_interarrival_s": 0.125 if toy else 0.0125,
        "fleet_copies": 2 if toy else 20,
        "queue_limit": OVERLOAD_QUEUE_LIMIT,
        "catalog_ops": [workload.synthetic_ops for workload in FLEET_CATALOG],
    }


def fleet_overload_setup(seed: int, toy: bool, tmp: Path) -> dict:
    sizes = fleet_overload_sizes(toy)
    process = poisson_trace(
        seed, sizes["jobs"], sizes["mean_interarrival_s"], sizes["steps"], FLEET_CATALOG
    )
    machines = DEFAULT_FLEET * sizes["fleet_copies"]
    estimator = StepTimeEstimator()
    # Warm-up: every solo and pair mix, so the timed region computes no
    # estimate and measures placement against a warm memo.
    estimator.prewarm(machines, process.prewarm_jobs(), max_corun=2)
    return {
        "sizes": sizes,
        "process": process,
        "machines": machines,
        "estimator": estimator,
        "admission": AdmissionController(queue_limit=sizes["queue_limit"]),
    }


def fleet_overload_timed(state: dict) -> dict:
    results = {}
    for policy in available_policies():
        simulator = FleetSimulator(
            state["machines"],
            policy=policy,
            estimator=state["estimator"],
            admission=state["admission"],
        )
        results[policy] = simulator.run(state["process"])
    return {"results": results}


def fleet_overload_check(state: dict, raw: dict) -> dict:
    ops: dict[str, str] = {}
    failed: list[str] = []
    limit = state["sizes"]["queue_limit"]
    for policy, result in sorted(raw["results"].items()):
        key = f"fleet/{policy}"
        ops[key] = _fleet_digest(result)
        if not (_accounting_ok(result) and result.peak_queue_depth <= limit):
            failed.append(key)
    aware = raw["results"]["interference-aware"]
    return {
        "ops": ops,
        "failed": failed,
        "sim": {
            "sim_makespan_s": aware.makespan,
            "sim_p99_wait_s": aware.wait_percentiles["p99"],
            "sim_shed_rate": aware.shed_rate,
        },
    }


# -- fleet-long ---------------------------------------------------------------------


def fleet_long_sizes(toy: bool) -> dict:
    return {
        "jobs": 200 if toy else 15_000,
        "steps": [900, 2700],
        "mean_interarrival_s": 540.0 if toy else 54.0,
        "fleet_copies": 2 if toy else 20,
        "policy": "first-fit",
        "checkpoint_interval_events": 200 if toy else LONG_CHECKPOINT_INTERVAL,
        "catalog_ops": [workload.synthetic_ops for workload in FLEET_CATALOG],
    }


def fleet_long_setup(seed: int, toy: bool, tmp: Path) -> dict:
    sizes = fleet_long_sizes(toy)
    process = poisson_trace(
        seed, sizes["jobs"], sizes["mean_interarrival_s"], sizes["steps"], FLEET_CATALOG
    )
    machines = DEFAULT_FLEET * sizes["fleet_copies"]
    estimator = StepTimeEstimator()
    estimator.prewarm(machines, process.prewarm_jobs(), max_corun=2)
    return {
        "seed": seed,
        "sizes": sizes,
        "process": process,
        "machines": machines,
        "estimator": estimator,
        "checkpoint": CheckpointConfig(
            interval=sizes["checkpoint_interval_events"], root=tmp / "checkpoints"
        ),
        "store": RunStore(tmp / "store"),
    }


def fleet_long_timed(state: dict) -> dict:
    simulator = FleetSimulator(
        state["machines"], policy=state["sizes"]["policy"], estimator=state["estimator"]
    )
    result = simulator.run(
        state["process"],
        checkpoint=state["checkpoint"],
        run_id=f"perfbench-fleet-long-{state['seed']}",
    )
    record = make_record(
        "fleet",
        "perfbench-fleet-long",
        config={"seed": state["seed"], "sizes": state["sizes"]},
        payload=result,
        digest_excludes=OVERHEAD_KEYS,
    )
    run_id = state["store"].record(record)
    stored = state["store"].get(run_id)
    return {"result": result, "stored": stored}


def fleet_long_check(state: dict, raw: dict) -> dict:
    result, stored = raw["result"], raw["stored"]
    run_digest = _fleet_digest(result)
    failed = []
    if not (_accounting_ok(result) and result.makespan > 0):
        failed.append("fleet/first-fit")
    if not (stored.intact and stored.digest == run_digest):
        failed.append("store/round-trip")
    return {
        "ops": {"fleet/first-fit": run_digest, "store/round-trip": stored.digest},
        "failed": failed,
        "sim": {
            "sim_makespan_s": result.makespan,
            "sim_p99_wait_s": result.wait_percentiles["p99"],
            "sim_shed_rate": result.shed_rate,
        },
    }


WORKLOADS = {
    "paper-cold": (paper_cold_sizes, paper_cold_setup, paper_cold_timed, paper_cold_check),
    "fleet-overload": (
        fleet_overload_sizes,
        fleet_overload_setup,
        fleet_overload_timed,
        fleet_overload_check,
    ),
    "fleet-long": (fleet_long_sizes, fleet_long_setup, fleet_long_timed, fleet_long_check),
}
