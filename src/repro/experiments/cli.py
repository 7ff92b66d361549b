"""Command-line entry point: ``repro-experiments [names...]``.

Runs any subset of the paper's experiments (default: the cheap ones) and
prints their reports.  ``repro-experiments --list`` shows what is
available; ``repro-experiments all`` runs everything (several minutes).

Every experiment accepts an arbitrary hardware topology:
``--machine <zoo-name>`` picks one from the machine zoo
(``--list-machines`` enumerates them) and ``--scenario <name>`` reuses a
registered scenario's machine (``--list-scenarios``).  The ``fleet``
experiment additionally takes ``--policy``, ``--machines``,
``--trace-seed`` and the trace-scaling knobs ``--num-jobs`` /
``--steps MIN:MAX`` / ``--mean-interarrival`` — reproducible
thousand-job traces straight from the command line — plus the open-loop
knobs ``--arrival-process`` (``--list-arrival-specs``), the
admission-control trio ``--queue-limit`` / ``--deadline`` /
``--shed-policy``.

The experiments execute on the parallel sweep engine: ``--jobs``/
``--backend`` control the fan-out (``--jobs N`` alone implies the
process backend) and ``--no-cache``/``--cache-dir`` control the on-disk
result cache that makes repeated invocations nearly instant.
``--no-store``/``--store-dir`` control the persistent run store every
invocation is recorded in (replay stored runs with
``python -m repro report``).
"""

from __future__ import annotations

import argparse
import inspect
import json
import sys
import time
from typing import Sequence

from repro.experiments import ALL_EXPERIMENTS
from repro.hardware.zoo import available_machines, describe_zoo, machine_specs
from repro.scenarios import describe_scenarios, get_scenario, scenario_specs
from repro.sweep import BACKENDS, SweepCache, SweepExecutor, get_default_executor
from repro.sweep.executor import EnvironmentConfigError, no_cache_requested

#: Experiments cheap enough for a default invocation.
DEFAULT_SET: tuple[str, ...] = ("fig1", "table2", "table3", "fig5", "table7")


def _run_one(
    name: str,
    *,
    reduced: bool,
    executor: SweepExecutor | None = None,
    machine: str | None = None,
    policy: str | None = None,
    machines: tuple[str, ...] | None = None,
    arrival_seed: int | None = None,
    num_jobs: int | None = None,
    steps: tuple[int, int] | None = None,
    fault_plan: str | None = None,
    fault_seed: int | None = None,
    crash_rate: float | None = None,
    straggler_rate: float | None = None,
    mean_interarrival: float | None = None,
    arrival_process: str | None = None,
    queue_limit: int | None = None,
    deadline: float | None = None,
    shed_policy: str | None = None,
) -> str:
    module = ALL_EXPERIMENTS[name]
    # Forward only the options the experiment's run() accepts.  Inspect
    # the signature (not __code__.co_varnames, which breaks on wrapped or
    # decorated functions) so experiment modules stay free to evolve.
    parameters = inspect.signature(module.run).parameters
    kwargs = {}
    if "reduced" in parameters:
        kwargs["reduced"] = reduced
    if "executor" in parameters and executor is not None:
        kwargs["executor"] = executor
    if "machine" in parameters and machine is not None:
        # Forward the zoo *name*: experiment_machine() resolves it, and a
        # name stays trivially picklable for the process backend.
        kwargs["machine"] = machine
    # Fleet-only options (repro-experiments fleet --policy/--machines/...).
    if "policies" in parameters and policy is not None:
        kwargs["policies"] = (policy,)
    if "machines" in parameters and machines is not None:
        kwargs["machines"] = machines
    if "arrival_seed" in parameters and arrival_seed is not None:
        kwargs["arrival_seed"] = arrival_seed
    if "num_jobs" in parameters and num_jobs is not None:
        kwargs["num_jobs"] = num_jobs
    if steps is not None and "min_steps" in parameters and "max_steps" in parameters:
        kwargs["min_steps"], kwargs["max_steps"] = steps
    if "fault_plan" in parameters and fault_plan is not None:
        kwargs["fault_plan"] = fault_plan
    if "fault_seed" in parameters and fault_seed is not None:
        kwargs["fault_seed"] = fault_seed
    if "crash_rate" in parameters and crash_rate is not None:
        kwargs["crash_rate"] = crash_rate
    if "straggler_rate" in parameters and straggler_rate is not None:
        kwargs["straggler_rate"] = straggler_rate
    if "mean_interarrival" in parameters and mean_interarrival is not None:
        kwargs["mean_interarrival"] = mean_interarrival
    if "arrival_process" in parameters and arrival_process is not None:
        kwargs["arrival_process"] = arrival_process
    if "queue_limit" in parameters and queue_limit is not None:
        kwargs["queue_limit"] = queue_limit
    if "deadline" in parameters and deadline is not None:
        kwargs["deadline"] = deadline
    if "shed_policy" in parameters and shed_policy is not None:
        kwargs["shed_policy"] = shed_policy
    result = module.run(**kwargs)
    return module.format_report(result)


def _parse_steps(spec: str) -> tuple[int, int]:
    """Parse ``--steps``: ``"N"`` (fixed) or ``"MIN:MAX"`` (range)."""
    try:
        if ":" in spec:
            low_text, high_text = spec.split(":", 1)
            low, high = int(low_text), int(high_text)
        else:
            low = high = int(spec)
    except ValueError:
        raise ValueError(f"--steps expects N or MIN:MAX, got {spec!r}") from None
    if not 1 <= low <= high:
        raise ValueError(f"--steps needs 1 <= MIN <= MAX, got {spec!r}")
    return low, high


def _build_executor(args: argparse.Namespace) -> SweepExecutor:
    backend = args.backend
    if backend is None:
        # An explicit --jobs asks for real parallelism; otherwise keep
        # whatever the environment/default configuration says.
        backend = "process" if args.jobs and args.jobs > 1 else None
    default = get_default_executor()
    # The CLI caches by default (under .sweep_cache / $REPRO_SWEEP_CACHE_DIR)
    # so repeated invocations are nearly instant; --no-cache or the
    # $REPRO_SWEEP_NO_CACHE env var opt out.
    if args.no_cache or no_cache_requested():
        cache = SweepCache(enabled=False)
    else:
        cache = SweepCache(args.cache_dir)
    return SweepExecutor(
        backend if backend is not None else default.backend,
        jobs=args.jobs if args.jobs else default.jobs,
        cache=cache,
    )


def main(argv: Sequence[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro-experiments",
        description="Regenerate the tables and figures of the paper on the simulated substrate.",
    )
    parser.add_argument(
        "experiments",
        nargs="*",
        default=list(DEFAULT_SET),
        help="experiment names (e.g. fig1 table3), or 'all'",
    )
    parser.add_argument("--list", action="store_true", help="list available experiments")
    parser.add_argument(
        "--list-machines",
        action="store_true",
        help="list the machine zoo (usable with --machine)",
    )
    parser.add_argument(
        "--list-scenarios",
        action="store_true",
        help="list the registered scenarios (usable with --scenario)",
    )
    parser.add_argument(
        "--machine",
        default=None,
        metavar="NAME",
        help="run the experiments on this machine-zoo topology "
        "(default: the paper's KNL node; see --list-machines)",
    )
    parser.add_argument(
        "--scenario",
        default=None,
        metavar="NAME",
        help="run the experiments on a registered scenario's machine "
        "(see --list-scenarios); mutually exclusive with --machine",
    )
    parser.add_argument(
        "--json",
        action="store_true",
        help="emit --list / --list-machines / --list-scenarios as sorted "
        "JSON specs (for --list: experiment name -> accepted run() options)",
    )
    parser.add_argument(
        "--policy",
        default=None,
        metavar="NAME",
        help="fleet experiment only: restrict the policy comparison to one "
        "placement policy (first-fit, load-balanced, interference-aware)",
    )
    parser.add_argument(
        "--machines",
        default=None,
        metavar="NAMES",
        help="fleet experiment only: comma-separated zoo machines forming "
        "the fleet (default: the five-machine reference fleet)",
    )
    parser.add_argument(
        "--trace-seed",
        "--arrival-seed",
        dest="arrival_seed",
        type=int,
        default=None,
        metavar="N",
        help="fleet experiment only: seed of the generated job trace "
        "(--arrival-seed is an alias)",
    )
    parser.add_argument(
        "--num-jobs",
        type=int,
        default=None,
        metavar="N",
        help="fleet experiment only: number of jobs in the generated trace "
        "(large traces stay interactive on the round-compression fast path)",
    )
    parser.add_argument(
        "--steps",
        default=None,
        metavar="MIN:MAX",
        help="fleet experiment only: per-job training-step range of the "
        "generated trace (a single N fixes every job's length)",
    )
    parser.add_argument(
        "--fault-plan",
        default=None,
        metavar="SPEC",
        help="fleet experiment only: inject a deterministic fault plan — a "
        "registered fault-spec name (see --list-fault-plans), a JSON object, "
        "or a path to a JSON file",
    )
    parser.add_argument(
        "--fault-seed",
        type=int,
        default=None,
        metavar="N",
        help="fleet experiment only: seed of a generated random fault plan "
        "(combine with --crash-rate / --straggler-rate)",
    )
    parser.add_argument(
        "--crash-rate",
        type=float,
        default=None,
        metavar="P",
        help="fleet experiment only: per-machine crash probability of the "
        "generated fault plan (0..1)",
    )
    parser.add_argument(
        "--straggler-rate",
        type=float,
        default=None,
        metavar="P",
        help="fleet experiment only: per-machine straggler-window probability "
        "of the generated fault plan (0..1)",
    )
    parser.add_argument(
        "--list-fault-plans",
        action="store_true",
        help="list the registered fault-plan specs (usable with --fault-plan)",
    )
    parser.add_argument(
        "--mean-interarrival",
        type=float,
        default=None,
        metavar="S",
        help="fleet experiment only: mean seconds between job arrivals "
        "(smaller = heavier offered load)",
    )
    parser.add_argument(
        "--arrival-process",
        default=None,
        metavar="SPEC",
        help="fleet experiment only: stream an open-loop arrival process — a "
        "registered arrival-spec name (see --list-arrival-specs), a JSON "
        "object, or a path to a JSON file; the trace is never materialised",
    )
    parser.add_argument(
        "--queue-limit",
        type=int,
        default=None,
        metavar="N",
        help="fleet experiment only: admission control — bound the central "
        "queue at N jobs and shed the overflow",
    )
    parser.add_argument(
        "--deadline",
        type=float,
        default=None,
        metavar="S",
        help="fleet experiment only: admission control — shed jobs still "
        "queued S seconds after arrival (with --shed-policy deadline-expire)",
    )
    parser.add_argument(
        "--shed-policy",
        choices=("reject-at-arrival", "drop-oldest", "deadline-expire"),
        default=None,
        help="fleet experiment only: how admission control sheds under "
        "overload (default: reject-at-arrival)",
    )
    parser.add_argument(
        "--list-arrival-specs",
        action="store_true",
        help="list the registered arrival-process specs (usable with "
        "--arrival-process)",
    )
    parser.add_argument(
        "--full",
        action="store_true",
        help="use the full-size model graphs (slower, closer to the paper's scale)",
    )
    parser.add_argument(
        "--jobs",
        "-j",
        type=int,
        default=None,
        metavar="N",
        help="fan sweep tasks out over N workers (implies --backend process)",
    )
    parser.add_argument(
        "--backend",
        choices=BACKENDS,
        default=None,
        help="sweep executor backend (default: serial, or $REPRO_SWEEP_BACKEND)",
    )
    parser.add_argument(
        "--no-cache",
        action="store_true",
        help="recompute everything, ignoring the on-disk sweep result cache",
    )
    parser.add_argument(
        "--cache-dir",
        default=None,
        metavar="DIR",
        help="sweep cache location (default: .sweep_cache, or $REPRO_SWEEP_CACHE_DIR)",
    )
    parser.add_argument(
        "--no-store",
        action="store_true",
        help="do not record runs in the persistent run store",
    )
    parser.add_argument(
        "--store-dir",
        default=None,
        metavar="DIR",
        help="run-store location (default: .run_store, or $REPRO_STORE_DIR)",
    )
    args = parser.parse_args(argv)
    if args.jobs is not None and args.jobs < 1:
        parser.error("--jobs must be at least 1")
    if args.num_jobs is not None and args.num_jobs < 0:
        parser.error("--num-jobs must be non-negative")
    if args.mean_interarrival is not None and args.mean_interarrival <= 0:
        parser.error("--mean-interarrival must be positive")
    if args.queue_limit is not None and args.queue_limit < 1:
        parser.error("--queue-limit must be at least 1")
    if args.deadline is not None and args.deadline <= 0:
        parser.error("--deadline must be positive")
    for rate_flag, rate_value in (
        ("--crash-rate", args.crash_rate),
        ("--straggler-rate", args.straggler_rate),
    ):
        if rate_value is not None and not 0.0 <= rate_value <= 1.0:
            parser.error(f"{rate_flag} must be in [0, 1]")
    if args.machine is not None and args.scenario is not None:
        parser.error("--machine and --scenario are mutually exclusive")
    steps: tuple[int, int] | None = None
    if args.steps is not None:
        try:
            steps = _parse_steps(args.steps)
        except ValueError as exc:
            parser.error(str(exc))

    if args.list:
        if args.json:
            # name -> the run() options each experiment accepts, so tools
            # can discover e.g. the fleet experiment's trace knobs.
            listing = {
                name: sorted(
                    p
                    for p in inspect.signature(module.run).parameters
                    if p != "executor"
                )
                for name, module in ALL_EXPERIMENTS.items()
            }
            print(json.dumps(listing, indent=2, sort_keys=True))
        else:
            for name in ALL_EXPERIMENTS:
                print(name)
        return 0
    if args.list_machines:
        if args.json:
            print(json.dumps(machine_specs(), indent=2, sort_keys=True))
        else:
            print(describe_zoo())
        return 0
    if args.list_scenarios:
        if args.json:
            print(json.dumps(scenario_specs(), indent=2, sort_keys=True))
        else:
            print(describe_scenarios())
        return 0
    if args.list_fault_plans:
        from repro.scenarios import FAULT_SPECS, describe_fault_specs

        if args.json:
            print(json.dumps(FAULT_SPECS, indent=2, sort_keys=True))
        else:
            print(describe_fault_specs())
        return 0
    if args.list_arrival_specs:
        from repro.scenarios import ARRIVAL_SPECS, describe_arrival_specs

        if args.json:
            print(json.dumps(ARRIVAL_SPECS, indent=2, sort_keys=True))
        else:
            print(describe_arrival_specs())
        return 0

    fleet_machines: tuple[str, ...] | None = None
    if args.machines is not None:
        fleet_machines = tuple(
            name.strip() for name in args.machines.split(",") if name.strip()
        )
        unknown_machines = [
            name for name in fleet_machines if name not in available_machines()
        ]
        if not fleet_machines or unknown_machines:
            print(
                f"--machines must name zoo machines (unknown: "
                f"{', '.join(unknown_machines) or '<empty>'}); available: "
                f"{', '.join(available_machines())}",
                file=sys.stderr,
            )
            return 2
    if args.policy is not None:
        from repro.fleet import available_policies

        if args.policy not in available_policies():
            print(
                f"unknown policy {args.policy!r}; available: "
                f"{', '.join(available_policies())}",
                file=sys.stderr,
            )
            return 2

    machine = args.machine
    if args.scenario is not None:
        try:
            machine = get_scenario(args.scenario).machine
        except KeyError as exc:
            print(exc.args[0], file=sys.stderr)
            return 2
    if machine is not None and machine not in available_machines():
        print(
            f"unknown machine {machine!r}; available: "
            f"{', '.join(available_machines())}",
            file=sys.stderr,
        )
        return 2

    names = list(args.experiments)
    if names == ["all"] or names == ["ALL"]:
        names = list(ALL_EXPERIMENTS)
    unknown = [n for n in names if n not in ALL_EXPERIMENTS]
    if unknown:
        print(f"unknown experiments: {', '.join(unknown)}", file=sys.stderr)
        print(f"available: {', '.join(ALL_EXPERIMENTS)}", file=sys.stderr)
        return 2

    try:
        executor = _build_executor(args)
        # Like the cache, the CLI records runs by default (under
        # .run_store / $REPRO_STORE_DIR) so every invocation is
        # replayable via `python -m repro report`; --no-store or
        # $REPRO_STORE_DISABLE opt out.
        from repro.store import configure_store, store_disabled

        if args.no_store or store_disabled():
            configure_store(enabled=False)
        else:
            configure_store(args.store_dir, enabled=True)
    except EnvironmentConfigError as exc:
        # A malformed $REPRO_SWEEP_* / $REPRO_STORE_* variable gets the
        # same clean one-line diagnosis as an unknown --machine, not a
        # traceback.
        print(str(exc), file=sys.stderr)
        return 2
    try:
        for name in names:
            start = time.time()
            report = _run_one(
                name,
                reduced=not args.full,
                executor=executor,
                machine=machine,
                policy=args.policy,
                machines=fleet_machines,
                arrival_seed=args.arrival_seed,
                num_jobs=args.num_jobs,
                steps=steps,
                fault_plan=args.fault_plan,
                fault_seed=args.fault_seed,
                crash_rate=args.crash_rate,
                straggler_rate=args.straggler_rate,
                mean_interarrival=args.mean_interarrival,
                arrival_process=args.arrival_process,
                queue_limit=args.queue_limit,
                deadline=args.deadline,
                shed_policy=args.shed_policy,
            )
            elapsed = time.time() - start
            suffix = f" @ {machine}" if machine is not None else ""
            print(f"=== {name}{suffix} ({elapsed:.1f}s) ===")
            print(report)
            print()
    finally:
        executor.close()
    return 0


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
