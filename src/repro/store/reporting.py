"""Replayable reports over stored runs — zero simulator invocations.

Everything here renders from :class:`~repro.store.record.RunRecord`
payloads: listings and diffs, and policy-comparison tables rebuilt
through :meth:`repro.fleet.simulator.FleetResult.from_dict`.

Layering: this module may import the fleet and experiments layers
(deferred, for payload reconstruction) but never :mod:`benchmarks`.
"""

from __future__ import annotations

import json
from datetime import datetime, timezone
from typing import Iterable, Sequence

from repro.store.record import RunRecord
from repro.utils.tables import TextTable


def _timestamp(created: float) -> str:
    return datetime.fromtimestamp(created, tz=timezone.utc).strftime(
        "%Y-%m-%dT%H:%M:%SZ"
    )


# -- listings and diffs --------------------------------------------------------------


def format_run_list(records: Sequence[RunRecord]) -> str:
    """One line per record, oldest first."""
    if not records:
        return "(no stored runs)"
    table = TextTable(
        ["run", "kind", "name", "version", "created", "digest"],
        title=f"{len(records)} stored run(s)",
    )
    for record in records:
        table.add_row(
            [
                record.run_id[:12],
                record.kind,
                record.name,
                record.version,
                _timestamp(record.created),
                record.digest[:12],
            ]
        )
    return table.render()


def format_run(record: RunRecord, *, payload: bool = False) -> str:
    """A full single-record view: identity, config, optional payload."""
    lines = [
        f"run      {record.run_id}",
        f"kind     {record.kind} / {record.name}",
        f"version  {record.version} (schema {record.schema})",
        f"created  {_timestamp(record.created)}",
        f"digest   {record.digest}"
        + ("" if record.intact else "  ** PAYLOAD DOES NOT MATCH **"),
    ]
    if record.digest_excludes:
        lines.append(f"excludes {', '.join(record.digest_excludes)}")
    lines.append("config:")
    lines.append(json.dumps(record.config, indent=2, sort_keys=True))
    report = record.extras.get("report")
    if report:
        lines.append("stored report:")
        lines.append(str(report).rstrip())
    if payload:
        lines.append("payload:")
        lines.append(json.dumps(record.payload, indent=2, sort_keys=True))
    return "\n".join(lines)


def diff_runs(a: RunRecord, b: RunRecord) -> dict:
    """Structured delta between two runs.

    Config keys that differ, top-level numeric payload metrics that
    differ, and whether the determinism digests match at all.
    """

    def is_number(value) -> bool:
        return isinstance(value, (int, float)) and not isinstance(value, bool)

    config_delta = {}
    for key in sorted(set(a.config) | set(b.config)):
        left, right = a.config.get(key), b.config.get(key)
        if left != right:
            config_delta[key] = {"a": left, "b": right}
    # Digest-excluded keys are wall-clock/diagnostic noise by definition.
    excluded = set(a.digest_excludes) | set(b.digest_excludes)
    metric_delta = {}
    for key in sorted((set(a.payload) | set(b.payload)) - excluded):
        left, right = a.payload.get(key), b.payload.get(key)
        if is_number(left) and is_number(right) and left != right:
            metric_delta[key] = {"a": left, "b": right, "delta": right - left}
    return {
        "a": a.run_id,
        "b": b.run_id,
        "kinds": [f"{a.kind}/{a.name}", f"{b.kind}/{b.name}"],
        "versions": [a.version, b.version],
        "config_delta": config_delta,
        "metric_delta": metric_delta,
        "digest_match": a.digest == b.digest,
    }


def format_diff(diff: dict) -> str:
    lines = [
        f"a: {diff['a'][:12]}  ({diff['kinds'][0]}, v{diff['versions'][0]})",
        f"b: {diff['b'][:12]}  ({diff['kinds'][1]}, v{diff['versions'][1]})",
        f"digest match: {diff['digest_match']}",
    ]
    if diff["config_delta"]:
        table = TextTable(["config key", "a", "b"], title="config delta")
        for key, delta in diff["config_delta"].items():
            table.add_row([key, json.dumps(delta["a"]), json.dumps(delta["b"])])
        lines.append(table.render())
    else:
        lines.append("config delta: (none)")
    if diff["metric_delta"]:
        table = TextTable(["metric", "a", "b", "delta"], title="metric delta")
        for key, delta in diff["metric_delta"].items():
            table.add_row([key, delta["a"], delta["b"], delta["delta"]])
        lines.append(table.render())
    else:
        lines.append("metric delta: (none)")
    return "\n".join(lines)


# -- replayed tables -----------------------------------------------------------------


def fleet_comparison_table(records: Iterable[RunRecord]) -> str:
    """Policy-comparison table rebuilt from stored fleet histories.

    Every row comes from :meth:`FleetResult.from_dict` on a stored
    payload — no simulation happens.  Speedups are relative to the
    stored ``first-fit`` run when present (first record otherwise).
    """
    from repro.fleet.simulator import FleetResult

    rows = []
    for record in records:
        if record.kind != "fleet":
            raise ValueError(
                f"run {record.run_id[:12]} is kind {record.kind!r}, not a fleet run"
            )
        rows.append((record, FleetResult.from_dict(record.payload)))
    if not rows:
        raise ValueError("no fleet runs to compare")
    baseline = next(
        (result.makespan for _, result in rows if result.policy_name == "first-fit"),
        rows[0][1].makespan,
    )
    table = TextTable(
        [
            "run",
            "policy",
            "jobs",
            "makespan (s)",
            "mean wait (s)",
            "co-run rounds",
            "blacklisted",
            "speedup",
        ],
        title="stored fleet runs (replayed, not re-simulated)",
    )
    for record, result in rows:
        corun = sum(m.corun_rounds for m in result.machine_reports)
        total = sum(m.rounds for m in result.machine_reports)
        table.add_row(
            [
                record.run_id[:12],
                result.policy_name,
                result.num_jobs,
                result.makespan,
                result.mean_wait_time,
                f"{corun}/{total}",
                len(result.blacklisted_pairs),
                baseline / result.makespan,
            ]
        )
    return table.render()


def replay_report(record: RunRecord) -> str:
    """Re-render a stored run's report from its payload.

    The ``fleet`` experiment rebuilds its result object and goes back
    through the experiment's own ``format_report`` (proving the payload
    carries the whole table); fleet runs render via
    :func:`fleet_comparison_table`; anything else falls back to the
    report text captured at recording time.
    """
    if record.kind == "experiment" and record.name == "fleet":
        from repro.experiments import fleet_corun

        return fleet_corun.format_report(_fleet_corun_result(record.payload))
    if record.kind == "fleet":
        return fleet_comparison_table([record])
    report = record.extras.get("report")
    if report is None:
        raise ValueError(
            f"run {record.run_id[:12]} ({record.kind}/{record.name}) "
            "has no stored report to replay"
        )
    return str(report)


def _fleet_corun_result(payload: dict):
    from repro.experiments.fleet_corun import FleetCorunResult, FleetPolicyRow

    return FleetCorunResult(
        machines=tuple(payload["machines"]),
        num_jobs=payload["num_jobs"],
        arrival_seed=payload["arrival_seed"],
        rows=tuple(FleetPolicyRow(**row) for row in payload["rows"]),
        min_steps=payload.get("min_steps", 3),
        max_steps=payload.get("max_steps", 10),
        fault_spec=payload.get("fault_spec"),
        arrival_spec=payload.get("arrival_spec"),
        admission_spec=payload.get("admission_spec"),
    )

