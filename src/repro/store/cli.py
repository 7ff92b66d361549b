"""``python -m repro report`` — the run-store command line.

Subcommands over a :class:`~repro.store.store.RunStore` (default
``.run_store``, or ``$REPRO_STORE_DIR``):

* ``list``   — every stored run, oldest first
* ``show``   — one run by id prefix (``--payload`` for the full history)
* ``diff``   — config + metric delta and digest match between two runs
* ``table``  — policy-comparison table replayed from stored histories
* ``verify`` — walk the store, re-hash every payload; report corrupt/
  tampered entries, ``--heal`` to unlink them in bulk

Everything renders from stored payloads; no subcommand ever invokes the
simulator.  Exit codes: 0 ok, 1 integrity findings, 2 bad usage or
lookup failure.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from repro.store import reporting
from repro.store.store import (
    DEFAULT_STORE_DIR,
    STORE_DIR_ENV,
    RunStore,
    StoreIntegrityError,
)


def _open_store(args: argparse.Namespace) -> RunStore:
    root = args.store or os.environ.get(STORE_DIR_ENV, DEFAULT_STORE_DIR)
    # Reading an existing store needs no opt-in; `enabled` only gates writes.
    return RunStore(root, enabled=True)


def _cmd_list(store: RunStore, args: argparse.Namespace) -> int:
    records = store.list_runs(kind=args.kind, name=args.name)
    if args.json:
        print(json.dumps([r.to_dict() for r in records], indent=2))
    else:
        print(reporting.format_run_list(records))
    return 0


def _cmd_show(store: RunStore, args: argparse.Namespace) -> int:
    record = store.load(args.run)
    if args.json:
        print(json.dumps(record.to_dict(), indent=2))
    else:
        print(reporting.format_run(record, payload=args.payload))
    return 0


def _cmd_diff(store: RunStore, args: argparse.Namespace) -> int:
    a = store.load(args.a)
    b = store.load(args.b)
    diff = reporting.diff_runs(a, b)
    if args.json:
        print(json.dumps(diff, indent=2))
    else:
        print(reporting.format_diff(diff))
    return 0


def _cmd_table(store: RunStore, args: argparse.Namespace) -> int:
    records = [store.load(run) for run in args.runs]
    if len(records) == 1 and records[0].kind != "fleet":
        print(reporting.replay_report(records[0]))
    else:
        print(reporting.fleet_comparison_table(records))
    return 0


def _cmd_verify(store: RunStore, args: argparse.Namespace) -> int:
    report = store.verify(heal=args.heal)
    if args.json:
        print(json.dumps(report, indent=2))
    else:
        print(
            f"{report['root']}: {report['entries']} entr"
            f"{'y' if report['entries'] == 1 else 'ies'}, "
            f"{report['intact']} intact, {len(report['corrupt'])} corrupt, "
            f"{len(report['tampered'])} tampered"
        )
        for bucket in ("corrupt", "tampered"):
            for run_id in report[bucket]:
                healed = " (removed)" if run_id in report["healed"] else ""
                print(f"  {bucket}: {run_id[:12]}{healed}")
    findings = report["corrupt"] + report["tampered"]
    unhealed = [run_id for run_id in findings if run_id not in report["healed"]]
    return 1 if unhealed else 0


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument(
        "--store",
        default=None,
        metavar="DIR",
        help=f"store location (default: ${STORE_DIR_ENV} or {DEFAULT_STORE_DIR})",
    )
    parser = argparse.ArgumentParser(
        prog="python -m repro report",
        description="inspect, diff and replay stored runs",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_list = sub.add_parser("list", help="list stored runs", parents=[common])
    p_list.add_argument("--kind", default=None, help="filter by record kind")
    p_list.add_argument("--name", default=None, help="filter by record name")
    p_list.add_argument("--json", action="store_true", help="emit JSON")
    p_list.set_defaults(func=_cmd_list)

    p_show = sub.add_parser("show", parents=[common], help="show one run")
    p_show.add_argument("run", help="run id (unique prefix ok)")
    p_show.add_argument("--payload", action="store_true", help="include the payload")
    p_show.add_argument("--json", action="store_true", help="emit JSON")
    p_show.set_defaults(func=_cmd_show)

    p_diff = sub.add_parser("diff", parents=[common], help="diff two runs")
    p_diff.add_argument("a", help="first run id (unique prefix ok)")
    p_diff.add_argument("b", help="second run id (unique prefix ok)")
    p_diff.add_argument("--json", action="store_true", help="emit JSON")
    p_diff.set_defaults(func=_cmd_diff)

    p_table = sub.add_parser(
        "table",
        parents=[common],
        help="policy-comparison table replayed from stored runs",
    )
    p_table.add_argument("runs", nargs="+", help="run ids (unique prefixes ok)")
    p_table.set_defaults(func=_cmd_table)

    p_verify = sub.add_parser(
        "verify",
        parents=[common],
        help="re-hash every stored payload; report or heal bad entries",
    )
    p_verify.add_argument(
        "--heal",
        action="store_true",
        help="unlink corrupt and tampered entries instead of only reporting",
    )
    p_verify.add_argument("--json", action="store_true", help="emit JSON")
    p_verify.set_defaults(func=_cmd_verify)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    store = _open_store(args)
    try:
        return args.func(store, args)
    except StoreIntegrityError as exc:
        print(f"integrity error: {exc}", file=sys.stderr)
        return 1
    except (KeyError, ValueError) as exc:
        message = exc.args[0] if exc.args else exc
        print(f"error: {message}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
