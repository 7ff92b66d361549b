"""One run of one workload, in the fresh interpreter ``run.py`` starts.

Usage (normally only ``run.py`` calls it)::

    python3 perfbench/child.py --workload NAME --seed N --tmp DIR --out FILE
        [--trace] [--toy] [--setup-only]

Imports ``repro`` from the checkout's ``src``, runs the workload's setup,
its timed region and its output checks, and writes one JSON result to
``--out``: the timed region's host time, the monotonic clock reading at
its start (``run.py`` subtracts its spawn time to get ``setup_s``), the
process's peak resident memory, per-operation digests, the names of
operations that failed a check, the ``sim_*`` figures and, with
``--trace``, the per-layer metrics.  The span trace goes to
``DIR/trace.json``.  ``--setup-only`` stops after the set-up and writes
only the clock reading where the timed region would start.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"


def _import_repro() -> None:
    sys.path.insert(0, str(SRC))
    import repro

    if Path(repro.__file__).resolve().parent != SRC / "repro":
        raise SystemExit(f"imported repro from {repro.__file__}, not {SRC}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--tmp", type=Path, required=True)
    parser.add_argument("--out", type=Path, required=True)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--toy", action="store_true")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    _import_repro()
    from tracer import Tracer, install, layer_metrics
    from workloads import WORKLOADS

    sizes, setup, timed, check = WORKLOADS[args.workload]
    state = setup(args.seed, args.toy, args.tmp)
    if args.setup_only:
        args.out.write_text(json.dumps({"timed_start": time.monotonic()}), encoding="utf-8")
        return 0
    tracer = None
    if args.trace:
        tracer = Tracer()
        install(tracer)
    timed_start = time.monotonic()
    begin = time.perf_counter()
    raw = timed(state)
    wall_s = time.perf_counter() - begin
    layers = layer_metrics(tracer) if tracer is not None else {}
    outcome = check(state, raw)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    if tracer is not None:
        layers["store.record_bytes"] = sum(
            path.stat().st_size for path in (args.tmp / "store").rglob("*.pkl")
        )
        tracer.write(args.tmp / "trace.json")
    result = {
        "workload": args.workload,
        "seed": args.seed,
        "traced": args.trace,
        "sizes": sizes(args.toy),
        "timed_start": timed_start,
        "wall_s": wall_s,
        "peak_rss_mb": peak_rss_mb,
        "ops": outcome["ops"],
        "failed": outcome["failed"],
        "sim": outcome["sim"],
        "layers": layers,
    }
    args.out.write_text(json.dumps(result), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
