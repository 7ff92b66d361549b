"""Layered host-time benchmark of the repro stack.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload paper-cold --seed 42 --seconds 25 --trace 0

Workloads (why each exists is recorded in ``BENCHMARK.json``):

* ``paper-cold`` — a first reproduction with every cache cold: the
  paper's runtime on ResNet-50, Inception-v3, DCGAN and LSTM on KNL,
  Table IV at N=4, and the fleet co-run experiment (200 jobs, one machine
  of each zoo kind, three policies on one cold estimator);
* ``fleet-overload`` — 4,500 short jobs arriving every 0.0125 s on
  average over 100 machines with a 16-job admission queue; estimates
  prewarmed;
* ``fleet-long`` — 15,000 jobs of 900-2,700 steps over 100 machines,
  first-fit, checkpointed every 10,000 events, recorded to a run store
  and read back.

Each run of the workload is a fresh interpreter (``child.py``) with a
private temp dir under ``.perfbench/`` that the run store, checkpoint
root and ``TMPDIR`` point into; the sweep-engine and store switches
(``REPRO_SWEEP_*``, ``REPRO_STORE_DISABLE``) are cleared, so every run
measures the library defaults: serial sweep executor, no on-disk cache,
default fleet engine.  The benchmark is one closed-loop client; runs go
one after another until ``--seconds`` of measuring is spent (at least
one), and each metric is the median over the runs.  ``setup_s`` is the
median over those runs and :data:`SETUP_RUNS` more that stop after the
set-up.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` alternates
untraced and traced runs and reports the per-layer metrics of the traced
ones (see ``tracer.py``) plus ``trace.overhead``, the traced ÷ untraced
median ``wall_s``.

Every run's outputs are checked: each operation's digest must be equal
in every run, traced or not, and, for the default seed, equal to the
digest recorded in ``digests.json``.  An operation that fails a check
counts in ``failed``.  The last line of standard output is one JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``; the
lines before it give every ``sim_*`` figure, the digests and the host
fingerprint.  A full record of the run goes to ``.perfbench/``.

The default seed is 42, the one ``digests.json`` records; confirm a
claim on seed 7 as well.  ``--toy`` shrinks every workload (the
self-test, ``selftest.py``, uses it).
"""

from __future__ import annotations

import argparse
import compileall
import hashlib
import itertools
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from importlib import metadata
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RUNS_DIR = ROOT / ".perfbench"
DIGESTS = HERE / "digests.json"

WORKLOADS = ("paper-cold", "fleet-overload", "fleet-long")
DEFAULT_SEED = 42

#: Set-up-only runs per invocation, for the median of ``setup_s``.
SETUP_RUNS = 3
#: No child may still be running this long after the start.
DEADLINE_S = 170.0

#: Environment the program reads that would make a run warm or
#: non-default; cleared for every child.  ``REPRO_SWEEP_CACHE_DIR`` is
#: cleared rather than pointed into the temp dir because setting it
#: turns the on-disk sweep cache on.
CLEARED_ENV = (
    "REPRO_SWEEP_BACKEND",
    "REPRO_SWEEP_JOBS",
    "REPRO_SWEEP_NO_CACHE",
    "REPRO_SWEEP_CACHE_DIR",
    "REPRO_STORE_DISABLE",
)

END_TO_END_UNITS = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}


def layer_unit(name: str) -> str:
    """Unit of a per-layer metric, from its name's suffix."""
    if name == "trace.overhead":
        return "x"
    for suffix, unit in (("_ms", "ms"), ("_s", "s"), ("_ratio", "ratio"), ("_bytes", "B")):
        if name.endswith(suffix):
            return unit
    return "count"


class BenchmarkError(RuntimeError):
    """The benchmark could not measure (as opposed to a failed check)."""


def _child_env(tmp: Path) -> dict:
    env = {key: value for key, value in os.environ.items() if key not in CLEARED_ENV}
    env["REPRO_STORE_DIR"] = str(tmp / "store")
    env["REPRO_CHECKPOINT_DIR"] = str(tmp / "checkpoints")
    env["TMPDIR"] = str(tmp / "tmp")
    return env


def run_child(
    workload: str, seed: int, *, traced: bool, toy: bool, setup_only: bool, deadline: float
) -> dict:
    """One fresh-interpreter run of ``workload``; its result dict."""
    work = RUNS_DIR / "tmp"
    work.mkdir(parents=True, exist_ok=True)
    tmp = Path(tempfile.mkdtemp(prefix=f"{workload}-{seed}-", dir=work))
    try:
        (tmp / "tmp").mkdir()
        out = tmp / "result.json"
        command = [
            sys.executable, str(HERE / "child.py"),
            "--workload", workload, "--seed", str(seed),
            "--tmp", str(tmp), "--out", str(out),
        ]
        command += ["--trace"] * traced + ["--toy"] * toy + ["--setup-only"] * setup_only
        with open(tmp / "child.log", "wb") as log:
            spawned = time.monotonic()
            child = subprocess.Popen(
                command, cwd=tmp, env=_child_env(tmp), stdout=log, stderr=subprocess.STDOUT
            )
            try:
                code = child.wait(timeout=max(1.0, deadline - spawned))
            except BaseException as exc:
                # Timed out or interrupted: never leave the child running.
                child.kill()
                child.wait()
                if isinstance(exc, subprocess.TimeoutExpired):
                    raise BenchmarkError(
                        f"{workload} run exceeded the {DEADLINE_S:.0f} s limit"
                    ) from None
                raise
            ended = time.monotonic()
        if code != 0:
            tail = (tmp / "child.log").read_text(errors="replace")[-4000:]
            raise BenchmarkError(f"{workload} run exited with {code}:\n{tail}")
        result = json.loads(out.read_text(encoding="utf-8"))
        result["setup_s"] = result["timed_start"] - spawned
        result["run_s"] = ended - spawned
        if traced and not setup_only:
            shutil.copyfile(tmp / "trace.json", RUNS_DIR / f"{workload}-seed{seed}-trace.json")
        return result
    finally:
        shutil.rmtree(tmp, ignore_errors=True)


def measure(
    workload: str, seed: int, seconds: float, *, trace: bool, toy: bool
) -> tuple[list[dict], list[float]]:
    """Set up :data:`SETUP_RUNS` times, then run children one after
    another until ``seconds`` are spent; the runs and every set-up time."""
    start = time.monotonic()
    deadline = start + DEADLINE_S
    options = dict(toy=toy, deadline=deadline)
    setups = [
        run_child(workload, seed, traced=False, setup_only=True, **options)["setup_s"]
        for _ in range(SETUP_RUNS)
    ]
    # A traced invocation needs an untraced run to divide by.
    least = 2 if trace else 1
    modes = itertools.cycle((False, True)) if trace else itertools.repeat(False)
    runs: list[dict] = []
    for traced in modes:
        elapsed = time.monotonic() - start
        mean = sum(run["run_s"] for run in runs) / len(runs) if runs else 0.0
        if len(runs) >= least and elapsed + mean > seconds:
            break
        runs.append(run_child(workload, seed, traced=traced, setup_only=False, **options))
    setups += [run["setup_s"] for run in runs if not run["traced"]]
    return runs, setups


def combined_digest(ops: dict) -> str:
    token = json.dumps(sorted(ops.items()))
    return hashlib.sha256(token.encode("utf-8")).hexdigest()


def check_runs(runs: list[dict], recorded: dict | None) -> tuple[int, int, list[str]]:
    """(attempted, failed, problems) over every operation of every run."""
    reference = recorded if recorded is not None else runs[0]["ops"]
    attempted = failed = 0
    problems: list[str] = []
    for index, run in enumerate(runs):
        names = set(reference) | set(run["ops"])
        bad = sorted(
            name
            for name in names
            if name in run["failed"] or run["ops"].get(name) != reference.get(name)
        )
        attempted += len(names)
        failed += len(bad)
        problems += [f"run {index}: {name}" for name in bad]
        if run["sim"] != runs[0]["sim"]:
            problems.append(f"run {index}: sim figures differ from run 0")
    return attempted, failed, problems


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.machine() or "unknown"


def _git(*args: str) -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        done = subprocess.run(
            ["git", "-C", str(ROOT), *args], capture_output=True, text=True, timeout=30
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def provenance(workload: str, seed: int, runs: list[dict]) -> dict:
    status = _git("status", "--porcelain", "--untracked-files=no")
    uname = os.uname()
    try:
        numpy_version = metadata.version("numpy")
    except metadata.PackageNotFoundError:
        numpy_version = None
    return {
        "workload": workload,
        "seed": seed,
        "sizes": runs[0]["sizes"],
        "runs": len(runs),
        "traced_runs": sum(run["traced"] for run in runs),
        "nproc": os.cpu_count(),
        "cpu_affinity": sorted(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy_version,
        "platform": f"{uname.sysname}-{uname.release}-{uname.machine}",
        "git_commit": _git("rev-parse", "HEAD"),
        "git_dirty": None if status is None else bool(status),
    }


def summarize(runs: list[dict], setups: list[float], *, trace: bool) -> dict[str, dict]:
    untraced = [run for run in runs if not run["traced"]]
    if not trace:
        values = {
            "wall_s": statistics.median(run["wall_s"] for run in untraced),
            "setup_s": statistics.median(setups),
            "peak_rss_mb": statistics.median(run["peak_rss_mb"] for run in untraced),
        }
        return {
            name: {"value": value, "unit": END_TO_END_UNITS[name]}
            for name, value in values.items()
        }
    traced = [run for run in runs if run["traced"]]
    values = {
        name: statistics.median(run["layers"][name] for run in traced)
        for name in traced[0]["layers"]
    }
    values["trace.overhead"] = statistics.median(
        run["wall_s"] for run in traced
    ) / statistics.median(run["wall_s"] for run in untraced)
    return {name: {"value": value, "unit": layer_unit(name)} for name, value in values.items()}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="Layered host-time benchmark of repro.")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--toy", action="store_true", help="shrink the workload (self-test)")
    args = parser.parse_args(argv)
    # SIGTERM unwinds like an interrupt, so a running child is killed too.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program to measure under {ROOT / 'src'}", file=sys.stderr)
        return 2
    # Byte-compile up front so the first run's setup_s is not compile time.
    compileall.compile_dir(ROOT / "src", quiet=1)
    compileall.compile_dir(HERE, quiet=1, maxlevels=0)
    RUNS_DIR.mkdir(exist_ok=True)
    try:
        runs, setups = measure(
            args.workload, args.seed, args.seconds, trace=bool(args.trace), toy=args.toy
        )
    except BenchmarkError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1

    recorded = None
    if args.seed == DEFAULT_SEED and not args.toy:
        recorded = json.loads(DIGESTS.read_text(encoding="utf-8")).get(args.workload)
    attempted, failed, problems = check_runs(runs, recorded)
    metrics = summarize(runs, setups, trace=bool(args.trace))
    info = provenance(args.workload, args.seed, runs)

    print("setup runs: " + ", ".join(f"{value:.3f} s" for value in setups))
    for index, run in enumerate(runs):
        print(
            f"run {index}: {'traced' if run['traced'] else 'untraced'} "
            f"wall {run['wall_s']:.3f} s, setup {run['setup_s']:.3f} s, "
            f"peak rss {run['peak_rss_mb']:.1f} MB"
        )
    for name, value in sorted(runs[0]["sim"].items()):
        print(f"{name} = {value!r}")
    for name, value in sorted(runs[0]["ops"].items()):
        print(f"digest {name} {value}")
    print(f"digest {args.workload} {combined_digest(runs[0]['ops'])}")
    print(f"checked against {'recorded digests' if recorded else 'run 0'}")
    for problem in problems:
        print(f"FAILED {problem}")
    for name, metric in metrics.items():
        print(f"{name} = {metric['value']!r} {metric['unit']}")
    print("provenance " + json.dumps(info, sort_keys=True))
    record = {
        "provenance": info,
        "runs": runs,
        "setups": setups,
        "metrics": metrics,
        "problems": problems,
    }
    (RUNS_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1), encoding="utf-8"
    )
    summary = {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
