"""Self-test of the benchmark, every workload at toy size.

    python3 perfbench/selftest.py

For each workload it runs ``run.py --toy`` twice, untraced and traced,
and fails unless:

* each invocation exits 0 and its last line is a correct result that
  prints every metric ``BENCHMARK.json`` names, with its unit;
* the workload digest is the same in both invocations (``run.py`` also
  checks that the runs inside one invocation agree, traced or not);
* nothing outside ``.perfbench/`` and bytecode caches was created,
  changed or removed, and no per-run temp dir is left behind.

Last, it copies ``BENCHMARK.json`` and this directory alone into a
scratch directory and checks that the benchmark fails there without
printing a result.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RUNS_DIR = ROOT / ".perfbench"
SKIPPED_DIRS = {".git", "__pycache__", ".perfbench"}


def snapshot() -> dict[str, tuple[int, int]]:
    """(size, mtime) of every file of the checkout outside the skipped dirs."""
    files = {}
    stack = [ROOT]
    while stack:
        for path in stack.pop().iterdir():
            if path.is_dir() and not path.is_symlink():
                if path.name not in SKIPPED_DIRS:
                    stack.append(path)
            else:
                info = path.lstat()
                files[str(path.relative_to(ROOT))] = (info.st_size, info.st_mtime_ns)
    return files


def run_bench(workload: str, trace: int, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    command = [
        sys.executable, str(cwd / "perfbench" / "run.py"),
        "--workload", workload, "--seed", "42", "--seconds", "1",
        "--trace", str(trace), "--toy",
    ]
    return subprocess.run(command, cwd=cwd, capture_output=True, text=True, timeout=300)


def check_output(done: subprocess.CompletedProcess, expected: dict[str, str]) -> str:
    """The workload digest printed by a good invocation; raises otherwise."""
    if done.returncode != 0:
        raise AssertionError(f"exit {done.returncode}:\n{done.stderr[-3000:]}")
    lines = done.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        raise AssertionError(f"bad result keys {sorted(result)}")
    if not (result["correct"] and result["attempted"] >= 1 and result["failed"] == 0):
        raise AssertionError(f"outputs not correct:\n{done.stdout[-3000:]}")
    printed = {name: metric["unit"] for name, metric in result["metrics"].items()}
    if printed != expected:
        raise AssertionError(f"metrics {printed} != BENCHMARK.json {expected}")
    digests = [line.split()[2] for line in lines if line.startswith("digest ")]
    return digests[-1]


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    end_to_end = {metric["name"]: metric["unit"] for metric in spec["end_to_end"]}
    per_layer = {metric["name"]: metric["unit"] for metric in spec["per_layer"]}
    before = snapshot()
    for workload in (entry["name"] for entry in spec["workloads"]):
        untraced = check_output(run_bench(workload, 0), end_to_end)
        traced = check_output(run_bench(workload, 1), per_layer)
        if untraced != traced:
            raise AssertionError(f"{workload}: digest {untraced} untraced, {traced} traced")
        print(f"ok {workload} digest {untraced}")
    after = snapshot()
    changed = sorted(
        name for name in before.keys() | after.keys() if before.get(name) != after.get(name)
    )
    if changed:
        raise AssertionError(f"files changed outside .perfbench/: {changed}")
    leftovers = list((RUNS_DIR / "tmp").iterdir())
    if leftovers:
        raise AssertionError(f"temp dirs left behind: {leftovers}")
    print("ok no writes outside .perfbench/")

    with tempfile.TemporaryDirectory(dir=RUNS_DIR) as bare:
        bare = Path(bare)
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(HERE, bare / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
        done = run_bench(spec["workloads"][0]["name"], 0, cwd=bare)
        if done.returncode == 0 or done.stdout.strip():
            raise AssertionError("the benchmark ran without the program")
    print("ok fails without the program")
    return 0


if __name__ == "__main__":
    sys.exit(main())
