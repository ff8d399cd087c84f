"""Benchmark entry point for sparsecert.

    python3 bench/run.py --workload sweep-p64 --seed 0 --seconds 30 --trace 0

Runs one workload (see README.md) in a fresh child process whose BLAS thread
count is pinned to 1, checks its outputs, and prints every metric by name
with its unit. The last line of standard output is one JSON object with the
keys `correct`, `attempted`, `failed` and `metrics`: the end-to-end metrics of
BENCHMARK.json with `--trace 0`, its per-layer metrics with `--trace 1`.

This file uses only the standard library; `workload.py` does the measuring.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
CHILD = BENCH_DIR / "workload.py"
PINNED_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
SETUP_PROBES = 5       # extra children that only set up; setup_s is the median
RUN_DEADLINE_S = 170   # every child of one run must have ended by then


class ChildFailed(RuntimeError):
    pass


def child_env(pinned: bool) -> dict[str, str]:
    """The caller's environment with the BLAS thread variables overridden:
    set to 1 when pinned, removed (library default) otherwise."""
    env = {k: v for k, v in os.environ.items() if k not in PINNED_ENV}
    if pinned:
        env.update(PINNED_ENV)
    return env


def launch(args: list[str], deadline: float, pinned: bool = True) -> tuple[float, dict | None]:
    """Run workload.py to completion. Returns (the CPU seconds it used from
    launch to its `ready` line, the JSON object on its last line or None)."""
    start = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, str(CHILD), *args],
        stdout=subprocess.PIPE,
        text=True,
        env=child_env(pinned),
        cwd=ROOT,
    )
    watchdog = threading.Timer(max(1.0, deadline - start), proc.kill)
    watchdog.start()
    try:
        first = proc.stdout.readline().split()
        rest = proc.communicate()[0]
    finally:
        watchdog.cancel()
        if proc.poll() is None:
            proc.kill()
        proc.wait()
    if proc.returncode != 0 or len(first) != 2 or first[0] != "ready":
        raise ChildFailed(f"workload child {args} exited with code {proc.returncode}")
    lines = rest.strip().splitlines()
    return float(first[1]), (json.loads(lines[-1]) if lines else None)


def git_commit() -> str:
    """HEAD of the checkout, or "unknown" outside a git work tree."""
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, env=env, capture_output=True, text=True, timeout=10
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def run(workload: str, seed: int, seconds: float, trace: bool) -> tuple[dict, dict]:
    """Metrics and run record of one workload run, before unit lookup."""
    deadline = time.perf_counter() + RUN_DEADLINE_S
    child_args = ["--workload", workload, "--seed", str(seed), "--seconds", str(seconds), "--trace", str(int(trace))]
    setups = []
    if not trace:
        for _ in range(SETUP_PROBES):
            setups.append(launch(child_args + ["--setup-only"], deadline)[0])
    setup, result = launch(child_args, deadline)
    setups.append(setup)
    if result is None:
        raise ChildFailed("workload child printed no result")
    metrics = dict(result["metrics"])
    attempted, failed, problems = result["attempted"], result["failed"], list(result["problems"])
    if trace:
        # the known oversubscription defect: pool workers with default BLAS threads
        _, unpinned = launch(child_args + ["--unpinned"], deadline, pinned=False)
        if unpinned is None:
            raise ChildFailed("unpinned child printed no result")
        metrics.update(unpinned["metrics"])
        attempted += unpinned["attempted"]
        failed += unpinned["failed"]
        problems += unpinned["problems"]
    else:
        metrics["setup_s"] = statistics.median(setups)
    record = dict(result["info"])
    record.update(
        workload=workload,
        seed=seed,
        seconds=seconds,
        trace=int(trace),
        git_commit=git_commit(),
        setup_samples_s=setups,
        attempted=attempted,
        failed=failed,
        failed_share=failed / attempted if attempted else 1.0,
        problems=problems,
    )
    return metrics, record


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    parser = argparse.ArgumentParser(description="sparsecert benchmark")
    parser.add_argument("--workload", required=True, choices=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "sparsecert" / "__init__.py").is_file():
        print(f"error: no sparsecert sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    try:
        metrics, record = run(args.workload, args.seed, args.seconds, bool(args.trace))
    except ChildFailed as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    missing = [m["name"] for m in wanted if m["name"] not in metrics]
    if missing:
        print(f"error: workload emitted no value for {missing}", file=sys.stderr)
        return 1
    out = {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in wanted}
    for name, metric in out.items():
        print(f"{name} = {metric['value']:.6g} {metric['unit']}")
    print(
        f"failed_share = {record['failed_share']:.6g} ratio "
        f"({record['failed']} of {record['attempted']} operations failed)"
    )
    for problem in record["problems"]:
        print(f"problem: {problem}")
    print("record " + json.dumps(record))
    correct = record["failed"] == 0
    print(
        json.dumps(
            {"correct": correct, "attempted": record["attempted"], "failed": record["failed"], "metrics": out}
        )
    )
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
