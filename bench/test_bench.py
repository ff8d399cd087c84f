"""Tests of the benchmark itself, on tiny workloads.

    PYTHONPATH=src python -m pytest -q bench/test_bench.py
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import workload as wl
from spans import Span, Target, Tracer, _owner_and_name, self_times

BENCH_DIR = Path(__file__).resolve().parent
SPEC = json.loads((BENCH_DIR.parent / "BENCHMARK.json").read_text(encoding="utf-8"))

TINY_SWEEP = wl.Workload("tiny-sweep", 16, (1.0, 2.0), (2.0, 8.0), trials_at_30s=2)
TINY_AUDIT = wl.Workload("tiny-audit", 9, (2.0,), (2.0, 8.0), trials_at_30s=1, audit=True)


def names(kind):
    return {m["name"] for m in SPEC[kind]}


def test_self_time_nested_and_overlapping_children():
    spans = [
        Span("root", 0, 100, -1, 0),
        Span("a", 10, 40, 0, 0),
        Span("a.inner", 15, 20, 1, 0),
        Span("b", 30, 60, 0, 0),    # overlaps a
        Span("c", 90, 120, 0, 0),   # runs past the root's end
        Span("d", 45, 55, 0, 0),    # inside b
    ]
    # root is covered by [10, 60] and [90, 100]
    assert self_times(spans) == [40, 25, 5, 30, 30, 10]


def test_tracer_records_parents_and_trials():
    ticks = iter(range(100))
    tracer = Tracer(clock=lambda: next(ticks))
    outer = tracer.wrap(Target("outer", "m", "f", starts_trial=True), lambda: inner())
    inner = tracer.wrap(Target("inner", "m", "g"), lambda: 7)
    assert outer() == 7 and outer() == 7
    assert [(s.name, s.parent, s.trial) for s in tracer.spans] == [
        ("outer", -1, 0), ("inner", 0, 0), ("outer", -1, 1), ("inner", 2, 1)
    ]
    assert self_times(tracer.spans) == [2, 1, 2, 1]


def _current(target):
    owner, name = _owner_and_name(target)
    return getattr(owner, name)


def test_traced_pass_restores_every_attribute(tmp_path, monkeypatch):
    monkeypatch.setattr(wl, "OUT_DIR", tmp_path)
    originals = [_current(t) for t in wl.TARGETS]
    cfg = TINY_SWEEP.config(3, 30)
    metrics, _ = wl.measure_sweep(TINY_SWEEP, cfg, True, tmp_path, wl.Gate(), Tracer())
    assert metrics["linalg.max_eig_sym.calls_per_trial"] > 0
    assert all(_current(t) is o for t, o in zip(wl.TARGETS, originals))

    tracer = Tracer()
    with pytest.raises(RuntimeError):
        with tracer.installed(wl.TARGETS):
            assert _current(wl.TARGETS[0]) is not originals[0]
            raise RuntimeError("pass failed")
    assert all(_current(t) is o for t, o in zip(wl.TARGETS, originals))
    # a later untraced pass records nothing
    wl.latency_pass(cfg, None, wl.Gate())
    assert tracer.spans == []


def test_corrupted_csv_digest_counts_as_failure(tmp_path):
    cfg = TINY_SWEEP.config(0, 30)
    trials = len(wl.trial_keys(cfg))
    _, trial_bytes, agg_bytes, _ = wl.sweep_pass(cfg, 1, tmp_path)
    good = {"trial_csv_sha256": wl.sha256(trial_bytes), "agg_csv_sha256": wl.sha256(agg_bytes)}
    for reference, failed in ((good, 0), (dict(good, agg_csv_sha256="0" * 64), trials)):
        gate = wl.Gate()
        wl.SweepChecker(gate, trials, reference).run(cfg, 1, tmp_path)
        assert (gate.attempted, gate.failed) == (trials, failed)


def test_pinned_references_match_workload_sizes():
    sweeps = [(name, w) for name, w in wl.WORKLOADS.items() if not w.audit]
    for name, w in sweeps:
        cfg = w.config(wl.DEFAULT_SEED, SPEC["run_seconds"])
        for r in range(wl.ROUNDS):
            assert wl.reference_for(name, wl.round_config(cfg, r)) is not None, (name, r)
    refs = json.loads(wl.REFERENCES.read_text(encoding="utf-8"))
    assert len(refs) == len(sweeps) * wl.ROUNDS


@pytest.mark.parametrize("workload", [TINY_SWEEP, TINY_AUDIT], ids=lambda w: w.name)
def test_every_metric_is_emitted(workload, tmp_path, monkeypatch):
    monkeypatch.setattr(wl, "OUT_DIR", tmp_path)
    cfg = workload.config(0, 30)
    plain = wl.measure(workload, cfg, False, False, tmp_path)
    traced = wl.measure(workload, cfg, True, False, tmp_path)
    unpinned = wl.measure(workload, cfg, False, True, tmp_path)
    for result in (plain, traced, unpinned):
        assert result["attempted"] > 0 and result["failed"] == 0, result["problems"]
    assert set(plain["metrics"]) | {"setup_s"} == names("end_to_end")
    assert set(traced["metrics"]) | set(unpinned["metrics"]) == names("per_layer")
    assert all(isinstance(v, (int, float)) for v in traced["metrics"].values())
    assert (tmp_path / f"spans-{workload.name}-seed0.jsonl").is_file()


def test_benchmark_spec_gives_every_metric_a_unit():
    for kind in ("end_to_end", "per_layer"):
        for metric in SPEC[kind]:
            assert metric["unit"] and metric["better"] in ("higher", "lower"), metric


def test_command_prints_units_and_result(tmp_path):
    proc = subprocess.run(
        [sys.executable, str(BENCH_DIR / "run.py"), "--workload", "audit-p16",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        capture_output=True, text=True, timeout=170, cwd=BENCH_DIR.parent,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    units = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == units
    assert "failed_share = 0 ratio" in proc.stdout


def test_command_fails_without_sources(tmp_path):
    shutil.copy(BENCH_DIR.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH_DIR, tmp_path / "bench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "sweep-p64", "--seed", "0",
         "--seconds", "30", "--trace", "0"],
        capture_output=True, text=True, timeout=60, cwd=tmp_path,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
