"""One benchmark workload, run in a fresh child process by `run.py`.

    python3 bench/workload.py --workload sweep-p64 --seed 0 --seconds 30 --trace 0

The child prints `ready <CPU seconds used so far>` once `sparsecert` is
imported and the sweep config is built, then one JSON line with its metrics,
the operations it attempted and those that failed a correctness check. `--setup-only` stops after `ready`;
`--unpinned` runs one pool pass meant for a process whose BLAS threads are
not pinned (see README.md).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import multiprocessing
import os
import platform
import resource
import shutil
import statistics
import sys
import time
from collections import Counter, defaultdict
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, replace
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402
import scipy  # noqa: E402

import sparsecert  # noqa: E402
from sparsecert import certificates, ensemble, fileio, linalg, oracles  # noqa: E402
from sparsecert.rng import seed_derive  # noqa: E402

from spans import Span, Target, Tracer, self_times, write_jsonl  # noqa: E402

OUT_DIR = BENCH_DIR / "out"
REFERENCES = BENCH_DIR / "references.json"
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
MAX_POOL_WORKERS = 4  # keeps memory small on large machines
ROUNDS = 3       # rounds of [serial, pool, latency or traced] passes in a run
POOL_PASSES = 2  # pool passes per round; the fastest counts (see fastest)

# audit tolerances, as in acceptance criteria 1, 2 and 4
RELAXATION_SLACK = 1e-7
VALUE_REL_TOL = 1e-8
KKT_TOL = 1e-6

DEFAULT_SEED = 0  # the seed whose CSV digests are pinned in references.json

REASONS = ("exact", "interval-empty", "bisection-exhausted", "zero-score-in-support")


@dataclass(frozen=True)
class Workload:
    name: str
    p: int
    alpha_grid: tuple[float, ...]
    rho_multipliers: tuple[float, ...]
    trials_at_30s: int  # trials per cell and round; ROUNDS rounds fill 30 s on a 2-core box
    audit: bool = False

    def config(self, seed: int, seconds: float) -> ensemble.EnsembleConfig:
        return ensemble.EnsembleConfig(
            p_list=[self.p],
            trials=max(1, round(self.trials_at_30s * seconds / 30)),
            alpha_grid=list(self.alpha_grid),
            rho_multipliers=list(self.rho_multipliers),
            master_seed=seed,
        )


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "sweep-p64",
            64,
            tuple(ensemble.DEFAULT_ALPHA_GRID),
            tuple(ensemble.DEFAULT_RHO_MULTIPLIERS),
            trials_at_30s=6,
        ),
        # Only cells whose decision does not vary with the seed: alpha=1 is
        # always bisection-exhausted and alpha in {3, 4} always exact at
        # rho multiplier 2. Mixed cells (alpha 1.5 and 2, or rho multiplier 8
        # at alpha=1) put the per-run median on the cliff between modes of
        # about 5, 30 and 350 ms, so a 30 s run could not repeat within its
        # bounds.
        Workload("sweep-p256", 256, (1.0, 3.0, 4.0), (2.0,), trials_at_30s=5),
        Workload("audit-p16", 16, (1.0, 2.0, 4.0, 6.0), (2.0, 8.0), trials_at_30s=4, audit=True),
    )
}

# Attributes wrapped in the traced pass: each is the name the calling layer
# looks up at call time (ensemble._run_cell -> generate_instance,
# evaluate_trial -> check_dcl, check_dcl -> max_eig_sym, ...). The benchmark
# itself calls run_sweep, the fileio writers, the certificate functions and
# the oracles through their modules, so those lookups are wrapped too.
TARGETS = [
    Target("ensemble.run_sweep", "sparsecert.ensemble", "run_sweep"),
    Target("ensemble.aggregate_curves", "sparsecert.ensemble", "aggregate_curves"),
    Target("ensemble.generate_instance", "sparsecert.ensemble", "generate_instance", starts_trial=True),
    Target("ensemble.evaluate_trial", "sparsecert.ensemble", "evaluate_trial"),
    Target("rng.SplitMix64.normals", "sparsecert.rng", "SplitMix64.normals"),
    Target("certificates.check_pwg", "sparsecert.ensemble", "check_pwg"),
    Target("certificates.check_dcl", "sparsecert.ensemble", "check_dcl"),
    Target("certificates.check_pwg", "sparsecert.certificates", "check_pwg"),
    Target("certificates.check_dcl", "sparsecert.certificates", "check_dcl"),
    Target("certificates.verify_dcl_certificate", "sparsecert.certificates", "verify_dcl_certificate"),
    Target("certificates.pwg_witness_to_dcl", "sparsecert.certificates", "pwg_witness_to_dcl"),
    Target("certificates.kkt_variables", "sparsecert.certificates", "kkt_variables"),
    Target("certificates.verify_kkt", "sparsecert.certificates", "verify_kkt"),
    Target("linalg.correlation_scores", "sparsecert.certificates", "correlation_scores"),
    Target("linalg.max_eig_sym", "sparsecert.certificates", "max_eig_sym"),
    Target("oracles.brute_force_l0", "sparsecert.oracles", "brute_force_l0"),
    Target("oracles.pwg_value", "sparsecert.oracles", "pwg_value"),
    Target("fileio.write_sweep_csv", "sparsecert.fileio", "write_sweep_csv"),
    Target("fileio.write_agg_csv", "sparsecert.fileio", "write_agg_csv"),
]


class Gate:
    """Operations attempted and failed, with the first few failure messages."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def record(self, attempted: int, failed: int, problem: str | None = None) -> None:
        self.attempted += attempted
        self.failed += failed
        if problem and len(self.problems) < 10:
            self.problems.append(problem)


# ----------------------------------------------------------------- statistics


def tail_percentile(count: int) -> float:
    """Highest percentile of a fixed ladder with at least ten samples beyond it."""
    for pct in (99.9, 99.0, 95.0, 90.0, 75.0):
        if count * (1.0 - pct / 100.0) >= 10.0:
            return pct
    return 50.0


def percentile(values: list[float], pct: float) -> float:
    """Nearest-rank percentile; 0.0 for no samples."""
    if not values:
        return 0.0
    ordered = sorted(values)
    return ordered[max(0, math.ceil(pct / 100.0 * len(ordered)) - 1)]


def median(values: list[float]) -> float:
    return statistics.median(values) if values else 0.0


# --------------------------------------------------------------------- sweeps


def trial_keys(cfg) -> list[tuple[float, float, int]]:
    """(alpha, rho multiplier, trial) in run_sweep's record order."""
    return [
        (alpha, mult, t)
        for alpha in cfg.alpha_grid
        for mult in cfg.rho_multipliers
        for t in range(cfg.trials)
    ]


def pass_clock(pooled: bool):
    """The clock a pass is timed with. A 1-worker pass runs on this process's
    one thread (BLAS is pinned to 1 thread), so its CPU clock reads its busy
    time and leaves out the time a shared VM's host deschedules it (steal),
    which moved wall-clock rates by up to 40% between runs on the reference
    box. A pool pass spans several processes and is timed by the wall clock."""
    return time.perf_counter if pooled else time.process_time


def sweep_pass(cfg, workers: int, scratch: Path):
    """What `sparsecert sweep` does: run_sweep, aggregate_curves and both CSV
    writes. Returns (seconds, trial CSV bytes, aggregate CSV bytes, records)."""
    trial_csv = scratch / f"sweep-{workers}.csv"
    agg_csv = scratch / f"sweep-{workers}.csv.agg.csv"
    clock = pass_clock(workers > 1)
    start = clock()
    records = ensemble.run_sweep(cfg, workers=workers)
    curves = ensemble.aggregate_curves(cfg, records)
    fileio.write_sweep_csv(trial_csv, records)
    fileio.write_agg_csv(agg_csv, curves)
    elapsed = clock() - start
    return elapsed, trial_csv.read_bytes(), agg_csv.read_bytes(), records


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def reference_for(name: str, cfg) -> dict | None:
    """Pinned CSV digests for this workload, seed and size, if any."""
    refs = json.loads(REFERENCES.read_text(encoding="utf-8"))
    return refs.get(f"{name}/seed={cfg.master_seed}/trials={cfg.trials}")


class SweepChecker:
    """Gate for sweep passes: the first pass is checked against the pinned
    digests (when this seed and size have them); every later pass, at any
    worker count, must reproduce its bytes exactly."""

    def __init__(self, gate: Gate, trials: int, reference: dict | None):
        self.gate = gate
        self.trials = trials
        self.reference = reference
        self.expected: tuple[bytes, bytes] | None = None
        self.records = None

    def run(self, cfg, workers: int, scratch: Path) -> float | None:
        """One checked pass; its seconds, or None if it raised."""
        try:
            elapsed, trial_bytes, agg_bytes, records = sweep_pass(cfg, workers, scratch)
        except Exception as exc:  # a raising pass fails all of its trials
            self.gate.record(self.trials, self.trials, f"sweep pass raised {exc!r}")
            return None
        problem = self.check(trial_bytes, agg_bytes)
        self.gate.record(self.trials, self.trials if problem else 0, problem)
        if self.expected is None and problem is None:
            self.expected, self.records = (trial_bytes, agg_bytes), records
        return elapsed

    def check(self, trial_bytes: bytes, agg_bytes: bytes) -> str | None:
        if self.expected is not None:
            if (trial_bytes, agg_bytes) != self.expected:
                return "CSV bytes differ between passes"
            return None
        if self.reference is not None:
            if sha256(trial_bytes) != self.reference["trial_csv_sha256"]:
                return "trial CSV digest differs from the pinned reference"
            if sha256(agg_bytes) != self.reference["agg_csv_sha256"]:
                return "aggregate CSV digest differs from the pinned reference"
        return None


def latency_pass(cfg, records, gate: Gate) -> list[float]:
    """Untraced per-trial latency (CPU ms, see pass_clock) of generate_instance
    + evaluate_trial. Each decision must match the sweep's record and respect
    dominance."""
    expected = {
        (r.alpha, r.rho_multiplier, r.trial_index): (r.pwg_exact, r.dcl_exact)
        for r in records or []
    }
    p = cfg.p_list[0]
    latencies = []
    for alpha, mult, t in trial_keys(cfg):
        start = time.process_time()
        try:
            inst, _, support = ensemble.generate_instance(cfg, p, alpha, mult, t)
            decision = ensemble.evaluate_trial(inst, support)
        except Exception as exc:
            gate.record(1, 1, f"trial {(alpha, mult, t)} raised {exc!r}")
            continue
        latencies.append((time.process_time() - start) * 1e3)
        wrong = decision[0] and not decision[1]
        if expected:
            wrong = wrong or expected.get((alpha, mult, t)) != decision
        gate.record(1, int(wrong), f"trial {(alpha, mult, t)} decided {decision}" if wrong else None)
    return latencies


def verify_exact_certificates(certified, gate: Gate) -> None:
    """Every EXACT check_dcl certificate of the traced passes must re-verify.
    `certified` holds (generate_instance arguments, certificate) pairs."""
    for call, cert in certified:
        inst, _, _ = ensemble.generate_instance(*call)
        try:
            certificates.verify_dcl_certificate(inst, cert)
        except Exception as exc:
            gate.record(1, 1, f"certificate of trial {call[2:]}: {exc}")
        else:
            gate.record(1, 0)


# --------------------------------------------------------------------- audit


class AuditError(Exception):
    """An audited instance broke one of the oracle or certificate checks."""


def _kkt_residual(inst, support, cert) -> float:
    d_raw, lam_raw = certificates.kkt_variables(inst, cert)
    rep = certificates.verify_kkt(inst, support, d_raw, lam_raw)
    return max(rep.psd_residual_big, rep.psd_residual_small, rep.comp_residual)


def audit_instance(cfg, key) -> tuple:
    """`sparsecert check` + `sparsecert oracle` on one generated instance,
    plus the re-verification the CLI skips. Returns a summary that must be
    identical at every worker count; raises AuditError on a failed check."""
    alpha, mult, t = key
    inst, _, support = ensemble.generate_instance(cfg, cfg.p_list[0], alpha, mult, t)
    pwg = certificates.check_pwg(inst, support)
    dcl = certificates.check_dcl(inst, support)
    if pwg.exact and not dcl.exact:
        raise AuditError("threshold certificate without a dual certificate")
    if pwg.exact:
        witness = certificates.pwg_witness_to_dcl(inst, support, pwg.certificate)
        if _kkt_residual(inst, support, witness) > KKT_TOL:
            raise AuditError("KKT residual of the transferred witness above tolerance")
    if dcl.exact:
        certificates.verify_dcl_certificate(inst, dcl.certificate)
        if dcl.certificate.lam > 0.0 and _kkt_residual(inst, support, dcl.certificate) > KKT_TOL:
            raise AuditError("KKT residual of the dual certificate above tolerance")
    brute = oracles.brute_force_l0(inst)
    relaxed = oracles.pwg_value(inst)
    if relaxed.value > brute.value + RELAXATION_SLACK:
        raise AuditError("relaxation value exceeds the brute-force optimum")
    if dcl.exact:
        value = linalg.ridge_restricted_solve(inst, support).value
        if abs(value - brute.value) > VALUE_REL_TOL * (1.0 + abs(brute.value)):
            raise AuditError("certified support is not the brute-force optimum")
    reason = "exact" if dcl.exact else dcl.reason
    return (pwg.exact, reason, tuple(brute.argmin_supports), brute.value, relaxed.value, relaxed.iterations)


def audit_task(args) -> tuple[str, object, float]:
    """(status, summary or message, CPU ms) for one instance; never raises,
    so one failing instance does not hide the others."""
    cfg, key = args
    start = time.process_time()
    try:
        summary = audit_instance(cfg, key)
    except Exception as exc:
        return "fail", f"instance {key}: {exc!r}", (time.process_time() - start) * 1e3
    return "ok", summary, (time.process_time() - start) * 1e3


class AuditChecker:
    """Gate for audit passes: every instance passes its checks and every
    pass reproduces the first pass's summaries."""

    def __init__(self, gate: Gate):
        self.gate = gate
        self.expected: list | None = None

    def run(self, cfg, pool=None) -> tuple[float, list[float]]:
        """One pass, serial or on `pool`; (seconds, per-instance ms)."""
        tasks = [(cfg, key) for key in trial_keys(cfg)]
        clock = pass_clock(pool is not None)
        start = clock()
        results = list(pool.map(audit_task, tasks) if pool else map(audit_task, tasks))
        elapsed = clock() - start
        summaries = []
        for status, payload, _ in results:
            self.gate.record(1, int(status != "ok"), payload if status != "ok" else None)
            summaries.append(payload if status == "ok" else None)
        if self.expected is None:
            self.expected = summaries
        else:
            moved = sum(a != b for a, b in zip(summaries, self.expected) if a and b)
            self.gate.record(0, moved, f"{moved} audit summaries moved between passes" if moved else None)
        return elapsed, [ms for _, _, ms in results]


def spawn_pool(workers: int, cfg) -> ProcessPoolExecutor:
    """Spawned workers, started and warmed up on one instance each before
    any pass is timed."""
    pool = ProcessPoolExecutor(max_workers=workers, mp_context=multiprocessing.get_context("spawn"))
    warm = (cfg, trial_keys(cfg)[0])
    for future in [pool.submit(audit_task, warm) for _ in range(2 * workers)]:
        future.result()
    return pool


# -------------------------------------------------------------- layer metrics


def trace_hooks(tracer: Tracer, certified: list | None) -> dict:
    """Span notes for the traced pass. When `certified` is a list, every EXACT
    check_dcl certificate is kept with the generate_instance arguments of its
    trial for re-verification. Spans after run_sweep returns belong to no
    trial."""
    current = {}

    def on_generate(args, result):
        current["call"] = args

    def on_dcl(args, result):
        if result.exact and certified is not None:
            certified.append((current["call"], result.certificate))
        return "exact" if result.exact else result.reason

    return {
        "ensemble.run_sweep": lambda args, result: setattr(tracer, "trial", -1),
        "ensemble.generate_instance": on_generate,
        "certificates.check_dcl": on_dcl,
        "oracles.brute_force_l0": lambda args, result: math.comb(args[0].p, args[0].k),
        "oracles.pwg_value": lambda args, result: result.iterations,
    }


def layer_metrics(spans: list[Span], trials: int, pass_s: float) -> dict[str, float]:
    """Per-layer metrics of traced passes over `trials` trials in all, which
    took `pass_s` seconds of CPU time. A layer the workload never calls reads 0."""
    by_name: dict[str, list[tuple[Span, int]]] = defaultdict(list)
    for span, own in zip(spans, self_times(spans)):
        by_name[span.name].append((span, own))

    def ms(name):
        return [span.duration / 1e6 for span, _ in by_name[name]]

    def seconds(name):
        return sum(span.duration for span, _ in by_name[name]) / 1e9

    def p50(name):
        return median(ms(name))

    dcl = by_name["certificates.check_dcl"]
    dcl_s = seconds("certificates.check_dcl")
    dcl_ms = ms("certificates.check_dcl")
    eig_calls = len(by_name["linalg.max_eig_sym"])
    reasons = Counter(span.note for span, _ in dcl)
    supports = sum(span.note for span, _ in by_name["oracles.brute_force_l0"])
    iterations = [span.note for span, _ in by_name["oracles.pwg_value"]]
    metrics = {
        "ensemble.generate_instance.p50_ms": p50("ensemble.generate_instance"),
        "ensemble.generate_instance.share": seconds("ensemble.generate_instance") / pass_s,
        "rng.SplitMix64.normals.p50_ms": p50("rng.SplitMix64.normals"),
        "linalg.correlation_scores.calls_per_trial": len(by_name["linalg.correlation_scores"]) / trials,
        "linalg.correlation_scores.p50_ms": p50("linalg.correlation_scores"),
        "linalg.max_eig_sym.calls_per_trial": eig_calls / trials,
        "linalg.max_eig_sym.p50_ms": p50("linalg.max_eig_sym"),
        "linalg.max_eig_sym.share": seconds("linalg.max_eig_sym") / dcl_s if dcl_s else 0.0,
        "certificates.check_pwg.p50_ms": p50("certificates.check_pwg"),
        "certificates.check_dcl.p50_ms": median(dcl_ms),
        "certificates.check_dcl.tail_ms": percentile(dcl_ms, tail_percentile(len(dcl_ms))),
        "certificates.check_dcl.self_share": (
            sum(own for _, own in dcl) / 1e9 / dcl_s if dcl_s else 0.0
        ),
        "certificates.check_dcl.exact_per_eval": reasons["exact"] / eig_calls if eig_calls else 0.0,
        "certificates.verify_dcl_certificate.p50_ms": p50("certificates.verify_dcl_certificate"),
        "certificates.pwg_witness_to_dcl.p50_ms": p50("certificates.pwg_witness_to_dcl"),
        "certificates.verify_kkt.p50_ms": p50("certificates.verify_kkt"),
        "oracles.brute_force_l0.p50_ms": p50("oracles.brute_force_l0"),
        "oracles.brute_force_l0.supports_per_s": (
            supports / seconds("oracles.brute_force_l0") if supports else 0.0
        ),
        "oracles.pwg_value.p50_ms": p50("oracles.pwg_value"),
        "oracles.pwg_value.iterations_mean": statistics.fmean(iterations) if iterations else 0.0,
        "fileio.write_sweep_csv.ms": p50("fileio.write_sweep_csv"),
    }
    for reason in REASONS:
        metrics[f"certificates.check_dcl.reason.{reason}"] = reasons[reason]
    return metrics


# ------------------------------------------------------------------------ runs


def warm_up(cfg, audit: bool, gate: Gate) -> None:
    """One untimed trial, so that lazy imports and first calls are not timed."""
    if audit:
        status, payload, _ = audit_task((cfg, trial_keys(cfg)[0]))
        gate.record(1, int(status != "ok"), payload if status != "ok" else None)
    else:
        first = replace(cfg, trials=1, alpha_grid=cfg.alpha_grid[:1], rho_multipliers=cfg.rho_multipliers[:1])
        latency_pass(first, None, gate)


def pool_workers() -> int:
    return max(1, min(len(os.sched_getaffinity(0)), MAX_POOL_WORKERS))


def round_config(cfg, r: int):
    """Round r's inputs. Round 0 uses the run's seed as is; later rounds fold
    r into it, so a run's rates average over ROUNDS times as many distinct
    trials and depend less on one seed's mix of slow and fast trials."""
    return cfg if r == 0 else replace(cfg, master_seed=seed_derive(cfg.master_seed, 0, 0, 0, r))


def fastest(times: list) -> float | None:
    """The fastest of repeated wall-clock passes over the same inputs: other
    tenants of a shared machine can only slow a pass down. None if any raised."""
    return None if None in times else min(times)


def rate(trials: int, times: list) -> float:
    """Trials per second over passes of `trials` trials each; 0.0 when a
    pass raised."""
    return trials * len(times) / sum(times) if times and None not in times else 0.0


def end_to_end(trials: int, serial: list, pooled: list, latencies: list[float]) -> tuple[dict, dict]:
    """Rates over every round's passes and latency percentiles over every
    round's samples."""
    tail_pct = tail_percentile(len(latencies))
    own_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    worker_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    metrics = {
        "trials_per_s": rate(trials, serial),
        "pool_trials_per_s": rate(trials, pooled),
        "trial_p50_ms": median(latencies),
        "trial_tail_ms": percentile(latencies, tail_pct),
        "peak_rss_mb": max(own_kb, worker_kb) / 1024,
    }
    info = {
        "tail_percentile": tail_pct,
        "latency_samples": len(latencies),
        "rounds": len(serial),
        "peak_rss_process_mb": own_kb / 1024,
        "peak_rss_largest_worker_mb": worker_kb / 1024,
    }
    return metrics, info


def measure_sweep(workload: Workload, cfg, trace: bool, scratch: Path, gate: Gate, tracer: Tracer):
    trials = len(trial_keys(cfg))
    workers = pool_workers()
    warm_up(cfg, False, gate)
    serial, pooled, traced, latencies, certified = [], [], [], [], []
    for r in range(ROUNDS):
        inputs = round_config(cfg, r)
        checker = SweepChecker(gate, trials, reference_for(workload.name, inputs))
        serial.append(checker.run(inputs, 1, scratch))
        pooled.append(fastest([checker.run(inputs, workers, scratch) for _ in range(1 if trace else POOL_PASSES)]))
        if not trace:
            latencies += latency_pass(inputs, checker.records, gate)
            continue
        with tracer.installed(TARGETS, trace_hooks(tracer, certified)):
            traced.append(checker.run(inputs, 1, scratch))
    if not trace:
        return end_to_end(trials, serial, pooled, latencies)
    mark = len(tracer.spans)
    with tracer.installed(TARGETS):
        verify_exact_certificates(certified, gate)
    metrics = layer_metrics(tracer.spans[:mark], trials * ROUNDS, sum(t or math.inf for t in traced))
    verified = [s.duration / 1e6 for s in tracer.spans[mark:] if s.name == "certificates.verify_dcl_certificate"]
    metrics["certificates.verify_dcl_certificate.p50_ms"] = median(verified)
    return finish_layers(metrics, trials, serial, traced, pooled, workers), {"certified": len(certified)}


def measure_audit(workload: Workload, cfg, trace: bool, gate: Gate, tracer: Tracer):
    trials = len(trial_keys(cfg))
    workers = pool_workers()
    warm_up(cfg, True, gate)
    serial, pooled, traced, latencies = [], [], [], []
    with spawn_pool(workers, cfg) as pool:
        for r in range(ROUNDS):
            inputs = round_config(cfg, r)
            checker = AuditChecker(gate)
            elapsed, ms = checker.run(inputs)
            serial.append(elapsed)
            latencies += ms
            pooled.append(fastest([checker.run(inputs, pool)[0] for _ in range(1 if trace else POOL_PASSES)]))
            if trace:
                with tracer.installed(TARGETS, trace_hooks(tracer, None)):
                    traced.append(checker.run(inputs)[0])
    if not trace:  # after the pool has shut down, so its workers' peak RSS is known
        return end_to_end(trials, serial, pooled, latencies)
    metrics = layer_metrics(tracer.spans, trials * ROUNDS, sum(traced))
    return finish_layers(metrics, trials, serial, traced, pooled, workers), {}


def finish_layers(metrics: dict, trials: int, serial: list, traced: list, pooled: list, workers: int) -> dict:
    """Add the ratios between the traced, untraced and pool passes."""
    untraced_rate = rate(trials, serial)
    metrics["trace.overhead"] = rate(trials, traced) / untraced_rate if untraced_rate else 0.0
    metrics["ensemble.pool.efficiency"] = (
        rate(trials, pooled) / (workers * untraced_rate) if untraced_rate else 0.0
    )
    return metrics


def measure_unpinned(workload: Workload, cfg, scratch: Path, gate: Gate) -> dict:
    """One pool pass over one trial per cell, for a process whose BLAS thread
    count is left at its default."""
    one = replace(cfg, trials=1)
    trials = len(trial_keys(one))
    if workload.audit:
        with spawn_pool(pool_workers(), one) as pool:
            elapsed, _ = AuditChecker(gate).run(one, pool)
    else:
        elapsed = SweepChecker(gate, trials, None).run(one, pool_workers(), scratch)
    return {"ensemble.pool.unpinned_trials_per_s": rate(trials, [elapsed])}


def environment() -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {"name": blas.get("name"), "version": blas.get("version")}
    except (KeyError, TypeError):
        blas = {"name": "unknown", "version": "unknown"}
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "pool_workers": pool_workers(),
        "blas": blas,
        "blas_thread_env": {var: os.environ.get(var) for var in BLAS_THREAD_VARS},
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "sparsecert": sparsecert.__version__,
    }


def measure(workload: Workload, cfg, trace: bool, unpinned: bool, scratch: Path) -> dict:
    gate = Gate()
    tracer = Tracer()
    info = {"trials": len(trial_keys(cfg)), "trials_per_cell": cfg.trials}
    if unpinned:
        metrics = measure_unpinned(workload, cfg, scratch, gate)
    elif workload.audit:
        metrics, extra = measure_audit(workload, cfg, trace, gate, tracer)
        info.update(extra)
    else:
        metrics, extra = measure_sweep(workload, cfg, trace, scratch, gate, tracer)
        info.update(extra)
    if tracer.spans:
        spans_path = OUT_DIR / f"spans-{workload.name}-seed{cfg.master_seed}.jsonl"
        write_jsonl(spans_path, tracer.spans)
        info["spans_file"] = os.path.relpath(spans_path, ROOT)
        info["spans"] = len(tracer.spans)
    info["environment"] = environment()
    return {
        "attempted": gate.attempted,
        "failed": gate.failed,
        "problems": gate.problems,
        "metrics": metrics,
        "info": info,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--unpinned", action="store_true")
    args = parser.parse_args(argv)
    workload = WORKLOADS[args.workload]
    cfg = workload.config(args.seed, args.seconds)
    usage = resource.getrusage(resource.RUSAGE_SELF)
    print(f"ready {usage.ru_utime + usage.ru_stime}", flush=True)  # CPU seconds since launch
    if args.setup_only:
        return 0
    OUT_DIR.mkdir(exist_ok=True)
    scratch = OUT_DIR / f"scratch-{os.getpid()}"
    scratch.mkdir()
    try:
        result = measure(workload, cfg, bool(args.trace), args.unpinned, scratch)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
