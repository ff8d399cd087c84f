import math
import os
import pickle
import re
import runpy
import time
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sparsecert import EnsembleConfig, ProblemInstance, generate_instance, run_sweep
from sparsecert import _lapack, ensemble
from sparsecert.certificates import check_dcl, verify_dcl_certificate
from sparsecert.ensemble import aggregate_curves, evaluate_trial, sample_size_for, sparsity_for
from sparsecert.rng import SplitMix64, seed_derive


def small_config(**overrides):
    kwargs = dict(
        p_list=[9],
        trials=3,
        alpha_grid=[1.0, 2.0],
        rho_multipliers=[2.0],
        gamma=0.5,
        master_seed=1234,
    )
    kwargs.update(overrides)
    return EnsembleConfig(**kwargs)


# ------------------------------------------------------------------ seeds / rng


def test_seed_derive_reference_frozen():
    assert seed_derive(0, 0, 0, 0, 0) == 0x2130748AAAC80268


def test_seed_derive_rejects_negative_fields():
    with pytest.raises(ValueError):
        seed_derive(0, -1, 0, 0, 0)


@settings(max_examples=200, deadline=None)
@given(
    st.integers(min_value=0, max_value=2**64 - 1),
    st.tuples(*[st.integers(min_value=0, max_value=500)] * 4),
    st.tuples(*[st.integers(min_value=0, max_value=500)] * 4),
)
def test_seed_derive_distinct_tuples_distinct_streams(master, t1, t2):
    s1 = seed_derive(master, *t1)
    s2 = seed_derive(master, *t2)
    assert s1 == s2 if t1 == t2 else s1 != s2


def test_splitmix_scalar_and_block_agree():
    g1, g2 = SplitMix64(99), SplitMix64(99)
    scalars = [g1.next_u64() for _ in range(73)]
    assert [int(v) for v in g2._outputs(33, (0,))] == scalars[:33]
    # two runs in one array, the second 40 draws on, as a normals block takes them
    assert [int(v) for v in g2._outputs(33, (0, 40))] == scalars[:33] + scalars[40:]


def test_normals_moments_within_confidence_bands():
    m = 200_000
    z = SplitMix64(2024).normals(m)
    assert abs(z.mean()) <= 5.0 / math.sqrt(m)
    assert abs(z.var() - 1.0) <= 5.0 * math.sqrt(2.0 / (m - 1))


# ------------------------------------------------------------------- generation


def test_generate_instance_arithmetic():
    cfg = small_config(p_list=[64], alpha_grid=[3.0], rho_multipliers=[2.0])
    inst, beta, support = generate_instance(cfg, 64, 3.0, 2.0, 0)
    assert sparsity_for(64) == 8
    assert inst.k == 8
    assert inst.n == 97  # ceil(3 * 8 * ln 56) = ceil(96.61)
    assert inst.rho == pytest.approx(2.0 * math.sqrt(97))
    assert len(support) == 8
    assert set(np.flatnonzero(beta)) == set(support)
    assert set(np.abs(beta[list(support)])) == {1.0}


def test_generate_instance_noiseless():
    cfg = small_config(gamma=0.0)
    inst, beta, _ = generate_instance(cfg, 9, 1.0, 2.0, 0)
    assert np.array_equal(inst.y, inst.X @ beta)


def test_generate_instance_deterministic():
    cfg = small_config()
    a = generate_instance(cfg, 9, 2.0, 2.0, 1)
    b = generate_instance(cfg, 9, 2.0, 2.0, 1)
    assert np.array_equal(a[0].X, b[0].X)
    assert np.array_equal(a[0].y, b[0].y)
    assert np.array_equal(a[1], b[1])
    assert a[2] == b[2]


def test_generate_instance_normality_sanity():
    cfg = small_config(p_list=[100], alpha_grid=[6.0])
    inst, _, _ = generate_instance(cfg, 100, 6.0, 2.0, 0)
    flat = inst.X.reshape(-1)
    m = flat.size
    assert abs(flat.mean()) <= 5.0 / math.sqrt(m)
    assert abs(flat.var() - 1.0) <= 5.0 * math.sqrt(2.0 / (m - 1))


def test_generate_instance_peak_memory_is_the_design_plus_one_block():
    # 678,912 normals at p=1024, alpha 3, drawn in 83 blocks: the draw's
    # temporaries are O(NORMAL_BLOCK), not a few copies of the 5.2 MiB design
    cfg = small_config(p_list=[1024], alpha_grid=[3.0])
    tracemalloc.start()
    try:
        inst, _, _ = generate_instance(cfg, 1024, 3.0, 2.0, 0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert inst.X.shape == (663, 1024)
    assert peak <= inst.X.nbytes + 384 * 1024


def test_sample_size_guard():
    with pytest.raises(ValueError):
        sample_size_for(3, 1.0)  # p - k = 1


def test_config_validation():
    with pytest.raises(ValueError):
        small_config(p_list=[])
    with pytest.raises(ValueError):
        small_config(p_list=[3])
    with pytest.raises(ValueError):
        small_config(trials=0)
    with pytest.raises(ValueError):
        small_config(gamma=-0.1)
    with pytest.raises(ValueError):
        small_config(alpha_grid=[1.0, 1.0])
    for bad in (
        dict(p_list=9),
        dict(p_list=(9,)),
        dict(p_list=[None]),
        dict(p_list=["9"]),
        dict(p_list=[True, 9]),
        dict(p_list=[16.5]),
        dict(p_list=[float("inf")]),
        dict(alpha_grid=[float("inf")]),
        dict(alpha_grid=[float("nan")]),
        dict(alpha_grid=["2"]),
        dict(alpha_grid=[None]),
        dict(rho_multipliers=[True]),
        dict(rho_multipliers=[-float("inf")]),
        dict(rho_multipliers=2.0),
        # seed_derive reads the seed mod 2^64, so these used to alias seed 0
        dict(master_seed=2**64),
        dict(master_seed=-(2**64)),
        dict(master_seed=-1),
        dict(master_seed=1e300),
        dict(master_seed=True),
        # these were taken as given, or failed later with a TypeError
        dict(trials=2.5),
        dict(trials=True),
        dict(trials="2"),
        dict(gamma="0.5"),
        dict(gamma=True),
        dict(gamma=float("nan")),
        dict(gamma=float("inf")),
    ):
        with pytest.raises(ValueError, match="^" + next(iter(bad))):
            small_config(**bad)
    assert small_config(master_seed=2**64 - 1).master_seed == 2**64 - 1


def test_config_integral_float_trials_runs_a_sweep():
    cfg = small_config(trials=2.0, gamma=1)
    assert (type(cfg.trials), type(cfg.gamma)) == (int, float)
    assert run_sweep(cfg, workers=1) == run_sweep(small_config(trials=2, gamma=1.0), workers=1)


# -------------------------------------------------------------------- trials


def test_evaluate_trial_orthogonal_noiseless():
    # well-separated scores: both certificates must fire
    X = np.eye(6)
    beta = np.zeros(6)
    beta[[1, 4]] = [2.0, -2.0]
    inst = ProblemInstance(X=X, y=X @ beta, rho=1.0, k=2)
    assert evaluate_trial(inst, (1, 4)) == (True, True)


def test_evaluate_trial_zero_response_degenerate():
    # every score is 0, so neither test certifies
    inst = ProblemInstance(X=np.eye(4), y=np.zeros(4), rho=1.0, k=2)
    assert evaluate_trial(inst, (0, 1)) == (False, False)


def test_evaluate_trial_requires_full_support():
    # SupportContext is the one place a support is validated
    inst = ProblemInstance(X=np.eye(4), y=np.zeros(4), rho=1.0, k=2)
    with pytest.raises(ValueError, match=r"support size 1 differs from the cardinality budget k=2"):
        evaluate_trial(inst, (0,))
    with pytest.raises(ValueError, match="duplicate support index 1"):
        evaluate_trial(inst, (1, 1))


# --------------------------------------------------------------------- sweeps


@pytest.mark.parametrize("workers", [1, 2, 3, 4, 7])
def test_sweep_deterministic_and_dominance(workers):
    # 6 trials: 4 workers do not divide them and 7 exceed them
    cfg = small_config()
    records1 = run_sweep(cfg, workers=1)
    records2 = run_sweep(cfg, workers=workers)
    assert records1 == records2
    assert len(records1) == 2 * 3
    for rec in records1:
        assert rec.n == sample_size_for(rec.p, rec.alpha)
        assert rec.rho == pytest.approx(rec.rho_multiplier * math.sqrt(rec.n))
        assert rec.dcl_exact or not rec.pwg_exact
        assert rec.trial_seed == seed_derive(
            cfg.master_seed,
            rec.p,
            cfg.alpha_grid.index(rec.alpha),
            cfg.rho_multipliers.index(rec.rho_multiplier),
            rec.trial_index,
        )


def test_every_recorded_dcl_exact_reverifies_at_tiny_rho():
    # run_sweep records check_dcl's verdict, which the verifier's own rule
    # decides; at rho multiplier 1e-12 all 20 trials are recorded exact, and
    # each certificate re-verifies from scratch
    cfg = EnsembleConfig(p_list=[16], trials=20, alpha_grid=[4.0], rho_multipliers=[1e-12])
    records = run_sweep(cfg, workers=1)
    assert len(records) == 20
    assert all(rec.dcl_exact for rec in records)
    for rec in records:
        inst, _, support = generate_instance(cfg, rec.p, rec.alpha, rec.rho_multiplier, rec.trial_index)
        verify_dcl_certificate(inst, check_dcl(inst, support).certificate)


@pytest.mark.parametrize("workers", [2.5, "2", True, 0, -1])
def test_sweep_rejects_bad_worker_counts(workers):
    with pytest.raises(ValueError, match="workers must be an integer >= 1"):
        run_sweep(small_config(), workers=workers)


def log_trial_pids(monkeypatch, log):
    """Make ensemble.evaluate_trial append the pid that runs it to `log`;
    forked children inherit the patched module global."""

    def logged(inst, support):
        with log.open("a") as out:
            out.write(f"{os.getpid()}\n")
        return evaluate_trial(inst, support)

    monkeypatch.setattr(ensemble, "evaluate_trial", logged)


def test_one_cell_sweep_runs_in_the_caller_and_a_child(monkeypatch, tmp_path):
    log_trial_pids(monkeypatch, tmp_path / "pids")
    cfg = small_config(alpha_grid=[2.0], trials=4)
    records = run_sweep(cfg, workers=2)
    pids = (tmp_path / "pids").read_text().split()
    assert len(pids) == 4 and len(set(pids)) == 2 and str(os.getpid()) in pids
    assert records == run_sweep(cfg, workers=1)


def patch_trial(monkeypatch, in_child=None, in_caller=None):
    """Make ensemble.evaluate_trial run `in_child` first in forked children
    and `in_caller` first in the calling process."""
    caller = os.getpid()

    def patched(inst, support):
        action = in_caller if os.getpid() == caller else in_child
        if action:
            action()
        return evaluate_trial(inst, support)

    monkeypatch.setattr(ensemble, "evaluate_trial", patched)


def raiser(exc):
    def action():
        raise exc

    return action


def assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_child_exception_is_raised_in_the_caller(monkeypatch):
    patch_trial(monkeypatch, in_child=raiser(ValueError("bad trial in a child")))
    with pytest.raises(ValueError, match="^bad trial in a child$"):
        run_sweep(small_config(), workers=2)
    assert_no_child_left()


def test_unpicklable_child_exception_arrives_as_runtime_error(monkeypatch):
    patch_trial(monkeypatch, in_child=raiser(ValueError(lambda: None)))
    with pytest.raises(RuntimeError, match="ValueError"):
        run_sweep(small_config(), workers=3)
    assert_no_child_left()


@pytest.mark.parametrize(
    "action, status",
    [(lambda: os._exit(3), 3), (raiser(KeyboardInterrupt()), 1)],
    ids=["exit-3", "keyboard-interrupt"],
)
def test_child_without_a_result_is_a_child_process_error(monkeypatch, action, status):
    # an interrupted child ends in os._exit instead of unwinding into the caller's stack
    patch_trial(monkeypatch, in_child=action)
    with pytest.raises(ChildProcessError, match=rf"pid \d+ ended with exit status {status} and no result"):
        run_sweep(small_config(), workers=3)
    assert_no_child_left()


@pytest.mark.parametrize("exc", [ValueError, KeyboardInterrupt])
def test_caller_exception_kills_and_reaps_every_child(monkeypatch, exc):
    # the children would take 30 s a trial: they are killed, not waited for
    patch_trial(monkeypatch, in_child=lambda: time.sleep(30), in_caller=raiser(exc("caller")))
    start = time.perf_counter()
    with pytest.raises(exc, match="caller"):
        run_sweep(small_config(), workers=3)
    assert time.perf_counter() - start < 15
    assert_no_child_left()


def test_pooled_sweep_pins_blas_to_one_thread_and_restores_the_callers_count(monkeypatch):
    # the caller's count is raised to 2 first, so the pin shows under
    # OPENBLAS_NUM_THREADS=1 too
    get = getattr(_lapack._LIB, "scipy_openblas_get_num_threads64_", None)
    if get is None:
        pytest.skip("this OpenBLAS exports no thread symbols")
    before = _lapack.set_blas_threads(2)
    try:
        seen = []
        patch_trial(monkeypatch, in_caller=lambda: seen.append(get()))
        run_sweep(small_config(), workers=2)
        assert set(seen) == {1} and get() == 2
        seen.clear()
        run_sweep(small_config(), workers=1)  # one process keeps the caller's threads
        assert set(seen) == {2} and get() == 2
        def report():  # a forked child inherits the pin
            raise ValueError(f"child threads={get()}")

        patch_trial(monkeypatch, in_child=report)
        with pytest.raises(ValueError, match="^child threads=1$"):
            run_sweep(small_config(), workers=2)
        assert get() == 2
        assert_no_child_left()
    finally:
        _lapack.set_blas_threads(before)


def test_child_result_larger_than_a_pipe_buffer():
    # read before reap: a child blocked on a full pipe never exits
    cfg = EnsembleConfig(p_list=[9], trials=20)
    serial = run_sweep(cfg, workers=1)
    assert len(pickle.dumps((True, serial[1::2]))) > 65536
    assert run_sweep(cfg, workers=2) == serial
    assert_no_child_left()


@pytest.mark.parametrize(
    "affinity, cpus, processes",
    [({0}, 8, 1), ({0, 1}, 8, 2), (None, 3, 3)],
    ids=["one-cpu-of-8", "two-cpus-of-8", "no-affinity-call"],
)
def test_default_workers_are_the_cpus_this_process_may_use(monkeypatch, tmp_path, affinity, cpus, processes):
    log_trial_pids(monkeypatch, tmp_path / "pids")
    monkeypatch.setattr(os, "cpu_count", lambda: cpus)
    if affinity is None:
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
    else:
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(affinity))
    assert len(run_sweep(small_config(), workers=None)) == 6
    assert len(set((tmp_path / "pids").read_text().split())) == processes


def test_serial_sweep_looks_up_each_trial_step_once_per_trial(monkeypatch):
    # the benchmark's tracer wraps these module globals to find trial starts
    calls = {"generate_instance": 0, "evaluate_trial": 0}

    def counted(name):
        original = getattr(ensemble, name)

        def wrapper(*args):
            calls[name] += 1
            return original(*args)

        return wrapper

    for name in calls:
        monkeypatch.setattr(ensemble, name, counted(name))
    assert len(run_sweep(small_config(), workers=1)) == 6
    assert calls == {"generate_instance": 6, "evaluate_trial": 6}


def test_aggregate_rates():
    cfg = small_config()
    records = run_sweep(cfg, workers=1)
    rows = aggregate_curves(cfg, records)
    assert len({(r["p"], r["rho_multiplier"]) for r in rows}) == 1
    assert rows[0]["p"] == 9 and rows[0]["rho_multiplier"] == 2.0
    assert [r["alpha"] for r in rows] == [1.0, 2.0]
    for r in rows:
        assert r["trials"] == 3
        assert 0.0 <= r["pwg_rate"] <= r["dcl_rate"] <= 1.0


def test_recovery_rate_grows_with_alpha():
    # sanity at full experiment scale: more data helps the dual certificate
    cfg = EnsembleConfig(
        p_list=[64],
        trials=10,
        alpha_grid=[1.0, 10.0],
        rho_multipliers=[2.0],
        gamma=0.5,
        master_seed=7,
    )
    records = run_sweep(cfg, workers=None)
    dcl_low, dcl_high = (r["dcl_rate"] for r in aggregate_curves(cfg, records))
    assert dcl_high >= dcl_low


def test_decision_grid_matches_pinned_digest(capsys):
    # the decision-identity gate of scripts/decision_grid.py on one seed (1368
    # trials); CI runs seeds 100-105 against the digest of all 8208
    main = runpy.run_path(str(Path(__file__).parents[1] / "scripts" / "decision_grid.py"))["main"]
    sha = "f1c30ca2dd4b6937cf9f30691979752875034e1c5eea9c1e7d1eb9c3cf0de54d"
    assert main(["--seeds", "100", "--expect", sha]) == 0
    out = capsys.readouterr().out
    assert "p=16: exact 385, interval-empty 71\n" in out
    assert "p=32: exact 402, interval-empty 54\n" in out
    assert "p=64: exact 406, interval-empty 50\n" in out
    gap = re.search(r"^trials 1368, unverified 0, max \|gap\| (\S+)$", out, re.MULTILINE)
    assert gap is not None and float(gap.group(1)) <= 1e-14
    assert "\nsearch/verifier gap mismatches 0\n" in out
    assert "\ndominance violations 0\n" in out
