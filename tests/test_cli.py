import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from helpers import scaled_gaussian_instance
from sparsecert import ProblemInstance, certificates, cli, ensemble, oracles
from sparsecert.cli import main
from sparsecert.fileio import save_instance

IDENTITY_DOC = {
    "n": 2,
    "p": 2,
    "rho": 1.0,
    "k": 1,
    "X": [1.0, 0.0, 0.0, 1.0],
    "y": [1.0, 0.0],
    "support": [0],
}


@pytest.fixture
def identity_instance(tmp_path):
    path = tmp_path / "identity.json"
    path.write_text(json.dumps(IDENTITY_DOC), encoding="utf-8")
    return path


def test_check_exact_support(identity_instance, capsys):
    code = main(["check", str(identity_instance), "--support", "0"])
    out = capsys.readouterr().out
    assert code == 0
    assert "pwg: exact" in out and "min_in=0.5" in out and "max_out=0.0" in out
    assert "dcl: exact" in out and "lambda=0.25" in out
    assert "gap=0.000e+00" in out


def test_check_uses_file_support(identity_instance, capsys):
    assert main(["check", str(identity_instance)]) == 0
    assert "support: [0]" in capsys.readouterr().out


def test_check_empty_support_exits_1(identity_instance, tmp_path, capsys):
    # the support is refused before any score is computed or printed
    assert main(["check", str(identity_instance), "--support", ""]) == 1
    assert "error: certificate checks need a nonempty support" in capsys.readouterr().err
    path = tmp_path / "empty_support.json"
    path.write_text(json.dumps({**IDENTITY_DOC, "support": []}), encoding="utf-8")
    assert main(["check", str(path)]) == 1
    assert "error: certificate checks need a nonempty support" in capsys.readouterr().err


def test_check_wrong_support_exits_2(identity_instance, capsys):
    code = main(["check", str(identity_instance), "--support", "1"])
    out = capsys.readouterr().out
    assert code == 2
    assert "pwg: not-certified" in out and "dcl: not-certified" in out


def test_check_tiny_rho_exits_cleanly(tmp_path, capsys):
    # used to end in an OverflowError traceback from the dual search
    rng = np.random.default_rng(0)
    inst = ProblemInstance(
        X=rng.standard_normal((12, 8)), y=rng.standard_normal(12), rho=1e-300, k=2
    )
    path = tmp_path / "tiny_rho.json"
    save_instance(path, inst, (0, 1))
    code = main(["check", str(path)])
    out = capsys.readouterr().out
    # the support scores are at roundoff level here; the dual search finds a
    # threshold, but the verifier rejects it, so check does not exit 0; its
    # canonical duals leave a duality gap of about 4e284
    assert code == 2
    assert "dcl: not-verified (duality gap 3.9" in out


def test_check_huge_kkt_residual_exits_2(tmp_path, capsys):
    # check_dcl certifies (0, 1) here although the brute-force argmin is
    # (3, 4); its KKT complementarity residual is about 1.6e29, and the
    # verifier rejects it
    rng = np.random.default_rng(0)
    inst = ProblemInstance(
        X=rng.standard_normal((12, 8)), y=rng.standard_normal(12), rho=1e-30, k=2
    )
    path = tmp_path / "huge_kkt.json"
    save_instance(path, inst, (0, 1))
    code = main(["check", str(path)])
    out = capsys.readouterr().out
    assert code == 2
    assert "dcl: not-verified (duality gap 3.9" in out
    assert "dcl: exact" not in out


def test_check_nan_duality_gap_exits_2(identity_instance, capsys, monkeypatch):
    solve = certificates.ridge_restricted_solve

    def nan_value(inst, support):
        fit = solve(inst, support)
        fit.value = float("nan")
        return fit

    monkeypatch.setattr(certificates, "ridge_restricted_solve", nan_value)
    code = main(["check", str(identity_instance), "--support", "0"])
    out = capsys.readouterr().out
    assert code == 2
    assert "dcl: not-verified (duality gap nan at the restricted fit)" in out
    assert "dcl: exact" not in out


def test_check_zero_response_is_a_zero_score_in_support(tmp_path, capsys):
    # y = 0 makes every score 0; no certificate exists, lam = 0 included
    path = tmp_path / "zero_response.json"
    save_instance(path, ProblemInstance(X=np.eye(3), y=np.zeros(3), rho=1.0, k=1), (0,))
    code = main(["check", str(path)])
    out = capsys.readouterr().out
    assert code == 2
    assert "pwg: not-certified (separation-failed)" in out
    assert "dcl: not-certified (zero-score-in-support)" in out


def test_check_support_smaller_than_k_exits_1(tmp_path, capsys):
    # {0} passes the threshold test and carries a dual certificate with an
    # NSD slack matrix, but the unique argmin is {0, 1}: the lifted dual
    # value at {0} falls short by lam_raw/2, so such supports are refused
    path = tmp_path / "identity_k2.json"
    save_instance(path, ProblemInstance(X=np.eye(2), y=[1.0, 0.25], rho=1.0, k=2))
    assert main(["check", str(path), "--support", "0"]) == 1
    assert "error: support size 1 differs from the cardinality budget k=2" in capsys.readouterr().err
    assert main(["check", str(path), "--support", "1,1"]) == 1
    captured = capsys.readouterr()
    assert "error: duplicate support index 1" in captured.err and captured.out == ""
    assert main(["oracle", str(path)]) == 0
    assert "argmin supports: {0,1}" in capsys.readouterr().out


def test_check_prints_reverified_gap(identity_instance, capsys):
    # the verifier decides the slack matrix diag(1, 0) - 2 I on a Schur
    # complement and reports no eigenvalue, only the closed duality gap
    assert main(["check", str(identity_instance), "--support", "0"]) == 0
    out = capsys.readouterr().out
    assert "gap=0.000e+00" in out and "psd_margin" not in out


def test_check_computes_the_scores_once_for_both_tests(identity_instance, capsys, monkeypatch):
    # one context serves both tests, the threshold witness included;
    # verify_dcl_certificate builds its own, which computes no witness
    calls = []
    for mod in (certificates, cli):
        if hasattr(mod, "correlation_scores"):
            inner = getattr(mod, "correlation_scores")
            monkeypatch.setattr(
                mod, "correlation_scores", lambda *a, f=inner: calls.append(1) or f(*a)
            )
    witnesses = []
    real = certificates.PwgCertificate
    monkeypatch.setattr(
        certificates, "PwgCertificate", lambda *a, **kw: witnesses.append(1) or real(*a, **kw)
    )
    assert main(["check", str(identity_instance), "--support", "0"]) == 0
    assert len(calls) == 2
    assert len(witnesses) == 1
    assert capsys.readouterr().out == (
        "instance: n=2 p=2 rho=1.0 k=1\n"
        "support: [0]\n"
        "correlation scores: [0.5000000000000001, 0.0]\n"
        "pwg: exact  min_in=0.5000000000000001 max_out=0.0\n"
        "dcl: exact  lambda=0.2500000000000001 gap=0.000e+00\n"
    )


def test_check_truncated_json_exits_1(tmp_path, capsys):
    bad = tmp_path / "trunc.json"
    bad.write_text(json.dumps(IDENTITY_DOC)[:25], encoding="utf-8")
    assert main(["check", str(bad), "--support", "0"]) == 1
    assert "error:" in capsys.readouterr().err


def test_check_unknown_key_names_it(tmp_path, capsys):
    doc = dict(IDENTITY_DOC, mystery=3)
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc), encoding="utf-8")
    assert main(["check", str(bad)]) == 1
    assert "mystery" in capsys.readouterr().err


def test_check_malformed_support_exits_1(tmp_path, capsys):
    # each used to end in a TypeError/OverflowError traceback or, for true,
    # be read as column 1
    bad = tmp_path / "bad.json"
    for support in ("[null]", "[[1]]", "[1e999]", "[true]"):
        text = json.dumps(IDENTITY_DOC).replace('"support": [0]', f'"support": {support}')
        bad.write_text(text, encoding="utf-8")
        assert main(["check", str(bad)]) == 1
        assert "error: support index" in capsys.readouterr().err


def test_oracle_reports_values(identity_instance, capsys):
    code = main(["oracle", str(identity_instance)])
    out = capsys.readouterr().out
    assert code == 0
    assert "best subset value: 0.25" in out
    assert "{0}" in out
    assert "relaxation value: 0.24" in out or "relaxation value: 0.25" in out


def test_oracle_budget_exceeded(tmp_path, capsys):
    # C(30, 10) > 10**6: the budget check raises before enumerating anything
    inst = ProblemInstance(X=np.random.default_rng(0).standard_normal((4, 30)),
                           y=np.zeros(4), rho=1.0, k=10)
    path = tmp_path / "wide.json"
    save_instance(path, inst)
    code = main(["oracle", str(path)])
    assert code == 1
    assert "budget" in capsys.readouterr().err


def test_oracle_ill_conditioned_kernel_exits_0(tmp_path, capsys):
    # the n x n kernel I + X D(z) X^T/rho is too ill-conditioned to factor
    # here, but the relaxation is a ridge fit on the 6 x 6 side
    rng = np.random.default_rng(9)
    scale = rng.uniform(-8.0, 8.0)
    rho = 10.0 ** rng.uniform(-12.0, 12.0)
    inst = ProblemInstance(X=rng.standard_normal((8, 6)) * 10.0**scale,
                           y=rng.standard_normal(8), rho=rho, k=2)
    path = tmp_path / "ill.json"
    save_instance(path, inst)
    assert main(["oracle", str(path)]) == 0
    assert "relaxation value: " in capsys.readouterr().out


def test_oracle_gradient_overflow_exits_1(tmp_path, capsys):
    # the relaxation's gradient c_j^2/(2 rho) overflows at scores near 1e300;
    # it used to end in an IndexError traceback from the projection
    path = tmp_path / "huge.json"
    save_instance(path, scaled_gaussian_instance(7, 8, 6, 1e150, 1e150, 1.0))
    assert main(["oracle", str(path)]) == 1
    assert "error: the relaxation's gradient" in capsys.readouterr().err


def test_oracle_overflowing_norm_of_b_reports_the_optimum(tmp_path, capsys):
    # p = k = 1 and b is about 2e170: rho ||b||^2 used to overflow to an
    # infinite relaxation value and a false "exceeds the brute-force
    # optimum" (exit 3); the value is about 1.4e39 and equals the optimum
    inst = scaled_gaussian_instance(2, 1, 1, 1e-150, 1e20, 1e-320)
    path = tmp_path / "tiny_x.json"
    save_instance(path, inst)
    assert main(["oracle", str(path)]) == 0
    captured = capsys.readouterr()
    assert captured.err == ""
    values = dict(line.split(": ", 1) for line in captured.out.splitlines())
    best = float(values["best subset value"])
    relaxed = float(values["relaxation value"].split(" ")[0])
    assert np.isfinite(relaxed) and relaxed == pytest.approx(best, rel=1e-12, abs=0.0)


def test_oracle_bug_trap_is_relative_to_the_optimum(tmp_path, capsys):
    # with y scaled by 1e6 and 1e10 the values are about 3e13 and 3e21, where
    # roundoff alone puts the relaxation value up to 1.8e-15 relative above
    # the optimum, far more than any fixed absolute slack
    cfg = ensemble.EnsembleConfig(p_list=[16], trials=40, alpha_grid=[6.0],
                                  rho_multipliers=[2.0], master_seed=0)
    path = tmp_path / "scaled.json"
    for scale in (1e6, 1e10):
        for t in range(cfg.trials):
            inst = ensemble.generate_instance(cfg, 16, 6.0, 2.0, t)[0]
            save_instance(path, ProblemInstance(X=inst.X, y=scale * inst.y, rho=inst.rho, k=inst.k))
            assert main(["oracle", str(path)]) == 0, (scale, t)
    capsys.readouterr()


def test_oracle_bug_trap_fires_on_a_proven_violation(tmp_path, capsys, monkeypatch):
    # a relaxation value above the optimum by 1e-6 relative, with a zero
    # Frank-Wolfe gap, proves the relaxation optimum exceeds it: exit 3, also
    # where y is so small that the optimum (0.25 * 4^-40) is far below 1
    def too_high(inst):
        best = cli.brute_force_l0(inst).value
        return oracles.PwgValueResult(value=best * (1.0 + 1e-6), z=np.zeros(inst.p),
                                      iterations=0, grad_norm_kkt=0.0, trace=[])

    monkeypatch.setattr(cli, "pwg_value", too_high)
    path = tmp_path / "identity.json"
    for scale in (1.0, 2.0**-40):
        save_instance(path, ProblemInstance(X=np.eye(2), y=[scale, 0.0], rho=1.0, k=1), (0,))
        assert main(["oracle", str(path)]) == 3, scale
        assert "exceeds the brute-force optimum" in capsys.readouterr().err


def sweep_config(tmp_path, **overrides):
    doc = {
        "p_list": [9],
        "trials": 2,
        "alpha_grid": [1.0, 2.0],
        "rho_multipliers": [2.0],
        "gamma": 0.5,
        "master_seed": 42,
    }
    doc.update(overrides)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    return path


# blocks every import of scipy, then runs each user path in this one process
NO_SCIPY = """
import sys
sys.modules["scipy"] = None
import sparsecert
from sparsecert.cli import main
instance, config, out = sys.argv[1:]
assert main(["check", instance]) == 0
assert main(["oracle", instance]) == 0
assert main(["sweep", config, out, "--workers", "2"]) == 0
assert main(["plot", out + ".agg.csv", out + ".svg"]) == 0
"""


def test_no_user_path_imports_scipy(identity_instance, tmp_path):
    config = tmp_path / "one-cell.json"
    config.write_text(json.dumps({"p_list": [16], "trials": 3, "alpha_grid": [2.0], "rho_multipliers": [2.0]}))
    env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).parents[1]))
    done = subprocess.run(
        [sys.executable, "-c", NO_SCIPY, str(identity_instance), str(config), str(tmp_path / "sweep.csv")],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    assert (tmp_path / "sweep.csv.svg").exists()


def test_sweep_and_plot_end_to_end(tmp_path, capsys):
    cfg = sweep_config(tmp_path)
    out_csv = tmp_path / "sweep.csv"
    assert main(["sweep", str(cfg), str(out_csv), "--workers", "1"]) == 0
    assert out_csv.exists()
    agg = tmp_path / "sweep.csv.agg.csv"
    assert agg.exists()
    svg = tmp_path / "curves.svg"
    assert main(["plot", str(agg), str(svg)]) == 0
    body = svg.read_text(encoding="utf-8")
    assert body.startswith("<svg") and body.rstrip().endswith("</svg>")


def test_sweep_identical_across_workers(tmp_path):
    cfg = sweep_config(tmp_path)
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    assert main(["sweep", str(cfg), str(a), "--workers", "1"]) == 0
    assert main(["sweep", str(cfg), str(b), "--workers", "4"]) == 0
    assert a.read_bytes() == b.read_bytes()
    assert (tmp_path / "a.csv.agg.csv").read_bytes() == (
        tmp_path / "b.csv.agg.csv"
    ).read_bytes()


def test_sweep_master_seed_changes_output(tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    cfg = sweep_config(tmp_path)
    assert main(["sweep", str(cfg), str(a), "--workers", "1"]) == 0
    cfg = sweep_config(tmp_path, master_seed=777)
    assert main(["sweep", str(cfg), str(b), "--workers", "1"]) == 0
    assert a.read_bytes() != b.read_bytes()


# the seed-0 configs of the sweep-p64 and sweep-p256 benchmark workloads,
# whose CSV digests bench/references.json pins
PINNED_SWEEPS = {
    "sweep-p64/seed=0/trials=6": {"p_list": [64], "trials": 6, "master_seed": 0},
    "sweep-p256/seed=0/trials=5": {
        "p_list": [256],
        "trials": 5,
        "alpha_grid": [1.0, 3.0, 4.0],
        "rho_multipliers": [2.0],
        "master_seed": 0,
    },
}


@pytest.mark.parametrize("key", sorted(PINNED_SWEEPS))
def test_sweep_matches_pinned_benchmark_digests(tmp_path, key):
    # byte-identical CSVs mean every trial decision is unchanged
    refs = json.loads(
        (Path(__file__).resolve().parents[1] / "bench" / "references.json").read_text(encoding="utf-8")
    )
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps(PINNED_SWEEPS[key]), encoding="utf-8")
    digest = lambda path: hashlib.sha256(path.read_bytes()).hexdigest()
    for workers in ("1", "3"):
        out = tmp_path / f"sweep-{workers}.csv"
        assert main(["sweep", str(cfg), str(out), "--workers", workers]) == 0
        assert digest(out) == refs[key]["trial_csv_sha256"]
        assert digest(tmp_path / f"sweep-{workers}.csv.agg.csv") == refs[key]["agg_csv_sha256"]


def test_sweep_dead_worker_exits_1(tmp_path, capsys, monkeypatch):
    caller, evaluate = os.getpid(), ensemble.evaluate_trial

    def dying(inst, support):
        if os.getpid() != caller:
            os._exit(3)
        return evaluate(inst, support)

    monkeypatch.setattr(ensemble, "evaluate_trial", dying)
    assert main(["sweep", str(sweep_config(tmp_path)), str(tmp_path / "x.csv"), "--workers", "2"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: sweep worker pid ") and "exit status 3 and no result" in err
    assert not (tmp_path / "x.csv").exists()


@pytest.mark.parametrize("missing", [False, True])
def test_sweep_refuses_a_missing_output_directory_before_any_trial(tmp_path, capsys, monkeypatch, missing):
    calls = []

    def recording(cfg, workers=None):
        calls.append(workers)
        return []

    monkeypatch.setattr(cli, "run_sweep", recording)
    out = tmp_path / "missing-dir" / "out.csv" if missing else tmp_path / "out.csv"
    code = main(["sweep", str(sweep_config(tmp_path)), str(out), "--workers", "1"])
    if missing:
        assert (code, calls) == (1, [])
        assert capsys.readouterr().err.startswith(f"error: cannot write {out}: ")
    else:
        assert (code, calls) == (0, [1])


def test_sweep_bad_config_exits_1(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"p_list": [9]}), encoding="utf-8")
    assert main(["sweep", str(bad), str(tmp_path / "x.csv")]) == 1
    assert "trials" in capsys.readouterr().err


def test_sweep_zero_workers_exits_1(tmp_path, capsys):
    assert main(["sweep", str(sweep_config(tmp_path)), str(tmp_path / "x.csv"), "--workers", "0"]) == 1
    assert "workers must be an integer >= 1, got 0" in capsys.readouterr().err


@pytest.mark.parametrize(
    "grid",
    [
        {"p_list": [None]},
        {"p_list": 9},
        {"p_list": [16.5]},
        {"alpha_grid": [float("inf")]},
        {"alpha_grid": ["2"]},
        {"rho_multipliers": [True]},
        {"master_seed": 2**64},
        {"master_seed": -(2**64)},
        {"master_seed": 1e300},
        {"master_seed": 42.5},
        {"trials": 2.5},
        {"trials": True},
        {"trials": float("inf")},
        {"gamma": "0.5"},
        {"gamma": float("nan")},
    ],
)
def test_sweep_malformed_grid_exits_1(tmp_path, capsys, grid):
    cfg = sweep_config(tmp_path, **grid)
    assert main(["sweep", str(cfg), str(tmp_path / "x.csv"), "--workers", "1"]) == 1
    assert "error: " + next(iter(grid)) in capsys.readouterr().err


def test_plot_empty_csv_exits_1(tmp_path, capsys):
    from sparsecert.fileio import AGG_HEADER

    empty = tmp_path / "empty.csv"
    empty.write_text(AGG_HEADER + "\n", encoding="utf-8")
    assert main(["plot", str(empty), str(tmp_path / "x.svg")]) == 1


def test_plot_identical_bytes(tmp_path):
    cfg = sweep_config(tmp_path)
    out_csv = tmp_path / "sweep.csv"
    main(["sweep", str(cfg), str(out_csv), "--workers", "1"])
    agg = str(out_csv) + ".agg.csv"
    s1, s2 = tmp_path / "one.svg", tmp_path / "two.svg"
    assert main(["plot", agg, str(s1)]) == 0
    assert main(["plot", agg, str(s2)]) == 0
    assert s1.read_bytes() == s2.read_bytes()
