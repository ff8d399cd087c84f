"""Acceptance gate: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s`. Criterion 6 is the full
p=64 recovery sweep and dominates the runtime (tens of seconds on a laptop).
"""

import json
import math
import operator
import time
from pathlib import Path

import numpy as np
import pytest

from helpers import (
    dense_margin,
    dense_margins,
    noise_instance,
    planted_instance,
    relaxed_gradient,
    ridge_value_kernel,
    smw_residuals,
)
from sparsecert import (
    EnsembleConfig,
    SupportContext,
    brute_force_l0,
    check_dcl,
    check_pwg,
    kkt_variables,
    pwg_value,
    pwg_witness_to_dcl,
    ridge_restricted_solve,
    verify_kkt,
)
from sparsecert.cli import main
from sparsecert.ensemble import aggregate_curves, run_sweep
from sparsecert.oracles import project_capped_simplex, relaxed_objective

ARTIFACT_DIR = Path(__file__).resolve().parent.parent / "test-artifacts"


@pytest.fixture(scope="module")
def family500():
    """500 instances with n in [5,15], p in [6,12], k in [1,3],
    rho in {0.1, 1, 10}; half carry a planted sparse signal."""
    rng = np.random.default_rng(20260809)
    out = []
    for i in range(500):
        if i % 2 == 0:
            inst, support = planted_instance(rng)
        else:
            inst, support = noise_instance(rng), None
        out.append((inst, support))
    return out


def test_criterion_1_oracle_agreement(family500):
    start = time.time()
    pwg_hits = dcl_hits = 0
    for inst, _ in family500:
        brute = brute_force_l0(inst)
        argmin = brute.argmin_supports[0]
        # solve-path value, independent of the kernel-path enumeration
        val = ridge_restricted_solve(inst, argmin).value
        if check_pwg(inst, argmin).exact:
            pwg_hits += 1
            assert abs(val - brute.value) <= 1e-8 * (1.0 + abs(brute.value))
        if check_dcl(inst, argmin).exact:
            dcl_hits += 1
            assert abs(val - brute.value) <= 1e-8 * (1.0 + abs(brute.value))
    elapsed = time.time() - start
    assert pwg_hits > 50 and dcl_hits > 50  # non-vacuous
    assert elapsed < 60.0
    print(
        f"PASS criterion 1: oracle agreement on 500 instances "
        f"(pwg exact {pwg_hits}, dcl exact {dcl_hits}, {elapsed:.1f}s)"
    )


def test_criterion_2_dominance_and_relaxation_order(family500):
    pwg_exact_count = 0
    for inst, _ in family500:
        brute = brute_force_l0(inst)
        argmin = brute.argmin_supports[0]
        if check_pwg(inst, argmin).exact:
            pwg_exact_count += 1
            assert check_dcl(inst, argmin).exact, "dominance violated"
        relaxed = pwg_value(inst)
        assert relaxed.value <= brute.value + 1e-7
    assert pwg_exact_count > 50
    print(
        f"PASS criterion 2: dominance ({pwg_exact_count} transfers) and "
        f"relaxation value <= brute force on all 500 instances"
    )


def test_criterion_3_bisection_vs_grid():
    start = time.time()
    rng = np.random.default_rng(31415)
    agreements = borderline = yes_count = 0
    for i in range(200):
        p = int(rng.integers(6, 11))
        if i % 2 == 0:
            inst, support = planted_instance(rng, p=p)
            extra = [j for j in range(p) if j not in support]
            rng.shuffle(extra)
            support = tuple(sorted(support + tuple(extra[: inst.k - len(support)])))
        else:
            inst = noise_instance(rng, p=p)
            support = tuple(sorted(rng.choice(p, size=inst.k, replace=False).tolist()))
        decision = check_dcl(inst, support).exact
        yes_count += decision
        ctx = SupportContext(inst, support)
        try:
            ell, up = ctx.bracket()
        except ValueError:
            assert not decision  # zero score in support: no certificate
            agreements += 1
            continue
        if ell >= up:
            assert not decision
            agreements += 1
            continue
        lams = np.linspace(ell, up, 10_000)
        if lams[0] <= 0.0:
            lams[0] = 0.5 * lams[1]
        grid_min = float(dense_margins(ctx, lams).min())
        if -1e-6 < grid_min < 1e-6:
            borderline += 1
            continue
        assert decision == (grid_min <= 0.0), (
            f"grid min {grid_min} contradicts bisection decision {decision}"
        )
        agreements += 1
    elapsed = time.time() - start
    assert yes_count > 30 and agreements > 150
    assert elapsed < 120.0
    print(
        f"PASS criterion 3: bisection matches 10^4-point grid on 200 instances "
        f"({yes_count} YES, {borderline} borderline skipped, {elapsed:.1f}s)"
    )


def test_criterion_4_analytic_kernels(family500):
    rng = np.random.default_rng(2718)
    kkt_checked = transfer_checked = 0
    for idx, (inst, planted) in enumerate(family500[:200]):
        support = planted
        if support is None:
            support = tuple(sorted(rng.choice(inst.p, size=inst.k, replace=False).tolist()))
        # restricted-solve objective vs kernel identity
        direct = ridge_restricted_solve(inst, support).value
        kernel = ridge_value_kernel(inst, support)
        assert abs(direct - kernel) <= 1e-9 * (1.0 + abs(direct))
        # Woodbury identities
        if np.linalg.norm(inst.X) <= 1e3:
            r1, r2 = smw_residuals(inst, support)
            assert r1 <= 1e-8 and r2 <= 1e-8
        # KKT residuals of found and transferred certificates
        dcl = check_dcl(inst, support)
        if dcl.exact and dcl.certificate.lam > 0.0:
            d_raw, lam_raw = kkt_variables(inst, dcl.certificate)
            rep = verify_kkt(inst, support, d_raw, lam_raw)
            assert max(rep.psd_residual_big, rep.psd_residual_small, rep.comp_residual) <= 1e-6
            kkt_checked += 1
        pwg = check_pwg(inst, support)
        if pwg.exact:
            cert = pwg_witness_to_dcl(inst, support, pwg.certificate)
            d_raw, lam_raw = kkt_variables(inst, cert)
            rep = verify_kkt(inst, support, d_raw, lam_raw)
            assert max(rep.psd_residual_big, rep.psd_residual_small, rep.comp_residual) <= 1e-6
            transfer_checked += 1
        # analytic gradient of the relaxation objective vs central differences
        z = project_capped_simplex(rng.uniform(0.05, 0.95, size=inst.p), inst.k)
        # interior of the capped simplex, every coordinate above the step
        z = (1.0 - 1e-3) * z + 1e-3 * (inst.k / inst.p)
        grad = relaxed_gradient(inst, z)
        floor = 1e-9 * max(1.0, relaxed_objective(inst, z))
        for j in rng.choice(inst.p, size=3, replace=False):
            e = np.zeros(inst.p)
            e[j] = 1e-6
            fd = (relaxed_objective(inst, z + e) - relaxed_objective(inst, z - e)) / 2e-6
            assert abs(fd - grad[j]) <= 1e-5 * abs(grad[j]) + floor
    assert kkt_checked > 30 and transfer_checked > 30
    print(
        f"PASS criterion 4: identities/residuals/gradient on 200 instances "
        f"(kkt {kkt_checked}, transfers {transfer_checked})"
    )


def test_criterion_5_convexity_and_subgradient():
    rng = np.random.default_rng(1618)
    instances = 0
    while instances < 100:
        inst, support = planted_instance(rng)
        ctx = SupportContext(inst, support)
        try:
            ell, up = ctx.bracket()
        except ValueError:
            continue
        lo = max(ell / 2.0, up * 1e-6)
        hi = 2.0 * up
        if lo >= hi:  # sampling window is empty when ell > 4*up
            continue
        for _ in range(25):
            l1, l2, l3 = np.sort(rng.uniform(lo, hi, size=3))
            if l1 == l2 or l2 == l3:
                continue
            f1 = dense_margin(ctx, l1)[0]
            f2 = dense_margin(ctx, l2)[0]
            f3 = dense_margin(ctx, l3)[0]
            t = (l3 - l2) / (l3 - l1)
            assert f2 <= t * f1 + (1.0 - t) * f3 + 1e-9
        for _ in range(25):
            lam_hat, lam = rng.uniform(lo, hi, size=2)
            f_hat, eigvec = dense_margin(ctx, lam_hat)
            # the slope of g_u at lam_hat is a subgradient of the margin there
            a, b, _ = ctx.rayleigh(eigvec)
            h = a - b / lam_hat / lam_hat
            assert dense_margin(ctx, lam)[0] >= f_hat + h * (lam - lam_hat) - 1e-9
        instances += 1
    print("PASS criterion 5: convexity and subgradient inequalities on 100 instances x 50 points")


def first_alpha_reaching(points, method_index, level=0.9):
    for pt in points:
        if pt[method_index] >= level:
            return pt[0]
    return math.inf


def test_criterion_6_headline_recovery_sweep():
    start = time.time()
    cfg = EnsembleConfig(
        p_list=[64],
        trials=200,
        alpha_grid=[float(a) for a in range(1, 11)],
        rho_multipliers=[2.0, 8.0],
        gamma=0.5,
        master_seed=64,
    )
    records = run_sweep(cfg, workers=None)
    rows = aggregate_curves(cfg, records)
    point = operator.itemgetter("alpha", "pwg_rate", "dcl_rate", "trials")
    curves = {m: [point(r) for r in rows if r["rho_multiplier"] == m] for m in cfg.rho_multipliers}
    for mult, curve in curves.items():
        for alpha, pwg_rate, dcl_rate, trials in curve:
            assert trials == 200
            assert dcl_rate >= pwg_rate, f"rate order violated at alpha={alpha}, rho={mult}"
    strict_improvement = []
    for mult, curve in curves.items():
        dcl_first = first_alpha_reaching(curve, 2)
        pwg_first = first_alpha_reaching(curve, 1)
        strict_improvement.append(dcl_first < pwg_first)
    assert any(strict_improvement), "dual certificate never reaches 0.9 strictly earlier"

    # soft check: dual certificate should be less sensitive to rho
    dcl_spread = max(
        abs(a[2] - b[2]) for a, b in zip(curves[2.0], curves[8.0])
    )
    pwg_spread = max(
        abs(a[1] - b[1]) for a, b in zip(curves[2.0], curves[8.0])
    )
    if dcl_spread > pwg_spread:
        ARTIFACT_DIR.mkdir(exist_ok=True)
        warning = ARTIFACT_DIR / "rho_sensitivity_warning.txt"
        warning.write_text(
            f"soft sensitivity check failed: dcl spread {dcl_spread} > "
            f"pwg spread {pwg_spread}\n",
            encoding="utf-8",
        )
        print(f"WARNING criterion 6 (soft): rho sensitivity, see {warning}")
    elapsed = time.time() - start
    assert elapsed < 1800.0
    print(
        f"PASS criterion 6: headline sweep p=64, trials=200 "
        f"(dcl spread {dcl_spread:.3f} <= pwg spread {pwg_spread:.3f}, {elapsed:.1f}s)"
    )


def test_criterion_7_sweep_determinism(tmp_path):
    config = {
        "p_list": [9, 16],
        "trials": 3,
        "alpha_grid": [1.0, 3.0],
        "rho_multipliers": [2.0, 8.0],
        "gamma": 0.5,
        "master_seed": 99,
    }
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps(config), encoding="utf-8")
    outputs = {}
    for tag, workers in (("a1", 1), ("b1", 1), ("a4", 4), ("b4", 4)):
        out = tmp_path / f"{tag}.csv"
        assert main(["sweep", str(cfg_path), str(out), "--workers", str(workers)]) == 0
        outputs[tag] = (out.read_bytes(), Path(str(out) + ".agg.csv").read_bytes())
    assert outputs["a1"] == outputs["b1"] == outputs["a4"] == outputs["b4"]
    print("PASS criterion 7: sweep CSVs byte-identical across reruns and worker counts {1,4}")
