import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import mixed_instance, noise_instance, planted_instance, random_support
from sparsecert import (
    CertOutcome,
    ProblemInstance,
    brute_force_l0,
    canonical_duals,
    certificate_bracket,
    check_dcl,
    check_pwg,
    kkt_variables,
    psd_margin,
    psd_margin_subgradient,
    pwg_witness_to_dcl,
    ridge_value_kernel,
    verify_dcl_certificate,
    verify_kkt,
)
from sparsecert import certificates
from sparsecert.certificates import (
    DEFAULT_BISECTION_TOL,
    REASON_EMPTY_INTERVAL,
    REASON_SEPARATION,
    REASON_ZERO_SCORE,
    psd_margin_grid,
)
from sparsecert.ensemble import EnsembleConfig, generate_instance
from sparsecert.linalg import max_eig_sym

I2 = np.eye(2)


def ident(y, k=1):
    return ProblemInstance(X=I2, y=y, rho=1.0, k=k)


# ---------------------------------------------------------------- threshold test


def test_pwg_exact_on_separated_scores():
    out = check_pwg(ident([1.0, 0.0]), [0])
    assert out.exact
    assert out.certificate.min_in == pytest.approx(0.5)
    assert out.certificate.max_out == 0.0


def test_pwg_zero_response_fails_strict_separation():
    out = check_pwg(ident([0.0, 0.0]), [0])
    assert not out.exact
    assert out.reason == REASON_SEPARATION


def test_pwg_reversed_scores_fail():
    out = check_pwg(ident([1.0, 1.0]), [0])  # scores (0.5, 1)
    assert not out.exact and out.reason == REASON_SEPARATION


def test_pwg_exact_tie_is_rejected():
    # both scores 0.5 in magnitude: strictness must fail the check
    X = np.array([[1.0, 1.0], [0.0, 0.0]])
    inst = ProblemInstance(X=X, y=[1.0, 0.0], rho=1.0, k=1)
    out = check_pwg(inst, [0])
    assert not out.exact


def test_pwg_rejects_empty_and_oversized_support():
    inst = ident([1.0, 0.0])
    with pytest.raises(ValueError):
        check_pwg(inst, [])
    with pytest.raises(ValueError):
        check_pwg(inst, [0, 1])  # k = 1


# ------------------------------------------------------------------- psd margin


def test_psd_margin_diagonal_cases():
    inst = ident([1.0, 0.0])
    f, u = psd_margin(inst, [0], 0.25)
    assert f == pytest.approx(-1.0)
    assert np.allclose(np.abs(u), [1.0, 0.0])
    f, u = psd_margin(inst, [0], 0.75)
    assert f == pytest.approx(1.0)
    assert np.allclose(np.abs(u), [1.0, 0.0])


def test_psd_margin_full_support_orthonormal_columns():
    # X^T X = I: the matrix is diagonal with entries lam/c_i^2 - 2
    rng = np.random.default_rng(0)
    q, _ = np.linalg.qr(rng.standard_normal((6, 3)))
    inst = ProblemInstance(X=q, y=rng.standard_normal(6), rho=1.0, k=3)
    scores = q.T @ np.linalg.solve(np.eye(6) + q @ q.T, inst.y)
    lam = 0.37
    expected = lam * (scores**-2).max() - 2.0
    f, _ = psd_margin(inst, [0, 1, 2], lam)
    assert f == pytest.approx(expected, rel=1e-9)


def test_psd_margin_rejects_bad_threshold():
    inst = ident([1.0, 0.0])
    with pytest.raises(ValueError):
        psd_margin(inst, [0], 0.0)
    with pytest.raises(ValueError):
        psd_margin(inst, [0], -1.0)


def test_psd_margin_rejects_zero_score_in_support():
    with pytest.raises(ValueError):
        psd_margin(ident([1.0, 0.0]), [1], 0.5)


def test_subgradient_hand_values():
    inst = ident([1.0, 0.0])
    _, u = psd_margin(inst, [0], 0.75)
    assert psd_margin_subgradient(inst, [0], 0.75, u) == pytest.approx(4.0)
    inst2 = ident([1.0, 1.0])
    lam = 0.05  # small: top eigenvector is the off-support axis
    _, u2 = psd_margin(inst2, [0], lam)
    assert np.allclose(np.abs(u2), [0.0, 1.0])
    h = psd_margin_subgradient(inst2, [0], lam, u2)
    assert h == pytest.approx(-1.0 / lam**2)


def test_subgradient_zero_when_eigvec_on_zero_scores():
    inst = ident([1.0, 0.0])
    h = psd_margin_subgradient(inst, [0], 0.5, np.array([0.0, 1.0]))
    assert h == 0.0


def test_subgradient_at_extreme_thresholds_does_not_raise():
    # lam**2 overflows (OverflowError) above ~1e154 and underflows to a zero
    # divisor (ZeroDivisionError) below ~1e-162
    inst = ident([1.0, 1.0])
    u = np.array([0.0, 1.0])
    assert psd_margin_subgradient(inst, [0], 1e200, u) == 0.0
    assert psd_margin_subgradient(inst, [0], 1e-200, u) == -np.inf


# ---------------------------------------------------------------------- bracket


def test_bracket_examples():
    ell, up = certificate_bracket(ident([1.0, 0.0]), [0])
    assert (ell, up) == pytest.approx((0.0, 0.5))
    inst2 = ProblemInstance(X=[[1.0]], y=[2.0], rho=1.0, k=1)
    ell, up = certificate_bracket(inst2, [0])
    assert (ell, up) == pytest.approx((0.0, 2.0))
    ell, up = certificate_bracket(ident([1.0, 1.0]), [0])
    assert (ell, up) == pytest.approx((0.5, 0.5))  # empty interior


def test_bracket_contains_negative_margin_points():
    rng = np.random.default_rng(23)
    checked = 0
    for _ in range(200):
        inst, sup = planted_instance(rng)
        try:
            ell, up = certificate_bracket(inst, sup)
        except ValueError:
            continue
        if ell >= up:
            continue
        lams = np.linspace(ell if ell > 0 else (up - ell) * 1e-9, up, 50)
        margins = psd_margin_grid(inst, sup, lams)
        # negative margin should never appear outside [ell, up]
        outside = np.concatenate(
            [np.linspace(max(up * 1.0001, up + 1e-12), up * 3.0, 20)]
        )
        out_marg = psd_margin_grid(inst, sup, outside)
        assert (out_marg >= -1e-10).all()
        checked += 1
        del margins
    assert checked > 50


# --------------------------------------------------------------- dual search


def test_dcl_exact_first_midpoint():
    out = check_dcl(ident([1.0, 0.0]), [0], tol=1e-10)
    assert out.exact
    cert = out.certificate
    assert cert.lam == pytest.approx(0.25)
    assert cert.duals == pytest.approx([1.0, 0.0])
    assert cert.margin == pytest.approx(-1.0)


def test_dcl_empty_interval():
    out = check_dcl(ident([1.0, 1.0]), [0])
    assert not out.exact
    assert out.reason == REASON_EMPTY_INTERVAL


def test_dcl_trivial_all_zero_scores():
    out = check_dcl(ident([0.0, 0.0]), [0])
    assert out.exact
    cert = out.certificate
    assert cert.lam == 0.0
    assert np.all(cert.duals == 0.0)
    verify_dcl_certificate(ident([0.0, 0.0]), cert)


def test_dcl_zero_score_in_support_rejected():
    # y orthogonal to the support column but not to everything
    X = np.array([[1.0, 1.0], [0.0, 1.0]])
    inst = ProblemInstance(X=X, y=[0.0, 1.0], rho=1.0, k=1)
    out = check_dcl(inst, [0])
    assert not out.exact
    assert out.reason == REASON_ZERO_SCORE


def test_dcl_tiny_rho_returns_an_outcome():
    # used to raise OverflowError from the subgradient: the bracket's upper
    # end reaches ~1e269 here, and lam**2 overflows
    rng = np.random.default_rng(0)
    inst = ProblemInstance(
        X=rng.standard_normal((12, 8)), y=rng.standard_normal(12), rho=1e-300, k=2
    )
    assert isinstance(check_dcl(inst, [0, 1]), CertOutcome)


@settings(max_examples=80, deadline=None)
@given(
    st.integers(min_value=0, max_value=2**31),
    st.floats(min_value=-300.0, max_value=300.0),
    st.floats(min_value=-150.0, max_value=150.0),
)
def test_dcl_extreme_scales_give_outcome_or_value_error(seed, log_rho, log_scale):
    rng = np.random.default_rng(seed)
    inst = ProblemInstance(
        X=10.0**log_scale * rng.standard_normal((8, 6)),
        y=rng.standard_normal(8),
        rho=10.0**log_rho,
        k=2,
    )
    try:
        out = check_dcl(inst, [0, 1])
    except ValueError:
        return
    assert isinstance(out, CertOutcome)


def test_dcl_invalid_supports():
    inst = ident([1.0, 0.0])
    with pytest.raises(ValueError):
        check_dcl(inst, [])
    with pytest.raises(ValueError):
        check_dcl(inst, [0, 1])


def test_canonical_duals_examples():
    assert canonical_duals(ident([1.0, 0.0]), [0], 0.25) == pytest.approx([1.0, 0.0])
    inst2 = ProblemInstance(X=[[1.0]], y=[2.0], rho=1.0, k=1)
    assert canonical_duals(inst2, [0], 1.0) == pytest.approx([1.0])
    # lam equal to the squared score of a singleton support gives dual 1
    inst3 = ident([1.0, 0.0])
    assert canonical_duals(inst3, [0], 0.25)[0] == pytest.approx(1.0)


def test_every_returned_certificate_reverifies():
    rng = np.random.default_rng(29)
    count = 0
    for _ in range(200):
        inst, sup = planted_instance(rng)
        out = check_dcl(inst, sup)
        if out.exact:
            verify_dcl_certificate(inst, out.certificate)
            count += 1
        inst2 = noise_instance(rng)
        out2 = check_dcl(inst2, random_support(rng, inst2))
        if out2.exact:
            verify_dcl_certificate(inst2, out2.certificate)
            count += 1
    assert count > 30  # the family must actually exercise the exact branch


def test_zero_response_scale_property():
    rng = np.random.default_rng(31)
    for _ in range(50):
        inst = noise_instance(rng)
        zeroed = ProblemInstance(X=inst.X, y=np.zeros(inst.n), rho=inst.rho, k=inst.k)
        sup = random_support(rng, zeroed)
        assert not check_pwg(zeroed, sup).exact
        out = check_dcl(zeroed, sup)
        assert out.exact and out.certificate.lam == 0.0


# ------------------------------------------------- soundness and dominance


def test_exactness_implies_global_optimum():
    rng = np.random.default_rng(37)
    pwg_hits = dcl_hits = 0
    for trial in range(200):
        if trial % 2 == 0:
            inst, sup = planted_instance(rng)
            # pad the planted support up to size k with random extra columns
            extra = [j for j in range(inst.p) if j not in sup]
            rng.shuffle(extra)
            sup = tuple(sorted(sup + tuple(extra[: inst.k - len(sup)])))
        else:
            inst = noise_instance(rng)
            sup = tuple(sorted(rng.choice(inst.p, size=inst.k, replace=False).tolist()))
        best = brute_force_l0(inst).value
        val = ridge_value_kernel(inst, sup)
        if check_pwg(inst, sup).exact:
            pwg_hits += 1
            assert abs(val - best) <= 1e-8 * (1.0 + abs(best))
        if check_dcl(inst, sup).exact:
            dcl_hits += 1
            assert abs(val - best) <= 1e-8 * (1.0 + abs(best))
    assert dcl_hits >= pwg_hits > 5


def test_pwg_exact_implies_dcl_exact():
    rng = np.random.default_rng(41)
    transfers = 0
    for _ in range(200):
        inst, sup = planted_instance(rng)
        pwg = check_pwg(inst, sup)
        if pwg.exact:
            assert check_dcl(inst, sup).exact
            transfers += 1
        inst2 = noise_instance(rng)
        sup2 = random_support(rng, inst2)
        if check_pwg(inst2, sup2).exact:
            assert check_dcl(inst2, sup2).exact
    assert transfers > 20


# ------------------------------------------------------------ witness transfer


def test_witness_transfer_hand_example():
    inst = ident([1.0, 0.0])
    pwg = check_pwg(inst, [0]).certificate
    cert = pwg_witness_to_dcl(inst, [0], pwg)
    assert cert.lam == pytest.approx(0.25)
    assert cert.duals == pytest.approx([1.0, 1.0])
    assert cert.margin <= 1e-12


def test_witness_transfer_equal_scores_give_unit_duals():
    # orthogonal columns, equal |scores| on the support
    X = np.eye(4)
    inst = ProblemInstance(X=X, y=[2.0, 2.0, 0.1, 0.0], rho=1.0, k=2)
    pwg = check_pwg(inst, [0, 1]).certificate
    cert = pwg_witness_to_dcl(inst, [0, 1], pwg)
    assert cert.duals[[0, 1]] == pytest.approx([1.0, 1.0])


def test_witness_transfer_random_and_verified():
    rng = np.random.default_rng(43)
    hits = 0
    for _ in range(300):
        inst, sup = planted_instance(rng, n=8, p=12)
        pwg = check_pwg(inst, sup)
        if not pwg.exact:
            continue
        cert = pwg_witness_to_dcl(inst, sup, pwg.certificate)  # re-verifies inside
        assert np.all(cert.duals >= 0.0) and np.all(cert.duals <= 1.0 + 1e-12)
        hits += 1
    assert hits > 30


# --------------------------------------------------------------- KKT residuals


def test_kkt_hand_example():
    inst = ident([1.0, 0.0])
    report = verify_kkt(inst, [0], np.array([1.0, 0.0]), 0.25)
    assert report.t == pytest.approx([-0.5, 0.0])
    assert report.tau == pytest.approx(0.25)
    assert report.psd_residual_big <= 1e-10
    assert report.psd_residual_small <= 1e-10
    assert report.comp_residual <= 1e-10


def test_kkt_all_zero():
    inst = ident([0.0, 0.0])
    report = verify_kkt(inst, [0], np.zeros(2), 0.0)
    assert report.psd_residual_big <= 1e-12
    assert report.psd_residual_small == 0.0
    assert report.comp_residual == 0.0


def test_kkt_residuals_for_found_certificates():
    rng = np.random.default_rng(47)
    hits = 0
    for _ in range(150):
        inst, sup = planted_instance(rng)
        out = check_dcl(inst, sup)
        if not out.exact or out.certificate.lam == 0.0:
            continue
        d_raw, lam_raw = kkt_variables(inst, out.certificate)
        report = verify_kkt(inst, sup, d_raw, lam_raw)
        assert report.psd_residual_big <= 1e-6
        assert report.psd_residual_small <= 1e-6
        assert report.comp_residual <= 1e-6
        hits += 1
    assert hits > 30


def test_kkt_detects_wrong_duals():
    inst = ident([1.0, 0.0])
    report = verify_kkt(inst, [0], np.array([1.0, 0.0]), 5.0)  # lam far off
    assert report.comp_residual > 1e-3


# ------------------------------------------------- convexity and subgradients


def test_margin_convexity_and_subgradient_random():
    rng = np.random.default_rng(53)
    tested = 0
    while tested < 40:
        inst, sup = planted_instance(rng)
        try:
            ell, up = certificate_bracket(inst, sup)
        except ValueError:
            continue
        if up <= 0:
            continue
        lo = max(ell / 2.0, up * 1e-6)
        hi = 2.0 * up
        for _ in range(20):
            l1, l2, l3 = np.sort(rng.uniform(lo, hi, size=3))
            if l1 == l2 or l2 == l3:
                continue
            f1 = psd_margin(inst, sup, l1)[0]
            f2 = psd_margin(inst, sup, l2)[0]
            f3 = psd_margin(inst, sup, l3)[0]
            t = (l3 - l2) / (l3 - l1)
            assert f2 <= t * f1 + (1 - t) * f3 + 1e-9
        for _ in range(20):
            lam_hat, lam = rng.uniform(lo, hi, size=2)
            f_hat, u = psd_margin(inst, sup, lam_hat)
            h = psd_margin_subgradient(inst, sup, lam_hat, u)
            f_other = psd_margin(inst, sup, lam)[0]
            assert f_other >= f_hat + h * (lam - lam_hat) - 1e-9
        tested += 1


@settings(max_examples=150, deadline=None)
@given(st.integers(min_value=0, max_value=2**31), st.floats(min_value=0.05, max_value=1.0))
def test_cut_proved_empty_interval_has_positive_margin(seed, amplitude):
    # interval-empty from a nonempty analytic bracket comes from a tangent
    # cut, which claims the margin is positive across the whole bracket
    rng = np.random.default_rng(seed)
    inst, sup = planted_instance(rng, p=int(rng.integers(4, 9)), amplitude=amplitude)
    if check_dcl(inst, sup).reason != REASON_EMPTY_INTERVAL:
        return
    ell, up = certificate_bracket(inst, sup)
    if ell >= up or up - ell <= DEFAULT_BISECTION_TOL * max(1.0, up):
        return
    lams = np.linspace(ell, up, 1002)[1:-1]
    assert (psd_margin_grid(inst, sup, lams) > 0.0).all()


def test_crossing_cut_ends_search_within_three_evaluations(monkeypatch):
    # this trial used to halve its bracket 33 times and end bisection-exhausted
    cfg = EnsembleConfig(p_list=[64], trials=1, alpha_grid=[1.0], rho_multipliers=[2.0])
    inst, _, sup = generate_instance(cfg, 64, 1.0, 2.0, 0)
    calls = []

    def counting(A):
        calls.append(A.shape)
        return max_eig_sym(A)

    monkeypatch.setattr(certificates, "max_eig_sym", counting)
    out = check_dcl(inst, sup)
    assert out.reason == REASON_EMPTY_INTERVAL
    assert 1 <= len(calls) <= 3


def test_bisection_matches_grid_scan_small():
    rng = np.random.default_rng(59)
    tested = 0
    while tested < 30:
        inst = mixed_instance(rng, p=int(rng.integers(6, 11)))
        sup = random_support(rng, inst)
        out = check_dcl(inst, sup)
        try:
            ell, up = certificate_bracket(inst, sup)
        except ValueError:
            # zero score in support: both routes say no
            assert not out.exact
            tested += 1
            continue
        if ell >= up:
            assert not out.exact
            tested += 1
            continue
        lams = np.linspace(ell, up, 2000)
        lams[lams <= 0] = (up - ell) * 1e-9
        grid_min = float(psd_margin_grid(inst, sup, lams).min())
        if abs(grid_min) > 1e-6:
            assert out.exact == (grid_min <= 0.0)
        tested += 1
