import itertools
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from helpers import (
    dense_margin,
    dense_margins,
    mixed_instance,
    noise_instance,
    planted_instance,
    random_support,
    ridge_value_kernel,
    slack_matrices,
)
from sparsecert import (
    CertOutcome,
    ProblemInstance,
    SupportContext,
    brute_force_l0,
    check_dcl,
    check_pwg,
    pwg_value,
    verify_dcl_certificate,
)
from sparsecert import certificates
from sparsecert.certificates import (
    BISECTION_TOL,
    REASON_EMPTY_INTERVAL,
    REASON_SEPARATION,
    REASON_ZERO_SCORE,
    CertificateConsistencyError,
    DclCertificate,
    kkt_variables,
    pwg_witness_to_dcl,
    root_interval,
    verify_kkt,
)
from sparsecert.ensemble import EnsembleConfig, evaluate_trial, generate_instance
from sparsecert.linalg import kernel_factor, max_eig_sym

I2 = np.eye(2)


def ident(y, k=1):
    return ProblemInstance(X=I2, y=y, rho=1.0, k=k)


@pytest.fixture
def eig_calls(monkeypatch):
    """The shapes of the negated t x t Schur complements check_dcl hands to
    max_eig_sym, in order."""
    calls = []

    def counting(A):
        calls.append(A.shape)
        return max_eig_sym(A)

    monkeypatch.setattr(certificates, "max_eig_sym", counting)
    return calls


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
    ctx = SupportContext(ident([1.0, 0.0]), [0])
    f, u = dense_margin(ctx, 0.25)
    assert f == pytest.approx(-1.0)
    assert np.allclose(np.abs(u), [1.0, 0.0])
    f, u = dense_margin(ctx, 0.75)
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
    f, _ = dense_margin(SupportContext(inst, [0, 1, 2]), lam)
    assert f == pytest.approx(expected, rel=1e-9)


def test_psd_margin_rejects_bad_threshold():
    ctx = SupportContext(ident([1.0, 0.0]), [0])
    for bad in (0.0, -1.0, np.nan, np.inf):
        with pytest.raises(ValueError, match="positive"):
            ctx.duals(bad)


def test_psd_margin_rejects_zero_score_in_support():
    ctx = SupportContext(ident([1.0, 0.0]), [1])
    assert ctx.zero_score_in_support
    with pytest.raises(ValueError, match="zero correlation score"):
        ctx.duals(0.5)
    with pytest.raises(ValueError, match="zero correlation score"):
        ctx.rayleigh(np.array([0.25, 0.5]))


# ---------------------------------------------------------------------- bracket


def test_bracket_examples():
    ell, up = SupportContext(ident([1.0, 0.0]), [0]).bracket()
    assert (ell, up) == pytest.approx((0.0, 0.5))
    inst2 = ProblemInstance(X=[[1.0]], y=[2.0], rho=1.0, k=1)
    ell, up = SupportContext(inst2, [0]).bracket()
    assert (ell, up) == pytest.approx((0.0, 2.0))
    ell, up = SupportContext(ident([1.0, 1.0]), [0]).bracket()
    assert (ell, up) == pytest.approx((0.5, 0.5))  # empty interior


def test_bracket_contains_negative_margin_points():
    rng = np.random.default_rng(23)
    checked = 0
    for _ in range(200):
        inst, sup = planted_instance(rng)
        ctx = SupportContext(inst, sup)
        try:
            ell, up = ctx.bracket()
        except ValueError:
            continue
        if ell >= up:
            continue
        lams = np.linspace(ell if ell > 0 else (up - ell) * 1e-9, up, 50)
        margins = dense_margins(ctx, lams)
        # negative margin should never appear outside [ell, up]
        outside = np.concatenate(
            [np.linspace(max(up * 1.0001, up + 1e-12), up * 3.0, 20)]
        )
        out_marg = dense_margins(ctx, outside)
        assert (out_marg >= -1e-10).all()
        checked += 1
        del margins
    assert checked > 50


# --------------------------------------------------------------- dual search


def test_dcl_exact_first_midpoint():
    # the scores (0.5, 0) separate, so the witness transfer certifies at
    # lam0 = 0.25, which is also the bracket's first midpoint
    out = check_dcl(ident([1.0, 0.0]), [0])
    assert out.exact
    cert = out.certificate
    assert cert.support == (0,) and cert.lam == pytest.approx(0.25)
    assert verify_dcl_certificate(ident([1.0, 0.0]), cert) == 0.0
    assert dense_margin(SupportContext(ident([1.0, 0.0]), [0]), cert.lam)[0] == pytest.approx(-1.0)


def test_dcl_empty_interval():
    out = check_dcl(ident([1.0, 1.0]), [0])
    assert not out.exact
    assert out.reason == REASON_EMPTY_INTERVAL


def test_dcl_trivial_all_zero_scores():
    out = check_dcl(ident([0.0, 0.0]), [0])
    assert out.exact
    cert = out.certificate
    assert cert == DclCertificate(support=(0,), lam=0.0)
    assert np.all(SupportContext(ident([0.0, 0.0]), [0]).duals(0.0) == 0.0)
    assert verify_dcl_certificate(ident([0.0, 0.0]), cert) == 0.0


def _seed0_trial(alpha, mult, trial, y_exponent):
    """A p=16 trial of the seed-0 grid with y scaled by 2^y_exponent, which
    scales the scores by the same power and moves no decision in exact
    arithmetic."""
    cfg = EnsembleConfig(p_list=[16], trials=4, alpha_grid=[1.0, 2.0, 4.0], rho_multipliers=[2.0, 8.0])
    inst, _, sup = generate_instance(cfg, 16, alpha, mult, trial)
    return ProblemInstance(X=inst.X, y=inst.y * 2.0**y_exponent, rho=inst.rho, k=inst.k), sup


def test_underflowed_squares_are_not_the_all_zero_certificate():
    # every score is about 1e-180 here, so every square underflows to 0; the
    # search used to read that as all scores zero and return lam = 0, which
    # the verifier accepted although the trial is not exact at scale 1
    assert check_dcl(*_seed0_trial(1.0, 2.0, 0, 0)).reason == REASON_EMPTY_INTERVAL
    inst, sup = _seed0_trial(1.0, 2.0, 0, -600)
    ctx = SupportContext(inst, sup)
    assert ctx.scores.all() and not ctx.sq_in.any() and not ctx.sq_out.any()
    assert check_dcl(inst, sup).reason == REASON_ZERO_SCORE
    with pytest.raises(CertificateConsistencyError, match="zero correlation score"):
        verify_dcl_certificate(inst, DclCertificate(ctx.support, 0.0))


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


def test_dcl_overflowed_bracket_is_value_error():
    # c_i^2 * (||X_i||^2/rho + 1) overflows to up = inf here, and the width
    # test inf - ell <= BISECTION_TOL * inf used to return interval-empty
    # with no proof
    rng = np.random.default_rng(0)
    X = 1e100 * rng.standard_normal((8, 6))
    inst = ProblemInstance(X=X, y=rng.standard_normal(8), rho=1.0, k=2)
    with pytest.raises(ValueError, match="not representable"):
        check_dcl(inst, (0, 1))
    with pytest.raises(ValueError, match="not representable"):
        SupportContext(inst, (0, 1)).bracket()
    # the weights ||X_i||^2/rho themselves overflow
    tiny = ProblemInstance(X=X * 1e-100, y=inst.y, rho=1e-310, k=2)
    with pytest.raises(ValueError, match="not representable"):
        SupportContext(tiny, (0, 1)).bracket()


@pytest.mark.parametrize("scale", [1e155, 1e160])
@pytest.mark.parametrize(
    "entry",
    [
        lambda inst: check_pwg(inst, (0, 1)),
        lambda inst: check_dcl(inst, (0, 1)),
        brute_force_l0,
        pwg_value,
    ],
    ids=["check_pwg", "check_dcl", "brute_force_l0", "pwg_value"],
)
def test_gram_overflow_is_value_error(entry, scale):
    # ||X_i||^2 is about 8 * scale^2, past the largest float: each entry point
    # used to stop on an overflow in its first Gram product
    rng = np.random.default_rng(0)
    X = scale * rng.standard_normal((8, 6))
    with pytest.raises(ValueError, match="would overflow"):
        entry(ProblemInstance(X=X, y=rng.standard_normal(8), rho=1.0, k=2))


def test_bracket_minimum_ignores_a_product_that_overflows():
    # c_0^2 * (||X_0||^2/rho + 1) is about 1e310, but up is the minimum and
    # column 1's product is 1
    inst = ProblemInstance(X=np.diag([1e147, 1.0]), y=[1e10, 1.0], rho=1e290, k=2)
    assert SupportContext(inst, (0, 1)).bracket() == (0.0, 1.0)


def test_dcl_invalid_supports():
    inst = ident([1.0, 0.0])
    with pytest.raises(ValueError):
        check_dcl(inst, [])
    with pytest.raises(ValueError):
        check_dcl(inst, [0, 1])


def test_canonical_duals_examples():
    assert SupportContext(ident([1.0, 0.0]), [0]).duals(0.25) == pytest.approx([1.0, 0.0])
    inst2 = ProblemInstance(X=[[1.0]], y=[2.0], rho=1.0, k=1)
    assert SupportContext(inst2, [0]).duals(1.0) == pytest.approx([1.0])
    # lam equal to the squared score of a singleton support gives dual 1
    inst3 = ident([1.0, 0.0])
    assert SupportContext(inst3, [0]).duals(0.25)[0] == pytest.approx(1.0)


def test_every_returned_certificate_reverifies():
    rng = np.random.default_rng(29)
    cases = []
    for _ in range(200):
        cases.append(planted_instance(rng))
        inst = noise_instance(rng)
        cases.append((inst, random_support(rng, inst)))
    # weak to strong planted signals reach every path that certifies
    amp_rng = np.random.default_rng(31)
    cases += [planted_instance(amp_rng, amplitude=a) for a in np.linspace(0.05, 3.0, 150)]
    count = 0
    for inst, sup in cases:
        out = check_dcl(inst, sup)
        if out.exact:
            assert abs(verify_dcl_certificate(inst, out.certificate)) <= 1e-10
            assert dense_margin(SupportContext(inst, sup), out.certificate.lam)[0] <= certificates.COND_TOL
            count += 1
    assert count > 30  # the family must actually exercise the exact branch


@pytest.mark.parametrize(
    "lam, y, match",
    [
        # duals0: the scores (0.5, 0), where a NaN would make every dual NaN
        pytest.param(np.nan, [1.0, 0.0], "positive reals", id="nan-duals0"),
        # duals1: all scores zero, where the duals exist at lam = 0 alone and
        # a NaN must not pass for that zero
        pytest.param(np.nan, [0.0, 0.0], "zero correlation score", id="nan-duals1"),
        pytest.param(np.inf, [1.0, 0.0], "positive reals", id="inf"),
        pytest.param(-np.inf, [1.0, 0.0], "positive reals", id="-inf"),
        pytest.param(-0.25, [1.0, 0.0], "positive reals", id="-0.25"),
    ],
)
def test_verify_rejects_non_finite_certificates(lam, y, match):
    # a threshold that is not a finite positive real has no canonical duals;
    # every comparison with NaN is false, so that case must fail closed
    cert = DclCertificate(support=(0,), lam=lam)
    with pytest.raises(CertificateConsistencyError, match=match):
        verify_dcl_certificate(ident(y), cert)


def test_verify_accepts_lam_zero_only_when_every_score_is_zero():
    assert verify_dcl_certificate(ident([0.0, 0.0]), DclCertificate((0,), 0.0)) == 0.0
    # the scores (0.5, 0) are not all zero
    with pytest.raises(CertificateConsistencyError, match="positive reals"):
        verify_dcl_certificate(ident([1.0, 0.0]), DclCertificate((0,), 0.0))
    # a zero score on the support leaves the canonical duals undefined
    with pytest.raises(CertificateConsistencyError, match="zero correlation score"):
        verify_dcl_certificate(ident([1.0, 0.0]), DclCertificate((1,), 0.25))


@pytest.mark.parametrize("lam, accepted", [(0.5 + 1e-9, True), (0.5 + 1e-8, False), (1.0, False)])
def test_verify_rejects_a_slack_matrix_that_is_not_nsd(lam, accepted):
    # the scores at S = {0} are (0.5, 0), so the canonical duals (4 lam, 0)
    # close the duality gap at every lam, and only the slack matrix
    # diag(4 lam - 2, -2) can fail: its top eigenvalue 4 lam - 2 is 4e-9,
    # 4e-8 and 2 against COND_TOL = 1e-8
    cert = DclCertificate(support=(0,), lam=lam)
    if accepted:
        assert abs(verify_dcl_certificate(ident([1.0, 0.0]), cert)) <= 1e-15
    else:
        with pytest.raises(CertificateConsistencyError, match="slack matrix not NSD"):
            verify_dcl_certificate(ident([1.0, 0.0]), cert)


def _dense_edge(ctx, inside, outside):
    """The threshold, between one whose dense margin is at most COND_TOL and
    one whose margin is above it, where the margin crosses COND_TOL, by
    geometric bisection; the certifying thresholds form an interval because
    the margin is convex."""
    for _ in range(80):
        mid = math.sqrt(inside * outside)
        if dense_margin(ctx, mid)[0] <= certificates.COND_TOL:
            inside = mid
        else:
            outside = mid
    return inside


def test_verifier_nsd_verdict_matches_the_dense_reference():
    # canonical duals close the gap at every threshold, so the verdict is
    # the NSD test alone; it must equal the dense top eigenvalue <= COND_TOL
    # on a sweep through and past each certifying interval, which lies inside
    # the analytic bracket, and at relative distances 1e-3 to 1e-9 on both
    # sides of its ends
    rng = np.random.default_rng(61)
    near = np.array([-1e-3, -1e-6, -1e-9, 1e-9, 1e-6, 1e-3])
    verdicts = []
    while len(verdicts) < 4000:
        inst, sup = planted_instance(rng, amplitude=float(rng.uniform(0.05, 3.0)))
        out = check_dcl(inst, sup)
        if not out.exact:
            continue
        ctx = SupportContext(inst, sup)
        ell, up = ctx.bracket()
        lams = np.geomspace(ell / 2.0 if ell > 0.0 else 1e-6 * up, 2.0 * up, 40)
        ends = [lam for lam in lams[[0, -1]] if dense_margin(ctx, lam)[0] > certificates.COND_TOL]
        for end in ends:
            lams = np.append(lams, _dense_edge(ctx, out.certificate.lam, end) * (1.0 + near))
        for lam, top in zip(lams, dense_margins(ctx, lams)):
            cert = DclCertificate(support=ctx.support, lam=float(lam))
            try:
                verify_dcl_certificate(inst, cert)
                accepted = True
            except CertificateConsistencyError as err:
                assert "slack matrix not NSD" in str(err)
                accepted = False
            verdicts.append((accepted, bool(top <= certificates.COND_TOL)))
    assert all(ours == dense for ours, dense in verdicts)
    assert 0 < sum(ours for ours, _ in verdicts) < len(verdicts)


def test_decision_grid_certificates_pass_the_dense_check():
    # every certificate of the seed-100 decision grid (scripts/decision_grid.py)
    cfg = EnsembleConfig(p_list=[16, 32, 64], trials=4, master_seed=100)
    certified = 0
    for p in cfg.p_list:
        for alpha in cfg.alpha_grid:
            for mult in cfg.rho_multipliers:
                for trial in range(cfg.trials):
                    inst, _, sup = generate_instance(cfg, p, alpha, mult, trial)
                    ctx = SupportContext(inst, sup)
                    out = check_dcl(inst, ctx)
                    if out.exact:
                        verify_dcl_certificate(inst, out.certificate)
                        assert dense_margin(ctx, out.certificate.lam)[0] <= certificates.COND_TOL
                        certified += 1
    assert certified > 1000


def test_verify_rejects_every_tiny_rho_certificate():
    # at rho = 1e-30 the support scores sit at roundoff level, and check_dcl
    # certifies most supports although the brute-force argmin (3, 4) is
    # unique; its thresholds rest on roundoff, the argmin's included, so
    # each certificate leaves a duality gap
    rng = np.random.default_rng(0)
    inst = ProblemInstance(X=rng.standard_normal((12, 8)), y=rng.standard_normal(12), rho=1e-30, k=2)
    assert brute_force_l0(inst).argmin_supports == [(3, 4)]
    certified = 0
    for sup in itertools.combinations(range(inst.p), 2):
        out = check_dcl(inst, sup)
        if out.exact:
            certified += 1
            with pytest.raises(CertificateConsistencyError, match="duality gap"):
                verify_dcl_certificate(inst, out.certificate)
    assert certified > 0


def test_verifier_verdicts_do_not_depend_on_the_scale_of_y():
    # scaling y by 2^-30 scales P and P - D alike by 2^-60, exactly (2^-120
    # for 2^-60), so the relative gap, and with it each verdict, is
    # unchanged; the verifier accepts 1 of these 20 trials. A gap divided
    # by max(1, |P|) turns absolute once P falls below 1, and accepted all
    # 20 at 2^-30
    cfg = EnsembleConfig(p_list=[16], trials=20, alpha_grid=[4.0], rho_multipliers=[1e-8])
    verdicts = {}
    for e in (0, -30, -60):
        for trial in range(cfg.trials):
            inst, _, sup = generate_instance(cfg, 16, 4.0, 1e-8, trial)
            inst = ProblemInstance(X=inst.X, y=inst.y * 2.0**e, rho=inst.rho, k=inst.k)
            out = check_dcl(inst, sup)
            try:
                verdicts[e, trial] = verify_dcl_certificate(inst, out.certificate)
            except CertificateConsistencyError as err:
                verdicts[e, trial] = str(err)
    for trial in range(cfg.trials):
        assert verdicts[0, trial] == verdicts[-30, trial] == verdicts[-60, trial]
    accepted = sum(isinstance(v, float) for (e, _), v in verdicts.items() if e == 0)
    assert 0 < accepted < cfg.trials


def test_certificate_checks_need_exactly_k_columns():
    # {0} separates and its witness has an NSD slack matrix, but the lifted
    # dual value there is P({0}) - lam_raw/2 = 0.28125 - lam_raw/2, and the
    # unique argmin is {0, 1}
    inst = ProblemInstance(X=I2, y=[1.0, 0.25], rho=1.0, k=2)
    assert brute_force_l0(inst).argmin_supports == [(0, 1)]
    cert = DclCertificate(support=(0,), lam=0.25)
    for call in (
        lambda: SupportContext(inst, [0]),
        lambda: check_pwg(inst, [0]),
        lambda: check_dcl(inst, [0]),
        lambda: verify_dcl_certificate(inst, cert),
        lambda: verify_kkt(inst, [0], np.zeros(2), 0.0),
    ):
        with pytest.raises(ValueError, match="differs from the cardinality budget k=2"):
            call()
    cert = check_dcl(inst, [0, 1]).certificate
    assert abs(verify_dcl_certificate(inst, cert)) <= 1e-15
    assert dense_margin(SupportContext(inst, [0, 1]), cert.lam)[0] <= 0.0


def test_squared_scores_that_overflow_are_a_value_error():
    # |c_j| is past sqrt(float max) here; squaring used to overflow with a
    # warning, and check_dcl then returned a certificate breaking its own
    # support equality
    rng = np.random.default_rng(1)
    inst = ProblemInstance(
        X=rng.standard_normal((1, 4)) * 1e20, y=rng.standard_normal(1) * 1e150, rho=1e-30, k=4
    )
    for call in (SupportContext, check_pwg, check_dcl):
        with pytest.raises(ValueError, match="too large to square"):
            call(inst, (0, 1, 2, 3))


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
    assert cert.support == (0,) and cert.lam == pytest.approx(0.25)
    # canonical duals: the off-support dual is c_1^2/lam0 = 0
    assert SupportContext(inst, [0]).duals(cert.lam) == pytest.approx([1.0, 0.0])
    verify_dcl_certificate(inst, cert)
    assert dense_margin(SupportContext(inst, [0]), cert.lam)[0] <= 1e-12


def test_witness_transfer_equal_scores_give_unit_duals():
    # orthogonal columns, equal |scores| on the support
    X = np.eye(4)
    inst = ProblemInstance(X=X, y=[2.0, 2.0, 0.1, 0.0], rho=1.0, k=2)
    pwg = check_pwg(inst, [0, 1]).certificate
    cert = pwg_witness_to_dcl(inst, [0, 1], pwg)
    assert SupportContext(inst, [0, 1]).duals(cert.lam)[[0, 1]] == pytest.approx([1.0, 1.0])


def test_witness_transfer_random_and_verified():
    rng = np.random.default_rng(43)
    hits = 0
    for _ in range(300):
        inst, sup = planted_instance(rng, n=8, p=12)
        pwg = check_pwg(inst, sup)
        if not pwg.exact:
            continue
        cert = pwg_witness_to_dcl(inst, sup, pwg.certificate)  # re-verifies inside
        duals = SupportContext(inst, sup).duals(cert.lam)
        assert np.all(duals >= 0.0) and np.all(duals <= 1.0 + 1e-12)
        hits += 1
    assert hits > 30


def test_verifying_a_witness_transfer_factors_nothing(monkeypatch):
    # the verifier queries the duals minus COND_TOL, so those of a witness
    # transfer, all at most 1, leave W = I - D positive definite and the
    # Schur query certifies with no kernel factorization
    calls = []

    def counting(G, rho):
        calls.append(G.shape)
        return kernel_factor(G, rho)

    monkeypatch.setattr(certificates, "kernel_factor", counting)
    rng = np.random.default_rng(43)
    hits = 0
    for _ in range(100):
        inst, sup = planted_instance(rng, n=8, p=12)
        if not check_pwg(inst, sup).exact:
            continue
        cert = check_dcl(inst, sup).certificate
        calls.clear()
        verify_dcl_certificate(inst, cert)
        assert not calls
        hits += 1
    assert hits > 10


def test_threshold_pass_certifies_without_eigensolve(eig_calls):
    # the witness transfer: lam0 = min_{i in S} c_i^2, no eigenproblem
    rng = np.random.default_rng(61)
    hits = 0
    for _ in range(200):
        inst, sup = planted_instance(rng)
        pwg = check_pwg(inst, sup)
        if not pwg.exact:
            continue
        out = check_dcl(inst, sup)
        assert out.exact and not eig_calls
        assert out.certificate.lam == SupportContext(inst, sup).sq_in.min()
        assert pwg_witness_to_dcl(inst, sup, pwg.certificate) == out.certificate
        hits += 1
    assert hits > 20


def test_witness_transfer_rejects_non_separating_support():
    inst = ident([1.0, 1.0])  # scores (0.5, 1) do not separate at {0}
    forged = certificates.PwgCertificate(support=(0,), min_in=0.5, max_out=0.0)
    with pytest.raises(ValueError, match="do not separate"):
        pwg_witness_to_dcl(inst, [0], forged)


# --------------------------------------------------------------- KKT residuals


def test_kkt_hand_example():
    inst = ident([1.0, 0.0])
    report = verify_kkt(inst, [0], np.array([1.0, 0.0]), 0.25)
    assert report.t == pytest.approx([-0.5, 0.0])
    assert report.tau == pytest.approx(0.25)
    assert report.psd_residual_big <= 1e-10
    assert report.psd_residual_small <= 1e-10
    assert report.comp_residual <= 1e-10
    with pytest.raises(ValueError, match="differs from the cardinality budget k=1"):
        verify_kkt(inst, [0, 1], np.zeros(2), 0.0)


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
        ctx = SupportContext(inst, sup)
        try:
            ell, up = ctx.bracket()
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
            f1 = dense_margin(ctx, l1)[0]
            f2 = dense_margin(ctx, l2)[0]
            f3 = dense_margin(ctx, l3)[0]
            t = (l3 - l2) / (l3 - l1)
            assert f2 <= t * f1 + (1 - t) * f3 + 1e-9
        for _ in range(20):
            lam_hat, lam = rng.uniform(lo, hi, size=2)
            f_hat, u = dense_margin(ctx, lam_hat)
            # the slope of g_u at lam_hat is a subgradient of the margin there
            a, b, _ = ctx.rayleigh(u)
            h = a - b / lam_hat / lam_hat
            f_other = dense_margin(ctx, lam)[0]
            assert f_other >= f_hat + h * (lam - lam_hat) - 1e-9
        tested += 1


@settings(max_examples=150, deadline=None)
@given(st.integers(min_value=0, max_value=2**31), st.floats(min_value=0.05, max_value=1.0))
def test_cut_proved_empty_interval_has_positive_margin(seed, amplitude):
    # interval-empty from a nonempty analytic bracket comes from a Rayleigh
    # root-interval cut, which claims the margin is positive across the
    # whole bracket
    rng = np.random.default_rng(seed)
    inst, sup = planted_instance(rng, p=int(rng.integers(4, 9)), amplitude=amplitude)
    if check_dcl(inst, sup).reason != REASON_EMPTY_INTERVAL:
        return
    ctx = SupportContext(inst, sup)
    ell, up = ctx.bracket()
    if ell >= up or up - ell <= BISECTION_TOL * up:
        return
    lams = np.linspace(ell, up, 1002)[1:-1]
    assert (dense_margins(ctx, lams) > 0.0).all()


def test_crossing_cut_ends_search_within_three_evaluations(eig_calls):
    # this trial used to halve its bracket 33 times and end bisection-exhausted
    cfg = EnsembleConfig(p_list=[64], trials=1, alpha_grid=[1.0], rho_multipliers=[2.0])
    inst, _, sup = generate_instance(cfg, 64, 1.0, 2.0, 0)
    out = check_dcl(inst, sup)
    assert out.reason == REASON_EMPTY_INTERVAL
    assert 1 <= len(eig_calls) <= 3


def test_negative_discriminant_proves_interval_empty(monkeypatch):
    # X v = 0 for v = (1.1, -1): c = ||v||^2 = 2.21 while 4ab = 5.856, so
    # g_v > 0 at every threshold, although the bracket [0.137, 0.5] is not empty.
    # Both duals exceed 1/2 at the first query, so the Schur block is all of
    # {0, 1} (t = 2, c empty) and the eigenvector u lifts to v = u.
    inst = ProblemInstance(X=[[1.0, 1.1]], y=[1.0], rho=1.0, k=1)
    v = np.array([1.1, -1.0])
    ctx = SupportContext(inst, [0])
    ell, up = ctx.bracket()
    assert ell < up
    a, b, c = ctx.rayleigh(v)
    assert c * c < 4.0 * a * b
    assert root_interval(a, b, c) == (np.inf, 0.0)
    assert check_dcl(inst, [0]).reason == REASON_EMPTY_INTERVAL
    calls = []

    def fixed_direction(A):
        calls.append(A.shape)
        return 1.0, v

    monkeypatch.setattr(certificates, "max_eig_sym", fixed_direction)
    assert check_dcl(inst, [0]).reason == REASON_EMPTY_INTERVAL
    assert calls == [(2, 2)]


def test_root_interval_hand_values():
    # lam^2 - 3 lam + 2 = (lam - 1)(lam - 2)
    assert root_interval(1.0, 2.0, 3.0) == pytest.approx((1.0, 2.0))
    assert root_interval(0.0, 2.0, 4.0) == (0.5, np.inf)  # b/lam <= c
    assert root_interval(2.0, 0.0, 4.0) == (0.0, 2.0)  # a lam <= c
    assert root_interval(1.0, 1.0, 2.0) == (1.0, 1.0)  # double root
    assert root_interval(1.0, 1.0, 1.9) == (np.inf, 0.0)  # negative discriminant
    assert root_interval(1.0, 1.0, 0.0) == (np.inf, 0.0)
    assert root_interval(np.inf, 1.0, 2.0) == (0.0, np.inf)  # overflowed: no cut
    # no cancellation in the small root when 4ab << c^2
    lo, hi = root_interval(1.0, 1e-20, 1.0)
    assert lo == pytest.approx(1e-20, rel=1e-12) and hi == pytest.approx(1.0)


def test_rayleigh_overflow_is_no_cut_and_no_warning():
    # the squared support scores are subnormal (about 1e-312) here, so
    # a = sum_{i in S} v_i^2/c_i^2 overflows at v = 1; that used to raise a
    # RuntimeWarning, an error under the project's warning policy, before
    # root_interval could read it as no cut
    inst, sup = _seed0_trial(1.0, 2.0, 0, -520)
    ctx = SupportContext(inst, sup)
    a, b, c = ctx.rayleigh(np.ones(inst.p))
    assert a == np.inf and root_interval(a, b, c) == (0.0, np.inf)
    assert not check_dcl(inst, sup).exact


@settings(max_examples=100, deadline=None)
@given(st.integers(min_value=0, max_value=2**31), st.floats(min_value=0.05, max_value=3.0))
def test_certifying_thresholds_lie_in_every_root_interval(seed, amplitude):
    # g_v(lam) = v^T S(lam) v bounds the margin below for any v, so every
    # certifying lam lies in {g_v <= 0}; along the axes e_i these root
    # intervals are the per-column bounds that make up the bracket
    rng = np.random.default_rng(seed)
    inst, sup = planted_instance(rng, p=int(rng.integers(4, 9)), amplitude=amplitude)
    ctx = SupportContext(inst, sup)
    if ctx.zero_score_in_support:
        return
    ell, up = ctx.bracket()
    axes = np.array([root_interval(*ctx.rayleigh(e)) for e in np.eye(inst.p)])
    assert axes[:, 0].max() == pytest.approx(ell, rel=1e-12, abs=0.0)
    assert axes[:, 1].min() == pytest.approx(up, rel=1e-12)
    if ell >= up:
        return
    lams = np.linspace(ell, up, 402)[1:-1]
    # certifying with room to spare for the roundoff of the eigensolver
    certifying = lams[dense_margins(ctx, lams) < -1e-9]
    for _ in range(10):
        v = rng.standard_normal(inst.p)
        lo, hi = root_interval(*ctx.rayleigh(v / np.linalg.norm(v)))
        assert ((lo <= certifying) & (certifying <= hi)).all()


def test_p256_trials_need_few_eigensolves(eig_calls):
    # the arithmetic-midpoint bisection with tangent cuts made 28 top-eigenpair
    # solves on these 15 trials; alpha=1 is interval-empty, alpha 3 and 4 exact
    cfg = EnsembleConfig(p_list=[256], trials=5, alpha_grid=[1.0, 3.0, 4.0], rho_multipliers=[2.0])
    for alpha, exact in zip(cfg.alpha_grid, (False, True, True)):
        for trial in range(cfg.trials):
            inst, _, sup = generate_instance(cfg, 256, alpha, 2.0, trial)
            out = check_dcl(inst, sup)
            assert out.exact == exact
            if exact:
                verify_dcl_certificate(inst, out.certificate)
                assert dense_margin(SupportContext(inst, sup), out.certificate.lam)[0] <= certificates.COND_TOL
            else:
                assert out.reason == REASON_EMPTY_INTERVAL
    assert len(eig_calls) <= 12
    # each eigensolve is on a t x t Schur block, never on a p x p matrix
    assert all(rows == cols < 256 for rows, cols in eig_calls)


@settings(max_examples=200, deadline=None)
@given(
    st.integers(min_value=0, max_value=2**31),
    st.booleans(),
    st.floats(min_value=0.001, max_value=0.999),
)
def test_schur_query_agrees_with_dense_margin(seed, tall, frac):
    # n > p >= |c| takes the |c| x |c| Woodbury form of the inner solve, and
    # n <= 2 <= |c| the n x n form
    rng = np.random.default_rng(seed)
    p = int(rng.integers(4, 13))
    n = int(rng.integers(p + 1, 2 * p + 2)) if tall else int(rng.integers(1, 3))
    inst, sup = planted_instance(rng, n=n, p=p, amplitude=float(rng.uniform(0.05, 3.0)))
    ctx = SupportContext(inst, sup)
    assume(not ctx.zero_score_in_support)
    ell, up = ctx.bracket()
    assume(ell < up)
    lam = ell + frac * (up - ell) if ell == 0.0 else ell ** (1.0 - frac) * up**frac
    duals = ctx.duals(lam)
    assume(tall or (duals < 1.0 - certificates.SCHUR_SPLIT).sum() >= n)
    slack = slack_matrices(ctx, [lam])[0]
    margin = float(np.linalg.eigvalsh(slack)[-1])
    assume(abs(margin) > 1e-9 * np.abs(slack).max())
    v = certificates._schur_query(ctx, duals)
    assert (v is None) == (margin <= 0.0)
    if v is not None:
        # the lifted vector's Rayleigh cut excludes lam
        a, b, c = ctx.rayleigh(v)
        assert a * lam + b / lam - c > 0.0
        lo, hi = root_interval(a, b, c)
        assert not lo <= lam <= hi


def test_search_forms_no_p_by_p_array(eig_calls):
    # one p x p float64 array at p=1024 is 8 MiB; neither the search nor the
    # verifier of a certificate builds the dense slack matrix or X^T X. At
    # alpha 3 (n=663) the verifier's Schur query holds its 4.8 MiB of scaled
    # columns G and the 3.4 MiB n x n kernel, which it factors in place
    MiB = 1024 * 1024
    cfg = EnsembleConfig(p_list=[1024], trials=1, rho_multipliers=[2.0])
    inst, _, sup = generate_instance(cfg, 1024, 1.0, 2.0, 0)
    certified, _, cert_sup = generate_instance(cfg, 1024, 2.0, 2.0, 0)
    cert = check_dcl(certified, cert_sup).certificate
    large, _, large_sup = generate_instance(cfg, 1024, 3.0, 2.0, 0)
    large_cert = check_dcl(large, large_sup).certificate
    results = []
    for call, bound in (
        (lambda: check_dcl(inst, sup), 8 * MiB),
        (lambda: verify_dcl_certificate(certified, cert), 8 * MiB),
        (lambda: verify_dcl_certificate(large, large_cert), 10 * MiB),
    ):
        tracemalloc.start()
        try:
            results.append(call())
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < bound
    out, gap, large_gap = results
    assert out.reason == REASON_EMPTY_INTERVAL and eig_calls
    assert abs(gap) <= 1e-10 and abs(large_gap) <= 1e-10


def test_cholesky_certifies_first_query_without_eigensolve(eig_calls):
    # scores that do not separate, certified at the first (geometric) query
    cfg = EnsembleConfig(p_list=[64], trials=1, alpha_grid=[3.0], rho_multipliers=[2.0])
    inst, _, sup = generate_instance(cfg, 64, 3.0, 2.0, 0)
    assert not check_pwg(inst, sup).exact
    out = check_dcl(inst, sup)
    assert out.exact and not eig_calls
    ell, up = SupportContext(inst, sup).bracket()
    assert out.certificate.lam == np.sqrt(ell) * np.sqrt(up)
    verify_dcl_certificate(inst, out.certificate)
    assert dense_margin(SupportContext(inst, sup), out.certificate.lam)[0] <= certificates.COND_TOL


def test_bisection_matches_grid_scan_small():
    rng = np.random.default_rng(59)
    tested = 0
    while tested < 30:
        inst = mixed_instance(rng, p=int(rng.integers(6, 11)))
        sup = random_support(rng, inst)
        out = check_dcl(inst, sup)
        ctx = SupportContext(inst, sup)
        try:
            ell, up = ctx.bracket()
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
        grid_min = float(dense_margins(ctx, lams).min())
        if abs(grid_min) > 1e-6:
            assert out.exact == (grid_min <= 0.0)
        tested += 1


@settings(max_examples=150, deadline=None)
@given(
    st.integers(min_value=0, max_value=2**31),
    st.floats(min_value=0.05, max_value=3.0),
    st.integers(min_value=-40, max_value=40),
    st.integers(min_value=-40, max_value=40),
)
def test_decisions_invariant_under_column_permutation_and_sign_flips(seed, amplitude, j, i):
    # (X, y, rho) -> (2^j X P D, -2^i y, 4^j rho) with P a permutation and
    # D = diag(+-1) maps the problem onto itself: column c of the new design
    # is column perm[c] of the old one. The scaling is exact: against the
    # unscaled map the fit scales by 2^(i-j), the scores by 2^(i+j), the
    # threshold by 4^(i+j) and the values by 4^i, bit for bit
    rng = np.random.default_rng(seed)
    inst, sup = planted_instance(rng, amplitude=amplitude)
    perm = rng.permutation(inst.p)
    signs = rng.choice([-1.0, 1.0], size=inst.p)

    def mapped(y_exp, x_exp):
        X = 2.0**x_exp * inst.X[:, perm] * signs
        return ProblemInstance(X=X, y=-(2.0**y_exp) * inst.y, rho=4.0**x_exp * inst.rho, k=inst.k)

    unscaled, moved = mapped(0, 0), mapped(i, j)
    where = np.argsort(perm)  # old column index -> new column index

    def relabel(support):
        return tuple(sorted(int(where[c]) for c in support))

    assert check_pwg(moved, relabel(sup)).exact == check_pwg(inst, sup).exact
    before, after = check_dcl(inst, sup), check_dcl(moved, relabel(sup))
    assert (after.exact, after.reason) == (before.exact, before.reason)
    if after.exact:
        lam = check_dcl(unscaled, relabel(sup)).certificate.lam
        assert after.certificate.lam == lam * 4.0 ** (i + j)
        verify_dcl_certificate(moved, after.certificate)
    best = brute_force_l0(inst)
    assert brute_force_l0(moved).value == pytest.approx(best.value * 4.0**i, rel=1e-12, abs=0.0)
    # the oracle's tie window is absolute below a value of 1, so its argmin
    # set is compared where the values are unscaled
    best_moved = brute_force_l0(mapped(0, j))
    assert best_moved.value == pytest.approx(best.value, rel=1e-12, abs=0.0)
    assert sorted(best_moved.argmin_supports) == sorted(map(relabel, best.argmin_supports))


def test_every_certified_support_is_a_brute_force_argmin():
    # a threshold certificate, or a dual certificate that re-verifies, proves
    # its support optimal, so on instances small enough to enumerate every
    # such support must be among the brute-force argmins (9279 supports;
    # 66 threshold and 160 dual certificates)
    rng = np.random.default_rng(7)
    pwg = dcl = 0
    for draw in range(300):
        p = int(rng.integers(6, 11))
        inst = planted_instance(rng, p=p)[0] if draw % 2 else noise_instance(rng, p=p)
        best = brute_force_l0(inst).argmin_supports
        for sup in itertools.combinations(range(inst.p), inst.k):
            ctx = SupportContext(inst, sup)
            if check_pwg(inst, ctx).exact:
                pwg += 1
                assert sup in best
            out = check_dcl(inst, ctx)
            if out.exact:
                verify_dcl_certificate(inst, out.certificate)  # all re-verify here
                dcl += 1
                assert sup in best
    assert 0 < pwg < dcl


# ------------------------------------------------------------ shared contexts


def _counting_scores(monkeypatch):
    """Calls of correlation_scores as SupportContext looks it up."""
    calls = []
    real = certificates.correlation_scores
    monkeypatch.setattr(certificates, "correlation_scores", lambda *a: calls.append(1) or real(*a))
    return calls


def test_shared_context_gives_the_same_decisions():
    cfg = EnsembleConfig(p_list=[16, 64], trials=1, rho_multipliers=[2.0, 8.0], master_seed=11)
    exact = 0
    for p in cfg.p_list:
        for alpha in cfg.alpha_grid:
            for mult in cfg.rho_multipliers:
                inst, _, sup = generate_instance(cfg, p, alpha, mult, 0)
                ctx = SupportContext(inst, sup)
                for check in (check_pwg, check_dcl):
                    shared = check(inst, ctx)
                    assert shared == check(inst, sup)
                exact += shared.exact
    assert 0 < exact < 2 * 19 * 2  # both outcomes occur on the grid


def test_context_of_another_instance_is_a_value_error():
    inst = ident([1.0, 0.0])
    twin = ident([1.0, 0.0])  # equal data, another object
    ctx = SupportContext(twin, [0])
    for check in (check_pwg, check_dcl):
        with pytest.raises(ValueError, match="another instance"):
            check(inst, ctx)
        assert check(twin, ctx).exact


def test_evaluate_trial_computes_the_scores_once(monkeypatch):
    calls = _counting_scores(monkeypatch)
    cfg = EnsembleConfig(p_list=[64], trials=1)
    for alpha in (1.0, 3.0):
        inst, _, sup = generate_instance(cfg, 64, alpha, 2.0, 0)
        calls.clear()
        evaluate_trial(inst, sup)
        assert len(calls) == 1


def _counting_witnesses(monkeypatch):
    """Constructions of PwgCertificate, as SupportContext looks it up."""
    calls = []
    real = certificates.PwgCertificate
    monkeypatch.setattr(
        certificates, "PwgCertificate", lambda *a, **kw: calls.append(1) or real(*a, **kw)
    )
    return calls


def test_evaluate_trial_runs_the_threshold_test_once(monkeypatch):
    # both tests read the witness of the one shared context, and the
    # verifier's own context never computes it
    calls = _counting_witnesses(monkeypatch)
    cfg = EnsembleConfig(p_list=[64], trials=1)
    inst, _, sup = generate_instance(cfg, 64, 6.0, 2.0, 0)
    assert evaluate_trial(inst, sup) == (True, True)
    assert len(calls) == 1
    ctx = SupportContext(inst, sup)
    assert check_pwg(inst, ctx).certificate is ctx.threshold_witness
    verify_dcl_certificate(inst, check_dcl(inst, ctx).certificate)
    assert len(calls) == 2


def test_verification_recomputes_scores_of_a_shared_context(monkeypatch):
    cfg = EnsembleConfig(p_list=[64], trials=1)
    inst, _, sup = generate_instance(cfg, 64, 3.0, 2.0, 0)
    ctx = SupportContext(inst, sup)
    out = check_dcl(inst, ctx)
    assert out.exact
    verdict = verify_dcl_certificate(inst, out.certificate)
    # spoiling the shared context cannot reach the verifier, which builds
    # its own from the certificate's support
    ctx.sq_in[:] = np.inf
    ctx.sq_out[:] = 0.0
    calls = _counting_scores(monkeypatch)
    assert verify_dcl_certificate(inst, out.certificate) == verdict
    assert len(calls) == 1
