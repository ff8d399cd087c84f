import itertools
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
import scipy.linalg
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from helpers import (
    exact_relaxed_objective,
    mixed_instance,
    noise_instance,
    planted_instance,
    relaxed_gradient,
    ridge_value_kernel,
    scaled_gaussian_instance,
)
from sparsecert import (
    ProblemInstance,
    SupportContext,
    brute_force_l0,
    check_dcl,
    check_pwg,
    oracles,
    pwg_value,
    verify_dcl_certificate,
)
from sparsecert.ensemble import EnsembleConfig, generate_instance
from sparsecert.linalg import ridge_restricted_solve
from sparsecert.problem import DEFAULT_REL_TOL
from sparsecert.oracles import (
    BRUTE_FORCE_CHUNK,
    MAX_COMBINATIONS,
    CombinationBudgetError,
    project_capped_simplex,
    relaxed_objective,
)

I2 = np.eye(2)


# ------------------------------------------------------------------ brute force


def test_brute_force_identity_design():
    res = brute_force_l0(ProblemInstance(X=I2, y=[1.0, 0.0], rho=1.0, k=1))
    assert res.value == pytest.approx(0.25)
    assert res.argmin_supports == [(0,)]


def test_brute_force_zero_response_all_tie():
    res = brute_force_l0(ProblemInstance(X=I2, y=[0.0, 0.0], rho=1.0, k=1))
    assert res.value == 0.0
    assert res.argmin_supports == [(0,), (1,)]


def test_brute_force_symmetric_tie():
    res = brute_force_l0(ProblemInstance(X=I2, y=[1.0, 1.0], rho=1.0, k=1))
    assert res.value == pytest.approx(0.75)
    assert res.argmin_supports == [(0,), (1,)]


def test_brute_force_budget():
    inst = ProblemInstance(X=np.random.default_rng(0).standard_normal((4, 30)),
                           y=np.zeros(4), rho=1.0, k=10)
    with pytest.raises(CombinationBudgetError) as exc:
        brute_force_l0(inst)
    assert exc.value.combinations == 30045015  # C(30, 10)
    assert exc.value.budget == MAX_COMBINATIONS


def _brute_force_loop(inst):
    """Reference: one Cholesky per support, ties within DEFAULT_REL_TOL times
    y^T y/2 (the documented tie window) of the minimum in lexicographic order."""
    values = []
    for sup in itertools.combinations(range(inst.p), inst.k):
        Xs = inst.X[:, sup]
        xty = Xs.T @ inst.y
        cho = scipy.linalg.cho_factor(Xs.T @ Xs + inst.rho * np.eye(inst.k), lower=True)
        values.append((0.5 * (float(inst.y @ inst.y) - float(xty @ scipy.linalg.cho_solve(cho, xty))), sup))
    best = min(v for v, _ in values)
    return best, [s for v, s in values if v <= best + DEFAULT_REL_TOL * 0.5 * float(inst.y @ inst.y)]


@pytest.mark.parametrize("chunk", [BRUTE_FORCE_CHUNK, 100])
def test_brute_force_matches_per_support_loop(monkeypatch, chunk):
    # audit-shaped instances (p=16, k=4: 1820 supports) and k=6 ones, in one
    # chunk or in many
    monkeypatch.setattr(oracles, "BRUTE_FORCE_CHUNK", chunk)
    cfg = EnsembleConfig(p_list=[16], trials=2, alpha_grid=[1.0, 2.0, 4.0, 6.0], rho_multipliers=[2.0, 8.0])
    cases = [
        generate_instance(cfg, 16, a, m, t)[0]
        for a in cfg.alpha_grid
        for m in cfg.rho_multipliers
        for t in range(2)
    ]
    rng = np.random.default_rng(67)
    cases += [noise_instance(rng, n=8, p=12, k=6) for _ in range(4)]
    for inst in cases:
        best, argmins = _brute_force_loop(inst)
        res = brute_force_l0(inst)
        assert res.argmin_supports == argmins
        assert abs(res.value - best) <= 1e-12 * max(1.0, abs(best))
        assert all(type(i) is int for s in res.argmin_supports for i in s)


def test_brute_force_ties_across_chunks(monkeypatch):
    # identical columns: every support ties, whichever chunk it falls in
    monkeypatch.setattr(oracles, "BRUTE_FORCE_CHUNK", 7)
    X = np.tile(np.array([[1.0], [2.0], [0.5]]), (1, 8))
    res = brute_force_l0(ProblemInstance(X=X, y=[1.0, 0.0, 2.0], rho=1.0, k=2))
    assert res.argmin_supports == list(itertools.combinations(range(8), 2))


@st.composite
def _brute_force_cases(draw):
    """Small Gaussian instances over n < k, k = 1, k = p - 1, k = p and
    columns copied from other columns."""
    p = draw(st.integers(min_value=1, max_value=8))
    k = draw(st.one_of(st.sampled_from([1, max(p - 1, 1), p]), st.integers(min_value=1, max_value=p)))
    n = draw(st.integers(min_value=1, max_value=8))
    rng = np.random.default_rng(draw(st.integers(min_value=0, max_value=2**32 - 1)))
    X = rng.standard_normal((n, p))
    for dst, src in draw(st.lists(st.tuples(st.integers(0, p - 1), st.integers(0, p - 1)), max_size=3)):
        X[:, dst] = X[:, src]
    rho = 10.0 ** draw(st.floats(min_value=-1.0, max_value=1.0))
    return ProblemInstance(X=X, y=rng.standard_normal(n), rho=rho, k=k)


@pytest.mark.parametrize("chunk", [1, 7, 4096])
@settings(max_examples=150, deadline=None)
@given(_brute_force_cases())
def test_brute_force_matches_loop_property(chunk, inst):
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(oracles, "BRUTE_FORCE_CHUNK", chunk)
        res = brute_force_l0(inst)
    best, argmins = _brute_force_loop(inst)
    assert res.argmin_supports == argmins
    assert abs(res.value - best) <= 1e-12 * max(1.0, abs(best))
    assert all(type(i) is int for s in res.argmin_supports for i in s)


def test_brute_force_singular_gram_block_is_value_error():
    # columns 0 and 1 coincide and rho = 1e-8 is lost against their 5e16
    # Gram entries, so the block of support (0, 1) has an exact zero pivot
    X = 1e8 * np.array([[1.0, 1.0, 0.3], [2.0, 2.0, -1.0], [0.5, 0.5, 2.0]])
    inst = ProblemInstance(X=X, y=[1.0, 0.0, 2.0], rho=1e-8, k=2)
    with pytest.raises(ValueError, match="too ill-conditioned to factor"):
        brute_force_l0(inst)


def test_brute_force_memory_does_not_grow_with_supports():
    # C(26, 6) = 230230 supports; one chunk's lower triangles take 0.7 MiB
    rng = np.random.default_rng(5)
    inst = noise_instance(rng, n=20, p=26, k=6, rho=3.0)
    tracemalloc.start()
    try:
        brute_force_l0(inst)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 * 2**20


def test_brute_force_matches_exhaustive_over_all_sizes():
    # enumerating only size-k supports is enough: value is monotone in growth
    rng = np.random.default_rng(3)
    for _ in range(30):
        inst = noise_instance(rng, n=6, p=7)
        res = brute_force_l0(inst)
        full_min = min(
            ridge_value_kernel(inst, sup)
            for size in range(1, inst.k + 1)
            for sup in itertools.combinations(range(inst.p), size)
        )
        assert res.value == pytest.approx(full_min, rel=1e-10)


# ------------------------------------------------------------------- projection


def test_projection_examples():
    assert project_capped_simplex(np.array([0.5, 0.2]), 1) == pytest.approx([0.5, 0.2])
    assert project_capped_simplex(np.array([2.0, 0.5]), 1) == pytest.approx(
        [1.0, 0.0], abs=1e-9
    )
    assert project_capped_simplex(np.array([0.6, 0.6]), 1) == pytest.approx(
        [0.5, 0.5], abs=1e-9
    )
    # v_i - 1 rounds to v_i above 2^53; this used to return all zeros
    assert np.array_equal(project_capped_simplex([1e17, 1e17 + 64, 3.0], 1), [0.0, 1.0, 0.0])


def _project_bisection(v, k):
    """Reference: the shift theta with sum clip(v - theta, 0, 1) = k found by
    bisection on [0, max v] to a width of 1e-12."""
    v = np.asarray(v, dtype=float).reshape(-1)
    clipped = np.clip(v, 0.0, 1.0)
    if clipped.sum() <= k:
        return clipped
    lo, hi = 0.0, float(v.max())
    for _ in range(200):
        theta = 0.5 * (lo + hi)
        if np.clip(v - theta, 0.0, 1.0).sum() > k:
            lo = theta
        else:
            hi = theta
        if hi - lo <= 1e-12:
            break
    return np.clip(v - 0.5 * (lo + hi), 0.0, 1.0)


# a few exact values among the floats, so breakpoints tie (v_i = v_j or
# v_i - 1 = v_j) and whole segments of s(theta) are flat
_TIED = st.sampled_from([-1.0, 0.0, 0.5, 1.0, 1.5, 2.0, 3.0])


@settings(max_examples=300, deadline=None)
@given(
    arrays(
        np.float64,
        st.integers(min_value=1, max_value=40),
        elements=st.one_of(_TIED, st.floats(min_value=-1e6, max_value=1e6)),
    ),
    st.integers(min_value=1, max_value=8),
)
@example(np.array([7.5]), 1)
@example(np.full(9, 0.75), 2)
@example(np.full(5, -1e6), 1)
@example(np.full(5, 1e6), 3)
def test_projection_matches_bisection(v, k):
    assert np.abs(project_capped_simplex(v, k) - _project_bisection(v, k)).max() <= 1e-9


@settings(max_examples=200, deadline=None)
@given(
    arrays(
        np.float64,
        st.integers(min_value=1, max_value=40),
        elements=st.one_of(_TIED, st.floats(min_value=-5, max_value=5)),
    ),
    st.integers(min_value=1, max_value=8),
)
@example(np.array([1e17, 1e17 + 64, 3.0]), 1)
@example(np.array([1e17, 3.0, 2.5]), 2)
@example(np.array([3e18, 1e18, 2.5, 2.0]), 3)
@example(np.array([1e18, -1e18, 0.5, 0.7]), 1)
@example(np.array([-1e18, 0.5, 0.7, 0.9]), 1)
def test_projection_feasible_and_optimal(v, k):
    z = project_capped_simplex(v, k)
    assert (z >= -1e-12).all() and (z <= 1.0 + 1e-12).all()
    assert z.sum() <= k + 1e-9
    if np.clip(v, 0.0, 1.0).sum() > k:
        assert abs(z.sum() - k) <= 1e-12 * max(1, k)
    # variational inequality against random feasible points
    rng = np.random.default_rng(0)
    for _ in range(100):
        w = rng.uniform(0.0, 1.0, size=v.size)
        s = w.sum()
        if s > k:
            w *= k / s
        assert float((v - z) @ (w - z)) <= 1e-9


# ------------------------------------------------------------- relaxation value


def test_pwg_value_scalar_closed_form():
    inst = ProblemInstance(X=[[1.0]], y=[2.0], rho=1.0, k=1)
    res = pwg_value(inst)
    assert res.z == pytest.approx([1.0], abs=1e-8)
    assert res.value == pytest.approx(1.0, abs=1e-9)


def test_pwg_value_zero_response():
    inst = ProblemInstance(X=I2, y=[0.0, 0.0], rho=1.0, k=1)
    res = pwg_value(inst)
    assert res.value == 0.0
    assert (res.z >= -1e-12).all() and res.z.sum() <= 1 + 1e-9


def test_pwg_value_identity_design_exact_relaxation():
    inst = ProblemInstance(X=I2, y=[1.0, 0.0], rho=1.0, k=1)
    res = pwg_value(inst)
    assert res.value == pytest.approx(0.25, abs=1e-9)
    assert res.z[0] == pytest.approx(1.0, abs=1e-6)


def test_pwg_value_feasibility_and_consistency():
    rng = np.random.default_rng(5)
    for _ in range(50):
        inst = mixed_instance(rng)
        res = pwg_value(inst)
        assert (res.z >= -1e-12).all() and (res.z <= 1 + 1e-12).all()
        assert res.z.sum() <= inst.k + 1e-9
        assert res.value == pytest.approx(relaxed_objective(inst, res.z), abs=1e-10)
        assert res.fw_gap >= 0.0


def test_pwg_value_below_brute_force():
    rng = np.random.default_rng(7)
    for _ in range(150):
        inst = mixed_instance(rng)
        res = pwg_value(inst)
        best = brute_force_l0(inst).value
        assert res.value <= best + 1e-7


def test_oracles_divide_scores_before_squaring():
    # X^T y is about 1e158 here: its square overflowed in brute_force_l0's
    # fit and pwg_value's gradient before the division by G_S or 2 rho. The
    # value is 1e184 times that of the instance scaled by 1e-66 in X, 1e-92
    # in y and 1e-132 in rho
    rng = np.random.default_rng(0)
    X = rng.standard_normal((5, 5))
    y = rng.standard_normal(5)
    big = ProblemInstance(X=1e66 * X, y=1e92 * y, rho=1e249, k=2)
    ref = 1e184 * brute_force_l0(ProblemInstance(X=X, y=y, rho=1e117, k=2)).value
    assert brute_force_l0(big).value == pytest.approx(ref, rel=1e-9)
    assert pwg_value(big).value == pytest.approx(ref, rel=1e-9)


def test_pwg_value_tight_when_certified():
    rng = np.random.default_rng(11)
    hits = 0
    for _ in range(150):
        inst, sup = planted_instance(rng)
        extra = [j for j in range(inst.p) if j not in sup]
        rng.shuffle(extra)
        full = tuple(sorted(sup + tuple(extra[: inst.k - len(sup)])))
        brute = brute_force_l0(inst)
        if full not in brute.argmin_supports:
            continue
        if not check_pwg(inst, full).exact:
            continue
        res = pwg_value(inst)
        assert abs(res.value - brute.value) <= 1e-6
        hits += 1
    assert hits > 20


def test_gradient_matches_finite_differences():
    rng = np.random.default_rng(13)
    for _ in range(40):
        inst = mixed_instance(rng)
        z = rng.uniform(0.05, 0.95, size=inst.p)
        z = project_capped_simplex(z, inst.k)
        # pull z into the capped simplex's interior, every coordinate above
        # the step: g is defined only for z >= 0
        z = (1.0 - 1e-3) * z + 1e-3 * (inst.k / inst.p)
        grad = relaxed_gradient(inst, z)
        # absolute floor covers central-difference roundoff, eps*|g|/step
        floor = 1e-9 * max(1.0, relaxed_objective(inst, z))
        for j in rng.choice(inst.p, size=min(4, inst.p), replace=False):
            e = np.zeros(inst.p)
            e[j] = 1e-6
            fd = (relaxed_objective(inst, z + e) - relaxed_objective(inst, z - e)) / 2e-6
            assert abs(fd - grad[j]) <= 1e-5 * abs(grad[j]) + floor


def test_pwg_value_converged_step_exits(monkeypatch):
    # a step that moves no coordinate by more than PWG_TOL ends the search
    # unevaluated; halving it 60 times instead costs up to iterations + 71
    # evaluations on these instances
    calls = []
    real = oracles._relaxed_objective_and_scores

    def counting(inst, z):
        calls.append(1)
        return real(inst, z)

    monkeypatch.setattr(oracles, "_relaxed_objective_and_scores", counting)
    for seed in (0, 7919):
        cfg = EnsembleConfig(p_list=[16], trials=4, alpha_grid=[1.0, 2.0, 4.0, 6.0],
                             rho_multipliers=[2.0, 8.0], master_seed=seed)
        for a in cfg.alpha_grid:
            for m in cfg.rho_multipliers:
                for t in range(cfg.trials):
                    inst = generate_instance(cfg, 16, a, m, t)[0]
                    calls.clear()
                    res = pwg_value(inst)
                    assert len(calls) <= res.iterations + 30


@pytest.mark.parametrize("seed", [9, 10, 14, 17, 31])
def test_pwg_value_ill_conditioned_kernel_matches_exact_referee(seed):
    # X D(z) X^T/rho swamps the identity, and at n > p it is rank-deficient:
    # the n x n kernel I + X D(z) X^T/rho is too ill-conditioned to factor or
    # to solve with (seed 14), while the ridge fit on the p x p side must match
    # exact arithmetic at the returned z
    rng = np.random.default_rng(seed)
    scale = rng.uniform(-8.0, 8.0)
    rho = 10.0 ** rng.uniform(-12.0, 12.0)
    inst = ProblemInstance(X=rng.standard_normal((8, 6)) * 10.0**scale,
                           y=rng.standard_normal(8), rho=rho, k=2)
    res = pwg_value(inst)
    assert res.value == pytest.approx(exact_relaxed_objective(inst, res.z), rel=1e-12)
    assert res.value <= brute_force_l0(inst).value


@pytest.mark.parametrize("bad", [-1e-300, -0.5, np.nan, np.inf])
def test_relaxed_objective_rejects_z_outside_its_domain(bad):
    # the ridge form needs sqrt z, so g is evaluated only at finite z >= 0
    rng = np.random.default_rng(0)
    inst = ProblemInstance(X=rng.standard_normal((8, 6)), y=rng.standard_normal(8), rho=1.0, k=2)
    z = np.full(6, 1.0 / 3.0)
    z[2] = bad
    with pytest.raises(ValueError, match="finite and nonnegative"):
        relaxed_objective(inst, z)


def test_relaxed_objective_matches_exact_referee():
    # 0.5 * min_b ||y - G b||^2 + rho ||b||^2, G = X diag(sqrt z), against the
    # kernel form in exact arithmetic, on both sides of kernel_factor and at
    # points with zero coordinates
    rng = np.random.default_rng(3)
    for _ in range(30):
        inst = mixed_instance(rng, n=int(rng.integers(3, 13)))
        z = project_capped_simplex(rng.uniform(-0.5, 1.0, size=inst.p), inst.k)
        assert relaxed_objective(inst, z) == pytest.approx(exact_relaxed_objective(inst, z), rel=1e-12)


@pytest.mark.parametrize("rho", [1e-20, 1e-30, 1e-100])
def test_pwg_value_at_tiny_rho_meets_the_least_squares_bound(rho):
    # every feasible z has g(z) >= 0.5 ||y - X X^+ y||^2, the fit on all
    # columns, and at tiny rho pwg_value reaches that bound; only its
    # Frank-Wolfe gap, which grows as 1/rho, is loose (seed 0 is
    # demo/tiny_rho.json's design)
    for seed in range(6):
        rng = np.random.default_rng(seed)
        X, y = rng.standard_normal((12, 8)), rng.standard_normal(12)
        resid = y - X @ np.linalg.lstsq(X, y, rcond=None)[0]
        res = pwg_value(ProblemInstance(X=X, y=y, rho=rho, k=2))
        assert res.value == pytest.approx(0.5 * float(resid @ resid), rel=1e-12)


@pytest.mark.parametrize("rho", [1e-310, 1e-320])
def test_tiny_rho_kernel_scale_is_a_value_error(rho):
    # ||x_a||^2/rho overflows: the scale test raises before X D(z) X^T/rho is
    # formed, where the division used to stop on an overflow warning
    rng = np.random.default_rng(0)
    inst = ProblemInstance(X=rng.standard_normal((8, 6)), y=rng.standard_normal(8), rho=rho, k=2)
    with pytest.raises(ValueError, match="not representable"):
        pwg_value(inst)
    with pytest.raises(ValueError, match="not representable"):
        relaxed_objective(inst, np.full(6, 1.0 / 3.0))


# Extreme scales that ProblemInstance accepts; the suite's error::RuntimeWarning
# filter turns any overflow warning on the way into a failure.


def test_restricted_fit_value_forms_rho_b_squared_without_overflow():
    # b*_S is about 1.6e170, so ||b||^2 overflows, although rho ||b||^2 is
    # about 5e19, far below ||y||^2
    inst = scaled_gaussian_instance(4, 6, 2, 1e-300, 1e150, 1e-320)
    fit = SupportContext(inst, (0, 1)).fit
    exact = sum(Fraction(float(r)) ** 2 for r in fit.resid) + Fraction(inst.rho) * sum(
        Fraction(float(b)) ** 2 for b in fit.coef
    )
    assert abs(fit.coef).max() > 1e170
    assert fit.value == pytest.approx(float(exact / 2), rel=1e-15, abs=0.0)
    check_dcl(inst, (0, 1))  # decides with no overflow on the way
    # (rho I_4 + G G^T)^{-1} y is about 1e470 on the relaxation's n side,
    # so the ridge fit solves for y 2^-j and scales b back
    res = pwg_value(inst)
    assert res.value == pytest.approx(exact_relaxed_objective(inst, res.z), rel=1e-12, abs=0.0)
    assert res.value <= brute_force_l0(inst).value


def test_pwg_value_refuses_a_gradient_that_overflows():
    # the scores are about 1e300, so c_j^2/(2 rho) overflows; the projection
    # of an infinite step used to end in an IndexError
    inst = scaled_gaussian_instance(7, 8, 6, 1e150, 1e150, 1.0)
    with pytest.raises(ValueError, match="gradient"):
        pwg_value(inst)
    with pytest.raises(ValueError, match="non-finite"):
        project_capped_simplex(np.array([np.inf, 1.0, -np.inf]), 1)
    with pytest.raises(ValueError, match="non-finite"):
        project_capped_simplex(np.array([np.nan, 1.0, 0.5]), 1)


def exact_one_row_coef(inst, support):
    """b*_S = x_S y / (rho + ||x_S||^2) of a one-row instance in exact
    rational arithmetic on the float data, rounded once."""
    x = [Fraction(float(inst.X[0, j])) for j in support]
    scale = Fraction(float(inst.y[0])) / (Fraction(inst.rho) + sum(v * v for v in x))
    return [float(v * scale) for v in x]


def test_ridge_fit_whose_kernel_solve_overflows_scales_back():
    # the n-side solve overflows, so it is redone for y 2^-j and b is scaled
    # back by 2^j, exact in binary
    wide = scaled_gaussian_instance(1, 4, 2, 1e-100, 1e150, 1e-200)
    # ||x_S||^2 = 1e-400 rounds away beside rho: the solve is about 1e310, b about 1e110
    narrow = ProblemInstance(X=np.array([[1e-200, 0.5]]), y=np.array([1.0]), rho=1e-310, k=1)
    # (rho + ||x_S||^2)^{-1} y is about 1e350 on wide, though b is about 5e249
    for inst, support in ((wide, (0, 1)), (narrow, (0,))):
        fit = ridge_restricted_solve(inst, support)
        assert fit.coef.tolist() == pytest.approx(exact_one_row_coef(inst, support), rel=1e-14, abs=0.0)
        assert SupportContext(inst, support).fit.coef.tolist() == fit.coef.tolist()
    # on narrow the relaxation's kernel scale is refused before any fit
    res = pwg_value(wide)
    assert res.value == pytest.approx(exact_relaxed_objective(wide, res.z), rel=1e-12, abs=0.0)
    assert res.value <= brute_force_l0(wide).value


def test_ridge_fit_whose_coefficients_overflow_is_a_value_error():
    # x^2 = 1e-324 underflows beside rho = 2^-1074, and b = x y/rho is about 2e311
    inst = ProblemInstance(X=np.array([[1e-162, 0.5]]), y=np.array([1e150]), rho=5e-324, k=1)
    with pytest.raises(ValueError, match="coefficients overflow"):
        ridge_restricted_solve(inst, (0,))


def test_pwg_value_with_an_overflowing_norm_of_b_is_the_optimum():
    # p = k = 1, so the relaxation, the best subset and the one support all
    # have the same value; b is about 2e170, and rho ||b||^2 used to be inf
    inst = scaled_gaussian_instance(2, 1, 1, 1e-150, 1e20, 1e-320)
    relaxed, brute = pwg_value(inst), brute_force_l0(inst)
    assert np.isfinite(relaxed.value)
    assert relaxed.value == pytest.approx(brute.value, rel=1e-12, abs=0.0)
    out = check_dcl(inst, (0,))
    assert out.exact and abs(verify_dcl_certificate(inst, out.certificate)) <= 1e-12


def test_monotone_descent_trace():
    rng = np.random.default_rng(17)
    for _ in range(30):
        inst = mixed_instance(rng)
        res = pwg_value(inst)
        trace = np.asarray(res.trace)
        assert (np.diff(trace) <= 1e-12).all()
