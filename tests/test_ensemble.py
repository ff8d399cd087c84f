import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sparsecert import (
    EnsembleConfig,
    ProblemInstance,
    evaluate_trial,
    generate_instance,
    run_sweep,
    seed_derive,
)
from sparsecert.ensemble import aggregate_curves, sample_size_for, sparsity_for
from sparsecert.rng import SEED_DERIVE_REFERENCE, SplitMix64


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
    assert seed_derive(0, 0, 0, 0, 0) == SEED_DERIVE_REFERENCE


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
    scalars = [g1.next_u64() for _ in range(33)]
    block = [int(v) for v in g2._block(33)]
    assert scalars == block


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
    ):
        with pytest.raises(ValueError):
            small_config(**bad)
    assert small_config(master_seed=2**64 - 1).master_seed == 2**64 - 1


# -------------------------------------------------------------------- trials


def test_evaluate_trial_orthogonal_noiseless():
    # well-separated scores: both certificates must fire
    X = np.eye(6)
    beta = np.zeros(6)
    beta[[1, 4]] = [2.0, -2.0]
    inst = ProblemInstance(X=X, y=X @ beta, rho=1.0, k=2)
    assert evaluate_trial(inst, (1, 4)) == (True, True)


def test_evaluate_trial_zero_response_degenerate():
    inst = ProblemInstance(X=np.eye(4), y=np.zeros(4), rho=1.0, k=2)
    assert evaluate_trial(inst, (0, 1)) == (False, True)


def test_evaluate_trial_requires_full_support():
    inst = ProblemInstance(X=np.eye(4), y=np.zeros(4), rho=1.0, k=2)
    with pytest.raises(ValueError):
        evaluate_trial(inst, (0,))


# --------------------------------------------------------------------- sweeps


def test_sweep_deterministic_and_dominance():
    cfg = small_config()
    records1 = run_sweep(cfg, workers=1)
    records2 = run_sweep(cfg, workers=2)
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


def test_aggregate_rates():
    cfg = small_config()
    records = run_sweep(cfg, workers=1)
    curves = aggregate_curves(cfg, records)
    assert len(curves) == 1
    curve = curves[0]
    assert curve.p == 9 and curve.rho_multiplier == 2.0
    assert [pt[0] for pt in curve.points] == [1.0, 2.0]
    for _, pwg_rate, dcl_rate, trials in curve.points:
        assert trials == 3
        assert 0.0 <= pwg_rate <= dcl_rate <= 1.0


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
    curves = aggregate_curves(cfg, records)
    (_, _, dcl_low, _), (_, _, dcl_high, _) = curves[0].points
    assert dcl_high >= dcl_low
