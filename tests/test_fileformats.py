import json

import numpy as np
import pytest

from sparsecert import EnsembleConfig, ProblemInstance, run_sweep
from sparsecert.cli import main
from sparsecert.ensemble import aggregate_curves
from sparsecert.fileio import (
    AGG_HEADER,
    SWEEP_HEADER,
    load_ensemble_config,
    load_instance,
    read_agg_csv,
    save_instance,
    write_agg_csv,
    write_sweep_csv,
)
from sparsecert.svgplot import render_recovery_svg

IDENTITY_DOC = {
    "n": 2,
    "p": 2,
    "rho": 1.0,
    "k": 1,
    "X": [1.0, 0.0, 0.0, 1.0],
    "y": [1.0, 0.0],
    "support": [0],
}


def write_json(path, doc):
    path.write_text(json.dumps(doc), encoding="utf-8")
    return path


def test_instance_round_trip(tmp_path):
    path = write_json(tmp_path / "inst.json", IDENTITY_DOC)
    inst, support = load_instance(path)
    assert inst.n == 2 and inst.p == 2 and inst.rho == 1.0 and inst.k == 1
    assert np.array_equal(inst.X, np.eye(2))
    assert support == (0,)
    out = tmp_path / "again.json"
    save_instance(out, inst, support)
    inst2, support2 = load_instance(out)
    assert np.array_equal(inst.X, inst2.X) and np.array_equal(inst.y, inst2.y)
    assert support2 == support


def test_instance_rejects_unknown_key(tmp_path):
    doc = dict(IDENTITY_DOC, extra=1)
    path = write_json(tmp_path / "bad.json", doc)
    with pytest.raises(ValueError, match="extra"):
        load_instance(path)


def test_instance_rejects_bad_lengths(tmp_path):
    doc = dict(IDENTITY_DOC, X=[1.0, 0.0, 0.0])
    path = write_json(tmp_path / "bad.json", doc)
    with pytest.raises(ValueError, match="'X'"):
        load_instance(path)
    doc = dict(IDENTITY_DOC, y=[1.0])
    path = write_json(tmp_path / "bad2.json", doc)
    with pytest.raises(ValueError, match="'y'"):
        load_instance(path)


def test_instance_rejects_missing_key(tmp_path):
    doc = {k: v for k, v in IDENTITY_DOC.items() if k != "rho"}
    path = write_json(tmp_path / "bad.json", doc)
    with pytest.raises(ValueError, match="'rho'"):
        load_instance(path)


@pytest.mark.parametrize("key", ["n", "p", "k", "rho"])
def test_instance_rejects_non_finite_scalars(tmp_path, key):
    # an infinite count used to escape as an OverflowError from int()
    path = write_json(tmp_path / "bad.json", dict(IDENTITY_DOC, **{key: float("inf")}))
    with pytest.raises(ValueError, match=f"'{key}'"):
        load_instance(path)


@pytest.mark.parametrize(
    "field, value", [("k", 2.5), ("k", True), ("k", "2"), ("rho", "1"), ("rho", True)]
)
def test_instance_refuses_to_coerce_k_and_rho(field, value):
    # each used to be read as an integer k or a float rho
    with pytest.raises(ValueError, match="^" + field):
        ProblemInstance(**{"X": np.eye(3), "y": np.ones(3), "rho": 1.0, "k": 2, field: value})


def test_instance_takes_numpy_scalars():
    inst = ProblemInstance(X=np.eye(3), y=np.ones(3), rho=np.float32(2.0), k=np.int64(2))
    assert (type(inst.rho), type(inst.k), inst.rho, inst.k) == (float, int, 2.0, 2)


def test_instance_rejects_integers_past_the_float_range(tmp_path):
    # such an entry used to escape as numpy's OverflowError
    for key, values in (("X", [10**400, 0, 0, 1]), ("y", [1, -(10**400)])):
        path = write_json(tmp_path / "bad.json", dict(IDENTITY_DOC, **{key: values}))
        with pytest.raises(ValueError, match=f"key '{key}'"):
            load_instance(path)


def test_instance_rejects_non_integer_counts(tmp_path):
    doc = dict(IDENTITY_DOC, k=1.5)
    path = write_json(tmp_path / "bad.json", doc)
    with pytest.raises(ValueError, match="'k'"):
        load_instance(path)
    # 1e999 parses as inf; true must not be read as column 1
    for bad in ("[null]", "[[1]]", "[1e999]", "[true]"):
        text = json.dumps(IDENTITY_DOC).replace('"support": [0]', f'"support": {bad}')
        path.write_text(text, encoding="utf-8")
        with pytest.raises(ValueError, match="support index"):
            load_instance(path)


def test_config_parse_defaults_and_strictness(tmp_path):
    path = write_json(tmp_path / "cfg.json", {"p_list": [9], "trials": 2})
    cfg = load_ensemble_config(path)
    assert cfg.gamma == 0.5
    assert cfg.alpha_grid[0] == 1.0 and cfg.alpha_grid[-1] == 10.0
    assert len(cfg.alpha_grid) == 19
    assert cfg.rho_multipliers == [2.0, 3.0, 4.0, 6.0, 8.0, 12.0]
    assert cfg.master_seed == 0
    for key, value in (("seed", 3), ("k_rule", "ceil-sqrt-p"), ("amplitude", 0.5)):
        bad = write_json(tmp_path / "bad.json", {"p_list": [9], "trials": 2, key: value})
        with pytest.raises(ValueError, match=key):
            load_ensemble_config(bad)


def test_config_integral_floats_load_as_integers(tmp_path):
    path = write_json(tmp_path / "cfg.json", {"p_list": [9], "trials": 2.0, "master_seed": 42.0})
    cfg = load_ensemble_config(path)
    assert cfg == EnsembleConfig(p_list=[9], trials=2, master_seed=42)
    assert cfg == EnsembleConfig(p_list=[9], trials=2.0, master_seed=42.0)
    assert (type(cfg.trials), type(cfg.master_seed)) == (int, int)


def test_config_names_missing_and_unknown_keys_together(tmp_path):
    path = write_json(tmp_path / "bad.json", {"p_list": [9], "seed": 3})
    with pytest.raises(ValueError, match="unknown key 'seed', missing key 'trials'"):
        load_ensemble_config(path)


def small_sweep(trials=2):
    cfg = EnsembleConfig(
        p_list=[9], trials=trials, alpha_grid=[1.0, 2.0], rho_multipliers=[2.0],
        gamma=0.5, master_seed=42,
    )
    records = run_sweep(cfg, workers=1)
    return cfg, records


def test_sweep_csv_format(tmp_path):
    cfg, records = small_sweep()
    path = tmp_path / "out.csv"
    write_sweep_csv(path, records)
    raw = path.read_bytes()
    assert b"\r" not in raw
    lines = raw.decode("utf-8").split("\n")
    assert lines[0] == SWEEP_HEADER
    assert lines[-1] == ""  # trailing LF
    assert len(lines) == 1 + len(records) + 1
    first = lines[1].split(",")
    assert first[0] == "9" and first[3] == "1.0"
    assert first[8] in {"0", "1"} and first[9] in {"0", "1"}
    # booleans and seed round-trip
    assert first[7] == str(records[0].trial_seed)


def test_sweep_csv_deterministic(tmp_path):
    cfg, records = small_sweep()
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    write_sweep_csv(a, records)
    write_sweep_csv(b, run_sweep(cfg, workers=2))
    assert a.read_bytes() == b.read_bytes()


def test_agg_round_trip(tmp_path):
    cfg, records = small_sweep(trials=3)
    rows = aggregate_curves(cfg, records)
    assert 2 / 3 in {r["dcl_rate"] for r in rows}  # a rate with no short decimal
    path = tmp_path / "agg.csv"
    write_agg_csv(path, rows)
    text = path.read_text(encoding="utf-8")
    assert text.startswith(AGG_HEADER + "\n")
    assert read_agg_csv(path) == aggregate_curves(cfg, records)


@pytest.mark.parametrize(
    "row",
    ["9,1.0,2.0,nan,0.5,2", "9,1.0,2.0,0.5,inf,2", "9,1.0,2.0,1.5,1.0,2",
     "9,1.0,2.0,0.0,-0.25,2", "9,1.0,2.0,0.5,0.5,0",
     # a nan or inf grid value used to reach the plot as nan coordinates
     "9,nan,2.0,0.5,0.5,2", "9,1.0,inf,0.5,0.5,2", "9,0.0,2.0,0.5,0.5,2", "0,1.0,2.0,0.5,0.5,2"],
)
def test_agg_csv_rejects_rates_outside_the_unit_interval_and_empty_cells(tmp_path, capsys, row):
    path = tmp_path / "agg.csv"
    path.write_text(f"{AGG_HEADER}\n9,2.0,2.0,0.5,1.0,2\n{row}\n", encoding="utf-8")
    with pytest.raises(ValueError, match=f"aggregate CSV row {row!r}"):
        read_agg_csv(path)
    assert main(["plot", str(path), str(tmp_path / "x.svg")]) == 1
    assert capsys.readouterr().err.startswith("error: aggregate CSV row")
    assert not (tmp_path / "x.svg").exists()


def test_svg_deterministic_and_structural(tmp_path):
    rows = [
        {"p": 9, "alpha": 1.0, "rho_multiplier": 2.0, "pwg_rate": 0.0, "dcl_rate": 0.5, "trials": 2},
        {"p": 9, "alpha": 2.0, "rho_multiplier": 2.0, "pwg_rate": 0.5, "dcl_rate": 1.0, "trials": 2},
    ]
    svg1 = render_recovery_svg(rows)
    svg2 = render_recovery_svg([dict(r) for r in rows])
    assert svg1 == svg2
    assert svg1.count("<polyline") == 2  # one per method
    assert "dcl p=9" in svg1 and "pwg p=9" in svg1


def test_svg_single_point_has_markers_only():
    rows = [
        {"p": 9, "alpha": 1.0, "rho_multiplier": 2.0, "pwg_rate": 0.0, "dcl_rate": 1.0, "trials": 2},
    ]
    svg = render_recovery_svg(rows)
    assert "<polyline" not in svg
    assert svg.count("<circle") == 2


def test_svg_rejects_empty():
    with pytest.raises(ValueError):
        render_recovery_svg([])
