import json

import numpy as np
import pytest

from sparsecert import EnsembleConfig, run_sweep
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


def small_sweep():
    cfg = EnsembleConfig(
        p_list=[9], trials=2, alpha_grid=[1.0, 2.0], rho_multipliers=[2.0],
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
    cfg, records = small_sweep()
    curves = aggregate_curves(cfg, records)
    path = tmp_path / "agg.csv"
    write_agg_csv(path, curves)
    text = path.read_text(encoding="utf-8")
    assert text.startswith(AGG_HEADER + "\n")
    rows = read_agg_csv(path)
    assert len(rows) == 2
    assert rows[0]["p"] == 9 and rows[0]["alpha"] == 1.0 and rows[0]["trials"] == 2


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
