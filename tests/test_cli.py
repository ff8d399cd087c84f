import json

import numpy as np
import pytest

from sparsecert import ProblemInstance
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
    assert "kkt residuals" in out


def test_check_uses_file_support(identity_instance, capsys):
    assert main(["check", str(identity_instance)]) == 0
    assert "support: [0]" in capsys.readouterr().out


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
    # the support scores are at roundoff level here, so only the clean exit
    # with a verdict is pinned, not the verdict itself
    assert code in (0, 2)
    assert "dcl: " in out


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


def test_oracle_reports_values(identity_instance, capsys):
    code = main(["oracle", str(identity_instance)])
    out = capsys.readouterr().out
    assert code == 0
    assert "best subset value: 0.25" in out
    assert "{0}" in out
    assert "relaxation value: 0.24" in out or "relaxation value: 0.25" in out


def test_oracle_budget_exceeded(identity_instance, capsys):
    code = main(["oracle", str(identity_instance), "--max-combinations", "1"])
    assert code == 1
    assert "budget" in capsys.readouterr().err


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


def test_sweep_env_seed_override(tmp_path, monkeypatch):
    cfg = sweep_config(tmp_path)
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    assert main(["sweep", str(cfg), str(a), "--workers", "1"]) == 0
    monkeypatch.setenv("SPARSECERT_SEED", "777")
    assert main(["sweep", str(cfg), str(b), "--workers", "1"]) == 0
    assert a.read_bytes() != b.read_bytes()


def test_sweep_bad_config_exits_1(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"p_list": [9]}), encoding="utf-8")
    assert main(["sweep", str(bad), str(tmp_path / "x.csv")]) == 1
    assert "trials" in capsys.readouterr().err


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


def test_selftest(capsys):
    assert main(["selftest"]) == 0
    out = capsys.readouterr().out
    assert "seed_derive(0,0,0,0,0) = 0x2130748aaac80268" in out
    assert "selftest ok" in out
