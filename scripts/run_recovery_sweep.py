#!/usr/bin/env python3
"""Full recovery-rate experiment: p=64, alpha 1..10 step 0.5, all six rho
multipliers, one SVG per multiplier plus a combined chart.

Usage:
    python scripts/run_recovery_sweep.py [--trials 200] [--out results/]
With the default 200 trials this takes a few minutes on a laptop.
"""

import argparse
from pathlib import Path

from sparsecert import EnsembleConfig
from sparsecert.ensemble import aggregate_curves, run_sweep
from sparsecert.fileio import write_agg_csv, write_sweep_csv
from sparsecert.svgplot import render_recovery_svg


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--trials", type=int, default=200)
    parser.add_argument("--p", type=int, nargs="+", default=[64])
    parser.add_argument("--gamma", type=float, default=0.5)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--workers", type=int, default=None)
    parser.add_argument("--out", type=Path, default=Path("results"))
    args = parser.parse_args()

    cfg = EnsembleConfig(
        p_list=args.p,
        trials=args.trials,
        gamma=args.gamma,
        master_seed=args.seed,
    )
    args.out.mkdir(parents=True, exist_ok=True)
    print(
        f"sweep: p={cfg.p_list}, {len(cfg.alpha_grid)} alphas x "
        f"{len(cfg.rho_multipliers)} rho multipliers x {cfg.trials} trials, "
        f"gamma={cfg.gamma}"
    )
    records = run_sweep(cfg, workers=args.workers)
    sweep_csv = args.out / "sweep.csv"
    write_sweep_csv(sweep_csv, records)
    rows = aggregate_curves(cfg, records)
    agg_csv = args.out / "sweep.agg.csv"
    write_agg_csv(agg_csv, rows)

    for mult in cfg.rho_multipliers:
        subset = [r for r in rows if r["rho_multiplier"] == mult]
        svg_path = args.out / f"recovery_rho{mult:g}.svg"
        svg_path.write_text(render_recovery_svg(subset), encoding="utf-8")
        print(f"wrote {svg_path}")
    combined = args.out / "recovery_all.svg"
    combined.write_text(render_recovery_svg(rows), encoding="utf-8")
    print(f"wrote {sweep_csv}, {agg_csv}, {combined}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
