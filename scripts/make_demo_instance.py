#!/usr/bin/env python3
"""Write small demo instance files for the `sparsecert check` / `oracle`
commands.

Usage:
    python scripts/make_demo_instance.py [--out demo/]
"""

import argparse
from pathlib import Path

import numpy as np

from sparsecert import ProblemInstance
from sparsecert.ensemble import EnsembleConfig, generate_instance
from sparsecert.fileio import save_instance


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out", type=Path, default=Path("demo"))
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args()
    args.out.mkdir(parents=True, exist_ok=True)

    # tiny hand-checkable instance: scores (0.5, 0), certified at support {0}
    identity = ProblemInstance(X=np.eye(2), y=[1.0, 0.0], rho=1.0, k=1)
    save_instance(args.out / "identity2.json", identity, support=(0,))

    # a Gaussian-ensemble draw at comfortable sample size
    cfg = EnsembleConfig(
        p_list=[16], trials=1, alpha_grid=[6.0], rho_multipliers=[2.0],
        gamma=0.5, master_seed=args.seed,
    )
    inst, _, support = generate_instance(cfg, 16, 6.0, 2.0, 0)
    save_instance(args.out / "gaussian16.json", inst, support=support)

    # rho = 1e-30 makes the on-support scores rho b*_S of (0, 1) about 1e-31,
    # and the dual bracket is empty: check prints
    # `dcl: not-certified (interval-empty)` and exits 2; the brute-force
    # argmin is (3, 4)
    rng = np.random.default_rng(0)
    tiny = ProblemInstance(X=rng.standard_normal((12, 8)), y=rng.standard_normal(12), rho=1e-30, k=2)
    save_instance(args.out / "tiny_rho.json", tiny, support=(0, 1))
    names = ", ".join(str(args.out / name) for name in ("identity2.json", "gaussian16.json", "tiny_rho.json"))
    print(f"wrote {names}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
