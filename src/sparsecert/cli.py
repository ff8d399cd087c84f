"""Command-line harness.

Subcommands:
  check    certificate checks for one instance file and candidate support
  oracle   brute-force optimum and continuous-relaxation value
  sweep    Gaussian-ensemble recovery sweep -> CSV (+ .agg.csv companion)
  plot     aggregate CSV -> SVG rate-vs-alpha chart

Exit codes: check returns 0 when check_dcl certifies and a from-scratch
`verify_dcl_certificate`, by the same rule, agrees (printing the relative
duality gap as gap), 2 when not (`numerically-unresolved` included), 1 on
input errors (a support `SupportContext` refuses); oracle returns 3 if the
relaxation value minus its Frank-Wolfe gap, a lower bound on the relaxation
optimum, exceeds the brute-force optimum by more than the oracle's tie
window, DEFAULT_REL_TOL * y^T y/2 (bug trap); everything else uses 0/1.
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path

from . import fileio
from .certificates import (
    CertificateConsistencyError,
    SupportContext,
    check_dcl,
    check_pwg,
    verify_dcl_certificate,
)
from .ensemble import aggregate_curves, run_sweep
from .oracles import brute_force_l0, pwg_value, tie_window
from .svgplot import render_recovery_svg


def _parse_support(text: str):
    try:
        return [int(part) for part in text.split(",") if part.strip() != ""]
    except ValueError as exc:
        raise ValueError(f"bad support list {text!r}: {exc}") from None


def cmd_check(args) -> int:
    inst, file_support = fileio.load_instance(args.instance)
    indices = _parse_support(args.support) if args.support is not None else file_support
    if indices is None:
        raise ValueError("no support given: pass --support or add one to the file")
    # one context validates the support and serves both tests
    ctx = SupportContext(inst, indices)
    print(f"instance: n={inst.n} p={inst.p} rho={fileio.fmt_real(inst.rho)} k={inst.k}")
    print(f"support: {list(ctx.support)}")
    print("correlation scores: [" + ", ".join(fileio.fmt_real(c) for c in ctx.scores) + "]")
    pwg = check_pwg(inst, ctx)
    if pwg.exact:
        cert = pwg.certificate
        print(
            f"pwg: exact  min_in={fileio.fmt_real(cert.min_in)} "
            f"max_out={fileio.fmt_real(cert.max_out)}"
        )
    else:
        print(f"pwg: not-certified ({pwg.reason})")
    dcl = check_dcl(inst, ctx)
    if not dcl.exact:
        print(f"dcl: not-certified ({dcl.reason})")
        return 2
    cert = dcl.certificate
    try:
        gap = verify_dcl_certificate(inst, cert)
    except CertificateConsistencyError as exc:
        print(f"dcl: not-verified ({exc})")
        return 2
    print(f"dcl: exact  lambda={fileio.fmt_real(cert.lam)} gap={gap:.3e}")
    return 0


def cmd_oracle(args) -> int:
    inst, _ = fileio.load_instance(args.instance)
    brute = brute_force_l0(inst)
    print(f"best subset value: {fileio.fmt_real(brute.value)}")
    print(
        "argmin supports: "
        + "; ".join("{" + ",".join(map(str, s)) + "}" for s in brute.argmin_supports)
    )
    relaxed = pwg_value(inst)
    print(
        f"relaxation value: {fileio.fmt_real(relaxed.value)} "
        f"(iterations={relaxed.iterations}, stationarity_gap={relaxed.fw_gap:.3e})"
    )
    # the Frank-Wolfe gap bounds g(z) - g*, so this inequality proves g* > brute
    if relaxed.value - relaxed.fw_gap > brute.value + tie_window(inst):
        print("ERROR: relaxation value exceeds the brute-force optimum", file=sys.stderr)
        return 3
    return 0


def cmd_sweep(args) -> int:
    cfg = fileio.load_ensemble_config(args.config)
    # refuse an unwritable output before the trials run, not after
    out_dir = Path(args.output).parent
    if not out_dir.is_dir() or not os.access(out_dir, os.W_OK):
        raise ValueError(f"cannot write {args.output}: {out_dir} is not a writable directory")
    records = run_sweep(cfg, workers=args.workers)
    fileio.write_sweep_csv(args.output, records)
    agg_path = str(args.output) + ".agg.csv"
    fileio.write_agg_csv(agg_path, aggregate_curves(cfg, records))
    print(f"wrote {len(records)} trials to {args.output} and rates to {agg_path}")
    return 0


def cmd_plot(args) -> int:
    svg = render_recovery_svg(fileio.read_agg_csv(args.agg_csv))
    Path(args.output).write_bytes(svg.encode("utf-8"))
    print(f"wrote {args.output}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sparsecert",
        description="Exactness certificates for sparse ridge regression relaxations",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_check = sub.add_parser("check", help="run both certificate checks on an instance")
    p_check.add_argument("instance", help="instance JSON file")
    p_check.add_argument("--support", help="comma-separated column indices", default=None)
    p_check.set_defaults(func=cmd_check)

    p_oracle = sub.add_parser("oracle", help="brute-force and relaxation oracles")
    p_oracle.add_argument("instance", help="instance JSON file")
    p_oracle.set_defaults(func=cmd_oracle)

    p_sweep = sub.add_parser("sweep", help="run a Gaussian-ensemble recovery sweep")
    p_sweep.add_argument("config", help="sweep config JSON file")
    p_sweep.add_argument("output", help="output CSV path")
    p_sweep.add_argument("--workers", type=int, default=None)
    p_sweep.set_defaults(func=cmd_sweep)

    p_plot = sub.add_parser("plot", help="render an aggregate CSV as an SVG chart")
    p_plot.add_argument("agg_csv", help="aggregate CSV path")
    p_plot.add_argument("output", help="output SVG path")
    p_plot.set_defaults(func=cmd_plot)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def entry() -> None:
    raise SystemExit(main())
