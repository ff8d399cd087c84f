#!/usr/bin/env python3
"""Decision-identity gate for changes to the certificate tests.

For each master seed, decides both relaxations at the planted support of
every trial of the p in {16, 32, 64} grid: all 19 alphas x 6 rho multipliers
x 4 trials, 1368 trials per seed, in `run_sweep`'s order; both tests share
one SupportContext per trial, as `evaluate_trial` does. Every dual
certificate is re-verified, and the gap the verifier returns must equal the
search context's `gap` bit for bit: search and verifier decide on the same
number. Prints the `check_dcl` reason counts per p, the largest |relative
duality gap| over the verified certificates, the number of gap mismatches,
the number of dominance violations (trials where `check_pwg` is exact and
`check_dcl` is not), one sha256 over the stream of (pwg_exact,
dcl_exact) across all seeds and a `lam sha256` over each trial's
`check_dcl` reason and, when exact, its certificate's `lam.hex()`, which
pins every certificate's bits. Dominance holds by construction: both tests
pass one gate before they certify, and past it a threshold certificate's
witness transfer is NSD in floating point, so the count stays as a check
that this still holds, not as a trap for the search.

Usage:
    python scripts/decision_grid.py --seeds 100-105 [--expect SHA]

Exits 1 when a certificate fails to re-verify, when its verified gap
differs from the search's, on any dominance violation or when the digest
differs from --expect.
"""

import argparse
import hashlib
import sys
from collections import Counter

from sparsecert import EnsembleConfig, SupportContext, check_dcl, check_pwg, verify_dcl_certificate
from sparsecert.certificates import CertificateConsistencyError
from sparsecert.ensemble import generate_instance

P_LIST = [16, 32, 64]
TRIALS = 4


def seed_range(text: str) -> range:
    """'100-105' (inclusive) or a single seed '100'."""
    first, _, last = text.partition("-")
    return range(int(first), int(last or first) + 1)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--seeds", type=seed_range, required=True)
    parser.add_argument("--expect", default=None, help="sha256 the decisions must hash to")
    args = parser.parse_args(argv)

    digest, lam_digest = hashlib.sha256(), hashlib.sha256()
    reasons = {p: Counter() for p in P_LIST}
    unverified = violations = mismatched = 0
    max_gap = 0.0
    for seed in args.seeds:
        cfg = EnsembleConfig(p_list=P_LIST, trials=TRIALS, master_seed=seed)
        for p in cfg.p_list:
            for alpha in cfg.alpha_grid:
                for mult in cfg.rho_multipliers:
                    for trial in range(cfg.trials):
                        inst, _, support = generate_instance(cfg, p, alpha, mult, trial)
                        ctx = SupportContext(inst, support)
                        pwg = check_pwg(inst, ctx).exact
                        dcl = check_dcl(inst, ctx)
                        digest.update(b"%d%d" % (pwg, dcl.exact))
                        lam = dcl.certificate.lam.hex() if dcl.exact else ""
                        lam_digest.update((dcl.reason + lam).encode())
                        reasons[p]["exact" if dcl.exact else dcl.reason] += 1
                        if pwg and not dcl.exact:
                            violations += 1
                            print(f"seed {seed} p={p} alpha={alpha} rho x{mult} trial {trial}: "
                                  f"pwg exact, dcl {dcl.reason}")
                        if dcl.exact:
                            try:
                                gap = verify_dcl_certificate(inst, dcl.certificate)
                            except CertificateConsistencyError as err:
                                unverified += 1
                                print(f"seed {seed} p={p} alpha={alpha} rho x{mult} trial {trial}: {err}")
                                continue
                            max_gap = max(max_gap, abs(gap))
                            if gap != ctx.gap:
                                mismatched += 1
                                print(f"seed {seed} p={p} alpha={alpha} rho x{mult} trial {trial}: "
                                      f"verified gap {gap!r}, search gap {ctx.gap!r}")

    for p, counts in reasons.items():
        print(f"p={p}: " + ", ".join(f"{r} {c}" for r, c in sorted(counts.items())))
    sha = digest.hexdigest()
    trials = sum(sum(c.values()) for c in reasons.values())
    print(f"trials {trials}, unverified {unverified}, max |gap| {max_gap:.2e}")
    print(f"search/verifier gap mismatches {mismatched}")
    print(f"dominance violations {violations}")
    print(f"sha256 {sha}")
    print(f"lam sha256 {lam_digest.hexdigest()}")
    if unverified or mismatched or violations:
        return 1
    if args.expect is not None and args.expect != sha:
        print(f"error: expected sha256 {args.expect}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
