"""Exactness certificates for the two convex relaxations.

Given a candidate support S, two tests decide whether the relaxations solve
the cardinality-constrained ridge problem at S:

* threshold test (check_pwg): the boolean relaxation is exact iff the
  correlation scores separate, min_{j in S} |c_j| > max_{j not in S} |c_j|.

* dual-certificate search (check_dcl): the lifted relaxation is exact iff
  some threshold lam > 0 makes the scaled slack matrix

      diag(d(lam)) - X^T X / rho - I_p,
      d_i(lam) = lam / c_i^2 (i in S),  d_i(lam) = c_i^2 / lam (i not in S),

  negative semidefinite. Its top eigenvalue, the margin, is convex in lam.
  A certificate (S, lam) needs an NSD slack matrix at the canonical duals,
  decided on a t x t Schur complement with no p x p matrix (`_schur_query`),
  and a lifted duality gap, which no lam enters, closed to COND_TOL.

Both tests first pass one gate (`_abstention`): no zero squared score in
the support and a closed gap. Past it, a threshold certificate is a dual
one by construction: rounding is monotone, so at lam0 = min_{i in S} c_i^2
separating scores give float duals lam0/c_i^2 <= 1 and c_j^2/lam0 <= 1, and
the slack matrix is NSD with no query. Otherwise the search bisects an
analytic bracket in log space: `_probe` at each midpoint, intersect with
the `Cut`, one stopping test.

`SupportContext` owns every support-level decision for one (instance,
support) pair. Both tests take either a support, for which they build one,
or a context built for the same instance, whose scores, gap and witness
they reuse: a sweep trial and `sparsecert check` build one context and run
both tests on it. `verify_dcl_certificate` builds its own from the
certificate's support, so re-verification shares no state with the search.

A test that fails says why: `separation-failed` (threshold test only), the
gate's `zero-score-in-support` and `numerically-unresolved`, and the
search's `interval-empty` (no threshold can certify, by the analytic
bracket or a Rayleigh cut) and `bisection-exhausted` (the bracket shrank
below tolerance with no proof either way). verify_kkt, the full KKT
system, is the dense reference.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple, Optional, Sequence

import numpy as np

from . import _lapack
from .linalg import (
    cholesky,
    correlation_scores,
    kernel_chunks,
    kernel_factor,
    max_eig_sym,
    ridge_fit,
)
from .problem import ProblemInstance, normalize_support

# NotCertified reasons
REASON_SEPARATION = "separation-failed"
REASON_ZERO_SCORE = "zero-score-in-support"
REASON_EXHAUSTED = "bisection-exhausted"
REASON_EMPTY_INTERVAL = "interval-empty"
REASON_UNRESOLVED = "numerically-unresolved"

BISECTION_TOL = 1e-10  # relative bracket width at which the search gives up
BISECTION_MAX_ITER = 200  # guard: while ell = 0 each midpoint only halves up

COND_TOL = 1e-8  # largest relative duality gap a certificate may leave
SCHUR_SPLIT = 0.5  # columns with 1 - d_i <= SCHUR_SPLIT form the Schur block


@dataclass
class PwgCertificate:
    """Witness for the threshold test: any threshold in [max_out, min_in)
    separates on-support from off-support scores."""

    support: tuple[int, ...]
    min_in: float   # min_{j in S} |c_j|
    max_out: float  # max_{j not in S} |c_j|, 0 when the complement is empty


@dataclass
class DclCertificate:
    """Witness for the dual-certificate test: a support and the dual
    threshold `lam`. A valid one makes diag(d) - X^T X/rho - I_p negative
    semidefinite at the canonical duals d = `SupportContext.duals(lam)`, on
    a support whose fit closes the lifted duality gap (up to roundoff), which
    `verify_dcl_certificate` checks. `lam` is a positive finite real and
    every squared score on the support is nonzero, as the canonical duals
    need.
    """

    support: tuple[int, ...]
    lam: float


@dataclass
class CertOutcome:
    """Exact when it carries a certificate; otherwise `reason` says why not."""

    certificate: Optional[PwgCertificate | DclCertificate] = None
    reason: str = ""

    @property
    def exact(self) -> bool:
        return self.certificate is not None


@dataclass
class KktReport:
    """Residuals of the lifted program's stationarity/complementarity system
    for a given dual pair (d, lam) in the unscaled variables."""

    t: np.ndarray             # stationarity vector (X^T X + rho I - D(d)) b* - X^T y
    tau: float                # b*^T (X^T X + rho I - D(d)) b*
    psd_residual_big: float   # max(0, -lambda_min) of the (p+1)x(p+1) dual block
    psd_residual_small: float # worst 2x2 block [[lam, t_i], [t_i, d_i]] violation
    comp_residual: float      # worst complementarity violation


class CertificateConsistencyError(RuntimeError):
    """A dual certificate failed re-verification (`verify_dcl_certificate`)."""


def _checked_support(inst: ProblemInstance, support: Sequence[int]) -> tuple[int, ...]:
    """The normalized support, of exactly k columns: a smaller one leaves a
    lifted duality gap lam_raw*(k - |S|)/2 past the fit's `SupportContext.gap`."""
    sup = normalize_support(support, inst.p)
    if not sup:
        raise ValueError("certificate checks need a nonempty support")
    if len(sup) != inst.k:
        raise ValueError(f"support size {len(sup)} differs from the cardinality budget k={inst.k}")
    return sup


class SupportContext:
    """What the certificate tests read for one (instance, support) pair: the
    restricted fit `fit` and its duality `gap`, the scores X^T r of its
    residual (rho b*_S on the support) and their absolute values
    `abs_scores`, the support masks, threshold witness, canonical duals at a
    threshold, Rayleigh bound along a vector and analytic bracket. No member
    forms a p x p array.

    The support is validated on construction (exactly k distinct columns in
    [0, p)), and scores whose squares would overflow are a ValueError there.
    `threshold_witness` is computed on first use and kept. `duals` raises
    ValueError on a threshold that is not a positive finite real, and
    `duals`, `rayleigh` and `bracket` raise it when a support column has a
    zero squared score, for which the canonical duals are undefined; a
    caller can test `zero_score_in_support` first.
    """

    def __init__(self, inst: ProblemInstance, support: Sequence[int]):
        self.inst = inst
        self.support = _checked_support(inst, support)
        self.fit = ridge_fit(inst.X[:, self.support], inst.y, inst.rho)
        self.in_mask = np.zeros(inst.p, dtype=bool)
        self.in_mask[list(self.support)] = True
        self.out_mask = ~self.in_mask
        self.scores = correlation_scores(inst, self.fit)
        # X_S^T r = rho b*_S: by identity, not by cancellation in X_S^T r
        self.scores[self.in_mask] = inst.rho * self.fit.coef
        self.abs_scores = np.abs(self.scores)
        # tested before squaring, which would overflow to inf with a warning
        if not float(self.abs_scores.max()) < math.sqrt(np.finfo(float).max):
            raise ValueError("the correlation scores are too large to square")
        sq = self.scores**2
        self.sq_in = sq[self.in_mask]
        self.sq_out = sq[self.out_mask]
        self.zero_score_in_support = bool((self.sq_in == 0.0).any())

    @cached_property
    def gap(self) -> float:
        """The lifted duality gap (P - D)/P (P - D when P = 0) of the fit b, value
        P and residual r, D = y^T y/2 - (||y - r||^2 + rho ||b||^2)/2: at c_S =
        rho b the canonical duals' lam terms cancel, so P - D = b^T (rho b -
        X_S^T r), the fit's stationarity, at every threshold."""
        inst, fit = self.inst, self.fit
        # sqrt(rho) b: ||b||^2 can overflow where rho ||b||^2 <= ||y||^2 cannot
        root, Xb = math.sqrt(inst.rho) * fit.coef, inst.y - fit.resid
        dual = 0.5 * float(inst.y @ inst.y) - 0.5 * (float(Xb @ Xb) + float(root @ root))
        # relative to P, so that scaling y changes no verdict
        return (fit.value - dual) / fit.value if fit.value > 0.0 else fit.value - dual

    @cached_property
    def threshold_witness(self) -> Optional[PwgCertificate]:
        """The threshold certificate at this support, or None when the scores
        do not separate. Ties fail (strictness required)."""
        min_in = float(self.abs_scores[self.in_mask].min())
        max_out = float(self.abs_scores[self.out_mask].max(initial=0.0))
        return PwgCertificate(self.support, min_in, max_out) if max_out < min_in else None

    def duals(self, lam: float) -> np.ndarray:
        """Canonical duals lam/c_i^2 on the support and c_i^2/lam off it: the
        pointwise-smallest duals satisfying the certificate's side
        conditions, so the slack matrix at them decides whether `lam`
        certifies."""
        lam = float(lam)
        if self.zero_score_in_support:
            raise ValueError("support contains a zero correlation score")
        if not (math.isfinite(lam) and lam > 0.0):
            raise ValueError(f"thresholds must be positive reals, got {lam}")
        d = np.empty(self.inst.p)
        d[self.in_mask] = lam / self.sq_in
        d[self.out_mask] = self.sq_out / lam
        return d

    def rayleigh(self, v: np.ndarray) -> tuple[float, float, float]:
        """Coefficients of the Rayleigh value of the slack matrix along v,

            g_v(lam) = v^T S(lam) v = a*lam + b/lam - c,
            a = sum_{i in S} v_i^2/c_i^2,  b = sum_{i not in S} c_i^2 v_i^2,
            c = ||X v||^2/rho + ||v||^2,

        a lower bound on the margin times ||v||^2 at every threshold, for
        any v. Costs O(np); X^T X is not formed. A coefficient that
        overflows is inf, which `root_interval` reads as no cut."""
        if self.zero_score_in_support:
            raise ValueError("support contains a zero correlation score")
        v = np.asarray(v, dtype=float).reshape(-1)
        if v.shape != (self.inst.p,):
            raise ValueError(f"vector has length {v.shape[0]}, expected p={self.inst.p}")
        v2 = v**2
        with np.errstate(over="ignore"):
            a = float(np.sum(v2[self.in_mask] / self.sq_in))
            b = float(np.sum(v2[self.out_mask] * self.sq_out))
        Xv = self.inst.X @ v
        return a, b, float(Xv @ Xv) / self.inst.rho + float(v2.sum())

    def bracket(self) -> tuple[float, float]:
        """Bracket [ell, up] that must contain any threshold with negative
        margin, read off the slack matrix's diagonal:

            ell = max_{i not in S} c_i^2 / (||X_i||^2/rho + 1),
            up  = min_{i in S}  c_i^2 * (||X_i||^2/rho + 1).

        Returned as-is even when ell >= up (caller reports the empty interval);
        ValueError when a weight or `up` would overflow.
        """
        if self.zero_score_in_support:
            raise ValueError("support contains a zero correlation score")
        X, rho = self.inst.X, self.inst.rho
        log_big = math.log(np.finfo(float).max)
        norms = np.einsum("ij,ij->j", X, X)
        # tested before forming: a Python float quotient overflows to inf silently
        if not math.log(float(norms.max()) / rho + 1.0) < log_big:
            raise ValueError("the dual bracket is not representable: ||X_i||^2/rho overflows")
        weight = norms / rho + 1.0
        w_in = weight[self.in_mask]
        # a product past the largest float cannot be the minimum unless all are
        fits = np.log(self.sq_in) + np.log(w_in) < log_big
        if not fits.any():
            raise ValueError("the dual bracket is not representable: its upper end overflows")
        up = float((self.sq_in[fits] * w_in[fits]).min())
        ell = float((self.sq_out / weight[self.out_mask]).max(initial=0.0))
        return ell, up


def root_interval(a: float, b: float, c: float) -> tuple[float, float]:
    """The interval {lam > 0 : a*lam + b/lam - c <= 0} for a, b >= 0, as
    (lo, hi): the roots b/q and q/a of a*lam^2 - c*lam + b, with
    q = (c + sqrt(c^2 - 4ab))/2 free of cancellation. a = 0 leaves it
    unbounded above and b = 0 starts it at 0. A negative discriminant or
    c <= 0 makes it empty, returned as (inf, 0); coefficients that overflowed
    bound nothing, returned as (0, inf)."""
    if not math.isfinite(a + b + c):
        return 0.0, math.inf
    root_ab = 2.0 * math.sqrt(a) * math.sqrt(b)
    if c <= 0.0 or root_ab > c:
        return math.inf, 0.0
    q = 0.5 * (c + math.sqrt(c - root_ab) * math.sqrt(c + root_ab))
    return b / q, (q / a if a > 0.0 else math.inf)


def _schur_query(ctx: SupportContext, duals: np.ndarray) -> Optional[np.ndarray]:
    """None when the slack matrix S at `duals` is NSD, else a vector v with
    v^T S v > 0; neither S nor X^T X is formed.

    With W = I - D(duals), S is NSD exactly when M = X^T X/rho + W is PSD.
    M_cc > I/2 is positive definite on the columns c with w_i > SCHUR_SPLIT,
    so M is PSD exactly when the Schur complement on the other t columns T,
    Sch = W_T + X_T^T (rho I_n + X_c W_c^{-1} X_c^T)^{-1} X_T, is. With
    G = X_c W_c^{-1/2} the inner inverse comes from `kernel_factor(X, rho,
    X_T, c, sqrt(w_c))`, directly on its n x n side or by Woodbury on its
    |c| x |c| side, with G^T X_T for the latter; the lift below runs over
    the same `kernel_chunks`, so G is never formed. All w_i >= 0 (W and so
    M PSD: a witness transfer, whose duals are at most 1), a Cholesky factor
    of Sch, or a nonpositive top eigenvalue of -Sch (`max_eig_sym`)
    certifies; else its eigenvector u lifts to v = (u, -M_cc^{-1} M_cT u),
    with v^T S v = -u^T Sch u > 0. A failed inner factorization or a
    non-finite entry raises ValueError.
    """
    X, rho = ctx.inst.X, ctx.inst.rho
    if duals.max() <= 1.0:  # every w_i >= 0
        return None
    w = 1.0 - duals
    in_block = w <= SCHUR_SPLIT
    block, rest = np.flatnonzero(in_block), np.flatnonzero(~in_block)
    XT = X.take(block, axis=1)
    root_wc = np.sqrt(w[rest])
    L, woodbury, GtXT = kernel_factor(X, rho, XT, rest, root_wc)  # G^T X_T, or X_T on the n side
    F = _lapack.trtrs(L, GtXT)
    sch = (XT.T @ XT - F.T @ F) / rho if woodbury else F.T @ F
    sch.flat[:: sch.shape[0] + 1] += w[block]
    if cholesky(sch.copy()) is not None:  # factored in place; the eigensolve needs sch
        return None
    top, u = max_eig_sym(-sch)
    if top <= 0.0:
        return None
    lift = _lapack.trtrs(L, F @ u, trans=True)
    v = np.empty(ctx.inst.p)
    v[block] = u
    if not woodbury:  # G^T lift, one column chunk at a time
        lift = np.concatenate([G.T @ lift for _, G in kernel_chunks(X, rest, root_wc, False)])
    v[rest] = -lift / root_wc
    return v


class Cut(NamedTuple):
    """What refuting `lam` proves: its vector v has g_v(lam) > 0, and the Rayleigh
    bound g_v (`SupportContext.rayleigh`, from v alone, so sound for any v) is at
    most the margin, so every certifying threshold lies in [lo, hi], where g_v <= 0
    (`root_interval`) on the side of lam where g_v decreases. lo >= hi leaves none."""

    lam: float
    v: np.ndarray
    lo: float
    hi: float


def _probe(ctx: SupportContext, lam: float) -> Optional[Cut]:
    """None when `lam` certifies (`_schur_query` at its duals), else its `Cut`,
    whose downhill side keeps the search moving when roundoff blurs the roots."""
    v = _schur_query(ctx, ctx.duals(lam))
    if v is None:
        return None
    a, b, c = ctx.rayleigh(v)
    lo, hi = root_interval(a, b, c)
    if a * lam > b / lam:
        hi = min(hi, lam)
    else:
        lo = max(lo, lam)
    return Cut(lam, v, lo, hi)


def _abstention(ctx: SupportContext) -> Optional[str]:
    """The gate both tests pass before they certify: `zero-score-in-support`
    for a zero squared score in the support, all-zero scores included, then
    `numerically-unresolved` for a fit whose `ctx.gap` does not close."""
    if ctx.zero_score_in_support:
        return REASON_ZERO_SCORE
    return None if abs(ctx.gap) <= COND_TOL else REASON_UNRESOLVED


def _context(inst: ProblemInstance, support: Sequence[int] | SupportContext) -> SupportContext:
    """`support` itself when it is a context built for `inst` (the same
    object), else a new context; a context built for another instance is a
    ValueError."""
    if not isinstance(support, SupportContext):
        return SupportContext(inst, support)
    if support.inst is not inst:
        raise ValueError("the support context was built for another instance")
    return support


def check_pwg(inst: ProblemInstance, support: Sequence[int] | SupportContext) -> CertOutcome:
    """Threshold test: exact iff off-support scores sit strictly below every
    on-support score in absolute value. Ties fail (strictness required);
    separating scores then report the reason of the gate it shares with
    check_dcl (`_abstention`), so every threshold certificate is a dual one.
    `support` may be a SupportContext built for `inst`, which is reused."""
    ctx = _context(inst, support)
    cert = ctx.threshold_witness
    reason = REASON_SEPARATION if cert is None else _abstention(ctx)
    return CertOutcome(reason=reason) if reason else CertOutcome(cert)


def check_dcl(inst: ProblemInstance, support: Sequence[int] | SupportContext) -> CertOutcome:
    """Dual-certificate search.

    Before anything else it returns the reason of the gate it shares with
    check_pwg (`_abstention`). When the scores separate, the witness transfer
    returns lam0 = min_{i in S} c_i^2, NSD by construction, with no query.
    Otherwise it bisects the analytic bracket [ell, up]: `_probe` at each
    midpoint (geometric, as the duals scale as lam and 1/lam; arithmetic while
    ell = 0), intersect with the `Cut`, one stopping test: `interval-empty` for an
    empty bracket or, before any cut, one narrower than BISECTION_TOL*up, and
    `bisection-exhausted` when a cut leaves it that narrow or after
    BISECTION_MAX_ITER probes. `support` may be a SupportContext built for `inst`."""
    ctx = _context(inst, support)
    reason = _abstention(ctx)
    if reason:
        return CertOutcome(reason=reason)
    if ctx.threshold_witness is not None:
        # rounding is monotone: lam0/c_i^2 <= 1 on S and c_j^2/lam0 <= 1 off it
        return CertOutcome(DclCertificate(ctx.support, float(ctx.sq_in.min())))

    ell, up = ctx.bracket()
    for step in range(BISECTION_MAX_ITER + 1):
        # a bracket narrower than the stopping width has no searchable interior
        narrow = up - ell <= BISECTION_TOL * up
        if ell >= up or narrow and step == 0:
            return CertOutcome(reason=REASON_EMPTY_INTERVAL)
        if narrow or step == BISECTION_MAX_ITER:
            return CertOutcome(reason=REASON_EXHAUSTED)
        lam_hat = math.sqrt(ell) * math.sqrt(up) if ell > 0.0 else 0.5 * (ell + up)
        cut = _probe(ctx, lam_hat)
        if cut is None:
            return CertOutcome(DclCertificate(ctx.support, lam_hat))
        ell, up = max(ell, cut.lo), min(up, cut.hi)


def verify_dcl_certificate(inst: ProblemInstance, cert: DclCertificate) -> float:
    """Re-check a dual certificate from scratch on a new context for its
    support: the canonical duals must exist (`duals`), the slack matrix at
    them must be NSD (`_schur_query`, the search's own query) and the fit's
    relative duality gap, which no lam enters, must close to COND_TOL.
    Returns that gap; raises CertificateConsistencyError on the first
    condition that fails."""
    ctx = SupportContext(inst, cert.support)
    try:
        d = ctx.duals(cert.lam)
    except ValueError as exc:
        raise CertificateConsistencyError(str(exc)) from None
    if _schur_query(ctx, d) is not None:
        raise CertificateConsistencyError("slack matrix not NSD: its top eigenvalue is positive")
    if not abs(ctx.gap) <= COND_TOL:
        raise CertificateConsistencyError(f"duality gap {ctx.gap:g} at the restricted fit")
    return ctx.gap


def pwg_witness_to_dcl(
    inst: ProblemInstance, support: Sequence[int], pwg: PwgCertificate
) -> DclCertificate:
    """The witness transfer, lam = min_{j in S} c_j^2, taken from `check_dcl`
    on one context and re-verified before it is returned. Raises ValueError
    when the certificate's support does not match, or when its scores do
    not separate on this instance or fail the gate both tests share."""
    ctx = SupportContext(inst, support)
    if ctx.support != tuple(pwg.support):
        raise ValueError("certificate support does not match")
    if ctx.threshold_witness is None:
        raise ValueError("the correlation scores do not separate at this support")
    dcl = check_dcl(inst, ctx)
    if not dcl.exact:
        raise ValueError(f"the threshold test does not certify this support ({dcl.reason})")
    verify_dcl_certificate(inst, dcl.certificate)
    return dcl.certificate


def kkt_variables(inst: ProblemInstance, cert: DclCertificate) -> tuple[np.ndarray, float]:
    """The raw dual variables of the lifted program's KKT system at a
    certificate: d_raw = rho * d, with d the canonical duals at its (support,
    lam), and lam_raw = lam / rho. The conversion is validated by the
    residuals of verify_kkt, which are the ground truth."""
    d = SupportContext(inst, cert.support).duals(cert.lam)
    return inst.rho * d, float(cert.lam) / inst.rho


def verify_kkt(
    inst: ProblemInstance,
    support: Sequence[int],
    d: np.ndarray,
    lam: float,
) -> KktReport:
    """Residuals of the lifted program's first-order system at dual (d, lam).

    The stationarity vector and scalar are eliminated in closed form,

        t   = (X^T X + rho I - D(d)) b* - X^T y,
        tau = b*^T (X^T X + rho I - D(d)) b*,

    after which validity reduces to: the (p+1)x(p+1) block
    [[tau, -y^T X - t^T], [-X^T y - t, X^T X + rho I - D(d)]] is PSD, every
    2x2 block [[lam, t_i], [t_i, d_i]] is PSD, and the two complementarity
    pairings vanish. A true certificate drives every residual below 1e-6.
    """
    sup = _checked_support(inst, support)
    d = np.asarray(d, dtype=float).reshape(-1)
    if d.shape != (inst.p,):
        raise ValueError(f"dual vector has length {d.shape[0]}, expected p={inst.p}")
    lam = float(lam)
    beta = np.zeros(inst.p)
    beta[list(sup)] = ridge_fit(inst.X[:, sup], inst.y, inst.rho).coef
    gram = inst.X.T @ inst.X
    gram = 0.5 * (gram + gram.T)
    Q = gram + inst.rho * np.eye(inst.p) - np.diag(d)
    xty = inst.X.T @ inst.y
    t = Q @ beta - xty
    tau = float(beta @ (Q @ beta))

    big = np.empty((inst.p + 1, inst.p + 1))
    big[0, 0] = tau
    big[0, 1:] = -xty - t
    big[1:, 0] = -xty - t
    big[1:, 1:] = Q
    psd_big = max(0.0, -float(np.linalg.eigvalsh(big)[0]))

    # lambda_min of [[lam, t_i], [t_i, d_i]] in closed form
    half_tr = 0.5 * (lam + d)
    radius = np.hypot(0.5 * (lam - d), t)
    psd_small = float(np.maximum(0.0, radius - half_tr).max())

    comp_big = abs(tau + 2.0 * float((-xty - t) @ beta) + float(beta @ (Q @ beta)))
    in_idx = list(sup)
    comp_pairs = np.abs(lam + 2.0 * t[in_idx] * beta[in_idx] + d[in_idx] * beta[in_idx] ** 2)
    comp = max(comp_big, float(comp_pairs.max()))
    return KktReport(
        t=t,
        tau=tau,
        psd_residual_big=psd_big,
        psd_residual_small=psd_small,
        comp_residual=comp,
    )
