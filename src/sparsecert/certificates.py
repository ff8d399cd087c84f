"""Exactness certificates for the two convex relaxations.

Given a candidate support S, two tests decide whether the relaxations solve
the cardinality-constrained ridge problem at S:

* threshold test (check_pwg): the boolean relaxation is exact iff the
  correlation scores separate, min_{j in S} |c_j| > max_{j not in S} |c_j|.

* dual-certificate search (check_dcl): the lifted relaxation is exact iff
  some threshold lam > 0 makes the scaled slack matrix

      diag(d(lam)) - X^T X / rho - I_p,
      d_i(lam) = lam / c_i^2 (i in S),  d_i(lam) = c_i^2 / lam (i not in S),

  negative semidefinite. Its top eigenvalue, the margin, is a convex function
  of lam. A certificate is (S, lam), and one rule, `_accepts`, decides it
  for the search and the verifier alike: the slack matrix at the canonical
  duals must be NSD, decided on a t x t Schur complement of
  X^T X/rho + I - D(lam) with no p x p matrix (`_schur_query`), and the
  lifted duality gap, which no lam enters, must close to COND_TOL. When the
  scores separate, check_dcl asks at lam0 = min_{i in S} c_i^2, where every
  canonical dual is at most 1, so the slack matrix is NSD by construction
  and the query factors nothing: a threshold certificate yields a dual one.
  Otherwise a safeguarded bisection searches an analytic bracket in log
  space. A query that does not certify returns a vector v with
  g_v(lam) = v^T S(lam) v = a*lam + b/lam - c > 0. g_v bounds the margin
  below for any v, so every certifying threshold lies between its roots,
  and this Rayleigh cut shrinks the bracket to them or proves it empty.

`SupportContext` owns every support-level decision for one (instance,
support) pair: it validates the support and holds the restricted fit b*_S
and its gap, the scores (rho b*_S on the support, X^T r of its residual off
it), masks, threshold witness, duals, Rayleigh coefficients and bracket.
Both tests take either a support, for which they build one, or a context
built for the same instance, whose scores, gap and witness they reuse: a
sweep trial and `sparsecert check` build one context and run both tests on
it. `verify_dcl_certificate` builds its own from the certificate's support,
so re-verification shares no state with the search.

A dual-certificate search that fails says why: `interval-empty` means no
threshold can certify, proved either by the analytic bracket or by a
Rayleigh cut; `bisection-exhausted` means the bracket shrank below the
tolerance without a proof either way; `numerically-unresolved` means the
fit's gap does not close, so no threshold can certify. verify_kkt, the full
KKT system, is the dense reference.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Optional, Sequence

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
BISECTION_MAX_ITER = 200  # guard only: halving reaches BISECTION_TOL first

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
    """A constructed certificate failed its own validity conditions."""


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


def _accepts(ctx: SupportContext, lam: float) -> tuple[bool, np.ndarray | float]:
    """The one rule, for search and verifier alike: (ctx.support, lam)
    certifies when the slack matrix S at the canonical duals d = ctx.duals(lam)
    is NSD (`_schur_query`) and the fit's gap `ctx.gap` closes. Returns
    (True, gap), (False, v) with v^T S v > 0, or (False, gap) for a gap that
    does not close; duals that do not exist raise CertificateConsistencyError."""
    try:
        d = ctx.duals(lam)
    except ValueError as exc:
        raise CertificateConsistencyError(str(exc)) from None
    v = _schur_query(ctx, d)
    if v is not None:
        return False, v
    return abs(ctx.gap) <= COND_TOL, ctx.gap


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
    on-support score in absolute value. Ties fail (strictness required).
    `support` may be a SupportContext built for `inst`, whose scores and
    witness are reused."""
    cert = _context(inst, support).threshold_witness
    return CertOutcome(cert) if cert is not None else CertOutcome(reason=REASON_SEPARATION)


def check_dcl(inst: ProblemInstance, support: Sequence[int] | SupportContext) -> CertOutcome:
    """Dual-certificate search; each threshold is decided by `_accepts`.

    Before any query, a zero squared score in the support, all-zero scores
    included, is `zero-score-in-support`, and a fit whose `ctx.gap` does not
    close is `numerically-unresolved`. When the scores separate, the witness
    transfer asks at lam0 = min_{i in S} c_i^2, where the slack matrix is NSD
    by construction. Otherwise a safeguarded bisection asks at the geometric
    midpoint lam_hat = sqrt(ell*up) of the analytic bracket [ell, up], since
    the duals scale as lam and 1/lam (the arithmetic one while ell = 0). A
    slack matrix that is not NSD gives a vector v with g_v(lam_hat) > 0,
    whose Rayleigh bound (`SupportContext.rayleigh`, recomputed from
    scratch, so the cut is sound for any v) shrinks the bracket to the root
    interval {g_v <= 0} (`root_interval`), which holds every certifying
    threshold, and to the side of lam_hat where the slope a - b/lam_hat^2
    points down. The search stops with `interval-empty` when that leaves
    nothing, as when the analytic bracket itself is empty, and with
    `bisection-exhausted` when the bracket is narrower than BISECTION_TOL*up
    or, as a guard, after BISECTION_MAX_ITER evaluations. `support` may be a
    SupportContext built for `inst`.
    """
    ctx = _context(inst, support)
    if ctx.zero_score_in_support:
        return CertOutcome(reason=REASON_ZERO_SCORE)
    if not abs(ctx.gap) <= COND_TOL:
        return CertOutcome(reason=REASON_UNRESOLVED)
    if ctx.threshold_witness is not None:
        lam = float(ctx.sq_in.min())
        if not _accepts(ctx, lam)[0]:  # every canonical dual at lam0 is at most 1
            raise CertificateConsistencyError("the witness transfer's slack matrix is not NSD")
        return CertOutcome(DclCertificate(ctx.support, lam))

    ell, up = ctx.bracket()
    # a bracket narrower than the stopping width has no searchable interior
    if ell >= up or up - ell <= BISECTION_TOL * up:
        return CertOutcome(reason=REASON_EMPTY_INTERVAL)

    for _ in range(BISECTION_MAX_ITER):
        # the duals scale as lam and 1/lam, so query the geometric midpoint
        lam_hat = math.sqrt(ell) * math.sqrt(up) if ell > 0.0 else 0.5 * (ell + up)
        accepted, why = _accepts(ctx, lam_hat)
        if accepted:
            return CertOutcome(DclCertificate(ctx.support, lam_hat))
        a, b, c = ctx.rayleigh(why)
        lo, hi = root_interval(a, b, c)
        # g_v is positive at lam_hat, and certifying thresholds lie on the
        # side where its slope a - b/lam_hat^2 points down; cutting there too
        # keeps the search moving when roundoff blurs the roots
        if a * lam_hat > b / lam_hat:
            hi = min(hi, lam_hat)
        else:
            lo = max(lo, lam_hat)
        ell, up = max(ell, lo), min(up, hi)
        if ell >= up:
            return CertOutcome(reason=REASON_EMPTY_INTERVAL)
        if up - ell <= BISECTION_TOL * up:
            return CertOutcome(reason=REASON_EXHAUSTED)
    return CertOutcome(reason=REASON_EXHAUSTED)


def verify_dcl_certificate(inst: ProblemInstance, cert: DclCertificate) -> float:
    """Re-check a dual certificate from scratch, independent of how it was
    found: on a new context for its support, by the search's own rule
    (`_accepts`). Returns the fit's relative duality gap, which no lam
    enters; raises CertificateConsistencyError, also when the canonical
    duals do not exist (`duals`)."""
    accepted, why = _accepts(SupportContext(inst, cert.support), cert.lam)
    if isinstance(why, np.ndarray):
        raise CertificateConsistencyError("slack matrix not NSD: its top eigenvalue is positive")
    if not accepted:
        raise CertificateConsistencyError(f"duality gap {why:g} at the restricted fit")
    return why


def pwg_witness_to_dcl(
    inst: ProblemInstance, support: Sequence[int], pwg: PwgCertificate
) -> DclCertificate:
    """The witness transfer of `check_dcl`: lam = min_{j in S} c_j^2, where
    every canonical dual lands in [0, 1], re-verified before it is returned.
    Raises ValueError when the certificate's support does not match or its
    scores do not separate on this instance."""
    ctx = SupportContext(inst, support)
    if ctx.support != tuple(pwg.support):
        raise ValueError("certificate support does not match")
    if ctx.threshold_witness is None:
        raise ValueError("the correlation scores do not separate at this support")
    cert = DclCertificate(ctx.support, float(ctx.sq_in.min()))
    verify_dcl_certificate(inst, cert)
    return cert


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
