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
  of lam. When the scores separate, check_dcl certifies by the witness
  transfer with no eigenproblem: every canonical dual at
  lam0 = min_{i in S} c_i^2 is at most 1, so the slack matrix is NSD by
  construction, and a threshold certificate always yields a dual one.
  Otherwise a safeguarded bisection searches an analytic bracket in log
  space. Each query is certified by a Cholesky factorization of the negated
  slack matrix when it succeeds, or else by a nonpositive top eigenvalue.
  When neither does, the top eigenvector v gives a Rayleigh cut: for any v,
  g_v(lam) = v^T S(lam) v = a*lam + b/lam - c bounds the margin below, so
  every certifying threshold lies in the interval between the roots of g_v,
  and the cut shrinks the bracket to it or proves it empty. Certificates
  carry no eigenvalue; verify_dcl_certificate re-checks one densely and
  returns the top eigenvalue of its slack matrix.

`SupportContext` holds everything these tests compute for one (instance,
support) pair (scores, duals, slack matrix, margin, subgradient, Rayleigh
coefficients, bracket), and each certificate test builds exactly one.

A dual-certificate search that fails says why: `interval-empty` means no
threshold can certify, proved either by the analytic bracket or by a
Rayleigh cut; `bisection-exhausted` means the bracket shrank below the
tolerance without a proof either way.

Every dual certificate can be cross-checked against the KKT system of the
lifted program (verify_kkt).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Optional, Sequence

import numpy as np

from .linalg import correlation_scores, is_pos_def, max_eig_sym, ridge_restricted_solve
from .problem import ProblemInstance, normalize_support

# NotCertified reasons
REASON_SEPARATION = "separation-failed"
REASON_ZERO_SCORE = "zero-score-in-support"
REASON_EXHAUSTED = "bisection-exhausted"
REASON_EMPTY_INTERVAL = "interval-empty"

BISECTION_TOL = 1e-10  # relative bracket width at which the search gives up
BISECTION_MAX_ITER = 200  # guard only: halving reaches BISECTION_TOL first

COND_TOL = 1e-8  # slack allowed when re-verifying certificate conditions


@dataclass
class PwgCertificate:
    """Witness for the threshold test: any threshold in [max_out, min_in)
    separates on-support from off-support scores."""

    support: tuple[int, ...]
    min_in: float   # min_{j in S} |c_j|
    max_out: float  # max_{j not in S} |c_j|, 0 when the complement is empty


@dataclass
class DclCertificate:
    """Witness for the dual-certificate test.

    `lam` is the dual threshold and `duals` the nonnegative diagonal dual
    vector; a valid certificate makes diag(duals) - X^T X/rho - I_p negative
    semidefinite (up to roundoff), which `verify_dcl_certificate` checks. The
    degenerate case where every correlation score vanishes is certified by
    lam = 0, duals = 0.
    """

    support: tuple[int, ...]
    lam: float
    duals: np.ndarray  # (p,), >= 0


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
    """The normalized support, which must be nonempty and at most k long."""
    sup = normalize_support(support, inst.p)
    if not sup:
        raise ValueError("certificate checks need a nonempty support")
    if len(sup) > inst.k:
        raise ValueError(f"support size {len(sup)} exceeds cardinality budget k={inst.k}")
    return sup


class SupportContext:
    """Everything the certificate tests compute for one (instance, support)
    pair: the correlation scores, the canonical duals and slack matrix at any
    threshold, its top eigenvalue (the margin), a subgradient of the margin,
    the Rayleigh lower bound on it along any vector, and the analytic bracket
    of certifying thresholds.

    The support is validated on construction. Every method that takes a
    threshold raises ValueError on one that is not a positive finite real,
    and those methods, `rayleigh` and `bracket` raise it when a support
    column has a zero correlation score, for which the canonical duals are
    undefined; `zero_score_in_support` is computed once, so a caller can test
    it first.
    """

    def __init__(self, inst: ProblemInstance, support: Sequence[int]):
        self.inst = inst
        self.support = _checked_support(inst, support)
        self.scores = correlation_scores(inst, self.support)
        self.sq = self.scores**2
        self.in_mask = np.zeros(inst.p, dtype=bool)
        self.in_mask[list(self.support)] = True
        self.out_mask = ~self.in_mask
        self.sq_in = self.sq[self.in_mask]
        self.sq_out = self.sq[self.out_mask]
        self.zero_score_in_support = bool((self.sq_in == 0.0).any())

    @cached_property
    def base(self) -> np.ndarray:
        """Negated PSD part of the slack matrix, -X^T X/rho - I_p, formed on
        first use so that the threshold test never pays for it."""
        gram = self.inst.X.T @ self.inst.X
        # symmetrized against BLAS noise
        return -0.5 * (gram + gram.T) / self.inst.rho - np.eye(self.inst.p)

    def all_scores_zero(self) -> bool:
        return bool((self.sq == 0.0).all())

    def _thresholds(self, lam) -> np.ndarray:
        if self.zero_score_in_support:
            raise ValueError("support contains a zero correlation score")
        lam = np.asarray(lam, dtype=float)
        if not (np.isfinite(lam) & (lam > 0.0)).all():
            raise ValueError(f"thresholds must be positive reals, got {lam}")
        return lam

    def duals(self, lam) -> np.ndarray:
        """Canonical duals lam/c_i^2 on the support and c_i^2/lam off it: the
        pointwise-smallest duals satisfying the certificate's side
        conditions, so the slack matrix at them decides whether `lam`
        certifies. A scalar `lam` gives shape (p,), an array of m
        thresholds gives (m, p)."""
        lam = self._thresholds(lam)[..., None]
        d = np.empty(lam.shape[:-1] + (self.inst.p,))
        d[..., self.in_mask] = lam / self.sq_in
        d[..., self.out_mask] = self.sq_out / lam
        return d

    def slack_matrix(self, duals: np.ndarray) -> np.ndarray:
        """diag(duals) - X^T X/rho - I_p for one dual vector (p,) or a stack
        of them (m, p)."""
        duals = np.asarray(duals, dtype=float)
        A = np.broadcast_to(self.base, duals.shape[:-1] + self.base.shape).copy()
        diag = np.arange(self.inst.p)
        A[..., diag, diag] += duals
        return A

    def margin(self, lam: float) -> tuple[float, np.ndarray]:
        """Top eigenvalue and a unit eigenvector of the slack matrix at the
        canonical duals for `lam`. A nonpositive margin certifies exactness."""
        return max_eig_sym(self.slack_matrix(self.duals(float(lam))))

    def margins(self, lams: np.ndarray) -> np.ndarray:
        """Margins at an array of thresholds, one batched eigenvalue solve."""
        lams = np.asarray(lams, dtype=float).reshape(-1)
        return np.linalg.eigvalsh(self.slack_matrix(self.duals(lams)))[:, -1]

    def rayleigh(self, v: np.ndarray) -> tuple[float, float, float]:
        """Coefficients of the Rayleigh value of the slack matrix along v,

            g_v(lam) = v^T S(lam) v = a*lam + b/lam - c,
            a = sum_{i in S} v_i^2/c_i^2,  b = sum_{i not in S} c_i^2 v_i^2,
            c = ||X v||^2/rho + ||v||^2,

        a lower bound on the margin times ||v||^2 at every threshold, for
        any v. Costs O(np); X^T X is not formed."""
        if self.zero_score_in_support:
            raise ValueError("support contains a zero correlation score")
        v = np.asarray(v, dtype=float).reshape(-1)
        if v.shape != (self.inst.p,):
            raise ValueError(f"vector has length {v.shape[0]}, expected p={self.inst.p}")
        v2 = v**2
        a = float(np.sum(v2[self.in_mask] / self.sq_in))
        b = float(np.sum(v2[self.out_mask] * self.sq_out))
        Xv = self.inst.X @ v
        return a, b, float(Xv @ Xv) / self.inst.rho + float(v2.sum())

    def subgradient(self, lam: float, eigvec: np.ndarray) -> float:
        """Subgradient of the margin at `lam` built from a top eigenvector u,
        the slope of g_u there:

            h = sum_{i in S} u_i^2 / c_i^2 - (1/lam^2) sum_{i not in S} c_i^2 u_i^2.
        """
        lam = float(self._thresholds(float(lam)))
        a, b, _ = self.rayleigh(eigvec)
        # divide twice: lam**2 raises OverflowError above lam ~ 1e154 and
        # underflows to a zero divisor below lam ~ 1e-162
        return a - b / lam / lam

    def bracket(self) -> tuple[float, float]:
        """Bracket [ell, up] that must contain any threshold with negative
        margin, read off the slack matrix's diagonal:

            ell = max_{i not in S} c_i^2 / (||X_i||^2/rho + 1),
            up  = min_{i in S}  c_i^2 * (||X_i||^2/rho + 1).

        Returned as-is even when ell >= up (caller reports the empty interval).
        """
        if self.zero_score_in_support:
            raise ValueError("support contains a zero correlation score")
        X = self.inst.X
        weight = np.einsum("ij,ij->j", X, X) / self.inst.rho + 1.0
        up = float((self.sq_in * weight[self.in_mask]).min())
        if self.out_mask.any():
            ell = float((self.sq_out / weight[self.out_mask]).max())
        else:
            ell = 0.0
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


def _threshold_witness(ctx: SupportContext) -> Optional[PwgCertificate]:
    """The threshold certificate at ctx's support, or None when the scores
    do not separate. Ties fail (strictness required)."""
    abs_scores = np.abs(ctx.scores)
    min_in = float(abs_scores[ctx.in_mask].min())
    max_out = float(abs_scores[ctx.out_mask].max()) if ctx.out_mask.any() else 0.0
    if max_out < min_in:
        return PwgCertificate(support=ctx.support, min_in=min_in, max_out=max_out)
    return None


def _witness_transfer(ctx: SupportContext) -> DclCertificate:
    """The dual certificate that separated scores yield with no eigenproblem:
    at lam0 = min_{i in S} c_i^2 the canonical duals are lam0/c_i^2 <= 1 on
    the support and c_i^2/lam0 < 1 off it, so diag(d) - I is NSD, and so is
    the slack matrix, which subtracts the PSD X^T X/rho from it."""
    lam = float(ctx.sq_in.min())
    return DclCertificate(support=ctx.support, lam=lam, duals=ctx.duals(lam))


def check_pwg(inst: ProblemInstance, support: Sequence[int]) -> CertOutcome:
    """Threshold test: exact iff off-support scores sit strictly below every
    on-support score in absolute value. Ties fail (strictness required)."""
    cert = _threshold_witness(SupportContext(inst, support))
    return CertOutcome(cert) if cert is not None else CertOutcome(reason=REASON_SEPARATION)


def check_dcl(inst: ProblemInstance, support: Sequence[int]) -> CertOutcome:
    """Dual-certificate search.

    The all-scores-zero degenerate case is exact with the zero certificate,
    and a zero score in the support is `zero-score-in-support`. When the
    scores separate, the witness transfer certifies at lam0 = min_{i in S}
    c_i^2 with no eigenproblem. Otherwise a safeguarded bisection searches
    the analytic bracket [ell, up]. It queries the geometric midpoint
    lam_hat = sqrt(ell*up), since the duals scale as lam and 1/lam (the
    arithmetic one while ell = 0). lam_hat is certified when the negated
    slack matrix has a Cholesky factorization (`is_pos_def`, several times
    cheaper than an eigensolve, and enough for most queries that certify),
    and otherwise when the top eigenvalue from `max_eig_sym` is
    nonpositive. Else its eigenvector u gives the Rayleigh lower bound g_u
    (`SupportContext.rayleigh`), and the bracket shrinks to the root
    interval {g_u <= 0} (`root_interval`), which holds every certifying
    threshold, and to the side of lam_hat where the margin's subgradient
    a - b/lam_hat^2 points down. The search stops as NotCertified with
    `interval-empty` when that leaves nothing, as it does when the analytic
    bracket itself is empty. It stops with `bisection-exhausted` when the
    bracket width drops below BISECTION_TOL*max(1, up) or, as a guard,
    after BISECTION_MAX_ITER evaluations.
    """
    ctx = SupportContext(inst, support)
    if ctx.all_scores_zero():
        return CertOutcome(DclCertificate(support=ctx.support, lam=0.0, duals=np.zeros(inst.p)))
    if ctx.zero_score_in_support:
        return CertOutcome(reason=REASON_ZERO_SCORE)
    if _threshold_witness(ctx) is not None:
        return CertOutcome(_witness_transfer(ctx))

    ell, up = ctx.bracket()
    # a bracket narrower than the stopping width has no searchable interior
    if ell >= up or up - ell <= BISECTION_TOL * max(1.0, up):
        return CertOutcome(reason=REASON_EMPTY_INTERVAL)

    for _ in range(BISECTION_MAX_ITER):
        # the duals scale as lam and 1/lam, so query the geometric midpoint
        lam_hat = math.sqrt(ell) * math.sqrt(up) if ell > 0.0 else 0.5 * (ell + up)
        cert = DclCertificate(support=ctx.support, lam=lam_hat, duals=ctx.duals(lam_hat))
        slack = ctx.slack_matrix(cert.duals)
        if is_pos_def(-slack):
            return CertOutcome(cert)
        margin, eigvec = max_eig_sym(slack)
        if margin <= 0.0:
            return CertOutcome(cert)
        a, b, c = ctx.rayleigh(eigvec)
        lo, hi = root_interval(a, b, c)
        # the margin is positive at lam_hat, and certifying thresholds lie on
        # the side where its subgradient a - b/lam_hat^2 points down; cutting
        # there too keeps the search moving when roundoff blurs the roots
        if a * lam_hat > b / lam_hat:
            hi = min(hi, lam_hat)
        else:
            lo = max(lo, lam_hat)
        ell, up = max(ell, lo), min(up, hi)
        if ell >= up:
            return CertOutcome(reason=REASON_EMPTY_INTERVAL)
        if up - ell <= BISECTION_TOL * max(1.0, up):
            return CertOutcome(reason=REASON_EXHAUSTED)
    return CertOutcome(reason=REASON_EXHAUSTED)


def verify_dcl_certificate(inst: ProblemInstance, cert: DclCertificate) -> float:
    """Re-check a dual certificate from scratch (independent of how it was
    found): duals finite and nonnegative, slack matrix negative semidefinite,
    equality on the support, inequality off it. Every condition is written
    so that a NaN fails it. Returns the top eigenvalue of the slack matrix
    (at most COND_TOL); raises CertificateConsistencyError."""
    ctx = SupportContext(inst, cert.support)
    d = np.asarray(cert.duals, dtype=float).reshape(-1)
    lam = float(cert.lam)
    if d.shape != (inst.p,):
        raise CertificateConsistencyError("dual vector has the wrong length")
    if not (np.isfinite(lam) and np.isfinite(d).all()):
        raise CertificateConsistencyError("non-finite dual variables")
    if not (lam >= 0.0 and (d >= 0.0).all()):
        raise CertificateConsistencyError("negative dual variables")
    # PSD side: X^T X/rho + I - D(d) >= 0  <=>  top eig of slack matrix <= 0
    top = float(np.linalg.eigvalsh(ctx.slack_matrix(d))[-1])
    if not (np.isfinite(top) and top <= COND_TOL):
        raise CertificateConsistencyError(f"slack matrix not NSD: top eigenvalue {top:g}")
    gap_in = np.abs(lam - d[ctx.in_mask] * ctx.sq_in)
    if not float(gap_in.max()) <= COND_TOL * max(1.0, lam):
        raise CertificateConsistencyError(
            f"support equality violated by {float(gap_in.max()):g}"
        )
    slack_out = lam * d[ctx.out_mask] - ctx.sq_out
    if slack_out.size and not float(slack_out.min()) >= -COND_TOL:
        raise CertificateConsistencyError(
            f"off-support inequality violated by {-float(slack_out.min()):g}"
        )
    return top


def pwg_witness_to_dcl(
    inst: ProblemInstance, support: Sequence[int], pwg: PwgCertificate
) -> DclCertificate:
    """Transfer a threshold certificate into a dual certificate by the
    witness transfer of `check_dcl`: lam = min_{j in S} c_j^2 with the
    canonical duals, all of which land in [0, 1]. Raises ValueError when the
    certificate's support does not match or its scores do not separate on
    this instance. The result is re-verified before being returned.
    """
    ctx = SupportContext(inst, support)
    if ctx.support != tuple(pwg.support):
        raise ValueError("certificate support does not match")
    if _threshold_witness(ctx) is None:
        raise ValueError("the correlation scores do not separate at this support")
    cert = _witness_transfer(ctx)
    verify_dcl_certificate(inst, cert)
    return cert


def kkt_variables(inst: ProblemInstance, cert: DclCertificate) -> tuple[np.ndarray, float]:
    """Convert a certificate's normalized duals to the raw dual variables of
    the lifted program's KKT system: d_raw = rho * duals, lam_raw = lam / rho.
    The conversion is validated by the residuals of verify_kkt, which are the
    ground truth."""
    return inst.rho * np.asarray(cert.duals, dtype=float), float(cert.lam) / inst.rho


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
    beta = ridge_restricted_solve(inst, sup).beta
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
    radius = np.sqrt((0.5 * (lam - d)) ** 2 + t**2)
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
