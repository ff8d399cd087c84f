"""Exactness certificates for the two convex relaxations.

Given a candidate support S, two tests decide whether the relaxations solve
the cardinality-constrained ridge problem at S:

* threshold test (check_pwg): the boolean relaxation is exact iff the
  correlation scores separate, min_{j in S} |c_j| > max_{j not in S} |c_j|.

* dual-certificate search (check_dcl): the lifted relaxation is exact iff
  some threshold lam > 0 makes the scaled slack matrix

      diag(d(lam)) - X^T X / rho - I_p,
      d_i(lam) = lam / c_i^2 (i in S),  d_i(lam) = c_i^2 / lam (i not in S),

  negative semidefinite. `psd_margin` evaluates its top eigenvalue, a convex
  function of lam, and a safeguarded subgradient bisection searches for a
  nonpositive point inside an analytic bracket. Each subgradient's tangent
  bounds the margin from below everywhere, so the search stops as soon as a
  tangent stays positive over the whole remaining bracket.

A dual-certificate search that fails says why: `interval-empty` means no
threshold can certify, proved either by the analytic bracket or by a tangent
cut; `bisection-exhausted` means the bracket shrank below the tolerance (or
the iteration cap ran out) without a proof either way.

A passing threshold certificate always transfers to a dual certificate
(pwg_witness_to_dcl), and every dual certificate can be cross-checked against
the KKT system of the lifted program (verify_kkt).
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from functools import cached_property
from typing import Optional, Sequence

import numpy as np

from .linalg import correlation_scores, max_eig_sym, ridge_restricted_solve
from .problem import ProblemInstance, normalize_support

# NotCertified reasons
REASON_SEPARATION = "separation-failed"
REASON_ZERO_SCORE = "zero-score-in-support"
REASON_EXHAUSTED = "bisection-exhausted"
REASON_EMPTY_INTERVAL = "interval-empty"

DEFAULT_BISECTION_TOL = 1e-10
DEFAULT_BISECTION_MAX_ITER = 200

COND_TOL = 1e-8  # slack allowed when re-verifying certificate conditions


class CertStatus(Enum):
    EXACT = "exact"
    NOT_CERTIFIED = "not-certified"


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

    `lam` is the dual threshold, `duals` the nonnegative diagonal dual vector,
    and `margin` the top eigenvalue of diag(duals) - X^T X/rho - I_p; a valid
    certificate has margin <= 0 (up to roundoff). The degenerate case where
    every correlation score vanishes is certified by lam = 0, duals = 0.
    """

    support: tuple[int, ...]
    lam: float
    duals: np.ndarray  # (p,), >= 0
    margin: float


@dataclass
class CertOutcome:
    status: CertStatus
    certificate: Optional[PwgCertificate | DclCertificate] = None
    reason: str = ""

    @property
    def exact(self) -> bool:
        return self.status is CertStatus.EXACT


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


class _CertContext:
    """Per-(instance, support) precomputation shared by the certificate ops."""

    def __init__(self, inst: ProblemInstance, support: Sequence[int]):
        self.inst = inst
        self.support = normalize_support(support, inst.p)
        if not self.support:
            raise ValueError("certificate checks need a nonempty support")
        if len(self.support) > inst.k:
            raise ValueError(
                f"support size {len(self.support)} exceeds cardinality budget k={inst.k}"
            )
        self.scores = correlation_scores(inst, self.support)
        self.sq = self.scores**2
        self.in_mask = np.zeros(inst.p, dtype=bool)
        self.in_mask[list(self.support)] = True
        self.out_mask = ~self.in_mask

    @cached_property
    def base(self) -> np.ndarray:
        """Negated PSD part of the slack matrix, -X^T X/rho - I_p, formed on
        first use so that the threshold test never pays for it."""
        gram = self.inst.X.T @ self.inst.X
        # symmetrized against BLAS noise
        return -0.5 * (gram + gram.T) / self.inst.rho - np.eye(self.inst.p)

    def all_scores_zero(self) -> bool:
        return bool((self.sq == 0.0).all())

    def zero_score_in_support(self) -> bool:
        return bool((self.sq[self.in_mask] == 0.0).any())

    def duals_at(self, lam: float) -> np.ndarray:
        d = np.empty(self.inst.p)
        d[self.in_mask] = lam / self.sq[self.in_mask]
        d[self.out_mask] = self.sq[self.out_mask] / lam
        return d

    def slack_matrix(self, duals: np.ndarray) -> np.ndarray:
        A = self.base.copy()
        A[np.diag_indices_from(A)] += duals
        return A

    def subgradient(self, lam: float, eigvec: np.ndarray) -> float:
        """Subgradient of the margin at `lam` built from a top eigenvector:

            h = sum_{i in S} u_i^2 / c_i^2 - (1/lam^2) sum_{i not in S} c_i^2 u_i^2.
        """
        lam = _require_positive(lam)
        u = np.asarray(eigvec, dtype=float).reshape(-1)
        if u.shape != (self.inst.p,):
            raise ValueError(f"eigenvector has length {u.shape[0]}, expected p={self.inst.p}")
        u2 = u**2
        inner = float(np.sum(u2[self.in_mask] / self.sq[self.in_mask]))
        outer = float(np.sum(u2[self.out_mask] * self.sq[self.out_mask]))
        # divide twice: lam**2 raises OverflowError above lam ~ 1e154 and
        # underflows to a zero divisor below lam ~ 1e-162
        return inner - outer / lam / lam

    def bracket(self) -> tuple[float, float]:
        """Bracket [ell, up] that must contain any threshold with negative
        margin, read off the slack matrix's diagonal:

            ell = max_{i not in S} c_i^2 / (||X_i||^2/rho + 1),
            up  = min_{i in S}  c_i^2 * (||X_i||^2/rho + 1).

        Returned as-is even when ell >= up (caller reports the empty interval).
        """
        if self.zero_score_in_support():
            raise ValueError("support contains a zero correlation score")
        X = self.inst.X
        weight = np.einsum("ij,ij->j", X, X) / self.inst.rho + 1.0
        up = float((self.sq[self.in_mask] * weight[self.in_mask]).min())
        if self.out_mask.any():
            ell = float((self.sq[self.out_mask] / weight[self.out_mask]).max())
        else:
            ell = 0.0
        return ell, up


def _require_positive(lam: float) -> float:
    lam = float(lam)
    if not np.isfinite(lam) or lam <= 0.0:
        raise ValueError(f"threshold must be a positive real, got {lam}")
    return lam


def check_pwg(inst: ProblemInstance, support: Sequence[int]) -> CertOutcome:
    """Threshold test: exact iff off-support scores sit strictly below every
    on-support score in absolute value. Ties fail (strictness required)."""
    ctx = _CertContext(inst, support)
    abs_scores = np.abs(ctx.scores)
    min_in = float(abs_scores[ctx.in_mask].min())
    max_out = float(abs_scores[ctx.out_mask].max()) if ctx.out_mask.any() else 0.0
    if max_out < min_in:
        cert = PwgCertificate(support=ctx.support, min_in=min_in, max_out=max_out)
        return CertOutcome(CertStatus.EXACT, cert)
    return CertOutcome(CertStatus.NOT_CERTIFIED, reason=REASON_SEPARATION)


def canonical_duals(inst: ProblemInstance, support: Sequence[int], lam: float) -> np.ndarray:
    """Canonical dual vector at a threshold: lam/c_i^2 on the support,
    c_i^2/lam off it. This is the pointwise-smallest dual satisfying the
    certificate's equality/inequality side conditions, so feasibility of the
    slack matrix at it decides certificate existence."""
    ctx = _CertContext(inst, support)
    lam = _require_positive(lam)
    if ctx.zero_score_in_support():
        raise ValueError("support contains a zero correlation score")
    return ctx.duals_at(lam)


def psd_margin(
    inst: ProblemInstance, support: Sequence[int], lam: float
) -> tuple[float, np.ndarray]:
    """Top eigenvalue (and a unit eigenvector) of the slack matrix at the
    canonical duals for `lam`. Nonpositive margin certifies exactness."""
    ctx = _CertContext(inst, support)
    lam = _require_positive(lam)
    if ctx.zero_score_in_support():
        raise ValueError("support contains a zero correlation score")
    return max_eig_sym(ctx.slack_matrix(ctx.duals_at(lam)))


def psd_margin_grid(
    inst: ProblemInstance, support: Sequence[int], lams: np.ndarray
) -> np.ndarray:
    """Vectorized psd_margin over an array of positive thresholds."""
    ctx = _CertContext(inst, support)
    lams = np.asarray(lams, dtype=float).reshape(-1)
    if (lams <= 0).any():
        raise ValueError("thresholds must be positive")
    if ctx.zero_score_in_support():
        raise ValueError("support contains a zero correlation score")
    diags = np.empty((lams.size, inst.p))
    diags[:, ctx.in_mask] = lams[:, None] / ctx.sq[ctx.in_mask][None, :]
    diags[:, ctx.out_mask] = ctx.sq[ctx.out_mask][None, :] / lams[:, None]
    mats = np.broadcast_to(ctx.base, (lams.size, inst.p, inst.p)).copy()
    idx = np.arange(inst.p)
    mats[:, idx, idx] += diags
    return np.linalg.eigvalsh(mats)[:, -1]


def psd_margin_subgradient(
    inst: ProblemInstance, support: Sequence[int], lam: float, eigvec: np.ndarray
) -> float:
    """Subgradient of the margin at `lam`; see `_CertContext.subgradient`."""
    return _CertContext(inst, support).subgradient(lam, eigvec)


def certificate_bracket(
    inst: ProblemInstance, support: Sequence[int]
) -> tuple[float, float]:
    """Analytic bracket of the certifying thresholds; see `_CertContext.bracket`."""
    return _CertContext(inst, support).bracket()


def check_dcl(
    inst: ProblemInstance,
    support: Sequence[int],
    tol: float = DEFAULT_BISECTION_TOL,
    max_iter: int = DEFAULT_BISECTION_MAX_ITER,
) -> CertOutcome:
    """Dual-certificate search by safeguarded subgradient bisection.

    Midpoint evaluations plus subgradient (Newton) cuts lam_hat - f/h shrink
    the bracket; by convexity no nonpositive-margin point is ever cut away,
    and each iteration at least halves the bracket. The tangent at lam_hat is
    a global lower bound on the margin, so when its zero `cut` falls on or
    beyond the far end of the bracket (h > 0 and cut <= ell, or h < 0 and
    cut >= up) the margin is positive on the whole bracket and the search
    stops as NotCertified with `interval-empty`, as it does when the analytic
    bracket itself is empty. It stops with `bisection-exhausted` when the
    bracket width drops below tol*max(1, up), after max_iter evaluations, or
    at a zero subgradient. The all-scores-zero degenerate case is exact with
    the zero certificate.
    """
    ctx = _CertContext(inst, support)
    if tol <= 0:
        raise ValueError("tol must be positive")
    if ctx.all_scores_zero():
        cert = DclCertificate(
            support=ctx.support,
            lam=0.0,
            duals=np.zeros(inst.p),
            margin=float(np.linalg.eigvalsh(ctx.base)[-1]),
        )
        return CertOutcome(CertStatus.EXACT, cert)
    if ctx.zero_score_in_support():
        return CertOutcome(CertStatus.NOT_CERTIFIED, reason=REASON_ZERO_SCORE)

    ell, up = ctx.bracket()
    # a bracket narrower than the stopping width has no searchable interior
    if ell >= up or up - ell <= tol * max(1.0, up):
        return CertOutcome(CertStatus.NOT_CERTIFIED, reason=REASON_EMPTY_INTERVAL)

    for _ in range(max_iter):
        lam_hat = 0.5 * (ell + up)
        margin, eigvec = max_eig_sym(ctx.slack_matrix(ctx.duals_at(lam_hat)))
        if margin <= 0.0:
            cert = DclCertificate(
                support=ctx.support,
                lam=lam_hat,
                duals=ctx.duals_at(lam_hat),
                margin=margin,
            )
            return CertOutcome(CertStatus.EXACT, cert)
        h = ctx.subgradient(lam_hat, eigvec)
        if h == 0.0:
            # lam_hat minimizes a convex function with positive value
            return CertOutcome(CertStatus.NOT_CERTIFIED, reason=REASON_EXHAUSTED)
        cut = lam_hat - margin / h
        if (h > 0.0 and cut <= ell) or (h < 0.0 and cut >= up):
            # the tangent stays positive across the whole open bracket
            return CertOutcome(CertStatus.NOT_CERTIFIED, reason=REASON_EMPTY_INTERVAL)
        if h > 0.0:
            up = cut if (np.isfinite(cut) and ell < cut < up) else lam_hat
        else:
            ell = cut if (np.isfinite(cut) and ell < cut < up) else lam_hat
        if up - ell <= tol * max(1.0, up):
            return CertOutcome(CertStatus.NOT_CERTIFIED, reason=REASON_EXHAUSTED)
    return CertOutcome(CertStatus.NOT_CERTIFIED, reason=REASON_EXHAUSTED)


def verify_dcl_certificate(
    inst: ProblemInstance, cert: DclCertificate, tol: float = COND_TOL
) -> None:
    """Re-check a dual certificate from scratch (independent of how it was
    found): duals nonnegative, slack matrix negative semidefinite, equality on
    the support, inequality off it. Raises CertificateConsistencyError."""
    ctx = _CertContext(inst, cert.support)
    d = np.asarray(cert.duals, dtype=float).reshape(-1)
    lam = float(cert.lam)
    if d.shape != (inst.p,):
        raise CertificateConsistencyError("dual vector has the wrong length")
    if lam < 0.0 or (d < 0.0).any():
        raise CertificateConsistencyError("negative dual variables")
    # PSD side: X^T X/rho + I - D(d) >= 0  <=>  top eig of slack matrix <= 0
    top = float(np.linalg.eigvalsh(ctx.slack_matrix(d))[-1])
    if top > tol:
        raise CertificateConsistencyError(f"slack matrix not NSD: top eigenvalue {top:g}")
    gap_in = np.abs(lam - d[ctx.in_mask] * ctx.sq[ctx.in_mask])
    if gap_in.size and float(gap_in.max()) > tol * max(1.0, lam):
        raise CertificateConsistencyError(
            f"support equality violated by {float(gap_in.max()):g}"
        )
    slack_out = lam * d[ctx.out_mask] - ctx.sq[ctx.out_mask]
    if slack_out.size and float(slack_out.min()) < -tol:
        raise CertificateConsistencyError(
            f"off-support inequality violated by {-float(slack_out.min()):g}"
        )


def pwg_witness_to_dcl(
    inst: ProblemInstance, support: Sequence[int], pwg: PwgCertificate
) -> DclCertificate:
    """Transfer a threshold certificate into a dual certificate:

        lam = min_{j in S} c_j^2,
        d_i = lam / c_i^2 (i in S),  d_i = 1 (i not in S).

    All duals land in [0, 1], so the slack matrix is NSD outright, and the
    strict threshold separation gives the off-support inequality. The result
    is re-verified before being returned.
    """
    ctx = _CertContext(inst, support)
    if ctx.support != tuple(pwg.support):
        raise ValueError("certificate support does not match")
    if ctx.zero_score_in_support():
        raise ValueError("support contains a zero correlation score")
    lam = float(ctx.sq[ctx.in_mask].min())
    duals = np.ones(inst.p)
    duals[ctx.in_mask] = lam / ctx.sq[ctx.in_mask]
    margin = float(np.linalg.eigvalsh(ctx.slack_matrix(duals))[-1])
    cert = DclCertificate(support=ctx.support, lam=lam, duals=duals, margin=margin)
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
    sup = normalize_support(support, inst.p)
    if not sup:
        raise ValueError("KKT check needs a nonempty support")
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
