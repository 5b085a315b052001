"""Recovering the unknown vector from the solved matrix, and certifying it.

The solved matrix should be (near) rank one; its top eigenpair, rescaled so
the constant-monomial entry equals 1, yields the lifted monomial vector and
hence the unknowns from the degree-one positions. A dual certificate built
from the solver's final multipliers then checks, without trusting the
solver, that the rank-one lift of that vector is the unique optimum of the
relaxation. It fits through the operator the solve factored,
``problem.affine`` (``AffineCache.fit``): normalized svec rows (see
``lifting.PackedIndex``), whose inner products with the svec of a matrix X
are the traces trace(C_i X) over the row norms.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .lifting import LiftedProblem, packed_index
from .monomials import monomial_vector
from .sdp_admm import SolveReport, SolveStatus


class DegenerateTopEigenvalueError(ValueError):
    """The matrix is numerically zero, so the unit-constant normalization the
    extraction relies on is impossible."""


# An extraction is valid when lambda_2 / lambda_1 of the solved matrix is at
# most RANK1_RATIO and the candidate lifted vector agrees with the exact lift
# of its unknowns to LIFT_CONSISTENCY * (1 + max |x_bar|).
RANK1_RATIO = 1e-3
LIFT_CONSISTENCY = 1e-4

# Every dual-certificate check is relative, at tolerance CERT_TOL; the second
# eigenvalue of the slack must clear CERT_TOL * ||S|| by CERT_RANK_GAP.
CERT_TOL = 1e-6
CERT_RANK_GAP = 1e3


@dataclass
class RecoveredSolution:
    """Extraction output: the unknowns, the lifted vector they came from, and
    the diagnostics deciding whether the extraction is trustworthy."""

    x: np.ndarray
    x_bar: np.ndarray
    rank1_ratio: float
    lift_consistency: float
    valid: bool


def extract_rank1(X: np.ndarray, basis: np.ndarray) -> RecoveredSolution:
    """Extract the unknown vector from a near-rank-one PSD matrix indexed by
    the exponent table ``basis``.

    The top eigenpair gives a candidate lifted vector, sign-normalized so its
    constant entry is positive and rescaled so it equals exactly 1 (the
    normalization constraint forces that on any true lift). The unknowns are
    its degree-one entries, rows 1..n of the graded table. Validity needs
    both a small second-to-first eigenvalue ratio and agreement between the
    candidate and the exact lift of the extracted unknowns.
    """
    X = np.asarray(X, dtype=float)
    vals, vecs = np.linalg.eigh(0.5 * (X + X.T))
    sigma1 = vals[-1]
    if sigma1 <= 1e-12:
        raise DegenerateTopEigenvalueError(
            f"top eigenvalue {sigma1:.3e} is numerically zero"
        )
    ratio = max(vals[-2], 0.0) / sigma1 if len(vals) > 1 else 0.0

    candidate = np.sqrt(sigma1) * vecs[:, -1]
    if candidate[0] < 0:
        candidate = -candidate

    degree_one = slice(1, 1 + basis.shape[1])
    if candidate[0] <= 1e-12 * np.sqrt(sigma1):
        # Top eigenvector carries no constant-entry component (for example the
        # identity matrix): nothing to normalize, so the extraction cannot be
        # trusted. Return it unnormalized and marked invalid.
        return RecoveredSolution(x=candidate[degree_one].copy(), x_bar=candidate,
                                 rank1_ratio=float(ratio),
                                 lift_consistency=math.inf, valid=False)
    x_bar = candidate / candidate[0]
    x = x_bar[degree_one].copy()

    consistency = float(np.max(np.abs(monomial_vector(x, basis) - x_bar)))
    valid = bool(
        ratio <= RANK1_RATIO
        and consistency <= LIFT_CONSISTENCY * (1.0 + np.max(np.abs(x_bar)))
    )
    return RecoveredSolution(x=x, x_bar=x_bar, rank1_ratio=float(ratio),
                             lift_consistency=consistency, valid=valid)


@dataclass
class DualCertificate:
    """A-posteriori optimality certificate for an estimate x of the unknowns,
    built from the solver's final multipliers. X_bar = x_bar x_bar' with
    x_bar the lift of x, S = rho * U2 is the PSD slack and w the
    least-squares affine multiplier. Every number is relative:

    ``min_eigenvalue`` and ``second_eigenvalue`` are the two smallest
    eigenvalues of S over ``slack_norm`` = ||S||_2; ``complementarity`` is
    ||S x_bar|| / (||S|| ||x_bar||); ``dual_residual`` is
    ||sum_i w_i C_i - (I + rho U1)||_F / ||I + rho U1||_F; ``primal_residual``
    is max_i |trace(C_i X_bar) - v_i| / (1 + max |v|); ``duality_gap`` is
    |f - v'w| / (1 + f) with f = trace(X_bar) + lam ||X_bar||_1 the primal
    objective; ``l1_multiplier`` is the largest distance of an entry of
    rho (U1 + U2) from lam times the subdifferential of ||X_bar||_1 (entries
    of X_bar below CERT_TOL * max |X_bar| count as zero), over ||S|| + lam.
    """

    slack_norm: float
    min_eigenvalue: float
    second_eigenvalue: float
    complementarity: float
    dual_residual: float
    primal_residual: float
    duality_gap: float
    l1_multiplier: float
    holds: bool


def dual_certificate(problem: LiftedProblem, report: SolveReport,
                     x) -> DualCertificate:
    """Check that the lift of the estimate x is the unique optimum of the
    lifted program.

    With S = rho * U2 and w solving sum_i w_i C_i = I + rho * U1 by least
    squares, (w, S) is a dual point and X_bar = x_bar x_bar' a primal one.
    When X_bar is feasible (x solves the system), the dual point is feasible
    (small residual, S PSD, rho (U1 + U2) an l1 multiplier of X_bar) and the
    duality gap closes, X_bar is optimal and every optimum X has
    trace(S X) = 0. If S also has rank dim - 1 (a second eigenvalue clear of
    zero) and S x_bar = 0, every optimum is a multiple of X_bar, and the
    normalization row fixes the multiple: X_bar is the unique optimum
    (strict complementarity; Alizadeh, Haeberly and Overton 1997). The
    certificate holds only on a CONVERGED report and only when every check
    passes at tolerance CERT_TOL.

    The least squares is ``problem.affine.fit``, on the normalized svec
    rows; their multiplier u is w times the row norms, so the duality gap
    pairs u with the normalized right-hand sides. u covers the rows the
    cache keeps; the dependency rows it folds have right-hand sides 0 and
    add nothing to that pairing. Those rows see only the
    symmetric part of I + rho * U1; its skew part, orthogonal to every C_i,
    is added back into the dual residual (it is zero on a solver's report,
    but not necessarily on one read from a file).
    """
    x_bar = monomial_vector(x, problem.basis)
    S = report.dual_psd
    vals = np.linalg.eigvalsh(S)
    slack_norm = float(np.max(np.abs(vals)))
    scale = slack_norm if slack_norm > 0 else 1.0

    cache = problem.affine
    target = np.eye(problem.dim) + report.dual_affine
    packed_target = packed_index(problem.dim).svec(target)
    u, fitted = cache.fit(packed_target)
    skew = 0.5 * (target - target.T)
    dual_residual = float(np.hypot(np.linalg.norm(fitted - packed_target),
                                   np.linalg.norm(skew)) / np.linalg.norm(target))

    X_bar = np.outer(x_bar, x_bar)
    primal_residual = (cache.violation(X_bar)
                       / (1.0 + float(np.max(np.abs(problem.values), initial=0.0))))
    primal_objective = float(np.trace(X_bar) + report.lam * np.sum(np.abs(X_bar)))
    duality_gap = (abs(primal_objective - float(cache.rhs @ u))
                   / (1.0 + abs(primal_objective)))

    # rho (U1 + U2) must equal lam * sign(X_bar) on the support of X_bar and
    # stay within [-lam, lam] off it.
    multiplier = report.dual_affine + report.dual_psd
    support = np.abs(X_bar) > CERT_TOL * np.max(np.abs(X_bar))
    off_l1 = np.where(support, np.abs(multiplier - report.lam * np.sign(X_bar)),
                      np.maximum(np.abs(multiplier) - report.lam, 0.0))
    l1_multiplier = float(np.max(off_l1) / (scale + report.lam))

    min_eig, second_eig = float(vals[0] / scale), float(vals[1] / scale)
    complementarity = float(np.linalg.norm(S @ x_bar) / (scale * np.linalg.norm(x_bar)))
    holds = bool(
        report.status is SolveStatus.CONVERGED
        and min_eig >= -CERT_TOL
        and second_eig > CERT_RANK_GAP * CERT_TOL
        and max(complementarity, dual_residual, primal_residual, duality_gap,
                l1_multiplier) <= CERT_TOL
    )
    return DualCertificate(slack_norm, min_eig, second_eig, complementarity,
                           dual_residual, primal_residual, duality_gap,
                           l1_multiplier, holds)

