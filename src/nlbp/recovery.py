"""Recovering the unknown vector from the solved matrix, plus certificates.

The solved matrix should be (near) rank one; its top eigenpair, rescaled so
the constant-monomial entry equals 1, yields the lifted monomial vector and
hence the unknowns from the degree-one positions. Two checkable certificates
accompany extraction: a mutual-coherence sparsity bound on the constraint
operator, and a Monte-Carlo lower-bound estimate of the operator's restricted
isometry constant (usable to refute isometry claims, never to confirm them).
Both read the lifted problem's (M, dim, dim) ``operator`` as the M x dim^2
matrix whose i-th row is the vectorized i-th constraint matrix (full, not
symmetry-reduced, vectorization).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .lifting import LiftedProblem, lift_vector
from .monomials import MultiIndex


class DegenerateTopEigenvalueError(ValueError):
    """The matrix is numerically zero, so the unit-constant normalization the
    extraction relies on is impossible."""


class AllZeroColumnsError(ValueError):
    """Mutual coherence is undefined: fewer than two nonzero columns."""


@dataclass(frozen=True)
class ExtractionThresholds:
    """Acceptance thresholds for rank-one extraction."""

    rank1_ratio: float = 1e-3
    lift_consistency_coeff: float = 1e-4


@dataclass
class RecoveredSolution:
    """Extraction output: the unknowns, the lifted vector they came from, and
    the diagnostics deciding whether the extraction is trustworthy."""

    x: np.ndarray
    x_bar: np.ndarray
    rank1_ratio: float
    lift_consistency: float
    valid: bool


@dataclass
class CoherenceCertificate:
    """Sparsity-based recovery certificate.

    ``holds`` is True when the nonzero count of the solved matrix is strictly
    below 0.5 * (1 + 1 / coherence); columns of the operator that are
    identically zero carry no measurement and are excluded from the coherence
    maximum (their count is reported).
    """

    mu: float
    sparsity_bound: float
    matrix_l0: int
    holds: bool
    zero_columns_excluded: int


def extract_rank1(
    X: np.ndarray,
    basis,
    thresholds: ExtractionThresholds | None = None,
) -> RecoveredSolution:
    """Extract the unknown vector from a near-rank-one PSD matrix.

    The top eigenpair gives a candidate lifted vector, sign-normalized so its
    constant entry is positive and rescaled so it equals exactly 1 (the
    normalization constraint forces that on any true lift). Validity needs
    both a small second-to-first eigenvalue ratio and agreement between the
    candidate and the exact lift of the extracted unknowns.
    """
    if thresholds is None:
        thresholds = ExtractionThresholds()
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

    n = basis.num_vars
    degree_one = [
        basis.index_of[MultiIndex(tuple(1 if i == j else 0 for i in range(n)))]
        for j in range(n)
    ]
    if candidate[0] <= 1e-12 * np.sqrt(sigma1):
        # Top eigenvector carries no constant-entry component (for example the
        # identity matrix): nothing to normalize, so the extraction cannot be
        # trusted. Return it unnormalized and marked invalid.
        return RecoveredSolution(x=candidate[degree_one], x_bar=candidate,
                                 rank1_ratio=float(ratio),
                                 lift_consistency=math.inf, valid=False)
    x_bar = candidate / candidate[0]
    x = x_bar[degree_one]

    consistency = float(np.max(np.abs(lift_vector(x, basis) - x_bar)))
    valid = bool(
        ratio <= thresholds.rank1_ratio
        and consistency <= thresholds.lift_consistency_coeff * (1.0 + np.max(np.abs(x_bar)))
    )
    return RecoveredSolution(x=x, x_bar=x_bar, rank1_ratio=float(ratio),
                             lift_consistency=consistency, valid=valid)


def mutual_coherence(B: np.ndarray) -> float:
    """Largest normalized inner product between distinct nonzero columns.

    Columns that are identically zero are skipped (the ratio is 0/0 there);
    the result is clipped into [0, 1] against roundoff.
    """
    B = np.asarray(B, dtype=float)
    if B.ndim != 2 or B.shape[1] < 2:
        raise ValueError("need a matrix with at least 2 columns")
    norms = np.linalg.norm(B, axis=0)
    keep = norms > 0.0
    if keep.sum() < 2:
        raise AllZeroColumnsError("fewer than two nonzero columns")
    unit = B[:, keep] / norms[keep]
    gram = np.abs(unit.T @ unit)
    np.fill_diagonal(gram, 0.0)
    return float(min(gram.max(), 1.0))


def count_zero_columns(B: np.ndarray) -> int:
    return int(np.sum(np.linalg.norm(np.asarray(B, dtype=float), axis=0) == 0.0))


def coherence_certificate(
    problem: LiftedProblem,
    X: np.ndarray,
    zero_tol: float = 1e-6,
) -> CoherenceCertificate:
    """Check the coherence sparsity bound on a solved matrix.

    The matrix nonzero count uses a relative threshold (entries above
    ``zero_tol`` times the largest magnitude), since exact zeros never occur
    in floating point.
    """
    B = problem.operator.reshape(problem.num_constraints, -1)
    mu = mutual_coherence(B)
    bound = 0.5 * (1.0 + 1.0 / mu) if mu > 0 else math.inf
    X = np.asarray(X, dtype=float)
    top = np.max(np.abs(X))
    l0 = int(np.sum(np.abs(X) > zero_tol * top)) if top > 0 else 0
    return CoherenceCertificate(
        mu=mu,
        sparsity_bound=bound,
        matrix_l0=l0,
        holds=l0 < bound,
        zero_columns_excluded=count_zero_columns(B),
    )


def certificate_to_json(cert: CoherenceCertificate) -> dict:
    return {
        "mu": cert.mu,
        "sparsity_bound": cert.sparsity_bound,
        "X_l0": cert.matrix_l0,
        "holds": cert.holds,
        "zero_columns_excluded": cert.zero_columns_excluded,
    }


def _sparse_symmetric_sample(rng, dim: int, k: int) -> np.ndarray:
    """Random symmetric matrix with at most k nonzero entries: pick diagonal
    cells (cost 1) and mirrored off-diagonal pairs (cost 2) until the budget
    runs out, with Gaussian values."""
    X = np.zeros((dim, dim))
    budget = k
    used_diag: set[int] = set()
    used_off: set[tuple[int, int]] = set()
    while budget > 0:
        diag_left = dim - len(used_diag)
        off_left = dim * (dim - 1) // 2 - len(used_off) if budget >= 2 else 0
        total = diag_left + off_left
        if total == 0:
            break
        pick = rng.integers(total)
        if pick < diag_left:
            i = [d for d in range(dim) if d not in used_diag][pick]
            X[i, i] = rng.normal()
            used_diag.add(i)
            budget -= 1
        else:
            pairs = [(i, j) for i in range(dim) for j in range(i + 1, dim)
                     if (i, j) not in used_off]
            i, j = pairs[pick - diag_left]
            v = rng.normal()
            X[i, j] = v
            X[j, i] = v
            used_off.add((i, j))
            budget -= 2
    return X


def estimate_rip_epsilon(
    problem: LiftedProblem,
    k: int,
    num_samples: int,
    rng_seed,
    block_size: int = 1024,
) -> float:
    """Monte-Carlo lower bound on the restricted isometry constant of the
    constraint operator over symmetric matrices with at most k nonzeros.

    Samples are drawn in blocks with per-block seeds derived from
    ``rng_seed``, so extending ``num_samples`` only appends blocks and the
    estimate is monotone non-decreasing in the sample count. Being a max over
    samples, the value can only refute an isometry claim, never confirm one.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    if num_samples < 1:
        raise ValueError("num_samples must be >= 1")
    B = problem.operator.reshape(problem.num_constraints, -1)
    dim = problem.dim
    num_blocks = (num_samples + block_size - 1) // block_size
    seeds = np.random.SeedSequence(rng_seed).spawn(num_blocks)
    worst = 0.0
    remaining = num_samples
    for block_seed in seeds:
        rng = np.random.default_rng(block_seed)
        for _ in range(min(block_size, remaining)):
            X = _sparse_symmetric_sample(rng, dim, k)
            norm_sq = float(np.sum(X * X))
            if norm_sq == 0.0:
                continue
            image = B @ X.ravel()
            worst = max(worst, abs(float(image @ image) / norm_sq - 1.0))
        remaining -= block_size
    return worst
