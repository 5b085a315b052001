"""End-to-end solvers for polynomial systems, baselines, and test oracles.

Three methods each return one ``MethodRun``, an estimate with its squared
residual against the original system (the lifted two add their problem,
solve report and extraction):

* the full lifted pipeline at a chosen even order (the main method),
* the same pipeline after truncating every polynomial to degree two
  (quadratic baseline), and
* a linear baseline that truncates to degree one and solves either l1
  regularized or plain least squares.

None of them sees the planted vector. The harness judges every estimate by
one frozen rule, ``success_criterion``.

A brute-force support-enumeration oracle provides independent ground truth
for sparse instances small enough to enumerate.

Lifted methods refine a *valid* rank-one extraction by damped Gauss-Newton on
the method's own (possibly truncated) system: first-order solver accuracy is
polished to machine precision without changing which instances the
relaxation actually solved. Invalid extractions are never refined.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .lifting import LiftedProblem, build_lifted_problem
# eval_polynomial is no longer called here but stays bound: perfbench's
# tracer wraps the layer functions at the module names their callers used.
# Retargeting the tracer at the PolySystem methods deletes this binding.
from .monomials import PolySystem, eval_polynomial  # noqa: F401
from .recovery import DegenerateTopEigenvalueError, RecoveredSolution, extract_rank1
from .sdp_admm import SolveReport, SolverConfig, soft_threshold, solve_nlbp


class Method(Enum):
    NLBP = "NLBP"
    QBP = "QBP"
    LASSO = "LASSO"


@dataclass
class MethodRun:
    """One method run: the estimate and its squared residual, and for the
    lifted methods the lifted problem, the solve report and the extraction,
    which the harness records and certificate and invariant checks inspect.
    ``recovered`` is None when the solved matrix was numerically zero; a
    linear run has no problem, report or extraction."""

    x_hat: np.ndarray
    residual_sq: float  # against the original polynomials, always
    problem: LiftedProblem | None = None
    report: SolveReport | None = None
    recovered: RecoveredSolution | None = None


def system_residual_sq(system: PolySystem, values, x) -> float:
    """Sum of squared equation residuals at x."""
    r = system.residual(x, values)
    return float(r @ r)


def _gauss_newton(system: PolySystem, values: np.ndarray, x0: np.ndarray,
                  max_iters: int = 60, tol_sq: float = 0.0) -> np.ndarray:
    """Damped Gauss-Newton descent on the squared residual."""
    x = np.array(x0, dtype=float)
    n = system.num_vars
    r = system.residual(x, values)
    best = float(r @ r)
    for _ in range(max_iters):
        if best <= tol_sq:
            break
        J = system.jacobian(x)
        JtJ = J.T @ J
        damping = 1e-12 * max(1.0, float(np.trace(JtJ)) / n)
        try:
            step = np.linalg.solve(JtJ + damping * np.eye(n), -J.T @ r)
        except np.linalg.LinAlgError:
            break
        improved = False
        t = 1.0
        for _ in range(12):
            trial = x + t * step
            r_trial = system.residual(trial, values)
            val = float(r_trial @ r_trial)
            if val < best:
                # give up on true stalls, and early on plateaus far above the
                # target (roots attract quadratically, so slow grinding at a
                # high residual means a hopeless basin)
                gain = best - val
                stalled = gain <= 1e-12 * (1.0 + best) or (
                    best > 1e3 * tol_sq + 1e-12 and gain <= 1e-6 * best)
                x, r, best = trial, r_trial, val
                improved = not stalled
                break
            t *= 0.5
        if not improved:
            break
    return x


def refine_solution(system: PolySystem, values, x0) -> np.ndarray:
    """Polish an approximate root of the system by damped Gauss-Newton."""
    vals = np.asarray(values, dtype=float)
    tol_sq = 1e-28 * (1.0 + float(vals @ vals))
    return _gauss_newton(system, vals, np.asarray(x0, dtype=float), tol_sq=tol_sq)


def success_criterion(x_hat, x_true, system: PolySystem, values) -> bool:
    """Frozen success rule used for every reported rate: the estimate matches
    the planted vector in sup norm (relative 1e-4) and solves the original
    system (relative squared residual 1e-8)."""
    return meets_success_rule(x_hat, x_true,
                              system_residual_sq(system, values, x_hat), values)


def meets_success_rule(x_hat, x_true, residual_sq: float, values) -> bool:
    """``success_criterion`` given the squared residual of x_hat, for callers
    that have already computed it, such as the harness."""
    x_hat = np.asarray(x_hat, dtype=float)
    x_true = np.asarray(x_true, dtype=float)
    if x_hat.shape != x_true.shape:
        raise ValueError("estimate and ground truth have different shapes")
    values = np.asarray(values, dtype=float)
    sup_ok = np.max(np.abs(x_hat - x_true)) <= 1e-4 * (1.0 + np.max(np.abs(x_true)))
    res_ok = residual_sq <= 1e-8 * (1.0 + float(values @ values))
    return bool(sup_ok and res_ok)


def run_lifted(
    system: PolySystem,
    values,
    order: int,
    config: SolverConfig | None,
    method: Method,
) -> MethodRun:
    """Shared lift -> solve -> extract -> polish pipeline.

    NLBP lifts ``system`` at ``order``; QBP truncates it to degree two and
    lifts at order two. The polish runs on the system the method saw, the
    residual is taken against ``system``.
    """
    model = system
    if method is Method.QBP:
        model, order = system.truncate(2), 2
    problem = build_lifted_problem(model, values, order)
    report = solve_nlbp(problem, config)
    x_hat = np.zeros(problem.num_vars)
    recovered = None
    try:
        recovered = extract_rank1(report.X, problem.basis)
        x_hat = recovered.x
        if recovered.valid:
            x_hat = refine_solution(model, values, x_hat)
    except DegenerateTopEigenvalueError:
        pass
    return MethodRun(x_hat, system_residual_sq(system, values, x_hat),
                     problem, report, recovered)


def solve_nlbp_system(
    system: PolySystem,
    values,
    order: int = 4,
    config: SolverConfig | None = None,
) -> MethodRun:
    """Full lifted pipeline at the given even order."""
    return run_lifted(system, values, order, config, Method.NLBP)


def solve_qbp(
    system: PolySystem,
    values,
    config: SolverConfig | None = None,
) -> MethodRun:
    """Quadratic baseline: truncate every polynomial to degree two (its
    second-order Taylor expansion around zero) and run the lifted pipeline at
    order two. The residual is still taken against the original system."""
    return run_lifted(system, values, 2, config, Method.QBP)


def solve_linear(
    system: PolySystem,
    values,
    lam: float = 0.0,
) -> MethodRun:
    """Linear baseline: truncate to degree one, giving values - const = A x.

    ``lam > 0`` solves the l1-regularized least squares problem by scaled
    ADMM; ``lam = 0`` takes the minimum-norm least squares estimate. The
    residual is taken against the original system.
    """
    values = np.asarray(values, dtype=float)
    A, const = system.linear_parts()
    b = values - const
    if lam == 0.0:
        x_hat = np.linalg.lstsq(A, b, rcond=None)[0]
    else:
        n = A.shape[1]
        rho = 1.0
        # A^T A + rho I is positive definite: inverted once, it makes each
        # x-update one matvec
        inverse = np.linalg.inv(A.T @ A + rho * np.eye(n))
        rhs_fixed = A.T @ b
        x = np.zeros(n)
        z = np.zeros(n)
        u = np.zeros(n)
        for _ in range(5000):
            x = inverse @ (rhs_fixed + rho * (z - u))
            z_prev = z
            z = soft_threshold(x + u, lam / rho)
            u = u + x - z
            if (np.linalg.norm(x - z) <= 1e-12 * (1 + np.linalg.norm(z))
                    and np.linalg.norm(z - z_prev) <= 1e-12 * (1 + np.linalg.norm(z))):
                break
        x_hat = z
    return MethodRun(x_hat, system_residual_sq(system, values, x_hat))


def l0_oracle(
    system: PolySystem,
    values,
    max_support: int,
    starts: int = 20,
    rng_seed: int = 0,
) -> np.ndarray | None:
    """Brute-force sparsest solution of the system, or None when no support
    of size <= max_support admits one.

    Every support is attacked by ``starts`` (>= 1) runs of damped
    Gauss-Newton, 100 iterations each, from standard Gaussian initial points;
    a support counts as solved when the squared residual falls below
    1e-12 * (1 + ||values||^2). The sparsest solved support wins, ties broken
    by smaller residual. Only intended for small instances (at most 8
    variables, supports of at most 3).
    """
    if starts < 1:
        raise ValueError("starts must be >= 1")
    if max_support > 3:
        raise ValueError("oracle is limited to supports of at most 3")
    n = system.num_vars
    if n > 8:
        raise ValueError("oracle is limited to at most 8 variables")
    values = np.asarray(values, dtype=float)
    tol_sq = 1e-12 * (1.0 + float(values @ values))

    if system_residual_sq(system, values, np.zeros(n)) <= tol_sq:
        return np.zeros(n)

    seed_root = np.random.SeedSequence(rng_seed)
    best: np.ndarray | None = None
    best_residual = math.inf
    for size in range(1, max_support + 1):
        for support in itertools.combinations(range(n), size):
            # off-support coordinates are pinned at zero, so only terms whose
            # exponents live inside the support can ever contribute
            restricted = system.restrict(support)
            rng = np.random.default_rng(seed_root.spawn(1)[0])
            for _ in range(starts):
                z0 = rng.normal(0.0, 1.0, size)
                z = _gauss_newton(restricted, values, z0,
                                  max_iters=100, tol_sq=tol_sq)
                val = system_residual_sq(restricted, values, z)
                if val <= tol_sq and val < best_residual:
                    x = np.zeros(n)
                    x[list(support)] = z
                    best, best_residual = x, val
        if best is not None:
            return best
    return None
