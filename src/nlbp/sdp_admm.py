"""Consensus ADMM solver for the lifted semidefinite program.

The program is

    minimize    trace(X) + lam * sum(abs(X))
    subject to  trace(C_i @ X) == v_i  for every constraint i,
                X positive semidefinite,

split into three blocks: an affine block (trace objective plus the equality
constraints, whose proximal step is an affine projection of a tilted point),
a cone block (projection onto the PSD cone), and an elementwise shrinkage
block for the l1 term. The three blocks are tied together by a consensus
variable and scaled dual variables.

The consensus and multiplier updates are over-relaxed: each block's output
X_i enters them as alpha X_i + (1 - alpha) Z_prev, Z_prev the previous
consensus iterate, with the fixed alpha = 1.6 (Eckstein and Bertsekas,
Math. Programming 1992; Boyd et al., "Distributed Optimization and
Statistical Learning via ADMM", 2011, section 3.4.3). The fixed points are
those of plain ADMM; the residuals and the stopping rule use the unrelaxed
outputs.

The penalty rho is balanced while the solve runs. ``SolverConfig.rho`` is
only the starting value: every 50 iterations rho is scaled by
sqrt((r_pri / s_pri) / (r_dual / s_dual)), the primal and dual residuals
each over the scale its relative tolerance uses, clamped to [1/4, 4] and
skipped when it lies within [1/2, 2]; the scaled multipliers U_i are divided
by the same factor, so the unscaled duals rho U_i carry on unchanged
(residual balancing, Boyd et al. 2011, section 3.4.1, on normalized
residuals as in OSQP, Stellato et al., Math. Prog. Comp. 2020). The affine
projection does not depend on rho, so a change costs nothing but the new
gradient step (1/rho) I and shrinkage threshold.

The cone step is warm-started. The program looks for a rank-one optimum
x x^T, so near it the cone input Z - U2 has exactly one positive eigenvalue.
``project_psd`` takes the previous cone output as a start, its row of
largest diagonal, and takes one Rayleigh-quotient step to a pair (lam, v),
A the symmetrized input. It then proves that no other eigenvalue of A is
positive: a Cholesky factorization of 2 lam v v^T - A must succeed. That
matrix is then positive definite, so A < 2 lam v v^T, whose second
eigenvalue is 0; by Weyl's inequalities A's second eigenvalue is negative,
whatever v is. At most two more steps then refine (lam, v) until the
residual ||A v - lam v|| is below 1e-13 lam: lam is A's positive eigenvalue
to within the residual, and lam v v^T is the projection to roundoff. When
any step fails the full eigendecomposition runs instead, so the output is
the same map either way and the start is not a setting. Each step cubes the
tangent of the start's angle to the eigenvector, so three steps accept
starts up to about 15 degrees off, two only about 2. On the seed-42
ensembles the fallbacks left, about 6 per solve, are mostly inputs with two
or more positive eigenvalues, in iterations 2-6; the Cholesky proof refuses
them after one step.

Within a solve the proof is reused. The loop first factors
2 lam v v^T - A - delta I with the margin delta = lam / 100; when that
succeeds, A's second eigenvalue is below -delta, and (A, delta) becomes the
solve's anchor (``InertiaProof``). A later input A' with ||A' - A||_F < delta
differs from A by less than delta in every eigenvalue (Weyl again, the
spectral norm being at most the Frobenius one), so its second eigenvalue is
still negative, and its Rayleigh-quotient steps need no factorization. Near
convergence the input moves by less than that margin from one iteration to
the next: about half the cone steps of the seed-42 ensembles are proven by
that one distance check. An input outside the anchor's reach is proven
afresh, and becomes the anchor when the margin proof holds; when only the
plain proof holds, the anchor stays. So every input the plain proof accepts
is still accepted, and the outputs are those of the plain proof bit for bit
wherever both accept. Until the first anchor the plain proof runs first,
so that an early input with two positive eigenvalues costs one
factorization, not two.

The loop runs on packed vectors, the svec form in which SCS keeps its PSD
cone variables (O'Donoghue et al., J. Optim. Theory Appl. 2016): a symmetric
dim x dim matrix is held as its dim (dim + 1) / 2 upper-triangle entries,
row by row, the off-diagonal ones times sqrt(2), so that every inner product
and norm of the loop is the Frobenius one. The state (Z, U1, U2), the
Anderson memory, the block outputs and the residuals are all such vectors;
the affine step projects them directly, the gradient step (1/rho) I lands on
the dim diagonal entries, and the shrinkage threshold is scaled by the same
sqrt(2) off the diagonal. The cone step is the only matrix: it unpacks
Z - U2 once and packs its output. X and the multipliers are unpacked once,
for the report.

The iteration is Anderson-accelerated (type II; Walker and Ni, SIAM J.
Numer. Anal. 2011; Zhang, O'Donoghue and Boyd, SIAM J. Optim. 2020, the
scheme of SCS 3.0). One ADMM iteration is a map T on the state x = (Z, U1,
U2), and g = T(x) - x is its fixed-point residual. From iteration 20 on, the
last m = 8 differences Delta g_i and Delta F_i (F = T(x)) are kept, gamma
solves the m x m least-squares system (Delta G' Delta G + D) gamma =
Delta G' g, D the diagonal of Delta G' Delta G times 1e-10 (Tikhonov), and
the next state is T(x) - Delta F gamma instead of T(x). The memory is
cleared whenever ||g|| grows and at every change of rho, whose rescaled
multipliers make the old differences meaningless. When ||g|| grows at an
extrapolated state, that state is also rejected: the next iteration starts
from the T(x) it replaced, as SCS's safeguard does. Without the rejection, a
phase in which the multipliers drift at a constant g (Delta g at roundoff,
gamma arbitrary) sends the iterate far off; that happens when rho starts far
too small. The stopping rule, the balancing, the plateau test and the
returned iterate and multipliers all take T(x), the output of an ADMM
iteration, never the extrapolated state.

The loop's LAPACK calls (the Rayleigh-quotient solves, the Cholesky proofs,
the fallback eigh and the Anderson m x m solve) go through ``_solve``,
``_cholesky`` and ``_eigh``. Each calls the gufunc of
``numpy.linalg._umath_linalg`` that its np.linalg counterpart calls, with
the same signature and error state, so the bits and the LinAlgError
messages are numpy's; what it skips is the wrapper's argument conversion
and checks, about 3-4 us a call, which at dim 21 is a third of a solve and
close to half of a Cholesky factorization. Calls made once per solve (the
cache build, the report's eigvalsh) stay on np.linalg. The seam is also
where tests count and break the loop's kernels.

At dim 21 numpy's dispatch costs an iteration more than its arithmetic, so
the loop works in buffers made once per solve, passes scalars as 0-d arrays
and multiplies by ``dot`` (the gemv of ``@``, with less dispatch). The dual
residual is computed only where it is read: by the stopping rule once the
primal residual passes, by the balancing, and on the last iteration allowed.

All steps are deterministic: identical problem and config give a bitwise
identical iterate sequence.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from enum import Enum

import numpy as np
from numpy.linalg._umath_linalg import cholesky_lo, eigh_lo, solve1

from .lifting import AffineCache, LiftedProblem, packed_index


# The loop's LAPACK seam (see the module docstring). Callers pass square
# float64 matrices only, and b a float64 vector: on those, every check and
# conversion of np.linalg's skipped wrapper is a no-op.

def _lapack_errors(message: str) -> np.errstate:
    def fail(err, flag):
        raise np.linalg.LinAlgError(message)
    return np.errstate(call=fail, invalid="call", over="ignore", divide="ignore",
                       under="ignore")


@_lapack_errors("Singular matrix")
def _solve(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``np.linalg.solve(a, b)`` for a square a and a vector b."""
    return solve1(a, b, signature="dd->d")


@_lapack_errors("Matrix is not positive definite")
def _cholesky(a: np.ndarray) -> np.ndarray:
    """``np.linalg.cholesky(a)``: the lower factor."""
    return cholesky_lo(a, signature="d->d")


@_lapack_errors("Eigenvalues did not converge")
def _eigh(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``np.linalg.eigh(a)`` as a plain (eigenvalues, eigenvectors) pair."""
    return eigh_lo(a, signature="d->dd")


class SolverError(RuntimeError):
    """A numerical kernel failed mid-solve (carries the iteration index)."""

    def __init__(self, message: str, iteration: int):
        super().__init__(f"{message} (iteration {iteration})")
        self.iteration = iteration


class SolveStatus(Enum):
    CONVERGED = "converged"
    MAX_ITERS = "max_iters"
    INFEASIBLE = "infeasible"


@dataclass
class SolverConfig:
    """Solver knobs. ``lam`` is the l1 weight of the objective, ``rho`` the
    initial ADMM penalty (the solver balances it, see the module docstring),
    ``max_iters`` the iteration cap and ``eps_abs`` / ``eps_rel`` the
    absolute and relative parts of the stopping rule. The default tolerances
    are the ensemble harness's, tight enough for the dual certificate of
    ``recovery`` to hold on small problems with a unique optimum."""

    lam: float = 0.0
    rho: float = 1.0
    max_iters: int = 20000
    eps_abs: float = 1e-9
    eps_rel: float = 1e-7

    def __post_init__(self):
        # written so that nan fails every test; bool is an Integral, and True
        # would pass as one iteration
        if not (math.isfinite(self.lam) and self.lam >= 0):
            raise ValueError("lam must be finite and >= 0")
        if not (math.isfinite(self.rho) and self.rho > 0):
            raise ValueError("rho must be finite and > 0")
        if (isinstance(self.max_iters, bool)
                or not isinstance(self.max_iters, numbers.Integral)
                or self.max_iters < 1):
            raise ValueError("max_iters must be an integer >= 1")
        if not all(math.isfinite(e) and e > 0 for e in (self.eps_abs, self.eps_rel)):
            raise ValueError("tolerances must be finite and > 0")


@dataclass
class SolveReport:
    """Solver output: final consensus iterate, final multipliers and
    diagnostics.

    ``X``, ``dual_affine`` and ``dual_psd`` are dim x dim symmetric
    matrices, unpacked once at exit from the loop's packed state (see the
    module docstring); the cone step is the only other place the solver
    holds a matrix. ``dual_affine`` and ``dual_psd`` are the scaled
    multipliers rho * U1 and rho * U2 at exit, and ``rho`` is the penalty
    at exit (the starting penalty if balancing never changed it). At an
    exact fixed point I + dual_affine is a combination sum_i w_i C_i of the
    constraint matrices, dual_psd is the PSD slack, and their sum lies in
    lam times the subdifferential of ||X||_1: together with ``lam`` they are
    the dual point the recovery certificate checks. ``infeasibility_lb`` is
    the affine cache's provable lower bound on the constraint violation of
    every matrix; it tells apart the two causes of INFEASIBLE: proven before
    the first iteration (lb above the feasibility tolerance; 0 iterations,
    zero multipliers, X the least-squares iterate of ``solve_nlbp``) or a
    plateau at the iteration cap (lb near 0). ``accelerated`` counts the
    iterations that handed an Anderson-extrapolated state to the next one.
    """

    X: np.ndarray
    iterations: int
    primal_residual: float
    dual_residual: float
    objective: float
    constraint_violation: float
    min_eigenvalue: float
    status: SolveStatus
    lam: float
    infeasibility_lb: float
    dual_affine: np.ndarray
    dual_psd: np.ndarray
    rho: float
    accelerated: int = 0


# The rank-one cone step (see the module docstring): at most this many
# Rayleigh-quotient steps, and acceptance once ||A v - lam v|| <= tol * lam.
# The certified gap is at least lam, so v is then within an angle tol of the
# eigenvector and lam v v^T within about 2 tol lam of the projection.
_RANK_ONE_STEPS = 3
_RANK_ONE_TOL = 1e-13

# The margin of an anchored inertia proof, as a fraction of the Rayleigh
# quotient it was proven with: 2 lam v v^T - A - (lam / 100) I > 0 holds for
# every later input within lam / 100 of A in Frobenius norm.
_PROOF_MARGIN = 1e-2


@dataclass
class InertiaProof:
    """The cone step's last margin proof within one solve: ``anchor`` (a
    copy of the input A it was proven on, None before the first) has its
    second eigenvalue below -``margin``, so by Weyl's inequalities every
    symmetric A' with ||A' - A||_F < margin has at most one positive
    eigenvalue (see the module docstring)."""

    anchor: np.ndarray | None = None
    margin: float = 0.0


def project_psd(X: np.ndarray, start: np.ndarray | None = None,
                proof: InertiaProof | None = None) -> np.ndarray:
    """Frobenius-nearest positive semidefinite matrix: clamp negative
    eigenvalues of the symmetrized input, a square matrix, to zero.

    ``start`` is an optional warm start: a symmetric matrix near the
    projection, such as the previous iterate's. With it, a certified
    rank-one step is tried first (``_rank_one_projection``); the full
    eigendecomposition runs whenever that step cannot prove its answer, so
    the result is the projection to roundoff with or without a start.

    ``proof`` is the solver's per-solve anchor (see ``InertiaProof``): the
    rank-one step reads it and replaces it by each new margin proof. With a
    proof, X must be an exactly symmetric float array, as an ``smat`` output
    is, and start a float array; both are used as they are."""
    if proof is None:
        X = np.asarray(X, dtype=float)
        X, start = 0.5 * (X + X.T), None if start is None else np.asarray(start, dtype=float)
    if start is not None:
        out = _rank_one_projection(X, start, proof)
        if out is not None:
            return out
    vals, vecs = _eigh(X)
    out = (vecs * np.maximum(vals, 0.0)) @ vecs.T
    return 0.5 * (out + out.T)


def _rank_one_projection(sym: np.ndarray, start: np.ndarray,
                         proof: InertiaProof | None = None) -> np.ndarray | None:
    """lam v v^T when the symmetric ``sym`` provably has exactly one positive
    eigenvalue lam, v its unit eigenvector refined by Rayleigh-quotient
    iteration from the row of ``start`` with the largest diagonal; None when
    that row is zero, lam <= 0, the inertia proof after the first step
    (``_prove_inertia``) fails, or the residual stays above tolerance."""
    # array methods and math.sqrt, not np.* functions or @ (a.dot(v) is the
    # same gemv): at dim 21 their dispatch costs several microseconds
    v = start[start.diagonal().argmax()]
    norm = math.sqrt(v.dot(v))
    if not norm > 0:
        return None
    v = v / norm
    lam = v.dot(sym.dot(v))
    if not lam > 0:
        return None
    shifted = sym.copy()
    diagonal = shifted.reshape(-1)[::len(v) + 1]
    sym_diagonal = sym.diagonal()
    try:
        for step in range(_RANK_ONE_STEPS):
            np.subtract(sym_diagonal, lam, out=diagonal)  # sym - lam I, bit for bit
            w = _solve(shifted, v)
            v = w / math.sqrt(w.dot(w))
            Av = sym.dot(v)
            lam = v.dot(Av)
            if not lam > 0:
                return None
            if step == 0:
                # the inertia proof holds for any unit v, so an input with a
                # second positive eigenvalue is refused before any refinement
                _prove_inertia(sym, lam, v, proof)
            r = Av - lam * v
            if math.sqrt(r.dot(r)) <= _RANK_ONE_TOL * lam:
                w = math.sqrt(lam) * v
                return w[:, None] * w  # bitwise symmetric: w_i w_j == w_j w_i
    except np.linalg.LinAlgError:
        return None
    return None


def _prove_inertia(sym: np.ndarray, lam: float, v: np.ndarray,
                   proof: InertiaProof | None) -> None:
    """Return when ``sym`` provably has at most one positive eigenvalue, and
    raise LinAlgError when the proof fails: no factorization when sym lies
    within ``proof``'s margin of its anchor, else the Cholesky factorization
    of 2 lam v v^T - sym - delta I, delta = lam / 100, which on success
    becomes the new anchor, and when that fails (or without a proof) the
    plain one of 2 lam v v^T - sym. Before a solve's first anchor the plain
    proof runs first and the margin one only once it holds: the inputs of
    the first iterations mostly have two positive eigenvalues, which both
    proofs refuse."""
    anchored = proof is not None and proof.anchor is not None
    if anchored and _norm(sym - proof.anchor) < proof.margin:
        return
    w = math.sqrt(2.0 * lam) * v
    gap = w[:, None] * w - sym
    if proof is not None:
        if not anchored:
            _cholesky(gap)
        diagonal = gap.reshape(-1)[::len(v) + 1]
        plain = diagonal.copy()
        margin = _PROOF_MARGIN * lam
        diagonal -= margin
        try:
            _cholesky(gap)
        except np.linalg.LinAlgError:
            if not anchored:
                return
            diagonal[...] = plain
        else:
            proof.anchor, proof.margin = sym.copy(), margin
            return
    _cholesky(gap)


def soft_threshold(Z: np.ndarray, t: float | np.ndarray) -> np.ndarray:
    """Elementwise sign(z) * max(|z| - t, 0); symmetry is preserved. ``t`` is
    a scalar or an array of thresholds that broadcasts against Z."""
    if np.min(t) < 0:
        raise ValueError("threshold must be >= 0")
    return _shrink(np.asarray(Z, dtype=float), t)


def _shrink(Z: np.ndarray, t) -> np.ndarray:
    """``soft_threshold`` without its argument check, for the loop, whose
    thresholds are nonnegative by construction."""
    return np.sign(Z) * np.maximum(np.abs(Z) - t, 0.0)


def _norm(A: np.ndarray) -> float:
    """Frobenius norm, computed exactly as ``np.linalg.norm(A)`` computes it
    (the dot product of the K-order ravel with itself, then its square root)
    without that function's argument dispatch."""
    v = A.ravel(order="K")
    return math.sqrt(v.dot(v))


# Over-relaxation factor alpha (see the module docstring). At 1.6 the seed-42
# ensembles take about a third fewer iterations than at 1; 1.7 and 1.8 take
# fewer still on the dense ensemble but more on table1 and at n = 8.
_RELAX = 1.6

# Penalty balancing (see the module docstring): the check interval, the
# clamp on one step's factor and the dead band inside which rho is kept. The
# clamp matters: unclamped, a stalled dual residual can cut rho by 1e12 in
# three steps, after which the iterates no longer move.
_ADAPT_EVERY = 50
_ADAPT_CLAMP = 4.0
_ADAPT_BAND = 2.0

# Anderson acceleration (see the module docstring): the memory m, the
# iteration from which the memory fills (the first extrapolation comes one
# later), and the Tikhonov weight of the m x m solve, relative to each
# difference's own squared norm. On the seed-7 ensembles the iteration totals
# are the same for every weight from 1e-14 to 1e-6.
_AA_MEMORY = 8
_AA_START = 20
_AA_REG = 1e-10


def _feasibility_tolerance(cache: AffineCache) -> float:
    rhs_max = float(np.max(np.abs(cache.rhs_raw))) if len(cache.rhs_raw) else 0.0
    return 1e-6 * (1.0 + rhs_max)


def _penalty_factor(primal, primal_scale, dual, dual_scale) -> float:
    """Factor by which to scale rho so that the normalized primal and dual
    residuals balance, or 1.0 to keep it."""
    if primal_scale == 0 or dual_scale == 0 or dual == 0:
        return 1.0
    factor = math.sqrt((primal / primal_scale) / (dual / dual_scale))
    factor = min(max(factor, 1.0 / _ADAPT_CLAMP), _ADAPT_CLAMP)
    if 1.0 / _ADAPT_BAND <= factor <= _ADAPT_BAND:
        return 1.0
    return factor


def solve_nlbp(problem: LiftedProblem, config: SolverConfig | None = None) -> SolveReport:
    """Run over-relaxed, Anderson-accelerated consensus ADMM on the lifted
    program until the combined primal and dual residuals meet the
    absolute-plus-relative stopping rule, or the iteration cap is reached.
    The primal residual is measured on the unrelaxed block outputs, the dual
    residual on the change of the consensus iterate from the iteration's
    (possibly extrapolated) input. The penalty starts at ``config.rho`` and
    is rebalanced every ``_ADAPT_EVERY`` iterations.

    A system ``problem.affine`` proves inconsistent returns INFEASIBLE at
    iteration 0, with the first affine step (the affine least-squares point)
    projected onto the PSD cone. Otherwise INFEASIBLE means the residuals
    plateaued at the cap above the feasibility tolerance 1e-6 * (1 + max |v_i|).
    A penalty that grows until rho ||(U1, U2)|| overflows, as on a consistent
    lift with no PSD point, raises SolverError at that balancing step.
    """
    if config is None:
        config = SolverConfig()
    cache = problem.affine
    dim = problem.dim
    rho = config.rho
    # everything but the cone step works on svec vectors (see the module docstring)
    index = packed_index(dim)
    weight = index.weight
    feas_tol = _feasibility_tolerance(cache)
    if cache.infeasibility_lb > feas_tol:
        # Proven inconsistent: no iterate can become feasible, so return the
        # first affine step (the least-squares point) projected onto the cone.
        affine = index.smat(cache.project(index.svec(-(1.0 / rho) * np.eye(dim))))
        try:
            X = project_psd(affine)
        except np.linalg.LinAlgError as exc:
            raise SolverError(f"eigendecomposition failed: {exc}", 0) from exc
        return _report(X, 0, np.linalg.norm(affine - X), 0.0, cache.violation(X),
                       SolveStatus.INFEASIBLE, cache, config, rho,
                       np.zeros((dim, dim)), np.zeros((dim, dim)))

    sqrt2, max_iters, eps_rel = math.sqrt(2.0), config.max_iters, config.eps_rel
    abs_floor = sqrt2 * dim * config.eps_abs  # sqrt2 dim: sqrt of the stacked primal dimension
    # formed anew only when rho changes: the gradient step (1/rho) I, packed
    # (0 off the diagonal, and a - 0 == a), the shrinkage thresholds and
    # the bounds of u1 + u2, twice the thresholds
    eye = index.svec(np.eye(dim))
    threshold = config.lam / (2.0 * rho)
    gradient, thresholds = eye / rho, threshold * weight
    bounds = 2.0 * thresholds

    # Anderson acceleration works on the flat state x = (z, u1, u2), the
    # iteration's input, and on f = T(x), its output, each a tuple of a
    # preallocated vector and its views (flat, z, u, u1, u2), u the rows u1,
    # u2. Two buffers take turns holding T(x). Each iteration writes over the
    # T(x) before last, since x is ``f_prev``, the previous T(x), or the
    # ``extrapolated`` state; a rejection swaps f and f_prev back. ``g_prev``
    # is the previous g = T(x) - x (g and g_prev take turns in two buffers),
    # None after the memory was cleared, and ``jumped`` says whether x was
    # extrapolated. The rings ``delta_g`` and ``delta_f`` hold the
    # differences Delta g and Delta F; row ``head`` is written next.
    packed = len(weight)
    size = 3 * packed
    def buffer():
        flat = np.zeros(size)
        u = flat[packed:].reshape(2, packed)
        return flat, flat[:packed], u, u[0], u[1]
    x = f = buffer()
    f_prev, extrapolated = buffer(), buffer()
    g_prev, g_prev_sq, jumped = None, np.inf, False
    g, g_spare = np.empty(size), np.empty(size)
    delta_g = np.empty((_AA_MEMORY, size))
    delta_f = np.empty((_AA_MEMORY, size))
    gram = np.empty((_AA_MEMORY, _AA_MEMORY))  # delta_g[i] . delta_g[j]
    projected = np.zeros(_AA_MEMORY)  # delta_g[i] . g
    # their views, made once: by slot, and by the number of slots filled
    slots = [(delta_g[i], delta_f[i], gram[i], gram[:, i]) for i in range(_AA_MEMORY)]
    fills = [(delta_g[:k], delta_f[:k], gram[:k, :k], projected[:k])
             for k in range(_AA_MEMORY + 1)]
    filled = head = accelerated = 0

    converged = False
    primal = dual = np.inf
    primal_checkpoint = np.inf  # primal residual at 3/4 of the budget
    checkpoint_at = max(1, (3 * max_iters) // 4)
    iteration = 0

    # per-solve buffers and 0-d constants (see the module docstring)
    x1, x2 = blocks = np.empty((2, packed))
    affine_in, cone_in, relaxed, clipped = np.empty((4, packed))
    residual = np.empty((2, packed))
    subtract, multiply, add = np.subtract, np.multiply, np.add
    relax, keep, half = np.array(_RELAX), np.array(1.0 - _RELAX), np.array(0.5)
    X2 = None  # the previous cone output warm-starts the next cone step
    proof = InertiaProof()
    for iteration in range(1, max_iters + 1):
        f, f_prev = f_prev, f
        x_flat, z_prev, u_prev, u1_prev, u2_prev = x
        f_flat, z, v, v1, v2 = f
        subtract(z_prev, u1_prev, out=affine_in)
        affine_in -= gradient
        x1[...] = cache.project(affine_in)
        try:
            # a start only once there is one, so that a one-argument
            # stand-in for project_psd (perfbench's raising-solver test)
            # still gets the call it expects
            M = index.smat(subtract(z_prev, u2_prev, out=cone_in))
            X2 = project_psd(M) if X2 is None else project_psd(M, X2, proof=proof)
        except np.linalg.LinAlgError as exc:
            raise SolverError(f"eigendecomposition failed: {exc}", iteration) from exc
        multiply(X2.ravel()[index.upper], weight, out=x2)

        # v_i = h_i + u_i, where h_i = alpha x_i + (1 - alpha) z_prev is the
        # relaxed output of block i
        multiply(blocks, relax, out=v)
        multiply(z_prev, keep, out=relaxed)
        v1 += relaxed
        v2 += relaxed
        v += u_prev
        add(v1, v2, out=z)
        if threshold > 0:
            # u1 + u2 = v1 + v2 - 2 z is v1 + v2 clipped to twice the
            # thresholds. u2 is taken from that clip, so that rho (u1 + u2)
            # lies in the l1 subgradient's [-lam, lam] to rounding at the
            # scale of the duals; v2 - z would round at the scale rho |z|
            np.clip(z, -bounds, bounds, out=clipped)
            multiply(z, half, out=z)
            z[...] = _shrink(z, thresholds)
            v1 -= z  # now the multipliers u1, u2 of T(x)
            subtract(clipped, v1, out=v2)
        else:  # at lam = 0 the shrinkage is the identity
            multiply(z, half, out=z)
            v1 -= z  # now the multipliers u1, u2 of T(x)
            v2 -= z

        # the residuals and tolerances take the unrelaxed x1, x2; the dual
        # residual is computed only where it is read (see the module docstring)
        subtract(x1, z, out=residual[0])
        subtract(x2, z, out=residual[1])
        primal = _norm(residual)
        primal_scale = max(_norm(blocks), sqrt2 * _norm(z))
        eps_pri = abs_floor + eps_rel * primal_scale
        adapt = iteration % _ADAPT_EVERY == 0
        if primal <= eps_pri or adapt or iteration == max_iters:
            dual = rho * sqrt2 * _norm(z - z_prev)
            if primal <= eps_pri and dual <= abs_floor + eps_rel * rho * _norm(v):
                converged = True
                break
        if iteration == checkpoint_at:
            primal_checkpoint = primal
        if adapt:
            dual_scale = rho * _norm(v)
            if not math.isfinite(dual_scale):
                # rho grew without bound (a consistent lift with no PSD
                # point): the balancing has nothing left to compare
                raise SolverError(f"penalty rho = {rho:.3g} overflowed the dual scale",
                                  iteration)
            factor = _penalty_factor(primal, primal_scale, dual, dual_scale)
            if factor != 1.0:
                rho *= factor
                v /= factor
                threshold = config.lam / (2.0 * rho)
                gradient, thresholds = eye / rho, threshold * weight
                bounds = 2.0 * thresholds
                # the scaled multipliers moved: the memory no longer applies
                filled = head = 0
                g_prev, g_prev_sq, jumped = None, np.inf, False
                x = f
                continue
        if iteration < _AA_START:
            x = f
            continue

        g, g_spare = g_spare, g  # g_prev stays in the other buffer
        g_sq = subtract(f_flat, x_flat, out=g).dot(g)
        if jumped and g_sq > g_prev_sq:
            # the extrapolation made things worse: undo it, and go on from
            # the previous T(x) as a plain iteration would have
            filled = head = 0
            f, f_prev = f_prev, f
            x, g_prev, jumped = f, None, False
            continue
        x, jumped = f, False
        if g_sq > g_prev_sq:
            filled = head = 0
        elif g_prev is not None:
            dg, df, gram_row, gram_col = slots[head]
            subtract(g, g_prev, out=dg)
            subtract(f_flat, f_prev[0], out=df)
            filled = min(filled + 1, _AA_MEMORY)
            dgs, dfs, gram_k, projected_k = fills[filled]
            row = dgs.dot(dg)
            # delta_g[i] . g follows from its value at the previous g by one
            # Gram row; only the new difference needs its own product
            projected_k += row
            projected[head] = dg.dot(g)
            row[head] *= 1.0 + _AA_REG
            gram_row[:filled] = row
            gram_col[:filled] = row
            head = (head + 1) % _AA_MEMORY
            try:
                gamma = _solve(gram_k, projected_k)
            except np.linalg.LinAlgError:  # no differences left: plain step
                filled = head = 0
            else:
                step = np.dot(gamma, dfs, out=extrapolated[0])
                subtract(f_flat, step, out=step)
                x, jumped = extrapolated, True
                accelerated += 1
        g_prev, g_prev_sq = g, g_sq

    X = index.smat(z)
    violation = cache.violation(X)
    # A plateau call needs a meaningful budget: a run cut off after a handful
    # of iterations is just unfinished.
    plateaued = max_iters >= 200 and primal >= 0.5 * primal_checkpoint
    if converged:
        status = SolveStatus.CONVERGED
    elif violation > feas_tol and plateaued:
        # Budget exhausted with residuals plateaued above tolerance.
        status = SolveStatus.INFEASIBLE
    else:
        status = SolveStatus.MAX_ITERS
    return _report(X, iteration, primal, dual, violation, status, cache, config,
                   rho, index.smat(rho * v1), index.smat(rho * v2), accelerated)


def _report(X, iterations, primal, dual, violation, status, cache, config, rho,
            dual_affine, dual_psd, accelerated=0) -> SolveReport:
    return SolveReport(
        X=X,
        iterations=iterations,
        primal_residual=float(primal),
        dual_residual=float(dual),
        objective=float(np.trace(X) + config.lam * np.sum(np.abs(X))),
        constraint_violation=violation,
        min_eigenvalue=float(np.linalg.eigvalsh(0.5 * (X + X.T))[0]),
        status=status,
        lam=config.lam,
        infeasibility_lb=cache.infeasibility_lb,
        dual_affine=dual_affine,
        dual_psd=dual_psd,
        rho=float(rho),
        accelerated=accelerated,
    )
