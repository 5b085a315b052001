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
wherever both accept.

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

All steps are deterministic: identical problem and config give a bitwise
identical iterate sequence.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .lifting import AffineCache, LiftedProblem, packed_index
from .monomials import checked_float, checked_int


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

    def covers(self, sym: np.ndarray) -> bool:
        if self.anchor is None:
            return False
        return _norm(sym - self.anchor) < self.margin


def project_psd(X: np.ndarray, start: np.ndarray | None = None,
                proof: InertiaProof | None = None) -> np.ndarray:
    """Frobenius-nearest positive semidefinite matrix: clamp negative
    eigenvalues of the symmetrized input to zero.

    ``start`` is an optional warm start: a symmetric matrix near the
    projection, such as the previous iterate's. With it, a certified
    rank-one step is tried first (``_rank_one_projection``); the full
    eigendecomposition runs whenever that step cannot prove its answer, so
    the result is the projection to roundoff with or without a start.

    ``proof`` is the solver's per-solve anchor (see ``InertiaProof``): the
    rank-one step reads it and replaces it by each new margin proof. With a
    proof, X must be exactly symmetric, as an ``smat`` output is, and is
    used as it is."""
    X = np.asarray(X, dtype=float)
    sym = X if proof is not None else 0.5 * (X + X.T)
    if start is not None:
        out = _rank_one_projection(sym, np.asarray(start, dtype=float), proof)
        if out is not None:
            return out
    vals, vecs = np.linalg.eigh(sym)
    out = (vecs * np.maximum(vals, 0.0)) @ vecs.T
    return 0.5 * (out + out.T)


def _rank_one_projection(sym: np.ndarray, start: np.ndarray,
                         proof: InertiaProof | None = None) -> np.ndarray | None:
    """lam v v^T when the symmetric ``sym`` provably has exactly one positive
    eigenvalue lam, v its unit eigenvector refined by Rayleigh-quotient
    iteration from the row of ``start`` with the largest diagonal; None when
    that row is zero, lam <= 0, the inertia proof after the first step
    (``_prove_inertia``) fails, or the residual stays above tolerance."""
    # array methods, not np.* functions: at dim 21 their dispatch costs
    # several microseconds
    v = start[start.diagonal().argmax()]
    norm = np.sqrt(v.dot(v))
    if not norm > 0:
        return None
    v = v / norm
    lam = v.dot(sym @ v)
    if not lam > 0:
        return None
    shifted = sym.copy()
    diagonal = shifted.reshape(-1)[::len(v) + 1]
    try:
        for step in range(_RANK_ONE_STEPS):
            np.subtract(sym.diagonal(), lam, out=diagonal)  # sym - lam I, bit for bit
            w = np.linalg.solve(shifted, v)
            v = w / np.sqrt(w.dot(w))
            Av = sym @ v
            lam = v.dot(Av)
            if not lam > 0:
                return None
            if step == 0:
                # the inertia proof holds for any unit v, so an input with a
                # second positive eigenvalue is refused before any refinement
                _prove_inertia(sym, lam, v, proof)
            r = Av - lam * v
            if np.sqrt(r.dot(r)) <= _RANK_ONE_TOL * lam:
                w = np.sqrt(lam) * v
                return w[:, None] * w  # bitwise symmetric: w_i w_j == w_j w_i
    except np.linalg.LinAlgError:
        return None
    return None


def _prove_inertia(sym: np.ndarray, lam: float, v: np.ndarray,
                   proof: InertiaProof | None) -> None:
    """Return when ``sym`` provably has at most one positive eigenvalue, and
    raise LinAlgError when the proof fails: no factorization when ``proof``
    covers sym, else the Cholesky factorization of 2 lam v v^T - sym - delta I,
    delta = lam / 100, which on success becomes the new anchor, and when
    that fails (or without a proof) the plain one of 2 lam v v^T - sym."""
    if proof is not None and proof.covers(sym):
        return
    w = np.sqrt(2.0 * lam) * v
    gap = w[:, None] * w - sym
    if proof is not None:
        diagonal = gap.reshape(-1)[::len(v) + 1]
        plain = diagonal.copy()
        margin = _PROOF_MARGIN * lam
        diagonal -= margin
        try:
            np.linalg.cholesky(gap)
        except np.linalg.LinAlgError:
            diagonal[...] = plain
        else:
            proof.anchor, proof.margin = sym.copy(), margin
            return
    np.linalg.cholesky(gap)


def soft_threshold(Z: np.ndarray, t: float | np.ndarray) -> np.ndarray:
    """Elementwise sign(z) * max(|z| - t, 0); symmetry is preserved. ``t`` is
    a scalar or an array of thresholds that broadcasts against Z."""
    if np.min(t) < 0:
        raise ValueError("threshold must be >= 0")
    Z = np.asarray(Z, dtype=float)
    return np.sign(Z) * np.maximum(np.abs(Z) - t, 0.0)


def _norm(A: np.ndarray) -> np.float64:
    """Frobenius norm, computed exactly as ``np.linalg.norm(A)`` computes it
    (the dot product of the K-order ravel with itself, then its square root)
    without that function's argument dispatch."""
    v = A.ravel(order="K")
    return np.sqrt(v.dot(v))


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
    """
    if config is None:
        config = SolverConfig()
    cache = problem.affine
    dim = problem.dim
    rho = config.rho
    # Everything but the cone step works on svec vectors (see the module
    # docstring); ``diagonal`` holds the packed positions of the diagonal,
    # where the trace objective's gradient step (1/rho) I lands.
    index = packed_index(dim)
    diagonal = index.cell.diagonal()
    shift = 1.0 / rho
    feas_tol = _feasibility_tolerance(cache)
    if cache.infeasibility_lb > feas_tol:
        # Proven inconsistent: no iterate can become feasible, so return the
        # first affine step (the least-squares point) projected onto the cone.
        affine = index.smat(cache.project(index.svec(-shift * np.eye(dim))))
        try:
            X = project_psd(affine)
        except np.linalg.LinAlgError as exc:
            raise SolverError(f"eigendecomposition failed: {exc}", 0) from exc
        return _report(X, 0, np.linalg.norm(affine - X), 0.0, cache.violation(X),
                       SolveStatus.INFEASIBLE, cache, config, rho,
                       np.zeros((dim, dim)), np.zeros((dim, dim)))

    threshold = config.lam / (2.0 * rho)
    scale = np.sqrt(2.0) * dim  # sqrt of the stacked primal dimension
    abs_floor = scale * config.eps_abs

    # Anderson acceleration works on the flat state x = (z, u1, u2). Each
    # iteration writes g = T(x) - x and T(x) side by side into the pair of its
    # parity, so one subtraction of the previous pair puts both differences,
    # Delta g and Delta F, into the ring buffer. An extrapolated state and a
    # T(x) restored after a rejected extrapolation have buffers of their own;
    # ``states`` are the (3, packed) views of the four places x can live.
    packed = len(index.weight)
    size = 3 * packed
    pairs = np.zeros((2, 2, size))
    extrapolated = np.empty(size)
    restored = np.empty(size)
    flats = (pairs[0, 1], pairs[1, 1], extrapolated, restored)
    states = tuple(x.reshape(3, packed) for x in flats)
    deltas = np.empty((2, _AA_MEMORY, size))  # column head is written next
    delta_g, delta_f = deltas
    correction = np.empty(size)
    gram = np.empty((_AA_MEMORY, _AA_MEMORY))  # delta_g[i] . delta_g[j]
    projected = np.zeros(_AA_MEMORY)  # delta_g[i] . g
    state = filled = head = accelerated = 0
    have_prev, g_prev_sq = False, np.inf

    converged = False
    primal = dual = np.inf
    primal_checkpoint = np.inf  # primal residual at 3/4 of the budget
    checkpoint_at = max(1, (3 * config.max_iters) // 4)
    iteration = 0

    blocks = np.empty((2, packed))  # the affine and cone outputs x1, x2
    X2 = None  # the previous cone output warm-starts the next cone step
    proof = InertiaProof()
    for iteration in range(1, config.max_iters + 1):
        z_prev, u_prev = states[state][0], states[state][1:]
        out = iteration & 1
        z, v = states[out][0], states[out][1:]
        a = z_prev - u_prev[0]
        a[diagonal] -= shift
        blocks[0] = cache.project(a)
        try:
            # a start only once there is one, so that a one-argument
            # stand-in for project_psd (perfbench's raising-solver test)
            # still gets the call it expects
            M = index.smat(z_prev - u_prev[1])
            X2 = project_psd(M) if X2 is None else project_psd(M, X2, proof=proof)
        except np.linalg.LinAlgError as exc:
            raise SolverError(f"eigendecomposition failed: {exc}", iteration) from exc
        blocks[1] = X2.ravel()[index.upper] * index.weight

        # v_i = h_i + u_i, where h_i = alpha x_i + (1 - alpha) z_prev is the
        # relaxed output of block i; built in place, because every temporary
        # array costs about a microsecond
        np.multiply(blocks, _RELAX, out=v)
        v += (1.0 - _RELAX) * z_prev
        v += u_prev
        np.add(v[0], v[1], out=z)
        z *= 0.5
        if threshold > 0:  # at lam = 0 the shrinkage is the identity
            # an off-diagonal svec entry is sqrt(2) times its matrix cell
            z[...] = soft_threshold(z, threshold * index.weight)
        v -= z  # now the multipliers u1, u2 of T(x)

        # the residuals and tolerances take the unrelaxed x1, x2
        primal = _norm(blocks - z)
        dual = rho * np.sqrt(2.0) * _norm(z - z_prev)

        primal_scale = max(_norm(blocks), np.sqrt(2.0) * _norm(z))
        eps_pri = abs_floor + config.eps_rel * primal_scale
        if primal <= eps_pri:  # only then is the dual tolerance needed
            eps_dual = abs_floor + config.eps_rel * rho * _norm(v)
            if dual <= eps_dual:
                converged = True
                break
        if iteration == checkpoint_at:
            primal_checkpoint = primal
        previous, state = state, out
        if iteration % _ADAPT_EVERY == 0:
            factor = _penalty_factor(primal, primal_scale, dual, rho * _norm(v))
            if factor != 1.0:
                rho *= factor
                v /= factor
                shift = 1.0 / rho
                threshold = config.lam / (2.0 * rho)
                # the scaled multipliers moved: the memory no longer applies
                filled = head = 0
                have_prev, g_prev_sq = False, np.inf
                continue
        if iteration < _AA_START:
            continue

        g = pairs[out, 0]
        np.subtract(flats[out], flats[previous], out=g)
        g_sq = g.dot(g)
        if g_sq > g_prev_sq:
            filled = head = 0
            if previous == 2:
                # the extrapolation made things worse: undo it, and go on
                # from the previous T(x) as a plain iteration would have
                np.copyto(restored, flats[1 - out])
                state = 3
                have_prev = False
                continue
        elif have_prev:
            np.subtract(pairs[out], pairs[1 - out], out=deltas[:, head])
            filled = min(filled + 1, _AA_MEMORY)
            dg = delta_g[head]
            row = delta_g[:filled] @ dg
            # delta_g[i] . g follows from its value at the previous g by one
            # Gram row; only the new difference needs its own product
            projected[:filled] += row
            projected[head] = dg.dot(g)
            row[head] *= 1.0 + _AA_REG
            gram[head, :filled] = row
            gram[:filled, head] = row
            head = (head + 1) % _AA_MEMORY
            try:
                gamma = np.linalg.solve(gram[:filled, :filled], projected[:filled])
            except np.linalg.LinAlgError:  # no differences left: plain step
                filled = head = 0
            else:
                np.dot(gamma, delta_f[:filled], out=correction)
                np.subtract(flats[out], correction, out=extrapolated)
                state = 2
                accelerated += 1
        have_prev, g_prev_sq = True, g_sq

    X = index.smat(z)
    violation = cache.violation(X)
    # A plateau call needs a meaningful budget: a run cut off after a handful
    # of iterations is just unfinished.
    plateaued = config.max_iters >= 200 and primal >= 0.5 * primal_checkpoint
    if converged:
        status = SolveStatus.CONVERGED
    elif violation > feas_tol and plateaued:
        # Budget exhausted with residuals plateaued above tolerance.
        status = SolveStatus.INFEASIBLE
    else:
        status = SolveStatus.MAX_ITERS
    return _report(X, iteration, primal, dual, violation, status, cache, config,
                   rho, index.smat(rho * v[0]), index.smat(rho * v[1]), accelerated)


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


def report_to_json(report: SolveReport, include_matrix: bool = False) -> dict:
    out = {
        "iterations": report.iterations,
        "primal_residual": report.primal_residual,
        "dual_residual": report.dual_residual,
        "objective": report.objective,
        "constraint_violation": report.constraint_violation,
        "min_eigenvalue": report.min_eigenvalue,
        "status": report.status.value,
        "lambda": report.lam,
        "infeasibility_lb": report.infeasibility_lb,
        "rho": report.rho,
        "accelerated": report.accelerated,
    }
    if include_matrix:
        for key, matrix in (("X", report.X), ("dual_affine", report.dual_affine),
                            ("dual_psd", report.dual_psd)):
            out[key] = [[float(v) for v in row] for row in matrix]
    return out


def report_from_json(data: dict) -> SolveReport:
    """Inverse of ``report_to_json``. Every number must be a finite JSON
    number (the iteration counts non-negative integers, ``lambda`` not
    negative), and a matrix a list of equally long rows of them. Matrices a
    report was written without come back as empty (0, 0) arrays; ``lam``,
    ``infeasibility_lb`` and ``rho`` as nan when absent."""

    def matrix(key: str) -> np.ndarray:
        if key not in data:
            return np.zeros((0, 0))
        return np.array([[checked_float(v) for v in row] for row in data[key]],
                        dtype=float)

    def optional(key: str) -> float:
        return checked_float(data[key]) if key in data else math.nan

    lam = optional("lambda")
    if lam < 0:
        raise ValueError(f"lambda must be >= 0, got {lam!r}")
    return SolveReport(
        X=matrix("X"),
        iterations=checked_int(data["iterations"], 0),
        primal_residual=checked_float(data["primal_residual"]),
        dual_residual=checked_float(data["dual_residual"]),
        objective=checked_float(data["objective"]),
        constraint_violation=checked_float(data["constraint_violation"]),
        min_eigenvalue=checked_float(data["min_eigenvalue"]),
        status=SolveStatus(data["status"]),
        lam=lam,
        infeasibility_lb=optional("infeasibility_lb"),
        dual_affine=matrix("dual_affine"),
        dual_psd=matrix("dual_psd"),
        rho=optional("rho"),
        accelerated=checked_int(data.get("accelerated", 0), 0),
    )
