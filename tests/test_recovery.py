import dataclasses
import json

import numpy as np
import pytest

from nlbp.baselines import Method, _run_lifted
from nlbp.lifting import (
    AffineCache,
    LiftedProblem,
    build_lifted_problem,
    lifted_problem_from_json,
    lifted_problem_to_json,
    packed_index,
)
from nlbp.monomials import exponent_table, monomial_vector, random_polynomial
from nlbp.recovery import (
    CERT_RANK_GAP,
    CERT_TOL,
    DegenerateTopEigenvalueError,
    dual_certificate,
    extract_rank1,
)
from nlbp.sdp_admm import SolverConfig, SolveStatus, solve_nlbp
from packed_layout import dense_operator, pack
from poly_terms import stack


def manual_problem(constraint_matrices, values, n=1, order=2):
    return LiftedProblem(num_vars=n, order=order, num_data=len(values),
                         operator=pack(constraint_matrices), values=values)


def dense_rows(problem):
    """The M x dim^2 matrix whose row i is the vectorized i-th constraint
    matrix."""
    return dense_operator(problem).reshape(problem.num_constraints, -1)


def planted_system(n, num_eqs, order, seed):
    rng = np.random.default_rng(seed)
    system = stack([random_polynomial(n, order, 500 + seed * 13 + j, 1.0)
                    for j in range(num_eqs)])
    return system, rng.normal(size=n)


def planted_problem(n, num_eqs, order, seed):
    system, x = planted_system(n, num_eqs, order, seed)
    return build_lifted_problem(system, system.evaluate(x), order), x


class TestExtractRank1:
    def test_exact_rank_one_round_trip(self):
        basis = exponent_table(5, 2)
        x = np.array([1.0, 1.0, 0.0, 0.0, 0.0])
        lifted = monomial_vector(x, basis)
        sol = extract_rank1(np.outer(lifted, lifted), basis)
        assert sol.valid
        assert sol.rank1_ratio <= 1e-12
        assert np.max(np.abs(sol.x - x)) < 1e-10
        assert sol.x_bar[0] == 1.0

    def test_round_trip_random_points(self):
        rng = np.random.default_rng(0)
        basis = exponent_table(3, 2)
        for _ in range(10):
            x = rng.normal(size=3)
            lifted = monomial_vector(x, basis)
            sol = extract_rank1(np.outer(lifted, lifted), basis)
            assert sol.valid
            assert sol.rank1_ratio <= 1e-12
            assert np.max(np.abs(sol.x - x)) < 1e-10

    def test_perturbed_lift_recovers(self):
        rng = np.random.default_rng(1)
        basis = exponent_table(4, 2)
        x = rng.normal(size=4)
        lifted = monomial_vector(x, basis)
        noise = rng.normal(size=(len(basis), len(basis)))
        sol = extract_rank1(np.outer(lifted, lifted) + 1e-6 * (noise @ noise.T),
                            basis)
        assert sol.valid
        assert np.max(np.abs(sol.x - x)) < 1e-4 * (1 + np.max(np.abs(x)))

    def test_identity_matrix_invalid_not_error(self):
        basis = exponent_table(2, 2)
        sol = extract_rank1(np.eye(6), basis)
        assert not sol.valid
        assert sol.rank1_ratio == pytest.approx(1.0)

    def test_zero_matrix_raises(self):
        basis = exponent_table(2, 2)
        with pytest.raises(DegenerateTopEigenvalueError):
            extract_rank1(np.zeros((6, 6)), basis)

    def test_sign_flip_handled(self):
        basis = exponent_table(2, 1)
        x = np.array([2.0, -3.0])
        lifted = monomial_vector(x, basis)
        # eigenvector sign is arbitrary; the outer product is sign-free
        sol = extract_rank1(np.outer(-lifted, -lifted), basis)
        assert sol.valid
        assert np.max(np.abs(sol.x - x)) < 1e-10


class TestOperatorMatrix:
    def test_identity_constraint_row(self):
        problem = manual_problem([np.eye(2)], [1.0])
        assert np.array_equal(problem.operator, np.array([[1.0, 0.0, 1.0]]))

    def test_trace_oracle(self):
        # both pairings of PackedIndex give trace(C_i X), X symmetric or not:
        # packed rows with the folded X, svec rows with svec(X)
        problem, _ = planted_problem(2, 5, 4, 2)
        index = packed_index(problem.dim)
        svec_rows = problem.operator * index.weight
        rng = np.random.default_rng(3)
        for _ in range(100):
            X = rng.normal(size=(problem.dim, problem.dim))
            direct = np.array([float(np.sum(c * X)) for c in dense_operator(problem)])
            vec = X.ravel()
            folded = (vec[index.upper] + vec[index.lower]) * index.fold
            tol = 1e-12 * (1 + np.max(np.abs(direct)))
            assert np.max(np.abs(problem.operator @ folded - direct)) < tol
            assert np.max(np.abs(svec_rows @ index.svec(X) - direct)) < tol

    def test_reference_shape(self):
        problem, _ = planted_problem(5, 50, 4, 4)
        assert problem.operator.shape == (66, 21 * 22 // 2)
        problem, _ = planted_problem(8, 120, 4, 4)
        assert problem.operator.shape == (157, 45 * 46 // 2)


def solved_planted(n, num_eqs, seed, lam=0.0):
    """A planted problem solved at a tight tolerance, with the extracted
    estimate of its unknowns."""
    problem, _ = planted_problem(n, num_eqs, 4, seed)
    report = solve_nlbp(problem, SolverConfig(lam=lam, eps_abs=1e-10, eps_rel=1e-9))
    return problem, report, extract_rank1(report.X, problem.basis).x


def with_slack_eigenvalues(report, edit):
    """The report with its PSD slack's eigenvalues passed through ``edit``
    (eigenvectors kept)."""
    vals, vecs = np.linalg.eigh(report.dual_psd)
    return dataclasses.replace(report, dual_psd=(vecs * edit(vals)) @ vecs.T)


class TestDualCertificate:
    @pytest.mark.parametrize("lam", [0.0, 0.1])
    def test_holds_on_unique_rank_one_optimum(self, lam):
        problem, report, x = solved_planted(3, 10, 4, lam)
        cert = dual_certificate(problem, report, x)
        assert cert.holds, cert
        assert cert.slack_norm > 0
        assert cert.second_eigenvalue > 1e-2
        assert max(cert.dual_residual, cert.primal_residual, cert.duality_gap,
                   cert.l1_multiplier) <= CERT_TOL

    def test_refuses_negative_slack_eigenvalue(self):
        problem, report, x = solved_planted(3, 10, 4)
        flipped = with_slack_eigenvalues(report, lambda v: np.append(v[:-1], -v[-1]))
        cert = dual_certificate(problem, flipped, x)
        assert cert.min_eigenvalue == pytest.approx(-1.0)
        assert not cert.holds

    def test_refuses_second_null_direction(self):
        # this system's relaxation has a second optimal direction: every other
        # check passes, only the eigenvalue gap refuses
        problem, report, x = solved_planted(2, 4, 1)
        cert = dual_certificate(problem, report, x)
        assert report.status is SolveStatus.CONVERGED
        assert abs(cert.second_eigenvalue) < CERT_RANK_GAP * CERT_TOL
        assert cert.min_eigenvalue >= -CERT_TOL
        assert max(cert.complementarity, cert.dual_residual, cert.primal_residual,
                   cert.duality_gap, cert.l1_multiplier) <= CERT_TOL
        assert not cert.holds

    def test_refuses_estimate_outside_slack_null_space(self):
        problem, report, x = solved_planted(3, 10, 4)
        cert = dual_certificate(problem, report, x + 0.1)
        assert cert.complementarity > CERT_TOL
        assert not cert.holds

    def test_refuses_affine_multiplier_outside_constraint_span(self):
        # move a symmetric E with E x_bar = 0 and trace(C_i E) = 0 for every
        # i from the PSD slack to the affine multiplier: S stays PSD with
        # x_bar in its null space, rho (U1 + U2), w and the gap are
        # unchanged, only the dual residual sees I + rho U1 leave the span
        problem, report, x = solved_planted(3, 10, 4)
        x_bar = monomial_vector(x, problem.basis)
        dim = problem.dim
        cells = [(i, j) for i in range(dim) for j in range(i, dim)]
        basis = []
        for i, j in cells:
            E = np.zeros((dim, dim))
            E[i, j] = E[j, i] = 1.0
            basis.append(E)
        # linear conditions on the coefficients of the symmetric basis
        conditions = np.vstack([
            np.array([[np.sum(C * E) for E in basis] for C in dense_operator(problem)]),
            np.array([E @ x_bar for E in basis]).T,
        ])
        null = np.linalg.svd(conditions)[2][np.linalg.matrix_rank(conditions):]
        E = np.tensordot(null[0], np.array(basis), axes=1)
        E *= 1e-3 * np.linalg.norm(report.dual_psd, 2) / np.linalg.norm(E, 2)
        moved = dataclasses.replace(report, dual_affine=report.dual_affine + E,
                                    dual_psd=report.dual_psd - E)
        cert = dual_certificate(problem, moved, x)
        assert cert.dual_residual > CERT_TOL
        assert not cert.holds
        assert max(cert.complementarity, cert.primal_residual, cert.duality_gap,
                   cert.l1_multiplier) <= CERT_TOL
        assert cert.second_eigenvalue > CERT_RANK_GAP * CERT_TOL

    def test_refuses_infeasible_estimate(self):
        # change the right-hand sides along a direction orthogonal to w: the
        # dual point, the gap and complementarity are untouched, but X_bar no
        # longer satisfies the constraints
        problem, report, x = solved_planted(3, 10, 4)
        target = (np.eye(problem.dim) + report.dual_affine).ravel()
        rows = dense_rows(problem)
        w = np.linalg.lstsq(rows.T, target, rcond=None)[0]
        shift = np.zeros_like(w)
        shift[0], shift[1] = w[1], -w[0]
        shift *= 1e-3 / np.max(np.abs(shift))
        moved = dataclasses.replace(problem, values=problem.values + shift)
        cert = dual_certificate(moved, report, x)
        # the moved problem is factored anew, not read from the solved one
        assert moved.affine is not problem.affine
        assert np.array_equal(moved.affine.rhs_raw, moved.values)
        assert cert.primal_residual > CERT_TOL
        assert not cert.holds
        assert max(cert.complementarity, cert.dual_residual, cert.duality_gap,
                   cert.l1_multiplier) <= CERT_TOL

    def test_refuses_skew_affine_multiplier(self):
        # the least squares sees only the symmetric part of I + rho U1; a
        # skew part, which a report read from a file can carry, is
        # orthogonal to every C_i and must still count in the dual residual
        # exactly as against the full dim x dim matrices
        problem, report, x = solved_planted(3, 10, 4)
        dim = problem.dim
        K = np.triu(np.random.default_rng(8).normal(size=(dim, dim)), 1)
        K -= K.T
        target = np.eye(dim) + report.dual_affine
        K *= 1e-3 * np.linalg.norm(target) / np.linalg.norm(K)
        skewed = dataclasses.replace(report, dual_affine=report.dual_affine + K)
        cert = dual_certificate(problem, skewed, x)
        rows = dense_rows(problem)
        full = (target + K).ravel()
        w = np.linalg.lstsq(rows.T, full, rcond=None)[0]
        expected = np.linalg.norm(rows.T @ w - full) / np.linalg.norm(full)
        assert expected > 1e-4
        assert cert.dual_residual == pytest.approx(expected, rel=1e-6)
        assert not cert.holds
        assert dual_certificate(problem, report, x).holds

    def test_refuses_unconverged_report(self):
        problem, report, x = solved_planted(3, 10, 4)
        capped = dataclasses.replace(report, status=SolveStatus.MAX_ITERS)
        assert dual_certificate(problem, report, x).holds
        assert not dual_certificate(problem, capped, x).holds

    def test_refuses_relaxation_with_higher_rank_optimum(self):
        # converged, but the optimum is not the lift of the planted root
        problem, report, x = solved_planted(2, 5, 3)
        cert = dual_certificate(problem, report, x)
        assert report.status is SolveStatus.CONVERGED
        assert cert.primal_residual > CERT_TOL
        assert not cert.holds


def count_builds(monkeypatch):
    """The problems ``AffineCache.build`` is called on from now on."""
    built = []
    build = AffineCache.build.__func__

    def counting(cls, problem):
        built.append(problem)
        return build(cls, problem)

    monkeypatch.setattr(AffineCache, "build", classmethod(counting))
    return built


class TestOneFactorizationPerProblem:
    def test_run_then_certificate_builds_once(self, monkeypatch):
        built = count_builds(monkeypatch)
        system, x = planted_system(3, 10, 4, 4)  # as in solved_planted(3, 10, 4)
        config = SolverConfig(eps_abs=1e-10, eps_rel=1e-9)
        run = _run_lifted(system, system.evaluate(x), 4, config, Method.NLBP)
        assert len(built) == 1 and built[0] is run.problem
        cert = dual_certificate(run.problem, run.report, run.x_hat)
        assert cert.holds, cert
        assert len(built) == 1

    def test_problem_read_from_json_certified_twice_builds_once(self, monkeypatch):
        problem, report, x = solved_planted(3, 10, 4)
        loaded = lifted_problem_from_json(
            json.loads(json.dumps(lifted_problem_to_json(problem))))
        built = count_builds(monkeypatch)
        first = dual_certificate(loaded, report, x)
        second = dual_certificate(loaded, report, x)
        assert len(built) == 1 and built[0] is loaded
        assert first.holds and first == second
