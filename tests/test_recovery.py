import itertools

import numpy as np
import pytest

from nlbp.lifting import (
    LiftedProblem,
    build_lifted_problem,
    lift_vector,
)
from nlbp.monomials import MultiIndex, Polynomial, enumerate_basis, eval_polynomial, random_polynomial
from nlbp.recovery import (
    AllZeroColumnsError,
    DegenerateTopEigenvalueError,
    coherence_certificate,
    count_zero_columns,
    estimate_rip_epsilon,
    extract_rank1,
    mutual_coherence,
)


def manual_problem(constraint_matrices, values, n=1, order=2):
    return LiftedProblem(basis=enumerate_basis(n, order // 2), num_vars=n,
                         order=order, num_data=len(values),
                         operator=np.stack(constraint_matrices), values=values)


def operator_rows(problem):
    """The M x dim^2 matrix the certificates read: row i is the vectorized
    i-th constraint matrix."""
    return problem.operator.reshape(problem.num_constraints, -1)


def planted_problem(n, num_eqs, order, seed):
    rng = np.random.default_rng(seed)
    polys = [random_polynomial(n, order, 500 + seed * 13 + j, 1.0) for j in range(num_eqs)]
    x = rng.normal(size=n)
    values = [eval_polynomial(p, x) for p in polys]
    return build_lifted_problem(polys, values, order), x


class TestExtractRank1:
    def test_exact_rank_one_round_trip(self):
        basis = enumerate_basis(5, 2)
        x = np.array([1.0, 1.0, 0.0, 0.0, 0.0])
        lifted = lift_vector(x, basis)
        sol = extract_rank1(np.outer(lifted, lifted), basis)
        assert sol.valid
        assert sol.rank1_ratio <= 1e-12
        assert np.max(np.abs(sol.x - x)) < 1e-10
        assert sol.x_bar[0] == 1.0

    def test_round_trip_random_points(self):
        rng = np.random.default_rng(0)
        basis = enumerate_basis(3, 2)
        for _ in range(10):
            x = rng.normal(size=3)
            lifted = lift_vector(x, basis)
            sol = extract_rank1(np.outer(lifted, lifted), basis)
            assert sol.valid
            assert sol.rank1_ratio <= 1e-12
            assert np.max(np.abs(sol.x - x)) < 1e-10

    def test_perturbed_lift_recovers(self):
        rng = np.random.default_rng(1)
        basis = enumerate_basis(4, 2)
        x = rng.normal(size=4)
        lifted = lift_vector(x, basis)
        noise = rng.normal(size=(len(basis), len(basis)))
        sol = extract_rank1(np.outer(lifted, lifted) + 1e-6 * (noise @ noise.T),
                            basis)
        assert sol.valid
        assert np.max(np.abs(sol.x - x)) < 1e-4 * (1 + np.max(np.abs(x)))

    def test_identity_matrix_invalid_not_error(self):
        basis = enumerate_basis(2, 2)
        sol = extract_rank1(np.eye(6), basis)
        assert not sol.valid
        assert sol.rank1_ratio == pytest.approx(1.0)

    def test_zero_matrix_raises(self):
        basis = enumerate_basis(2, 2)
        with pytest.raises(DegenerateTopEigenvalueError):
            extract_rank1(np.zeros((6, 6)), basis)

    def test_sign_flip_handled(self):
        basis = enumerate_basis(2, 1)
        x = np.array([2.0, -3.0])
        lifted = lift_vector(x, basis)
        # eigenvector sign is arbitrary; the outer product is sign-free
        sol = extract_rank1(np.outer(-lifted, -lifted), basis)
        assert sol.valid
        assert np.max(np.abs(sol.x - x)) < 1e-10


class TestOperatorMatrix:
    def test_identity_constraint_row(self):
        problem = manual_problem([np.eye(2)], [1.0])
        B = operator_rows(problem)
        assert np.array_equal(B, np.array([[1.0, 0.0, 0.0, 1.0]]))

    def test_trace_oracle(self):
        problem, _ = planted_problem(2, 5, 4, 2)
        B = operator_rows(problem)
        rng = np.random.default_rng(3)
        for _ in range(100):
            X = rng.normal(size=(problem.dim, problem.dim))
            X = 0.5 * (X + X.T)
            direct = np.array([float(np.sum(c * X)) for c in problem.operator])
            assert np.max(np.abs(B @ X.ravel() - direct)) < 1e-12 * (1 + np.max(np.abs(direct)))

    def test_reference_shape(self):
        problem, _ = planted_problem(5, 50, 4, 4)
        B = operator_rows(problem)
        assert B.shape == (66, 441)
        assert np.shares_memory(B, problem.operator)


class TestMutualCoherence:
    def test_orthogonal_columns(self):
        assert mutual_coherence(np.eye(4)) == 0.0

    def test_duplicate_column(self):
        B = np.array([[1.0, 1.0, 0.0], [2.0, 2.0, 1.0]])
        assert mutual_coherence(B) == pytest.approx(1.0)

    def test_matches_double_loop_reference(self):
        rng = np.random.default_rng(6)
        B = rng.normal(size=(10, 6))
        worst = 0.0
        for i in range(6):
            for j in range(6):
                if i == j:
                    continue
                num = abs(float(B[:, i] @ B[:, j]))
                den = np.linalg.norm(B[:, i]) * np.linalg.norm(B[:, j])
                worst = max(worst, num / den)
        assert mutual_coherence(B) == pytest.approx(worst, rel=1e-12)

    def test_invariant_under_positive_column_scaling(self):
        rng = np.random.default_rng(7)
        B = rng.normal(size=(8, 5))
        scales = rng.uniform(0.1, 10.0, size=5)
        assert mutual_coherence(B * scales) == pytest.approx(
            mutual_coherence(B), rel=1e-12)

    def test_range(self):
        rng = np.random.default_rng(8)
        for _ in range(20):
            mu = mutual_coherence(rng.normal(size=(6, 9)))
            assert 0.0 <= mu <= 1.0

    def test_zero_columns_skipped(self):
        rng = np.random.default_rng(9)
        B = rng.normal(size=(5, 4))
        padded = np.hstack([B, np.zeros((5, 2))])
        assert mutual_coherence(padded) == pytest.approx(mutual_coherence(B))
        assert count_zero_columns(padded) == 2

    def test_all_zero_columns_error(self):
        with pytest.raises(AllZeroColumnsError):
            mutual_coherence(np.zeros((4, 3)))

    def test_needs_two_columns(self):
        with pytest.raises(ValueError):
            mutual_coherence(np.ones((3, 1)))


class TestCoherenceCertificate:
    def test_mirror_columns_pin_mu_to_one(self):
        # full vectorization duplicates every off-diagonal cell, so any
        # problem with off-diagonal structure has coherence exactly 1 and the
        # bound degenerates to "fewer than one nonzero"
        problem, _ = planted_problem(2, 4, 2, 10)
        cert = coherence_certificate(problem, np.eye(problem.dim))
        assert cert.mu == 1.0
        assert cert.sparsity_bound == 1.0
        assert cert.matrix_l0 >= 1
        assert not cert.holds

    def test_boundary_one_nonzero_fails_strict_bound(self):
        problem, _ = planted_problem(2, 4, 2, 11)
        X = np.zeros((problem.dim, problem.dim))
        X[0, 0] = 1.0
        cert = coherence_certificate(problem, X)
        assert cert.matrix_l0 == 1
        assert not cert.holds  # 1 < 1 is false

    def test_zero_tolerance_counting(self):
        problem, _ = planted_problem(2, 4, 2, 12)
        X = np.zeros((problem.dim, problem.dim))
        X[0, 0] = 1.0
        X[1, 1] = 1e-9  # below the relative threshold
        cert = coherence_certificate(problem, X, zero_tol=1e-6)
        assert cert.matrix_l0 == 1

    def test_zero_column_count_reported(self):
        p = Polynomial(1, {MultiIndex((1,)): 1.0})
        problem = build_lifted_problem([p], [1.0], 2)
        cert = coherence_certificate(problem, np.ones((2, 2)))
        # the bottom-right cell is touched by no constraint
        assert cert.zero_columns_excluded == 1


def isometric_problem():
    """Constraint rows orthonormal over symmetric matrices: the squared image
    norm equals the squared Frobenius norm for every symmetric input."""
    e01 = np.zeros((2, 2))
    e01[0, 1] = e01[1, 0] = 1.0 / np.sqrt(2.0)
    mats = [np.diag([1.0, 0.0]), e01, np.diag([0.0, 1.0])]
    return manual_problem(mats, [0.0, 0.0, 0.0])


class TestRipEstimate:
    def test_isometry_gives_zero(self):
        est = estimate_rip_epsilon(isometric_problem(), k=2, num_samples=500,
                                   rng_seed=0)
        assert est < 1e-12

    def test_monotone_in_sample_count(self):
        problem, _ = planted_problem(2, 4, 2, 13)
        estimates = [
            estimate_rip_epsilon(problem, k=2, num_samples=m, rng_seed=42)
            for m in (100, 500, 2000)
        ]
        assert estimates[0] <= estimates[1] <= estimates[2]

    def test_input_validation(self):
        problem, _ = planted_problem(2, 3, 2, 14)
        with pytest.raises(ValueError):
            estimate_rip_epsilon(problem, k=0, num_samples=10, rng_seed=0)
        with pytest.raises(ValueError):
            estimate_rip_epsilon(problem, k=1, num_samples=0, rng_seed=0)

    def test_lower_bounds_exact_search_small_case(self):
        # exact oracle: for each support the deviation extremes are singular
        # values of the weighted column submatrix; enumerate every support of
        # ell0 cost <= 2 for a 3x3 symmetric matrix
        problem, _ = planted_problem(2, 5, 2, 15)
        dim = problem.dim
        assert dim == 3
        B = np.stack([c.ravel() for c in problem.operator])

        def support_deviation(cells):
            cols = []
            weights = []
            for (i, j) in cells:
                if i == j:
                    cols.append(B[:, i * dim + j])
                    weights.append(1.0)
                else:
                    cols.append(B[:, i * dim + j] + B[:, j * dim + i])
                    weights.append(np.sqrt(2.0))
            A = np.stack(cols, axis=1) / np.array(weights)
            sv = np.linalg.svd(A, compute_uv=False)
            return max(abs(sv.max() ** 2 - 1.0), abs(sv.min() ** 2 - 1.0))

        supports = []
        diag = [(i, i) for i in range(dim)]
        off = [(i, j) for i in range(dim) for j in range(i + 1, dim)]
        supports += [[c] for c in diag]              # cost 1
        supports += [list(p) for p in itertools.combinations(diag, 2)]  # cost 2
        supports += [[c] for c in off]               # cost 2
        exact = max(support_deviation(s) for s in supports)

        est = estimate_rip_epsilon(problem, k=2, num_samples=100_000, rng_seed=7)
        assert est <= exact + 1e-9
        assert est >= 0.95 * exact
