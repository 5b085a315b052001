import numpy as np
import pytest

from nlbp.baselines import (
    l0_oracle,
    refine_solution,
    solve_linear,
    solve_nlbp_system,
    solve_qbp,
    success_criterion,
    system_residual_sq,
)
from nlbp.monomials import random_polynomial, truncate_polynomial
from nlbp.sdp_admm import SolverConfig
from poly_terms import stack, system_of, terms, unit


def planted_sparse_system(n, num_eqs, order, support, seed, coeff_std=1.0):
    polys = stack([random_polynomial(n, order, 7000 + seed * 31 + j, coeff_std)
                   for j in range(num_eqs)])
    x = np.zeros(n)
    x[list(support)] = 1.0
    return polys, x, polys.evaluate(x)


def random_system(n, order, seeds):
    return stack([random_polynomial(n, order, seed, 1.0) for seed in seeds])


class TestSuccessCriterion:
    def test_exact_match(self):
        polys, x, values = planted_sparse_system(4, 6, 2, (0, 2), 0)
        assert success_criterion(x, x, polys, values)

    def test_off_by_one_coordinate(self):
        polys, x, values = planted_sparse_system(4, 6, 2, (0, 2), 1)
        wrong = x.copy()
        wrong[1] += 1.0
        assert not success_criterion(wrong, x, polys, values)

    def test_shape_mismatch(self):
        polys, x, values = planted_sparse_system(4, 6, 2, (0, 2), 2)
        with pytest.raises(ValueError):
            success_criterion(x[:-1], x, polys, values)

    def test_residual_component(self):
        # matching x but inconsistent system: residual clause must fail
        polys, x, values = planted_sparse_system(4, 6, 2, (0, 2), 3)
        assert not success_criterion(x, x, polys, values + 1.0)


class TestSolveLinear:
    def linear_system(self, seed, num_eqs=8, n=4):
        rng = np.random.default_rng(seed)
        rows = []
        x = rng.normal(size=n)
        for _ in range(num_eqs):
            row = {(0,) * n: rng.normal()}
            for j in range(n):
                row[unit(n, j)] = rng.normal()
            rows.append(row)
        polys = system_of(n, *rows)
        return polys, x, polys.evaluate(x)

    @staticmethod
    def linear_parts(polys):
        rows = [terms(polys, i) for i in range(len(polys))]
        A = np.array([[row.get(unit(4, j), 0.0) for j in range(4)] for row in rows])
        const = np.array([row.get((0,) * 4, 0.0) for row in rows])
        return A, const

    def test_consistent_linear_system_exact(self):
        polys, x, values = self.linear_system(0)
        result = solve_linear(polys, values, lam=0.0)
        assert success_criterion(result.x_hat, x, polys, values)
        assert np.max(np.abs(result.x_hat - x)) < 1e-10

    def test_normal_equations(self):
        # inconsistent overdetermined data: least squares still satisfies the
        # normal equations
        polys, x, values = self.linear_system(1)
        noisy = values + np.linspace(0.1, 0.9, len(values))
        result = solve_linear(polys, noisy, lam=0.0)
        A, const = self.linear_parts(polys)
        grad = A.T @ (A @ result.x_hat - (noisy - const))
        assert np.max(np.abs(grad)) < 1e-8

    def test_l1_subgradient_optimality(self):
        polys, x, values = self.linear_system(2)
        lam = 0.5
        result = solve_linear(polys, values, lam=lam)
        A, const = self.linear_parts(polys)
        grad = A.T @ (A @ result.x_hat - (values - const))
        z = result.x_hat
        on = np.abs(z) > 1e-10
        assert np.max(np.abs(grad[on] + lam * np.sign(z[on]))) < 1e-6 if on.any() else True
        assert np.all(np.abs(grad[~on]) <= lam + 1e-6)

    def test_biased_estimate_not_successful(self):
        polys, x, values = self.linear_system(3)
        result = solve_linear(polys, values, lam=1.0)
        assert not success_criterion(result.x_hat, x, polys, values)


class TestQbpPipeline:
    def test_matches_full_pipeline_on_quadratic_system(self):
        # truncation is the identity on a degree-2 system, so both routes
        # solve the same program
        rng = np.random.default_rng(4)
        n = 3
        polys = random_system(n, 2, [9000 + j for j in range(8)])
        x = rng.normal(size=n)
        values = polys.evaluate(x)
        config = SolverConfig(eps_abs=1e-10, eps_rel=1e-8, max_iters=60000)
        a = solve_qbp(polys, values, config=config)
        b = solve_nlbp_system(polys, values, order=2, config=config)
        assert (success_criterion(a.x_hat, x, polys, values)
                == success_criterion(b.x_hat, x, polys, values))
        assert np.max(np.abs(a.x_hat - b.x_hat)) < 1e-6
        assert a.residual_sq == pytest.approx(b.residual_sq, abs=1e-12)

    def test_truncation_breaks_quartic_system(self):
        # same measurements, degree-2 model: provably inconsistent, never
        # succeeds under the frozen criterion
        polys, x, values = planted_sparse_system(5, 30, 4, (1, 4), 5)
        result = solve_qbp(polys, values)
        assert not success_criterion(result.x_hat, x, polys, values)
        assert result.residual_sq > 1.0


class TestFullPipeline:
    def test_planted_sparse_recovery(self):
        polys, x, values = planted_sparse_system(5, 40, 4, (0, 3), 6)
        rho = 1.0 / (1.0 + np.max(np.abs(values)))
        config = SolverConfig(rho=rho, eps_abs=1e-9, eps_rel=1e-7, max_iters=60000)
        result = solve_nlbp_system(polys, values, order=4, config=config)
        assert success_criterion(result.x_hat, x, polys, values)
        assert np.max(np.abs(result.x_hat - x)) < 1e-6

    def test_degenerate_system_yields_zero_estimate(self):
        # zero right-hand side with zero planted vector
        polys = random_system(2, 2, [10_000 + j for j in range(4)])
        zero = np.zeros(2)
        values = polys.evaluate(zero)
        result = solve_nlbp_system(polys, values, order=2)
        assert success_criterion(result.x_hat, zero, polys, values)
        assert np.max(np.abs(result.x_hat)) < 1e-4


class TestRefineSolution:
    def test_polishes_to_machine_precision(self):
        polys, x, values = planted_sparse_system(4, 12, 4, (1, 2), 7)
        rough = x + 1e-3 * np.array([1.0, -2.0, 0.5, 1.5])
        polished = refine_solution(polys, values, rough)
        assert system_residual_sq(polys, values, polished) < 1e-20 * (
            1 + float(values @ values))
        assert np.max(np.abs(polished - x)) < 1e-9

    def test_no_change_when_already_exact(self):
        polys, x, values = planted_sparse_system(4, 12, 4, (1, 2), 8)
        polished = refine_solution(polys, values, x)
        assert np.max(np.abs(polished - x)) < 1e-12


class TestL0Oracle:
    def test_recovers_planted_support(self):
        polys, x, values = planted_sparse_system(5, 20, 4, (1, 3), 9)
        found = l0_oracle(polys, values, max_support=2, rng_seed=1)
        assert found is not None
        assert np.max(np.abs(found - x)) < 1e-6

    def test_zero_solution(self):
        polys = random_system(3, 3, [11_000 + j for j in range(5)])
        zero = np.zeros(3)
        values = polys.evaluate(zero)
        found = l0_oracle(polys, values, max_support=2, rng_seed=2)
        assert found is not None
        assert np.array_equal(found, zero)

    def test_inconsistent_system_not_found(self):
        polys, x, values = planted_sparse_system(4, 15, 4, (0, 1), 10)
        rng = np.random.default_rng(11)
        found = l0_oracle(polys, values + rng.normal(size=len(values)),
                          max_support=2, rng_seed=3)
        assert found is None

    def test_prefers_sparser_solution(self):
        # single-variable plant: the oracle must return a 1-sparse solution,
        # not a 2-sparse one that also fits
        polys, x, values = planted_sparse_system(4, 15, 4, (2,), 12)
        found = l0_oracle(polys, values, max_support=2, rng_seed=4)
        assert found is not None
        assert np.sum(np.abs(found) > 1e-8) <= 1
        assert np.max(np.abs(found - x)) < 1e-6

    def test_size_limits_enforced(self):
        polys = random_polynomial(3, 2, 12_000, 1.0)
        with pytest.raises(ValueError):
            l0_oracle(polys, [0.0], max_support=4)
        big = random_polynomial(9, 2, 12_001, 1.0)
        with pytest.raises(ValueError):
            l0_oracle(big, [0.0], max_support=2)
        with pytest.raises(ValueError):
            l0_oracle(polys, [0.0], max_support=1, starts=0)

    def test_sparse_high_degree_input(self):
        # one x1^25 term over 8 variables: the system stores three monomials,
        # not the 13.9 million of degree <= 25
        polys = system_of(8, {unit(8, 0, 25): 1.0, unit(8, 1): 1.0},
                          {unit(8, 1): 1.0},
                          {unit(8, 2): 1.0})
        assert polys.coeffs.shape == (3, 3)
        found = l0_oracle(polys, [1.0, 1.0, 2.0], max_support=2, rng_seed=6)
        assert found is not None
        assert np.allclose(found, [0, 1, 2, 0, 0, 0, 0, 0], atol=1e-10)

    def test_budget_configurable(self):
        polys, x, values = planted_sparse_system(4, 15, 2, (0,), 13)
        found = l0_oracle(polys, values, max_support=1, starts=5, rng_seed=5)
        assert found is not None


class TestTruncationHelper:
    def test_truncate_preserves_low_order(self):
        p = random_polynomial(3, 4, 13_000, 1.0)
        t = truncate_polynomial(p, 2)
        assert len(terms(t)) == 10
        for alpha, c in terms(t).items():
            assert sum(alpha) <= 2
            assert terms(p)[alpha] == c
