"""Acceptance suite: every criterion runs at its stated tolerance and prints
one PASS/FAIL line. The two Monte-Carlo ensembles are shared across criteria
through session fixtures.
"""

import math
import time

import numpy as np
import pytest

from nlbp.baselines import Method, l0_oracle, run_lifted
from nlbp.harness import (
    dense_spec,
    emit_boxplot_data,
    run_experiment,
    table1_spec,
)
from nlbp.lifting import (
    build_lifted_problem,
    packed_index,
    polynomial_to_quadratic_form,
)
from nlbp.monomials import exponent_table, monomial_vector, random_polynomial
from nlbp.recovery import dual_certificate
from nlbp import sdp_admm
from nlbp.sdp_admm import (
    SolverConfig,
    SolveStatus,
    project_psd,
    soft_threshold,
    solve_nlbp,
)
from nlbp.cli import cli_main
from packed_layout import dense_operator, unpack
from poly_terms import stack


def verdict(number: int, name: str, ok: bool, detail: str) -> None:
    status = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {number} {name}: {status} ({detail})")


@pytest.fixture(scope="session")
def table1_result():
    start = time.perf_counter()
    result = run_experiment(table1_spec(trials=100, seed=42), keep_artifacts=True)
    result.elapsed_s = time.perf_counter() - start
    return result


@pytest.fixture(scope="session")
def dense_result():
    result = run_experiment(dense_spec(trials=100, seed=42), keep_artifacts=True)
    return result


def test_criterion_1_sparse_ensemble_rates(table1_result):
    rates = {m: s.success_rate for m, s in table1_result.summary.items()}
    detail = (f"NLBP={rates[Method.NLBP]:.2f} QBP={rates[Method.QBP]:.2f} "
              f"LASSO={rates[Method.LASSO]:.2f} elapsed={table1_result.elapsed_s:.0f}s")
    ok = (rates[Method.NLBP] >= 0.95
          and 0.55 <= rates[Method.QBP] <= 0.90
          and rates[Method.LASSO] <= 0.05
          and table1_result.elapsed_s < 900)
    verdict(1, "sparse-ensemble success rates", ok, detail)
    assert table1_result.elapsed_s < 900
    assert rates[Method.NLBP] >= 0.95, detail
    assert rates[Method.LASSO] <= 0.05, detail
    assert 0.55 <= rates[Method.QBP] <= 0.90, detail


def test_criterion_2_dense_ensemble(dense_result):
    successes = sum(r.outcomes[Method.NLBP].success for r in dense_result.records)
    qbp_exact = sum(r.outcomes[Method.QBP].success for r in dense_result.records)
    box = emit_boxplot_data(dense_result.records)
    medians = {}
    for line in box.splitlines():
        parts = line.split(",")
        if len(parts) == 4 and parts[1] == "median":
            medians[parts[0]] = float(parts[2])
    nlbp_med = medians["NLBP"]
    qbp_med = medians["QBP"]
    lasso_med = medians.get("LASSO", math.nan)
    detail = (f"NLBP exact {successes}/100, QBP exact {qbp_exact}/100, "
              f"medians NLBP={nlbp_med:.2e} QBP={qbp_med:.2e} LASSO={lasso_med:.2e}")
    ok = (successes >= 95 and qbp_exact == 0 and nlbp_med <= 1e-8
          and qbp_med >= 1e6 * nlbp_med)
    verdict(2, "dense-ensemble reproduction", ok, detail)
    assert successes >= 95, detail
    assert qbp_exact == 0, detail
    assert nlbp_med <= 1e-8, detail
    assert qbp_med >= 1e6 * nlbp_med, detail
    # linear baseline comparison, empirically far worse than the lifted solve
    assert lasso_med > 1e3 * nlbp_med


def test_criterion_3_representation_identity():
    rng = np.random.default_rng(2024)
    checked = 0
    worst = 0.0
    for n in range(1, 6):
        for order in (2, 4):
            basis = exponent_table(n, order // 2)
            for _ in range(20):
                poly = random_polynomial(n, order, rng, 1.0)
                form = unpack(polynomial_to_quadratic_form(poly, order), len(basis))
                for _ in range(100):
                    x = rng.normal(size=n)
                    lifted = monomial_vector(x, basis)
                    value = poly.evaluate(x)[0]
                    err = abs(float(lifted @ form @ lifted) - value)
                    bound = 1e-9 * (1 + abs(value))
                    worst = max(worst, err / bound)
                    assert err <= bound
                checked += 1
    assert checked == 200
    verdict(3, "representation identity", True,
            f"200 polynomials x 100 points, worst err/bound={worst:.2e}")


def test_criterion_4_planted_lift_feasibility():
    rng = np.random.default_rng(555)
    worst = 0.0
    for k in range(50):
        n = int(rng.integers(1, 6))
        order = int(rng.choice([2, 4]))
        num_eqs = int(rng.integers(1, 12))
        polys = stack([random_polynomial(n, order, rng, 1.0) for _ in range(num_eqs)])
        x = rng.normal(size=n)
        values = polys.evaluate(x)
        problem = build_lifted_problem(polys, values, order)
        lifted = monomial_vector(x, problem.basis)
        planted = np.outer(lifted, lifted)
        for c, value in zip(dense_operator(problem), problem.values):
            err = abs(float(np.sum(c * planted)) - value)
            bound = 1e-9 * (1 + abs(value))
            worst = max(worst, err / bound)
            assert err <= bound
    verdict(4, "planted-lift feasibility", True,
            f"50 problems, worst err/bound={worst:.2e}")


def test_criterion_5_basis_combinatorics():
    # dynamic-programming oracle, independent of both the enumeration and the
    # binomial formula: table[k] counts exponent tuples summing exactly to k
    def dp_count(n, d):
        table = [1 if k == 0 else 0 for k in range(d + 1)]
        for _ in range(n):
            running = 0
            new = []
            for k in range(d + 1):
                running += table[k]
                new.append(running)
            table = new
        return sum(table)

    for n in range(1, 9):
        for half in range(1, 5):
            assert len(exponent_table(n, half)) == math.comb(n + half, half)
            assert len(exponent_table(n, half)) == dp_count(n, half)
        for order in range(0, 9):
            alphas = exponent_table(n, order)
            assert len(alphas) == math.comb(n + order, order)
            assert len(alphas) == dp_count(n, order)
    assert len(exponent_table(2, 2)) == 6
    assert len(exponent_table(2, 4)) == 15
    verdict(5, "basis combinatorics", True,
            "n<=8, order<=8 verified against DP oracle; reference values 6 and 15")


def test_criterion_6_solver_against_reference():
    cvxpy = pytest.importorskip("cvxpy")

    def reference(problem, lam):
        dim = problem.dim
        X = cvxpy.Variable((dim, dim), symmetric=True)
        constraints = [X >> 0]
        for c, value in zip(dense_operator(problem), problem.values):
            constraints.append(cvxpy.trace(c @ X) == value)
        objective = cvxpy.trace(X) + lam * cvxpy.sum(cvxpy.abs(X))
        prob = cvxpy.Problem(cvxpy.Minimize(objective), constraints)
        prob.solve(solver=cvxpy.CLARABEL)
        assert prob.status == "optimal"
        return float(prob.value)

    worst = 0.0
    for k in range(20):
        n = 1 + k % 3
        rng = np.random.default_rng(3000 + k)
        polys = stack([random_polynomial(n, 2, 4000 + 10 * k + j, 1.0)
                       for j in range(n + 2)])
        x = rng.normal(size=n)
        values = polys.evaluate(x)
        problem = build_lifted_problem(polys, values, 2)
        assert problem.dim <= 4
        lam = (0.0, 0.1, 1.0)[k % 3]
        ref = reference(problem, lam)
        report = solve_nlbp(problem, SolverConfig(
            lam=lam, eps_abs=1e-11, eps_rel=1e-10, max_iters=300000))
        assert report.status is SolveStatus.CONVERGED
        rel = abs(report.objective - ref) / (1 + abs(ref))
        worst = max(worst, rel)
        assert rel <= 1e-5
    verdict(6, "solver matches reference at desk scale", True,
            f"20 problems, worst relative objective gap={worst:.2e}")


def test_relaxed_splitting_iterate_invariants():
    # a toy run of the solver's over-relaxed splitting: every affine-block
    # output is feasible and every cone-block output is PSD
    rng = np.random.default_rng(77)
    polys = stack([random_polynomial(2, 2, 5000 + j, 1.0) for j in range(4)])
    x = rng.normal(size=2)
    problem = build_lifted_problem(polys, polys.evaluate(x), 2)
    cache = problem.affine
    index = packed_index(problem.dim)
    dim, alpha = problem.dim, sdp_admm._RELAX
    Z = np.zeros((dim, dim))
    U1 = np.zeros((dim, dim))
    U2 = np.zeros((dim, dim))
    for _ in range(200):
        X1 = index.smat(cache.project(index.svec(Z - U1 - np.eye(dim))))
        X2 = project_psd(Z - U2)
        assert cache.violation(X1) <= 1e-8
        assert np.linalg.eigvalsh(X2)[0] >= -1e-8 * max(1.0, np.linalg.norm(X2))
        H1 = alpha * X1 + (1.0 - alpha) * Z
        H2 = alpha * X2 + (1.0 - alpha) * Z
        Z = soft_threshold(0.5 * (H1 + U1 + H2 + U2), 0.0)
        U1 = U1 + H1 - Z
        U2 = U2 + H2 - Z


def test_criterion_7_oracle_equivalence():
    def support_of(x):
        return set(np.nonzero(np.abs(x) > 1e-6 * (1 + np.max(np.abs(x))))[0])

    agreements = 0
    compared = 0
    for k in range(25):
        n = (4, 5, 6)[k % 3]
        rng = np.random.default_rng(9000 + k)
        polys = stack([random_polynomial(n, 4, 10_000 + 40 * k + j, 1.0)
                       for j in range(40)])
        support = tuple(sorted(rng.choice(n, size=2, replace=False)))
        x = np.zeros(n)
        x[list(support)] = 1.0
        values = polys.evaluate(x)
        config = SolverConfig(rho=1.0 / (1.0 + np.max(np.abs(values))),
                              eps_abs=1e-9, eps_rel=1e-7, max_iters=60000)
        run = run_lifted(polys, values, 4, config, Method.NLBP)
        if run.recovered is None or not run.recovered.valid:
            continue
        compared += 1
        oracle_x = l0_oracle(polys, values, max_support=2, rng_seed=k)
        assert oracle_x is not None, f"oracle failed on planted instance {k}"
        assert support_of(oracle_x) == support_of(run.x_hat), (
            f"instance {k}: oracle {support_of(oracle_x)} vs "
            f"pipeline {support_of(run.x_hat)}")
        agreements += 1
    assert compared >= 20  # the pipeline should be valid on nearly all
    verdict(7, "support agreement with enumeration oracle", True,
            f"{agreements}/{compared} valid instances agree (25 planted)")


def test_criterion_8_certificate_soundness(table1_result, dense_result):
    # the dual certificate of each converged, valid NLBP solve, at the
    # ensemble's final estimate; a certificate that holds must never
    # accompany a failed recovery
    counts = []
    for result in (table1_result, dense_result):
        checked = held = 0
        for record, art in zip(result.records, result.artifacts):
            run = art.get(Method.NLBP)
            if run is None or run.recovered is None:
                continue
            if run.report.status is not SolveStatus.CONVERGED:
                continue
            if not run.recovered.valid:
                continue
            checked += 1
            cert = dual_certificate(run.problem, run.report, run.x_hat)
            if cert.holds:
                held += 1
                assert record.outcomes[Method.NLBP].success, (
                    f"certificate held but recovery failed on trial "
                    f"{record.trial_index}")
        counts.append(f"{result.spec.name} {held}/{checked}")
        assert held > 0, f"{result.spec.name}: the certificate never held"
    verdict(8, "dual certificate soundness", True,
            f"held/checked on converged valid rank-1 solves: {', '.join(counts)}; "
            f"no soundness violation")


def test_criterion_9_bench_determinism(tmp_path):
    a = tmp_path / "a.csv"
    b = tmp_path / "b.csv"
    args = ["bench", "table1", "--trials", "10", "--seed", "7"]
    assert cli_main(args + ["-o", str(a)]) == 0
    assert cli_main(args + ["-o", str(b)]) == 0
    identical = a.read_bytes() == b.read_bytes()
    verdict(9, "benchmark byte determinism", identical,
            f"{a.stat().st_size} bytes compared")
    assert identical


def test_l1_term_recovers_more_of_an_underdetermined_ensemble():
    # The basis-pursuit regime: with 20 equations for n = 5, the trace
    # objective alone recovers fewer trials than with the l1 term, so a
    # change that breaks the lam > 0 path fails here.
    def successes(lam: float) -> int:
        spec = table1_spec(trials=20, seed=7, num_equations=20, lam=lam,
                           methods=(Method.NLBP,))
        return sum(r.outcomes[Method.NLBP].success for r in run_experiment(spec).records)

    plain, l1 = successes(0.0), successes(0.1)
    print(f"l1 guard: NLBP recovers {plain}/20 at lam = 0, {l1}/20 at lam = 0.1")
    assert l1 > plain
