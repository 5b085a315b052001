import dataclasses
import math
import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest

from nlbp.baselines import refine_solution
from nlbp.cli import lifted_problem_from_json, report_from_json, report_to_json
from nlbp.harness import default_trial_config, dense_spec, sample_trial, table1_spec
from nlbp.lifting import (
    LiftedProblem,
    _cell_map,
    _gram_inverse,
    _merge_map,
    build_lifted_problem,
    generate_dependency_constraints,
    packed_index,
    polynomial_to_quadratic_form,
)
from nlbp.monomials import exponent_table, monomial_vector, random_polynomial
from nlbp import sdp_admm
from nlbp.recovery import extract_rank1
from nlbp.sdp_admm import (
    SolverConfig,
    SolverError,
    SolveStatus,
    project_psd,
    soft_threshold,
    solve_nlbp,
)
from packed_layout import dense_operator, pack, svec_weight, unpack
from poly_terms import stack, system_of
from spectra import with_spectrum


def planted_problem(n, num_eqs, order, seed):
    rng = np.random.default_rng(seed)
    system = stack([random_polynomial(n, order, 1000 * seed + j, 1.0)
                    for j in range(num_eqs)])
    x = rng.normal(size=n)
    return build_lifted_problem(system, system.evaluate(x), order), x


def kkt_projection_oracle(problem, X):
    """Independent dense KKT solve for the affine projection."""
    rows = np.stack([c.ravel() for c in dense_operator(problem)])
    values = problem.values
    m, d2 = rows.shape
    kkt = np.block([[np.eye(d2), rows.T], [rows, np.zeros((m, m))]])
    rhs = np.concatenate([X.ravel(), values])
    sol = np.linalg.lstsq(kkt, rhs, rcond=None)[0]
    return sol[:d2].reshape(X.shape)


def project_matrix(cache, X):
    """``cache.project`` of a symmetric matrix, through its svec and back."""
    index = packed_index(cache.dim)
    return index.smat(cache.project(index.svec(X)))


def inconsistent_systems():
    """The x = 0, x = 1 clash, a QBP-truncated table1 trial, and the clash
    lifted at order 4, whose dependency block matches the fold rule."""
    clash = system_of(1, {(1,): 1.0}, {(1,): 1.0})
    yield build_lifted_problem(clash, [0.0, 1.0], 2)
    polys, _, values = sample_trial(table1_spec(trials=1, seed=42), 0)
    yield build_lifted_problem(polys.truncate(2), values, 2)
    yield build_lifted_problem(clash, [0.0, 1.0], 4)


def written_out(problem):
    """The problem's affine data as the svec formula states it: the packed
    rows times the svec weight, normalized to unit norm, with their
    right-hand sides, and the pseudo-inverse of their Gram matrix (the
    inverse when a Cholesky factorization succeeds and the trace product is
    within 1e12, else an eigendecomposition cut at 1e-12 relative)."""
    weight = svec_weight(problem.dim)
    rows = problem.operator * weight
    norms = np.linalg.norm(rows, axis=1)
    scale = np.where(norms > 0, norms, 1.0)
    rows, rhs = rows / scale[:, None], problem.values / scale
    gram = rows @ rows.T
    try:
        np.linalg.cholesky(gram)
        pinv = np.linalg.inv(gram)
        full_rank = np.trace(gram) * np.trace(pinv) <= 1e12
    except np.linalg.LinAlgError:
        full_rank = False
    if not full_rank:
        vals, vecs = np.linalg.eigh(gram)
        active = vals > 1e-12 * max(vals[-1], 0.0)
        pinv = (vecs[:, active] / vals[active]) @ vecs[:, active].T
    return rows, rhs, pinv


def spread_rows(cache):
    """The cache's rows R_c spread back over the packed cells, R_c E: one
    column per cell, each times its weight in its column."""
    return cache.row_mat[:, cache.column] * cache.coef


def folds(problem):
    """Whether the problem's cache folds its dependency rows."""
    return len(problem.affine.folded[0]) > 0


def kept_rows(problem):
    """The written-out normalized svec rows that ``spread_rows`` gives: all
    of them when the cache folds nothing, else the data and normalization
    rows projected onto the null space of the dependency rows D, by
    I - D^+ D."""
    rows = written_out(problem)[0]
    if not folds(problem):
        return rows
    keep = problem.num_data + 1
    dependencies = rows[keep:]
    return rows[:keep] - (rows[:keep] @ np.linalg.pinv(dependencies)) @ dependencies


def searched_merge(problem):
    """The merged columns found by search: the cells grouped by moment class
    and side of the diagonal, a group one column exactly when all of its
    operator columns are equal and a column per cell otherwise, the columns
    numbered in the order of their first cells."""
    classes, _, share = _cell_map(problem.num_vars, problem.order // 2)
    groups = {}
    for cell, key in enumerate(zip(classes.tolist(), share.tolist())):
        groups.setdefault(key, []).append(cell)
    lead = np.arange(len(classes))
    for cells in groups.values():
        if (problem.operator[:, cells] == problem.operator[:, cells[:1]]).all():
            lead[cells] = cells[0]
    return np.searchsorted(np.unique(lead), lead)


@pytest.mark.parametrize("n, order", [(n, order) for order in (2, 4) for n in range(1, 9)]
                         + [(n, 6) for n in range(1, 6)])
def test_lift_merges_exactly_the_groups_no_row_splits(n, order):
    # the shape rule merges the off-diagonal cells of each class above the
    # basis degree; on a lift that is every group the search finds unsplit
    problem = planted_problem(n, 3, order, n + order)[0]
    assert np.array_equal(_merge_map(n, order // 2)[0], searched_merge(problem))


@pytest.mark.parametrize("n, order", [(n, order) for order in (2, 4) for n in range(1, 9)]
                         + [(n, 6) for n in range(1, 6)])
def test_lift_projects_and_fits_as_all_of_its_rows(n, order):
    # a lift of order >= 4 folds its dependency rows and keeps the data and
    # normalization rows, yet projects and fits as the written-out formula
    # over all of its rows does, to roundoff, with the same multipliers on
    # the rows kept and the same dual value; at order 2 there is nothing to
    # fold, and these are the formula's bits
    problem = planted_problem(n, 3, order, n + order)[0]
    cache = problem.affine
    rows, rhs, pinv = written_out(problem)
    assert folds(problem) == (order > 2)
    keep = problem.num_data + 1 if order > 2 else problem.num_constraints
    assert cache.row_mat.shape[0] == len(cache.rhs) == keep
    rng = np.random.default_rng(n * order)
    for _ in range(3):
        x = rng.normal(size=rows.shape[1])
        projected = x - rows.T @ (pinv @ (rows @ x - rhs))
        u = pinv @ (rows @ x)
        fitted = rows.T @ u
        got_u, got_fitted = cache.fit(x)
        if order == 2:
            assert np.array_equal(cache.project(x), projected)
            assert np.array_equal(got_u, u) and np.array_equal(got_fitted, fitted)
            continue
        for got, expected in ((cache.project(x), projected), (got_fitted, fitted),
                              (got_u, u[:keep])):
            assert np.max(np.abs(got - expected)) <= 1e-14 * np.max(np.abs(expected))
        # the dropped rows' right-hand sides are 0
        assert abs(cache.rhs @ got_u - rhs @ u) <= 1e-14 * np.abs(rhs * u).sum()


def split_by_an_extra_row():
    """A quartic lift in two variables plus one row on a single cell,
    x1 * (x1 x2), of the two off-diagonal cells of the class x1^2 x2."""
    problem = planted_problem(2, 4, 4, 3)[0]
    cell = packed_index(problem.dim).cell  # basis 1, x1, x2, x1^2, x1 x2, x2^2
    row = np.zeros(problem.operator.shape[1])
    row[cell[1, 4]] = 1.0
    return LiftedProblem(num_vars=2, order=4, num_data=problem.num_data,
                         operator=np.vstack([problem.operator, row]),
                         values=np.append(problem.values, 0.3))


def arbitrary_cells_from_json():
    """A lifted file in two variables at order 4 whose three rows give every
    upper cell an arbitrary value."""
    rng = np.random.default_rng(21)
    basis = exponent_table(2, 2)
    cells = [(i, j) for i in range(len(basis)) for j in range(i, len(basis))]
    constraints = [{"y": float(rng.normal()), "kind": "data",
                    "entries": [{"row": i, "col": j, "value": float(rng.normal())}
                                for i, j in cells]} for _ in range(3)]
    return lifted_problem_from_json({"num_vars": 2, "order": 4,
                                     "basis": basis.tolist(),
                                     "constraints": constraints})


def edited_dependency():
    """A quartic lift in two variables whose first dependency row has its
    -1/2 changed to -0.4: no longer the lift's block, so nothing folds."""
    problem = planted_problem(2, 4, 4, 3)[0]
    operator = problem.operator.copy()
    row = operator[problem.num_data + 1]
    row[np.flatnonzero(row == -0.5)[0]] = -0.4
    return LiftedProblem(num_vars=2, order=4, num_data=problem.num_data,
                         operator=operator, values=problem.values)


def dependency_off_zero():
    """A quartic lift in two variables whose last dependency row asks for
    0.25 instead of 0: nothing folds."""
    problem = planted_problem(2, 4, 4, 3)[0]
    return LiftedProblem(num_vars=2, order=4, num_data=problem.num_data,
                         operator=problem.operator,
                         values=np.append(problem.values[:-1], 0.25))


def ill_conditioned():
    """Two unit rows 1e-6 apart: the Gram matrix is positive definite (the
    Cholesky factorization succeeds) but its trace product is about 4e12,
    past the cutoff."""
    operator = np.array([[1.0, 0.0, 0.0], [1.0, 0.0, 1e-6]])
    return LiftedProblem(num_vars=1, order=2, num_data=0, operator=operator,
                         values=[1.0, 1.0])


class TestProjectAffine:
    def test_feasible_point_unchanged(self):
        problem, x = planted_problem(2, 4, 2, 1)
        lifted = monomial_vector(x, problem.basis)
        planted = np.outer(lifted, lifted)
        out = project_matrix(problem.affine, planted)
        assert np.max(np.abs(out - planted)) < 1e-12 * (1 + np.max(np.abs(planted)))

    def test_idempotent(self):
        problem, _ = planted_problem(2, 4, 2, 2)
        rng = np.random.default_rng(0)
        X = rng.normal(size=(problem.dim, problem.dim))
        X = 0.5 * (X + X.T)
        once = project_matrix(problem.affine, X)
        twice = project_matrix(problem.affine, once)
        assert np.max(np.abs(twice - once)) < 1e-10

    def test_matches_kkt_oracle(self):
        rng = np.random.default_rng(1)
        for seed in range(5):
            problem, _ = planted_problem(1 + seed % 2, 3, 2 + 2 * (seed % 2), seed + 3)
            assert problem.dim <= 6
            X = rng.normal(size=(problem.dim, problem.dim))
            X = 0.5 * (X + X.T)
            ours = project_matrix(problem.affine, X)
            oracle = kkt_projection_oracle(problem, X)
            assert np.max(np.abs(ours - oracle)) < 1e-8

    def test_packed_vector_matches_kkt_oracle(self):
        # the solver's coordinates: svec in, svec of the projection out
        rng = np.random.default_rng(18)
        for seed in range(5):
            problem, _ = planted_problem(1 + seed % 2, 3, 2 + 2 * (seed % 2), seed + 3)
            weight = svec_weight(problem.dim)
            X = rng.normal(size=(problem.dim, problem.dim))
            X = 0.5 * (X + X.T)
            ours = problem.affine.project(pack(X) * weight)
            oracle = pack(kkt_projection_oracle(problem, X)) * weight
            assert np.max(np.abs(ours - oracle)) < 1e-8

    def test_packed_vector_idempotent(self):
        problem, _ = planted_problem(2, 4, 4, 2)
        cache = problem.affine
        x = np.random.default_rng(19).normal(size=problem.dim * (problem.dim + 1) // 2)
        once = cache.project(x)
        assert np.max(np.abs(once - x)) > 0.1
        assert np.max(np.abs(cache.project(once) - once)) < 1e-10

    def test_projection_satisfies_constraints(self):
        problem, _ = planted_problem(3, 6, 2, 4)
        cache = problem.affine
        rng = np.random.default_rng(2)
        for _ in range(10):
            X = rng.normal(size=(problem.dim, problem.dim))
            out = project_matrix(cache, 0.5 * (X + X.T))
            assert cache.violation(out) < 1e-8

    def test_inconsistency_bound(self):
        twice = system_of(1, {(1,): 1.0}, {(1,): 1.0})
        feasible = build_lifted_problem(twice, [1.0, 1.0], 2)
        assert feasible.affine.infeasibility_lb < 1e-10
        clash = build_lifted_problem(twice, [0.0, 1.0], 2)
        assert clash.affine.infeasibility_lb > 0.1

    def test_raw_rows_are_views_of_the_problem(self):
        problem, _ = planted_problem(2, 4, 4, 3)
        cache = problem.affine
        assert np.shares_memory(cache.row_mat_raw, problem.operator)
        assert np.shares_memory(cache.rhs_raw, problem.values)

    @pytest.mark.parametrize("make", [
        lambda: planted_problem(5, 50, 4, 2)[0], lambda: list(inconsistent_systems())[1],
        arbitrary_cells_from_json], ids=["nlbp", "qbp", "split_cells_from_json"])
    def test_fit_is_the_least_squares_fit_by_the_merged_rows(self, make):
        # the multipliers G^-1 R_c E x and the fit, R_c^T u spread over the
        # cells and x less its part off the fold on the folded ones, written
        # out on the cache's own arrays, bit for bit
        problem = make()
        cache = problem.affine
        X = np.random.default_rng(5).normal(size=(problem.dim, problem.dim))
        x = packed_index(problem.dim).svec(X)
        cells, columns, weights = cache.folded
        y = np.bincount(cache.column, x * cache.coef)
        u = cache.gram_pinv @ (cache.row_mat @ y)
        c = cache.row_mat.T @ u
        fitted = c[cache.column]
        fitted[cells] = x[cells] - (y - c)[columns] * weights
        got_u, got_fitted = cache.fit(x)
        assert np.array_equal(got_u, u)
        assert np.array_equal(got_fitted, fitted)

    def test_rows_are_half_width(self):
        # packed raw rows, and the rows kept (data and normalization) on
        # fewer columns: spread back over the dim (dim + 1) / 2 cells they
        # are the unit-norm svec rows projected off the dependency rows; the
        # raw rows are the problem's own
        problem, _ = planted_problem(2, 4, 4, 3)
        cache = problem.affine
        width = problem.dim * (problem.dim + 1) // 2
        assert cache.row_mat_raw.shape == (problem.num_constraints, width)
        assert np.shares_memory(cache.row_mat_raw, problem.operator)
        assert cache.column.shape == cache.coef.shape == (width,)
        assert cache.row_mat.shape == (problem.num_data + 1, cache.column.max() + 1)
        assert np.array_equal(np.unique(cache.column), np.arange(cache.row_mat.shape[1]))
        assert cache.row_mat.shape[1] < width
        assert folds(problem)
        assert np.allclose(spread_rows(cache), kept_rows(problem), rtol=0, atol=1e-15)

    @pytest.mark.parametrize("n, order, num_eqs", [(5, 2, 30), (5, 4, 50), (8, 4, 120)])
    def test_matches_cache_of_per_constraint_stack(self, n, order, num_eqs):
        # reference: the packed constraints lifted one at a time, stacked row
        # by row, weighted to svec rows and normalized, inverted (full rank,
        # proven by Cholesky, trace product within 1e12) or decomposed, and
        # projected as written out here. The degree-2 lift's classes are
        # single cells: its identity map gives these rows and projections
        # bit for bit. The quartic lifts merge each class's cells on one side
        # of the diagonal that no dependency row tells apart, fold each class
        # a dependency row ties into one column and drop those rows (51 x 136
        # and 121 x 523 instead of 66 x 231 and 157 x 1035), and agree to
        # roundoff.
        polys = [random_polynomial(n, order, 7000 + j, 1.0) for j in range(num_eqs)]
        x = np.random.default_rng(n + order).normal(size=n)
        values = [p.evaluate(x)[0] for p in polys]
        basis = exponent_table(n, order // 2)
        structural = generate_dependency_constraints(n, order)
        rows_raw = np.stack([polynomial_to_quadratic_form(p, order) for p in polys]
                            + list(structural))
        rhs_raw = np.array(values + [1.0] + [0.0] * (len(structural) - 1))
        problem = build_lifted_problem(stack(polys), values, order)
        assert np.array_equal(problem.operator, rows_raw)
        assert np.array_equal(problem.values, rhs_raw)
        svec_rows, rhs, pinv = written_out(problem)
        d = len(basis)
        i, j = np.triu_indices(d)
        weight = np.where(i == j, 1.0, np.sqrt(2.0))

        cache = problem.affine
        assert cache.row_mat.shape == {(5, 2): (31, 21), (5, 4): (51, 136),
                                       (8, 4): (121, 523)}[n, order]
        assert np.array_equal(_merge_map(n, order // 2)[0], searched_merge(problem))
        if order == 2:
            assert np.array_equal(cache.column, np.arange(len(i)))
            assert np.array_equal(cache.row_mat, svec_rows)
        else:
            assert np.allclose(spread_rows(cache), kept_rows(problem), rtol=0, atol=1e-15)
        rng = np.random.default_rng(n * order)
        for _ in range(3):
            X = rng.normal(size=(d, d))
            x_svec = (X[i, j] + X[j, i]) * (0.5 * weight)
            expected = x_svec - svec_rows.T @ (pinv @ (svec_rows @ x_svec - rhs))
            if order == 2:
                assert np.array_equal(cache.project(x_svec), expected)
            else:
                err = np.max(np.abs(cache.project(x_svec) - expected))
                assert err <= 1e-14 * np.max(np.abs(expected))
            fold = np.where(i == j, 0.5, 1.0)
            traces = rows_raw @ ((X[i, j] + X[j, i]) * fold)
            assert cache.violation(X) == float(np.max(np.abs(traces - rhs_raw)))

    @pytest.mark.parametrize("make", [
        split_by_an_extra_row, arbitrary_cells_from_json, ill_conditioned,
        lambda: list(inconsistent_systems())[1]],
        ids=["split_by_an_extra_row", "arbitrary_cells_from_json", "ill_conditioned", "qbp"])
    def test_any_operator_projects_like_the_svec_formula(self, make):
        # operators that are not plain lifts merge nothing: a row that splits
        # a merged class (x1 (x1 x2) apart from x2 x1^2) sends the operator
        # to the identity map, and the projection is the formula's bits
        problem = make()
        cache = problem.affine
        assert np.array_equal(cache.column, np.arange(len(cache.column)))
        svec_rows, rhs, pinv = written_out(problem)
        assert np.array_equal(cache.row_mat, svec_rows)
        rng = np.random.default_rng(22)
        for _ in range(3):
            x = rng.normal(size=svec_rows.shape[1])
            expected = x - svec_rows.T @ (pinv @ (svec_rows @ x - rhs))
            assert np.array_equal(cache.project(x), expected)

    @pytest.mark.parametrize("make", [edited_dependency, dependency_off_zero],
                             ids=["edited_dependency", "dependency_off_zero"])
    def test_an_edited_dependency_block_is_merged_but_not_folded(self, make):
        # the fold rule asks for the lift's dependency rows and right-hand
        # sides 0 exactly; without them every row is kept on the merged
        # columns, and the projection is the merged formula's bits
        problem = make()
        cache = problem.affine
        assert not folds(problem)
        assert np.array_equal(cache.column, _merge_map(2, 2)[0])
        assert cache.row_mat.shape == (problem.num_constraints, cache.column.max() + 1)
        assert not np.any(cache.coef != 1.0)
        assert np.allclose(spread_rows(cache), written_out(problem)[0], rtol=0, atol=1e-15)
        x = np.random.default_rng(23).normal(size=len(cache.column))
        merged = np.bincount(cache.column, x)
        step = cache.row_mat.T @ (cache.gram_pinv @ (cache.row_mat @ merged - cache.rhs))
        assert np.array_equal(cache.project(x), x - step[cache.column])

    def test_full_rank_gram_is_inverted_without_eigh(self, monkeypatch):
        # the NLBP lift's folded Gram matrix, over its data and
        # normalization rows, is full rank and well conditioned: Cholesky
        # proofs and inverses replace the eigendecomposition
        problem, _ = trial_problem(table1_spec(trials=1, seed=42), 0)
        M = problem.num_data + 1
        calls = count_eigh_calls(monkeypatch)
        cache = problem.affine
        monkeypatch.undo()
        assert calls == []
        rows = spread_rows(cache)
        gram = rows @ rows.T
        vals, vecs = np.linalg.eigh(gram)
        assert vals[0] > 1e-12 * vals[-1]
        pinv = (vecs / vals) @ vecs.T
        assert cache.gram_pinv.shape == (M, M)
        assert np.linalg.norm(cache.gram_pinv - pinv) <= 1e-12 * np.linalg.norm(pinv)
        assert cache.infeasibility_lb == 0.0

    @pytest.mark.parametrize("case", ["qbp", "ill_conditioned"])
    def test_rank_deficient_or_ill_conditioned_gram_takes_eigh(self, monkeypatch, case):
        if case == "qbp":
            # the degree-2 QBP lift has more constraints than svec columns
            problem = list(inconsistent_systems())[1]
            assert problem.num_constraints > problem.dim * (problem.dim + 1) // 2
        else:
            problem = ill_conditioned()
        M = problem.num_constraints
        refused = []
        cholesky = np.linalg.cholesky

        def spying(a):
            try:
                return cholesky(a)
            except np.linalg.LinAlgError:
                refused.append(a.shape)
                raise

        monkeypatch.setattr(np.linalg, "cholesky", spying)
        calls = count_eigh_calls(monkeypatch)
        cache = problem.affine
        monkeypatch.undo()
        assert calls == [(M, M)]
        assert refused == ([] if case == "ill_conditioned" else [(M, M)])
        rows = spread_rows(cache)
        gram = rows @ rows.T
        vals, vecs = np.linalg.eigh(gram)
        active = vals > 1e-12 * vals[-1]
        assert active.sum() < M
        pinv = (vecs[:, active] / vals[active]) @ vecs[:, active].T
        assert np.linalg.norm(cache.gram_pinv - pinv) <= 1e-9 * np.linalg.norm(pinv)

    def test_infeasibility_lb_is_that_of_all_the_rows(self):
        # an inconsistent system's Gram matrix is not full rank, folded or
        # not, so its cache keeps every row and bounds the violation as the
        # eigendecomposition of the written-out rows does
        for problem in inconsistent_systems():
            cache = problem.affine
            assert not folds(problem)
            assert cache.gram_pinv.shape == (problem.num_constraints,) * 2
            rows, rhs, _ = written_out(problem)
            vals, vecs = np.linalg.eigh(rows @ rows.T)
            basis = vecs[:, vals > 1e-12 * vals[-1]]
            scale = np.linalg.norm(problem.operator * svec_weight(problem.dim), axis=1)
            lb = scale.min() * np.linalg.norm(rhs - basis @ (basis.T @ rhs)) / np.sqrt(len(rhs))
            assert cache.infeasibility_lb == pytest.approx(lb, rel=1e-12)

    def test_infeasibility_lb_is_a_lower_bound(self):
        # no X, random or least squares, violates some constraint by less
        rng = np.random.default_rng(15)
        for problem in inconsistent_systems():
            cache = problem.affine
            assert cache.infeasibility_lb > 1e-3
            rows = dense_operator(problem).reshape(problem.num_constraints, -1)
            best = np.linalg.lstsq(rows, cache.rhs_raw, rcond=None)[0]
            candidates = [best.reshape(problem.dim, problem.dim)] + [
                rng.normal(scale=s, size=(problem.dim, problem.dim))
                for s in (1e-3, 1.0, 1e3) for _ in range(20)]
            for X in candidates:
                assert cache.infeasibility_lb <= cache.violation(X)


class TestGramInverse:
    """``_gram_inverse``: the unsplit route every operator but a folded one
    takes, and the Schur split of a folded Gram matrix."""

    def test_split_is_the_inverse(self):
        rng = np.random.default_rng(24)
        for size in range(1, 201):
            A = rng.normal(size=(size, 2 * size + 1))
            gram = A @ A.T
            expected = np.linalg.inv(gram)
            got = _gram_inverse(gram, split=True)
            assert np.max(np.abs(got - expected)) <= 1e-12 * np.max(np.abs(expected))

    @pytest.mark.parametrize("gram", [
        np.diag([-1.0, 2.0, 3.0]), np.diag([2.0, 3.0, -1.0]),
        np.array([[1.0, 2.0], [2.0, 1.0]]), np.diag([1.0, 1e-13]), np.diag([1e-13, 1.0])],
        ids=["leading_block_indefinite", "complement_indefinite", "indefinite_2x2",
             "past_the_cutoff", "past_the_cutoff_leading"])
    @pytest.mark.parametrize("split", [False, True])
    def test_refuses_an_indefinite_or_ill_conditioned_gram(self, gram, split):
        assert _gram_inverse(gram, split=split) is None


class TestProjectPsd:
    def test_psd_unchanged(self):
        rng = np.random.default_rng(3)
        A = rng.normal(size=(5, 5))
        psd = A @ A.T
        assert np.max(np.abs(project_psd(psd) - psd)) < 1e-10 * (1 + np.max(psd))

    def test_diagonal_clamp(self):
        assert np.array_equal(project_psd(np.diag([1.0, -2.0])), np.diag([1.0, 0.0]))

    def test_output_is_psd_and_symmetric(self):
        rng = np.random.default_rng(4)
        for _ in range(20):
            X = rng.normal(size=(6, 6))
            out = project_psd(0.5 * (X + X.T))
            assert np.array_equal(out, out.T)
            assert np.linalg.eigvalsh(out)[0] >= -1e-8 * max(np.linalg.norm(out), 1.0)

    def test_nearest_point_among_random_psd(self):
        rng = np.random.default_rng(5)
        X = rng.normal(size=(4, 4))
        X = 0.5 * (X + X.T)
        proj = project_psd(X)
        base = np.linalg.norm(proj - X)
        for _ in range(1000):
            A = rng.normal(size=(4, 4))
            candidate = A @ A.T
            assert base <= np.linalg.norm(candidate - X) + 1e-12


def count_calls(monkeypatch, owner, name):
    """Record the shape of the first argument of every call of
    ``owner.name``."""
    calls = []
    kernel = getattr(owner, name)

    def counting(A, *args):
        calls.append(A.shape)
        return kernel(A, *args)

    monkeypatch.setattr(owner, name, counting)
    return calls


def count_eigh_calls(monkeypatch):
    """The ``np.linalg.eigh`` calls: the cache build's."""
    return count_calls(monkeypatch, np.linalg, "eigh")


def count_cone_eigh_calls(monkeypatch):
    """The cone step's ``eigh`` calls, made through the loop's LAPACK seam."""
    return count_calls(monkeypatch, sdp_admm, "_eigh")


class TestWarmStartedProjectPsd:
    """With a start, ``project_psd`` may answer from a certified rank-one
    step instead of the full ``eigh``; either way it is the same map to
    roundoff."""

    DIM = 12
    NEGATIVE = list(np.linspace(-3.0, -0.2, DIM - 1))

    def assert_is_projection(self, X, start):
        out = project_psd(X, start)
        ref = project_psd(X)
        assert np.linalg.norm(out - ref) <= 1e-12 * np.linalg.norm(X)
        assert np.array_equal(out, out.T)
        assert np.linalg.eigvalsh(out)[0] >= -1e-12 * np.linalg.norm(X)
        return out

    @pytest.mark.parametrize("spectrum", [
        pytest.param([5.0] + NEGATIVE, id="one_positive"),
        pytest.param([1e-9] + NEGATIVE, id="tiny_top"),
        pytest.param([-0.1] + NEGATIVE, id="none_positive"),
        pytest.param([5.0, 2.0] + NEGATIVE[1:], id="two_positive"),
        pytest.param([5.0, 4.0, 0.5] + NEGATIVE[2:], id="three_positive"),
    ])
    def test_matches_eigh_path(self, spectrum):
        A, q = with_spectrum(spectrum, 1)
        near = q[:, 0] + 1e-3 * np.random.default_rng(2).normal(size=self.DIM)
        self.assert_is_projection(A, np.outer(near, near))

    def test_one_positive_eigenvalue_skips_eigh(self, monkeypatch):
        A, q = with_spectrum([5.0] + self.NEGATIVE, 3)
        start = project_psd(A + 1e-4 * with_spectrum(range(self.DIM), 4)[0])
        calls = count_cone_eigh_calls(monkeypatch)
        out = self.assert_is_projection(A, start)
        assert calls == [(self.DIM, self.DIM)]  # the reference call only
        np.testing.assert_allclose(out, 5.0 * np.outer(q[:, 0], q[:, 0]),
                                   rtol=0, atol=1e-13)

    def test_a_start_15_degrees_off_takes_the_third_step(self, monkeypatch):
        # Rayleigh-quotient iteration cubes tan(angle) at every step: from
        # 15 degrees 0.27 -> 2e-2 -> 7e-6 -> 4e-16, so the third step is the
        # one that meets the 1e-13 residual tolerance
        A, q = with_spectrum([5.0] + self.NEGATIVE, 10)
        off = q[:, 1:] @ np.random.default_rng(11).normal(size=self.DIM - 1)
        angle = np.deg2rad(15.0)
        u = np.cos(angle) * q[:, 0] + np.sin(angle) * off / np.linalg.norm(off)
        start = np.outer(u, u)
        ref = project_psd(A)
        calls = count_cone_eigh_calls(monkeypatch)
        out = project_psd(A, start)
        assert calls == []
        assert np.linalg.norm(out - ref) <= 1e-12 * np.linalg.norm(A)
        monkeypatch.setattr(sdp_admm, "_RANK_ONE_STEPS", 2)
        assert sdp_admm._rank_one_projection(A, start) is None

    def test_table1_trial_0_falls_back_to_eigh_six_times(self, monkeypatch):
        # five of this solve's six refused cone steps are iterations 2-6,
        # whose inputs have two or more positive eigenvalues (13 with two
        # Rayleigh-quotient steps)
        spec = table1_spec(trials=1, seed=42)
        system, _, values = sample_trial(spec, 0)
        problem = build_lifted_problem(system, values, 4)
        calls = count_cone_eigh_calls(monkeypatch)
        report = solve_nlbp(problem, default_trial_config(spec, values))
        assert report.iterations == 84
        # iteration 1 has no start; every other dim x dim eigh is a fallback
        assert calls.count((problem.dim, problem.dim)) == 1 + 6

    def test_non_symmetric_input(self):
        A, q = with_spectrum([5.0] + self.NEGATIVE, 5)
        skew = np.random.default_rng(6).normal(size=A.shape)
        X = A + (skew - skew.T)
        out = self.assert_is_projection(X, np.outer(q[:, 0], q[:, 0]))
        assert np.linalg.matrix_rank(out, tol=1e-9) == 1

    @pytest.mark.parametrize("bad", ["orthogonal", "zero"])
    def test_bad_starts(self, bad):
        A, q = with_spectrum([5.0] + self.NEGATIVE, 7)
        u = q[:, 1] + q[:, 5] if bad == "orthogonal" else np.zeros(self.DIM)
        self.assert_is_projection(A, np.outer(u, u))

    def test_certificate_refuses_a_second_positive_eigenpair(self, monkeypatch):
        # the start is the eigenpair (2, q_1), whose residual is fine; only
        # the Cholesky check sees that 5 is positive too
        A, q = with_spectrum([5.0, 2.0] + self.NEGATIVE[1:], 9)
        refused = []
        cholesky = sdp_admm._cholesky

        def spying(B):
            try:
                return cholesky(B)
            except np.linalg.LinAlgError:
                refused.append(B.shape)
                raise

        monkeypatch.setattr(sdp_admm, "_cholesky", spying)
        out = self.assert_is_projection(A, np.outer(q[:, 1], q[:, 1]))
        assert refused == [(self.DIM, self.DIM)]
        assert np.linalg.matrix_rank(out, tol=1e-9) == 2

    def test_second_positive_eigenvalue_is_refused_after_one_solve(self, monkeypatch):
        # the inertia proof runs right after the first Rayleigh-quotient
        # step, so an input that no start can pass costs one solve, not the
        # two this start would need to converge
        A, q = with_spectrum([5.0, 2.0] + self.NEGATIVE[1:], 9)
        near = q[:, 0] + 1e-2 * q[:, 2]
        solves = []
        solve = sdp_admm._solve

        def counting(a, b):
            solves.append(a.shape)
            return solve(a, b)

        monkeypatch.setattr(sdp_admm, "_solve", counting)
        assert sdp_admm._rank_one_projection(A, np.outer(near, near)) is None
        assert solves == [(self.DIM, self.DIM)]

    @pytest.mark.parametrize("kernel", ["solve", "cholesky"])
    def test_fast_path_linalg_error_falls_back(self, monkeypatch, kernel):
        # every start takes one Rayleigh-quotient step (solve) and then the
        # Cholesky check; a failure of either is a fallback to eigh
        A, q = with_spectrum([5.0] + self.NEGATIVE, 8)
        near = q[:, 0] + (1e-3 * q[:, 1] if kernel == "solve" else 0.0)
        start = np.outer(near, near)
        ref = project_psd(A)
        raised = []

        def broken(*args):
            raised.append(kernel)
            raise np.linalg.LinAlgError("singular")

        monkeypatch.setattr(sdp_admm, f"_{kernel}", broken)
        calls = count_cone_eigh_calls(monkeypatch)
        assert np.array_equal(project_psd(A, start), ref)
        assert raised == [kernel] and calls == [(self.DIM, self.DIM)]

    @pytest.mark.parametrize("passes", [1, 3])
    def test_eigh_failure_in_the_loop_is_a_solver_error(self, monkeypatch, passes):
        # the cache is built first, so every call counted is a cone step's:
        # the first has no start, the next ones fell back. A cone step makes
        # at most one eigh, so the k-th call comes at iteration k or later.
        problem, _ = planted_problem(2, 4, 4, 12)
        problem.affine  # the cache build, outside the count
        calls = []
        eigh = sdp_admm._eigh

        def failing(A):
            calls.append(A.shape)
            if len(calls) > passes:
                raise np.linalg.LinAlgError("no convergence")
            return eigh(A)

        monkeypatch.setattr(sdp_admm, "_eigh", failing)
        with pytest.raises(SolverError) as info:
            solve_nlbp(problem)
        assert len(calls) == passes + 1
        assert info.value.iteration >= passes + 1
        assert isinstance(info.value.__cause__, np.linalg.LinAlgError)
        assert calls[-1] == (problem.dim, problem.dim)


class TestLapackSeam:
    """``sdp_admm._solve``, ``_cholesky`` and ``_eigh`` run the gufuncs of
    ``np.linalg.solve``, ``cholesky`` and ``eigh`` without their wrapper:
    the same bits, the same LinAlgError messages, and no ``np.linalg``
    call left in the loop."""

    @staticmethod
    def operands(dim, seed):
        """A general matrix, a symmetric positive definite one and a
        vector, each also as a non-contiguous view: the leading block of
        a larger array, as the Anderson solve's ``gram[:k, :k]`` is."""
        rng = np.random.default_rng(seed)
        big = rng.normal(size=(dim + 3, dim + 3))
        general = big[:dim, :dim]
        spd = big @ big.T + dim * np.eye(dim + 3)
        b = rng.normal(size=2 * dim)[::2]
        return [(general, spd[:dim, :dim], b),
                (general.copy(), spd[:dim, :dim].copy(), b.copy())]

    @pytest.mark.parametrize("dim", [1, 2, 8, 21, 45])
    def test_same_bits_as_numpy_linalg(self, dim):
        for general, spd, b in self.operands(dim, dim):
            assert np.array_equal(sdp_admm._solve(general, b), np.linalg.solve(general, b))
            assert np.array_equal(sdp_admm._cholesky(spd), np.linalg.cholesky(spd))
            for a in (spd, 0.5 * (general + general.T)):
                vals, vecs = sdp_admm._eigh(a)
                ref = np.linalg.eigh(a)
                assert np.array_equal(vals, ref.eigenvalues)
                assert np.array_equal(vecs, ref.eigenvectors)

    @pytest.mark.parametrize("kernel, args", [
        ("solve", (np.array([[1.0, 2.0], [2.0, 4.0]]), np.ones(2))),
        ("cholesky", (np.diag([1.0, -1.0]),)),
        ("eigh", (np.full((3, 3), np.nan),)),
    ], ids=["singular", "not_positive_definite", "nan"])
    def test_failures_raise_numpys_linalg_error(self, kernel, args):
        with pytest.raises(np.linalg.LinAlgError) as expected:
            getattr(np.linalg, kernel)(*args)
        before = np.geterr()
        with pytest.raises(np.linalg.LinAlgError) as raised:
            getattr(sdp_admm, f"_{kernel}")(*args)
        assert str(raised.value) == str(expected.value)
        assert np.geterr() == before  # the error state is restored

    def test_the_loop_makes_no_numpy_linalg_call(self, monkeypatch):
        # with the cache built first, a solve runs every LAPACK call through
        # the seam: breaking np.linalg leaves the report's bits as they were
        problem, config = trial_problem(table1_spec(trials=1, seed=42), 0)
        problem.affine  # the cache build calls np.linalg
        ref = solve_nlbp(problem, config)
        assert ref.accelerated > 0  # the Anderson solve ran too

        def broken(*args, **kwargs):
            raise np.linalg.LinAlgError("np.linalg called")

        for kernel in ("solve", "cholesky", "eigh"):
            monkeypatch.setattr(np.linalg, kernel, broken)
        report = solve_nlbp(problem, config)
        monkeypatch.undo()
        for field in dataclasses.fields(report):
            a, b = getattr(report, field.name), getattr(ref, field.name)
            assert np.array_equal(a, b) if isinstance(a, np.ndarray) else a == b


class TestSoftThreshold:
    def test_zero_threshold_is_identity(self):
        rng = np.random.default_rng(6)
        Z = rng.normal(size=(4, 4))
        assert np.array_equal(soft_threshold(Z, 0.0), Z)

    def test_small_values_zeroed(self):
        assert soft_threshold(np.array([[0.5]]), 1.0) == np.array([[0.0]])

    def test_negative_threshold_rejected(self):
        with pytest.raises(ValueError):
            soft_threshold(np.zeros((2, 2)), -0.1)

    def test_prox_optimality_grid(self):
        # scalar grid oracle: the output must minimize t*|w| + 0.5*(w - z)^2
        for z in (-2.3, -0.4, 0.0, 0.7, 3.1):
            for t in (0.0, 0.3, 1.0, 2.5):
                got = float(soft_threshold(np.array([[z]]), t)[0, 0])
                grid = np.linspace(z - 2 * t - 1, z + 2 * t + 1, 4001)
                objective = t * np.abs(grid) + 0.5 * (grid - z) ** 2
                best = grid[np.argmin(objective)]
                spacing = grid[1] - grid[0]
                assert abs(got - best) <= spacing

    def test_preserves_symmetry(self):
        rng = np.random.default_rng(7)
        Z = rng.normal(size=(5, 5))
        Z = 0.5 * (Z + Z.T)
        out = soft_threshold(Z, 0.4)
        assert np.array_equal(out, out.T)


class TestSolverConfig:
    def test_bounds_validated(self):
        with pytest.raises(ValueError):
            SolverConfig(lam=-1.0)
        with pytest.raises(ValueError):
            SolverConfig(rho=0.0)
        with pytest.raises(ValueError):
            SolverConfig(eps_abs=0.0)
        # nan passes both < and <=, so each bound is written to fail on it
        for field, message in (("lam", "lam"), ("rho", "rho"),
                               ("eps_abs", "tolerances"), ("eps_rel", "tolerances")):
            for bad in (math.nan, math.inf):
                with pytest.raises(ValueError, match=message):
                    SolverConfig(**{field: bad})
        for bad in (0, 2.5, 100.0, True, math.nan):
            with pytest.raises(ValueError, match="max_iters"):
                SolverConfig(max_iters=bad)
        assert SolverConfig(max_iters=np.int64(5)).max_iters == 5


class TestSolve:
    def trivial_problem(self):
        return build_lifted_problem(system_of(1, {(1,): 1.0}), [1.0], 2)

    def test_trivial_converges_to_rank_one(self):
        report = solve_nlbp(self.trivial_problem(),
                            SolverConfig(eps_abs=1e-11, eps_rel=1e-10))
        assert report.status is SolveStatus.CONVERGED
        assert np.max(np.abs(report.X - np.ones((2, 2)))) < 1e-8
        vals = np.linalg.eigvalsh(report.X)
        assert vals[0] == pytest.approx(0.0, abs=1e-8)

    def test_report_fields_consistent(self):
        report = solve_nlbp(self.trivial_problem(), SolverConfig(lam=0.5))
        assert report.objective == pytest.approx(
            np.trace(report.X) + 0.5 * np.sum(np.abs(report.X)))
        assert report.primal_residual >= 0
        assert report.dual_residual >= 0

    def test_min_eigenvalue_bound_at_tight_tolerance(self):
        problem, _ = planted_problem(2, 5, 2, 7)
        report = solve_nlbp(problem, SolverConfig(eps_abs=1e-12, eps_rel=1e-11,
                                                  max_iters=200000))
        assert report.status is SolveStatus.CONVERGED
        assert report.min_eigenvalue >= -1e-8 * np.linalg.norm(report.X)

    def test_deterministic_bitwise(self):
        problem, _ = planted_problem(3, 8, 2, 8)
        config = SolverConfig(max_iters=500)
        a = solve_nlbp(problem, config)
        b = solve_nlbp(problem, config)
        assert np.array_equal(a.X, b.X)
        assert a.iterations == b.iterations
        assert a.primal_residual == b.primal_residual

    def test_max_iters_status(self):
        problem, _ = planted_problem(3, 8, 4, 9)
        report = solve_nlbp(problem, SolverConfig(max_iters=3))
        assert report.status is SolveStatus.MAX_ITERS
        assert report.iterations == 3

    def test_infeasible_detected(self):
        clash = build_lifted_problem(system_of(1, {(1,): 1.0}, {(1,): 1.0}), [0.0, 1.0], 2)
        report = solve_nlbp(clash)
        assert report.status is SolveStatus.INFEASIBLE
        assert report.constraint_violation > 1e-3
        assert report.iterations == 0  # proven before the first iteration

    def test_infeasibility_lb_reported(self):
        # proven infeasible before the first iteration: the bound clears the
        # feasibility tolerance 1e-6 * (1 + max |v|); a consistent system's
        # bound is roundoff
        clash = solve_nlbp(build_lifted_problem(
            system_of(1, {(1,): 1.0}, {(1,): 1.0}), [0.0, 1.0], 2))
        assert clash.infeasibility_lb > 1e-6 * 2.0
        assert report_to_json(clash)["infeasibility_lb"] == clash.infeasibility_lb
        consistent = solve_nlbp(self.trivial_problem())
        assert consistent.status is SolveStatus.CONVERGED
        assert consistent.infeasibility_lb < 1e-12

    def test_multipliers_are_the_final_scaled_duals(self):
        # the Z-step makes rho (U1 + U2) a subgradient multiple: zero at
        # lam = 0, within [-lam, lam] entrywise otherwise
        problem, _ = planted_problem(2, 4, 4, 7)
        for lam in (0.0, 0.3):
            report = solve_nlbp(problem, SolverConfig(lam=lam, rho=0.5, max_iters=600))
            total = report.dual_affine + report.dual_psd
            assert report.lam == lam
            assert np.max(np.abs(report.dual_psd)) > 0.1
            assert np.max(np.abs(total)) <= lam + 1e-15 * np.max(np.abs(report.dual_psd))

    def test_report_json_round_trip(self):
        report = solve_nlbp(self.trivial_problem(), SolverConfig(lam=0.25))
        back = report_from_json(report_to_json(report, include_matrix=True))
        for key in ("X", "dual_affine", "dual_psd"):
            assert np.array_equal(getattr(back, key), getattr(report, key))
        assert back.lam == 0.25
        assert back.infeasibility_lb == report.infeasibility_lb
        assert back.rho == report.rho
        assert back.accelerated == report.accelerated > 0
        bare = report_to_json(report)
        del bare["rho"], bare["accelerated"]  # as written before the fields existed
        bare = report_from_json(bare)
        assert bare.X.size == bare.dual_affine.size == bare.dual_psd.size == 0
        assert np.isnan(bare.rho)
        assert bare.accelerated == 0

    def test_converged_implies_residuals_below_tolerance(self):
        problem, _ = planted_problem(2, 6, 4, 10)
        config = SolverConfig()
        report = solve_nlbp(problem, config)
        assert report.status is SolveStatus.CONVERGED
        scale = np.sqrt(2.0) * problem.dim
        eps_pri_floor = scale * config.eps_abs
        # the relative part only enlarges the threshold
        assert report.primal_residual <= eps_pri_floor + config.eps_rel * (
            2 * np.sqrt(2.0) * np.linalg.norm(report.X) + 1.0)

    def test_residual_stall_detector(self):
        # windowed sanity: the combined residual never jumps by more than 10x
        # between consecutive 50-iteration windows; the reference loop takes
        # the solver's steps bit for bit and keeps every residual pair
        problem, _ = planted_problem(3, 10, 4, 11)
        config = SolverConfig()
        ref = reference_loop(problem, config)
        assert_same_as_reference(solve_nlbp(problem, config), ref)
        combined = np.array(ref.history).sum(axis=1)
        assert len(combined) == ref.iterations
        windows = [combined[i:i + 50] for i in range(0, len(combined) - 50, 50)]
        for prev, cur in zip(windows, windows[1:]):
            assert cur.max() <= 10.0 * prev.max()

    def test_lambda_zero_matches_manual_threshold_free_run(self):
        # with lam = 0 the shrinkage step is the identity, so the solver is
        # plain trace minimization; verify via the prox itself
        rng = np.random.default_rng(14)
        Z = rng.normal(size=(4, 4))
        assert np.array_equal(soft_threshold(Z, 0.0 / 2.0), Z)


def reference_loop(problem, config, alpha=sdp_admm._RELAX, balance=True,
                   accelerate=True):
    """The ADMM loop of ``solve_nlbp`` written out plainly in svec
    coordinates: the state x = (z, u1, u2) as one flat vector of three
    packed dim (dim + 1) / 2 blocks, off-diagonals times sqrt(2), a fresh
    array for every step, a fresh gradient step and a shrinkage call every
    iteration, ``np.linalg.norm``, the same ``cache.project`` and the same ``project_psd`` warm-started from the previous
    cone output. Only the cone step sees a matrix, unpacked and repacked by
    ``packed_layout``. Each block's output is over-relaxed by ``alpha``
    before the consensus and multiplier updates (alpha = 1 is plain ADMM);
    the residuals and the stopping rule use the unrelaxed outputs. The
    shrinkage threshold of an entry is lam / (2 rho) times its svec weight;
    at lam > 0 the new U2 is the consensus sum clipped to twice the
    thresholds minus the new U1, as the solver takes it.
    With ``balance``, every 50 iterations rho is scaled by the square root
    of the ratio of the normalized primal and dual residuals, clamped to
    [1/4, 4] and kept when within [1/2, 2], and u1, u2 are divided by the
    same factor; without it rho stays ``config.rho``.

    With ``accelerate``, from iteration 20 on, F = T(x) is the output of the
    iteration and g = F - x. The differences of g and F from the previous
    iteration's go into a ring of 8 slots; G is the Gram matrix of the g
    differences with its diagonal scaled by 1 + 1e-10, the right-hand side
    dG' g is carried from the previous g by adding the new Gram row (as the
    solver carries it), and the next state is F - dF' gamma, gamma = G^-1
    dG' g. The ring empties at every rho change and whenever ||g|| grows; if
    it grows at an extrapolated state, the next state is the previous F.

    Returns a namespace: the final X, multipliers and rho as matrices, the
    iteration and extrapolation counts, ``restarts``, how often each restart
    fired, and ``history``, the (primal, dual) residual pair of every
    iteration."""
    cache = problem.affine
    dim, rho = problem.dim, config.rho
    weight = svec_weight(dim)
    on_diagonal = (weight == 1.0).astype(float)
    S = len(weight)
    size = 3 * S

    def matrix(p):
        return unpack(p / weight, dim)

    x = np.zeros(size)
    dG, dF = np.zeros((8, size)), np.zeros((8, size))
    gram, projected = np.zeros((8, 8)), np.zeros(8)
    held = slot = accelerated = 0
    g_old = F_old = None
    g_old_sq = np.inf
    jumped = False
    restarts = {"rho": 0, "growth": 0, "rejected": 0}
    history = []
    scale = np.sqrt(2.0) * dim
    X2 = None
    for iteration in range(1, config.max_iters + 1):
        Z, U1, U2 = x.reshape(3, S)
        X1 = cache.project(Z - U1 - (1.0 / rho) * on_diagonal)
        X2 = project_psd(matrix(Z - U2), X2)
        x2 = pack(X2) * weight
        H1 = alpha * X1 + (1.0 - alpha) * Z
        H2 = alpha * x2 + (1.0 - alpha) * Z
        W = (H1 + U1) + (H2 + U2)
        threshold = config.lam / (2.0 * rho) * weight
        Z_new = soft_threshold(0.5 * W, threshold)
        U1_new = U1 + H1 - Z_new
        if config.lam > 0:
            U2_new = np.clip(W, -2.0 * threshold, 2.0 * threshold) - U1_new
        else:
            U2_new = U2 + H2 - Z_new
        primal = np.linalg.norm(np.concatenate([X1 - Z_new, x2 - Z_new]))
        dual = rho * np.sqrt(2.0) * np.linalg.norm(Z_new - Z)
        history.append((primal, dual))
        primal_scale = max(np.linalg.norm(np.concatenate([X1, x2])),
                           np.sqrt(2.0) * np.linalg.norm(Z_new))
        dual_scale = rho * np.linalg.norm(np.concatenate([U1_new, U2_new]))
        eps_pri = scale * config.eps_abs + config.eps_rel * primal_scale
        eps_dual = scale * config.eps_abs + config.eps_rel * dual_scale
        if primal <= eps_pri and dual <= eps_dual:
            break
        factor = 1.0
        if (balance and iteration % 50 == 0
                and primal_scale > 0 and dual_scale > 0 and dual > 0):
            factor = np.sqrt((primal / primal_scale) / (dual / dual_scale))
            factor = min(max(factor, 0.25), 4.0)
            if 0.5 <= factor <= 2.0:
                factor = 1.0
        if factor != 1.0:
            rho = rho * factor
            U1_new = U1_new / factor
            U2_new = U2_new / factor
        F = np.concatenate([Z_new, U1_new, U2_new])
        if factor != 1.0:
            restarts["rho"] += 1
            held = slot = 0
            g_old, g_old_sq, jumped = None, np.inf, False
            x = F
            continue
        if not accelerate or iteration < 20:
            x = F
            continue

        g = F - x
        g_sq = g @ g
        x_next, extrapolated = F, False
        if g_sq > g_old_sq:
            restarts["growth"] += 1
            held = slot = 0
            if jumped:
                restarts["rejected"] += 1
                x, g_old, jumped = F_old, None, False
                continue
        elif g_old is not None:
            dG[slot] = g - g_old
            dF[slot] = F - F_old
            held = min(held + 1, 8)
            row = dG[:held] @ dG[slot]
            projected[:held] += row
            projected[slot] = dG[slot] @ g
            row[slot] *= 1.0 + 1e-10
            gram[slot, :held] = row
            gram[:held, slot] = row
            slot = (slot + 1) % 8
            try:
                gamma = np.linalg.solve(gram[:held, :held], projected[:held])
            except np.linalg.LinAlgError:
                held = slot = 0
            else:
                x_next, extrapolated = F - gamma @ dF[:held], True
                accelerated += 1
        g_old, F_old, g_old_sq = g, F, g_sq
        x, jumped = x_next, extrapolated
    return SimpleNamespace(X=matrix(Z_new), iterations=iteration, primal=primal,
                           dual=dual, dual_affine=matrix(rho * U1_new),
                           dual_psd=matrix(rho * U2_new), rho=rho,
                           accelerated=accelerated, restarts=restarts, history=history)


def matrix_loop(problem, config):
    """The same loop in full dim x dim matrix coordinates, as the solver ran
    it before its state was packed: Z, U1, U2 and every residual are
    matrices, and the affine step projects the svec of Z - U1 - (1/rho) I.
    Its arithmetic differs from the solver's in rounding only, so it is an
    independent oracle for the packed loop's iterates, not a bitwise one.
    Returns the final X and the iteration count."""
    cache = problem.affine
    dim, rho = problem.dim, config.rho
    size = 3 * dim * dim
    x = np.zeros(size)
    dG, dF = np.zeros((8, size)), np.zeros((8, size))
    gram, projected = np.zeros((8, 8)), np.zeros(8)
    held = slot = 0
    alpha = sdp_admm._RELAX
    g_old = F_old = None
    g_old_sq = np.inf
    jumped = False
    scale = np.sqrt(2.0) * dim
    X2 = None
    for iteration in range(1, config.max_iters + 1):
        Z, U1, U2 = x.reshape(3, dim, dim)
        X1 = project_matrix(cache, Z - U1 - (1.0 / rho) * np.eye(dim))
        X2 = project_psd(Z - U2, X2)
        H1 = alpha * X1 + (1.0 - alpha) * Z
        H2 = alpha * X2 + (1.0 - alpha) * Z
        Z_new = soft_threshold(0.5 * ((H1 + U1) + (H2 + U2)), config.lam / (2.0 * rho))
        U1_new = U1 + H1 - Z_new
        U2_new = U2 + H2 - Z_new
        primal = np.sqrt(np.linalg.norm(X1 - Z_new) ** 2
                         + np.linalg.norm(X2 - Z_new) ** 2)
        dual = rho * np.sqrt(2.0) * np.linalg.norm(Z_new - Z)
        primal_scale = max(
            np.sqrt(np.linalg.norm(X1) ** 2 + np.linalg.norm(X2) ** 2),
            np.sqrt(2.0) * np.linalg.norm(Z_new),
        )
        dual_scale = rho * np.sqrt(np.linalg.norm(U1_new) ** 2
                                   + np.linalg.norm(U2_new) ** 2)
        eps_pri = scale * config.eps_abs + config.eps_rel * primal_scale
        eps_dual = scale * config.eps_abs + config.eps_rel * dual_scale
        if primal <= eps_pri and dual <= eps_dual:
            break
        factor = 1.0
        if (iteration % 50 == 0
                and primal_scale > 0 and dual_scale > 0 and dual > 0):
            factor = np.sqrt((primal / primal_scale) / (dual / dual_scale))
            factor = min(max(factor, 0.25), 4.0)
            if 0.5 <= factor <= 2.0:
                factor = 1.0
        if factor != 1.0:
            rho = rho * factor
            U1_new = U1_new / factor
            U2_new = U2_new / factor
        F = np.concatenate([Z_new.ravel(), U1_new.ravel(), U2_new.ravel()])
        if factor != 1.0:
            held = slot = 0
            g_old, g_old_sq, jumped = None, np.inf, False
            x = F
            continue
        if iteration < 20:
            x = F
            continue

        g = F - x
        g_sq = g @ g
        x_next, extrapolated = F, False
        if g_sq > g_old_sq:
            held = slot = 0
            if jumped:
                x, g_old, jumped = F_old, None, False
                continue
        elif g_old is not None:
            dG[slot] = g - g_old
            dF[slot] = F - F_old
            held = min(held + 1, 8)
            row = dG[:held] @ dG[slot]
            projected[:held] += row
            projected[slot] = dG[slot] @ g
            row[slot] *= 1.0 + 1e-10
            gram[slot, :held] = row
            gram[:held, slot] = row
            slot = (slot + 1) % 8
            try:
                gamma = np.linalg.solve(gram[:held, :held], projected[:held])
            except np.linalg.LinAlgError:
                held = slot = 0
            else:
                x_next, extrapolated = F - gamma @ dF[:held], True
        g_old, F_old, g_old_sq = g, F, g_sq
        x, jumped = x_next, extrapolated
    return Z_new, iteration


def assert_same_as_reference(report, ref):
    assert report.iterations == ref.iterations and report.rho == ref.rho
    assert report.accelerated == ref.accelerated
    assert np.array_equal(report.X, ref.X)
    assert report.primal_residual == ref.primal and report.dual_residual == ref.dual
    assert np.array_equal(report.dual_affine, ref.dual_affine)
    assert np.array_equal(report.dual_psd, ref.dual_psd)


class TestLoopPinned:
    # trial 0 of each spec; the dense one at lam = 0.1 takes 327 iterations
    # with 2 rho changes and rejects 2 extrapolations, the n = 8 one (dim 45)
    # rejects 1, so the bitwise match covers every transition of the memory
    @pytest.mark.parametrize("spec, lam, rejects", [
        *(pytest.param(table1_spec(trials=1, seed=42), lam, False, id=f"{lam}")
          for lam in (0.0, 0.1)),
        *(pytest.param(dense_spec(trials=1, seed=42), lam, lam > 0, id=f"dense-{lam}")
          for lam in (0.0, 0.1)),
        *(pytest.param(table1_spec(trials=1, seed=1000, num_vars=8, num_equations=120),
                       lam, lam > 0, id=f"n8-{lam}")
          for lam in (0.0, 0.1)),
    ])
    def test_matches_reference_loop_bitwise(self, spec, lam, rejects):
        problem, config = trial_problem(spec, 0, lam=lam)
        ref = reference_loop(problem, config)
        assert ref.accelerated > 0
        assert (ref.restarts["rejected"] > 0) == rejects
        assert_same_as_reference(solve_nlbp(problem, config), ref)

    # trial 0 converges at 84 iterations at lam = 0 and at 53 at lam = 0.1
    @pytest.mark.parametrize("lam, cap", [(0.0, 73), (0.1, 43)])
    def test_capped_solve_matches_reference_loop_bitwise(self, lam, cap):
        # the solver computes the dual residual only where it is read; the
        # cap is no multiple of the balancing interval, and the primal test
        # fails there, so the reported dual residual is the one the cap reads
        problem, config = trial_problem(table1_spec(trials=1, seed=42), 0, lam=lam,
                                        max_iters=cap)
        assert config.max_iters % sdp_admm._ADAPT_EVERY != 0
        ref = reference_loop(problem, config)
        report = solve_nlbp(problem, config)
        assert report.status is SolveStatus.MAX_ITERS and report.iterations == cap
        assert_same_as_reference(report, ref)

    @pytest.mark.parametrize("lam", [0.0, 0.1])
    def test_matches_matrix_loop(self, lam):
        # the loop of matrices the packed state replaced takes the same
        # steps up to rounding: only the coordinates changed
        problem, config = trial_problem(table1_spec(trials=1, seed=42), 0, lam=lam)
        X, iterations = matrix_loop(problem, config)
        report = solve_nlbp(problem, config)
        assert report.iterations == iterations
        assert np.linalg.norm(report.X - X) <= 1e-12 * np.linalg.norm(X)

    def test_memory_restarts_on_rho_change_and_on_growth(self, monkeypatch):
        # A start 100x too small: rho climbs in factors of 4, and while the
        # multipliers drift at a constant g, extrapolations overshoot, g
        # grows and the extrapolated state is undone. The reference counts
        # each restart; the solver must take the same steps bit for bit.
        problem, config = trial_problem(dense_spec(trials=2, seed=42), 1)
        config = dataclasses.replace(config, rho=0.01 * config.rho)
        ref = reference_loop(problem, config)
        assert ref.restarts["rho"] > 0 and ref.restarts["rejected"] > 0
        assert ref.restarts["growth"] > ref.restarts["rejected"]

        # and directly: after a rho change the memory holds nothing, so the
        # first least-squares solve after it has one unknown, and it comes
        # two iterations later (one iteration to record g, one to difference)
        iteration, changes, solves = [0], [], []
        psd, factor = sdp_admm.project_psd, sdp_admm._penalty_factor
        solve = sdp_admm._solve

        def counting_psd(X, start=None, proof=None):
            iteration[0] += 1
            return psd(X) if start is None else psd(X, start, proof=proof)

        def spying_factor(*args):
            out = factor(*args)
            if out != 1.0:
                changes.append(iteration[0])
            return out

        def spying_solve(a, b):
            if a.shape[0] <= sdp_admm._AA_MEMORY:  # the cone step's are dim x dim
                solves.append((iteration[0], a.shape[0]))
            return solve(a, b)

        monkeypatch.setattr(sdp_admm, "project_psd", counting_psd)
        monkeypatch.setattr(sdp_admm, "_penalty_factor", spying_factor)
        monkeypatch.setattr(sdp_admm, "_solve", spying_solve)
        report = solve_nlbp(problem, config)
        monkeypatch.undo()
        assert_same_as_reference(report, ref)
        assert len(changes) == ref.restarts["rho"]
        assert max(size for _, size in solves) == sdp_admm._AA_MEMORY
        for change in changes:
            after = [(k, size) for k, size in solves if k > change]
            if after:
                assert after[0][0] >= change + 2 and after[0][1] == 1

    def test_n8_solve_holds_packed_state(self):
        # dim 45: x = (z, u1, u2) is 3 x 1,035 floats and the Anderson ring
        # 397 KB. Full dim x dim state (3 x 2,025 floats, a 778 KB ring)
        # peaked at 2.80 MB, and row norms that square all 1.3 MB of rows at
        # once at 2.60 MB; one solve, its cache build included, takes 2.29 MB.
        spec = table1_spec(trials=1, seed=1000, num_vars=8, num_equations=120)
        problem, config = trial_problem(spec, 0)
        solve_nlbp(problem, dataclasses.replace(config, max_iters=2))  # per-dim caches
        problem = trial_problem(spec, 0)[0]  # unfactored: the solve builds its cache
        tracemalloc.start()
        try:
            solve_nlbp(problem, config)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2.4e6

    def test_solver_error_in_an_accelerated_iteration_keeps_its_index(self, monkeypatch):
        problem, config = trial_problem(table1_spec(trials=1, seed=42), 0)
        before = solve_nlbp(problem, dataclasses.replace(config, max_iters=29))
        assert before.accelerated > 0
        psd, calls = sdp_admm.project_psd, []

        def failing(X, start=None, proof=None):
            calls.append(X.shape)
            if len(calls) == 30:
                raise np.linalg.LinAlgError("no convergence")
            return psd(X) if start is None else psd(X, start, proof=proof)

        monkeypatch.setattr(sdp_admm, "project_psd", failing)
        with pytest.raises(SolverError) as info:
            solve_nlbp(problem, config)
        assert info.value.iteration == 30
        assert isinstance(info.value.__cause__, np.linalg.LinAlgError)

    def test_rho_overflow_is_a_solver_error(self):
        # a consistent lift with no PSD point, the QBP lift of trial 0 of the
        # seed-7 table1 shape with 8 equations (dim 6, 9 rows): balancing
        # multiplies rho by 4 every 50 iterations until rho ||v|| overflows,
        # and the solve then fails at that balancing step with a SolverError,
        # where it used to divide by zero
        spec = table1_spec(trials=1, seed=7, num_equations=8)
        polys, _, values = sample_trial(spec, 0)
        problem = build_lifted_problem(polys.truncate(2), values, 2)
        assert (problem.dim, problem.num_constraints) == (6, 9)
        assert problem.affine.infeasibility_lb == 0.0
        with pytest.raises(SolverError, match="overflowed") as info:
            solve_nlbp(problem, default_trial_config(spec, values))
        assert info.value.iteration == 25600


class TestOverRelaxation:
    """The relaxed, penalty-balanced loop reaches the optimum that plain ADMM
    (alpha = 1, fixed rho) reaches, and at lam = 0, which both ensembles use,
    in fewer iterations. At lam = 0.1 relaxation alone needs more on these
    trials (about 1.4x over table1 trials 0-9), so there only the optimum is
    compared."""

    @pytest.mark.parametrize("spec, trial, lam", [
        *(pytest.param(table1_spec(trials=3, seed=42), trial, lam,
                       id=f"table1-{trial}-lam{lam}")
          for lam in (0.0, 0.1) for trial in range(3)),
        pytest.param(dense_spec(trials=1, seed=42), 0, 0.0, id="dense-0-lam0.0"),
    ])
    def test_same_optimum_in_fewer_iterations(self, spec, trial, lam):
        polys, _, values = sample_trial(spec, trial)
        problem = build_lifted_problem(polys, values, spec.order)
        config = dataclasses.replace(default_trial_config(spec, values), lam=lam)
        report = solve_nlbp(problem, config)
        plain = reference_loop(problem, config, alpha=1.0, balance=False,
                               accelerate=False)
        X_ref, iterations_ref = plain.X, plain.iterations
        assert report.status is SolveStatus.CONVERGED
        assert np.linalg.norm(report.X - X_ref) <= 1e-6 * np.linalg.norm(X_ref)
        if lam == 0.0:
            assert report.iterations < iterations_ref

        def polished(X):
            recovered = extract_rank1(X, problem.basis)
            assert recovered.valid
            return refine_solution(polys, values, recovered.x)

        np.testing.assert_allclose(polished(report.X), polished(X_ref), rtol=0, atol=1e-8)

    @pytest.mark.parametrize("lam", [0.0, 0.1])
    def test_one_step_relaxes_the_updates_not_the_residuals(self, lam):
        # iteration k, rebuilt from the state solve_nlbp returns after k - 1;
        # k = 10 lies before the first extrapolation, where that state is
        # the next iteration's input
        spec = table1_spec(trials=1, seed=42)
        polys, _, values = sample_trial(spec, 0)
        problem = build_lifted_problem(polys, values, spec.order)
        config = dataclasses.replace(default_trial_config(spec, values), lam=lam,
                                     max_iters=10)
        assert config.max_iters < sdp_admm._AA_START
        before = solve_nlbp(problem, dataclasses.replace(config, max_iters=9))
        after = solve_nlbp(problem, config)
        assert after.accelerated == 0
        rho, alpha = config.rho, sdp_admm._RELAX
        U1, U2 = before.dual_affine / rho, before.dual_psd / rho
        X1 = project_matrix(
            problem.affine, before.X - U1 - (1.0 / rho) * np.eye(problem.dim))
        X2 = project_psd(before.X - U2)
        H1 = alpha * X1 + (1.0 - alpha) * before.X
        H2 = alpha * X2 + (1.0 - alpha) * before.X
        Z = soft_threshold(0.5 * (H1 + U1 + H2 + U2), lam / (2.0 * rho))
        close = dict(rtol=1e-9, atol=1e-12)
        np.testing.assert_allclose(after.X, Z, **close)
        np.testing.assert_allclose(after.dual_affine, rho * (U1 + H1 - Z), **close)
        np.testing.assert_allclose(after.dual_psd, rho * (U2 + H2 - Z), **close)
        primal = np.sqrt(np.linalg.norm(X1 - Z) ** 2 + np.linalg.norm(X2 - Z) ** 2)
        assert after.primal_residual == pytest.approx(primal, rel=1e-9)
        assert after.dual_residual == pytest.approx(
            rho * np.sqrt(2.0) * np.linalg.norm(Z - before.X), rel=1e-9)


def trial_problem(spec, trial, **config_changes):
    polys, _, values = sample_trial(spec, trial)
    problem = build_lifted_problem(polys, values, spec.order)
    return problem, dataclasses.replace(default_trial_config(spec, values),
                                        **config_changes)


class TestPenaltyBalancing:
    """``SolverConfig.rho`` is only where the penalty starts: a start 100x off
    the harness's guess reaches the same optimum, and where that guess is
    poor (the dense ensemble at lam > 0) the balanced loop still converges."""

    @pytest.mark.parametrize("spec", [table1_spec(trials=1, seed=42),
                                      dense_spec(trials=1, seed=42)],
                             ids=["table1", "dense"])
    @pytest.mark.parametrize("start", [100.0, 0.01])
    def test_same_optimum_from_a_start_100x_off(self, spec, start):
        problem, config = trial_problem(spec, 0)
        ref = solve_nlbp(problem, config)
        report = solve_nlbp(problem, dataclasses.replace(config, rho=start * config.rho))
        assert ref.status is report.status is SolveStatus.CONVERGED
        assert np.linalg.norm(report.X - ref.X) <= 1e-6 * np.linalg.norm(ref.X)
        if start < 1.0:
            # at a fixed rho these two take 17,278 and 33,906 iterations
            assert report.iterations < 1000

    def test_dense_at_lam_0_1_converges(self):
        # at a fixed rho this trial runs to the 60,000-iteration cap
        problem, config = trial_problem(dense_spec(trials=3, seed=42), 2, lam=0.1)
        report = solve_nlbp(problem, config)
        assert report.status is SolveStatus.CONVERGED
        assert report.iterations < 10000
        assert report.rho > config.rho

    @pytest.mark.parametrize("residuals, factor", [
        ((1.0, 1.0, 1.0, 1.0), 1.0),      # balanced
        ((3.0, 1.0, 1.0, 1.0), 1.0),      # sqrt(3) is inside [1/2, 2]
        ((9.0, 1.0, 1.0, 1.0), 3.0),
        ((1.0, 1.0, 9.0, 1.0), 1.0 / 3.0),
        ((1e6, 1.0, 1.0, 1.0), 4.0),      # clamped
        ((0.0, 1.0, 1.0, 1.0), 0.25),     # primal solved: clamped
        ((1.0, 0.0, 1.0, 1.0), 1.0),      # no primal scale
        ((1.0, 1.0, 0.0, 1.0), 1.0),      # dual residual 0
        ((1.0, 1.0, 1.0, 0.0), 1.0),      # no dual scale
    ])
    def test_penalty_factor(self, residuals, factor):
        assert sdp_admm._penalty_factor(*residuals) == pytest.approx(factor)


class TestProvenInconsistentExit:
    @pytest.mark.parametrize("problem", list(inconsistent_systems()),
                             ids=["clash", "table1_qbp", "clash_order_4"])
    def test_returns_least_squares_iterate_at_iteration_0(self, problem):
        config = SolverConfig(rho=0.5)
        report = solve_nlbp(problem, config)
        assert report.status is SolveStatus.INFEASIBLE
        assert report.iterations == 0
        # the first ADMM affine step, projected onto the PSD cone
        cache = problem.affine
        affine = project_matrix(cache, -(1.0 / config.rho) * np.eye(problem.dim))
        assert np.array_equal(report.X, project_psd(affine))
        assert report.primal_residual == np.linalg.norm(affine - report.X)
        assert report.dual_residual == 0.0
        assert np.array_equal(report.X, report.X.T)
        assert report.min_eigenvalue >= -1e-10 * max(np.linalg.norm(report.X), 1.0)
        assert report.constraint_violation >= report.infeasibility_lb > 1e-3
        assert report.constraint_violation == cache.violation(report.X)
        assert report.objective == pytest.approx(np.trace(report.X))
        assert not report.dual_affine.any() and not report.dual_psd.any()
        assert report.dual_affine.shape == report.dual_psd.shape == report.X.shape

    def test_eigendecomposition_failure_is_a_solver_error(self, monkeypatch):
        def broken(X):
            raise np.linalg.LinAlgError("no convergence")

        monkeypatch.setattr(sdp_admm, "project_psd", broken)
        for problem in inconsistent_systems():
            with pytest.raises(SolverError) as info:
                solve_nlbp(problem)
            assert info.value.iteration == 0
            assert isinstance(info.value.__cause__, np.linalg.LinAlgError)

    def test_consistent_system_cut_short_still_iterates(self):
        # far from feasible after 3 iterations, but not proven inconsistent:
        # the cap, not the early exit, ends the run
        problem, _ = planted_problem(2, 4, 4, 12)
        report = solve_nlbp(problem, SolverConfig(max_iters=3))
        assert report.infeasibility_lb < 1e-10
        assert report.status is SolveStatus.MAX_ITERS
        assert report.iterations == 3
        assert report.dual_psd.any()
