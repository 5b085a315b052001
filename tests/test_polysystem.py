"""PolySystem against per-Polynomial references, bit for bit.

The references below walk the system one term at a time, the way the
per-polynomial code paths do, so every comparison is ``np.array_equal``:
ensemble CSVs are only byte-reproducible if the matrix-backed paths round
exactly as the per-term ones.
"""

import numpy as np
import pytest

from nlbp.harness import sample_trial, table1_spec
from nlbp.lifting import (
    build_lifted_problem,
    generate_dependency_constraints,
    polynomial_to_quadratic_form,
    quadratic_forms,
)
from nlbp.monomials import (
    MultiIndex,
    Polynomial,
    PolySystem,
    enumerate_basis,
    eval_polynomial,
    exponent_table,
    random_polynomial,
    truncate_polynomial,
)

SIZES = (2, 3, 5, 8)
NUM_EQS = 6


def trial(n, seed=11):
    spec = table1_spec(trials=1, seed=seed, num_vars=n, num_equations=NUM_EQS,
                       sparsity=min(2, n))
    return spec, sample_trial(spec, 0)


def monomial(alpha, x):
    return float(np.prod(x ** np.array(alpha, dtype=float)))


def reference_residual(polys, values, x):
    out = []
    for p, v in zip(polys, values):
        acc = 0.0
        for alpha, c in p.terms.items():
            acc += c * monomial(alpha.exponents, x)
        out.append(acc - v)
    return np.array(out)


def reference_jacobian(polys, x):
    n = len(x)
    J = np.zeros((len(polys), n))
    for i, p in enumerate(polys):
        for j in range(n):
            acc = 0.0
            for alpha, c in p.terms.items():
                e = alpha.exponents
                if e[j] == 0:
                    continue
                lowered = e[:j] + (e[j] - 1,) + e[j + 1:]
                acc += (c * float(e[j])) * monomial(lowered, x)
            J[i, j] = acc
    return J


def reference_form(p, basis):
    pairs = {}
    for i in range(len(basis)):
        for j in range(i, len(basis)):
            pairs.setdefault(basis.entries[i] + basis.entries[j], []).append((i, j))
    form = np.zeros((len(basis), len(basis)))
    for alpha, c in p.terms.items():
        share = c / len(pairs[alpha])
        for i, j in pairs[alpha]:
            if i == j:
                form[i, i] += share
            else:
                form[i, j] += share / 2.0
                form[j, i] += share / 2.0
    return form


@pytest.mark.parametrize("n", SIZES)
def test_block_draw_matches_per_equation_draws(n):
    spec, (system, x, values) = trial(n)
    rng = np.random.default_rng(np.random.SeedSequence([spec.seed, 0]))
    polys = [random_polynomial(n, spec.order, rng, spec.coeff_std)
             for _ in range(spec.num_equations)]
    assert list(system) == polys
    # the planted vector comes next in the same stream
    support = np.sort(rng.choice(n, size=spec.sparsity, replace=False))
    assert np.array_equal(np.flatnonzero(x), support)
    assert np.array_equal(values, [eval_polynomial(p, x) for p in polys])


@pytest.mark.parametrize("n", SIZES)
def test_batched_forms_match_per_term_forms(n):
    _, (system, _, _) = trial(n)
    for order in (2, 4):
        basis = enumerate_basis(n, order // 2)
        model = system.truncate(order)
        forms = quadratic_forms(model, basis)
        for k, p in enumerate(model):
            assert np.array_equal(forms[k], reference_form(p, basis))
            assert np.array_equal(polynomial_to_quadratic_form(p, basis), forms[k])


@pytest.mark.parametrize("n", SIZES)
def test_residual_and_jacobian_match_per_term_sums(n):
    _, (system, x_true, values) = trial(n)
    rng = np.random.default_rng(n)
    polys = list(system)
    for x in (x_true, rng.normal(size=n), x_true + 1e-3 * rng.normal(size=n)):
        assert np.array_equal(system.residual(x, values),
                              reference_residual(polys, values, x))
        assert np.array_equal(system.jacobian(x), reference_jacobian(polys, x))


@pytest.mark.parametrize("n", SIZES)
def test_truncate_matches_truncate_polynomial(n):
    _, (system, _, _) = trial(n)
    truncated = system.truncate(2)
    assert truncated.degree == 2
    assert truncated.coeffs.shape[1] == len(exponent_table(n, 2))
    assert list(truncated) == [truncate_polynomial(p, 2) for p in system]
    assert system.truncate(4) is system


def test_from_polys_keeps_the_monomials_that_occur():
    p = Polynomial(2, {MultiIndex((0, 0)): 1.5, MultiIndex((1, 1)): -2.0})
    q = Polynomial(2, {MultiIndex((0, 1)): 3.0})
    system = PolySystem.from_polys([p, q])
    assert system.degree == 2
    assert system.exponents.tolist() == [[0, 0], [0, 1], [1, 1]]
    assert system.coeffs.tolist() == [[1.5, 0.0, -2.0], [0.0, 3.0, 0.0]]
    assert list(system) == [p, q]
    assert PolySystem.from_polys(system) is system
    assert system == PolySystem.from_polys([p, q])
    assert system != PolySystem.from_polys([q, p])
    # a system that uses every monomial shares the full table
    _, (full, _, _) = trial(3)
    assert PolySystem.from_polys(list(full)).exponents is exponent_table(3, 4)
    assert PolySystem.from_polys(list(full)) == full


def test_high_degree_sparse_system_stays_small():
    x1_25 = MultiIndex((25,) + (0,) * 7)
    system = PolySystem.from_polys([Polynomial(8, {x1_25: 2.0})])
    assert system.degree == 25 and system.coeffs.shape == (1, 1)
    x = np.array([1.0, 5.0, 0, 0, 0, 0, 0, 0])
    assert system.evaluate(x).tolist() == [2.0]
    assert system.jacobian(x).tolist() == [[50.0] + [0.0] * 7]
    assert system.restrict((1, 2)).coeffs.shape == (1, 0)
    assert system.restrict((1, 2)).residual([1.0, 1.0], [3.0]).tolist() == [-3.0]
    assert system.restrict((1, 2)).jacobian([1.0, 1.0]).tolist() == [[0.0, 0.0]]
    assert PolySystem(2, 0, [[3.0]]).jacobian([1.0, 1.0]).tolist() == [[0.0, 0.0]]
    assert system.truncate(2).linear_parts()[0].tolist() == [[0.0] * 8]


def sparse_polys(n, degree, seed):
    """Rows with different random supports, terms stored in graded order."""
    rng = np.random.default_rng(seed)
    alphas = enumerate_basis(n, degree).entries
    polys = []
    for _ in range(NUM_EQS):
        keep = np.sort(rng.choice(len(alphas), size=len(alphas) // 3, replace=False))
        polys.append(Polynomial(n, {alphas[t]: rng.normal() for t in keep}))
    return polys


@pytest.mark.parametrize("n", SIZES[:3])
def test_sparse_system_matches_per_term_references(n):
    polys = sparse_polys(n, 5, seed=n)
    system = PolySystem.from_polys(polys)
    assert system.coeffs.shape[1] < len(exponent_table(n, 5))
    rng = np.random.default_rng(n)
    values = rng.normal(size=NUM_EQS)
    for x in (rng.normal(size=n), 0.5 * rng.normal(size=n)):
        assert np.array_equal(system.evaluate(x), [eval_polynomial(p, x) for p in polys])
        assert np.array_equal(system.residual(x, values),
                              reference_residual(polys, values, x))
        assert np.array_equal(system.jacobian(x), reference_jacobian(polys, x))
    assert list(system.truncate(2)) == [truncate_polynomial(p, 2) for p in polys]
    A, const = system.linear_parts()
    for i, p in enumerate(polys):
        assert const[i] == p.terms.get(MultiIndex((0,) * n), 0.0)
        for j in range(n):
            assert A[i, j] == p.terms.get(MultiIndex(tuple(int(k == j) for k in range(n))), 0.0)
    basis = enumerate_basis(n, 3)
    for k, form in enumerate(quadratic_forms(system, basis)):
        assert np.array_equal(form, reference_form(polys[k], basis))
    support = (0, n - 1)
    for p, r in zip(polys, system.restrict(support)):
        kept = {MultiIndex(tuple(a.exponents[j] for j in support)): c
                for a, c in p.terms.items()
                if sum(a.exponents) == sum(a.exponents[j] for j in support)}
        assert r == Polynomial(2, kept)


def test_exponent_table_must_be_graded():
    coeffs = np.zeros((1, 2))
    for table in ([[1, 0], [0, 0]], [[0, 1], [1, 0]], [[1, 0], [1, 0]],
                  [[0, 0], [0, 3]], [[0, 0], [-1, 1]]):
        with pytest.raises(ValueError):
            PolySystem(2, 2, coeffs, table)
    assert PolySystem(2, 2, coeffs, [[0, 0], [1, 1]]).exponents.tolist() == [[0, 0], [1, 1]]
    assert PolySystem(1, 1, coeffs, [[0], [1]]).exponents is exponent_table(1, 1)


def test_from_polys_rejects_bad_input():
    with pytest.raises(ValueError):
        PolySystem.from_polys([])
    with pytest.raises(ValueError):
        PolySystem.from_polys([Polynomial(1, {MultiIndex((1,)): 1.0}),
                               Polynomial(2, {MultiIndex((1, 0)): 1.0})])
    with pytest.raises(ValueError):
        PolySystem(2, 2, np.zeros((1, 5)))


def test_coefficients_are_read_only_copies():
    raw = np.ones((1, 3))
    system = PolySystem(2, 1, raw)
    raw[0, 0] = 7.0
    assert system.coeffs[0, 0] == 1.0
    with pytest.raises(ValueError):
        system.coeffs[0, 0] = 2.0
    assert not exponent_table(2, 1).flags.writeable


def test_evaluate_matches_eval_polynomial():
    _, (system, _, _) = trial(5)
    x = np.random.default_rng(0).normal(size=5)
    assert np.array_equal(system.evaluate(x), [eval_polynomial(p, x) for p in system])
    with pytest.raises(ValueError):
        system.evaluate(np.zeros(4))


def test_linear_parts():
    _, (system, _, _) = trial(3)
    A, const = system.linear_parts()
    for i, p in enumerate(system):
        assert const[i] == p.terms[MultiIndex((0, 0, 0))]
        for j in range(3):
            e = tuple(int(k == j) for k in range(3))
            assert A[i, j] == p.terms[MultiIndex(e)]
    constant_only = PolySystem.from_polys([Polynomial(2, {MultiIndex((0, 0)): 4.0})])
    A, const = constant_only.linear_parts()
    assert np.array_equal(A, np.zeros((1, 2))) and const.tolist() == [4.0]


def test_restrict_keeps_the_terms_inside_the_support():
    _, (system, _, _) = trial(5)
    support = (1, 3)
    restricted = system.restrict(support)
    assert restricted.num_vars == 2
    for p, r in zip(system, restricted):
        kept = {MultiIndex(tuple(a.exponents[j] for j in support)): c
                for a, c in p.terms.items()
                if sum(a.exponents) == sum(a.exponents[j] for j in support)}
        assert r == Polynomial(2, kept)
    x = np.zeros(5)
    x[list(support)] = [0.3, -1.2]
    # the full system also sums the (zero) terms outside the support
    assert np.allclose(restricted.evaluate([0.3, -1.2]), system.evaluate(x),
                       rtol=1e-13, atol=1e-13)
    with pytest.raises(ValueError):
        system.restrict((3, 1))


def test_dependency_constraints_are_shared_and_read_only():
    _, (system, _, values) = trial(3)
    a = build_lifted_problem(system, values, 4)
    b = build_lifted_problem(system, values, 4)
    structural = a.constraints[NUM_EQS:]
    assert all(c is d for c, d in zip(structural, b.constraints[NUM_EQS:]))
    fresh = generate_dependency_constraints(enumerate_basis(3, 2))
    assert len(structural) == len(fresh)
    for c, f in zip(structural, fresh):
        assert np.array_equal(c.matrix, f.matrix) and c.kind is f.kind
        assert not c.matrix.flags.writeable
