"""PolySystem against per-term references.

The references below walk each row one (coefficient, exponent row) term at
a time, the way the per-polynomial code paths did. Draws, tables, forms and
truncations match them bit for bit. Values, residuals and Jacobians are
BLAS products over a power-table monomial vector, which add a row's terms
in an order of BLAS's choosing, so they are held to the rounding bound
gamma_T sum_t |c_t m_t| that every summation order of T terms shares
(Higham, Accuracy and Stability of Numerical Algorithms, 2002, section
3.1). The monomials themselves match ``np.prod(x ** table, axis=1)`` bit for
bit (tests/test_monomials.py). At n = 5 the BLAS products round the same
under one or two BLAS threads; tests/test_harness.py checks that on the
golden n = 5 ensembles.
"""

import tracemalloc

import numpy as np
import pytest

from nlbp.baselines import refine_solution
from nlbp.harness import sample_trial, table1_spec
from nlbp.lifting import (
    build_lifted_problem,
    generate_dependency_constraints,
    polynomial_to_quadratic_form,
    quadratic_forms,
)
from nlbp.monomials import (
    PolySystem,
    eval_polynomial,
    exponent_table,
    random_polynomial,
    truncate_polynomial,
)
from packed_layout import pack
from poly_terms import assert_within_sum_bound, system_of, terms, unit

SIZES = (2, 3, 5, 8)
NUM_EQS = 6


def trial(n, seed=11):
    spec = table1_spec(trials=1, seed=seed, num_vars=n, num_equations=NUM_EQS,
                       sparsity=min(2, n))
    return spec, sample_trial(spec, 0)


def monomial(alpha, x):
    return float(np.prod(x ** np.array(alpha, dtype=float)))


def row_terms(system, i):
    """Row i's (coefficient, exponent tuple) terms with a nonzero
    coefficient, in table order."""
    return [(c, tuple(e)) for c, e in zip(system.coeffs[i].tolist(),
                                          system.exponents.tolist()) if c != 0]


def reference_value(system, i, x):
    """Row i at x, its nonzero terms added one at a time in table order."""
    acc = 0.0
    for c, alpha in row_terms(system, i):
        acc += c * monomial(alpha, x)
    return acc


def reference_values(system, x):
    return np.array([reference_value(system, i, x) for i in range(len(system))])


def reference_residual(system, values, x):
    return reference_values(system, x) - values


def term_magnitudes(system, x):
    """sum_t |c_t m_t| per row, over the per-term monomials."""
    m = np.array([monomial(alpha, x) for alpha in map(tuple, system.exponents.tolist())])
    return np.abs(system.coeffs) @ np.abs(m)


def assert_values_match(system, x):
    assert_within_sum_bound(system.evaluate(x), reference_values(system, x),
                            term_magnitudes(system, x), system.coeffs.shape[1])


def assert_residual_matches(system, values, x):
    # the right-hand side is one more term
    assert_within_sum_bound(system.residual(x, values),
                            reference_residual(system, values, x),
                            term_magnitudes(system, x) + np.abs(values),
                            system.coeffs.shape[1] + 1)


def assert_jacobian_matches(system, x):
    # a term (c e) m rounds twice, one more rounding than c m
    n = len(x)
    scale = np.zeros((len(system), n))
    for j in range(n):
        e = system.exponents[:, j]
        lowered = system.exponents - (e > 0)[:, None] * np.eye(n, dtype=int)[j]
        m = np.array([monomial(alpha, x) for alpha in map(tuple, lowered.tolist())])
        scale[:, j] = np.abs(system.coeffs) @ np.abs(e * m)
    assert_within_sum_bound(system.jacobian(x), reference_jacobian(system, x), scale,
                            system.coeffs.shape[1] + 1)


def reference_jacobian(system, x):
    n = len(x)
    J = np.zeros((len(system), n))
    for i in range(len(system)):
        for j in range(n):
            acc = 0.0
            for c, e in row_terms(system, i):
                if e[j] == 0:
                    continue
                lowered = e[:j] + (e[j] - 1,) + e[j + 1:]
                acc += (c * float(e[j])) * monomial(lowered, x)
            J[i, j] = acc
    return J


def reference_form(system, i, basis):
    """The packed row of row i's quadratic form, one term at a time."""
    entries = [tuple(e) for e in basis.tolist()]
    pairs = {}
    for k in range(len(entries)):
        for l in range(k, len(entries)):
            total = tuple(a + b for a, b in zip(entries[k], entries[l]))
            pairs.setdefault(total, []).append((k, l))
    form = np.zeros((len(basis), len(basis)))
    for c, alpha in row_terms(system, i):
        share = c / len(pairs[alpha])
        for k, l in pairs[alpha]:
            if k == l:
                form[k, k] += share
            else:
                form[k, l] += share / 2.0
                form[l, k] += share / 2.0
    return pack(form)


def one_row(system, i):
    return PolySystem(system.num_vars, system.degree, system.coeffs[i:i + 1],
                      system.exponents)


@pytest.mark.parametrize("n", SIZES)
def test_block_draw_matches_per_equation_draws(n):
    spec, (system, x, values) = trial(n)
    rng = np.random.default_rng(np.random.SeedSequence([spec.seed, 0]))
    polys = [random_polynomial(n, spec.order, rng, spec.coeff_std)
             for _ in range(spec.num_equations)]
    assert [one_row(system, i) for i in range(len(system))] == polys
    # the planted vector comes next in the same stream
    support = np.sort(rng.choice(n, size=spec.sparsity, replace=False))
    assert np.array_equal(np.flatnonzero(x), support)
    assert_values_match(system, x)
    assert_within_sum_bound(values, [eval_polynomial(p, x) for p in polys],
                            term_magnitudes(system, x), system.coeffs.shape[1])


@pytest.mark.parametrize("n", SIZES)
def test_batched_forms_match_per_term_forms(n):
    _, (system, _, _) = trial(n)
    for order in (2, 4):
        basis = exponent_table(n, order // 2)
        model = system.truncate(order)
        forms = quadratic_forms(model, order)
        for k in range(len(model)):
            assert np.array_equal(forms[k], reference_form(model, k, basis))
            assert np.array_equal(polynomial_to_quadratic_form(one_row(model, k), order),
                                  forms[k])


@pytest.mark.parametrize("n", (2, 5, 8))
def test_quadratic_forms_are_the_lifts_data_rows(n):
    _, (system, _, values) = trial(n)
    for order in (2, 4):
        model = system.truncate(order)
        problem = build_lifted_problem(model, values, order)
        assert np.array_equal(quadratic_forms(model, order),
                              problem.operator[:NUM_EQS])


@pytest.mark.parametrize("n", SIZES)
def test_residual_and_jacobian_match_per_term_sums(n):
    _, (system, x_true, values) = trial(n)
    rng = np.random.default_rng(n)
    for x in (x_true, rng.normal(size=n), x_true + 1e-3 * rng.normal(size=n)):
        assert_residual_matches(system, values, x)
        assert_jacobian_matches(system, x)


def reference_truncate(system, degree):
    """Each row's terms of degree <= degree."""
    return [{a: c for a, c in terms(system, i).items() if sum(a) <= degree}
            for i in range(len(system))]


@pytest.mark.parametrize("n", SIZES)
def test_truncate_matches_truncate_polynomial(n):
    _, (system, _, _) = trial(n)
    truncated = system.truncate(2)
    assert truncated.degree == 2
    assert truncated.coeffs.shape[1] == len(exponent_table(n, 2))
    assert [terms(truncated, i) for i in range(len(system))] == reference_truncate(system, 2)
    assert truncate_polynomial(one_row(system, 0), 2) == one_row(truncated, 0)
    assert system.truncate(4) is system


def test_high_degree_sparse_system_stays_small():
    system = system_of(8, {unit(8, 0, 25): 2.0})
    assert system.degree == 25 and system.coeffs.shape == (1, 1)
    x = np.array([1.0, 5.0, 0, 0, 0, 0, 0, 0])
    assert system.evaluate(x).tolist() == [2.0]
    assert system.jacobian(x).tolist() == [[50.0] + [0.0] * 7]
    assert system.restrict((1, 2)).coeffs.shape == (1, 0)
    assert system.restrict((1, 2)).residual([1.0, 1.0], [3.0]).tolist() == [-3.0]
    assert system.restrict((1, 2)).jacobian([1.0, 1.0]).tolist() == [[0.0, 0.0]]
    assert PolySystem(2, 0, [[3.0]]).jacobian([1.0, 1.0]).tolist() == [[0.0, 0.0]]
    assert system.truncate(2).linear_parts()[0].tolist() == [[0.0] * 8]


def sparse_system(n, degree, seed):
    """Rows with different random supports over the monomials that occur."""
    rng = np.random.default_rng(seed)
    alphas = [tuple(e) for e in exponent_table(n, degree).tolist()]
    rows = []
    for _ in range(NUM_EQS):
        keep = np.sort(rng.choice(len(alphas), size=len(alphas) // 3, replace=False))
        rows.append({alphas[t]: rng.normal() for t in keep})
    return system_of(n, *rows)


def reference_restrict(system, support):
    """Each row's terms free of the variables outside support, over those in
    it."""
    return [{tuple(a[j] for j in support): c for a, c in terms(system, i).items()
             if sum(a) == sum(a[j] for j in support)}
            for i in range(len(system))]


@pytest.mark.parametrize("n", SIZES[:3])
def test_sparse_system_matches_per_term_references(n):
    system = sparse_system(n, 5, seed=n)
    assert system.coeffs.shape[1] < len(exponent_table(n, 5))
    rng = np.random.default_rng(n)
    values = rng.normal(size=NUM_EQS)
    for x in (rng.normal(size=n), 0.5 * rng.normal(size=n)):
        # each row is padded with zeros over the other rows' monomials; the
        # references add only its nonzero terms
        assert_values_match(system, x)
        assert_residual_matches(system, values, x)
        assert_jacobian_matches(system, x)
        scale = term_magnitudes(system, x)
        padded = system.evaluate(x)
        for i in range(NUM_EQS):
            nonzero = system.coeffs[i] != 0
            alone = PolySystem(n, system.degree, system.coeffs[i:i + 1, nonzero],
                               system.exponents[nonzero])
            assert_within_sum_bound(alone.evaluate(x)[0], padded[i], scale[i],
                                    system.coeffs.shape[1])
    truncated = system.truncate(2)
    assert [terms(truncated, i) for i in range(NUM_EQS)] == reference_truncate(system, 2)
    A, const = system.linear_parts()
    for i in range(NUM_EQS):
        row = terms(system, i)
        assert const[i] == row.get((0,) * n, 0.0)
        for j in range(n):
            assert A[i, j] == row.get(unit(n, j), 0.0)
    basis = exponent_table(n, 3)
    for k, form in enumerate(quadratic_forms(system, 6)):
        assert np.array_equal(form, reference_form(system, k, basis))
    support = (0, n - 1)
    restricted = system.restrict(support)
    assert [terms(restricted, i) for i in range(NUM_EQS)] == reference_restrict(system, support)


def test_jacobian_of_a_table_without_a_constant():
    # every table row holds x_0 or x_2, the first one x_0 itself, so the
    # derivative matrix has real entries in row 0
    system = system_of(3, {(1, 0, 0): 1.5, (0, 0, 2): -2.0, (2, 1, 0): 0.5},
                       {(1, 0, 0): -0.25, (1, 0, 1): 3.0, (0, 0, 3): 1.0})
    assert system.exponents[0].tolist() == [1, 0, 0]
    rng = np.random.default_rng(3)
    for x in (np.array([0.0, 2.0, -1.0]), rng.normal(size=3)):
        assert_jacobian_matches(system, x)
    assert system.jacobian([1.0, 2.0, 3.0]).tolist() == [[1.5 + 2.0, 0.5, -12.0],
                                                         [-0.25 + 9.0, 0.0, 3.0 + 27.0]]


def test_exponent_table_must_be_graded():
    coeffs = np.zeros((1, 2))
    for table in ([[1, 0], [0, 0]], [[0, 1], [1, 0]], [[1, 0], [1, 0]],
                  [[0, 0], [0, 3]], [[0, 0], [-1, 1]]):
        with pytest.raises(ValueError):
            PolySystem(2, 2, coeffs, table)
    assert PolySystem(2, 2, coeffs, [[0, 0], [1, 1]]).exponents.tolist() == [[0, 0], [1, 1]]
    assert PolySystem(1, 1, coeffs, [[0], [1]]).exponents is exponent_table(1, 1)


def test_coefficient_shape_must_match_the_table():
    with pytest.raises(ValueError):
        PolySystem(2, 2, np.zeros((1, 5)))
    with pytest.raises(ValueError):
        PolySystem(2, 2, np.zeros(6))
    with pytest.raises(ValueError):
        PolySystem(2, 2, np.zeros((1, 2)), [[0, 0, 0], [1, 0, 0]])


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
    assert_values_match(system, x)
    assert_within_sum_bound(system.evaluate(x),
                            [eval_polynomial(one_row(system, i), x) for i in range(len(system))],
                            term_magnitudes(system, x), system.coeffs.shape[1])
    with pytest.raises(ValueError):
        system.evaluate(np.zeros(4))


def test_linear_parts():
    _, (system, _, _) = trial(3)
    A, const = system.linear_parts()
    for i in range(len(system)):
        row = terms(system, i)
        assert const[i] == row[(0, 0, 0)]
        for j in range(3):
            assert A[i, j] == row[unit(3, j)]
    constant_only = system_of(2, {(0, 0): 4.0})
    A, const = constant_only.linear_parts()
    assert np.array_equal(A, np.zeros((1, 2))) and const.tolist() == [4.0]


def test_restrict_keeps_the_terms_inside_the_support():
    _, (system, _, _) = trial(5)
    support = (1, 3)
    restricted = system.restrict(support)
    assert restricted.num_vars == 2
    assert ([terms(restricted, i) for i in range(len(system))]
            == reference_restrict(system, support))
    x = np.zeros(5)
    x[list(support)] = [0.3, -1.2]
    # the full system also sums the (zero) terms outside the support
    assert np.allclose(restricted.evaluate([0.3, -1.2]), system.evaluate(x),
                       rtol=1e-13, atol=1e-13)
    with pytest.raises(ValueError):
        system.restrict((3, 1))


def test_restrict_refuses_a_variable_outside_the_system():
    # -1 would index the last variable and 5 past the end of a 3-variable table
    system = system_of(3, {(0, 0, 0): 1.0, (1, 0, 0): 2.0, (0, 0, 1): 3.0})
    with pytest.raises(ValueError, match="entry -1 "):
        system.restrict([-1])
    with pytest.raises(ValueError, match="entry 5 "):
        system.restrict([0, 5])


def test_dependency_constraints_are_shared_and_read_only():
    _, (system, _, values) = trial(3)
    block = generate_dependency_constraints(3, 4)
    assert block is generate_dependency_constraints(3, 4)
    assert not block.flags.writeable
    problem = build_lifted_problem(system, values, 4)
    assert np.array_equal(problem.operator[NUM_EQS:], block)
    assert not problem.operator.flags.writeable


def traced_peak(fn, *args):
    """Peak bytes traced while fn(*args) runs; numpy reports its buffers to
    tracemalloc, so the figure does not depend on the heap's state."""
    tracemalloc.start()
    try:
        fn(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.fixture(scope="module")
def n8_trial():
    """Trial 0 of the n = 8, N = 120 ensemble at seed 1000, with the per-key
    caches its polish and lift read already built."""
    spec = table1_spec(trials=1, seed=1000, num_vars=8, num_equations=120)
    system, x_true, values = sample_trial(spec, 0)
    system.jacobian(x_true)
    build_lifted_problem(system, values, 4)
    return system, x_true, values


def test_polish_streams_its_terms(n8_trial):
    # the polish holds neither a (T, N) term array (475 KB here) nor an
    # (n, N, K) weight tensor (1.27 MB), only the (T, n) derivative matrix
    system, x_true, values = n8_trial
    fresh = PolySystem(system.num_vars, system.degree, system.coeffs)
    start = x_true + 1e-4 * np.random.default_rng(8).normal(size=8)
    assert traced_peak(refine_solution, fresh, values, start) < 1.5e6


def test_lift_writes_its_rows_in_place(n8_trial):
    system, _, values = n8_trial
    problem = build_lifted_problem(system, values, 4)
    assert traced_peak(build_lifted_problem, system, values, 4) < 2 * problem.operator.nbytes
