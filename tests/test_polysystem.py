"""PolySystem against per-term references, bit for bit.

The references below walk each row one (coefficient, exponent row) term at
a time, the way the per-polynomial code paths did, so every comparison is
``np.array_equal``: ensemble CSVs are only byte-reproducible if the
matrix-backed paths round exactly as the per-term ones.
"""

import tracemalloc

import numpy as np
import pytest

from nlbp.baselines import refine_solution
from nlbp.harness import sample_trial, table1_spec
from nlbp.lifting import (
    _structural_constraints,
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
from poly_terms import system_of, terms, unit

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
    """Row i at x as one dot product over its nonzero terms, as the
    per-polynomial evaluation took it."""
    row = row_terms(system, i)
    if not row:
        return 0.0
    cs = np.array([c for c, _ in row])
    es = np.array([e for _, e in row], dtype=float)
    return float(cs @ np.prod(x ** es, axis=1))


def reference_values(system, x):
    return [reference_value(system, i, x) for i in range(len(system))]


def reference_residual(system, values, x):
    out = []
    for i, v in enumerate(values):
        acc = 0.0
        for c, alpha in row_terms(system, i):
            acc += c * monomial(alpha, x)
        out.append(acc - v)
    return np.array(out)


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
    assert np.array_equal(values, reference_values(system, x))
    assert np.array_equal(values, [eval_polynomial(p, x) for p in polys])


@pytest.mark.parametrize("n", SIZES)
def test_batched_forms_match_per_term_forms(n):
    _, (system, _, _) = trial(n)
    for order in (2, 4):
        basis = exponent_table(n, order // 2)
        model = system.truncate(order)
        forms = quadratic_forms(model, basis)
        for k in range(len(model)):
            assert np.array_equal(forms[k], reference_form(model, k, basis))
            assert np.array_equal(polynomial_to_quadratic_form(one_row(model, k), basis),
                                  forms[k])


@pytest.mark.parametrize("n", SIZES)
def test_residual_and_jacobian_match_per_term_sums(n):
    _, (system, x_true, values) = trial(n)
    rng = np.random.default_rng(n)
    for x in (x_true, rng.normal(size=n), x_true + 1e-3 * rng.normal(size=n)):
        assert np.array_equal(system.residual(x, values),
                              reference_residual(system, values, x))
        assert np.array_equal(system.jacobian(x), reference_jacobian(system, x))


def test_single_lane_sums_keep_the_term_order():
    # the residual and each Jacobian column sum over the rows' terms as
    # lanes; with one lane numpy would reduce pairwise, which needs at
    # least 8 terms to show, and on these points a pairwise sum differs
    _, (system, x_true, values) = trial(5)
    rng = np.random.default_rng(5)
    one_eq = one_row(system, 0)
    assert one_eq.coeffs.shape[1] >= 8
    one_var = system_of(1, {(k,): rng.normal() for k in range(12)})
    for _ in range(4):
        x, y = x_true + rng.normal(size=5), rng.normal(size=1) + 1.0
        for one, point in ((one_eq, x), (one_var, y)):
            assert np.array_equal(one.residual(point, values[:1]),
                                  reference_residual(one, values[:1], point))
            assert np.array_equal(one.jacobian(point), reference_jacobian(one, point))


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
        assert np.array_equal(system.evaluate(x), reference_values(system, x))
        assert np.array_equal(system.residual(x, values),
                              reference_residual(system, values, x))
        assert np.array_equal(system.jacobian(x), reference_jacobian(system, x))
    truncated = system.truncate(2)
    assert [terms(truncated, i) for i in range(NUM_EQS)] == reference_truncate(system, 2)
    A, const = system.linear_parts()
    for i in range(NUM_EQS):
        row = terms(system, i)
        assert const[i] == row.get((0,) * n, 0.0)
        for j in range(n):
            assert A[i, j] == row.get(unit(n, j), 0.0)
    basis = exponent_table(n, 3)
    for k, form in enumerate(quadratic_forms(system, basis)):
        assert np.array_equal(form, reference_form(system, k, basis))
    support = (0, n - 1)
    restricted = system.restrict(support)
    assert [terms(restricted, i) for i in range(NUM_EQS)] == reference_restrict(system, support)


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
    assert np.array_equal(system.evaluate(x), reference_values(system, x))
    assert np.array_equal(system.evaluate(x),
                          [eval_polynomial(one_row(system, i), x) for i in range(len(system))])
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


def test_dependency_constraints_are_shared_and_read_only():
    _, (system, _, values) = trial(3)
    cached = _structural_constraints(3, 2)
    assert cached is _structural_constraints(3, 2)
    assert not cached.flags.writeable
    fresh = generate_dependency_constraints(exponent_table(3, 2))
    assert np.array_equal(cached, fresh)
    problem = build_lifted_problem(system, values, 4)
    assert np.array_equal(problem.operator[NUM_EQS:], fresh)
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
    # a Jacobian built one variable at a time never holds the (n, N, K)
    # weight tensor, 1.27 MB here
    system, x_true, values = n8_trial
    fresh = PolySystem(system.num_vars, system.degree, system.coeffs)
    start = x_true + 1e-4 * np.random.default_rng(8).normal(size=8)
    assert traced_peak(refine_solution, fresh, values, start) < 1.5e6


def test_lift_writes_its_rows_in_place(n8_trial):
    system, _, values = n8_trial
    problem = build_lifted_problem(system, values, 4)
    assert traced_peak(build_lifted_problem, system, values, 4) < 2 * problem.operator.nbytes
