import itertools
import json
import math

import numpy as np
import pytest

from nlbp.monomials import (
    PolySystem,
    eval_polynomial,
    exponent_table,
    monomial_vector,
    random_polynomial,
    system_from_json,
    table_rows,
    truncate_polynomial,
)
from poly_terms import problem_json, system_of, terms


def brute_force_multi_indices(n, max_degree):
    """Independent enumeration oracle: filter the full exponent grid."""
    return {
        exps
        for exps in itertools.product(range(max_degree + 1), repeat=n)
        if sum(exps) <= max_degree
    }


def rows_of(table):
    return [tuple(e) for e in table.tolist()]


def row_of(alpha):
    """The row of alpha in the table of its own degree."""
    return int(table_rows([alpha], sum(alpha))[0])


def parse(*polynomials):
    return system_from_json(json.loads(json.dumps(list(polynomials))))


class TestMultiIndex:
    """A multi-index is a row of an exponent table."""

    def test_degree_is_sum(self):
        table = exponent_table(3, 5)
        degrees = table.sum(axis=1)
        assert np.array_equal(degrees, np.sort(degrees))
        assert degrees[row_of((2, 0, 3))] == 5
        assert parse({"num_vars": 3, "terms": [{"alpha": [2, 0, 3], "coeff": 1.0}]}).degree == 5
        assert parse({"num_vars": 2, "terms": [{"alpha": [0, 0], "coeff": 1.0}]}).degree == 0

    def test_negative_exponent_rejected(self):
        with pytest.raises(ValueError):
            parse({"num_vars": 2, "terms": [{"alpha": [1, -1], "coeff": 1.0}]})
        with pytest.raises(ValueError):
            PolySystem(2, 2, np.zeros((1, 2)), [[0, 0], [-1, 1]])

    def test_addition(self):
        # the row of a sum of two rows, looked up in the table of the summed
        # degree: the lookup the lift's cell map is built on
        table = exponent_table(2, 6)
        assert tuple(table[table_rows([np.add((1, 2), (0, 3))], 6)[0]]) == (1, 5)
        for k, l in itertools.combinations_with_replacement(range(10), 2):
            total = table[k] + table[l]
            assert np.array_equal(table[table_rows([total], 6)[0]], total)


class TestEnumeration:
    def test_paper_scale_basis(self):
        table = exponent_table(2, 2)
        assert len(table) == 6
        expected = {(0, 0), (1, 0), (0, 1), (1, 1), (2, 0), (0, 2)}
        assert set(rows_of(table)) == expected

    def test_smallest_basis(self):
        assert rows_of(exponent_table(1, 1)) == [(0,), (1,)]

    def test_binomial_size(self):
        # C(5 + 2, 2) = 21, cross-checked by exhaustive enumeration
        table = exponent_table(5, 2)
        assert len(table) == 21
        assert set(rows_of(table)) == brute_force_multi_indices(5, 2)

    def test_alpha_set_paper_value(self):
        assert len(exponent_table(2, 4)) == 15

    def test_alpha_set_constant_only(self):
        assert rows_of(exponent_table(3, 0)) == [(0, 0, 0)]

    def test_alpha_set_larger(self):
        # C(5 + 4, 4) = 126
        table = exponent_table(5, 4)
        assert len(table) == 126
        assert set(rows_of(table)) == brute_force_multi_indices(5, 4)

    @pytest.mark.parametrize("n", range(1, 9))
    @pytest.mark.parametrize("h", range(0, 5))
    def test_sizes_match_binomial(self, n, h):
        assert len(exponent_table(n, h)) == math.comb(n + h, h)

    def test_constant_first(self):
        for n in (1, 3, 5):
            assert rows_of(exponent_table(n, 2))[0] == (0,) * n

    def test_frozen_order_two_vars(self):
        assert rows_of(exponent_table(2, 2)) == [
            (0, 0), (1, 0), (0, 1), (2, 0), (1, 1), (0, 2)
        ]

    def test_strict_total_order(self):
        rows = rows_of(exponent_table(4, 3))
        keys = [(sum(a), tuple(-e for e in a)) for a in rows]
        assert keys == sorted(keys)
        assert len(set(rows)) == len(rows)
        assert not exponent_table(4, 3).flags.writeable

    def test_index_of_round_trip(self):
        # every row is found where it stands, and a lower-degree table is a
        # row prefix of a higher one
        table = exponent_table(3, 3)
        assert np.array_equal(table_rows(table, 3), np.arange(len(table)))
        assert np.array_equal(table_rows(table, 6), np.arange(len(table)))
        assert np.array_equal(exponent_table(3, 6)[:len(table)], table)

    def test_bad_inputs(self):
        with pytest.raises(ValueError):
            exponent_table(0, 2)
        with pytest.raises(ValueError):
            exponent_table(2, -1)


class TestEvalMonomial:
    def test_constant(self):
        assert monomial_vector((3.0, 7.0), exponent_table(2, 0)).tolist() == [1.0]

    def test_simple(self):
        m = monomial_vector((2.0, 3.0), exponent_table(2, 3))
        assert m[row_of((2, 1))] == 12.0

    def test_signed(self):
        m = monomial_vector((-1.0, 2.0), exponent_table(2, 4))
        assert m[row_of((1, 3))] == -8.0

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            monomial_vector((1.0,), exponent_table(2, 3))

    def test_exponent_additivity(self):
        # m(a + b, x) == m(a, x) * m(b, x): the identity the lifting
        # dependencies are built on.
        rng = np.random.default_rng(0)
        table = exponent_table(3, 3)
        doubled = exponent_table(3, 6)
        for _ in range(50):
            a, b = rng.choice(len(table), 2)
            x = rng.normal(size=3)
            m = monomial_vector(x, doubled)
            lhs = m[table_rows([table[a] + table[b]], 6)[0]]
            assert lhs == pytest.approx(m[a] * m[b], rel=1e-12, abs=1e-12)


def poly_1_x1_x2cubed():
    return system_of(2, {(0, 0): 1.0, (1, 0): 1.0, (0, 3): 1.0})


class TestEvalPolynomial:
    def test_constant_term(self):
        assert eval_polynomial(poly_1_x1_x2cubed(), (0.0, 0.0)) == 1.0

    def test_simple_point(self):
        assert eval_polynomial(poly_1_x1_x2cubed(), (2.0, 1.0)) == 4.0

    def test_empty_polynomial(self):
        assert eval_polynomial(system_of(2, {}), (5.0, 5.0)) == 0.0

    def test_matches_term_by_term_oracle(self):
        rng = np.random.default_rng(1)
        p = random_polynomial(3, 4, 42, 1.0)
        for _ in range(20):
            x = rng.normal(size=3)
            # independent pure-python summation
            expected = 0.0
            for alpha, c in terms(p).items():
                term = c
                for xj, ej in zip(x, alpha):
                    term *= xj ** ej
                expected += term
            got = eval_polynomial(p, x)
            assert got == pytest.approx(expected, rel=1e-12, abs=1e-12)

    def test_linear_in_coefficients(self):
        rng = np.random.default_rng(2)
        p = random_polynomial(2, 3, 7, 1.0)
        r = random_polynomial(2, 3, 8, 1.0)
        for _ in range(10):
            x = rng.normal(size=2)
            a, b = rng.normal(size=2)
            combo = PolySystem(2, 3, a * p.coeffs + b * r.coeffs)
            lhs = eval_polynomial(combo, x)
            rhs = a * eval_polynomial(p, x) + b * eval_polynomial(r, x)
            assert lhs == pytest.approx(rhs, rel=1e-10, abs=1e-10)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            eval_polynomial(poly_1_x1_x2cubed(), (1.0,))


class TestPolynomialType:
    """A polynomial is a one-row system; a problem file's terms become one
    through ``system_from_json``."""

    def test_zero_coefficients_dropped(self):
        p = parse({"num_vars": 2, "terms": [{"alpha": [1, 0], "coeff": 0.0},
                                            {"alpha": [0, 1], "coeff": 2.0},
                                            {"alpha": [3, 3], "coeff": 0.5},
                                            {"alpha": [3, 3], "coeff": -0.5}]})
        assert p.exponents.tolist() == [[0, 1]]
        assert p.coeffs.tolist() == [[2.0]]
        assert p.degree == 1

    def test_degree(self):
        assert poly_1_x1_x2cubed().degree == 3
        assert system_of(2, {}).degree == 0
        assert parse({"num_vars": 2, "terms": []}).degree == 0

    def test_wrong_arity_key_rejected(self):
        with pytest.raises(ValueError, match="exponents"):
            parse({"num_vars": 2, "terms": [{"alpha": [1], "coeff": 1.0}]})

    def test_truncate(self):
        p = poly_1_x1_x2cubed()
        t = truncate_polynomial(p, 2)
        assert t.degree <= 2
        assert terms(t) == {(0, 0): 1.0, (1, 0): 1.0}
        assert terms(truncate_polynomial(p, 0)) == {(0, 0): 1.0}


class TestRandomPolynomial:
    def test_term_count_paper_scale(self):
        p = random_polynomial(2, 4, 123, 1.0)
        assert len(terms(p)) == 15

    def test_term_count_larger(self):
        p = random_polynomial(5, 4, 123, 1.0)
        assert len(terms(p)) == 126

    def test_deterministic(self):
        a = random_polynomial(3, 3, 999, 2.0)
        b = random_polynomial(3, 3, 999, 2.0)
        assert a == b

    def test_different_seeds_differ(self):
        assert random_polynomial(3, 3, 1, 1.0) != random_polynomial(3, 3, 2, 1.0)

    def test_bad_std(self):
        with pytest.raises(ValueError):
            random_polynomial(2, 2, 0, 0.0)


class TestJson:
    def test_round_trip_exact(self):
        p = random_polynomial(3, 4, 5, 1.0)
        text = json.dumps(problem_json(p, [0.0])["polynomials"])
        q = system_from_json(json.loads(text))
        assert p == q  # bit-exact coefficients via repr round-trip
        assert q.exponents is exponent_table(3, 4)

    def test_schema_shape(self):
        # terms are {"alpha", "coeff"} records in any order; the system lists
        # them in the graded order, constant term first
        data = problem_json(poly_1_x1_x2cubed(), [0.0])["polynomials"]
        assert data[0]["num_vars"] == 2
        assert {"alpha", "coeff"} == set(data[0]["terms"][0].keys())
        data[0]["terms"].reverse()
        assert system_from_json(data) == poly_1_x1_x2cubed()
        assert system_from_json(data).exponents.tolist()[0] == [0, 0]
        for key in ("alpha", "coeff"):
            broken = json.loads(json.dumps(data))
            del broken[0]["terms"][0][key]
            with pytest.raises(KeyError):
                system_from_json(broken)
