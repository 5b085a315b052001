import dataclasses
import itertools
import json
import math

import numpy as np
import pytest

from nlbp import cli
from nlbp.cli import cli_main, lifted_problem_from_json, lifted_problem_to_json
from nlbp.lifting import (
    ConstraintKind,
    DegreeTooHighError,
    LiftedProblem,
    OddOrderError,
    build_lifted_problem,
    generate_dependency_constraints,
    polynomial_to_quadratic_form,
    quadratic_forms,
)
from nlbp.monomials import exponent_table, monomial_vector, random_polynomial
from packed_layout import dense_operator, pack, unpack
from poly_terms import stack, system_of


def quad_value(matrix, vec):
    return float(vec @ matrix @ vec)


def dim_of(num_vars, order):
    return len(exponent_table(num_vars, order // 2))


def dense_form(p, order):
    return unpack(polynomial_to_quadratic_form(p, order), dim_of(p.num_vars, order))


def dense_block(num_vars, order):
    return unpack(generate_dependency_constraints(num_vars, order),
                  dim_of(num_vars, order))


def entries_of(basis):
    return [tuple(e) for e in basis.tolist()]


def index_of(basis, alpha):
    """The row of alpha in basis, or None."""
    entries = entries_of(basis)
    return entries.index(alpha) if alpha in entries else None


def added(a, b):
    return tuple(x + y for x, y in zip(a, b))


def raw_sweep(basis):
    """Reference dependency sweep over index triples (outer, middle, inner) =
    (i, l, k), emitting (i, k, l) whenever entries[k] * entries[l] equals
    entries[i]. It visits (k, l) and (l, k) separately, so every off-diagonal
    relation appears twice."""
    entries = entries_of(basis)
    dim = len(basis)
    return [(i, k, l) for i in range(dim) for l in range(1, dim)
            for k in range(1, dim) if added(entries[k], entries[l]) == entries[i]]


def first_occurrences(triples):
    seen = set()
    out = []
    for i, k, l in triples:
        key = (i, min(k, l), max(k, l))
        if key not in seen:
            seen.add(key)
            out.append((i, k, l))
    return out


def dependency_matrix(dim, i, k, l):
    m = np.zeros((dim, dim))
    if k == l:
        m[l, l] = 1.0
    else:
        m[k, l] = m[l, k] = 0.5
    m[0, i] = m[i, 0] = -0.5
    return m


class TestQuadraticForm:
    def test_one_plus_x1_entries(self):
        basis = exponent_table(2, 2)
        p = system_of(2, {(0, 0): 1.0, (1, 0): 1.0})
        form = dense_form(p, 4)
        assert form[0, 0] == 1.0
        assert form[0, 1] == 0.5
        assert form[1, 0] == 0.5
        assert np.count_nonzero(form) == 3
        rng = np.random.default_rng(0)
        for _ in range(100):
            x = rng.normal(size=2)
            lifted = monomial_vector(x, basis)
            assert quad_value(form, lifted) == pytest.approx(
                p.evaluate(x)[0], rel=1e-12, abs=1e-12)

    def test_zero_polynomial(self):
        form = polynomial_to_quadratic_form(system_of(2, {}), 4)
        assert form.shape == (6 * 7 // 2,)
        assert np.all(form == 0.0)

    def test_equal_split_over_pairs(self):
        # x^2 over a half-degree-2 basis splits across (1, x^2) and (x, x)
        p = system_of(1, {(2,): 1.0})
        form = dense_form(p, 4)
        assert form[0, 2] == 0.25
        assert form[2, 0] == 0.25
        assert form[1, 1] == 0.5

    def test_identity_random_quartics(self):
        # evaluation oracle: the quadratic form must reproduce the polynomial
        rng = np.random.default_rng(3)
        basis = exponent_table(3, 2)
        for seed in range(5):
            p = random_polynomial(3, 4, seed, 1.0)
            row = polynomial_to_quadratic_form(p, 4)
            assert row.shape == (len(basis) * (len(basis) + 1) // 2,)
            form = unpack(row, len(basis))
            for _ in range(100):
                x = rng.normal(size=3)
                lifted = monomial_vector(x, basis)
                val = p.evaluate(x)[0]
                assert abs(quad_value(form, lifted) - val) < 1e-9 * (1 + abs(val))

    def test_degree_too_high(self):
        p = system_of(2, {(2, 1): 1.0})
        with pytest.raises(DegreeTooHighError):
            polynomial_to_quadratic_form(p, 2)

    @pytest.mark.parametrize("system, order, error", [
        (system_of(2, {(1, 0): 1.0}), 3, OddOrderError),
        (system_of(2, {(2, 1): 1.0}), 2, DegreeTooHighError),
    ], ids=["odd_order", "degree_too_high"])
    def test_forms_and_the_lift_refuse_alike(self, system, order, error):
        with pytest.raises(error) as forms:
            quadratic_forms(system, order)
        with pytest.raises(error) as lift:
            build_lifted_problem(system, [0.0], order)
        assert str(forms.value) == str(lift.value)


class TestDependencyGeneration:
    def test_normalization_first(self):
        cons = dense_block(2, 4)
        expected = np.zeros((6, 6))
        expected[0, 0] = 1.0
        assert np.array_equal(cons[0], expected)
        problem = build_lifted_problem(system_of(2, {}), [0.0], 4)
        assert problem.kinds[1] is ConstraintKind.NORMALIZATION
        assert problem.values[1] == 1.0

    def test_product_relation_cells(self):
        # x1 * x2 reproduces the x1*x2 entry: product cell 1/2, tie to the
        # constant-row cell -1/2
        basis = exponent_table(2, 2)
        cons = dense_block(2, 4)
        i_prod = index_of(basis, (1, 1))
        k = index_of(basis, (1, 0))
        l = index_of(basis, (0, 1))
        match = [c for c in cons[1:] if c[k, l] == 0.5 and c[0, i_prod] == -0.5]
        assert len(match) == 1
        c = match[0]
        assert c[l, k] == 0.5
        assert c[i_prod, 0] == -0.5
        assert np.count_nonzero(c) == 4

    def test_square_relation_cells(self):
        basis = exponent_table(2, 2)
        cons = dense_block(2, 4)
        i_sq = index_of(basis, (2, 0))
        k = index_of(basis, (1, 0))
        match = [c for c in cons[1:] if c[k, k] == 1.0 and c[0, i_sq] == -0.5]
        assert len(match) == 1
        assert np.count_nonzero(match[0]) == 3

    def test_no_dependencies_when_unrepresentable(self):
        # basis {1, x1}: the only candidate product x1*x1 leaves the basis
        cons = generate_dependency_constraints(1, 2)
        assert cons.shape == (1, 3)
        assert np.array_equal(cons[0], [1.0, 0.0, 0.0])

    def test_dependency_shape_and_values(self):
        for c in dense_block(3, 4)[1:]:
            nz = np.count_nonzero(c)
            assert nz in (3, 4)
            assert set(np.unique(c[c != 0.0])) <= {-0.5, 0.5, 1.0}

    def test_planted_lift_satisfies_dependencies(self):
        rng = np.random.default_rng(4)
        basis = exponent_table(3, 2)
        cons = dense_block(3, 4)
        for _ in range(20):
            x = rng.normal(size=3)
            lifted = monomial_vector(x, basis)
            for c, value in zip(cons, [1.0] + [0.0] * (len(cons) - 1)):
                assert abs(quad_value(c, lifted) - value) < 1e-12 * (
                    1 + np.max(lifted) ** 2)

    def test_dedup_counts_two_vars(self):
        basis = exponent_table(2, 2)
        # three representable products: x1^2, x1*x2, x2^2; the mixed one is
        # emitted twice by the raw sweep and once by the generator
        assert len(generate_dependency_constraints(2, 4)) == 1 + 3
        assert len(raw_sweep(basis)) == 4

    def test_dedup_preserves_order_and_prefix(self):
        # the generator equals the raw sweep followed by first-occurrence
        # dedup, matrix for matrix and in the same order (half degree 3 is
        # where ordering by entry product alone would interleave targets)
        for n, half in [(1, 1), (2, 2), (3, 2), (5, 1), (5, 2), (8, 2),
                        (3, 3), (2, 3), (4, 3)]:
            basis = exponent_table(n, half)
            dim = len(basis)
            expected = [dependency_matrix(dim, *t)
                        for t in first_occurrences(raw_sweep(basis))]
            block = generate_dependency_constraints(n, 2 * half)
            assert len(block) == 1 + len(expected)
            for got, want in zip(block[1:], expected):
                assert np.array_equal(got, pack(want))

    def test_dependency_completeness(self):
        # independent enumeration: every representable product of two
        # non-constant entries must be covered by some dependency
        basis = exponent_table(2, 3)
        entries = entries_of(basis)
        deps = dense_block(2, 6)[1:]
        for k, l in itertools.combinations_with_replacement(
                range(1, len(basis)), 2):
            i = index_of(basis, added(entries[k], entries[l]))
            if i is None:
                continue
            found = any(
                c[0, i] == -0.5 and (c[k, l] == (1.0 if k == l else 0.5))
                for c in deps
            )
            assert found, f"missing dependency for entries {k} * {l} -> {i}"

    @pytest.mark.parametrize("n, order", [(n, order) for order in (2, 4) for n in range(1, 9)]
                             + [(n, 6) for n in range(1, 6)] + [(1, 12), (2, 10), (3, 8)])
    def test_no_dependency_touches_a_class_above_the_basis_degree(self, n, order):
        # the structural rows tie the basis entries X[0, i] to products of
        # degree <= order / 2, so every cell whose exponent sum is of higher
        # degree is zero on them: the lift's merged columns rest on this
        degree = exponent_table(n, order // 2).sum(axis=1)
        rows, cols = np.triu_indices(len(degree))
        block = generate_dependency_constraints(n, order)
        assert not block[:, degree[rows] + degree[cols] > order // 2].any()

    def test_count_is_function_of_shape_only(self):
        # frozen counts: 15 products of degree-one entries over 5 variables
        basis = exponent_table(5, 2)
        assert len(generate_dependency_constraints(5, 4)) == 1 + 15
        assert len(raw_sweep(basis)) == 25


class TestBuildLiftedProblem:
    def test_reference_experiment_shape(self):
        system = stack([random_polynomial(5, 4, s, 1.0) for s in range(50)])
        values = np.zeros(50)
        problem = build_lifted_problem(system, values, 4)
        assert problem.dim == 21
        kinds = problem.kinds
        assert kinds[:50] == (ConstraintKind.DATA,) * 50
        assert kinds[50] is ConstraintKind.NORMALIZATION
        assert all(k is ConstraintKind.DEPENDENCY for k in kinds[51:])
        assert problem.num_constraints == 66
        assert problem.num_data == 50
        assert problem.operator.shape == (66, 21 * 22 // 2)
        assert problem.values.shape == (66,)
        assert not problem.operator.flags.writeable
        assert not problem.values.flags.writeable

    def test_trivial_problem(self):
        p = system_of(1, {(1,): 1.0})
        problem = build_lifted_problem(p, [0.0], 2)
        assert problem.num_constraints == 2

    def test_planted_lift_feasibility(self):
        rng = np.random.default_rng(5)
        for seed in range(5):
            n = int(rng.integers(1, 5))
            system = stack([random_polynomial(n, 4, 100 + seed * 7 + j, 1.0)
                            for j in range(6)])
            x = rng.normal(size=n)
            values = system.evaluate(x)
            problem = build_lifted_problem(system, values, 4)
            lifted = monomial_vector(x, problem.basis)
            planted = np.outer(lifted, lifted)
            for c, value in zip(dense_operator(problem), problem.values):
                err = abs(float(np.sum(c * planted)) - value)
                assert err < 1e-9 * (1 + abs(value))

    def test_odd_order_rejected(self):
        p = system_of(1, {(1,): 1.0})
        with pytest.raises(OddOrderError):
            build_lifted_problem(p, [0.0], 3)

    def test_degree_above_order_rejected(self):
        p = system_of(1, {(4,): 1.0})
        with pytest.raises(DegreeTooHighError):
            build_lifted_problem(p, [0.0], 2)

    def test_length_mismatch(self):
        p = system_of(1, {(1,): 1.0})
        with pytest.raises(ValueError):
            build_lifted_problem(p, [0.0, 1.0], 2)


class TestLiftVector:
    def test_zero_point(self):
        basis = exponent_table(2, 2)
        assert np.array_equal(monomial_vector((0.0, 0.0), basis),
                              np.array([1, 0, 0, 0, 0, 0.0]))

    def test_frozen_order_values(self):
        basis = exponent_table(2, 2)
        assert np.array_equal(monomial_vector((2.0, 3.0), basis),
                              np.array([1.0, 2.0, 3.0, 4.0, 6.0, 9.0]))

    def test_leading_entry_always_one(self):
        rng = np.random.default_rng(6)
        basis = exponent_table(4, 2)
        for _ in range(10):
            assert monomial_vector(rng.normal(size=4), basis)[0] == 1.0

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            monomial_vector((1.0,), exponent_table(2, 1))


def one_var_problem(operator, values, num_data=None, order=2):
    return LiftedProblem(num_vars=1, order=order,
                         num_data=len(values) if num_data is None else num_data,
                         operator=operator, values=values)


class TestConstraintType:
    def test_non_square_rejected(self):
        # rows must pack a dim x dim upper triangle, 3 cells at dim 2; dense
        # matrix stacks, square or not, are not accepted
        for shape in [(1, 2), (1, 4), (1, 2, 2), (1, 2, 3)]:
            with pytest.raises(ValueError, match="shape"):
                one_var_problem(np.zeros(shape), [0.0])

    def test_values_length_and_num_data_checked(self):
        with pytest.raises(ValueError):
            one_var_problem(np.zeros((2, 3)), [0.0])
        with pytest.raises(ValueError):
            one_var_problem(np.zeros((1, 3)), [0.0], num_data=2)

    def test_arrays_read_only_and_caller_array_untouched(self):
        operator = np.zeros((1, 3))
        problem = one_var_problem(operator, np.array([0.0]))
        assert operator.flags.writeable
        with pytest.raises(ValueError):
            problem.operator[0, 0] = 1.0
        with pytest.raises(ValueError):
            problem.values[0] = 1.0
        assert problem.basis is exponent_table(1, 1)

    def test_equality_and_hash_are_identity(self):
        # the generated field-wise __eq__ would compare the array fields and
        # raise; each problem owns its cached operator, so identity it is
        problem = one_var_problem(np.zeros((1, 3)), [0.0])
        copy = dataclasses.replace(problem)
        assert problem == problem
        assert (copy == problem) is False and copy != problem
        assert {problem, problem, copy} == {problem, copy}
        assert hash(problem) == hash(problem)

    def test_basis_must_be_the_exponent_table_of_the_order(self):
        # the basis is derived from num_vars and order, never passed in
        problem = one_var_problem(np.zeros((1, 3)), [0.0])
        assert problem.basis is exponent_table(1, 1)
        assert problem.basis.tolist() == [[0], [1]]
        with pytest.raises(TypeError):
            LiftedProblem(basis=exponent_table(1, 1), num_vars=1, order=2,
                          num_data=1, operator=np.zeros((1, 3)), values=[0.0])
        for order in (3, 0):
            with pytest.raises(OddOrderError):
                one_var_problem(np.zeros((1, 3)), [0.0], order=order)


class TestProblemJson:
    def test_round_trip(self):
        system = stack([random_polynomial(2, 4, s, 1.0) for s in range(3)])
        x = np.array([0.5, -1.5])
        problem = build_lifted_problem(system, system.evaluate(x), 4)
        text = json.dumps(lifted_problem_to_json(problem))
        back = lifted_problem_from_json(json.loads(text))
        assert back.num_vars == problem.num_vars
        assert back.order == problem.order
        assert back.num_constraints == problem.num_constraints
        assert back.num_data == problem.num_data
        assert back.kinds == problem.kinds
        assert np.array_equal(back.values, problem.values)
        assert np.array_equal(back.operator, problem.operator)
        assert back.basis is problem.basis

    def test_odd_order_or_foreign_basis_rejected(self):
        # an order-3 file with the degree-1 basis loads only if the order is
        # checked; a basis out of the frozen order never does
        p = system_of(1, {(1,): 1.0})
        data = lifted_problem_to_json(build_lifted_problem(p, [0.0], 2))
        with pytest.raises(OddOrderError):
            lifted_problem_from_json(dict(data, order=3))
        for basis in ([[1], [0]], [[0], [2]], [[0]], [[0, 0], [1, 0]]):
            with pytest.raises(ValueError, match="basis"):
                lifted_problem_from_json(dict(data, basis=basis))

    @pytest.mark.parametrize("order", [12, 16])
    def test_basis_of_the_wrong_size_refused_before_any_table(
            self, monkeypatch, tmp_path, capsys, order):
        # n = 10 at order 16 has a 43,758-row basis: a short file naming it
        # must be refused without building that table or its packed layout
        def bounded(build, rows):
            def guarded(*args):
                if rows(*args) > 10_000:
                    raise AssertionError(f"{build.__name__}{args}: {rows(*args)} rows")
                return build(*args)
            return guarded

        monkeypatch.setattr(cli, "exponent_table", bounded(
            cli.exponent_table, lambda n, degree: math.comb(n + degree, n)))
        monkeypatch.setattr(cli, "packed_index", bounded(
            cli.packed_index, lambda dim: dim * (dim + 1) // 2))
        data = {"num_vars": 10, "order": order, "basis": [[0] * 10],
                "constraints": [{"y": 1.0, "kind": "normalization", "entries": [
                    {"row": 0, "col": 0, "value": 1.0}]}]}
        with pytest.raises(ValueError, match=r"basis has 1 rows, but exponent_table"):
            lifted_problem_from_json(data)
        path = tmp_path / "lifted.json"
        path.write_text(json.dumps(data))
        assert cli_main(["solve", str(path)]) == 1
        assert "bad lifted file: basis has 1 rows" in capsys.readouterr().err

    @pytest.mark.parametrize("kinds", [
        ["normalization", "data", "dependency"],
        ["data", "dependency", "dependency"],
        ["data", "normalization", "normalization"],
    ])
    def test_kinds_out_of_frozen_order_rejected(self, kinds):
        p = system_of(1, {(1,): 1.0})
        data = lifted_problem_to_json(build_lifted_problem(p, [0.0], 4))
        assert [c["kind"] for c in data["constraints"]] == [
            "data", "normalization", "dependency"]
        for c, kind in zip(data["constraints"], kinds):
            c["kind"] = kind
        with pytest.raises(ValueError, match="frozen order"):
            lifted_problem_from_json(data)

    # the on-disk format: the lift of PINNED_SYSTEM as written before the
    # operator moved to the packed layout
    PINNED_JSON = (
        '{"num_vars": 2, "order": 4, "basis": [[0, 0], [1, 0], [0, 1], [2, 0], '
        '[1, 1], [0, 2]], "constraints": [{"y": 1.5, "kind": "data", "entries": '
        '[{"row": 0, "col": 0, "value": 0.1}, {"row": 0, "col": 1, "value": 0.5}, '
        '{"row": 0, "col": 4, "value": -0.175}, {"row": 1, "col": 2, "value": '
        '-0.175}, {"row": 3, "col": 5, "value": 0.75}, {"row": 4, "col": 4, '
        '"value": 1.5}]}, {"y": -0.7, "kind": "data", "entries": [{"row": 2, '
        '"col": 5, "value": 0.5}, {"row": 3, "col": 3, "value": -0.3}]}, {"y": '
        '1.0, "kind": "normalization", "entries": [{"row": 0, "col": 0, "value": '
        '1.0}]}, {"y": 0.0, "kind": "dependency", "entries": [{"row": 0, "col": '
        '3, "value": -0.5}, {"row": 1, "col": 1, "value": 1.0}]}, {"y": 0.0, '
        '"kind": "dependency", "entries": [{"row": 0, "col": 4, "value": -0.5}, '
        '{"row": 1, "col": 2, "value": 0.5}]}, {"y": 0.0, "kind": "dependency", '
        '"entries": [{"row": 0, "col": 5, "value": -0.5}, {"row": 2, "col": 2, '
        '"value": 1.0}]}]}'
    )

    @staticmethod
    def pinned_problem():
        system = system_of(2, {(0, 0): 0.1, (1, 0): 1.0, (1, 1): -0.7, (2, 2): 3.0},
                           {(0, 3): 1.0, (4, 0): -0.3})
        return build_lifted_problem(system, [1.5, -0.7], 4)

    def test_pinned_format_written_and_read_back(self):
        problem = self.pinned_problem()
        assert json.dumps(lifted_problem_to_json(problem)) == self.PINNED_JSON
        back = lifted_problem_from_json(json.loads(self.PINNED_JSON))
        assert np.array_equal(back.operator, problem.operator)
        assert np.array_equal(back.values, problem.values)
        assert back.kinds == problem.kinds

    def test_lower_triangle_cell_loads_like_its_mirror(self):
        problem = self.pinned_problem()
        data = json.loads(self.PINNED_JSON)
        flipped = 0
        for constraint in data["constraints"]:
            for cell in constraint["entries"]:
                if cell["row"] < cell["col"]:
                    cell["row"], cell["col"] = cell["col"], cell["row"]
                    flipped += 1
        assert flipped == 9
        back = lifted_problem_from_json(data)
        assert np.array_equal(back.operator, problem.operator)

    @pytest.mark.parametrize("mirror", [False, True], ids=["same_cell", "mirror"])
    def test_conflicting_repeat_of_a_cell_rejected(self, mirror):
        data = json.loads(self.PINNED_JSON)
        entries = data["constraints"][0]["entries"]
        assert entries[1] == {"row": 0, "col": 1, "value": 0.5}
        entries.append({"row": 1, "col": 0, "value": 0.7} if mirror
                       else {"row": 0, "col": 1, "value": 0.7})
        with pytest.raises(ValueError, match=r"constraint 0 gives cell .* two values"):
            lifted_problem_from_json(data)

    @pytest.mark.parametrize("mirror", [False, True], ids=["same_cell", "mirror"])
    def test_identical_repeat_of_a_cell_loads(self, mirror):
        problem = self.pinned_problem()
        data = json.loads(self.PINNED_JSON)
        data["constraints"][0]["entries"].append(
            {"row": 1, "col": 0, "value": 0.5} if mirror
            else {"row": 0, "col": 1, "value": 0.5})
        back = lifted_problem_from_json(data)
        assert np.array_equal(back.operator, problem.operator)

    def test_upper_triangle_only(self):
        p = system_of(2, {(1, 1): 2.0})
        problem = build_lifted_problem(p, [0.0], 2)
        data = lifted_problem_to_json(problem)
        for c in data["constraints"]:
            for cell in c["entries"]:
                assert cell["row"] <= cell["col"]
