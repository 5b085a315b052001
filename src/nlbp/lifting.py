"""Lifting polynomial equations to linear trace constraints on a matrix.

A polynomial equation ``value = p(x)`` of degree <= q (q even) becomes a
quadratic form ``value = m(x)' C m(x)`` over the vector m(x) of all monomials
of degree <= q/2. Replacing the rank-one outer product m(x) m(x)' by a matrix
variable turns each equation into a linear trace constraint. Because entries
of m(x) are algebraically dependent (entry products reproduce other entries),
a set of structural constraints is generated alongside the data constraints:
one normalization (the constant entry squares to 1) and one dependency per
representable entry product.

The whole system is one linear map on the matrix variable, held as a single
read-only (M, dim, dim) array plus its (M,) right-hand side
(``LiftedProblem.operator`` and ``.values``); the solver and the
certificates read those arrays directly.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .monomials import (
    MonomialBasis,
    MultiIndex,
    Polynomial,
    PolySystem,
    checked_float,
    checked_int,
    enumerate_basis,
    monomial_vector,
)


class DegreeTooHighError(ValueError):
    """A polynomial term exceeds the degree the basis can represent."""


class OddOrderError(ValueError):
    """The requested lift order is odd; the construction needs an even order."""


class ConstraintKind(Enum):
    DATA = "data"
    NORMALIZATION = "normalization"
    DEPENDENCY = "dependency"


@dataclass(frozen=True)
class LiftedProblem:
    """A lifted instance: the basis plus one linear map on the matrix variable.

    ``operator`` is an (M, dim, dim) stack of exactly symmetric matrices C_i
    and ``values`` the (M,) right-hand sides, so row i is the constraint
    trace(C_i @ X) == values[i]. Both arrays are read-only. Row order is
    frozen and gives each row its kind: the ``num_data`` data rows first,
    then (when any row follows) the single normalization row, then the
    dependencies in generation order. The operator is kept C-contiguous, so
    its (M, dim * dim) reshape is a view.
    """

    basis: MonomialBasis
    num_vars: int
    order: int
    num_data: int
    operator: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        operator = np.ascontiguousarray(self.operator, dtype=float).view()
        values = np.ascontiguousarray(self.values, dtype=float).view()
        dim = len(self.basis)
        if operator.ndim != 3 or operator.shape[1:] != (dim, dim):
            raise ValueError(
                f"operator must have shape (M, {dim}, {dim}), got {operator.shape}")
        if values.shape != operator.shape[:1]:
            raise ValueError(
                f"got {len(operator)} constraint matrices but {values.shape} values")
        if not 0 <= self.num_data <= len(values):
            raise ValueError(f"num_data {self.num_data} outside [0, {len(values)}]")
        if not np.array_equal(operator, operator.transpose(0, 2, 1)):
            raise ValueError("constraint matrices must be exactly symmetric")
        for name, a in (("operator", operator), ("values", values)):
            a.setflags(write=False)
            object.__setattr__(self, name, a)

    @property
    def dim(self) -> int:
        return len(self.basis)

    @property
    def num_constraints(self) -> int:
        return len(self.values)

    @property
    def kinds(self) -> tuple[ConstraintKind, ...]:
        structural = self.num_constraints - self.num_data
        return ((ConstraintKind.DATA,) * self.num_data
                + (ConstraintKind.NORMALIZATION,) * min(structural, 1)
                + (ConstraintKind.DEPENDENCY,) * max(structural - 1, 0))


@functools.lru_cache(maxsize=None)
def _cell_map(n: int, half_degree: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Where each cell (i, j) of a basis-indexed matrix takes its value from.

    ``column[i, j]`` is the exponent-table column (degree 2 * half_degree) of
    entries[i] + entries[j], ``pairs[i, j]`` the number of unordered basis
    pairs with that exponent sum, and ``half[i, j]`` 1 on the diagonal and
    1/2 off it. Every cell belongs to exactly one exponent sum.
    """
    basis = enumerate_basis(n, half_degree)
    table_column = enumerate_basis(n, 2 * half_degree).index_of
    entries = basis.entries
    column = np.array([[table_column[a + b] for b in entries] for a in entries],
                      dtype=np.intp)
    upper = column[np.triu_indices(len(entries))]
    pairs = np.bincount(upper, minlength=len(table_column))[column].astype(float)
    half = np.full(column.shape, 0.5)
    np.fill_diagonal(half, 1.0)
    for a in (column, pairs, half):
        a.setflags(write=False)
    return column, pairs, half


def quadratic_forms(system: PolySystem, basis: MonomialBasis) -> np.ndarray:
    """(N, dim, dim) stack of symmetric matrices C_k with m(x)' C_k m(x) equal
    to polynomial k of the system, identically.

    Each coefficient is split equally over all unordered basis pairs whose
    exponents sum to its multi-index; a diagonal pair receives its full share
    and an off-diagonal pair half the share on each mirrored cell. Any split
    satisfying the identity would do; the equal split is the canonical one.
    """
    if system.num_vars != basis.num_vars:
        raise ValueError(
            f"polynomial has {system.num_vars} variables, basis has {basis.num_vars}"
        )
    cap = 2 * basis.half_degree
    if system.degree > cap:
        raise DegreeTooHighError(
            f"polynomial degree {system.degree} exceeds representable degree {cap}"
        )
    column, pairs, half = _cell_map(basis.num_vars, basis.half_degree)
    return system.full_coeffs(cap)[:, column] / pairs * half


def polynomial_to_quadratic_form(p: Polynomial, basis: MonomialBasis) -> np.ndarray:
    """Symmetric matrix C with m(x)' C m(x) == p(x) identically: the one-row
    case of ``quadratic_forms``."""
    return quadratic_forms(PolySystem.from_polys([p]), basis)[0]


def generate_dependency_constraints(basis: MonomialBasis) -> np.ndarray:
    """(1 + D, dim, dim) structural block: the normalization matrix followed
    by one matrix per representable entry product.

    A dependency ties entries[k] * entries[l] (1 <= l <= k) to the entry i
    with entries[i] == entries[k] + entries[l]: the product cell gets weight
    1/2 (or 1 on the diagonal when k == l) and the cell tying entry i to the
    constant gets weight -1/2, so trace(C X) is 0 on any lifted point. The
    constant entry never participates as a factor. Rows are ordered by i,
    then l, then k; the normalization matrix pins the (0, 0) cell, with
    value 1.
    """
    dim = len(basis)
    entries = basis.entries
    products = []
    for l in range(1, dim):
        for k in range(l, dim):
            i = basis.index_of.get(entries[k] + entries[l])
            if i is not None:
                products.append((i, l, k))
    products.sort()
    block = np.zeros((1 + len(products), dim, dim))
    block[0, 0, 0] = 1.0
    for row, (i, l, k) in enumerate(products, start=1):
        if k == l:
            block[row, l, l] = 1.0
        else:
            block[row, k, l] = 0.5
            block[row, l, k] = 0.5
        block[row, 0, i] = -0.5
        block[row, i, 0] = -0.5
    return block


@functools.lru_cache(maxsize=None)
def _structural_constraints(n: int, half_degree: int) -> np.ndarray:
    """The data-independent block of a basis, generated once per key and
    shared read-only."""
    block = generate_dependency_constraints(enumerate_basis(n, half_degree))
    block.setflags(write=False)
    return block


def build_lifted_problem(polys, values, order: int) -> LiftedProblem:
    """Assemble the lifted problem for the system values[i] = polys[i](x).

    ``polys`` is a ``PolySystem`` or a sequence of ``Polynomial``s. ``order``
    is the (even) lift order; every polynomial must have degree <= order.
    Inconsistent right-hand sides still build fine: infeasibility is a
    solver-level property and surfaces as a non-vanishing constraint residual.
    """
    system = PolySystem.from_polys(polys)
    values = np.asarray(values, dtype=float)
    if values.shape != (len(system),):
        raise ValueError(
            f"got {len(system)} polynomials but {values.shape} right-hand sides"
        )
    if order % 2 != 0 or order < 2:
        raise OddOrderError(f"lift order must be even and >= 2, got {order}")
    if system.degree > order:
        raise DegreeTooHighError(
            f"polynomial degree {system.degree} exceeds lift order {order}"
        )
    basis = enumerate_basis(system.num_vars, order // 2)
    structural = _structural_constraints(system.num_vars, order // 2)
    num_data = len(values)
    operator = np.empty((num_data + len(structural), len(basis), len(basis)))
    operator[:num_data] = quadratic_forms(system, basis)
    operator[num_data:] = structural
    rhs = np.zeros(len(operator))
    rhs[:num_data] = values
    rhs[num_data] = 1.0
    return LiftedProblem(basis=basis, num_vars=system.num_vars, order=order,
                         num_data=num_data, operator=operator, values=rhs)


def lift_vector(x, basis: MonomialBasis) -> np.ndarray:
    """Evaluate every basis monomial at x; the leading entry is always 1."""
    return monomial_vector(x, basis.num_vars, basis.half_degree)


def lifted_problem_to_json(problem: LiftedProblem) -> dict:
    """Sparse triplet export; only cells with row <= col are stored."""
    constraints = []
    for matrix, value, kind in zip(problem.operator, problem.values, problem.kinds):
        rows, cols = np.nonzero(np.triu(matrix))
        constraints.append({
            "y": float(value),
            "kind": kind.value,
            "entries": [
                {"row": int(r), "col": int(col), "value": float(matrix[r, col])}
                for r, col in zip(rows, cols)
            ],
        })
    return {
        "num_vars": problem.num_vars,
        "order": problem.order,
        "basis": [list(a.exponents) for a in problem.basis.entries],
        "constraints": constraints,
    }


def lifted_problem_from_json(data: dict) -> LiftedProblem:
    """Inverse of ``lifted_problem_to_json``; rejects non-finite numbers and
    cell indices outside [0, dim)."""
    n = checked_int(data["num_vars"], 1)
    order = checked_int(data["order"], 2)
    basis = enumerate_basis(n, order // 2)
    stored = [MultiIndex(tuple(checked_int(e, 0) for e in a)) for a in data["basis"]]
    if stored != list(basis.entries):
        raise ValueError("stored basis does not match the frozen basis order")
    items = data["constraints"]
    dim = len(basis)
    operator = np.zeros((len(items), dim, dim))
    for m, item in zip(operator, items):
        for cell in item["entries"]:
            r, c = checked_int(cell["row"], 0, dim), checked_int(cell["col"], 0, dim)
            v = checked_float(cell["value"])
            m[r, c] = v
            m[c, r] = v
    kinds = [ConstraintKind(item["kind"]) for item in items]
    num_data = next((i for i, k in enumerate(kinds) if k is not ConstraintKind.DATA),
                    len(kinds))
    problem = LiftedProblem(basis=basis, num_vars=n, order=order,
                            num_data=num_data, operator=operator,
                            values=[checked_float(item["y"]) for item in items])
    if tuple(kinds) != problem.kinds:
        raise ValueError("constraint kinds are not in the frozen order: data, "
                         "then one normalization, then dependencies")
    return problem
