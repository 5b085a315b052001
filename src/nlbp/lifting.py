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
read-only (M, dim (dim + 1) / 2) array plus its (M,) right-hand side
(``LiftedProblem.operator`` and ``.values``). Row i packs the upper triangle
of the symmetric constraint matrix C_i row by row, with the matrix's own
values: the cells the lifted JSON stores. ``packed_index`` maps between that
layout and dense matrices; the solver and the certificate read the packed
rows directly.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from enum import Enum
from typing import NamedTuple

import numpy as np

from .monomials import (
    PolySystem,
    checked_float,
    checked_int,
    exponent_table,
    monomial_vector,
    table_rows,
)


class DegreeTooHighError(ValueError):
    """A polynomial term exceeds the degree the basis can represent."""


class OddOrderError(ValueError):
    """The requested lift order is odd; the construction needs an even order."""


def _half_order(order: int) -> int:
    """order // 2, the basis degree of an even lift order >= 2."""
    if order % 2 != 0 or order < 2:
        raise OddOrderError(f"lift order must be even and >= 2, got {order}")
    return order // 2


def _half_degree(basis: np.ndarray) -> int:
    """The degree of a basis table: that of its last row, the order being
    graded."""
    return int(basis[-1].sum())


class ConstraintKind(Enum):
    DATA = "data"
    NORMALIZATION = "normalization"
    DEPENDENCY = "dependency"


class PackedIndex(NamedTuple):
    """The packed layout of dim x dim symmetric matrices: the upper triangle,
    row by row, dim (dim + 1) / 2 cells.

    ``upper`` and ``lower`` are the flat positions of cell (i, j), i <= j,
    and of its mirror (j, i); ``cell[i, j]`` is the packed index of both.
    For any X, symmetric or not, a packed row c of C pairs with
    (X[upper] + X[lower]) * ``fold`` (1/2 on the diagonal, 1 off it) to
    trace(C X). ``weight`` (1 on the diagonal, sqrt(2) off it) turns c into
    the svec row c * weight, which pairs with ``svec(X)`` to the same trace.
    """

    upper: np.ndarray
    lower: np.ndarray
    cell: np.ndarray
    fold: np.ndarray
    weight: np.ndarray
    half: np.ndarray  # weight / 2

    def svec(self, X: np.ndarray) -> np.ndarray:
        """svec of the symmetric part of X, so svec(A) . svec(B) = trace(A B)
        for symmetric A and B."""
        x = X.ravel()
        return (x[self.upper] + x[self.lower]) * self.half


@functools.lru_cache(maxsize=None)
def packed_index(dim: int) -> PackedIndex:
    """Built once per dimension and shared, hence read-only."""
    rows, cols = np.triu_indices(dim)
    upper = rows * dim + cols
    lower = cols * dim + rows
    cell = np.empty((dim, dim), dtype=np.intp)
    cell[rows, cols] = cell[cols, rows] = np.arange(len(rows))
    diagonal = rows == cols
    weight = np.where(diagonal, 1.0, np.sqrt(2.0))
    index = PackedIndex(upper, lower, cell, np.where(diagonal, 0.5, 1.0),
                        weight, 0.5 * weight)
    for a in index:
        a.setflags(write=False)
    return index


@dataclass(frozen=True)
class LiftedProblem:
    """A lifted instance: the basis plus one linear map on the matrix variable.

    ``basis`` is the read-only (dim, num_vars) table
    ``exponent_table(num_vars, order // 2)``, checked on construction, so an
    odd ``order`` is refused here as in ``build_lifted_problem``.
    ``operator`` is an (M, dim (dim + 1) / 2) array whose row i packs the
    upper triangle of the symmetric matrix C_i (see ``PackedIndex``), and
    ``values`` the (M,) right-hand sides, so row i is the constraint
    trace(C_i @ X) == values[i]. Both arrays are read-only. Row order is
    frozen and gives each row its kind: the ``num_data`` data rows first,
    then (when any row follows) the single normalization row, then the
    dependencies in generation order.
    """

    basis: np.ndarray
    num_vars: int
    order: int
    num_data: int
    operator: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        half = _half_order(self.order)
        basis = exponent_table(self.num_vars, half)
        if not np.array_equal(self.basis, basis):
            raise ValueError(f"basis is not exponent_table({self.num_vars}, {half}) "
                             f"in the frozen graded order")
        object.__setattr__(self, "basis", basis)
        operator = np.ascontiguousarray(self.operator, dtype=float).view()
        values = np.ascontiguousarray(self.values, dtype=float).view()
        dim = len(basis)
        width = dim * (dim + 1) // 2
        if operator.ndim != 2 or operator.shape[1] != width:
            raise ValueError(
                f"operator must have shape (M, {width}), got {operator.shape}")
        if values.shape != operator.shape[:1]:
            raise ValueError(
                f"got {len(operator)} constraint rows but {values.shape} values")
        if not 0 <= self.num_data <= len(values):
            raise ValueError(f"num_data {self.num_data} outside [0, {len(values)}]")
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
    """Where each packed cell (i, j), i <= j, of a basis-indexed matrix takes
    its value from.

    ``column`` is the row of basis[i] + basis[j] in
    ``exponent_table(n, 2 * half_degree)``, ``pairs`` the number of
    unordered basis pairs with that exponent sum, and ``share`` 1 on the
    diagonal and 1/2 off it. Every cell belongs to exactly one exponent sum.
    The basis is a row prefix of that table, so a column below dim is the
    basis entry the product equals.
    """
    table = exponent_table(n, 2 * half_degree)
    rows, cols = np.triu_indices(len(exponent_table(n, half_degree)))
    column = table_rows(table[rows] + table[cols], 2 * half_degree)
    pairs = np.bincount(column, minlength=len(table))[column].astype(float)
    share = np.where(rows == cols, 1.0, 0.5)
    for a in (column, pairs, share):
        a.setflags(write=False)
    return column, pairs, share


def quadratic_forms(system: PolySystem, basis: np.ndarray) -> np.ndarray:
    """(N, dim (dim + 1) / 2) packed rows of the symmetric matrices C_k with
    m(x)' C_k m(x) equal to polynomial k of the system, identically.

    Each coefficient is split equally over all unordered basis pairs whose
    exponents sum to its monomial; a diagonal pair receives its full share
    and an off-diagonal pair half the share on each mirrored cell. Any split
    satisfying the identity would do; the equal split is the canonical one.
    """
    if system.num_vars != basis.shape[1]:
        raise ValueError(
            f"polynomial has {system.num_vars} variables, basis has {basis.shape[1]}"
        )
    half = _half_degree(basis)
    if system.degree > 2 * half:
        raise DegreeTooHighError(
            f"polynomial degree {system.degree} exceeds representable degree {2 * half}"
        )
    column, pairs, share = _cell_map(system.num_vars, half)
    return system.full_coeffs(2 * half)[:, column] / pairs * share


def polynomial_to_quadratic_form(p: PolySystem, basis: np.ndarray) -> np.ndarray:
    """Packed row of the symmetric matrix C with m(x)' C m(x) == p(x)
    identically, for a one-row system p. Not called by the package: it stays
    bound for perfbench's tracer until that wraps ``quadratic_forms``."""
    return quadratic_forms(p, basis)[0]


def generate_dependency_constraints(basis: np.ndarray) -> np.ndarray:
    """(1 + D, dim (dim + 1) / 2) structural block of packed rows: the
    normalization matrix followed by one matrix per representable entry
    product.

    A dependency ties basis[k] * basis[l] (1 <= l <= k) to the entry i
    with basis[i] == basis[k] + basis[l]: the product cell gets weight
    1/2 (or 1 on the diagonal when k == l) and the cell tying entry i to the
    constant gets weight -1/2, so trace(C X) is 0 on any lifted point. The
    constant entry never participates as a factor. Rows are ordered by i,
    then l, then k; the normalization matrix pins the (0, 0) cell, with
    value 1.
    """
    dim = len(basis)
    column = _cell_map(basis.shape[1], _half_degree(basis))[0]
    # packed cells run over (l, k) in row-major order, so a stable sort by
    # the product's entry i gives the (i, l, k) order
    l, k = np.triu_indices(dim)
    products = np.flatnonzero((l >= 1) & (column < dim))
    products = products[np.argsort(column[products], kind="stable")]
    cell = packed_index(dim).cell
    block = np.zeros((1 + len(products), dim * (dim + 1) // 2))
    block[0, cell[0, 0]] = 1.0
    rows = np.arange(1, 1 + len(products))
    block[rows, products] = np.where(l[products] == k[products], 1.0, 0.5)
    block[rows, cell[0, column[products]]] = -0.5
    return block


@functools.lru_cache(maxsize=None)
def _structural_constraints(n: int, half_degree: int) -> np.ndarray:
    """The data-independent block of a basis, generated once per key and
    shared read-only."""
    block = generate_dependency_constraints(exponent_table(n, half_degree))
    block.setflags(write=False)
    return block


def build_lifted_problem(system: PolySystem, values, order: int) -> LiftedProblem:
    """Assemble the lifted problem for the system values[i] = p_i(x).

    ``order`` is the (even) lift order; every polynomial of ``system`` must
    have degree <= order. Inconsistent right-hand sides still build fine:
    infeasibility is a solver-level property and surfaces as a non-vanishing
    constraint residual.
    """
    values = np.asarray(values, dtype=float)
    if values.shape != (len(system),):
        raise ValueError(
            f"got {len(system)} polynomials but {values.shape} right-hand sides"
        )
    half = _half_order(order)
    if system.degree > order:
        raise DegreeTooHighError(
            f"polynomial degree {system.degree} exceeds lift order {order}"
        )
    basis = exponent_table(system.num_vars, half)
    structural = _structural_constraints(system.num_vars, half)
    num_data = len(values)
    operator = np.empty((num_data + len(structural), structural.shape[1]))
    operator[:num_data] = quadratic_forms(system, basis)
    operator[num_data:] = structural
    rhs = np.zeros(len(operator))
    rhs[:num_data] = values
    rhs[num_data] = 1.0
    return LiftedProblem(basis=basis, num_vars=system.num_vars, order=order,
                         num_data=num_data, operator=operator, values=rhs)


def lift_vector(x, basis: np.ndarray) -> np.ndarray:
    """Evaluate every basis monomial at x; the leading entry is always 1."""
    return monomial_vector(x, basis)


def lifted_problem_to_json(problem: LiftedProblem) -> dict:
    """Sparse triplet export of the nonzero packed cells, so every stored
    cell has row <= col."""
    rows, cols = np.triu_indices(problem.dim)
    constraints = []
    for packed, value, kind in zip(problem.operator, problem.values, problem.kinds):
        constraints.append({
            "y": float(value),
            "kind": kind.value,
            "entries": [
                {"row": int(rows[c]), "col": int(cols[c]), "value": float(packed[c])}
                for c in np.flatnonzero(packed)
            ],
        })
    return {
        "num_vars": problem.num_vars,
        "order": problem.order,
        "basis": problem.basis.tolist(),
        "constraints": constraints,
    }


def lifted_problem_from_json(data: dict) -> LiftedProblem:
    """Inverse of ``lifted_problem_to_json``; rejects non-finite numbers, cell
    indices outside [0, dim), and an order or stored basis that
    ``LiftedProblem`` refuses. A cell with row > col sets its mirror; a
    constraint that sets one cell twice, directly or through its mirror,
    must give it the same value both times."""
    n = checked_int(data["num_vars"], 1)
    order = checked_int(data["order"], 2)
    basis = [[checked_int(e, 0) for e in a] for a in data["basis"]]
    items = data["constraints"]
    dim = len(exponent_table(n, order // 2))
    cell = packed_index(dim).cell
    operator = np.zeros((len(items), dim * (dim + 1) // 2))
    for i, (row, item) in enumerate(zip(operator, items)):
        seen = set()
        for entry in item["entries"]:
            r, c = checked_int(entry["row"], 0, dim), checked_int(entry["col"], 0, dim)
            k, value = int(cell[r, c]), checked_float(entry["value"])
            if k in seen and row[k] != value:
                raise ValueError(f"constraint {i} gives cell ({r}, {c}) two values")
            seen.add(k)
            row[k] = value
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
