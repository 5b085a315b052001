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

    ``operator`` is an (M, dim (dim + 1) / 2) array whose row i packs the
    upper triangle of the symmetric matrix C_i (see ``PackedIndex``), and
    ``values`` the (M,) right-hand sides, so row i is the constraint
    trace(C_i @ X) == values[i]. Both arrays are read-only. Row order is
    frozen and gives each row its kind: the ``num_data`` data rows first,
    then (when any row follows) the single normalization row, then the
    dependencies in generation order.
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

    ``column`` is the exponent-table column (degree 2 * half_degree) of
    entries[i] + entries[j], ``pairs`` the number of unordered basis pairs
    with that exponent sum, and ``share`` 1 on the diagonal and 1/2 off it.
    Every cell belongs to exactly one exponent sum.
    """
    basis = enumerate_basis(n, half_degree)
    table_column = enumerate_basis(n, 2 * half_degree).index_of
    entries = basis.entries
    rows, cols = np.triu_indices(len(entries))
    column = np.array([table_column[entries[i] + entries[j]]
                       for i, j in zip(rows, cols)], dtype=np.intp)
    pairs = np.bincount(column, minlength=len(table_column))[column].astype(float)
    share = np.where(rows == cols, 1.0, 0.5)
    for a in (column, pairs, share):
        a.setflags(write=False)
    return column, pairs, share


def quadratic_forms(system: PolySystem, basis: MonomialBasis) -> np.ndarray:
    """(N, dim (dim + 1) / 2) packed rows of the symmetric matrices C_k with
    m(x)' C_k m(x) equal to polynomial k of the system, identically.

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
    column, pairs, share = _cell_map(basis.num_vars, basis.half_degree)
    return system.full_coeffs(cap)[:, column] / pairs * share


def polynomial_to_quadratic_form(p: Polynomial, basis: MonomialBasis) -> np.ndarray:
    """Packed row of the symmetric matrix C with m(x)' C m(x) == p(x)
    identically: the one-row case of ``quadratic_forms``."""
    return quadratic_forms(PolySystem.from_polys([p]), basis)[0]


def generate_dependency_constraints(basis: MonomialBasis) -> np.ndarray:
    """(1 + D, dim (dim + 1) / 2) structural block of packed rows: the
    normalization matrix followed by one matrix per representable entry
    product.

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
    cell = packed_index(dim).cell
    block = np.zeros((1 + len(products), dim * (dim + 1) // 2))
    block[0, cell[0, 0]] = 1.0
    for row, (i, l, k) in enumerate(products, start=1):
        block[row, cell[l, k]] = 1.0 if k == l else 0.5
        block[row, cell[0, i]] = -0.5
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
    operator = np.empty((num_data + len(structural), structural.shape[1]))
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
        "basis": [list(a.exponents) for a in problem.basis.entries],
        "constraints": constraints,
    }


def lifted_problem_from_json(data: dict) -> LiftedProblem:
    """Inverse of ``lifted_problem_to_json``; rejects non-finite numbers and
    cell indices outside [0, dim). A cell with row > col sets its mirror; a
    constraint that sets one cell twice, directly or through its mirror,
    must give it the same value both times."""
    n = checked_int(data["num_vars"], 1)
    order = checked_int(data["order"], 2)
    basis = enumerate_basis(n, order // 2)
    stored = [MultiIndex(tuple(checked_int(e, 0) for e in a)) for a in data["basis"]]
    if stored != list(basis.entries):
        raise ValueError("stored basis does not match the frozen basis order")
    items = data["constraints"]
    dim = len(basis)
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
