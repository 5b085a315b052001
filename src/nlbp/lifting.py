"""Lifting polynomial equations to linear trace constraints on a matrix.

A polynomial equation ``value = p(x)`` of degree <= q (q even) becomes a
quadratic form ``value = m(x)' C m(x)`` over the vector m(x) of all monomials
of degree <= q/2. Replacing the rank-one outer product m(x) m(x)' by a matrix
variable turns each equation into a linear trace constraint. Because entries
of m(x) are algebraically dependent (entry products reproduce other entries),
a set of structural constraints is generated alongside the data constraints:
one normalization (the constant entry squares to 1) and one dependency per
representable entry product.
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
class LiftedConstraint:
    """One linear trace constraint: trace(matrix @ X) == value.

    ``matrix`` is dense, exactly symmetric, of the basis dimension. Dependency
    constraints always have value 0 and either 3 or 4 nonzero cells with
    values in {+-1/2, 1}; the normalization constraint pins the (0, 0) cell
    to 1.
    """

    value: float
    matrix: np.ndarray
    kind: ConstraintKind

    def __post_init__(self):
        m = self.matrix
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise ValueError(f"constraint matrix must be square, got {m.shape}")
        if not np.array_equal(m, m.T):
            raise ValueError("constraint matrix must be exactly symmetric")


@dataclass(frozen=True)
class LiftedProblem:
    """A full lifted instance: basis plus ordered constraints.

    Constraint order is fixed: the N data constraints first, then the single
    normalization constraint, then the dependencies in generation order.
    """

    basis: MonomialBasis
    constraints: tuple[LiftedConstraint, ...]
    num_vars: int
    order: int

    @property
    def dim(self) -> int:
        return len(self.basis)

    @property
    def num_constraints(self) -> int:
        return len(self.constraints)

    @property
    def num_data(self) -> int:
        return sum(1 for c in self.constraints if c.kind is ConstraintKind.DATA)

    def values_vector(self) -> np.ndarray:
        return np.array([c.value for c in self.constraints])


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


def generate_dependency_constraints(
    basis: MonomialBasis, dedup: bool = True
) -> list[LiftedConstraint]:
    """Normalization constraint followed by all entry-product dependencies.

    The sweep runs index triples (outer, middle, inner) = (i, l, k) over the
    basis, emitting a constraint whenever entries[k] * entries[l] equals
    entries[i]: the product cell gets weight 1/2 (or 1 on the diagonal when
    k == l) and the cell tying entry i to the constant gets weight -1/2, so
    the constraint value is 0 on any lifted point. The constant entry itself
    never participates as a factor.

    The raw sweep visits (k, l) and (l, k) separately and therefore emits
    each off-diagonal relation twice; with ``dedup`` (default) constraints
    that are exactly equal as matrices are dropped after their first
    occurrence, preserving order. ``dedup=False`` reproduces the raw sweep.
    """
    dim = len(basis)
    entries = basis.entries
    out: list[LiftedConstraint] = []

    norm = np.zeros((dim, dim))
    norm[0, 0] = 1.0
    out.append(LiftedConstraint(1.0, norm, ConstraintKind.NORMALIZATION))

    seen: set[tuple[int, int, int]] = set()
    for i in range(dim):
        target = entries[i]
        for l in range(1, dim):
            for k in range(1, dim):
                if entries[k].degree + entries[l].degree != target.degree:
                    continue
                if entries[k] + entries[l] != target:
                    continue
                key = (i, min(k, l), max(k, l))
                if dedup:
                    if key in seen:
                        continue
                    seen.add(key)
                dep = np.zeros((dim, dim))
                if k == l:
                    dep[l, l] = 1.0
                else:
                    dep[k, l] = 0.5
                    dep[l, k] = 0.5
                dep[0, i] = -0.5
                dep[i, 0] = -0.5
                out.append(LiftedConstraint(0.0, dep, ConstraintKind.DEPENDENCY))
    return out


@functools.lru_cache(maxsize=None)
def _structural_constraints(n: int, half_degree: int, dedup: bool):
    """The data-independent constraints of a basis, generated once per key
    and shared, with read-only matrices."""
    constraints = tuple(
        generate_dependency_constraints(enumerate_basis(n, half_degree), dedup=dedup))
    for c in constraints:
        c.matrix.setflags(write=False)
    return constraints


def build_lifted_problem(
    polys,
    values,
    order: int,
    dedup: bool = True,
) -> LiftedProblem:
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
    constraints = [
        LiftedConstraint(float(v), form, ConstraintKind.DATA)
        for form, v in zip(quadratic_forms(system, basis), values)
    ]
    constraints.extend(_structural_constraints(system.num_vars, order // 2, dedup))
    return LiftedProblem(basis=basis, constraints=tuple(constraints),
                         num_vars=system.num_vars, order=order)


def lift_vector(x, basis: MonomialBasis) -> np.ndarray:
    """Evaluate every basis monomial at x; the leading entry is always 1."""
    return monomial_vector(x, basis.num_vars, basis.half_degree)


def lifted_problem_to_json(problem: LiftedProblem) -> dict:
    """Sparse triplet export; only cells with row <= col are stored."""
    constraints = []
    for c in problem.constraints:
        rows, cols = np.nonzero(np.triu(c.matrix))
        constraints.append({
            "y": c.value,
            "kind": c.kind.value,
            "entries": [
                {"row": int(r), "col": int(col), "value": float(c.matrix[r, col])}
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
    n = int(data["num_vars"])
    order = int(data["order"])
    basis = enumerate_basis(n, order // 2)
    stored = [MultiIndex(tuple(int(e) for e in a)) for a in data["basis"]]
    if stored != list(basis.entries):
        raise ValueError("stored basis does not match the frozen basis order")
    dim = len(basis)
    constraints = []
    for item in data["constraints"]:
        m = np.zeros((dim, dim))
        for cell in item["entries"]:
            r, c, v = int(cell["row"]), int(cell["col"]), float(cell["value"])
            m[r, c] = v
            m[c, r] = v
        constraints.append(
            LiftedConstraint(float(item["y"]), m, ConstraintKind(item["kind"]))
        )
    return LiftedProblem(basis=basis, constraints=tuple(constraints),
                         num_vars=n, order=order)
