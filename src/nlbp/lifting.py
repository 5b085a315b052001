"""Lifting polynomial equations to linear trace constraints on a matrix.

A polynomial equation ``value = p(x)`` of degree <= q (q even) becomes a
quadratic form ``value = m(x)' C m(x)`` over the vector m(x) of all monomials
of degree <= q/2. Replacing the rank-one outer product m(x) m(x)' by a matrix
variable turns each equation into a linear trace constraint. Because entries
of m(x) are algebraically dependent (entry products reproduce other entries),
a set of structural constraints is generated alongside the data constraints:
one normalization (the constant entry squares to 1) and one dependency per
representable entry product.

The matrix variable is indexed by the basis ``exponent_table(n, q/2)``, which
a problem derives from n and q (``LiftedProblem.basis``). The whole system
is one linear map on that matrix, held as a single read-only
(M, dim (dim + 1) / 2) array plus its (M,) right-hand side
(``LiftedProblem.operator`` and ``.values``). Row i packs the upper triangle
of the symmetric constraint matrix C_i row by row, with the matrix's own
values: the cells the lifted JSON stores. ``packed_index`` maps between that
layout and dense matrices; the solver and the certificate read one
factored operator per problem, ``LiftedProblem.affine``.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from enum import Enum
from typing import NamedTuple

import numpy as np

from .monomials import (
    PolySystem,
    checked_float,
    checked_int,
    exponent_table,
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

    def smat(self, x: np.ndarray) -> np.ndarray:
        """The symmetric matrix whose svec is the packed vector x."""
        return (x / self.weight)[self.cell]


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


@dataclass(frozen=True, eq=False)
class LiftedProblem:
    """A lifted instance: one linear map on the matrix variable.

    ``basis`` is the read-only (dim, num_vars) table
    ``exponent_table(num_vars, order // 2)`` that indexes the matrix, derived
    from the two, so an odd ``order`` is refused here as in
    ``build_lifted_problem``.
    ``operator`` is an (M, dim (dim + 1) / 2) array whose row i packs the
    upper triangle of the symmetric matrix C_i (see ``PackedIndex``), and
    ``values`` the (M,) right-hand sides, so row i is the constraint
    trace(C_i @ X) == values[i]. Both arrays are read-only. Row order is
    frozen and gives each row its kind: the ``num_data`` data rows first,
    then (when any row follows) the single normalization row, then the
    dependencies in generation order. Problems compare and hash by
    identity, as the factored operator each one keeps (``affine``) does.
    """

    num_vars: int
    order: int
    num_data: int
    operator: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        _half_order(self.order)
        operator = np.ascontiguousarray(self.operator, dtype=float).view()
        values = np.ascontiguousarray(self.values, dtype=float).view()
        dim = self.dim
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
    def basis(self) -> np.ndarray:
        return exponent_table(self.num_vars, self.order // 2)

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

    @functools.cached_property
    def affine(self) -> AffineCache:
        """The factored constraint operator, built on first use and kept:
        the solve and the certificate of a problem share one factorization
        of the Gram matrix."""
        return AffineCache.build(self)


# Rows squared at a time for the row norms of ``AffineCache.build``: 32 rows
# of the n = 8 lift are 265 KB, where the whole matrix is 1.3 MB.
_NORM_ROWS = 32

# The relative eigenvalue cutoff of the Gram pseudo-inverse. A positive
# definite G with tr(G) tr(G^-1) <= 1 / cutoff keeps every eigenvalue, since
# tr(G) tr(G^-1) >= lambda_max / lambda_min.
_GRAM_CUTOFF = 1e-12


def _gram_inverse(gram: np.ndarray) -> np.ndarray | None:
    """G^-1 when a Cholesky factorization proves the Gram matrix G positive
    definite and tr(G) tr(G^-1) <= 1 / ``_GRAM_CUTOFF``, so that the
    pseudo-inverse keeps every eigenvalue; None otherwise."""
    try:
        np.linalg.cholesky(gram)
        inverse = np.linalg.inv(gram)
    except np.linalg.LinAlgError:
        return None
    if not np.trace(gram) * np.trace(inverse) * _GRAM_CUTOFF <= 1.0:
        return None
    return inverse


@dataclass
class AffineCache:
    """Precomputed data for projecting onto {X : trace(C_i X) = v_i for all i}.

    The problem's packed rows are weighted once into svec rows (see
    ``PackedIndex``): dim (dim + 1) / 2 columns whose inner products are
    those of the full dim x dim matrices. Those rows are normalized to unit
    Frobenius norm (the feasible set, and hence the projection, is
    unchanged), and the constraint Gram matrix G is inverted once;
    ``gram_pinv`` is that (pseudo-)inverse, formed once so that a projection
    applies it in one matvec. When a Cholesky factorization proves G
    positive definite and tr(G) tr(G^-1) <= 1e12, ``gram_pinv`` is the
    plain inverse: the trace product bounds the condition number, so the
    eigenvalue cutoff below would have kept every eigenvalue. The NLBP lift's
    Gram matrices take this route (condition numbers 9-19 on the seeded
    ensembles). Otherwise G is eigendecomposed with the relative cutoff
    1e-12, so that linearly dependent constraints, such as those of the
    degree-2 QBP lift, are handled by pseudo-inversion.
    ``infeasibility_lb`` is a provable lower bound on
    max_i |trace(C_i X) - v_i| over all X; it is zero (up to roundoff)
    exactly when the constraint system is consistent, and exactly zero on
    the full-rank route, where the rows span every right-hand side.
    """

    dim: int
    row_mat: np.ndarray          # (M, dim*(dim+1)/2), normalized svec rows
    rhs: np.ndarray              # (M,) normalized right-hand sides
    row_mat_raw: np.ndarray      # (M, dim*(dim+1)/2) view of problem.operator
    rhs_raw: np.ndarray          # (M,) view of problem.values
    gram_pinv: np.ndarray = field(repr=False)  # (M, M)
    infeasibility_lb: float = 0.0

    @classmethod
    def build(cls, problem: LiftedProblem) -> "AffineCache":
        rows_raw = problem.operator
        rhs_raw = problem.values
        rows = rows_raw * packed_index(problem.dim).weight
        # np.linalg.norm(rows, axis=1) bit for bit, but squaring a block of
        # rows at a time instead of the whole matrix
        norms = np.empty(len(rows))
        for k in range(0, len(rows), _NORM_ROWS):
            block = rows[k:k + _NORM_ROWS]
            norms[k:k + _NORM_ROWS] = np.sqrt(np.add.reduce(block * block, axis=1))
        scale = np.where(norms > 0, norms, 1.0)
        rows /= scale[:, None]
        rhs = rhs_raw / scale

        gram = rows @ rows.T
        gram_pinv = _gram_inverse(gram)
        if gram_pinv is not None:
            lb = 0.0  # full rank: the rows span R^M, so some X meets every row
        else:
            vals, vecs = np.linalg.eigh(gram)
            active = vals > _GRAM_CUTOFF * max(vals[-1], 0.0)
            basis = vecs[:, active]
            gram_pinv = (basis / vals[active]) @ basis.T
            # Every X has ||rows @ x - rhs|| >= ||rhs - P rhs||, P the
            # projection onto the range of the normalized operator. Raw
            # residuals are the normalized ones times scale, so
            # max_i |raw residual_i| is at least
            # min(scale) * ||rhs - P rhs|| / sqrt(M).
            proj = basis @ (basis.T @ rhs)
            lb = float(scale.min() * np.linalg.norm(rhs - proj)) / np.sqrt(len(rhs))
        return cls(dim=problem.dim, row_mat=rows, rhs=rhs, row_mat_raw=rows_raw,
                   rhs_raw=rhs_raw, gram_pinv=gram_pinv, infeasibility_lb=lb)

    def project(self, x: np.ndarray) -> np.ndarray:
        """Frobenius projection of the packed svec vector x (the solver's
        coordinates, see ``PackedIndex``) onto the affine constraint set."""
        return x - self.row_mat.T @ (self.gram_pinv @ (self.row_mat @ x - self.rhs))

    def violation(self, X: np.ndarray) -> float:
        """max_i |trace(C_i X) - v_i| against the original (unscaled) rows."""
        index = packed_index(self.dim)
        vec = X.ravel()
        pairs = (vec[index.upper] + vec[index.lower]) * index.fold
        return float(np.max(np.abs(self.row_mat_raw @ pairs - self.rhs_raw)))


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
    forms = np.empty((len(system), len(basis) * (len(basis) + 1) // 2))
    _write_forms(system, half, forms)
    return forms


def _write_forms(system: PolySystem, half: int, out: np.ndarray) -> None:
    """The packed forms of ``quadratic_forms`` written into ``out``: one
    gather of the coefficients by cell, then the division by ``pairs`` and
    the multiplication by ``share``, in place and in that order."""
    column, pairs, share = _cell_map(system.num_vars, half)
    # mode="clip" writes straight into out; the default mode buffers a copy
    np.take(system.full_coeffs(2 * half), column, axis=1, out=out, mode="clip")
    out /= pairs
    out *= share


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
    structural = _structural_constraints(system.num_vars, half)
    num_data = len(values)
    operator = np.empty((num_data + len(structural), structural.shape[1]))
    _write_forms(system, half, operator[:num_data])
    operator[num_data:] = structural
    rhs = np.zeros(len(operator))
    rhs[:num_data] = values
    rhs[num_data] = 1.0
    return LiftedProblem(num_vars=system.num_vars, order=order,
                         num_data=num_data, operator=operator, values=rhs)


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
    indices outside [0, dim), an order that ``LiftedProblem`` refuses, a
    stored basis of the wrong length before building any table of the
    order's size, and then one that is not ``exponent_table(num_vars,
    order // 2)``. A cell with row > col sets its mirror; a
    constraint that sets one cell twice, directly or through its mirror,
    must give it the same value both times."""
    n = checked_int(data["num_vars"], 1)
    order = checked_int(data["order"], 2)
    basis = [[checked_int(e, 0) for e in a] for a in data["basis"]]
    # the basis size follows from n and order alone: a file whose basis is
    # the wrong size is refused before any table of that size is built
    dim = math.comb(n + _half_order(order), n)
    if len(basis) != dim:
        raise ValueError(f"basis has {len(basis)} rows, but "
                         f"exponent_table({n}, {order // 2}) has {dim}")
    if not np.array_equal(basis, exponent_table(n, order // 2)):
        raise ValueError(f"basis is not exponent_table({n}, {order // 2}) "
                         f"in the frozen graded order")
    items = data["constraints"]
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
    problem = LiftedProblem(num_vars=n, order=order,
                            num_data=num_data, operator=operator,
                            values=[checked_float(item["y"]) for item in items])
    if tuple(kinds) != problem.kinds:
        raise ValueError("constraint kinds are not in the frozen order: data, "
                         "then one normalization, then dependencies")
    return problem
