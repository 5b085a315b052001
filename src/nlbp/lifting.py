"""Lifting polynomial equations to linear trace constraints on a matrix.

A polynomial equation ``value = p(x)`` of degree <= q (q even) becomes a
quadratic form ``value = m(x)' C m(x)`` over the vector m(x) of all monomials
of degree <= q/2. Replacing the rank-one outer product m(x) m(x)' by a matrix
variable turns each equation into a linear trace constraint. Because entries
of m(x) are algebraically dependent (entry products reproduce other entries),
a set of structural constraints is generated alongside the data constraints:
one normalization (the constant entry squares to 1) and one dependency per
representable entry product.

The matrix variable is indexed by the basis ``exponent_table(n, q/2)``, so
the whole layout of a lift is a function of its shape (n, q): a problem
derives its basis from the two (``LiftedProblem.basis``), and
``quadratic_forms``, ``generate_dependency_constraints`` and the cell maps
behind them are keyed by that shape, not by a basis. A lift holds the
coefficients of its polynomials over ``exponent_table(n, q)`` and its
right-hand sides (``LiftedProblem.coefficients`` and ``.values``). The
whole system is one linear map on the matrix: a read-only
(M, dim (dim + 1) / 2) array whose row i packs the upper triangle of the
symmetric constraint matrix C_i row by row, with the matrix's own values,
the cells the lifted JSON stores (``LiftedProblem.operator``). A lift
derives it from its coefficients on first read; a file or an operator made
by hand is given it. ``packed_index`` maps between that layout and dense
matrices. The solver and the certificate read one factored operator per
problem, ``LiftedProblem.affine``. A lift's is built from the coefficients
alone, on the layout of its shape (``_fold_map``). From order 4 on, that
layout merges into one column the off-diagonal cells of each moment class
above the basis degree, which no row of a lift tells apart, and folds into
one column the cells of each class that a dependency row ties to X[0, i],
dropping those rows; at order 2 it is one column per cell. A file of order
4 or more whose rows are a lift's is read as one (``_read_as_lift``). Every
other operator given as rows, and a lift whose folded Gram matrix is not
proven full rank, gets one column per cell from its packed rows. The solver
projects through it (``AffineCache.project``) and the certificate fits
through it (``AffineCache.fit``); neither reads its layout.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field
from enum import Enum
from typing import NamedTuple

import numpy as np

from .monomials import (
    PolySystem,
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


class LiftedProblem:
    """A lifted instance: one linear map on the matrix variable.

    ``basis`` is the read-only (dim, num_vars) table
    ``exponent_table(num_vars, order // 2)`` that indexes the matrix, derived
    from the two, so an odd ``order`` is refused here as in
    ``build_lifted_problem``.
    ``operator`` is an (M, dim (dim + 1) / 2) array whose row i packs the
    upper triangle of the symmetric matrix C_i (see ``PackedIndex``), and
    ``values`` the (M,) right-hand sides, so row i is the constraint
    trace(C_i @ X) == values[i]. Row order is frozen and gives each row its
    kind: the ``num_data`` data rows first, then (when any row follows) the
    single normalization row, then the dependencies in generation order.

    A problem is given either its rows, ``operator`` (a file, an operator
    made by hand), or, as ``build_lifted_problem`` gives it, the
    (num_data, T) ``coefficients`` of its polynomials over
    ``exponent_table(num_vars, order)``; ``coefficients`` is None for rows
    given. A lift's rows are those coefficients' forms
    (``quadratic_forms``) and the structural block
    (``generate_dependency_constraints``): ``operator`` derives them on
    first read and keeps them. The factored operator (``affine``) reads
    the coefficients, so a solve never forms ``operator``. Every array is
    read-only. Problems compare and hash by identity, as the factored
    operator each one keeps does.
    """

    def __init__(self, *, num_vars: int, order: int, num_data: int, values,
                 operator=None, coefficients=None):
        _half_order(order)
        self.num_vars, self.order, self.num_data = num_vars, order, num_data
        if (operator is None) == (coefficients is None):
            raise ValueError("give exactly one of operator and coefficients")
        if operator is not None:
            dim = self.dim
            width = dim * (dim + 1) // 2
            operator = np.ascontiguousarray(operator, dtype=float).view()
            if operator.ndim != 2 or operator.shape[1] != width:
                raise ValueError(
                    f"operator must have shape (M, {width}), got {operator.shape}")
            rows = len(operator)
            operator.setflags(write=False)
            self.operator = operator  # shadows the derivation below
        else:
            coefficients = np.ascontiguousarray(coefficients, dtype=float).view()
            terms = len(exponent_table(num_vars, order))
            if coefficients.shape != (num_data, terms):
                raise ValueError(f"coefficients must have shape ({num_data}, {terms}), "
                                 f"got {coefficients.shape}")
            rows = num_data + len(generate_dependency_constraints(num_vars, order))
            coefficients.setflags(write=False)
        self.coefficients = coefficients
        values = np.ascontiguousarray(values, dtype=float).view()
        if values.shape != (rows,):
            raise ValueError(f"got {rows} constraint rows but {values.shape} values")
        if not 0 <= num_data <= rows:
            raise ValueError(f"num_data {num_data} outside [0, {rows}]")
        values.setflags(write=False)
        self.values = values

    @functools.cached_property
    def operator(self) -> np.ndarray:
        """The packed rows of a lift, derived from its coefficients on first
        read (a problem given as rows holds its own)."""
        return _read_only(_packed_rows(self.coefficients, self.num_vars, self.order))

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


# The relative eigenvalue cutoff of the Gram pseudo-inverse. A positive
# definite G with tr(G) tr(G^-1) <= 1 / cutoff keeps every eigenvalue, since
# tr(G) tr(G^-1) >= lambda_max / lambda_min.
_GRAM_CUTOFF = 1e-12


def _gram_inverse(gram: np.ndarray, split: bool = False) -> np.ndarray | None:
    """G^-1 when Cholesky factorizations prove the Gram matrix G positive
    definite and tr(G) tr(G^-1) <= 1 / ``_GRAM_CUTOFF``, so that the
    pseudo-inverse keeps every eigenvalue; None otherwise.

    Unsplit, G itself is factored and inverted. Split, G = [[A, B], [B^T,
    C]] at half its order is inverted through A and its Schur complement
    S = C - B^T A^-1 B: G is positive definite exactly when A and S are, so
    those two are factored and inverted, and the blocks are assembled with
    matrix products. At order 121 that takes about half the time of the
    unsplit route, whose bits every operator but a folded one keeps."""
    try:
        if split and len(gram) > 1:
            inverse = _split_inverse(gram)
        else:
            np.linalg.cholesky(gram)
            inverse = np.linalg.inv(gram)
    except np.linalg.LinAlgError:
        return None
    if not np.trace(gram) * np.trace(inverse) * _GRAM_CUTOFF <= 1.0:
        return None
    return inverse


def _split_inverse(gram: np.ndarray) -> np.ndarray:
    """The inverse of ``_gram_inverse``'s split route; raises LinAlgError
    when a Cholesky factorization of A or of S fails."""
    h = len(gram) // 2
    lead, cross, trail = gram[:h, :h], gram[:h, h:], gram[h:, h:]
    np.linalg.cholesky(lead)
    lead_inv = np.linalg.inv(lead)
    solved = lead_inv @ cross  # A^-1 B
    schur = trail - cross.T @ solved
    np.linalg.cholesky(schur)
    schur_inv = np.linalg.inv(schur)
    corner = solved @ schur_inv  # A^-1 B S^-1
    inverse = np.empty_like(gram)
    inverse[:h, :h] = lead_inv + corner @ solved.T
    inverse[:h, h:] = -corner
    inverse[h:, :h] = -corner.T
    inverse[h:, h:] = schur_inv
    return inverse


@dataclass
class AffineCache:
    """Precomputed data for projecting onto {X : trace(C_i X) = v_i for all i}
    (``project``) and for least-squares fitting by the rows C_i (``fit``).

    The problem's packed rows, weighted into svec rows R (see
    ``PackedIndex``), have dim (dim + 1) / 2 columns whose inner products
    are those of the full dim x dim matrices. They are factored through G
    columns: ``column`` maps each cell to its column and ``coef`` gives the
    cell's weight in it, so that the column coordinates of a packed vector
    x are y = E x = ``bincount(column, x * coef)``, and ``row_mat`` holds
    the rows R_c on those columns. There are two layouts.

    * A lift (a problem with ``coefficients``, or given rows of order >= 4
      that ``_read_as_lift`` reads as a lift) takes the layout of its shape
      (n, order) (``_fold_map``), built from the coefficients alone. Its
      data row gives every cell of a moment class (``_cell_map``) its
      class's coefficient over the class's pair count, times the cell's
      share. So the off-diagonal cells of each class above the basis
      degree, which no row tells apart, share one column whose coef is 1
      (merging: R = R_c E on them). And the dependency rows
      X[k, l] = X[0, i], whose right-hand sides are 0, say that the cells
      of each class they touch hold one value: those rows are dropped, and
      each such class gets one column along its unit svec direction q (coef
      is q on its cells; folding). The affine set lies in the subspace V
      the dropped rows leave, so projecting onto it projects P_V x, which
      is x off the folded cells and (q . x) q on each folded class: with
      c = R_c^T G^-1 (R_c y - rhs), the projection is x - c[column] off the
      folded cells and (y - c)[column] * coef on them. It is the projection
      onto all the rows, and ``fit`` is their least-squares fit, whose
      multipliers on the dropped rows the right-hand sides 0 do not weigh
      in the dual value. Each column reads one class, so a data row on
      column j is the class's coefficient times a factor of the shape, and
      the row's full svec norm is sqrt((C * C) @ w), one weight per class:
      ``build`` reads no packed row. At n = 8 ``row_mat`` is 121 x 523
      instead of 157 x 1035, at n = 5 51 x 136. ``folded`` lists the folded
      cells. At degree 2 every class is one cell and nothing folds: the
      rows are R bit for bit, and their norms are taken from them.
    * Every other problem takes one column per cell from its packed rows,
      R_c = R, ``column`` the identity and ``folded`` empty: an operator
      given as rows that is not read as a lift, and a folded lift whose
      Gram matrix the Schur split below does not prove full rank, such as
      the x = 0, x = 1 clash at order 4.

    One routine, ``_factor``, finishes every layout. The rows are
    normalized to unit Frobenius norm, that of the full svec row (the
    feasible set, and hence the projection, is unchanged), and the Gram
    matrix G is inverted once, so that a projection applies ``gram_pinv``
    in one matvec. When Cholesky factorizations prove G positive definite
    and tr(G) tr(G^-1) <= 1e12, ``gram_pinv`` is the plain inverse: the
    trace product bounds the condition number, so the eigenvalue cutoff
    below would have kept every eigenvalue. A folded G is inverted by one
    Schur split, any other whole (``_gram_inverse``); every NLBP lift of
    the seeded ensembles is (condition numbers 9-19). Otherwise a folded
    layout falls back to one column per cell, and there G is
    eigendecomposed with the relative cutoff 1e-12, so that linearly
    dependent constraints, such as those of the degree-2 QBP lift, are
    pseudo-inverted. Outside this class the layout is read only through
    ``project`` and ``fit``. ``infeasibility_lb`` is a provable lower bound
    on max_i |trace(C_i X) - v_i| over all X; it is zero (up to roundoff)
    exactly when the constraint system is consistent, and exactly zero on
    the full-rank route, where the rows span every right-hand side.

    ``violation`` reads a lift's coefficients against the class sums of X
    and the dependency rows' cells, and rows given as they are.
    ``row_mat_raw``, the problem's packed rows, is derived on first read
    for a lift; ``rhs_raw`` is ``problem.values``.
    """

    dim: int
    row_mat: np.ndarray          # (M', G) normalized rows R_c, M' <= M
    rhs: np.ndarray              # (M',) normalized right-hand sides
    rhs_raw: np.ndarray          # (M,) view of problem.values
    gram_pinv: np.ndarray = field(repr=False)  # (M', M')
    column: np.ndarray = field(repr=False)     # (dim*(dim+1)/2,) cell -> column
    coef: np.ndarray = field(repr=False)       # (dim*(dim+1)/2,) cell -> weight
    folded: tuple = field(repr=False)          # cells, their columns, coefs
    infeasibility_lb: float = 0.0
    # (num_vars, order, coefficients) of a lift, else the rows given
    lift: tuple | None = field(default=None, repr=False)
    rows_given: np.ndarray | None = field(default=None, repr=False)

    @classmethod
    def build(cls, problem: LiftedProblem) -> "AffineCache":
        fold = _fold_map(problem.num_vars, problem.order // 2)
        coefficients = problem.coefficients
        if coefficients is None and fold.folds:
            coefficients = _read_as_lift(problem)
        if coefficients is not None:
            num_data = len(coefficients)
            # R_c D^(1/2), whose Gram matrix is R P_V R^T; a folded layout
            # takes R's row norms from the coefficients (see _fold_map)
            rows = np.empty((num_data + 1, len(fold.classes)))
            data = rows[:num_data]
            np.take(coefficients, fold.classes, axis=1, out=data, mode="clip")
            data *= fold.scale
            rows[num_data] = 0.0
            rows[num_data, fold.column[0]] = 1.0  # the normalization row, X[0, 0] = 1
            norms = None  # at degree 2, R_c = R
            if fold.folds:
                norms = np.append(np.sqrt((coefficients * coefficients) @ fold.norm_weight), 1)
            cache = cls._factor(problem, rows, fold, norms)
            if cache is not None:
                return cache
        return cls._per_cell(problem)

    @classmethod
    def _per_cell(cls, problem: LiftedProblem) -> "AffineCache":
        """The cache on one column per cell, R_c = R: the packed rows times
        the svec weight, a lift's written afresh rather than read from
        ``operator``, so that the problem does not keep them."""
        weight = packed_index(problem.dim).weight
        if problem.coefficients is None:
            rows = problem.operator * weight
        else:
            rows = _packed_rows(problem.coefficients, problem.num_vars, problem.order)
            rows *= weight
        cells = np.arange(rows.shape[1])
        return cls._factor(problem, rows, _Fold(cells, np.ones(len(cells)), _NOTHING_FOLDED))

    @classmethod
    def _factor(cls, problem: LiftedProblem, rows: np.ndarray, fold: _Fold,
                norms: np.ndarray | None = None) -> "AffineCache | None":
        """The cache of ``rows``, R_c D^(1/2) on ``fold``'s columns, with R's
        row ``norms`` (None: those of ``rows``). The rows are normalized and
        their Gram matrix inverted (``_gram_inverse``), by the Schur split
        when the layout folds. When that does not prove it full rank, a
        folded layout gives None, and any other is pseudo-inverted through
        ``eigh``, which also bounds the violation (``infeasibility_lb``)."""
        if norms is None:
            norms = np.linalg.norm(rows, axis=1)
        scale = np.where(norms > 0, norms, 1.0)
        rows /= scale[:, None]
        rhs = problem.values[:len(rows)] / scale
        gram = rows @ rows.T
        gram_pinv = _gram_inverse(gram, split=fold.folds)
        lb = 0.0  # full rank: the rows span R^M', so some X meets every row
        if gram_pinv is None:
            if fold.folds:
                return None
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
        rows *= fold.unroot  # R_c, the common entry of each column's cells
        return cls(dim=problem.dim, row_mat=rows, rhs=rhs, gram_pinv=gram_pinv,
                   column=fold.column, coef=fold.coef, folded=fold.folded,
                   infeasibility_lb=lb, **_raw_rows(problem))

    @functools.cached_property
    def row_mat_raw(self) -> np.ndarray:
        """(M, dim*(dim+1)/2) packed rows: the problem's ``operator`` when
        given, else derived anew from the lift's coefficients."""
        if self.lift is None:
            return self.rows_given
        num_vars, order, coefficients = self.lift
        return _read_only(_packed_rows(coefficients, num_vars, order))

    def project(self, x: np.ndarray) -> np.ndarray:
        """Frobenius projection of the packed svec vector x (the solver's
        coordinates, see ``PackedIndex``) onto the affine constraint set:
        x - c[column], c = R_c^T G^-1 (R_c y - rhs) and y = E x a
        ``bincount``, with (y - c)[column] * coef on the folded cells."""
        column = self.column
        cells, columns, weights = self.folded
        y = np.bincount(column, x * self.coef)
        c = self.row_mat.T.dot(self.gram_pinv.dot(self.row_mat.dot(y) - self.rhs))
        out = x - c[column]
        y -= c
        out[cells] = y[columns] * weights
        return out

    def fit(self, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Least-squares fit of the packed svec vector x by the normalized
        rows: the multipliers u = G^-1 R_c y, y = E x, of the rows kept, and
        the fitted vector, the projection of x onto the span of all the
        rows: c[column], c = R_c^T u, and x - (y - c)[column] * coef on the
        folded cells."""
        column = self.column
        cells, columns, weights = self.folded
        y = np.bincount(column, x * self.coef)
        u = self.gram_pinv @ (self.row_mat @ y)
        c = self.row_mat.T @ u
        fitted = c[column]
        y -= c
        fitted[cells] = x[cells] - y[columns] * weights
        return u, fitted

    def violation(self, X: np.ndarray) -> float:
        """max_i |trace(C_i X) - v_i| against the original (unscaled) rows,
        0 when there are none."""
        index = packed_index(self.dim)
        vec = X.ravel()
        pairs = (vec[index.upper] + vec[index.lower]) * index.fold
        if self.lift is None:
            traces = self.rows_given @ pairs
        else:
            traces = _lift_traces(pairs, *self.lift)
        return float(np.max(np.abs(traces - self.rhs_raw), initial=0.0))


# the ``folded`` triple of a layout that folds nothing
_NOTHING_FOLDED = (np.empty(0, dtype=np.intp), np.empty(0, dtype=np.intp), np.empty(0))


def _raw_rows(problem: LiftedProblem) -> dict:
    """The ``AffineCache`` fields that stand for the problem's raw rows."""
    if problem.coefficients is None:
        return {"rhs_raw": problem.values, "rows_given": problem.operator}
    return {"rhs_raw": problem.values,
            "lift": (problem.num_vars, problem.order, problem.coefficients)}


def _lift_traces(pairs: np.ndarray, num_vars: int, order: int,
                 coefficients: np.ndarray) -> np.ndarray:
    """trace(C_i X) for every row of a lift, given the packed cells' pair
    values (X[upper] + X[lower]) * fold: the coefficients against X's sums
    over each moment class (each cell times its share over the class's pair
    count), X[0, 0], and each dependency row's two cells."""
    half = order // 2
    classes, count, share = _cell_map(num_vars, half)
    products, weights, roots = _dependency_cells(num_vars, half)
    sums = np.bincount(classes, pairs * share / count)
    return np.concatenate((coefficients @ sums, pairs[:1],
                           pairs[products] * weights - 0.5 * pairs[roots]))


def _read_as_lift(problem: LiftedProblem) -> np.ndarray | None:
    """The coefficients of the lift that a problem given as rows is, or
    None. It is one when the rows after its data rows are the lift's
    structural block, with right-hand sides 1 and then 0, and each data row
    splits one value per moment class as ``quadratic_forms`` does: the
    packed entry over the cell's share, an exact division by 1 or 1/2, is
    the same on every cell of a class. The coefficients are those values
    times the class's pair count, to roundoff those the rows were written
    from."""
    num_data, values = problem.num_data, problem.values
    structural = generate_dependency_constraints(problem.num_vars, problem.order)
    if (problem.num_constraints != num_data + len(structural)
            or values[num_data] != 1.0 or values[num_data + 1:].any()
            or not np.array_equal(problem.operator[num_data:], structural)):
        return None
    classes, pairs, share = _cell_map(problem.num_vars, problem.order // 2)
    cells = np.arange(len(classes))
    first = np.full(classes.max() + 1, len(cells))  # each class's first cell
    np.minimum.at(first, classes, cells)
    split = problem.operator[:num_data] / share
    if not np.array_equal(split, split[:, first[classes]]):
        return None
    return split[:, first] * pairs[first]


@functools.lru_cache(maxsize=None)
def _cell_map(n: int, half_degree: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Where each packed cell (i, j), i <= j, of a basis-indexed matrix takes
    its value from.

    ``column`` is the row of basis[i] + basis[j] in
    ``exponent_table(n, 2 * half_degree)``, ``pairs`` the number of
    unordered basis pairs with that exponent sum, and ``share`` 1 on the
    diagonal and 1/2 off it. Every cell belongs to exactly one exponent sum,
    and every exponent sum has a cell. The basis is a row prefix of that
    table, so a column below dim is the basis entry the product equals.
    """
    table = exponent_table(n, 2 * half_degree)
    rows, cols = np.triu_indices(len(exponent_table(n, half_degree)))
    column = table_rows(table[rows] + table[cols], 2 * half_degree)
    pairs = np.bincount(column, minlength=len(table))[column].astype(float)
    share = np.where(rows == cols, 1.0, 0.5)
    for a in (column, pairs, share):
        a.setflags(write=False)
    return column, pairs, share


class _Fold(NamedTuple):
    """The layout of a lift's ``AffineCache`` (see there). Per cell: its
    ``column`` and its weight ``coef`` in it; ``folded``: the folded cells,
    their columns and their coefs, and ``folds``, whether there are any.
    Per column: the moment class it reads (``classes``); ``scale``, which
    turns the class's coefficient into the column's entry of a data row of
    R_c D^(1/2), D the cell counts of the columns, before the row is
    normalized; and ``unroot``, D^(-1/2) (1 on a folded column). Per class:
    ``norm_weight``, the weight of its squared coefficient in the squared
    norm of a data row of R. Rows given on one column per cell have a
    layout of the per-cell fields alone."""

    column: np.ndarray
    coef: np.ndarray
    folded: tuple[np.ndarray, np.ndarray, np.ndarray]
    classes: np.ndarray | None = None
    scale: np.ndarray | None = None
    unroot: np.ndarray | float = 1.0
    norm_weight: np.ndarray | None = None

    @property
    def folds(self) -> bool:
        return len(self.folded[0]) > 0


@functools.lru_cache(maxsize=None)
def _fold_map(n: int, half_degree: int) -> _Fold:
    """The folded layout of the lift on the basis of (n, half_degree). At
    degree 2, whose lift has no dependency row and whose classes are single
    cells, it is one column per cell and folds nothing.

    Merging first: the off-diagonal cells of each moment class above the
    basis degree share one column, and every other cell keeps its own, the
    columns numbered in the order of their first cells. These are found by
    ``np.minimum.at`` rather than ``np.unique``, whose sort kernels a solve
    never otherwise runs: loading their code adds about 0.25 MB to a
    process's peak RSS. Then folding: each class that a dependency row ties
    to its cell (0, i), a class of degree 2 to half_degree, none of whose
    cells is merged, becomes one column. The columns left as they are keep
    their order, and the folded ones follow in the order of their classes.

    A data row's packed entry on a cell is the class's coefficient over its
    pair count, times the cell's share, 1 on the diagonal and 1/2 off it;
    its svec entry is that times the cell's svec weight, 1 or sqrt(2). So a
    merged column of m cells reads share * weight * sqrt(m) / pairs times
    the coefficient in R_c D^(1/2), and a folded one the coefficient over
    the norm of the class's svec weights: its entry is the row's inner
    product with q, and share * weight^2 is 1 on every cell. The data row is
    not parallel to q on a class with cells on and off the diagonal, so the
    folded entry is shorter than the row's part on the class: R_c D^(1/2)
    has the Gram matrix R P_V R^T, not R's row norms, and those come from
    ``norm_weight``. Squared svec entries are (share * weight / pairs)^2
    times the squared coefficient, 1 / pairs^2 on the diagonal and
    1 / (2 pairs^2) off it.
    """
    dim = len(exponent_table(n, half_degree))
    classes, pairs, share = _cell_map(n, half_degree)
    weight = packed_index(dim).weight
    cells = np.arange(len(classes))
    num_classes = classes.max() + 1
    shared = np.flatnonzero((share < 1.0) & (classes >= dim))
    lead_of = np.full(num_classes, len(cells))
    np.minimum.at(lead_of, classes[shared], shared)
    lead = cells.copy()
    lead[shared] = lead_of[classes[shared]]
    first = np.flatnonzero(lead == cells)  # each merged column's first cell
    number = np.empty_like(cells)
    number[first] = np.arange(len(first))
    merged = number[lead]
    tied = np.zeros(num_classes, dtype=bool)
    tied[classes[(np.triu_indices(dim)[0] >= 1) & (classes < dim)]] = True
    is_folded = tied[classes[first]]
    kept = first[~is_folded]
    folded_cells = first[is_folded]
    target = (np.cumsum(tied) - 1)[classes[folded_cells]]  # its folded column
    norms = np.sqrt(np.bincount(target, weight[folded_cells] ** 2))
    weights = weight[folded_cells] / norms[target]
    renumber = np.empty(len(first), dtype=np.intp)
    renumber[~is_folded] = np.arange(len(kept))
    renumber[is_folded] = len(kept) + target
    column = renumber[merged]
    coef = np.ones(len(cells))
    coef[folded_cells] = weights
    root = np.sqrt(np.bincount(merged)[~is_folded])
    svec_share = share * weight
    out = _Fold(column, coef, (folded_cells, column[folded_cells], weights),
                np.concatenate((classes[kept], np.flatnonzero(tied))),
                np.concatenate((svec_share[kept] * root / pairs[kept], 1.0 / norms)),
                np.concatenate((1.0 / root, np.ones(len(norms)))),
                np.bincount(classes, svec_share ** 2) / np.bincount(classes) ** 2.0)
    for a in (*out[:2], *out.folded, *out[3:]):
        a.setflags(write=False)
    return out


def _coefficients(system: PolySystem, order: int) -> np.ndarray:
    """The system's coefficients over ``exponent_table(num_vars, order)``.
    Refuses an odd order and a system of higher degree, for every caller."""
    _half_order(order)
    if system.degree > order:
        raise DegreeTooHighError(
            f"polynomial degree {system.degree} exceeds lift order {order}"
        )
    return system.full_coeffs(order)


def quadratic_forms(system: PolySystem, order: int) -> np.ndarray:
    """(N, dim (dim + 1) / 2) packed rows of the symmetric matrices C_k with
    m(x)' C_k m(x) equal to polynomial k of the system, identically, m(x)
    the monomials of degree <= order / 2 (``exponent_table``).

    Each coefficient is split equally over all unordered basis pairs whose
    exponents sum to its monomial; a diagonal pair receives its full share
    and an off-diagonal pair half the share on each mirrored cell. Any split
    satisfying the identity would do; the equal split is the canonical one.
    """
    return _write_forms(_coefficients(system, order), system.num_vars, order)


def _write_forms(coefficients: np.ndarray, num_vars: int, order: int,
                 out: np.ndarray | None = None) -> np.ndarray:
    """The packed forms of ``quadratic_forms``, written into ``out`` (a new
    array when None) and returned: one gather of the coefficients by cell,
    then the division by ``pairs`` and the multiplication by ``share``, in
    place and in that order."""
    column, pairs, share = _cell_map(num_vars, order // 2)
    if out is None:
        out = np.empty((len(coefficients), len(column)))
    # mode="clip" writes straight into out; the default mode buffers a copy
    np.take(coefficients, column, axis=1, out=out, mode="clip")
    out /= pairs
    out *= share
    return out


def _packed_rows(coefficients: np.ndarray, num_vars: int, order: int) -> np.ndarray:
    """The packed rows of the lift of ``coefficients``, a new array: their
    forms, then the structural block."""
    structural = generate_dependency_constraints(num_vars, order)
    num_data = len(coefficients)
    rows = np.empty((num_data + len(structural), structural.shape[1]))
    _write_forms(coefficients, num_vars, order, rows[:num_data])
    rows[num_data:] = structural
    return rows


def _read_only(a: np.ndarray) -> np.ndarray:
    a.setflags(write=False)
    return a


def polynomial_to_quadratic_form(p: PolySystem, order: int) -> np.ndarray:
    """Packed row of the symmetric matrix C with m(x)' C m(x) == p(x)
    identically, for a one-row system p. Not called by the package: it stays
    bound for perfbench's tracer until that wraps ``quadratic_forms``."""
    return quadratic_forms(p, order)[0]


@functools.lru_cache(maxsize=None)
def _dependency_cells(num_vars: int, half_degree: int) -> tuple[np.ndarray, ...]:
    """The cells of the dependency rows of ``generate_dependency_constraints``,
    in its row order: each row's product cell, that cell's weight and the
    cell (0, i) of the entry the product equals."""
    column = _cell_map(num_vars, half_degree)[0]
    dim = len(exponent_table(num_vars, half_degree))
    # packed cells run over (l, k) in row-major order, so a stable sort by
    # the product's entry i gives the (i, l, k) order
    l, k = np.triu_indices(dim)
    products = np.flatnonzero((l >= 1) & (column < dim))
    products = products[np.argsort(column[products], kind="stable")]
    out = (products, np.where(l[products] == k[products], 1.0, 0.5),
           packed_index(dim).cell[0, column[products]])
    for a in out:
        a.setflags(write=False)
    return out


@functools.lru_cache(maxsize=None)
def generate_dependency_constraints(num_vars: int, order: int) -> np.ndarray:
    """(1 + D, dim (dim + 1) / 2) structural block of packed rows: the
    normalization matrix followed by one matrix per representable entry
    product, over the basis ``exponent_table(num_vars, order // 2)``.

    A dependency ties basis[k] * basis[l] (1 <= l <= k) to the entry i
    with basis[i] == basis[k] + basis[l]: the product cell gets weight
    1/2 (or 1 on the diagonal when k == l) and the cell tying entry i to the
    constant gets weight -1/2, so trace(C X) is 0 on any lifted point. The
    constant entry never participates as a factor. Rows are ordered by i,
    then l, then k; the normalization matrix pins the (0, 0) cell, with
    value 1. The block does not depend on the data, so it is built once per
    key and shared, hence read-only.
    """
    half = _half_order(order)
    products, weights, roots = _dependency_cells(num_vars, half)
    dim = len(exponent_table(num_vars, half))
    block = np.zeros((1 + len(products), dim * (dim + 1) // 2))
    block[0, 0] = 1.0  # cell (0, 0)
    rows = np.arange(1, 1 + len(products))
    block[rows, products] = weights
    block[rows, roots] = -0.5
    block.setflags(write=False)
    return block


def build_lifted_problem(system: PolySystem, values, order: int) -> LiftedProblem:
    """Assemble the lifted problem for the system values[i] = p_i(x): the
    system's coefficients and the right-hand sides, the packed rows left to
    ``LiftedProblem.operator``.

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
    coefficients = _coefficients(system, order)
    num_data = len(values)
    rhs = np.zeros(num_data + len(generate_dependency_constraints(system.num_vars, order)))
    rhs[:num_data] = values
    rhs[num_data] = 1.0
    return LiftedProblem(num_vars=system.num_vars, order=order, num_data=num_data,
                         values=rhs, coefficients=coefficients)
