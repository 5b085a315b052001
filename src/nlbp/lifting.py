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
behind them are keyed by that shape, not by a basis. The whole system
is one linear map on that matrix, held as a single read-only
(M, dim (dim + 1) / 2) array plus its (M,) right-hand side
(``LiftedProblem.operator`` and ``.values``). Row i packs the upper triangle
of the symmetric constraint matrix C_i row by row, with the matrix's own
values: the cells the lifted JSON stores. ``packed_index`` maps between that
layout and dense matrices; the solver and the certificate read one
factored operator per problem, ``LiftedProblem.affine``. It merges into
one column the off-diagonal cells of each moment class above the basis
degree, which no row of a lift tells apart, and folds into one column the
cells of each class that a dependency row ties to X[0, i], dropping those
rows: rules on the shape alone (``_merge_map``, ``_fold_map``). An operator
made by hand whose rows split a merged class gets one column per cell
instead, and one whose rows after the normalization row are not the lift's
dependency block folds nothing. The solver projects through it
(``AffineCache.project``) and the certificate fits through it
(``AffineCache.fit``); neither reads its layout.
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


# The bytes of packed rows that ``AffineCache.build`` reads at a time for its
# merge test and its row norms: at n = 8 that is 31 rows of the 1.3 MB
# operator, where the whole n = 5 operator fits in one block.
_BLOCK_BYTES = 1 << 18


def _row_blocks(rows: np.ndarray):
    """Consecutive row slices of ``rows`` of about ``_BLOCK_BYTES`` each."""
    step = max(1, _BLOCK_BYTES // (rows.shape[1] * rows.itemsize))
    return (slice(k, k + step) for k in range(0, len(rows), step))


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

    The problem's packed rows are weighted into svec rows R (see
    ``PackedIndex``): dim (dim + 1) / 2 columns whose inner products are
    those of the full dim x dim matrices. They are factored through G
    columns: ``column`` maps each cell to its column and ``coef`` gives the
    cell's weight in it, so that the column coordinates of a packed vector
    x are y = E x = ``bincount(column, x * coef)``, and ``row_mat`` holds
    the rows R_c on those columns. Two rules on the shape (n, order) alone
    set the columns of a lift:

    * merging (``_merge_map``): a lifted data row gives every cell of a
      moment class (``_cell_map``) on one side of the diagonal the same
      entry, and the dependency rows touch only the classes of degree
      <= order / 2. So the off-diagonal cells of each class above that
      degree share a column whose coef is 1: R = R_c E on them, and the
      projection x - E^T R_c^T G^-1 (R_c E x - rhs), G = R R^T, is exactly
      the projection onto the rows R. ``build`` checks that every row has
      one entry on each merged column's cells (an exact == test); an
      operator made by hand that splits one, such as a file's arbitrary
      cells, gets the identity map and R_c = R bit for bit, as does the QBP
      lift, whose classes are single cells.
    * folding (``_fold_map``): the dependency rows X[k, l] = X[0, i], whose
      right-hand sides are 0, say that the cells of each class they touch
      hold one value. When the rows after the normalization row are the
      lift's dependency block bit for bit, ``build`` drops them and gives
      each such class one column along its unit svec direction q (coef is
      q on its cells). The affine set lies in the subspace V those rows
      leave, so projecting onto it projects P_V x, which is x off the
      folded cells and (q . x) q on each folded class: with
      c = R_c^T G^-1 (R_c y - rhs), the projection is x - c[column] off the
      folded cells and (y - c)[column] * coef on them. It is the projection
      onto all the rows, and ``fit`` is their least-squares fit, whose
      multipliers on the dropped rows the right-hand sides 0 do not weigh
      in the dual value. At n = 8 ``row_mat`` is 121 x 523 instead of
      157 x 1035 (559 columns merged), at n = 5 51 x 136. ``folded`` lists
      the folded cells, none on an operator that does not match.

    Outside this class the layout is read only through ``project`` and
    ``fit``. The rows are normalized to unit Frobenius norm, that of the
    full svec row (the feasible set, and hence the projection, is
    unchanged), and the Gram matrix G is inverted once; ``gram_pinv`` is
    that (pseudo-)inverse, formed once so that a projection applies it in
    one matvec. When Cholesky factorizations prove G positive definite and
    tr(G) tr(G^-1) <= 1e12, ``gram_pinv`` is the plain inverse: the trace
    product bounds the condition number, so the eigenvalue cutoff below
    would have kept every eigenvalue. A folded Gram matrix is inverted by
    one Schur split (``_gram_inverse``); one that this does not prove
    full rank sends the build back to the unfolded rows. The NLBP lift's
    Gram matrices take the full-rank route (condition numbers 9-19 on the
    seeded ensembles). Otherwise G is eigendecomposed with the relative
    cutoff 1e-12, so that linearly dependent constraints, such as those of
    the degree-2 QBP lift, are handled by pseudo-inversion.
    ``infeasibility_lb`` is a provable lower bound on
    max_i |trace(C_i X) - v_i| over all X; it is zero (up to roundoff)
    exactly when the constraint system is consistent, and exactly zero on
    the full-rank route, where the rows span every right-hand side.
    """

    dim: int
    row_mat: np.ndarray          # (M', G) normalized rows R_c, M' <= M
    rhs: np.ndarray              # (M',) normalized right-hand sides
    row_mat_raw: np.ndarray      # (M, dim*(dim+1)/2) view of problem.operator
    rhs_raw: np.ndarray          # (M,) view of problem.values
    gram_pinv: np.ndarray = field(repr=False)  # (M', M')
    column: np.ndarray = field(repr=False)     # (dim*(dim+1)/2,) cell -> column
    coef: np.ndarray = field(repr=False)       # (dim*(dim+1)/2,) cell -> weight
    folded: tuple = field(repr=False)          # cells, their columns, coefs
    infeasibility_lb: float = 0.0

    @classmethod
    def build(cls, problem: LiftedProblem) -> "AffineCache":
        rows_raw = problem.operator
        rhs_raw = problem.values
        column, first, gain, unroot, merged, lead = _merge_map(
            problem.num_vars, problem.order // 2)
        fold = _fold_map(problem.num_vars, problem.order // 2)
        keep = problem.num_data + 1
        if (fold is not None and not rhs_raw[keep:].any()
                and np.array_equal(rows_raw[keep:], fold.dependencies)):
            checked = rows_raw[:keep]  # dependency rows are 0 on merged cells
        else:
            fold, checked = None, rows_raw
        # every row of a lift agrees on the merged cells (a lift of degree 2
        # has none); an operator made by hand may split them, and then every
        # cell keeps its own column
        for block in _row_blocks(checked) if len(merged) else ():
            part = checked[block]
            if not (part[:, merged] == part[:, lead]).all():
                column = first = np.arange(len(column))
                gain, unroot = packed_index(problem.dim).weight, 1.0
                break
        else:
            folded = None if fold is None else cls._folded(problem, fold)
            if folded is not None:
                return folded
        # R_c D^(1/2), whose norms and Gram matrix are those of R; under the
        # identity map gain is the svec weight, and these are R's bits
        rows, scale = _unit_rows(rows_raw, first, gain)
        rhs = rhs_raw / scale
        gram = rows @ rows.T
        rows *= unroot  # R_c, the common entry of each column's cells
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
                   rhs_raw=rhs_raw, gram_pinv=gram_pinv, column=column,
                   coef=np.ones(len(column)), folded=_NOTHING_FOLDED,
                   infeasibility_lb=lb)

    @classmethod
    def _folded(cls, problem: LiftedProblem, fold: _Fold) -> "AffineCache | None":
        """The folded cache (see above) of a problem whose rows after the
        normalization row are ``fold.dependencies``, with right-hand sides 0;
        None when the Schur split does not prove its Gram matrix full rank."""
        keep = problem.num_data + 1
        rows, scale = _unit_rows(problem.operator[:keep], fold.first, fold.gain)
        unfolded = len(fold.unroot) - fold.basis.shape[1]
        rows = np.concatenate((rows[:, :unfolded], rows[:, unfolded:] @ fold.basis),
                              axis=1)
        gram_pinv = _gram_inverse(rows @ rows.T, split=True)
        if gram_pinv is None:
            return None
        rows *= fold.unroot
        return cls(dim=problem.dim, row_mat=rows, rhs=problem.values[:keep] / scale,
                   row_mat_raw=problem.operator, rhs_raw=problem.values,
                   gram_pinv=gram_pinv, column=fold.column, coef=fold.coef,
                   folded=fold.folded)

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
        return float(np.max(np.abs(self.row_mat_raw @ pairs - self.rhs_raw), initial=0.0))


# the ``folded`` triple of an operator that folds nothing
_NOTHING_FOLDED = (np.empty(0, dtype=np.intp), np.empty(0, dtype=np.intp), np.empty(0))


def _unit_rows(rows_raw: np.ndarray, cells: np.ndarray,
               gain: np.ndarray | float) -> tuple[np.ndarray, np.ndarray]:
    """The packed ``rows_raw`` read at ``cells`` times ``gain``, in C order,
    each divided by its norm, and the norms (1 for a zero row)."""
    rows = np.take(rows_raw, cells, axis=1)
    rows *= gain
    # np.linalg.norm(rows, axis=1) bit for bit, but squaring a block of rows
    # at a time instead of the whole matrix
    norms = np.empty(len(rows))
    for block in _row_blocks(rows):
        part = rows[block]
        norms[block] = np.sqrt(np.add.reduce(part * part, axis=1))
    scale = np.where(norms > 0, norms, 1.0)
    rows /= scale[:, None]
    return rows, scale


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


@functools.lru_cache(maxsize=None)
def _merge_map(n: int, half_degree: int) -> tuple[np.ndarray, ...]:
    """The merged columns of a lift on the basis of (n, half_degree): the
    off-diagonal cells of each moment class (``_cell_map``) above the basis
    degree share one column, and every other cell keeps its own (see
    ``AffineCache``). Columns are numbered in the order of their first
    cells, found by ``np.minimum.at`` rather than ``np.unique``, whose sort
    kernels a solve never otherwise runs: loading their code adds about
    0.25 MB to a process's peak RSS.

    Returns, per cell, ``column``; per column, ``first``, its first cell,
    ``gain``, that cell's svec weight times the square root of the column's
    cell count, and ``unroot``, one over that square root; and the pairs of
    cells (``merged[k]``, ``lead[k]``), each merged cell after the first of
    its column and that first cell, on which every row of a lift agrees.
    No cell of a class below the basis degree is merged: those that a
    dependency row ties are folded on top of this map (``_fold_map``).
    """
    dim = len(exponent_table(n, half_degree))
    classes, _, share = _cell_map(n, half_degree)
    cells = np.arange(len(classes))
    shared = np.flatnonzero((share < 1.0) & (classes >= dim))
    lead_of = np.full(classes.max() + 1, len(cells))
    np.minimum.at(lead_of, classes[shared], shared)
    lead = cells.copy()
    lead[shared] = lead_of[classes[shared]]
    first = np.flatnonzero(lead == cells)
    number = np.empty_like(cells)
    number[first] = np.arange(len(first))
    column = number[lead]
    root = np.sqrt(np.bincount(column))
    merged = np.flatnonzero(lead != cells)
    out = (column, first, packed_index(dim).weight[first] * root, 1.0 / root,
           merged, lead[merged])
    for a in out:
        a.setflags(write=False)
    return out


class _Fold(NamedTuple):
    """The folded layout of a lift (see ``AffineCache``): per cell, its
    ``column`` and its weight ``coef`` in it; ``folded``, the folded cells,
    their columns and their coefs; and ``dependencies``, the rows the fold
    stands for. ``build`` reads the kept rows at ``first`` times ``gain``,
    the merged layout's columns (``_merge_map``) with the folded cells
    last, replaces the folded cells' block by its product with ``basis``,
    their coefs set in their columns, and scales each column by
    ``unroot``."""

    dependencies: np.ndarray
    column: np.ndarray
    coef: np.ndarray
    folded: tuple[np.ndarray, np.ndarray, np.ndarray]
    first: np.ndarray
    gain: np.ndarray
    basis: np.ndarray
    unroot: np.ndarray


@functools.lru_cache(maxsize=None)
def _fold_map(n: int, half_degree: int) -> _Fold | None:
    """The merged columns of ``_merge_map`` with each moment class that a
    dependency row ties to its cell (0, i) folded into one column: the
    columns left as they are keep their order, and the folded ones follow
    in the order of their classes. None when the lift has no dependency row
    (degree 2)."""
    block = generate_dependency_constraints(n, 2 * half_degree)
    if len(block) == 1:
        return None
    dim = len(exponent_table(n, half_degree))
    classes = _cell_map(n, half_degree)[0]
    column, first, gain, unroot = _merge_map(n, half_degree)[:4]
    # a dependency row ties the product cell (l, k), l >= 1, of a class
    # below dim to that class's cell (0, i); no such cell is merged, so each
    # has a merged column of its own, of gain its svec weight and unroot 1
    tied = np.zeros(classes.max() + 1, dtype=bool)
    tied[classes[(np.triu_indices(dim)[0] >= 1) & (classes < dim)]] = True
    is_folded = tied[classes[first]]
    kept = np.flatnonzero(~is_folded)
    cells = first[is_folded]
    target = (np.cumsum(tied) - 1)[classes[cells]]  # its folded column
    norms = np.sqrt(np.bincount(target, gain[is_folded] ** 2))
    weights = gain[is_folded] / norms[target]
    basis = np.zeros((len(cells), len(norms)))
    basis[np.arange(len(cells)), target] = weights
    renumber = np.empty(len(first), dtype=np.intp)
    renumber[kept] = np.arange(len(kept))
    renumber[is_folded] = len(kept) + target
    fold_column = renumber[column]
    coef = np.ones(len(column))
    coef[cells] = weights
    out = _Fold(block[1:], fold_column, coef, (cells, fold_column[cells], weights),
                np.concatenate((first[kept], cells)),
                np.concatenate((gain[kept], gain[is_folded])), basis,
                np.concatenate((unroot[kept], np.ones(len(norms)))))
    for a in (*out[:3], *out.folded, *out[4:]):
        a.setflags(write=False)
    return out


def quadratic_forms(system: PolySystem, order: int) -> np.ndarray:
    """(N, dim (dim + 1) / 2) packed rows of the symmetric matrices C_k with
    m(x)' C_k m(x) equal to polynomial k of the system, identically, m(x)
    the monomials of degree <= order / 2 (``exponent_table``).

    Each coefficient is split equally over all unordered basis pairs whose
    exponents sum to its monomial; a diagonal pair receives its full share
    and an off-diagonal pair half the share on each mirrored cell. Any split
    satisfying the identity would do; the equal split is the canonical one.
    """
    return _write_forms(system, order)


def _write_forms(system: PolySystem, order: int,
                 out: np.ndarray | None = None) -> np.ndarray:
    """The packed forms of ``quadratic_forms``, written into ``out`` (a new
    array when None) and returned: one gather of the coefficients by cell,
    then the division by ``pairs`` and the multiplication by ``share``, in
    place and in that order. Refuses an odd order and a system of higher
    degree, for every caller."""
    half = _half_order(order)
    if system.degree > order:
        raise DegreeTooHighError(
            f"polynomial degree {system.degree} exceeds lift order {order}"
        )
    column, pairs, share = _cell_map(system.num_vars, half)
    if out is None:
        out = np.empty((len(system), len(column)))
    # mode="clip" writes straight into out; the default mode buffers a copy
    np.take(system.full_coeffs(order), column, axis=1, out=out, mode="clip")
    out /= pairs
    out *= share
    return out


def polynomial_to_quadratic_form(p: PolySystem, order: int) -> np.ndarray:
    """Packed row of the symmetric matrix C with m(x)' C m(x) == p(x)
    identically, for a one-row system p. Not called by the package: it stays
    bound for perfbench's tracer until that wraps ``quadratic_forms``."""
    return quadratic_forms(p, order)[0]


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
    column = _cell_map(num_vars, half)[0]
    dim = len(exponent_table(num_vars, half))
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
    structural = generate_dependency_constraints(system.num_vars, order)
    num_data = len(values)
    operator = np.empty((num_data + len(structural), structural.shape[1]))
    _write_forms(system, order, operator[:num_data])
    operator[num_data:] = structural
    rhs = np.zeros(len(operator))
    rhs[:num_data] = values
    rhs[num_data] = 1.0
    return LiftedProblem(num_vars=system.num_vars, order=order,
                         num_data=num_data, operator=operator, values=rhs)
