"""Test-only conversions between packed constraint rows and dense matrices.

A packed row holds the upper triangle of a symmetric dim x dim matrix, row
by row, with the matrix's own values. Its svec scales the off-diagonal
entries by sqrt(2), so that svec(A) . svec(B) = trace(A B). These helpers
are written from those definitions alone, so the tests do not lean on the
package's own index.
"""

import numpy as np


def unpack(rows, dim):
    """(..., dim (dim + 1) / 2) packed rows -> (..., dim, dim) symmetric
    matrices."""
    rows = np.asarray(rows, dtype=float)
    i, j = np.triu_indices(dim)
    out = np.zeros(rows.shape[:-1] + (dim, dim))
    out[..., i, j] = rows
    out[..., j, i] = rows
    return out


def pack(matrices):
    """(..., dim, dim) symmetric matrices -> their packed upper triangles."""
    matrices = np.asarray(matrices, dtype=float)
    i, j = np.triu_indices(matrices.shape[-1])
    return matrices[..., i, j]


def svec_weight(dim):
    """1 on the diagonal and sqrt(2) off it, in packed order: the svec of a
    symmetric matrix X is pack(X) * svec_weight(dim)."""
    i, j = np.triu_indices(dim)
    return np.where(i == j, 1.0, np.sqrt(2.0))


def dense_operator(problem):
    """The lifted problem's constraint matrices C_i as an (M, dim, dim) stack."""
    return unpack(problem.operator, problem.dim)
