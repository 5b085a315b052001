"""Test-only conversions between packed constraint rows and dense matrices.

A packed row holds the upper triangle of a symmetric dim x dim matrix, row
by row, with the matrix's own values. These helpers are written from that
definition alone, so the tests do not lean on the package's own index.
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


def dense_operator(problem):
    """The lifted problem's constraint matrices C_i as an (M, dim, dim) stack."""
    return unpack(problem.operator, problem.dim)
