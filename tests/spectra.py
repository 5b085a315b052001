"""Test-only symmetric matrices of a chosen spectrum."""

import numpy as np


def with_spectrum(eigenvalues, seed):
    """A symmetric matrix with the given eigenvalues in a random orthonormal
    basis, and that basis (column k pairs with eigenvalue k)."""
    q, _ = np.linalg.qr(np.random.default_rng(seed).normal(size=(len(eigenvalues),) * 2))
    return (q * np.asarray(eigenvalues, dtype=float)) @ q.T, q
