"""Graded exponent tables, and polynomial systems held as one coefficient
matrix over such a table.

A monomial is a row of an exponent table. ``exponent_table(n, degree)``
lists every monomial of degree <= degree over n variables; it is also the
monomial basis of a lift. A ``PolySystem`` holds N polynomials as an (N, T)
coefficient matrix whose column t multiplies the monomial in row t of its
table, and a single polynomial is a one-row system. Its table may list only
the monomials that occur, as a system read from a problem file does. Tables
and systems are read-only after construction.

The row order is frozen globally: ascending total degree, and within a
degree the monomial with higher exponents on earlier variables comes first
(so for two variables: 1, x1, x2, x1^2, x1*x2, x2^2). Any total order with
the constant monomial first would work, but quadratic-form matrices, problem
files, and test vectors are only reproducible if one order is fixed.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np


def _exponents_summing_to(total: int, length: int):
    """Yield all exponent tuples of the given length summing exactly to
    total, higher exponents on earlier variables first."""
    if length == 1:
        yield (total,)
        return
    for head in range(total, -1, -1):
        for tail in _exponents_summing_to(total - head, length - 1):
            yield (head,) + tail


@functools.lru_cache(maxsize=None)
def exponent_table(n: int, degree: int) -> np.ndarray:
    """Read-only (T, n) integer array: row t is the exponent vector of the
    t-th monomial of degree <= degree in the frozen graded order, and T is
    C(n + degree, degree). Built once per key. Because the order is graded,
    the table of a lower degree is a row prefix of this one."""
    if n < 1:
        raise ValueError("n must be >= 1")
    if degree < 0:
        raise ValueError("degree must be >= 0")
    table = np.array([e for d in range(degree + 1) for e in _exponents_summing_to(d, n)],
                     dtype=np.int64)
    table.setflags(write=False)
    return table


@functools.lru_cache(maxsize=None)
def _row_lookup(n: int, degree: int) -> dict:
    return {e: t for t, e in enumerate(map(tuple, exponent_table(n, degree).tolist()))}


def table_rows(exponents, degree: int) -> np.ndarray:
    """The row of ``exponent_table(n, degree)`` holding each row of the
    (K, n) array ``exponents``, whose monomials must have degree <= degree."""
    exponents = np.asarray(exponents)
    row_of = _row_lookup(exponents.shape[1], degree)
    return np.array([row_of[e] for e in map(tuple, exponents.tolist())], dtype=np.intp)


def _power_plan(table: np.ndarray):
    """(variables, exponents, index) of a (T, n) table: pairs (variable j,
    exponent e), and the (n, T) index of each entry's pair among them. The
    pairs are every j with every e up to the table's highest exponent when
    there are at most T such e, as in a full table, and otherwise only the
    distinct pairs that occur, so a sparse table with a high power costs
    what it stores."""
    n = table.shape[1]
    keys = table * n + np.arange(n)  # pair (j, e) as e * n + j
    top = int(table.max(initial=0))
    if top < len(table):
        pairs, index = np.arange(n * (top + 1)), keys
    else:
        pairs, index = np.unique(keys, return_inverse=True)
    out = (pairs % n, pairs // n, np.ascontiguousarray(index.reshape(table.shape).T))
    for a in out:
        a.setflags(write=False)
    return out


def _monomials(x, variables, exponents, index) -> np.ndarray:
    """The monomials of a ``_power_plan`` at the point x. Each coordinate is
    raised once to each of its exponents, and each monomial multiplies its n
    gathered powers from the first variable on, the order in which
    ``np.prod(x ** table, axis=1)`` multiplies the same pow() results; the
    two agree bit for bit."""
    x = np.asarray(x, dtype=float)
    if x.shape != index.shape[:1]:
        raise ValueError(f"point has {x.shape} entries, expected {len(index)}")
    return np.multiply.reduce((x[variables] ** exponents)[index], axis=0)


def monomial_vector(x, table: np.ndarray) -> np.ndarray:
    """The monomial of every row of an exponent table evaluated at x."""
    return _monomials(x, *_power_plan(table))


def _graded_table(exponents, n: int, degree: int) -> np.ndarray:
    """``exponents`` as a read-only (T, n) table, checked to hold distinct
    monomials of degree <= degree in strictly increasing graded order."""
    table = np.array(exponents, dtype=np.int64)
    if table.size == 0:
        table = table.reshape(0, n)
    if table.ndim != 2 or table.shape[1] != n:
        raise ValueError(f"exponent table must have shape (T, {n}), got {table.shape}")
    degrees = table.sum(axis=1)
    step = table[1:] - table[:-1]
    lead = step[np.arange(len(step)), np.argmax(step != 0, axis=1)]
    rising = np.diff(degrees)
    if ((table < 0).any() or (degrees > degree).any()
            or not ((rising > 0) | ((rising == 0) & (lead < 0))).all()):
        raise ValueError(f"exponent table is not a graded table of degree <= {degree}")
    table.setflags(write=False)
    return table


def _derivative_map_of(table: np.ndarray):
    """The scatter that builds the (T, n) derivative matrix D of the
    monomials, D[t, j] = table[t, j] * m(t - e_j): the flat position t * n + j
    of every nonzero exponent, that exponent as a float, the row of the
    lowered monomial t - e_j in the table of the distinct lowered monomials,
    and the ``_power_plan`` of that table. The arrays are read-only."""
    n = table.shape[1]
    rows, cols = np.nonzero(table)
    lowered = table[rows] - (cols[:, None] == np.arange(n))
    distinct, lowered_rows = np.unique(lowered, axis=0, return_inverse=True)
    out = (rows * n + cols, table[rows, cols].astype(float), lowered_rows.reshape(-1))
    for a in out:
        a.setflags(write=False)
    return out + (_power_plan(distinct),)


@functools.lru_cache(maxsize=None)
def _derivative_map(n: int, degree: int):
    """``_derivative_map_of`` the full table, built once per key."""
    return _derivative_map_of(exponent_table(n, degree))


@dataclass(frozen=True, eq=False)
class PolySystem:
    """N polynomials over num_vars variables as one (N, T) coefficient matrix.

    Column t of ``coeffs`` multiplies the monomial in row t of the (T,
    num_vars) table ``exponents``, which lists distinct monomials of degree
    <= degree in the frozen graded order. By default it is the shared
    ``exponent_table(num_vars, degree)`` of every such monomial, which is
    what a sampled system uses; a system read from a problem file keeps
    only the monomials that occur, so a sparse high-degree system costs what
    it stores rather than C(num_vars + degree, degree) columns. A table that
    lists every monomial is replaced by the shared one. Both arrays are
    read-only, the coefficients a copy. Two systems are equal when their
    tables and coefficients are.

    ``evaluate``, ``residual`` and ``jacobian`` are BLAS products of the
    coefficients with the monomial vector m(x) and with the (T, num_vars)
    derivative matrix D(x) of the monomials. BLAS chooses the order in which
    a row's terms are added, so the last bits differ from a sum in table
    order, within the bound gamma_T sum_t |c_t m_t| that every order shares.
    """

    num_vars: int
    degree: int
    coeffs: np.ndarray
    exponents: np.ndarray | None = None

    def __post_init__(self):
        if self.degree < 0:
            raise ValueError("degree must be >= 0")
        full = self.exponents is None
        if full:
            table = exponent_table(self.num_vars, self.degree)
        else:
            table = _graded_table(self.exponents, self.num_vars, self.degree)
            if len(table) == math.comb(self.num_vars + self.degree, self.degree):
                table, full = exponent_table(self.num_vars, self.degree), True
        coeffs = np.array(self.coeffs, dtype=float)
        if coeffs.ndim != 2 or coeffs.shape[1] != len(table):
            raise ValueError(
                f"coefficients must have shape (N, {len(table)}), got {coeffs.shape}")
        coeffs.setflags(write=False)
        object.__setattr__(self, "coeffs", coeffs)
        object.__setattr__(self, "exponents", table)
        object.__setattr__(self, "_full", full)

    def __len__(self) -> int:
        return self.coeffs.shape[0]

    def __eq__(self, other):
        if not isinstance(other, PolySystem):
            return NotImplemented
        return (self.num_vars == other.num_vars and self.degree == other.degree
                and np.array_equal(self.exponents, other.exponents)
                and np.array_equal(self.coeffs, other.coeffs))

    __hash__ = None

    def evaluate(self, x) -> np.ndarray:
        """The value of every polynomial at x, ``coeffs @ m(x)``."""
        return self.coeffs @ _monomials(x, *self._powers)

    def residual(self, x, values) -> np.ndarray:
        """p_i(x) - values_i."""
        return self.evaluate(x) - values

    @functools.cached_property
    def _powers(self):
        return _power_plan(self.exponents)

    @functools.cached_property
    def _derivatives(self):
        if self._full:
            return _derivative_map(self.num_vars, self.degree)
        return _derivative_map_of(self.exponents)

    def jacobian(self, x) -> np.ndarray:
        """(N, num_vars) partial derivatives at x, ``coeffs @ D(x)``, where
        D[t, j] = e_tj m(t - e_j) is scattered over the exponents e_tj > 0."""
        positions, exps, lowered, plan = self._derivatives
        m = _monomials(x, *plan)
        D = np.zeros(self.exponents.size)
        D[positions] = exps * m[lowered]
        return self.coeffs @ D.reshape(self.exponents.shape)

    def truncate(self, degree: int) -> "PolySystem":
        """Every term of degree > degree dropped: a column prefix, because
        the table is graded."""
        if degree >= self.degree:
            return self
        keep = int(np.searchsorted(self.exponents.sum(axis=1), degree, side="right"))
        return PolySystem(self.num_vars, degree, self.coeffs[:, :keep],
                          self.exponents[:keep])

    def linear_parts(self) -> tuple[np.ndarray, np.ndarray]:
        """(A, const): A[i, j] is the coefficient of x_j in equation i and
        const[i] its constant term; both may be read-only views."""
        c = self.truncate(1).full_coeffs(1)
        return c[:, 1:], c[:, 0]

    def restrict(self, support) -> "PolySystem":
        """The system over the variables ``support`` (strictly increasing)
        with every other variable pinned at zero: the table rows free of the
        others, which stay in graded order."""
        cols = list(support)
        if not cols or any(a >= b for a, b in zip(cols, cols[1:])):
            raise ValueError(f"support must be non-empty and increasing, got {cols}")
        for j in cols:
            if not 0 <= j < self.num_vars:
                raise ValueError(f"support entry {j} is outside [0, {self.num_vars})")
        others = np.setdiff1d(np.arange(self.num_vars), cols)
        keep = ~self.exponents[:, others].any(axis=1)
        return PolySystem(len(cols), self.degree, self.coeffs[:, keep],
                          self.exponents[keep][:, cols])

    def full_coeffs(self, degree: int) -> np.ndarray:
        """(N, C(num_vars + degree, degree)) coefficients over the full
        ``exponent_table(num_vars, degree)``, for degree >= self.degree: the
        read-only ``coeffs`` themselves when the system spans that table."""
        if degree < self.degree:
            raise ValueError(f"degree {degree} is below the system's {self.degree}")
        if self._full and degree == self.degree:
            return self.coeffs
        out = np.zeros((len(self), len(exponent_table(self.num_vars, degree))))
        if self._full:
            out[:, :self.coeffs.shape[1]] = self.coeffs
        else:
            out[:, table_rows(self.exponents, degree)] = self.coeffs
        return out


# One-polynomial helpers on a one-row PolySystem. The package no longer calls
# eval_polynomial and truncate_polynomial; they stay because perfbench's
# tracer wraps them by name, and go when it is retargeted at the PolySystem
# methods.
def random_polynomial(n: int, max_degree: int, rng_seed, std_dev: float = 1.0) -> PolySystem:
    """One-row system with one i.i.d. Gaussian(0, std_dev^2) coefficient per
    monomial of degree <= max_degree, drawn in table order.

    ``rng_seed`` may be an int, a SeedSequence, or an existing Generator (in
    which case its stream is consumed), so callers can either pin a seed or
    thread a shared stream through several draws.
    """
    if std_dev <= 0:
        raise ValueError("std_dev must be > 0")
    rng = np.random.default_rng(rng_seed)
    num_terms = len(exponent_table(n, max_degree))
    return PolySystem(n, max_degree, rng.normal(0.0, std_dev, size=(1, num_terms)))


def eval_polynomial(p: PolySystem, x) -> float:
    """The value at x of a one-row system."""
    return float(p.evaluate(x)[0])


def truncate_polynomial(p: PolySystem, max_degree: int) -> PolySystem:
    """Every term of degree > max_degree dropped (Taylor truncation at 0)."""
    return p.truncate(max_degree)
