"""Graded exponent tables, and polynomial systems held as one coefficient
matrix over such a table.

A monomial is a row of an exponent table. ``exponent_table(n, degree)``
lists every monomial of degree <= degree over n variables; it is also the
monomial basis of a lift. A ``PolySystem`` holds N polynomials as an (N, T)
coefficient matrix whose column t multiplies the monomial in row t of its
table, and a single polynomial is a one-row system. Problem files are read
straight into a system by ``system_from_json``. Tables and systems are
read-only after construction.

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


def monomial_vector(x, table: np.ndarray) -> np.ndarray:
    """The monomial of every row of an exponent table evaluated at x."""
    x = np.asarray(x, dtype=float)
    if x.shape != (table.shape[1],):
        raise ValueError(f"point has {x.shape} entries, expected {table.shape[1]}")
    return np.prod(x ** table, axis=1)


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
    """Per variable j, as rows of three read-only (n, K) arrays: the columns
    of ``table`` whose monomial contains x_j, the exponent of x_j there, and
    the row of the monomial with that exponent lowered by one in the
    returned extended table, which is ``table`` followed by the lowered
    monomials it lacks (none, for a full table). A variable in fewer than K
    columns is padded with exponent 0, which adds an exact zero."""
    n = table.shape[1]
    extended = [tuple(e) for e in table.tolist()]
    row_of = {e: t for t, e in enumerate(extended)}
    per_var = []
    for j in range(n):
        cols = np.flatnonzero(table[:, j] > 0)
        lowered = []
        for e in table[cols].tolist():
            e[j] -= 1
            e = tuple(e)
            if e not in row_of:
                row_of[e] = len(extended)
                extended.append(e)
            lowered.append(row_of[e])
        per_var.append((cols, table[cols, j], lowered))
    width = max(len(cols) for cols, _, _ in per_var)
    out = tuple(
        np.array([np.pad(np.asarray(v[k], dtype=np.intp), (0, width - len(v[k])))
                  for v in per_var], dtype=np.intp).reshape(n, width)
        for k in range(3))
    out += (np.array(extended, dtype=np.int64).reshape(-1, n),)
    for a in out:
        a.setflags(write=False)
    return out


@functools.lru_cache(maxsize=None)
def _derivative_map(n: int, degree: int):
    """``_derivative_map_of`` the full table, built once per key."""
    return _derivative_map_of(exponent_table(n, degree))


def _term_sums(terms: np.ndarray) -> np.ndarray:
    """Sums over the first axis of a C-ordered (terms, lanes) array, one
    term at a time from the first, as a per-row loop adds them; a pairwise
    or BLAS reduction rounds differently. numpy reduces a slow axis in that
    order, but sums a single lane, a contiguous reduction, pairwise."""
    if terms.shape[1] != 1:
        return np.add.reduce(terms, axis=0)
    if len(terms) == 0:
        return np.zeros(1)
    return np.add.accumulate(terms[:, 0])[-1:]


@dataclass(frozen=True, eq=False)
class PolySystem:
    """N polynomials over num_vars variables as one (N, T) coefficient matrix.

    Column t of ``coeffs`` multiplies the monomial in row t of the (T,
    num_vars) table ``exponents``, which lists distinct monomials of degree
    <= degree in the frozen graded order. By default it is the shared
    ``exponent_table(num_vars, degree)`` of every such monomial, which is
    what a sampled system uses; a system read by ``system_from_json`` keeps
    only the monomials that occur, so a sparse high-degree system costs what
    it stores rather than C(num_vars + degree, degree) columns. A table that
    lists every monomial is replaced by the shared one. Both arrays are
    read-only, the coefficients a copy. Two systems are equal when their
    tables and coefficients are.

    ``evaluate``, ``residual`` and ``jacobian`` add the terms of a row one at
    a time in table order. A zero coefficient adds an exact zero, so a row
    padded with zeros sums to the same bits as its nonzero terms alone.
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
        """The value of every polynomial at x, each row summed term by term
        in table order."""
        m = monomial_vector(x, self.exponents)
        return _term_sums(self._terms_by_lane * m[:, None])

    def residual(self, x, values) -> np.ndarray:
        """p_i(x) - values_i."""
        return self.evaluate(x) - values

    @functools.cached_property
    def _terms_by_lane(self) -> np.ndarray:
        # (T, N) C-ordered transpose of coeffs: term t of every row in one run
        return np.ascontiguousarray(self.coeffs.T)

    @functools.cached_property
    def _derivatives(self):
        # (columns, exponents as floats, lowered rows, extended table)
        if self._full:
            cols, exps, lowered, extended = _derivative_map(self.num_vars, self.degree)
        else:
            cols, exps, lowered, extended = _derivative_map_of(self.exponents)
        return cols, exps.astype(float)[:, :, None], lowered, extended

    def jacobian(self, x) -> np.ndarray:
        """(N, num_vars) partial derivatives at x, each summed term by term:
        column j adds (coefficient * exponent) * lowered monomial over the
        terms holding x_j."""
        cols, exps, lowered, extended = self._derivatives
        m = monomial_vector(x, extended)[:, None]
        out = np.empty((len(self), self.num_vars))
        for j in range(self.num_vars):
            terms = self._terms_by_lane[cols[j]]
            terms *= exps[j]
            terms *= m[lowered[j]]
            out[:, j] = _term_sums(terms)
        return out

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
        const[i] its constant term."""
        degrees = self.exponents.sum(axis=1)
        A = np.zeros((len(self), self.num_vars))
        linear = np.flatnonzero(degrees == 1)
        A[:, self.exponents[linear].argmax(axis=1)] = self.coeffs[:, linear]
        const = np.zeros(len(self))
        if len(degrees) and degrees[0] == 0:
            const[:] = self.coeffs[:, 0]
        return A, const

    def restrict(self, support) -> "PolySystem":
        """The system over the variables ``support`` (strictly increasing)
        with every other variable pinned at zero: the table rows free of the
        others, which stay in graded order."""
        cols = list(support)
        if not cols or any(a >= b for a, b in zip(cols, cols[1:])):
            raise ValueError(f"support must be non-empty and increasing, got {cols}")
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


def _json_number(value):
    # bool is a subclass of int, and float() would also take a numeric string
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ValueError(f"expected a number, got {value!r}")
    return value


def checked_float(value) -> float:
    """A number read from a file; nan and infinities are rejected, as is
    anything but a JSON number."""
    number = float(_json_number(value))
    if not math.isfinite(number):
        raise ValueError(f"expected a finite number, got {value!r}")
    return number


def checked_int(value, low: int, high: int | None = None) -> int:
    """An integer in [low, high) read from a file. Integral floats such as
    2.0 are accepted; a fraction is rejected rather than truncated."""
    number = float(_json_number(value))
    if not number.is_integer() or number < low or (high is not None and number >= high):
        bounds = f"[{low}, {high})" if high is not None else f">= {low}"
        raise ValueError(f"expected an integer {bounds}, got {value!r}")
    return int(number)


def system_from_json(polynomials: list) -> PolySystem:
    """The system of a problem file's polynomials, each
    ``{"num_vars": n, "terms": [{"alpha": [...], "coeff": c}, ...]}``.

    Repeated terms of a polynomial are summed in file order, and terms that
    end up zero are dropped before the degree and the table are taken, so
    the table lists only the monomials that occur. Coefficients must be
    finite, exponents non-negative integers, and every term and polynomial
    must have the same number of variables.
    """
    rows = []
    for poly in polynomials:
        n = checked_int(poly["num_vars"], 1)
        row: dict[tuple, float] = {}
        for item in poly["terms"]:
            alpha = tuple(checked_int(e, 0) for e in item["alpha"])
            if len(alpha) != n:
                raise ValueError(f"term {list(alpha)} has {len(alpha)} exponents, "
                                 f"expected {n}")
            row[alpha] = row.get(alpha, 0.0) + checked_float(item["coeff"])
        rows.append((n, row))
    if not rows:
        raise ValueError("need at least one polynomial")
    n = rows[0][0]
    if any(m != n for m, _ in rows):
        raise ValueError("all polynomials must share the same variable count")
    alphas = sorted({a for _, row in rows for a, c in row.items() if c != 0.0},
                    key=lambda a: (sum(a), tuple(-e for e in a)))
    coeffs = np.array([[row.get(a, 0.0) for a in alphas] for _, row in rows])
    return PolySystem(n, max((sum(a) for a in alphas), default=0),
                      coeffs.reshape(len(rows), len(alphas)),
                      np.array(alphas, dtype=np.int64).reshape(-1, n))
