"""Multi-index algebra, graded monomial bases, sparse polynomials, and
polynomial systems held as one coefficient matrix.

Everything downstream (lifting, solving, recovery) is built on four small
types: a multi-index (exponent vector), a sparse polynomial keyed by
multi-indices, an ordered monomial basis of bounded degree, and a polynomial
system whose coefficient matrix has one column per monomial of that basis.
All four are immutable after construction.

The basis ordering is frozen globally: ascending total degree, and within a
degree the monomial with higher exponents on earlier variables comes first
(so for two variables: 1, x1, x2, x1^2, x1*x2, x2^2). Any total order with
the constant monomial first would work, but quadratic-form matrices, problem
files, and test vectors are only reproducible if one order is fixed.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np


@dataclass(frozen=True)
class MultiIndex:
    """Exponent vector of a single monomial: x^alpha = prod_j x_j ** alpha[j]."""

    exponents: tuple[int, ...]
    degree: int = field(init=False, compare=False)

    def __post_init__(self):
        exps = tuple(int(e) for e in self.exponents)
        if any(e < 0 for e in exps):
            raise ValueError(f"exponents must be non-negative, got {exps}")
        object.__setattr__(self, "exponents", exps)
        object.__setattr__(self, "degree", sum(exps))

    def __len__(self) -> int:
        return len(self.exponents)

    def __add__(self, other: "MultiIndex") -> "MultiIndex":
        if len(self.exponents) != len(other.exponents):
            raise ValueError("cannot add multi-indices of different lengths")
        return MultiIndex(tuple(a + b for a, b in zip(self.exponents, other.exponents)))


def _grlex_key(alpha: MultiIndex) -> tuple:
    # Higher exponents on earlier variables sort first within a degree.
    return (alpha.degree, tuple(-e for e in alpha.exponents))


def _exponents_summing_to(total: int, length: int):
    """Yield all exponent tuples of the given length summing exactly to total."""
    if length == 1:
        yield (total,)
        return
    for head in range(total, -1, -1):
        for tail in _exponents_summing_to(total - head, length - 1):
            yield (head,) + tail


@dataclass(frozen=True)
class Polynomial:
    """Sparse real polynomial: a finite map from multi-index to coefficient.

    Canonical form: every key has exactly ``num_vars`` exponents and no stored
    coefficient is exactly zero. The terms dict must not be mutated after
    construction.
    """

    num_vars: int
    terms: dict[MultiIndex, float]

    def __post_init__(self):
        if self.num_vars < 1:
            raise ValueError("num_vars must be >= 1")
        clean: dict[MultiIndex, float] = {}
        for alpha, coeff in self.terms.items():
            if len(alpha) != self.num_vars:
                raise ValueError(
                    f"term {alpha.exponents} has {len(alpha)} exponents, "
                    f"expected {self.num_vars}"
                )
            c = float(coeff)
            if c != 0.0:
                clean[alpha] = c
        object.__setattr__(self, "terms", clean)

    @property
    def degree(self) -> int:
        """Maximum total degree over stored terms; 0 for the zero polynomial."""
        if not self.terms:
            return 0
        return max(alpha.degree for alpha in self.terms)


@dataclass(frozen=True)
class MonomialBasis:
    """All monomials of degree <= half_degree over num_vars variables, in the
    frozen graded order. ``entries[0]`` is always the constant monomial and
    ``index_of`` is the exact inverse of ``entries``."""

    num_vars: int
    half_degree: int
    entries: tuple[MultiIndex, ...]
    index_of: dict[MultiIndex, int]

    def __len__(self) -> int:
        return len(self.entries)

    @property
    def dim(self) -> int:
        return len(self.entries)


def enumerate_alpha_set(n: int, max_degree: int) -> list[MultiIndex]:
    """All multi-indices over n variables with total degree <= max_degree.

    The result has C(n + max_degree, max_degree) elements in graded order.
    """
    return list(enumerate_basis(n, max_degree).entries)


@functools.lru_cache(maxsize=None)
def enumerate_basis(n: int, half_degree: int) -> MonomialBasis:
    """Build the monomial basis of degree <= half_degree over n variables.

    Bases are built once per (n, half_degree) and shared; they are immutable.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    if half_degree < 0:
        raise ValueError("degree must be >= 0")
    entries = []
    for d in range(half_degree + 1):
        entries.extend(MultiIndex(e) for e in _exponents_summing_to(d, n))
    entries.sort(key=_grlex_key)
    assert len(entries) == math.comb(n + half_degree, half_degree)
    index_of = {alpha: i for i, alpha in enumerate(entries)}
    return MonomialBasis(num_vars=n, half_degree=half_degree,
                         entries=tuple(entries), index_of=index_of)


@functools.lru_cache(maxsize=None)
def exponent_table(n: int, degree: int) -> np.ndarray:
    """Read-only (T, n) integer array: row t is the exponent vector of the
    t-th monomial of degree <= degree in the frozen graded order. Built once
    per key. Because the order is graded, the table of a lower degree is a
    row prefix of this one."""
    table = np.array([a.exponents for a in enumerate_basis(n, degree).entries],
                     dtype=np.int64)
    table.setflags(write=False)
    return table


def monomial_vector(x, n: int, degree: int) -> np.ndarray:
    """Every monomial of degree <= degree over n variables evaluated at x,
    in the order of ``exponent_table(n, degree)``."""
    return _table_monomials(x, exponent_table(n, degree))


def _table_monomials(x, table: np.ndarray) -> np.ndarray:
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


def eval_monomial(alpha: MultiIndex, x) -> float:
    """Evaluate x^alpha; the zero multi-index evaluates to 1."""
    x = np.asarray(x, dtype=float)
    if x.shape != (len(alpha),):
        raise ValueError(f"point has {x.shape} entries, expected {len(alpha)}")
    return float(np.prod(x ** np.asarray(alpha.exponents)))


def eval_polynomial(p: Polynomial, x) -> float:
    """Evaluate p at x by summing coefficient * monomial over all terms."""
    x = np.asarray(x, dtype=float)
    if x.shape != (p.num_vars,):
        raise ValueError(f"point has {x.shape} entries, expected {p.num_vars}")
    if not p.terms:
        return 0.0
    exps = np.array([alpha.exponents for alpha in p.terms], dtype=float)
    coeffs = np.fromiter(p.terms.values(), dtype=float, count=len(p.terms))
    return float(coeffs @ np.prod(x ** exps, axis=1))


def random_polynomial(n: int, max_degree: int, rng_seed, std_dev: float = 1.0) -> Polynomial:
    """Polynomial with one i.i.d. Gaussian(0, std_dev^2) coefficient per
    multi-index of degree <= max_degree.

    ``rng_seed`` may be an int, a SeedSequence, or an existing Generator (in
    which case its stream is consumed), so callers can either pin a seed or
    thread a shared stream through several draws.
    """
    if std_dev <= 0:
        raise ValueError("std_dev must be > 0")
    rng = np.random.default_rng(rng_seed)
    alphas = enumerate_basis(n, max_degree).entries
    coeffs = rng.normal(0.0, std_dev, size=len(alphas))
    return Polynomial(num_vars=n, terms=dict(zip(alphas, coeffs)))


def truncate_polynomial(p: Polynomial, max_degree: int) -> Polynomial:
    """Drop every term of degree > max_degree (Taylor truncation around 0)."""
    kept = {a: c for a, c in p.terms.items() if a.degree <= max_degree}
    return Polynomial(num_vars=p.num_vars, terms=kept)


def _row_sums(a: np.ndarray) -> np.ndarray:
    """Sums along the last axis, one term at a time from the left. This is
    the order in which accumulating the terms of each equation into a zeroed
    output adds them; a pairwise or BLAS reduction rounds differently."""
    if a.shape[-1] == 0:
        return np.zeros(a.shape[:-1])
    return a.cumsum(axis=-1)[..., -1]


@dataclass(frozen=True, eq=False)
class PolySystem:
    """N polynomials over num_vars variables as one (N, T) coefficient matrix.

    Column t of ``coeffs`` multiplies the monomial in row t of the (T,
    num_vars) table ``exponents``, which lists distinct monomials of degree
    <= degree in the frozen graded order. By default it is the shared
    ``exponent_table(num_vars, degree)`` of every such monomial, which is
    what a sampled system uses; ``from_polys`` keeps only the monomials that
    occur, so a sparse high-degree system costs what it stores rather than
    C(num_vars + degree, degree) columns. A table that lists every monomial
    is replaced by the shared one. Both arrays are read-only, the
    coefficients a copy. Iterating or indexing yields the rows as
    ``Polynomial``s; two systems are equal when their tables and
    coefficients are.

    Two summation orders exist on purpose. ``evaluate`` takes one dot
    product per row over its nonzero columns, as ``eval_polynomial`` does
    over its terms; ``residual`` and ``jacobian`` add the terms of a row one
    at a time. Right-hand sides and success checks use the first, the
    Gauss-Newton polish the second, and reported results depend on their
    last bits.
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

    @classmethod
    def from_polys(cls, polys) -> "PolySystem":
        """The system of a sequence of ``Polynomial``s, over the monomials
        that occur in them and of their maximum degree; a ``PolySystem`` is
        returned as it is."""
        if isinstance(polys, PolySystem):
            return polys
        polys = list(polys)
        if not polys:
            raise ValueError("need at least one polynomial")
        n = polys[0].num_vars
        if any(p.num_vars != n for p in polys):
            raise ValueError("all polynomials must share the same variable count")
        alphas = sorted({a for p in polys for a in p.terms}, key=_grlex_key)
        column = {a: t for t, a in enumerate(alphas)}
        coeffs = np.zeros((len(polys), len(alphas)))
        for i, p in enumerate(polys):
            for alpha, c in p.terms.items():
                coeffs[i, column[alpha]] = c
        return cls(n, max(p.degree for p in polys), coeffs,
                   [a.exponents for a in alphas])

    def __len__(self) -> int:
        return self.coeffs.shape[0]

    @functools.cached_property
    def _alphas(self) -> tuple[MultiIndex, ...]:
        return tuple(MultiIndex(tuple(e)) for e in self.exponents.tolist())

    def __getitem__(self, i: int) -> Polynomial:
        return Polynomial(self.num_vars, dict(zip(self._alphas, self.coeffs[i].tolist())))

    def __iter__(self):
        return (self[i] for i in range(len(self)))

    def __eq__(self, other):
        if not isinstance(other, PolySystem):
            return NotImplemented
        return (self.num_vars == other.num_vars and self.degree == other.degree
                and np.array_equal(self.exponents, other.exponents)
                and np.array_equal(self.coeffs, other.coeffs))

    __hash__ = None

    @functools.cached_property
    def _row_terms(self) -> list:
        # the nonzero columns of each row, or None when the row has no zero
        return [None if nz.all() else np.flatnonzero(nz) for nz in self.coeffs != 0]

    def evaluate(self, x) -> np.ndarray:
        """The value of every polynomial at x, one dot product per row over
        its nonzero columns."""
        m = _table_monomials(x, self.exponents)
        return np.array([float(row @ m) if cols is None else float(row[cols] @ m[cols])
                         for row, cols in zip(self.coeffs, self._row_terms)])

    def residual(self, x, values) -> np.ndarray:
        """p_i(x) - values_i, each row summed term by term in table order."""
        return _row_sums(self.coeffs * _table_monomials(x, self.exponents)) - values

    @functools.cached_property
    def _derivatives(self):
        # (lowered, extended table, (n, N, K) coefficient * exponent weights)
        if self._full:
            cols, exps, lowered, extended = _derivative_map(self.num_vars, self.degree)
        else:
            cols, exps, lowered, extended = _derivative_map_of(self.exponents)
        weights = np.moveaxis(self.coeffs[:, cols], 1, 0) * exps[:, None, :].astype(float)
        return lowered, extended, weights

    def jacobian(self, x) -> np.ndarray:
        """(N, num_vars) partial derivatives at x, each summed term by term."""
        lowered, extended, weights = self._derivatives
        m = _table_monomials(x, extended)
        return np.ascontiguousarray(_row_sums(weights * m[lowered][:, None, :]).T)

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
        ``exponent_table(num_vars, degree)``, for degree >= self.degree."""
        if degree < self.degree:
            raise ValueError(f"degree {degree} is below the system's {self.degree}")
        out = np.zeros((len(self), len(exponent_table(self.num_vars, degree))))
        if self._full:
            out[:, :self.coeffs.shape[1]] = self.coeffs
        else:
            column = enumerate_basis(self.num_vars, degree).index_of
            out[:, [column[a] for a in self._alphas]] = self.coeffs
        return out


def polynomial_to_json(p: Polynomial) -> dict:
    """JSON-ready dict; terms emitted in the frozen graded order."""
    alphas = sorted(p.terms, key=_grlex_key)
    return {
        "num_vars": p.num_vars,
        "terms": [{"alpha": list(a.exponents), "coeff": p.terms[a]} for a in alphas],
    }


def polynomial_from_json(data: dict) -> Polynomial:
    n = int(data["num_vars"])
    terms: dict[MultiIndex, float] = {}
    for item in data["terms"]:
        alpha = MultiIndex(tuple(int(e) for e in item["alpha"]))
        terms[alpha] = terms.get(alpha, 0.0) + float(item["coeff"])
    return Polynomial(num_vars=n, terms=terms)
