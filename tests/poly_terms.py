"""Test-only ways to write a PolySystem down term by term and to read its
terms back.

A term is an exponent tuple with its coefficient, and row i of a system is
the sum of coeffs[i, t] times the monomial in row t of its exponent table.
These helpers are written from that definition alone, so the tests do not
lean on the package's own problem-file reader. ``assert_within_sum_bound``
compares two sums of the same terms added in different orders.
"""

import numpy as np

from nlbp.monomials import PolySystem


def graded_key(alpha):
    """The frozen order: ascending degree, then higher exponents on earlier
    variables first."""
    return (sum(alpha), tuple(-e for e in alpha))


def system_of(num_vars, *rows):
    """The system whose row i has the terms of the dict rows[i], {exponent
    tuple: coefficient}, over the monomials with a nonzero coefficient."""
    alphas = sorted({a for row in rows for a, c in row.items() if c != 0}, key=graded_key)
    coeffs = np.array([[row.get(a, 0.0) for a in alphas] for row in rows])
    return PolySystem(num_vars, max((sum(a) for a in alphas), default=0),
                      coeffs.reshape(len(rows), len(alphas)),
                      np.array(alphas, dtype=int).reshape(-1, num_vars))


def stack(systems):
    """The rows of systems over one shared full table, as ``random_polynomial``
    draws them, in one system."""
    return PolySystem(systems[0].num_vars, systems[0].degree,
                      np.vstack([s.coeffs for s in systems]))


def terms(system, i=0):
    """Row i's terms with a nonzero coefficient, {exponent tuple: coefficient}."""
    return {tuple(e): c for c, e in zip(system.coeffs[i].tolist(), system.exponents.tolist())
            if c != 0}


def unit(num_vars, j, power=1):
    """The exponent tuple of x_j ** power."""
    return tuple(power * (k == j) for k in range(num_vars))


def problem_json(system, values):
    """A problem file's document for the system, its terms in table order."""
    return {
        "polynomials": [
            {"num_vars": system.num_vars,
             "terms": [{"alpha": list(a), "coeff": c} for a, c in terms(system, i).items()]}
            for i in range(len(system))
        ],
        "values": [float(v) for v in values],
    }


def gamma(k):
    """gamma_k = k u / (1 - k u), u the unit roundoff."""
    u = np.finfo(float).eps / 2
    return k * u / (1 - k * u)


def assert_within_sum_bound(got, want, scale, k):
    """|got - want| <= gamma_k * scale entrywise, where scale is the sum of
    the terms' magnitudes: an inner product of k terms computed in any order
    lies within that bound of the exact one (Higham, Accuracy and Stability
    of Numerical Algorithms, 2002, section 3.1), and real roundoff stays far
    below it."""
    assert np.all(np.abs(np.subtract(got, want)) <= gamma(k) * np.asarray(scale))
