"""The cone step's anchored inertia proof (``sdp_admm.InertiaProof``).

A margin proof of 2 lam v v^T - A - delta I > 0, delta = lam / 100, puts A's
second eigenvalue below -delta, so by Weyl's inequalities every symmetric
A' within delta of A in Frobenius norm has at most one positive eigenvalue
and needs no factorization of its own. Inputs come from ``with_spectrum``,
symmetrized exactly, as the solver's ``smat`` output is.
"""

import contextlib

import numpy as np
import pytest

from nlbp import sdp_admm
from nlbp.sdp_admm import InertiaProof, project_psd
from spectra import with_spectrum

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import assume, example, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

DIM = 10


@contextlib.contextmanager
def counting(*names):
    """Count calls of the named kernels at the solver's LAPACK seam
    (``sdp_admm._cholesky`` for "cholesky", and so on), and under
    "singular" the LinAlgErrors of ``solve``. Hypothesis runs many examples
    per test, so this patches and restores by hand rather than through the
    function-scoped ``monkeypatch`` fixture."""
    calls = {name: 0 for name in names}
    originals = {name: getattr(sdp_admm, f"_{name}") for name in names}

    def spy(name):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            try:
                return originals[name](*args, **kwargs)
            except np.linalg.LinAlgError:
                if name == "solve":
                    calls["singular"] = calls.get("singular", 0) + 1
                raise
        return wrapper

    try:
        for name in names:
            setattr(sdp_admm, f"_{name}", spy(name))
        yield calls
    finally:
        for name, fn in originals.items():
            setattr(sdp_admm, f"_{name}", fn)


def symmetric(A):
    return 0.5 * (A + A.T)


def anchored(top, negatives, seed):
    """An input with one positive eigenvalue ``top``, a start near its
    eigenvector, and a proof anchored at the input by one cone step."""
    A, q = with_spectrum([top] + negatives, seed)
    A = symmetric(A)
    near = q[:, 0] + 1e-3 * np.random.default_rng(seed + 1).normal(size=len(q))
    start = np.outer(near, near)
    proof = InertiaProof()
    with counting("cholesky") as calls:
        project_psd(A, start, proof=proof)
    # before the first anchor the plain proof runs first, then the margin
    # proof, which held
    assert calls["cholesky"] == 2
    assert proof.anchor is not None and np.array_equal(proof.anchor, A)
    return A, start, proof


def perturbation(seed, norm):
    """A symmetric matrix of the given Frobenius norm."""
    E = symmetric(np.random.default_rng(seed).normal(size=(DIM, DIM)))
    return E * (norm / np.linalg.norm(E))


seeds = st.integers(0, 2**32 - 1)
tops = st.floats(0.1, 100.0)
# the negative eigenvalues, relative to the top one: all below -1/20, so
# that the anchor's margin proof (-1/100) holds
negative_spectra = st.lists(st.floats(-3.0, -0.05), min_size=DIM - 1, max_size=DIM - 1)


@settings(max_examples=60, deadline=None)
@given(seed=seeds, top=tops, negatives=negative_spectra,
       fraction=st.floats(0.0, 0.99))
def test_a_move_within_the_margin_is_accepted_without_a_factorization(
        seed, top, negatives, fraction):
    A, start, proof = anchored(top, [top * r for r in negatives], seed)
    anchor, margin = proof.anchor, proof.margin
    assert margin == pytest.approx(top / 100, rel=1e-9)
    B = A + perturbation(seed + 2, fraction * margin)
    with counting("cholesky", "eigh", "solve") as calls:
        out = project_psd(B, start, proof=proof)
    assert calls["cholesky"] == 0
    assert proof.anchor is anchor and proof.margin == margin
    assert np.linalg.norm(out - project_psd(B)) <= 1e-12 * np.linalg.norm(A)
    # a Rayleigh quotient that lands exactly on an eigenvalue makes B - lam I
    # singular, and that step falls back with or without a proof
    assume("singular" not in calls)
    assert calls["eigh"] == 0
    # the same bits as the plain proof, which accepts this input too
    assert np.array_equal(out, project_psd(B, start))


@settings(max_examples=60, deadline=None)
@given(seed=seeds, top=tops, negatives=negative_spectra,
       fraction=st.floats(1.0, 3.0))
@example(seed=5, top=1.0, negatives=[-1.0] * (DIM - 1), fraction=1.0)
def test_a_move_at_or_beyond_the_margin_is_proven_again(seed, top, negatives, fraction):
    A, start, proof = anchored(top, [top * r for r in negatives], seed)
    B = A + perturbation(seed + 2, fraction * proof.margin)
    # the distance as the check computes it; rounding can put an exact
    # fraction of 1 a hair inside the margin
    assume(not sdp_admm._norm(B - proof.anchor) < proof.margin)
    with counting("cholesky") as calls:
        out = project_psd(B, start, proof=proof)
    assert calls["cholesky"] >= 1
    assert np.linalg.norm(out - project_psd(B)) <= 1e-12 * np.linalg.norm(A)


@settings(max_examples=60, deadline=None)
@given(seed=seeds, top=tops, negatives=negative_spectra,
       second=st.floats(1e-3, 0.9))
def test_two_positive_eigenvalues_are_never_accepted_through_an_anchor(
        seed, top, negatives, second):
    # lift A's second eigenvalue to second * top > 0: Weyl puts the input at
    # least the margin away, so the anchor cannot cover it and the proof fails
    A, start, proof = anchored(top, [top * r for r in negatives], seed)
    anchor = proof.anchor
    vals, vecs = np.linalg.eigh(A)
    u = vecs[:, -2]
    B = symmetric(A + (second * top - vals[-2]) * np.outer(u, u))
    with counting("cholesky", "eigh") as calls:
        out = project_psd(B, start, proof=proof)
    assert calls["cholesky"] >= 1 and calls["eigh"] == 1
    assert proof.anchor is anchor
    assert np.array_equal(out, project_psd(B))
    assert np.linalg.matrix_rank(out, tol=1e-9 * top) == 2


def test_the_plain_proof_still_runs_when_the_margin_proof_fails():
    # second eigenvalue -lam / 200, inside the margin: 2 lam v v^T - A is
    # positive definite but 2 lam v v^T - A - (lam / 100) I is not. The plain
    # proof accepts the input, as it does without a proof, and the input
    # does not become an anchor.
    A, q = with_spectrum([2.0, -0.01] + list(np.linspace(-3.0, -0.5, DIM - 2)), 21)
    A = symmetric(A)
    start = np.outer(q[:, 0], q[:, 0])
    proof = InertiaProof()
    with counting("cholesky", "eigh") as calls:
        out = project_psd(A, start, proof=proof)
    assert calls == {"cholesky": 2, "eigh": 0}
    assert proof.anchor is None
    assert np.array_equal(out, project_psd(A, start))
    assert np.linalg.norm(out - project_psd(A)) <= 1e-12 * np.linalg.norm(A)


def test_before_the_first_anchor_a_refusal_costs_one_factorization():
    # two positive eigenvalues: the plain proof, which runs first while the
    # solve has no anchor, refuses the input, and the margin proof is not
    # tried; the full eigendecomposition gives the projection
    A, q = with_spectrum([5.0, 2.0] + list(np.linspace(-3.0, -0.5, DIM - 2)), 9)
    A = symmetric(A)
    proof = InertiaProof()
    with counting("cholesky", "eigh") as calls:
        out = project_psd(A, np.outer(q[:, 0], q[:, 0]), proof=proof)
    assert calls == {"cholesky": 1, "eigh": 1}
    assert proof.anchor is None
    assert np.array_equal(out, project_psd(A))
