"""A fixed reference kernel that gauges how fast the host runs right now.

The benchmark shares a host whose speed drifts: on a 2-vCPU KVM guest this
kernel's CPU time changed by up to a factor of 2 from one second to the
next, with CPU time equal to wall time, and trials ran slower or faster with
it. Timings are therefore scaled to a nominal host speed: a measured time t
becomes t * NOMINAL_MS / ref, where ref is this kernel's time measured next
to it. The kernel is the benchmark's own code and never calls nlbp, so a
change to the program moves the scaled times exactly as it moves the raw
ones.

The kernel is what an ADMM step does at n = 5: an eigendecomposition and
reconstruction of a 21 x 21 symmetric matrix (PSD projection) and products
with a 60 x 441 row matrix (affine projection). On that guest, over 300 to
460 repeated trials of one input per workload, scaling by this kernel cut
the spread of 20-trial sums from 5-16% to 2-3%; a pure-Python loop over
tuple keys, alone or mixed in, tracked the trials worse.
"""

from __future__ import annotations

import gc
import time

import numpy as np

# The kernel's CPU time on that guest in a calm period, so that scaled and
# raw figures agree there.
NOMINAL_MS = 5.7
ROUNDS = 40

_rng = np.random.default_rng(12345)
_S = _rng.standard_normal((21, 21))
_S = _S + _S.T
_R = _rng.standard_normal((60, 441))
_X = _rng.standard_normal(441)


def kernel() -> float:
    acc = 0.0
    for _ in range(ROUNDS):
        w, v = np.linalg.eigh(_S)
        Z = (v * np.maximum(w, 0.0)) @ v.T
        y = _R @ Z.ravel()
        acc += float(y[0]) + float(np.abs(_X - 1e-3 * (_R.T @ y)).sum())
    return acc


def measure_ms() -> float:
    """The kernel's CPU time in ms. A first, untimed call brings the kernel
    into the caches, so that what the program left there does not count; the
    garbage collector is held off so that the program's heap does not either."""
    gc.disable()
    try:
        kernel()
        c0 = time.process_time()
        kernel()
        return (time.process_time() - c0) * 1e3
    finally:
        gc.enable()
