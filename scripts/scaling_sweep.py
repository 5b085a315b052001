"""Per-phase cost of one NLBP trial as num_vars grows.

Runs ``run_experiment`` on ``table1_spec(num_vars=n, num_equations=N)`` with
NLBP only, one process, BLAS pinned to one thread, and times the layers of
each trial by wrapping them at the names their callers use:

* ``sample_ms``: ``harness.sample_trial``;
* ``lift_ms``: ``baselines.build_lifted_problem``;
* ``cache_build_ms``: ``sdp_admm.AffineCache.build``;
* ``admm_loop_ms``: ``baselines.solve_nlbp`` less its cache build, and
  ``admm_us_per_iter``, that time over the ADMM iterations;
* ``polish_ms``: ``baselines.refine_solution``;
* ``trial_ms``: from one ``sample_trial`` call to the next (or to the end).

It also counts, per solve, the LAPACK calls of the cone steps
(``cone_cholesky_per_solve``, ``cone_solve_per_solve`` and
``cone_eigh_per_solve``, the last including the first step, which has no
start), the warm cone steps that still ran the full ``eigh``
(``eigh_fallbacks_per_solve``), those that ran neither a Cholesky
factorization nor ``eigh`` because the solve's inertia proof covered them
(``proof_reuses_per_solve``), the cache build's ``cholesky`` and ``eigh``
calls (``build_cholesky_per_solve``, ``build_eigh_per_solve``), and the
minor page faults of each trial (``getrusage``). Each size runs one
untimed warm-up trial first, so per-key caches are built outside the
figures. Times are read on the process's CPU clock, which leaves out the
time the host takes the CPU away. Figures are means per trial; each
ensemble is repeated ``--reps`` times and the median of the repetitions is
kept, because the host's speed drifts between runs. Beside each timed
median (the ``*_ms`` figures and ``admm_us_per_iter``) the min and max over
the repetitions are printed as ``*_min`` and ``*_max``, so the spread shows
whether two runs differ; counts stay single numbers.

Usage, from the root of a checkout (PYTHONPATH selects the code measured):

    PYTHONPATH=src python3 scripts/scaling_sweep.py --sizes 5:50:20,8:120:20,10:200:4
"""

from __future__ import annotations

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import time  # noqa: E402

import numpy as np  # noqa: E402

from nlbp import baselines, harness, sdp_admm  # noqa: E402
from nlbp.baselines import Method  # noqa: E402

PHASES = ("sample_ms", "lift_ms", "cache_build_ms", "solve_ms", "polish_ms")
KERNELS = ("cholesky", "solve", "eigh")
COUNTS = ("cone_cholesky", "cone_solve", "cone_eigh", "eigh_fallbacks",
          "proof_reuses", "build_cholesky", "build_eigh")


def _timed(totals: dict, key: str, fn):
    def wrapper(*args, **kwargs):
        t0 = time.process_time()
        try:
            return fn(*args, **kwargs)
        finally:
            totals[key] += (time.process_time() - t0) * 1e3
    return wrapper


def measure(n: int, num_eqs: int, trials: int, seed: int) -> dict:
    """Mean per-trial figures of one ensemble at num_vars n."""
    totals = dict.fromkeys(PHASES, 0.0)
    counts = dict.fromkeys(COUNTS, 0)
    phase = [None]  # "build", "cone" or "warm" (a cone step with a start)
    marks: list[tuple[float, int]] = []
    wrapped = {"sample_trial": harness, "build_lifted_problem": baselines,
               "solve_nlbp": baselines, "refine_solution": baselines,
               "project_psd": sdp_admm}
    wrapped.update(dict.fromkeys(KERNELS, np.linalg))
    originals = {name: getattr(mod, name) for name, mod in wrapped.items()}
    build = sdp_admm.AffineCache.__dict__["build"]

    def mark():
        marks.append((time.process_time(), resource.getrusage(resource.RUSAGE_SELF).ru_minflt))

    def stamped(spec, t):
        mark()
        return originals["sample_trial"](spec, t)

    def building(cls, problem):
        phase[0] = "build"
        try:
            return build.__func__(cls, problem)
        finally:
            phase[0] = None

    def project_psd(X, start=None, **kwargs):
        # the solver's proof keyword, where there is one, passes through
        before = counts["cone_cholesky"] + counts["cone_eigh"]
        phase[0] = "cone" if start is None else "warm"
        try:
            return originals["project_psd"](X, start, **kwargs)
        finally:
            phase[0] = None
            if start is not None and counts["cone_cholesky"] + counts["cone_eigh"] == before:
                counts["proof_reuses"] += 1

    def counted(kernel):
        def wrapper(*args, **kwargs):
            where = phase[0]
            if where == "build" and kernel in ("cholesky", "eigh"):
                counts[f"build_{kernel}"] += 1
            elif where in ("cone", "warm"):
                counts[f"cone_{kernel}"] += 1
                counts["eigh_fallbacks"] += where == "warm" and kernel == "eigh"
            return originals[kernel](*args, **kwargs)
        return wrapper

    harness.sample_trial = _timed(totals, "sample_ms", stamped)
    baselines.build_lifted_problem = _timed(totals, "lift_ms", originals["build_lifted_problem"])
    baselines.solve_nlbp = _timed(totals, "solve_ms", originals["solve_nlbp"])
    baselines.refine_solution = _timed(totals, "polish_ms", originals["refine_solution"])
    sdp_admm.project_psd = project_psd
    for kernel in KERNELS:
        setattr(np.linalg, kernel, counted(kernel))
    sdp_admm.AffineCache.build = classmethod(
        _timed(totals, "cache_build_ms", building))
    try:
        spec = harness.table1_spec(trials=trials, seed=seed, num_vars=n,
                                   num_equations=num_eqs, methods=(Method.NLBP,))
        result = harness.run_experiment(spec)
        mark()
    finally:
        for name, mod in wrapped.items():
            setattr(mod, name, originals[name])
        sdp_admm.AffineCache.build = build
    outcomes = [r.outcomes[Method.NLBP] for r in result.records]
    per_trial = {k: v / trials for k, v in totals.items()}
    per_trial["admm_loop_ms"] = per_trial.pop("solve_ms") - per_trial["cache_build_ms"]
    per_trial["trial_ms"] = (marks[-1][0] - marks[0][0]) * 1e3 / trials
    per_trial["minor_faults"] = (marks[-1][1] - marks[0][1]) / trials
    per_trial.update({f"{k}_per_solve": v / trials for k, v in counts.items()})
    per_trial["iterations"] = sum(o.iterations for o in outcomes) / trials
    per_trial["admm_us_per_iter"] = (
        per_trial["admm_loop_ms"] * 1e3 / max(per_trial["iterations"], 1))
    per_trial["successes"] = sum(o.success for o in outcomes)
    return per_trial


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--sizes", default="5:50:20,8:120:20,10:200:4",
                        help="comma-separated n:N:trials")
    parser.add_argument("--seed", type=int, default=1000)
    parser.add_argument("--reps", type=int, default=3)
    args = parser.parse_args(argv)
    rows = []
    for item in args.sizes.split(","):
        n, num_eqs, trials = (int(v) for v in item.split(":"))
        measure(n, num_eqs, 1, args.seed + 1)
        reps = [measure(n, num_eqs, trials, args.seed) for _ in range(args.reps)]
        row = {"n": n, "N": num_eqs, "trials": trials}
        for k in reps[0]:
            values = [r[k] for r in reps]
            row[k] = round(statistics.median(values), 3)
            if k.endswith("_ms") or k == "admm_us_per_iter":
                row[f"{k}_min"], row[f"{k}_max"] = round(min(values), 3), round(max(values), 3)
        rows.append(row)
        print(json.dumps(row), flush=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
