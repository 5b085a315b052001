"""One benchmark process: import nlbp from the checkout, warm up, signal
ready, then run a workload's ensembles through ``nlbp.harness.run_experiment``
for a fixed time and print one JSON line with what it measured.

Run by ``perfbench/run.py``, which pins the BLAS threads in this process's
environment and times its start-up.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import resource
import statistics
import sys
import time
from pathlib import Path

import reference

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

# Trials per run_experiment call. A run is a sequence of such calls, so it
# stops at most one chunk after its time is up.
CHUNK_TRIALS = {"table1": 5, "dense": 5, "sparse_n8": 1}
WORKLOADS = tuple(CHUNK_TRIALS)
MAX_CHUNKS = 1000
SETUP_READINGS = 5


def import_nlbp():
    """Import the nlbp package of this checkout, never an installed one."""
    if not (SRC / "nlbp" / "__init__.py").is_file():
        raise FileNotFoundError(f"no nlbp sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import nlbp

    if Path(nlbp.__file__).resolve().parent != SRC / "nlbp":
        raise ImportError(f"imported nlbp from {nlbp.__file__}, not from {SRC}")
    return nlbp


def workload_spec(name: str, seed: int, trials: int):
    from nlbp.baselines import Method
    from nlbp.harness import dense_spec, table1_spec

    if name == "table1":
        return table1_spec(trials=trials, seed=seed)
    if name == "dense":
        return dense_spec(trials=trials, seed=seed)
    if name == "sparse_n8":
        return table1_spec(trials=trials, seed=seed, num_vars=8,
                           num_equations=120, methods=(Method.NLBP,))
    raise ValueError(f"unknown workload {name!r}")


def chunk_seed(run_seed: int, chunk: int) -> int:
    """Experiment seed of the chunk-th ensemble of a run; distinct for every
    (run seed, chunk) pair because chunk < MAX_CHUNKS."""
    return run_seed * MAX_CHUNKS + chunk


def warm_up():
    """Touch every layer once on a small system, so first-call costs (LAPACK
    initialisation, lazy imports) fall into set-up rather than the first
    timed trial."""
    from nlbp.harness import run_experiment, table1_spec

    run_experiment(table1_spec(trials=1, seed=0, num_vars=3, num_equations=12))
    reference.kernel()


def raised(outcome) -> bool:
    """run_experiment turns a solver exception into exactly this outcome."""
    return (math.isinf(outcome.residual_sq) and outcome.iterations == 0
            and math.isnan(outcome.rank1_ratio))


def scaled(trial_cpu_ms: list[float], ref_ms: list[float]) -> list[float]:
    """Trial CPU times scaled to the nominal host speed by the mean of the
    readings taken just before and just after each trial (readings i and
    i + 1 bracket trial i). The host's speed changes within a second, so
    readings further away, or a median over more of them, follow it worse."""
    return [cpu * reference.NOMINAL_MS / ((ref_ms[i] + ref_ms[i + 1]) / 2)
            for i, cpu in enumerate(trial_cpu_ms)]


def run_chunks(workload: str, seed: int, seconds: float, chunks: int | None,
               tracer=None) -> dict:
    """Run ensembles until ``seconds`` have passed (or exactly ``chunks``
    ensembles) and return trial intervals, outcomes and CSV digests.

    A trial is the interval between consecutive ``sample_trial`` calls in one
    ``run_experiment``; the last trial of an ensemble ends when it returns.
    The reference kernel is timed before the first trial and after each one,
    outside the trial intervals, and scales the trials' CPU times.
    """
    from nlbp import harness
    from nlbp.baselines import Method

    trial_ms: list[float] = []
    trial_cpu_ms: list[float] = []
    ref_ms: list[float] = []
    started: list[tuple[float, float]] = []

    def end_trial():
        w1, c1 = time.perf_counter(), time.process_time()
        w0, c0 = started.pop()
        trial_ms.append((w1 - w0) * 1e3)
        trial_cpu_ms.append((c1 - c0) * 1e3)
        ref_ms.append(reference.measure_ms())

    # Installed over the tracer's wrapper, so that the readings fall outside
    # the sample_trial span.
    if tracer is not None:
        tracer.install_nlbp()
    sample_trial = harness.sample_trial

    def stamped(spec, trial_index):
        if started:
            end_trial()
        started.append((time.perf_counter(), time.process_time()))
        return sample_trial(spec, trial_index)

    harness.sample_trial = stamped
    digests: list[str] = []
    iterations: list[list[int]] = []
    successes = failed = 0
    try:
        begin = time.perf_counter()
        ref_ms.append(reference.measure_ms())
        for chunk in range(MAX_CHUNKS):
            if chunks is not None and chunk >= chunks:
                break
            if chunks is None and time.perf_counter() - begin >= seconds:
                break
            spec = workload_spec(workload, chunk_seed(seed, chunk),
                                 CHUNK_TRIALS[workload])
            result = harness.run_experiment(spec)
            end_trial()
            digests.append(hashlib.sha256(
                harness.results_to_csv(result).encode()).hexdigest())
            for record in result.records:
                outcomes = record.outcomes
                successes += outcomes[Method.NLBP].success
                failed += any(raised(o) for o in outcomes.values())
                iterations.append([outcomes[m].iterations for m in spec.methods])
    finally:
        harness.sample_trial = sample_trial
        if tracer is not None:
            tracer.uninstall()
    return {
        "trials": len(trial_ms),
        "trial_ms": trial_ms,
        "trial_cpu_ms": trial_cpu_ms,
        "trial_scaled_ms": scaled(trial_cpu_ms, ref_ms),
        "ref_ms": ref_ms,
        "nlbp_successes": successes,
        "failed": failed,
        "csv_sha256": digests,
        "iterations": iterations,
    }


def blas_info() -> dict:
    """numpy and BLAS versions, and the thread count OpenBLAS reports."""
    import ctypes

    import numpy as np

    blas = np.__config__.CONFIG["Build Dependencies"]["blas"]
    threads = None
    libs = sorted((Path(np.__file__).parent.parent / "numpy.libs").glob("*openblas*"))
    if libs:
        handle = ctypes.CDLL(str(libs[0]))  # already loaded by numpy
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads"):
            func = getattr(handle, symbol, None)
            if func is not None:
                func.restype = ctypes.c_int
                threads = func()
                break
    return {"numpy": np.__version__, "blas": f"{blas.get('name')} {blas.get('version')}",
            "blas_threads": threads}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--chunks", type=int, default=None,
                        help="run exactly this many ensembles instead of timing")
    parser.add_argument("--trace-out", default=None,
                        help="trace the layers and write the spans to this .npz")
    parser.add_argument("--setup-only", action="store_true",
                        help="exit once imported and warmed up")
    args = parser.parse_args(argv)

    import_nlbp()
    warm_up()
    usage = resource.getrusage(resource.RUSAGE_SELF)
    ref_ms = statistics.median(reference.measure_ms() for _ in range(SETUP_READINGS))
    print(f"READY {usage.ru_utime + usage.ru_stime!r} {ref_ms!r}", flush=True)
    if args.setup_only:
        return 0

    tracer = None
    if args.trace_out is not None:
        from tracer import Tracer, layer_metrics

        tracer = Tracer()
    out = run_chunks(args.workload, args.seed, args.seconds, args.chunks, tracer)
    out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    out.update(blas_info())
    if tracer is not None:
        out["layers"] = layer_metrics(tracer, out["trial_ms"])
        out["unwrapped"] = tracer.missing
        tracer.save(args.trace_out)
    print(json.dumps(out), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
