"""nlbp ensemble benchmark: trials/s, trial latency, success rate, memory and
set-up time of ``nlbp.harness.run_experiment``, or, with ``--trace 1``, the
per-layer metrics of a traced run.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload table1 --seed 1 --seconds 36 --trace 0

Trial and set-up times are measured on the worker's CPU clock and scaled to
a nominal host speed by a reference kernel timed beside them (reference.py);
the unscaled and wall-clock figures are printed too. Every metric is printed
by name with its unit; the last line of standard output is one JSON object
with the keys correct, attempted, failed and metrics. The exit code is 1
when NLBP's success rate falls below 0.95 and 2 when the benchmark cannot run
at all (for example without ``src/nlbp``).
See perfbench/README.md for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKER = HERE / "worker.py"
OUT = HERE / "out"
sys.path.insert(0, str(HERE))

import reference  # noqa: E402
from worker import MAX_CHUNKS, SRC, WORKLOADS  # noqa: E402

SETUP_SAMPLES = 5
SUCCESS_GATE = 0.95  # the paper's recovery criterion, as a rate
BLAS_THREADS = "1"
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
                    "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
WORKER_TIMEOUT_S = 170.0
# Trial times are read on the worker's CPU clock, which leaves out the time
# the hypervisor takes the CPU away (steal), seen here as trials of twice
# their usual length. That clock describes a trial only while the trial runs
# on the worker's one thread, so a run whose CPU time strays this far from
# its wall time is refused.
CPU_SHARE_RANGE = (0.5, 1.5)

END_TO_END_UNITS = {
    "setup_s": "s",
    "trials_per_s": "1/s",
    "trial_ms_p50": "ms",
    "trial_ms_p90": "ms",
    "nlbp_success_rate": "ratio",
    "peak_rss_mb": "MB",
}


class BenchmarkError(RuntimeError):
    pass


def worker_env() -> dict[str, str]:
    """The launcher's environment with BLAS pinned to one thread, so every
    trial runs single-threaded whatever the machine's core count."""
    env = dict(os.environ)
    for var in BLAS_THREAD_VARS:
        env[var] = BLAS_THREADS
    return env


def start_worker(args: list[str]) -> tuple[subprocess.Popen, float, float]:
    """Start a worker and wait for its READY line; return it and its set-up
    time (interpreter start, import and warm-up): on the launcher's wall
    clock, and on the worker's CPU clock scaled by the reference reading the
    worker takes once it is set up."""
    t0 = time.perf_counter()
    proc = subprocess.Popen([sys.executable, str(WORKER), *args], cwd=ROOT,
                            env=worker_env(), stdout=subprocess.PIPE, text=True)
    ready = proc.stdout.readline().split()
    setup = time.perf_counter() - t0
    if len(ready) != 3 or ready[0] != "READY":
        finish(proc)
        raise BenchmarkError(f"worker did not start (exit code {proc.returncode})")
    cpu_s, ref_ms = float(ready[1]), float(ready[2])
    return proc, setup, cpu_s * reference.NOMINAL_MS / ref_ms


def finish(proc: subprocess.Popen) -> dict | None:
    """Wait for a worker and parse the JSON of its last line."""
    try:
        out, _ = proc.communicate(timeout=WORKER_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise BenchmarkError("worker timed out")
    if proc.returncode != 0:
        raise BenchmarkError(f"worker exited with code {proc.returncode}")
    lines = out.strip().splitlines()
    return json.loads(lines[-1]) if lines else None


def run_worker(args: list[str]) -> tuple[dict, float, float]:
    proc, setup, scaled_setup = start_worker(args)
    return finish(proc), setup, scaled_setup


def timings(ms: np.ndarray) -> dict[str, float]:
    return {
        "trials_per_s": 1e3 * len(ms) / ms.sum(),
        "trial_ms_p50": float(np.quantile(ms, 0.5)),
        "trial_ms_p90": float(np.quantile(ms, 0.9)),
    }


def describe(ms: np.ndarray) -> str:
    return ", ".join(f"{k} = {v:.6g} {END_TO_END_UNITS[k]}" for k, v in timings(ms).items())


def tail_percentile(n: int) -> int:
    """Highest whole percentile with at least ten samples beyond it."""
    return max(0, int(100 * (n - 10) / n)) if n > 10 else 0


def end_to_end(workload: str, seed: int, seconds: int) -> tuple[dict, dict]:
    common = ["--workload", workload, "--seed", str(seed)]
    setups = [run_worker(common + ["--setup-only"])[1:]
              for _ in range(SETUP_SAMPLES - 1)]
    run, *setup = run_worker(common + ["--seconds", str(seconds)])
    setups.append(tuple(setup))
    raw_setups, scaled_setups = zip(*setups)
    scaled_ms = np.array(run["trial_scaled_ms"])
    trial_ms = np.array(run["trial_cpu_ms"])
    wall_ms = np.array(run["trial_ms"])
    cpu_share = trial_ms.sum() / wall_ms.sum()
    if not CPU_SHARE_RANGE[0] <= cpu_share <= CPU_SHARE_RANGE[1]:
        raise BenchmarkError(f"trials used {cpu_share:.2f} s of CPU per second of wall "
                             "time; the CPU clock does not measure them")
    metrics = {
        "setup_s": statistics.median(scaled_setups),
        **timings(scaled_ms),
        "nlbp_success_rate": run["nlbp_successes"] / run["trials"],
        "peak_rss_mb": run["peak_rss_mb"],
    }
    tail = tail_percentile(len(scaled_ms))
    beyond_p90 = int((scaled_ms > metrics["trial_ms_p90"]).sum())
    refs = run["ref_ms"]
    run["notes"] = [
        f"reference kernel (ms, nominal {reference.NOMINAL_MS}): {len(refs)} readings, "
        f"min {min(refs):.3f}, median {statistics.median(refs):.3f}, max {max(refs):.3f}",
        f"set-up samples (s, wall/scaled CPU): "
        + ", ".join(f"{r:.4f}/{c:.4f}" for r, c in setups),
        f"trial samples: {len(scaled_ms)}; beyond p90: {beyond_p90}; "
        f"highest percentile with >=10 beyond: p{tail} = "
        f"{float(np.quantile(scaled_ms, tail / 100)):.4f} ms",
        f"unscaled: setup_s = {statistics.median(raw_setups):.6g} s (wall clock); "
        "CPU clock: " + describe(trial_ms),
        f"wall clock ({cpu_share:.4f} CPU s per s): " + describe(wall_ms),
    ]
    return {k: (v, END_TO_END_UNITS[k]) for k, v in metrics.items()}, run


def traced(workload: str, seed: int, seconds: int) -> tuple[dict, dict]:
    """A traced run for half the time, then an untraced replay of the same
    ensembles, whose time ratio is the tracing overhead."""
    OUT.mkdir(exist_ok=True)
    common = ["--workload", workload, "--seed", str(seed)]
    run, *_ = run_worker(common + ["--seconds", str(seconds / 2),
                                   "--trace-out", str(OUT / f"trace-{workload}.npz")])
    plain, *_ = run_worker(common + ["--chunks", str(len(run["csv_sha256"]))])
    if plain["csv_sha256"] != run["csv_sha256"]:
        raise BenchmarkError("traced and untraced runs gave different results")
    metrics = {k: tuple(v) for k, v in run["layers"].items()}
    metrics["trace.overhead_share"] = (
        sum(run["trial_scaled_ms"]) / sum(plain["trial_scaled_ms"]) - 1.0, "ratio")
    run["notes"] = [f"trial samples: {run['trials']}; "
                    f"trace written to {OUT.relative_to(ROOT)}/trace-{workload}.npz"]
    if run["unwrapped"]:
        run["notes"].append(f"not traced (gone from nlbp): {', '.join(run['unwrapped'])}")
    return metrics, run


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, default=36)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")
    if not (SRC / "nlbp" / "__init__.py").is_file():
        print(f"perfbench: no nlbp sources under {SRC}", file=sys.stderr)
        return 2

    try:
        if args.trace:
            metrics, run = traced(args.workload, args.seed, args.seconds)
        else:
            metrics, run = end_to_end(args.workload, args.seed, args.seconds)
    except BenchmarkError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2

    rate = run["nlbp_successes"] / run["trials"]
    correct = rate >= SUCCESS_GATE
    print(f"workload {args.workload}, seed {args.seed}, trace {args.trace}")
    print(f"nproc {os.cpu_count()}, usable cpus {len(os.sched_getaffinity(0))}, "
          f"numpy {run['numpy']}, BLAS {run['blas']}, "
          f"BLAS threads {run['blas_threads']} (pinned to {BLAS_THREADS})")
    print(f"results_to_csv sha256 (first 16 hex digits) of the ensembles with seeds "
          f"{args.seed * MAX_CHUNKS} + c, c = 0..{len(run['csv_sha256']) - 1}: "
          + " ".join(d[:16] for d in run["csv_sha256"]))
    for note in run["notes"]:
        print(note)
    for name, (value, unit) in metrics.items():
        print(f"{name} = {value:.6g} {unit}")
    print(f"check: NLBP success rate {rate:.4f} >= {SUCCESS_GATE}: "
          f"{'ok' if correct else 'FAILED'}; trials whose solver raised: {run['failed']}")
    print(json.dumps({
        "correct": correct,
        "attempted": run["trials"],
        "failed": run["failed"],
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
