"""In-process A/B timing of ``solve_nlbp`` between two source trees.

Copies the ``nlbp`` package of each tree into a temporary directory under
two names, ``nlbp_base`` and ``nlbp_change``, and imports both into one
process. Each package samples, lifts and factors (``problem.affine``) the
same trials itself, all before any timing, so only the solve is timed. Every
``SolveReport`` field of the change must equal the base's bit for bit
(arrays and floats by their bytes, the status by its value); the script
stops with exit code 1 at the first that does not. Every problem is first
solved once by each package untimed, so per-size caches are built outside
the figures. Then each rep solves every problem once with each package, the
base first on even reps and the change first on odd ones, timed on the
process's CPU clock with BLAS pinned to one thread.

Per case it prints one JSON line: ``ratio``, the median over all timed
solves of the change's time over the base's on the same problem and rep,
``ratio_q1`` and ``ratio_q3``, its quartiles, ``wins``, the solves in which
the change took less time, ``base_ms`` and ``change_ms``, the median solve
times, ``base_us_per_iter`` and ``change_us_per_iter``, each side's summed
timed CPU time over the summed iterations of its timed solves, and
``iterations``, the ADMM iterations of the case's problems.

A case is ``table1:T`` or ``dense:T``, the first T trials of the seed-42
ensembles that ``nlbp bench`` runs, or ``n:N:T``, the first T trials of the
table1 shape at num_vars n with N equations and seed 1000, as
``scripts/scaling_sweep.py`` runs them.

Usage, from the root of a checkout, with BASE another checkout:

    python3 scripts/solve_ab.py BASE/src src --reps 10
"""

from __future__ import annotations

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import argparse  # noqa: E402
import dataclasses  # noqa: E402
import enum  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import shutil  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

SIDES = ("base", "change")


class ReportsDiffer(RuntimeError):
    pass


def load_packages(trees: list[Path], into: Path) -> list:
    """The ``nlbp`` package of each tree, imported as ``nlbp_<side>``."""
    sys.path.insert(0, str(into))
    packages = []
    for side, tree in zip(SIDES, trees):
        name = f"nlbp_{side}"
        _forget(name)
        shutil.copytree(tree / "nlbp", into / name,
                        ignore=shutil.ignore_patterns("__pycache__"))
        packages.append(importlib.import_module(name))
    return packages


def _forget(name: str) -> None:
    for key in [k for k in sys.modules if k == name or k.startswith(name + ".")]:
        del sys.modules[key]


def case_spec(package, case: str):
    """The spec a case string names (see the module docstring)."""
    harness = package.harness
    fields = case.split(":")
    if fields[0] in ("table1", "dense") and len(fields) == 2:
        make = harness.table1_spec if fields[0] == "table1" else harness.dense_spec
        return make(trials=int(fields[1]))
    if len(fields) == 3:
        n, num_eqs, trials = (int(v) for v in fields)
        return harness.table1_spec(trials=trials, seed=1000, num_vars=n,
                                   num_equations=num_eqs)
    raise ValueError(f"a case is table1:T, dense:T or n:N:T, got {case!r}")


def problems(package, case: str) -> list:
    """(problem, config) of each trial of the case, each problem's affine
    cache built."""
    spec = case_spec(package, case)
    out = []
    for trial in range(spec.trials):
        polys, _, values = package.harness.sample_trial(spec, trial)
        problem = package.lifting.build_lifted_problem(polys, values, spec.order)
        problem.affine  # the cache build, outside the timing
        out.append((problem, package.harness.default_trial_config(spec, values)))
    return out


def _same(a, b) -> bool:
    if isinstance(a, np.ndarray):
        return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()
    if isinstance(a, enum.Enum):
        return a.value == b.value
    if isinstance(a, float):
        return np.float64(a).tobytes() == np.float64(b).tobytes()
    return a == b


def differing_field(base, change) -> str | None:
    """The first ``SolveReport`` field in which the two reports differ."""
    for field in dataclasses.fields(base):
        if not _same(getattr(base, field.name), getattr(change, field.name)):
            return field.name
    return None


def run_case(packages, case: str, reps: int) -> dict:
    cases = [problems(package, case) for package in packages]
    solves = [package.sdp_admm.solve_nlbp for package in packages]
    ratios, times, total_ns = [], ([], []), [0, 0]
    iterations = 0
    for rep in range(-1, reps):  # rep -1 is the untimed warm-up
        order = (1, 0) if rep % 2 else (0, 1)
        for trial, pair in enumerate(zip(*cases)):
            reports, elapsed = [None, None], [0, 0]
            for side in order:
                problem, config = pair[side]
                start = time.process_time_ns()
                reports[side] = solves[side](problem, config)
                elapsed[side] = time.process_time_ns() - start
            field = differing_field(*reports)
            if field is not None:
                raise ReportsDiffer(f"{case} trial {trial}: the reports differ in {field}")
            if rep < 0:
                iterations += reports[0].iterations
                continue
            ratios.append(elapsed[1] / elapsed[0])
            for side in (0, 1):
                times[side].append(elapsed[side] / 1e6)
                total_ns[side] += elapsed[side]
    q1, median, q3 = np.percentile(ratios, [25, 50, 75])
    return {"case": case, "solves": len(ratios), "ratio": round(median, 4),
            "ratio_q1": round(q1, 4), "ratio_q3": round(q3, 4),
            "wins": sum(r < 1.0 for r in ratios),
            "base_ms": round(float(np.median(times[0])), 3),
            "change_ms": round(float(np.median(times[1])), 3),
            # both sides take the same steps, so the timed iterations are
            # the warm-up's once per rep
            "base_us_per_iter": round(total_ns[0] / 1e3 / (iterations * reps), 2),
            "change_us_per_iter": round(total_ns[1] / 1e3 / (iterations * reps), 2),
            "iterations": iterations}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("base", type=Path, help="source tree holding nlbp/")
    parser.add_argument("change", type=Path, help="source tree holding nlbp/")
    parser.add_argument("--cases", default="table1:5,dense:5,8:120:3,10:200:2",
                        help="comma-separated table1:T, dense:T or n:N:T")
    parser.add_argument("--reps", type=int, default=10)
    args = parser.parse_args(argv)
    if args.reps < 1:
        parser.error("--reps must be >= 1")
    with tempfile.TemporaryDirectory() as tmp:
        try:
            packages = load_packages([args.base, args.change], Path(tmp))
            for case in args.cases.split(","):
                try:
                    row = run_case(packages, case, args.reps)
                except ReportsDiffer as exc:
                    print(f"error: {exc}", file=sys.stderr)
                    return 1
                print(json.dumps(row), flush=True)
        finally:
            sys.path.remove(tmp)
            for side in SIDES:
                _forget(f"nlbp_{side}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
