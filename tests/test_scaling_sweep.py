"""Smoke test of ``scripts/scaling_sweep.py``, which produces the n-scaling
figures and wraps layer functions by name: a rename in the package would
otherwise only show when the sweep is next run by hand."""

import importlib.util
import json
from pathlib import Path

import numpy as np
import pytest

from nlbp import baselines, harness, sdp_admm

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "scaling_sweep.py"

TIMED = ("sample_ms", "lift_ms", "cache_build_ms", "polish_ms", "admm_loop_ms",
         "trial_ms", "admm_us_per_iter")
COUNTED = ("minor_faults", "cone_cholesky_per_solve", "cone_solve_per_solve",
           "cone_eigh_per_solve", "eigh_fallbacks_per_solve",
           "proof_reuses_per_solve", "build_cholesky_per_solve",
           "build_eigh_per_solve", "iterations", "successes")


@pytest.fixture
def sweep(monkeypatch):
    # the script pins BLAS threads through the environment when it is
    # imported; keep that from leaking into later tests' subprocesses
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        monkeypatch.setenv(var, "1")
    spec = importlib.util.spec_from_file_location("scaling_sweep", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _wrapped_bindings():
    owners = {"sample_trial": harness, "build_lifted_problem": baselines,
              "solve_nlbp": baselines, "refine_solution": baselines,
              "project_psd": sdp_admm, "cholesky": np.linalg, "solve": np.linalg,
              "eigh": np.linalg}
    bindings = {name: vars(owner)[name] for name, owner in owners.items()}
    bindings["build"] = vars(sdp_admm.AffineCache)["build"]
    return bindings


def test_measure_reports_every_figure_and_restores_what_it_wraps(sweep):
    before = _wrapped_bindings()
    row = sweep.measure(3, 12, 1, 0)
    assert set(row) == set(TIMED) | set(COUNTED)
    assert row["successes"] == 1
    assert row["iterations"] > 0 and row["cone_eigh_per_solve"] >= 1
    after = _wrapped_bindings()
    assert all(after[name] is before[name] for name in before)


def test_main_prints_the_spread_of_timed_figures_only(sweep, capsys):
    assert sweep.main(["--sizes", "3:12:1", "--reps", "2"]) == 0
    row = json.loads(capsys.readouterr().out)
    for key in TIMED:
        assert row[f"{key}_min"] <= row[key] <= row[f"{key}_max"]
    for key in COUNTED:
        assert key in row and f"{key}_min" not in row and f"{key}_max" not in row
