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
         "trial_ms", "admm_us_per_iter", "cone_us_per_iter", "affine_us_per_iter",
         "rest_us_per_iter")
COUNTED = ("minor_faults", "cone_cholesky_per_solve", "cone_solve_per_solve",
           "cone_eigh_per_solve", "eigh_fallbacks_per_solve",
           "proof_reuses_per_solve", "build_cholesky_per_solve",
           "build_eigh_per_solve", "iterations", "successes", "affine_rows",
           "affine_cols")


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
              "project_psd": sdp_admm,
              # the cone step's kernels at the solver's LAPACK seam, the
              # cache build's at np.linalg
              "_cholesky": sdp_admm, "_solve": sdp_admm, "_eigh": sdp_admm,
              "cholesky": np.linalg, "eigh": np.linalg}
    bindings = {name: vars(owner)[name] for name, owner in owners.items()}
    bindings["build"] = vars(sdp_admm.AffineCache)["build"]
    bindings["project"] = vars(sdp_admm.AffineCache)["project"]
    return bindings


def test_measure_reports_every_figure_and_restores_what_it_wraps(sweep):
    before = _wrapped_bindings()
    row = sweep.measure(3, 12, 1, 0)
    assert set(row) == set(TIMED) | set(COUNTED)
    assert row["successes"] == 1
    assert row["iterations"] > 0 and row["cone_eigh_per_solve"] >= 1
    # the 12 data rows and the normalization row on the folded columns, the
    # leading block and its complement each factored
    assert (row["affine_rows"], row["affine_cols"]) == (13, 38)
    assert row["build_cholesky_per_solve"] == 2 and row["build_eigh_per_solve"] == 0
    # the loop's time splits into the two wrapped steps and the rest
    assert row["cone_us_per_iter"] > 0 and row["affine_us_per_iter"] > 0
    assert row["cone_us_per_iter"] + row["affine_us_per_iter"] + row["rest_us_per_iter"] \
        == pytest.approx(row["admm_us_per_iter"])
    after = _wrapped_bindings()
    assert all(after[name] is before[name] for name in before)


def test_main_prints_the_spread_of_timed_figures_only(sweep, capsys):
    assert sweep.main(["--sizes", "3:12:1", "--reps", "2"]) == 0
    row = json.loads(capsys.readouterr().out)
    for key in TIMED:
        assert row[f"{key}_min"] <= row[key] <= row[f"{key}_max"]
    for key in COUNTED:
        assert key in row and f"{key}_min" not in row and f"{key}_max" not in row


def test_a_size_may_give_its_l1_weight(sweep, capsys):
    # n:N:trials:lam runs the ensemble at that lam; without it lam is 0
    assert sweep.main(["--sizes", "3:12:1,3:12:1:0.1", "--reps", "1"]) == 0
    plain, weighted = (json.loads(line) for line in capsys.readouterr().out.splitlines())
    assert (plain["lam"], weighted["lam"]) == (0.0, 0.1)
    assert plain["iterations"] != weighted["iterations"]
    with pytest.raises(SystemExit) as info:
        sweep.main(["--sizes", "3:12", "--reps", "1"])
    assert info.value.code == 2 and "n:N:trials[:lam]" in capsys.readouterr().err


def test_no_repetition_is_a_usage_error(sweep, capsys):
    with pytest.raises(SystemExit) as info:
        sweep.main(["--sizes", "3:12:1", "--reps", "0"])
    assert info.value.code == 2 and "--reps must be >= 1" in capsys.readouterr().err
