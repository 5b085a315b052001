"""Smoke test of ``scripts/solve_ab.py``, the in-process A/B timing of
``solve_nlbp`` between two source trees: a tree against itself gives equal
reports and a ratio, and a tree whose solver takes other steps is caught."""

import importlib.util
import json
import shutil
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SCRIPT = ROOT / "scripts" / "solve_ab.py"
SRC = ROOT / "src"


@pytest.fixture
def solve_ab(monkeypatch):
    # the script pins BLAS threads through the environment when it is
    # imported; keep that from leaking into later tests' subprocesses
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        monkeypatch.setenv(var, "1")
    spec = importlib.util.spec_from_file_location("solve_ab", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_a_tree_against_itself_gives_equal_reports_and_a_ratio(solve_ab, capsys):
    path = list(sys.path)
    assert solve_ab.main([str(SRC), str(SRC), "--cases", "3:12:1", "--reps", "2"]) == 0
    row = json.loads(capsys.readouterr().out)
    assert row["case"] == "3:12:1" and row["solves"] == 2
    assert row["ratio_q1"] <= row["ratio"] <= row["ratio_q3"]
    assert 0 <= row["wins"] <= row["solves"] and row["iterations"] > 0
    assert row["base_us_per_iter"] > 0 and row["change_us_per_iter"] > 0
    # nothing of the two imports is left behind
    assert sys.path == path
    assert not any(name.startswith("nlbp_") for name in sys.modules)


def test_a_case_may_give_its_l1_weight(solve_ab, capsys):
    # n:N:T:lam solves those trials at that lam, so they take other steps
    # than at lam = 0
    assert solve_ab.main([str(SRC), str(SRC), "--cases", "3:12:1,3:12:1:0.1",
                          "--reps", "1"]) == 0
    plain, weighted = (json.loads(line) for line in capsys.readouterr().out.splitlines())
    assert weighted["case"] == "3:12:1:0.1" and weighted["solves"] == 1
    assert weighted["iterations"] != plain["iterations"]


def test_no_timed_rep_is_a_usage_error(solve_ab, capsys):
    with pytest.raises(SystemExit) as info:
        solve_ab.main([str(SRC), str(SRC), "--cases", "3:12:1", "--reps", "0"])
    assert info.value.code == 2 and "--reps must be >= 1" in capsys.readouterr().err


def test_a_change_of_steps_is_refused(solve_ab, tmp_path, capsys):
    changed = tmp_path / "src"
    shutil.copytree(SRC / "nlbp", changed / "nlbp",
                    ignore=shutil.ignore_patterns("__pycache__"))
    solver = changed / "nlbp" / "sdp_admm.py"
    text = solver.read_text()
    assert "_RELAX = 1.6\n" in text
    solver.write_text(text.replace("_RELAX = 1.6\n", "_RELAX = 1.5\n"))
    assert solve_ab.main([str(SRC), str(changed), "--cases", "3:12:1",
                          "--reps", "1"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "3:12:1 trial 0: the reports differ in" in captured.err
