"""Tests of the benchmark itself. Run from the repository root with

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import worker  # noqa: E402
from tracer import CacheInfo, SolveInfo, Tracer, layer_metrics, self_times  # noqa: E402

worker.import_nlbp()

from nlbp import baselines, harness, lifting, sdp_admm  # noqa: E402


def _bindings():
    owners = (harness, baselines, lifting, sdp_admm, sdp_admm.AffineCache)
    return {(o.__name__, k): v for o in owners for k, v in vars(o).items()}


def test_wrappers_restore_the_original_functions():
    before = _bindings()
    tracer = Tracer()
    tracer.install_nlbp()
    assert tracer.missing == []
    assert harness.sample_trial is not before[("nlbp.harness", "sample_trial")]
    assert vars(sdp_admm.AffineCache)["project"] is not before[("AffineCache", "project")]
    tracer.uninstall()
    after = _bindings()
    assert after.keys() == before.keys()
    assert all(after[k] is before[k] for k in before)


def test_wrapper_restores_after_a_raising_run(monkeypatch):
    original = harness.sample_trial

    def boom(*args, **kwargs):
        raise RuntimeError("boom")

    monkeypatch.setattr(harness, "run_experiment", boom)
    tracer = Tracer()
    with pytest.raises(RuntimeError):
        worker.run_chunks("table1", 0, 1.0, 1, tracer)
    assert harness.sample_trial is original
    assert tracer._installed == []


def test_wrap_lists_a_target_the_program_no_longer_has():
    class Owner:
        pass

    tracer = Tracer()
    tracer.wrap(Owner, "gone", "x.gone")
    assert tracer.missing == ["Owner.gone"]
    assert tracer._installed == []


def test_self_times_on_a_hand_built_span_tree():
    # 0 [0, 100) has children 1 [10, 40) and 2 [50, 90); 1 has child 3 [15, 25);
    # 4 [100, 130) is a second root; 5 reaches past its parent 2 and is clipped.
    parent = np.array([-1, 0, 0, 1, -1, 2])
    start = np.array([0, 10, 50, 15, 100, 80])
    end = np.array([100, 40, 90, 25, 130, 95])
    assert self_times(parent, start, end).tolist() == [30, 20, 30, 10, 30, 15]


def test_layer_metrics_on_a_hand_built_trace():
    tracer = Tracer(names=["harness.sample_trial", "harness.method", "sdp_admm.solve",
                           "sdp_admm.cache_build", "sdp_admm.project_psd"],
                    parents=[-1, -1, 1, 2, 2],
                    starts=[0, 2_000_000, 2_000_000, 2_000_000, 3_000_000],
                    ends=[2_000_000, 10_000_000, 9_000_000, 3_000_000, 5_000_000],
                    tags={1: "QBP"})
    tracer.solves = [SolveInfo(span=2, iterations=40, status="infeasible")]
    tracer.errors = [(4, "LinAlgError"), (2, "LinAlgError"), (1, "LinAlgError")]
    tracer.caches = [CacheInfo(span=3, solve_span=2, dim=6, constraints=51,
                               row_mat_bytes=0, hopeless=True)]
    m = layer_metrics(tracer, trial_ms=[10.0])
    assert m["sdp_admm.solve.qbp.ms"][0] == pytest.approx(6.0)  # 7 ms minus cache build
    assert m["sdp_admm.cache_build.qbp.ms"][0] == pytest.approx(1.0)
    assert m["sdp_admm.us_per_iter"][0] == pytest.approx(150.0)
    assert m["sdp_admm.bookkeeping.us_per_iter"][0] == pytest.approx(100.0)
    assert m["sdp_admm.project_psd.us_per_call"][0] == pytest.approx(2000.0)
    assert m["sdp_admm.iters.qbp"][0] == 40 and m["sdp_admm.iters.nlbp"][0] == 0
    assert m["sdp_admm.wasted_iter_share"][0] == 1.0
    assert m["sdp_admm.status.infeasible"][0] == 1
    assert m["baselines.solver_errors"][0] == 1  # counted at the method span only
    assert m["baselines.solver_errors.LinAlgError"][0] == 1
    # 2 ms sampling + 7 ms solve are attributed; the method span's 1 ms is not
    assert m["trace.unattributed_share"][0] == pytest.approx(0.1)


def test_same_seed_gives_identical_digests_and_iterations_traced_or_not():
    first = worker.run_chunks("table1", 7, 0.0, 1)
    second = worker.run_chunks("table1", 7, 0.0, 1)
    tracer = Tracer()
    traced = worker.run_chunks("table1", 7, 0.0, 1, tracer)
    assert first["trials"] == worker.CHUNK_TRIALS["table1"]
    for other in (second, traced):
        assert other["csv_sha256"] == first["csv_sha256"]
        assert other["iterations"] == first["iterations"]
    m = layer_metrics(tracer, traced["trial_ms"])
    assert m["sdp_admm.wasted_iter_share"][0] > 0  # QBP systems are inconsistent
    assert m["lifting.dim"][0] == 21 and m["lifting.constraints"][0] == 66
    assert 0 <= m["trace.unattributed_share"][0] < 0.05


# run_experiment's summary takes quantiles of all-inf residuals, which numpy warns about
@pytest.mark.filterwarnings("ignore:invalid value encountered:RuntimeWarning")
def test_a_raising_solver_counts_as_failed(monkeypatch):
    import numpy.linalg

    def broken(X):
        raise numpy.linalg.LinAlgError("no convergence")

    monkeypatch.setattr(sdp_admm, "project_psd", broken)
    tracer = Tracer()
    out = worker.run_chunks("table1", 7, 0.0, 1, tracer)
    trials = worker.CHUNK_TRIALS["table1"]
    assert out["failed"] == trials and out["nlbp_successes"] == 0
    m = layer_metrics(tracer, out["trial_ms"])
    assert m["baselines.solver_errors.SolverError"][0] == 2 * trials  # NLBP and QBP
    assert m["baselines.solver_errors"][0] == 2 * trials


def test_another_seed_gives_other_inputs():
    assert worker.run_chunks("table1", 8, 0.0, 1)["csv_sha256"] != \
        worker.run_chunks("table1", 7, 0.0, 1)["csv_sha256"]


def test_tail_percentile_keeps_ten_samples_beyond():
    assert run.tail_percentile(100) == 90
    assert run.tail_percentile(30) == 66
    assert run.tail_percentile(10) == 0
    for n in (11, 30, 75, 101, 250):
        p = run.tail_percentile(n)
        assert n - np.ceil(n * p / 100) >= 10


def test_a_run_off_the_cpu_is_refused(monkeypatch):
    fake = {"trial_ms": [100.0, 100.0], "trial_cpu_ms": [30.0, 30.0],
            "trial_scaled_ms": [60.0, 60.0], "ref_ms": [12.5, 12.5], "trials": 2,
            "nlbp_successes": 2, "peak_rss_mb": 40.0}
    monkeypatch.setattr(run, "run_worker", lambda args: (fake, 0.4, 0.8))
    with pytest.raises(run.BenchmarkError, match="CPU"):
        run.end_to_end("table1", 1, 1)
    fake["trial_cpu_ms"] = [97.0, 99.0]
    fake["trial_scaled_ms"] = [194.0, 198.0]
    metrics, _ = run.end_to_end("table1", 1, 1)
    assert metrics["trials_per_s"][0] == pytest.approx(2 / 0.392)
    assert metrics["trial_ms_p50"][0] == pytest.approx(196.0)
    assert metrics["setup_s"][0] == pytest.approx(0.8)


def test_a_run_reads_the_reference_once_before_and_after_every_trial(monkeypatch):
    readings = []

    def reading():
        readings.append(worker.reference.NOMINAL_MS)
        return readings[-1]

    monkeypatch.setattr(worker.reference, "measure_ms", reading)
    out = worker.run_chunks("table1", 7, 0.0, 2)
    assert out["trials"] == 2 * worker.CHUNK_TRIALS["table1"]
    assert out["ref_ms"] == readings and len(readings) == out["trials"] + 1
    assert out["trial_scaled_ms"] == pytest.approx(out["trial_cpu_ms"])


def test_a_trial_is_scaled_by_the_readings_around_it():
    nominal = worker.reference.NOMINAL_MS
    cpu = [10.0, 20.0, 30.0]
    assert worker.scaled(cpu, [nominal] * 4) == pytest.approx(cpu)
    assert worker.scaled(cpu, [2 * nominal] * 4) == pytest.approx([5.0, 10.0, 15.0])
    assert worker.scaled(cpu, [nominal, 3 * nominal, nominal, nominal]) == \
        pytest.approx([5.0, 10.0, 30.0])


def test_reference_kernel_never_calls_the_program():
    tracer = Tracer()
    tracer.install_nlbp()
    try:
        worker.reference.measure_ms()
    finally:
        tracer.uninstall()
    assert tracer.names == []


def test_fails_without_the_program_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "table1", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
