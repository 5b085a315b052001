import dataclasses
import hashlib
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import nlbp
from nlbp.baselines import Method
from nlbp.harness import (
    BOXPLOT_HEADER,
    RESULTS_HEADER,
    ExperimentSpec,
    MethodOutcome,
    TrialRecord,
    dense_spec,
    emit_boxplot_data,
    five_number_summary,
    results_to_csv,
    run_experiment,
    sample_trial,
    table1_spec,
)
from nlbp.sdp_admm import SolverError
from poly_terms import assert_within_sum_bound


def tiny_spec(**overrides):
    base = dict(trials=2, seed=5, num_equations=40)
    base.update(overrides)
    return table1_spec(**base)


@pytest.fixture(scope="module")
def small_result():
    return run_experiment(tiny_spec())


class TestSpecs:
    def test_table1_preset(self):
        spec = table1_spec()
        assert (spec.num_vars, spec.num_equations, spec.order) == (5, 50, 4)
        assert spec.sparsity == 2
        assert spec.trials == 100
        assert spec.lam == 0.0
        assert spec.methods == (Method.NLBP, Method.QBP, Method.LASSO)

    def test_dense_preset(self):
        spec = dense_spec()
        assert (spec.num_vars, spec.num_equations, spec.order) == (5, 60, 4)
        assert spec.sparsity == "dense"
        assert spec.planted_std == 10.0
        assert spec.lam == 0.0

    def test_validation(self):
        with pytest.raises(ValueError):
            table1_spec(trials=0)
        with pytest.raises(ValueError):
            table1_spec(sparsity=9)
        with pytest.raises(ValueError):
            dense_spec(order=3)
        # refused when the spec is built, not inside the first trial
        with pytest.raises(ValueError, match="num_vars"):
            dense_spec(num_vars=0)
        with pytest.raises(ValueError, match="num_equations"):
            table1_spec(num_equations=0)
        with pytest.raises(ValueError, match="planted_std"):
            dense_spec(planted_std=-1.0)
        with pytest.raises(ValueError, match="sparsity"):
            table1_spec(sparsity=True)
        with pytest.raises(ValueError, match="lam"):
            table1_spec(lam=-0.1)
        # each of these used to build a spec whose first trial failed: an
        # order of 0 or -2 in the lift, a negative seed in SeedSequence, a
        # float or a bool count when an array was sized by it
        for field, bad in (("order", 0), ("order", -2), ("seed", -1),
                           ("num_vars", 2.0), ("num_equations", True),
                           ("trials", 1.0), ("seed", 4.2)):
            with pytest.raises(ValueError, match=field):
                table1_spec(**{field: bad})
        assert table1_spec(seed=0).seed == 0
        # nan fails every comparison, and inf would run a 60,000-iteration
        # solve per trial and write lambda=inf into the CSV
        for bad in (math.nan, math.inf):
            with pytest.raises(ValueError, match="lam"):
                table1_spec(lam=bad)
            with pytest.raises(ValueError, match="planted_std"):
                dense_spec(planted_std=bad)
            with pytest.raises(ValueError, match="coeff_std"):
                dense_spec(coeff_std=bad)
        assert dense_spec(planted_std=0.0).planted_std == 0.0


class TestSampleTrial:
    def test_deterministic(self):
        spec = tiny_spec()
        a_polys, a_x, a_vals = sample_trial(spec, 1)
        b_polys, b_x, b_vals = sample_trial(spec, 1)
        assert a_polys == b_polys
        assert np.array_equal(a_x, b_x)
        assert np.array_equal(a_vals, b_vals)

    def test_trials_differ(self):
        spec = tiny_spec()
        a_polys, _, _ = sample_trial(spec, 0)
        b_polys, _, _ = sample_trial(spec, 1)
        assert a_polys != b_polys

    def test_sparse_plant_structure(self):
        spec = tiny_spec()
        for t in range(5):
            _, x, _ = sample_trial(spec, t)
            assert np.sum(x == 1.0) == 2
            assert np.sum(x == 0.0) == 3

    def test_dense_plant_structure(self):
        spec = dense_spec(trials=1, seed=3, num_equations=6)
        _, x, _ = sample_trial(spec, 0)
        assert x.shape == (5,)
        assert np.all(x != 0.0)

    def test_values_consistent_with_plant(self):
        from nlbp.monomials import PolySystem, monomial_vector
        spec = tiny_spec()
        polys, x, values = sample_trial(spec, 0)
        assert np.array_equal(values, polys.evaluate(x))
        # one row at a time, BLAS may add a row's terms in another order
        again = [PolySystem(spec.num_vars, spec.order, row[None]).evaluate(x)[0]
                 for row in polys.coeffs]
        scale = np.abs(polys.coeffs) @ np.abs(monomial_vector(x, polys.exponents))
        assert_within_sum_bound(again, values, scale, polys.coeffs.shape[1])


class TestRunExperiment:
    def test_structure_and_summary(self, small_result):
        spec = small_result.spec
        assert len(small_result.records) == 2
        for t, record in enumerate(small_result.records):
            assert record.trial_index == t
            assert set(record.outcomes) == set(spec.methods)
        for method in spec.methods:
            flags = [r.outcomes[method].success for r in small_result.records]
            assert small_result.summary[method].success_rate == sum(flags) / len(flags)

    def test_planted_consistency_gives_nlbp_success(self, small_result):
        assert small_result.summary[Method.NLBP].success_rate == 1.0

    def test_no_artifacts_by_default(self, small_result):
        assert small_result.artifacts is None

    def test_artifacts_kept_on_request(self):
        result = run_experiment(tiny_spec(trials=1), keep_artifacts=True)
        assert result.artifacts is not None
        assert len(result.artifacts) == 1
        art = result.artifacts[0]
        assert list(art) == list(result.spec.methods)
        assert art[Method.NLBP].problem.dim == 21
        assert art[Method.LASSO].problem is None


class TestQuartiles:
    def test_five_number_summary_matches_sort_oracle(self):
        rng = np.random.default_rng(0)
        for size in (1, 2, 3, 7, 100):
            data = rng.normal(size=size)
            mn, q1, med, q3, mx = five_number_summary(data)
            s = np.sort(data)

            def type7(p):
                h = (len(s) - 1) * p
                lo = math.floor(h)
                hi = math.ceil(h)
                return s[lo] + (h - lo) * (s[hi] - s[lo])

            assert mn == pytest.approx(s[0])
            assert mx == pytest.approx(s[-1])
            assert q1 == pytest.approx(type7(0.25))
            assert med == pytest.approx(type7(0.5))
            assert q3 == pytest.approx(type7(0.75))

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            five_number_summary([])

    def test_finite_input_equals_np_quantile_bitwise(self):
        rng = np.random.default_rng(1)
        for size in (1, 2, 3, 7, 100):
            data = rng.lognormal(size=size) * 10.0 ** rng.integers(-30, 10, size)
            expected = np.quantile(data, [0.0, 0.25, 0.5, 0.75, 1.0])
            assert five_number_summary(data) == tuple(float(v) for v in expected)

    def test_infinite_residuals_do_not_blank_the_summary(self):
        inf = math.inf
        assert five_number_summary([1.0, inf, inf]) == (1.0, inf, inf, inf, inf)
        assert five_number_summary([inf]) == (inf,) * 5
        assert five_number_summary([2.0, 1.0, 4.0, 3.0, inf]) == (1.0, 2.0, 3.0, 4.0, inf)
        assert five_number_summary([1.0, 2.0, inf]) == (1.0, 1.5, 2.0, inf, inf)


def fake_records(residuals_by_method):
    n = len(next(iter(residuals_by_method.values())))
    records = []
    for t in range(n):
        outcomes = {
            m: MethodOutcome(success=False, residual_sq=vals[t],
                             rank1_ratio=math.nan, iterations=0, wall_time_ms=0.0)
            for m, vals in residuals_by_method.items()
        }
        records.append(TrialRecord(trial_index=t, outcomes=outcomes))
    return records


class TestCsvOutput:
    def test_header_and_row_count(self, small_result):
        text = results_to_csv(small_result)
        lines = text.splitlines()
        assert lines[0] == RESULTS_HEADER
        data_rows = [l for l in lines if l and not l.startswith("#")]
        # header row plus trials * methods
        assert len(data_rows) == 1 + 2 * 3
        assert data_rows[0].split(",") == [
            "trial", "method", "success", "residual_sq", "rank1_ratio", "iterations"]

    def test_byte_identical_across_runs(self, small_result):
        again = results_to_csv(run_experiment(small_result.spec))
        assert results_to_csv(small_result) == again

    def test_timings_opt_in(self, small_result):
        with_timings = results_to_csv(small_result, include_timings=True)
        assert "wall_time_ms" in with_timings
        assert "wall_time_ms" not in results_to_csv(small_result)

    def test_summary_block_present(self, small_result):
        text = results_to_csv(small_result)
        assert "# summary" in text
        for method in (Method.NLBP, Method.QBP, Method.LASSO):
            assert any(line.startswith(f"# {method.value},")
                       for line in text.splitlines())


class TestBoxplotData:
    def test_single_record_all_stats_equal(self):
        records = fake_records({Method.NLBP: [2.5]})
        lines = emit_boxplot_data(records).splitlines()
        assert lines[0] == BOXPLOT_HEADER
        stats = {l.split(",")[1]: float(l.split(",")[2])
                 for l in lines[2:] if l}
        assert set(stats) == {"min", "q1", "median", "q3", "max"}
        assert all(v == 2.5 for v in stats.values())

    def test_log10_column(self):
        records = fake_records({Method.NLBP: [100.0] * 4})
        for line in emit_boxplot_data(records).splitlines()[2:]:
            parts = line.split(",")
            assert float(parts[3]) == pytest.approx(2.0)

    def test_outliers_emitted(self):
        vals = [1.0, 1.1, 0.9, 1.05, 0.95, 1e6]
        records = fake_records({Method.QBP: vals})
        outliers = [l for l in emit_boxplot_data(records).splitlines()
                    if ",outlier," in l]
        assert len(outliers) == 1
        assert float(outliers[0].split(",")[2]) == 1e6

    def test_quartiles_match_sort_oracle(self):
        rng = np.random.default_rng(1)
        vals = list(rng.uniform(0, 10, size=30))
        records = fake_records({Method.NLBP: vals})
        lines = emit_boxplot_data(records).splitlines()
        med = [float(l.split(",")[2]) for l in lines if ",median," in l][0]
        assert med == pytest.approx(np.quantile(vals, 0.5))

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            emit_boxplot_data([])


class TestOutcomeDiagnostics:
    def test_lifted_diagnostics_are_recorded(self, small_result):
        for record in small_result.records:
            nlbp = record.outcomes[Method.NLBP]
            assert nlbp.status == "converged"
            assert nlbp.extraction_valid
            assert nlbp.error == ""
            assert record.outcomes[Method.LASSO].status == ""

    def test_exactly_the_valid_extractions_are_polished(self, monkeypatch):
        # extraction_valid also records the polish: refine_solution runs once
        # per valid extraction, on its estimate, and never on an invalid one.
        # This ensemble has valid and invalid QBP extractions, and a valid one
        # of a solve stopped as infeasible.
        from nlbp import baselines

        starts = []
        refine = baselines.refine_solution

        def counted(system, values, x0):
            starts.append(np.array(x0))
            return refine(system, values, x0)

        monkeypatch.setattr(baselines, "refine_solution", counted)
        result = run_experiment(table1_spec(trials=3, seed=1, num_vars=3,
                                            num_equations=12), keep_artifacts=True)
        valid = []
        for record, art in zip(result.records, result.artifacts):
            # every outcome is what its kept run holds; LASSO has no problem,
            # report or extraction
            assert list(art) == list(result.spec.methods)
            for method, run in art.items():
                o = record.outcomes[method]
                assert o.residual_sq == run.residual_sq
                if method is Method.LASSO:
                    assert run.problem is None and run.report is None
                    assert run.recovered is None
                    assert (o.iterations, o.status, o.extraction_valid) == (0, "", False)
                    assert math.isnan(o.rank1_ratio)
                    continue
                assert o.iterations == run.report.iterations
                assert o.status == run.report.status.value
                assert o.rank1_ratio == run.recovered.rank1_ratio
                assert o.extraction_valid == run.recovered.valid
                if run.recovered.valid:
                    valid.append(run.recovered.x)
        assert len(starts) == len(valid) == 4
        for x0, x in zip(starts, valid):
            assert np.array_equal(x0, x)
        qbp = [r.outcomes[Method.QBP] for r in result.records]
        assert sum(not o.extraction_valid for o in qbp) == 2
        assert any(o.extraction_valid and o.status == "infeasible" for o in qbp)

    @pytest.mark.parametrize("error", [SolverError("injected", 3),
                                       np.linalg.LinAlgError("injected")])
    def test_solver_exception_class_is_recorded(self, monkeypatch, error):
        from nlbp import baselines

        def fail(*args, **kwargs):
            raise error

        monkeypatch.setattr(baselines, "solve_nlbp", fail)
        result = run_experiment(tiny_spec(trials=1))
        outcomes = result.records[0].outcomes
        for method in (Method.NLBP, Method.QBP):
            o = outcomes[method]
            assert o.error == type(error).__name__
            assert not o.success and math.isinf(o.residual_sq)
            assert o.iterations == 0 and math.isnan(o.rank1_ratio)
            assert result.summary[method].residual_min == math.inf
        assert outcomes[Method.LASSO].error == ""

    def test_rho_overflow_is_recorded_as_a_solver_error(self):
        # the QBP lift of this trial holds no PSD point, and its penalty
        # overflows at iteration 25,600 (see test_sdp_admm): the ensemble
        # records the failure and goes on
        spec = table1_spec(trials=1, seed=7, num_equations=8, methods=(Method.QBP,))
        result = run_experiment(spec)
        outcome = result.records[0].outcomes[Method.QBP]
        assert outcome.error == "SolverError"
        assert not outcome.success and math.isinf(outcome.residual_sq)
        assert result.summary[Method.QBP].success_rate == 0.0

    @pytest.mark.parametrize("method", list(Method))
    def test_one_residual_sum_per_method_and_trial(self, monkeypatch, method):
        from nlbp import baselines

        calls = []
        residual = baselines.system_residual_sq

        def counted(*args):
            calls.append(args)
            return residual(*args)

        monkeypatch.setattr(baselines, "system_residual_sq", counted)
        result = run_experiment(tiny_spec(methods=(method,)))
        assert len(calls) == result.spec.trials
        for record, (polys, values, x_hat) in zip(result.records, list(calls)):
            o = record.outcomes[method]
            assert o.residual_sq == residual(polys, values, x_hat)
            x_true = sample_trial(result.spec, record.trial_index)[1]
            assert o.success == baselines.success_criterion(x_hat, x_true, polys, values)


class TestMethodIsolation:
    def test_qbp_neither_iterates_nor_touches_the_other_methods(self):
        # every QBP system of table1 is proven inconsistent before the first
        # iteration; dropping QBP leaves NLBP and LASSO outcomes as they were
        full = run_experiment(table1_spec(trials=5))
        pair = run_experiment(table1_spec(trials=5, methods=(Method.NLBP, Method.LASSO)))

        def timeless(outcome):
            return dataclasses.replace(outcome, wall_time_ms=0.0)

        for whole, part in zip(full.records, pair.records, strict=True):
            qbp = whole.outcomes[Method.QBP]
            assert qbp.status == "infeasible" and qbp.iterations == 0
            assert set(part.outcomes) == {Method.NLBP, Method.LASSO}
            for method, outcome in part.outcomes.items():
                assert timeless(outcome) == timeless(whole.outcomes[method])


def csv_sha256(spec) -> str:
    return hashlib.sha256(results_to_csv(run_experiment(spec)).encode()).hexdigest()


def csv_sha256_in_child(spec_code: str, blas_threads: int) -> str:
    """``csv_sha256`` of the spec that ``spec_code`` builds, run in a child
    process whose BLAS is pinned to ``blas_threads`` threads."""
    env = dict(os.environ, PYTHONPATH=str(Path(nlbp.__file__).parent.parent))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(blas_threads)
    code = (
        "import hashlib\n"
        "from nlbp.baselines import Method\n"
        "from nlbp.harness import dense_spec, results_to_csv, run_experiment, table1_spec\n"
        f"spec = {spec_code}\n"
        "csv = results_to_csv(run_experiment(spec))\n"
        "print(hashlib.sha256(csv.encode()).hexdigest())\n"
    )
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True, timeout=300)
    return out.stdout.strip()


class TestGoldenDigests:
    """sha256 of ``results_to_csv`` for fixed ensembles. A change that moves
    any byte of the solver's output fails here and has to say why."""

    @pytest.mark.parametrize("make_spec, digest", [
        (table1_spec, "5b84f9188e583ab6ac401943c3bf4194ddbab7d048a0e6f61676d072118a17ff"),
        (dense_spec, "e7a05cb6500839d03a6080d52219b6b11942b6c48a3b74d39c5a8e3af389b388"),
    ], ids=["table1", "dense"])
    def test_n5_ensembles(self, make_spec, digest):
        # at n = 5 the bytes do not depend on the BLAS thread count: the
        # ensemble hashes the same here and in children pinned to 1 and 2
        assert csv_sha256(make_spec(trials=5, seed=1000)) == digest
        spec_code = f"{make_spec.__name__}(trials=5, seed=1000)"
        assert [csv_sha256_in_child(spec_code, k) for k in (1, 2)] == [digest, digest]

    def test_sparse_n8_with_one_and_two_blas_threads(self):
        # at n = 8 too, since the lift's dependency rows are folded and its
        # Gram matrix split: the one-trial ensemble hashes the same in
        # children pinned to 1 and 2 threads
        spec_code = ("table1_spec(trials=1, seed=1000, num_vars=8, num_equations=120, "
                     "methods=(Method.NLBP,))")
        digest = "d38108984ca8aa4659ca3f2dc5c2975ab3d83ce545c2fd04453d29bfc9d13c9c"
        assert [csv_sha256_in_child(spec_code, k) for k in (1, 2)] == [digest, digest]


def test_trial_path_loads_no_scipy():
    # scipy's LAPACK wrappers would offer a faster PSD projection, but
    # importing them costs about as much as the whole set-up of a run
    env = dict(os.environ, PYTHONPATH=str(Path(nlbp.__file__).parent.parent))
    code = (
        "import sys\n"
        "from nlbp.harness import run_experiment, table1_spec\n"
        "run_experiment(table1_spec(trials=1))\n"
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n"
    )
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True, timeout=300)
    assert out.stdout.strip() == "[]"


def test_file_formats_stay_off_the_trial_path():
    # the JSON readers and writers live in nlbp.cli alone: a trial loads
    # neither it nor argparse and json, and the numerical modules define and
    # import no file-format name
    env = dict(os.environ, PYTHONPATH=str(Path(nlbp.__file__).parent.parent))
    code = (
        "import sys\n"
        "from nlbp import lifting, monomials, sdp_admm\n"
        "from nlbp.harness import run_experiment, table1_spec\n"
        "run_experiment(table1_spec(trials=1))\n"
        "print(sorted({'nlbp.cli', 'argparse', 'json'} & set(sys.modules)))\n"
        "print(sorted(f'{m.__name__}.{name}' for m in (lifting, monomials, sdp_admm)\n"
        "             for name in dir(m) if 'json' in name or name.startswith('checked_')))\n"
    )
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True, timeout=300)
    assert out.stdout.splitlines() == ["[]", "[]"]


def test_perfbench_tracer_finds_every_layer_it_wraps(monkeypatch):
    # perfbench's tracer wraps layer functions by module and name; a source
    # change that renames or deletes one leaves that layer's metrics at zero,
    # and perfbench's own suite is not part of this one. One traced trial runs
    # the tracer's callbacks too, which read fields of the solve report, the
    # AffineCache and the extraction.
    import importlib.util

    path = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracer", path)
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, module)  # its dataclasses look it up
    spec.loader.exec_module(module)
    tracer = module.Tracer()
    try:
        tracer.install_nlbp()
        installed = list(tracer._installed)
        assert tracer.missing == []
        assert installed
        for owner, attr, raw in installed:
            assert vars(owner)[attr] is not raw
        run_experiment(table1_spec(trials=1, seed=0, num_vars=3, num_equations=12))
        assert tracer.caches and tracer.solves and tracer.extractions
        assert tracer.errors == []
        # sdp_admm.solve.*.ms subtracts the cache build nested in the solve;
        # a build anywhere else (an eager one in the lift, say) would skew it
        assert all(tracer.names[c.solve_span] == "sdp_admm.solve"
                   for c in tracer.caches)
    finally:
        tracer.uninstall()
    for owner, attr, raw in installed:
        assert vars(owner)[attr] is raw
