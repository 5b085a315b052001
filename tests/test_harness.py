import math

import numpy as np
import pytest

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
        from nlbp.monomials import eval_polynomial
        spec = tiny_spec()
        polys, x, values = sample_trial(spec, 0)
        again = np.array([eval_polynomial(p, x) for p in polys])
        assert np.array_equal(values, again)


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
        assert Method.NLBP in art.lifted
        assert Method.NLBP in art.results
        assert art.lifted[Method.NLBP].problem.dim == 21


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
            assert nlbp.extraction_valid and nlbp.polished
            assert nlbp.error == ""
            assert record.outcomes[Method.LASSO].status == ""

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
        assert outcomes[Method.LASSO].error == ""
