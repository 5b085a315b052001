import hashlib
import json

import numpy as np
import pytest

from nlbp import cli
from nlbp.cli import _build_parser, _problem_from_json, cli_main
from nlbp.monomials import exponent_table, random_polynomial
from nlbp.sdp_admm import SolverConfig
from poly_terms import problem_json, stack, system_of


def write_problem(path, system, values):
    path.write_text(json.dumps(problem_json(system, values)))


@pytest.fixture
def trivial_problem_file(tmp_path):
    path = tmp_path / "problem.json"
    write_problem(path, system_of(1, {(1,): 1.0}), [1.0])
    return path


class TestLift:
    def test_writes_lifted_json(self, tmp_path, trivial_problem_file):
        out = tmp_path / "lifted.json"
        code = cli_main(["lift", str(trivial_problem_file), "-o", str(out)])
        assert code == 0
        data = json.loads(out.read_text())
        assert len(data["basis"]) == 2
        assert data["order"] == 2

    def test_fourth_order_basis_size(self, tmp_path):
        # two variables at order four: six basis monomials
        polys = random_polynomial(2, 4, 1, 1.0)
        path = tmp_path / "p.json"
        write_problem(path, polys, [0.0])
        out = tmp_path / "lifted.json"
        assert cli_main(["lift", str(path), "--q", "4", "-o", str(out)]) == 0
        assert len(json.loads(out.read_text())["basis"]) == 6

    def test_no_dedup_flag_rejected(self, tmp_path, capsys):
        polys = random_polynomial(2, 4, 2, 1.0)
        path = tmp_path / "p.json"
        write_problem(path, polys, [0.0])
        assert cli_main(["lift", str(path), "--no-dedup"]) == 1
        assert "--no-dedup" in capsys.readouterr().err

    def test_malformed_json_exits_1_with_location(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text('{"polynomials": [,]}')
        assert cli_main(["lift", str(bad)]) == 1
        err = capsys.readouterr().err
        assert "bad.json:1:" in err

    def test_missing_file_exits_1(self, capsys):
        assert cli_main(["lift", "/nonexistent/x.json"]) == 1
        assert "no such file" in capsys.readouterr().err

    def test_missing_field_exits_1(self, tmp_path, capsys):
        path = tmp_path / "p.json"
        path.write_text(json.dumps({"polynomials": []}))
        assert cli_main(["lift", str(path)]) == 1
        assert "values" in capsys.readouterr().err

    # n = 3, degrees up to 4, a repeated x2 term (0.1 + 0.2 rounds up), an
    # exponent written as 2.0, and a zero degree-5 term that must not raise
    # the default order to 6
    SPARSE_PROBLEM = {
        "polynomials": [
            {"num_vars": 3, "terms": [
                {"alpha": [0, 0, 0], "coeff": 1.5},
                {"alpha": [1, 0, 0], "coeff": -2.0},
                {"alpha": [0, 1, 0], "coeff": 0.1},
                {"alpha": [2.0, 1, 1], "coeff": 0.75},
                {"alpha": [0, 1, 0], "coeff": 0.2}]},
            {"num_vars": 3, "terms": [
                {"alpha": [0, 0, 2], "coeff": 3.0},
                {"alpha": [0, 2, 3], "coeff": 0.0},
                {"alpha": [0, 0, 1], "coeff": -1.25},
                {"alpha": [0, 3, 0], "coeff": 0.125}]},
            {"num_vars": 3, "terms": [
                {"alpha": [0, 2, 2], "coeff": -0.5},
                {"alpha": [1, 0, 0], "coeff": 1.0}]}],
        "values": [1.0, -2.5, 0.75],
    }

    def test_sparse_problem_lift_is_pinned(self, tmp_path):
        path = tmp_path / "sparse.json"
        path.write_text(json.dumps(self.SPARSE_PROBLEM))
        out = tmp_path / "lifted.json"
        assert cli_main(["lift", str(path), "-o", str(out)]) == 0
        assert json.loads(out.read_text())["order"] == 4
        assert hashlib.sha256(out.read_bytes()).hexdigest() == (
            "a2471f07d9a27f9b2da8003436d1af699ba1b9695fec54e9d3ac8bfc595f4598")


class TestProblemFile:
    """``_problem_from_json``: a problem file straight into a PolySystem."""

    def test_keeps_the_monomials_that_occur(self):
        data = {"polynomials": [
            {"num_vars": 2, "terms": [{"alpha": [1, 1], "coeff": -2.0},
                                      {"alpha": [0, 0], "coeff": 1.5},
                                      {"alpha": [2, 0], "coeff": 0.0}]},
            {"num_vars": 2, "terms": [{"alpha": [0, 1], "coeff": 3.0}]}],
            "values": [0.0, 1.0]}
        system, values = _problem_from_json(data)
        assert values == [0.0, 1.0]
        assert system.degree == 2
        assert system.exponents.tolist() == [[0, 0], [0, 1], [1, 1]]
        assert system.coeffs.tolist() == [[1.5, 0.0, -2.0], [0.0, 3.0, 0.0]]
        # a system that uses every monomial shares the full table
        full = stack([random_polynomial(3, 4, s, 1.0) for s in range(3)])
        again, _ = _problem_from_json(problem_json(full, [0.0] * 3))
        assert again.exponents is exponent_table(3, 4)
        assert again == full

    def test_sparse_high_degree_file_costs_one_column(self):
        data = {"polynomials": [{"num_vars": 8, "terms": [
            {"alpha": [25, 0, 0, 0, 0, 0, 0, 0], "coeff": 2.0}]}], "values": [2.0]}
        system, _ = _problem_from_json(data)
        assert system.degree == 25 and system.coeffs.shape == (1, 1)

    def test_repeated_terms_summed_in_file_order(self):
        terms = [{"alpha": [1], "coeff": c} for c in (0.1, 0.2, -0.3)]
        data = {"polynomials": [{"num_vars": 1, "terms": terms}], "values": [0.0]}
        system, _ = _problem_from_json(data)
        assert system.coeffs.tolist() == [[(0.1 + 0.2) - 0.3]]


class TestSolveRecoverCertify:
    def run_pipeline(self, tmp_path, problem_file, solve_args=()):
        lifted = tmp_path / "lifted.json"
        report = tmp_path / "report.json"
        solution = tmp_path / "solution.json"
        assert cli_main(["lift", str(problem_file), "-o", str(lifted)]) == 0
        code = cli_main(["solve", str(lifted), "--dump-x", "-o", str(report),
                         *solve_args])
        assert code == 0
        assert cli_main(["recover", str(report), str(lifted),
                         "-o", str(solution)]) == 0
        return lifted, report, solution

    def test_end_to_end_trivial(self, tmp_path, trivial_problem_file):
        lifted, report, solution = self.run_pipeline(tmp_path, trivial_problem_file)
        rep = json.loads(report.read_text())
        assert rep["status"] == "converged"
        sol = json.loads(solution.read_text())
        assert sol["valid"]
        assert abs(sol["x"][0] - 1.0) < 1e-3

    def test_certify_outputs_fields(self, tmp_path, trivial_problem_file, capsys):
        # x = 1 is the unique optimum: X = [[1, 1], [1, t]] is PSD only for
        # t >= 1, and the dual slack is [[1, -1], [-1, 1]].
        lifted, report, _ = self.run_pipeline(
            tmp_path, trivial_problem_file, ["--eps-abs", "1e-12", "--eps-rel", "1e-11"])
        capsys.readouterr()
        assert cli_main(["certify", str(lifted), str(report)]) == 0
        cert = json.loads(capsys.readouterr().out)
        assert set(cert) == {"slack_norm", "min_eigenvalue", "second_eigenvalue",
                             "complementarity", "dual_residual", "primal_residual",
                             "duality_gap", "l1_multiplier", "holds"}
        assert cert["holds"] is True
        assert cert["slack_norm"] == pytest.approx(2.0, rel=1e-4)
        assert cert["second_eigenvalue"] == pytest.approx(1.0, rel=1e-4)

    def test_certify_holds_after_a_default_solve(self, tmp_path, trivial_problem_file,
                                                 capsys):
        lifted, report, _ = self.run_pipeline(tmp_path, trivial_problem_file)
        capsys.readouterr()
        assert cli_main(["certify", str(lifted), str(report)]) == 0
        assert json.loads(capsys.readouterr().out)["holds"] is True

    def test_solve_recover_certify_output_is_pinned(self, tmp_path, trivial_problem_file):
        # a writer that reorders keys or reformats numbers changes these bytes
        lifted, report, solution = self.run_pipeline(tmp_path, trivial_problem_file)
        cert = tmp_path / "cert.json"
        assert cli_main(["certify", str(lifted), str(report), "-o", str(cert)]) == 0
        digests = {path.name: hashlib.sha256(path.read_bytes()).hexdigest()
                   for path in (report, solution, cert)}
        assert digests == {
            "report.json": "6bda5d160d533a3e6684a710ffb9c2594922afc6429d1cc75b95e5c09f01aeb1",
            "solution.json": "c5d1307e3f9b7d4b0993af87af9080a2b81deefc216b085540be3ef51d6754cc",
            "cert.json": "6b7e5d82a2c4d7179122653b7d71bc40bf13aabce93f9f7a3d34f97102bb8c3d",
        }

    def test_solve_defaults_are_the_solver_config_defaults(self):
        args = _build_parser().parse_args(["solve", "lifted.json"])
        assert SolverConfig(lam=args.lam, rho=args.rho, max_iters=args.max_iters,
                            eps_abs=args.eps_abs, eps_rel=args.eps_rel) == SolverConfig()

    @pytest.mark.parametrize("dump_x", [False, True])
    def test_certify_without_multipliers_exits_1(self, tmp_path, trivial_problem_file,
                                                 capsys, dump_x):
        # a report written without --dump-x, or one that has the matrix but
        # not the multipliers (as earlier versions wrote it)
        lifted = tmp_path / "lifted.json"
        report = tmp_path / "report.json"
        assert cli_main(["lift", str(trivial_problem_file), "-o", str(lifted)]) == 0
        args = ["solve", str(lifted), "-o", str(report)]
        assert cli_main(args + ["--dump-x"] * dump_x) == 0
        data = json.loads(report.read_text())
        data.pop("dual_affine", None)
        report.write_text(json.dumps(data))
        assert cli_main(["certify", str(lifted), str(report)]) == 1
        assert "--dump-x" in capsys.readouterr().err

    def test_solve_reports_multipliers_and_infeasibility_lb(self, tmp_path,
                                                           trivial_problem_file):
        _, report, _ = self.run_pipeline(tmp_path, trivial_problem_file)
        rep = json.loads(report.read_text())
        assert rep["lambda"] == 0.0
        assert 0.0 <= rep["infeasibility_lb"] < 1e-12
        assert rep["rho"] > 0.0  # the penalty the solve ended with
        assert np.array(rep["dual_psd"]).shape == np.array(rep["X"]).shape == (2, 2)

    def test_recover_without_matrix_exits_1(self, tmp_path, trivial_problem_file,
                                            capsys):
        lifted = tmp_path / "lifted.json"
        report = tmp_path / "report.json"
        assert cli_main(["lift", str(trivial_problem_file), "-o", str(lifted)]) == 0
        assert cli_main(["solve", str(lifted), "-o", str(report)]) == 0
        assert cli_main(["recover", str(report), str(lifted)]) == 1
        assert "--dump-x" in capsys.readouterr().err

    def solved(self, tmp_path, name, system, values, order):
        """(lifted file, report file) of a lift at order solved with --dump-x."""
        problem = tmp_path / f"{name}.json"
        write_problem(problem, system, values)
        lifted = tmp_path / f"{name}_lifted.json"
        report = tmp_path / f"{name}_report.json"
        assert cli_main(["lift", str(problem), "--q", str(order), "-o", str(lifted)]) == 0
        assert cli_main(["solve", str(lifted), "--dump-x", "-o", str(report)]) == 0
        return lifted, report

    def test_report_of_another_lift_exits_1(self, tmp_path, capsys):
        # n = 2 at order 2 has dim 3, n = 3 at order 4 has dim 10; each report
        # is read against the other lift, in both commands
        small = self.solved(tmp_path, "small", system_of(2, {(1, 0): 1.0}, {(0, 1): 1.0}),
                            [1.0, 2.0], 2)
        big = self.solved(tmp_path, "big", system_of(3, {(1, 0, 0): 1.0}, {(0, 1, 0): 1.0},
                                                     {(0, 0, 1): 1.0}), [1.0, 2.0, 1.0], 4)
        capsys.readouterr()
        for (lifted, _), (_, report), sizes in ((big, small, ("(3, 3)", "dim 10")),
                                                (small, big, ("(10, 10)", "dim 3"))):
            assert cli_main(["recover", str(report), str(lifted)]) == 1
            assert cli_main(["certify", str(lifted), str(report)]) == 1
            for err in capsys.readouterr().err.splitlines():
                assert err.startswith("error: ") and "X has shape" in err
                assert all(size in err for size in sizes)

    @pytest.mark.parametrize("key", ["X", "dual_affine", "dual_psd"])
    def test_non_square_report_matrix_exits_1(self, tmp_path, trivial_problem_file,
                                              capsys, key):
        lifted, report, _ = self.run_pipeline(tmp_path, trivial_problem_file)
        data = json.loads(report.read_text())
        data[key] = [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]]
        report.write_text(json.dumps(data))
        capsys.readouterr()
        assert cli_main(["certify", str(lifted), str(report)]) == 1
        err = capsys.readouterr().err
        assert f"{key} has shape (2, 3)" in err and "(2, 2)" in err
        assert cli_main(["recover", str(report), str(lifted)]) == (1 if key == "X" else 0)

    def test_problem_without_constraints_solves(self, tmp_path):
        # the violation over no rows is 0, not numpy's empty-max error
        lifted = tmp_path / "lifted.json"
        report = tmp_path / "report.json"
        lifted.write_text(json.dumps({"num_vars": 1, "order": 2, "basis": [[0], [1]],
                                      "constraints": []}))
        assert cli_main(["solve", str(lifted), "-o", str(report)]) == 0
        rep = json.loads(report.read_text())
        assert rep["status"] == "converged"
        assert rep["constraint_violation"] == 0.0

    def test_recover_writes_strict_json(self, tmp_path, capsys):
        # with no constraint rows the top eigenvector has no constant entry,
        # so lift_consistency is infinite: written as null, not Infinity
        lifted = tmp_path / "lifted.json"
        report = tmp_path / "report.json"
        lifted.write_text(json.dumps({"num_vars": 1, "order": 2, "basis": [[0], [1]],
                                      "constraints": []}))
        assert cli_main(["solve", str(lifted), "--dump-x", "-o", str(report)]) == 0
        capsys.readouterr()
        assert cli_main(["recover", str(report), str(lifted)]) == 0

        def refuse(name):
            raise ValueError(f"not strict JSON: {name}")

        out = json.loads(capsys.readouterr().out, parse_constant=refuse)
        assert out["lift_consistency"] is None
        assert out["valid"] is False

    def test_infeasible_problem_exits_2(self, tmp_path, capsys):
        path = tmp_path / "clash.json"
        write_problem(path, system_of(1, {(1,): 1.0}, {(1,): 1.0}), [0.0, 1.0])
        lifted = tmp_path / "lifted.json"
        report = tmp_path / "report.json"
        assert cli_main(["lift", str(path), "-o", str(lifted)]) == 0
        code = cli_main(["solve", str(lifted), "-o", str(report)])
        assert code == 2
        rep = json.loads(report.read_text())
        assert rep["status"] == "infeasible"
        assert rep["infeasibility_lb"] > 1e-6 * 2.0  # proven, not a plateau
        assert rep["iterations"] == 0
        assert rep["rho"] == SolverConfig.rho  # never balanced


class TestBench:
    def test_csv_deterministic(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        args = ["bench", "table1", "--trials", "2", "--seed", "9"]
        assert cli_main(args + ["-o", str(a)]) == 0
        assert cli_main(args + ["-o", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_boxplot_emission(self, tmp_path):
        out = tmp_path / "r.csv"
        box = tmp_path / "box.csv"
        assert cli_main(["bench", "dense", "--trials", "2", "--seed", "3",
                         "-o", str(out), "--boxplot", str(box)]) == 0
        assert box.read_text().startswith("# nlbp-boxplot v1")

    def test_timings_flag(self, tmp_path):
        out = tmp_path / "r.csv"
        assert cli_main(["bench", "table1", "--trials", "1", "--seed", "1",
                         "--timings", "-o", str(out)]) == 0
        assert "wall_time_ms" in out.read_text()


class TestOracle:
    def test_finds_planted_solution(self, tmp_path, capsys):
        polys = stack([random_polynomial(3, 2, 50 + j, 1.0) for j in range(6)])
        x = np.array([0.0, 2.0, 0.0])
        values = polys.evaluate(x)
        path = tmp_path / "p.json"
        write_problem(path, polys, values)
        assert cli_main(["oracle", str(path), "--max-support", "1"]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["found"]
        assert out["support"] == [1]
        assert abs(out["x"][1] - 2.0) < 1e-6

    def test_reports_not_found(self, tmp_path, capsys):
        polys = stack([random_polynomial(2, 2, 80 + j, 1.0) for j in range(8)])
        path = tmp_path / "p.json"
        write_problem(path, polys, np.arange(1.0, 9.0))
        assert cli_main(["oracle", str(path), "--max-support", "1"]) == 0
        assert json.loads(capsys.readouterr().out) == {"found": False}


    def test_starts_below_one_exits_1(self, tmp_path, capsys):
        polys = random_polynomial(2, 2, 90, 1.0)
        path = tmp_path / "p.json"
        write_problem(path, polys, [1.0])
        assert cli_main(["oracle", str(path), "--max-support", "1",
                         "--starts", "0"]) == 1
        assert "starts" in capsys.readouterr().err


class TestMalformedInput:
    TRIVIAL = {"polynomials": [{"num_vars": 1, "terms": [{"alpha": [1], "coeff": 1.0}]}],
               "values": [1.0]}

    @pytest.mark.parametrize("edit", [
        lambda d: d["values"].__setitem__(0, float("nan")),
        lambda d: d["polynomials"][0]["terms"][0].__setitem__("coeff", float("inf")),
        lambda d: d["polynomials"][0]["terms"][0].__setitem__("alpha", [1.5]),
        lambda d: d["polynomials"][0]["terms"][0].__setitem__("coeff", True),
        lambda d: d["polynomials"][0]["terms"][0].__setitem__("alpha", [True]),
        lambda d: d["values"].__setitem__(0, True),
        lambda d: d["polynomials"][0].__setitem__("num_vars", True),
        lambda d: d["polynomials"][0]["terms"][0].__setitem__("coeff", "1.0"),
        lambda d: d["polynomials"][0]["terms"][0].__setitem__("alpha", ["1"]),
        lambda d: d["values"].__setitem__(0, "1.0"),
        lambda d: d["polynomials"][0]["terms"][0].__setitem__("alpha", [-1]),
        lambda d: d["polynomials"][0]["terms"][0].__setitem__("alpha", [1, 0]),
        lambda d: d["polynomials"].append(
            {"num_vars": 2, "terms": [{"alpha": [1, 0], "coeff": 1.0}]}),
        lambda d: d.__setitem__("polynomials", []),
        lambda d: d["values"].append(2.0),
        lambda d: d["polynomials"][0]["terms"][0].__setitem__("coeff", 10 ** 400),
    ], ids=["nan_value", "inf_coeff", "fractional_exponent", "bool_coeff",
            "bool_exponent", "bool_value", "bool_num_vars", "string_coeff",
            "string_exponent", "string_value", "negative_exponent",
            "exponent_arity", "mixed_num_vars", "no_polynomials", "extra_value",
            "huge_integer_coeff"])
    def test_problem_file_rejected(self, tmp_path, capsys, edit):
        data = json.loads(json.dumps(self.TRIVIAL))
        edit(data)
        path = tmp_path / "p.json"
        path.write_text(json.dumps(data))
        assert cli_main(["lift", str(path)]) == 1
        assert "bad problem file" in capsys.readouterr().err

    def test_booleans_are_not_numbers(self, tmp_path, capsys):
        # read as numbers, this file would lift to 1.0 * x1 = 1.0, x2 = 2.0
        data = {"polynomials": [
            {"num_vars": 2, "terms": [{"alpha": [True, False], "coeff": True}]},
            {"num_vars": 2, "terms": [{"alpha": [0, 1], "coeff": 1.0}]}],
            "values": [2.0, True]}
        path = tmp_path / "p.json"
        path.write_text(json.dumps(data))
        assert cli_main(["lift", str(path)]) == 1
        assert "expected a number, got True" in capsys.readouterr().err

    def test_odd_order_lifted_file_rejected(self, tmp_path, capsys):
        problem = tmp_path / "p.json"
        problem.write_text(json.dumps(self.TRIVIAL))
        lifted = tmp_path / "lifted.json"
        assert cli_main(["lift", str(problem), "-o", str(lifted)]) == 0
        data = json.loads(lifted.read_text())
        assert data["order"] == 2
        data["order"] = 3
        lifted.write_text(json.dumps(data))
        capsys.readouterr()
        assert cli_main(["solve", str(lifted)]) == 1
        err = capsys.readouterr().err
        assert "bad lifted file" in err and "even" in err

    @pytest.mark.parametrize("args", [
        ["solve", "LIFTED", "--lambda", "nan"],
        ["solve", "LIFTED", "--rho", "nan"],
        ["solve", "LIFTED", "--eps-abs", "nan"],
        ["bench", "table1", "--trials", "1", "--lambda", "inf"],
    ], ids=["solve_lambda_nan", "solve_rho_nan", "solve_eps_abs_nan",
            "bench_lambda_inf"])
    def test_non_finite_setting_exits_1_before_any_iteration(
            self, tmp_path, capsys, monkeypatch, args):
        from nlbp import baselines, cli

        def never(*args, **kwargs):
            raise AssertionError("the solver ran")

        monkeypatch.setattr(cli, "solve_nlbp", never)
        monkeypatch.setattr(baselines, "solve_nlbp", never)
        problem = tmp_path / "p.json"
        problem.write_text(json.dumps(self.TRIVIAL))
        lifted = tmp_path / "lifted.json"
        assert cli_main(["lift", str(problem), "-o", str(lifted)]) == 0
        out = tmp_path / "out"
        argv = [str(lifted) if a == "LIFTED" else a for a in args]
        assert cli_main(argv + ["-o", str(out)]) == 1
        assert "finite" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("field,value", [
        ("row", -1), ("row", 9), ("col", 2), ("y", float("inf")), ("row", None),
    ])
    def test_lifted_file_rejected(self, tmp_path, capsys, field, value):
        problem = tmp_path / "p.json"
        problem.write_text(json.dumps(self.TRIVIAL))
        lifted = tmp_path / "lifted.json"
        assert cli_main(["lift", str(problem), "-o", str(lifted)]) == 0
        data = json.loads(lifted.read_text())
        constraint = data["constraints"][0]
        (constraint if field == "y" else constraint["entries"][0])[field] = value
        lifted.write_text(json.dumps(data))
        assert cli_main(["solve", str(lifted)]) == 1
        assert "bad lifted file" in capsys.readouterr().err

    @pytest.mark.parametrize("edit", [
        lambda d: d.__setitem__("iterations", True),
        lambda d: d.__setitem__("iterations", 1.5),
        lambda d: d.__setitem__("accelerated", -1),
        lambda d: d.__setitem__("objective", "1.5"),
        lambda d: d.__setitem__("rho", float("nan")),
        lambda d: d.__setitem__("lambda", -1.0),
        lambda d: d["X"][0].__setitem__(0, True),
        lambda d: d["dual_psd"][1].__setitem__(0, "0.5"),
        lambda d: d["dual_affine"][0].__setitem__(1, float("inf")),
        lambda d: d["X"].__setitem__(1, [1.0]),
    ], ids=["bool_iterations", "fractional_iterations", "negative_accelerated",
            "string_objective", "nan_rho", "negative_lambda", "bool_in_X", "string_in_dual_psd",
            "inf_in_dual_affine", "ragged_X"])
    def test_report_file_rejected(self, tmp_path, capsys, edit):
        problem = tmp_path / "p.json"
        problem.write_text(json.dumps(self.TRIVIAL))
        lifted = tmp_path / "lifted.json"
        report = tmp_path / "report.json"
        assert cli_main(["lift", str(problem), "-o", str(lifted)]) == 0
        assert cli_main(["solve", str(lifted), "-o", str(report), "--dump-x"]) == 0
        data = json.loads(report.read_text())
        edit(data)
        report.write_text(json.dumps(data))
        capsys.readouterr()
        assert cli_main(["recover", str(report), str(lifted)]) == 1
        assert "bad report file" in capsys.readouterr().err
        assert cli_main(["certify", str(lifted), str(report)]) == 1
        assert "bad report file" in capsys.readouterr().err

    def test_conflicting_repeat_of_a_cell_rejected(self, tmp_path, capsys):
        problem = tmp_path / "p.json"
        problem.write_text(json.dumps(self.TRIVIAL))
        lifted = tmp_path / "lifted.json"
        report = tmp_path / "report.json"
        assert cli_main(["lift", str(problem), "-o", str(lifted)]) == 0
        assert cli_main(["solve", str(lifted), "-o", str(report), "--dump-x"]) == 0
        data = json.loads(lifted.read_text())
        cell = data["constraints"][0]["entries"][0]
        data["constraints"][0]["entries"].append(
            {"row": cell["col"], "col": cell["row"], "value": cell["value"] + 1.0})
        lifted.write_text(json.dumps(data))
        capsys.readouterr()
        assert cli_main(["solve", str(lifted)]) == 1
        assert "bad lifted file" in capsys.readouterr().err
        assert cli_main(["certify", str(lifted), str(report)]) == 1
        assert "two values" in capsys.readouterr().err


class TestUsage:
    def test_unknown_command(self, capsys):
        assert cli_main(["frobnicate"]) == 1
        assert "error" in capsys.readouterr().err

    def test_missing_required_argument(self, capsys):
        assert cli_main(["oracle", "x.json"]) == 1

    def test_no_arguments(self, capsys):
        assert cli_main([]) == 1

    @pytest.mark.parametrize("args, reason", [
        (["lift", "DIR"], "Is a directory"),
        (["lift", "PROBLEM", "-o", "DIR"], "Is a directory"),
        (["lift", "PROBLEM", "-o", "MISSING"], "No such file or directory"),
        (["lift", "UNDECODABLE"], "can't decode byte 0xe9"),
        (["bench", "table1", "--trials", "1", "-o", "CSV", "--boxplot", "DIR"],
         "Is a directory"),
        (["bench", "table1", "--trials", "1", "-o", "MISSING"], "No such file or directory"),
    ], ids=["read_dir", "write_dir", "write_missing_dir", "undecodable", "boxplot_dir",
            "bench_missing_dir"])
    def test_bad_path_exits_1_naming_it(self, tmp_path, trivial_problem_file, capsys,
                                        monkeypatch, args, reason):
        # a path the system cannot read or write is an input error, reported
        # with the path, not a traceback; bench reports it before it runs
        # the ensemble, and leaves an existing output file as it was
        paths = {"DIR": tmp_path, "PROBLEM": trivial_problem_file,
                 "MISSING": tmp_path / "missing" / "out.json",
                 "UNDECODABLE": tmp_path / "latin1.json", "CSV": tmp_path / "r.csv"}
        paths["UNDECODABLE"].write_bytes(b'{"values": ["\xe9"]}')
        paths["CSV"].write_text("kept\n")
        runs = []
        monkeypatch.setattr(cli, "run_experiment", lambda *a, **k: runs.append(a))
        bad = next(arg for arg in args if arg in ("DIR", "MISSING", "UNDECODABLE"))
        assert cli_main([str(paths.get(arg, arg)) for arg in args]) == 1
        assert runs == []
        assert paths["CSV"].read_text() == "kept\n"
        err = capsys.readouterr().err
        assert err.startswith(f"error: {paths[bad]}: ") and reason in err
