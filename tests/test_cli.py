import json

import numpy as np
import pytest

from nlbp.cli import _build_parser, cli_main
from nlbp.monomials import (
    MultiIndex,
    Polynomial,
    eval_polynomial,
    polynomial_to_json,
    random_polynomial,
)
from nlbp.sdp_admm import SolverConfig


def write_problem(path, polys, values):
    data = {
        "polynomials": [polynomial_to_json(p) for p in polys],
        "values": [float(v) for v in values],
    }
    path.write_text(json.dumps(data))


@pytest.fixture
def trivial_problem_file(tmp_path):
    p = Polynomial(1, {MultiIndex((1,)): 1.0})
    path = tmp_path / "problem.json"
    write_problem(path, [p], [1.0])
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
        polys = [random_polynomial(2, 4, 1, 1.0)]
        path = tmp_path / "p.json"
        write_problem(path, polys, [0.0])
        out = tmp_path / "lifted.json"
        assert cli_main(["lift", str(path), "--q", "4", "-o", str(out)]) == 0
        assert len(json.loads(out.read_text())["basis"]) == 6

    def test_no_dedup_flag_rejected(self, tmp_path, capsys):
        polys = [random_polynomial(2, 4, 2, 1.0)]
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

    def test_infeasible_problem_exits_2(self, tmp_path, capsys):
        p = Polynomial(1, {MultiIndex((1,)): 1.0})
        path = tmp_path / "clash.json"
        write_problem(path, [p, p], [0.0, 1.0])
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
        polys = [random_polynomial(3, 2, 50 + j, 1.0) for j in range(6)]
        x = np.array([0.0, 2.0, 0.0])
        values = [eval_polynomial(p, x) for p in polys]
        path = tmp_path / "p.json"
        write_problem(path, polys, values)
        assert cli_main(["oracle", str(path), "--max-support", "1"]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["found"]
        assert out["support"] == [1]
        assert abs(out["x"][1] - 2.0) < 1e-6

    def test_reports_not_found(self, tmp_path, capsys):
        polys = [random_polynomial(2, 2, 80 + j, 1.0) for j in range(8)]
        path = tmp_path / "p.json"
        write_problem(path, polys, np.arange(1.0, 9.0))
        assert cli_main(["oracle", str(path), "--max-support", "1"]) == 0
        assert json.loads(capsys.readouterr().out) == {"found": False}


    def test_starts_below_one_exits_1(self, tmp_path, capsys):
        polys = [random_polynomial(2, 2, 90, 1.0)]
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
    ], ids=["nan_value", "inf_coeff", "fractional_exponent"])
    def test_problem_file_rejected(self, tmp_path, capsys, edit):
        data = json.loads(json.dumps(self.TRIVIAL))
        edit(data)
        path = tmp_path / "p.json"
        path.write_text(json.dumps(data))
        assert cli_main(["lift", str(path)]) == 1
        assert "bad problem file" in capsys.readouterr().err

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
