"""Command-line interface: lift, solve, recover, certify, bench, oracle.

Exit codes: 0 on success, 1 on usage or input errors (including malformed
JSON, reported with line and column), 2 on solver failure.
"""

from __future__ import annotations

import argparse
import json
import sys

import numpy as np

from .baselines import OracleBudget, l0_oracle
from .harness import dense_spec, emit_boxplot_data, results_to_csv, run_experiment, table1_spec
from .lifting import (
    build_lifted_problem,
    lifted_problem_from_json,
    lifted_problem_to_json,
)
from .monomials import PolySystem, polynomial_from_json
from .recovery import (
    DegenerateTopEigenvalueError,
    certificate_to_json,
    coherence_certificate,
    extract_rank1,
)
from .sdp_admm import (
    SolverConfig,
    SolverError,
    SolveStatus,
    report_from_json,
    report_to_json,
    solve_nlbp,
)


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    # argparse exits with code 2 on bad usage; route through our own error
    # type so the CLI can exit 1 instead.
    def error(self, message):
        raise UsageError(message)


def _load_json(path: str):
    try:
        with open(path) as fh:
            return json.load(fh)
    except FileNotFoundError:
        raise UsageError(f"{path}: no such file")
    except json.JSONDecodeError as exc:
        raise UsageError(f"{path}:{exc.lineno}:{exc.colno}: {exc.msg}")


def _dump_json(data, path: str | None):
    text = json.dumps(data, indent=2) + "\n"
    if path is None:
        sys.stdout.write(text)
    else:
        with open(path, "w") as fh:
            fh.write(text)


def _load_problem_file(path: str):
    data = _load_json(path)
    try:
        polys = [polynomial_from_json(p) for p in data["polynomials"]]
        values = [float(v) for v in data["values"]]
    except (KeyError, TypeError, ValueError) as exc:
        raise UsageError(f"{path}: bad problem file: {exc}")
    if len(polys) != len(values):
        raise UsageError(
            f"{path}: {len(polys)} polynomials but {len(values)} values"
        )
    return PolySystem.from_polys(polys), values


def _build_parser() -> _Parser:
    parser = _Parser(prog="nlbp", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("lift", help="lift a polynomial system to trace constraints")
    p.add_argument("problem", help="JSON file with polynomials and values")
    p.add_argument("--order", "--q", dest="order", type=int, default=None,
                   help="even lift order (default: smallest even >= max degree)")
    p.add_argument("--no-dedup", action="store_true",
                   help="keep duplicate dependency constraints from the raw sweep")
    p.add_argument("-o", "--output", default=None)

    p = sub.add_parser("solve", help="solve a lifted problem")
    p.add_argument("lifted", help="JSON file produced by lift")
    p.add_argument("--lambda", dest="lam", type=float, default=0.0)
    p.add_argument("--rho", type=float, default=1.0)
    p.add_argument("--max-iters", type=int, default=20000)
    p.add_argument("--eps-abs", type=float, default=1e-7)
    p.add_argument("--eps-rel", type=float, default=1e-5)
    p.add_argument("--dump-x", action="store_true",
                   help="include the dense solution matrix in the report")
    p.add_argument("-o", "--output", default=None)

    p = sub.add_parser("recover", help="extract the unknowns from a solve report")
    p.add_argument("report", help="report JSON written by solve --dump-x")
    p.add_argument("lifted", help="the lifted problem the report solves")
    p.add_argument("-o", "--output", default=None)

    p = sub.add_parser("certify", help="coherence certificate for a solved problem")
    p.add_argument("lifted")
    p.add_argument("report", help="report JSON written by solve --dump-x")
    p.add_argument("--zero-tol", type=float, default=1e-6)
    p.add_argument("-o", "--output", default=None)

    p = sub.add_parser("bench", help="run a Monte-Carlo ensemble")
    p.add_argument("experiment", choices=["table1", "dense"])
    p.add_argument("--trials", type=int, default=100)
    p.add_argument("--seed", type=int, default=42)
    p.add_argument("--lambda", dest="lam", type=float, default=None,
                   help="override the preset l1 weight")
    p.add_argument("--timings", action="store_true",
                   help="include wall-clock columns (breaks byte reproducibility)")
    p.add_argument("--boxplot", default=None,
                   help="also write box-plot CSV to this path")
    p.add_argument("-o", "--output", default=None)

    p = sub.add_parser("oracle", help="brute-force sparsest solution of a tiny system")
    p.add_argument("problem")
    p.add_argument("--max-support", type=int, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--starts", type=int, default=20)
    p.add_argument("-o", "--output", default=None)

    return parser


def _cmd_lift(args) -> int:
    polys, values = _load_problem_file(args.problem)
    order = args.order
    if order is None:
        degree = polys.degree
        order = max(2, degree + (degree % 2))
    problem = build_lifted_problem(polys, values, order, dedup=not args.no_dedup)
    _dump_json(lifted_problem_to_json(problem), args.output)
    return 0


def _cmd_solve(args) -> int:
    problem = lifted_problem_from_json(_load_json(args.lifted))
    config = SolverConfig(lam=args.lam, rho=args.rho, max_iters=args.max_iters,
                          eps_abs=args.eps_abs, eps_rel=args.eps_rel)
    report = solve_nlbp(problem, config)
    _dump_json(report_to_json(report, include_matrix=args.dump_x), args.output)
    return 0 if report.status is SolveStatus.CONVERGED else 2


def _load_report_matrix(path: str):
    report = report_from_json(_load_json(path))
    if report.X.size == 0:
        raise UsageError(
            f"{path}: report has no solution matrix; rerun solve with --dump-x"
        )
    return report


def _cmd_recover(args) -> int:
    report = _load_report_matrix(args.report)
    problem = lifted_problem_from_json(_load_json(args.lifted))
    solution = extract_rank1(report.X, problem.basis)
    _dump_json({
        "x": [float(v) for v in solution.x],
        "x_bar": [float(v) for v in solution.x_bar],
        "rank1_ratio": solution.rank1_ratio,
        "lift_consistency": solution.lift_consistency,
        "valid": solution.valid,
    }, args.output)
    return 0


def _cmd_certify(args) -> int:
    problem = lifted_problem_from_json(_load_json(args.lifted))
    report = _load_report_matrix(args.report)
    cert = coherence_certificate(problem, report.X, zero_tol=args.zero_tol)
    _dump_json(certificate_to_json(cert), args.output)
    return 0


def _cmd_bench(args) -> int:
    overrides = {} if args.lam is None else {"lam": args.lam}
    if args.experiment == "table1":
        spec = table1_spec(trials=args.trials, seed=args.seed, **overrides)
    else:
        spec = dense_spec(trials=args.trials, seed=args.seed, **overrides)
    result = run_experiment(spec)
    csv_text = results_to_csv(result, include_timings=args.timings)
    if args.output is None:
        sys.stdout.write(csv_text)
    else:
        with open(args.output, "w") as fh:
            fh.write(csv_text)
    if args.boxplot is not None:
        with open(args.boxplot, "w") as fh:
            fh.write(emit_boxplot_data(result.records))
    return 0


def _cmd_oracle(args) -> int:
    polys, values = _load_problem_file(args.problem)
    budget = OracleBudget(starts_per_support=args.starts)
    found = l0_oracle(polys, values, max_support=args.max_support,
                      budget=budget, rng_seed=args.seed)
    if found is None:
        _dump_json({"found": False}, args.output)
    else:
        support = [int(i) for i in np.nonzero(np.abs(found) > 1e-12)[0]]
        _dump_json({
            "found": True,
            "x": [float(v) for v in found],
            "support": support,
        }, args.output)
    return 0


_COMMANDS = {
    "lift": _cmd_lift,
    "solve": _cmd_solve,
    "recover": _cmd_recover,
    "certify": _cmd_certify,
    "bench": _cmd_bench,
    "oracle": _cmd_oracle,
}


def cli_main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        return _COMMANDS[args.command](args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (ValueError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (SolverError, np.linalg.LinAlgError, DegenerateTopEigenvalueError) as exc:
        print(f"solver failure: {exc}", file=sys.stderr)
        return 2


def main() -> None:
    sys.exit(cli_main())


if __name__ == "__main__":
    main()
