"""Command-line interface: lift, solve, recover, certify, bench, oracle.

``certify`` checks the dual certificate of ``recovery.dual_certificate`` on
a report written by ``solve --dump-x`` (which carries the solution matrix
and the solver's final multipliers).

Exit codes: 0 on success, 1 on usage or input errors (including malformed
JSON, reported with line and column, non-finite numbers, out-of-range
indices, report matrices whose size does not match the lifted problem, and
solver or ensemble settings that ``SolverConfig`` or ``ExperimentSpec``
refuse, such as ``--lambda nan``, before any iteration), 2 on solver
failure.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys

import numpy as np

from .baselines import l0_oracle
from .harness import dense_spec, emit_boxplot_data, results_to_csv, run_experiment, table1_spec
from .lifting import (
    build_lifted_problem,
    lifted_problem_from_json,
    lifted_problem_to_json,
)
from .monomials import checked_float, system_from_json
from .recovery import (
    DegenerateTopEigenvalueError,
    dual_certificate,
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


def _parse_file(path: str, parse, what: str):
    """``parse`` applied to a JSON file; a malformed document is an input
    error."""
    data = _load_json(path)
    try:
        return parse(data)
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise UsageError(f"{path}: bad {what} file: {exc}")


def _problem_from_json(data: dict):
    values = [checked_float(v) for v in data["values"]]
    system = system_from_json(data["polynomials"])
    if len(system) != len(values):
        raise ValueError(f"{len(system)} polynomials but {len(values)} values")
    return system, values


def _build_parser() -> _Parser:
    parser = _Parser(prog="nlbp", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("lift", help="lift a polynomial system to trace constraints")
    p.add_argument("problem", help="JSON file with polynomials and values")
    p.add_argument("--order", "--q", dest="order", type=int, default=None,
                   help="even lift order (default: smallest even >= max degree)")
    p.add_argument("-o", "--output", default=None)

    p = sub.add_parser("solve", help="solve a lifted problem")
    p.add_argument("lifted", help="JSON file produced by lift")
    p.add_argument("--lambda", dest="lam", type=float, default=SolverConfig.lam)
    p.add_argument("--rho", type=float, default=SolverConfig.rho,
                   help="initial ADMM penalty (balanced during the solve)")
    p.add_argument("--max-iters", type=int, default=SolverConfig.max_iters)
    p.add_argument("--eps-abs", type=float, default=SolverConfig.eps_abs)
    p.add_argument("--eps-rel", type=float, default=SolverConfig.eps_rel)
    p.add_argument("--dump-x", action="store_true",
                   help="include the dense solution matrix in the report")
    p.add_argument("-o", "--output", default=None)

    p = sub.add_parser("recover", help="extract the unknowns from a solve report")
    p.add_argument("report", help="report JSON written by solve --dump-x")
    p.add_argument("lifted", help="the lifted problem the report solves")
    p.add_argument("-o", "--output", default=None)

    p = sub.add_parser("certify", help="dual optimality certificate for a solved problem")
    p.add_argument("lifted")
    p.add_argument("report", help="report JSON written by solve --dump-x")
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
    system, values = _parse_file(args.problem, _problem_from_json, "problem")
    order = args.order
    if order is None:
        order = max(2, system.degree + (system.degree % 2))
    problem = build_lifted_problem(system, values, order)
    _dump_json(lifted_problem_to_json(problem), args.output)
    return 0


def _cmd_solve(args) -> int:
    problem = _parse_file(args.lifted, lifted_problem_from_json, "lifted")
    config = SolverConfig(lam=args.lam, rho=args.rho, max_iters=args.max_iters,
                          eps_abs=args.eps_abs, eps_rel=args.eps_rel)
    report = solve_nlbp(problem, config)
    _dump_json(report_to_json(report, include_matrix=args.dump_x), args.output)
    return 0 if report.status is SolveStatus.CONVERGED else 2


def _load_dumped_report(path: str, keys: tuple[str, ...], dim: int):
    """A solve report that must carry the matrices named in ``keys``, each
    dim x dim like the lifted problem it is checked against."""
    report = _parse_file(path, report_from_json, "report")
    missing = [key for key in keys if getattr(report, key).size == 0]
    if missing:
        raise UsageError(
            f"{path}: report has no {', '.join(missing)}; rerun solve with --dump-x"
        )
    for key in keys:
        shape = getattr(report, key).shape
        if shape != (dim, dim):
            raise UsageError(
                f"{path}: report's {key} has shape {shape}, but the lifted problem "
                f"has dim {dim}, so ({dim}, {dim}) is needed"
            )
    return report


def _cmd_recover(args) -> int:
    problem = _parse_file(args.lifted, lifted_problem_from_json, "lifted")
    report = _load_dumped_report(args.report, ("X",), problem.dim)
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
    problem = _parse_file(args.lifted, lifted_problem_from_json, "lifted")
    report = _load_dumped_report(args.report, ("X", "dual_affine", "dual_psd"),
                                 problem.dim)
    x = extract_rank1(report.X, problem.basis).x
    cert = dual_certificate(problem, report, x)
    _dump_json(dataclasses.asdict(cert), args.output)
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
    system, values = _parse_file(args.problem, _problem_from_json, "problem")
    found = l0_oracle(system, values, max_support=args.max_support,
                      starts=args.starts, rng_seed=args.seed)
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
