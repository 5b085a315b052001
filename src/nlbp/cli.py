"""Command-line interface: lift, solve, recover, certify, bench, oracle; and
the JSON formats of the files it reads and writes (problem, lifted problem
and solve report), which no other module reads or writes.

``certify`` checks the dual certificate of ``recovery.dual_certificate`` on
a report written by ``solve --dump-x`` (which carries the solution matrix
and the solver's final multipliers).

Exit codes: 0 on success, 1 on usage or input errors (including malformed
JSON, reported with line and column, non-finite numbers, out-of-range
indices, report matrices whose size does not match the lifted problem, a
path that cannot be read or written or an input that does not decode,
reported with the path, and solver or ensemble settings that
``SolverConfig`` or ``ExperimentSpec`` refuse, such as ``--lambda nan``,
before any iteration), 2 on solver failure.
"""

from __future__ import annotations

import argparse
import dataclasses
import errno
import json
import math
import os
import sys

import numpy as np

from .baselines import l0_oracle
from .harness import dense_spec, emit_boxplot_data, results_to_csv, run_experiment, table1_spec
from .lifting import ConstraintKind, LiftedProblem, build_lifted_problem, packed_index
from .monomials import PolySystem, exponent_table
from .recovery import (
    DegenerateTopEigenvalueError,
    dual_certificate,
    extract_rank1,
)
from .sdp_admm import (
    SolveReport,
    SolverConfig,
    SolverError,
    SolveStatus,
    solve_nlbp,
)

_PRESETS = {"table1": table1_spec, "dense": dense_spec}


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
    except OSError as exc:
        raise UsageError(f"{path}: {exc.strerror or exc}")
    except UnicodeDecodeError as exc:
        raise UsageError(f"{path}: {exc}")


def _write(text: str, path: str | None):
    if path is None:
        sys.stdout.write(text)
        return
    try:
        with open(path, "w") as fh:
            fh.write(text)
    except OSError as exc:
        raise UsageError(f"{path}: {exc.strerror or exc}")


def _refuse_unwritable(path: str | None):
    """Raise the error ``_write`` would meet on ``path`` (a directory, a
    missing directory or no write permission) before any work is done. The
    path is not opened, so an existing file keeps its contents."""
    if path is None:
        return
    parent = os.path.dirname(path) or "."
    if os.path.isdir(path):
        code = errno.EISDIR
    elif not os.path.exists(parent):
        code = errno.ENOENT
    elif not os.path.isdir(parent):
        code = errno.ENOTDIR
    elif not os.access(path if os.path.exists(path) else parent, os.W_OK):
        code = errno.EACCES
    else:
        return
    raise UsageError(f"{path}: {os.strerror(code)}")


def _dump_json(data, path: str | None):
    # strict JSON: a non-finite number (an infinite lift_consistency) is null
    data = json.loads(json.dumps(data), parse_constant=lambda name: None)
    _write(json.dumps(data, indent=2, allow_nan=False) + "\n", path)


def _parse_file(path: str, parse, what: str):
    """``parse`` applied to a JSON file; a malformed document is an input
    error."""
    data = _load_json(path)
    try:
        return parse(data)
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise UsageError(f"{path}: bad {what} file: {exc}")


def _json_number(value):
    # bool is a subclass of int, and float() would also take a numeric string
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ValueError(f"expected a number, got {value!r}")
    return value


def checked_float(value) -> float:
    """A number read from a file; nan and infinities are rejected, as is
    anything but a JSON number."""
    number = float(_json_number(value))
    if not math.isfinite(number):
        raise ValueError(f"expected a finite number, got {value!r}")
    return number


def checked_int(value, low: int, high: int | None = None) -> int:
    """An integer in [low, high) read from a file. Integral floats such as
    2.0 are accepted; a fraction is rejected rather than truncated, and an
    int is taken as it is, not rounded through a float."""
    number = _json_number(value)
    if isinstance(number, float) and number.is_integer():
        number = int(number)
    if not isinstance(number, int) or number < low or (high is not None and number >= high):
        bounds = f"[{low}, {high})" if high is not None else f">= {low}"
        raise ValueError(f"expected an integer {bounds}, got {value!r}")
    return number


def system_from_json(polynomials: list) -> PolySystem:
    """The system of a problem file's polynomials, each
    ``{"num_vars": n, "terms": [{"alpha": [...], "coeff": c}, ...]}``.

    Repeated terms of a polynomial are summed in file order, and terms that
    end up zero are dropped before the degree and the table are taken, so
    the table lists only the monomials that occur. Coefficients must be
    finite, exponents non-negative integers, and every term and polynomial
    must have the same number of variables.
    """
    rows = []
    for poly in polynomials:
        n = checked_int(poly["num_vars"], 1)
        row: dict[tuple, float] = {}
        for item in poly["terms"]:
            alpha = tuple(checked_int(e, 0) for e in item["alpha"])
            if len(alpha) != n:
                raise ValueError(f"term {list(alpha)} has {len(alpha)} exponents, "
                                 f"expected {n}")
            row[alpha] = row.get(alpha, 0.0) + checked_float(item["coeff"])
        rows.append((n, row))
    if not rows:
        raise ValueError("need at least one polynomial")
    n = rows[0][0]
    if any(m != n for m, _ in rows):
        raise ValueError("all polynomials must share the same variable count")
    alphas = sorted({a for _, row in rows for a, c in row.items() if c != 0.0},
                    key=lambda a: (sum(a), tuple(-e for e in a)))
    coeffs = np.array([[row.get(a, 0.0) for a in alphas] for _, row in rows])
    return PolySystem(n, max((sum(a) for a in alphas), default=0),
                      coeffs.reshape(len(rows), len(alphas)),
                      np.array(alphas, dtype=np.int64).reshape(-1, n))


def _problem_from_json(data: dict):
    values = [checked_float(v) for v in data["values"]]
    system = system_from_json(data["polynomials"])
    if len(system) != len(values):
        raise ValueError(f"{len(system)} polynomials but {len(values)} values")
    return system, values


def lifted_problem_to_json(problem: LiftedProblem) -> dict:
    """Sparse triplet export of the nonzero packed cells, so every stored
    cell has row <= col."""
    rows, cols = np.triu_indices(problem.dim)
    constraints = []
    for packed, value, kind in zip(problem.operator, problem.values, problem.kinds):
        constraints.append({
            "y": float(value),
            "kind": kind.value,
            "entries": [
                {"row": int(rows[c]), "col": int(cols[c]), "value": float(packed[c])}
                for c in np.flatnonzero(packed)
            ],
        })
    return {
        "num_vars": problem.num_vars,
        "order": problem.order,
        "basis": problem.basis.tolist(),
        "constraints": constraints,
    }


def lifted_problem_from_json(data: dict) -> LiftedProblem:
    """Inverse of ``lifted_problem_to_json``; rejects non-finite numbers, cell
    indices outside [0, dim), a stored basis of the wrong length before
    building any table of the order's size, then one that is not
    ``exponent_table(num_vars, order // 2)``, and an order that
    ``LiftedProblem`` refuses. A cell with row > col sets its mirror; a
    constraint that sets one cell twice, directly or through its mirror,
    must give it the same value both times."""
    n = checked_int(data["num_vars"], 1)
    order = checked_int(data["order"], 2)
    basis = [[checked_int(e, 0) for e in a] for a in data["basis"]]
    # the basis size follows from n and order alone: a file whose basis is
    # the wrong size is refused before any table of that size is built
    dim = math.comb(n + order // 2, n)
    if len(basis) != dim:
        raise ValueError(f"basis has {len(basis)} rows, but "
                         f"exponent_table({n}, {order // 2}) has {dim}")
    if not np.array_equal(basis, exponent_table(n, order // 2)):
        raise ValueError(f"basis is not exponent_table({n}, {order // 2}) "
                         f"in the frozen graded order")
    items = data["constraints"]
    cell = packed_index(dim).cell
    operator = np.zeros((len(items), dim * (dim + 1) // 2))
    for i, (row, item) in enumerate(zip(operator, items)):
        seen = set()
        for entry in item["entries"]:
            r, c = checked_int(entry["row"], 0, dim), checked_int(entry["col"], 0, dim)
            k, value = int(cell[r, c]), checked_float(entry["value"])
            if k in seen and row[k] != value:
                raise ValueError(f"constraint {i} gives cell ({r}, {c}) two values")
            seen.add(k)
            row[k] = value
    kinds = [ConstraintKind(item["kind"]) for item in items]
    num_data = next((i for i, k in enumerate(kinds) if k is not ConstraintKind.DATA),
                    len(kinds))
    problem = LiftedProblem(num_vars=n, order=order,
                            num_data=num_data, operator=operator,
                            values=[checked_float(item["y"]) for item in items])
    if tuple(kinds) != problem.kinds:
        raise ValueError("constraint kinds are not in the frozen order: data, "
                         "then one normalization, then dependencies")
    return problem


def report_to_json(report: SolveReport, include_matrix: bool = False) -> dict:
    """The report's fields in declaration order, ``lam`` as ``lambda`` and
    ``status`` as its value; the matrices come last, and only with
    ``include_matrix``."""
    out, matrices = {}, {}
    for field in dataclasses.fields(report):
        value = getattr(report, field.name)
        if isinstance(value, np.ndarray):
            matrices[field.name] = value
        else:
            key = "lambda" if field.name == "lam" else field.name
            out[key] = value.value if isinstance(value, SolveStatus) else value
    if include_matrix:
        out.update((key, matrix.tolist()) for key, matrix in matrices.items())
    return out


def report_from_json(data: dict) -> SolveReport:
    """Inverse of ``report_to_json``. Every number must be a finite JSON
    number (the iteration counts non-negative integers, ``lambda`` not
    negative), and a matrix a list of equally long rows of them. Matrices a
    report was written without come back as empty (0, 0) arrays; ``lam``,
    ``infeasibility_lb`` and ``rho`` as nan when absent."""

    def matrix(key: str) -> np.ndarray:
        if key not in data:
            return np.zeros((0, 0))
        return np.array([[checked_float(v) for v in row] for row in data[key]],
                        dtype=float)

    def optional(key: str) -> float:
        return checked_float(data[key]) if key in data else math.nan

    lam = optional("lambda")
    if lam < 0:
        raise ValueError(f"lambda must be >= 0, got {lam!r}")
    return SolveReport(
        X=matrix("X"),
        iterations=checked_int(data["iterations"], 0),
        primal_residual=checked_float(data["primal_residual"]),
        dual_residual=checked_float(data["dual_residual"]),
        objective=checked_float(data["objective"]),
        constraint_violation=checked_float(data["constraint_violation"]),
        min_eigenvalue=checked_float(data["min_eigenvalue"]),
        status=SolveStatus(data["status"]),
        lam=lam,
        infeasibility_lb=optional("infeasibility_lb"),
        dual_affine=matrix("dual_affine"),
        dual_psd=matrix("dual_psd"),
        rho=optional("rho"),
        accelerated=checked_int(data.get("accelerated", 0), 0),
    )


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
    p.add_argument("experiment", choices=_PRESETS)
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
    spec = _PRESETS[args.experiment](trials=args.trials, seed=args.seed, **overrides)
    # a path that cannot be written fails now, not after the whole ensemble
    for path in (args.output, args.boxplot):
        _refuse_unwritable(path)
    result = run_experiment(spec)
    _write(results_to_csv(result, include_timings=args.timings), args.output)
    if args.boxplot is not None:
        _write(emit_boxplot_data(result.records), args.boxplot)
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
    except (UsageError, ValueError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (SolverError, np.linalg.LinAlgError, DegenerateTopEigenvalueError) as exc:
        print(f"solver failure: {exc}", file=sys.stderr)
        return 2


def main() -> None:
    sys.exit(cli_main())


if __name__ == "__main__":
    main()
