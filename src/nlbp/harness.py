"""Monte-Carlo experiment runner and machine-readable result emission.

A trial samples a random polynomial system and a planted solution, computes
consistent right-hand sides, runs each requested method, and records success
and diagnostics. Seeding is frozen: trial t uses the PCG64 stream seeded by
SeedSequence([experiment_seed, t]). Within a trial the whole system is drawn
first, as one (num_equations, T) block of Gaussian coefficients in row-major
order: row i is equation i, its columns follow the exponent table of
(num_vars, order). That consumes the stream exactly as drawing the equations
one after another does. The planted vector is drawn next. Trials run
sequentially here, but every trial's stream is independent, so results never
depend on execution order.

CSV output is byte-reproducible for a fixed spec, seed and BLAS thread
count; wall-clock timings are therefore excluded unless explicitly requested.
The thread count matters at larger lifts: at n = 10 the bytes differ between
one and two OpenBLAS threads, at n = 5 and n = 8 they do not.
"""

from __future__ import annotations

import math
import numbers
import time
from dataclasses import dataclass

import numpy as np

from .baselines import (
    Method,
    MethodRun,
    meets_success_rule,
    run_lifted,
    solve_linear,
)
# The per-polynomial functions are no longer called here but stay bound:
# perfbench's tracer wraps the layer functions at the module names their
# callers used. Retargeting the tracer at the PolySystem methods deletes them.
from .monomials import (  # noqa: F401
    PolySystem,
    eval_polynomial,
    exponent_table,
    random_polynomial,
    truncate_polynomial,
)
from .sdp_admm import SolverConfig, SolverError

DENSE = "dense"

RESULTS_HEADER = "# nlbp-results v1"
BOXPLOT_HEADER = "# nlbp-boxplot v1"


def _is_int(value, low: int, high: int | None = None) -> bool:
    """An integer in [low, high], high None for no bound. bool is an
    Integral, and True would pass as 1."""
    return (isinstance(value, numbers.Integral) and not isinstance(value, bool)
            and low <= value and (high is None or value <= high))


@dataclass(frozen=True)
class ExperimentSpec:
    """Everything needed to reproduce one Monte-Carlo ensemble.

    ``planted_std`` scales only a dense plant (``sparsity`` "dense"), drawn
    Gaussian with that standard deviation; a sparse plant puts 1.0 on its
    support whatever the field holds."""

    name: str
    num_vars: int
    num_equations: int
    order: int
    sparsity: int | str  # support size, or "dense"
    planted_std: float
    coeff_std: float
    trials: int
    seed: int
    methods: tuple[Method, ...]
    lam: float

    def __post_init__(self):
        for field, low in (("trials", 1), ("num_vars", 1), ("num_equations", 1),
                           ("order", 2), ("seed", 0)):
            if not _is_int(getattr(self, field), low):
                raise ValueError(f"{field} must be an int >= {low}")
        if self.order % 2 != 0:
            raise ValueError("order must be even")
        if self.sparsity != DENSE and not _is_int(self.sparsity, 0, self.num_vars):
            raise ValueError("sparsity must be 'dense' or an int <= num_vars")
        if not (math.isfinite(self.planted_std) and self.planted_std >= 0):
            raise ValueError("planted_std must be finite and >= 0")
        if not (math.isfinite(self.coeff_std) and self.coeff_std > 0):
            raise ValueError("coeff_std must be finite and > 0")
        if not (math.isfinite(self.lam) and self.lam >= 0):
            raise ValueError("lam must be finite and >= 0")


@dataclass
class MethodOutcome:
    """What the ensemble records of one method run. For lifted methods
    ``status`` is the solver's stop reason, and ``extraction_valid`` also
    says whether the estimate was polished (exactly the valid ones are)."""

    success: bool
    residual_sq: float
    rank1_ratio: float
    iterations: int
    wall_time_ms: float
    status: str = ""
    extraction_valid: bool = False
    error: str = ""  # class name of the exception the method raised, if any


@dataclass
class TrialRecord:
    trial_index: int
    outcomes: dict[Method, MethodOutcome]


@dataclass
class MethodSummary:
    success_rate: float
    residual_min: float
    residual_q1: float
    residual_median: float
    residual_q3: float
    residual_max: float


@dataclass
class ExperimentResult:
    spec: ExperimentSpec
    records: list[TrialRecord]
    summary: dict[Method, MethodSummary]
    # per trial, each method's run, when run_experiment keeps them
    artifacts: list[dict[Method, MethodRun]] | None = None


def table1_spec(trials: int = 100, seed: int = 42, **overrides) -> ExperimentSpec:
    """Sparse-recovery ensemble: 50 degree-4 equations in 5 unknowns with a
    planted 2-sparse unit vector."""
    base = dict(name="table1", num_vars=5, num_equations=50, order=4,
                sparsity=2, planted_std=1.0, coeff_std=1.0, trials=trials,
                seed=seed, methods=(Method.NLBP, Method.QBP, Method.LASSO),
                lam=0.0)
    base.update(overrides)
    return ExperimentSpec(**base)


def dense_spec(trials: int = 100, seed: int = 42, **overrides) -> ExperimentSpec:
    """Dense-solution ensemble: 60 degree-4 equations in 5 unknowns with a
    planted Gaussian vector of standard deviation 10."""
    base = dict(name="dense", num_vars=5, num_equations=60, order=4,
                sparsity=DENSE, planted_std=10.0, coeff_std=1.0, trials=trials,
                seed=seed, methods=(Method.NLBP, Method.QBP, Method.LASSO),
                lam=0.0)
    base.update(overrides)
    return ExperimentSpec(**base)


def sample_trial(spec: ExperimentSpec, trial_index: int):
    """Draw the polynomial system, planted vector, and right-hand sides of a
    trial, in the frozen order of the module docstring."""
    rng = np.random.default_rng(np.random.SeedSequence([spec.seed, trial_index]))
    num_terms = len(exponent_table(spec.num_vars, spec.order))
    polys = PolySystem(spec.num_vars, spec.order,
                       rng.normal(0.0, spec.coeff_std,
                                  size=(spec.num_equations, num_terms)))
    if spec.sparsity == DENSE:
        x_true = rng.normal(0.0, spec.planted_std, spec.num_vars)
    else:
        x_true = np.zeros(spec.num_vars)
        support = np.sort(rng.choice(spec.num_vars, size=spec.sparsity, replace=False))
        x_true[support] = 1.0
    return polys, x_true, polys.evaluate(x_true)


def default_trial_config(spec: ExperimentSpec, values) -> SolverConfig:
    """Per-trial solver settings of ``run_experiment``.

    The ADMM penalty starts near the reciprocal of the solution scale, which
    the measurement magnitudes track; the solver balances it from there, so
    this is a starting point, not a tuned value. The tolerances are the
    ``SolverConfig`` defaults.
    """
    rho = 1.0 / (1.0 + float(np.max(np.abs(values))))
    return SolverConfig(lam=spec.lam, rho=rho, max_iters=60000)


def _run_method(method: Method, polys, values, x_true, spec: ExperimentSpec,
                config: SolverConfig, artifacts: dict[Method, MethodRun] | None):
    """One method's outcome on a trial; the estimate is judged here, by the
    frozen success rule, whatever the method. The run is kept in
    ``artifacts`` when that is a dict."""
    start = time.perf_counter()
    if method is Method.LASSO:
        run = solve_linear(polys, values, lam=spec.lam)
    else:
        run = run_lifted(polys, values, spec.order, config, method)
    success = meets_success_rule(run.x_hat, x_true, run.residual_sq, values)
    elapsed_ms = (time.perf_counter() - start) * 1000.0
    iterations, status = 0, ""
    if run.report is not None:
        iterations, status = run.report.iterations, run.report.status.value
    rank1_ratio, valid = math.nan, False
    if run.recovered is not None:
        rank1_ratio, valid = run.recovered.rank1_ratio, run.recovered.valid
    if artifacts is not None:
        artifacts[method] = run
    return MethodOutcome(success, run.residual_sq, rank1_ratio, iterations,
                         elapsed_ms, status, valid)


def run_experiment(spec: ExperimentSpec,
                   keep_artifacts: bool = False) -> ExperimentResult:
    """Run every trial of the ensemble and summarize per-method outcomes.

    Each trial's solver settings come from ``default_trial_config``. A solver
    failure inside one trial is recorded as an unsuccessful outcome with
    infinite residual and the exception's class name in ``error``; it never
    aborts the ensemble. With ``keep_artifacts`` the result also keeps, per
    trial, a dict of each completed method's ``MethodRun``; a kept lifted
    problem keeps its factored operator too.
    """
    records: list[TrialRecord] = []
    kept: list[dict[Method, MethodRun]] | None = [] if keep_artifacts else None
    for t in range(spec.trials):
        polys, x_true, values = sample_trial(spec, t)
        config = default_trial_config(spec, values)
        artifacts: dict[Method, MethodRun] | None = {} if keep_artifacts else None
        outcomes: dict[Method, MethodOutcome] = {}
        for method in spec.methods:
            try:
                outcomes[method] = _run_method(method, polys, values, x_true,
                                               spec, config, artifacts)
            except (SolverError, np.linalg.LinAlgError) as exc:
                outcomes[method] = MethodOutcome(False, math.inf, math.nan, 0, 0.0,
                                                 error=type(exc).__name__)
        records.append(TrialRecord(trial_index=t, outcomes=outcomes))
        if kept is not None:
            kept.append(artifacts)
    summary = {m: _summarize(records, m) for m in spec.methods}
    return ExperimentResult(spec=spec, records=records, summary=summary,
                            artifacts=kept)


_QUARTILES = np.array([0.0, 0.25, 0.5, 0.75, 1.0])


def five_number_summary(values) -> tuple[float, float, float, float, float]:
    """Min, lower quartile, median, upper quartile, max with the linear
    interpolation convention.

    Interpolating towards an infinite order statistic gives that infinity
    (np.quantile gives nan there, from inf - inf or inf * 0), so one failed
    trial's infinite residual does not blank the whole summary.
    """
    arr = np.asarray(values, dtype=float)
    if arr.size == 0:
        raise ValueError("need at least one value")
    with np.errstate(invalid="ignore"):
        q = np.quantile(arr, _QUARTILES)
    if np.isinf(arr).any() and not np.isnan(arr).any():
        ordered = np.sort(arr)
        pos = _QUARTILES * (arr.size - 1)
        lo = np.floor(pos).astype(np.intp)
        a = ordered[lo]
        b = ordered[np.minimum(lo + 1, arr.size - 1)]
        at_a = (pos == lo) | np.isinf(a)
        q = np.where(np.isinf(a) | np.isinf(b), np.where(at_a, a, b), q)
    return tuple(float(v) for v in q)


def _summarize(records: list[TrialRecord], method: Method) -> MethodSummary:
    successes = [r.outcomes[method].success for r in records]
    residuals = [r.outcomes[method].residual_sq for r in records]
    mn, q1, med, q3, mx = five_number_summary(residuals)
    return MethodSummary(
        success_rate=sum(successes) / len(successes),
        residual_min=mn, residual_q1=q1, residual_median=med,
        residual_q3=q3, residual_max=mx,
    )


def _fmt(v: float) -> str:
    return repr(float(v))


def results_to_csv(result: ExperimentResult, include_timings: bool = False) -> str:
    """Per-trial rows plus a commented summary block.

    Timing columns are opt-in because they vary run to run; everything else
    is byte-identical for a fixed spec and seed.
    """
    spec = result.spec
    lines = [RESULTS_HEADER]
    lines.append(
        f"# experiment name={spec.name} num_vars={spec.num_vars} "
        f"num_equations={spec.num_equations} order={spec.order} "
        f"sparsity={spec.sparsity} planted_std={_fmt(spec.planted_std)} "
        f"coeff_std={_fmt(spec.coeff_std)} trials={spec.trials} "
        f"seed={spec.seed} lambda={_fmt(spec.lam)}"
    )
    cols = ["trial", "method", "success", "residual_sq", "rank1_ratio", "iterations"]
    if include_timings:
        cols.append("wall_time_ms")
    lines.append(",".join(cols))
    for record in result.records:
        for method in spec.methods:
            o = record.outcomes[method]
            row = [
                str(record.trial_index),
                method.value,
                "1" if o.success else "0",
                _fmt(o.residual_sq),
                _fmt(o.rank1_ratio),
                str(o.iterations),
            ]
            if include_timings:
                row.append(_fmt(o.wall_time_ms))
            lines.append(",".join(row))
    lines.append("# summary")
    lines.append("# method,success_rate,residual_min,residual_q1,"
                 "residual_median,residual_q3,residual_max")
    for method in spec.methods:
        s = result.summary[method]
        lines.append(
            f"# {method.value},{_fmt(s.success_rate)},{_fmt(s.residual_min)},"
            f"{_fmt(s.residual_q1)},{_fmt(s.residual_median)},"
            f"{_fmt(s.residual_q3)},{_fmt(s.residual_max)}"
        )
    return "\n".join(lines) + "\n"


def emit_boxplot_data(records: list[TrialRecord]) -> str:
    """Five-number summaries and whisker outliers of squared residuals per
    method, with a log10 column, enough to redraw the comparison box plot in
    any plotting tool. Outliers follow the 1.5 * IQR whisker convention."""
    if not records:
        raise ValueError("need at least one record")
    methods = list(records[0].outcomes.keys())
    lines = [BOXPLOT_HEADER, "method,stat,residual_sq,log10_residual_sq"]

    def log10(v: float) -> float:
        return math.log10(max(v, 1e-300))

    for method in methods:
        residuals = np.array([r.outcomes[method].residual_sq for r in records])
        mn, q1, med, q3, mx = five_number_summary(residuals)
        for stat, v in [("min", mn), ("q1", q1), ("median", med),
                        ("q3", q3), ("max", mx)]:
            lines.append(f"{method.value},{stat},{_fmt(v)},{_fmt(log10(v))}")
        iqr = q3 - q1
        lo, hi = q1 - 1.5 * iqr, q3 + 1.5 * iqr
        for v in residuals[(residuals < lo) | (residuals > hi)]:
            lines.append(f"{method.value},outlier,{_fmt(v)},{_fmt(log10(v))}")
    return "\n".join(lines) + "\n"
