"""In-memory span tracer for the nlbp layers, and its reduction to metrics.

Each layer's public functions are wrapped at the name their caller looks up
(for example ``nlbp.baselines.build_lifted_problem``, which is what
``_run_lifted`` calls), so the program itself is unchanged. A span is
(name, start, end, parent); spans live in flat lists while the run lasts and
are written out once at the end. All calls happen on one thread, so spans
nest strictly and a span's self time is its duration minus the durations of
its direct children.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

# Spans that only group their children. Their self time (the method
# dispatch in ``harness._run_method``) is counted as unattributed.
GROUPING_SPANS = ("harness.method",)


@dataclass
class SolveInfo:
    """What one ``solve_nlbp`` call returned, keyed by its span."""

    span: int
    iterations: int
    status: str


@dataclass
class CacheInfo:
    """What one ``AffineCache.build`` call returned, keyed by its span."""

    span: int
    solve_span: int  # the enclosing span, the solve that built the cache
    dim: int
    constraints: int
    row_mat_bytes: int
    hopeless: bool  # infeasibility_lb above the solver's feasibility tolerance


@dataclass
class Tracer:
    names: list[str] = field(default_factory=list)
    parents: list[int] = field(default_factory=list)
    starts: list[int] = field(default_factory=list)
    ends: list[int] = field(default_factory=list)
    tags: dict[int, str] = field(default_factory=dict)
    solves: list[SolveInfo] = field(default_factory=list)
    caches: list[CacheInfo] = field(default_factory=list)
    extractions: list[bool] = field(default_factory=list)
    errors: list[tuple[int, str]] = field(default_factory=list)  # (span, class)
    missing: list[str] = field(default_factory=list)
    _stack: list[int] = field(default_factory=list)
    _installed: list[tuple[object, str, object]] = field(default_factory=list)

    # -- recording -----------------------------------------------------------

    def _traced(self, func, name, on_return=None, tag=None):
        clock = time.perf_counter_ns
        names, parents, starts, ends, stack = (
            self.names, self.parents, self.starts, self.ends, self._stack)

        def wrapper(*args, **kwargs):
            idx = len(starts)
            names.append(name)
            parents.append(stack[-1] if stack else -1)
            ends.append(0)
            stack.append(idx)
            if tag is not None:
                self.tags[idx] = tag(args)
            starts.append(clock())
            try:
                result = func(*args, **kwargs)
            except Exception as exc:
                self.errors.append((idx, type(exc).__name__))
                raise
            finally:
                ends[idx] = clock()
                stack.pop()
            if on_return is not None:
                on_return(idx, result)
            return result

        wrapper.__wrapped__ = func
        return wrapper

    def wrap(self, owner, attr: str, name: str, on_return=None, tag=None):
        """Replace ``owner.attr`` by a span-recording wrapper.

        A target the program no longer has is listed in ``missing`` and its
        metrics read zero, so the end-to-end run keeps working after a
        refactor renames a layer function.
        """
        raw = vars(owner).get(attr)
        if raw is None:
            self.missing.append(f"{getattr(owner, '__name__', owner)}.{attr}")
            return
        if isinstance(raw, classmethod):
            replacement = classmethod(
                self._traced(raw.__func__, name, on_return, tag))
        else:
            replacement = self._traced(raw, name, on_return, tag)
        self._installed.append((owner, attr, raw))
        setattr(owner, attr, replacement)

    def uninstall(self):
        """Put every wrapped attribute back, most recent first."""
        while self._installed:
            owner, attr, raw = self._installed.pop()
            setattr(owner, attr, raw)

    def install_nlbp(self):
        """Wrap the layer boundaries of one ``run_experiment`` trial."""
        from nlbp import baselines, harness, lifting, sdp_admm

        def on_solve(idx, report):
            self.solves.append(SolveInfo(idx, report.iterations, report.status.value))

        def on_cache(idx, cache):
            # The solver's feasibility tolerance, as solve_nlbp documents it.
            rhs_max = float(np.max(np.abs(cache.rhs_raw))) if len(cache.rhs_raw) else 0.0
            nbytes = sum(getattr(cache, a).nbytes for a in ("row_mat", "row_mat_raw"))
            solve_span = self._stack[-1] if self._stack else -1
            self.caches.append(CacheInfo(
                idx, solve_span, cache.dim, len(cache.rhs_raw), nbytes,
                cache.infeasibility_lb > 1e-6 * (1.0 + rhs_max)))

        def on_extract(idx, recovered):
            self.extractions.append(bool(recovered.valid))

        self.wrap(harness, "sample_trial", "harness.sample_trial")
        self.wrap(harness, "_run_method", "harness.method",
                  tag=lambda args: args[0].value)
        self.wrap(harness, "random_polynomial", "monomials.random_polynomial")
        self.wrap(harness, "eval_polynomial", "monomials.eval_polynomial")
        self.wrap(harness, "truncate_polynomial", "monomials.truncate_polynomial")
        self.wrap(harness, "solve_linear", "baselines.solve_linear")
        self.wrap(baselines, "eval_polynomial", "monomials.eval_polynomial")
        self.wrap(baselines, "build_lifted_problem", "lifting.build_lifted_problem")
        self.wrap(lifting, "polynomial_to_quadratic_form",
                  "lifting.polynomial_to_quadratic_form")
        self.wrap(lifting, "generate_dependency_constraints",
                  "lifting.generate_dependency_constraints")
        self.wrap(baselines, "solve_nlbp", "sdp_admm.solve", on_return=on_solve)
        self.wrap(sdp_admm.AffineCache, "build", "sdp_admm.cache_build",
                  on_return=on_cache)
        self.wrap(sdp_admm.AffineCache, "project", "sdp_admm.project_affine")
        self.wrap(sdp_admm, "project_psd", "sdp_admm.project_psd")
        self.wrap(sdp_admm, "soft_threshold", "sdp_admm.soft_threshold")
        self.wrap(baselines, "extract_rank1", "recovery.extract_rank1",
                  on_return=on_extract)
        self.wrap(baselines, "refine_solution", "baselines.refine_solution")
        self.wrap(baselines, "system_residual_sq", "baselines.system_residual_sq")
        self.wrap(baselines, "success_criterion", "baselines.success_criterion")

    # -- output --------------------------------------------------------------

    def arrays(self) -> dict[str, np.ndarray]:
        table = sorted(set(self.names))
        code = {n: i for i, n in enumerate(table)}
        return {
            "name_table": np.array(table),
            "name": np.array([code[n] for n in self.names], dtype=np.int32),
            "parent": np.array(self.parents, dtype=np.int64),
            "start_ns": np.array(self.starts, dtype=np.int64),
            "end_ns": np.array(self.ends, dtype=np.int64),
        }

    def save(self, path):
        np.savez(path, **self.arrays())


def self_times(parent: np.ndarray, start: np.ndarray, end: np.ndarray) -> np.ndarray:
    """Duration of each span minus the part of it its direct children cover.

    Spans come from one thread, so siblings never overlap; a child is clipped
    to its parent's interval before it is subtracted.
    """
    parent = np.asarray(parent)
    start = np.asarray(start, dtype=np.int64)
    end = np.asarray(end, dtype=np.int64)
    dur = end - start
    has_parent = parent >= 0
    p = parent[has_parent]
    covered = (np.minimum(end[has_parent], end[p])
               - np.maximum(start[has_parent], start[p])).clip(min=0)
    return dur - np.bincount(p, weights=covered, minlength=len(dur)).astype(np.int64)


def _method_of(tracer: Tracer) -> list[str]:
    """Method tag ("NLBP", "QBP", "LASSO") of the innermost enclosing
    ``harness.method`` span, or "" outside every method."""
    out = [""] * len(tracer.names)
    for i, p in enumerate(tracer.parents):
        out[i] = tracer.tags.get(i) or (out[p] if p >= 0 else "")
    return out


def layer_metrics(tracer: Tracer, trial_ms: list[float]) -> dict[str, tuple[float, str]]:
    """Reduce the spans of a traced run to per-layer metrics.

    ``trial_ms`` are the trial intervals of the same run (between consecutive
    ``sample_trial`` calls); "ms" metrics are self time per trial.
    """
    trials = max(len(trial_ms), 1)
    arr = tracer.arrays()
    table = list(arr["name_table"])
    code = arr["name"]
    start, end = arr["start_ns"], arr["end_ns"]
    selfs = self_times(arr["parent"], start, end)
    method = np.array(_method_of(tracer)) if tracer.names else np.array([], dtype=str)

    def mask(name):
        return code == table.index(name) if name in table else np.zeros(len(code), bool)

    def self_ms(name):
        return float(selfs[mask(name)].sum()) / 1e6 / trials

    def us_per_call(name):
        m = mask(name)
        return float((end - start)[m].sum()) / 1e3 / max(int(m.sum()), 1)

    out: dict[str, tuple[float, str]] = {}
    for name in ("harness.sample_trial", "monomials.random_polynomial",
                 "monomials.eval_polynomial", "monomials.truncate_polynomial",
                 "lifting.build_lifted_problem",
                 "lifting.polynomial_to_quadratic_form",
                 "lifting.generate_dependency_constraints",
                 "recovery.extract_rank1", "baselines.refine_solution",
                 "baselines.solve_linear", "baselines.system_residual_sq",
                 "baselines.success_criterion"):
        out[f"{name}.ms"] = (self_ms(name), "ms")
    out["monomials.eval_polynomial.calls"] = (
        float(mask("monomials.eval_polynomial").sum()) / trials, "count")

    nlbp_caches = [c for c in tracer.caches if method[c.span] == "NLBP"]
    out["lifting.dim"] = (float(max((c.dim for c in nlbp_caches), default=0)), "count")
    out["lifting.constraints"] = (
        float(max((c.constraints for c in nlbp_caches), default=0)), "count")

    solve_m, cache_m = mask("sdp_admm.solve"), mask("sdp_admm.cache_build")
    incl = end - start
    iters_all = sum(s.iterations for s in tracer.solves)
    loop_ns_all = float(incl[solve_m].sum() - incl[cache_m].sum())
    for tag in ("NLBP", "QBP"):
        low = tag.lower()
        in_m = method == tag
        loop_ns = float(incl[solve_m & in_m].sum() - incl[cache_m & in_m].sum())
        out[f"sdp_admm.cache_build.{low}.ms"] = (
            float(incl[cache_m & in_m].sum()) / 1e6 / trials, "ms")
        out[f"sdp_admm.solve.{low}.ms"] = (loop_ns / 1e6 / trials, "ms")
        iters = [s.iterations for s in tracer.solves if method[s.span] == tag]
        out[f"sdp_admm.iters.{low}"] = (float(np.median(iters)) if iters else 0.0, "count")
    out["sdp_admm.us_per_iter"] = (loop_ns_all / 1e3 / max(iters_all, 1), "us")
    out["sdp_admm.bookkeeping.us_per_iter"] = (
        float(selfs[solve_m].sum()) / 1e3 / max(iters_all, 1), "us")
    for kernel in ("project_affine", "project_psd", "soft_threshold"):
        out[f"sdp_admm.{kernel}.us_per_call"] = (
            us_per_call(f"sdp_admm.{kernel}"), "us")
    for status in ("converged", "infeasible", "max_iters"):
        out[f"sdp_admm.status.{status}"] = (
            float(sum(s.status == status for s in tracer.solves)), "count")

    # Computed, not measured: bytes held by the raw and normalized constraint
    # rows, and floating-point operations per call at the largest lift.
    dim = max((c.dim for c in tracer.caches), default=0)
    rows = max((c.constraints for c in tracer.caches if c.dim == dim), default=0)
    out["sdp_admm.row_mat_bytes"] = (
        float(max((c.row_mat_bytes for c in tracer.caches), default=0)), "bytes")
    out["sdp_admm.project_affine.flop"] = (
        float(4 * rows * dim * dim + 4 * rows * rows), "flop")
    out["sdp_admm.project_psd.flop"] = (float(11 * dim ** 3), "flop")
    out["sdp_admm.soft_threshold.flop"] = (float(4 * dim * dim), "flop")

    hopeless = {c.solve_span for c in tracer.caches if c.hopeless}
    wasted = sum(s.iterations for s in tracer.solves if s.span in hopeless)
    out["sdp_admm.wasted_iter_share"] = (wasted / max(iters_all, 1), "ratio")

    valid = sum(tracer.extractions)
    out["recovery.valid_share"] = (valid / max(len(tracer.extractions), 1), "ratio")
    out["baselines.polished_share"] = (
        float(mask("baselines.refine_solution").sum()) / max(valid, 1), "ratio")
    # An exception passes through every span up to the method, where
    # run_experiment catches it; count it once, there.
    methods = set(np.flatnonzero(mask("harness.method")).tolist())
    raised = [cls for span, cls in tracer.errors if span in methods]
    out["baselines.solver_errors"] = (float(len(raised)), "count")
    for cls in ("SolverError", "LinAlgError"):
        out[f"baselines.solver_errors.{cls}"] = (float(raised.count(cls)), "count")

    grouping = np.isin(code, [table.index(g) for g in GROUPING_SPANS if g in table])
    attributed_ms = float(selfs[~grouping].sum()) / 1e6
    total_ms = float(sum(trial_ms))
    out["trace.unattributed_share"] = (
        (total_ms - attributed_ms) / total_ms if total_ms else 0.0, "ratio")
    return out
