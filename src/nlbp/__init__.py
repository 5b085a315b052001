"""Sparse and dense solutions of polynomial equation systems via rank-one
matrix lifting and an ADMM-solved semidefinite relaxation."""

from .monomials import (
    PolySystem,
    exponent_table,
    monomial_vector,
    random_polynomial,
)
from .lifting import (
    AffineCache,
    ConstraintKind,
    DegreeTooHighError,
    LiftedProblem,
    OddOrderError,
    build_lifted_problem,
    generate_dependency_constraints,
    quadratic_forms,
)
from .sdp_admm import (
    SolveReport,
    SolverConfig,
    SolverError,
    SolveStatus,
    project_psd,
    soft_threshold,
    solve_nlbp,
)
from .recovery import (
    DegenerateTopEigenvalueError,
    DualCertificate,
    RecoveredSolution,
    dual_certificate,
    extract_rank1,
)
from .baselines import (
    Method,
    MethodRun,
    l0_oracle,
    refine_solution,
    solve_linear,
    solve_nlbp_system,
    solve_qbp,
    success_criterion,
    system_residual_sq,
)
from .harness import (
    ExperimentResult,
    ExperimentSpec,
    MethodOutcome,
    TrialRecord,
    default_trial_config,
    dense_spec,
    emit_boxplot_data,
    five_number_summary,
    results_to_csv,
    run_experiment,
    sample_trial,
    table1_spec,
)

__version__ = "0.1.0"
