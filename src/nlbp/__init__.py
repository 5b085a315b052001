"""Sparse and dense solutions of polynomial equation systems via rank-one
matrix lifting and an ADMM-solved semidefinite relaxation."""

from .monomials import (
    MonomialBasis,
    MultiIndex,
    Polynomial,
    PolySystem,
    enumerate_alpha_set,
    enumerate_basis,
    eval_monomial,
    eval_polynomial,
    exponent_table,
    polynomial_from_json,
    polynomial_to_json,
    random_polynomial,
    truncate_polynomial,
)
from .lifting import (
    ConstraintKind,
    DegreeTooHighError,
    LiftedConstraint,
    LiftedProblem,
    OddOrderError,
    build_lifted_problem,
    generate_dependency_constraints,
    lift_vector,
    lifted_problem_from_json,
    lifted_problem_to_json,
    polynomial_to_quadratic_form,
    quadratic_forms,
)
from .sdp_admm import (
    AffineCache,
    SolveReport,
    SolverConfig,
    SolverError,
    SolveStatus,
    project_affine,
    project_psd,
    soft_threshold,
    solve_nlbp,
)
from .recovery import (
    AllZeroColumnsError,
    CoherenceCertificate,
    DegenerateTopEigenvalueError,
    ExtractionThresholds,
    OperatorSizeError,
    RecoveredSolution,
    coherence_certificate,
    estimate_rip_epsilon,
    extract_rank1,
    mutual_coherence,
    operator_matrix,
)
from .baselines import (
    BaselineResult,
    Method,
    OracleBudget,
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
