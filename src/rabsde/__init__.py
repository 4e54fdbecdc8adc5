"""Numerical solver for reflected anticipated BSDEs with resistance feedback.

Builds discrete solutions (Y, Z, K) of obstacle-constrained backward equations
whose generator reads future solution values through conditional expectations
and a non-anticipating path functional of the reflection process. The solver
freezes the resistance path, runs a backward reflected sweep (exact on a
recombining lattice, least-squares Monte Carlo on a path ensemble), and
iterates the frozen path to its fixed point under exponentially weighted
norms.
"""

from .analysis import (
    ComparisonSetup,
    check_minimality,
    run_comparison,
    run_minimal_scheme,
    run_sandwich,
)
from .conditional import BasisSpec, RegressionCE, TreeModel, tree_ce
from .errors import ConfigurationError, GeneratorEvalError, NonConvergenceError, ValidationError
from .generators import (
    GeneratorSpec,
    InfConvolutionApprox,
    audit_fn_properties,
    audit_generator,
    eval_f,
    make_fn,
    make_generator,
)
from .grids import (
    DelaySpec,
    PathEnsemble,
    TimeGrid,
    build_grid,
    check_condition_ii,
    make_delays,
    resolve_delay,
    sample_brownian,
)
from .picard import (
    PicardConfig,
    PicardReport,
    WeightedNormParams,
    compute_constants,
    fixed_point_residual,
    solve_rabsde,
    weighted_distance,
)
from .problems import (
    LatticeSolution,
    ObstacleSpec,
    ProblemBundle,
    SolutionTriple,
    StateMap,
    TerminalSpec,
    validate_triple,
)
from .resistance import (
    ResistanceFunctional,
    ResistancePath,
    check_L2_lipschitz,
    check_monotone,
    check_nonanticipation,
    check_sup_lipschitz,
    eval_G,
)
from .snell import path_tree_stopping_value, snell_tree_solve
from .sweep import sweep, warm_start_k

__all__ = [
    "BasisSpec",
    "ComparisonSetup",
    "ConfigurationError",
    "DelaySpec",
    "GeneratorEvalError",
    "GeneratorSpec",
    "InfConvolutionApprox",
    "LatticeSolution",
    "NonConvergenceError",
    "ObstacleSpec",
    "PathEnsemble",
    "PicardConfig",
    "PicardReport",
    "ProblemBundle",
    "RegressionCE",
    "ResistanceFunctional",
    "ResistancePath",
    "SolutionTriple",
    "StateMap",
    "TerminalSpec",
    "TimeGrid",
    "TreeModel",
    "ValidationError",
    "WeightedNormParams",
    "audit_fn_properties",
    "audit_generator",
    "build_grid",
    "check_L2_lipschitz",
    "check_condition_ii",
    "check_minimality",
    "check_monotone",
    "check_nonanticipation",
    "check_sup_lipschitz",
    "compute_constants",
    "eval_G",
    "eval_f",
    "fixed_point_residual",
    "make_delays",
    "make_fn",
    "make_generator",
    "path_tree_stopping_value",
    "resolve_delay",
    "run_comparison",
    "run_minimal_scheme",
    "run_sandwich",
    "sample_brownian",
    "snell_tree_solve",
    "solve_rabsde",
    "sweep",
    "tree_ce",
    "validate_triple",
    "warm_start_k",
    "weighted_distance",
]

__version__ = "0.1.0"
