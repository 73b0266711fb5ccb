"""Convex quadratic minimization with per-coordinate on/off costs.

Exact shortest-path solver for tridiagonal quadratics, a certified
dual-decomposition solver for sparse diagonally-dominant ones, and the
path-cover preprocessing that connects the two.
"""

from .errors import (
    HasCycle,
    InfeasiblePair,
    InputError,
    L0PathError,
    NotBipartite,
    NotDiagonallyDominant,
    NotPositiveDefinite,
    NotSymmetricStorage,
    NumericalError,
    ParseError,
    SegmentNotPD,
    SingularSupport,
    TemplateMismatch,
    TooLarge,
)
from .instance import (
    Instance,
    SupportGraph,
    Term,
    gen_lattice2d,
    gen_signal1d,
    gen_tridiagonal,
    read_instance,
    support_graph,
    validate,
    write_instance,
)
from .tridiag import SPSolution, TridiagProblem, solve, solve_fixed_z, to_tridiagonal
from .fenchel import f_star, f_star_subgradient
from .cover import (
    Ordering,
    b2_subgraph_bipartite,
    b2_subgraph_general,
    break_cycles,
    make_ordering,
    path_cover,
)
from .decomp import (
    IterationRecord,
    Relaxation,
    RunConfig,
    RunResult,
    assemble_psi,
    default_relaxation,
    h_eval,
    run,
    subgradient,
    upper_bound,
    write_iteration_log,
)
from .oracle import OracleResult, enumerate_supports, fixed_z_qp

__version__ = "0.1.0"

__all__ = [
    "L0PathError", "InputError", "NumericalError", "ParseError",
    "NotSymmetricStorage", "NotDiagonallyDominant",
    "NotBipartite", "HasCycle", "TooLarge",
    "NotPositiveDefinite", "SegmentNotPD", "SingularSupport", "InfeasiblePair",
    "TemplateMismatch",
    "Instance", "Term", "SupportGraph",
    "validate", "support_graph",
    "gen_tridiagonal", "gen_signal1d", "gen_lattice2d",
    "read_instance", "write_instance",
    "TridiagProblem", "SPSolution", "solve", "solve_fixed_z",
    "to_tridiagonal",
    "f_star", "f_star_subgradient",
    "Ordering",
    "b2_subgraph_bipartite", "b2_subgraph_general", "break_cycles",
    "make_ordering", "path_cover",
    "Relaxation", "RunConfig", "IterationRecord", "RunResult",
    "default_relaxation", "assemble_psi", "h_eval",
    "subgradient", "upper_bound", "run", "write_iteration_log",
    "OracleResult", "fixed_z_qp", "enumerate_supports",
    "__version__",
]
