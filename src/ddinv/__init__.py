"""Data-driven synthesis of constrained invariant-set state feedback.

The package designs a linear state feedback for an unknown discrete-time
plant directly from one open-loop experiment, so that a polyhedral state
constraint set becomes invariant (and contractive) for the closed loop
while the input constraints stay satisfied. Everything reduces to linear
programs solved by the bundled simplex implementation.
"""

__version__ = "0.1.0"

from .experiment import (ExperimentData, PlantModel, build_data_matrices,
                         data_has_full_row_rank, hankel,
                         is_persistently_exciting, simulate,
                         simulate_closed_loop, stacked_data_matrix)
from .lp import LinearProgram, LpSolution, LpStatus, solve
from .polytopes import (DisturbanceSet, InputPolytope, PolyhedralCSet,
                        RankDeficientError, UnboundedSetError,
                        enumerate_vertices, gauge, validate_cset)
from .synthesis import (Certificate, InfeasibleProblem, SolverFailure,
                        SynthesisProblem, build_databased_lp,
                        build_modelbased_lp, build_robust_lp, extract_gain,
                        find_certificate_matrix, minimize_lambda, synthesize)
from .verification import (VerificationReport, check_admissibility,
                           check_invariance_certificate,
                           check_robust_invariance,
                           check_vertex_contractivity, lyapunov_value,
                           verify_certificate)
