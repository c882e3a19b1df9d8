"""Temporal-decomposition SQP solver for long-horizon nonlinear dynamic programs.

The package solves equality-constrained discrete-time optimal control
problems by sequential quadratic programming with an exact augmented
Lagrangian merit function.  Each Newton system is either factorized whole
(centralized baseline) or split into overlapping per-interval subproblems
solved in parallel and recomposed from their exclusive stages.  An
overlapping Schwarz baseline, which solves nonlinear subproblems to
optimality per iteration, and two benchmark problem families round out the
experiment harness.
"""

from .benchmarks import (PlateSpec, ToySpec, make_initializations,
                         make_plate_problem, make_toy_problem,
                         toy_case_params)
from .decomposition import (BoundaryVars, DecompositionPlan, SubproblemData,
                            SubproblemSolution, approximate_direction,
                            assemble_subproblem, compose, decompose,
                            make_plan, solve_subproblem)
from .driver import (IterationRecord, SolveReport, SolverConfig, SolverState,
                     adapt_penalties, fotd_step, line_search, solve)
from .exceptions import (AdaptivityFailure, ArmijoStall,
                         IndefiniteHorizonError, IndefiniteStageError,
                         LineSearchFailure, LinearSolverError,
                         ModificationFailure, MuTooSmallError,
                         NonDescentError, NumericsError,
                         SingularKKTError, SingularStageError, SolverError,
                         SubproblemFailure, UndefinedRatioError)
from .newton import (NewtonData, NewtonDirection, assemble_newton_data,
                     check_reduced_hessian, modify_hessian, solve_full_newton,
                     theory_gamma_G, theory_mu_bar)
from .problem import (DualTrajectory, PenaltyParams, ProblemDef, Trajectory,
                      eval_constraints, eval_lagrangian_gradient, eval_merit,
                      eval_merit_gradient, eval_objective, kkt_residual,
                      linearize, load_point_csv, save_point_csv,
                      stage_batched)
from .schwarz import (IntervalChain, boundary_compatibility,
                      one_newton_schwarz_step, schwarz_solve,
                      solve_nonlinear_subproblem, truncated_problem)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
