"""Solver library for distributed optimal control of time-fractional
diffusion: piecewise-constant discontinuous Galerkin in time on graded
grids, linear finite elements in space, variational discretization of the
box-constrained control, and a fixed-point optimizer, together with a
convergence-study harness."""

from .control import (ControlField, CostReport, FixedPointDiverged,
                      control_loads, evaluate_cost, fixed_point_solve,
                      fixed_point_solves, optimality_residual, project_admissible)
from .fem import (TriDiagonalOperator, assemble_mass, assemble_stiffness,
                  load_descriptor, load_powerlaw, sine_transform)
from .fracops import (KernelMoments, OracleToleranceError,
                      TemporalCouplingMatrix, assemble_coupling,
                      half_derivative_oracle, source_moments)
from .harness import (ConvergenceTable, ExperimentConfig, emit_table,
                      error_l2l2, estimate_order, forward_single_mode_error,
                      run_spatial_study, run_studies, run_temporal_study)
from .mesh import (SpatialGrid, TemporalGrid, build_graded,
                   build_uniform_spatial, default_sigmas, merge_breakpoints)
from .mittag import MlAccuracyError, SpectralSolution, crossover_z0, ml, spectral_state
from .problem import (FunctionDescriptor, PowerLaw, ProblemSpec, SineCombo,
                      TimeConstant, Zero, default_experiment_spec,
                      from_config_text, to_config_text, validate)
from .solver import (MarchPlan, SourceTerm, SpaceTimeField, adjoint_source,
                     apply_adjoint, apply_forward, check_adjoint_identity,
                     field_inner, march, march_plan, state_source)

__version__ = "0.1.0"
