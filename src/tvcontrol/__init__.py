"""Outer-approximation solver for elliptic optimal control under a TV-ball constraint."""

from .driver import (
    IterationRecord,
    RunReport,
    SolverConfig,
    compute_eoc,
    rel_error,
    run_outer_approximation,
)
from .instances import ProblemInstance, build_exact_instance, build_generic_instance
from .master_problem import CuttingPlane, MasterSolution
from .mesh_fem import (
    Mesh,
    P0Field,
    P1ScalarField,
    P1VectorField,
    build_friedrichs_keller,
)
from .reporting import dump_field, load_field, serialize_report
from .tv_oracle import (
    OracleResult,
    discrete_tv,
    eval_tv_eps,
    tv_lower_bound,
)

__all__ = [
    "CuttingPlane",
    "IterationRecord",
    "MasterSolution",
    "Mesh",
    "OracleResult",
    "P0Field",
    "P1ScalarField",
    "P1VectorField",
    "ProblemInstance",
    "RunReport",
    "SolverConfig",
    "build_exact_instance",
    "build_friedrichs_keller",
    "build_generic_instance",
    "compute_eoc",
    "discrete_tv",
    "dump_field",
    "eval_tv_eps",
    "load_field",
    "rel_error",
    "run_outer_approximation",
    "serialize_report",
    "tv_lower_bound",
]
