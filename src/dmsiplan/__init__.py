"""Minimum-total-delay broadcast planning for clients with side information.

Workflow: parse or build a DmsiInstance, take optimal_assignment /
closed_form_delay for the plan and its cost, construct_code for a concrete
linear code realizing it, run_simulation to broadcast a payload and decode it
at every client, and keep the independent checks close by
(netflow.is_solvable, oracle.brute_force_optimum) when results matter.
"""

from .assignment import (
    AssignmentMatrix,
    DelayReport,
    TransformStep,
    TransformTrace,
    closed_form_delay,
    is_feasible,
    optimal_assignment,
    reduce_to_exact_weights,
    total_delay,
    transform_to_optimal,
)
from .coding import (
    ClientView,
    CodeConstructionError,
    CodingMatrix,
    SimulationResult,
    construct_code,
    decodability_check,
    decode,
    default_field_degree,
    encode,
    matrix_rank,
    run_simulation,
)
from .gf import Field
from .instance import (
    ClientSpec,
    DmsiInstance,
    InstanceError,
    format_rational,
    parse_instance,
    parse_rational,
)
from .netflow import is_solvable, sink_flows
from .oracle import BudgetExceededError, OracleResult, brute_force_optimum

__all__ = [
    "AssignmentMatrix",
    "BudgetExceededError",
    "ClientSpec",
    "ClientView",
    "CodeConstructionError",
    "CodingMatrix",
    "DelayReport",
    "DmsiInstance",
    "Field",
    "InstanceError",
    "OracleResult",
    "SimulationResult",
    "TransformStep",
    "TransformTrace",
    "brute_force_optimum",
    "closed_form_delay",
    "construct_code",
    "decodability_check",
    "decode",
    "default_field_degree",
    "encode",
    "format_rational",
    "is_feasible",
    "is_solvable",
    "matrix_rank",
    "optimal_assignment",
    "parse_instance",
    "parse_rational",
    "reduce_to_exact_weights",
    "run_simulation",
    "sink_flows",
    "total_delay",
    "transform_to_optimal",
]
