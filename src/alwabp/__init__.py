"""Solver suite for assembly line worker assignment and balancing (type 2):
instance tooling, lower bounds, a probabilistic beam-search heuristic, a
task-oriented branch-and-bound, and MIP model export."""

from .instance import (
    HIGH,
    INFEASIBLE,
    LOW,
    AlwabpError,
    CycleError,
    EnumerationLimitError,
    GenerationError,
    Instance,
    ParseError,
    Solution,
    generate_instance,
    parse_instance,
    reverse_instance,
    transitive_closure,
    transitive_reduction,
    validate_solution,
    write_instance,
)
from .bounds import (
    BoundReport,
    all_bounds,
    lc1,
    lc2,
    lc3,
)
from .heuristic import (
    FAILED,
    BeamParams,
    IpbsParams,
    beam_search_feasible,
    initial_upper_bound,
    ipbs,
    local_search,
)
from .bnb import (
    BnbConfig,
    BnbResult,
    branch_and_bound,
    brute_force_optimal,
)
from .export import (
    M2,
    M3,
    check_solution_against_model,
    emit_model,
)
from .cli import main

__version__ = "0.1.0"
