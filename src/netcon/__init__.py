"""Exact solvers for network construction scheduling.

Given a network whose edges are built one at a time at unit speed, choose
the build order minimizing an objective over the times at which designated
vertex pairs first become connected: the weighted sum of connection times,
or their maximum lateness against due dates.  Two exact backends are
provided (a subtree dynamic program for trees, and for few pairs on general
networks a subset dynamic program over the pair endpoints, with scalar labels
under the weighted sum and Pareto sets of prefix lengths under maximum
lateness) plus brute-force oracles, instance generators, and a command-line
interface.
"""

from .chains import Chain, Job, density_decomposition, merge_two_chains
from .errors import (
    GuardExceededError,
    InstanceFormatError,
    InvalidInstanceError,
    NetconError,
    SequenceError,
    UnsupportedInstanceError,
)
from .evaluator import BuildSequence, Verdict, evaluate_sequence, validate_sequence
from .metric_solver import solve_fixed_r
from .model import (
    ConnectionReport,
    Instance,
    Network,
    Objective,
    OlaInput,
    RelevantPair,
    format_report,
    generate,
    parse_instance,
    parse_ola_input,
    reduce_ola,
    write_instance,
    write_ola_input,
)
from .oracle import interleaving_oracle, permutation_oracle, subset_dp
from .tree_solver import solve_tree

__version__ = "0.1.0"

__all__ = [
    "BuildSequence",
    "Chain",
    "ConnectionReport",
    "GuardExceededError",
    "Instance",
    "InstanceFormatError",
    "InvalidInstanceError",
    "Job",
    "NetconError",
    "Network",
    "Objective",
    "OlaInput",
    "RelevantPair",
    "SequenceError",
    "UnsupportedInstanceError",
    "Verdict",
    "density_decomposition",
    "evaluate_sequence",
    "format_report",
    "generate",
    "interleaving_oracle",
    "merge_two_chains",
    "parse_instance",
    "parse_ola_input",
    "permutation_oracle",
    "reduce_ola",
    "solve_fixed_r",
    "solve_tree",
    "subset_dp",
    "validate_sequence",
    "write_instance",
    "write_ola_input",
]
