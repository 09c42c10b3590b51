"""Social-network stability via the k-truss model: measurement and attack.

The library finds the b edges whose deletion unravels the largest part of
a graph's k-truss, with exact, heuristic, greedy, candidate-reduced, and
upper-bound-accelerated solvers.
"""

from .cascade import DeletionOutcome, delete_and_cascade, followers_of_edge, \
    simulate_followers
from .errors import ContractViolation, EdgeListParseError, EnumerationCapExceeded
from .graph import Graph, load_edge_list
from .groups import GroupIndex, SupportGroup, SupportGroupIndex, \
    build_truss_group_index, find_support_groups, refresh_index, upper_bound
from .minimize import ALGORITHMS, IterationRecord, MinimizationReport, \
    SolverConfig, solve, solve_baseline, solve_exact, solve_gp_edge, \
    solve_support, solve_up_edge
from .truss import TrussSubgraph, TrussnessMap, k_truss, truss_decompose, \
    update_after_deletion

__all__ = [
    "ALGORITHMS",
    "ContractViolation",
    "DeletionOutcome",
    "EdgeListParseError",
    "EnumerationCapExceeded",
    "Graph",
    "GroupIndex",
    "IterationRecord",
    "MinimizationReport",
    "SolverConfig",
    "SupportGroup",
    "SupportGroupIndex",
    "TrussSubgraph",
    "TrussnessMap",
    "build_truss_group_index",
    "delete_and_cascade",
    "find_support_groups",
    "followers_of_edge",
    "k_truss",
    "load_edge_list",
    "refresh_index",
    "simulate_followers",
    "solve",
    "solve_baseline",
    "solve_exact",
    "solve_gp_edge",
    "solve_support",
    "solve_up_edge",
    "truss_decompose",
    "update_after_deletion",
    "upper_bound",
]

__version__ = "0.1.0"
