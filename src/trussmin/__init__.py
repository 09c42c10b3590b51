"""Social-network stability via the k-truss model: measurement and attack.

The library finds the b edges whose deletion unravels the largest part of
a graph's k-truss, with exact, heuristic, greedy, candidate-reduced, and
upper-bound-accelerated solvers.
"""

from .cascade import delete_and_cascade, followers_of_edge
from .errors import ContractViolation, EdgeListParseError, EnumerationCapExceeded
from .graph import Graph, load_edge_list
from .minimize import ALGORITHMS, IterationRecord, MinimizationReport, \
    SolverConfig, solve, solve_baseline, solve_exact, solve_gp_edge, \
    solve_support, solve_up_edge
from .truss import TrussSubgraph, k_truss, truss_decompose

__all__ = [
    "ALGORITHMS",
    "ContractViolation",
    "EdgeListParseError",
    "EnumerationCapExceeded",
    "Graph",
    "IterationRecord",
    "MinimizationReport",
    "SolverConfig",
    "TrussSubgraph",
    "delete_and_cascade",
    "followers_of_edge",
    "k_truss",
    "load_edge_list",
    "solve",
    "solve_baseline",
    "solve_exact",
    "solve_gp_edge",
    "solve_support",
    "solve_up_edge",
    "truss_decompose",
]

__version__ = "0.1.0"
