"""The package root exports the documented surface and nothing more."""

import importlib

import trussmin

ROOT = sorted([
    "ALGORITHMS", "SolverConfig", "solve", "IterationRecord", "MinimizationReport",
    "solve_baseline", "solve_exact", "solve_gp_edge", "solve_support", "solve_up_edge",
    "Graph", "load_edge_list", "TrussSubgraph", "k_truss", "truss_decompose",
    "followers_of_edge", "delete_and_cascade",
    "ContractViolation", "EdgeListParseError", "EnumerationCapExceeded",
])

# building blocks kept off the root, by the module that holds them
IN_MODULES = {
    "cascade": ("DeletionOutcome", "simulate_followers"),
    "groups": ("GroupIndex", "SupportGroup", "SupportGroupIndex", "build_truss_group_index",
               "find_support_groups", "refresh_index"),
    "truss": ("update_after_deletion",),
}


def test_root_exports_exactly_the_documented_names():
    assert sorted(trussmin.__all__) == ROOT
    # a star import fails on any listed name that does not resolve
    namespace = {}
    exec("from trussmin import *", namespace)
    assert sorted(k for k in namespace if k != "__builtins__") == ROOT


def test_names_off_the_root_import_from_their_modules():
    for module, names in IN_MODULES.items():
        mod = importlib.import_module(f"trussmin.{module}")
        for name in names:
            assert name not in trussmin.__all__, name
            assert getattr(mod, name) is not None, (module, name)
