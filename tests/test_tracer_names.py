"""Every name the benchmark tracer patches still exists in the library.

`perfbench/spans.py` wraps library functions and methods by name.  A
refactor that drops or renames one of them breaks tracing; this test makes
that a test failure instead of a failed benchmark run.  A refactor that
stops calling one of them through `minimize` leaves its layer reading 0,
so a traced solve pins how often each layer runs.
"""

import inspect
from collections import Counter
from pathlib import Path

import synth
from trussmin import Graph, SolverConfig, minimize

SPANS = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"


def load_spans() -> dict:
    # run from source so that no bytecode is written beside the tracer
    spans = {"__name__": "perfbench_spans"}
    exec(compile(SPANS.read_text(encoding="utf-8"), str(SPANS), "exec"), spans)
    return spans


def test_every_patched_name_resolves():
    spans = load_spans()
    patches = spans["PATCHES"]
    missing = [attr for owner, attr, _, _ in patches if not callable(getattr(owner, attr, None))]
    assert patches and missing == []
    assert callable(spans["TrussSubgraph"].cascade)


def test_cascade_takes_what_the_commit_wrapper_forwards():
    # the tracer swaps in `cascade(t, seeds, log=None)`, which forwards
    # exactly those arguments, so any other parameter would be dropped
    params = inspect.signature(load_spans()["TrussSubgraph"].cascade).parameters.values()
    positional = inspect.Parameter.POSITIONAL_OR_KEYWORD
    assert [(p.name, p.kind, p.default) for p in params] == [
        ("self", positional, inspect.Parameter.empty),
        ("seeds", positional, inspect.Parameter.empty),
        ("log", positional, None),
    ]


def test_a_traced_solve_records_every_layer_it_calls():
    # a solver that stops calling a traced name through `minimize` leaves
    # that layer reading 0 in every benchmark run; the names the solvers
    # no longer call are listed too, so retiring them updates this test
    def records(solve, g) -> list[list[tuple]]:
        return [[(r.edge, r.eid, r.followers, r.candidates_total, r.candidates_evaluated)
                 for r in solve(g, SolverConfig(k=8, b=3, algorithm=algorithm)).iterations]
                for algorithm in ("up_edge", "gp_edge", "up_edge", "baseline", "support")]

    pairs = synth.community_pairs(seed=2, scale=3)
    spans = load_spans()
    tracer = spans["Tracer"]()
    solve = tracer.wrap(spans["SOLVE"], minimize.solve)
    with tracer.installed():
        traced = records(solve, Graph.from_pairs(pairs))
    counts = Counter(span[0] for span in tracer.spans)
    # `solve()` lends the cached level (`truss._level`) instead of calling
    # `k_truss`, so the first solve's peel runs under the solve span: its
    # one cascade counts as a commit beside the 15 deletions, and the rest
    # of the peel sits in the solve span's own time
    want = {"minimize.solve": 5, "minimize.two_level_tau": 2,
            "groups.build_index": 1, "groups.refresh_index": 6, "cascade.commit": 16}
    assert {name: counts[name] for name in want} == want
    assert counts["cascade.simulate"] > 0
    unused = ("truss.k_truss", "truss.update_after_deletion", "groups.find_support_groups",
              "groups.bound_pricing")
    assert [name for name in unused if counts[name]] == []
    assert records(minimize.solve, Graph.from_pairs(pairs)) == traced
