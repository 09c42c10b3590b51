"""Every name the benchmark tracer patches still exists in the library.

`perfbench/spans.py` wraps library functions and methods by name.  A
refactor that drops or renames one of them breaks tracing; this test makes
that a test failure instead of a failed benchmark run.
"""

import inspect
from pathlib import Path

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
