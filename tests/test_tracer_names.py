"""Every name the benchmark tracer patches still exists in the library.

`perfbench/spans.py` wraps library functions and methods by name.  A
refactor that drops or renames one of them breaks tracing; this test makes
that a test failure instead of a failed benchmark run.
"""

from pathlib import Path

SPANS = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"


def test_every_patched_name_resolves():
    # run from source so that no bytecode is written beside the tracer
    spans = {"__name__": "perfbench_spans"}
    exec(compile(SPANS.read_text(encoding="utf-8"), str(SPANS), "exec"), spans)
    patches = spans["PATCHES"]
    missing = [attr for owner, attr, _, _ in patches if not callable(getattr(owner, attr, None))]
    assert patches and missing == []
    assert callable(spans["TrussSubgraph"].cascade)
