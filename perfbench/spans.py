"""Span tracing of the library's layers, applied from outside the library.

While a `Tracer` is installed it replaces the names the solvers look up in
`trussmin.minimize` (and two methods) with wrappers that record one span per
call: name, start, end, parent span, query id and a small work count taken
from the return value.  Nothing under `src/` knows about it, and everything
is restored on exit.  Spans stay in memory until `write` is called.

`TrussSubgraph.cascade` is recorded only when the solver itself calls it (a
committed deletion).  Under `simulate_followers`, `k_truss` or
`_two_level_tau` it is part of that caller's span.
"""

from __future__ import annotations

import gzip
import time
from contextlib import contextmanager
from pathlib import Path
from typing import Any, Callable, Optional

import trussmin.minimize as minimize_mod
from trussmin.groups import GroupIndex
from trussmin.truss import TrussSubgraph

SOLVE = "minimize.solve"

# (owner, attribute, span name, work count taken from the return value)
PATCHES: list[tuple[Any, str, str, Optional[Callable]]] = [
    (minimize_mod, "k_truss", "truss.k_truss", None),
    (minimize_mod, "update_after_deletion", "truss.update_after_deletion",
     lambda out: len(out[1])),
    (minimize_mod, "simulate_followers", "cascade.simulate", len),
    (minimize_mod, "find_support_groups", "groups.find_support_groups",
     lambda out: (len(out[0]), len(out[1]))),
    (minimize_mod, "build_truss_group_index", "groups.build_index", None),
    (minimize_mod, "refresh_index", "groups.refresh_index",
     lambda out: len(out.last_dissolved)),
    (minimize_mod, "_two_level_tau", "minimize.two_level_tau", None),
    (GroupIndex, "adjacent_gids", "groups.bound_pricing", None),
]

# spans whose self time and call count are reported as <name>_s and <name>_calls
TIMED = ("truss.k_truss", "truss.update_after_deletion", "cascade.simulate",
         "cascade.commit", "groups.find_support_groups", "groups.build_index",
         "groups.refresh_index", "groups.bound_pricing", "minimize.two_level_tau")


class Tracer:
    def __init__(self):
        # each span: [name, start, end, parent index or -1, query id, work]
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.qid: Optional[str] = None

    def wrap(self, name: str, fn: Callable, work: Optional[Callable] = None) -> Callable:
        """`fn` wrapped so that every call records one span."""
        spans, stack, clock = self.spans, self.stack, time.perf_counter

        def traced(*args, **kwargs):
            rec = [name, 0.0, 0.0, stack[-1] if stack else -1, self.qid, None]
            stack.append(len(spans))
            spans.append(rec)
            rec[1] = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                rec[2] = clock()
                stack.pop()
            if work is not None:
                rec[5] = work(out)
            return out

        return traced

    @contextmanager
    def installed(self):
        saved = [(owner, attr, getattr(owner, attr)) for owner, attr, _, _ in PATCHES]
        plain_cascade = TrussSubgraph.cascade
        commit = self.wrap("cascade.commit", plain_cascade, len)
        spans, stack = self.spans, self.stack

        def cascade(t, seeds, log=None):
            if stack and spans[stack[-1]][0] == SOLVE:
                return commit(t, seeds, log)
            return plain_cascade(t, seeds, log)

        try:
            for (owner, attr, name, work), (_, _, fn) in zip(PATCHES, saved):
                setattr(owner, attr, self.wrap(name, fn, work))
            TrussSubgraph.cascade = cascade
            yield self
        finally:
            TrussSubgraph.cascade = plain_cascade
            for owner, attr, fn in saved:
                setattr(owner, attr, fn)

    def self_times(self) -> list[float]:
        """Each span's duration minus the durations of its child spans."""
        out = [end - start for _, start, end, _, _, _ in self.spans]
        for _, start, end, parent, _, _ in self.spans:
            if parent >= 0:
                out[parent] -= end - start
        return out

    def layer_metrics(self) -> dict[str, float]:
        """Self time, call count and work sums per layer, over every span."""
        m: dict[str, float] = {}
        for name in TIMED:
            m[name + "_s"] = 0.0
            m[name + "_calls"] = 0
        m["minimize.self_s"] = 0.0
        m.update({"truss.trussness_changed": 0, "cascade.followers_simulated": 0,
                  "groups.support_groups": 0, "groups.candidates": 0,
                  "groups.dissolved": 0})
        for (name, _, _, _, _, work), own in zip(self.spans, self.self_times()):
            if name in TIMED:
                m[name + "_s"] += own
                m[name + "_calls"] += 1
            if name.startswith("minimize."):
                m["minimize.self_s"] += own
            if name == "truss.update_after_deletion":
                m["truss.trussness_changed"] += work
            elif name == "cascade.simulate":
                m["cascade.followers_simulated"] += work
            elif name == "groups.find_support_groups":
                m["groups.support_groups"] += work[0]
                m["groups.candidates"] += work[1]
            elif name == "groups.refresh_index":
                m["groups.dissolved"] += work
        return m

    def write(self, path: Path) -> None:
        """Write every span as one tab-separated line, gzip-compressed."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with gzip.open(path, "wt", compresslevel=1) as f:
            f.write("index\tname\tstart\tend\tparent\tquery\twork\n")
            for i, (name, start, end, parent, qid, work) in enumerate(self.spans):
                f.write(f"{i}\t{name}\t{start!r}\t{end!r}\t{parent}\t{qid}\t{work}\n")
