"""Immutable undirected simple graph with triangle primitives.

Vertices are dense integers 0..n-1 obtained by relabeling the (arbitrary,
non-negative) input labels in ascending order, so the same edge set always
produces the same graph no matter how the input lines were ordered.  Edges
are canonicalized with u < v and numbered densely in lexicographic order;
every per-edge map in the library is an array indexed by that edge id.
"""

from __future__ import annotations

from itertools import repeat
from typing import IO, Iterable, Optional

from .errors import ContractViolation, EdgeListParseError


class Graph:
    """Undirected simple graph, immutable after construction.

    `higher[u]` maps each neighbour w > u to the id of edge (u, w); it is
    the only edge lookup table, and the forward lists the triangle index
    intersects.
    """

    __slots__ = ("n", "higher", "edges", "labels", "_tri_cache")

    def __init__(self, n: int, edges: list[tuple[int, int]], labels: list[int]):
        """`edges` must be canonical (u < v), distinct and sorted."""
        self.n = n
        self.labels = labels
        self.edges = edges
        higher: list[dict[int, int]] = [{} for _ in range(n)]
        for eid, (u, v) in enumerate(edges):
            higher[u][v] = eid
        self.higher = higher
        self._tri_cache: Optional[tuple[list[tuple[int, int, int]], list[list[int]]]] = None

    # -- construction ------------------------------------------------------

    @classmethod
    def from_pairs(cls, pairs: Iterable[tuple[int, int]]) -> "Graph":
        """Build from (label, label) pairs; drops self-loops and duplicates.

        `pairs` is iterated exactly once, so a generator is fine.
        """
        heads: list[int] = []
        tails: list[int] = []
        for a, b in pairs:
            if a != b:
                heads.append(a)
                tails.append(b)
        return cls._from_columns(heads, tails)

    @classmethod
    def _from_columns(cls, heads: list[int], tails: list[int]) -> "Graph":
        """Build from parallel label lists that hold no self-loop."""
        labels = sorted(set(heads).union(tails))
        n = len(labels)
        dense = dict(zip(labels, range(n))).__getitem__
        # Edge (u, v), u < v, is the int u*n + v: deduplicating and sorting
        # these ints gives the lexicographic edge order without tuples.
        keys = sorted({u * n + v if u < v else v * n + u
                       for u, v in zip(map(dense, heads), map(dense, tails))})
        return cls(n, list(map(divmod, keys, repeat(n))), labels)

    @property
    def m(self) -> int:
        return len(self.edges)

    # -- lookups -----------------------------------------------------------

    def _lookup(self, u: int, v: int) -> Optional[int]:
        if u > v:
            u, v = v, u
        # A negative index would silently wrap, so bound u explicitly; the
        # dict rejects v == u and v >= n.
        if 0 <= u < self.n:
            return self.higher[u].get(v)
        return None

    def edge_id(self, u: int, v: int) -> int:
        eid = self._lookup(u, v)
        if eid is None:
            raise ContractViolation(f"edge ({u}, {v}) not in graph")
        return eid

    def has_edge(self, u: int, v: int) -> bool:
        return self._lookup(u, v) is not None

    def resolve_edge(self, e) -> int:
        """Edge id of `e`, given as an edge id or as a (u, v) pair of vertices.

        The vertices are dense ids (positions in the sorted `labels`), not
        input labels; `original_pair` maps back.  An id must lie in 0..m-1:
        a negative one would silently wrap in every per-edge array.  A bool
        would pass for edge 0 or 1, so it is refused too.
        """
        if not isinstance(e, int):
            return self.edge_id(*e)
        if isinstance(e, bool) or not 0 <= e < len(self.edges):
            raise ContractViolation(f"edge id {e!r} is not in 0..{len(self.edges) - 1}")
        return e

    def original_pair(self, eid: int) -> tuple[int, int]:
        """Endpoints of an edge in the labels of the input file."""
        u, v = self.edges[eid]
        return (self.labels[u], self.labels[v])

    # -- triangle primitives ------------------------------------------------

    def triangle_index(self) -> tuple[list[tuple[int, int, int]], list[list[int]]]:
        """All triangles as edge-id triples, plus edge -> triangle-ids lists.

        Each triangle u < v < w is `(e_uv, e_uw, e_vw)` and is listed once,
        from its smallest edge (u, v), by intersecting the forward maps of u
        and v.  Triangle ids grow with that edge's id, so every per-edge list
        is ascending.  Cached; the graph is immutable so it never goes stale.
        """
        if self._tri_cache is None:
            tris: list[tuple[int, int, int]] = []
            edge_tris: list[list[int]] = [[] for _ in range(len(self.edges))]
            higher = self.higher
            t = 0
            for e_uv, (u, v) in enumerate(self.edges):
                hu = higher[u]
                hv = higher[v]
                for w in hu.keys() & hv.keys():
                    e_uw = hu[w]
                    e_vw = hv[w]
                    tris.append((e_uv, e_uw, e_vw))
                    edge_tris[e_uv].append(t)
                    edge_tris[e_uw].append(t)
                    edge_tris[e_vw].append(t)
                    t += 1
            self._tri_cache = (tris, edge_tris)
        return self._tri_cache

    def triangle_count(self) -> int:
        return len(self.triangle_index()[0])


def load_edge_list(stream: IO[str]) -> Graph:
    """Parse whitespace-separated integer pairs into a Graph.

    Lines starting with '#' and blank lines are ignored.  Self-loops are
    dropped; duplicate and reversed-duplicate edges collapse to one edge.
    Raises EdgeListParseError (with the 1-based line number) on any line
    that is not exactly two labels of ASCII digits: no sign, no
    underscores, no other scripts' digits, all of which `int()` accepts.
    """
    heads: list[int] = []
    tails: list[int] = []
    for line_no, raw in enumerate(stream, start=1):
        parts = raw.split()
        if not parts or parts[0].startswith("#"):
            continue
        if len(parts) != 2:
            raise EdgeListParseError(line_no, f"expected two vertex labels, got {len(parts)} tokens")
        a, b = parts
        if not (raw.isascii() and a.isdigit() and b.isdigit()):
            raise EdgeListParseError(
                line_no, f"vertex labels must be non-negative integers in ASCII digits: "
                         f"{raw.strip()!r}")
        x = int(a)
        y = int(b)
        if x != y:
            heads.append(x)
            tails.append(y)
    return Graph._from_columns(heads, tails)
