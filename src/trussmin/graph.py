"""Immutable undirected simple graph with triangle primitives.

Vertices are dense integers 0..n-1 obtained by relabeling the (arbitrary,
non-negative) input labels in ascending order, so the same edge set always
produces the same graph no matter how the input lines were ordered.  Edges
are canonicalized with u < v and numbered densely in lexicographic order;
every per-edge map in the library is an array indexed by that edge id.
"""

from __future__ import annotations

from typing import IO, Iterable, Optional, Sequence

from .errors import ContractViolation, EdgeListParseError


class Graph:
    """Adjacency-list graph, immutable after construction."""

    __slots__ = ("n", "adj", "nbr", "edges", "edge_ids", "labels", "_tri_cache")

    def __init__(self, n: int, edges: list[tuple[int, int]], labels: list[int]):
        self.n = n
        self.labels = labels
        self.edges = edges
        self.edge_ids = {e: i for i, e in enumerate(edges)}
        self.adj: list[list[int]] = [[] for _ in range(n)]
        for u, v in edges:
            self.adj[u].append(v)
            self.adj[v].append(u)
        for lst in self.adj:
            lst.sort()
        self.nbr = [set(lst) for lst in self.adj]
        self._tri_cache: Optional[tuple[list[tuple[int, int, int]], list[list[int]]]] = None

    # -- construction ------------------------------------------------------

    @classmethod
    def from_pairs(cls, pairs: Iterable[tuple[int, int]]) -> "Graph":
        """Build from (label, label) pairs; drops self-loops and duplicates."""
        keys = set()
        for a, b in pairs:
            if a == b:
                continue
            keys.add((a, b) if a < b else (b, a))
        label_list = sorted({x for e in keys for x in e})
        dense = {lab: i for i, lab in enumerate(label_list)}
        edges = sorted((dense[a], dense[b]) for a, b in keys)
        return cls(len(label_list), edges, label_list)

    @property
    def m(self) -> int:
        return len(self.edges)

    # -- lookups -----------------------------------------------------------

    def edge_id(self, u: int, v: int) -> int:
        key = (u, v) if u < v else (v, u)
        try:
            return self.edge_ids[key]
        except KeyError:
            raise ContractViolation(f"edge ({u}, {v}) not in graph") from None

    def has_edge(self, u: int, v: int) -> bool:
        key = (u, v) if u < v else (v, u)
        return key in self.edge_ids

    def original_pair(self, eid: int) -> tuple[int, int]:
        """Endpoints of an edge in the labels of the input file."""
        u, v = self.edges[eid]
        return (self.labels[u], self.labels[v])

    def degree(self, u: int) -> int:
        return len(self.adj[u])

    # -- triangle primitives ------------------------------------------------

    def common_neighbors(self, u: int, v: int) -> list[int]:
        """Sorted vertices adjacent to both endpoints; one per triangle on (u, v)."""
        self.edge_id(u, v)  # existence check
        return sorted(self.nbr[u] & self.nbr[v])

    def support(self, u: int, v: int, alive: Optional[Sequence[int]] = None) -> int:
        """Number of triangles on (u, v) whose other two edges are in `alive`.

        `alive` is indexed by edge id (truthy = present); None means every edge.
        """
        eid = self.edge_id(u, v)
        if alive is not None and not alive[eid]:
            raise ContractViolation(f"edge ({u}, {v}) is not in the alive set")
        count = 0
        for w in self.nbr[u] & self.nbr[v]:
            if alive is None:
                count += 1
            elif alive[self.edge_id(u, w)] and alive[self.edge_id(v, w)]:
                count += 1
        return count

    def triangle_index(self) -> tuple[list[tuple[int, int, int]], list[list[int]]]:
        """All triangles as edge-id triples, plus edge -> triangle-ids lists.

        Cached; the graph is immutable so the index never goes stale.
        """
        if self._tri_cache is None:
            tris: list[tuple[int, int, int]] = []
            edge_tris: list[list[int]] = [[] for _ in range(len(self.edges))]
            eids = self.edge_ids
            for e_uv, (u, v) in enumerate(self.edges):
                for w in self.nbr[u] & self.nbr[v]:
                    if w > v:  # u < v < w: each triangle counted once
                        t = len(tris)
                        e_uw = eids[(u, w)]
                        e_vw = eids[(v, w)]
                        tris.append((e_uv, e_uw, e_vw))
                        edge_tris[e_uv].append(t)
                        edge_tris[e_uw].append(t)
                        edge_tris[e_vw].append(t)
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
    pairs: list[tuple[int, int]] = []
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
        pairs.append((int(a), int(b)))
    return Graph.from_pairs(pairs)
