"""Immutable undirected simple graph with triangle primitives.

Vertices are dense integers 0..n-1 obtained by relabeling the (arbitrary,
non-negative) input labels in ascending order, so the same edge set always
produces the same graph no matter how the input lines were ordered.  Edges
are canonicalized with u < v and numbered densely in lexicographic order;
every per-edge map in the library is an array indexed by that edge id.
"""

from __future__ import annotations

import re
from array import array
from bisect import bisect_left
from itertools import chain, compress, islice
from operator import ne
from typing import IO, Iterable, Optional

from .errors import ContractViolation, EdgeListParseError


class Graph:
    """Undirected simple graph, immutable after construction.

    `keys[e]` is u*n + v for edge e = (u, v), u < v: one sorted `array('q')`
    and the graph's only per-edge table.  `endpoints` reads an edge back
    with one `divmod`, and `_lookup` bisects the keys.

    A graph caches values derived from it alone: its triangle index
    (`triangle_index`, each edge's partner edges as a tuple), its last
    two peeled trusses (`truss.k_truss`), each truss level at a byte per
    edge for its alive edges and one (four once a support reaches 256) for
    its supports, and the support and truss groups that `gp_edge` and
    `up_edge` solves grew on its fresh k-truss, for one k at a time
    (`minimize._parked_groups`).  None of them refers back to the graph.
    """

    __slots__ = ("n", "keys", "labels", "_tri_cache", "_truss_cache", "_parked_groups")

    def __init__(self, n: int, keys: array, labels: list[int]):
        self.n = n
        self.labels = labels
        self.keys = keys
        self._tri_cache: Optional[list[tuple[int, ...]]] = None
        # k -> frozen k-truss, kept by `truss.k_truss`
        self._truss_cache: dict[int, tuple] = {}
        # (k, groups grown on the fresh k-truss), kept by `minimize._parked_groups`
        self._parked_groups: Optional[tuple[int, dict]] = None

    # -- construction ------------------------------------------------------

    @classmethod
    def from_pairs(cls, pairs: Iterable[tuple[int, int]]) -> "Graph":
        """Build from (label, label) pairs; drops self-loops and duplicates.

        `pairs` is iterated exactly once, so a generator is fine.  A label
        must be a plain non-negative int: a bool would merge with 0 or 1.
        """
        flat = [x for a, b in pairs for x in (a, b)]
        for x in flat:
            if type(x) is not int or x < 0:
                raise ContractViolation(f"vertex label {x!r} is not a non-negative int")
        return cls._build(flat)

    @classmethod
    def _build(cls, flat: list[int]) -> "Graph":
        """Build from labels read two at a time: a0, b0, a1, b1, ...

        The one place self-loops are dropped.  Edge (u, v), u < v, is the
        int u*n + v: sorting these ints and dropping each that equals its
        predecessor gives the distinct edges in lexicographic order without
        a tuple per input pair.
        """
        pairs = iter(flat)  # read twice per step: a0 with b0, a1 with b1, ...
        if not all(map(ne, pairs, pairs)):
            pairs = iter(flat)
            flat = [x for a, b in zip(pairs, pairs) if a != b for x in (a, b)]
        # `x + 0` is a new int (CPython shares only small ones): `labels` pins
        # no parsed int, so the pools holding those are freed with `flat`
        labels = [x + 0 for x in set(flat)]
        labels.sort()
        n = len(labels)
        ids = map(dict(zip(labels, range(n))).__getitem__, flat)
        keys = [u * n + v if u < v else v * n + u for u, v in zip(ids, ids)]
        keys.sort()
        keys = array("q", compress(keys, chain((True,), map(ne, islice(keys, 1, None), keys))))
        return cls(n, keys, labels)

    @property
    def m(self) -> int:
        return len(self.keys)

    # -- lookups -----------------------------------------------------------

    def _lookup(self, u: int, v: int) -> Optional[int]:
        """Id of edge (u, v), or None; the key of (min, max) bisected in `keys`."""
        for x in (u, v):
            # a bool would pass for vertex 0 or 1, and a float or str
            # would escape as a raw TypeError
            if not isinstance(x, int) or isinstance(x, bool):
                raise ContractViolation(f"vertex {x!r} is not an int vertex id")
        if u > v:
            u, v = v, u
        # out of this range u*n + v can be another edge's key: (0, n + 2) has (1, 2)'s
        if 0 <= u < v < self.n:
            key, keys = u * self.n + v, self.keys
            eid = bisect_left(keys, key)
            if eid < len(keys) and keys[eid] == key:
                return eid
        return None

    def edge_id(self, u: int, v: int) -> int:
        eid = self._lookup(u, v)
        if eid is None:
            raise ContractViolation(f"edge ({u}, {v}) not in graph")
        return eid

    def has_edge(self, u: int, v: int) -> bool:
        return self._lookup(u, v) is not None

    @staticmethod
    def _pair(e) -> tuple[int, int]:
        """The two vertices of `e`; anything but a 2-item pair is refused."""
        try:
            u, v = e
        except (TypeError, ValueError):
            raise ContractViolation(
                f"edge {e!r} is neither an edge id nor a (u, v) pair") from None
        return u, v

    def resolve_edge(self, e) -> int:
        """Edge id of `e`, given as an edge id or as a (u, v) pair of vertices.

        The vertices are dense ids (positions in the sorted `labels`), not
        input labels; `original_pair` maps back.  An id must lie in 0..m-1:
        a negative one would silently wrap in every per-edge array.  A bool
        would pass for edge 0 or 1, so it is refused too, as an id or as a
        vertex.
        """
        if not isinstance(e, int):
            return self.edge_id(*self._pair(e))
        if isinstance(e, bool) or not 0 <= e < len(self.keys):
            raise ContractViolation(f"edge id {e!r} is not in 0..{len(self.keys) - 1}")
        return e

    def endpoints(self, eid: int) -> tuple[int, int]:
        """The dense vertices (u, v), u < v, of an edge."""
        return divmod(self.keys[eid], self.n)

    def original_pair(self, eid: int) -> tuple[int, int]:
        """Endpoints of an edge in the labels of the input file."""
        u, v = self.endpoints(eid)
        return (self.labels[u], self.labels[v])

    # -- triangle primitives ------------------------------------------------

    def triangle_index(self) -> list[tuple[int, ...]]:
        """Per edge, the two other edges of each of its triangles.

        `partners[e]` is the flat tuple a0, b0, a1, b1, ...: each triangle of
        e as the ascending pair (a, b) of its other two edges, read as
        `it = iter(partners[e]); zip(it, it)`.  A triangle u < v < w has
        edges e_uv < e_uw < e_vw and is found once, from its smallest edge
        (u, v), by intersecting the forward maps `higher[u]` and `higher[v]`
        (`higher[x]`: neighbour w > x -> id of (x, w)), local to this call.
        Edges are walked in ascending id, and every edge's pairs come in the
        order their triangles are found.  Each vertex's map is freed once
        its own edges are walked: they lead only upward, so no later vertex
        reads it.  A triangle of edge (u, v) has its smallest vertex at most
        u, so once u is walked the lists of its edges are complete and are
        frozen into tuples: no append slack, and no cyclic-GC tracking.
        There are no triangle ids: in a truss a triangle is alive exactly
        when its three edges are.  Cached.
        """
        if self._tri_cache is None:
            n = self.n
            verts = list(range(n))
            higher: list[Optional[dict[int, int]]] = [{} for _ in verts]
            # keys come from `verts`, so divmod's own ints die at once and the
            # edge ids kept in `partners` sit side by side in memory
            for eid, key in enumerate(self.keys):
                u, v = divmod(key, n)
                higher[u][verts[v]] = eid
            partners: list = [[] for _ in range(len(self.keys))]
            for u in verts:
                hu = higher[u]
                higher[u] = None
                for v, e_uv in hu.items():
                    hv = higher[v]
                    p = partners[e_uv]
                    for w in hu.keys() & hv.keys():
                        e_uw = hu[w]
                        e_vw = hv[w]
                        p.append(e_uw)
                        p.append(e_vw)
                        q = partners[e_uw]
                        q.append(e_uv)
                        q.append(e_vw)
                        q = partners[e_vw]
                        q.append(e_uv)
                        q.append(e_uw)
                for e in hu.values():
                    partners[e] = tuple(partners[e])
            self._tri_cache = partners
        return self._tri_cache

    def triangle_count(self) -> int:
        # each triangle puts two ints in each of its three edges' tuples
        return sum(map(len, self.triangle_index())) // 6


# About 64 KB of text per chunk: the parse holds one chunk's strings at a time.
_CHUNK_CHARS = 1 << 16
# Lines of two ASCII-digit labels split by one space or tab, each ending in
# "\n" (the stream's last line may lack it).  `str.split` reads such a chunk
# exactly as `_parse_lines` would.
_PLAIN_PAIRS = re.compile(r"(?:[0-9]+[ \t][0-9]+\n)*(?:[0-9]+[ \t][0-9]+)?")


def load_edge_list(stream: IO[str]) -> Graph:
    """Parse whitespace-separated integer pairs into a Graph.

    Lines starting with '#' and blank lines are ignored.  Self-loops are
    dropped; duplicate and reversed-duplicate edges collapse to one edge.
    Raises EdgeListParseError (with the 1-based line number) on any line
    that is not exactly two labels of ASCII digits: no sign, no
    underscores, no other scripts' digits, all of which `int()` accepts.

    The stream is read in chunks of lines (`readlines` with a hint of about
    64 KB), so lines split exactly as iterating the stream splits them.  A
    chunk of plain "label label" lines is converted whole; any other chunk,
    or one whose conversion fails (a label past `int()`'s digit limit),
    goes through the per-line rules of `_parse_lines`.  The labels feed
    `Graph._build`, which drops the self-loops.
    """
    flat: list[int] = []
    line_no = 0
    while lines := stream.readlines(_CHUNK_CHARS):
        text = "".join(lines)
        if _PLAIN_PAIRS.fullmatch(text):
            try:
                flat += map(int, text.split())
            except ValueError:
                # a label past `int()`'s digit limit: the line loop raises
                # the parse error that names its line
                _parse_lines(lines, line_no, flat)
        else:
            _parse_lines(lines, line_no, flat)
        line_no += len(lines)
    return Graph._build(flat)


def _parse_lines(lines: list[str], offset: int, flat: list[int]) -> None:
    """Append the labels of `lines`, which follow `offset` earlier lines, to `flat`.

    The only path for comment and blank lines, other whitespace, and every
    error, a label `int()` refuses included.
    """
    for line_no, raw in enumerate(lines, start=offset + 1):
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
        try:
            flat += (int(a), int(b))
        except ValueError as exc:  # more digits than `sys.get_int_max_str_digits()`
            raise EdgeListParseError(line_no, str(exc)) from None
