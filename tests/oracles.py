"""Independent reference implementations used to freeze expected values.

Everything here works on plain (label, label) pairs with sets and dicts,
recomputing from scratch on every step.  Nothing imports the package, so
these stay an independent check on the fast implementations.
"""

from __future__ import annotations

from itertools import combinations


def canon(pairs):
    out = set()
    for a, b in pairs:
        if a != b:
            out.add((a, b) if a < b else (b, a))
    return out


class ParseError(Exception):
    def __init__(self, line_no):
        super().__init__(f"line {line_no}")
        self.line_no = line_no


def parse_edge_list(lines):
    """Reference parser: (label, label) pairs in file order, self-loops kept.

    The per-line rules, kept as they were when the parser last changed
    them: '#' comment and blank lines are skipped, and every other line
    must hold exactly two labels of ASCII digits.  Raises ParseError with
    the 1-based number of the first line that breaks them.
    """
    pairs = []
    for line_no, raw in enumerate(lines, start=1):
        parts = raw.split()
        if not parts or parts[0].startswith("#"):
            continue
        if len(parts) != 2:
            raise ParseError(line_no)
        a, b = parts
        if not (raw.isascii() and a.isdigit() and b.isdigit()):
            raise ParseError(line_no)
        pairs.append((int(a), int(b)))
    return pairs


def adjacency(edges):
    adj = {}
    for u, v in edges:
        adj.setdefault(u, set()).add(v)
        adj.setdefault(v, set()).add(u)
    return adj


def supports(edges):
    """Triangle count per edge, recomputed from scratch."""
    edges = canon(edges)
    adj = adjacency(edges)
    return {(u, v): len(adj[u] & adj[v]) for u, v in edges}


def triangle_list(edges):
    edges = canon(edges)
    adj = adjacency(edges)
    tris = set()
    for u, v in edges:
        for w in adj[u] & adj[v]:
            tris.add(tuple(sorted((u, v, w))))
    return sorted(tris)


def truss_edges(pairs, k):
    """Edge set of the k-truss by naive re-peeling to a fixpoint."""
    cur = canon(pairs)
    while True:
        sup = supports(cur)
        drop = {e for e, s in sup.items() if s < k - 2}
        if not drop:
            return cur
        cur -= drop


def trussness(pairs):
    """Per-edge trussness by membership testing at every level."""
    edges = canon(pairs)
    tau = {e: 2 for e in edges}
    k = 3
    while True:
        kept = truss_edges(edges, k)
        if not kept:
            return tau
        for e in kept:
            tau[e] = k
        k += 1


def cascade(truss_pairs, k, deleted):
    """Followers of deleting `deleted` from a k-truss edge set."""
    start = canon(truss_pairs)
    deleted = canon(deleted) & start
    cur = start - deleted
    while True:
        sup = supports(cur)
        drop = {e for e, s in sup.items() if s < k - 2}
        if not drop:
            break
        cur -= drop
    followers = start - deleted - cur
    return deleted, followers, cur


def best_single(truss_pairs, k):
    """(edge, follower count) maximizing single-edge damage; ties by edge."""
    edges = sorted(canon(truss_pairs))
    best_e, best_f = None, -1
    for e in edges:
        _, followers, _ = cascade(edges, k, [e])
        if len(followers) > best_f:
            best_e, best_f = e, len(followers)
    return best_e, best_f


def best_subset(truss_pairs, k, b):
    """Exhaustive best b-subset by joint follower count."""
    edges = sorted(canon(truss_pairs))
    best_set, best_f = None, -1
    for combo in combinations(edges, min(b, len(edges))):
        _, followers, _ = cascade(edges, k, combo)
        if len(followers) > best_f:
            best_set, best_f = combo, len(followers)
    return best_set, best_f


def support_group_partition(truss_pairs, k):
    """Groups of threshold edges chained through shared triangles.

    Exhaustive: builds the adjacency 'share a triangle' over threshold
    edges directly from the triangle list, then takes components.
    """
    edges = canon(truss_pairs)
    sup = supports(edges)
    threshold = {e for e in edges if sup[e] == k - 2}
    link = {e: set() for e in threshold}
    for a, b, c in triangle_list(edges):
        tri_edges = [(a, b), (a, c), (b, c)]
        inside = [e for e in tri_edges if e in threshold]
        for e1 in inside:
            for e2 in inside:
                if e1 != e2:
                    link[e1].add(e2)
    seen = set()
    parts = []
    for e in sorted(threshold):
        if e in seen:
            continue
        comp = set()
        stack = [e]
        while stack:
            x = stack.pop()
            if x in comp:
                continue
            comp.add(x)
            stack.extend(link[x] - comp)
        seen |= comp
        parts.append(frozenset(comp))
    return set(parts)


def truss_group_partition(pairs, k):
    """Trussness-k edges chained through triangles of trussness >= k."""
    edges = canon(pairs)
    tau = trussness(edges)
    level = {e for e in edges if tau[e] == k}
    link = {e: set() for e in level}
    for a, b, c in triangle_list(edges):
        tri_edges = [(a, b), (a, c), (b, c)]
        if any(tau[e] < k for e in tri_edges):
            continue
        inside = [e for e in tri_edges if tau[e] == k]
        for e1 in inside:
            for e2 in inside:
                if e1 != e2:
                    link[e1].add(e2)
    seen = set()
    parts = []
    for e in sorted(level):
        if e in seen:
            continue
        comp = set()
        stack = [e]
        while stack:
            x = stack.pop()
            if x in comp:
                continue
            comp.add(x)
            stack.extend(link[x] - comp)
        seen |= comp
        parts.append(frozenset(comp))
    return set(parts)
