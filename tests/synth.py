"""Deterministic synthetic social-network fixtures for desk-scale benchmarks.

`community_pairs` builds a community graph whose dense cores straddle the
support threshold at the default truss level: many communities of mixed
size whose expected common-neighbor count sits around k-2 for k = 10, plus
random inter-edges.  The result lands in the 10^4..10^5 edge range and
produces heterogeneous group structure, which is what the
candidate-reduction and bound-ordering solvers are built to exploit.
`overlapping_pairs` builds communities that share vertices, where a commit
erodes only part of a truss.
"""

import math
import random

COMMUNITY_SIZE_MIX = [(9, 2), (11, 4), (12, 5), (13, 5), (14, 4),
                      (16, 3), (18, 2), (21, 1), (24, 1)]
DEFAULT_SEED = 42
DEFAULT_K = 10
DEFAULT_B = 5


def community_pairs(seed=DEFAULT_SEED, scale=30, codegree_low=8.6,
                    codegree_high=12.0, noise=0.7):
    rng = random.Random(seed)
    pairs = set()
    base = 0
    sizes = []
    for size, count in COMMUNITY_SIZE_MIX:
        sizes += [size] * int(count * scale)
    rng.shuffle(sizes)
    for size in sizes:
        target = rng.uniform(codegree_low, codegree_high)
        p = min(0.98, math.sqrt(target / (size - 2)))
        for i in range(size):
            for j in range(i + 1, size):
                if rng.random() < p:
                    pairs.add((base + i, base + j))
        base += size
    n = base
    for _ in range(int(n * noise)):
        u, v = rng.randrange(n), rng.randrange(n)
        if u != v:
            pairs.add((min(u, v), max(u, v)))
    return sorted(pairs)


def overlapping_pairs(seed=DEFAULT_SEED, scale=1):
    """Overlapping communities, in the spirit of the community-affiliation
    graph model (Yang & Leskovec, ICDM 2012).

    2000*scale vertices each join 1-3 of 150*scale communities, chosen
    uniformly; each pair inside a community is an edge with probability
    0.6, and 0.7*n uniform random pairs are added.  A vertex in several
    communities ties their dense cores together, so a greedy commit at
    k = 10 erodes part of a truss component rather than the whole of it.
    """
    rng = random.Random(seed)
    n, c = 2000 * scale, 150 * scale
    members = [[] for _ in range(c)]
    for v in range(n):
        for x in rng.sample(range(c), rng.randint(1, 3)):
            members[x].append(v)
    pairs = set()
    for group in members:
        for i, u in enumerate(group):
            for w in group[i + 1:]:
                if rng.random() < 0.6:
                    pairs.add((u, w))
    for _ in range(int(n * 0.7)):
        u, v = rng.randrange(n), rng.randrange(n)
        if u != v:
            pairs.add((min(u, v), max(u, v)))
    return sorted(pairs)
