import io
import random

import pytest

import oracles
from conftest import complete_pairs, er_pairs, graph_of, path_pairs, support
from trussmin import ContractViolation, EdgeListParseError, Graph, load_edge_list


def load(text):
    return load_edge_list(io.StringIO(text))


class TestLoadEdgeList:
    def test_smallest_triangle(self):
        g = load("0 1\n1 2\n2 0\n")
        assert g.n == 3
        assert g.m == 3

    def test_self_loop_and_duplicates_dropped(self):
        g = load("5 5\n1 2\n2 1\n")
        assert g.n == 2
        assert g.m == 1
        assert g.labels == [1, 2]

    def test_four_clique(self):
        text = "".join(f"{u} {v}\n" for u, v in complete_pairs(4))
        g = load(text)
        assert g.n == 4
        assert g.m == 6

    def test_comments_and_blank_lines(self):
        g = load("# header\n\n0 1\n  \n# more\n1 2\n")
        assert g.m == 2

    def test_empty_input_is_empty_graph(self):
        g = load("")
        assert g.n == 0
        assert g.m == 0

    def test_malformed_line_reports_line_number(self):
        with pytest.raises(EdgeListParseError) as exc:
            load("0 1\nx 2\n")
        assert exc.value.line_no == 2

    def test_wrong_token_count_is_an_error(self):
        with pytest.raises(EdgeListParseError):
            load("0 1 2\n")

    def test_negative_label_is_an_error(self):
        with pytest.raises(EdgeListParseError):
            load("-1 2\n")

    @pytest.mark.parametrize("token", ["1_000", "+5", "\u0663", "\uff11", "0x1f", "1.0"])
    def test_only_ascii_digit_labels_are_accepted(self, token):
        # int() accepts the first three: underscores, a sign, Arabic-Indic digits
        with pytest.raises(EdgeListParseError) as exc:
            load(f"0 1\n# comments may say caf\u00e9\n1 {token}\n")
        assert exc.value.line_no == 3

    def test_line_order_does_not_matter(self, rng):
        pairs = er_pairs(rng, 12, 0.4)
        lines = [f"{u} {v}" for u, v in pairs]
        base = load("\n".join(lines))
        for _ in range(5):
            rng.shuffle(lines)
            g = load("\n".join(lines))
            assert g.labels == base.labels
            assert g.edges == base.edges

    def test_sparse_labels_are_relabeled_densely(self):
        g = load("100 7\n7 42\n")
        assert g.labels == [7, 42, 100]
        assert g.n == 3
        assert {g.original_pair(e) for e in range(g.m)} == {(7, 42), (7, 100)}


class TestSupport:
    def test_k5_full(self, k5):
        all_alive = bytearray(b"\x01" * k5.m)
        for u, v in k5.edges:
            assert support(k5, u, v, all_alive) == 3

    def test_k4_minus_edge(self, k4):
        alive = bytearray(b"\x01" * k4.m)
        alive[k4.edge_id(2, 3)] = 0
        assert support(k4, 0, 1, alive) == 2

    def test_k5_minus_far_edge_keeps_support(self, k5):
        # Frozen from enumerating the K5 triangles through (0, 1): the
        # triangle (0, 1, w) never uses edge (2, 3), so support stays 3.
        expected = sum(1 for w in (2, 3, 4))
        alive = bytearray(b"\x01" * k5.m)
        alive[k5.edge_id(2, 3)] = 0
        assert support(k5, 0, 1, alive) == expected == 3

    def test_dead_edge_rejected(self, k5):
        alive = bytearray(b"\x01" * k5.m)
        alive[k5.edge_id(0, 1)] = 0
        with pytest.raises(ContractViolation):
            support(k5, 0, 1, alive)

    def test_none_means_every_edge(self, k5):
        assert support(k5, 0, 1) == 3


class TestInvariants:
    def test_support_sum_is_three_times_triangles(self, rng):
        for _ in range(20):
            pairs = er_pairs(rng, rng.randint(4, 18), rng.uniform(0.2, 0.7))
            if not pairs:
                continue
            g = graph_of(pairs)
            total = sum(support(g, u, v) for u, v in g.edges)
            assert total == 3 * g.triangle_count()
            assert g.triangle_count() == len(oracles.triangle_list(pairs))

    def test_support_matches_orientation_and_oracle(self, rng):
        pairs = er_pairs(rng, 14, 0.5)
        g = graph_of(pairs)
        sup = oracles.supports(pairs)
        for u, v in g.edges:
            lu, lv = g.labels[u], g.labels[v]
            assert support(g, u, v) == support(g, v, u) == sup[(lu, lv)]


def sparse_relabel(rng, pairs):
    """The same graph under random, sparse and non-monotone labels."""
    verts = sorted({x for e in pairs for x in e})
    new = dict(zip(verts, rng.sample(range(10**6), len(verts))))
    return [(new[u], new[v]) for u, v in pairs]


class TestTriangleIndex:
    def check_against_oracle(self, pairs):
        g = graph_of(pairs)
        tris, edge_tris = g.triangle_index()
        dense = {lab: i for i, lab in enumerate(g.labels)}

        def eid(a, b):
            return g.edge_id(dense[a], dense[b])

        # each oracle triangle a < b < c exactly once, as (e_ab, e_ac, e_bc)
        expected = [(eid(a, b), eid(a, c), eid(b, c)) for a, b, c in oracles.triangle_list(pairs)]
        assert sorted(tris) == sorted(expected)
        assert len(set(tris)) == len(tris)
        assert len(edge_tris) == g.m
        for e in range(g.m):
            assert edge_tris[e] == [t for t, tri in enumerate(tris) if e in tri]
        return g

    def test_random_graphs_with_sparse_labels(self, rng):
        for _ in range(25):
            pairs = er_pairs(rng, rng.randint(3, 16), rng.uniform(0.2, 0.8))
            self.check_against_oracle(sparse_relabel(rng, pairs))

    @pytest.mark.parametrize("pairs, triangles", [
        ([], 0), (path_pairs(6), 0), (complete_pairs(5, offset=3), 10)])
    def test_empty_path_and_k5(self, pairs, triangles):
        assert self.check_against_oracle(pairs).triangle_count() == triangles


class TestEdgeLookup:
    # path 0-1-2-3-4: n = 5; index -5 would wrap to vertex 0, which has edge (0, 1)
    @pytest.mark.parametrize("u, v", [
        (-1, 0), (0, -1), (-5, 1), (1, -5), (-4, -5),  # negative
        (4, 5), (5, 4), (5, 6), (0, 9),                 # >= n
        (0, 2), (1, 3), (2, 2),                          # in range, not an edge
    ])
    def test_edge_id_rejects_and_has_edge_denies(self, u, v):
        g = graph_of(path_pairs(5))
        with pytest.raises(ContractViolation):
            g.edge_id(u, v)
        assert g.has_edge(u, v) is False

    def test_reversed_endpoints_resolve_to_the_same_id(self, rng):
        g = graph_of(er_pairs(rng, 12, 0.5))
        for e, (u, v) in enumerate(g.edges):
            assert g.edge_id(u, v) == g.edge_id(v, u) == e
            assert g.has_edge(u, v) and g.has_edge(v, u)

    def test_from_pairs_accepts_a_generator(self, rng):
        pairs = sparse_relabel(rng, er_pairs(rng, 10, 0.5)) + [(7, 7)]
        g = Graph.from_pairs((b, a) for a, b in pairs)
        base = graph_of(pairs)
        assert g.labels == base.labels
        assert g.edges == base.edges
        assert g.higher == base.higher
