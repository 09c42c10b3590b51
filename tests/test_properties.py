"""Property tests: the parser against its reference, and input-order invariance.

Hypothesis draws edge-list texts and small graphs; example counts are kept
small so the whole module runs in a few seconds.
"""

import io
from itertools import accumulate

import pytest
from hypothesis import event, given, settings, strategies as st

import oracles
from trussmin import ALGORITHMS, EdgeListParseError, Graph, SolverConfig, load_edge_list, solve

# -- parser vs reference ------------------------------------------------------

ascii_label = st.integers(0, 40).map(str) | st.sampled_from(["007", "00", "12345678901234567890"])
odd_token = st.sampled_from([
    "-1", "+5", "1_000", "0x1f", "1.0", "x", "#", "#1", "1#",
    "٣", "１", "1१", "café",       # non-ASCII digits and letters
])
separator = st.sampled_from([" ", "\t", "\x0c", " \t ", "\r", " "])
line_end = st.sampled_from(["", "\r", " ", "\t", "\x0c"])


@st.composite
def edge_list_lines(draw):
    kind = draw(st.sampled_from(["pair", "pair", "pair", "tokens", "comment", "blank"]))
    if kind == "blank":
        return draw(st.sampled_from(["", " ", "\t", "\r", "\x0c"]))
    if kind == "comment":
        return "#" + draw(st.text(st.sampled_from("0123456789 #\tab٣é"), max_size=6))
    if kind == "pair":
        tokens = [draw(ascii_label), draw(ascii_label)]
    else:
        tokens = draw(st.lists(ascii_label | odd_token, max_size=3))
    lead = draw(st.sampled_from(["", " ", "\t"]))
    return lead + draw(separator).join(tokens) + draw(line_end)


edge_list_texts = st.lists(edge_list_lines(), max_size=10).map("\n".join)


@settings(max_examples=300, deadline=None)
@given(edge_list_texts)
def test_parser_matches_the_reference(text):
    try:
        pairs = oracles.parse_edge_list(io.StringIO(text))
    except oracles.ParseError as ref:
        event("rejected")
        with pytest.raises(EdgeListParseError) as exc:
            load_edge_list(io.StringIO(text))
        assert exc.value.line_no == ref.line_no
        return
    event("accepted")
    g = load_edge_list(io.StringIO(text))
    edges = sorted(oracles.canon(pairs))
    assert g.labels == sorted({x for e in edges for x in e})
    assert [g.original_pair(e) for e in range(g.m)] == edges


# -- solver choices do not depend on how the input was written ------------------

# every pair on 7 vertices, self-loops included, so drawn lists repeat edges
SMALL_PAIRS = [(u, v) for u in range(7) for v in range(u, 7)]


def chosen_pairs(pairs, k, b):
    g = Graph.from_pairs(pairs)
    return {a: [r.edge for r in solve(g, SolverConfig(k=k, b=b, algorithm=a)).iterations]
            for a in ALGORITHMS}


@settings(max_examples=60, deadline=None)
@given(data=st.data(),
       pairs=st.lists(st.sampled_from(SMALL_PAIRS), min_size=12, max_size=30),
       k=st.integers(3, 4), b=st.integers(1, 3))
def test_solver_choices_survive_rewriting_the_input(data, pairs, k, b):
    base = chosen_pairs(pairs, k, b)
    event("empty truss" if not base["up_edge"] else "non-empty truss")
    assert base["baseline"] == base["gp_edge"] == base["up_edge"]

    rewritten = data.draw(st.permutations(pairs), label="shuffled")
    rewritten += data.draw(st.lists(st.sampled_from(pairs), max_size=5), label="duplicates")
    flips = data.draw(st.lists(st.booleans(), min_size=len(rewritten),
                               max_size=len(rewritten)), label="reversed")
    rewritten = [(v, u) if flip else (u, v) for (u, v), flip in zip(rewritten, flips)]
    assert chosen_pairs(rewritten, k, b) == base

    labels = sorted({x for e in pairs for x in e})
    gaps = data.draw(st.lists(st.integers(1, 10**6), min_size=len(labels),
                              max_size=len(labels)), label="monotone label gaps")
    f = dict(zip(labels, accumulate(gaps)))
    relabelled = chosen_pairs([(f[u], f[v]) for u, v in pairs], k, b)
    assert relabelled == {a: [(f[u], f[v]) for u, v in chosen] for a, chosen in base.items()}
