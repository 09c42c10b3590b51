"""Property tests: the parser against its reference, and input-order invariance.

Hypothesis draws edge-list texts and small graphs; example counts are kept
small so the whole module runs in a few seconds.
"""

import io
from itertools import accumulate
from unittest import mock

import pytest
from hypothesis import event, example, given, settings, strategies as st

import oracles
from trussmin import ALGORITHMS, EdgeListParseError, Graph, SolverConfig, load_edge_list, solve
from trussmin import cli, graph

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
    kind = draw(st.sampled_from(["pair", "pair", "pair", "tokens", "near pair", "comment",
                                 "blank"]))
    if kind == "blank":
        return draw(st.sampled_from(["", " ", "\t", "\r", "\x0c"]))
    if kind == "near pair":
        # the characters of a plain "a b" line in any order: one label, three,
        # or blanks where the loader's whole-chunk test must see them
        return draw(st.text(st.sampled_from("0123456789 \t\r"), max_size=9))
    if kind == "comment":
        return "#" + draw(st.text(st.sampled_from("0123456789 #\tab٣é"), max_size=6))
    if kind == "pair":
        tokens = [draw(ascii_label), draw(ascii_label)]
    else:
        tokens = draw(st.lists(ascii_label | odd_token, max_size=3))
    lead = draw(st.sampled_from(["", " ", "\t"]))
    return lead + draw(separator).join(tokens) + draw(line_end)


edge_list_texts = st.lists(edge_list_lines(), max_size=10).map("\n".join)


def assert_parses_like_the_reference(load, ref_lines):
    """`load()` gives the graph of the reference parse of `ref_lines`, or its error.

    Returns which of the two it was.
    """
    try:
        pairs = oracles.parse_edge_list(ref_lines)
    except oracles.ParseError as ref:
        with pytest.raises(EdgeListParseError) as exc:
            load()
        assert exc.value.line_no == ref.line_no
        assert str(exc.value) == str(ref)
        return "rejected"
    g = load()
    edges = sorted(oracles.canon(pairs))
    assert g.labels == sorted({x for e in edges for x in e})
    assert [g.original_pair(e) for e in range(g.m)] == edges
    return "accepted"


def load_text(text):
    return lambda: load_edge_list(io.StringIO(text))


@settings(max_examples=300, deadline=None)
@given(edge_list_texts)
# near misses of a plain chunk, each of which the whole-chunk test must refuse
@example("0 1\n12")
@example("0 1\n1 ")
@example("0 1\n1 2\r3 4\n")
@example("0 1\n1  2\n")
@example("0 1\n 1 2\n")
@example("0 1\n1 2 \n")
@example("0 1\n\n1 2\n")
@example("0 1\n12\n3 4 5\n")
def test_parser_matches_the_reference(text):
    event(assert_parses_like_the_reference(load_text(text), io.StringIO(text)))


def plain_lines(sep, count, start=0):
    """`count` valid "a<sep>b" lines, self-loops among them."""
    return [f"{i % 97}{sep}{i * 7 % 89}\n" for i in range(start, start + count)]


def first_chunk_lines(lines):
    """How many of `lines` the loader's first chunk holds."""
    total = 0
    for i, line in enumerate(lines, start=1):
        total += len(line)
        if total > graph._CHUNK_CHARS:
            return i
    return len(lines)


@st.composite
def long_edge_list_texts(draw):
    """Valid lines past the first chunk, with drawn lines at or just past its end."""
    sep = draw(st.sampled_from([" ", "\t"]))
    prefix = plain_lines(sep, graph._CHUNK_CHARS // 4)
    at = first_chunk_lines(prefix) + draw(st.integers(-2, 2))
    odd = draw(st.lists(edge_list_lines(), max_size=3))
    tail = plain_lines(sep, draw(st.integers(0, 3)), start=at)
    event("all valid" if not odd else "drawn lines")
    text = "".join(prefix[:at]) + "".join(line + "\n" for line in odd) + "".join(tail)
    return text[:-1] if draw(st.booleans()) else text


@settings(max_examples=60, deadline=None)
@given(long_edge_list_texts())
def test_parser_matches_the_reference_past_the_first_chunk(text):
    event(assert_parses_like_the_reference(load_text(text), io.StringIO(text)))


@pytest.mark.parametrize("sep", [" ", "\t"])
def test_plain_text_skips_the_line_loop(sep):
    text = "".join(plain_lines(sep, graph._CHUNK_CHARS // 2))
    with mock.patch.object(graph, "_parse_lines", side_effect=AssertionError("line loop")):
        assert assert_parses_like_the_reference(load_text(text), io.StringIO(text)) == "accepted"


@pytest.mark.parametrize("bad", [False, True], ids=["valid", "bad line in chunk 2"])
def test_a_file_with_crlf_and_lone_cr_line_ends(tmp_path, bad):
    """A real file, opened as the CLI opens it: universal newlines, surrogateescape."""
    lines = plain_lines(" ", graph._CHUNK_CHARS // 3)
    lines[0] = "# caf\xe9\n"
    if bad:
        lines[first_chunk_lines(lines) + 1] = "1 \xff\n"
    for i in range(1, len(lines), 2):
        lines[i] = lines[i][:-1] + ("\r\n" if i % 4 == 1 else "\r")
    path = tmp_path / "edges.txt"
    path.write_bytes("".join(lines).encode("latin-1"))   # \xe9 and \xff are not UTF-8
    with open(path, encoding="utf-8", errors="surrogateescape") as fh:
        ref_lines = fh.readlines()
    assert len(ref_lines) == len(lines)
    outcome = assert_parses_like_the_reference(lambda: cli._load(str(path)), ref_lines)
    assert outcome == ("rejected" if bad else "accepted")


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
