import string

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from _oracles import random_coloured_graph
from tropidom import Instance, build, parse_instance, write_instance
from tropidom.errors import ParseError

GOOD = """\
# legend 1 B
p tdgs 3 2 2
v 1 1
v 2 2
v 3 1
e 1 2
e 2 3
"""


def test_parse_round_trip_small():
    inst = parse_instance(GOOD)
    assert inst.graph.n == 3 and inst.graph.m == 2 and inst.graph.c == 2
    assert inst.legend == {1: "B"}
    assert inst.intervals is None
    assert write_instance(inst.graph, legend=inst.legend) == GOOD


def test_round_trip_random_graphs():
    rng = np.random.default_rng(23)
    for _ in range(80):
        n, edges, colours = random_coloured_graph(rng)
        g = build(n, edges, colours)
        inst = parse_instance(write_instance(g))
        assert inst.graph == g


@st.composite
def interval_instances(draw):
    """An interval graph with its representation (or none) and a colour legend."""
    n = draw(st.integers(1, 10))
    c = draw(st.integers(1, n))
    extra = draw(st.lists(st.integers(1, c), min_size=n - c, max_size=n - c))
    colours = draw(st.permutations(list(range(1, c + 1)) + extra))
    pairs = {}
    for v in range(1, n + 1):
        lo = draw(st.integers(-50, 50))
        pairs[v] = (lo, lo + draw(st.integers(0, 20)))
    edges = [
        (u, v)
        for u in range(1, n + 1)
        for v in range(u + 1, n + 1)
        if pairs[u][0] <= pairs[v][1] and pairs[v][0] <= pairs[u][1]
    ]
    label = st.text(string.ascii_letters + string.digits + string.punctuation, min_size=1, max_size=8)
    return Instance(
        graph=build(n, edges, colours),
        intervals=draw(st.one_of(st.none(), st.just(pairs))),
        legend=draw(st.dictionaries(st.integers(1, c), label)),
    )


@settings(max_examples=200, deadline=None)
@given(interval_instances())
def test_round_trip_with_intervals_and_legend(inst):
    text = write_instance(inst.graph, intervals=inst.intervals, legend=inst.legend)
    assert parse_instance(text) == inst


@pytest.mark.parametrize(
    "text,line",
    [
        ("", 1),  # missing header
        ("p tdgs 1 0 1\n\nv 1 1\n", 2),  # blank line
        ("v 1 1\np tdgs 1 0 1\n", 1),  # record before header
        ("p tdgs 1 0 1\np tdgs 1 0 1\nv 1 1\n", 2),  # duplicate header
        ("p cnf 1 0\n", 1),  # wrong format tag
        ("p tdgs 0 0 1\n", 1),  # n out of range
        ("p tdgs 2 1 1\nv 1 1\nv 1 1\ne 1 2\n", 3),  # duplicate vertex
        ("p tdgs 2 1 1\nv 1 1\nv 2 1\ne 2 1\n", 4),  # u >= v
        ("p tdgs 2 1 1\nv 1 1\nv 2 1\ne 1 3\n", 4),  # endpoint range
        ("p tdgs 2 1 2\nv 1 1\nv 2 3\ne 1 2\n", 3),  # colour out of range
        ("p tdgs 2 1 1\nv 1 1\nv 2 x\ne 1 2\n", 3),  # non-integer field
        ("p tdgs 2 1 1\nv 1 1\nv 2 1\ne 1 2\nq 1\n", 5),  # unknown tag
        ("p tdgs 2 1 1\nv 1 1\ne 1 2\n", 1),  # vertex count mismatch
        ("p tdgs 2 0 1\nv 1 1\nv 2 1\ne 1 2\n", 1),  # edge count mismatch
        ("p tdgs 2 1 1\nv 1 1\nv 2 1\ne 1 2\ni 1 0 2\n", 1),  # partial intervals
        ("p tdgs 2 1 1\nv 1 1\nv 2 1\ne 1 2\ni 1 3 2\ni 2 0 1\n", 5),  # l > r
        ("p tdgs 2 1 2\nv 1 2\nv 2 2\ne 1 2\n", 1),  # colour 1 unused
    ],
)
def test_rejections_carry_line_numbers(text, line):
    with pytest.raises(ParseError) as exc:
        parse_instance(text)
    assert exc.value.line_no == line


def test_duplicate_edge_reported_as_parse_error():
    text = "p tdgs 2 2 1\nv 1 1\nv 2 1\ne 1 2\ne 1 2\n"
    with pytest.raises(ParseError):
        parse_instance(text)


def test_header_colour_count_must_match():
    text = "p tdgs 2 1 2\nv 1 1\nv 2 1\ne 1 2\n"
    with pytest.raises(ParseError):
        parse_instance(text)


def test_writer_emits_lf_and_trailing_newline():
    g = build(2, [(1, 2)], [1, 2])
    text = write_instance(g)
    assert "\r" not in text
    assert text.endswith("\n") and not text.endswith("\n\n")
