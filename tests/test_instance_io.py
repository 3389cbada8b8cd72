import gc
import string
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from _oracles import random_coloured_graph, reference_parse
from tropidom import Instance, build, gen_gnpc, instance_io, parse_instance, write_instance
from tropidom.errors import ParseError, RepresentationMismatchError

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


PATH_INTERVALS = {1: (0, 1), 2: (1, 2), 3: (2, 3)}


@pytest.mark.parametrize(
    "intervals,legend,error,message",
    [
        ({1: (0, 1), 2: (1, 2)}, None, RepresentationMismatchError, "expected 3 intervals, got 2"),
        ({1: (0, 1), 2: (1, 2), 4: (2, 3)}, None, RepresentationMismatchError, "vertex 3 has no interval"),
        ({**PATH_INTERVALS, 2: (1, 2.5)}, None, ValueError, "vertex 2: interval [1,2.5] has a non-integer endpoint"),
        ({**PATH_INTERVALS, 1: (0.0, 1)}, None, ValueError, "vertex 1: interval [0.0,1] has a non-integer endpoint"),
        ({**PATH_INTERVALS, 3: (3, 2)}, None, RepresentationMismatchError, "vertex 3: interval [3,2] has l > r"),
        (None, {1: "B", 2: ""}, ValueError, "legend label '' of colour 2 is empty or holds whitespace"),
        (None, {1: "my label"}, ValueError, "legend label 'my label' of colour 1 is empty or holds whitespace"),
        (PATH_INTERVALS, {2: "x\n"}, ValueError, "legend label 'x\\n' of colour 2 is empty or holds whitespace"),
        (None, {"1": "B"}, ValueError, "legend colour '1' is not an integer"),
    ],
    ids=["some-vertices", "missing-vertex", "float-r", "float-l", "l-above-r", "empty-label",
         "space-label", "newline-label", "str-colour"],
)
def test_write_refuses_what_does_not_read_back(intervals, legend, error, message):
    g = build(3, [(1, 2), (2, 3)], [1, 2, 1])
    text = write_instance(g, intervals=PATH_INTERVALS, legend={1: "B", 2: "my_label"})
    assert parse_instance(text) == Instance(g, PATH_INTERVALS, {1: "B", 2: "my_label"})
    with pytest.raises(error) as info:
        write_instance(g, intervals=intervals, legend=legend)
    assert str(info.value) == message


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
        ("p tdgs 2 1\n", 1),  # header field count
        ("p tdgs 2 x 1\n", 1),  # header non-integer
        ("p tdgs 2 1 1\nv 1 1\nv 2 1\ne 1\n", 4),  # edge field count
        ("p tdgs 2 1 1\nv 1 1\nv 2 1\ne 1 2\ni 3 0 1\ni 1 0 1\n", 5),  # interval id range
        ("p tdgs 2 1 1\nv 1 1\nv 2 1\ne 1 2\ni 1 0 1\ni 1 0 1\n", 6),  # interval twice
        ("p tdgs 2 1 1\nv 1 1\nv 9223372036854775808 1\ne 1 2\n", 3),  # id beyond int64
        ("p tdgs 2 0 1\nv 1\nv v 1 2\n", 2),  # short record, then a long one holding the tag
        ("p tdgs 2 0 1\nv 1 1\nv 1 5\n", 3),  # repeat checked before colour
        ("p tdgs 1 0 1\nv 1 1\ni 1 3 2\n", 3),  # the only interval line
        ("# legend 1 my label\np tdgs 1 0 1\nv 1 1\n", 1),  # legend label with a space
        ("p tdgs 1 0 1\nv 1 1\n# legend x B\n", 3),  # non-integer legend colour
        ("# legend 1 A\n#legend +1 B\np tdgs 1 0 1\nv 1 1\n", 2),  # legend colour twice
        ("# legend\n", 1),  # a bare legend line wins over the missing header
        ("# legend 1\nv 1 1\np tdgs 1 0 1\n", 1),  # before a record before the header
        ("p tdgs 2 0 1\nv 1 1\n# legend 2\nv 3 1\n", 3),  # before a later bad record
        ("p tdgs 2 0 1\nv 1 1\nv 3 1\n# legend 2\n", 3),  # after an earlier bad record
    ],
)
def test_rejections_carry_line_numbers(text, line):
    with pytest.raises(ParseError) as exc:
        parse_instance(text)
    assert exc.value.line_no == line
    assert str(exc.value) == f"line {line}: {REJECTION_MESSAGES[text]}"


# The message each rejection above carries, as the line-by-line parser wrote it.
REJECTION_MESSAGES = {
    "": "missing 'p tdgs' header",
    "p tdgs 1 0 1\n\nv 1 1\n": "blank line not allowed",
    "v 1 1\np tdgs 1 0 1\n": "record before 'p tdgs' header",
    "p tdgs 1 0 1\np tdgs 1 0 1\nv 1 1\n": "duplicate header",
    "p cnf 1 0\n": "header must read 'p tdgs <n> <m> <c>'",
    "p tdgs 0 0 1\n": "header values out of range",
    "p tdgs 2 1 1\nv 1 1\nv 1 1\ne 1 2\n": "vertex 1 declared twice",
    "p tdgs 2 1 1\nv 1 1\nv 2 1\ne 2 1\n": "edges must satisfy u < v",
    "p tdgs 2 1 1\nv 1 1\nv 2 1\ne 1 3\n": "edge endpoint outside 1..2",
    "p tdgs 2 1 2\nv 1 1\nv 2 3\ne 1 2\n": "colour 3 outside 1..2",
    "p tdgs 2 1 1\nv 1 1\nv 2 x\ne 1 2\n": "vertex line has a non-integer field",
    "p tdgs 2 1 1\nv 1 1\nv 2 1\ne 1 2\nq 1\n": "unknown record tag 'q'",
    "p tdgs 2 1 1\nv 1 1\ne 1 2\n": "expected 2 vertex lines, got 1",
    "p tdgs 2 0 1\nv 1 1\nv 2 1\ne 1 2\n": "expected 0 edge lines, got 1",
    "p tdgs 2 1 1\nv 1 1\nv 2 1\ne 1 2\ni 1 0 2\n": "interval lines are all-or-none: got 1 of 2",
    "p tdgs 2 1 1\nv 1 1\nv 2 1\ne 1 2\ni 1 3 2\ni 2 0 1\n": "interval [3,2] has l > r",
    "p tdgs 2 1 2\nv 1 2\nv 2 2\ne 1 2\n": "colour 1 unused (colours must cover 1..2)",
    "p tdgs 2 1\n": "header line needs 3 fields, got 2",
    "p tdgs 2 x 1\n": "header line has a non-integer field",
    "p tdgs 2 1 1\nv 1 1\nv 2 1\ne 1\n": "edge line needs 2 fields, got 1",
    "p tdgs 2 1 1\nv 1 1\nv 2 1\ne 1 2\ni 3 0 1\ni 1 0 1\n": "interval id 3 outside 1..2",
    "p tdgs 2 1 1\nv 1 1\nv 2 1\ne 1 2\ni 1 0 1\ni 1 0 1\n": "interval for vertex 1 declared twice",
    "p tdgs 2 1 1\nv 1 1\nv 9223372036854775808 1\ne 1 2\n":
        "vertex id 9223372036854775808 outside 1..2",
    "p tdgs 2 0 1\nv 1\nv v 1 2\n": "vertex line needs 2 fields, got 1",
    "p tdgs 2 0 1\nv 1 1\nv 1 5\n": "vertex 1 declared twice",
    "p tdgs 1 0 1\nv 1 1\ni 1 3 2\n": "interval [3,2] has l > r",
    "# legend 1 my label\np tdgs 1 0 1\nv 1 1\n": "legend line needs 2 fields, got 3",
    "p tdgs 1 0 1\nv 1 1\n# legend x B\n": "legend line has a non-integer colour",
    "# legend 1 A\n#legend +1 B\np tdgs 1 0 1\nv 1 1\n": "legend colour 1 declared twice",
    "# legend\n": "legend line needs 2 fields, got 0",
    "# legend 1\nv 1 1\np tdgs 1 0 1\n": "legend line needs 2 fields, got 1",
    "p tdgs 2 0 1\nv 1 1\n# legend 2\nv 3 1\n": "legend line needs 2 fields, got 1",
    "p tdgs 2 0 1\nv 1 1\nv 3 1\n# legend 2\n": "vertex id 3 outside 1..2",
}


def test_duplicate_edge_reported_as_parse_error():
    text = "p tdgs 2 2 1\nv 1 1\nv 2 1\ne 1 2\ne 1 2\n"
    with pytest.raises(ParseError) as exc:
        parse_instance(text)
    assert str(exc.value) == "line 1: duplicate edge (1,2)"


def test_header_colour_count_must_match():
    text = "p tdgs 2 1 2\nv 1 1\nv 2 1\ne 1 2\n"
    with pytest.raises(ParseError) as exc:
        parse_instance(text)
    assert str(exc.value) == "line 1: header declares c=2 but max colour is 1"


def test_writer_emits_lf_and_trailing_newline():
    g = build(2, [(1, 2)], [1, 2])
    text = write_instance(g)
    assert "\r" not in text
    assert text.endswith("\n") and not text.endswith("\n\n")


def _outcome(text):
    """parse_instance's result in reference_parse's terms."""
    try:
        inst = parse_instance(text)
    except ParseError as exc:
        prefix = f"line {exc.line_no}: "
        assert str(exc).startswith(prefix)
        return "error", exc.line_no, str(exc)[len(prefix):]
    return "ok", inst


def _field(draw, value):
    """A spelling of an integer field, or a token that is no integer."""
    return draw(st.sampled_from([
        str(value),
        f"+{value}",
        f"00{value}",
        "_".join(str(value)) if abs(value) >= 10 else str(value),
        str(value + 2**63),
        str(-(2**64) - value),
        "x", "1.5", "e", "v", "1__0", "0x1", "",
    ]))


@st.composite
def mutated_texts(draw):
    """A valid instance text after a few of the edits a hand-written file shows."""
    inst = draw(interval_instances())
    n = inst.graph.n
    lines = write_instance(inst.graph, intervals=inst.intervals, legend=inst.legend).splitlines()
    for _ in range(draw(st.integers(0, 3))):
        at = draw(st.integers(0, len(lines)))  # an insertion point
        i = draw(st.integers(0, len(lines) - 1)) if lines else 0
        edit = draw(st.sampled_from([
            "blank", "before header", "second header", "swap", "drop", "duplicate",
            "field", "extra field", "missing field", "spaces", "comment", "unknown tag",
        ]))
        if not lines:
            break
        if edit == "blank":
            lines.insert(at, draw(st.sampled_from(["", " ", "\t", "\xa0"])))
        elif edit == "before header":
            lines.insert(0, lines[i])
        elif edit == "second header":
            lines.insert(at, draw(st.sampled_from(["p tdgs 2 1 1", f"p tdgs {n} 0 1", "p"])))
        elif edit == "swap":
            j = draw(st.integers(0, len(lines) - 1))
            lines[i], lines[j] = lines[j], lines[i]
        elif edit == "drop":
            del lines[i]
        elif edit == "duplicate":
            lines.insert(at, lines[i])
        elif edit == "field":
            fields = lines[i].split(" ")
            if len(fields) > 1:
                k = draw(st.integers(1, len(fields) - 1))
                value = draw(st.sampled_from([0, -1, 1, n, n + 1, 7, 10, 123]))
                fields[k] = _field(draw, value)
                lines[i] = " ".join(fields)
        elif edit == "extra field":
            lines[i] += " " + str(draw(st.integers(-2, n + 1)))
        elif edit == "missing field":
            lines[i] = lines[i].rsplit(" ", 1)[0]
        elif edit == "spaces":
            sep = draw(st.sampled_from(["\t", "  ", " \t", "\x1f", "\xa0", "　"]))
            lead = draw(st.sampled_from(["", " ", "\t", "\xa0"]))
            lines[i] = lead + lines[i].replace(" ", sep)
        elif edit == "comment":
            lines.insert(at, draw(st.sampled_from([
                "#", "# free text", "# legend 1 X", "# legend 1 Y", "#legend 2 Z",
                "# legend x W", "# legend +1 V", "# legend 1 A B", " # indented", "#p tdgs 1 0 1",
            ])))
        elif edit == "unknown tag":
            lines.insert(at, draw(st.sampled_from(["q 1", "vx 1 1", "ee 1 2", "# ", "P tdgs 1 0 1", "é 1"])))
    breaks = draw(st.lists(st.sampled_from(["\n", "\r\n", "\r", "\x0c", "\x0b", "\x1c", "\x85", " "]),
                           min_size=len(lines), max_size=len(lines)))
    return "".join(line + br for line, br in zip(lines, breaks))


# Texts on both sides of the edge of the plain shape: the plain reader
# decodes those of its shape and hands the others to the line reader, and
# each must read as reference_parse reads it.
PLAIN_EDGE = [
    "p tdgs 2 1 1\nv 1 1\nv 2 1\ne 1 2\ni 1 10 1000\ni 2 1 5\n",  # last field shorter than the longest
    "# x\x0b# legend 1 X\np tdgs 1 0 1\nv 1 1\n",  # \x0b breaks a comment line
    "p tdgs 1 0 1\x0cv 1 1\n",  # \x0c breaks the header line
    "# legend 1 B\r\np tdgs 2 1 1\r\nv 1 1\r\nv 2 1\r\ne 1 2\r\n",  # CRLF
    "p tdgs 2 1 1\nv\t1  1\nv 2\t\t1 \ne  1 \t2\n",  # tabs and runs of spaces
    "p tdgs 2 1 1\nv 1 1\nv 2 1\ne 1 2",  # no trailing newline
    "p tdgs 2 1 1\nv 1 1\nv 2 1\ne 1 2\n\n",  # a blank last line
    "p tdgs 1 0 1\n# legend 1 A\nv 1 1\n",  # a comment after the header
    "p tdgs 1 0 1\nv 0000000000000000001 1\n",  # a zero-padded 19-digit field
    "p tdgs 1 0 1\nv 1 1000000000000000001\n",  # a 19-digit field
    "p tdgs 1 0 1\nv 1 1\ni 1 -3 2\n",  # a negative endpoint
    "p tdgs 1 0 1\nv 1 1\ni 1 -3 -2\n",
    "p tdgs 1 0 1\nv 1 1\ni 1 3-2 5\n",  # a minus sign inside a field
    "p tdgs 1 0 1\nv 1 1\ni 1 - 2 5\n",  # a minus sign alone
    "p tdgs 1 0 1\nv-1 1\n",  # a minus sign right after the tag
    "p tdgs 1 0 1\nv1 1\n",  # a digit right after the tag
    "p tdgs 2 0 1\nv 1\nv 2 1 1\n",  # a field that moved to the next record
    "p tdgs 2 0 1\nv 1 1 2\nv 1\n",  # a field that moved to the record before
    "p tdgs 2 1 1\nv 1 1\nv 3 1\ne 1 2\n",  # vertex id outside 1..n
    "p tdgs 2 1 1\nv 1 1\nv 1 1\ne 1 2\n",  # a repeated vertex
    "p tdgs 2 1 1\nv 1 1\nv 2 2\ne 1 2\n",  # colour outside 1..c
    "p tdgs 2 1 1\nv 1 1\nv 2 1\ne 1 3\n",  # endpoint outside 1..n
    "p tdgs 2 1 1\nv 1 1\nv 2 1\ne 2 1\n",  # u >= v
    "p tdgs 2 2 1\nv 1 1\nv 2 1\ne 1 2\ne 1 2\n",  # a duplicate edge, found by build
    "p tdgs 3 1 1\nv 1 1\nv 2 1\ne 1 2\n",  # too few v lines
    "p tdgs 2 2 1\nv 1 1\nv 2 1\ne 1 2\n",  # too few e lines
    "p tdgs 2 1 1\nv 1 1\nv 2 1\ne 1 2\ni 1 0 1\n",  # partial i lines
    "p tdgs 2 1 1\nv 1 1\nv 2 1\ne 1 2\ni 3 0 1\ni 1 0 1\n",  # interval id outside 1..n
    "p tdgs 2 1 1\nv 1 1\nv 2 1\ne 1 2\ni 1 0 1\ni 1 0 1\n",  # a repeated interval
    "p tdgs 2 1 1\nv 1 1\nv 2 1\ne 1 2\ni 1 3 2\ni 2 0 1\n",  # l > r
    "p tdgs 2 1 2\nv 1 2\nv 2 2\ne 1 2\n",  # colour 1 unused, found by build
    "p tdgs 2 1 3\nv 1 1\nv 2 2\ne 1 2\n",  # header c above the largest colour
]


def _examples(rows):
    def decorate(test):
        for text in reversed(rows):
            test = example(text)(test)
        return test
    return decorate


@settings(max_examples=400, deadline=None)
@given(mutated_texts())
@_examples(PLAIN_EDGE)
def test_bulk_parse_matches_reference_parse(text):
    ref = reference_parse(text)
    got = _outcome(text)
    if ref[0] == "error":
        assert got == ref
    else:
        _, n, edges, colours, intervals, legend = ref
        assert got == ("ok", Instance(build(n, edges, colours), intervals, legend))


def test_parse_peak_memory_stays_near_the_line_loop():
    # G(300, 1/2, 5): 22,641 lines, the size of the largest dense instances
    text = write_instance(gen_gnpc(300, 0.5, 5, seed=7))

    def peak(parse):
        gc.collect()
        tracemalloc.start()
        try:
            parse(text)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    assert peak(parse_instance) <= 1.5 * peak(reference_parse)


def _no_line_reader(text):
    raise AssertionError("the line reader was asked to read the writer's text")


@settings(max_examples=100, deadline=None)
@given(st.one_of(
    interval_instances(),
    st.builds(lambda n, p, c, seed: Instance(gen_gnpc(n, p, c, seed=seed), None, {}),
              st.integers(20, 120), st.sampled_from([0.05, 0.2, 0.5]), st.integers(1, 5), st.integers(0, 99)),
))
def test_writer_output_takes_the_plain_reader(inst):
    text = write_instance(inst.graph, intervals=inst.intervals, legend=inst.legend)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(instance_io, "_read_lines", _no_line_reader)
        assert parse_instance(text) == inst
