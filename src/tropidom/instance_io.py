"""Line-oriented text format for coloured-graph instances.

Layout (ASCII, LF endings):

    # comment lines anywhere; "# legend <colour> <label>" carries reduction metadata
    p tdgs <n> <m> <c>          exactly once, first non-comment line
    v <id> <colour>             exactly n lines, ids 1..n each once
    e <u> <v>                   exactly m lines, u < v
    i <id> <l> <r>              optional interval representation, all-or-none

Lines break as str.splitlines breaks them, fields are separated by any
whitespace, and a field is an integer when int() accepts it. A comment whose
first field is "legend" is a legend line: it holds an integer colour, given
on no other legend line, and one label.

Any deviation is rejected with a line-numbered ParseError. It names the first
offending line, with the message that checking the lines one at a time, in
order, would give.

parse_instance has one line reader, which is the format's definition: a
loop over the lines that checks each in order. The writer's own text is
read a shorter way. Every number after its header is decoded in one numpy
call, unchecked, and the instance they describe is taken only when writing
it gives back the same bytes. What the writer writes reads back as written,
so a decode that passes is what the line reader would give; every other
text goes to the line reader, and a text that holds a CR or does not end in
LF, which the writer never gives, goes there straight, undecoded.

The writer gives the canonical text: legend comments, the header, v lines in
id order, then the e lines in the sorted order build stores, then any i lines
by id. Every v and e record is a tag and two integers in 1..n, so both are
laid into one line buffer of bytes, a row per record: the tag, a space, the
first integer, a space, the second and LF, each integer a row of one digit
table that spells 0..n right-aligned behind NUL padding. Dropping the NUL
bytes leaves the records' text. Legend lines, the header and i lines, whose
endpoints may lie beyond int64, are f-strings.
Before writing anything it refuses what the parser would reject or read back
differently: intervals that miss a vertex or have l > r
(RepresentationMismatchError), and a non-integer endpoint or legend colour or
a legend label that is empty or holds whitespace (ValueError).
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from . import graph
from .errors import GraphBuildError, ParseError, RepresentationMismatchError, TropidomError
from .graph import ColouredGraph


@dataclass(frozen=True)
class Instance:
    graph: ColouredGraph
    intervals: dict[int, tuple[int, int]] | None
    legend: dict[int, str]


def _ints(parts, line_no, expect, what):
    if len(parts) != expect:
        raise ParseError(line_no, f"{what} line needs {expect} fields, got {len(parts)}")
    try:
        return [int(x) for x in parts]
    except ValueError:
        raise ParseError(line_no, f"{what} line has a non-integer field") from None


def _header(line: str, line_no: int) -> tuple[int, int, int]:
    rest = line.split()[1:]
    if not rest or rest[0] != "tdgs":
        raise ParseError(line_no, "header must read 'p tdgs <n> <m> <c>'")
    n, m, c = _ints(rest[1:], line_no, 3, "header")
    if n < 1 or m < 0 or c < 1:
        raise ParseError(line_no, "header values out of range")
    return n, m, c


def _read_lines(text: str) -> Instance:
    """The instance a text describes, read one line at a time, in order.

    This is the format's definition: the first line that breaks it raises
    its ParseError. Past the last line come the checks of the whole text:
    the v, e and i counts, then those build makes (a repeated edge, a colour
    gap), then the header's c against the largest colour; each names the
    header line.
    """
    header = None
    colours: dict[int, int] = {}
    edges: list[tuple[int, int]] = []
    intervals: dict[int, tuple[int, int]] = {}
    legend: dict[int, str] = {}
    for line_no, line in enumerate(text.splitlines(), 1):
        if line.startswith("#"):
            parts = line[1:].split()
            if parts[:1] == ["legend"]:
                if len(parts) != 3:
                    raise ParseError(line_no, f"legend line needs 2 fields, got {len(parts) - 1}")
                try:
                    k = int(parts[1])
                except ValueError:
                    raise ParseError(line_no, "legend line has a non-integer colour") from None
                if k in legend:
                    raise ParseError(line_no, f"legend colour {k} declared twice")
                legend[k] = parts[2]
            continue
        fields = line.split()
        if not fields:
            raise ParseError(line_no, "blank line not allowed")
        tag, *rest = fields
        if tag == "p":
            if header is not None:
                raise ParseError(line_no, "duplicate header")
            n, m, c = header = _header(line, line_no)
            header_line = line_no
        elif header is None:
            raise ParseError(line_no, "record before 'p tdgs' header")
        elif tag == "v":
            vid, colour = _ints(rest, line_no, 2, "vertex")
            if not 1 <= vid <= n:
                raise ParseError(line_no, f"vertex id {vid} outside 1..{n}")
            if vid in colours:
                raise ParseError(line_no, f"vertex {vid} declared twice")
            if not 1 <= colour <= c:
                raise ParseError(line_no, f"colour {colour} outside 1..{c}")
            colours[vid] = colour
        elif tag == "e":
            u, v = _ints(rest, line_no, 2, "edge")
            if not (1 <= u <= n and 1 <= v <= n):
                raise ParseError(line_no, f"edge endpoint outside 1..{n}")
            if u >= v:
                raise ParseError(line_no, "edges must satisfy u < v")
            edges.append((u, v))
        elif tag == "i":
            vid, lo, hi = _ints(rest, line_no, 3, "interval")
            if not 1 <= vid <= n:
                raise ParseError(line_no, f"interval id {vid} outside 1..{n}")
            if vid in intervals:
                raise ParseError(line_no, f"interval for vertex {vid} declared twice")
            if lo > hi:
                raise ParseError(line_no, f"interval [{lo},{hi}] has l > r")
            intervals[vid] = (lo, hi)
        else:
            raise ParseError(line_no, f"unknown record tag '{tag}'")

    if header is None:
        raise ParseError(1, "missing 'p tdgs' header")
    if len(colours) != n:
        raise ParseError(header_line, f"expected {n} vertex lines, got {len(colours)}")
    if len(edges) != m:
        raise ParseError(header_line, f"expected {m} edge lines, got {len(edges)}")
    if intervals and len(intervals) != n:
        raise ParseError(header_line, f"interval lines are all-or-none: got {len(intervals)} of {n}")
    try:
        g = graph.build(n, edges, [colours[v] for v in range(1, n + 1)])
    except GraphBuildError as exc:
        raise ParseError(header_line, str(exc)) from exc
    if g.c != c:
        raise ParseError(header_line, f"header declares c={c} but max colour is {g.c}")
    return Instance(graph=g, intervals=intervals or None, legend=legend)


# _read_written reads the record tags as separators
_TAGS_TO_SPACES = bytes.maketrans(b"vei", b"   ")


def _read_written(text: str) -> Instance | None:
    """The instance of a text that write_instance gave, or None for any other.

    It takes the legend from the lines before "p tdgs ", n, m and c from the
    header, and every number after the header from one numpy call: n
    (id, colour) pairs, of which it keeps the colours, m edges and, when n
    triples follow, the intervals. It checks none of them. It returns what
    it decoded only when write_instance writes exactly the text back, and
    that check is the proof: the writer writes only what _read_lines reads
    back as written (the round trip the tests check), so on the writer's
    text the two readers agree. Any other text, and any decoding that
    fails, gives None. The writer writes no CR and ends in LF, so a text
    that holds a CR or lacks a final LF gives None before any decoding.
    """
    if "\r" in text or not text.endswith("\n"):
        return None
    try:
        head, _, body = text.partition("p tdgs ")
        legend = {}
        for line in head.splitlines():
            _, _, k, label = line.split(" ")
            legend[int(k)] = label
        header, _, body = body.partition("\n")
        n, m, c = map(int, header.split(" "))
        with warnings.catch_warnings():
            # where a field is no number, older numpy warns instead of raising
            warnings.simplefilter("ignore", DeprecationWarning)
            nums = np.fromstring(body.encode().translate(_TAGS_TO_SPACES), dtype=np.int64, sep=" ")
        records = 2 * (n + m)
        if len(nums) not in (records, records + 3 * n):
            return None
        g = graph.build(n, nums[2 * n : records].reshape(m, 2), nums[1 : 2 * n : 2].tolist())
        intervals = {v: (lo, hi) for v, lo, hi in nums[records:].reshape(-1, 3).tolist()} or None
        if write_instance(g, intervals, legend) != text:
            return None
    except (ValueError, TropidomError):
        return None
    return Instance(graph=g, intervals=intervals, legend=legend)


def parse_instance(text: str) -> Instance:
    return _read_written(text) or _read_lines(text)


def write_instance(
    g: ColouredGraph,
    intervals: dict[int, tuple[int, int]] | None = None,
    legend: dict[int, str] | None = None,
) -> str:
    for k, label in (legend or {}).items():
        if not (type(k) is int or isinstance(k, np.integer)):
            raise ValueError(f"legend colour {k!r} is not an integer")
        if not isinstance(label, str) or label.split() != [label]:
            raise ValueError(f"legend label {label!r} of colour {k} is empty or holds whitespace")
    interval_lines = []
    if intervals is not None:
        if len(intervals) != g.n:
            raise RepresentationMismatchError(f"expected {g.n} intervals, got {len(intervals)}")
        for v in g.vertices:
            if v not in intervals:
                raise RepresentationMismatchError(f"vertex {v} has no interval")
            lv, rv = intervals[v]
            # bool is an int subclass that would be written as True or False
            if not (type(lv) is int or isinstance(lv, np.integer)) or not (
                type(rv) is int or isinstance(rv, np.integer)
            ):
                raise ValueError(f"vertex {v}: interval [{lv},{rv}] has a non-integer endpoint")
            if lv > rv:
                raise RepresentationMismatchError(f"vertex {v}: interval [{lv},{rv}] has l > r")
            interval_lines.append(f"i {v} {lv} {rv}\n")
    head = "".join(f"# legend {k} {legend[k]}\n" for k in sorted(legend or {}))
    return head + f"p tdgs {g.n} {g.m} {g.c}\n" + _records_text(g) + "".join(interval_lines)


def _records_text(g: ColouredGraph) -> str:
    """The v lines then the e lines of g, laid out as in the module docstring."""
    n, m = g.n, g.m
    w = len(str(n))
    # digits[k] is k written in w bytes, behind NUL bytes where it has fewer
    # digits, as one void item; digits[0], all NUL, is never written, as ids
    # and colours are >= 1
    place = np.arange(n + 1)[:, None] // 10 ** np.arange(w - 1, -1, -1)
    digits = np.where(place > 0, place % 10 + ord("0"), 0).astype(np.uint8).view(f"V{w}")[:, 0]
    buf = np.zeros((n + m, 2 * w + 4), np.uint8)
    buf[:n, 0] = ord("v")
    buf[n:, 0] = ord("e")
    buf[:, 1] = buf[:, w + 2] = ord(" ")
    buf[:, -1] = ord("\n")
    # the two integer fields of every record, each a void item
    first = buf[:, 2 : w + 2].view(f"V{w}")[:, 0]
    second = buf[:, w + 3 : -1].view(f"V{w}")[:, 0]
    first[:n] = digits[1:]
    second[:n] = digits.take(g.colour)
    first[n:] = digits.take(g.edge_array[:, 0])
    second[n:] = digits.take(g.edge_array[:, 1])
    return buf.tobytes().translate(None, b"\0").decode("ascii")
