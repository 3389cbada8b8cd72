"""Line-oriented text format for coloured-graph instances.

Layout (ASCII, LF endings):

    # comment lines anywhere; "# legend <colour> <label>" carries reduction metadata
    p tdgs <n> <m> <c>          exactly once, first non-comment line
    v <id> <colour>             exactly n lines, ids 1..n each once
    e <u> <v>                   exactly m lines, u < v
    i <id> <l> <r>              optional interval representation, all-or-none

Lines break as str.splitlines breaks them, fields are separated by any
whitespace, and a field is an integer when int() accepts it.

Any deviation is rejected with a line-numbered ParseError. It names the first
offending line, with the message that checking the lines one at a time, in
order, would give.

The parser works in bulk rather than line by line: it splits the text into
lines once, groups the lines by record tag, converts each record kind's
integer fields with one numpy call and runs every check as a whole-array
comparison. When a check fails, the first failing record of each kind is
found from its mask, and the earliest of those lines is reported.

The writer gives the canonical text: legend comments, the header, v lines in
id order, then the e lines in the sorted order build stores, formatted by one
%-call from the (m, 2) edge array the graph keeps, then any i lines by id.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import graph
from .errors import GraphBuildError, ParseError
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


# Line kinds: a comment, the tag byte of a p, v, e or i record, or one of these.
_COMMENT, _P, _V, _E, _I = b"#pvei"
_BLANK, _UNKNOWN = 0, 1
# _KIND[first byte, second byte] of a line, where 10 marks the end of the
# line: a tag letter followed by a tab, a space or the end is a tag field.
# _kinds settles every other pair from the line's first field.
_KIND = np.full((256, 256), _UNKNOWN, np.uint8)
_KIND[_COMMENT] = _COMMENT
_KIND[np.ix_(list(b"pvei"), list(b"\t\n "))] = np.frombuffer(b"pvei", np.uint8)[:, None]
# The kinds that no line after the header may have.
_STRAY = np.zeros(256, bool)
_STRAY[[_P, _BLANK, _UNKNOWN]] = True


def _first_field(line: str) -> str:
    fields = line.split(None, 1)
    return fields[0] if fields else ""


def _kinds(lines: list[str]) -> np.ndarray:
    """The kind of each line, as a uint8 array.

    The first two UTF-8 bytes of a line settle its kind when the line starts
    with '#', or with one of the letters p, v, e, i followed by a space, a tab
    or the end of the line. The rest (blank, indented, non-ASCII or unknown
    tags) are classified by their first field.
    """
    buf = np.frombuffer(("\n".join(lines) + "\n\n").encode("utf-8", "surrogatepass"), np.uint8)
    starts = np.concatenate(([0], np.flatnonzero(buf == 10) + 1))[: len(lines)]
    kind = _KIND[buf[starts], buf[starts + 1]]
    odd = np.flatnonzero(kind == _UNKNOWN)
    if odd.size:
        tags = np.array(list(map(_first_field, map(lines.__getitem__, odd.tolist()))), dtype=object)
        codes = np.where(tags == "", _BLANK, _UNKNOWN)
        for tag in "pvei":
            codes[tags == tag] = ord(tag)
        kind[odd] = codes
    return kind


def _header(line: str, line_no: int) -> tuple[int, int, int]:
    rest = line.split()[1:]
    if not rest or rest[0] != "tdgs":
        raise ParseError(line_no, "header must read 'p tdgs <n> <m> <c>'")
    n, m, c = _ints(rest[1:], line_no, 3, "header")
    if n < 1 or m < 0 or c < 1:
        raise ParseError(line_no, "header values out of range")
    return n, m, c


def _records(text: str, rows: np.ndarray, tag: str, what: str, width: int):
    """The integer fields of the records of one tag, up to the first record
    that does not hold `width` integers.

    text holds the records' lines joined by newlines, rows their indices.
    Returns the fields as a (k, width) array, int64 or, when a value is
    beyond int64, object (Python ints), together with (line number, message)
    for the record that stopped the conversion, or None when all converted.
    """
    k = len(rows)
    toks = text.split()
    stop = None
    # Every record's first field is the tag. So if the tag occurs exactly at
    # every (width + 1)-th field and nowhere else, each record has width fields.
    if not (len(toks) == k * (width + 1) and toks.count(tag) == k == toks[:: width + 1].count(tag)):
        counts = np.fromiter(map(len, map(str.split, text.split("\n"))), np.int64, k) - 1
        short = np.flatnonzero(counts != width)
        if short.size:
            k = int(short[0])
            stop = int(rows[k]) + 1, f"{what} line needs {width} fields, got {counts[k]}"
            del toks[k * (width + 1) :]
    del toks[:: width + 1]
    try:
        fields = np.array(toks, dtype=np.int64)
    except (ValueError, OverflowError):
        # int() once more, to count the integer fields before the first
        # non-integer one; the object array keeps values beyond int64 exact
        ints: list[int] = []
        try:
            ints.extend(map(int, toks))
        except ValueError:
            k = len(ints) // width
            stop = int(rows[k]) + 1, f"{what} line has a non-integer field"
        fields = np.array(ints[: k * width], dtype=object)
    return fields.reshape(k, width), stop


def _repeats(ids: np.ndarray) -> np.ndarray:
    """True where an id equals an earlier one."""
    order = np.argsort(ids, kind="stable")
    rep = np.zeros(len(ids), bool)
    rep[order[1:][ids[order[1:]] == ids[order[:-1]]]] = True
    return rep


def _first_failure(rows: np.ndarray, checks) -> tuple[int, str] | None:
    """(line number, message) of the first record failing a check, or None.

    checks are (mask, message) pairs in the order a record is checked;
    message(r) describes record r.
    """
    failed = np.zeros(len(checks[0][0]), bool)
    for mask, _ in checks:
        failed |= mask
    if not failed.any():
        return None
    r = int(failed.argmax())
    return int(rows[r]) + 1, next(message(r) for mask, message in checks if mask[r])


def parse_instance(text: str) -> Instance:
    lines = text.splitlines()
    kind = _kinds(lines)
    non_comment = np.flatnonzero(kind != _COMMENT)
    if not non_comment.size:
        raise ParseError(1, "missing 'p tdgs' header")
    h = int(non_comment[0])
    if kind[h] != _P:
        raise ParseError(h + 1, "blank line not allowed" if kind[h] == _BLANK else "record before 'p tdgs' header")
    header_line = h + 1
    n, m, c = _header(lines[h], header_line)

    failures = []
    stray = np.flatnonzero(_STRAY[kind[header_line:]])
    if stray.size:
        i = header_line + int(stray[0])
        failures.append((i + 1, {_P: "duplicate header", _BLANK: "blank line not allowed"}.get(
            int(kind[i]), f"unknown record tag '{_first_field(lines[i])}'")))

    comments = list(map(lines.__getitem__, np.flatnonzero(kind == _COMMENT).tolist()))
    rows = [np.flatnonzero(kind == tag) for tag in (_V, _E, _I)]
    texts = ["\n".join(map(lines.__getitem__, r.tolist())) for r in rows]
    del lines  # the records' texts hold what is left to read

    # a record that fails a check lies before the record that stopped its
    # kind's conversion, and min() below picks the earlier one
    v, stop = _records(texts[0], rows[0], "v", "vertex", 2)
    ids, cols = v.T
    failures += stop, _first_failure(rows[0], [
        ((ids < 1) | (ids > n), lambda r: f"vertex id {ids[r]} outside 1..{n}"),
        (_repeats(ids), lambda r: f"vertex {ids[r]} declared twice"),
        ((cols < 1) | (cols > c), lambda r: f"colour {cols[r]} outside 1..{c}"),
    ])

    edges, stop = _records(texts[1], rows[1], "e", "edge", 2)
    us, vs = edges.T
    failures += stop, _first_failure(rows[1], [
        ((us < 1) | (us > n) | (vs < 1) | (vs > n), lambda r: f"edge endpoint outside 1..{n}"),
        (us >= vs, lambda r: "edges must satisfy u < v"),
    ])

    iv, stop = _records(texts[2], rows[2], "i", "interval", 3)
    iids, lo, hi = iv.T
    failures.append(stop)
    if len(iv):  # most instances carry no intervals
        failures.append(_first_failure(rows[2], [
            ((iids < 1) | (iids > n), lambda r: f"interval id {iids[r]} outside 1..{n}"),
            (_repeats(iids), lambda r: f"interval for vertex {iids[r]} declared twice"),
            (lo > hi, lambda r: f"interval [{lo[r]},{hi[r]}] has l > r"),
        ]))

    failures = [f for f in failures if f]
    if failures:
        raise ParseError(*min(failures))
    if len(ids) != n:
        raise ParseError(header_line, f"expected {n} vertex lines, got {len(ids)}")
    if len(edges) != m:
        raise ParseError(header_line, f"expected {m} edge lines, got {len(edges)}")
    if len(iids) and len(iids) != n:
        raise ParseError(header_line, f"interval lines are all-or-none: got {len(iids)} of {n}")
    try:
        g = graph.build(n, edges, cols[np.argsort(ids)].tolist())
    except GraphBuildError as exc:
        raise ParseError(header_line, str(exc)) from exc
    if g.c != c:
        raise ParseError(header_line, f"header declares c={c} but max colour is {g.c}")
    intervals = dict(zip(iids.tolist(), zip(lo.tolist(), hi.tolist())))
    legend: dict[int, str] = {}
    for line in comments:
        parts = line[1:].split()
        if len(parts) == 3 and parts[0] == "legend":
            try:
                legend[int(parts[1])] = parts[2]
            except ValueError:
                pass
    return Instance(graph=g, intervals=intervals or None, legend=legend)


def write_instance(
    g: ColouredGraph,
    intervals: dict[int, tuple[int, int]] | None = None,
    legend: dict[int, str] | None = None,
) -> str:
    lines = []
    for k in sorted(legend or {}):
        lines.append(f"# legend {k} {legend[k]}")
    lines.append(f"p tdgs {g.n} {g.m} {g.c}")
    lines.extend(f"v {v} {g.colour[v - 1]}" for v in g.vertices)
    edge_lines = ("e %d %d\n" * g.m) % tuple(g.edge_array.ravel().tolist())
    interval_lines = "".join(
        f"i {v} {intervals[v][0]} {intervals[v][1]}\n" for v in sorted(intervals or {})
    )
    return "\n".join(lines) + "\n" + edge_lines + interval_lines
