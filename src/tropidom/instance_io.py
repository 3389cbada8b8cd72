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

parse_instance has two readers and one checker. The plain reader takes texts
of the plain shape, the shape the writer gives: ASCII with no control byte
but tab and LF, comment lines only before a header line that starts with
"p ", and after it only v, e and i records with 2, 2 and 3 fields, each
field at most 18 digits with an optional minus sign. It decodes all records
in one pass of numpy operations over the text's bytes: line starts, field
edges from where the digit mask changes, and the digits converted column by
column. At the first sign of any other shape it hands the text to the line
reader, which splits it into lines once, groups the lines by record tag and
converts each record kind's integer fields with one numpy call. Both give
their integer arrays and record line numbers to one checker, which runs
every check as a whole-array comparison; when a check fails, the first
failing record of each kind is found from its mask, and the earliest of
those lines is reported. So the spellings accepted, every error message
and its line number are those of the line reader alone, whichever reader
read the text.

The writer gives the canonical text: legend comments, the header, v lines in
id order, then the e lines in the sorted order build stores, formatted by one
%-call from the (m, 2) edge array the graph keeps, then any i lines by id.
Before writing anything it refuses what the parser would reject or read back
differently: intervals that miss a vertex or have l > r
(RepresentationMismatchError), and a non-integer endpoint or legend colour or
a legend label that is empty or holds whitespace (ValueError).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import graph
from .errors import GraphBuildError, ParseError, RepresentationMismatchError
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


def _legend(lines: list[str], rows: list[int]):
    """The legend read from the comment lines at rows, and (line number,
    message) for the first malformed legend line among them, or None."""
    legend: dict[int, str] = {}
    for r in rows:
        parts = lines[r][1:].split()
        if not parts or parts[0] != "legend":
            continue
        if len(parts) != 3:
            return legend, (r + 1, f"legend line needs 2 fields, got {len(parts) - 1}")
        try:
            k = int(parts[1])
        except ValueError:
            return legend, (r + 1, "legend line has a non-integer colour")
        if k in legend:
            return legend, (r + 1, f"legend colour {k} declared twice")
        legend[k] = parts[2]
    return legend, None


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


# The plain reader's tables. _CODE maps a byte to its digit value, or to one
# of the codes after it; _WIDTH gives the number of integer fields of a v, e
# or i record, and _POW10[k] the weight of the digit k places from a field's
# right end.
_SEP, _MINUS, _LF, _OTHER, _CONTROL = range(10, 15)
_CODE = bytearray([_CONTROL]) * 256
_CODE[32:128] = bytes([_OTHER]) * 96
_CODE[48:58] = range(10)
_CODE[ord(" ")] = _CODE[ord("\t")] = _SEP
_CODE[ord("-")] = _MINUS
_CODE[ord("\n")] = _LF
_CODE = bytes(_CODE)
_WIDTH = np.zeros(256, np.int64)
_WIDTH[[_V, _E, _I]] = 2, 2, 3
_POW10 = 10 ** np.arange(18, dtype=np.int64)


def _read_plain(text: str):
    """_check's arguments for a text of the plain shape, or None for any other.

    The plain shape is the writer's: ASCII with no control byte but tab and
    LF; comment lines only before a header line that starts with "p "; after
    it only v, e and i records by _KIND, each with 2, 2 or 3 fields, whose
    bytes after the tag are spaces, tabs and fields of at most 18 digits with
    an optional minus sign. The records are decoded by numpy operations over
    the text's bytes, and a record's line number is the header's plus one
    plus its index among the records.
    """
    if not text.isascii():
        return None
    data = text.encode("ascii")
    if not data.endswith(b"\n"):
        data += b"\n"
    if data.endswith(b"\n\n"):  # a blank last line has no second byte for _KIND
        return None
    code = np.frombuffer(data.translate(_CODE), np.uint8)
    if code.max() == _CONTROL:
        return None
    hs = 0  # the header's start, once the comment lines are past
    while data.startswith(b"#", hs):
        hs = data.index(b"\n", hs) + 1
    b0 = data.find(b"\n", hs) + 1  # the first record line's start
    if not data.startswith(b"p ", hs) or b0 == len(data):
        return None
    comments = text[:hs].split("\n")[:-1]
    legend, bad_legend = _legend(comments, range(len(comments)))
    if bad_legend:
        return None
    header_line = len(comments) + 1
    header = _header(text[hs : b0 - 1], header_line)

    body = code[b0:]
    ends = np.flatnonzero(body == _LF)
    starts = np.concatenate(([0], ends[:-1] + 1))
    raw = np.frombuffer(data, np.uint8, offset=b0)
    kind = _KIND[raw[starts], raw[starts + 1]]
    width = _WIDTH[kind]
    if not width.all() or np.count_nonzero(body == _OTHER) != len(kind):
        return None  # a line that is no record, or a byte no record holds
    digit = body < 10
    edge = np.flatnonzero(digit[1:] != digit[:-1]) + 1
    first, last = edge[::2], edge[1::2]  # field f is body[first[f]:last[f]]
    # Record j holds fields cum[j] - width[j] to cum[j] - 1 when the first
    # of them starts past its tag and the last before its LF.
    cum = np.cumsum(width)
    if len(first) != cum[-1] or (first[cum - width] < starts).any() or (first[cum - 1] > ends).any():
        return None
    digits = last - first
    top = int(digits.max())
    if top > len(_POW10):
        return None
    # Each digit times its power of ten, one column at a time from the right;
    # column k of a field shorter than k digits adds nothing, and its index,
    # which can fall before the body's start, is clipped
    values = body[last - 1].astype(np.int64)
    for k in range(2, top + 1):
        values += np.where(digits >= k, body.take(last - k, mode="clip"), 0) * _POW10[k - 1]
    if data.find(b"-", b0) >= 0:
        at = np.flatnonzero(body == _MINUS)
        if not digit[at + 1].all() or (body[at - 1] != _SEP).any():
            return None  # a minus sign stands only between a separator and a digit
        np.negative(values, out=values, where=body[first - 1] == _MINUS)

    rows = np.arange(header_line, header_line + len(kind))
    records = []
    for tag in (_V, _E, _I):
        mine = kind == tag
        records.append((values[np.repeat(mine, width)].reshape(-1, _WIDTH[tag]), rows[mine]))
    return header_line, header, legend, [], records


def _read_lines(text: str):
    """_check's arguments for any text, read line by line; a fault in or
    before the header line raises its ParseError here."""
    lines = text.splitlines()
    kind = _kinds(lines)
    legend, bad_legend = _legend(lines, np.flatnonzero(kind == _COMMENT).tolist())
    non_comment = np.flatnonzero(kind != _COMMENT)
    if not non_comment.size:
        raise ParseError(*(bad_legend or (1, "missing 'p tdgs' header")))
    h = int(non_comment[0])
    if bad_legend and bad_legend[0] <= h:
        raise ParseError(*bad_legend)
    if kind[h] != _P:
        raise ParseError(h + 1, "blank line not allowed" if kind[h] == _BLANK else "record before 'p tdgs' header")
    header_line = h + 1
    header = _header(lines[h], header_line)

    failures = [bad_legend]
    stray = np.flatnonzero(_STRAY[kind[header_line:]])
    if stray.size:
        i = header_line + int(stray[0])
        failures.append((i + 1, {_P: "duplicate header", _BLANK: "blank line not allowed"}.get(
            int(kind[i]), f"unknown record tag '{_first_field(lines[i])}'")))

    rows = [np.flatnonzero(kind == tag) for tag in (_V, _E, _I)]
    texts = ["\n".join(map(lines.__getitem__, r.tolist())) for r in rows]
    del lines  # the records' texts hold what is left to read
    records = []
    for chunk, r, (tag, what, width) in zip(texts, rows, [("v", "vertex", 2), ("e", "edge", 2), ("i", "interval", 3)]):
        fields, stop = _records(chunk, r, tag, what, width)
        failures.append(stop)
        records.append((fields, r))
    return header_line, header, legend, failures, records


def _check(header_line, header, legend, failures, records) -> Instance:
    """The instance a reader's records describe, or the ParseError of the
    first line a line-by-line check rejects.

    failures holds (line number, message) or None for what the reader found
    wrong; records holds, for the v, e and i records in turn, their integer
    fields up to the first that did not convert and their 0-based line
    indices.
    """
    n, m, c = header
    (v, v_rows), (edges, e_rows), (iv, i_rows) = records
    # a record that fails a check lies before the record that stopped its
    # kind's conversion, and min() below picks the earlier one
    ids, cols = v.T
    failures.append(_first_failure(v_rows, [
        ((ids < 1) | (ids > n), lambda r: f"vertex id {ids[r]} outside 1..{n}"),
        (_repeats(ids), lambda r: f"vertex {ids[r]} declared twice"),
        ((cols < 1) | (cols > c), lambda r: f"colour {cols[r]} outside 1..{c}"),
    ]))
    us, vs = edges.T
    failures.append(_first_failure(e_rows, [
        ((us < 1) | (us > n) | (vs < 1) | (vs > n), lambda r: f"edge endpoint outside 1..{n}"),
        (us >= vs, lambda r: "edges must satisfy u < v"),
    ]))
    iids, lo, hi = iv.T
    if len(iv):  # most instances carry no intervals
        failures.append(_first_failure(i_rows, [
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
    return Instance(graph=g, intervals=intervals or None, legend=legend)


def parse_instance(text: str) -> Instance:
    return _check(*(_read_plain(text) or _read_lines(text)))


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
    lines = []
    for k in sorted(legend or {}):
        lines.append(f"# legend {k} {legend[k]}")
    lines.append(f"p tdgs {g.n} {g.m} {g.c}")
    lines.extend(f"v {v} {g.colour[v - 1]}" for v in g.vertices)
    edge_lines = ("e %d %d\n" * g.m) % tuple(g.edge_array.ravel().tolist())
    return "\n".join(lines) + "\n" + edge_lines + "".join(interval_lines)
