"""Line-oriented text format for coloured-graph instances.

Layout (ASCII, LF endings):

    # comment lines anywhere; "# legend <colour> <label>" carries reduction metadata
    p tdgs <n> <m> <c>          exactly once, first non-comment line
    v <id> <colour>             exactly n lines, ids 1..n each once
    e <u> <v>                   exactly m lines, u < v
    i <id> <l> <r>              optional interval representation, all-or-none

Any deviation is rejected with a line-numbered ParseError.
"""

from __future__ import annotations

from dataclasses import dataclass

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


def parse_instance(text: str) -> Instance:
    header = None
    header_line = 0
    colours: dict[int, int] = {}
    edges: list[tuple[int, int]] = []
    intervals: dict[int, tuple[int, int]] = {}
    legend: dict[int, str] = {}

    for line_no, line in enumerate(text.splitlines(), start=1):
        if line.startswith("#"):
            parts = line[1:].split()
            if len(parts) == 3 and parts[0] == "legend":
                try:
                    legend[int(parts[1])] = parts[2]
                except ValueError:
                    pass
            continue
        fields = line.split()
        if not fields:
            raise ParseError(line_no, "blank line not allowed")
        tag, rest = fields[0], fields[1:]
        if tag == "p":
            if header is not None:
                raise ParseError(line_no, "duplicate header")
            if not rest or rest[0] != "tdgs":
                raise ParseError(line_no, "header must read 'p tdgs <n> <m> <c>'")
            n, m, c = _ints(rest[1:], line_no, 3, "header")
            if n < 1 or m < 0 or c < 1:
                raise ParseError(line_no, "header values out of range")
            header = (n, m, c)
            header_line = line_no
            continue
        if header is None:
            raise ParseError(line_no, "record before 'p tdgs' header")
        n, m, c = header
        if tag == "v":
            vid, col = _ints(rest, line_no, 2, "vertex")
            if not 1 <= vid <= n:
                raise ParseError(line_no, f"vertex id {vid} outside 1..{n}")
            if vid in colours:
                raise ParseError(line_no, f"vertex {vid} declared twice")
            if not 1 <= col <= c:
                raise ParseError(line_no, f"colour {col} outside 1..{c}")
            colours[vid] = col
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
    n, m, c = header
    if len(colours) != n:
        raise ParseError(header_line, f"expected {n} vertex lines, got {len(colours)}")
    if len(edges) != m:
        raise ParseError(header_line, f"expected {m} edge lines, got {len(edges)}")
    if intervals and len(intervals) != n:
        raise ParseError(
            header_line,
            f"interval lines are all-or-none: got {len(intervals)} of {n}",
        )
    try:
        g = graph.build(n, edges, [colours[v] for v in range(1, n + 1)])
    except GraphBuildError as exc:
        raise ParseError(header_line, str(exc)) from exc
    if g.c != c:
        raise ParseError(header_line, f"header declares c={c} but max colour is {g.c}")
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
    lines.extend(f"e {u} {v}" for u, v in sorted(g.edges))
    if intervals:
        lines.extend(f"i {v} {intervals[v][0]} {intervals[v][1]}" for v in sorted(intervals))
    return "\n".join(lines) + "\n"
