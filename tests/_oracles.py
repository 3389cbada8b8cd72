"""Independent brute-force oracles used only by the test suite.

These deliberately share no code with the library: domination and tropicality
are re-derived from adjacency lists, and optima come from subset enumeration
(numpy-vectorised where the instance sizes make that worthwhile).
"""

from __future__ import annotations

import itertools

import numpy as np


def closed_neighbourhoods(n, edges):
    nbrs = [{v} for v in range(1, n + 1)]
    for u, v in edges:
        nbrs[u - 1].add(v)
        nbrs[v - 1].add(u)
    return nbrs


def brute_is_dominating(n, edges, s):
    nbrs = closed_neighbourhoods(n, edges)
    s = set(s)
    return all(nbrs[v - 1] & s for v in range(1, n + 1))


def _subset_tables(n, edges, colours=None):
    """dominating[mask] plus (optionally) tropical[mask] over all 2^n masks."""
    closed = [1 << i for i in range(n)]
    for u, v in edges:
        closed[u - 1] |= 1 << (v - 1)
        closed[v - 1] |= 1 << (u - 1)
    full = (1 << n) - 1
    subs = np.arange(1 << n, dtype=np.int64)
    cover = np.zeros(1 << n, dtype=np.int64)
    for i in range(n):
        cover[(subs >> i) & 1 == 1] |= closed[i]
    ok = cover == full
    if colours is not None:
        c = max(colours)
        for k in range(1, c + 1):
            cmask = sum(1 << i for i, col in enumerate(colours) if col == k)
            ok &= (subs & cmask) != 0
    return subs, ok


def brute_gamma(n, edges):
    subs, ok = _subset_tables(n, edges)
    sizes = np.array([int(s).bit_count() for s in range(1 << n)])
    return int(sizes[ok].min())


def brute_gamma_t(n, edges, colours):
    subs, ok = _subset_tables(n, edges, colours)
    if not ok.any():
        return None
    sizes = np.array([int(s).bit_count() for s in range(1 << n)])
    return int(sizes[ok].min())


def brute_rainbow_sets(n, edges, colours):
    """All rainbow dominating sets by product over colour classes."""
    c = max(colours)
    classes = [
        [v for v in range(1, n + 1) if colours[v - 1] == k] for k in range(1, c + 1)
    ]
    out = []
    for combo in itertools.product(*classes):
        if len(set(combo)) == c and brute_is_dominating(n, edges, combo):
            out.append(frozenset(combo))
    return out


def brute_satisfiable(formula):
    """Truth-table enumeration over the formula's num_vars and clauses.

    clauses are tuples of (variable, polarity) literals, variables 1-indexed.
    """
    for assign in itertools.product((False, True), repeat=formula.num_vars):
        if all(any(assign[v - 1] == pol for v, pol in cl) for cl in formula.clauses):
            return True
    return False


def random_coloured_graph(rng, n_max=12, c_max=4, p_choices=(0.2, 0.5, 0.8)):
    """Seeded random instance as raw (n, edges, colours) triples."""
    n = int(rng.integers(1, n_max + 1))
    c = int(rng.integers(1, min(c_max, n) + 1))
    p = float(rng.choice(p_choices))
    edges = [
        (u, v)
        for u in range(1, n + 1)
        for v in range(u + 1, n + 1)
        if rng.random() < p
    ]
    while True:
        colours = (rng.integers(0, c, size=n) + 1).tolist()
        if len(set(colours)) == c:
            break
    return n, edges, colours


def random_interval_instance(rng, n_max=14, c_max=4, span=20):
    """Random integer intervals plus the induced intersection graph."""
    n = int(rng.integers(1, n_max + 1))
    c = int(rng.integers(1, min(c_max, n) + 1))
    pairs = {}
    for v in range(1, n + 1):
        a, b = sorted(int(x) for x in rng.integers(0, span + 1, size=2))
        pairs[v] = (a, b)
    edges = [
        (u, v)
        for u in range(1, n + 1)
        for v in range(u + 1, n + 1)
        if pairs[u][0] <= pairs[v][1] and pairs[v][0] <= pairs[u][1]
    ]
    while True:
        colours = (rng.integers(0, c, size=n) + 1).tolist()
        if len(set(colours)) == c:
            break
    return n, edges, colours, pairs


def brute_windows(l, r, colours):
    """Forced positions, windows P and first end of the interval DP, straight
    from their definitions.

    l, r and colours are by sorted position (position i is index i-1). A
    position is forced when no other position has its colour, and required
    when it meets no forced position. a_i is the least j with r_j >= l_i,
    and b_j is the first required position after j that misses j, or n+1;
    position 0, the empty prefix, misses every position. P_i holds every j
    in 0..i-1 with b_j >= a_i, and the first end is the least j with
    b_j = n+1.
    """
    n = len(l)

    def meets(u, v):
        return u > 0 and l[u - 1] <= r[v - 1] and l[v - 1] <= r[u - 1]

    forced = tuple(colours.count(k) == 1 for k in colours)
    required = [
        q for q in range(1, n + 1)
        if not any(forced[p - 1] and meets(p, q) for p in range(1, n + 1))
    ]
    a = [min(j for j in range(1, n + 1) if r[j - 1] >= l[i - 1]) for i in range(1, n + 1)]
    b = [min([q for q in required if q > j and not meets(j, q)], default=n + 1) for j in range(n + 1)]
    P = tuple(tuple(j for j in range(i) if b[j] >= a[i - 1]) for i in range(1, n + 1))
    return forced, P, b.index(n + 1)


def gnpc_reference(n, p, c, seed):
    """G(n, p) with uniform colours 1..c, one rng.random() call per pair.

    Pairs (u, v), u < v, are drawn in lexicographic order; colours are
    redrawn until all c appear. Returns (edges, colours).
    """
    rng = np.random.default_rng(seed)
    edges = []
    for u in range(1, n + 1):
        for v in range(u + 1, n + 1):
            if rng.random() < p:
                edges.append((u, v))
    while True:
        colours = (rng.integers(0, c, size=n) + 1).tolist()
        if len(set(colours)) == c:
            return edges, colours


def reference_greedy_cover(sets, target):
    """Greedy max-coverage by a full rescan of every set's gain on each pick.

    Returns the indices of the chosen sets; ties go to the smallest index.
    Raises AssertionError when no set gains anything before target is covered.
    """
    covered = 0
    chosen = []
    while covered != target:
        best_i, best_gain = None, 0
        for i, s in enumerate(sets):
            gain = (s & ~covered).bit_count()
            if gain > best_gain:
                best_i, best_gain = i, gain
        assert best_i is not None, "set system fails to cover its universe"
        chosen.append(best_i)
        covered |= sets[best_i]
    return chosen


def reference_edge_check(n, edges):
    """The error a valid-graph builder owes an edge list, by one plain loop.

    Edges are checked in input order: both endpoints in 1..n, then no
    self-loop, then no earlier copy in either orientation. Returns
    (error class name, message) for the first offending edge, or
    ("ok", sorted normalised edges) when there is none.
    """
    seen = set()
    for u, v in edges:
        if u < 1 or u > n or v < 1 or v > n:
            return "OutOfRangeError", f"edge ({u},{v}) has endpoint outside 1..{n}"
        if u == v:
            return "SelfLoopError", f"self-loop at vertex {u}"
        pair = (min(u, v), max(u, v))
        if pair in seen:
            return "DuplicateEdgeError", f"duplicate edge ({pair[0]},{pair[1]})"
        seen.add(pair)
    return "ok", sorted(seen)


def _reference_ints(parts, expect, what):
    if len(parts) != expect:
        return f"{what} line needs {expect} fields, got {len(parts)}"
    try:
        return [int(x) for x in parts]
    except ValueError:
        return f"{what} line has a non-integer field"


def reference_parse(text):
    """The `p tdgs` reader as one loop over the lines, checking each in order.

    Returns ("ok", n, edges, colours, intervals, legend), with the edges as
    (u, v) pairs in file order, colours[v-1] the colour of vertex v and
    intervals None when the text has none; or ("error", line_no, message)
    for the first offending line. Past the last line it makes the checks
    that building the graph makes: the edges in file order for a repeat,
    then every colour in 1..max colour in use, then max colour = c.
    """
    header = None
    header_line = 0
    colours = {}
    edges = []
    intervals = {}
    legend = {}

    for line_no, line in enumerate(text.splitlines(), start=1):
        if line.startswith("#"):
            parts = line[1:].split()
            if parts[:1] == ["legend"]:
                if len(parts) != 3:
                    return "error", line_no, f"legend line needs 2 fields, got {len(parts) - 1}"
                try:
                    colour = int(parts[1])
                except ValueError:
                    return "error", line_no, "legend line has a non-integer colour"
                if colour in legend:
                    return "error", line_no, f"legend colour {colour} declared twice"
                legend[colour] = parts[2]
            continue
        fields = line.split()
        if not fields:
            return "error", line_no, "blank line not allowed"
        tag, rest = fields[0], fields[1:]
        if tag == "p":
            if header is not None:
                return "error", line_no, "duplicate header"
            if not rest or rest[0] != "tdgs":
                return "error", line_no, "header must read 'p tdgs <n> <m> <c>'"
            values = _reference_ints(rest[1:], 3, "header")
            if isinstance(values, str):
                return "error", line_no, values
            n, m, c = values
            if n < 1 or m < 0 or c < 1:
                return "error", line_no, "header values out of range"
            header = (n, m, c)
            header_line = line_no
            continue
        if header is None:
            return "error", line_no, "record before 'p tdgs' header"
        n, m, c = header
        if tag == "v":
            values = _reference_ints(rest, 2, "vertex")
            if isinstance(values, str):
                return "error", line_no, values
            vid, col = values
            if not 1 <= vid <= n:
                return "error", line_no, f"vertex id {vid} outside 1..{n}"
            if vid in colours:
                return "error", line_no, f"vertex {vid} declared twice"
            if not 1 <= col <= c:
                return "error", line_no, f"colour {col} outside 1..{c}"
            colours[vid] = col
        elif tag == "e":
            values = _reference_ints(rest, 2, "edge")
            if isinstance(values, str):
                return "error", line_no, values
            u, v = values
            if not (1 <= u <= n and 1 <= v <= n):
                return "error", line_no, f"edge endpoint outside 1..{n}"
            if u >= v:
                return "error", line_no, "edges must satisfy u < v"
            edges.append((u, v))
        elif tag == "i":
            values = _reference_ints(rest, 3, "interval")
            if isinstance(values, str):
                return "error", line_no, values
            vid, lo, hi = values
            if not 1 <= vid <= n:
                return "error", line_no, f"interval id {vid} outside 1..{n}"
            if vid in intervals:
                return "error", line_no, f"interval for vertex {vid} declared twice"
            if lo > hi:
                return "error", line_no, f"interval [{lo},{hi}] has l > r"
            intervals[vid] = (lo, hi)
        else:
            return "error", line_no, f"unknown record tag '{tag}'"

    if header is None:
        return "error", 1, "missing 'p tdgs' header"
    n, m, c = header
    if len(colours) != n:
        return "error", header_line, f"expected {n} vertex lines, got {len(colours)}"
    if len(edges) != m:
        return "error", header_line, f"expected {m} edge lines, got {len(edges)}"
    if intervals and len(intervals) != n:
        return "error", header_line, f"interval lines are all-or-none: got {len(intervals)} of {n}"
    seen = set()
    for u, v in edges:
        if (u, v) in seen:
            return "error", header_line, f"duplicate edge ({u},{v})"
        seen.add((u, v))
    by_vertex = [colours[v] for v in range(1, n + 1)]
    top, used = max(by_vertex), set(by_vertex)
    for k in range(1, top + 1):
        if k not in used:
            return "error", header_line, f"colour {k} unused (colours must cover 1..{top})"
    if top != c:
        return "error", header_line, f"header declares c={c} but max colour is {top}"
    return "ok", n, edges, by_vertex, intervals or None, legend


def reference_write(n, colours, edges, intervals, legend):
    """The `p tdgs` text of an instance, one f-string per line: legend
    lines by colour, the header, v lines by id, e lines as sorted (lo, hi)
    pairs, then i lines by id when intervals is not None."""
    pairs = sorted((min(u, v), max(u, v)) for u, v in edges)
    out = [f"# legend {k} {label}\n" for k, label in sorted((legend or {}).items())]
    out.append(f"p tdgs {n} {len(pairs)} {max(colours)}\n")
    out.extend(f"v {v} {colours[v - 1]}\n" for v in range(1, n + 1))
    out.extend(f"e {u} {v}\n" for u, v in pairs)
    if intervals is not None:
        out.extend(f"i {v} {intervals[v][0]} {intervals[v][1]}\n" for v in range(1, n + 1))
    return "".join(out)
