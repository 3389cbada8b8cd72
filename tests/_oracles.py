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


def brute_prefix_tables(l, r):
    """a, b and P of the interval DP, straight from their definitions.

    l and r are the endpoints by sorted position (position i is index i-1).
    a_i is the least j with r_j >= l_i; b_0 = 1 and b_j is the least k > j
    with l_k > r_j, or n+1; P_i holds 0 when a_i = 1, then every j < i with
    a_i <= b_j whose interval neither contains nor is contained in I_i.
    """
    n = len(l)

    def contains(i, j):
        return l[i - 1] <= l[j - 1] and r[j - 1] <= r[i - 1]

    a = []
    for i in range(1, n + 1):
        a.append(min(j for j in range(1, n + 1) if r[j - 1] >= l[i - 1]))
    b = [1]
    for j in range(1, n + 1):
        later = [k for k in range(j + 1, n + 1) if l[k - 1] > r[j - 1]]
        b.append(min(later) if later else n + 1)
    P = []
    for i in range(1, n + 1):
        preds = [0] if a[i - 1] == 1 else []
        for j in range(1, i):
            if a[i - 1] <= b[j] and not contains(i, j) and not contains(j, i):
                preds.append(j)
        P.append(tuple(preds))
    return tuple(a), tuple(b), tuple(P)


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
