"""Instance generators: random coloured graphs, extremal constructions, and
the two hardness reductions (3-SAT -> coloured path for rainbow domination,
subcubic vertex cover -> coloured path for tropical domination) together with
solution back-translation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import graph as gc
from .errors import (
    BadEpsilonError,
    BadParametersError,
    EmptyGraphError,
    GraphBuildError,
    HasIsolatedVertexError,
    MalformedFormulaError,
    NotAPathError,
    NotSubcubicError,
    NotTropicalDominatingError,
    ParseError,
    WrongArtifactError,
)
from .graph import ColouredGraph, build, path_order


@dataclass(frozen=True)
class CnfFormula:
    """3-CNF with literals indexed 1..X in reading order (X = 3 * tau)."""

    num_vars: int
    clauses: tuple[tuple[tuple[int, bool], ...], ...]  # (variable, polarity)

    def __post_init__(self):
        for cl in self.clauses:
            if len(cl) != 3:
                raise MalformedFormulaError("every clause needs exactly 3 literals")
            for var, _ in cl:
                if not 1 <= var <= self.num_vars:
                    raise MalformedFormulaError(f"variable {var} out of range")

    @property
    def tau(self) -> int:
        return len(self.clauses)

    @property
    def X(self) -> int:
        return 3 * self.tau


def _cnf_ints(fields, line_no: int, what: str) -> list[int]:
    try:
        return [int(x) for x in fields]
    except ValueError:
        raise ParseError(line_no, f"{what} has a non-integer field") from None


def parse_dimacs_cnf(text: str) -> CnfFormula:
    """DIMACS-CNF with exactly 3 literals per clause."""
    num_vars = None
    num_clauses = None
    clauses = []
    for line_no, line in enumerate(text.splitlines(), start=1):
        line = line.strip()
        if not line or line.startswith("c"):
            continue
        if line.startswith("p"):
            parts = line.split()
            if len(parts) != 4 or parts[1] != "cnf":
                raise ParseError(line_no, "header must read 'p cnf <vars> <clauses>'")
            num_vars, num_clauses = _cnf_ints(parts[2:], line_no, "header")
            continue
        if num_vars is None:
            raise ParseError(line_no, "clause before 'p cnf' header")
        nums = _cnf_ints(line.split(), line_no, "clause line")
        if len(nums) != 4 or nums[-1] != 0:
            raise ParseError(line_no, "clause lines hold 3 nonzero ints then 0")
        lits = []
        for x in nums[:-1]:
            if x == 0:
                raise ParseError(line_no, "zero literal inside clause")
            lits.append((abs(x), x > 0))
        clauses.append(tuple(lits))
    if num_vars is None:
        raise ParseError(1, "missing 'p cnf' header")
    if num_clauses != len(clauses):
        raise ParseError(1, f"header declares {num_clauses} clauses, got {len(clauses)}")
    return CnfFormula(num_vars=num_vars, clauses=tuple(clauses))


@dataclass(frozen=True)
class SubcubicGraph:
    n: int
    edges: tuple[tuple[int, int], ...]

    def __post_init__(self):
        if self.n < 1 or not self.edges:
            raise EmptyGraphError("need at least one edge")
        # m edges touch at most 2m vertices: refuse before sizing anything by n
        if self.n > 2 * len(self.edges):
            raise HasIsolatedVertexError("isolated vertex present")
        try:
            profile = gc.degree_profile(build(self.n, self.edges, [1] * self.n))
        except GraphBuildError as exc:
            raise BadParametersError(str(exc)) from exc
        if profile.big_delta > 3:
            raise NotSubcubicError("maximum degree exceeds 3")
        if profile.delta == 0:
            raise HasIsolatedVertexError("isolated vertex present")

    def min_vertex_cover(self) -> int:
        """Brute-force optimum by subset enumeration."""
        for size in range(0, self.n + 1):
            for bits in range(1 << self.n):
                if bits.bit_count() != size:
                    continue
                if all((bits >> (u - 1)) & 1 or (bits >> (v - 1)) & 1 for u, v in self.edges):
                    return size
        raise AssertionError("full vertex set always covers")

    def is_vertex_cover(self, s) -> bool:
        s = set(s)
        return all(u in s or v in s for u, v in self.edges)


@dataclass(frozen=True)
class ReductionArtifact:
    path: ColouredGraph
    colour_legend: dict[int, str]
    anchors: dict[str, int] = field(default_factory=dict)
    meta: dict = field(default_factory=dict)


def _path_artifact(colours, legend, anchors, meta) -> ReductionArtifact:
    """Lay colours on the path 1-2-...-n and wrap it as a ReductionArtifact."""
    n = len(colours)
    left = np.arange(1, n, dtype=np.int64)
    path = build(n, np.column_stack((left, left + 1)), colours)
    return ReductionArtifact(path=path, colour_legend=legend, anchors=anchors, meta=meta)


# gen_gnpc draws its pair coins this many at a time. numpy's generator gives
# the same doubles for one call of size a + b as for calls of size a then b,
# so the block size bounds memory and leaves the graph unchanged.
_BLOCK_PAIRS = 1 << 16


def gen_gnpc(n: int, p: float, c: int, seed) -> ColouredGraph:
    """G(n, p) with iid uniform vertex colours from 1..c.

    One rng.random() coin per pair (u, v), u < v, in lexicographic order, as
    a per-pair loop would draw them. If some colour class comes out empty,
    only the colours are resampled; the number of resamples of the latest
    call is kept in gen_gnpc.last_resamples.
    """
    if not (0 < p < 1) or not (1 <= c <= n):
        raise BadParametersError(f"need 0 < p < 1 and 1 <= c <= n, got p={p} c={c} n={n}")
    rng = np.random.default_rng(seed)
    # coin k is pair (u, v) with starts[u - 1] <= k < starts[u], v = u + 1 + k - starts[u - 1];
    # only the indices of the hits are kept, so memory grows with m, not n^2
    starts = np.concatenate(([0], np.cumsum(np.arange(n - 1, 0, -1))))
    total = int(starts[-1])
    blocks = [
        np.flatnonzero(rng.random(min(_BLOCK_PAIRS, total - k)) < p) + k
        for k in range(0, total, _BLOCK_PAIRS)
    ]
    hits = np.concatenate(blocks) if blocks else np.zeros(0, dtype=np.int64)
    u = np.searchsorted(starts, hits, side="right")
    edges = np.stack((u, hits - starts[u - 1] + u + 1), axis=1)
    resamples = 0
    while True:
        colours = (rng.integers(0, c, size=n) + 1).tolist()
        if len(set(colours)) == c:
            break
        resamples += 1
    gen_gnpc.last_resamples = resamples
    return build(n, edges, colours)


gen_gnpc.last_resamples = 0


def extremal_gamma_plus(gamma_target: int, c: int) -> ColouredGraph:
    """Cycle C_{3*gamma} plus c-1 uniquely coloured leaves on one vertex.

    Attains gamma^t = gamma + c - 1 (the tightness witness for the
    tdn <= gamma + c - 1 bound).
    """
    if gamma_target < 1 or c < 1:
        raise BadParametersError("need gamma >= 1 and c >= 1")
    cyc = 3 * gamma_target
    n = cyc + c - 1
    edges = [(i, i + 1) for i in range(1, cyc)] + ([(1, cyc)] if cyc > 2 else [])
    edges += [(1, cyc + j) for j in range(1, c)]  # leaves hang off u = vertex 1
    colours = [1] * cyc + list(range(2, c + 1))
    return build(n, edges, colours)


def extremal_edge_bound(n: int, k: int, c: int) -> ColouredGraph:
    """Clique on n-k+c-1 vertices plus a pendant set B of k-c+1 vertices.

    Has m = C(n-k+c-1, 2) + n - k edges and gamma^t = k, the tightness
    witness for the edge-count bound.
    """
    if k < c or n <= k + c - 2 or c < 1:
        raise BadParametersError(f"need k >= c and n > k+c-2, got n={n} k={k} c={c}")
    if n - k < k - c + 1:
        # otherwise some pendant vertex would get no clique neighbour
        raise BadParametersError(f"need n - k >= k - c + 1, got n={n} k={k} c={c}")
    q = n - k + c - 1  # clique size
    b = k - c + 1  # pendant set size
    edges = [(i, j) for i in range(1, q + 1) for j in range(i + 1, q + 1)]
    # clique vertices 1..c-1 are uniquely coloured; A = clique vertices c..q
    a_vertices = list(range(c, q + 1))
    assert len(a_vertices) == n - k
    for idx, v in enumerate(a_vertices):
        edges.append((v, q + 1 + idx % b))
    colours = list(range(1, c)) + [c] * (q - c + 1) + [c] * b
    return build(n, edges, colours)


def sat_to_path(f: CnfFormula) -> ReductionArtifact:
    """3-SAT -> vertex-coloured path whose rainbow dominating sets encode
    satisfying assignments.

    Segment P0 = v v' v0 v1 ... v_{4 tau}; then one 5-vertex constraint
    gadget (A, P, M, N, L) per ordered antithetic literal pair, ordered
    lexicographically; final unique-coloured vertex F.
    """
    if f.tau < 1:
        raise MalformedFormulaError("formula needs at least one clause")
    X = f.X
    lits = [lit for clause in f.clauses for lit in clause]
    positions = {}  # literal -> its indices 1..X, ascending
    for i, lit in enumerate(lits, start=1):
        positions.setdefault(lit, []).append(i)
    antithetic = {i: positions.get((var, not pol), []) for i, (var, pol) in enumerate(lits, start=1)}

    BLACK = 1
    legend = {BLACK: "B"}

    def fresh(label: str) -> int:
        """A new colour, the next id after the legend's last."""
        legend[len(legend) + 1] = label
        return len(legend)

    clausal = {i: fresh(f"clausal{i}_0") for i in range(1, X + 1)}
    gadget_col = {
        (i, fidx): fresh(f"gadget{i}_{fidx}")
        for i in range(1, X + 1)
        for fidx in range(1, len(antithetic[i]) + 1)
    }
    # antithetic lists are ascending and symmetric, so this runs in (i, j) order
    link_col = {
        (i, j): fresh(f"link{i}_{j}") for i in range(1, X + 1) for j in antithetic[i] if i < j
    }

    # P0: v, v', v_0..v_{4 tau}
    colours = [BLACK, BLACK]
    anchors = {"v": 1, "v'": 2}
    lit = 0
    for idx in range(0, 4 * f.tau + 1):
        if idx % 4 == 0:
            colours.append(fresh(f"sep{idx}"))
        else:
            lit += 1
            colours.append(clausal[lit])
        anchors[f"v_{idx}"] = len(colours)

    for i in range(1, X + 1):
        for fidx, j in enumerate(antithetic[i], start=1):
            # gadget w_{i, i_f} in path order A, P, M, N, L
            colours.append(fresh(f"A{i}_{j}"))
            anchors[f"w_{i}_{j}"] = len(colours)
            colours.append(gadget_col[(i, fidx)])
            colours.append(BLACK)
            colours.append(gadget_col[(i, fidx - 1)] if fidx > 1 else clausal[i])
            colours.append(link_col[(min(i, j), max(i, j))])

    colours.append(fresh("F"))
    anchors["F"] = len(colours)
    return _path_artifact(colours, legend, anchors, {"kind": "sat"})


def vc_to_path(g: SubcubicGraph) -> ReductionArtifact:
    """Subcubic vertex cover -> coloured path with 9n+3 vertices and
    m+n+1 colours, satisfying opt_VC(G) = gamma^t(path) - 1 - 3n.
    """
    n, m = g.n, len(g.edges)
    BLACK = 1
    # edge i (1-based, in sorted order) has colour 1 + i, vertex j colour 1 + m + j
    legend = {BLACK: "B"}
    legend.update((1 + i, f"E{i}") for i in range(1, m + 1))
    legend.update((1 + m + j, f"S{j}") for j in range(1, n + 1))
    slots = [[] for _ in range(n + 1)]  # slots[j]: colours of j's edges, ascending
    for colour, (u, v) in enumerate(sorted((min(u, v), max(u, v)) for u, v in g.edges), start=2):
        slots[u].append(colour)
        slots[v].append(colour)

    colours = [BLACK, BLACK, BLACK]  # V_0
    anchors = {"V_0": 1}
    for j in range(1, n + 1):
        a, b, c = slots[j] + [BLACK] * (3 - len(slots[j]))
        anchors[f"block_{j}"] = len(colours) + 1
        colours += [a, BLACK, b, BLACK, BLACK, c]
        anchors[f"V_{j}"] = len(colours) + 1
        colours += [BLACK, 1 + m + j, BLACK]
    return _path_artifact(colours, legend, anchors, {"kind": "vc", "n": n})


def extract_vc(art: ReductionArtifact, sigma) -> frozenset[int]:
    """Back-translate a tropical dominating set of the reduction path into a
    vertex cover of the source subcubic graph.

    Pushes the picks of every black triplet onto the blocks, then takes v_j
    whenever block j holds more than two picks: normalising such a block
    replaces its picks by its three edge slots.
    """
    if art.meta.get("kind") != "vc":
        raise WrongArtifactError("artifact was not produced by vc_to_path")
    g = art.path
    sigma = set(sigma)
    if not (gc.is_dominating(g, sigma) and gc.is_tropical(g, sigma)):
        raise NotTropicalDominatingError("sigma is not a tropical dominating set")
    n = art.meta["n"]

    # normalization step 1: push first/third picks of every black triplet
    # onto their block-side neighbours (they dominate more of the path there)
    pushed = set(sigma)
    triplets = [1] + [art.anchors[f"V_{j}"] for j in range(1, n + 1)]
    for j, first in enumerate(triplets):
        third = first + 2
        if first in pushed and j > 0:
            pushed.discard(first)
            pushed.add(first - 1)  # last slot of block j
        if third in pushed and j < n:
            pushed.discard(third)
            pushed.add(third + 1)  # first slot of block j+1

    # per 6-block: exactly two picks normalise to the two inner blacks and
    # leave v_j out; more than two normalise to the three edge slots, v_j in
    cover = set()
    for j in range(1, n + 1):
        base = art.anchors[f"block_{j}"]
        picked = sum(p in pushed for p in range(base, base + 6))
        assert picked >= 2, "a tropical dominating set places >= 2 picks per block"
        if picked > 2:
            cover.add(j)
    return frozenset(cover)


# pad_colours appends at most 2^_TAIL_BITS vertices: a 2^20-vertex tail took
# 1.7 s and 360 MiB on a 2-CPU Xeon, so 2^21 stays under 1 GiB
_TAIL_BITS = 21


def pad_colours(path: ColouredGraph, epsilon) -> ColouredGraph:
    """Append a tail of N = ceil((n+2)^(1/eps)) vertices with two fresh
    colours so the colour count drops below (n')^eps.

    Raises BadEpsilonError before building anything when N > 2^_TAIL_BITS.
    """
    order = path_order(path)
    if order is None:
        raise NotAPathError("input is not a simple path")
    if not 0 < epsilon <= 1:
        raise BadEpsilonError(f"need 0 < epsilon <= 1, got {epsilon}")
    n = path.n
    # ceil(x) > 2^k iff x > 2^k, so compare log2 x and compute no power
    bits = math.log2(n + 2) / epsilon
    if bits > _TAIL_BITS:
        raise BadEpsilonError(
            f"epsilon={epsilon} needs a tail of N = ceil({n + 2}^(1/epsilon)) ~ 2^{bits:.1f} "
            f"vertices, over the limit of 2^{_TAIL_BITS}"
        )
    N = int(np.ceil((n + 2) ** (1.0 / float(epsilon))))
    col_a = path.c + 1
    col_b = path.c + 2
    colours = list(path.colour) + [col_b] * N
    colours[n + 1] = col_a  # second tail vertex gets the fresh colour A
    tail = np.arange(n, n + N, dtype=np.int64)[:, None] + [0, 1]  # rows (n + i, n + i + 1)
    tail[0, 0] = order[-1]  # the first tail edge hangs off the path's last vertex
    return build(n + N, np.concatenate([path.edge_array, tail]), colours)
