"""Approximation algorithms with certified lower bounds.

Each result carries a lower bound on the tropical domination number derived
from certified inequalities only, so measured ratios can be asserted without
re-solving exactly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from . import graph as gc
from .errors import NotAPathError, NotDominatingError
from .exact import _greedy_cover, _lower_bound
from .graph import ColouredGraph, path_order


@dataclass(frozen=True)
class ApproxResult:
    witness: frozenset[int]
    size: int
    lower_bound: int
    ratio_bound: Fraction | None


def harmonic(k: int) -> Fraction:
    """H(k) = 1 + 1/2 + ... + 1/k, summed over the common denominator lcm(1..k)."""
    lcm = math.lcm(*range(1, k + 1))
    return Fraction(sum(lcm // i for i in range(1, k + 1)), lcm)


def greedy_setcover_tds(g: ColouredGraph) -> ApproxResult:
    """Greedy set cover over U = V u C with sets F_v = N[v] u {c(v)}.

    The classical greedy guarantee gives the ratio H(max |F_v|) =
    H(Delta+2), read off the sets themselves. Ties are broken by smallest
    vertex id.
    """
    # element bits: vertex v -> bit v-1, colour k -> bit n+k-1
    target = (1 << (g.n + g.c)) - 1
    sets = [
        g.closed_mask[v - 1] | (1 << (g.n + g.colour[v - 1] - 1)) for v in g.vertices
    ]
    chosen = [i + 1 for i in _greedy_cover(sets, target)]
    return ApproxResult(
        witness=frozenset(chosen),
        size=len(chosen),
        lower_bound=_lower_bound(g),
        ratio_bound=harmonic(max(f.bit_count() for f in sets)),
    )


def mds_plus_colours(g: ColouredGraph, ds) -> ApproxResult:
    """Complete a dominating set with one lowest-id vertex per missing colour."""
    ds = set(ds)
    if not gc.is_dominating(g, ds):
        raise NotDominatingError("input set does not dominate the graph")
    out = gc.complete_colours(g, ds)
    return ApproxResult(
        witness=frozenset(out),
        size=len(out),
        lower_bound=_lower_bound(g),
        ratio_bound=None,
    )


def _path_bound(g: ColouredGraph) -> int:
    return max(-(-g.n // 3), g.c, -(-(g.n + 2 * g.c) // 5))


def path_lower_bound(g: ColouredGraph) -> int:
    """max(ceil(n/3), c, ceil((n+2c)/5)), valid on any coloured path."""
    if path_order(g) is None:
        raise NotAPathError("graph is not a simple path")
    return _path_bound(g)


def path_five_thirds(g: ColouredGraph) -> ApproxResult:
    """5/3-approximation of tropical domination on paths.

    Builds the three residue classes sigma_i = {v_j : j = i mod 3}. Each end
    pair (1, 2) and (n, n-1) that sigma_i misses gets one repair vertex: the
    end, unless its colour is already present and its neighbour's is missing,
    in which case the neighbour. When both ends need a repair, n = 2 mod 3
    and the end colours match, the front takes position 2 instead. Each
    class is then completed with the first vertex of every missing colour,
    and the smallest result is returned.
    """
    order = path_order(g)
    if order is None:
        raise NotAPathError("graph is not a simple path")
    n = g.n
    colour_at = [g.colour[v - 1] for v in order]  # by position
    first_pos: dict[int, int] = {}
    for p, k in enumerate(colour_at, 1):
        first_pos.setdefault(k, p)

    candidates = []
    for i in (1, 2, 3):
        s = set(range(i, n + 1, 3))
        present = {colour_at[p - 1] for p in s}
        front_swap = (
            n % 3 == 2 and colour_at[0] == colour_at[-1] and not s & {1, 2, n - 1, n}
        )
        for end, nbr in ((1, 2), (n, n - 1)):
            if not s & {end, nbr}:
                to_nbr = (end == 1 and front_swap) or (
                    colour_at[end - 1] in present and colour_at[nbr - 1] not in present
                )
                pick = nbr if to_nbr else end
                s.add(pick)
                present.add(colour_at[pick - 1])
        s.update(p for k, p in first_pos.items() if k not in present)
        candidates.append(s)

    best = min(candidates, key=len)
    witness = frozenset(order[p - 1] for p in best)
    assert gc.is_dominating(g, witness) and gc.is_tropical(g, witness)
    return ApproxResult(
        witness=witness,
        size=len(witness),
        lower_bound=_path_bound(g),
        ratio_bound=Fraction(5, 3),
    )
