"""Approximation algorithms with certified lower bounds.

Each result carries a lower bound on the tropical domination number derived
from certified inequalities only, so measured ratios can be asserted without
re-solving exactly.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass
from fractions import Fraction

from . import graph as gc
from .errors import NotAPathError, NotDominatingError
from .exact import _greedy_cover, _lower_bound
from .graph import ColouredGraph, degree_profile, path_order

log = logging.getLogger(__name__)


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

    Since |F_v| <= Delta+2, the classical greedy guarantee gives the ratio
    H(Delta+2). Ties are broken by smallest vertex id.
    """
    # element bits: vertex v -> bit v-1, colour k -> bit n+k-1
    target = (1 << (g.n + g.c)) - 1
    sets = [
        g.closed_mask[v - 1] | (1 << (g.n + g.colour[v - 1] - 1)) for v in g.vertices
    ]
    chosen = [i + 1 for i in _greedy_cover(sets, target)]
    big_delta = degree_profile(g).big_delta
    return ApproxResult(
        witness=frozenset(chosen),
        size=len(chosen),
        lower_bound=_lower_bound(g),
        ratio_bound=harmonic(big_delta + 2),
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


def path_lower_bound(g: ColouredGraph) -> int:
    """max(ceil(n/3), c, ceil((n+2c)/5)), valid on any coloured path."""
    if path_order(g) is None:
        raise NotAPathError("graph is not a simple path")
    return max(-(-g.n // 3), g.c, -(-(g.n + 2 * g.c) // 5))


def path_five_thirds(g: ColouredGraph) -> ApproxResult:
    """5/3-approximation of tropical domination on paths.

    Builds the three residue classes sigma_i = {v_j : j = i mod 3}, completes
    each with one vertex per missing colour, repairing domination of the path
    ends with endpoint representatives, and returns the smallest result.
    """
    order = path_order(g)
    if order is None:
        raise NotAPathError("graph is not a simple path")
    n, c = g.n, g.c
    colour_at = [g.colour[order[p - 1] - 1] for p in range(1, n + 1)]  # by position
    first_pos: dict[int, int] = {}
    for p in range(1, n + 1):
        first_pos.setdefault(colour_at[p - 1], p)

    candidates = []
    total_completion = 0
    for i in (1, 2, 3):
        sigma = set(range(i, n + 1, 3))
        missing = set(range(1, c + 1)) - {colour_at[p - 1] for p in sigma}
        extra: set[int] = set()

        front_needed = not sigma & {1, 2}
        back_needed = n >= 2 and not sigma & {n - 1, n}
        special = (
            front_needed
            and back_needed
            and n % 3 == 2
            and colour_at[0] == colour_at[n - 1]
        )
        if front_needed:
            if special:
                pick = 2
            elif colour_at[0] in missing:
                pick = 1
            elif n >= 2 and colour_at[1] in missing:
                pick = 2
            else:
                pick = 1
            extra.add(pick)
            missing.discard(colour_at[pick - 1])
        if back_needed and not extra & {n - 1, n}:
            if colour_at[n - 1] in missing:
                pick = n
            elif colour_at[n - 2] in missing:
                pick = n - 1
            else:
                pick = n
            extra.add(pick)
            missing.discard(colour_at[pick - 1])
        # each pick removed its own colour, so no first position is in extra
        extra.update(first_pos[k] for k in missing)
        s_i = sigma | extra
        total_completion += len(extra)
        candidates.append(s_i)

    if total_completion > 2 * c:
        log.warning(
            "path repair used %d completion vertices (> 2c = %d) on n=%d c=%d",
            total_completion,
            2 * c,
            n,
            c,
        )
    best = min(candidates, key=len)
    witness = frozenset(order[p - 1] for p in best)
    assert gc.is_dominating(g, witness) and gc.is_tropical(g, witness)
    return ApproxResult(
        witness=witness,
        size=len(witness),
        lower_bound=path_lower_bound(g),
        ratio_bound=Fraction(5, 3),
    )
