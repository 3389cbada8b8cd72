"""Exact solvers: minimum dominating set, minimum tropical dominating set,
rainbow dominating set existence and counting.

``gamma`` and ``gamma_t`` are iterative deepening on the solution size,
branching on the lowest-indexed undominated vertex over its closed
neighbourhood in increasing vertex id. The rainbow search takes one vertex per
colour and branches on the undominated vertex with the fewest candidates, in
increasing vertex id; one depth-first search serves both existence and
counting. Every branching order is fixed, which makes witnesses deterministic.
A node budget converts runaway instances into BudgetExceededError instead of
hangs.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

from .errors import BudgetExceededError
from .graph import ColouredGraph, _iter_bits, complete_colours

DEFAULT_BUDGET = 10**8


@dataclass(frozen=True)
class SolveResult:
    value: int
    witness: frozenset[int]
    explored: int


class RainbowResult(NamedTuple):
    exists: bool
    witness: frozenset[int] | None
    explored: int


class _Counter:
    __slots__ = ("nodes", "budget")

    def __init__(self, budget):
        self.nodes = 0
        self.budget = budget

    def tick(self):
        self.nodes += 1
        if self.nodes > self.budget:
            raise BudgetExceededError(f"node budget {self.budget} exhausted")


def _greedy_cover(sets, target: int) -> list[int]:
    """Greedy max-coverage of the bitmask target by the bitmask sets.

    Returns the indices of the chosen sets; ties go to the smallest index.
    Shared by greedy_dominating and approx.greedy_setcover_tds.
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


def greedy_dominating(g: ColouredGraph) -> list[int]:
    """Greedy max-coverage dominating set; tie-break smallest vertex id."""
    return [i + 1 for i in _greedy_cover(g.closed_mask, g.full_mask)]


def _dominator_intersection(g: ColouredGraph, undominated: int) -> int:
    """Bitmask of vertices that dominate every undominated vertex."""
    cand = g.full_mask
    for i in _iter_bits(undominated):
        cand &= g.closed_mask[i]
        if not cand:
            break
    return cand


def _lower_bound(g: ColouredGraph) -> int:
    """max(c, ceil(n / max|N[v]|)): both certified lower bounds on gamma_t."""
    max_cover = max(m.bit_count() for m in g.closed_mask)
    return max(g.c, -(-g.n // max_cover))


def _search(g: ColouredGraph, k: int, counter: _Counter):
    """Depth-first search for a tropical dominating set of size <= k.

    Returns the witness as a vertex list or None. Completeness: any target set
    must hit the closed neighbourhood of the lowest undominated vertex, and
    once domination is achieved the missing colours are filled greedily.
    """
    closed = g.closed_mask
    full = g.full_mask
    all_colours = (1 << g.c) - 1
    max_cover = max(m.bit_count() for m in closed)

    def dfs(covered: int, colours: int, chosen: list[int]):
        counter.tick()
        remaining = k - len(chosen)
        missing = g.c - colours.bit_count()
        if covered == full:
            if missing <= remaining:
                return complete_colours(g, chosen)
            return None
        if remaining == 0:
            return None
        undominated = full & ~covered
        if remaining * max_cover < undominated.bit_count() or remaining < missing:
            return None
        if remaining == 1:
            cand = _dominator_intersection(g, undominated)
            if missing == 1:
                cand &= g.colour_mask[(all_colours & ~colours).bit_length() - 1]
            if cand:
                v = (cand & -cand).bit_length()
                return complete_colours(g, chosen + [v])
            return None
        low = undominated & -undominated
        for i in _iter_bits(closed[low.bit_length() - 1]):
            chosen.append(i + 1)
            res = dfs(covered | closed[i], colours | (1 << (g.colour[i] - 1)), chosen)
            chosen.pop()
            if res is not None:
                return res
        return None

    return dfs(0, 0, [])


def _solve(g: ColouredGraph, budget: int) -> SolveResult:
    counter = _Counter(budget)
    best = sorted(complete_colours(g, greedy_dominating(g)))
    for k in range(_lower_bound(g), len(best)):
        found = _search(g, k, counter)
        if found is not None:
            best = found
            break
    return SolveResult(value=len(best), witness=frozenset(best), explored=counter.nodes)


def gamma(g: ColouredGraph, budget: int = DEFAULT_BUDGET) -> SolveResult:
    """Minimum dominating set, as gamma_t of the one-coloured copy of g."""
    return _solve(g.one_coloured(), budget)


def gamma_t(g: ColouredGraph, budget: int = DEFAULT_BUDGET) -> SolveResult:
    """Minimum tropical dominating set."""
    return _solve(g, budget)


def _rainbow_dfs(g: ColouredGraph, counter: _Counter, first: bool):
    """Search the sets that take one vertex per colour and dominate g.

    With ``first`` set, returns the first such set found as a vertex list, or
    None. Otherwise returns how many there are.

    Singleton colour classes are committed up front. A node then prunes
    unless the unused colour classes can still cover every undominated
    vertex, closes the last unused colour at once by intersecting the
    dominators of the undominated vertices, and otherwise branches on the
    first undominated vertex with the fewest candidates (allowed vertices of
    unused colours in its closed neighbourhood), in increasing id. After each
    branch its vertex is disallowed for the later siblings, so every rainbow
    set is reached exactly once and the count is exact.
    """
    full = g.full_mask
    closed = g.closed_mask
    colour_mask = g.colour_mask
    all_colours = (1 << g.c) - 1
    class_cover = [0] * g.c
    for k, m in enumerate(colour_mask):
        for i in _iter_bits(m):
            class_cover[k] |= closed[i]
    fail = None if first else 0

    # avail: allowed vertices of unused colours
    def dfs(used: int, covered: int, avail: int, chosen: list[int]):
        counter.tick()
        unused = all_colours & ~used
        if covered == full:
            if first:
                return complete_colours(g, chosen)
            ways = 1
            for k in _iter_bits(unused):
                ways *= (colour_mask[k] & avail).bit_count()
            return ways
        reach = covered
        for k in _iter_bits(unused):
            reach |= class_cover[k]
        if reach != full:
            return fail
        undominated = full & ~covered
        if unused & (unused - 1) == 0:
            cand = avail & _dominator_intersection(g, undominated)
            if first:
                return chosen + [(cand & -cand).bit_length()] if cand else None
            return cand.bit_count()
        best, best_size = 0, g.n + 1
        for i in _iter_bits(undominated):
            cand = closed[i] & avail
            size = cand.bit_count()
            if size < best_size:
                best, best_size = cand, size
                if size <= 1:
                    break
        total = fail
        for u in _iter_bits(best):
            k = g.colour[u] - 1
            res = dfs(
                used | 1 << k, covered | closed[u], avail & ~colour_mask[k], chosen + [u + 1]
            )
            if not first:
                total += res
            elif res is not None:
                return res
            avail &= ~(1 << u)
        return total

    used, covered, avail, chosen = 0, 0, full, []
    for k, m in enumerate(colour_mask):
        if m & (m - 1) == 0:
            chosen.append(m.bit_length())
            used |= 1 << k
            covered |= closed[m.bit_length() - 1]
            avail &= ~m
    return dfs(used, covered, avail, chosen)


def rainbow_exists(g: ColouredGraph, budget: int = DEFAULT_BUDGET) -> RainbowResult:
    """Decide whether a rainbow dominating set exists.

    Returns (exists, witness_or_None, explored), where explored counts the
    search nodes.
    """
    counter = _Counter(budget)
    witness = _rainbow_dfs(g, counter, first=True)
    if witness is None:
        return RainbowResult(False, None, counter.nodes)
    return RainbowResult(True, frozenset(witness), counter.nodes)


def count_rainbow_ds(g: ColouredGraph, budget: int = DEFAULT_BUDGET) -> int:
    """Exact number of rainbow dominating sets (the realization of X_c)."""
    return _rainbow_dfs(g, _Counter(budget), first=False)
