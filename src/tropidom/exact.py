"""Exact solvers: minimum dominating set, minimum tropical dominating set,
rainbow dominating set existence and counting.

One depth-first search over bitmasks serves all four. It looks for a tropical
dominating set of at most k vertices: ``gamma_t`` deepens k from a certified
lower bound to one below the greedy size, ``gamma`` is ``gamma_t`` of the
one-coloured copy, and ``rainbow_exists`` and ``count_rainbow_ds`` run it at
k = c, the latter counting the sets instead of stopping at the first. It
branches on the undominated vertex with the fewest candidates, in increasing
vertex id, so witnesses are deterministic. A node budget converts runaway
instances into BudgetExceededError instead of hangs.
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

    Lazy (Minoux's accelerated greedy): gains only fall as elements get
    covered, so a set's last counted gain bounds its current one. buckets[g]
    is the bitmask of the set indices last counted at gain g. The lowest index
    of the top bucket is recounted; if its gain still fills the bucket, no set
    gains more and no lower index gains as much, so it is the pick a full
    rescan makes. Otherwise it drops to the bucket of its new gain.
    """
    buckets = [0] * (max(map(int.bit_count, sets), default=0) + 1)
    bit = 1
    for s in sets:
        buckets[s.bit_count()] |= bit
        bit <<= 1
    top = len(buckets) - 1
    covered = 0
    free = ~covered  # the bits a gain counts
    chosen = []
    while covered != target:
        assert top, "set system fails to cover its universe"
        b = buckets[top]
        if not b:
            top -= 1
            continue
        low = b & -b
        buckets[top] = b ^ low
        i = low.bit_length() - 1
        gain = (sets[i] & free).bit_count()
        if gain == top:
            chosen.append(i)
            covered |= sets[i]
            free = ~covered
        else:
            buckets[gain] |= low
    return chosen


def greedy_dominating(g: ColouredGraph) -> list[int]:
    """Greedy max-coverage dominating set; tie-break smallest vertex id."""
    return [i + 1 for i in _greedy_cover(g.closed_mask, g.full_mask)]


def _lower_bound(g: ColouredGraph) -> int:
    """max(c, ceil(n / max|N[v]|)): both certified lower bounds on gamma_t."""
    max_cover = max(m.bit_count() for m in g.closed_mask)
    return max(g.c, -(-g.n // max_cover))


def _dfs(g: ColouredGraph, k: int, counter: _Counter, count: bool):
    """Search the tropical dominating sets of at most k vertices.

    Returns the first set found as a vertex list, or None; with ``count`` set
    (and k = c) returns how many rainbow dominating sets there are instead.

    Singleton colour classes are committed up front. A node prunes when its
    remaining picks times max|N[v]| fall short of the undominated vertices. A
    node is tight when its remaining picks equal its missing colours: it may
    take only vertices of unused colours, and prunes unless the unused colour
    classes can still cover every undominated vertex. With one pick left the
    node closes at once on the vertices that dominate every undominated one.
    Otherwise it branches on the first undominated vertex with the fewest
    candidates, in increasing id, and bars each tried vertex from its later
    siblings, so every set is reached at most once and the count is exact.
    """
    full = g.full_mask
    closed = g.closed_mask
    colour_mask = g.colour_mask
    # per vertex: the bit of its colour and the mask of its colour class
    colour_bit = [1 << (k - 1) for k in g.colour]
    colour_class = [colour_mask[k - 1] for k in g.colour]
    max_cover = max(m.bit_count() for m in closed)
    class_cover = [0] * g.c
    for c, m in enumerate(colour_mask):
        for i in _iter_bits(m):
            class_cover[c] |= closed[i]
    fail = 0 if count else None

    # allowed: vertices not barred, narrowed to fresh at tight nodes;
    # fresh: allowed vertices of unused colours. The bit loops below take
    # low = x & -x inline: a generator costs more than the work per bit.
    def dfs(
        unused: int, covered: int, allowed: int, fresh: int, chosen: list[int], remaining: int
    ):
        counter.tick()
        if covered == full:
            if not count:
                return complete_colours(g, chosen)
            ways = 1
            while unused:
                low = unused & -unused
                ways *= (colour_mask[low.bit_length() - 1] & fresh).bit_count()
                unused ^= low
            return ways
        undominated = full & ~covered
        if remaining * max_cover < undominated.bit_count():
            return fail
        if remaining == unused.bit_count():
            allowed = fresh
            if remaining > 1:  # with one pick left the closure below is exact
                reach, x = covered, unused
                while x:
                    low = x & -x
                    reach |= class_cover[low.bit_length() - 1]
                    x ^= low
                if reach != full:
                    return fail
        if remaining == 1:
            # the allowed vertices that dominate every undominated vertex
            cand, x = allowed, undominated
            while x and cand:
                low = x & -x
                cand &= closed[low.bit_length() - 1]
                x ^= low
            if count:
                return cand.bit_count()
            return chosen + [(cand & -cand).bit_length()] if cand else None
        best, best_size, x = 0, g.n + 1, undominated
        while x:
            low = x & -x
            cand = closed[low.bit_length() - 1] & allowed
            size = cand.bit_count()
            if size < best_size:
                best, best_size = cand, size
                if size <= 1:
                    break
            x ^= low
        total = fail
        while best:
            low = best & -best
            u = low.bit_length() - 1
            res = dfs(
                unused & ~colour_bit[u], covered | closed[u], allowed, fresh & ~colour_class[u],
                chosen + [u + 1], remaining - 1,
            )
            if count:
                total += res
            elif res is not None:
                return res
            allowed &= ~low
            fresh &= ~low
            best ^= low
        return total

    unused, covered, fresh, chosen = (1 << g.c) - 1, 0, full, []
    for c, m in enumerate(colour_mask):
        if m & (m - 1) == 0:
            chosen.append(m.bit_length())
            unused &= ~(1 << c)
            covered |= closed[m.bit_length() - 1]
            fresh &= ~m
    return dfs(unused, covered, full, fresh, chosen, k - len(chosen))


def _solve(g: ColouredGraph, budget: int) -> SolveResult:
    counter = _Counter(budget)
    best = sorted(complete_colours(g, greedy_dominating(g)))
    for k in range(_lower_bound(g), len(best)):
        found = _dfs(g, k, counter, count=False)
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


def rainbow_exists(g: ColouredGraph, budget: int = DEFAULT_BUDGET) -> RainbowResult:
    """Decide whether a rainbow dominating set exists.

    Returns (exists, witness_or_None, explored), where explored counts the
    search nodes.
    """
    counter = _Counter(budget)
    witness = _dfs(g, g.c, counter, count=False)
    if witness is None:
        return RainbowResult(False, None, counter.nodes)
    return RainbowResult(True, frozenset(witness), counter.nodes)


def count_rainbow_ds(g: ColouredGraph, budget: int = DEFAULT_BUDGET) -> int:
    """Exact number of rainbow dominating sets (the realization of X_c)."""
    return _dfs(g, g.c, _Counter(budget), count=True)
