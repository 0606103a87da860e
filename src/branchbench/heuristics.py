"""Variable and value ordering.

Variable choice is weighted-degree based: each constraint carries a weight
(starting at 1, bumped when it wipes a domain) and a variable's weighted
degree sums the weights of its constraints that still involve at least one
other unassigned variable.  The variable minimizing |domain| / wdeg is
selected, with zero wdeg treated as infinite ratio and ties broken toward the
smallest variable index.  Ratios are compared by cross multiplication, so the
ordering is exact.  Selection reads the weighted degrees that
``SearchState`` caches in ``wdeg``, kept exact by its ``assign``,
``unassign`` and ``bump_weight``, so it is one pass over the variables.

Value choice scores each current value, by its bit position in the domain
mask, with the product, over unassigned variables sharing at least one binary
constraint with the branching variable, of how many of their current values
are compatible with it under all those binary constraints together.  Higher
score first; equal scores order by ascending bit, which is ascending value
because original domains are sorted.  Scores are plain (unbounded) integers.
"""

from __future__ import annotations

from operator import itemgetter

from .model import SearchState


def select_variable(state: SearchState) -> int:
    """Unassigned variable minimizing |domain| / wdeg (exact comparison), or
    -1 when no unassigned domain holds two or more values: the solution test
    of a consistent state."""
    assigned = state.assigned
    masks = state.masks
    wdeg = state.wdeg
    best = -1
    best_d = best_w = 0
    for x in range(len(masks)):
        if assigned[x]:
            continue
        d = masks[x].bit_count()
        w = wdeg[x]
        if best < 0:
            best, best_d, best_w = x, d, w
            continue
        if w == 0:
            continue  # infinite ratio never improves
        if best_w == 0 or d * best_w < best_d * w:
            best, best_d, best_w = x, d, w
    # a best of two or more values settles it; a singleton's ratio can be
    # lowest beside wider domains, so only then are the masks read again
    if best_d < 2 and not any(m & (m - 1) for m, a in zip(masks, assigned) if not a):
        return -1
    return best


def score_domain(state: SearchState, x: int) -> list[tuple[int, int]]:
    """``(bit, score)`` for every current value of ``x``, best score first
    (ties: ascending bit)."""
    tables = state.tables
    assigned = state.assigned
    masks = state.masks

    bits = []
    m = masks[x]
    while m:
        b = m & -m
        bits.append(b.bit_length() - 1)
        m ^= b
    scores = [1] * len(bits)
    for y, comb in tables.neighbors[x]:
        if not assigned[y]:
            my = masks[y]
            for k, bit in enumerate(bits):
                scores[k] *= (comb[bit] & my).bit_count()
    # bits ascend, and a stable sort keeps that order among equal scores
    out = list(zip(bits, scores))
    out.sort(key=itemgetter(1), reverse=True)
    return out
