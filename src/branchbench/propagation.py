"""Arc consistency: revise single arcs and run AC-3 style propagation.

An arc is a pair ``(constraint id, variable id)``; revising it deletes every
value of the variable lacking a supporting tuple in the constraint over the
current domains of the other scope variables.  The compiled tables number
the arcs in ascending ``(cid, var)`` order (arc ``i`` is
``(tables.arc_cid[i], tables.arc_var[i])``), and both ``revise`` and
``propagate`` work on those ids: a FIFO queue of ints with a ``bytearray``
in-queue flag for deduplication.  When a revision shrinks a domain, all arcs
of other constraints sharing that variable are re-enqueued.  A revision that
empties a domain bumps the weight of exactly that constraint by one and
stops propagation immediately.

A binary arc is revised inline from its per-arc tables: ``arc_sup`` maps
each value bit of the arc's variable to the mask of its partner supports,
and ``arc_opp`` maps each partner bit to the mask of the variable's
supports.  When the partner is a singleton, one AND with ``arc_opp`` at the
partner's bit is the whole revision; otherwise each current value is tested
against ``arc_sup``.  Every other arc (unary or n-ary, of any relation
kind) scans its compiled rows, one per satisfying tuple of the constraint:
a current value of the variable is kept once some row for it has every other
scope variable's bit in that variable's current domain.  The rows are built
once per problem, so a revision never calls ``check_tuple`` and costs at most
one pass over a table of at most ``model.MAX_TABLE_TUPLES`` rows for a
forbidden or intensional relation.  All removed values leave the domain as
one trail entry.

Most revisions remove nothing, and many of them are skipped unrevised.  A
binary arc's *slack* is the largest number of original partner values that
any target value conflicts with (1 for ``ne``; the partner's whole original
domain when some value has no support at all).  While the partner's current
domain is larger than the slack, every target value still has a support, so
the revision could remove nothing: ``propagate`` drops such an arc when it
pops it.  The test is made at pop time, never at push time, so the queue's
contents and order are exactly those of the plain AC-3 queue; the skipped
revisions are exactly ones that would have returned False, and which
revisions remove values, in what order, and which constraint takes a
wipeout's weight are all unchanged.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Iterable, Optional

# check_tuple is unused here but kept: perfbench/tracing.py patches propagation.check_tuple
from .model import SearchState, check_tuple  # noqa: F401


@dataclass(frozen=True)
class Wipeout:
    """A revision emptied ``variable``'s domain; ``constraint`` did it."""

    variable: int
    constraint: int


def revise(state: SearchState, a: int) -> bool:
    """Revise arc ``a``; True iff at least one value was removed."""
    tables = state.tables
    masks = state.masks
    x = tables.arc_var[a]
    m = masks[x]
    sup = tables.arc_sup[a]
    if sup is None:
        new = 0
        for b, others in tables.arc_rows[a]:
            if m & b and not new & b and all(masks[z] & c for z, c in others):
                new |= b
    else:
        p = tables.arc_partner[a]
        pm = masks[p]
        if state.sizes[p] == 1:
            # the partner's single bit indexes the opposite side's table
            new = m & tables.arc_opp[a][pm.bit_length() - 1]
        else:
            new = 0
            t = m
            while t:
                b = t & -t
                if sup[b.bit_length() - 1] & pm:
                    new |= b
                t ^= b
    if new == m:
        return False
    state._remove_mask(x, m ^ new)
    return True


def propagate(state: SearchState, arc_ids: Iterable[int]) -> Optional[Wipeout]:
    """Run the arc queue over ``arc_ids`` to fixpoint; None means consistent."""
    tables = state.tables
    arc_cid = tables.arc_cid
    arc_var = tables.arc_var
    partner = tables.arc_partner
    slack = tables.arc_slack
    follows = tables.decision_arcs
    sizes = state.sizes
    queue = deque(arc_ids)
    queued = bytearray(len(arc_cid))
    for a in queue:
        queued[a] = 1
    pop = queue.popleft
    push = queue.append
    while queue:
        a = pop()
        queued[a] = 0
        # a non-binary arc has partner -1 and a slack no size exceeds
        if sizes[partner[a]] > slack[a]:
            continue
        if revise(state, a):
            cid = arc_cid[a]
            x = arc_var[a]
            if sizes[x] == 0:
                state.weights[cid] += 1
                state.wipeouts += 1
                return Wipeout(x, cid)
            for f in follows[x]:
                if not queued[f] and arc_cid[f] != cid:
                    push(f)
                    queued[f] = 1
    return None


def establish_root_gac(state: SearchState) -> Optional[Wipeout]:
    """Propagate every arc of the problem once (root preprocessing)."""
    return propagate(state, state.tables.root_arcs)
