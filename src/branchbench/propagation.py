"""Arc consistency: revise single arcs and run AC-3 style propagation.

An arc is a pair ``(constraint id, variable id)``; revising it deletes every
value of the variable lacking a supporting tuple in the constraint over the
current domains of the other scope variables.  The compiled tables number
the arcs in ascending ``(cid, var)`` order (arc ``i`` is
``(tables.arc_cid[i], tables.arc_var[i])``), and both ``revise`` and
``propagate`` work on those ids.  The FIFO queue of ``propagate`` holds
domain-change events, not arcs.  A decision on ``x`` is one event on ``x``
that excludes no constraint; only root GAC walks an arc list, every arc in
ascending order.  A revision by constraint ``c`` that shrinks ``x`` queues
one event that carries ``x``, with ``c`` excluded.  Walking an event on
``x`` visits, in ascending order, the arcs of the constraints on ``x`` at
their other scope variables that could remove a value (see below).  An arc
is popped and revised at the first event that lists it and was queued after
its last pop; the pop ticks kept on the state tell which events those are
(ticks keep growing across calls, so every stamp is at most the tick at
which a call starts, and a decision's event carries that tick).  That
is where the plain AC-3 queue of arcs, which enqueues an arc unless it is
already queued, pops it, so both revise the same arcs in the same order, at
one queue operation per domain change instead of one per arc.  A revision
that empties a domain bumps the weight of exactly that constraint by one and
stops propagation immediately: :func:`propagate` returns False, and True at a
fixpoint.  Propagation counts nothing; search counts the wipeouts.

A binary arc is revised a whole domain at once from its per-arc tables:
``arc_opp`` maps each partner bit to the mask of the variable's values it
supports, so the values to keep are the variable's domain ANDed with the
union of ``arc_opp`` over the partner's current domain.  When the partner
is a singleton, that union is one ``arc_opp`` entry; otherwise it is read
from ``arc_cover``, one lookup per ``model.CHUNK_BITS`` bits of the
partner's mask, each table entry holding the union over one subset of that
chunk (the word-level revision of AC3bit, Lecoutre & Vion 2008, and the
union of supports of Compact-Table, Demeulenaere et al. 2016).  A value is
in the union exactly when some current partner value supports it, so the
result is that of testing each value.  Every other arc (unary or n-ary, of
any relation kind) scans its compiled rows, one per satisfying tuple of the
constraint, grouped by the variable's value: a current value is kept at the
first of its rows that has every other scope variable's bit in that
variable's current domain, and its other rows are not read.  The rows are
built once per problem, so a revision never calls ``check_tuple`` and costs
at most one pass over a table of at most ``model.MAX_TABLE_TUPLES`` rows
for a forbidden or intensional relation.  All removed values leave the
domain as one trail entry.

Most revisions remove nothing, and many of them are never made.  A binary
arc's *slack* is the largest number of original partner values that any
target value conflicts with (1 for ``ne``; the partner's whole original
domain when some value has no support at all).  While the partner's current
domain is larger than the slack, every target value still has a support, so
the revision could remove nothing.  The root walk pops and stamps every
arc, and drops the ones with such a partner unrevised.  An event on ``x``
lists binary arcs whose partner is ``x``, and none of its arcs revises
``x``, so ``x`` keeps its size while the event is walked.  So the walk reads
``tables.walk[x][sizes[x]]``: the arcs an event on ``x`` lists whose slack
that size does not exceed, in the same order.  A non-binary arc is always
listed.

The plain queue pops the arcs left out too, and a pop decides whether a
later event revises the arc, so those pops are replayed rather than
stamped.  This is exact because after the root walk, only events on ``x``
list a binary arc with partner ``x``; because whether an arc is
popped at a walk does not depend on its slack; and because sizes only fall
within a call, so an arc is left out of a prefix of the walks on ``x`` and
listed in the rest.  Each walk on ``x`` keeps a record ``(since, tick,
excluded cid)``.  An arc listed again replays the records of the earlier
walks on ``x`` onto its stamp before the usual test.  The revisions made,
which of them remove values, in what order, and which constraint takes a
wipeout's weight are all those of the plain AC-3 queue.
"""

from __future__ import annotations

from collections import deque
from typing import Optional

# check_tuple is unused here but kept: perfbench/tracing.py patches propagation.check_tuple
from .model import CHUNK_BITS, SearchState, check_tuple  # noqa: F401

_CHUNK_MASK = (1 << CHUNK_BITS) - 1


def revise(state: SearchState, a: int) -> bool:
    """Revise arc ``a``; True iff at least one value was removed."""
    tables = state.tables
    masks = state.masks
    x = tables.arc_var[a]
    m = masks[x]
    cover = tables.arc_cover[a]
    if cover is None:
        new = 0
        for b, rows in tables.arc_rows[a]:
            if m & b:
                for others in rows:
                    for z, c in others:
                        if not masks[z] & c:
                            break
                    else:
                        new |= b
                        break
    else:
        p = tables.arc_partner[a]
        pm = masks[p]
        if state.sizes[p] == 1:
            # the partner's single bit indexes its supports
            new = m & tables.arc_opp[a][pm.bit_length() - 1]
        else:
            # the union of the supports of every partner value, a chunk at a time
            new = 0
            for union in cover:
                new |= union[pm & _CHUNK_MASK]
                pm >>= CHUNK_BITS
            new &= m
    if new == m:
        return False
    state._remove_mask(x, m ^ new)
    return True


def propagate(state: SearchState, x: Optional[int] = None) -> bool:
    """Run the AC-3 queue to fixpoint after a change to ``x``'s domain; True
    means consistent, False a wipeout, whose constraint has had its weight
    bumped.  With ``x`` left as None (root GAC), walk every arc.

    A decision on ``x`` is the one queued event ``(start, -1, x)``, ``start``
    being the state's tick when the call begins; the root walks every arc in
    ascending order, each popped and stamped.  A revision by ``cid`` that
    shrinks ``y`` then queues the event ``(tick, cid, y)``, whose walk reads
    only ``walk[y][sizes[y]]``, the arcs the slack test keeps.  An arc is
    revised at the first event that lists it and was queued after its last
    pop, which is where the plain arc queue would pop it, so the revisions
    and their order are those of that queue.  The pops of the arcs left out
    are not stamped; replaying the records of the earlier walks on ``y``
    restores them when an arc is listed again.
    """
    tables = state.tables
    arc_cid = tables.arc_cid
    arc_var = tables.arc_var
    walk = tables.walk
    sizes = state.sizes
    # seen[a] is the tick of a's last pop; a tick counts pops and walks, and
    # keeps growing across calls, so every stamp is at most the call's start
    seen = state.stamps
    tick = state.tick
    queue = deque()
    push = queue.append
    if x is not None:
        push((tick, -1, x))
    else:
        partner = tables.arc_partner
        slack = tables.arc_slack
        for a in range(len(arc_cid)):
            tick += 1
            seen[a] = tick
            # a non-binary arc has partner -1 and a slack no size exceeds
            if sizes[partner[a]] > slack[a]:
                continue
            if revise(state, a):
                cid = arc_cid[a]
                y = arc_var[a]
                if sizes[y] == 0:
                    state.tick = tick
                    state.bump_weight(cid)
                    return False
                push((tick, cid, y))
    # records[y]: (since, tick, excluded cid) of each earlier walk on y
    records: dict = {}
    pop = queue.popleft
    while queue:
        since, skip, y = pop()
        tick += 1
        record = (since, tick, skip)
        done = records.setdefault(y, [])
        last = done[-1][1] if done else 0
        # an arc left out of an earlier walk on y was popped there iff its
        # constraint was not excluded and it had not been popped since that
        # walk's event was queued: replay onto stamps older than the last walk
        for a in walk[y][sizes[y]]:
            cid = arc_cid[a]
            if cid == skip:
                continue
            t = seen[a]
            if t < last:
                for r_since, r_tick, r_skip in done:
                    if t <= r_since and r_skip != cid:
                        t = r_tick
                seen[a] = t
            if t > since:
                continue
            tick += 1
            seen[a] = tick
            if revise(state, a):
                z = arc_var[a]
                if sizes[z] == 0:
                    state.tick = tick
                    state.bump_weight(cid)
                    return False
                push((tick, cid, z))
        done.append(record)
    state.tick = tick
    return True


def establish_root_gac(state: SearchState) -> bool:
    """Propagate every arc of the problem once (root preprocessing); False at
    a wipeout."""
    return propagate(state)
