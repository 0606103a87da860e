"""Arc consistency: revise single arcs and propagate with a variable queue.

An arc is a pair ``(constraint id, variable id)``; revising it deletes every
value of the variable lacking a supporting tuple in the constraint over the
current domains of the other scope variables.  The compiled tables number
the arcs in ascending ``(cid, var)`` order (arc ``i`` is
``(tables.arc_cid[i], tables.arc_var[i])``), and both ``revise`` and
``propagate`` work on those ids.  The FIFO queue of ``propagate`` holds
variables whose domains shrank, each at most once, as in variable-oriented
AC-3 (McGregor 1979; Boussemart, Hemery, Lecoutre & Sais 2004).  Only root
GAC walks an arc list, every arc in ascending order; it is what revises
unary constraints, which no variable's walk lists.  A decision on ``x``
queues ``x``.  Popping ``x`` revises, in ascending order, the arcs of the
constraints on ``x`` at their other scope variables that could remove a
value (see below).  A revision by constraint ``c`` that shrinks ``y``
queues ``y`` with ``c`` excluded from its walk; if another constraint
shrinks ``y`` before it is popped, nothing is excluded.  The exclusion is
sound: a value that ``c`` removed had no support in ``c``, so it supported
no value of another scope variable there, and ``c``'s other arcs would
remove nothing more for its loss.  A revision that empties a domain bumps
the weight of exactly that constraint by one and stops propagation
immediately: :func:`propagate` returns False, and True at a fixpoint.
Propagation counts nothing; search counts the wipeouts.

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
the revision could remove nothing.  The root walk leaves such arcs
unrevised.  The walk of ``x`` lists binary arcs whose partner is ``x``, and
none of its arcs revises ``x``, so ``x`` keeps its size while it is walked.
So the walk reads ``tables.walk[x][sizes[x]]``: the arcs of the constraints
on ``x`` whose slack that size does not exceed, in ascending order.  A
non-binary arc is always listed.

Of the arcs a walk lists, the binary ones of a singleton's walk are decided
with one AND.  When the walked variable ``y`` has a single value, of bit
``b``, the walk skips a binary arc ``a`` when ``m & arc_opp[a][b] == m``,
``m`` being the mask of the arc's variable.  This is exact: every arc of
``walk[y]`` has ``y`` as its partner, so ``arc_opp[a][b]`` is the very mask
that ``revise`` ANDs with ``m`` for a singleton partner.  ``revise`` is
thus called only for a revision that removes a value or that one AND cannot
decide (a non-binary arc, the walk of a variable with more values, or the
root's first pass), and it stays the one path by which propagation removes
values.
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
    """Run the variable queue to fixpoint after a change to ``x``'s domain;
    True means consistent, False a wipeout, whose constraint has had its
    weight bumped.  With ``x`` left as None (root GAC), revise every arc.

    The first pass is a decision's walk of ``x`` with no constraint
    excluded, or at the root every arc in ascending order, binary arcs whose
    partner is larger than their slack left out.  A revision by ``cid`` that shrinks
    ``y`` queues ``y``, unless it is queued already, and records ``cid`` as
    its excluded constraint, or -1 when another constraint queued it too.
    Popping ``y`` revises ``walk[y][sizes[y]]``, the arcs at its neighbours
    that the slack test keeps, except those of the excluded constraint; when
    ``y`` (or the decision's ``x``) has one value, a binary arc is revised
    only if one AND with its supports shows a removal.
    """
    tables = state.tables
    arc_cid = tables.arc_cid
    arc_var = tables.arc_var
    arc_opp = tables.arc_opp
    walk = tables.walk
    masks = state.masks
    sizes = state.sizes
    if x is None:
        partner = tables.arc_partner
        slack = tables.arc_slack
        # a non-binary arc has partner -1 and a slack no size exceeds; the
        # test reads each partner's size as the pass reaches its arc
        arcs = (a for a in range(len(arc_cid)) if sizes[partner[a]] <= slack[a])
        bit = -1
    else:
        arcs = walk[x][sizes[x]]
        bit = masks[x].bit_length() - 1 if sizes[x] == 1 else -1
    skip = -1
    # queued[y]: the constraint excluded at y's walk, or -1 for none
    queued: dict = {}
    queue = deque()
    pop = queue.popleft
    while True:
        for a in arcs:
            cid = arc_cid[a]
            if cid == skip:
                continue
            if bit >= 0 and arc_opp[a] is not None:
                # the walked variable is this arc's singleton partner
                m = masks[arc_var[a]]
                if m & arc_opp[a][bit] == m:
                    continue
            if not revise(state, a):
                continue
            z = arc_var[a]
            if sizes[z] == 0:
                state.bump_weight(cid)
                return False
            if z not in queued:
                queued[z] = cid
                queue.append(z)
            elif queued[z] != cid:
                queued[z] = -1
        if not queue:
            return True
        y = pop()
        skip = queued.pop(y)
        # no arc of the walk revises y, so its size holds through the walk
        arcs = walk[y][sizes[y]]
        bit = masks[y].bit_length() - 1 if sizes[y] == 1 else -1


def establish_root_gac(state: SearchState) -> bool:
    """Propagate every arc of the problem once (root preprocessing); False at
    a wipeout."""
    return propagate(state)
