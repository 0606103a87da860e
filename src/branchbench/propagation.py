"""Arc consistency: revise single arcs and propagate with a variable queue.

An arc is a constraint at one of its scope variables, held by the compiled
tables as one entry (its format is stated in ``model._Tables``); revising it
deletes every value of the variable lacking a supporting tuple in the
constraint over the current domains of the other scope variables.  The FIFO
queue of ``propagate`` holds variables whose domains shrank, each at most
once, as in variable-oriented AC-3 (McGregor 1979; Boussemart, Hemery,
Lecoutre & Sais 2004).  Root GAC and every decision run the same queue.
A unary constraint is compiled into the root domains that a state starts
from, so the root queues every variable once no domain is empty; a decision
on ``x`` queues ``x``.  Popping ``x`` revises, in ascending ``(cid, var)``
order, the arcs of the constraints on ``x`` at their other scope variables
that could remove a value (see below).  A revision by constraint
``c`` that shrinks ``y`` queues ``y`` with ``c`` excluded from its walk; if
another constraint shrinks ``y`` before it is popped, nothing is excluded.
The exclusion is sound: a value that ``c`` removed had no support in
``c``, so it supported no value of another scope variable there, and
``c``'s other arcs would remove nothing more for its loss.  A revision that
empties a domain bumps the weight of exactly that constraint by one and
stops propagation immediately: :func:`propagate` returns False, and True at
a fixpoint.  Propagation counts nothing; search counts the wipeouts.

A binary arc is revised a whole domain at once from its entry's one table,
whose entries hold, per subset of one ``model.CHUNK_BITS``-bit chunk of the
partner's domain, the values that no partner value of the subset supports:
:func:`revise` ANDs one lookup per chunk of the partner's mask and removes
what is left.  These are the unions of supports of the word-level revision
of AC3bit (Lecoutre & Vion 2008) and of Compact-Table (Demeulenaere et al.
2016), stored complemented (De Morgan) so that the singleton rows below read
the same table.  A value is removed exactly when no current partner value
supports it, so the result is that of testing each value.  Every other arc
(n-ary, of any relation kind) scans its compiled rows, one per satisfying
tuple of the constraint, grouped by the variable's value: a current value is
kept at the first of its rows that has every other scope variable's bit in
that variable's current domain, and its other rows are not read.  The rows
are built once per problem, so a revision never calls ``check_tuple`` and
costs at most one pass over a table of at most ``model.MAX_TABLE_TUPLES``
rows for a forbidden or intensional relation.  All removed values leave the
domain in one store of its mask.

Most revisions remove nothing, and many of them are never made.  A binary
arc's *slack* is the largest number of original partner values that any
target value conflicts with (1 for ``ne``; the partner's whole original
domain when some value has no support at all).  While the partner's current
domain is larger than the slack, every target value still has a support, so
the revision could remove nothing.  The walk of ``x`` lists binary arcs
whose partner is ``x``, and none of its arcs revises ``x``, so ``x`` keeps
its size while it is walked.  So the walk reads
``tables.walk[x][masks[x].bit_count()]``, the size taken from ``x``'s mask:
the entries of the arcs of the constraints on ``x`` whose slack that size
does not exceed, in ascending ``(cid, var)`` order.  A non-binary arc is
always listed.

The walk of a singleton revises its binary arcs itself, with one AND, in a
loop of its own over a per-value row.  When the walked variable ``y`` has a
single value, of bit ``b``, the values of a binary arc's variable to remove
are ``m & nsup``, ``m`` being that variable's mask and ``nsup`` the values
that ``b`` does not support, which is the entry of the subset ``{b}`` in the
arc's table: every arc of ``walk[y]`` has ``y`` as its partner.
``tables.row(y, b)`` lists the entries of ``walk[y][1]`` in the same order
as ``(z, nsup, entry)``, ``nsup`` being read from a binary entry's table and
-1 for any other.  The loop ANDs ``z``'s mask with ``nsup`` first, before
the entry's kind and exclusion are tested, and an entry whose AND is empty
could remove nothing and stops there: most entries do.  Only the rest read
the entry: a binary one past the exclusion test stores ``m & ~nsup`` itself,
with no :func:`revise` call, and any other one (its ``nsup`` of -1 always
goes on) is sent to :func:`revise`.  The walk of a variable with more values
is a second loop, which sends every arc to :func:`revise`.  So
:func:`revise` runs only for an arc that one AND cannot decide (a non-binary
arc, or the walk of a variable with more values), and the singleton loop
reads an entry's kind only when its AND leaves values to remove.  Neither
records a removal: the level that search opened before its branch holds a
copy of every mask, and restores them all.
"""

from __future__ import annotations

from collections import deque
from typing import Optional

# check_tuple is unused here but kept: perfbench/tracing.py patches propagation.check_tuple
from .model import CHUNK_BITS, SearchState, check_tuple  # noqa: F401

_CHUNK_MASK = (1 << CHUNK_BITS) - 1


def revise(state: SearchState, e: tuple) -> bool:
    """Revise the arc of entry ``e`` (see ``model._Tables``); True iff at
    least one value was removed.  A binary arc reads the values that no
    current partner value supports from its table, one chunk of the
    partner's mask at a time, whatever the partner's size, and keeps the
    rest; any other arc, whose partner is None, scans its compiled rows."""
    masks = state.masks
    _, x, table, partner = e
    m = masks[x]
    if partner is None:
        new = 0
        for b, rows in table:
            if m & b:
                for others in rows:
                    for z, c in others:
                        if not masks[z] & c:
                            break
                    else:
                        new |= b
                        break
    else:
        # the values that no partner value supports, a chunk at a time
        pm = masks[partner]
        left = -1
        for chunk in table:
            left &= chunk[pm & _CHUNK_MASK]
            pm >>= CHUNK_BITS
        new = m & ~left
    if new == m:
        return False
    masks[x] = new
    return True


def propagate(state: SearchState, x: Optional[int] = None) -> bool:
    """Run the variable queue to fixpoint after a change to ``x``'s domain;
    True means consistent, False a wipeout, whose constraint has had its
    weight bumped.  With ``x`` left as None (root GAC), the queue starts as
    every variable in index order once no domain is empty, otherwise as
    ``x`` alone; nothing is excluded at the start.  An empty root domain,
    cut by unary constraints, bumps no weight: the run stops there.

    A revision by ``cid`` that shrinks ``y`` queues ``y``, unless it is
    queued already, and records ``cid`` as its excluded constraint, or -1
    when another constraint queued it too.  Popping ``y`` walks
    ``walk[y][masks[y].bit_count()]``, the arcs at its neighbours that the
    slack test keeps, except those of the excluded constraint.  A ``y`` of
    one value, of bit ``b``, walks ``tables.row(y, b)`` in its own loop: each
    entry's AND of its domain against ``nsup``, the values that ``b`` does
    not support, comes before its kind and exclusion tests, so an entry that
    could remove nothing costs that one AND; past it, a binary arc is revised
    by storing the AND of its domain with ``~nsup`` and any other arc through
    :func:`revise`.  A wider ``y`` walks in a second loop that sends every
    arc through :func:`revise`.
    """
    tables = state.tables
    walk = tables.walk
    rows = tables.rows
    masks = state.masks
    # queued[y]: the constraint excluded at y's walk, or -1 for none
    if x is None:
        if not all(masks):
            return False
        queued = dict.fromkeys(range(len(masks)), -1)
    else:
        queued = {x: -1}
    queue = deque(queued)
    pop = queue.popleft
    while queue:
        y = pop()
        skip = queued.pop(y)
        # no arc of the walk revises y, so its mask holds through the walk
        my = masks[y]
        size = my.bit_count()
        if size == 1:
            bit = my.bit_length() - 1
            row = rows[y][bit]
            if row is None:
                row = tables.row(y, bit)
            for z, nsup, e in row:
                # the AND has no side effect, so it may come before the kind
                # and exclusion tests: most entries stop here
                if not masks[z] & nsup:
                    continue
                cid = e[0]
                if cid == skip:
                    continue
                if e[3] is None:
                    if not revise(state, e):
                        continue
                else:
                    masks[z] &= ~nsup
                if not masks[z]:
                    state.bump_weight(cid)
                    return False
                if z not in queued:
                    queued[z] = cid
                    queue.append(z)
                elif queued[z] != cid:
                    queued[z] = -1
        else:
            for e in walk[y][size]:
                cid = e[0]
                if cid == skip or not revise(state, e):
                    continue
                z = e[1]
                if not masks[z]:
                    state.bump_weight(cid)
                    return False
                if z not in queued:
                    queued[z] = cid
                    queue.append(z)
                elif queued[z] != cid:
                    queued[z] = -1
    return True


def establish_root_gac(state: SearchState) -> bool:
    """Root GAC: run the queue from every variable of the root domains (see
    :func:`propagate`); False at a wipeout."""
    return propagate(state)
