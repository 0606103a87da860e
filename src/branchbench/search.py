"""Backtracking search maintaining arc consistency.

Every applied decision (an assignment, a set reduction, or a right-branch
removal) is propagated and counts as exactly one node; root preprocessing and
forced commits are not counted.  ``solve`` keeps its four counters itself and
counts a wipeout wherever propagation returns False: at the root and after a
branch.  The branching style is the scheme's (``Scheme.binary``), read once
per solve; a plan gives only its sets, as masks.  A branch applies its mask
with one store into ``state.masks``, as propagation does.
A variable is treated as assigned only when a branch reduced its domain to a
singleton and its propagation held, or when search selects it after
propagation did.  A branch applies its mask and propagates first, and assigns
``x`` only once ``propagate`` returns True: a failed branch, most of them,
never assigns ``x``, and its wipeout bump reads ``x`` as unassigned, as the
backtrack leaves it.  Propagation reads no assignment flag, so deferring the
assignment changes nothing it does.  Selecting a one-value domain is a forced
commit, not a choice point: it assigns ``x`` in a frame with no branches, and
makes no node, no plan and no ``propagate`` call, since the walk that cut
``x`` to one value (or root GAC) has already run.  So a plan is only cut from
two or more values: every branch removes something, and a binary plan always
has its right branch.  Only ``x``'s own frame assigns ``x``, so unwinding
that frame clears it: a backtrack calls ``unassign`` only when ``x`` is
assigned, so a failed branch's backtrack makes no call.  Both go through
``SearchState.assign`` and ``unassign``, which set one flag per variable (the
value is the singleton domain itself) and keep the cached wdeg that variable
selection reads.

The engine is one loop over an explicit frame stack, so deep runs cannot hit
the interpreter recursion limit.  Root GAC and every propagated branch lead to
the same step: one :func:`select_variable` call.  When it finds no unassigned
domain of two or more values, every domain is a singleton and the state is
the solution, checked once by :func:`verify`; otherwise it gives a forced
commit or one new choice point with one :func:`plan` call.  A branch changes
only its variable's domain, so it is propagated as that one change,
``propagate(state, x)``.  A frame opens one level per branch, saving every
mask before the branch is applied, and its token restores them.  Each ``solve``
builds its own :class:`SearchState` and leaves it as the search stopped; the
problem is not changed, so re-running on it starts from the same root domains.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from enum import Enum
from typing import Optional, Sequence

from .branching import Scheme, plan
from .heuristics import select_variable
from .model import Problem, SearchState, check_tuple, mask_values
from .propagation import establish_root_gac, propagate


class Status(Enum):
    SAT = "sat"
    UNSAT = "unsat"
    LIMIT = "limit"


@dataclass(frozen=True)
class Limits:
    max_nodes: Optional[int] = None
    wall_time_ms: Optional[float] = None


@dataclass(frozen=True)
class RunStats:
    nodes: int
    decisions: int
    wipeouts: int
    backtracks: int
    elapsed_ms: float


@dataclass(frozen=True)
class Outcome:
    status: Status
    assignment: Optional[tuple[int, ...]]
    stats: RunStats


def verify(problem: Problem, assignment: Sequence[int]) -> bool:
    """Total assignment check straight against every constraint."""
    if len(assignment) != problem.n_vars:
        return False
    for x, v in enumerate(assignment):
        if v not in problem.domains[x]:
            return False
    return all(
        check_tuple(c, tuple(assignment[x] for x in c.scope)) for c in problem.constraints
    )


class _Frame:
    __slots__ = ("x", "masks", "last", "idx", "token")

    def __init__(self, x: int, masks: tuple[int, ...], last: int) -> None:
        self.x = x
        self.masks = masks
        # the final branch index: 1 for a binary plan, whose right branch
        # always exists; -1 for a forced commit, which has no branch
        self.last = last
        self.idx = 0
        self.token: Optional[int] = None


def solve(
    problem: Problem,
    scheme: Scheme,
    limits: Optional[Limits] = None,
    trace: Optional[list[str]] = None,
) -> Outcome:
    """Solve ``problem`` under ``scheme``; the search draws no random numbers."""
    state = SearchState(problem)
    started = time.perf_counter()
    max_nodes = limits.max_nodes if limits else None
    wall_ms = limits.wall_time_ms if limits else None
    names = problem.names
    values_of = problem.domains
    binary = scheme.binary
    stack: list[_Frame] = []
    status = Status.UNSAT
    assignment: Optional[tuple[int, ...]] = None
    nodes = decisions = backtracks = 0

    consistent = establish_root_gac(state)
    wipeouts = int(not consistent)
    masks = state.masks  # one list for the whole run: undo_to restores it in place
    assigned = state.assigned
    while consistent or stack:
        if consistent:
            x = select_variable(state)
            if x < 0:
                assignment = tuple(state.value_of(x) for x in range(problem.n_vars))
                if not verify(problem, assignment):
                    raise RuntimeError("internal error: produced assignment fails verify()")
                status = Status.SAT
                break
            if masks[x].bit_count() == 1:
                # a forced commit: no choice point, and already propagated
                state.assign(x)
                stack.append(_Frame(x, (), -1))
                if trace is not None:
                    trace.append(f"{len(stack) - 1} {names[x]} {{{state.value_of(x)}}} F")
                continue
            branches = plan(scheme, state, x).masks
            stack.append(_Frame(x, branches, 1 if binary else len(branches) - 1))

        fr = stack[-1]
        if fr.token is not None:
            # the applied branch (or its subtree) failed; x is assigned only
            # if the branch's propagation held and cut it to one value, so
            # most backtracks, of branches that wiped out, skip the call
            if assigned[fr.x]:
                state.unassign(fr.x)
            state.undo_to(fr.token)
            fr.token = None
            backtracks += 1
            fr.idx += 1
        if fr.idx > fr.last:
            # a branch frame's variable was unassigned as its last branch
            # backtracked; only a forced commit still holds its assignment
            if fr.last < 0:
                state.unassign(fr.x)
            stack.pop()
            continue

        # limits are checked before a decision is applied
        if max_nodes is not None and nodes >= max_nodes:
            status = Status.LIMIT
            break
        if wall_ms is not None and (time.perf_counter() - started) * 1000.0 > wall_ms:
            status = Status.LIMIT
            break

        x = fr.x
        fr.token = state.push_level()
        idx = fr.idx
        if idx == 0:
            decisions += 1  # one per choice point that applies a branch
        right = binary and idx == 1
        if right:
            mask = fr.masks[0]
            masks[x] ^= mask
        else:
            mask = masks[x] = fr.masks[idx]
        nodes += 1
        if trace is not None:
            kind = "R" if right else "L" if binary else f"E#{idx}"
            joined = ",".join(str(v) for v in mask_values(values_of[x], mask))
            trace.append(f"{len(stack) - 1} {names[x]} {{{joined}}} {kind}")
        # on wipeout the next pass unwinds this branch, x still unassigned
        consistent = propagate(state, x)
        if not consistent:
            wipeouts += 1
        elif not right and mask & (mask - 1) == 0:
            state.assign(x)

    elapsed_ms = (time.perf_counter() - started) * 1000.0
    return Outcome(status, assignment, RunStats(nodes, decisions, wipeouts, backtracks, elapsed_ms))
