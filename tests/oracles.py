"""Independent reference implementations used to pin expected test values.

Everything here is deliberately written the slow, obvious way and shares no
code with the library internals beyond the public constraint check, the BIC
formula and x-means (both under test separately), so agreement between the
two routes is meaningful.
"""

from __future__ import annotations

import itertools
import sys
from collections import deque
from typing import Optional, Sequence

from branchbench.branching import BranchPlan, Scheme
from branchbench.clustering import bic, xmeans
from branchbench.exprs import INT64_MAX, INT64_MIN, Call, Const, EvalError, Expr, VarRef
from branchbench.model import Constraint, Problem, SearchState, check_tuple
from util import domain_values


def brute_force_solutions(problem: Problem, limit: Optional[int] = None) -> list[tuple[int, ...]]:
    """All solutions by depth-first enumeration with early constraint checks."""
    n = problem.n_vars
    by_last: list[list] = [[] for _ in range(n)]
    for c in problem.constraints:
        by_last[max(c.scope)].append(c)
    out: list[tuple[int, ...]] = []
    values: list[int] = []

    def extend(x: int) -> bool:
        if x == n:
            out.append(tuple(values))
            return limit is not None and len(out) >= limit
        for v in problem.domains[x]:
            values.append(v)
            if all(
                check_tuple(c, tuple(values[z] for z in c.scope)) for c in by_last[x]
            ):
                if extend(x + 1):
                    values.pop()
                    return True
            values.pop()
        return False

    extend(0)
    return out


def brute_force_sat(problem: Problem) -> bool:
    return bool(brute_force_solutions(problem, limit=1))


def supported_values(
    constraint: Constraint, domains: Sequence[Sequence[int]], x: int
) -> list[int]:
    """Values of ``x`` with a satisfying tuple over the other scope variables'
    ``domains``, found by brute enumeration."""
    k = constraint.scope.index(x)
    others = [domains[z] for z in constraint.scope if z != x]
    kept = []
    for v in domains[x]:
        for combo in itertools.product(*others):
            tup = list(combo)
            tup.insert(k, v)
            if check_tuple(constraint, tup):
                kept.append(v)
                break
    return kept


def _in64(x: int) -> int:
    if x < INT64_MIN or x > INT64_MAX:
        raise EvalError(f"64-bit overflow: {x}")
    return x


def _reference_div(a: int, b: int) -> int:
    if b == 0:
        raise EvalError("division by zero")
    sign = 1 if (a < 0) == (b < 0) else -1
    return _in64(sign * (abs(a) // abs(b)))


def _reference_mod(a: int, b: int) -> int:
    if b == 0:
        raise EvalError("modulo by zero")
    sign = 1 if (a < 0) == (b < 0) else -1
    return _in64(a - b * sign * (abs(a) // abs(b)))


# each operator spelled out on its own: C-style truncating division, the
# remainder defined from it, 1/0 for comparisons and logic
_REFERENCE_OPS = {
    "neg": lambda a: _in64(-a),
    "abs": lambda a: _in64(abs(a)),
    "add": lambda a, b: _in64(a + b),
    "sub": lambda a, b: _in64(a - b),
    "mul": lambda a, b: _in64(a * b),
    "div": _reference_div,
    "mod": _reference_mod,
    "min": min,
    "max": max,
    "eq": lambda a, b: 1 if a == b else 0,
    "ne": lambda a, b: 1 if a != b else 0,
    "lt": lambda a, b: 1 if a < b else 0,
    "le": lambda a, b: 1 if a <= b else 0,
    "gt": lambda a, b: 1 if a > b else 0,
    "ge": lambda a, b: 1 if a >= b else 0,
    "and": lambda a, b: 1 if a and b else 0,
    "or": lambda a, b: 1 if a or b else 0,
    "dist": lambda a, b: _in64(abs(a - b)),
}


def reference_eval(expr: Expr, bindings: dict[str, int]) -> int:
    """The value of ``expr`` by a walk of the tree: every argument evaluated
    left to right, then the operator; every constant, bound value and
    arithmetic result checked against 64 bits; ``EvalError`` at the first
    zero divisor, overflow or unbound name met."""
    if isinstance(expr, Const):
        return _in64(expr.value)
    if isinstance(expr, VarRef):
        if expr.name not in bindings:
            raise EvalError(f"unbound variable {expr.name!r}")
        return _in64(bindings[expr.name])
    assert isinstance(expr, Call)
    args = [reference_eval(a, bindings) for a in expr.args]
    return _REFERENCE_OPS[expr.op](*args)


def reference_wdeg(state: SearchState) -> list[int]:
    """Every variable's weighted degree from scratch, in one pass over the
    constraints: the summed weights of its constraints with at least one
    other unassigned scope variable."""
    total = [0] * state.problem.n_vars
    for c in state.problem.constraints:
        for x in c.scope:
            if any(not state.assigned[z] for z in c.scope if z != x):
                total[x] += state.weights[c.cid]
    return total


def promise_scores(state: SearchState, x: int) -> list[tuple[int, int]]:
    """``(value, score)`` for every current value of ``x``, best score first
    (ties: ascending value), by brute force over the binary constraints.

    A value's score is the product, over the unassigned variables sharing at
    least one binary constraint with ``x``, of how many of their current
    values satisfy every binary constraint between the two together with it
    (``check_tuple`` on each pair); the empty product is 1.
    """
    between: dict[int, list[Constraint]] = {}
    for c in state.problem.constraints:
        if len(c.scope) == 2 and x in c.scope:
            y = c.scope[1] if c.scope[0] == x else c.scope[0]
            between.setdefault(y, []).append(c)
    scored = []
    for v in domain_values(state, x):
        score = 1
        for y, cons in between.items():
            if not state.assigned[y]:
                score *= sum(
                    all(check_tuple(c, (v, w) if c.scope[0] == x else (w, v)) for c in cons)
                    for w in domain_values(state, y)
                )
        scored.append((v, score))
    scored.sort(key=lambda vs: (-vs[1], vs[0]))
    return scored


def reference_plan(scheme: Scheme, state: SearchState, x: int) -> BranchPlan:
    """The branch plan for ``x`` read straight off each scheme's definition.

    Values come from ``promise_scores``; each set becomes a mask by the
    positions of its values in the original domain.  The set schemes always
    build their partition, tie groups or an x-means clustering of the scores
    (an integer too large for a float becomes the signed largest float), and
    fall back to the plain plan of their style only when it degenerates: one
    group, all-singleton groups, or one cluster.  Splitting schemes also fall
    back while the domain is at most ``threshold_fraction`` of the original.
    """
    scored = promise_scores(state, x)
    values = [v for v, _ in scored]
    domain = state.problem.domains[x]

    def branch_plan(sets):
        masks = tuple(sum(1 << domain.index(v) for v in s) for s in sets)
        return BranchPlan(masks, domain)

    name = scheme.name
    binary = name in ("2way", "split", "ties-2way", "clust-2way")
    if binary:
        fallback = branch_plan(((values[0],),))
    else:
        fallback = branch_plan(tuple((v,) for v in values))
    if name in ("dway", "2way"):
        return fallback
    if len(values) <= scheme.threshold_fraction * len(state.problem.domains[x]):
        return fallback
    if name == "split":
        top = tuple(sorted(values[: (len(values) + 1) // 2]))
        return branch_plan((top,))

    if name in ("ties-dway", "ties-2way"):
        levels = sorted({score for _, score in scored}, reverse=True)
        sets = tuple(
            tuple(sorted(v for v, score in scored if score == level)) for level in levels
        )
        if len(sets) == 1 or all(len(s) == 1 for s in sets):
            return fallback
    else:
        floats = []
        for _, score in scored:
            try:
                floats.append(float(score))
            except OverflowError:
                floats.append(sys.float_info.max if score > 0 else -sys.float_info.max)
        clustering = xmeans(floats, kmax=scheme.kmax)
        if clustering.k == 1:
            return fallback
        sets = tuple(
            tuple(sorted(values[i] for i in cluster)) for cluster in clustering.clusters
        )
    if binary:
        return branch_plan((sets[0],))
    return branch_plan(sets)


def gac_fixpoint(
    problem: Problem, domains: Optional[Sequence[Sequence[int]]] = None
) -> Optional[list[list[int]]]:
    """Generalized arc consistent closure by naive whole-problem sweeps.

    Repeatedly drops every value without a full support (checked by brute
    enumeration over the other variables' current domains) until nothing
    changes.  Returns None when some domain empties.
    """
    if domains is None:
        current = [list(d) for d in problem.domains]
    else:
        current = [list(d) for d in domains]
    changed = True
    while changed:
        changed = False
        for c in problem.constraints:
            for x in c.scope:
                kept = supported_values(c, current, x)
                if len(kept) != len(current[x]):
                    current[x] = kept
                    changed = True
                if not current[x]:
                    return None
    return current


def binary_slack(constraint: Constraint, domains: Sequence[Sequence[int]], x: int) -> int:
    """The most values of the partner's original domain that any original
    value of ``x`` conflicts with, under the binary ``constraint``."""
    (y,) = (z for z in constraint.scope if z != x)
    first = constraint.scope[0] == x
    return max(
        sum(not check_tuple(constraint, (v, w) if first else (w, v)) for w in domains[y])
        for v in domains[x]
    )


def reference_propagate(
    problem: Problem,
    domains: list[list[int]],
    weights: list[int],
    changed: Optional[int] = None,
    removals: Optional[list[tuple[int, tuple[int, ...]]]] = None,
    revisions: Optional[list[tuple[int, int]]] = None,
) -> Optional[tuple[int, int]]:
    """The plain variable queue over ``(cid, var)`` arcs, revising by
    enumeration.

    With ``changed`` None (root GAC), unary constraints cut the domains
    (each by ``supported_values``), then every variable is queued in index
    order, with no constraint excluded; a domain a unary constraint empties
    is a wipeout that names no constraint, ``(variable, None)``, and bumps
    no weight.  Otherwise the queue starts as ``[changed]`` with
    no constraint excluded.  The queue is a FIFO
    ``deque`` of variables with a ``dict`` from each queued variable to its
    excluded constraint.  A revision by constraint ``c`` that shrinks ``x``
    queues ``x`` excluding ``c`` unless ``x`` is queued already; if it is,
    and by another constraint, it excludes -1, that is nothing.  A popped
    ``y`` revises, in ascending ``(cid, var)`` order, every arc of a
    constraint on ``y`` but the excluded one, at each of its other scope
    variables, each with ``supported_values``.  ``domains`` and ``weights``
    are updated in place; a wipeout bumps the wiping constraint's weight and
    returns ``(variable, constraint)``, otherwise the result is None.  When
    given, ``removals`` collects ``(variable, removed values)`` for each
    revision that shrinks a domain, in revision order, removed values in
    domain order.

    A binary arc whose partner's current domain is larger than its
    ``binary_slack`` is not revised: every value keeps a support.  When
    given, ``revisions`` collects the arcs revised, in order: every one but
    the binary arcs whose partner (the popped variable) has one value, which
    the library's walk revises itself, removals included, with no ``revise``
    call.  A unary constraint's cut is no revision, and no removal.
    """
    follows: list[list[tuple[int, int]]] = [[] for _ in range(problem.n_vars)]
    for c in problem.constraints:
        if changed is None and len(c.scope) == 1:
            (x,) = c.scope
            domains[x] = supported_values(c, domains, x)
        for x in c.scope:
            follows[x].extend((c.cid, y) for y in c.scope if y != x)
    for f in follows:
        f.sort()
    queue: deque = deque()
    excluded: dict[int, int] = {}

    def revise(arc: tuple[int, int], popped: Optional[int] = None) -> Optional[tuple[int, int]]:
        cid, x = arc
        c = problem.constraints[cid]
        binary = len(c.scope) == 2
        if binary:
            (y,) = (z for z in c.scope if z != x)
            if len(domains[y]) > binary_slack(c, problem.domains, x):
                return None
        kept = supported_values(c, domains, x)
        shrinks = len(kept) < len(domains[x])
        # popped is this binary arc's partner; a singleton decides it
        decided = binary and popped is not None and len(domains[popped]) == 1
        if revisions is not None and not decided:
            revisions.append(arc)
        if not shrinks:
            return None
        if removals is not None:
            removals.append((x, tuple(v for v in domains[x] if v not in kept)))
        domains[x] = kept
        if not kept:
            weights[cid] += 1
            return (x, cid)
        if x not in excluded:
            queue.append(x)
            excluded[x] = cid
        elif excluded[x] != cid:
            excluded[x] = -1
        return None

    if changed is None:
        for x, dom in enumerate(domains):
            if not dom:
                return (x, None)
    for y in range(problem.n_vars) if changed is None else (changed,):
        queue.append(y)
        excluded[y] = -1
    while queue:
        y = queue.popleft()
        skip = excluded.pop(y)
        for arc in follows[y]:
            if arc[0] != skip:
                wiped = revise(arc, y)
                if wiped:
                    return wiped
    return None


def best_contiguous_partition(scores: Sequence[float], kmax: int) -> tuple[int, float]:
    """Exhaustive best-BIC clustering of sorted 1-D data into <= kmax parts.

    Optimal 1-D clusters of any fixed k are contiguous in sorted order, so
    trying every contiguous split of the sorted scores and scoring it with
    the library's BIC covers the whole search space x-means explores.
    Returns (best k, best BIC).
    """
    pts = sorted(float(s) for s in scores)
    n = len(pts)
    best_k, best_bic = 0, -float("inf")
    for k in range(1, min(kmax, n) + 1):
        for cuts in itertools.combinations(range(1, n), k - 1):
            bounds = (0, *cuts, n)
            assignment = [0] * n
            centroids = []
            ok = True
            for j in range(k):
                lo, hi = bounds[j], bounds[j + 1]
                part = pts[lo:hi]
                if not part:
                    ok = False
                    break
                for i in range(lo, hi):
                    assignment[i] = j
                centroids.append(sum(part) / len(part))
            if not ok:
                continue
            score = bic(pts, assignment, centroids)
            if score > best_bic:
                best_k, best_bic = k, score
    return best_k, best_bic

