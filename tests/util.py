"""Shared builders for the test suite."""

from __future__ import annotations

import itertools
import json
import random
import re
from pathlib import Path

from branchbench.exprs import Call, Const, VarRef
from branchbench.model import (
    Constraint,
    ExtensionalAllowed,
    ExtensionalForbidden,
    Intensional,
    Problem,
    SearchState,
)
from branchbench.propagation import establish_root_gac, propagate

_BIN_OPS = ("ne", "eq", "lt", "le", "add", "sub")
# every pin scripts/write_golden.py writes beside the corpus
PINS = json.loads((Path(__file__).resolve().parent / "golden" / "pins.json").read_text())
# one line of a search trace: depth, variable, values, and the branch kind
# (a binary plan's left or right branch, a d-way plan's i-th, or a forced commit)
TRACE_LINE = re.compile(r"^\d+ \S+ \{-?\d+(,-?\d+)*\} (L|R|E#\d+|F)$")


def domain_values(state: SearchState, x: int) -> list[int]:
    """Current domain of ``x`` in ascending value order."""
    values = state.problem.domains[x]
    return [v for i, v in enumerate(values) if state.masks[x] >> i & 1]


def _mask_of(state: SearchState, x: int, values) -> int:
    dom = state.problem.domains[x]
    mask = 0
    for v in values:
        if v not in dom:
            raise ValueError(f"value {v} not in original domain of variable {x}")
        mask |= 1 << dom.index(v)
    return mask


def remove_values(state: SearchState, x: int, values) -> None:
    """Delete ``values`` from the current domain of ``x`` (one mask store)."""
    removed = _mask_of(state, x, values)
    if removed & ~state.masks[x]:
        raise ValueError(f"a value to remove is not in the current domain of variable {x}")
    if removed:
        state.masks[x] ^= removed


def reduce_domain(state: SearchState, x: int, values) -> None:
    """Shrink the domain of ``x`` to ``values`` (a non-empty subset of it)."""
    target = _mask_of(state, x, values)
    cur = state.masks[x]
    if target == 0:
        raise ValueError("reduce_domain target is empty")
    if target & ~cur:
        raise ValueError("reduce_domain target is not a subset of the current domain")
    if target != cur:
        state.masks[x] = target


def walk_states(p: Problem, r: random.Random, steps: int):
    """Yield up to ``steps`` consistent states of ``p`` along random
    decisions and backtracks, starting at the root GAC closure (nothing if
    it wipes out).  A branch to a single value commits the variable once
    its propagation holds, as search does, so a wipeout bumps a weight with
    the branch's variable unassigned.  The same state object is yielded each
    time, changed in place between yields."""
    st = SearchState(p)
    if not establish_root_gac(st):
        return
    levels = []
    for _ in range(steps):
        yield st
        open_vars = [
            x for x in range(p.n_vars) if not st.assigned[x] and st.masks[x].bit_count() > 1
        ]
        if not open_vars:
            return
        x = r.choice(open_vars)
        values = domain_values(st, x)
        picked = r.choice(values)
        kept = [picked] if r.randrange(2) else [v for v in values if v != picked]
        levels.append((st.push_level(), x))
        reduce_domain(st, x, kept)
        consistent = propagate(st, x)
        if consistent and len(kept) == 1:
            st.assign(x)
        if not consistent or r.randrange(4) == 0:
            token, x = levels.pop()
            if st.assigned[x]:
                st.unassign(x)
            st.undo_to(token)


def arc_ids(problem: Problem) -> list[tuple[int, int]]:
    """``(cid, var)`` of every arc, in the order the walks list arcs:
    ascending ``(cid, var)``.  Only a constraint of arity 2 or more has
    arcs: a unary one is compiled into the root masks.  Arcs have no
    number; a list index here only names that position."""
    return sorted(
        (c.cid, x) for c in problem.constraints if len(c.scope) > 1 for x in c.scope
    )


def arc_entries(problem: Problem) -> list[tuple]:
    """Every arc's entry, one object each, in :func:`arc_ids` order, each
    from the walk of a variable on its constraint at size 0, which lists all
    of them."""
    tables = problem.tables
    found: dict = {}
    for walk in tables.walk:
        for e in walk[0]:
            assert found.setdefault(e[:2], e) is e
    assert sorted(found) == arc_ids(problem)
    return [found[arc] for arc in arc_ids(problem)]


def make_binary(names, domains, pairs_with_relations) -> Problem:
    cons = []
    for (u, v), rel in pairs_with_relations:
        cons.append(Constraint(len(cons), (u, v), (names[u], names[v]), rel))
    return Problem(tuple(names), tuple(domains), tuple(cons))


def ne_rel(a: str, b: str) -> Intensional:
    return Intensional(Call("ne", (VarRef(a), VarRef(b))))


def _random_extensional(r: random.Random, domains, scope):
    space = [domains[x] for x in scope]
    all_tuples = list(itertools.product(*space))
    count = r.randint(0, min(len(all_tuples), 12))
    chosen = frozenset(r.sample(all_tuples, count))
    if r.randrange(2):
        return ExtensionalAllowed(chosen)
    return ExtensionalForbidden(chosen)


def _random_intensional(r: random.Random, var_names):
    arity = len(var_names)
    if arity == 1:
        expr = Call(
            r.choice(("lt", "le", "ne", "eq")),
            (VarRef(var_names[0]), Const(r.randint(-2, 6))),
        )
    elif arity == 2:
        op = r.choice(_BIN_OPS)
        left, right = VarRef(var_names[0]), VarRef(var_names[1])
        if op in ("add", "sub"):
            expr = Call("eq", (Call(op, (left, Const(r.randint(-2, 3)))), right))
        else:
            expr = Call(op, (left, right))
    else:
        expr = Call(
            "le",
            (
                Call("add", (VarRef(var_names[0]), VarRef(var_names[1]))),
                Call("add", (VarRef(var_names[2]), Const(r.randint(0, 6)))),
            ),
        )
    return Intensional(expr)


CLUSTER_CENTERS = {
    1: (0.0,),
    2: (0.0, 400.0),
    3: (0.0, 60.0, 1200.0),
    4: (0.0, 60.0, 1200.0, 1260.0),
}


def score_vector(seed: int) -> list[float]:
    """Promise-shaped score vector: separated plateaus of evenly spaced values.

    Mimics what value scoring produces on structured instances: a few well
    separated score levels, each a tight spread of nearby values, shuffled.
    Every 19th vector is constant.  The plateau count cycles with the seed so
    a seed range covers k = 1..4 evenly.
    """
    r = random.Random(seed)
    k_true = 1 + seed % 4
    if seed % 19 == 0:
        return [float(r.randint(1, 5))] * r.randint(12, 30)
    n = r.randint(12, 30)
    base = r.uniform(-50.0, 50.0)
    centers = [base + c for c in CLUSTER_CENTERS[k_true]]
    sizes = [n // k_true + (1 if j < n % k_true else 0) for j in range(k_true)]
    pts: list[float] = []
    for center, m in zip(centers, sizes):
        if m == 1:
            pts.append(center)
        else:
            step = 2.0 / (m - 1)
            pts.extend(center - 1.0 + step * i for i in range(m))
    r.shuffle(pts)
    return pts


def random_problem(seed: int, max_vars: int = 6, max_dom: int = 5) -> Problem:
    """Small random CSP mixing arities and relation kinds.

    Kept tiny on purpose: every instance is brute forceable in well under a
    millisecond, so thousands of them fit inside the acceptance budgets.
    """
    r = random.Random(seed)
    n = r.randint(2, max_vars)
    names = tuple(f"v{i}" for i in range(n))
    domains = tuple(
        tuple(sorted(r.sample(range(-3, 9), r.randint(1, max_dom)))) for _ in range(n)
    )
    cons = []
    for _ in range(r.randint(1, 2 * n)):
        arity = min(r.choices((1, 2, 3), weights=(1, 6, 2))[0], n)
        scope = tuple(sorted(r.sample(range(n), arity)))
        var_names = tuple(names[x] for x in scope)
        if r.randrange(2):
            rel = _random_extensional(r, domains, scope)
        else:
            rel = _random_intensional(r, var_names)
        cons.append(Constraint(len(cons), scope, var_names, rel))
    return Problem(names, domains, tuple(cons))
