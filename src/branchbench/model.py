"""Core problem model: variables, domains, constraints, and the search state.

A :class:`Problem` is immutable after construction and safely shareable
between solver runs.  Variables are identified by index; original domains
are ints, kept sorted ascending and duplicate-free.  Mutable search data
(current domains, constraint weights, assignments and the restoration trail)
lives in :class:`SearchState`; the search counters are ``solve``'s own.

Current domains are bitmasks over positions in the original domain, which
keeps membership tests, removals, and the compatibility counting done by the
value heuristic cheap.  Every shrink of a domain, whatever number of values
it removes, is one store into ``SearchState.masks`` and records nothing:
each restoration level saves a copy of the whole mask list when it opens
(copying rather than trailing, Schulte 1999), and undoing it copies that
list back.  The compiled tables on the problem (the root domains, which the
unary constraints cut; one entry ``(cid, x, table, partner)`` per other arc,
whose table holds a binary arc's values of ``x`` that each subset of a chunk
of the partner's domain leaves unsupported, or an n-ary arc's rows of bit
masks grouped by value, its partner being None; per-variable walk lists of
those entries by domain size; neighbour tables) are built in one pass over
the constraints, each fact once.  The one exception is the singleton rows,
one per variable and value, which propagation builds from the walk lists the
first time it walks that variable with that one value, and which the problem
then keeps for every later solve.  So the tables are a deterministic cache,
filled lazily, and a pure indexing layer: they change nothing about
constraint semantics, which are always those of :func:`check_tuple`.

A constraint is compiled once into its satisfying tuples over the original
domains: an extensional relation by mapping its tuples to positions, any
other relation (intensional, or forbidden of arity other than 2) by one
function, ``_satisfying_positions``, calling :func:`check_tuple` on
every candidate tuple.  For arity other than 2 that enumeration is bounded by
:data:`MAX_TABLE_TUPLES`; a problem that exceeds it is rejected when built,
so it fails at load rather than during a solve.  Binary tables are shared,
over equal domains, by relations equal up to renaming: the key is an
extensional relation itself or an intensional expression over positions.
"""

from __future__ import annotations

import itertools
import logging
import math
from dataclasses import dataclass, field
from typing import Iterable, Sequence, Union

from .exprs import (
    EvalError,
    Expr,
    INT64_MAX,
    INT64_MIN,
    compile_expr,
    expr_vars,
    rename_expr,
)

logger = logging.getLogger(__name__)

# most candidate tuples (product of original domain sizes) that a forbidden
# or intensional constraint of arity other than 2 may span; compiling it calls
# check_tuple on each of them
MAX_TABLE_TUPLES = 1 << 16

# partner bits per chunk of a binary arc's table: one lookup per chunk of the
# partner's domain mask, in a chunk of 2**CHUNK_BITS entries
CHUNK_BITS = 4


@dataclass(frozen=True)
class ExtensionalAllowed:
    """Relation listing exactly the satisfying tuples."""

    tuples: frozenset[tuple[int, ...]]


@dataclass(frozen=True)
class ExtensionalForbidden:
    """Relation listing exactly the violating tuples."""

    tuples: frozenset[tuple[int, ...]]


@dataclass(frozen=True)
class Intensional:
    """Relation defined by an expression; non-zero means satisfied."""

    expr: Expr


Relation = Union[ExtensionalAllowed, ExtensionalForbidden, Intensional]


@dataclass(frozen=True)
class Constraint:
    cid: int
    scope: tuple[int, ...]
    var_names: tuple[str, ...]
    relation: Relation
    # an intensional relation's expression compiled over var_names, built by
    # the first check_tuple call on this constraint
    _test: object = field(default=None, init=False, repr=False, compare=False)


def check_tuple(constraint: Constraint, values: Sequence[int]) -> bool:
    """True iff ``values`` (one per scope position) satisfies the constraint.

    An intensional relation is evaluated by its expression compiled once,
    by :func:`compile_expr` over the scope names, and kept on the
    constraint.  Evaluation errors (zero divisor, 64-bit overflow) make the
    tuple unsatisfying; a diagnostic is logged.
    """
    rel = constraint.relation
    tup = tuple(values)
    if isinstance(rel, ExtensionalAllowed):
        return tup in rel.tuples
    if isinstance(rel, ExtensionalForbidden):
        return tup not in rel.tuples
    test = constraint._test
    if test is None:
        test = compile_expr(rel.expr, constraint.var_names)
        object.__setattr__(constraint, "_test", test)
    try:
        return test(tup) != 0
    except EvalError as err:
        logger.debug("constraint %d rejects %r: %s", constraint.cid, tup, err)
        return False


def _relation_signature(constraint: Constraint):
    """Cache key identifying a relation up to renaming of scope variables:
    an extensional relation itself, or an intensional relation's expression
    with its scope names replaced by positions."""
    rel = constraint.relation
    if not isinstance(rel, Intensional):
        return rel
    positional = {name: f"${i}" for i, name in enumerate(constraint.var_names)}
    return rename_expr(rel.expr, positional)


class _Tables:
    """Compiled lookup tables for one problem (see module docstring); only
    the singleton rows are filled in after construction, each once."""

    __slots__ = (
        "root_masks", "walk", "rows", "neighbors", "var_binary", "var_constraints",
    )

    def __init__(self, problem: "Problem") -> None:
        domains = problem.domains
        n = len(domains)
        pos = [{v: i for i, v in enumerate(dom)} for dom in domains]
        # the original domains cut by every unary constraint, which has no
        # arc and no var_constraints row: it can cut only the root domain
        self.root_masks = [(1 << len(dom)) - 1 for dom in domains]

        # an arc revises one constraint at one scope variable x, and is one
        # entry (cid, x, table, partner).  A binary arc's table holds, per
        # chunk of CHUNK_BITS partner bits, entry s -> the values of x that
        # no partner value at a set bit of s supports (-1 at s = 0).  An
        # n-ary arc has partner None and, in table, its satisfying tuples
        # grouped by the value of x, ascending: (bit of x, rows), a row being
        # ((z, bit of z) for the other scope variables).  on_var[y]: (slack,
        # entry) of every arc of a constraint on y at its other scope
        # variables, ascending (cid, var), the arcs y's walk may list; a
        # non-binary arc's slack is y's domain size, which no size exceeds.
        on_var: list[list] = [[] for _ in range(n)]
        # the constraints on x, for the wdeg cache: binary ones as (cid,
        # partner), n-ary ones as (cid, the other scope variables)
        var_binary: list[list] = [[] for _ in range(n)]
        var_constraints: list[list] = [[] for _ in range(n)]
        # binary supports, tables and slacks per direction, shared by
        # relations equal up to renaming over the same domains
        sup_cache: dict = {}
        # combined binary compatibility per ordered variable pair, used by the
        # value heuristic: comb[x][y][bit of x] = mask of compatible values of y
        comb: list[dict[int, tuple[int, ...]]] = [{} for _ in range(n)]
        for c in problem.constraints:
            cid, scope = c.cid, c.scope
            if len(scope) == 2:
                u, v = scope
                key = (_relation_signature(c), domains[u], domains[v])
                got = sup_cache.get(key)
                if got is None:
                    by_u, by_v = _binary_supports(c, domains, pos)
                    # the arc on u reads the supports of v's values, and the
                    # arc on v those of u's; slack per arc: the most partner
                    # values that any value of its variable conflicts with
                    got = sup_cache[key] = (
                        (by_v, _unsupported_chunks(by_v),
                         len(domains[v]) - min(map(int.bit_count, by_u))),
                        (by_u, _unsupported_chunks(by_u),
                         len(domains[u]) - min(map(int.bit_count, by_v))),
                    )
                (sup_u, table_u, slack_u), (sup_v, table_v, slack_v) = got
                # each arc is listed by its partner's walk only
                on_var[v].append((slack_u, (cid, u, table_u, v)))
                on_var[u].append((slack_v, (cid, v, table_v, u)))
                # the arc on v maps each bit of u to its supports in v
                for a, b, rows in ((u, v, sup_v), (v, u, sup_u)):
                    old = comb[a].get(b)
                    comb[a][b] = rows if old is None else tuple(map(int.__and__, old, rows))
                var_binary[u].append((cid, v))
                var_binary[v].append((cid, u))
                continue
            tuples = _satisfying_positions(c, domains, pos)
            if len(scope) == 1:
                self.root_masks[scope[0]] &= sum(1 << i for (i,) in tuples)
                continue
            for x in sorted(scope):
                k = scope.index(x)
                by_value: dict[int, list] = {}
                for t in tuples:
                    by_value.setdefault(t[k], []).append(
                        tuple((scope[j], 1 << i) for j, i in enumerate(t) if j != k)
                    )
                entry = (cid, x, tuple(
                    (1 << i, tuple(rows)) for i, rows in sorted(by_value.items())
                ), None)
                for z in scope:
                    if z != x:
                        on_var[z].append((len(domains[z]), entry))
            for x in scope:
                var_constraints[x].append((cid, tuple(z for z in scope if z != x)))
        # walk[x][s]: the entries of on_var[x] that the walk of x lists
        # while x has s values, those with slack at least s, in the same
        # order; the sizes between two slacks share one tuple
        self.walk = []
        for x, listed in enumerate(on_var):
            entries = tuple(e for _, e in listed)
            top = len(domains[x])
            kept = [entries] * (top + 1)
            for s in sorted({slack + 1 for slack, _ in listed if slack < top}):
                kept[s:] = [tuple(e for slack, e in listed if s <= slack)] * (top + 1 - s)
            self.walk.append(kept)
        # rows[y][b]: the singleton row of y at bit b (see row), None until
        # y's first walk with that one value builds it
        self.rows = [[None] * len(dom) for dom in domains]
        self.var_binary = [tuple(v) for v in var_binary]
        self.var_constraints = [tuple(v) for v in var_constraints]
        # a score is an exact product, so the neighbours' order is free
        self.neighbors = [tuple(d.items()) for d in comb]

    def row(self, y: int, b: int) -> tuple:
        """The singleton row of ``y`` at bit ``b``: the entries of
        ``walk[y][1]`` in the same order, each as ``(z, nsup, entry)``, with
        ``nsup`` the values of ``z`` that ``y``'s value does not support,
        a binary entry's table at ``b`` alone, and -1 for any other entry.
        Built on the first call and kept in ``rows``."""
        row = self.rows[y][b]
        if row is None:
            c, s = b // CHUNK_BITS, 1 << b % CHUNK_BITS
            row = self.rows[y][b] = tuple(
                (e[1], -1 if e[3] is None else e[2][c][s], e) for e in self.walk[y][1]
            )
        return row


def _binary_supports(c: Constraint, domains, pos):
    """Per value of each scope variable of binary ``c``, the mask of the
    other's values that ``c`` allows beside it; ``pos[x]``: value -> bit."""
    u, v = c.scope
    du, dv = domains[u], domains[v]
    rel = c.relation
    if isinstance(rel, Intensional):
        pairs = _satisfying_positions(c, domains, pos)
    else:
        pu, pv = pos[u], pos[v]
        pairs = [(pu[a], pv[b]) for a, b in rel.tuples]
    # allowed pairs set bits in empty rows, forbidden pairs clear bits in
    # full rows; Problem keeps every tuple value inside its domain
    forbidden = isinstance(rel, ExtensionalForbidden)
    sup_u = [(1 << len(dv)) - 1 if forbidden else 0] * len(du)
    sup_v = [(1 << len(du)) - 1 if forbidden else 0] * len(dv)
    for i, j in pairs:
        sup_u[i] ^= 1 << j
        sup_v[j] ^= 1 << i
    return (tuple(sup_u), tuple(sup_v))


def _satisfying_positions(c: Constraint, domains, pos) -> list[tuple[int, ...]]:
    """Every tuple over the original ``domains`` that satisfies ``c``, as
    value positions (``pos[x]``: value -> bit), one per scope variable."""
    rel = c.relation
    if isinstance(rel, ExtensionalAllowed):
        scope_pos = [pos[x] for x in c.scope]
        return [tuple(p[v] for p, v in zip(scope_pos, t)) for t in rel.tuples]
    doms = [domains[x] for x in c.scope]
    return [
        idx
        for idx, values in zip(
            itertools.product(*map(range, map(len, doms))), itertools.product(*doms)
        )
        if check_tuple(c, values)
    ]


def _unsupported_chunks(sup: tuple[int, ...]) -> tuple[tuple[int, ...], ...]:
    """The table of a binary arc whose ``sup[j]`` is the mask of the arc
    variable's values that partner value ``j`` supports: one chunk per
    :data:`CHUNK_BITS` partner bits, whose entry ``s`` is the AND of ``~sup``
    over the set bits of ``s``, the values that none of them supports, -1 at
    ``s = 0`` (the last chunk is shorter when the partner's domain size is
    not a multiple of the chunk width)."""
    out = []
    for base in range(0, len(sup), CHUNK_BITS):
        left = [-1]
        for row in sup[base:base + CHUNK_BITS]:
            left += [m & ~row for m in left]
        out.append(tuple(left))
    return tuple(out)


def mask_values(values: Sequence[int], mask: int) -> tuple[int, ...]:
    """The values of ``values`` (an original domain) at the set bits of
    ``mask``, ascending."""
    out = []
    while mask:
        low = mask & -mask
        out.append(values[low.bit_length() - 1])
        mask ^= low
    return tuple(out)


def _normalize_domain(dom: Iterable[int]) -> tuple[int, ...]:
    out = tuple(sorted(set(dom)))
    if not out:
        raise ValueError("empty domain")
    for v in out:
        if type(v) is not int:
            raise ValueError(f"domain value {v!r} is not an int")
        if not INT64_MIN <= v <= INT64_MAX:
            raise ValueError(f"domain value {v} outside 64-bit range")
    return out


@dataclass(frozen=True)
class Problem:
    names: tuple[str, ...]
    domains: tuple[tuple[int, ...], ...]
    constraints: tuple[Constraint, ...]
    _tables: object = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        names = tuple(self.names)
        domains = tuple(_normalize_domain(d) for d in self.domains)
        constraints = tuple(self.constraints)
        object.__setattr__(self, "names", names)
        object.__setattr__(self, "domains", domains)
        object.__setattr__(self, "constraints", constraints)
        if len(names) != len(domains):
            raise ValueError("names/domains length mismatch")
        if len(set(names)) != len(names):
            raise ValueError("duplicate variable names")
        for name in names:
            if not (name.isascii() and name.isidentifier()):
                raise ValueError(f"variable name {name!r} is not an ASCII identifier")
        value_sets = [frozenset(d) for d in domains]
        for i, c in enumerate(constraints):
            if c.cid != i:
                raise ValueError(f"constraint {i} carries cid {c.cid}")
            if not c.scope:
                raise ValueError(f"constraint {i} has empty scope")
            if len(set(c.scope)) != len(c.scope):
                raise ValueError(f"constraint {i} repeats a variable in scope")
            for x in c.scope:
                if not 0 <= x < len(names):
                    raise ValueError(f"constraint {i} references variable {x}")
            expected = tuple(names[x] for x in c.scope)
            if c.var_names != expected:
                raise ValueError(f"constraint {i} scope names {c.var_names} != {expected}")
            rel = c.relation
            if isinstance(rel, (ExtensionalAllowed, ExtensionalForbidden)):
                members = [value_sets[x] for x in c.scope]
                # one containment per scope column; only when one fails does
                # the per-tuple loop run, to name the first bad tuple
                fits = set(map(len, rel.tuples)) <= {len(c.scope)} and all(
                    dom.issuperset(column) for dom, column in zip(members, zip(*rel.tuples))
                )
                if not fits:
                    for t in rel.tuples:
                        if len(t) != len(c.scope):
                            raise ValueError(f"constraint {i} tuple arity mismatch: {t}")
                        for x, dom, v in zip(c.scope, members, t):
                            if v not in dom:
                                raise ValueError(
                                    f"constraint {i} tuple value {v} outside the domain "
                                    f"of {names[x]}"
                                )
            else:
                extra = expr_vars(rel.expr) - set(c.var_names)
                if extra:
                    raise ValueError(
                        f"constraint {i} expression references {sorted(extra)} outside scope"
                    )
            if len(c.scope) != 2 and not isinstance(rel, ExtensionalAllowed):
                candidates = math.prod(len(domains[x]) for x in c.scope)
                if candidates > MAX_TABLE_TUPLES:
                    raise ValueError(
                        f"constraint {i} spans {candidates} candidate tuples, more than "
                        f"MAX_TABLE_TUPLES = {MAX_TABLE_TUPLES}"
                    )

    @property
    def n_vars(self) -> int:
        return len(self.names)

    @property
    def tables(self) -> _Tables:
        t = self._tables
        if t is None:
            t = _Tables(self)
            object.__setattr__(self, "_tables", t)
        return t


class SearchState:
    """Mutable per-run state: domain masks, weights, assignment flags and
    the trail.  A domain is its mask, and its size is read from it as
    ``masks[x].bit_count()``; the masks start as ``tables.root_masks``.
    ``trail`` holds one saved copy of ``masks`` per open level; ``masks``
    itself stays one list object for the whole run, so propagation and
    search may hold it across an undo.

    ``assigned[x]`` is True while search has committed ``x``; the value is
    its singleton domain.  A branch commits ``x`` only once its propagation
    holds, so no assigned variable is ever wider than one value.
    ``wdeg[x]`` caches the weighted degree of ``x``:
    the summed weights of its constraints with at least one other unassigned
    scope variable.  Only :meth:`assign`, :meth:`unassign` and
    :meth:`bump_weight` change assignments or weights, and each keeps the
    cache exact for every variable, assigned or not."""

    __slots__ = (
        "problem", "tables", "masks", "weights", "assigned", "wdeg", "trail",
    )

    def __init__(self, problem: Problem) -> None:
        t = problem.tables
        self.problem = problem
        self.tables = t
        self.masks = list(t.root_masks)
        self.weights = [1] * len(problem.constraints)
        self.assigned = [False] * problem.n_vars
        self.wdeg = [
            len(pairs) + len(cons) for pairs, cons in zip(t.var_binary, t.var_constraints)
        ]
        self.trail: list[list[int]] = []  # the masks as each open level began

    # -- domain queries ----------------------------------------------------

    def value_of(self, x: int) -> int:
        """The value of a singleton domain."""
        m = self.masks[x]
        if m.bit_count() != 1:
            raise ValueError(f"variable {x} is not singleton")
        return self.problem.domains[x][m.bit_length() - 1]

    # -- assignments and weights -------------------------------------------

    def assign(self, x: int) -> None:
        """Commit the unassigned ``x``.  A constraint left with one
        unassigned scope variable stops counting toward that variable's
        wdeg; one left with none stops counting toward any."""
        assigned = self.assigned
        assigned[x] = True
        weights = self.weights
        wdeg = self.wdeg
        # a binary constraint is left with at most one unassigned variable
        for cid, z in self.tables.var_binary[x]:
            wdeg[z] -= weights[cid]
        for cid, others in self.tables.var_constraints[x]:
            free = [z for z in others if not assigned[z]]
            if len(free) < 2:
                w = weights[cid]
                for z in free or others:
                    wdeg[z] -= w

    def unassign(self, x: int) -> None:
        """Undo :meth:`assign` of the assigned ``x``."""
        assigned = self.assigned
        assigned[x] = False
        weights = self.weights
        wdeg = self.wdeg
        for cid, z in self.tables.var_binary[x]:
            wdeg[z] += weights[cid]
        for cid, others in self.tables.var_constraints[x]:
            free = [z for z in others if not assigned[z]]
            if len(free) < 2:
                w = weights[cid]
                for z in free or others:
                    wdeg[z] += w

    def bump_weight(self, cid: int) -> None:
        """Add one to the weight of constraint ``cid`` and to the wdeg of
        each scope variable that has another unassigned one in it: every
        scope variable when two or more are unassigned, all but the
        unassigned one when it is alone, none when none is."""
        self.weights[cid] += 1
        assigned = self.assigned
        scope = self.problem.constraints[cid].scope
        free = 0
        last = -1
        for z in scope:
            if not assigned[z]:
                free += 1
                last = z
        if free:
            wdeg = self.wdeg
            for z in scope:
                if free > 1 or z != last:
                    wdeg[z] += 1

    # -- trail -------------------------------------------------------------

    def push_level(self) -> int:
        """Open a restoration level by saving a copy of the masks; the token
        for :meth:`undo_to` is that copy's index in the trail."""
        trail = self.trail
        trail.append(self.masks[:])
        return len(trail) - 1

    def undo_to(self, token: int) -> None:
        """Restore exactly the domains that held when ``token`` was pushed,
        in place, and close that level and every level opened after it."""
        trail = self.trail
        self.masks[:] = trail[token]
        del trail[token:]
