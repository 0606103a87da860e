import dataclasses
import itertools
import random
from collections import Counter
from pathlib import Path

import pytest

from branchbench import propagation, search
from branchbench.branching import SCHEME_NAMES, parse_scheme
from branchbench.exprs import Call, Const, VarRef
from branchbench.generators import gen_langford, gen_randomb
from branchbench.instance_io import parse_instance
from branchbench.model import (
    CHUNK_BITS,
    Constraint,
    ExtensionalAllowed,
    ExtensionalForbidden,
    Intensional,
    Problem,
    SearchState,
    check_tuple,
    mask_values,
)
from branchbench.propagation import establish_root_gac, propagate, revise
from branchbench.search import solve
from oracles import binary_slack, gac_fixpoint, reference_propagate, supported_values
from util import (
    _random_intensional,
    arc_entries,
    domain_values,
    make_binary,
    ne_rel,
    random_problem,
    reduce_domain,
)


GOLDEN = Path(__file__).resolve().parent / "golden"


def current_domains(state, n):
    return [domain_values(state, x) for x in range(n)]


def test_revise_removes_unsupported_values():
    # y = x + 2 shape via allowed tuples
    p = make_binary(
        ("x", "y"),
        ((0, 1, 2, 3), (0, 1, 2, 3)),
        [((0, 1), ExtensionalAllowed(frozenset({(0, 2), (1, 3)})))],
    )
    st = SearchState(p)
    # the arcs of constraint 0, in ascending variable order: at x, at y
    at_x, at_y = arc_entries(p)
    assert revise(st, at_x)
    assert domain_values(st, 0) == [0, 1]
    assert revise(st, at_y)
    assert domain_values(st, 1) == [2, 3]
    assert not revise(st, at_x)  # already consistent


def test_root_gac_matches_oracle_on_generated_problems():
    for seed in range(150):
        p = random_problem(seed)
        st = SearchState(p)
        consistent = establish_root_gac(st)
        expected = gac_fixpoint(p)
        if expected is None:
            assert consistent is False
        else:
            assert consistent is True
            assert current_domains(st, p.n_vars) == expected


def test_propagation_is_idempotent():
    for seed in range(40):
        p = random_problem(seed)
        st = SearchState(p)
        if not establish_root_gac(st):
            continue
        before = current_domains(st, p.n_vars)
        assert establish_root_gac(st)
        assert current_domains(st, p.n_vars) == before


def test_wipeout_bumps_only_the_wiping_constraint():
    # x < y and y < x cannot both hold
    p = make_binary(
        ("x", "y"),
        ((0, 1), (0, 1)),
        [
            ((0, 1), ne_rel("x", "y")),
        ],
    )
    # craft a directly wiping constraint: allowed says only (0,0)
    p2 = Problem(
        ("x", "y"),
        ((0, 1), (0, 1)),
        (
            Constraint(0, (0, 1), ("x", "y"), ExtensionalAllowed(frozenset({(0, 0)}))),
            Constraint(1, (0, 1), ("x", "y"), ne_rel("x", "y")),
        ),
    )
    st = SearchState(p2)
    assert not establish_root_gac(st)
    # (0, 0) leaves x = y = 0, which the ne constraint then wipes out
    assert st.weights == [1, 2]
    # p was only used to show the helper; silence the linter
    assert p.n_vars == 2


def test_wipeout_stops_propagation_immediately():
    # first constraint wipes y; the second would also prune but must not run
    p = Problem(
        ("x", "y", "z"),
        ((0,), (0, 1), (0, 1, 2)),
        (
            Constraint(0, (0, 1), ("x", "y"), ExtensionalAllowed(frozenset())),
            Constraint(
                1,
                (1, 2),
                ("y", "z"),
                ExtensionalAllowed(frozenset({(0, 0), (1, 1)})),
            ),
        ),
    )
    st = SearchState(p)
    assert not establish_root_gac(st)
    assert st.weights == [2, 1]
    assert domain_values(st, 2) == [0, 1, 2]  # untouched: queue stopped


def test_decision_arcs_cover_other_scope_vars_sorted():
    p = Problem(
        ("a", "b", "c"),
        ((0, 1), (0, 1), (0, 1)),
        (
            Constraint(0, (0, 1), ("a", "b"), ne_rel("a", "b")),
            Constraint(1, (0, 2), ("a", "c"), ne_rel("a", "c")),
            Constraint(2, (1, 2), ("b", "c"), ne_rel("b", "c")),
        ),
    )
    tables = p.tables
    entries = {}

    def arcs(x, size):
        walked = tables.walk[x][size]
        for entry in walked:
            # one entry object per arc, whose partner is the walked variable
            assert entries.setdefault(entry[:2], entry) is entry
            assert entry[3] == x
        return [entry[:2] for entry in walked]

    # the walk of x lists every arc at its size 1; ne has slack 1, so none at 2
    assert arcs(0, 1) == [(0, 1), (1, 2)]
    assert arcs(1, 1) == [(0, 0), (2, 2)]
    assert arcs(2, 1) == [(1, 0), (2, 1)]
    assert arcs(0, 2) == arcs(1, 2) == arcs(2, 2) == []
    # sizes 0 and 1 exceed no slack, so they share one tuple
    assert all(tables.walk[x][0] is tables.walk[x][1] for x in range(3))


def test_propagate_after_decision_reaches_fixpoint():
    for seed in range(60):
        p = random_problem(seed)
        st = SearchState(p)
        if not establish_root_gac(st):
            continue
        # simulate a decision: assign the first variable its first value
        x = 0
        v = domain_values(st, x)[0]
        st.push_level()
        reduce_domain(st, x, (v,))
        consistent = propagate(st, x)
        domains = [domain_values(st, z) for z in range(p.n_vars)]
        seeded = [list(d) for d in domains] if consistent else None
        expected = gac_fixpoint(p, [[v]] + [domain_values(st, z) for z in range(1, p.n_vars)])
        if consistent:
            # full fixpoint reached: oracle closure of the current domains is a no-op
            assert expected == seeded
        else:
            assert st.masks.count(0) == 1


def test_ternary_constraints_propagate():
    # a + b = c with small domains, written as an allowed table
    triples = frozenset(
        (a, b, a + b) for a in (0, 1, 2) for b in (0, 1, 2) if a + b <= 2
    )
    p = Problem(
        ("a", "b", "c"),
        ((0, 1, 2), (0, 1, 2), (0, 1, 2)),
        (Constraint(0, (0, 1, 2), ("a", "b", "c"), ExtensionalAllowed(triples)),),
    )
    st = SearchState(p)
    assert establish_root_gac(st)
    st.push_level()
    reduce_domain(st, 2, (2,))
    assert propagate(st, 2)
    assert domain_values(st, 0) == [0, 1, 2]
    st.push_level()
    reduce_domain(st, 0, (2,))
    assert propagate(st, 0)
    assert domain_values(st, 1) == [0]


def test_unary_constraint_prunes_at_root():
    p = Problem(
        ("x",),
        ((0, 1, 2, 3, 4),),
        (
            Constraint(
                0,
                (0,),
                ("x",),
                ExtensionalAllowed(frozenset({(1,), (3,)})),
            ),
        ),
    )
    st = SearchState(p)
    assert establish_root_gac(st)
    assert domain_values(st, 0) == [1, 3]


def test_weights_persist_across_undo():
    p = Problem(
        ("x", "y"),
        ((0, 1), (0, 1)),
        (Constraint(0, (0, 1), ("x", "y"), ExtensionalAllowed(frozenset({(0, 1)}))),),
    )
    st = SearchState(p)
    tok = st.push_level()
    reduce_domain(st, 0, (1,))
    assert not propagate(st, 0)
    assert st.weights[0] == 2
    st.undo_to(tok)
    assert st.weights[0] == 2  # weights are not trailed
    assert domain_values(st, 0) == [0, 1]


@pytest.mark.parametrize("seed", range(8))
def test_gac_subset_of_original(seed):
    p = random_problem(seed)
    st = SearchState(p)
    if establish_root_gac(st):
        for x in range(p.n_vars):
            assert set(domain_values(st, x)) <= set(p.domains[x])


def _wipeout_pair(st, consistent, weights_before):
    """None if ``consistent``; else the wipeout as ``(variable, constraint)``,
    read off the state: the one emptied domain and the one weight raised by
    one since ``weights_before``.  A root domain that unary constraints
    emptied raises no weight, and is ``(variable, None)``, the first such
    variable."""
    emptied = [x for x, m in enumerate(st.masks) if not m]
    raised = [c for c, (w, was) in enumerate(zip(st.weights, weights_before)) if w != was]
    if consistent:
        assert emptied == raised == []
        return None
    if not raised:
        assert emptied and st.masks == st.tables.root_masks
        return emptied[0], None
    assert len(emptied) == len(raised) == 1
    assert st.weights[raised[0]] == weights_before[raised[0]] + 1
    return emptied[0], raised[0]


class RemovalLog(list):
    """Domain masks that log each store to one variable as ``(variable,
    removed bits)`` in ``removals``; a slice store, which is how a level is
    restored, passes through unlogged.  Installed as ``state.masks``."""

    def __init__(self, masks):
        super().__init__(masks)
        self.removals = []

    def __setitem__(self, i, new):
        if isinstance(i, int):
            self.removals.append((i, self[i] & ~new))
        super().__setitem__(i, new)


def _removals_since(st, p, start):
    """The removals logged from position ``start`` on, as ``(variable,
    removed values)`` pairs."""
    return [(x, mask_values(p.domains[x], m)) for x, m in st.masks.removals[start:]]


@pytest.fixture
def revise_calls(monkeypatch):
    """Every ``propagation.revise`` call from then on, as its arc's ``(cid,
    var)``."""
    calls = []

    def recording_revise(state, e, _revise=revise):
        calls.append(e[:2])
        return _revise(state, e)

    monkeypatch.setattr(propagation, "revise", recording_revise)
    return calls


def _walk_against_reference(p, r, calls, steps=12):
    """Random decisions and backtracks, propagated by the library and by the
    plain variable queue revising by tuple enumeration; both must give the
    same revisions (every arc but the binary ones a singleton partner's walk
    revises itself) in the same order, removals, wipeouts, weights and
    domains.  ``calls`` is
    the ``revise_calls`` fixture's list.  Returns (decisions, wipeouts)."""
    st = SearchState(p)
    st.masks = RemovalLog(st.masks)
    domains = [list(d) for d in p.domains]
    weights = [1] * len(p.constraints)
    removals = []
    revisions = []
    calls.clear()
    got = _wipeout_pair(st, establish_root_gac(st), weights)
    assert got == reference_propagate(p, domains, weights, None, removals, revisions)
    assert calls == revisions
    assert _removals_since(st, p, 0) == removals
    assert current_domains(st, p.n_vars) == domains
    if got is not None:
        return 0, 0
    decisions = wiped = 0
    levels = []
    for _ in range(steps):
        open_vars = [x for x in range(p.n_vars) if st.masks[x].bit_count() > 1]
        if not open_vars:
            break
        x = r.choice(open_vars)
        values = domain_values(st, x)
        picked = r.choice(values)
        kept = [picked] if r.randrange(2) else [v for v in values if v != picked]
        levels.append((st.push_level(), [list(d) for d in domains]))
        reduce_domain(st, x, kept)
        domains[x] = kept
        start = len(st.masks.removals)
        removals = []
        revisions = []
        calls.clear()
        consistent = propagate(st, x)
        got = _wipeout_pair(st, consistent, weights)
        expected = reference_propagate(p, domains, weights, x, removals, revisions)
        decisions += 1
        wiped += not consistent
        assert got == expected
        assert calls == revisions
        assert _removals_since(st, p, start) == removals
        assert st.weights == weights
        assert current_domains(st, p.n_vars) == domains
        if not consistent or r.randrange(4) == 0:
            token, domains = levels.pop()
            st.undo_to(token)
    return decisions, wiped


@pytest.mark.parametrize("seed", range(8))
def test_propagate_matches_reference_queue_on_mixed_arity(revise_calls, seed):
    decisions = 0
    for sub in range(40):
        p = random_problem(seed * 1000 + sub, max_vars=7, max_dom=6)
        r = random.Random(seed * 1000 + sub)
        decisions += _walk_against_reference(p, r, revise_calls)[0]
    assert decisions >= 40


@pytest.mark.parametrize("seed", range(4))
def test_propagate_matches_reference_queue_on_tight_binary(revise_calls, seed):
    decisions = wiped = 0
    for sub in range(10):
        p = gen_randomb(8, 5, 20, 11, seed * 100 + sub)
        r = random.Random(seed * 100 + sub)
        got = _walk_against_reference(p, r, revise_calls, steps=20)
        decisions += got[0]
        wiped += got[1]
    assert decisions >= 40 and wiped >= 20


@pytest.mark.parametrize("seed", range(6))
def test_propagate_revises_the_reference_arcs_on_structured_walks(revise_calls, seed):
    """Larger domains and longer queues than the random problems: walks on
    them reach arcs the slack test leaves out of one walk and lists in a
    later one, whose no-op revisions the small problems do not show."""
    decisions = 0
    for p in (gen_langford(6), gen_randomb(20, 10, 90, 41, seed)):
        r = random.Random(seed)
        decisions += _walk_against_reference(p, r, revise_calls, steps=20)[0]
    assert decisions >= 30


def test_a_singleton_walk_makes_no_revise_call(revise_calls, monkeypatch):
    """Every constraint of langford is binary, so the variable a walk reads
    is the partner of each arc it revises.  Under 2way, no revise call is
    made while that partner has one value: the walk removes those values
    itself, with one store into the masks."""
    recorded = propagation.revise  # the fixture's recorder
    seen = Counter()
    revise_removals = walk_removals = 0

    def observing_revise(state, e):
        nonlocal revise_removals
        partner = e[3]
        before = len(state.masks.removals)
        removed = recorded(state, e)
        revise_removals += len(state.masks.removals) - before
        seen[state.masks[partner].bit_count() == 1, removed] += 1
        return removed

    def observing_propagate(state, *args, _propagate=search.propagate):
        # the removals a branch's propagation logs outside its revise calls
        nonlocal walk_removals
        before, by_revise = len(state.masks.removals), revise_removals
        try:
            return _propagate(state, *args)
        finally:
            walk_removals += len(state.masks.removals) - before - (revise_removals - by_revise)

    def logging_state(problem, _state=SearchState):
        state = _state(problem)
        state.masks = RemovalLog(state.masks)
        return state

    monkeypatch.setattr(propagation, "revise", observing_revise)
    monkeypatch.setattr(search, "propagate", observing_propagate)
    monkeypatch.setattr(search, "SearchState", logging_state)
    solve(gen_langford(6), parse_scheme("2way"))
    assert seen[True, False] == seen[True, True] == 0
    assert walk_removals >= 1000
    assert seen[False, True] >= 1 and seen[False, False] >= 10
    assert len(revise_calls) == sum(seen.values())


def _row_problems():
    yield from (random_problem(seed, max_vars=7, max_dom=6) for seed in range(60))
    yield parse_instance((GOLDEN / "nary.csp").read_text())
    yield gen_langford(6)


def test_a_singleton_row_lists_the_size_one_walk_with_each_arcs_unsupported_values():
    """``row(y, b)`` holds the entries of ``walk[y][1]``, the same objects in
    the same order, each with its target variable and the values of it that
    ``y``'s value ``b`` does not support: for a binary entry, the complement
    of the target values that ``check_tuple`` accepts beside ``y``'s value
    (-1 where ``b`` supports nothing), -1 for any other."""
    kinds = Counter()
    for p in _row_problems():
        tables = p.tables
        for y, dom in enumerate(p.domains):
            entries = tables.walk[y][1]
            for b in range(len(dom)):
                row = tables.row(y, b)
                assert tables.rows[y][b] is row
                assert len(row) == len(entries)
                for (z, nsup, e), entry in zip(row, entries):
                    assert e is entry and z == entry[1]
                    if entry[3] is None:
                        assert nsup == -1
                        kinds["other"] += 1
                        continue
                    c = p.constraints[entry[0]]
                    supported = sum(
                        1 << i for i, v in enumerate(p.domains[z])
                        if check_tuple(c, (v, dom[b]) if c.scope == (z, y) else (dom[b], v))
                    )
                    assert nsup == ~supported
                    kinds["binary", supported == 0] += 1
    assert kinds["binary", False] >= 1000 and kinds["other"] >= 100
    assert kinds["binary", True] >= 10


def test_a_binary_table_holds_the_values_no_partner_subset_supports():
    """A binary entry's ``table[c][s]`` is the AND, over the set bits ``j``
    of ``s``, of the values of its variable that partner value
    ``c * CHUNK_BITS + j`` does not support by ``check_tuple``; -1 at
    ``s = 0``; and the last chunk has ``2 ** (bits left)`` entries."""
    checked = Counter()
    for p in _row_problems():
        for cid, x, table, partner in arc_entries(p):
            if partner is None:
                continue
            c = p.constraints[cid]
            dom, pdom = p.domains[x], p.domains[partner]
            nsup = [
                ~sum(1 << i for i, v in enumerate(dom)
                     if check_tuple(c, (v, w) if c.scope == (x, partner) else (w, v)))
                for w in pdom
            ]
            chunks = -(-len(pdom) // CHUNK_BITS)
            assert len(table) == chunks
            left = len(pdom) - (chunks - 1) * CHUNK_BITS
            assert [len(t) for t in table] == [2 ** CHUNK_BITS] * (chunks - 1) + [2 ** left]
            for k, chunk in enumerate(table):
                assert chunk[0] == -1
                for s_bits, got in enumerate(chunk):
                    expected = -1
                    for j in range(CHUNK_BITS):
                        if s_bits >> j & 1:
                            expected &= nsup[k * CHUNK_BITS + j]
                    assert got == expected
                    checked[len(pdom) > CHUNK_BITS, expected == -1] += 1
    assert checked[True, False] >= 1000 and checked[False, False] >= 1000
    assert checked[True, True] >= 10 and checked[False, True] >= 10


def test_a_singleton_row_is_built_on_its_first_walk_and_kept_across_solves():
    p = gen_langford(6)
    rows = p.tables.rows
    assert all(r is None for per_var in rows for r in per_var)
    solve(p, parse_scheme("2way"))
    built = {(y, b): r for y, per_var in enumerate(rows) for b, r in enumerate(per_var)
             if r is not None}
    assert len(built) >= 20
    solve(p, parse_scheme("dway"))
    assert p.tables.rows is rows
    assert all(rows[y][b] is r for (y, b), r in built.items())


def test_solves_write_no_table_but_the_singleton_rows():
    """Solving under every scheme leaves each ``_Tables`` slot but ``rows``
    the object it was, equal to a fresh compile's."""
    makers = (lambda: gen_langford(6), lambda: parse_instance((GOLDEN / "nary.csp").read_text()))
    for make in makers:
        p = make()
        tables = p.tables
        assert type(tables).__slots__ == (
            "root_masks", "walk", "rows", "neighbors", "var_binary", "var_constraints",
        )
        slots = [s for s in type(tables).__slots__ if s != "rows"]
        before = {s: getattr(tables, s) for s in slots}
        for name in SCHEME_NAMES:
            solve(p, parse_scheme(name))
        assert p.tables is tables
        compiled = make().tables
        for s in slots:
            assert getattr(tables, s) is before[s], s
            assert getattr(tables, s) == getattr(compiled, s), s


def _slack_of(problem, cid, x):
    """The slack of binary arc ``(cid, x)`` as the walk tables hold it: the
    largest size of its partner at which the partner's walk lists it."""
    (y,) = (z for z in problem.constraints[cid].scope if z != x)
    walk = problem.tables.walk[y]
    return max(s for s in range(len(walk)) if (cid, x) in [e[:2] for e in walk[s]])


def test_slack_of_ne_is_one():
    p = make_binary(("x", "y"), ((0, 1, 2, 3),) * 2, [((0, 1), ne_rel("x", "y"))])
    assert _slack_of(p, 0, 0) == 1
    assert _slack_of(p, 0, 1) == 1


def test_slack_of_a_bijection_is_domain_size_minus_one():
    # y = x + 3 over x in 0..4, y in 3..7: every value has exactly one support
    shift = Intensional(Call("eq", (Call("add", (VarRef("x"), Const(3))), VarRef("y"))))
    p = make_binary(("x", "y"), (tuple(range(5)), tuple(range(3, 8))), [((0, 1), shift)])
    assert _slack_of(p, 0, 0) == 4
    assert _slack_of(p, 0, 1) == 4


def test_unsupported_value_blocks_the_skip():
    # y = x + 1 over 0..4: x = 4 has no support, so the arc at x is never skipped
    shift = Intensional(Call("eq", (Call("add", (VarRef("x"), Const(1))), VarRef("y"))))
    p = make_binary(("x", "y"), (tuple(range(5)),) * 2, [((0, 1), shift)])
    assert _slack_of(p, 0, 0) == 5
    st = SearchState(p)
    assert establish_root_gac(st)
    assert domain_values(st, 0) == [0, 1, 2, 3]
    assert domain_values(st, 1) == [1, 2, 3, 4]


def test_non_binary_arcs_are_never_skippable():
    p = Problem(
        ("a", "b", "c"),
        ((0, 1), (0, 1), (0, 1)),
        (
            Constraint(0, (0,), ("a",), ExtensionalAllowed(frozenset({(1,)}))),
            Constraint(1, (0, 1, 2), ("a", "b", "c"), ExtensionalAllowed(frozenset({(1, 0, 1)}))),
        ),
    )
    tables = p.tables
    for e in arc_entries(p):
        assert e[3] is None
    # the unary constraint has no arc: it cuts a's root mask to its value 1;
    # the ternary arcs at a, b and c are listed in the other two variables'
    # walks at every size
    assert [e[:2] for e in arc_entries(p)] == [(1, 0), (1, 1), (1, 2)]
    assert tables.root_masks == [0b10, 0b11, 0b11]
    for x in range(3):
        for s in range(len(p.domains[x]) + 1):
            assert [e[:2] for e in tables.walk[x][s]] == [(1, z) for z in range(3) if z != x]


def _state_over_original_domains(p):
    """A state of ``p`` whose masks are the whole original domains, not the
    root masks that unary constraints cut: an arc's revision is defined over
    any subsets of them."""
    st = SearchState(p)
    st.masks[:] = [(1 << len(dom)) - 1 for dom in p.domains]
    return st


def test_skip_fires_only_where_revise_removes_nothing():
    """On random domains, any binary arc the slack rule skips is a no-op."""
    fired = 0
    for seed in range(300):
        r = random.Random(seed)
        p = random_problem(seed, max_vars=6, max_dom=6)
        st = _state_over_original_domains(p)
        for x in range(p.n_vars):
            values = domain_values(st, x)
            reduce_domain(st, x, r.sample(values, r.randint(1, len(values))))
        tables = p.tables
        for e in arc_entries(p):
            cid, x, _, partner = e
            if partner is None:
                continue
            listed = tables.walk[partner][st.masks[partner].bit_count()]
            if not any(f is e for f in listed):
                assert st.masks[partner].bit_count() > binary_slack(
                    p.constraints[cid], p.domains, x
                )
                fired += 1
                before = domain_values(st, x)
                assert not revise(st, e)
                assert domain_values(st, x) == before
    assert fired >= 100


def _reversed_binary_scopes(problem):
    """The same problem with every binary scope written high-to-low; tuples
    of extensional relations are reversed with it, so the meaning stays."""
    cons = []
    for c in problem.constraints:
        rel = c.relation
        if len(c.scope) == 2:
            if not isinstance(rel, Intensional):
                rel = type(rel)(frozenset(t[::-1] for t in rel.tuples))
            c = Constraint(c.cid, c.scope[::-1], c.var_names[::-1], rel)
        cons.append(c)
    return Problem(problem.names, problem.domains, tuple(cons))


def _check_every_arc(st, r, counts):
    p = st.problem
    for x in range(p.n_vars):
        values = domain_values(st, x)
        # every third variable becomes a singleton, giving binary arcs a
        # singleton partner
        k = 1 if r.randrange(3) == 0 else r.randint(1, len(values))
        reduce_domain(st, x, r.sample(values, k))
    domains = current_domains(st, p.n_vars)
    # a unary constraint has no arc: ANDing a domain with the root mask cuts
    # it as every unary constraint on its variable does
    for x in range(p.n_vars):
        unary = [c for c in p.constraints if c.scope == (x,)]
        if unary:
            cut = list(domains)
            for c in unary:
                cut[x] = supported_values(c, cut, x)
            kept = st.masks[x] & p.tables.root_masks[x]
            assert list(mask_values(p.domains[x], kept)) == cut[x]
            counts[1, cut[x] != domains[x]] += 1
    for e in arc_entries(p):
        cid, x, _, partner = e
        c = p.constraints[cid]
        expected = supported_values(c, domains, x)
        token = st.push_level()
        changed = revise(st, e)
        assert domain_values(st, x) == expected, (c, x, domains)
        assert changed == (expected != domains[x])
        assert current_domains(st, p.n_vars) == domains[:x] + [expected] + domains[x + 1:]
        st.undo_to(token)
        assert current_domains(st, p.n_vars) == domains
        if len(c.scope) == 2:
            single = st.masks[partner].bit_count() == 1
            key = ("high-to-low" if c.scope[0] > c.scope[1] else "low-to-high", single)
            counts[key + (changed,)] += 1
        else:
            counts[len(c.scope), changed] += 1


def test_revise_every_arc_matches_the_support_oracle():
    counts = Counter()
    for seed in range(200):
        r = random.Random(seed)
        for p in (random_problem(seed), _reversed_binary_scopes(random_problem(seed))):
            st = _state_over_original_domains(p)
            st.push_level()
            _check_every_arc(st, r, counts)
    for order in ("high-to-low", "low-to-high"):
        for single in (True, False):
            for changed in (True, False):
                assert counts[order, single, changed] >= 50, (order, single, changed)
    for arity in (1, 3):
        assert counts[arity, True] >= 50 and counts[arity, False] >= 50


def _rotated_scopes(problem):
    """The same problem with every scope of two or more variables rotated
    right by one, so its last variable comes first and no such scope is
    ascending: ``(v0,v1,v2)`` becomes ``(v2,v0,v1)`` and ``(x0,x1)`` becomes
    ``(x1,x0)``.  Extensional tuples rotate with the scope; an intensional
    expression names its variables, so it stays as it is."""
    cons = []
    for c in problem.constraints:
        if len(c.scope) > 1:
            rel = c.relation
            if not isinstance(rel, Intensional):
                rel = type(rel)(frozenset(t[-1:] + t[:-1] for t in rel.tuples))
            c = Constraint(c.cid, c.scope[-1:] + c.scope[:-1],
                           c.var_names[-1:] + c.var_names[:-1], rel)
        cons.append(c)
    return Problem(problem.names, problem.domains, tuple(cons))


def test_walks_and_search_ignore_the_order_a_scope_is_written_in(revise_calls):
    """Written with no scope of two or more variables ascending, a problem
    compiles walks that list its arcs in ascending ``(cid, var)`` order, each
    entry at its own variable with its own partner, as the ascending problem
    does; so every scheme searches it with the same status, counters, trace
    and ``revise`` calls."""
    problems = [parse_instance((GOLDEN / "nary.csp").read_text()), gen_langford(5)]
    problems += [random_problem(seed, max_vars=7, max_dom=6) for seed in range(30)]
    nodes = ternary = 0
    for ascending in problems:
        rotated = _rotated_scopes(ascending)
        for x in range(rotated.n_vars):
            walk, expected = rotated.tables.walk[x], ascending.tables.walk[x]
            for s in range(len(walk)):
                listed = [e[:2] for e in walk[s]]
                assert listed == sorted(listed) == [e[:2] for e in expected[s]]
                for cid, y, _, partner in walk[s]:
                    scope = rotated.constraints[cid].scope
                    assert y in scope and y != x and x in scope
                    assert partner == (x if len(scope) == 2 else None)
                    ternary += len(scope) == 3
        for name in SCHEME_NAMES:
            runs = []
            for p in (ascending, rotated):
                trace = []
                revise_calls.clear()
                out = solve(p, parse_scheme(name), trace=trace)
                stats = dataclasses.replace(out.stats, elapsed_ms=0.0)
                runs.append((out.status, out.assignment, stats, trace, revise_calls[:]))
            assert runs[0] == runs[1]
            nodes += runs[0][2].nodes
    assert ternary >= 1000 and nodes >= 500


def _wide_problem(r, arity):
    """One constraint over ``arity`` variables of 9-18 values each, so a
    partner's mask spans three to five 4-bit chunks and most domain sizes are
    not a multiple of 4; the scope lists the variables in a random order."""
    names = tuple(f"v{i}" for i in range(arity))
    domains = tuple(
        tuple(sorted(r.sample(range(-4, 30), r.randint(9, 18)))) for _ in range(arity)
    )
    scope = tuple(r.sample(range(arity), arity))
    var_names = tuple(names[x] for x in scope)
    if r.randrange(4) == 0:
        rel = _random_intensional(r, var_names)
    else:
        # sparse allowed or dense forbidden tables remove values; the others
        # mostly keep them
        space = list(itertools.product(*(domains[x] for x in scope)))
        share = r.choice((0.02, 0.1, 0.5, 0.9))
        kind = r.choice((ExtensionalAllowed, ExtensionalForbidden))
        rel = kind(frozenset(r.sample(space, int(share * len(space)))))
    return Problem(names, domains, (Constraint(0, scope, var_names, rel),))


def _wide_mask(r, size, shape):
    """A domain mask over ``size`` values: ``high`` sets two or more bits of
    one 4-bit chunk above the first and no other bit, ``some`` two or more
    bits anywhere, ``one`` a single bit."""
    if shape == "one":
        return 1 << r.randrange(size)
    if shape == "high":
        chunks = [k for k in range(1, (size + 3) // 4) if size - 4 * k >= 2]
        k = r.choice(chunks)
        bits = range(4 * k, min(4 * k + 4, size))
    else:
        bits = range(size)
    return sum(1 << b for b in r.sample(bits, r.randint(2, len(bits))))


def test_revise_matches_the_support_oracle_across_chunk_boundaries():
    counts = Counter()
    for seed in range(120):
        r = random.Random(seed)
        arity = 2 if seed % 3 else 3
        p = _wide_problem(r, arity)
        c = p.constraints[0]
        entries = arc_entries(p)
        for _ in range(6):
            st = SearchState(p)
            shapes = [r.choice(("one", "high", "some", "some")) for _ in range(arity)]
            for z, shape in enumerate(shapes):
                kept = _wide_mask(r, len(p.domains[z]), shape)
                reduce_domain(st, z, mask_values(p.domains[z], kept))
            domains = current_domains(st, arity)
            for e in entries:
                x = e[1]
                expected = supported_values(c, domains, x)
                token = st.push_level()
                changed = revise(st, e)
                assert domain_values(st, x) == expected, (c, x, domains)
                assert changed == (expected != domains[x])
                st.undo_to(token)
                if arity == 2:
                    order = "high-to-low" if c.scope[0] > c.scope[1] else "low-to-high"
                    counts[order, shapes[1 - x], changed] += 1
                else:
                    counts[3, changed] += 1
    for order in ("high-to-low", "low-to-high"):
        for shape in ("high", "some"):
            for changed in (True, False):
                assert counts[order, shape, changed] >= 25, (order, shape, changed)
    assert counts[3, True] >= 50 and counts[3, False] >= 50


def test_revise_reads_the_tables_of_its_own_side():
    # y = x + 1 written as scope (y, x), with domains of different sizes:
    # reading the partner's table for x, or x's table for the partner,
    # gives other values
    shift = Intensional(Call("eq", (Call("add", (VarRef("x"), Const(1))), VarRef("y"))))
    p = Problem(
        ("w", "x", "y"),
        ((0,), (0, 1, 2, 3, 4, 5), (1, 2, 3)),
        (Constraint(0, (2, 1), ("y", "x"), shift),),
    )
    at_x, at_y = arc_entries(p)
    assert (at_x[1], at_y[1]) == (1, 2)
    st = SearchState(p)
    assert revise(st, at_x)
    assert domain_values(st, 1) == [0, 1, 2]
    reduce_domain(st, 2, (3,))  # singleton partner
    assert revise(st, at_x)
    assert domain_values(st, 1) == [2]
    reduce_domain(st, 1, (2,))
    assert not revise(st, at_y)
