import itertools
import random
from collections import Counter

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from branchbench.exprs import Call, Const, VarRef
from branchbench.generators import gen_langford
from branchbench.heuristics import select_variable
from branchbench.model import (
    Constraint,
    ExtensionalAllowed,
    ExtensionalForbidden,
    MAX_TABLE_TUPLES,
    Intensional,
    Problem,
    SearchState,
    check_tuple,
)
from branchbench.propagation import revise
from oracles import reference_wdeg
from util import arc_entries, domain_values, ne_rel, random_problem, reduce_domain, remove_values


def two_var_problem(rel):
    return Problem(
        ("x", "y"),
        ((0, 1, 2), (0, 1, 2)),
        (Constraint(0, (0, 1), ("x", "y"), rel),),
    )


def test_domains_normalized_sorted_unique():
    p = Problem(("a",), ((3, 1, 2, 1),), ())
    assert p.domains == ((1, 2, 3),)


def test_empty_domain_rejected():
    with pytest.raises(ValueError):
        Problem(("a",), ((),), ())


def test_duplicate_names_rejected():
    with pytest.raises(ValueError):
        Problem(("a", "a"), ((0,), (0,)), ())


@pytest.mark.parametrize("bad", ["a b", "1x", "", "é"])
def test_names_the_instance_format_cannot_write_rejected(bad):
    # the instance format's names are [A-Za-z_][A-Za-z0-9_]*
    with pytest.raises(ValueError, match=repr(bad)):
        Problem((bad, "x"), ((0, 1), (0,)), ())


def test_cid_must_match_position():
    c = Constraint(1, (0,), ("a",), Intensional(Call("eq", (VarRef("a"), Const(0)))))
    with pytest.raises(ValueError):
        Problem(("a",), ((0,),), (c,))


def test_scope_repeats_rejected():
    c = Constraint(0, (0, 0), ("a", "a"), ne_rel("a", "a"))
    with pytest.raises(ValueError):
        Problem(("a",), ((0, 1),), (c,))


def test_extensional_tuple_outside_domain_rejected():
    rel = ExtensionalAllowed(frozenset({(0, 9)}))
    with pytest.raises(ValueError):
        two_var_problem(rel)


def _first_bad_tuple_message(problem_names, scope, domains, tuples):
    """The message of the per-tuple rule: the first tuple, in set order, of
    the wrong arity or with a value outside its variable's domain."""
    for t in tuples:
        if len(t) != len(scope):
            return f"constraint 0 tuple arity mismatch: {t}"
        for x, v in zip(scope, t):
            if v not in domains[x]:
                return f"constraint 0 tuple value {v} outside the domain of {problem_names[x]}"
    return None


def test_bad_extensional_tuples_are_named_as_by_the_per_tuple_rule():
    names = ("x", "y", "z")
    domains = (tuple(range(6)), tuple(range(2, 9)), tuple(range(-3, 3)))
    r = random.Random(7)
    messages = Counter()
    for _ in range(200):
        arity = r.randint(1, 3)
        scope = tuple(r.sample(range(3), arity))
        good = list(itertools.product(*(domains[x] for x in scope)))
        tuples = set(r.sample(good, r.randint(0, min(len(good), 20))))
        for _ in range(r.randint(0, 2)):
            bad = list(r.choice(good))
            if r.randrange(2):
                bad[r.randrange(arity)] = r.choice((-9, 9, 100))
            else:
                bad = bad[:-1] if r.randrange(2) else bad + [0]
            tuples.add(tuple(bad))
        rel = r.choice((ExtensionalAllowed, ExtensionalForbidden))(frozenset(tuples))
        var_names = tuple(names[x] for x in scope)
        expected = _first_bad_tuple_message(names, scope, domains, rel.tuples)
        constraints = (Constraint(0, scope, var_names, rel),)
        if expected is None:
            Problem(names, domains, constraints)
            messages["none"] += 1
        else:
            with pytest.raises(ValueError) as err:
                Problem(names, domains, constraints)
            assert str(err.value) == expected
            messages[expected.split()[3]] += 1
    assert messages["none"] >= 20 and messages["arity"] >= 20 and messages["value"] >= 20


def test_expression_variable_outside_scope_rejected():
    rel = Intensional(Call("ne", (VarRef("x"), VarRef("z"))))
    with pytest.raises(ValueError):
        two_var_problem(rel)


def test_table_tuple_cap_rejects_large_non_binary_enumerations():
    def problem(sizes, rel):
        names = tuple(f"x{i}" for i in range(len(sizes)))
        domains = tuple(tuple(range(s)) for s in sizes)
        scope = tuple(range(len(sizes)))
        return Problem(names, domains, (Constraint(0, scope, names, rel),))

    total = Call("add", (Call("add", (VarRef("x0"), VarRef("x1"))), VarRef("x2")))
    ternary = Intensional(Call("le", (total, Const(5))))
    forbidden = ExtensionalForbidden(frozenset({(0, 0, 0)}))
    over = (41, 40, 40)  # 65,600 candidate tuples
    assert 41 * 40 * 40 > MAX_TABLE_TUPLES == 64 * 32 * 32
    for rel in (ternary, forbidden):
        with pytest.raises(ValueError, match="MAX_TABLE_TUPLES"):
            problem(over, rel)
        problem((64, 32, 32), rel)  # exactly at the cap
    with pytest.raises(ValueError, match="MAX_TABLE_TUPLES"):
        problem((MAX_TABLE_TUPLES + 1,), Intensional(Call("le", (VarRef("x0"), Const(5)))))
    # allowed tables are listed, not enumerated; binary tables are not rows
    problem(over, ExtensionalAllowed(frozenset({(0, 0, 0), (40, 39, 39)})))
    problem((300, 300), Intensional(Call("ne", (VarRef("x0"), VarRef("x1")))))


def test_binary_tables_are_shared_by_relations_equal_up_to_renaming():
    p = gen_langford(6)

    def covers(op):
        arcs = [e for e in arc_entries(p) if p.constraints[e[0]].relation.expr.op == op]
        return len(arcs), {id(e[3]) for e in arcs}

    n_ne, ne_covers = covers("ne")
    n_eq, eq_covers = covers("eq")
    # every ne(x,y) over 0..11 is one relation: one cover table per side
    assert (n_ne, len(ne_covers)) == (132, 2)
    # eq(add(x,i+1),y) differs in its constant for each pair i
    assert (n_eq, len(eq_covers)) == (12, 12)
    assert not ne_covers & eq_covers

    pairs = frozenset({(0, 1), (1, 2)})
    rels = (ExtensionalForbidden(pairs), ExtensionalForbidden(pairs), ExtensionalAllowed(pairs))
    scopes = ((0, 1), (1, 2), (0, 2))
    names = ("x", "y", "z")
    p = Problem(names, ((0, 1, 2),) * 3, tuple(
        Constraint(i, s, tuple(names[v] for v in s), r)
        for i, (s, r) in enumerate(zip(scopes, rels))
    ))
    # entries 2c and 2c + 1 revise constraint c at its first and second
    # variable; both the supports (opp) and the cover tables are shared
    entries = arc_entries(p)
    for field in (2, 3):
        table = [e[field] for e in entries]
        assert table[0] is table[2] and table[1] is table[3]
        assert table[4] is not table[0] and table[5] is not table[1]


def test_check_tuple_three_relation_kinds():
    allowed = Constraint(
        0, (0, 1), ("x", "y"), ExtensionalAllowed(frozenset({(0, 1), (2, 2)}))
    )
    assert check_tuple(allowed, (0, 1))
    assert not check_tuple(allowed, (1, 0))
    forbidden = Constraint(
        0, (0, 1), ("x", "y"), ExtensionalForbidden(frozenset({(0, 1)}))
    )
    assert not check_tuple(forbidden, (0, 1))
    assert check_tuple(forbidden, (1, 1))
    intensional = Constraint(0, (0, 1), ("x", "y"), ne_rel("x", "y"))
    assert check_tuple(intensional, (0, 1))
    assert not check_tuple(intensional, (1, 1))


def test_check_tuple_eval_error_means_unsatisfied():
    expr = Call("eq", (Call("div", (Const(1), VarRef("x"))), VarRef("y")))
    c = Constraint(0, (0, 1), ("x", "y"), Intensional(expr))
    assert not check_tuple(c, (0, 1))  # division by zero
    assert check_tuple(c, (1, 1))


def test_state_initial_view():
    p = two_var_problem(ne_rel("x", "y"))
    st = SearchState(p)
    assert domain_values(st, 0) == [0, 1, 2]
    assert st.masks[1].bit_count() == 3
    assert 2 in domain_values(st, 0)
    assert 7 not in domain_values(st, 0)
    assert select_variable(st) >= 0  # the solution test: not every domain is one value


def test_a_state_starts_from_the_original_domains_cut_by_every_unary_constraint():
    """``SearchState(p).masks`` are the root masks: each original domain
    without the values that a unary constraint on its variable rejects.  A
    unary constraint has no arc and no ``var_constraints`` row, so no wdeg
    counts it."""
    cut = emptied = 0
    for seed in range(300):
        p = random_problem(seed)
        unary = [c for c in p.constraints if len(c.scope) == 1]
        expected = [
            [v for v in dom if all(check_tuple(c, (v,)) for c in unary if c.scope == (x,))]
            for x, dom in enumerate(p.domains)
        ]
        st = SearchState(p)
        assert [domain_values(st, x) for x in range(p.n_vars)] == expected
        assert st.masks == p.tables.root_masks and st.masks is not p.tables.root_masks
        rows = {cid for cons in p.tables.var_constraints for cid, _ in cons}
        assert rows.isdisjoint(c.cid for c in unary)
        assert all(len(p.constraints[e[0]].scope) > 1 for e in arc_entries(p))
        assert st.wdeg == reference_wdeg(st)
        cut += expected != [list(dom) for dom in p.domains]
        emptied += [] in expected
    assert cut >= 50 and emptied >= 10


def test_remove_and_undo_roundtrip():
    p = two_var_problem(ne_rel("x", "y"))
    st = SearchState(p)
    tok = st.push_level()
    remove_values(st, 0, (1,))
    remove_values(st, 1, (0,))
    remove_values(st, 1, (2,))
    assert domain_values(st, 0) == [0, 2]
    assert domain_values(st, 1) == [1]
    assert st.value_of(1) == 1
    st.undo_to(tok)
    assert domain_values(st, 0) == [0, 1, 2]
    assert domain_values(st, 1) == [0, 1, 2]


def test_remove_missing_value_rejected():
    p = two_var_problem(ne_rel("x", "y"))
    st = SearchState(p)
    remove_values(st, 0, (1,))
    with pytest.raises(ValueError):
        remove_values(st, 0, (1,))
    with pytest.raises(ValueError):
        remove_values(st, 0, (99,))


def test_reduce_domain_checks_subset():
    p = two_var_problem(ne_rel("x", "y"))
    st = SearchState(p)
    remove_values(st, 0, (0,))
    with pytest.raises(ValueError):
        reduce_domain(st, 0, (0, 1))  # 0 was already removed
    with pytest.raises(ValueError):
        reduce_domain(st, 0, ())
    reduce_domain(st, 0, (2,))
    assert domain_values(st, 0) == [2]


def test_value_of_requires_singleton():
    p = two_var_problem(ne_rel("x", "y"))
    st = SearchState(p)
    with pytest.raises(ValueError):
        st.value_of(0)
    # an emptied domain is no singleton either: its mask 0 has no value
    remove_values(st, 1, (0, 1, 2))
    assert st.masks[1] == 0
    with pytest.raises(ValueError):
        st.value_of(1)


def test_nested_levels_restore_in_order():
    p = Problem(("a",), (tuple(range(8)),), ())
    st = SearchState(p)
    t0 = st.push_level()
    remove_values(st, 0, (0,))
    t1 = st.push_level()
    remove_values(st, 0, (1,))
    remove_values(st, 0, (2,))
    st.push_level()
    remove_values(st, 0, (3,))
    st.undo_to(t1)
    assert domain_values(st, 0) == [1, 2, 3, 4, 5, 6, 7]
    st.undo_to(t0)
    assert domain_values(st, 0) == list(range(8))


def test_a_store_after_push_level_leaves_the_saved_level_unchanged():
    p = Problem(("a", "b"), (tuple(range(4)), tuple(range(3))), ())
    st = SearchState(p)
    token = st.push_level()
    saved = list(st.masks)
    remove_values(st, 0, (1, 2))
    reduce_domain(st, 1, (0,))
    assert st.trail[token] == saved != st.masks
    st.undo_to(token)
    assert st.masks == saved


def test_undo_to_restores_into_the_same_masks_list():
    """``propagate`` and ``solve`` hold ``state.masks`` across undos, so a
    restore writes into that list rather than binding another."""
    st = SearchState(two_var_problem(ne_rel("x", "y")))
    masks = st.masks
    token = st.push_level()
    remove_values(st, 0, (0, 1))
    st.undo_to(token)
    assert st.masks is masks and masks == [0b111, 0b111]


def test_nested_levels_of_a_d_way_frame_restore_exactly():
    """A d-way frame opens one level per branch, each at the same token, with
    a nested frame's levels above it: undoing a branch restores the frame's
    domains and closes the nested level it left open."""
    p = Problem(("a", "b", "c"), (tuple(range(3)),) * 3, ())
    st = SearchState(p)
    root = _snapshot(st)
    tokens = []
    for v in range(3):
        token = st.push_level()
        tokens.append(token)
        reduce_domain(st, 0, (v,))
        at_branch = _snapshot(st)
        for w in range(3):  # the nested frame's branches; the last stays open
            inner = st.push_level()
            reduce_domain(st, 1, (w,))
            remove_values(st, 2, (w,))
            if w < 2:
                st.undo_to(inner)
                assert _snapshot(st) == at_branch
        assert len(st.trail) == 2
        st.undo_to(token)
        assert _snapshot(st) == root and st.trail == []
    assert tokens == [0, 0, 0]


def test_an_emptied_domain_comes_back():
    st = SearchState(two_var_problem(ne_rel("x", "y")))
    token = st.push_level()
    reduce_domain(st, 1, (1,))
    remove_values(st, 0, (0, 1, 2))  # a wipeout leaves the mask 0
    assert st.masks == [0, 0b010]
    st.undo_to(token)
    assert st.masks == [0b111, 0b111]


# (variable, bits of values to remove, undo instead): a, b, c hold 0..3,
# 0..2, 0..3, so the value at bit i is i
_STEPS = st.lists(st.tuples(st.integers(0, 2), st.integers(0, 15), st.booleans()), max_size=30)


@given(_STEPS)
# every domain one value (-1), then c emptied beside two singletons (still
# -1: no domain of two or more values), then that undone (-1)
@example([(0, 0b1110, False), (1, 0b110, False), (2, 0b1110, False), (2, 0b1, False),
          (0, 0, True)])
def test_solution_test_matches_masks(steps):
    """Over removals, emptied domains and undos, the solution test (a -1
    from ``select_variable``) holds exactly when no domain has two or more
    values.  Search asks it only in consistent states, where no domain is
    empty, so there it means every domain holds one value."""
    p = Problem(
        ("a", "b", "c"),
        (tuple(range(4)), tuple(range(3)), tuple(range(4))),
        (),
    )
    state = SearchState(p)
    tokens = []
    for x, bits, undo in steps:
        if undo and tokens:
            state.undo_to(tokens.pop())
        else:
            tokens.append(state.push_level())
            remove_values(state, x, [v for v in domain_values(state, x) if bits >> v & 1])
        assert (select_variable(state) < 0) == all(m.bit_count() <= 1 for m in state.masks)
    if tokens:
        state.undo_to(0)  # with no level open, every removal is undone already
    assert [m.bit_count() for m in state.masks] == [4, 3, 4] and select_variable(state) >= 0


def _snapshot(state):
    return list(state.masks)


def test_trail_restores_multi_value_shrinks_under_nested_levels():
    lt = Intensional(Call("lt", (VarRef("x"), VarRef("y"))))
    p = Problem(
        ("x", "y", "z"),
        (tuple(range(4)), tuple(range(3)), tuple(range(4))),
        (Constraint(0, (0, 1), ("x", "y"), lt),),
    )
    at_x, at_y = arc_entries(p)  # the arcs of x < y
    st = SearchState(p)
    base = _snapshot(st)
    t0 = st.push_level()
    reduce_domain(st, 2, (1, 3))
    assert len(st.trail) == 1  # one level per push_level, however many values shrink
    after_z = _snapshot(st)

    t1 = st.push_level()
    reduce_domain(st, 0, (1,))
    assert revise(st, at_y)  # y: 3 values -> 1
    assert domain_values(st, 1) == [2]
    assert len(st.trail) == 2
    after_y = _snapshot(st)
    t2 = st.push_level()
    remove_values(st, 1, (2,))  # empties y
    assert st.masks[1] == 0
    st.undo_to(t2)
    assert _snapshot(st) == after_y
    t2 = st.push_level()
    remove_values(st, 2, (3, 1))  # empties z in one store
    assert st.masks[2] == 0 and len(st.trail) == 3
    st.undo_to(t2)
    assert _snapshot(st) == after_y
    st.undo_to(t1)
    assert _snapshot(st) == after_z

    t1 = st.push_level()
    reduce_domain(st, 1, (0,))
    assert revise(st, at_x)  # x < 0 empties x: 4 values -> 0
    assert st.masks[0] == 0 and len(st.trail) == 2
    st.undo_to(t1)
    assert _snapshot(st) == after_z
    st.undo_to(t0)
    assert _snapshot(st) == base
    assert st.trail == []


def test_trail_restores_snapshots_on_random_walks():
    """Random revisions, reductions and removals under nested levels: the
    trail holds one level per open ``push_level`` whatever shrinks, and
    every undo restores its snapshot."""
    shrinks = Counter()
    for seed in range(150):
        r = random.Random(seed)
        p = random_problem(seed, max_vars=6, max_dom=6)
        st = SearchState(p)
        entries = arc_entries(p)
        levels = [(st.push_level(), _snapshot(st))]
        for _ in range(40):
            op = r.randrange(6)
            open_vars = [x for x in range(p.n_vars) if st.masks[x]]
            if op == 0 or not open_vars:
                levels.append((st.push_level(), _snapshot(st)))
                continue
            if op == 1 and len(levels) > 1:
                token, snap = levels.pop()
                st.undo_to(token)
                assert _snapshot(st) == snap
                continue
            x = r.choice(open_vars)
            values = domain_values(st, x)
            sizes = [m.bit_count() for m in st.masks]  # before this step
            before = len(st.trail)
            if op in (1, 2) and entries:
                e = entries[r.randrange(len(entries))]
                x = e[1]
                assert revise(st, e) == (st.masks[x].bit_count() < sizes[x])
                how = "revise"
            elif op in (1, 2, 3):
                # a problem of unary constraints only has no arc to revise
                reduce_domain(st, x, r.sample(values, r.randint(1, len(values))))
                how = "reduce_domain"
            elif op == 4:
                remove_values(st, x, (r.choice(values),))
                how = "remove_values"
            else:
                remove_values(st, x, r.sample(values, r.randint(1, len(values))))
                how = "remove_values"
            size = st.masks[x].bit_count()
            shrank = size < sizes[x]
            assert len(st.trail) == before == len(levels)
            if shrank and sizes[x] - size > 1:
                shrinks[how] += 1
        while levels:
            token, snap = levels.pop()
            st.undo_to(token)
            assert _snapshot(st) == snap
    # multi-value shrinks through every entry point
    assert min(shrinks[h] for h in ("revise", "reduce_domain", "remove_values")) >= 50
