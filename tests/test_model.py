import pytest
from hypothesis import given
from hypothesis import strategies as st

from branchbench.exprs import Call, Const, VarRef
from branchbench.model import (
    Constraint,
    ExtensionalAllowed,
    ExtensionalForbidden,
    Intensional,
    Problem,
    SearchState,
    check_tuple,
)
from util import ne_rel


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


def test_expression_variable_outside_scope_rejected():
    rel = Intensional(Call("ne", (VarRef("x"), VarRef("z"))))
    with pytest.raises(ValueError):
        two_var_problem(rel)


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
    assert st.domain_values(0) == [0, 1, 2]
    assert st.sizes[1] == 3
    assert st.has_value(0, 2)
    assert not st.has_value(0, 7)
    assert not st.all_singleton()


def test_remove_and_undo_roundtrip():
    p = two_var_problem(ne_rel("x", "y"))
    st = SearchState(p)
    tok = st.push_level()
    st.remove_value(0, 1)
    st.remove_value(1, 0)
    st.remove_value(1, 2)
    assert st.domain_values(0) == [0, 2]
    assert st.domain_values(1) == [1]
    assert st.value_of(1) == 1
    st.undo_to(tok)
    assert st.domain_values(0) == [0, 1, 2]
    assert st.domain_values(1) == [0, 1, 2]


def test_remove_missing_value_rejected():
    p = two_var_problem(ne_rel("x", "y"))
    st = SearchState(p)
    st.remove_value(0, 1)
    with pytest.raises(ValueError):
        st.remove_value(0, 1)
    with pytest.raises(ValueError):
        st.remove_value(0, 99)


def test_reduce_domain_checks_subset():
    p = two_var_problem(ne_rel("x", "y"))
    st = SearchState(p)
    st.remove_value(0, 0)
    with pytest.raises(ValueError):
        st.reduce_domain(0, (0, 1))  # 0 was already removed
    with pytest.raises(ValueError):
        st.reduce_domain(0, ())
    st.reduce_domain(0, (2,))
    assert st.domain_values(0) == [2]


def test_value_of_requires_singleton():
    p = two_var_problem(ne_rel("x", "y"))
    st = SearchState(p)
    with pytest.raises(ValueError):
        st.value_of(0)


def test_nested_levels_restore_in_order():
    p = Problem(("a",), (tuple(range(8)),), ())
    st = SearchState(p)
    t0 = st.push_level()
    st.remove_value(0, 0)
    t1 = st.push_level()
    st.remove_value(0, 1)
    st.remove_value(0, 2)
    st.push_level()
    st.remove_value(0, 3)
    st.undo_to(t1)
    assert st.domain_values(0) == [1, 2, 3, 4, 5, 6, 7]
    st.undo_to(t0)
    assert st.domain_values(0) == list(range(8))


@given(st.lists(st.integers(0, 9), min_size=1, max_size=30), st.integers(0, 3))
def test_singleton_counter_tracks_sizes(removals, _shape):
    p = Problem(
        ("a", "b", "c"),
        (tuple(range(4)), tuple(range(3)), tuple(range(4))),
        (),
    )
    st_state = SearchState(p)
    tok = st_state.push_level()
    for r in removals:
        x = r % 3
        dom = st_state.domain_values(x)
        if len(dom) > 1:
            st_state.remove_value(x, dom[r % len(dom)])
        expected = sum(1 for v in range(3) if st_state.sizes[v] == 1)
        assert st_state.singletons == expected
    st_state.undo_to(tok)
    assert st_state.singletons == 0
    assert [st_state.domain_values(i) for i in range(3)] == [
        [0, 1, 2, 3],
        [0, 1, 2],
        [0, 1, 2, 3],
    ]
