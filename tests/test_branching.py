"""Branch plan construction for all seven schemes."""

import pickle
import random
from fractions import Fraction

import pytest

from branchbench.branching import (
    SCHEME_NAMES,
    Scheme,
    parse_scheme,
    plan,
)
from branchbench.heuristics import select_variable
from branchbench.model import SearchState
from branchbench.propagation import establish_root_gac
from oracles import promise_scores, reference_plan
from util import domain_values, make_binary, ne_rel, random_problem, remove_values, walk_states

from branchbench.exprs import Call, VarRef
from branchbench.model import Constraint, Intensional, Problem


def rooted(problem):
    state = SearchState(problem)
    state.push_level()
    assert establish_root_gac(state)
    return state


def scheme(name, threshold=Fraction(1, 4), kmax=4):
    return parse_scheme(name, threshold, kmax)


# x ne y with dom(x) = 0..5, dom(y) = 0..2: values 3..5 score 3, values
# 0..2 score 2, so there are exactly two tie groups and two clusters
def two_plateau_state():
    p = make_binary(
        ("x", "y"), (tuple(range(6)), (0, 1, 2)), [((0, 1), ne_rel("x", "y"))]
    )
    return rooted(p)


def test_dway_enumerates_promise_order():
    got = plan(scheme("dway"), two_plateau_state(), 0)
    assert got.sets == ((3,), (4,), (5,), (0,), (1,), (2,))


def test_two_way_takes_best_value():
    got = plan(scheme("2way"), two_plateau_state(), 0)
    assert got.sets == ((3,),)


def test_split_takes_top_half_of_promise_order():
    got = plan(scheme("split"), two_plateau_state(), 0)
    assert got.sets == ((3, 4, 5),)


def test_split_rounds_odd_domains_up():
    # dom(x) = 0..4 against y in 0..2: scores 3,3,2,2,2 -> top ceil(5/2)=3
    p = make_binary(
        ("x", "y"), (tuple(range(5)), (0, 1, 2)), [((0, 1), ne_rel("x", "y"))]
    )
    got = plan(scheme("split"), rooted(p), 0)
    assert got.sets == ((0, 3, 4),)


def test_ties_group_equal_scores():
    dway_like = plan(scheme("ties-dway"), two_plateau_state(), 0)
    assert dway_like.sets == ((3, 4, 5), (0, 1, 2))

    binary_like = plan(scheme("ties-2way"), two_plateau_state(), 0)
    assert binary_like.sets == ((3, 4, 5),)


def test_clustering_splits_the_plateaus():
    dway_like = plan(scheme("clust-dway"), two_plateau_state(), 0)
    assert dway_like.sets == ((3, 4, 5), (0, 1, 2))

    binary_like = plan(scheme("clust-2way"), two_plateau_state(), 0)
    assert binary_like.sets == ((3, 4, 5),)


# ------------------------------------------------------------- fallbacks

def test_all_distinct_scores_fall_back_to_plain_schemes():
    # x < y with wide y: supports 9-v are pairwise distinct
    expr = Intensional(Call("lt", (VarRef("x"), VarRef("y"))))
    p = Problem(
        ("x", "y"),
        (tuple(range(4)), tuple(range(10))),
        (Constraint(0, (0, 1), ("x", "y"), expr),),
    )
    state = rooted(p)
    assert plan(scheme("ties-dway"), state, 0) == plan(scheme("dway"), state, 0)
    assert plan(scheme("ties-2way"), state, 0) == plan(scheme("2way"), state, 0)


def test_single_tie_group_falls_back():
    # no binary neighbors: every promise score is the empty product 1
    p = Problem(("x",), (tuple(range(5)),), ())
    state = rooted(p)
    assert plan(scheme("ties-dway"), state, 0) == plan(scheme("dway"), state, 0)
    assert plan(scheme("ties-2way"), state, 0) == plan(scheme("2way"), state, 0)
    # constant scores also mean one cluster
    assert plan(scheme("clust-dway"), state, 0) == plan(scheme("dway"), state, 0)
    assert plan(scheme("clust-2way"), state, 0) == plan(scheme("2way"), state, 0)


def test_kmax_one_always_falls_back():
    state = two_plateau_state()
    assert plan(scheme("clust-dway", kmax=1), state, 0) == plan(
        scheme("dway"), state, 0
    )
    assert plan(scheme("clust-2way", kmax=1), state, 0) == plan(
        scheme("2way"), state, 0
    )


def test_threshold_one_disables_splitting_everywhere():
    for seed in range(40):
        p = random_problem(seed)
        state = SearchState(p)
        state.push_level()
        if not establish_root_gac(state):
            continue
        x = select_variable(state)
        if x < 0:  # every domain one value: no plan to make
            continue
        for name in ("ties-dway", "clust-dway"):
            assert plan(scheme(name, threshold=1), state, x) == plan(
                scheme("dway"), state, x
            )
        for name in ("split", "ties-2way", "clust-2way"):
            assert plan(scheme(name, threshold=1), state, x) == plan(
                scheme("2way"), state, x
            )


def test_threshold_boundary_is_exact():
    # original size 8; at threshold 1/4 splitting needs size * 4 > 8
    p = make_binary(
        ("x", "y"), (tuple(range(8)), (0, 1, 2)), [((0, 1), ne_rel("x", "y"))]
    )
    state = rooted(p)

    token = state.push_level()
    for v in (1, 2, 3, 4, 5):  # keep {0,6,7}: scores 2,3,3 -> two tie groups
        remove_values(state, 0, (v,))
    engaged = plan(scheme("ties-dway"), state, 0)
    assert engaged.sets == ((6, 7), (0,))
    state.undo_to(token)

    token = state.push_level()
    for v in (1, 2, 3, 4, 5, 6):  # size 2: exactly a quarter, must not engage
        remove_values(state, 0, (v,))
    assert plan(scheme("ties-dway"), state, 0) == plan(scheme("dway"), state, 0)
    state.undo_to(token)


# ------------------------------------------------------ reference oracle

SET_SCHEMES = ("ties-dway", "ties-2way", "clust-dway", "clust-2way")


def test_set_scheme_plans_match_the_reference_on_random_walks():
    schemes = [
        scheme(name, threshold, kmax)
        for name in SET_SCHEMES
        for threshold in (0, Fraction(1, 4))
        for kmax in (1, 2, 4)
    ]
    # engaged (domain above a quarter of the original) states per scheme,
    # split by whether the variable's values have one distinct score
    engaged = {(name, several): 0 for name in SET_SCHEMES for several in (False, True)}
    for seed in range(120):
        p = random_problem(seed, max_vars=7, max_dom=6)
        for state in walk_states(p, random.Random(seed), steps=12):
            for x in range(p.n_vars):
                if state.assigned[x]:
                    continue
                several = len({score for _, score in promise_scores(state, x)}) > 1
                for sc in schemes:
                    assert plan(sc, state, x) == reference_plan(sc, state, x)
                if 4 * state.masks[x].bit_count() > len(p.domains[x]):
                    for name in SET_SCHEMES:
                        engaged[name, several] += 1
    assert min(engaged.values()) >= 50, engaged


# ------------------------------------------------------------ invariants

@pytest.mark.parametrize("name", SCHEME_NAMES)
def test_plan_shape_invariants(name):
    sc = scheme(name)
    binary = sc.binary
    for seed in range(60):
        p = random_problem(seed)
        state = SearchState(p)
        state.push_level()
        if not establish_root_gac(state):
            continue
        x = select_variable(state)
        if x < 0:  # every domain one value: no plan to make
            continue
        got = plan(sc, state, x)
        domain = set(domain_values(state, x))
        seen = []
        for s in got.sets:
            assert s == tuple(sorted(s))
            assert len(s) == len(set(s)) > 0
            assert set(s) <= domain
            seen.extend(s)
        assert len(seen) == len(set(seen))
        if binary:
            assert len(got.masks) == len(got.sets) == 1
        else:
            assert set(seen) == domain


@pytest.mark.parametrize("name", SCHEME_NAMES)
def test_plan_masks_cut_the_current_domain(name):
    """On random-walk states, every plan mask is a non-empty subset of the
    current domain, disjoint from the plan's other masks; an enumerated plan
    covers the domain and a binary plan has one mask."""
    schemes = (scheme(name), scheme(name, kmax=1), scheme(name, threshold=0))
    binary = schemes[0].binary
    plans = set_masks = 0
    for seed in range(150):
        p = random_problem(seed, max_vars=7, max_dom=6)
        for state in walk_states(p, random.Random(seed), steps=12):
            for x in range(p.n_vars):
                if state.assigned[x]:
                    continue
                cur = state.masks[x]
                for sc in schemes:
                    got = plan(sc, state, x)
                    plans += 1
                    union = 0
                    for m in got.masks:
                        assert m != 0
                        assert m & ~cur == 0
                        assert m & union == 0
                        union |= m
                        set_masks += m.bit_count() > 1
                    if binary:
                        assert len(got.masks) == 1
                    else:
                        assert union == cur
    assert plans >= 3000
    if name not in ("dway", "2way"):
        assert set_masks >= 50
    else:
        assert set_masks == 0


# -------------------------------------------------------------- parsing

def test_parse_scheme_roundtrip():
    # name -> (binary style?, partition), written out apart from the library's table
    expected = {
        "dway": (False, "none"),
        "2way": (True, "none"),
        "split": (True, "split"),
        "ties-dway": (False, "ties"),
        "ties-2way": (True, "ties"),
        "clust-dway": (False, "clust"),
        "clust-2way": (True, "clust"),
    }
    assert SCHEME_NAMES == tuple(expected)
    for name in SCHEME_NAMES:
        sc = parse_scheme(name)
        assert (sc.name, sc.binary, sc.partition) == (name, *expected[name])
        assert sc.threshold_fraction == Fraction(1, 4)
        assert sc.kmax == 4
    # the style and partition follow from the name, so they neither compare
    # nor show: a scheme is its three init fields
    sc = Scheme("clust-2way")
    assert sc == parse_scheme("clust-2way")
    assert hash(sc) == hash(parse_scheme("clust-2way"))
    assert sc != Scheme("clust-2way", kmax=2)
    assert repr(sc) == "Scheme(name='clust-2way', threshold_fraction=Fraction(1, 4), kmax=4)"
    copy = pickle.loads(pickle.dumps(sc))
    assert (copy, copy.binary, copy.partition) == (sc, True, "clust")


def test_parse_scheme_rejects_unknown_names():
    with pytest.raises(ValueError, match="unknown scheme") as parsed:
        parse_scheme("3way")
    with pytest.raises(ValueError) as built:
        Scheme("3way")
    assert str(built.value) == str(parsed.value)


def test_scheme_validates_parameters():
    with pytest.raises(ValueError):
        Scheme("dway", threshold_fraction=Fraction(5, 4))
    with pytest.raises(ValueError):
        Scheme("dway", threshold_fraction=Fraction(-1, 4))
    with pytest.raises(ValueError):
        Scheme("clust-dway", kmax=0)
    assert Scheme("dway", threshold_fraction=0).threshold_fraction == 0
    assert Scheme("dway", threshold_fraction=1).threshold_fraction == 1
