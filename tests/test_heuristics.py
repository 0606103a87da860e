import itertools
import random
from collections import Counter
from pathlib import Path

import pytest

from branchbench import search
from branchbench.branching import SCHEME_NAMES, parse_scheme
from branchbench.exprs import Call, Const, VarRef
from branchbench.generators import gen_forced, gen_langford, gen_randomb
from branchbench.heuristics import score_domain, select_variable
from branchbench.instance_io import parse_instance
from branchbench.model import (
    Constraint,
    ExtensionalAllowed,
    Intensional,
    Problem,
    SearchState,
)
from branchbench.propagation import establish_root_gac, propagate
from oracles import promise_scores, reference_wdeg
from util import (
    _random_extensional,
    _random_intensional,
    domain_values,
    ne_rel,
    random_problem,
    reduce_domain,
    remove_values,
    walk_states,
)

GOLDEN = Path(__file__).resolve().parent / "golden"


def intens(name, *args):
    return Intensional(Call(name, args))


def lt_problem():
    """x in {0,1}, y in {0,1,2}, x < y."""
    return Problem(
        ("x", "y"),
        ((0, 1), (0, 1, 2)),
        (Constraint(0, (0, 1), ("x", "y"), intens("lt", VarRef("x"), VarRef("y"))),),
    )


def scored_values(state, x):
    """``score_domain`` with each bit read as its value, in its order."""
    values = state.problem.domains[x]
    return [(values[bit], score) for bit, score in score_domain(state, x)]


def scores_of(state, x):
    """Value -> promise score of every current value of ``x``."""
    return dict(scored_values(state, x))


def test_promise_hand_values():
    st = SearchState(lt_problem())
    assert scores_of(st, 0) == {0: 2, 1: 1}
    assert scores_of(st, 1) == {0: 0, 1: 1, 2: 2}


def test_promise_empty_product_is_one():
    p = Problem(("x", "y"), ((0, 1), (0, 1)), ())
    st = SearchState(p)
    assert scores_of(st, 0) == {0: 1, 1: 1}


def test_promise_multiplies_across_neighbors():
    # triangle of ne over {0,1,2}: every value sees 2*2 compatible pairs
    p = Problem(
        ("a", "b", "c"),
        ((0, 1, 2),) * 3,
        (
            Constraint(0, (0, 1), ("a", "b"), ne_rel("a", "b")),
            Constraint(1, (0, 2), ("a", "c"), ne_rel("a", "c")),
            Constraint(2, (1, 2), ("b", "c"), ne_rel("b", "c")),
        ),
    )
    st = SearchState(p)
    assert scores_of(st, 0) == {0: 4, 1: 4, 2: 4}


def test_promise_requires_all_pair_constraints():
    # y = x+1 and x <= y together pin y to x+1
    p = Problem(
        ("x", "y"),
        ((0, 1), (0, 1, 2)),
        (
            Constraint(
                0,
                (0, 1),
                ("x", "y"),
                intens("eq", Call("add", (VarRef("x"), Const(1))), VarRef("y")),
            ),
            Constraint(1, (0, 1), ("x", "y"), intens("le", VarRef("x"), VarRef("y"))),
        ),
    )
    st = SearchState(p)
    assert scores_of(st, 0) == {0: 1, 1: 1}
    assert [score for _, score in score_domain(st, 1)] == [1, 1, 0]


def test_promise_skips_assigned_neighbors():
    st = SearchState(lt_problem())
    st.assign(1)
    assert scores_of(st, 0) == {0: 1, 1: 1}  # no unassigned neighbors left


def test_promise_counts_nonbinary_as_factor_one():
    triples = frozenset({(0, 0, 0), (1, 1, 1)})
    p = Problem(
        ("a", "b", "c"),
        ((0, 1), (0, 1), (0, 1)),
        (
            Constraint(0, (0, 1, 2), ("a", "b", "c"), __import__("branchbench").model.ExtensionalAllowed(triples)),
            Constraint(1, (0, 1), ("a", "b"), ne_rel("a", "b")),
        ),
    )
    st = SearchState(p)
    # only the binary ne contributes: one compatible value of b per a
    assert scores_of(st, 0) == {0: 1, 1: 1}


def test_score_domain_orders_desc_score_then_asc_value():
    st = SearchState(lt_problem())
    assert scored_values(st, 1) == [(2, 2), (1, 1), (0, 0)]


def test_score_domain_tie_order():
    # symmetric ne: every value of a scores the same; ascending value order
    p = Problem(
        ("a", "b"),
        ((0, 1, 2), (0, 1, 2)),
        (Constraint(0, (0, 1), ("a", "b"), ne_rel("a", "b")),),
    )
    st = SearchState(p)
    assert [v for v, _ in scored_values(st, 0)] == [0, 1, 2]
    assert all(score == 2 for _, score in score_domain(st, 0))


def test_scores_shift_after_sibling_pruning():
    p = Problem(
        ("x", "y"),
        ((0, 1, 2), (0, 1, 2)),
        (Constraint(0, (0, 1), ("x", "y"), ne_rel("x", "y")),),
    )
    st = SearchState(p)
    before = scored_values(st, 1)
    assert before == [(0, 2), (1, 2), (2, 2)]
    st.push_level()
    remove_values(st, 0, (2,))
    after = scored_values(st, 1)
    assert after == [(2, 2), (0, 1), (1, 1)]


def test_wdeg_hand_values_and_selection():
    p = Problem(
        ("x", "y", "z"),
        ((0, 1, 2), (0, 1), (0, 1, 2, 3)),
        (
            Constraint(0, (0, 1), ("x", "y"), ne_rel("x", "y")),
            Constraint(1, (0, 2), ("x", "z"), ne_rel("x", "z")),
        ),
    )
    st = SearchState(p)
    assert st.wdeg == reference_wdeg(st) == [2, 1, 1]
    assert select_variable(st) == 0  # ratios 1.5, 2, 4
    st.assign(2)
    assert st.wdeg[0] == reference_wdeg(st)[0] == 1  # constraint to z no longer counts
    # ratios 3, 2: a wdeg left at 2 would keep x's 1.5 and select x
    assert select_variable(st) == 1
    st.unassign(2)
    assert st.wdeg == [2, 1, 1]
    assert select_variable(st) == 0


def test_bump_weight_keeps_wdeg_exact_for_each_count_of_unassigned_scope_variables():
    """A wipeout bump adds one to each scope variable that has another
    unassigned one in the constraint: to all of them with two or more
    unassigned, to all but the one with exactly one, to none with none."""
    ternary = ExtensionalAllowed(frozenset({(0, 0, 1), (1, 1, 0), (0, 1, 1)}))
    p = Problem(
        ("w", "x", "y", "z"),
        ((0, 1),) * 4,
        (
            Constraint(0, (0, 1), ("w", "x"), ne_rel("w", "x")),
            Constraint(1, (1, 2, 3), ("x", "y", "z"), ternary),
        ),
    )
    seen = Counter()
    for committed in itertools.chain.from_iterable(
        itertools.combinations(range(4), k) for k in range(5)
    ):
        st = SearchState(p)
        for x in committed:
            st.assign(x)
        assert st.wdeg == reference_wdeg(st)
        for c in p.constraints:
            free = sum(not st.assigned[z] for z in c.scope)
            seen[len(c.scope), free] += 1
            st.bump_weight(c.cid)
            assert st.wdeg == reference_wdeg(st)
    assert set(seen) == {(2, 0), (2, 1), (2, 2), (3, 0), (3, 1), (3, 2), (3, 3)}


def test_wdeg_zero_is_ratio_infinity():
    p = Problem(
        ("free", "tied", "other"),
        (tuple(range(10)), (0, 1), (0, 1)),
        (Constraint(0, (1, 2), ("tied", "other"), ne_rel("tied", "other")),),
    )
    st = SearchState(p)
    # "free" has the smallest |D|/wdeg only if wdeg 0 counted as finite
    assert select_variable(st) == 1
    st.assign(1)
    st.assign(2)
    assert select_variable(st) == 0  # last resort


def test_select_variable_tie_breaks_by_id():
    p = Problem(
        ("a", "b"),
        ((0, 1), (0, 1)),
        (Constraint(0, (0, 1), ("a", "b"), ne_rel("a", "b")),),
    )
    st = SearchState(p)
    assert select_variable(st) == 0


def test_select_variable_exact_ratio_compare():
    # |D|=3/wdeg=2 (1.5) vs |D|=2/wdeg=1 (2.0): must pick the first even
    # though naive float division could round badly on huge weights
    p = Problem(
        ("a", "b", "c"),
        ((0, 1, 2), (0, 1), (0, 1)),
        (
            Constraint(0, (0, 1), ("a", "b"), ne_rel("a", "b")),
            Constraint(1, (0, 2), ("a", "c"), ne_rel("a", "c")),
            Constraint(2, (1, 2), ("b", "c"), ne_rel("b", "c")),
        ),
    )
    st = SearchState(p)
    st.weights[0] = 10**18 + 1
    st.weights[1] = 10**18
    st.weights[2] = 10**18
    # search only ever bumps a weight by one; set the cache to match these
    st.wdeg[:] = reference_wdeg(st)
    # ratios: a = 3/(2e18+1), b = 2/(2e18+1), c = 2/(2e18)
    # exact compare: b < a iff 2*(2e18+1) < 3*(2e18+1) yes; b vs c:
    # 2/(2e18+1) < 2/(2e18) so b wins
    assert select_variable(st) == 1


def test_select_requires_an_unassigned_variable():
    """With no unassigned variable, or none of two or more values, selection
    returns -1: the solution test of search."""
    p = Problem(("a",), ((0, 1),), ())
    st = SearchState(p)
    st.assign(0)
    assert select_variable(st) == -1
    # an unassigned singleton is selected while another domain is open
    st = SearchState(Problem(("a", "b"), ((0,), (0, 1)), ()))
    assert select_variable(st) == 0
    remove_values(st, 1, (1,))
    assert select_variable(st) == -1


def test_promise_rejects_values_outside_domain():
    # scores cover exactly the current domain: never 7, never a removed value
    st = SearchState(lt_problem())
    assert set(scores_of(st, 0)) == {0, 1}
    remove_values(st, 0, (1,))
    assert set(scores_of(st, 0)) == {0}


def _random_binary_problem(seed: int) -> Problem:
    r = random.Random(seed)
    n = r.randint(2, 5)
    names = tuple(f"v{i}" for i in range(n))
    domains = tuple(
        tuple(sorted(r.sample(range(0, 7), r.randint(1, 4)))) for _ in range(n)
    )
    cons = []
    for _ in range(r.randint(1, n + 2)):
        u, v = sorted(r.sample(range(n), 2))
        scope = (u, v)
        var_names = (names[u], names[v])
        if r.randrange(2):
            rel = _random_extensional(r, domains, scope)
        else:
            rel = _random_intensional(r, var_names)
        cons.append(Constraint(len(cons), scope, var_names, rel))
    return Problem(names, domains, tuple(cons))


def test_zero_promise_assignments_wipe_a_neighbor():
    """promise 0 must mean: commit the value, propagate, hit a wipeout."""
    checked = 0
    for seed in range(250):
        p = _random_binary_problem(seed)
        st = SearchState(p)
        if not establish_root_gac(st):
            continue
        for x in range(p.n_vars):
            for v, score in scored_values(st, x):
                if score != 0:
                    continue
                checked += 1
                tok = st.push_level()
                reduce_domain(st, x, (v,))
                assert not propagate(st, x)
                st.undo_to(tok)
    assert checked >= 10  # the sweep actually exercised the property


def _walk_checking_scores(p, r, steps=12):
    """At every state of a random walk, ``score_domain`` must equal the
    brute-force oracle for every unassigned variable.  Returns the number
    of (state, variable) pairs checked."""
    checked = 0
    for st in walk_states(p, r, steps):
        for x in range(p.n_vars):
            if not st.assigned[x]:
                assert scored_values(st, x) == promise_scores(st, x)
                checked += 1
    return checked


def test_score_domain_matches_brute_force_oracle():
    checked = 0
    for seed in range(150):
        p = random_problem(seed, max_vars=7, max_dom=6)
        checked += _walk_checking_scores(p, random.Random(seed))
    for seed in range(20):
        p = gen_randomb(8, 5, 20, 11, seed)
        checked += _walk_checking_scores(p, random.Random(seed), steps=20)
    assert checked >= 3000


def test_cached_wdeg_matches_reference_on_random_walks():
    """Decisions, backtracks and wipeout bumps all keep ``SearchState.wdeg``
    equal to the weighted degree computed from scratch, for every variable."""
    nary = parse_instance((GOLDEN / "nary.csp").read_text())
    walks = [(random_problem(seed, max_vars=7, max_dom=6), seed) for seed in range(150)]
    walks += [(gen_randomb(8, 5, 20, 11, seed), seed) for seed in range(10)]
    walks += [(nary, seed) for seed in range(40)]
    checked = 0
    ternary_bumps = Counter()
    for p, seed in walks:
        st = None
        for st in walk_states(p, random.Random(seed), 20):
            assert st.wdeg == reference_wdeg(st)
            checked += 1
        if st is not None:
            for c in p.constraints:
                ternary_bumps[len(c.scope) == 3] += st.weights[c.cid] - 1
    assert checked >= 1000
    assert ternary_bumps[True] >= 100 and ternary_bumps[False] >= 100


@pytest.mark.parametrize("name", SCHEME_NAMES)
def test_cached_wdeg_matches_reference_at_every_selection(monkeypatch, name):
    """At every selection the cached wdeg is exact for every variable,
    assigned ones too, and every assigned variable holds one value: a
    branch commits its variable only once its propagation holds."""
    selections = []
    checked = assigned = 0

    def checked_select(state, _select=search.select_variable):
        nonlocal checked, assigned
        assert state.wdeg == reference_wdeg(state)
        checked += len(state.wdeg)
        for x in range(state.problem.n_vars):
            if state.assigned[x]:
                assert state.masks[x].bit_count() == 1
                assigned += 1
        # each wipeout bumps one weight by one, so this counts them
        selections.append(sum(state.weights) - len(state.weights))
        return _select(state)

    monkeypatch.setattr(search, "select_variable", checked_select)
    nary = parse_instance((GOLDEN / "nary.csp").read_text())
    for problem in (gen_langford(7), nary, gen_forced(30, 20, 150, 180, 1)):
        search.solve(problem, parse_scheme(name), search.Limits(max_nodes=1500))
    # the forced instance bumps weights before some selections
    assert len(selections) > 100 and selections[-1] > 0
    assert checked - assigned >= 5000 and assigned >= 1000
