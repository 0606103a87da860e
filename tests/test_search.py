"""Search engine: soundness, completeness, counters, limits, traces."""

import pytest

from branchbench.branching import SCHEME_NAMES, parse_scheme
from branchbench.exprs import Call, Const, VarRef
from branchbench.generators import gen_langford, gen_pigeons, gen_qwh
from branchbench.model import Constraint, Intensional, Problem
from branchbench.search import Limits, Status, solve, verify
from oracles import brute_force_sat, brute_force_solutions
from util import TRACE_LINE, make_binary, ne_rel, random_problem

ALL_SCHEMES = tuple(parse_scheme(name) for name in SCHEME_NAMES)


@pytest.mark.parametrize("name", SCHEME_NAMES)
def test_agrees_with_brute_force(name):
    scheme = parse_scheme(name)
    sat_seen = unsat_seen = 0
    for seed in range(150):
        problem = random_problem(seed)
        out = solve(problem, scheme)
        expected = brute_force_sat(problem)
        assert (out.status is Status.SAT) == expected, f"seed {seed}"
        if expected:
            sat_seen += 1
            assert verify(problem, out.assignment)
        else:
            unsat_seen += 1
            assert out.assignment is None
    assert sat_seen > 20 and unsat_seen > 20


def test_found_solution_is_a_known_solution():
    for seed in (3, 11, 19, 42):
        problem = random_problem(seed)
        solutions = brute_force_solutions(problem)
        if not solutions:
            continue
        for scheme in ALL_SCHEMES:
            out = solve(problem, scheme)
            assert out.status is Status.SAT
            assert out.assignment in solutions


def test_solving_twice_is_identical():
    problem = gen_pigeons(5)
    for scheme in ALL_SCHEMES:
        a = solve(problem, scheme)
        b = solve(problem, scheme)
        assert a.status is b.status is Status.UNSAT
        assert (a.stats.nodes, a.stats.decisions, a.stats.backtracks) == (
            b.stats.nodes,
            b.stats.decisions,
            b.stats.backtracks,
        )


def test_hand_counted_two_node_refutation():
    # x,y in {0,1} with x!=y and x==y: GAC at the root holds, both branches
    # of the first choice point wipe out immediately
    problem = make_binary(
        ("x", "y"),
        ((0, 1), (0, 1)),
        [((0, 1), ne_rel("x", "y")), ((0, 1), _eq("x", "y"))],
    )
    for name in ("2way", "dway"):
        out = solve(problem, parse_scheme(name))
        assert out.status is Status.UNSAT
        assert out.stats.nodes == 2
        assert out.stats.decisions == 1
        assert out.stats.wipeouts == 2


def _eq(a, b):
    from branchbench.exprs import Call, VarRef
    from branchbench.model import Intensional

    return Intensional(Call("eq", (VarRef(a), VarRef(b))))


def test_root_propagation_alone_can_solve():
    # no holes: every cell is already a singleton, search never starts
    problem = gen_qwh(4, 0, seed=1)
    out = solve(problem, parse_scheme("dway"))
    assert out.status is Status.SAT
    assert out.stats.nodes == 0
    assert out.stats.decisions == 0
    assert verify(problem, out.assignment)


def test_forced_value_is_committed_without_a_node():
    # x's only value passes root GAC, so selecting x commits it without a
    # choice point: no node, decision or backtrack, and one F trace line
    def rel(op, a, b):
        return Intensional(Call(op, (VarRef(a), VarRef(b))))

    problem = make_binary(
        ("x", "y", "z"),
        ((0,), (0, 1), (0, 1)),
        [
            ((0, 1), rel("le", "x", "y")),
            ((0, 2), rel("le", "x", "z")),
            ((1, 2), rel("ne", "y", "z")),
            ((1, 2), rel("eq", "y", "z")),
        ],
    )
    for name in ("2way", "split", "dway"):
        trace: list[str] = []
        out = solve(problem, parse_scheme(name), trace=trace)
        assert out.status is Status.UNSAT
        s = out.stats
        assert (s.nodes, s.decisions, s.wipeouts, s.backtracks) == (2, 1, 2, 2)
        if name == "dway":
            assert trace == ["0 x {0} F", "1 y {0} E#0", "1 y {1} E#1"]
        else:
            assert trace == ["0 x {0} F", "1 y {0} L", "1 y {0} R"]


def test_node_limit_counts_real_nodes_only():
    # the limit is read only before a real node, and 60 forced commits
    # come between this run's 13 nodes
    problem = gen_qwh(9, 50, seed=1)
    out = solve(problem, parse_scheme("2way"), Limits(max_nodes=13))
    assert out.status is Status.SAT and out.stats.nodes == 13
    out = solve(problem, parse_scheme("2way"), Limits(max_nodes=12))
    assert out.status is Status.LIMIT and out.stats.nodes == 12


def test_root_wipeout_is_unsat_with_zero_nodes():
    # root GAC wipes out, which counts as the one wipeout of a search of no node
    problem = make_binary(("x", "y"), ((0,), (0,)), [((0, 1), ne_rel("x", "y"))])
    for scheme in ALL_SCHEMES:
        out = solve(problem, scheme)
        assert out.status is Status.UNSAT and out.assignment is None
        s = out.stats
        assert (s.nodes, s.decisions, s.wipeouts, s.backtracks) == (0, 0, 1, 0), scheme.name


@pytest.mark.parametrize("name", SCHEME_NAMES)
def test_known_families(name):
    scheme = parse_scheme(name)
    assert solve(gen_pigeons(4), scheme).status is Status.UNSAT
    out = solve(gen_langford(4), scheme)
    assert out.status is Status.SAT
    assert verify(gen_langford(4), out.assignment)


def test_node_limit_respected():
    problem = gen_pigeons(7)
    out = solve(problem, parse_scheme("dway"), Limits(max_nodes=0))
    assert out.status is Status.LIMIT
    assert out.stats.nodes == 0
    assert out.stats.decisions == 0
    assert out.assignment is None

    out = solve(problem, parse_scheme("dway"), Limits(max_nodes=50))
    assert out.status is Status.LIMIT
    assert out.stats.nodes <= 50


def test_time_limit_respected():
    problem = gen_pigeons(9)
    out = solve(problem, parse_scheme("2way"), Limits(wall_time_ms=1.0))
    assert out.status is Status.LIMIT
    assert out.stats.elapsed_ms < 5000.0


def parity_sums(d: int, total: int) -> Problem:
    """Eight ``x+y+z = s`` constraints over 12 variables with domains
    ``0..d-1``, each variable in exactly two of them.  The targets are
    ``total`` except one ``total + 1``: summing every constraint gives
    ``2 * sum(x) = 8 * total + 1``, so the problem is unsat by parity, which
    arc consistency cannot see; search runs far past any short time limit."""
    names = tuple(f"v{i}" for i in range(12))
    scopes = (
        (0, 1, 2), (3, 4, 5), (6, 7, 8), (9, 10, 11),
        (0, 3, 6), (1, 4, 9), (2, 7, 10), (5, 8, 11),
    )
    cons = []
    for k, scope in enumerate(scopes):
        x, y, z = (VarRef(names[v]) for v in scope)
        target = Const(total + (k == 0))
        expr = Call("eq", (Call("add", (Call("add", (x, y)), z)), target))
        cons.append(Constraint(k, scope, tuple(names[v] for v in scope), Intensional(expr)))
    return Problem(names, (tuple(range(d)),) * 12, tuple(cons))


def test_time_limit_bounds_a_tight_ternary_solve():
    # x+y+z = 72 over 0..29 is tight: values below 14 have no support, and
    # each arc keeps at most 136 satisfying tuples.  solve compiles the
    # tables before its clock starts.
    problem = parity_sums(30, 72)
    limit_ms = 50.0
    out = solve(problem, parse_scheme("2way"), Limits(wall_time_ms=limit_ms))
    # the clock is read before every decision; the margin covers root
    # propagation and the node in flight when the limit passes
    margin_ms = 250.0
    assert out.stats.elapsed_ms <= limit_ms + margin_ms
    assert out.status is Status.LIMIT
    assert out.stats.nodes > 0


def test_time_limit_is_checked_at_every_node():
    # with target 60 each arc keeps 406 rows, so a node costs milliseconds and
    # a limit read only every few dozen nodes overshoots by hundreds of ms
    problem = parity_sums(30, 60)
    limit_ms = 50.0
    out = solve(problem, parse_scheme("2way"), Limits(wall_time_ms=limit_ms))
    assert out.status is Status.LIMIT
    assert out.stats.elapsed_ms <= limit_ms + 100.0


def test_limits_do_not_block_root_results():
    problem = gen_qwh(4, 0, seed=1)
    out = solve(problem, parse_scheme("dway"), Limits(max_nodes=0))
    assert out.status is Status.SAT


@pytest.mark.parametrize("name", SCHEME_NAMES)
def test_trace_format_and_determinism(name):
    scheme = parse_scheme(name)
    problem = gen_pigeons(5)
    first: list[str] = []
    second: list[str] = []
    solve(problem, scheme, trace=first)
    solve(problem, scheme, trace=second)
    assert first == second
    assert len(first) > 0
    for line in first:
        assert TRACE_LINE.match(line), line


def test_trace_depth_starts_at_zero_and_steps_by_one():
    trace: list[str] = []
    solve(gen_pigeons(5), parse_scheme("dway"), trace=trace)
    depths = [int(line.split()[0]) for line in trace]
    assert depths[0] == 0
    for prev, cur in zip(depths, depths[1:]):
        assert cur <= prev + 1  # deepen one level at a time, unwind freely


def test_counter_sanity_across_random_problems():
    scheme = parse_scheme("ties-2way")
    for seed in range(80):
        problem = random_problem(seed)
        out = solve(problem, scheme)
        s = out.stats
        assert s.nodes >= s.decisions >= 0
        assert s.backtracks <= s.nodes
        assert s.wipeouts >= 0
        assert s.elapsed_ms >= 0.0
        if out.status is Status.UNSAT and s.nodes:
            assert s.backtracks == s.nodes  # every applied branch failed
