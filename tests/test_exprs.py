import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from branchbench.exprs import (
    Call,
    Const,
    EvalError,
    INT64_MAX,
    INT64_MIN,
    OP_ARITY,
    VarRef,
    compile_expr,
    expr_vars,
    format_expr,
)
from branchbench.model import Constraint, Intensional, check_tuple
from oracles import reference_eval


def _c(op, *args):
    return Call(op, tuple(args))


def eval_expr(expr, bindings):
    """Evaluate ``expr`` with variables bound by ``bindings``, as
    :func:`compile_expr` defines."""
    return compile_expr(expr, tuple(bindings))(tuple(bindings.values()))


def ev(expr, **bindings):
    return eval_expr(expr, bindings)


def test_arithmetic_basics():
    x = VarRef("x")
    assert ev(_c("add", x, Const(3)), x=4) == 7
    assert ev(_c("sub", Const(2), Const(9))) == -7
    assert ev(_c("mul", Const(-3), Const(5))) == -15
    assert ev(_c("neg", Const(4))) == -4
    assert ev(_c("abs", Const(-11))) == 11
    assert ev(_c("dist", Const(3), Const(10))) == 7
    assert ev(_c("min", Const(3), Const(-2))) == -2
    assert ev(_c("max", Const(3), Const(-2))) == 3


def test_division_truncates_toward_zero():
    assert ev(_c("div", Const(7), Const(2))) == 3
    assert ev(_c("div", Const(-7), Const(2))) == -3
    assert ev(_c("div", Const(7), Const(-2))) == -3
    assert ev(_c("div", Const(-7), Const(-2))) == 3


def test_mod_takes_sign_of_dividend():
    assert ev(_c("mod", Const(7), Const(3))) == 1
    assert ev(_c("mod", Const(-7), Const(3))) == -1
    assert ev(_c("mod", Const(7), Const(-3))) == 1
    assert ev(_c("mod", Const(-7), Const(-3))) == -1


def test_div_mod_identity_holds():
    for a in range(-20, 21):
        for b in list(range(-5, 0)) + list(range(1, 6)):
            q = ev(_c("div", Const(a), Const(b)))
            r = ev(_c("mod", Const(a), Const(b)))
            assert q * b + r == a
            assert abs(r) < abs(b)


def test_division_by_zero_raises():
    with pytest.raises(EvalError):
        ev(_c("div", Const(1), Const(0)))
    with pytest.raises(EvalError):
        ev(_c("mod", Const(1), Const(0)))


def test_comparisons_yield_zero_or_one():
    assert ev(_c("eq", Const(3), Const(3))) == 1
    assert ev(_c("ne", Const(3), Const(3))) == 0
    assert ev(_c("lt", Const(2), Const(3))) == 1
    assert ev(_c("le", Const(3), Const(3))) == 1
    assert ev(_c("gt", Const(2), Const(3))) == 0
    assert ev(_c("ge", Const(2), Const(3))) == 0


def test_logic_on_truthiness():
    assert ev(_c("and", Const(2), Const(-1))) == 1
    assert ev(_c("and", Const(2), Const(0))) == 0
    assert ev(_c("or", Const(0), Const(0))) == 0
    assert ev(_c("or", Const(0), Const(5))) == 1


def test_overflow_is_an_error():
    with pytest.raises(EvalError):
        ev(_c("add", Const(INT64_MAX), Const(1)))
    with pytest.raises(EvalError):
        ev(_c("sub", Const(INT64_MIN), Const(1)))
    with pytest.raises(EvalError):
        ev(_c("mul", Const(2**32), Const(2**32)))
    with pytest.raises(EvalError):
        ev(_c("neg", Const(INT64_MIN)))
    with pytest.raises(EvalError):
        ev(_c("abs", Const(INT64_MIN)))
    # boundary values themselves are fine
    assert ev(_c("add", Const(INT64_MAX), Const(0))) == INT64_MAX
    assert ev(_c("sub", Const(INT64_MIN), Const(0))) == INT64_MIN


def test_extreme_operands_of_dist_div_and_mod():
    with pytest.raises(EvalError):
        ev(_c("dist", Const(INT64_MIN), Const(INT64_MAX)))
    with pytest.raises(EvalError):
        ev(_c("div", Const(INT64_MIN), Const(-1)))
    assert ev(_c("mod", Const(INT64_MIN), Const(-1))) == 0


def test_operator_table_names_every_operator_and_its_arity():
    assert OP_ARITY == {
        "neg": 1, "abs": 1,
        "add": 2, "sub": 2, "mul": 2, "div": 2, "mod": 2, "min": 2, "max": 2,
        "eq": 2, "ne": 2, "lt": 2, "le": 2, "gt": 2, "ge": 2,
        "and": 2, "or": 2, "dist": 2,
    }


def test_unbound_variable_is_an_error():
    with pytest.raises(EvalError):
        ev(VarRef("nope"))


def test_bad_arity_rejected_at_construction():
    with pytest.raises(ValueError):
        _c("add", Const(1))
    with pytest.raises(ValueError):
        _c("neg", Const(1), Const(2))
    with pytest.raises(ValueError):
        _c("frobnicate", Const(1))


def test_expr_vars_and_format():
    e = _c("eq", _c("add", VarRef("a"), Const(2)), VarRef("b"))
    assert expr_vars(e) == {"a", "b"}
    assert format_expr(e) == "eq(add(a,2),b)"
    assert format_expr(Const(-5)) == "-5"
    assert format_expr(VarRef("x1")) == "x1"


@given(st.integers(-10**6, 10**6), st.integers(-10**6, 10**6))
def test_add_sub_match_python_in_range(a, b):
    assert ev(_c("add", Const(a), Const(b))) == a + b
    assert ev(_c("sub", Const(a), Const(b))) == a - b
    assert ev(_c("dist", Const(a), Const(b))) == abs(a - b)


@given(st.integers(-10**4, 10**4), st.integers(-10**4, 10**4))
def test_comparison_ops_match_python(a, b):
    table = {
        "eq": a == b,
        "ne": a != b,
        "lt": a < b,
        "le": a <= b,
        "gt": a > b,
        "ge": a >= b,
    }
    for op, expected in table.items():
        assert ev(_c(op, Const(a), Const(b))) == int(expected)


# constants and bound values around both ends of the 64-bit range, zero
# divisors, and one step past each end, which evaluation must reject
_EDGE_VALUES = st.sampled_from([
    INT64_MIN - 1, INT64_MIN, INT64_MIN + 1, -(2**32), -2, -1, 0, 1, 2, 2**32,
    INT64_MAX - 1, INT64_MAX, INT64_MAX + 1,
])
_VALUES = st.one_of(st.integers(-5, 5), _EDGE_VALUES)
_SCOPE = ("x", "y", "z")


def _exprs():
    # "w" is never bound: the evaluation must raise only once it is reached
    leaves = st.one_of(st.builds(Const, _VALUES), st.sampled_from("xyzw").map(VarRef))
    return st.recursive(
        leaves,
        lambda sub: st.sampled_from(sorted(OP_ARITY)).flatmap(
            lambda op: st.tuples(*[sub] * OP_ARITY[op]).map(lambda args: Call(op, args))
        ),
        max_leaves=12,
    )


def _reference(expr, bindings):
    try:
        return reference_eval(expr, bindings), None
    except EvalError as err:
        return None, str(err)


@settings(max_examples=400)
@given(_exprs(), st.lists(st.tuples(_VALUES, _VALUES, _VALUES), min_size=1, max_size=4))
def test_compiled_evaluation_matches_the_tree_walk_oracle(expr, rows):
    constraint = Constraint(0, (0, 1, 2), _SCOPE, Intensional(expr))
    for values in rows:  # the first row compiles the expression, the rest reuse it
        bindings = dict(zip(_SCOPE, values))
        value, error = _reference(expr, bindings)
        assert check_tuple(constraint, values) == (error is None and value != 0)
        if error is None:
            assert eval_expr(expr, bindings) == value
        else:
            with pytest.raises(EvalError) as info:
                eval_expr(expr, bindings)
            assert str(info.value) == error
