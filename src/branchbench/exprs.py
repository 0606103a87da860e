"""Integer expression trees for intensional constraints.

Expressions are prefix-functional: ``ne(x,y)``, ``eq(add(x,1),y)``,
``lt(dist(a,b),3)``.  Arithmetic is 64-bit signed; any intermediate outside
that range raises :class:`EvalError` instead of wrapping.  ``div`` truncates
toward zero and ``mod`` takes the sign of the dividend (C semantics), and
both raise :class:`EvalError` on a zero divisor.  Comparisons and logical
operators return 1 or 0; ``and``/``or`` treat any non-zero operand as true.

The table ``_OPS`` is the one place an operator is defined: its arity and
its meaning.  ``OP_ARITY``, which the parser and :class:`Call` check against,
is derived from it.  :func:`compile_expr` is the one evaluator: it turns a
tree into nested closures over a sequence of values, once per tree, so
evaluating a constraint's expression on many tuples walks no tree and builds
no bindings.  ``model.check_tuple`` keeps each constraint's compiled
expression.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Mapping, Sequence, Union

INT64_MIN = -(1 << 63)
INT64_MAX = (1 << 63) - 1


class EvalError(Exception):
    """Raised for division/modulo by zero, overflow, or an unbound variable."""


@dataclass(frozen=True)
class Const:
    value: int


@dataclass(frozen=True)
class VarRef:
    name: str


@dataclass(frozen=True)
class Call:
    op: str
    args: tuple["Expr", ...]

    def __post_init__(self) -> None:
        if self.op not in OP_ARITY:
            raise ValueError(f"unknown operator {self.op!r}")
        if len(self.args) != OP_ARITY[self.op]:
            raise ValueError(
                f"operator {self.op!r} takes {OP_ARITY[self.op]} arguments, "
                f"got {len(self.args)}"
            )


Expr = Union[Const, VarRef, Call]


def _check64(x: int) -> int:
    if not INT64_MIN <= x <= INT64_MAX:
        raise EvalError(f"64-bit overflow: {x}")
    return x


def _trunc_div(a: int, b: int) -> int:
    if b == 0:
        raise EvalError("division by zero")
    q = abs(a) // abs(b)
    return q if (a >= 0) == (b >= 0) else -q


def _trunc_mod(a: int, b: int) -> int:
    if b == 0:
        raise EvalError("modulo by zero")
    r = abs(a) % abs(b)
    return r if a >= 0 else -r


# name -> (arity, function of the evaluated arguments).  Arithmetic results
# pass through ``_check64``; ``min``/``max`` cannot leave their arguments' range.
_OPS = {
    "neg": (1, lambda a: _check64(-a)),
    "abs": (1, lambda a: _check64(abs(a))),
    "add": (2, lambda a, b: _check64(a + b)),
    "sub": (2, lambda a, b: _check64(a - b)),
    "mul": (2, lambda a, b: _check64(a * b)),
    "div": (2, lambda a, b: _check64(_trunc_div(a, b))),
    "mod": (2, lambda a, b: _check64(_trunc_mod(a, b))),
    "min": (2, lambda a, b: a if a <= b else b),
    "max": (2, lambda a, b: a if a >= b else b),
    "eq": (2, lambda a, b: int(a == b)),
    "ne": (2, lambda a, b: int(a != b)),
    "lt": (2, lambda a, b: int(a < b)),
    "le": (2, lambda a, b: int(a <= b)),
    "gt": (2, lambda a, b: int(a > b)),
    "ge": (2, lambda a, b: int(a >= b)),
    "and": (2, lambda a, b: int(a != 0 and b != 0)),
    "or": (2, lambda a, b: int(a != 0 or b != 0)),
    "dist": (2, lambda a, b: _check64(abs(a - b))),
}

OP_ARITY = {op: arity for op, (arity, _) in _OPS.items()}


def compile_expr(expr: Expr, names: Sequence[str]) -> Callable[[Sequence[int]], int]:
    """``expr`` as one function of a sequence of values, ``values[i]`` being
    bound to ``names[i]``.

    The function evaluates arguments left to right before an operator is
    applied, checks every constant, bound value and arithmetic result
    against the 64-bit range, and raises :class:`EvalError` for a name
    outside ``names`` only when evaluation reaches it, so it raises the
    error that a walk of the tree would meet first.
    """
    if isinstance(expr, Const):
        value = expr.value
        # checked here once; a constant out of range raises whenever reached
        if INT64_MIN <= value <= INT64_MAX:
            return lambda values: value
        return lambda values: _check64(value)
    if isinstance(expr, VarRef):
        name = expr.name
        if name not in names:
            def unbound(values: Sequence[int]) -> int:
                raise EvalError(f"unbound variable {name!r}")
            return unbound
        i = names.index(name)
        return lambda values: _check64(values[i])
    arity, fn = _OPS[expr.op]
    if arity == 1:
        a = compile_expr(expr.args[0], names)
        return lambda values: fn(a(values))
    a, b = (compile_expr(arg, names) for arg in expr.args)
    return lambda values: fn(a(values), b(values))


def expr_vars(expr: Expr) -> set[str]:
    """Names of all variables referenced by ``expr``."""
    if isinstance(expr, Const):
        return set()
    if isinstance(expr, VarRef):
        return {expr.name}
    out: set[str] = set()
    for a in expr.args:
        out |= expr_vars(a)
    return out


def format_expr(expr: Expr) -> str:
    """Canonical prefix text, e.g. ``eq(add(x,1),y)``."""
    if isinstance(expr, Const):
        return str(expr.value)
    if isinstance(expr, VarRef):
        return expr.name
    return f"{expr.op}({','.join(format_expr(a) for a in expr.args)})"


def rename_expr(expr: Expr, mapping: Mapping[str, str]) -> Expr:
    """Copy of ``expr`` with variable names replaced through ``mapping``."""
    if isinstance(expr, Const):
        return expr
    if isinstance(expr, VarRef):
        return VarRef(mapping.get(expr.name, expr.name))
    return Call(expr.op, tuple(rename_expr(a, mapping) for a in expr.args))
