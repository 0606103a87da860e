"""Plain-text instance format: parse and serialize whole problems.

The format is line oriented, UTF-8, ``#`` starts a comment::

    csp 1                                   # optional header
    var x0 0..3                             # range domain
    var x1 in {1,3,9}                       # explicit set
    con ext allowed (x0,x1) : (0,1) (1,3)   # satisfying tuples
    con ext forbidden (x0,x1) : (2,9)       # violating tuples
    con int (x0,x1) : ne(x0,x1)             # prefix expression

Syntax errors raise :class:`ParseError` carrying line and column; a
well-formed file that describes an invalid problem raises it with no position.
``parse_instance(serialize_instance(p)) == p`` for every valid problem.
"""

from __future__ import annotations

import re
from typing import Optional

from .exprs import (
    Call,
    Const,
    Expr,
    INT64_MAX,
    INT64_MIN,
    OP_ARITY,
    VarRef,
    format_expr,
)
from .model import (
    Constraint,
    ExtensionalAllowed,
    ExtensionalForbidden,
    Intensional,
    Problem,
)


class ParseError(Exception):
    """A syntax error at ``line``/``col``, or an invalid problem (no position)."""

    def __init__(
        self, message: str, line: Optional[int] = None, col: Optional[int] = None
    ) -> None:
        super().__init__(message if line is None else f"line {line}, col {col}: {message}")
        self.message = message
        self.line = line
        self.col = col


_NAME_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")
_INT_RE = re.compile(r"-?[0-9]+")
_PUNCT = ("..", "(", ")", "{", "}", ",", ":")


def _tokenize(text: str, lineno: int) -> list[tuple[str, object, int]]:
    out: list[tuple[str, object, int]] = []
    i = 0
    while i < len(text):
        ch = text[i]
        if ch in " \t\r":
            i += 1
            continue
        if ch == "#":
            break
        col = i + 1
        m = _NAME_RE.match(text, i)
        if m:
            out.append(("name", m.group(), col))
            i = m.end()
            continue
        if text.startswith("..", i):
            out.append(("punct", "..", col))
            i += 2
            continue
        m = _INT_RE.match(text, i)
        if m:
            value = int(m.group())
            if not INT64_MIN <= value <= INT64_MAX:
                raise ParseError(f"integer {m.group()} outside 64-bit range", lineno, col)
            out.append(("int", value, col))
            i = m.end()
            continue
        if ch in "(){},:":
            out.append(("punct", ch, col))
            i += 1
            continue
        raise ParseError(f"unexpected character {ch!r}", lineno, col)
    return out


class _Cursor:
    def __init__(self, tokens: list[tuple[str, object, int]], lineno: int, length: int):
        self.tokens = tokens
        self.lineno = lineno
        self.eol_col = length + 1
        self.i = 0

    def error(self, message: str) -> ParseError:
        col = self.tokens[self.i][2] if self.i < len(self.tokens) else self.eol_col
        return ParseError(message, self.lineno, col)

    def done(self) -> bool:
        return self.i >= len(self.tokens)

    def peek(self):
        return self.tokens[self.i] if self.i < len(self.tokens) else None

    def take(self):
        tok = self.peek()
        if tok is None:
            raise self.error("unexpected end of line")
        self.i += 1
        return tok

    def take_name(self) -> str:
        tok = self.take()
        if tok[0] != "name":
            self.i -= 1
            raise self.error("expected a name")
        return tok[1]  # type: ignore[return-value]

    def take_int(self) -> int:
        tok = self.take()
        if tok[0] != "int":
            self.i -= 1
            raise self.error("expected an integer")
        return tok[1]  # type: ignore[return-value]

    def take_punct(self, value: str) -> None:
        tok = self.take()
        if tok[0] != "punct" or tok[1] != value:
            self.i -= 1
            raise self.error(f"expected {value!r}")

    def at_punct(self, value: str) -> bool:
        tok = self.peek()
        return tok is not None and tok[0] == "punct" and tok[1] == value

    def expect_done(self) -> None:
        if not self.done():
            raise self.error("unexpected trailing input")


def _parse_domain(cur: _Cursor) -> tuple[int, ...]:
    if cur.at_punct("{"):
        raise cur.error("expected 'in' before a set domain")
    tok = cur.peek()
    if tok is not None and tok[0] == "name" and tok[1] == "in":
        cur.take()
        cur.take_punct("{")
        values = [cur.take_int()]
        while cur.at_punct(","):
            cur.take()
            values.append(cur.take_int())
        cur.take_punct("}")
        return tuple(sorted(set(values)))
    lo = cur.take_int()
    cur.take_punct("..")
    hi = cur.take_int()
    if lo > hi:
        raise cur.error(f"empty range {lo}..{hi}")
    return tuple(range(lo, hi + 1))


def _parse_scope(cur: _Cursor, declared: dict[str, int]) -> tuple[str, ...]:
    cur.take_punct("(")
    names = [cur.take_name()]
    while cur.at_punct(","):
        cur.take()
        names.append(cur.take_name())
    cur.take_punct(")")
    for name in names:
        if name not in declared:
            raise cur.error(f"undeclared variable {name!r} in scope")
    if len(set(names)) != len(names):
        raise cur.error("repeated variable in scope")
    return tuple(names)


def _parse_expr(cur: _Cursor, scope: tuple[str, ...]) -> Expr:
    tok = cur.peek()
    if tok is None:
        raise cur.error("expected an expression")
    if tok[0] == "int":
        cur.take()
        return Const(tok[1])  # type: ignore[arg-type]
    if tok[0] != "name":
        raise cur.error("expected an expression")
    name = tok[1]
    cur.take()
    if cur.at_punct("("):
        if name not in OP_ARITY:
            cur.i -= 1
            raise cur.error(f"unknown operator {name!r}")
        cur.take_punct("(")
        args = [_parse_expr(cur, scope)]
        while cur.at_punct(","):
            cur.take()
            args.append(_parse_expr(cur, scope))
        cur.take_punct(")")
        if len(args) != OP_ARITY[name]:
            raise cur.error(
                f"operator {name!r} takes {OP_ARITY[name]} arguments, got {len(args)}"
            )
        return Call(name, tuple(args))  # type: ignore[arg-type]
    if name not in scope:
        cur.i -= 1
        raise cur.error(f"variable {name!r} not in constraint scope")
    return VarRef(name)  # type: ignore[arg-type]


def _parse_tuples(
    cur: _Cursor, scope: tuple[str, ...], declared: dict[str, int],
    domains: list[tuple[int, ...]],
) -> frozenset[tuple[int, ...]]:
    tuples = []
    while not cur.done():
        cur.take_punct("(")
        values = [cur.take_int()]
        while cur.at_punct(","):
            cur.take()
            values.append(cur.take_int())
        cur.take_punct(")")
        if len(values) != len(scope):
            raise cur.error(
                f"tuple arity {len(values)} does not match scope arity {len(scope)}"
            )
        for name, v in zip(scope, values):
            if v not in domains[declared[name]]:
                raise cur.error(f"value {v} outside the domain of {name!r}")
        tuples.append(tuple(values))
    return frozenset(tuples)


def parse_instance(text: str) -> Problem:
    """Parse the instance format into a :class:`Problem`."""
    declared: dict[str, int] = {}
    names: list[str] = []
    domains: list[tuple[int, ...]] = []
    constraints: list[Constraint] = []
    seen_statement = False

    for lineno, raw in enumerate(text.splitlines(), start=1):
        tokens = _tokenize(raw, lineno)
        if not tokens:
            continue
        cur = _Cursor(tokens, lineno, len(raw))
        head = cur.take_name()
        if head == "csp":
            if seen_statement:
                raise cur.error("header must be the first statement")
            version = cur.take_int()
            if version != 1:
                raise cur.error(f"unsupported format version {version}")
            cur.expect_done()
            seen_statement = True
            continue
        seen_statement = True
        if head == "var":
            name = cur.take_name()
            if name in declared:
                raise cur.error(f"duplicate variable {name!r}")
            dom = _parse_domain(cur)
            cur.expect_done()
            declared[name] = len(names)
            names.append(name)
            domains.append(dom)
        elif head == "con":
            kind = cur.take_name()
            if kind == "ext":
                polarity = cur.take_name()
                if polarity not in ("allowed", "forbidden"):
                    raise cur.error("expected 'allowed' or 'forbidden'")
                scope = _parse_scope(cur, declared)
                cur.take_punct(":")
                tuples = _parse_tuples(cur, scope, declared, domains)
                relation = (
                    ExtensionalAllowed(tuples)
                    if polarity == "allowed"
                    else ExtensionalForbidden(tuples)
                )
            elif kind == "int":
                scope = _parse_scope(cur, declared)
                cur.take_punct(":")
                expr = _parse_expr(cur, scope)
                cur.expect_done()
                relation = Intensional(expr)
            else:
                raise cur.error("expected 'ext' or 'int'")
            constraints.append(
                Constraint(
                    cid=len(constraints),
                    scope=tuple(declared[n] for n in scope),
                    var_names=scope,
                    relation=relation,
                )
            )
        else:
            cur.i -= 1
            raise cur.error(f"expected 'var' or 'con', got {head!r}")

    try:
        return Problem(tuple(names), tuple(domains), tuple(constraints))
    except ValueError as err:
        raise ParseError(str(err)) from err


def _format_domain(dom: tuple[int, ...]) -> str:
    if dom == tuple(range(dom[0], dom[-1] + 1)):
        return f"{dom[0]}..{dom[-1]}"
    return "in {" + ",".join(str(v) for v in dom) + "}"


def serialize_instance(problem: Problem) -> str:
    """Canonical text for ``problem`` (header, vars in order, cons in order)."""
    lines = ["csp 1"]
    for name, dom in zip(problem.names, problem.domains):
        lines.append(f"var {name} {_format_domain(dom)}")
    for c in problem.constraints:
        scope = "(" + ",".join(c.var_names) + ")"
        rel = c.relation
        if isinstance(rel, Intensional):
            lines.append(f"con int {scope} : {format_expr(rel.expr)}")
        else:
            polarity = "allowed" if isinstance(rel, ExtensionalAllowed) else "forbidden"
            tuples = " ".join(
                "(" + ",".join(str(v) for v in t) + ")" for t in sorted(rel.tuples)
            )
            line = f"con ext {polarity} {scope} :"
            if tuples:
                line += " " + tuples
            lines.append(line)
    return "\n".join(lines) + "\n"
