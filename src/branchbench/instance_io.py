"""Plain-text instance format: parse and serialize whole problems.

The format is line oriented, UTF-8, ``#`` starts a comment::

    csp 1                                   # optional header
    var x0 0..3                             # range domain
    var x1 in {1,3,9}                       # explicit set
    con ext allowed (x0,x1) : (0,1) (1,3)   # satisfying tuples
    con ext forbidden (x0,x1) : (2,9)       # violating tuples
    con int (x0,x1) : ne(x0,x1)             # prefix expression

Names are ASCII identifiers and integers are decimal (``-?[0-9]+``, within
64 bits, any number of leading zeros); a ``con int`` expression nests at most
``MAX_EXPR_DEPTH`` operators; blanks are space, tab and CR, and lines break where
``str.splitlines`` breaks them.  Each statement shape is one anchored regular
expression; a tuple list is checked by one pattern and split into tuple texts
by ``findall``, and each distinct tuple text is converted to integers once per
file; only ``con int`` expressions are read by a recursive descent over tokens.

Syntax errors raise :class:`ParseError` carrying line and column; a
well-formed file that describes an invalid problem raises it with no position.
``parse_instance(serialize_instance(p)) == p`` for every valid problem.
"""

from __future__ import annotations

import functools
import re
import sys
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


_WS = r"[ \t\r]*"
# a name or an integer ends at a word boundary, so that backtracking can never
# split ``x0`` into the name ``x`` and the integer ``0``
_END = r"(?![A-Za-z0-9_])"
_NAME = rf"[A-Za-z_][A-Za-z0-9_]*{_END}"
_INT = rf"-?[0-9]+{_END}"

_KEYWORD = re.compile(rf"{_WS}(?:(csp|var|con){_END}{_WS})?")
_HEADER = re.compile(rf"({_INT}){_WS}\Z")
_VAR = re.compile(
    rf"({_NAME}){_WS}(?:({_INT}){_WS}\.\.{_WS}({_INT})"
    rf"|in{_END}{_WS}\{{({_WS}{_INT}{_WS}(?:,{_WS}{_INT}{_WS})*)\}}){_WS}\Z"
)
_CON = re.compile(
    rf"(?:ext{_END}{_WS}(allowed|forbidden){_END}|int{_END}){_WS}"
    rf"\(({_WS}{_NAME}{_WS}(?:,{_WS}{_NAME}{_WS})*)\){_WS}:"
)
_INT_TEXT = re.compile(r"-?[0-9]+")
# the text between the parentheses of each tuple of a checked tuple list
_TUPLE_TEXT = re.compile(r"\(([^)]*)\)")
# the lexer of ``con int`` expressions: longest names and integers, the
# format's punctuation, and group 4 for any other character
_TOKEN = re.compile(rf"{_WS}(?:([A-Za-z_][A-Za-z0-9_]*)|(-?[0-9]+)|(\.\.|[(){{}},:])|([^ \t\r]))")
_NAME_TOKEN, _INT_TOKEN, _BAD_TOKEN = 1, 2, 4
# deep enough for any generated instance, and shallow enough that every
# expression the parser accepts also compiles, solves, serializes and compares
# within Python's default recursion limit: at top level, comparing two trees
# fails from about 250 operators and serializing one from about 340
MAX_EXPR_DEPTH = 100


@functools.cache
def _tuple_run(arity: int) -> re.Pattern:
    """Any number of ``(v1,...,vk)`` tuples of ``arity`` integers, then blanks."""
    values = ",".join([f"{_WS}{_INT}{_WS}"] * arity)
    return re.compile(rf"(?:{_WS}\({values}\))*{_WS}")


def _int(text: str, lineno: int, col: int) -> int:
    # more than 19 significant digits is out of range, so int() never sees
    # more than 19 digits, far below its own limit on digits
    digits = text.lstrip("-").lstrip("0")
    if len(digits) <= 19:
        value = int(digits or "0")
        value = -value if text[0] == "-" else value
        if INT64_MIN <= value <= INT64_MAX:
            return value
    # an error line quotes at most the width of INT64_MIN, however long the text
    if len(text) > 20:
        text = f"{text[:20]}... ({len(text.lstrip('-'))} digits)"
    raise ParseError(f"integer {text} outside 64-bit range", lineno, col)


def _syntax_error(line: str, lineno: int, pos: int, message: str) -> ParseError:
    """The first unexpected character of ``line``, else ``message`` at ``pos``."""
    for m in _TOKEN.finditer(line):
        if m.lastindex == _BAD_TOKEN:
            return ParseError(f"unexpected character {m.group(4)!r}", lineno, m.start(4) + 1)
    return ParseError(message, lineno, pos + 1)


def _parse_expr(
    tokens: list[tuple[int, str, int]], i: int, scope: tuple[str, ...], lineno: int,
    depth: int = 1,
) -> tuple[Expr, int]:
    """The expression starting at ``tokens[i]``, and the index just past it;
    ``depth`` counts the operators open at ``tokens[i]``, this one included."""
    kind, text, col = tokens[i]
    if kind == _INT_TOKEN:
        return Const(_int(text, lineno, col)), i + 1
    if kind != _NAME_TOKEN:
        raise ParseError("expected an expression", lineno, col)
    if tokens[i + 1][1] != "(":
        if text not in scope:
            raise ParseError(f"variable {text!r} not in constraint scope", lineno, col)
        return VarRef(text), i + 1
    if text not in OP_ARITY:
        raise ParseError(f"unknown operator {text!r}", lineno, col)
    if depth > MAX_EXPR_DEPTH:
        raise ParseError(f"expression nests more than {MAX_EXPR_DEPTH} operators", lineno, col)
    args = []
    i += 1
    while True:
        arg, i = _parse_expr(tokens, i + 1, scope, lineno, depth + 1)
        args.append(arg)
        if tokens[i][1] != ",":
            break
    if tokens[i][1] != ")":
        raise ParseError("expected ',' or ')'", lineno, tokens[i][2])
    if len(args) != OP_ARITY[text]:
        raise ParseError(
            f"operator {text!r} takes {OP_ARITY[text]} arguments, got {len(args)}", lineno, col
        )
    return Call(text, tuple(args)), i + 1


def _parse_intensional(line: str, pos: int, scope: tuple[str, ...], lineno: int) -> Intensional:
    tokens = [
        (m.lastindex, m.group(m.lastindex), m.start(m.lastindex) + 1)
        for m in _TOKEN.finditer(line, pos)
    ]
    for kind, text, col in tokens:
        if kind == _BAD_TOKEN:
            raise ParseError(f"unexpected character {text!r}", lineno, col)
    tokens.append((0, "", len(line) + 1))  # end of line
    expr, i = _parse_expr(tokens, 0, scope, lineno)
    if i != len(tokens) - 1:
        raise ParseError("unexpected trailing input", lineno, tokens[i][2])
    return Intensional(expr)


def _parse_tuple_list(
    line: str, pos: int, scope: tuple[str, ...], members: list, lineno: int, memo: dict
) -> frozenset[tuple[int, ...]]:
    """The tuples from ``pos`` to the end of ``line``; ``members[j]`` holds the
    values allowed at position ``j``.  ``memo`` maps the text between a
    tuple's parentheses to its values, for every tuple text of the file read
    so far."""
    arity = len(scope)
    run = _tuple_run(arity).match(line, pos)
    if run.end() != len(line):
        raise _syntax_error(line, lineno, run.end(), f"expected a tuple of {arity} integers")
    texts = set(_TUPLE_TEXT.findall(line, pos))
    try:
        for text in texts.difference(memo):
            memo[text] = tuple(map(int, text.split(",")))
    except ValueError:  # over int()'s digit limit: read each value the slow way
        values = [_int(v.group(), lineno, v.start() + 1) for v in _INT_TEXT.finditer(line, pos)]
        tuples = frozenset(zip(*[iter(values)] * arity))
    else:
        tuples = frozenset(map(memo.__getitem__, texts))
    # each distinct value of each position is looked up once
    for dom, column in zip(members, zip(*tuples)):
        if not all(v in dom for v in set(column)):
            raise _tuple_error(line, pos, scope, members, lineno)
    return tuples


def _tuple_error(
    line: str, pos: int, scope: tuple[str, ...], members: list, lineno: int
) -> ParseError:
    """The error of a tuple list with a value outside its domain: the first
    integer outside 64 bits, else, in the first scope position that holds
    one, the first value outside that variable's domain."""
    found = list(_INT_TEXT.finditer(line, pos))
    values = [_int(v.group(), lineno, v.start() + 1) for v in found]
    arity = len(scope)
    at = next(
        i for j, dom in enumerate(members) for i in range(j, len(values), arity)
        if values[i] not in dom
    )
    return ParseError(
        f"value {values[at]} outside the domain of {scope[at % arity]!r}", lineno,
        found[at].start() + 1,
    )


def parse_instance(text: str) -> Problem:
    """Parse the instance format into a :class:`Problem`."""
    declared: dict[str, int] = {}
    names: list[str] = []
    domains: list[tuple[int, ...]] = []
    members: list = []  # per variable, a container of its values for fast lookup
    constraints: list[Constraint] = []
    tuple_memo: dict[str, tuple[int, ...]] = {}  # see _parse_tuple_list
    seen_statement = False

    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.partition("#")[0]
        keyword = _KEYWORD.match(line)
        head, pos = keyword.group(1), keyword.end()
        if head is None:
            if pos == len(line):  # blank or comment only
                continue
            raise _syntax_error(line, lineno, pos, "expected 'csp', 'var' or 'con'")
        if head == "csp":
            if seen_statement:
                raise ParseError("header must be the first statement", lineno, keyword.start(1) + 1)
            m = _HEADER.match(line, pos)
            if m is None:
                raise _syntax_error(line, lineno, pos, "expected 'csp 1'")
            if _int(m.group(1), lineno, pos + 1) != 1:
                raise ParseError(f"unsupported format version {m.group(1)}", lineno, pos + 1)
        elif head == "var":
            m = _VAR.match(line, pos)
            if m is None:
                raise _syntax_error(
                    line, lineno, pos, "expected 'var NAME LO..HI' or 'var NAME in {V,...}'"
                )
            name = m.group(1)
            if name in declared:
                raise ParseError(f"duplicate variable {name!r}", lineno, pos + 1)
            if m.group(4) is None:
                lo = _int(m.group(2), lineno, m.start(2) + 1)
                hi = _int(m.group(3), lineno, m.start(3) + 1)
                if lo > hi:
                    raise ParseError(f"empty range {lo}..{hi}", lineno, m.start(2) + 1)
                if hi - lo >= sys.maxsize:  # len() of the range would overflow
                    raise ParseError(
                        f"range {lo}..{hi} has more than {sys.maxsize} values",
                        lineno, m.start(2) + 1,
                    )
                dom = tuple(range(lo, hi + 1))
                members.append(range(lo, hi + 1))
            else:
                values = {
                    _int(v.group(), lineno, v.start() + 1)
                    for v in _INT_TEXT.finditer(line, m.start(4), m.end(4))
                }
                dom = tuple(sorted(values))
                members.append(values)
            declared[name] = len(names)
            names.append(name)
            domains.append(dom)
        else:
            m = _CON.match(line, pos)
            if m is None:
                raise _syntax_error(
                    line, lineno, pos,
                    "expected 'con ext allowed|forbidden (NAMES) :' or 'con int (NAMES) :'",
                )
            scope = tuple(n.strip(" \t\r") for n in m.group(2).split(","))
            for name in scope:
                if name not in declared:
                    raise ParseError(
                        f"undeclared variable {name!r} in scope", lineno, m.start(2) + 1
                    )
            if len(set(scope)) != len(scope):
                raise ParseError("repeated variable in scope", lineno, m.start(2) + 1)
            if m.group(1) is None:
                relation = _parse_intensional(line, m.end(), scope, lineno)
            else:
                polarity = ExtensionalAllowed if m.group(1) == "allowed" else ExtensionalForbidden
                relation = polarity(_parse_tuple_list(
                    line, m.end(), scope, [members[declared[n]] for n in scope], lineno,
                    tuple_memo,
                ))
            constraints.append(
                Constraint(
                    cid=len(constraints),
                    scope=tuple(declared[n] for n in scope),
                    var_names=scope,
                    relation=relation,
                )
            )
        seen_statement = True

    try:
        return Problem(tuple(names), tuple(domains), tuple(constraints))
    except ValueError as err:
        raise ParseError(str(err)) from err


def _format_domain(dom: tuple[int, ...]) -> str:
    if dom[-1] - dom[0] == len(dom) - 1:  # sorted and distinct, so contiguous
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
            template = "(" + ",".join(["%d"] * len(c.scope)) + ")"
            tuples = " ".join([template % t for t in sorted(rel.tuples)])
            line = f"con ext {polarity} {scope} :"
            if tuples:
                line += " " + tuples
            lines.append(line)
    return "\n".join(lines) + "\n"
