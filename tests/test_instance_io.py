import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from branchbench.branching import SCHEME_NAMES, parse_scheme
from branchbench.generators import (
    gen_coloring,
    gen_forced,
    gen_langford,
    gen_pigeons,
    gen_qwh,
    gen_randomb,
)
from branchbench.instance_io import (
    MAX_EXPR_DEPTH,
    ParseError,
    parse_instance,
    serialize_instance,
)
from branchbench.model import ExtensionalAllowed, Intensional
from branchbench.search import solve
from util import random_problem


def test_minimal_intensional():
    p = parse_instance("var x 0..2\nvar y 0..2\ncon int (x,y): ne(x,y)")
    assert p.names == ("x", "y")
    assert p.domains == ((0, 1, 2), (0, 1, 2))
    assert len(p.constraints) == 1
    assert isinstance(p.constraints[0].relation, Intensional)


def test_set_domain_and_unary_extensional():
    p = parse_instance("var x in {1,3,5}\ncon ext allowed (x): (1) (5)")
    assert p.domains == ((1, 3, 5),)
    rel = p.constraints[0].relation
    assert isinstance(rel, ExtensionalAllowed)
    assert rel.tuples == frozenset({(1,), (5,)})


def test_header_and_comments_and_crlf():
    text = "csp 1\r\n# a comment\r\nvar a 0..1 # trailing\r\nvar b 0..1\r\n"
    p = parse_instance(text)
    assert p.names == ("a", "b")


def test_negative_and_singleton_ranges():
    p = parse_instance("var x -3..-1\nvar y 5..5")
    assert p.domains == ((-3, -2, -1), (5,))


def test_forbidden_tuples():
    p = parse_instance("var x 0..1\nvar y 0..1\ncon ext forbidden (x,y): (0,0) (1,1)")
    rel = p.constraints[0].relation
    assert rel.tuples == frozenset({(0, 0), (1, 1)})


def test_nested_expression():
    p = parse_instance("var x 0..9\nvar y 0..9\ncon int (x,y): le(add(x,3),y)")
    assert p.constraints[0].var_names == ("x", "y")


@pytest.mark.parametrize(
    "text",
    [
        "var",  # truncated
        "var x",  # missing domain
        "var x 3..1",  # inverted range
        "var x in {}",  # empty set
        "var x 0..1\nvar x 0..1",  # duplicate name
        "con int (x): eq(x,0)",  # undeclared variable
        "var x 0..1\ncon int (x,y): ne(x,y)",  # undeclared in scope
        "var x 0..1\ncon ext allowed (x): (2)",  # tuple outside domain
        "var x 0..1\ncon ext allowed (x): (0,1)",  # arity mismatch
        "var x 0..1\ncon int (x): frob(x)",  # unknown operator
        "var x 0..1\ncon int (x): eq(x)",  # wrong arity
        "var x 0..1\ncon int (x): eq(x,y)",  # name outside scope
        "var x 0..1\ncon ext maybe (x): (0)",  # bad polarity keyword
        "var x 0..1 extra",  # junk after statement
        "csp 2",  # unknown version
        "var x 99999999999999999999..0",  # integer overflow
        "var x 0..1\ncon int (x,x): ne(x,x)",  # repeated scope variable
    ],
)
def test_rejected_inputs(text):
    with pytest.raises(ParseError):
        parse_instance(text)


def test_error_carries_line_and_column():
    try:
        parse_instance("var x 0..1\ncon int (x): frob(x)")
    except ParseError as err:
        assert err.line == 2
        assert err.col > 0
        assert "line 2" in str(err)
    else:  # pragma: no cover
        pytest.fail("expected ParseError")


def test_roundtrip_generated_families():
    problems = [
        gen_pigeons(4),
        gen_langford(4),
        gen_randomb(6, 4, 8, 5, 11),
        gen_forced(6, 4, 8, 5, 11),
        gen_qwh(4, 5, 2),
        gen_coloring(7, 10, 3, 3),
    ]
    for p in problems:
        text = serialize_instance(p)
        assert parse_instance(text) == p
        # serialization is canonical: a second pass is byte-identical
        assert serialize_instance(parse_instance(text)) == text


def test_roundtrip_random_problems():
    for seed in range(100):
        p = random_problem(seed)
        assert parse_instance(serialize_instance(p)) == p


def test_serialize_uses_range_form_for_contiguous_domains():
    p = parse_instance("var x 0..4\nvar y in {0,2,4}")
    text = serialize_instance(p)
    assert "var x 0..4" in text
    assert "var y in {0,2,4}" in text


@settings(max_examples=300, deadline=None)
@given(st.integers(0, 10**9), st.data())
def test_fuzzed_mutations_never_crash(seed, data):
    """Random byte edits of valid instances raise ParseError, or parse to a
    problem that survives the serialize/parse round trip."""
    base = serialize_instance(random_problem(seed % 50))
    raw = bytearray(base.encode())
    r = random.Random(seed)
    for _ in range(r.randint(1, 6)):
        kind = r.randrange(3)
        pos = r.randrange(len(raw)) if raw else 0
        if kind == 0 and raw:
            raw[pos] = data.draw(st.integers(32, 126))
        elif kind == 1 and raw:
            del raw[pos]
        else:
            raw.insert(pos, data.draw(st.integers(32, 126)))
    text = raw.decode(errors="replace")
    try:
        p = parse_instance(text)
    except ParseError as err:
        assert err.line is None or (err.line >= 1 and err.col >= 1)
        return
    assert parse_instance(serialize_instance(p)) == p


def test_non_ascii_junk_is_a_parse_error():
    with pytest.raises(ParseError):
        parse_instance("var £ 0..1")


MAX, MIN = 9223372036854775807, -9223372036854775808
ZEROS = "0" * 5000


def _nested(n):
    """A ``con int`` line whose expression nests ``n`` ``neg`` inside one ``eq``."""
    return "var x 0..1\ncon int (x) : eq(" + "neg(" * n + "x" + ")" * n + ",0)"


# the accepted language, pinned row by row: each text is accepted and parses
# to the problem whose canonical text (after the "csp 1" header) is given
ACCEPTED = [
    ("var in 0..1", "var in 0..1"),  # `in` is a name outside the domain slot
    ("var in in {1,2}", "var in 1..2"),
    ("var x in{1,3}", "var x in {1,3}"),
    ("var x 0 .. 2", "var x 0..2"),
    ("var x-1..1", "var x -1..1"),  # a name ends where '-' starts an integer
    ("csp 01\nvar x 007..010", "var x 7..10"),  # leading zeros
    ("var x 0..1\ncon int(x):eq(x,0)", "var x 0..1\ncon int (x) : eq(x,0)"),
    ("var x 0..1\ncon ext allowed(x):(0)(1)", "var x 0..1\ncon ext allowed (x) : (0) (1)"),
    ("var x 0..1\ncon ext forbidden (x) :", "var x 0..1\ncon ext forbidden (x) :"),
    ("\tvar\tx\t0..1\t\n\t# tabs", "var x 0..1"),
    ("var x 0..1\r\nvar y 0..1\rvar z 0..1", "var x 0..1\nvar y 0..1\nvar z 0..1"),
    (
        "var x 0..1 # c\ncon int (x) : eq(x,0) # c\ncon ext allowed (x) : (0) # c",
        "var x 0..1\ncon int (x) : eq(x,0)\ncon ext allowed (x) : (0)",
    ),
    # blanks after an expression
    ("var x 0..1\ncon int (x) : eq(x,0) \t", "var x 0..1\ncon int (x) : eq(x,0)"),
    (
        f"var x {MIN}..{MIN}\nvar y in {{{MAX}}}\n"
        f"con int (x,y) : ne(sub(x,{MIN}),{MAX})\ncon ext allowed (y) : ({MAX})",
        f"var x {MIN}..{MIN}\nvar y {MAX}..{MAX}\n"
        f"con int (x,y) : ne(sub(x,{MIN}),{MAX})\ncon ext allowed (y) : ({MAX})",
    ),
    ("var x 0..1\x0cvar y 0..1", "var x 0..1\nvar y 0..1"),  # str.splitlines breaks at \x0c
    # contiguity is read from the ends and the length, not a range built between them
    (f"var x in {{{MIN},{MAX}}}", f"var x in {{{MIN},{MAX}}}"),
    pytest.param(  # leading zeros do not count toward int()'s 4,300-digit limit
        f"var x 0..{ZEROS}1\nvar y in {{{ZEROS}2}}\n"
        f"con ext allowed (x) : ({ZEROS}1)\ncon int (x) : eq(x,{ZEROS}1)",
        "var x 0..1\nvar y 2..2\ncon ext allowed (x) : (1)\ncon int (x) : eq(x,1)",
        id="5000-leading-zeros",
    ),
    pytest.param(_nested(MAX_EXPR_DEPTH - 1), _nested(MAX_EXPR_DEPTH - 1), id="deepest-expression"),
]

# syntax errors: each is rejected with a line and a column
REJECTED = [
    "var x0..3",  # the name is x0, not x then 0
    "var x - 3..4",
    "var x 0..- 3",
    "var x ٣..4",  # ARABIC-INDIC DIGIT THREE, which int() accepts
    "var x 0..１",  # FULLWIDTH DIGIT ONE
    "var x 0..1\ncon ext allowed (x) : (٠)",
    "var x 0..1\ncon int (x) : eq(x,\U0001d7d8)",
    "var\x0cx 0..1",  # \x0c breaks the line
    "var x\xa00..1",  # no-break space is not a blank
    f"var x 0..{MAX + 1}",
    f"var x {MIN - 1}..0",
    f"var x in {{0,{MAX + 1}}}",
    f"var x 0..1\ncon int (x) : eq(x,{MIN - 1})",
    f"var x 0..1\ncon ext allowed (x) : ({MAX + 1})",
    f"var x 0..{MAX} 3",  # rejected before the range is built
    "var x 0..1\ncon int (x) : eq(x,0) 1",
    "var x 0..1\ncon int (x) :",
    "var x 0..1\ncon ext allowed (x) : (0) (1",
    "csp 1 1",
    "var x -3..9223372036854775807",  # more values than sys.maxsize
    pytest.param("var x 0.." + "9" * 5000, id="5000-digit-range-end"),
    pytest.param("var x 0..1\ncon ext allowed (x) : (" + "7" * 5000 + ")", id="5000-digit-tuple"),
    pytest.param(_nested(MAX_EXPR_DEPTH), id="expression-one-too-deep"),
    pytest.param(_nested(1000), id="1000-neg-deep"),
]


OUT_OF_RANGE = [
    # (text, error line, col, message): a long integer is quoted by a prefix
    pytest.param(
        "var x 0..1\ncon ext allowed (x) : (" + "12345" * 5 + ")", 2, 24,
        "integer 12345123451234512345... (25 digits) outside 64-bit range",
        id="25-digit-tuple",
    ),
    pytest.param(
        "var x 0..1\ncon ext allowed (x) : (0) (" + "7" * 5000 + ")", 2, 28,
        "integer 77777777777777777777... (5000 digits) outside 64-bit range",
        id="5000-digit-tuple",
    ),
    pytest.param(
        "var x 0..-" + "9" * 5000, 1, 10,
        "integer -9999999999999999999... (5000 digits) outside 64-bit range",
        id="5000-digit-range-end",
    ),
]


@pytest.mark.parametrize("text,line,col,message", OUT_OF_RANGE)
def test_out_of_range_integers_quote_a_bounded_prefix(text, line, col, message):
    with pytest.raises(ParseError) as info:
        parse_instance(text)
    assert (info.value.line, info.value.col, info.value.message) == (line, col, message)
    assert len(str(info.value)) <= 100


@pytest.mark.parametrize("text,canonical", ACCEPTED)
def test_grammar_accepts(text, canonical):
    assert serialize_instance(parse_instance(text)) == "csp 1\n" + canonical + "\n"


@pytest.mark.parametrize("text", REJECTED)
def test_grammar_rejects_with_a_position(text):
    with pytest.raises(ParseError) as info:
        parse_instance(text)
    assert info.value.line >= 1 and info.value.col >= 1


def test_the_deepest_expression_compiles_and_solves():
    problem = parse_instance(_nested(MAX_EXPR_DEPTH - 1))
    for scheme in SCHEME_NAMES:
        assert solve(problem, parse_scheme(scheme)).assignment == (0,)
