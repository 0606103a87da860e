import hashlib
import random
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from branchbench.bench import parse_manifest
from branchbench.exprs import OP_ARITY
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
from branchbench.search import Status, solve
from oracles import brute_force_sat
from util import random_problem

DESK_SUITE = Path(__file__).resolve().parent.parent / "suites" / "desk.txt"

# sha256 of serialize_instance's text for each desk source: a faster
# serializer must write the same bytes
DESK_TEXT_SHA256 = {
    "pigeons-4": "97d7e64e364b43d2c8f61ed64a26234cd4d6bc8ee18bc2d6d57013759b7ae8f4",
    "pigeons-5": "d1678f67f97d822aded28cdd170242e5f6c5202bf10a46e92deebea7cc470a6d",
    "pigeons-6": "fc9af362b5fc9801856f8c2cb4358fbcb61ba0a5ce01628e3f810c53728f41ba",
    "langford-4": "a92602e6557cb250c717d0a8245a6fcc47a5ea184c42d8c955dffb1badcc1bbb",
    "langford-5": "5fd8fd9da6d4378249f2946533f43970d3b47621d8edf8449189602eb844e593",
    "langford-6": "e626745b8b5c6fae638b45cc7721f9ecb1cb5aa404cdde5944f956de57285210",
    "langford-7": "5a491c8cd42732482c907a71dded9744c03b388a670cf9cc2d60410b13e72751",
    "coloring-12-30-3-s1": "290e4cd2a054ce392873cc82e279a51ddaeff9096a664e72c94a9e0e03509987",
    "coloring-12-30-3-s2": "d59061cf6a77dcb542275208a762b8c72c2127ea2e1f729f8ac4abccce4b6e1d",
    "coloring-14-34-3-s5": "5d18b2914bd096a1639db7b1d7e4f1306d709eb8871fe6c149fa886582b9c7b0",
    "randomb-16-10-70-41-s5": "d9bebb3a28f0683a6619528641be1e39a32a49c1d921d285584f7d1935247819",
    "randomb-16-10-70-41-s8": "7756385fb1776f9d1b472a1ec713a15231cf715af5f30dc47e3cfc5b0500e492",
    "randomb-16-10-70-41-s10": "19c147f61b7c71b7b4f822b89f3716b86e68db85d79e3e122a8fa8dc981289aa",
    "randomb-16-10-70-38-s43": "838fd44b1e8a691039a37118f35939e5c25b98800ed5dc92842fe0b1950c455b",
    "forced-16-10-70-44-s1": "4c753fb2a32e36d2670c9a09d0d7c1ebae87eaddcd9359fe6b8eefdc2a4111ff",
    "forced-16-10-70-44-s2": "f39f453a140f4afdceca2a3bd7d5ec487264318216aecc1b14e8e3941b0ba12a",
    "forced-16-10-70-44-s3": "3e03a63b3e8c34849e0bacb87d1518977fdfde3d8b1027bfc7476f45f25efcb1",
    "qwh-4-12-s2": "5f41ff97f1cd4a4f4e21b366b169a9de23f32cc1ad194fb22d6aad0ccf275eff",
    "qwh-4-14-s1": "7b3c41346397ac3d43018195faf8e67886f938060dbcfe9dbd32b9c0f0e0d638",
    "qwh-4-16-s3": "a5806002f8cc62330d44a211f3f135b13ce13157076f2ebaffec7d44ad4fa49d",
}


def test_serialized_desk_sources_keep_their_bytes():
    sources = parse_manifest(DESK_SUITE.read_text(encoding="utf-8"), DESK_SUITE.parent)
    got = {
        source.name: hashlib.sha256(serialize_instance(source.load()).encode()).hexdigest()
        for source in sources
    }
    assert got == DESK_TEXT_SHA256


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


def test_roundtrip_every_operator():
    """One constraint per operator: the parser accepts every operator in the
    table, the round trip keeps it, and the dway verdict matches brute force
    on each prefix of the constraint list (the first ones are satisfiable,
    ``eq(x,y)`` after ``sub(x,y)`` is not)."""
    lines = ["var x -3..3", "var y -3..3"]
    for op, arity in OP_ARITY.items():
        lines.append(f"con int (x): {op}(x)" if arity == 1 else f"con int (x,y): {op}(x,y)")
    verdicts = set()
    for end in range(3, len(lines) + 1):
        p = parse_instance("\n".join(lines[:end]))
        assert parse_instance(serialize_instance(p)) == p
        expected = brute_force_sat(p)
        assert (solve(p, parse_scheme("dway")).status is Status.SAT) == expected, lines[end - 1]
        verdicts.add(expected)
    assert verdicts == {True, False}


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


def test_tuple_texts_of_one_value_give_one_relation():
    # spacing and leading zeros change the text of a tuple, not its value,
    # whether the variant comes before or after the canonical text
    variants = ["(1,2)", "( 01 , 2 )", "(1,\t02)", f"({ZEROS}1,2)", "(0001,2) ( 1,2 )"]
    canonical = parse_instance("var x 0..3\nvar y 0..3\ncon ext allowed (x,y) : (1,2)")
    for order in (variants, variants[::-1]):
        problem = parse_instance("var x 0..3\nvar y 0..3\n" + "".join(
            f"con ext allowed (x,y) : {v}\n" for v in order
        ))
        for c in problem.constraints:
            assert c.relation == canonical.constraints[0].relation


# (text, error line, col, message): a tuple text read before, and valid in
# the scope it had there, is still checked against the domains of each line
# that repeats it, and every error names the first value of the line that
# the rule picks: the first integer outside 64 bits, else, in the first scope
# position holding one, the first value outside its variable's domain
REPEATED_BAD_TUPLES = [
    pytest.param(
        "var x 0..1\nvar y 0..5\ncon ext allowed (y,x) : (5,0) (2,1)\n"
        "con ext allowed (x,y) : (0,1) (5,0) (1,1) (5,0)",
        4, 32, "value 5 outside the domain of 'x'", id="valid-on-an-earlier-line",
    ),
    pytest.param(
        "var x 0..1\nvar y 0..5\ncon ext allowed (y,x) : (5,0)\n"
        "con ext forbidden (x,y) : ( 5 ,0) (0,0) (5,0)",
        4, 29, "value 5 outside the domain of 'x'", id="spacing-variant-first",
    ),
    pytest.param(
        "var x 0..1\nvar y 0..5\ncon ext allowed (x,y) : (0,9) (0,1) (4,1) (0,9) (4,1)",
        3, 38, "value 4 outside the domain of 'x'", id="first-scope-position-first",
    ),
    pytest.param(
        "var x 0..1\ncon ext allowed (x) : (0) (" + "12345" * 5 + ")\n"
        "con ext allowed (x) : (1) (" + "12345" * 5 + ")",
        2, 28, "integer 12345123451234512345... (25 digits) outside 64-bit range",
        id="25-digit-tuple-twice",
    ),
    pytest.param(  # past int()'s digit limit, read by the slow path
        "var x 0..1\ncon ext allowed (x) : (0) (" + "7" * 5000 + ") (" + "7" * 5000 + ")",
        2, 28, "integer 77777777777777777777... (5000 digits) outside 64-bit range",
        id="5000-digit-tuple-twice",
    ),
]


@pytest.mark.parametrize("text,line,col,message", REPEATED_BAD_TUPLES)
def test_repeated_bad_tuples_report_their_first_occurrence(text, line, col, message):
    with pytest.raises(ParseError) as info:
        parse_instance(text)
    assert (info.value.line, info.value.col, info.value.message) == (line, col, message)


def test_leading_zeros_past_the_digit_limit_on_two_lines():
    problem = parse_instance(
        f"var x 0..1\ncon ext allowed (x) : ({ZEROS}1) (1)\n"
        f"con ext forbidden (x) : ({ZEROS}1) (0{ZEROS})"
    )
    assert [c.relation.tuples for c in problem.constraints] == [{(1,)}, {(0,), (1,)}]
