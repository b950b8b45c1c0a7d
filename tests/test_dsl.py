"""Scenario-file parsing: grammar, canonical rendering, and error positions.

Every accepted file must round-trip through ``render_scenario`` to an equal
scenario, and every rejected file must carry a 1-based position at the point
of failure together with an expected/found pair.
"""

import time
from fractions import Fraction

import pytest

from weilaff import (
    Const,
    Div,
    ParseError,
    Poly,
    Sqrt,
    Var,
    expr_to_poly,
    parse_expression,
    parse_scenario,
    render_expr,
    render_scenario,
)
from weilaff.dsl import CheckDecl, PointDecl


MINIMAL = """block eps vars 2 cap 1
point P = (0,0)
point Q = P + (eps[1], eps[2])
check in-Dk (Q - P) k=1
"""

FULL = """version 1
block eps vars 2 cap 1
quotient q vars 2 degcap 2 relations { q[1]*q[1], q[1]*q[2] + q[2]*q[1], q[2]*q[2] }
point O = (0, 0)
point P = O + (eps[1], eps[2])
point Q = O + (q[1], q[2])
map f(x, y) -> 2 { x + y^2, y + 3/2*x }
map g(x, y) -> 2 { x, y }
form det arity 2 dim 2 { [1,2] = 1 [2,1] = -1 }
connection gamma dim 2 { GAMMA[1][1,1] = x1 + x2 GAMMA[2][1,2] = 3 }
retract plane iota=g r=g
check in-Dk (P - O) k=1
check i-tuple (O; P) k=1
check nilsquare (O; P)
check in-DNk (P - O; P - O) k=1
check i-morphism f (O; P) k=1
check axioms canonical k=1 points (O; P) weights ((1/2, 1/2); (-1, 2)) outer (1/3, 2/3)
check axioms connection=gamma points (O; P) weights ((1/2, 1/2))
check equiv-connection gamma points (O; O; P)
check pullback-lemma connection=gamma iota=f points (O; P) weights ((0, 1))
check idempotent g at (1, 2)
"""


# -- accepted inputs ---------------------------------------------------------------------


def test_minimal_scenario():
    s = parse_scenario(MINIMAL)
    assert s.version is None
    assert len(s.checks) == 1
    assert s.checks[0].kind == "in-Dk"
    assert s.checks[0].k == 1


def test_round_trip_minimal():
    s = parse_scenario(MINIMAL)
    text = render_scenario(s)
    assert parse_scenario(text) == s
    assert render_scenario(parse_scenario(text)) == text


def test_round_trip_every_statement_kind():
    s = parse_scenario(FULL)
    kinds = {type(st).__name__ for st in s.statements}
    assert {
        "BlockDecl",
        "QuotientDecl",
        "PointDecl",
        "MapDecl",
        "FormDecl",
        "ConnectionDecl",
        "RetractDecl",
        "CheckDecl",
    } <= kinds
    assert [c.kind for c in s.checks] == [
        "in-Dk",
        "i-tuple",
        "nilsquare",
        "in-DNk",
        "i-morphism",
        "axioms",
        "axioms",
        "equiv-connection",
        "pullback-lemma",
        "idempotent",
    ]
    text = render_scenario(s)
    assert parse_scenario(text) == s
    assert render_scenario(parse_scenario(text)) == text


def test_version_header_preserved():
    s = parse_scenario(FULL)
    assert s.version == 1
    assert render_scenario(s).startswith("version 1\n")


def test_comments_and_blank_lines_ignored():
    s = parse_scenario(
        "# leading\nversion 1\nblock e vars 1 cap 2  # trailing\n\npoint P = (e[1],)\n"
    )
    assert render_scenario(s) == "version 1\nblock e vars 1 cap 2\npoint P = (e[1],)\n"


def test_crlf_accepted():
    s = parse_scenario("block e vars 1 cap 1\r\n\r\npoint P = (e[1],)\r\n")
    assert len(s.statements) == 2


def test_declaration_order_preserved():
    s = parse_scenario(FULL)
    names = [st.name for st in s.statements if hasattr(st, "name")]
    assert names == ["eps", "q", "O", "P", "Q", "f", "g", "det", "gamma", "plane"]


def test_rationals_canonicalized():
    s = parse_scenario("point P = (2/4, -6/4)")
    assert render_scenario(s) == "point P = (1/2, -3/2)\n"


def test_relations_polynomials_canonicalized():
    # q[1]*q[1] and the split symmetric product collapse to monomial form
    text = render_scenario(parse_scenario(FULL))
    assert "q[1]^2, 2*q[1]*q[2], q[2]^2" in text


def test_single_component_tuple_renders_with_comma():
    s = parse_scenario("block e vars 1 cap 1\npoint P = (e[1],)")
    assert "point P = (e[1],)" in render_scenario(s)
    # and the rendered form re-parses as a 1-vector
    assert parse_scenario(render_scenario(s)) == s


def test_map_single_output():
    s = parse_scenario("map f(x,y) -> 1 { x^2 + 3/2*y }")
    decl = s.statements[0]
    assert decl.out_dim == 1
    assert len(decl.bodies) == 1
    assert render_expr(decl.bodies[0], decl.params) == "x^2 + 3/2 * y"


def test_declarations_carry_polymap_objects():
    s = parse_scenario(FULL)
    decls = {st.name: st for st in s.statements if hasattr(st, "name")}
    assert decls["q"].relations[1] == Poly(2, {(1, 1): 2})
    assert dict(decls["gamma"].entries)[(1, 0, 1)] == Poly.constant(2, 3)
    f = decls["f"]
    x, y = Poly.variable(2, 0), Poly.variable(2, 1)
    assert [expr_to_poly(e, 2) for e in f.bodies] == [x + y ** 2, y + x * Fraction(3, 2)]
    sq = parse_scenario("map h(x) -> 1 { sqrt(x) / 2 }").statements[0]
    assert sq.bodies == (Div(Sqrt(Var(0)), Const(Fraction(2))),)


def test_integer_literals_stay_ints_and_a_quotient_folds_to_one_fraction(monkeypatch):
    for text, value in (("2", 2), ("-7", -7), ("2 * 3 - 10", -4), ("4/2", 2)):
        node = parse_expression(text)
        assert node == Const(value) and type(node.value) is (Fraction if "/" in text else int)
    built = []
    new = Fraction.__new__
    monkeypatch.setattr(Fraction, "__new__",
                        lambda cls, *args, **kw: built.append(args) or new(cls, *args, **kw))
    node = parse_expression("5/2")
    monkeypatch.undo()
    assert node == Const(Fraction(5, 2)) and built == [(5, 2)]
    assert render_expr(node) == "5/2" and render_expr(parse_expression("x * 3")) == "x * 3"


def test_term_budget_bounds_each_part_by_the_variables_it_uses():
    """A product's bound is capped by the dense count over the variables its
    factors use: (x+1)^500·(x+1)^499 has 1,000 terms, as (x+1)^999 has."""
    for body in ("(x+1)^500 * (x+1)^499", "(x+1)^999", "(x+y+1)^43", "(x+1)^900 * y"):
        parse_scenario(f"map f(x, y) -> 1 {{ {body} }}")
    for body in ("(x+1)^1000", "(x+y+1)^44", "(x+1)^500 * (x+1)^500", "(x+1)^999 * (y+1)"):
        text = f"map f(x, y) -> 1 {{ {body} }}"
        times = []
        for _ in range(3):
            start = time.perf_counter()
            with pytest.raises(ParseError, match="term budget"):
                parse_scenario(text)
            times.append(time.perf_counter() - start)
        assert min(times) < 0.001, (body, times)


def test_sqrt_allowed_in_map_bodies_only():
    parse_scenario("map f(x) -> 1 { sqrt(x) }")
    with pytest.raises(ParseError):
        parse_scenario("point P = (sqrt(1),)")


# -- expression parsing -------------------------------------------------------------------


def test_parse_expression_round_trip():
    for text in [
        "u[1] * u[2] + u[2] * u[1]",
        "(x + y) * x",
        "-x^2 + 1/2",
        "f(Q)",
        "(x,)",
        "P + (1, 2)",
        # a fraction literal binds as a quotient and a negative one as a negation
        "x / (3/2)",
        "(3/2)^2",
        "(-2)^2",
        "-(3/2)^2",
        "x * (-3/2)",
        "x - -2 + -1/2",
    ]:
        node = parse_expression(text)
        assert render_expr(node) == text
        assert parse_expression(render_expr(node)) == node


def test_literals_round_trip_through_scenarios():
    text = "block e vars 1 cap 2\npoint P = (e[1] / (3/2), (3/2)^2, (-2)^2)\n"
    s = parse_scenario(text)
    assert render_scenario(s) == text
    assert parse_scenario(render_scenario(s)) == s


def test_expression_errors_carry_positions():
    with pytest.raises(ParseError) as ei:
        parse_expression("1 + ")
    assert (ei.value.line, ei.value.column) == (1, 5)
    assert "expression" in ei.value.expected
    with pytest.raises(ParseError) as ei:
        parse_expression("2 ** 3")
    assert (ei.value.line, ei.value.column) == (1, 4)


# -- rejected inputs ----------------------------------------------------------------------


REJECTS = [
    # (text, line, col, expected fragment, found)
    (
        "block eps vars 2 cap 1\npoint P = (eps[1], eps[2])\ncheck in-Dk (P) k=0",
        3, 19, "an order k >= 1", "0",
    ),
    (
        "block eps vars 2 cap 1\npoint P = (eps[3], 0)",
        2, 16, "an index in 1..2", "3",
    ),
    ("block eps vars 2 cap 1\ncheck in-Dk (Zz) k=1", 2, 14, "a declared point name", "Zz"),
    ("block eps vars 2 cap 1\nblock eps vars 1 cap 1", 2, 7, "a fresh name", "eps"),
    ("block eps vars 2 cap 1 junk", 1, 24, "end of statement", "junk"),
    ("point P = (0,0) ; junk", 1, 17, "end of statement", ";"),
    (
        "frobnicate 3",
        1, 1, "a statement keyword", "frobnicate",
    ),
    (
        "block e vars 1 cap 1\npoint P = (0,)\npoint Q = P + (e[1],)\n"
        "check axioms canonical k=1 points (P; Q) weights ((1/2, 1/3))",
        4, 51, "weights summing to 1", "(",
    ),
    (
        "block e vars 1 cap 1\npoint P = (e[1],)\ncheck in-DNk (P) k=1",
        3, 7, "k+1 = 2 vectors", "in",
    ),
    ("map f(x) -> 1 { x", 1, 18, "'}'", "end of input"),
    ("block e vars 1 cap -1", 1, 20, "an integer", "-"),
    # a quotient's relations take its indexed generators, never its bare name
    (
        "quotient u vars 2 degcap 3 relations { u)1]*u[2] }",
        1, 40, "an indexed generator like u[1]", "u",
    ),
    (
        "quotient u vars 2 degcap 3 relations { u[1]*u }",
        1, 45, "an indexed generator like u[1]", "u",
    ),
    # another declaration's generator is reported at that generator
    (
        "block v vars 2 cap 1\n"
        "quotient q vars 2 degcap 2 relations { q[1]*q[2] + q[1]*v[1] }",
        2, 57, "this declaration's own generators", "v",
    ),
    # division by a non-constant, or an undeclared bare name, fails at the body
    (
        "quotient q vars 2 degcap 2 relations { q[1]*q[2]/q[1] }",
        1, 40, "division by a nonzero constant", "q",
    ),
    (
        "connection c dim 2 { GAMMA[1][1,2] = x1 + y }",
        1, 38, "a polynomial in the declared variables", "x1",
    ),
    # a map body is one scalar per component, never a tuple
    ("block d vars 1 cap 1\nmap f(x) -> 1 { (x, x) }", 2, 17, "a scalar expression", "("),
    # a size out of range is reported at its own integer, not at the name
    ("block d vars 0 cap 1", 1, 14, "vars >= 1", "0"),
    ("block d vars 1 cap 0", 1, 20, "cap >= 1", "0"),
    ("quotient u vars 0 degcap 2 relations { u[1]*u[1] }", 1, 17, "vars >= 1", "0"),
    ("quotient u vars 2 degcap 0 relations { u[1]*u[1] }", 1, 26, "degcap >= 1", "0"),
    ("map f(x) -> 0 { x }", 1, 13, "output dimension >= 1", "0"),
    ("form f arity 0 dim 2 { }", 1, 14, "arity >= 1", "0"),
    ("form f arity 2 dim 0 { }", 1, 20, "dim >= 1", "0"),
    ("connection c dim 0 { }", 1, 18, "dim >= 1", "0"),
    # integers are ASCII digits: other Unicode digits are no token at all
    ("block d vars \u00b2 cap 1", 1, 14, "a token", "'\u00b2'"),
    ("block d vars \u0663 cap 1", 1, 14, "a token", "'\u0663'"),
    ("block d vars 3\u0663 cap 1", 1, 15, "a token", "'\u0663'"),
    # a literal too long for int() is reported, not raised as ValueError
    ("point P = (" + "9" * 4301 + ",)", 1, 12, "an integer of at most 4300 digits", "4301 digits"),
    # a body with two faults reports the first: names resolve as they are read
    (
        "quotient q vars 2 degcap 2 relations { q[1]*u + ) }",
        1, 45, "an indexed generator like q[1]", "u",
    ),
    (
        "connection c dim 2 { GAMMA[1][1,1] = y * ( }",
        1, 38, "a polynomial in the declared variables", "y",
    ),
    (
        "block g vars 2 cap 1\nquotient q vars 2 degcap 2 relations { (g[1], q[1]) }",
        2, 41, "this declaration's own generators", "g",
    ),
]


@pytest.mark.parametrize("text, line, col, expected, found", REJECTS)
def test_rejected_with_position(text, line, col, expected, found):
    with pytest.raises(ParseError) as ei:
        parse_scenario(text)
    err = ei.value
    assert (err.line, err.column) == (line, col)
    assert expected in err.expected
    assert err.found == found
    # message format is part of the library's interface; the CLI prints its
    # own FILE:LINE:COL: prefix and then only the expected/found part
    assert str(err).startswith(f"line {line}, col {col}: expected ")
    # the position points into the source
    lines = text.splitlines() or [""]
    assert 1 <= err.line <= len(lines)
    assert 1 <= err.column <= len(lines[err.line - 1]) + 1


def test_retract_dimension_validation():
    with pytest.raises(ParseError) as ei:
        parse_scenario(
            "map i(x) -> 2 { x, 0 }\nmap r(x, y) -> 2 { x, y }\nretract t iota=i r=r"
        )
    assert "matching chart/ambient dimensions" in ei.value.expected


def test_connection_duplicate_entry_rejected():
    with pytest.raises(ParseError) as ei:
        parse_scenario(
            "connection c dim 2 { GAMMA[1][1,2] = 1 GAMMA[1][2,1] = 2 }"
        )
    assert "duplicate after symmetrization" in ei.value.expected


def test_form_duplicate_index_rejected():
    with pytest.raises(ParseError) as ei:
        parse_scenario("form f arity 2 dim 2 { [1,2] = 1 [1,2] = 2 }")
    assert "duplicate" in ei.value.expected


def test_quotient_requires_homogeneous_relations():
    with pytest.raises(ParseError):
        parse_scenario("quotient q vars 2 degcap 2 relations { q[1]*q[2] + q[1] }")


def test_checks_property_filters_statements():
    s = parse_scenario(MINIMAL)
    assert all(isinstance(c, CheckDecl) for c in s.checks)
    points = [st for st in s.statements if isinstance(st, PointDecl)]
    assert len(points) == 2
