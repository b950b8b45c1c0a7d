"""Scenario file format: declarations plus checks, one statement per line.

The grammar is deliberately small and LL(1):

    version 1
    block NAME vars INT cap INT
    quotient NAME vars INT degcap INT relations { POLY, POLY, ... }
    point NAME = VECEXPR
    map NAME ( PARAMS ) -> INT { EXPR, EXPR, ... }
    form NAME arity INT dim INT { [I, J, K] = RAT ... }
    connection NAME dim INT { GAMMA[I][J, K] = POLY ... }
    retract NAME iota=MAPNAME r=MAPNAME
    check KIND ARGS

`#` starts a comment; newlines are insignificant inside brackets.  Vector
lists in check arguments are parenthesized and `;`-separated, so a literal
coordinate tuple inside a list reads `((1, 2); Q)`.  Quotient relations use
the quotient's own generators (`q[1]*q[2]`), connection entries use the
coordinate names `x1..xn`.

Arithmetic parses straight to `polymap.Expr` nodes; two literals fold into
one `Const` (`3/2`) before any node is built.  An integer literal stays an
`int`, and only a quotient folds to a `Fraction`.  In a map body, a
relation or a GAMMA entry, names resolve to `Var` as they are read.  Points, check
vectors and `eval --expr` strings add the leaves `ERef` (a point or an
indexed generator), `EVec` (a coordinate tuple) and `ECall` (a map call).

Tokens come from one compiled pattern, the token table `_TOKEN_PATTERN`,
scanned with maximal munch.  After blanks (space, tab, `\r`) comes an ASCII
integer of at most 4,300 digits, a name (`str.isalnum` or `_`, starting with
`str.isalpha` or `_`), `->` or one of `(){}[],;=+-*/^`, a newline (a token
only outside brackets), a `#` comment to the end of the line (the NEWLINE or
EOF after it keeps the comment's column) or the end of input.  Anything else
is a ParseError at its line and column.
"""

from __future__ import annotations

import math
import operator
import re
from fractions import Fraction
from typing import NamedTuple, Optional

from .polymap import _BINARY, Add, Const, Div, Expr, Mul, Neg, Poly, Power, Sqrt, Sub, Var, expr_to_poly
from .weil import Record, _set_field

__all__ = [
    "ParseError",
    "ERef",
    "ECall",
    "EVec",
    "BlockDecl",
    "QuotientDecl",
    "PointDecl",
    "MapDecl",
    "FormDecl",
    "ConnectionDecl",
    "RetractDecl",
    "CheckDecl",
    "Scenario",
    "CHECK_KINDS",
    "parse_scenario",
    "parse_expression",
    "render_scenario",
    "render_expr",
]

CHECK_KINDS = (
    "in-Dk",
    "in-DNk",
    "i-tuple",
    "nilsquare",
    "i-morphism",
    "axioms",
    "equiv-connection",
    "pullback-lemma",
    "idempotent",
)

# Names that start a statement (or are otherwise magic) cannot be declared.
_RESERVED = {
    "version", "block", "quotient", "point", "map", "form", "connection",
    "retract", "check", "sqrt", "GAMMA",
}


class ParseError(Exception):
    """Syntax or semantic error with a 1-based source position."""

    def __init__(self, line: int, column: int, expected: str, found: str):
        self.line = line
        self.column = column
        self.expected = expected
        self.found = found
        super().__init__(f"line {line}, col {column}: expected {expected}, found {found}")


# -- expression leaves: the operators are polymap.Expr nodes -------------------------


class ERef(Record):
    """A bare name, or an indexed generator reference ``name[i]`` (1-based)."""

    __slots__ = ("name", "index")

    def __init__(self, name: str, index: Optional[int] = None):  # one per name read
        _set_field(self, "name", name)
        _set_field(self, "index", index)


class ECall(Record):
    """A call of a declared map (``eval --expr`` only)."""

    __slots__ = ("name", "args")


class EVec(Record):
    """Literal coordinate tuple; one-dimensional tuples read ``(expr,)``."""

    __slots__ = ("items",)


# -- statements --------------------------------------------------------------------

# Relations and GAMMA entries are held as :class:`Poly`, so scenario equality
# is syntax-independent; map bodies are polymap expressions over the parameters.


class _Decl(Record):
    """A statement: its source ``line``, last and 0 by default, is not compared."""

    __slots__ = ()
    _defaults = (0,)
    _compared = -1


class BlockDecl(_Decl):
    __slots__ = ("name", "nvars", "cap", "line")


class QuotientDecl(_Decl):
    # relations: Poly over the quotient's own generators
    __slots__ = ("name", "nvars", "degcap", "relations", "line")


class PointDecl(_Decl):
    __slots__ = ("name", "expr", "dim", "line")
    _defaults = (0, 0)
    _compared = 2  # nor is ``dim``


class MapDecl(_Decl):
    # bodies: one polymap Expr per output component, in Var(0..) = params
    __slots__ = ("name", "params", "out_dim", "bodies", "line")


class FormDecl(_Decl):
    # entries: ((i1..ik) 0-based, Fraction), sorted
    __slots__ = ("name", "arity", "dim", "entries", "line")


class ConnectionDecl(_Decl):
    # entries: ((i, a, b) 0-based with a <= b, Poly in x1..xn), sorted
    __slots__ = ("name", "dim", "entries", "line")


class RetractDecl(_Decl):
    __slots__ = ("name", "iota", "r", "line")


class CheckDecl(_Decl):
    # target: a map, connection or retract name; mode: axioms' canonical | connection | retract
    __slots__ = ("kind", "vectors", "k", "target", "iota", "at", "weights", "outer", "mode", "line")

    def __init__(self, kind: str, vectors=(), k=None, target=None, iota=None, at=None,
                 weights=(), outer=(), mode=None, line=0):  # keywords bind faster here
        super().__init__(kind, vectors, k, target, iota, at, weights, outer, mode, line)


class Scenario(Record):
    __slots__ = ("version", "statements")

    @property
    def checks(self) -> tuple:
        return tuple(s for s in self.statements if isinstance(s, CheckDecl))


# -- lexer -------------------------------------------------------------------------

# CPython's default limit on int(str): a longer literal would raise ValueError
_MAX_INT_DIGITS = 4300

# No quantifier nests, and after the blanks every position matches one
# alternative, tried in this order: no match backtracks, so a scan is linear.
_TOKEN_PATTERN = (
    r"(?s)[ \t\r]*(?:"
    r"([0-9]+)"  # 1 INT: ASCII digits only, str.isdigit also takes "²" and "٣"
    r"|(\w+)"  # 2 NAME: \w is str.isalnum or _, so only the first character is checked
    r"|(->|[(){}\[\],;=+\-*/^])"  # 3 punctuation
    r"|(\n)"  # 4 newline
    r"|(#[^\n]*)"  # 5 comment
    r"|(\Z)"  # 6 end of input
    r"|(.))"  # 7 no token
)
_INT, _NAME, _PUNCT, _NEWLINE, _COMMENT, _EOF = range(1, 7)


class _Tok(NamedTuple):
    type: str  # NAME INT NEWLINE EOF or the punct itself
    value: str
    line: int
    col: int


def _lex(text: str):
    toks = []
    append = toks.append
    new = tuple.__new__  # _Tok without its Python-level __new__
    line, line_start = 1, 0  # columns count from the line's start
    depth = 0  # brackets open; a newline inside them is no token
    held = 0  # a comment's column: the NEWLINE or EOF after it reports that
    # re's own cache keeps the compiled pattern: compiled on first use, not on import
    for m in re.finditer(_TOKEN_PATTERN, text):
        group = m.lastindex
        value = m[group]
        col = m.start(group) - line_start + 1
        if group == _NAME:
            # INT took the ASCII digits; a run that starts with "²" or "٣" is no name
            if not (value[0].isalpha() or value[0] == "_"):
                raise ParseError(line, col, "a token", repr(value[0]))
            append(new(_Tok, ("NAME", value, line, col)))
        elif group == _PUNCT:
            if value in "([{":
                depth += 1
            elif depth and value in ")]}":
                depth -= 1
            append(new(_Tok, (value, value, line, col)))
        elif group == _INT:
            if len(value) > _MAX_INT_DIGITS:
                raise ParseError(
                    line, col, f"an integer of at most {_MAX_INT_DIGITS} digits", f"{len(value)} digits"
                )
            append(new(_Tok, ("INT", value, line, col)))
        elif group == _NEWLINE:
            if not depth:
                append(new(_Tok, ("NEWLINE", "\\n", line, held or col)))
            line += 1
            line_start = m.end()
            held = 0
        elif group == _COMMENT:
            held = col
        elif group == _EOF:
            break
        else:
            raise ParseError(line, col, "a token", repr(value))
    append(new(_Tok, ("EOF", "end of input", line, held or col)))
    return toks


# -- parser ------------------------------------------------------------------------


class _Sym:
    __slots__ = ("kind", "a", "b")

    def __init__(self, kind: str, a: int = 0, b: int = 0):
        self.kind = kind  # block quotient point map form connection retract
        self.a = a  # nvars / dim / in_dim / arity / chart_dim
        self.b = b  # out_dim / dim / ambient_dim


# The most basis monomials the blocks of one file may give its algebra: a
# dense product at this size takes about a second with three generators and
# about ten with one (README, "Scenario files")
_MAX_DIMENSION = 10_000

# The most terms a map component, relation or GAMMA entry may expand to, by
# :func:`_expanded_terms`: (x+1)^999 takes about half a second (README)
_MAX_TERMS = 1_000


def _expanded_terms(node) -> int:
    """A bound on the terms of the polynomial ``node`` and of each
    subexpression expanded on the way, saturated past ``_MAX_TERMS``: a
    degree-D one in v variables has at most C(v + D, v) terms (the variables
    it uses are tracked as a bitmask), a sum at most its operands' together,
    a product their product, and a t-term base to the power e at most
    C(t + e - 1, e), so a power of one monomial stays one term.  A quotient
    or a root counts as its first operand."""
    over = _MAX_TERMS + 1

    def comb(top, k):  # C(top, k) for 0 < k < top, saturated; it exceeds k and top - k
        return over if max(k, top - k) >= over else min(math.comb(top, k), over)

    # operands are walked before the node, which the stack holds as (node,)
    # meanwhile; ``done`` holds (degree, terms, variables) of finished
    # operands, the rightmost last, each saturated at ``over``
    worst, done, todo = 1, [], [node]
    while todo:
        n = todo.pop()
        kind = type(n)
        if kind is Const or kind is Var:
            done.append((1, 1, 1 << n.index) if kind is Var else (0, 1, 0))
        elif kind is not tuple:
            todo.append((n,))
            todo.extend((n.right, n.left) if kind in _BINARY else
                        (n.base,) if kind is Power else (n.operand,))
        else:
            n = n[0]
            kind = type(n)
            db, tb, vb = done.pop() if kind in _BINARY else (0, 1, 0)
            deg, terms, used = done.pop()
            used |= vb
            if kind is Add or kind is Sub:
                deg, terms = max(deg, db), terms + tb
            elif kind is Mul:
                deg, terms = deg + db, terms * tb
            elif kind is Power:
                e = n.exponent
                deg, terms = deg * e, 1 if terms == 1 or not e else comb(terms + e - 1, e)
            deg = min(deg, over)
            if not deg:
                terms = 1
            elif terms > max(deg, v := used.bit_count()) + 1:  # the dense count exceeds both
                terms = min(terms, comb(v + deg, v))
            done.append((deg, terms, used))
            worst = max(worst, terms)
    return worst


class _Parser:
    def __init__(self, text: str):
        self.toks = _lex(text)
        self.pos = 0
        self.tok = self.toks[0]  # toks[pos]; ``advance`` never moves past EOF
        self.symbols: dict = {}
        self.scope: Optional[_Scope] = None  # set while a scalar body is read
        self.calls = False  # map calls: only in ``eval --expr`` strings
        self.dimension = 1  # of the algebra of the blocks declared so far

    # token plumbing

    def advance(self) -> _Tok:
        t = self.tok
        if t.type != "EOF":
            self.pos += 1
            self.tok = self.toks[self.pos]
        return t

    def fail(self, expected: str, tok: Optional[_Tok] = None):
        tok = tok or self.tok
        found = tok.value if tok.type != "NEWLINE" else "end of line"
        raise ParseError(tok.line, tok.col, expected, found)

    def expect(self, type_: str, expected: Optional[str] = None) -> _Tok:
        if self.tok.type != type_:
            self.fail(expected or f"'{type_}'")
        return self.advance()

    def expect_word(self, word: str) -> _Tok:
        t = self.tok
        if t.type != "NAME" or t.value != word:
            self.fail(f"'{word}'")
        return self.advance()

    def expect_int(self, what: str = "an integer") -> int:
        return int(self.expect("INT", what).value)

    def skip_newlines(self):
        while self.tok.type == "NEWLINE":
            self.advance()

    def end_statement(self):
        t = self.tok
        if t.type not in ("NEWLINE", "EOF"):
            self.fail("end of statement")

    # symbols

    def declare(self, tok: _Tok, sym: _Sym) -> str:
        name = tok.value
        if name in _RESERVED:
            self.fail("a fresh name (keyword is reserved)", tok)
        if name in self.symbols:
            self.fail("a fresh name (already declared)", tok)
        self.symbols[name] = sym
        return name

    def lookup(self, tok: _Tok, kinds) -> _Sym:
        sym = self.symbols.get(tok.value)
        if sym is None:
            self.fail(f"a declared name ({' or '.join(kinds)})", tok)
        if sym.kind not in kinds:
            self.fail(f"a name of kind {' or '.join(kinds)}", tok)
        return sym

    # scenario

    def parse(self) -> Scenario:
        stmts = []
        version = None
        self.skip_newlines()
        if self.tok.type == "NAME" and self.tok.value == "version":
            self.advance()
            version = self.expect_int("a version number")
            if version != 1:
                self.fail("version 1", self.toks[self.pos - 1])
            self.end_statement()
            self.skip_newlines()
        while self.tok.type != "EOF":
            stmts.append(self.guarded(self.statement))
            self.end_statement()
            self.skip_newlines()
        return Scenario(version, tuple(stmts))

    def guarded(self, parse):
        """``parse()``, with input nested too deeply for the interpreter's
        stack reported at the first token it read."""
        first = self.tok
        try:
            return parse()
        except RecursionError:
            self.fail("input nested less deeply", first)

    def statement(self):
        t = self.tok
        if t.type != "NAME":
            self.fail("a statement keyword")
        handler = _Parser.STATEMENTS.get(t.value)
        if handler is None:
            self.fail("a statement keyword (block/quotient/point/map/form/connection/retract/check)")
        return handler(self)

    # declarations

    def stmt_block(self):
        line = self.advance().line
        name_tok = self.expect("NAME", "a block name")
        self.expect_word("vars")
        nvars = self.positive_int("vars >= 1")
        self.expect_word("cap")
        cap_tok = self.tok
        cap = self.positive_int("cap >= 1")
        # the block has C(vars + cap, cap) > max(vars, cap) basis monomials,
        # so a larger value is over the budget before math.comb runs
        self.dimension *= (math.comb(nvars + cap, cap) if max(nvars, cap) < _MAX_DIMENSION
                           else _MAX_DIMENSION + 1)
        if self.dimension > _MAX_DIMENSION:
            self.fail(f"a cap within the dimension budget ({_MAX_DIMENSION:,} basis monomials"
                      " over all blocks)", cap_tok)
        self.declare(name_tok, _Sym("block", nvars))
        return BlockDecl(name_tok.value, nvars, cap, line)

    def stmt_quotient(self):
        line = self.advance().line
        name_tok = self.expect("NAME", "a quotient name")
        self.expect_word("vars")
        nvars = self.positive_int("vars >= 1")
        self.expect_word("degcap")
        degcap = self.positive_int("degcap >= 1")
        # declared before its relations so q[1]*q[2] can reference q itself
        self.declare(name_tok, _Sym("quotient", nvars))
        self.expect_word("relations")
        self.expect("{")
        rels = [self.polynomial({}, nvars, family=name_tok.value)]
        while self.tok.type == ",":
            self.advance()
            rels.append(self.polynomial({}, nvars, family=name_tok.value))
        self.expect("}")
        return QuotientDecl(name_tok.value, nvars, degcap, tuple(rels), line)

    def stmt_point(self):
        line = self.advance().line
        name_tok = self.expect("NAME", "a point name")
        self.expect("=")
        start = self.tok
        expr = self.expr()
        dim = self.infer_vector(expr, start)
        self.declare(name_tok, _Sym("point", dim))
        return PointDecl(name_tok.value, expr, dim, line)

    def stmt_map(self):
        line = self.advance().line
        name_tok = self.expect("NAME", "a map name")
        self.expect("(")
        params = [self.expect("NAME", "a parameter name").value]
        while self.tok.type == ",":
            self.advance()
            params.append(self.expect("NAME", "a parameter name").value)
        self.expect(")")
        if len(set(params)) != len(params):
            self.fail("distinct parameter names", name_tok)
        self.expect("->")
        out_dim = self.positive_int("output dimension >= 1", "the output dimension")
        self.expect("{")
        names = {p: i for i, p in enumerate(params)}
        bodies = [self.scalar_body(names, body=True)]
        while self.tok.type == ",":
            self.advance()
            bodies.append(self.scalar_body(names, body=True))
        close = self.tok
        self.expect("}")
        if len(bodies) != out_dim:
            self.fail(f"{out_dim} component expression(s)", close)
        self.declare(name_tok, _Sym("map", len(params), out_dim))
        return MapDecl(name_tok.value, tuple(params), out_dim, tuple(bodies), line)

    def stmt_form(self):
        line = self.advance().line
        name_tok = self.expect("NAME", "a form name")
        self.expect_word("arity")
        arity = self.positive_int("arity >= 1")
        self.expect_word("dim")
        dim = self.positive_int("dim >= 1")
        self.expect("{")
        entries = {}
        while self.tok.type == "[":
            open_tok = self.advance()
            idx = [self.expect_int("a coordinate index")]
            while self.tok.type == ",":
                self.advance()
                idx.append(self.expect_int("a coordinate index"))
            self.expect("]")
            if len(idx) != arity:
                self.fail(f"{arity} indices", open_tok)
            if any(not 1 <= i <= dim for i in idx):
                self.fail(f"indices in 1..{dim}", open_tok)
            key = tuple(i - 1 for i in idx)
            if key in entries:
                self.fail("a fresh index tuple (duplicate entry)", open_tok)
            self.expect("=")
            entries[key] = self.rational()
        self.expect("}")
        self.declare(name_tok, _Sym("form", arity, dim))
        entries = tuple(sorted((k, v) for k, v in entries.items() if v))
        return FormDecl(name_tok.value, arity, dim, entries, line)

    def stmt_connection(self):
        line = self.advance().line
        name_tok = self.expect("NAME", "a connection name")
        self.expect_word("dim")
        dim = self.positive_int("dim >= 1")
        names = {f"x{j}": j - 1 for j in range(1, dim + 1)}
        self.expect("{")
        entries = {}
        while self.tok.type == "NAME" and self.tok.value == "GAMMA":
            gtok = self.advance()
            self.expect("[")
            i = self.expect_int("a component index")
            self.expect("]")
            self.expect("[")
            a = self.expect_int("a coordinate index")
            self.expect(",")
            b = self.expect_int("a coordinate index")
            self.expect("]")
            if not (1 <= i <= dim and 1 <= a <= dim and 1 <= b <= dim):
                self.fail(f"indices in 1..{dim}", gtok)
            key = (i - 1, min(a, b) - 1, max(a, b) - 1)
            if key in entries:
                self.fail("a fresh GAMMA entry (duplicate after symmetrization)", gtok)
            self.expect("=")
            entries[key] = self.polynomial(names, dim, homogeneous=False)
        self.expect("}")
        self.declare(name_tok, _Sym("connection", dim))
        return ConnectionDecl(name_tok.value, dim, tuple(sorted(entries.items())), line)

    def stmt_retract(self):
        line = self.advance().line
        name_tok = self.expect("NAME", "a retract name")
        self.expect_word("iota")
        self.expect("=")
        iota_tok = self.expect("NAME", "a map name")
        iota = self.lookup(iota_tok, ("map",))
        self.expect_word("r")
        self.expect("=")
        r_tok = self.expect("NAME", "a map name")
        r = self.lookup(r_tok, ("map",))
        if iota.a != r.b or iota.b != r.a:
            self.fail("maps with matching chart/ambient dimensions", r_tok)
        self.declare(name_tok, _Sym("retract", iota.a, iota.b))
        return RetractDecl(name_tok.value, iota_tok.value, r_tok.value, line)

    # checks

    def stmt_check(self):
        line = self.advance().line
        kind_tok = self.tok
        kind = self.check_kind()
        return _Parser.CHECKS[kind](self, kind, kind_tok, line)

    def check_kind(self) -> str:
        parts = [self.expect("NAME", "a check kind").value]
        while self.tok.type == "-":
            self.advance()
            parts.append(self.expect("NAME", "rest of the check kind").value)
        kind = "-".join(parts)
        if kind not in CHECK_KINDS:
            self.fail("a check kind (%s)" % ", ".join(CHECK_KINDS), self.toks[self.pos - 1])
        return kind

    def check_membership(self, kind, kind_tok, line):
        vectors, dim = self.vector_list()
        k = None
        if kind != "nilsquare":
            k = self.k_param()
        if kind in ("i-tuple", "nilsquare") and len(vectors) < 2:
            self.fail("at least two points", kind_tok)
        if kind == "in-Dk" and len(vectors) != 1:
            self.fail("exactly one vector", kind_tok)
        if kind == "in-DNk" and len(vectors) != k + 1:
            self.fail(f"k+1 = {k + 1} vectors", kind_tok)
        return CheckDecl(kind, vectors=vectors, k=k, line=line)

    def check_imorphism(self, kind, kind_tok, line):
        map_tok = self.expect("NAME", "a map name")
        sym = self.lookup(map_tok, ("map",))
        vectors, dim = self.vector_list()
        if len(vectors) < 2:
            self.fail("at least two points", kind_tok)
        if dim != sym.a:
            self.fail(f"points of dimension {sym.a}", map_tok)
        k = self.k_param()
        return CheckDecl(kind, vectors=vectors, k=k, target=map_tok.value, line=line)

    def check_axioms(self, kind, kind_tok, line):
        mode_tok = self.expect("NAME", "canonical, connection=NAME, or retract=NAME")
        mode = mode_tok.value
        k = None
        target = None
        if mode == "canonical":
            k = self.k_param()
        elif mode in ("connection", "retract"):
            self.expect("=")
            target_tok = self.expect("NAME", f"a {mode} name")
            self.lookup(target_tok, (mode,))
            target = target_tok.value
        else:
            self.fail("canonical, connection=NAME, or retract=NAME", mode_tok)
        self.expect_word("points")
        points, dim = self.vector_list()
        self.expect_word("weights")
        weights = self.weight_rows(len(points))
        outer = ()
        if self.tok.type == "NAME" and self.tok.value == "outer":
            self.advance()
            outer = self.weight_row(len(weights))
        return CheckDecl(
            kind, vectors=points, k=k, target=target, weights=weights,
            outer=outer, mode=mode, line=line,
        )

    def check_equiv(self, kind, kind_tok, line):
        conn_tok = self.expect("NAME", "a connection name")
        self.lookup(conn_tok, ("connection",))
        self.expect_word("points")
        points, dim = self.vector_list()
        if len(points) != 3:
            self.fail("exactly three points (P; Q; S)", kind_tok)
        return CheckDecl(kind, vectors=points, target=conn_tok.value, line=line)

    def check_pullback(self, kind, kind_tok, line):
        self.expect_word("connection")
        self.expect("=")
        conn_tok = self.expect("NAME", "a connection name")
        conn = self.lookup(conn_tok, ("connection",))
        self.expect_word("iota")
        self.expect("=")
        iota_tok = self.expect("NAME", "a map name")
        iota = self.lookup(iota_tok, ("map",))
        if iota.a != iota.b or iota.b != conn.a:
            self.fail("a square map matching the connection dimension", iota_tok)
        self.expect_word("points")
        points, dim = self.vector_list()
        if dim != conn.a:
            self.fail(f"points of dimension {conn.a}", conn_tok)
        self.expect_word("weights")
        weights = self.weight_rows(len(points))
        return CheckDecl(
            kind, vectors=points, target=conn_tok.value, iota=iota_tok.value,
            weights=weights, line=line,
        )

    def check_idempotent(self, kind, kind_tok, line):
        name_tok = self.expect("NAME", "a map or retract name")
        sym = self.lookup(name_tok, ("map", "retract"))
        if sym.kind == "map" and sym.a != sym.b:
            self.fail("a square map (idempotents need in-dim == out-dim)", name_tok)
        ambient = sym.b
        self.expect_word("at")
        start = self.tok
        at = self.expr()
        if self.infer_vector(at, start) != ambient:
            self.fail(f"a base point of dimension {ambient}", start)
        return CheckDecl(kind, target=name_tok.value, at=at, line=line)

    STATEMENTS = {
        "block": stmt_block,
        "quotient": stmt_quotient,
        "point": stmt_point,
        "map": stmt_map,
        "form": stmt_form,
        "connection": stmt_connection,
        "retract": stmt_retract,
        "check": stmt_check,
    }
    CHECKS = {
        "in-Dk": check_membership,
        "in-DNk": check_membership,
        "i-tuple": check_membership,
        "nilsquare": check_membership,
        "i-morphism": check_imorphism,
        "axioms": check_axioms,
        "equiv-connection": check_equiv,
        "pullback-lemma": check_pullback,
        "idempotent": check_idempotent,
    }

    # shared argument helpers

    def k_param(self) -> int:
        self.expect_word("k")
        self.expect("=")
        return self.positive_int("an order k >= 1", "an order k >= 1")

    def positive_int(self, expected: str, what: str = "an integer") -> int:
        """An integer token; below 1 it fails at that token with ``expected``."""
        tok = self.tok
        value = self.expect_int(what)
        if value < 1:
            self.fail(expected, tok)
        return value

    def vector_list(self):
        """Parenthesized `;`-separated VECEXPRs; returns (tuple, common dim)."""
        self.expect("(")
        start = self.tok
        items = [self.expr()]
        dims = [self.infer_vector(items[0], start)]
        while self.tok.type == ";":
            self.advance()
            start = self.tok
            items.append(self.expr())
            dims.append(self.infer_vector(items[-1], start))
        self.expect(")")
        if len(set(dims)) > 1:
            self.fail("vectors of equal dimension", start)
        return tuple(items), dims[0]

    def weight_row(self, width: int):
        open_tok = self.expect("(")
        vals = [self.rational()]
        while self.tok.type == ",":
            self.advance()
            vals.append(self.rational())
        self.expect(")")
        if len(vals) != width:
            self.fail(f"{width} weights", open_tok)
        if sum(vals) != 1:
            self.fail("weights summing to 1", open_tok)
        return tuple(vals)

    def weight_rows(self, width: int):
        self.expect("(")
        rows = [self.weight_row(width)]
        while self.tok.type == ";":
            self.advance()
            rows.append(self.weight_row(width))
        self.expect(")")
        return tuple(rows)

    def rational(self) -> Fraction:
        neg = False
        if self.tok.type == "-":
            self.advance()
            neg = True
        num = self.expect_int("a rational number")
        den = 1
        if self.tok.type == "/":
            self.advance()
            den = self.expect_int("a denominator")
            if den == 0:
                self.fail("a nonzero denominator", self.toks[self.pos - 1])
        return Fraction(-num if neg else num, den)

    # expressions

    def scalar_body(self, names: dict, family=None, body=False) -> Expr:
        """One scalar body, its names resolved by the rules of
        :class:`_Scope`, within the term budget."""
        start = self.tok
        self.scope = _Scope(names, family, start, body)
        node = self.expr()
        self.scope = None
        if _expanded_terms(node) > _MAX_TERMS:
            self.fail(f"a body within the term budget ({_MAX_TERMS:,} terms when expanded)", start)
        return node

    def expr(self):
        node = self.mulexpr()
        while self.tok.type in ("+", "-"):
            op = self.advance().type
            node = _binop(op, node, self.mulexpr())
        return node

    def mulexpr(self):
        node = self.unary()
        while self.tok.type in ("*", "/"):
            op = self.advance().type
            node = _binop(op, node, self.unary())
        return node

    def unary(self):
        if self.tok.type == "-":
            self.advance()
            node = self.unary()
            return Const(-node.value) if type(node) is Const else Neg(node)
        node = self.atom()
        if self.tok.type == "^":
            self.advance()
            node = Power(node, self.expect_int("a nonnegative integer exponent"))
        return node

    def atom(self):
        t = self.tok
        scope = self.scope
        if t.type == "INT":
            self.advance()
            return Const(int(t.value))
        if t.type == "(":
            self.advance()
            first = self.expr()
            if self.tok.type == ",":
                items = [first]
                while self.tok.type == ",":
                    self.advance()
                    if self.tok.type == ")":  # 1-tuple: "(x,)"
                        break
                    items.append(self.expr())
                self.expect(")")
                if scope:  # after the ")": an unclosed tuple reports that first
                    self.fail("a scalar expression", scope.start)
                return EVec(tuple(items))
            self.expect(")")
            return first
        if t.type == "NAME":
            self.advance()
            if self.tok.type == "(" and (self.calls or scope and scope.body):
                return self.call(t)
            if self.tok.type == "[":
                self.advance()
                itok = self.tok
                index = self.expect_int("a generator index")
                self.expect("]")
                if scope and scope.body:
                    self.fail("a parameter name (no generators inside map bodies)", t)
                sym = self.lookup(t, ("block", "quotient"))
                if not 1 <= index <= sym.a:
                    self.fail(f"an index in 1..{sym.a}", itok)
                if not scope:
                    return ERef(t.value, index)
                if t.value != scope.family:
                    self.fail("this declaration's own generators", t)
                return Var(index - 1)
            if not scope:
                return ERef(t.value)
            if t.value in scope.names:
                return Var(scope.names[t.value])
            if scope.body:
                self.fail("a declared parameter name", t)
            if scope.family is not None:
                self.fail(f"an indexed generator like {scope.family}[1]", t)
            self.fail("a polynomial in the declared variables", scope.start)
        self.fail("an expression")

    def call(self, t: _Tok):
        """``sqrt(x)``, or (``eval --expr`` only) a call of a declared map."""
        if not self.calls and t.value != "sqrt":
            self.fail("sqrt (the only call allowed here)", t)
        self.advance()
        args = [self.expr()]
        while self.tok.type == ",":
            self.advance()
            args.append(self.expr())
        self.expect(")")
        if t.value == "sqrt":
            if len(args) != 1:
                self.fail("one argument to sqrt", t)
            return Sqrt(args[0])
        self.lookup(t, ("map",))
        return ECall(t.value, tuple(args))

    # expression typing: returns dimension for vectors, 0 for scalars

    def typeof(self, node, tok) -> int:
        if isinstance(node, Const):
            return 0
        if isinstance(node, ERef):
            if node.index is not None:
                return 0
            sym = self.symbols.get(node.name)
            if sym is None:
                self.fail("a declared point name", tok)
            if sym.kind != "point":
                self.fail("a point name", tok)
            return sym.a
        if isinstance(node, EVec):
            for item in node.items:
                if self.typeof(item, tok) != 0:
                    self.fail("scalar tuple components", tok)
            return len(node.items)
        if isinstance(node, Neg):
            return self.typeof(node.operand, tok)
        if isinstance(node, Power):
            if self.typeof(node.base, tok) != 0:
                self.fail("a scalar base for ^", tok)
            return 0
        lt = self.typeof(node.left, tok)
        rt = self.typeof(node.right, tok)
        if isinstance(node, (Add, Sub)):
            if lt != rt:
                self.fail("operands of equal dimension", tok)
            return lt
        if isinstance(node, Mul):
            if lt and rt:
                self.fail("at most one vector factor", tok)
            return lt or rt
        if rt != 0:
            self.fail("a scalar divisor", tok)
        return lt

    def infer_vector(self, node, tok) -> int:
        dim = self.typeof(node, tok)
        if dim == 0:
            self.fail("a vector-valued expression", tok)
        return dim

    def polynomial(self, names: dict, nvars: int, homogeneous: bool = True, family=None) -> Poly:
        """Fold an expression into a polynomial over ``nvars`` variables: the
        bare names of ``names``, or the indexed generators ``family[i]``."""
        start = self.tok
        poly = expr_to_poly(self.scalar_body(names, family), nvars)
        if poly is None:
            self.fail("division by a nonzero constant", start)
        if poly.is_zero():
            self.fail("a nonzero polynomial", start)
        if homogeneous:
            degs = {sum(m) for m in poly._num}
            if len(degs) != 1:
                self.fail("a homogeneous polynomial", start)
            if min(degs) < 2:
                self.fail("a relation of degree >= 2", start)
        return poly


class _Scope(NamedTuple):
    """Where names resolve to ``Var`` as they are read: the bare ``names``, or
    a quotient ``family``'s generators ``family[i]``.  A map ``body`` admits
    only its parameters and ``sqrt``.  A tuple, or a bare name outside
    ``names`` and with no ``family``, fails at the body's ``start`` token."""

    names: dict
    family: Optional[str]
    start: _Tok
    body: bool


_BINOPS = {
    "+": (Add, operator.add),
    "-": (Sub, operator.sub),
    "*": (Mul, operator.mul),
    "/": (Div, Fraction),
}


def _binop(op: str, left, right):
    """``left op right``; two literals fold into one Const, so `3/2` is a literal."""
    node, fold = _BINOPS[op]
    if type(left) is Const and type(right) is Const and (op != "/" or right.value):
        return Const(fold(left.value, right.value))
    return node(left, right)


def parse_scenario(text: str) -> Scenario:
    """Parse and validate a scenario; raises ParseError with a 1-based position."""
    return _Parser(text).parse()


def parse_expression(text: str) -> object:
    """Parse a standalone expression (the CLI eval surface: calls allowed)."""
    p = _Parser(text.replace("\n", " "))
    # no symbol table: name resolution happens at evaluation time
    p.lookup = lambda tok, kinds: _Sym("block", 10 ** 9, 10 ** 9)  # type: ignore[assignment]
    p.calls = True
    node = p.guarded(p.expr)
    if p.tok.type != "EOF":
        p.fail("end of expression")
    return node


# -- rendering ---------------------------------------------------------------------

_BINOP_TEXT = {Add: ("+", 10), Sub: ("-", 10), Mul: ("*", 20), Div: ("/", 20)}


def render_expr(node, names=()) -> str:
    """Source text of an expression; ``Var(i)`` renders as ``names[i]``."""
    return _render(node, 0, names)


def _render(node, parent_prec: int, names) -> str:
    if isinstance(node, Const):
        # a fraction reads as a Div and a negative literal as a Neg
        prec = 20 if node.value.denominator != 1 else 30 if node.value < 0 else 50
        return f"({node.value})" if parent_prec > prec else str(node.value)
    if isinstance(node, Var):
        return names[node.index]
    if isinstance(node, ERef):
        return node.name if node.index is None else f"{node.name}[{node.index}]"
    if isinstance(node, EVec):
        inner = ", ".join(_render(item, 0, names) for item in node.items)
        return f"({inner},)" if len(node.items) == 1 else f"({inner})"
    if isinstance(node, ECall):
        return f"{node.name}({', '.join(_render(a, 0, names) for a in node.args)})"
    if isinstance(node, Sqrt):
        return f"sqrt({_render(node.operand, 0, names)})"
    if isinstance(node, Neg):
        text = f"-{_render(node.operand, 30, names)}"
        return f"({text})" if parent_prec > 30 else text
    if isinstance(node, Power):
        text = f"{_render(node.base, 41, names)}^{node.exponent}"
        return f"({text})" if parent_prec > 40 else text
    op, prec = _BINOP_TEXT[type(node)]
    left = _render(node.left, prec, names)
    right = _render(node.right, prec + 1, names)  # right-side ties get parens
    text = f"{left} {op} {right}"
    return f"({text})" if parent_prec > prec else text


def _render_weights(rows) -> str:
    return "(" + "; ".join(_render_row(r) for r in rows) + ")"


def _render_row(row) -> str:
    return "(" + ", ".join(str(v) for v in row) + ")"


def _render_check(c: CheckDecl) -> str:
    vecs = "(" + "; ".join(render_expr(v) for v in c.vectors) + ")"
    if c.kind in ("in-Dk", "in-DNk", "i-tuple"):
        return f"check {c.kind} {vecs} k={c.k}"
    if c.kind == "nilsquare":
        return f"check nilsquare {vecs}"
    if c.kind == "i-morphism":
        return f"check i-morphism {c.target} {vecs} k={c.k}"
    if c.kind == "axioms":
        head = "canonical k=%d" % c.k if c.mode == "canonical" else f"{c.mode}={c.target}"
        text = f"check axioms {head} points {vecs} weights {_render_weights(c.weights)}"
        if c.outer:
            text += f" outer {_render_row(c.outer)}"
        return text
    if c.kind == "equiv-connection":
        return f"check equiv-connection {c.target} points {vecs}"
    if c.kind == "pullback-lemma":
        return (
            f"check pullback-lemma connection={c.target} iota={c.iota} "
            f"points {vecs} weights {_render_weights(c.weights)}"
        )
    if c.kind == "idempotent":
        return f"check idempotent {c.target} at {render_expr(c.at)}"
    raise AssertionError(c.kind)


def render_scenario(s: Scenario) -> str:
    """Canonical text that re-parses to an equal scenario."""
    lines = []
    if s.version is not None:
        lines.append(f"version {s.version}")
    for st in s.statements:
        if isinstance(st, BlockDecl):
            lines.append(f"block {st.name} vars {st.nvars} cap {st.cap}")
        elif isinstance(st, QuotientDecl):
            names = [f"{st.name}[{i}]" for i in range(1, st.nvars + 1)]
            rels = ", ".join(r.format(names) for r in st.relations)
            lines.append(
                f"quotient {st.name} vars {st.nvars} degcap {st.degcap} relations {{ {rels} }}"
            )
        elif isinstance(st, PointDecl):
            lines.append(f"point {st.name} = {render_expr(st.expr)}")
        elif isinstance(st, MapDecl):
            bodies = ", ".join(render_expr(b, st.params) for b in st.bodies)
            lines.append(
                f"map {st.name}({', '.join(st.params)}) -> {st.out_dim} {{ {bodies} }}"
            )
        elif isinstance(st, FormDecl):
            parts = " ".join(
                "[%s] = %s" % (", ".join(str(i + 1) for i in idx), val)
                for idx, val in st.entries
            )
            lines.append(f"form {st.name} arity {st.arity} dim {st.dim} {{ {parts} }}")
        elif isinstance(st, ConnectionDecl):
            names = [f"x{j}" for j in range(1, st.dim + 1)]
            parts = " ".join(
                "GAMMA[%d][%d, %d] = %s" % (i + 1, a + 1, b + 1, p.format(names))
                for (i, a, b), p in st.entries
            )
            lines.append(f"connection {st.name} dim {st.dim} {{ {parts} }}")
        elif isinstance(st, RetractDecl):
            lines.append(f"retract {st.name} iota={st.iota} r={st.r}")
        elif isinstance(st, CheckDecl):
            lines.append(_render_check(st))
        else:
            raise AssertionError(st)
    return "\n".join(lines) + "\n"
