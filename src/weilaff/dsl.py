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

Tokens are strings from one scan: one `findall` of the token table
`_TOKEN_PATTERN` gives each token with the blanks (space, tab, `\r`) after it,
by maximal munch.  A token is an ASCII integer of at most 4,300 digits, a name
(`str.isalnum` or `_`, starting with `str.isalpha` or `_`), `->` or one of
`(){}[],;=+-*/^`, or a newline outside brackets, which the parser reads as the
number of the line it starts; the end of input reads `None`.  A `#` comment to
the end of the line is no token (the NEWLINE or EOF after it keeps its
column), and anything else is a ParseError at its line and column.  The
parser keeps each token's offset, and computes a line and column only for the
error it reports.
"""

from __future__ import annotations

import math
import operator
import re
from fractions import Fraction
from itertools import accumulate, repeat
from typing import NamedTuple, Optional

from .polymap import (
    _BINARY, Add, Const, Div, Expr, Mul, Neg, Poly, Power, Sqrt, Sub, Var, _ratio, expr_to_poly,
)
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

# One match is one token and the blanks after it; the blanks before the first
# token are skipped by the scan's start.  No quantifier nests, every position
# after the blanks matches one alternative, tried in this order, and no match
# ends inside blanks, so nothing backtracks and a scan is linear.
_TOKEN_PATTERN = (
    r"(?s)(?:[0-9]+"  # INT: ASCII digits only, str.isdigit also takes "²" and "٣"
    r"|\w+"  # NAME: \w is str.isalnum or _, so only the first character is checked
    r"|->|[(){}\[\],;=+\-*/^]"  # punctuation
    r"|\n"  # newline
    r"|#[^\n]*"  # comment
    r"|.)[ \t\r]*"  # no token
)

# What a scan does on meeting a token's text: 0 keep it (names and integers join
# once checked), 1 and 2 open and close a bracket, 3 end a line
_KINDS = {**dict.fromkeys(("->", ",", ";", "=", "+", "-", "*", "/", "^"), 0),
          **dict.fromkeys("([{", 1), **dict.fromkeys(")]}", 2), "\n": 3}


def _where(text: str, offset: int) -> tuple:
    """The 1-based (line, column) of ``offset`` in ``text``."""
    return text.count("\n", 0, offset) + 1, offset - text.rfind("\n", 0, offset)


def _scan(text: str):
    """The tokens of ``text`` and the offset of each: a name, an integer or a
    punctuation mark is its text, a newline outside brackets the number of the
    line it starts, and the end of input ``None``."""
    lead = len(text) - len(text.lstrip(" \t\r"))
    # re's own cache keeps the compiled pattern: compiled on first use, not on import
    raw = re.compile(_TOKEN_PATTERN).findall(text, lead)
    toks, offs = [], []
    tok, at = toks.append, offs.append
    kinds = _KINDS.copy()
    kind = kinds.get
    line = 1
    depth = 0  # brackets open; a newline inside them is no token
    held = -1  # a comment's offset: the NEWLINE or EOF after it reports that
    for s, off in zip(map(str.rstrip, raw, repeat(" \t\r")), accumulate(map(len, raw), initial=lead)):
        k = kind(s)
        if k is None:  # first sight of a name or an integer, a comment, or no token
            c = s[0]
            if c == "#":
                held = off
                continue
            if "0" <= c <= "9":
                if len(s) > _MAX_INT_DIGITS:
                    raise ParseError(*_where(text, off),
                                     f"an integer of at most {_MAX_INT_DIGITS} digits", f"{len(s)} digits")
            elif not (c.isalpha() or c == "_"):  # INT took the ASCII digits: "²x" is no name
                raise ParseError(*_where(text, off), "a token", repr(c))
            kinds[s] = 0
        elif k == 1:
            depth += 1
        elif k == 2 and depth:
            depth -= 1
        elif k == 3:
            line += 1
            if not depth:
                tok(line)
                at(held if held >= 0 else off)
            held = -1
            continue
        tok(s)
        at(off)
    tok(None)
    at(held if held >= 0 else len(text))
    return toks, offs


def _found(t) -> str:
    return "end of line" if type(t) is int else "end of input" if t is None else t


def _is_name(t) -> bool:
    return type(t) is str and (t[0].isalpha() or t[0] == "_")


class _Tok(NamedTuple):
    type: str  # NAME INT NEWLINE EOF or the punct itself
    value: str
    line: int
    col: int


def _lex(text: str) -> list:
    """The tokens of :func:`_scan` as (type, value, line, col); each line and
    column counts on from the token before, so this is linear in the text."""
    out, line, line_start, prev = [], 1, 0, 0
    new = tuple.__new__  # _Tok without its Python-level __new__
    for t, off in zip(*_scan(text)):
        line += text.count("\n", prev, off)
        line_start = max(line_start, text.rfind("\n", prev, off) + 1)
        prev = off
        kind = ("NEWLINE" if type(t) is int else "EOF" if t is None else
                "INT" if t.isdigit() else "NAME" if _is_name(t) else t)
        out.append(new(_Tok, (kind, "\\n" if type(t) is int else _found(t), line, off - line_start + 1)))
    return out


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
# :func:`_expansion_bounds`, and the most all those of one file may expand to
# together: (x+1)^999 builds in about 0.3 s, so a file at its budget in about
# 0.6 s (README)
_MAX_TERMS = 1_000
_MAX_FILE_TERMS = 2_000

# The most bits (B with |n| <= 2^B) a numerator or a denominator may take in a
# body's expansion, in a constant power or in a folded product of literals:
# room for 2^20000, and a 1,000-term body at the budget builds in about 7 s
# (README)
_MAX_BITS = 20_000


def _bits(n: int) -> int:
    """The least B with |n| <= 2^B."""
    return (abs(n) - 1).bit_length() if n else 0


def _expansion_bounds(node) -> tuple:
    """``(terms, bits)``: bounds on the terms and on the bits of every
    numerator and denominator of the polynomial ``node`` and of each
    subexpression expanded on the way, saturated past ``_MAX_TERMS`` and
    ``_MAX_BITS``.

    Terms: a degree-D one in v variables has at most C(v + D, v) terms (the
    variables it uses are tracked as a bitmask), a sum at most its operands'
    together, a product their product, and a t-term base to the power e at
    most C(t + e - 1, e), so a power of one monomial stays one term.  A
    quotient or a root counts as its first operand.

    Bits bound the sum of the numerators' absolute values, N bits, over a
    common denominator of D bits, so they bound every numerator and
    denominator: a literal p/q has the bits of p and of q; a sum has N the
    larger of N1 + D2 and N2 + D1, plus one, over D1 + D2, so an integer sum
    is its larger operand plus one bit; a product N1 + N2 over D1 + D2; a
    power e, e·N over e·D; and a quotient by a constant N1 + D2 over
    D1 + N2."""
    over, over_bits = _MAX_TERMS + 1, _MAX_BITS + 1

    def comb(top, k):  # C(top, k) for 0 < k < top, saturated; it exceeds k and top - k
        return over if max(k, top - k) >= over else min(math.comb(top, k), over)

    # operands are walked before the node, which the stack holds as (node,)
    # meanwhile; ``done`` holds (degree, terms, variables, numerator bits,
    # denominator bits) of finished operands, the rightmost last, saturated
    # where they multiply.  Only a power can shrink the bits, so the largest
    # are the whole body's or a base's
    worst, worst_bits, done, todo = 1, 0, [], [node]
    while todo:
        n = todo.pop()
        kind = type(n)
        if kind is Var:
            done.append((1, 1, 1 << n.index, 0, 0))
        elif kind is Const:
            v = n.value
            done.append((0, 1, 0, _bits(v), 0) if type(v) is int else
                        (0, 1, 0, _bits(v.numerator), _bits(v.denominator)))
        elif kind is not tuple:
            todo.append((n,))
            todo.extend((n.right, n.left) if kind in _BINARY else
                        (n.base,) if kind is Power else (n.operand,))
        else:
            n = n[0]
            kind = type(n)
            db, tb, vb, nb, qb = done.pop() if kind in _BINARY else (0, 1, 0, 0, 0)
            deg, terms, used, num, den = done.pop()
            used |= vb
            if kind is Add or kind is Sub:
                deg, terms, num, den = max(deg, db), terms + tb, max(num + qb, nb + den) + 1, den + qb
            elif kind is Mul:
                deg, terms, num, den = deg + db, terms * tb, num + nb, den + qb
            elif kind is Div:
                num, den = num + qb, den + nb
            elif kind is Power:
                e = n.exponent
                if num or den:
                    worst_bits = max(worst_bits, num, den)
                    num, den = min(e * num, over_bits), min(e * den, over_bits)
                deg, terms = deg * e, 1 if terms == 1 or not e else comb(terms + e - 1, e)
            deg = min(deg, over)
            if not deg:
                terms = 1
            elif terms > max(deg, v := used.bit_count()) + 1:  # the dense count exceeds both
                terms = min(terms, comb(v + deg, v))
            done.append((deg, terms, used, num, den))
            worst = max(worst, terms)
    *_, num, den = done.pop()
    return worst, max(worst_bits, num, den)


def _constant_bits(node) -> int:
    """The bits of a literal, or of one raised to powers (``(2^3)^4``,
    ``(-2)^7``), saturated past ``_MAX_BITS``; 0 for any other node."""
    e = 1
    while type(node) is Power:
        e = min(e * node.exponent, _MAX_BITS + 1)
        node = node.base
    if type(node) is not Const:
        return 0
    p, q = _ratio(node.value)
    return e * max(_bits(p), _bits(q))


class _Parser:
    def __init__(self, text: str):
        self.text = text
        self.toks, self.offs = _scan(text)
        self.pos = 0
        self.tok = self.toks[0]  # toks[pos]
        self.line = 1  # where the statement being read starts
        self.symbols: dict = {}
        self.scope: Optional[_Scope] = None  # set while a scalar body is read
        self.calls = False  # map calls: only in ``eval --expr`` strings
        self.dimension = 1  # of the algebra of the blocks declared so far
        self.terms = 0  # of the bodies read so far, by _expansion_bounds

    # token plumbing: a token is kept for a later error as its index ``pos``

    def advance(self):
        """Move past the current token and return it.  Every caller has checked
        it first, so it is never EOF, the last."""
        t = self.tok
        self.pos += 1
        self.tok = self.toks[self.pos]
        return t

    def fail(self, expected: str, at: Optional[int] = None):
        at = self.pos if at is None else at
        raise ParseError(*_where(self.text, self.offs[at]), expected, _found(self.toks[at]))

    def expect(self, text: str):
        """Read the punctuation mark or keyword ``text``."""
        if self.tok != text:
            self.fail(f"'{text}'")
        self.advance()

    def name(self, what: str) -> int:
        """The index of a name token, read."""
        if not _is_name(self.tok):
            self.fail(what)
        self.advance()
        return self.pos - 1

    def expect_int(self, what: str = "an integer") -> int:
        t = self.tok
        if type(t) is not str or not t.isdigit():
            self.fail(what)
        return int(self.advance())

    def skip_newlines(self):
        while type(self.tok) is int:
            self.line = self.advance()

    def end_statement(self):
        if self.tok is not None and type(self.tok) is not int:
            self.fail("end of statement")

    # symbols

    def declare(self, at: int, sym: _Sym) -> str:
        name = self.toks[at]
        if name in _RESERVED:
            self.fail("a fresh name (keyword is reserved)", at)
        if name in self.symbols:
            self.fail("a fresh name (already declared)", at)
        self.symbols[name] = sym
        return name

    def lookup(self, at: int, kinds) -> _Sym:
        sym = self.symbols.get(self.toks[at])
        if sym is None:
            self.fail(f"a declared name ({' or '.join(kinds)})", at)
        if sym.kind not in kinds:
            self.fail(f"a name of kind {' or '.join(kinds)}", at)
        return sym

    # scenario

    def parse(self) -> Scenario:
        stmts = []
        version = None
        self.skip_newlines()
        if self.tok == "version":
            self.advance()
            version = self.expect_int("a version number")
            if version != 1:
                self.fail("version 1", self.pos - 1)
            self.end_statement()
            self.skip_newlines()
        while self.tok is not None:
            stmts.append(self.guarded(self.statement))
            self.end_statement()
            self.skip_newlines()
        return Scenario(version, tuple(stmts))

    def guarded(self, parse):
        """``parse()``, with input nested too deeply for the interpreter's
        stack reported at the first token it read."""
        first = self.pos
        try:
            return parse()
        except RecursionError:
            self.fail("input nested less deeply", first)

    def statement(self):
        handler = _Parser.STATEMENTS.get(self.tok)
        if handler is None:
            self.fail("a statement keyword (block/quotient/point/map/form/connection/retract/check)"
                      if _is_name(self.tok) else "a statement keyword")
        self.advance()
        return handler(self)

    # declarations: each reads on from its keyword, and ``line`` is the keyword's

    def stmt_block(self):
        at = self.name("a block name")
        self.expect("vars")
        nvars = self.positive_int("vars >= 1")
        self.expect("cap")
        cap_at = self.pos
        cap = self.positive_int("cap >= 1")
        # the block has C(vars + cap, cap) > max(vars, cap) basis monomials,
        # so a larger value is over the budget before math.comb runs
        self.dimension *= (math.comb(nvars + cap, cap) if max(nvars, cap) < _MAX_DIMENSION
                           else _MAX_DIMENSION + 1)
        if self.dimension > _MAX_DIMENSION:
            self.fail(f"a cap within the dimension budget ({_MAX_DIMENSION:,} basis monomials"
                      " over all blocks)", cap_at)
        return BlockDecl(self.declare(at, _Sym("block", nvars)), nvars, cap, self.line)

    def stmt_quotient(self):
        at = self.name("a quotient name")
        self.expect("vars")
        nvars = self.positive_int("vars >= 1")
        self.expect("degcap")
        degcap = self.positive_int("degcap >= 1")
        # declared before its relations so q[1]*q[2] can reference q itself
        name = self.declare(at, _Sym("quotient", nvars))
        self.expect("relations")
        self.expect("{")
        rels = [self.polynomial({}, nvars, family=name)]
        while self.tok == ",":
            self.advance()
            rels.append(self.polynomial({}, nvars, family=name))
        self.expect("}")
        return QuotientDecl(name, nvars, degcap, tuple(rels), self.line)

    def stmt_point(self):
        at = self.name("a point name")
        self.expect("=")
        start = self.pos
        expr = self.expr()
        dim = self.infer_vector(expr, start)
        return PointDecl(self.declare(at, _Sym("point", dim)), expr, dim, self.line)

    def stmt_map(self):
        at = self.name("a map name")
        self.expect("(")
        params = [self.toks[self.name("a parameter name")]]
        while self.tok == ",":
            self.advance()
            params.append(self.toks[self.name("a parameter name")])
        self.expect(")")
        if len(set(params)) != len(params):
            self.fail("distinct parameter names", at)
        self.expect("->")
        out_dim = self.positive_int("output dimension >= 1", "the output dimension")
        self.expect("{")
        names = {p: i for i, p in enumerate(params)}
        bodies = [self.scalar_body(names, body=True)]
        while self.tok == ",":
            self.advance()
            bodies.append(self.scalar_body(names, body=True))
        close = self.pos
        self.expect("}")
        if len(bodies) != out_dim:
            self.fail(f"{out_dim} component expression(s)", close)
        name = self.declare(at, _Sym("map", len(params), out_dim))
        return MapDecl(name, tuple(params), out_dim, tuple(bodies), self.line)

    def stmt_form(self):
        at = self.name("a form name")
        self.expect("arity")
        arity = self.positive_int("arity >= 1")
        self.expect("dim")
        dim = self.positive_int("dim >= 1")
        self.expect("{")
        entries = {}
        while self.tok == "[":
            open_at = self.pos
            self.advance()
            idx = [self.expect_int("a coordinate index")]
            while self.tok == ",":
                self.advance()
                idx.append(self.expect_int("a coordinate index"))
            self.expect("]")
            if len(idx) != arity:
                self.fail(f"{arity} indices", open_at)
            if any(not 1 <= i <= dim for i in idx):
                self.fail(f"indices in 1..{dim}", open_at)
            key = tuple(i - 1 for i in idx)
            if key in entries:
                self.fail("a fresh index tuple (duplicate entry)", open_at)
            self.expect("=")
            entries[key] = self.rational()
        self.expect("}")
        name = self.declare(at, _Sym("form", arity, dim))
        entries = tuple(sorted((k, v) for k, v in entries.items() if v))
        return FormDecl(name, arity, dim, entries, self.line)

    def stmt_connection(self):
        at = self.name("a connection name")
        self.expect("dim")
        dim = self.positive_int("dim >= 1")
        names = {f"x{j}": j - 1 for j in range(1, dim + 1)}
        self.expect("{")
        entries = {}
        while self.tok == "GAMMA":
            gamma_at = self.pos
            self.advance()
            self.expect("[")
            i = self.expect_int("a component index")
            self.expect("]")
            self.expect("[")
            a = self.expect_int("a coordinate index")
            self.expect(",")
            b = self.expect_int("a coordinate index")
            self.expect("]")
            if not (1 <= i <= dim and 1 <= a <= dim and 1 <= b <= dim):
                self.fail(f"indices in 1..{dim}", gamma_at)
            key = (i - 1, min(a, b) - 1, max(a, b) - 1)
            if key in entries:
                self.fail("a fresh GAMMA entry (duplicate after symmetrization)", gamma_at)
            self.expect("=")
            entries[key] = self.polynomial(names, dim, homogeneous=False)
        self.expect("}")
        name = self.declare(at, _Sym("connection", dim))
        return ConnectionDecl(name, dim, tuple(sorted(entries.items())), self.line)

    def stmt_retract(self):
        at = self.name("a retract name")
        self.expect("iota")
        self.expect("=")
        iota_at = self.name("a map name")
        iota = self.lookup(iota_at, ("map",))
        self.expect("r")
        self.expect("=")
        r_at = self.name("a map name")
        r = self.lookup(r_at, ("map",))
        if iota.a != r.b or iota.b != r.a:
            self.fail("maps with matching chart/ambient dimensions", r_at)
        name = self.declare(at, _Sym("retract", iota.a, iota.b))
        return RetractDecl(name, self.toks[iota_at], self.toks[r_at], self.line)

    # checks

    def stmt_check(self):
        kind_at = self.pos
        kind = self.check_kind()
        return _Parser.CHECKS[kind](self, kind, kind_at)

    def check_kind(self) -> str:
        parts = [self.toks[self.name("a check kind")]]
        while self.tok == "-":
            self.advance()
            parts.append(self.toks[self.name("rest of the check kind")])
        kind = "-".join(parts)
        if kind not in CHECK_KINDS:
            self.fail("a check kind (%s)" % ", ".join(CHECK_KINDS), self.pos - 1)
        return kind

    def check_membership(self, kind, kind_at):
        vectors, dim = self.vector_list()
        k = None
        if kind != "nilsquare":
            k = self.k_param()
        if kind in ("i-tuple", "nilsquare") and len(vectors) < 2:
            self.fail("at least two points", kind_at)
        if kind == "in-Dk" and len(vectors) != 1:
            self.fail("exactly one vector", kind_at)
        if kind == "in-DNk" and len(vectors) != k + 1:
            self.fail(f"k+1 = {k + 1} vectors", kind_at)
        return CheckDecl(kind, vectors=vectors, k=k, line=self.line)

    def check_imorphism(self, kind, kind_at):
        map_at = self.name("a map name")
        sym = self.lookup(map_at, ("map",))
        vectors, dim = self.vector_list()
        if len(vectors) < 2:
            self.fail("at least two points", kind_at)
        if dim != sym.a:
            self.fail(f"points of dimension {sym.a}", map_at)
        k = self.k_param()
        return CheckDecl(kind, vectors=vectors, k=k, target=self.toks[map_at], line=self.line)

    def check_axioms(self, kind, kind_at):
        mode_at = self.name("canonical, connection=NAME, or retract=NAME")
        mode = self.toks[mode_at]
        k = None
        target = None
        if mode == "canonical":
            k = self.k_param()
        elif mode in ("connection", "retract"):
            self.expect("=")
            target_at = self.name(f"a {mode} name")
            self.lookup(target_at, (mode,))
            target = self.toks[target_at]
        else:
            self.fail("canonical, connection=NAME, or retract=NAME", mode_at)
        self.expect("points")
        points, dim = self.vector_list()
        self.expect("weights")
        weights = self.weight_rows(len(points))
        outer = ()
        if self.tok == "outer":
            self.advance()
            outer = self.weight_row(len(weights))
        return CheckDecl(
            kind, vectors=points, k=k, target=target, weights=weights,
            outer=outer, mode=mode, line=self.line,
        )

    def check_equiv(self, kind, kind_at):
        conn_at = self.name("a connection name")
        self.lookup(conn_at, ("connection",))
        self.expect("points")
        points, dim = self.vector_list()
        if len(points) != 3:
            self.fail("exactly three points (P; Q; S)", kind_at)
        return CheckDecl(kind, vectors=points, target=self.toks[conn_at], line=self.line)

    def check_pullback(self, kind, kind_at):
        self.expect("connection")
        self.expect("=")
        conn_at = self.name("a connection name")
        conn = self.lookup(conn_at, ("connection",))
        self.expect("iota")
        self.expect("=")
        iota_at = self.name("a map name")
        iota = self.lookup(iota_at, ("map",))
        if iota.a != iota.b or iota.b != conn.a:
            self.fail("a square map matching the connection dimension", iota_at)
        self.expect("points")
        points, dim = self.vector_list()
        if dim != conn.a:
            self.fail(f"points of dimension {conn.a}", conn_at)
        self.expect("weights")
        weights = self.weight_rows(len(points))
        return CheckDecl(
            kind, vectors=points, target=self.toks[conn_at], iota=self.toks[iota_at],
            weights=weights, line=self.line,
        )

    def check_idempotent(self, kind, kind_at):
        name_at = self.name("a map or retract name")
        sym = self.lookup(name_at, ("map", "retract"))
        if sym.kind == "map" and sym.a != sym.b:
            self.fail("a square map (idempotents need in-dim == out-dim)", name_at)
        ambient = sym.b
        self.expect("at")
        start = self.pos
        at = self.expr()
        if self.infer_vector(at, start) != ambient:
            self.fail(f"a base point of dimension {ambient}", start)
        return CheckDecl(kind, target=self.toks[name_at], at=at, line=self.line)

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
        self.expect("k")
        self.expect("=")
        return self.positive_int("an order k >= 1", "an order k >= 1")

    def positive_int(self, expected: str, what: str = "an integer") -> int:
        """An integer token; below 1 it fails at that token with ``expected``."""
        at = self.pos
        value = self.expect_int(what)
        if value < 1:
            self.fail(expected, at)
        return value

    def vector_list(self):
        """Parenthesized `;`-separated VECEXPRs; returns (tuple, common dim)."""
        self.expect("(")
        start = self.pos
        items = [self.expr()]
        dims = [self.infer_vector(items[0], start)]
        while self.tok == ";":
            self.advance()
            start = self.pos
            items.append(self.expr())
            dims.append(self.infer_vector(items[-1], start))
        self.expect(")")
        if len(set(dims)) > 1:
            self.fail("vectors of equal dimension", start)
        return tuple(items), dims[0]

    def weight_row(self, width: int):
        open_at = self.pos
        self.expect("(")
        vals = [self.rational()]
        while self.tok == ",":
            self.advance()
            vals.append(self.rational())
        self.expect(")")
        if len(vals) != width:
            self.fail(f"{width} weights", open_at)
        if sum(vals) != 1:
            self.fail("weights summing to 1", open_at)
        return tuple(vals)

    def weight_rows(self, width: int):
        self.expect("(")
        rows = [self.weight_row(width)]
        while self.tok == ";":
            self.advance()
            rows.append(self.weight_row(width))
        self.expect(")")
        return tuple(rows)

    def rational(self) -> Fraction:
        neg = False
        if self.tok == "-":
            self.advance()
            neg = True
        num = self.expect_int("a rational number")
        den = 1
        if self.tok == "/":
            self.advance()
            den = self.expect_int("a denominator")
            if den == 0:
                self.fail("a nonzero denominator", self.pos - 1)
        return Fraction(-num if neg else num, den)

    # expressions

    def scalar_body(self, names: dict, family=None, body=False) -> Expr:
        """One scalar body, its names resolved by the rules of
        :class:`_Scope`, within the term budget."""
        start = self.pos
        self.scope = _Scope(names, family, start, body)
        node = self.expr()
        self.scope = None
        terms, bits = _expansion_bounds(node)
        if terms > _MAX_TERMS:
            self.fail(f"a body within the term budget ({_MAX_TERMS:,} terms when expanded)", start)
        if bits > _MAX_BITS:
            self.fail(f"a body within the coefficient budget ({_MAX_BITS:,} bits when expanded)",
                      start)
        self.terms += terms
        if self.terms > _MAX_FILE_TERMS:
            self.fail(f"a body within the file's term budget ({_MAX_FILE_TERMS:,} terms when"
                      " expanded, over all bodies)", start)
        return node

    def expr(self):
        node = self.mulexpr()
        while self.tok == "+" or self.tok == "-":
            node = _binop(self.advance(), node, self.mulexpr())
        return node

    def mulexpr(self):
        start = self.pos
        node = self.unary()
        while self.tok == "*" or self.tok == "/":
            node = _binop(self.advance(), node, self.unary())
            if type(node) is Const:  # folded: its bits grow with every literal
                p, q = node.value.as_integer_ratio()  # bit_length() bounds _bits
                if max(p.bit_length(), q.bit_length()) > _MAX_BITS:
                    self.within_bits(_constant_bits(node), start)
        return node

    def unary(self):
        if self.tok == "-":
            self.advance()
            node = self.unary()
            return Const(-node.value) if type(node) is Const else Neg(node)
        start = self.pos
        node = self.atom()
        if self.tok == "^":
            self.advance()
            node = Power(node, self.expect_int("a nonnegative integer exponent"))
            if type(node.base) is not Var:  # x^e holds no constant
                self.within_bits(_constant_bits(node), start)
        return node

    def within_bits(self, bits: int, start: int):
        """Fail at ``start`` if the constant read from there takes more bits
        than the coefficient budget."""
        if bits > _MAX_BITS:
            self.fail(f"a constant within the coefficient budget ({_MAX_BITS:,} bits)", start)

    def atom(self):
        t = self.tok
        scope = self.scope
        if t == "(":
            self.advance()
            first = self.expr()
            if self.tok == ",":
                items = [first]
                while self.tok == ",":
                    self.advance()
                    if self.tok == ")":  # 1-tuple: "(x,)"
                        break
                    items.append(self.expr())
                self.expect(")")
                if scope:  # after the ")": an unclosed tuple reports that first
                    self.fail("a scalar expression", scope.start)
                return EVec(tuple(items))
            self.expect(")")
            return first
        if type(t) is not str or t in _KINDS:  # a newline, the end or another mark
            self.fail("an expression")
        self.advance()
        if t.isdigit():
            return Const(int(t))
        at = self.pos - 1  # the name's
        if self.tok == "(" and (self.calls or scope and scope.body):
            return self.call(at)
        if self.tok == "[":
            self.advance()
            index_at = self.pos
            index = self.expect_int("a generator index")
            self.expect("]")
            if scope and scope.body:
                self.fail("a parameter name (no generators inside map bodies)", at)
            sym = self.lookup(at, ("block", "quotient"))
            if not 1 <= index <= sym.a:
                self.fail(f"an index in 1..{sym.a}", index_at)
            if not scope:
                return ERef(t, index)
            if t != scope.family:
                self.fail("this declaration's own generators", at)
            return Var(index - 1)
        if not scope:
            return ERef(t)
        if t in scope.names:
            return Var(scope.names[t])
        if scope.body:
            self.fail("a declared parameter name", at)
        if scope.family is not None:
            self.fail(f"an indexed generator like {scope.family}[1]", at)
        self.fail("a polynomial in the declared variables", scope.start)

    def call(self, at: int):
        """``sqrt(x)``, or (``eval --expr`` only) a call of a declared map."""
        name = self.toks[at]
        if not self.calls and name != "sqrt":
            self.fail("sqrt (the only call allowed here)", at)
        self.advance()
        args = [self.expr()]
        while self.tok == ",":
            self.advance()
            args.append(self.expr())
        self.expect(")")
        if name == "sqrt":
            if len(args) != 1:
                self.fail("one argument to sqrt", at)
            return Sqrt(args[0])
        self.lookup(at, ("map",))
        return ECall(name, tuple(args))

    # expression typing: returns dimension for vectors, 0 for scalars

    def typeof(self, node, at: int) -> int:
        if isinstance(node, Const):
            return 0
        if isinstance(node, ERef):
            if node.index is not None:
                return 0
            sym = self.symbols.get(node.name)
            if sym is None:
                self.fail("a declared point name", at)
            if sym.kind != "point":
                self.fail("a point name", at)
            return sym.a
        if isinstance(node, EVec):
            for item in node.items:
                if self.typeof(item, at) != 0:
                    self.fail("scalar tuple components", at)
            return len(node.items)
        if isinstance(node, Neg):
            return self.typeof(node.operand, at)
        if isinstance(node, Power):
            if self.typeof(node.base, at) != 0:
                self.fail("a scalar base for ^", at)
            return 0
        lt = self.typeof(node.left, at)
        rt = self.typeof(node.right, at)
        if isinstance(node, (Add, Sub)):
            if lt != rt:
                self.fail("operands of equal dimension", at)
            return lt
        if isinstance(node, Mul):
            if lt and rt:
                self.fail("at most one vector factor", at)
            return lt or rt
        if rt != 0:
            self.fail("a scalar divisor", at)
        return lt

    def infer_vector(self, node, at: int) -> int:
        dim = self.typeof(node, at)
        if dim == 0:
            self.fail("a vector-valued expression", at)
        return dim

    def polynomial(self, names: dict, nvars: int, homogeneous: bool = True, family=None) -> Poly:
        """Fold an expression into a polynomial over ``nvars`` variables: the
        bare names of ``names``, or the indexed generators ``family[i]``."""
        start = self.pos
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
    start: int  # an index into the parser's tokens
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
    p.lookup = lambda at, kinds: _Sym("block", 10 ** 9, 10 ** 9)  # type: ignore[assignment]
    p.calls = True
    node = p.guarded(p.expr)
    if p.tok is not None:
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
