"""Maps between coordinate spaces over a context, and their jets.

Two map flavours share one evaluation interface:

* :class:`PolyMap`  -- componentwise sparse polynomials over Q; supports
  composition by substitution.
* :class:`ExprMap`  -- componentwise closed-form expression trees that may
  also divide by units and take square roots, evaluated directly in the
  algebra (division and roots stay exact on nilpotent arguments).

A :class:`Poly` stores its terms as a :class:`~weilaff.weil.WeilElement`
does, so its arithmetic runs on ints and builds no ``Fraction``.  It shares
the kernel's helpers for common denominators, lowest terms and linear
combinations, not its products: a polynomial has no caps or relations.
It adds, multiplies and substitutes, but does
not evaluate itself: a :class:`PolyMap` keeps each component as a row of
its integer numerators on index tuples with one ``(variable, exponent)``
slot per variable (x0²·x2 is ((0, 2), (2, 1))) over its denominator, and
:func:`eval_map` evaluates them all in one ``weil._contract``, which
builds each product of powers once, as its prefix times one power.  Each
power is computed once per call, by repeated squaring, so a term of degree
e costs O(log e) products.

An expression tree lowers to a :class:`Poly` in :func:`expr_to_poly`, one
left spine per loop: a spine of ``+`` and ``-`` is one weighted sum of its
summands, and a spine of ``*`` and ``/`` by constants is one scale factor
times one exponent vector.  So only factors of more than one term (sums and
powers of sums) are multiplied as polynomials.

Derivatives have one path, :func:`jet`: the Taylor coefficients of one
evaluation at ``P + d``, ``d`` a fresh nilpotent block adjoined to the
context of ``P``, for every map flavour and at any point, rational or not.
"""

from __future__ import annotations

from fractions import Fraction
from operator import add as _add
from typing import Optional, Sequence, Union

from .weil import (
    PointVec,
    Record,
    Scalar,
    WeilElement,
    WeilError,
    _adjoin,
    _as_fraction,
    _contract,
    _lowest_terms,
    _over_common_denominator,
    _set_field,
    _split,
    _sum_scaled,
    invert,
)
from .weil import sqrt as weil_sqrt


class DimensionMismatchError(WeilError):
    """Raised when a map is applied to a point of the wrong dimension."""


def _ratio(q) -> tuple:
    """``(numerator, denominator)`` of an int or a Fraction."""
    return (q if type(q) is int else _as_fraction(q)).as_integer_ratio()


def _exponent(e) -> int:
    if not isinstance(e, int) or e < 0:
        raise WeilError("exponent must be a nonnegative integer")
    return e


def _index(i: int, nvars: int) -> int:
    if not 0 <= i < nvars:
        raise WeilError(f"variable index {i} out of range")
    return i


class Poly:
    """Sparse polynomial over Q in ``nvars`` variables.

    Integer numerators keyed by exponent tuple over one positive common
    denominator ``den``, in lowest terms, with zero as ``({}, 1)``: so
    ``==`` and the hash are equality of polynomials.  ``terms`` reads the
    coefficients back as Fractions.
    """

    __slots__ = ("nvars", "_num", "den")

    def __init__(self, nvars: int, terms=None):
        cleaned = {}
        for m, c in (terms or {}).items():
            m = tuple(m)
            if len(m) != nvars:
                raise WeilError("monomial arity does not match variable count")
            if type(c) is not int:
                c = _as_fraction(c)
            if c:
                cleaned[m] = cleaned.get(m, 0) + c
        self.nvars = nvars
        self._num, self.den = _over_common_denominator(
            {m: c for m, c in cleaned.items() if c})

    @classmethod
    def _of(cls, nvars: int, num: dict, den: int) -> "Poly":
        """``num / den``, from nonzero integer numerators in lowest terms."""
        p = cls.__new__(cls)
        p.nvars, p._num, p.den = nvars, num, den
        return p

    # -- constructors ---------------------------------------------------------

    @classmethod
    def zero(cls, nvars: int) -> "Poly":
        return cls._of(nvars, {}, 1)

    @classmethod
    def constant(cls, nvars: int, q: Scalar) -> "Poly":
        p, d = _ratio(q)
        return cls._of(nvars, {(0,) * nvars: p} if p else {}, d)

    @classmethod
    def variable(cls, nvars: int, i: int) -> "Poly":
        i = _index(i, nvars)
        return cls._of(nvars, {(0,) * i + (1,) + (0,) * (nvars - 1 - i): 1}, 1)

    @property
    def terms(self) -> dict:
        """A fresh dict of the coefficients as Fractions, exponent tuple by exponent tuple."""
        den = self.den
        return {m: Fraction(c, den) for m, c in self._num.items()}

    # -- ring operations --------------------------------------------------------

    def _coerce(self, other):
        if isinstance(other, Poly):
            if other.nvars != self.nvars:
                raise WeilError("polynomials over different variable counts")
            return other
        if isinstance(other, (int, Fraction)):
            return Poly.constant(self.nvars, other)
        return None

    def _scaled(self, p: int, q: int) -> "Poly":
        """This polynomial times ``p / q``, ``q`` positive."""
        num = {m: c * p for m, c in self._num.items()} if p else {}
        return Poly._of(self.nvars, *_lowest_terms(num, self.den * q))

    def __add__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return Poly._of(self.nvars, *_sum_scaled(
            [(1, self.den, self._num), (1, other.den, other._num)]))

    __radd__ = __add__

    def __neg__(self):
        return Poly._of(self.nvars, {m: -c for m, c in self._num.items()}, self.den)

    def __sub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return Poly._of(self.nvars, *_sum_scaled(
            [(1, self.den, self._num), (-1, other.den, other._num)]))

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            q = _as_fraction(other)
            return self._scaled(q.numerator, q.denominator)
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        a, b = self._num, other._num
        # a constant factor only scales the other one
        one = (0,) * self.nvars
        if len(b) == 1 and one in b:
            return self._scaled(b[one], other.den)
        if len(a) == 1 and one in a:
            return other._scaled(a[one], self.den)
        out = {}
        for m1, c1 in a.items():
            for m2, c2 in b.items():
                key = tuple(map(_add, m1, m2))
                out[key] = out.get(key, 0) + c1 * c2
        return Poly._of(self.nvars, *_lowest_terms(
            {m: c for m, c in out.items() if c}, self.den * other.den))

    __rmul__ = __mul__

    def __pow__(self, e: int):
        if not _exponent(e):
            return Poly.constant(self.nvars, 1)
        if len(self._num) == 1:  # one monomial, in lowest terms as its base is
            (m, c), = self._num.items()
            return Poly._of(self.nvars, {tuple(a * e for a in m): c**e}, self.den**e)
        # left to right over the bits below the leading one: a square for
        # each, and a product by the base for each set one
        result = self
        for bit in bin(e)[3:]:
            result = result * result
            if bit == "1":
                result = result * self
        return result

    def __eq__(self, other):
        return (
            isinstance(other, Poly)
            and self.nvars == other.nvars
            and self.den == other.den
            and self._num == other._num
        )

    def __hash__(self):
        return hash((self.nvars, frozenset(self._num.items()), self.den))

    # -- structure ---------------------------------------------------------------

    def is_zero(self) -> bool:
        return not self._num

    def is_constant(self) -> bool:
        return self._num.keys() <= {(0,) * self.nvars}

    def constant_value(self) -> Fraction:
        return Fraction(self._num.get((0,) * self.nvars, 0), self.den)

    def substitute(self, args: Sequence["Poly"]) -> "Poly":
        """Plug a polynomial in for each variable (simultaneous substitution)."""
        if len(args) != self.nvars:
            raise WeilError("substitution arity mismatch")
        nv = args[0].nvars if args else 0
        # each term's product of powers, summed with its numerator as the weight
        scaled = []
        for m, c in self._num.items():
            term = Poly.constant(nv, 1)
            for i, e in enumerate(m):
                if e:
                    term = term * args[i] ** e
            scaled.append((c, self.den * term.den, term._num))
        return Poly._of(nv, *_sum_scaled(scaled))

    def format(self, var_names: Sequence[str]) -> str:
        terms = self.terms  # a view built anew on each read
        if not terms:
            return "0"
        parts = []
        for m in sorted(terms, key=lambda mm: (sum(mm), tuple(-e for e in mm))):
            c = terms[m]
            factors = []
            for name, e in zip(var_names, m):
                if e == 1:
                    factors.append(name)
                elif e > 1:
                    factors.append(f"{name}^{e}")
            if not factors:
                parts.append(str(c))
            elif c == 1:
                parts.append("*".join(factors))
            elif c == -1:
                parts.append("-" + "*".join(factors))
            else:
                parts.append(str(c) + "*" + "*".join(factors))
        out = parts[0]
        for p in parts[1:]:
            out += f" - {p[1:]}" if p.startswith("-") else f" + {p}"
        return out

    def __repr__(self):
        return f"Poly({self.format([f'x{i + 1}' for i in range(self.nvars)])})"


class PolyMap:
    """A polynomial map R^n -> R^m given by one :class:`Poly` per component.

    Each component is kept as the contraction row :func:`eval_map` reads:
    its :class:`Poly`'s integer numerators, keyed by one ``(variable,
    exponent)`` slot per variable of the term, over the Poly's denominator."""

    __slots__ = ("in_dim", "out_dim", "components", "_rows", "_dens", "_slots")

    def __init__(self, in_dim: int, out_dim: int, components: Sequence[Poly]):
        components = tuple(components)
        if len(components) != out_dim:
            raise WeilError("component count does not match output dimension")
        for p in components:
            if p.nvars != in_dim:
                raise WeilError("component variable count does not match input dimension")
        self.in_dim = in_dim
        self.out_dim = out_dim
        self.components = components
        # the term x0²·x2 is the tuple ((0, 2), (2, 1))
        self._rows = [{tuple((i, e) for i, e in enumerate(m) if e): c for m, c in p._num.items()}
                      for p in components]
        self._dens = [p.den for p in components]
        self._slots = {s for row in self._rows for idx in row for s in idx}

    @classmethod
    def identity(cls, n: int) -> "PolyMap":
        return cls(n, n, [Poly.variable(n, i) for i in range(n)])

    def __eq__(self, other):
        return (
            isinstance(other, PolyMap)
            and (self.in_dim, self.out_dim, self.components)
            == (other.in_dim, other.out_dim, other.components)
        )

    def __repr__(self):
        return f"PolyMap({self.in_dim}->{self.out_dim})"


# -- expression trees -----------------------------------------------------------


class Expr(Record):
    """Base class for closed-form scalar expressions in ``x1..xn``.  The parser
    builds one per token, so the nodes take the two lean ``__init__``s below."""

    __slots__ = ()


class _OneField(Expr):
    __slots__ = ()

    def __init__(self, a):
        _set_field(self, self.__slots__[0], a)


class _TwoFields(Expr):
    __slots__ = ()

    def __init__(self, a, b):
        first, second = self.__slots__
        _set_field(self, first, a)
        _set_field(self, second, b)


class Const(_OneField):
    __slots__ = ("value",)  # an int or a Fraction


class Var(_OneField):
    __slots__ = ("index",)


class Add(_TwoFields):
    __slots__ = ("left", "right")


class Sub(_TwoFields):
    __slots__ = ("left", "right")


class Mul(_TwoFields):
    __slots__ = ("left", "right")


class Div(_TwoFields):
    __slots__ = ("left", "right")


class Neg(_OneField):
    __slots__ = ("operand",)


class Power(_TwoFields):
    __slots__ = ("base", "exponent")  # an Expr and an int


class Sqrt(_OneField):
    __slots__ = ("operand",)


# A chain of binary operators leans left: the walks below fold its left spine
# in a loop, so a long sum or product needs no stack.
_BINARY = (Add, Sub, Mul, Div)


def eval_expr(expr: Expr, coords: Sequence[WeilElement]) -> WeilElement:
    """Evaluate an expression tree at algebra elements (exactly)."""
    ctx = coords[0].context
    if isinstance(expr, Const):
        return ctx.scalar(expr.value)
    if isinstance(expr, Var):
        if not 0 <= expr.index < len(coords):
            raise DimensionMismatchError(f"variable x{expr.index + 1} out of range")
        return coords[expr.index]
    if isinstance(expr, _BINARY):
        spine = []
        while isinstance(expr, _BINARY):
            spine.append(expr)
            expr = expr.left
        value = eval_expr(expr, coords)
        for node in reversed(spine):
            b = eval_expr(node.right, coords)
            kind = type(node)
            value = (value + b if kind is Add else value - b if kind is Sub
                     else value * b if kind is Mul else value * invert(b))
        return value
    if isinstance(expr, Neg):
        return -eval_expr(expr.operand, coords)
    if isinstance(expr, Power):
        return eval_expr(expr.base, coords) ** expr.exponent
    if isinstance(expr, Sqrt):
        return weil_sqrt(eval_expr(expr.operand, coords))
    raise WeilError(f"unknown expression node {type(expr).__name__}")


def expr_to_poly(expr: Expr, nvars: int) -> Optional[Poly]:
    """Convert to a polynomial, or None if the tree genuinely needs Div/Sqrt.

    Each left spine lowers in one loop, after all its operands, left to
    right.  A spine of ``+`` and ``-`` is one ``_sum_scaled`` over its
    summands.  A spine of ``*`` and ``/`` by constants is one scale factor
    times one exponent vector, and only its factors of more than one term
    (sums, powers of sums) are multiplied as polynomials."""
    lowered = _lower(expr, nvars)
    return None if lowered is None else _poly_of(nvars, *lowered)


def _poly_of(nvars: int, p: int, d: int, num: dict) -> Poly:
    if p != 1:
        num = {m: c * p for m, c in num.items()} if p else {}
    return Poly._of(nvars, *_lowest_terms(num, d))


def _lower(expr: Expr, nvars: int) -> Optional[tuple]:
    """``expr`` as ``(p, d, num)``: the nonzero integer numerators ``num``
    times p / d, d > 0; or None.  Leaves and plain monomials build no Poly."""
    kind = type(expr)
    if kind is Const:
        return (*_ratio(expr.value), {(0,) * nvars: 1})
    if kind is Neg:
        t = _lower(expr.operand, nvars)
        return None if t is None else (-t[0], t[1], t[2])
    if kind is Power and type(expr.base) is not Var:
        t = _lower(expr.base, nvars)
        if t is None:
            return None
        power = _poly_of(nvars, *t) ** expr.exponent
        return 1, power.den, power._num
    if kind is Sqrt:
        return None
    if kind is Add or kind is Sub:
        summands = []  # (node, negated), the rightmost first
        while type(expr) is Add or type(expr) is Sub:
            summands.append((expr.right, type(expr) is Sub))
            expr = expr.left
        summands.append((expr, False))
        scaled = [_lower(node, nvars) for node, _ in reversed(summands)]
        if None in scaled:
            return None
        num, den = _sum_scaled([(-p, d, num) if minus else (p, d, num)
                                for (p, d, num), (_, minus) in zip(scaled, reversed(summands))])
        return 1, den, num
    if kind is not Mul and kind is not Div and kind is not Var and kind is not Power:
        raise WeilError(f"unknown expression node {kind.__name__}")
    factors = []  # (node, divided), the rightmost first; x and x^e are one factor
    while type(expr) is Mul or type(expr) is Div:
        factors.append((expr.right, type(expr) is Div))
        expr = expr.left
    factors.append((expr, False))
    p = d = 1
    exps = [0] * nvars
    several = []  # the factors of more than one term
    none = False  # set once the product is no polynomial, but every factor is walked
    for node, divide in reversed(factors):
        kind = type(node)
        if kind is Var or kind is Power and type(node.base) is Var:  # x or x^e, in place
            i = _index((node if kind is Var else node.base).index, nvars)
            e = 1 if kind is Var else _exponent(node.exponent)
            exps[i] += e
            none = none or divide and e > 0  # x^0 is the constant 1
            continue
        if kind is Const:
            fp, fd = _ratio(node.value)
        else:
            t = _lower(node, nvars)
            if t is None:
                none = True
                continue
            if len(t[2]) > 1:
                none = none or divide
                several.append(t)
                continue
            fp, fd, num = t
            for m, c in num.items():  # at most one term
                fp *= c
                if any(m):
                    none = none or divide
                    exps = list(map(_add, exps, m))
            if not num:
                fp = 0
        if divide:  # by a constant: a nonzero one, or the product is no polynomial
            if not fp:
                none = True
                continue
            fp, fd = (fd, fp) if fp > 0 else (-fd, -fp)
        p, d = p * fp, d * fd
    if none:
        return None
    m = tuple(exps)
    if not several:
        return p, d, {m: 1}
    product = _poly_of(nvars, *several[0])
    for t in several[1:]:
        product = product * _poly_of(nvars, *t)
    if any(exps):
        return p, d * product.den, {tuple(map(_add, k, m)): c for k, c in product._num.items()}
    return p, d * product.den, product._num


class ExprMap(Record):
    """A closed-form map R^n -> R^m given by one expression tree per component."""

    __slots__ = ("in_dim", "out_dim", "components")

    def __init__(self, in_dim: int, out_dim: int, components: Sequence[Expr]):
        components = tuple(components)
        if len(components) != out_dim:
            raise WeilError("component count does not match output dimension")
        super().__init__(in_dim, out_dim, components)

    def __repr__(self):
        return f"ExprMap({self.in_dim}->{self.out_dim})"


AnyMap = Union[PolyMap, ExprMap]


def eval_map(f: AnyMap, P: PointVec) -> PointVec:
    """Apply a map to a point, exactly, inside the point's context."""
    if P.dim != f.in_dim:
        raise DimensionMismatchError(
            f"map expects dimension {f.in_dim}, point has dimension {P.dim}"
        )
    ctx = P.context
    if isinstance(f, PolyMap):
        # every power a term reads, once each, by repeated squaring; a term
        # has at most one slot per variable
        powers = {(i, e): P.coords[i] ** e for i, e in f._slots}
        coords = tuple(_contract(ctx, f._rows, [powers] * f.in_dim, f._dens))
    elif isinstance(f, ExprMap):
        coords = tuple(eval_expr(e, P.coords) for e in f.components)
    else:
        raise WeilError(f"not a map: {type(f).__name__}")
    return PointVec(ctx, coords)


def compose(f: PolyMap, g: PolyMap) -> PolyMap:
    """The composite f∘g of two polynomial maps, by substitution."""
    if not (isinstance(f, PolyMap) and isinstance(g, PolyMap)):
        raise WeilError("compose needs two PolyMaps")
    if f.in_dim != g.out_dim:
        raise DimensionMismatchError(
            f"cannot compose: inner map produces dim {g.out_dim}, outer expects {f.in_dim}"
        )
    comps = [p.substitute(list(g.components)) for p in f.components]
    return PolyMap(g.in_dim, f.out_dim, comps)


def jet(f, P: PointVec, order: int) -> list:
    """The Taylor coefficients of ``f`` at ``P`` up to ``order``, exactly.

    Adjoins a fresh block d of ``P.dim`` generators capped at ``order`` to
    P's context and evaluates f(P + d) once, by :func:`eval_map` for a
    PolyMap or ExprMap and by ``f`` itself for any other callable on points:
    evaluation in A ⊗ Q[d]/(d)^(order+1), a Weil functor (Kolář, Michor and
    Slovák 1993, ch. VIII), which is truncated Taylor arithmetic (Griewank
    and Walther, "Evaluating Derivatives", 2008).  Division and square roots
    stay exact because d is nilpotent, and P may be any point.

    Returns one dict per output of ``f``, from each exponent tuple a over the
    ``P.dim`` coordinates, |a| <= order, to the coefficient of d^a: ∂^a f_i(P)
    / a! as an element of P's context.  Zero coefficients are absent, and
    a = (0, ..., 0) holds f_i(P).
    """
    if order < 1:
        raise WeilError("jet order must be at least 1")
    ctx, n = P.context, P.dim
    big, lift = _adjoin(ctx, n, order)
    gens = big.gens()[ctx.ngens:]
    X = PointVec(big, tuple(lift(x) + d for x, d in zip(P.coords, gens)))
    Y = eval_map(f, X) if isinstance(f, (PolyMap, ExprMap)) else f(X)
    return [_split(y, ctx) for y in Y]

