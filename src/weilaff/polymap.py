"""Maps between coordinate spaces over a context, and their derivatives.

Two map flavours share one evaluation interface:

* :class:`PolyMap`  -- componentwise sparse polynomials over Q; supports
  symbolic differentiation, composition and exact Taylor expansion.
* :class:`ExprMap`  -- componentwise closed-form expression trees that may
  also divide by units and take square roots, evaluated directly in the
  algebra (division and roots stay exact on nilpotent arguments).

A :class:`Poly` stores its terms as a :class:`~weilaff.weil.WeilElement`
does, so its arithmetic runs on ints and builds no ``Fraction``.  It shares
the kernel's helpers for common denominators, lowest terms and linear
combinations, not its products: a polynomial has no caps or relations.
It adds, multiplies, differentiates and substitutes, but does
not evaluate itself: a :class:`PolyMap` keeps each component as a row of
index tuples with one ``(variable, exponent)`` slot per variable (x0²·x2 is
((0, 2), (2, 1))), and :func:`eval_map` evaluates them all in one
``weil._contract``, which builds each product of powers once, as its prefix
times one power.  Each power is computed once per call, by repeated
squaring, so a term of degree e costs O(log e) products.

Derivatives of an :class:`ExprMap` at a rational point are still available
through :func:`point_jet`, which reads Taylor coefficients off one exact
evaluation at ``P + d`` in a fresh nilpotent block.
"""

from __future__ import annotations

import functools
import itertools
import math
from fractions import Fraction
from operator import add as _add
from typing import Callable, Optional, Sequence, Union

from .weil import (
    PointVec,
    Record,
    Scalar,
    WeilContext,
    WeilElement,
    WeilError,
    _as_fraction,
    _contract,
    _lowest_terms,
    _over_common_denominator,
    _set_field,
    _sum_scaled,
    invert,
    make_truncated_context,
)
from .weil import sqrt as weil_sqrt
from .neighborhoods import _lift_base, in_D_k

#: hard bound on the Taylor truncation order accepted by :func:`taylor_eval`
MAX_TAYLOR_ORDER = 4


class DimensionMismatchError(WeilError):
    """Raised when a map is applied to a point of the wrong dimension."""


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
        q = _as_fraction(q)
        return cls._of(nvars, {(0,) * nvars: q.numerator} if q else {}, q.denominator)

    @classmethod
    def variable(cls, nvars: int, i: int) -> "Poly":
        if not 0 <= i < nvars:
            raise WeilError(f"variable index {i} out of range")
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
        if not isinstance(e, int) or e < 0:
            raise WeilError("exponent must be a nonnegative integer")
        if not e:
            return Poly.constant(self.nvars, 1)
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

    def diff(self, i: int) -> "Poly":
        """Partial derivative with respect to variable ``i``."""
        # lowering exponent i by one is injective, so no two terms collide
        out = {}
        for m, c in self._num.items():
            e = m[i]
            if e:
                out[m[:i] + (e - 1,) + m[i + 1 :]] = c * e
        return Poly._of(self.nvars, *_lowest_terms(out, self.den))

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
        if not self.terms:
            return "0"
        parts = []
        for m in sorted(self.terms, key=lambda mm: (sum(mm), tuple(-e for e in mm))):
            c = self.terms[m]
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
    """A polynomial map R^n -> R^m given by one :class:`Poly` per component."""

    __slots__ = ("in_dim", "out_dim", "components", "_rows", "_slots")

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
        # one contraction row per component, a slot per variable and its
        # exponent: the term x0²·x2 is the tuple ((0, 2), (2, 1))
        self._rows = [
            {tuple((i, e) for i, e in enumerate(m) if e): c if p.den == 1 else Fraction(c, p.den)
             for m, c in p._num.items()}
            for p in components
        ]
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
    __slots__ = ("value",)  # a Fraction


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
    """Convert to a polynomial, or None if the tree genuinely needs Div/Sqrt."""
    if isinstance(expr, Const):
        return Poly.constant(nvars, expr.value)
    if isinstance(expr, Var):
        return Poly.variable(nvars, expr.index)
    if isinstance(expr, _BINARY):
        spine = []
        while isinstance(expr, _BINARY):
            spine.append(expr)
            expr = expr.left
        a = expr_to_poly(expr, nvars)
        for node in reversed(spine):
            b = expr_to_poly(node.right, nvars)
            kind = type(node)
            if a is None or b is None or kind is Div and not (b.is_constant() and b.constant_value()):
                a = None
            else:
                a = (a + b if kind is Add else a - b if kind is Sub
                     else a * b if kind is Mul else a * (1 / b.constant_value()))
        return a
    if isinstance(expr, Neg):
        a = expr_to_poly(expr.operand, nvars)
        return None if a is None else -a
    if isinstance(expr, Power):
        a = expr_to_poly(expr.base, nvars)
        return None if a is None else a**expr.exponent
    if isinstance(expr, Sqrt):
        return None
    raise WeilError(f"unknown expression node {type(expr).__name__}")


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
        coords = tuple(_contract(ctx, f._rows, [powers] * f.in_dim))
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


class DerivativeTensor:
    """Order-l symmetric derivative data of a map at a base point.

    ``entry(i, idx)`` is the mixed partial of component ``i`` with respect to
    the (unordered) coordinate multi-index ``idx``, evaluated at the base.
    """

    __slots__ = ("order", "base", "in_dim", "out_dim", "_entries", "_rows")

    def __init__(self, order: int, base: PointVec, in_dim: int, out_dim: int, entries: dict):
        self.order = order
        self.base = base
        self.in_dim = in_dim
        self.out_dim = out_dim
        self._entries = entries
        # one contraction row per output over the ordered grids, zero entries left out
        grids = list(itertools.product(range(in_dim), repeat=order))
        self._rows = [
            {g: x for g in grids if (x := entries[i, tuple(sorted(g))])._num}
            for i in range(out_dim)
        ]

    def entry(self, i: int, idx: Sequence[int]) -> WeilElement:
        return self._entries[(i, tuple(sorted(idx)))]

    def apply(self, vectors: Sequence[PointVec]) -> PointVec:
        """Contract against ``order`` many vectors (full symmetric contraction)."""
        if len(vectors) != self.order:
            raise WeilError(f"tensor of order {self.order} applied to {len(vectors)} vectors")
        for v in vectors:
            if v.dim != self.in_dim:
                raise DimensionMismatchError("vector dimension mismatch in contraction")
        ctx = vectors[0].context if vectors else self.base.context
        return PointVec(ctx, tuple(_contract(ctx, self._rows, [v.coords for v in vectors])))

    def as_matrix(self) -> list:
        """Order-1 tensors as a Jacobian matrix (rows: outputs, cols: inputs)."""
        if self.order != 1:
            raise WeilError("as_matrix is only defined for first derivatives")
        return [
            [self.entry(i, (a,)) for a in range(self.in_dim)] for i in range(self.out_dim)
        ]


def derivative_tensor(f: PolyMap, Q: PointVec, order: int) -> DerivativeTensor:
    """Symbolic order-``order`` derivative tensor of a polynomial map at ``Q``."""
    if not isinstance(f, PolyMap):
        raise WeilError("symbolic derivatives need a PolyMap; use point_jet for closed forms")
    if Q.dim != f.in_dim:
        raise DimensionMismatchError("base point dimension mismatch")
    if order < 1:
        raise WeilError("derivative order must be at least 1")
    keys = [(i, idx) for i in range(f.out_dim)
            for idx in itertools.combinations_with_replacement(range(f.in_dim), order)]
    polys = [functools.reduce(Poly.diff, idx, f.components[i]) for i, idx in keys]
    entries = dict(zip(keys, eval_map(PolyMap(f.in_dim, len(polys), polys), Q)))
    return DerivativeTensor(order, Q, f.in_dim, f.out_dim, entries)


def taylor_eval(f: PolyMap, Q: PointVec, d: PointVec, k: int) -> PointVec:
    """f(Q + d) computed as the order-k Taylor polynomial at Q.

    Exact whenever ``d`` is a k-th order infinitesimal (checked): the dropped
    terms contract k+1 or more coordinates of ``d`` and therefore vanish.
    """
    if k < 1:
        raise WeilError("Taylor order must be at least 1")
    if k > MAX_TAYLOR_ORDER:
        raise WeilError(f"Taylor order {k} exceeds the configured bound {MAX_TAYLOR_ORDER}")
    if not in_D_k(d, k):
        raise WeilError(f"displacement is not in D_{k}; Taylor truncation would be lossy")
    acc = eval_map(f, Q)
    for order in range(1, k + 1):
        tensor = derivative_tensor(f, Q, order)
        inc = tensor.apply([d] * order)
        scale = Fraction(1, math.factorial(order))
        acc = PointVec(acc.context, tuple(a + c * scale for a, c in zip(acc, inc)))
    return acc


def point_jet(f, base: Sequence[Scalar], in_dim: int, order: int):
    """Exact derivatives of any map at a rational point, by nilpotent evaluation.

    Evaluates ``f(base + d)`` with ``d`` a fresh cap-``order`` block and reads
    the Taylor coefficients off the normal form.  Returns ``(value, tensors)``
    where ``value`` is a tuple of Fractions and ``tensors[l]`` (l = 1..order)
    maps ``(i, sorted_multi_index)`` to the mixed partial as a Fraction.

    ``f`` may be a PolyMap, an ExprMap, or any callable on points.
    Division/sqrt stay exact because the displacement is nilpotent.
    """
    base = _lift_base(base, in_dim)
    ctx = make_truncated_context([("d", in_dim, order)])
    X = PointVec(ctx, tuple(ctx.scalar(b) + ctx.gen(a) for a, b in enumerate(base)))
    Y = eval_map(f, X) if isinstance(f, (PolyMap, ExprMap)) else f(X)
    value = tuple(y.constant_term for y in Y)
    tensors: dict = {l: {} for l in range(1, order + 1)}
    for i, y in enumerate(Y):
        for mono, c in y.coeffs.items():
            l = sum(mono)
            if not l:
                continue
            idx = []
            factor = 1
            for a, e in enumerate(mono):
                idx.extend([a] * e)
                factor *= math.factorial(e)
            tensors[l][(i, tuple(idx))] = c * factor
    # absent mixed partials are zero
    out_dim = len(value)
    for l in range(1, order + 1):
        for i in range(out_dim):
            for idx in itertools.combinations_with_replacement(range(in_dim), l):
                tensors[l].setdefault((i, idx), Fraction(0))
    return value, tensors
