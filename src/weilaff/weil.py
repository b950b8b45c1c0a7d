"""Exact arithmetic in Weil algebras: finitely generated nilpotent algebras over Q.

A :class:`WeilContext` fixes a finite set of nilpotent generators and the
ideal that decides which coefficient combinations vanish.  The generators
come in blocks, each with a degree cap: a monomial dies as soon as its
exponent sum within one block exceeds that block's cap, so the caps generate
a monomial ideal and the total degree never exceeds the sum of the caps.
Cross-block degrees are only limited by the per-block caps, so ``eps1*delta1``
survives caps (1, 1).  On top of the caps a context may carry homogeneous
polynomial relations; each graded component is then reduced modulo the span
of ``relation * monomial`` over the monomials the caps leave alive, via a
cached reduced row echelon basis.  Its pivots are the leading monomials and
the others the standard ones: a row with pivot coefficient 1 gives the
normal form of its pivot, ``p ≡ p − row``, in integers, and the context
keeps these as a rewrite table, read off each basis as it is built.  A
degree in which every alive monomial has a divisor of one degree less
that is a pivot there is full, and its basis is the identity, built
without elimination (the leading monomials of the degree below, times the
generators, cover it).  Every higher degree is then full too, so the
context knows the degree from which everything vanishes: products stop
there, and :meth:`WeilContext.vanishes_from` lets the neighbourhood
searches prune against it.

:func:`make_truncated_context` builds the general case from blocks (plus
optional relations); :func:`make_quotient_context` is one block covering
every generator with the given total-degree cap.

Inside the kernel a monomial is one packed integer, as in the packed
exponent vectors of Monagan and Pearce (CASC 2007).  The context fixes the
layout from its names and blocks alone, so equal contexts share it.  From
the most significant end: the total degree, then one field of ``w`` bits per
generator (generator 0 first), then one field per binding block (a block
whose cap is below the total cap) holding that block's exponent sum.  ``w``
is the smallest width with ``2**(w-1) > 2 * degree_cap``, so adding two
monomials the caps leave alive never carries from one field into the next:
a product of monomials is one integer addition and a total degree one
shift.  Comparing packed integers compares the total degree first and then
the exponent tuples, which is the graded lexicographic order with
``x0 > x1 > ...``: pivots (the largest monomial of a row) and witnesses (the
least surviving monomial) are the ones that order picks.  Each block field
plus ``bias`` (``2**(w-1) - 1 - cap`` in that field) reaches the field's top
bit exactly when the block is over its cap, so one mask test against
``guard`` applies every block cap at once.  Exponent tuples appear only at
the edges: building elements, and reading them back.

An element is immutable: integer numerators on the monomials of its normal
form over one positive common denominator, in lowest terms, so ``==`` on
elements is equality in the algebra (the layout of FLINT's ``fmpq_poly``).
Fractions appear only at the edges: building elements from rationals, and
reading coefficients, constant terms and witnesses back.  A product visits
only the pairs of terms whose degrees fit under the known top degree, and a
factor of one term ``c·m`` visits no pair: the other factor's monomials are
shifted by ``m`` (one integer addition each), those past a cap dropped, and
scaled by ``c``.  Under relations a product writes its normal form as it
multiplies: where a pair lands on a pivot, the pivot's terms from the
rewrite table are added in its place.  That is exact, since reduction is
linear and each row vanishes on every other pivot; only the pivots of rows
with another pivot coefficient are left to reduce afterwards, and so is
every product while binding caps leave a degree it may reach unbuilt.
Relation reduction runs on integer rows, and a linear combination of
elements is built over one common denominator and brought to lowest terms
once.  All arithmetic is exact; nothing here ever touches floats.

Contexts are hash-consed (Filliâtre and Conchon, "Type-safe modular
hash-consing", 2006): both makers return the live context of an equal
presentation (the same names, blocks with their labels, and cleaned
relations) when one exists, so every model built alike shares one object,
and with it the relation bases, the rewrite table, the packed relations,
the generators and the ideal key, built once while anyone holds it.  The
table holds its contexts weakly: a context nobody holds is collected with
everything it built.  Two
presentations of one ideal stay two objects that compare equal.
"""

from __future__ import annotations

import itertools
import math
import weakref
from fractions import Fraction
from operator import mul as _mul
from typing import Iterable, Mapping, Sequence, Union

Monomial = tuple  # exponent tuple, one slot per generator
Scalar = Union[int, Fraction]


class WeilError(ValueError):
    """Base class for algebra-level errors."""


class ContextMismatchError(WeilError):
    """Raised when elements from different contexts are combined."""


class NonInvertibleError(WeilError):
    """Raised when an element's constant term is zero."""


class NotASquareError(WeilError):
    """Raised when a constant term has no rational square root."""


class SingularMatrixError(WeilError):
    """Raised when a matrix's constant part is not invertible over Q."""


def _as_fraction(q: Scalar) -> Fraction:
    if isinstance(q, Fraction):
        return q
    if isinstance(q, int):
        return Fraction(q)
    raise TypeError(f"expected an exact rational scalar, got {type(q).__name__}")


def _decimal(q: Scalar) -> str:
    """``str(q)`` of an int or Fraction, in full: str() refuses an int past the
    interpreter's limit (4,300 digits by default, never below 640 if set)."""
    if isinstance(q, Fraction):
        num = _decimal(q.numerator)
        return num if q.denominator == 1 else f"{num}/{_decimal(q.denominator)}"
    n, chunks = abs(q), []
    while n >= 10**600:  # a chunk of 600 digits is under any limit
        n, low = divmod(n, 10**600)
        chunks.append(str(low).zfill(600))
    return ("-" if q < 0 else "") + str(n) + "".join(reversed(chunks))


_set_field = object.__setattr__


class Record:
    """Base of the immutable value classes: a frozen dataclass without the cost
    of building one.  ``__slots__`` names the fields in constructor order,
    ``_defaults`` the trailing ones' defaults.  The fields before index
    ``_compared`` (all when None) decide ``==`` and the hash, within one class;
    the rest ride along.  Fields are frozen; the repr is a dataclass's."""

    __slots__ = ()
    _defaults = ()
    _compared = None

    def __init__(self, *args, **kwargs):
        names = self.__slots__
        if kwargs or len(args) != len(names):  # complete them from kwargs and the defaults
            values = dict(zip(names[len(names) - len(self._defaults):], self._defaults),
                          **dict(zip(names, args)), **kwargs)
            if len(args) > len(names) or values.keys() != set(names):
                raise TypeError(f"{type(self).__name__}() takes the fields {', '.join(names)}")
            args = [values[name] for name in names]
        for name, value in zip(names, args):
            _set_field(self, name, value)

    def _key(self) -> tuple:
        return tuple([getattr(self, name) for name in self.__slots__[: self._compared]])

    def __eq__(self, other):
        return self._key() == other._key() if other.__class__ is self.__class__ else NotImplemented

    def __hash__(self):
        return hash(self._key())

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r} of {type(self).__name__}")

    def __reduce__(self):  # copy and pickle go through __init__
        return type(self), tuple([getattr(self, name) for name in self.__slots__])

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{type(self).__qualname__}({fields})"


def monomials_of_degree(nvars: int, degree: int) -> Iterable[Monomial]:
    """Yield every exponent tuple over ``nvars`` variables of total degree
    ``degree``, largest first."""
    # the multisets of variables in lexicographic order are the exponent
    # tuples in descending order
    zero = [0] * nvars
    for picks in itertools.combinations_with_replacement(range(nvars), degree):
        exps = zero[:]
        for i in picks:
            exps[i] += 1
        yield tuple(exps)


class Block(Record):
    """A run of generators sharing one degree cap."""

    __slots__ = ("name", "start", "count", "cap")


class WeilContext:
    """Shared generator/vanishing data for a family of elements.

    Two contexts are equal when their names and blocks match and their
    relations span the same ideal modulo the caps, however they are listed.

    A context is immutable apart from lazy caches that are filled
    idempotently (the relation bases and the rewrite table read off them,
    the ideal key, the generators' normal
    forms, kept as numerators and denominator, and the contexts
    :func:`_adjoin` built on it) or only ever lowered
    (the known top degree), so one context is safely shared by everything
    built on an equal presentation.  No cache holds an element: an element
    points back at its context, so a context holding one would be freed only
    by the cyclic collector.  Do not call directly; use
    :func:`make_truncated_context` or :func:`make_quotient_context`, which
    return the live equal context when there is one.
    """

    __slots__ = (
        "names", "blocks", "relations", "degree_cap", "_binding", "_sig",
        "_mask", "_offsets", "_units", "_dshift", "_bias", "_guard", "_rels",
        "_bases", "_rewrite", "_nonunit", "_ideal", "_top", "_gens", "_adjoined",
        "__weakref__",
    )

    def __init__(self, names: tuple, blocks: tuple, relations: tuple):
        self.names = names
        self.blocks = blocks
        self.relations = relations
        # the caps' bound: every monomial of higher total degree vanishes
        # (relations may kill every one from a lower degree on: ``_top``)
        self.degree_cap = cap = sum(b.cap for b in blocks)
        # a block cap at the total cap kills nothing the total cap keeps, so
        # only the lower ones are ever tested
        self._binding = binding = tuple(
            (b.start, b.start + b.count, b.cap) for b in blocks if b.cap < cap
        )
        # block names only label generators, which ``names`` already records
        self._sig = (names, tuple((b.start, b.count, b.cap) for b in blocks))
        # packed layout (module docstring): block fields at the bottom, then
        # the generators with generator 0 highest, then the total degree
        w = (2 * cap).bit_length() + 1
        n, nb = len(names), len(binding)
        self._mask = (1 << w) - 1
        self._offsets = tuple(w * (nb + n - 1 - i) for i in range(n))
        self._dshift = w * (nb + n)
        units = [1 << self._dshift | 1 << off for off in self._offsets]
        half = 1 << (w - 1)
        self._bias = self._guard = 0
        for j, (lo, hi, bcap) in enumerate(binding):
            off = w * (nb - 1 - j)
            self._bias |= (half - 1 - bcap) << off
            self._guard |= half << off
            for i in range(lo, hi):
                units[i] |= 1 << off
        self._units = tuple(units)
        # the relations packed once, as (degree, primitive integer row); one
        # above the cap never meets a degree that is built
        rels = []
        for rel in relations:
            deg = sum(next(iter(rel)))  # relations are homogeneous
            if deg <= cap:
                packed = {self._pack(m): c for m, c in rel.items()}
                rels.append((deg, _primitive(_over_common_denominator(packed)[0])))
        self._rels = tuple(rels)
        # per-degree RREF bases for relation reduction, and the ideal key built
        # from them; populated lazily and idempotently (recomputation yields
        # the identical value, so a race merely duplicates work)
        self._bases = {}
        # the products' rewrite table, read off the bases as each is built:
        # a pivot with coefficient 1 -> its normal form's (monomial,
        # integer) terms; the rows with another pivot coefficient by pivot
        self._rewrite, self._nonunit = {}, {}
        self._ideal = None
        self._gens = self._adjoined = None
        # every degree above this one vanishes; it drops when a basis turns
        # out full and never rises, so any value it has held is a valid bound
        # and a race merely costs work
        self._top = cap

    # -- identity ---------------------------------------------------------

    def __eq__(self, other):
        if self is other:
            return True
        if not isinstance(other, WeilContext) or self._sig != other._sig:
            return False
        # two relation lists may present one ideal: compare its reduced bases
        return self.relations == other.relations or self._ideal_key() == other._ideal_key()

    def __hash__(self):
        return hash(self._sig)

    def _ideal_key(self) -> tuple:
        """The canonical integer bases of degrees 1..cap, up to the first full
        degree (every one above it is full too): equal exactly when the
        relations span the same ideal modulo the block caps."""
        if self._ideal is None:
            if self.relations:
                self._degree_basis(self.degree_cap)
            self._ideal = tuple(
                tuple(sorted((p, tuple(sorted(row.items())))
                             for p, (_, row) in self._bases[d].items()))
                if self.relations else ()
                for d in range(1, min(self.degree_cap, self._top + 1) + 1)
            )
        return self._ideal

    def __repr__(self):
        return (
            f"<WeilContext gens={self.ngens} cap={self.degree_cap} "
            f"relations={len(self.relations)}>"
        )

    @property
    def ngens(self) -> int:
        return len(self.names)

    def vanishes_from(self, degree: int) -> bool:
        """True when every monomial of total degree ``degree`` is zero in the
        algebra, and so every monomial of higher degree.  Builds relation
        bases only up to ``degree``; without relations this is
        ``degree > degree_cap``."""
        if degree > self._top:
            return True
        if not self.relations or degree < 1:
            return False
        self._degree_basis(degree)
        return degree > self._top

    def _reach(self, elements) -> int:
        """The highest degree a product of ``elements`` can reach: the sum of
        the caps of the blocks with a generator in one of their monomials.
        Relations are homogeneous, so reduction keeps a product's degrees."""
        used = 0
        for x in elements:
            for m in x._num:
                used |= m
        # a block's generator fields are adjacent, its last generator lowest
        offsets, w, reach = self._offsets, self._mask.bit_length(), 0
        for b in self.blocks:
            if b.count and used >> offsets[b.start + b.count - 1] & ((1 << w * b.count) - 1):
                reach += b.cap
        return reach

    # -- packed monomials ----------------------------------------------------

    def _pack(self, mono: Monomial) -> int:
        """The packed key of an exponent tuple the caps leave alive."""
        return sum(map(_mul, mono, self._units))

    def _unpack(self, key: int) -> Monomial:
        mask = self._mask
        return tuple((key >> off) & mask for off in self._offsets)

    # -- element constructors ----------------------------------------------

    def zero(self) -> "WeilElement":
        return WeilElement(self, {}, 1)

    def one(self) -> "WeilElement":
        return WeilElement(self, {0: 1}, 1)

    def scalar(self, q: Scalar) -> "WeilElement":
        if type(q) is not int:
            q = _as_fraction(q)
            if q.denominator != 1:
                return WeilElement(self, {0: q.numerator}, q.denominator)
            q = q.numerator
        return WeilElement(self, {0: q} if q else {}, 1)

    def gen(self, i: int) -> "WeilElement":
        if not 0 <= i < self.ngens:
            raise IndexError(f"generator index {i} out of range")
        return WeilElement(self, *self._generators()[i])

    def gens(self) -> list:
        return [WeilElement(self, num, den) for num, den in self._generators()]

    def _generators(self) -> tuple:
        """Each generator's normal form as ``(numerators, denominator)``,
        built once.  Not the elements: each points back at this context, and
        a context holding them would live until the cyclic collector ran."""
        if self._gens is None:
            gens = []
            for i, unit in enumerate(self._units):
                # a cap of 0 kills a generator, and a linear relation may reduce it
                mono = tuple(1 if j == i else 0 for j in range(self.ngens))
                x = self.zero() if self.monomial_is_zero(mono) else self._normal_form({unit: 1}, 1)
                gens.append((x._num, x.den))
            self._gens = tuple(gens)
        return self._gens

    def element(self, raw: Mapping[Monomial, Scalar]) -> "WeilElement":
        terms = {}
        for m, c in raw.items():
            m, c = tuple(m), _as_fraction(c)
            if c and not self.monomial_is_zero(m):
                terms[self._pack(m)] = c
        return self._normal_form(*_over_common_denominator(terms))

    def point(self, coords: Sequence) -> "PointVec":
        """Coerce a sequence of scalars/elements into a point of this context."""
        out = []
        for c in coords:
            if isinstance(c, WeilElement):
                if c.context != self:
                    raise ContextMismatchError("coordinate from a different context")
                out.append(c)
            else:
                out.append(self.scalar(c))
        return PointVec(self, tuple(out))

    # -- normal form --------------------------------------------------------

    def monomial_is_zero(self, mono: Monomial) -> bool:
        """True when the degree caps alone kill ``mono`` (relations aside)."""
        if sum(mono) > self.degree_cap:
            return True
        return any(sum(mono[lo:hi]) > cap for lo, hi, cap in self._binding)

    def _normal_form(self, num: dict, den: int) -> "WeilElement":
        """The element ``num / den``, given integer numerators on packed
        monomials the caps leave alive: relations reduced, common factor
        removed."""
        if self.relations and num:
            # build the bases up to the highest degree first, since that may
            # lower the top; then the terms above the top vanish, and every
            # degree left has its basis
            dshift = self._dshift
            largest = max(num)
            self._degree_basis(largest >> dshift)
            limit = (self._top + 1) << dshift
            if largest >= limit:
                num = {m: c for m, c in num.items() if m < limit}
            bases = self._bases
            hits = []
            for m, c in num.items():
                d = m >> dshift
                if d:
                    hit = bases[d].get(m)
                    if hit:
                        hits.append((c, hit))
            if hits:
                num, scale = _reduce_at_degree(num, hits)
                den *= scale
        return WeilElement(self, *_lowest_terms(num, den))

    def _degree_basis(self, degree: int) -> dict:
        """RREF basis of span{relation * monomial} in the given graded slot,
        restricted to the monomials the block caps leave alive, as
        ``{pivot: (pivot coefficient, row)}`` on packed monomials.  Each row
        is a primitive integer vector with a positive coefficient on its
        pivot (its largest monomial) and zero on every other pivot: the
        unique reduced basis over Q, each row scaled to integers, so equal
        spans give equal bases.

        The caps generate a monomial ideal M, and the leading monomials of
        ``J_d + M_d`` are ``M_d`` together with those of J_d projected off
        M_d, so this basis reduces exactly as one that listed the caps as
        monomial relations would.

        Cover test: the packed order is a monomial order, so a row of degree
        d-1 with pivot p, times a generator x_i, lies in the span with
        leading monomial p + e_i (the caps drop only smaller terms).  When
        every alive monomial of degree d has such a divisor among the pivots
        of degree d-1, these rows span the whole degree: it is full, and its
        reduced basis is the identity ``{m: (1, {m: 1})}``, built with no
        elimination.  A full degree, found either way, lowers ``_top`` below
        it.  Degrees are built from the bottom up, since the test reads the
        degree below, and the first full degree is the last one built: above
        ``_top + 1`` nothing is built, and None is returned."""
        if degree not in self._bases:
            for d in range(1, degree + 1):
                if d > self._top + 1:
                    break
                if d not in self._bases:
                    basis = self._bases[d] = self._build_basis(d)
                    if d <= self._top:  # no product reaches a full degree
                        self._index(basis)
        return self._bases.get(degree)

    def _index(self, basis: dict) -> None:
        """Add one degree's pivots to the rewrite table.  A row ``r`` with
        pivot ``p`` says ``pc·p ≡ pc·p − r``; with ``pc = 1`` that is the
        normal form of ``p``, integral, since ``r`` vanishes on every other
        pivot.  Other rows are left for :func:`_reduce_at_degree`."""
        rewrite, nonunit = self._rewrite, self._nonunit
        for p, (pc, row) in basis.items():
            if pc == 1:
                rewrite[p] = tuple([(m, -c) for m, c in row.items() if m != p])
            else:
                nonunit[p] = (pc, row)

    def _rewrites(self, degree: int):
        """The rewrite table of a context with relations, once it covers
        every degree up to ``degree`` (or the known top, if lower), or None
        under binding block caps while one of those degrees is unbuilt.
        The caps may kill a product's highest terms, so there the factors'
        degrees can lie well above what the product reaches, and a basis
        built for them would be elimination spent on nothing; such a
        product reduces afterwards, building only the degrees it reaches."""
        degree = min(degree, self._top)
        if degree > len(self._bases):  # the bases are built from degree 1 up
            if self._guard:
                return None
            self._degree_basis(degree)
        return self._rewrite

    def _rewritten(self, out: dict, den: int) -> "WeilElement":
        """The element ``out / den``, given integer numerators already
        rewritten through the table (zeros allowed): only the pivots of rows
        with a pivot coefficient other than 1 are left to reduce."""
        out = {m: c for m, c in out.items() if c}
        nonunit = self._nonunit
        if nonunit:
            hits = [(out[p], nonunit[p]) for p in nonunit.keys() & out.keys()]
            if hits:
                out, scale = _reduce_at_degree(out, hits)
                den *= scale
        return WeilElement(self, *_lowest_terms(out, den))

    def _alive(self, degree: int) -> list:
        """The packed monomials of total degree ``degree`` that the caps
        leave alive, largest first."""
        units = self._units
        monos = [sum(map(units.__getitem__, picks))
                 for picks in itertools.combinations_with_replacement(range(len(units)), degree)]
        bias, guard = self._bias, self._guard
        if guard:
            return [m for m in monos if not (m + bias) & guard]
        return monos

    def _build_basis(self, degree: int) -> dict:
        alive = self._alive(degree)
        below = self._bases.get(degree - 1)
        mask = self._mask
        fields = tuple(zip(self._offsets, self._units))
        if below is not None and all(
            any((m >> off) & mask and m - unit in below for off, unit in fields)
            for m in alive
        ):
            basis = {m: (1, {m: 1}) for m in alive}
        else:
            basis = self._eliminate(degree, len(alive))
        if len(basis) == len(alive):  # full: so is every higher degree
            self._top = min(self._top, degree - 1)
        return basis

    def _eliminate(self, degree: int, full: int) -> dict:
        """The reduced basis of one degree by fraction-free elimination of
        relation x shift rows (as in Bareiss 1968, with rows divided by their
        content where Bareiss divides by the previous pivot).  Stops once the
        rank reaches ``full``, the number of alive monomials."""
        bias, guard = self._bias, self._guard
        shifts = {}  # shift degree -> alive monomials of that degree
        basis = {}
        cols = {}  # monomial -> pivots of the basis rows nonzero on it
        for rel_deg, rel in self._rels:
            if rel_deg > degree:
                continue
            sd = degree - rel_deg
            if sd not in shifts:
                # a capped shift needs no row: so is every multiple of it
                shifts[sd] = self._alive(sd)
            for shift in shifts[sd]:
                # adding one shift is injective, so no two terms collide
                if guard:
                    row = {}
                    for m, c in rel.items():
                        key = m + shift
                        if not (key + bias) & guard:
                            row[key] = c
                else:
                    row = {m + shift: c for m, c in rel.items()}
                hits = [(row[m], basis[m]) for m in row if m in basis]
                if hits:
                    row = _reduce_at_degree(row, hits)[0]
                if not row:
                    continue
                row = _primitive(row)
                pivot = max(row)
                pc = row[pivot]
                for p in list(cols.get(pivot, ())):
                    old = basis[p][1]
                    brow = _primitive(_reduce_at_degree(old, [(old[pivot], (pc, row))])[0])
                    basis[p] = (brow[p], brow)
                    for m in old.keys() - brow.keys():
                        cols[m].discard(p)
                    for m in brow.keys() - old.keys():
                        cols.setdefault(m, set()).add(p)
                basis[pivot] = (pc, row)
                for m in row:
                    cols.setdefault(m, set()).add(pivot)
                if len(basis) == full:
                    return basis
        return basis

    # -- display -------------------------------------------------------------

    def format_monomial(self, mono: Monomial) -> str:
        parts = []
        for name, e in zip(self.names, mono):
            if e == 1:
                parts.append(name)
            elif e > 1:
                parts.append(f"{name}^{e}")
        return "·".join(parts) if parts else "1"


def _over_common_denominator(terms: Mapping[Monomial, Scalar]) -> tuple:
    """``(num, den)`` in lowest terms: integer numerators of nonzero ints or
    Fractions over the least common denominator."""
    den = math.lcm(*(c.denominator for c in terms.values()))
    return {m: c.numerator * (den // c.denominator) for m, c in terms.items()}, den


def _primitive(row: dict) -> dict:
    """``row`` divided by its content, signed so its largest monomial is positive."""
    g = math.gcd(*row.values())
    if row[max(row)] < 0:
        g = -g
    return row if g == 1 else {m: c // g for m, c in row.items()}


def _reduce_at_degree(vec: dict, hits: list) -> tuple:
    """Clear pivot entries of the integer vector ``vec``.

    ``hits`` pairs each nonzero entry ``c`` of ``vec`` on a pivot with that
    pivot's ``(pivot coefficient, row)``, from the bases of any degrees (a
    row touches only its own degree).  Rows of a reduced basis vanish on
    every other pivot, so the multiple of each row to subtract depends only
    on ``vec``: ``vec`` is scaled once by the least multiplier that makes
    every such multiple integral.  Returns ``(scale * reduced, scale)``.
    """
    scale = 1
    for c, (pc, _) in hits:
        if pc != 1:  # a unit pivot needs no scale
            scale = math.lcm(scale, pc // math.gcd(pc, c))
    out = {m: c * scale for m, c in vec.items()} if scale != 1 else dict(vec)
    for c, (pc, row) in hits:
        f = c * scale // pc
        for m, rc in row.items():
            nc = out.get(m, 0) - f * rc
            if nc:
                out[m] = nc
            else:
                del out[m]
    return out, scale


def _lowest_terms(num: dict, den: int) -> tuple:
    """``(num, den)`` with the common factor of ``den`` and every numerator removed."""
    if den != 1:
        g = math.gcd(den, *num.values())
        if g != 1:
            den //= g
            num = {m: c // g for m, c in num.items()}
    return num, den


def _sum_scaled(scaled: Sequence) -> tuple:
    """``(num, den)`` in lowest terms: the sum of ``(p / d) * num`` over
    ``(p, d, num)`` triples of integers ``p``, positive integers ``d`` and
    integer numerator dicts, on any keys.  One common denominator, one pass
    of integer adds, lowest terms once."""
    den = math.lcm(*[d for _, d, _ in scaled])
    out = {}
    for p, d, num in scaled:
        f = p * (den // d)
        for m, c in num.items():
            out[m] = out.get(m, 0) + c * f
    return _lowest_terms({m: c for m, c in out.items() if c}, den)


def _lincomb(ctx: WeilContext, pairs: Iterable, den: int = 1) -> "WeilElement":
    """The sum of ``(q / den) * x`` over ``(scalar, element)`` pairs of ``ctx``,
    by :func:`_sum_scaled`, for a positive integer ``den``.  A scalar is an
    integer (the fast case: callers hold integer numerators over ``den``), a
    rational or a constant element.  Elements are immutable, so one term of
    weight 1 returns that element itself, and no term returns zero."""
    scaled = []
    for q, x in pairs:
        if x.context is not ctx and x.context != ctx:
            raise ContextMismatchError("elements belong to different contexts")
        if q and x._num:
            if type(q) is int:
                p, d = q, den
            elif type(q) is WeilElement:
                p, d = q._num.get(0, 0), q.den * den
            else:
                q = _as_fraction(q)
                p, d = q.numerator, q.denominator * den
            scaled.append((p, d * x.den, x._num))
            last = x
    if len(scaled) == 1 and p == d:  # the weight p / d of the one term is 1
        return last
    return WeilElement(ctx, *_sum_scaled(scaled))


def _contract(ctx: WeilContext, rows: Sequence[Mapping], vectors: Sequence, dens=None) -> list:
    """One element of ``ctx`` per row: the sum over the row's entries
    ``idx: c`` of ``c / dens[r]`` (``c`` when ``dens`` is None) times the
    product of ``vectors[j][idx[j]]`` over the slots ``j`` of the index tuple
    ``idx``.

    A coefficient is an integer (over the row's denominator, as
    :func:`_lincomb` takes it), a rational or an element; a constant element
    only scales.  Each product is built once per call, as its prefix times one
    coordinate, so products share their prefixes' work (the multivariate
    Horner scheme of Carnicer and Gasca, Math. Comp. 1990).  ``()`` is one,
    a vanished prefix ends every product that extends it, and each row is
    summed by one :func:`_lincomb`.
    """
    # child[node, i] is the node one slot deeper with its product, node 0
    # being (): walking it from the root finds each product already built
    one, child, out = ctx.one(), {}, []
    for row, den in zip(rows, dens or [1] * len(rows)):
        pairs = []
        for idx, c in row.items():
            if not c:  # a zero rational builds no product (an element is always true)
                continue
            node, x = 0, one
            for j, i in enumerate(idx):
                if not x._num:
                    break
                nx = child.get((node, i))
                if nx is None:
                    y = vectors[j][i]
                    nx = child[node, i] = len(child) + 1, y if j == 0 else x * y
                node, x = nx
            if x._num:
                # a constant element only scales, as a scalar of _lincomb
                if type(c) is WeilElement and not c._num.keys() <= {0}:
                    c, x = 1, c * x
                pairs.append((c, x))
        out.append(_lincomb(ctx, pairs, den))
    return out


def _clean_relations(relations, ngens: int) -> tuple:
    """Canonical homogeneous relations: merged, zero-free, sorted by monomial.
    Integer coefficients stay integers; others become Fractions."""
    cleaned = []
    for rel in relations:
        terms = {}
        for m, c in rel.items():
            m = tuple(m)
            if len(m) != ngens:
                raise WeilError("relation monomial arity does not match generators")
            if type(c) is not int:
                c = _as_fraction(c)
            if c:
                terms[m] = terms.get(m, 0) + c
        terms = {m: c for m, c in terms.items() if c}
        if not terms:
            continue
        degs = {sum(m) for m in terms}
        if len(degs) != 1:
            raise WeilError("relations must be homogeneous")
        if degs == {0}:
            raise WeilError("a nonzero constant relation collapses the algebra")
        cleaned.append(dict(sorted(terms.items())))
    return tuple(cleaned)


# presentation -> its live context; weak values, so the table never keeps one alive
_contexts = weakref.WeakValueDictionary()


class _Key(tuple):
    """A presentation's key, holding its hash once computed: a generic
    model's key is kept per shape and looked up on every build."""

    def __hash__(self):
        return self.hash


def _presentation_key(names: tuple, blocks: tuple, relations: tuple) -> _Key:
    """The intern table's key of a presentation.  Relations come cleaned, so
    coefficients of equal value give one key."""
    block_fields = tuple((b.name, b.start, b.count, b.cap) for b in blocks)
    key = _Key((names, block_fields, tuple(tuple(rel.items()) for rel in relations)))
    key.hash = tuple.__hash__(key)
    return key


def _intern(names: tuple, blocks: tuple, relations: tuple, key: _Key = None) -> WeilContext:
    """The live context of this presentation, or a new one.  ``key`` is the
    presentation's :func:`_presentation_key`, when the caller kept it."""
    if key is None:
        key = _presentation_key(names, blocks, relations)
    ctx = _contexts.get(key)
    if ctx is None:
        # a race at worst builds two equal contexts, one of them stored
        ctx = _contexts[key] = WeilContext(names, blocks, relations)
    return ctx


def make_truncated_context(
    blocks: Sequence, relations: Sequence[Mapping[Monomial, Scalar]] = ()
) -> WeilContext:
    """Build a context from ``(name, count, cap)`` block triples, optionally
    quotiented by homogeneous relations over all the generators.

    A block of count 1 yields a generator named exactly ``name``; larger
    blocks number their generators ``name1, name2, ...``.
    """
    names = []
    built = []
    start = 0
    seen = set()
    for name, count, cap in blocks:
        if count < 1:
            raise WeilError(f"block {name!r} needs at least one generator")
        if cap < 0:
            raise WeilError("block cap must be nonnegative")
        if name in seen:
            raise WeilError(f"duplicate block name {name!r}")
        seen.add(name)
        if count == 1:
            names.append(name)
        else:
            names.extend(f"{name}{i}" for i in range(1, count + 1))
        built.append(Block(name, start, count, cap))
        start += count
    return _intern(tuple(names), tuple(built), _clean_relations(relations, start))


def make_quotient_context(
    names: Sequence[str],
    relations: Sequence[Mapping[Monomial, Scalar]],
    degree_cap: int,
) -> WeilContext:
    """Build a context from homogeneous relations and a total-degree cap:
    one block, capped at ``degree_cap``, covering every generator.

    Every generator must be nilpotent under the relations + cap; this is not
    re-verified here, but generators carry no constant term so any element's
    non-constant part dies at degree ``degree_cap + 1`` regardless.
    """
    names = tuple(names)
    if degree_cap < 0:
        raise WeilError("degree cap must be nonnegative")
    block = Block("", 0, len(names), degree_cap)
    return _intern(names, (block,), _clean_relations(relations, len(names)))


def _adjoin(ctx: WeilContext, count: int, cap: int) -> tuple:
    """``(context, lift)``: the live context of ``ctx`` with a block ``∂`` of
    ``count`` fresh generators capped at ``cap`` after its own (no scenario
    names a block ``∂``, which is not a letter), and the map of the elements
    of ``ctx`` into it.  Its relations are those of ``ctx``, zero on the new
    generators, so their multiples span the direct sum, over the monomials
    of the new generators, of their span in ``ctx`` times the monomial: a
    normal form of ``ctx`` stays one.  ``ctx`` holds the contexts adjoined to
    it, so a jet taken again reuses its context; none refers back to it."""
    pad = (0,) * count
    adjoined = ctx._adjoined = ctx._adjoined or {}
    big = adjoined.get((count, cap))
    if big is None:
        big = adjoined[count, cap] = _intern(
            ctx.names + tuple(f"∂{i}" for i in range(1, count + 1)),
            ctx.blocks + (Block("∂", ctx.ngens, count, cap),),
            tuple({m + pad: c for m, c in rel.items()} for rel in ctx.relations),
        )
    unpack, pack = ctx._unpack, big._pack

    def lift(x: WeilElement) -> WeilElement:
        return WeilElement(big, {pack(unpack(m) + pad): c for m, c in x._num.items()}, x.den)

    return big, lift


def _split(x: WeilElement, ctx: WeilContext) -> dict:
    """An element of a context :func:`_adjoin` built on ``ctx`` as ``{exponents
    of the adjoined generators: nonzero coefficient in ctx}``; the coefficients
    of a normal form are normal forms (see :func:`_adjoin`)."""
    n, unpack, pack = ctx.ngens, x.context._unpack, ctx._pack
    parts = {}
    for m, c in x._num.items():
        mono = unpack(m)
        parts.setdefault(mono[n:], {})[pack(mono[:n])] = c
    return {tail: WeilElement(ctx, *_lowest_terms(num, x.den)) for tail, num in parts.items()}


class WeilElement:
    """An immutable element ``num / den`` of a :class:`WeilContext`.

    The numerators map each surviving monomial of the normal form, packed,
    to an integer, and ``den`` is one positive common denominator, with
    ``gcd(den, *numerators) == 1`` and zero stored as ``({}, 1)``.  ``num``
    reads the numerators back on exponent tuples.  Do not call directly:
    build elements through the context.
    """

    __slots__ = ("context", "_num", "den")

    def __init__(self, context: WeilContext, num: dict, den: int):
        self.context = context
        self._num = num
        self.den = den

    # -- helpers -------------------------------------------------------------

    def _coerce(self, other):
        if isinstance(other, WeilElement):
            if other.context is not self.context and other.context != self.context:
                raise ContextMismatchError("elements belong to different contexts")
            return other
        if isinstance(other, (int, Fraction)):
            return self.context.scalar(other)
        return None

    def _scaled(self, p: int, q: int) -> "WeilElement":
        """This element times ``p / q``."""
        if not p:
            return self.context.zero()
        return WeilElement(self.context, *_lowest_terms(
            {m: c * p for m, c in self._num.items()}, self.den * q))

    @property
    def num(self) -> dict:
        """A fresh dict of the integer numerators, exponent tuple by exponent tuple."""
        unpack = self.context._unpack
        return {unpack(m): c for m, c in self._num.items()}

    @property
    def coeffs(self) -> dict:
        """A fresh dict of the coefficients as Fractions, exponent tuple by exponent tuple."""
        unpack, den = self.context._unpack, self.den
        return {unpack(m): Fraction(c, den) for m, c in self._num.items()}

    def is_zero(self) -> bool:
        return not self._num

    @property
    def constant_term(self) -> Fraction:
        return Fraction(self._num.get(0, 0), self.den)

    def min_degree(self):
        """Smallest total degree of a surviving monomial; ``None`` if zero."""
        if not self._num:
            return None
        return min(self._num) >> self.context._dshift

    def nilpotent_part(self) -> "WeilElement":
        return self - self.constant_term

    def _below(self, degree: int) -> "WeilElement":
        """This element with every term above ``degree`` dropped: a normal
        form still, since the relations are homogeneous."""
        limit = (degree + 1) << self.context._dshift
        return WeilElement(self.context, *_lowest_terms(
            {m: c for m, c in self._num.items() if m < limit}, self.den))

    def leading_witness(self):
        """(monomial string, coefficient) for the least surviving monomial."""
        key = min(self._num)
        ctx = self.context
        return ctx.format_monomial(ctx._unpack(key)), Fraction(self._num[key], self.den)

    # -- ring operations -------------------------------------------------------

    def _plus(self, other: "WeilElement", sign: int) -> "WeilElement":
        """``self + sign * other`` for a sign of 1 or -1, in one pass."""
        # normal forms are closed under addition (reduction is linear)
        da, db = self.den, other.den
        if da == db:
            out = dict(self._num)
            fb = sign
        else:
            g = math.gcd(da, db)
            fa, fb = db // g, sign * (da // g)
            out = {m: c * fa for m, c in self._num.items()}
            da *= fa
        for m, c in other._num.items():
            nc = out.get(m, 0) + c * fb
            if nc:
                out[m] = nc
            else:
                del out[m]
        return WeilElement(self.context, *_lowest_terms(out, da))

    def __add__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self._plus(other, 1)

    __radd__ = __add__

    def __neg__(self):
        return WeilElement(self.context, {m: -c for m, c in self._num.items()}, self.den)

    def __sub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self._plus(other, -1)

    def __rsub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return other._plus(self, -1)

    def __mul__(self, other):
        if isinstance(other, int):
            return self._scaled(int(other), 1)
        if isinstance(other, Fraction):
            return self._scaled(other.numerator, other.denominator)
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        ctx = self.context
        a, b = self._num, other._num
        if not a or not b:
            return ctx.zero()
        x, y = self, other
        if len(a) == 1 and (len(b) != 1 or 0 in a):
            x, y, a, b = other, self, b, a  # the one-term factor on the right
        if len(b) == 1:
            # a one-term factor c·m shifts the other one's monomials by m: one
            # addition per term, kept when it is alive; m = 0 only scales
            ((m, c),) = b.items()
            if not m:
                return x._scaled(c, y.den)
            # the table first: building a basis may lower the top
            rewrite = ctx._rewrites((max(a) + m) >> ctx._dshift) if ctx.relations else None
            limit = (ctx._top + 1) << ctx._dshift
            bias, guard = ctx._bias, ctx._guard
            # loops, not comprehensions: one would turn the names it reads
            # into cells, which the pair loops below read
            out = {}
            if rewrite is None:
                for key, v in a.items():
                    key += m
                    if key < limit and not (key + bias) & guard:
                        out[key] = v * c
                return ctx._normal_form(out, x.den * y.den)
            get = rewrite.get
            for key, v in a.items():
                key += m
                if key < limit and not (key + bias) & guard:
                    terms = get(key)
                    if terms is None:
                        out[key] = out.get(key, 0) + v * c
                    else:  # a pivot: its normal form in its place
                        v *= c
                        for k, w in terms:
                            out[k] = out.get(k, 0) + v * w
            return ctx._rewritten(out, x.den * y.den)
        # constant terms only scale: xy = a0·y + b0·x' + x'y', and x'y' visits pairs
        a0, b0 = a.get(0), b.get(0)
        out = {m: c * a0 for m, c in b.items()} if a0 else {}
        if b0:
            for m, c in a.items():
                if m:
                    out[m] = out.get(m, 0) + c * b0
        # the right factor's other terms in order of degree; ends[r] counts
        # those of degree at most r, so a left term of degree d meets exactly
        # the first ends[top - d] of them and no pair is visited to be
        # rejected by the known top degree (at most the total cap)
        dshift = ctx._dshift
        graded = [[] for _ in range(ctx.degree_cap + 1)]
        for m, c in b.items():
            graded[m >> dshift].append((m, c))
        right = []
        ends = [0]
        for terms in graded[1:]:
            right.extend(terms)
            ends.append(len(right))
        rewrite = ctx._rewrites((max(a) + max(b)) >> dshift) if ctx.relations else None
        top = ctx._top
        bias, guard = ctx._bias, ctx._guard
        if rewrite is None:
            for m1, c1 in a.items():
                room = top - (m1 >> dshift)
                if room < 0 or not m1:
                    continue
                for m2, c2 in right[: ends[room]]:
                    key = m1 + m2
                    if guard and (key + bias) & guard:
                        continue
                    out[key] = out.get(key, 0) + c1 * c2
            # the loop already applied every cap; only relations remain
            return ctx._normal_form({m: c for m, c in out.items() if c}, x.den * y.den)
        # the same loop, adding each pivot's normal form in its place: the
        # product comes out reduced, with nothing left to scan
        get = rewrite.get
        for m1, c1 in a.items():
            room = top - (m1 >> dshift)
            if room < 0 or not m1:
                continue
            for m2, c2 in right[: ends[room]]:
                key = m1 + m2
                if guard and (key + bias) & guard:
                    continue
                terms = get(key)
                if terms is None:
                    out[key] = out.get(key, 0) + c1 * c2
                else:
                    c = c1 * c2
                    for k, w in terms:
                        out[k] = out.get(k, 0) + c * w
        return ctx._rewritten(out, x.den * y.den)

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, (int, Fraction)):
            q = _as_fraction(other)
            if not q:
                raise ZeroDivisionError("division by zero scalar")
            return self * (1 / q)
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self * invert(other)

    def __pow__(self, e: int):
        if not isinstance(e, int) or e < 0:
            raise WeilError("exponent must be a nonnegative integer")
        if not e:
            return self.context.one()
        # left to right over the bits below the leading one: a square for
        # each, and a product by the base for each set one
        result = self
        for bit in bin(e)[3:]:
            result = result * result
            if bit == "1":
                result = result * self
        return result

    # -- comparison / display ---------------------------------------------------

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = self.context.scalar(other)
        if not isinstance(other, WeilElement):
            return NotImplemented
        return (
            self.den == other.den and self._num == other._num and self.context == other.context
        )

    def __hash__(self):
        # a constant element equals its scalar, so it hashes as one
        if self._num.keys() <= {0}:
            return hash(self.constant_term)
        return hash((self.context, frozenset(self._num.items()), self.den))

    def __str__(self):
        if not self._num:
            return "0"
        parts = []
        coeffs = self.coeffs
        for mono in sorted(coeffs, key=lambda m: (sum(m), tuple(-e for e in m))):
            c = coeffs[mono]
            mstr = self.context.format_monomial(mono)
            if mstr == "1":
                text = _decimal(c)
            elif c == 1:
                text = mstr
            elif c == -1:
                text = f"-{mstr}"
            else:
                text = f"{_decimal(c)}·{mstr}"
            parts.append(text)
        out = parts[0]
        for p in parts[1:]:
            out += f" - {p[1:]}" if p.startswith("-") else f" + {p}"
        return out

    def __repr__(self):
        return f"WeilElement({self})"


def invert(x: WeilElement) -> WeilElement:
    """Multiplicative inverse; requires a nonzero constant term.

    Uses the finite geometric series 1/(c+n) = sum_i (-1)^i n^i / c^(i+1),
    which terminates because the nilpotent part n dies past the top degree:
    one product per power of n, the rational factors as weights of one
    :func:`_lincomb`.
    """
    c = x.constant_term
    if not c:
        raise NonInvertibleError("constant term is zero; element is not a unit")
    ctx = x.context
    n = x.nilpotent_part()
    powers = [ctx.one(), n]
    for _ in range(ctx._top - 1):
        p = powers[-1] * n
        if p.is_zero():
            break
        powers.append(p)
    weights = [1 / c]
    for _ in powers[1:]:
        weights.append(-weights[-1] * weights[0])
    return _lincomb(ctx, zip(weights, powers))


def _rational_sqrt(q: Fraction) -> Fraction:
    if q <= 0:
        raise NotASquareError(f"constant term {q} is not a positive rational square")
    num, den = q.numerator, q.denominator
    rn, rd = math.isqrt(num), math.isqrt(den)
    if rn * rn != num or rd * rd != den:
        raise NotASquareError(f"constant term {q} is not a positive rational square")
    return Fraction(rn, rd)


def sqrt(x: WeilElement) -> WeilElement:
    """Square root via the binomial series; the constant term must be a
    positive rational square (the result stays inside exact rationals)."""
    c = x.constant_term
    root = _rational_sqrt(c)
    u = x.nilpotent_part() * (1 / c)  # x = c * (1 + u)
    term = x.context.one()
    terms = [(root, term)]
    coef = Fraction(1)
    for i in range(1, x.context._top + 1):
        coef *= (Fraction(1, 2) - (i - 1)) / i
        term = term * u
        if term.is_zero():
            break
        terms.append((coef * root, term))
    return _lincomb(x.context, terms)


def _rational_matrix_inverse(mat):
    """Gauss-Jordan inverse of a square Fraction matrix."""
    n = len(mat)
    aug = [list(row) + [Fraction(int(i == j)) for j in range(n)] for i, row in enumerate(mat)]
    for col in range(n):
        pivot = next((r for r in range(col, n) if aug[r][col]), None)
        if pivot is None:
            raise SingularMatrixError("constant part of the matrix is singular over Q")
        aug[col], aug[pivot] = aug[pivot], aug[col]
        inv = 1 / aug[col][col]
        aug[col] = [v * inv for v in aug[col]]
        for r in range(n):
            if r == col or not aug[r][col]:
                continue
            f = aug[r][col]
            aug[r] = [a - f * b for a, b in zip(aug[r], aug[col])]
    return [row[n:] for row in aug]


def mat_mul(A, B):
    """Product of matrices whose entries are elements and/or rationals."""
    rows, inner, cols = len(A), len(B), len(B[0])
    out = []
    for i in range(rows):
        row = []
        for j in range(cols):
            terms = [A[i][t] * B[t][j] for t in range(inner)]
            ctx = next((x.context for x in terms if isinstance(x, WeilElement)), None)
            if ctx is None:  # rationals only
                row.append(sum(terms[1:], terms[0]))
            else:
                row.append(_lincomb(ctx, (
                    (1, x) if isinstance(x, WeilElement) else (x, ctx.one()) for x in terms)))
        out.append(row)
    return out


def mat_inverse(M) -> list:
    """Inverse of a square matrix of elements over one context.

    Splits M = C + N with C the rational constant part and N nilpotent, then
    expands M^{-1} = (sum_i B^i) C^{-1} with B = -C^{-1} N; the series
    terminates at the context's top degree, and with N = 0 it is C^{-1}
    alone.  Only the powers B^2, B^3, ... take products; C^{-1} = K / L
    enters as integer weights K over one denominator L.  Raises
    :class:`SingularMatrixError` when C is singular over Q.
    """
    n = len(M)
    if any(len(row) != n for row in M):
        raise WeilError("matrix must be square")
    ctx = M[0][0].context
    for row in M:
        for e in row:
            if not isinstance(e, WeilElement) or e.context != ctx:
                raise ContextMismatchError("matrix entries must share one context")
    C = [[e.constant_term for e in row] for row in M]
    Cinv = _rational_matrix_inverse(C)
    if all(e._num.keys() <= {0} for row in M for e in row):
        return [[ctx.scalar(q) for q in row] for row in Cinv]
    L = math.lcm(*[q.denominator for row in Cinv for q in row])
    K = [[q.numerator * (L // q.denominator) for q in row] for row in Cinv]
    N = [[M[i][j] - C[i][j] for j in range(n)] for i in range(n)]
    B = [[_lincomb(ctx, ((-K[i][t], N[t][j]) for t in range(n)), L) for j in range(n)]
         for i in range(n)]
    # S = B + B^2 + ..., then M^{-1} = C^{-1} + S C^{-1}
    S = term = B
    for _ in range(ctx._top - 1):
        term = mat_mul(term, B)
        if all(e.is_zero() for row in term for e in row):
            break
        S = [[a + t for a, t in zip(ar, tr)] for ar, tr in zip(S, term)]
    one = ctx.one()
    return [
        [_lincomb(ctx, [(K[i][j], one)] + [(K[t][j], S[i][t]) for t in range(n)], L)
         for j in range(n)]
        for i in range(n)
    ]


class PointVec:
    """A tuple of elements sharing one context: a point of R^n in the model."""

    __slots__ = ("context", "coords")

    def __init__(self, context: WeilContext, coords: Sequence[WeilElement]):
        coords = tuple(coords)
        for c in coords:
            if not isinstance(c, WeilElement) or c.context is not context and c.context != context:
                raise ContextMismatchError("all coordinates must share the context")
        self.context = context
        self.coords = coords

    @property
    def dim(self) -> int:
        return len(self.coords)

    def __getitem__(self, i: int) -> WeilElement:
        return self.coords[i]

    def __iter__(self):
        return iter(self.coords)

    def __len__(self):
        return len(self.coords)

    def _check(self, other):
        if not isinstance(other, PointVec):
            raise TypeError("expected a PointVec")
        if other.context is not self.context and other.context != self.context:
            raise ContextMismatchError("points belong to different contexts")
        if other.dim != self.dim:
            raise WeilError(f"dimension mismatch: {self.dim} vs {other.dim}")
        return other

    def __add__(self, other):
        other = self._check(other)
        return PointVec(self.context, tuple(a + b for a, b in zip(self.coords, other.coords)))

    def __sub__(self, other):
        other = self._check(other)
        return PointVec(self.context, tuple(a - b for a, b in zip(self.coords, other.coords)))

    def __rmul__(self, q):
        if not isinstance(q, (int, Fraction)):
            return NotImplemented
        return PointVec(self.context, tuple(c * q for c in self.coords))

    __mul__ = __rmul__

    def __eq__(self, other):
        return (
            isinstance(other, PointVec)
            and self.context == other.context
            and self.coords == other.coords
        )

    def __hash__(self):
        return hash((self.context, self.coords))

    def __str__(self):
        return "(" + ", ".join(str(c) for c in self.coords) + ")"

    def __repr__(self):
        return f"PointVec{self}"

    def is_rational(self) -> bool:
        return all(c._num.keys() <= {0} for c in self.coords)

    def rational_coords(self) -> tuple:
        if not self.is_rational():
            raise WeilError("point has non-constant coordinates")
        return tuple(c.constant_term for c in self.coords)
