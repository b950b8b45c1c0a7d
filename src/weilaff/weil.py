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
cached reduced row echelon basis.

:func:`make_truncated_context` builds the general case from blocks (plus
optional relations); :func:`make_quotient_context` is one block covering
every generator with the given total-degree cap.

Elements are immutable sparse polynomials over ``fractions.Fraction`` kept in
canonical normal form, so ``==`` on elements is equality in the algebra.
All arithmetic is exact; nothing here ever touches floats.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction
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


def monomials_of_degree(nvars: int, degree: int) -> Iterable[Monomial]:
    """Yield every exponent tuple over ``nvars`` variables of total degree ``degree``."""
    if nvars == 0:
        if degree == 0:
            yield ()
        return
    if nvars == 1:
        yield (degree,)
        return
    for head in range(degree, -1, -1):
        for tail in monomials_of_degree(nvars - 1, degree - head):
            yield (head,) + tail


class Block:
    """A run of generators sharing one degree cap."""

    __slots__ = ("name", "start", "count", "cap")

    def __init__(self, name: str, start: int, count: int, cap: int):
        self.name = name
        self.start = start
        self.count = count
        self.cap = cap


class WeilContext:
    """Shared generator/vanishing data for a family of elements.

    Do not call directly; use :func:`make_truncated_context` or
    :func:`make_quotient_context`.
    """

    __slots__ = ("names", "blocks", "relations", "degree_cap", "_binding", "_sig", "_bases")

    def __init__(self, names: tuple, blocks: tuple, relations: tuple):
        self.names = names
        self.blocks = blocks
        self.relations = relations
        self.degree_cap = sum(b.cap for b in blocks)
        # a block cap at the total cap kills nothing the total cap keeps, so
        # only the lower ones are ever tested
        self._binding = tuple(
            (b.start, b.start + b.count, b.cap) for b in blocks if b.cap < self.degree_cap
        )
        # block names only label generators, which ``names`` already records
        self._sig = (
            names,
            tuple((b.start, b.count, b.cap) for b in blocks),
            tuple(tuple(r.items()) for r in relations),
        )
        # per-degree RREF bases for relation reduction; populated lazily and
        # idempotently (recomputation yields the identical basis, so a race
        # merely duplicates work)
        self._bases = {}

    # -- identity ---------------------------------------------------------

    def __eq__(self, other):
        return isinstance(other, WeilContext) and self._sig == other._sig

    def __hash__(self):
        return hash(self._sig)

    def __repr__(self):
        return (
            f"<WeilContext gens={self.ngens} cap={self.max_degree} "
            f"relations={len(self.relations)}>"
        )

    @property
    def ngens(self) -> int:
        return len(self.names)

    @property
    def max_degree(self) -> int:
        """Total degree beyond which every monomial vanishes."""
        return self.degree_cap

    # -- element constructors ----------------------------------------------

    def zero(self) -> "WeilElement":
        return WeilElement(self, {}, _normalized=True)

    def one(self) -> "WeilElement":
        return self.scalar(1)

    def scalar(self, q: Scalar) -> "WeilElement":
        q = _as_fraction(q)
        zero_mono = (0,) * self.ngens
        return WeilElement(self, {zero_mono: q} if q else {}, _normalized=True)

    def gen(self, i: int) -> "WeilElement":
        if not 0 <= i < self.ngens:
            raise IndexError(f"generator index {i} out of range")
        mono = tuple(1 if j == i else 0 for j in range(self.ngens))
        return WeilElement(self, {mono: Fraction(1)}, _normalized=True)

    def gens(self) -> list:
        return [self.gen(i) for i in range(self.ngens)]

    def element(self, raw: Mapping[Monomial, Scalar]) -> "WeilElement":
        coeffs = {tuple(m): _as_fraction(c) for m, c in raw.items()}
        return WeilElement(self, coeffs)

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

    def normalize(self, raw: Mapping[Monomial, Fraction]) -> dict:
        kept = {m: c for m, c in raw.items() if c and not self.monomial_is_zero(m)}
        if not self.relations:
            return kept
        by_degree = {}
        for m, c in kept.items():
            by_degree.setdefault(sum(m), {})[m] = c
        out = {}
        for d, vec in by_degree.items():
            out.update(self._reduce_at_degree(d, vec) if d else vec)
        return out

    def _reduce_at_degree(self, degree: int, vec: dict) -> dict:
        vec = dict(vec)
        for pivot, row in self._degree_basis(degree):
            c = vec.get(pivot)
            if not c:
                continue
            for m, rc in row.items():
                nc = vec.get(m, 0) - c * rc
                if nc:
                    vec[m] = nc
                else:
                    vec.pop(m, None)
        return vec

    def _degree_basis(self, degree: int):
        """RREF basis of span{relation * monomial} in the given graded slot,
        restricted to the monomials the block caps leave alive.

        The caps generate a monomial ideal M, and the leading monomials of
        ``J_d + M_d`` are ``M_d`` together with those of J_d projected off
        M_d, so this basis reduces exactly as one that listed the caps as
        monomial relations would."""
        basis = self._bases.get(degree)
        if basis is not None:
            return basis
        capped = self.monomial_is_zero if self._binding else None
        rows = []
        for rel in self.relations:
            rel_deg = sum(next(iter(rel)))  # relations are homogeneous
            if rel_deg > degree:
                continue
            for shift in monomials_of_degree(self.ngens, degree - rel_deg):
                if capped and capped(shift):  # so is every multiple of it
                    continue
                row = {}
                for m, c in rel.items():
                    key = tuple(a + b for a, b in zip(m, shift))
                    if capped and capped(key):
                        continue
                    row[key] = row.get(key, 0) + c
                rows.append({m: c for m, c in row.items() if c})
        basis = []  # list of (pivot, row) with row[pivot] == 1, mutually reduced
        for row in rows:
            row = dict(row)
            for pivot, brow in basis:
                c = row.get(pivot)
                if not c:
                    continue
                for m, rc in brow.items():
                    nc = row.get(m, 0) - c * rc
                    if nc:
                        row[m] = nc
                    else:
                        row.pop(m, None)
            if not row:
                continue
            pivot = max(row)
            inv = 1 / Fraction(row[pivot])
            row = {m: c * inv for m, c in row.items()}
            for i, (p, brow) in enumerate(basis):
                c = brow.get(pivot)
                if not c:
                    continue
                nrow = dict(brow)
                for m, rc in row.items():
                    nc = nrow.get(m, 0) - c * rc
                    if nc:
                        nrow[m] = nc
                    else:
                        nrow.pop(m, None)
                basis[i] = (p, nrow)
            basis.append((pivot, row))
        basis.sort(key=lambda pr: pr[0], reverse=True)
        self._bases[degree] = basis
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


def _clean_relations(relations, ngens: int) -> tuple:
    """Canonical homogeneous relations: merged, zero-free, sorted by monomial."""
    cleaned = []
    for rel in relations:
        terms = {}
        for m, c in rel.items():
            m = tuple(m)
            if len(m) != ngens:
                raise WeilError("relation monomial arity does not match generators")
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
    return WeilContext(tuple(names), tuple(built), _clean_relations(relations, start))


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
    return WeilContext(names, (block,), _clean_relations(relations, len(names)))


class WeilElement:
    """An immutable element of a :class:`WeilContext`, kept in normal form."""

    __slots__ = ("context", "coeffs")

    def __init__(self, context: WeilContext, coeffs: dict, _normalized: bool = False):
        self.context = context
        self.coeffs = coeffs if _normalized else context.normalize(coeffs)

    # -- helpers -------------------------------------------------------------

    def _coerce(self, other):
        if isinstance(other, WeilElement):
            if other.context != self.context:
                raise ContextMismatchError("elements belong to different contexts")
            return other
        if isinstance(other, (int, Fraction)):
            return self.context.scalar(other)
        return None

    def is_zero(self) -> bool:
        return not self.coeffs

    @property
    def constant_term(self) -> Fraction:
        return self.coeffs.get((0,) * self.context.ngens, Fraction(0))

    def min_degree(self):
        """Smallest total degree of a surviving monomial; ``None`` if zero."""
        if not self.coeffs:
            return None
        return min(sum(m) for m in self.coeffs)

    def nilpotent_part(self) -> "WeilElement":
        return self - self.constant_term

    def leading_witness(self):
        """(monomial string, coefficient) for the least surviving monomial."""
        mono = min(self.coeffs, key=lambda m: (sum(m), m))
        return self.context.format_monomial(mono), self.coeffs[mono]

    # -- ring operations -------------------------------------------------------

    def __add__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        # normal forms are closed under addition (reduction is linear)
        out = dict(self.coeffs)
        for m, c in other.coeffs.items():
            nc = out.get(m, 0) + c
            if nc:
                out[m] = nc
            else:
                del out[m]
        return WeilElement(self.context, out, _normalized=True)

    __radd__ = __add__

    def __neg__(self):
        return WeilElement(
            self.context, {m: -c for m, c in self.coeffs.items()}, _normalized=True
        )

    def __sub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return other + (-self)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            q = _as_fraction(other)
            if not q:
                return self.context.zero()
            return WeilElement(
                self.context, {m: c * q for m, c in self.coeffs.items()}, _normalized=True
            )
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        ctx = self.context
        cap = ctx.degree_cap
        binding = ctx._binding
        out = {}
        for m1, c1 in self.coeffs.items():
            d1 = sum(m1)
            for m2, c2 in other.coeffs.items():
                if d1 + sum(m2) > cap:
                    continue
                key = tuple(a + b for a, b in zip(m1, m2))
                if binding and ctx.monomial_is_zero(key):
                    continue
                nc = out.get(key, 0) + c1 * c2
                if nc:
                    out[key] = nc
                else:
                    del out[key]
        # the loop already applied every cap; only relations remain
        return WeilElement(ctx, out, _normalized=not ctx.relations)

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
        result = self.context.one()
        base = self
        while e:
            if e & 1:
                result = result * base
            base = base * base
            e >>= 1
        return result

    # -- comparison / display ---------------------------------------------------

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = self.context.scalar(other)
        if not isinstance(other, WeilElement):
            return NotImplemented
        return self.context == other.context and self.coeffs == other.coeffs

    def __hash__(self):
        return hash((self.context, frozenset(self.coeffs.items())))

    def __str__(self):
        if not self.coeffs:
            return "0"
        parts = []
        for mono in sorted(self.coeffs, key=lambda m: (sum(m), tuple(-e for e in m))):
            c = self.coeffs[mono]
            mstr = self.context.format_monomial(mono)
            if mstr == "1":
                text = str(c)
            elif c == 1:
                text = mstr
            elif c == -1:
                text = f"-{mstr}"
            else:
                text = f"{c}·{mstr}"
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
    which terminates because the nilpotent part n dies past the degree cap.
    """
    c = x.constant_term
    if not c:
        raise NonInvertibleError("constant term is zero; element is not a unit")
    n = x.nilpotent_part()
    inv_c = 1 / c
    acc = x.context.scalar(inv_c)
    term = acc
    for _ in range(x.context.max_degree):
        term = term * n * (-inv_c)
        if term.is_zero():
            break
        acc = acc + term
    return acc


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
    acc = x.context.one()
    term = x.context.one()
    coef = Fraction(1)
    for i in range(1, x.context.max_degree + 1):
        coef *= (Fraction(1, 2) - (i - 1)) / i
        term = term * u
        if term.is_zero():
            break
        acc = acc + term * coef
    return acc * root


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
            acc = None
            for t in range(inner):
                term = A[i][t] * B[t][j]
                acc = term if acc is None else acc + term
            row.append(acc)
        out.append(row)
    return out


def mat_inverse(M) -> list:
    """Inverse of a square matrix of elements over one context.

    Splits M = C + N with C the rational constant part and N nilpotent, then
    expands M^{-1} = (sum_i (-C^{-1} N)^i) C^{-1}; the series terminates at
    the context's degree cap.  Raises :class:`SingularMatrixError` when C is
    singular over Q.
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
    N = [[M[i][j] - C[i][j] for j in range(n)] for i in range(n)]
    B = [
        [
            sum((N[t][j] * -Cinv[i][t] for t in range(n)), ctx.zero())
            for j in range(n)
        ]
        for i in range(n)
    ]
    ident = [[ctx.scalar(int(i == j)) for j in range(n)] for i in range(n)]
    acc = [row[:] for row in ident]
    term = ident
    for _ in range(ctx.max_degree):
        term = mat_mul(term, B)
        if all(e.is_zero() for row in term for e in row):
            break
        acc = [[a + t for a, t in zip(ar, tr)] for ar, tr in zip(acc, term)]
    scaled = [[ctx.scalar(q) for q in row] for row in Cinv]
    return mat_mul(acc, scaled)


class PointVec:
    """A tuple of elements sharing one context: a point of R^n in the model."""

    __slots__ = ("context", "coords")

    def __init__(self, context: WeilContext, coords: Sequence[WeilElement]):
        coords = tuple(coords)
        for c in coords:
            if not isinstance(c, WeilElement) or c.context != context:
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
        if other.context != self.context:
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
        return all(c.coeffs.keys() <= {(0,) * self.context.ngens} for c in self.coords)

    def rational_coords(self) -> tuple:
        if not self.is_rational():
            raise WeilError("point has non-constant coordinates")
        return tuple(c.constant_term for c in self.coords)
