"""Higher-order neighborhood predicates and their generic witness models.

The predicates decide, inside a fixed context, whether vectors/tuples of
points satisfy the vanishing conditions defining the k-th order neighborhoods:

* ``in_D_k``      -- every product of k+1 coordinates of one vector vanishes;
* ``in_DN_k``     -- every (k+1)-fold product mixing coordinates across k+1
                     vectors vanishes (equivalently: all (k+1)-linear forms kill
                     the tuple);
* ``in_A_k``      -- every product of k+1 coordinates drawn from pairwise
                     differences of a point tuple vanishes;
* ``in_nilsquare`` -- all pairwise differences are first-order (nil-square).

Each predicate has a ``find_*_violation`` twin returning a :class:`Witness`
(which product survived, with its leading monomial and coefficient), and a
``generic_*`` constructor building the freest model of the condition, so that
an identity checked on the generic model holds in every model.

The searches run depth first and drop a prefix once the least degree its
extensions can have lies where everything vanishes, or above the search's
reach: the sum of the caps of the blocks whose generators occur in the
factors, which no product of them can exceed.  Neither bound changes the
order of the search, so the first surviving product is the one found.

A generic model's presentation (generator names, block, cleaned relations
and intern key) depends only on its shape, so the symmetric-only models build
it once per shape and keep it for the life of the process; the context itself
is interned as any other (:mod:`weilaff.weil`), so it lives only while
something holds it.  The points of every generic tuple come from one helper:
P1 is the base, and P_{j+1} adds the j-th slice of n generators.
"""

from __future__ import annotations

import functools
import itertools
from fractions import Fraction
from typing import Optional, Sequence

from .weil import (
    Block,
    PointVec,
    Record,
    WeilContext,
    WeilElement,
    WeilError,
    _as_fraction,
    _clean_relations,
    _contract,
    _decimal,
    _intern,
    _presentation_key,
    make_truncated_context,
)


class Witness(Record):
    """Evidence that a vanishing condition failed (or that two values differ)."""

    __slots__ = ("location", "monomial", "coefficient")  # str, str, Fraction

    @classmethod
    def of(cls, location: str, element: WeilElement) -> "Witness":
        """The witness of a nonzero element: its least surviving monomial."""
        return cls(location, *element.leading_witness())

    def as_dict(self) -> dict:
        return {
            "location": self.location,
            "monomial": self.monomial,
            "coefficient": _decimal(self.coefficient),
        }


class MultilinearForm(Record):
    """A rational multilinear form given by its coefficient on each index tuple.

    ``coeffs`` maps 0-based index tuples of length ``arity`` to rationals;
    the form evaluates as sum over tuples of coeff * v1[i1] * ... * vr[ir].
    """

    __slots__ = ("arity", "dim", "coeffs")

    def __init__(self, arity: int, dim: int, coeffs):
        if arity < 1:
            raise WeilError("form arity must be at least 1")
        cleaned = {}
        for idx, c in coeffs.items():
            idx = tuple(idx)
            if len(idx) != arity or any(not 0 <= i < dim for i in idx):
                raise WeilError(f"index tuple {idx} does not fit arity/dim")
            c = _as_fraction(c)
            if c:
                cleaned[idx] = cleaned.get(idx, 0) + c
        super().__init__(arity, dim, {i: c for i, c in cleaned.items() if c})

    def __repr__(self):
        return f"MultilinearForm(arity={self.arity}, dim={self.dim}, {len(self.coeffs)} terms)"

    def is_symmetric(self) -> bool:
        # symmetric iff the coefficient depends only on the index multiset
        # and every arrangement of a represented multiset is present
        groups = {}
        for idx, c in self.coeffs.items():
            groups.setdefault(tuple(sorted(idx)), {})[idx] = c
        for key, entries in groups.items():
            if set(entries) != set(itertools.permutations(key)):
                return False
            if len(set(entries.values())) > 1:
                return False
        return True


def coordinate_form(dim: int, indices: Sequence[int]) -> MultilinearForm:
    """The product-of-coordinates form v1[i1]*...*vr[ir]."""
    idx = tuple(indices)
    return MultilinearForm(len(idx), dim, {idx: Fraction(1)})


def coordinate_product_basis(dim: int, arity: int):
    """All coordinate-product forms of the given arity: a basis of multilinear forms."""
    for idx in itertools.product(range(dim), repeat=arity):
        yield coordinate_form(dim, idx)


def symmetric_coordinate_form(dim: int, multiset: Sequence[int]) -> MultilinearForm:
    """Symmetrization of a coordinate product over the distinct arrangements
    of ``multiset``; these span the symmetric multilinear forms."""
    key = tuple(sorted(multiset))
    coeffs = {arr: Fraction(1) for arr in set(itertools.permutations(key))}
    return MultilinearForm(len(key), dim, coeffs)


def determinant_form(m: int) -> MultilinearForm:
    """The alternating m-linear form det(v1 | ... | vm) on R^m."""
    coeffs = {}
    for perm in itertools.permutations(range(m)):
        sign = 1
        for i in range(m):
            for j in range(i + 1, m):
                if perm[i] > perm[j]:
                    sign = -sign
        coeffs[perm] = Fraction(sign)
    return MultilinearForm(m, m, coeffs)


def eval_form(form: MultilinearForm, vectors: Sequence[PointVec]) -> WeilElement:
    """Evaluate a multilinear form on a tuple of points (one per slot)."""
    if len(vectors) != form.arity:
        raise WeilError(f"form of arity {form.arity} applied to {len(vectors)} vectors")
    for v in vectors:
        if v.dim != form.dim:
            raise WeilError(f"form on dim {form.dim} applied to a dim-{v.dim} vector")
    return _contract(vectors[0].context, [form.coeffs], [v.coords for v in vectors])[0]


# -- product searches --------------------------------------------------------


def _search_multiset_products(factors, size: int, ctx: WeilContext) -> Optional[Witness]:
    """First nonzero product of ``size`` factors (repetition allowed), or None.

    ``factors`` is a list of (label, element).  Factors are sorted by minimal
    degree so that a partial product whose degree bound already reaches a
    degree where everything vanishes, or exceeds the factors' reach, prunes
    every extension at once.
    """
    items = []
    for label, el in factors:
        md = el.min_degree()
        if md is not None:
            items.append((md, label, el))
    items.sort(key=lambda t: t[0])
    reach = ctx._reach([el for _, _, el in items])

    def rec(start: int, labels, prefix):
        need = size - len(labels)
        if need == 0:
            return Witness.of("·".join(labels), prefix)
        pd = 0 if prefix is None else prefix.min_degree()
        for i in range(start, len(items)):
            md, label, el = items[i]
            bound = pd + md * need
            if bound > reach or ctx.vanishes_from(bound):
                break  # items are sorted: every later factor is at least as deep
            prod = el if prefix is None else prefix * el
            if prod.is_zero():
                continue
            w = rec(i, labels + [label], prod)
            if w is not None:
                return w
        return None

    return rec(0, [], None)


def find_D_k_violation(v: PointVec, k: int) -> Optional[Witness]:
    if k < 1:
        raise WeilError("order k must be at least 1")
    factors = [(f"v[{a + 1}]", v[a]) for a in range(v.dim)]
    return _search_multiset_products(factors, k + 1, v.context)


def in_D_k(v: PointVec, k: int) -> bool:
    """True iff every product of k+1 coordinates of ``v`` vanishes."""
    return find_D_k_violation(v, k) is None


def find_DN_k_violation(vectors: Sequence[PointVec]) -> Optional[Witness]:
    """Search the full cross-vector product grid; arity fixes k = len-1.

    Raises :class:`WeilError` when a member vector is not itself in D_k: the
    predicate is only defined on tuples of k-th order infinitesimals.
    """
    vectors = list(vectors)
    if len(vectors) < 2:
        raise WeilError("need at least two vectors (arity k+1 with k >= 1)")
    k = len(vectors) - 1
    dim = vectors[0].dim
    ctx = vectors[0].context
    for j, v in enumerate(vectors):
        if v.dim != dim:
            raise WeilError("all vectors must share one dimension")
        if not in_D_k(v, k):
            raise WeilError(f"vector {j + 1} is not in D_{k}; DN_{k} is undefined on it")
    slot_min = []
    for v in vectors:
        mds = [v[a].min_degree() for a in range(dim)]
        mds = [m for m in mds if m is not None]
        slot_min.append(min(mds) if mds else None)
    # a slot with no nonzero coordinate kills every product
    if any(m is None for m in slot_min):
        return None
    suffix = [0] * (len(vectors) + 1)
    for s in range(len(vectors) - 1, -1, -1):
        suffix[s] = suffix[s + 1] + slot_min[s]
    reach = ctx._reach([x for v in vectors for x in v])

    def rec(slot: int, labels, prefix):
        if slot == len(vectors):
            return Witness.of("·".join(labels), prefix)
        bound = suffix[slot] + (0 if prefix is None else prefix.min_degree())
        if bound > reach or ctx.vanishes_from(bound):
            return None
        v = vectors[slot]
        for a in range(dim):
            el = v[a]
            if el.is_zero():
                continue
            prod = el if prefix is None else prefix * el
            if prod.is_zero():
                continue
            w = rec(slot + 1, labels + [f"v{slot + 1}[{a + 1}]"], prod)
            if w is not None:
                return w
        return None

    return rec(0, [], None)


def in_DN_k(vectors: Sequence[PointVec]) -> bool:
    """True iff every (k+1)-linear form vanishes on the tuple (k = len-1)."""
    return find_DN_k_violation(vectors) is None


def _difference_factors(points: Sequence[PointVec]):
    factors = []
    for i in range(len(points)):
        for j in range(i + 1, len(points)):
            diff = points[j] - points[i]
            for a in range(diff.dim):
                factors.append((f"(P{j + 1}-P{i + 1})[{a + 1}]", diff[a]))
    return factors


def find_A_k_violation(points: Sequence[PointVec], k: int) -> Optional[Witness]:
    if k < 1:
        raise WeilError("order k must be at least 1")
    points = list(points)
    if len(points) <= 1:
        return None
    ctx = points[0].context
    return _search_multiset_products(_difference_factors(points), k + 1, ctx)


def in_A_k(points: Sequence[PointVec], k: int) -> bool:
    """True iff every product of k+1 coordinates of pairwise differences vanishes."""
    return find_A_k_violation(points, k) is None


def find_nilsquare_violation(points: Sequence[PointVec]) -> Optional[Witness]:
    points = list(points)
    for i in range(len(points)):
        for j in range(i + 1, len(points)):
            diff = points[j] - points[i]
            factors = [(f"(P{j + 1}-P{i + 1})[{a + 1}]", diff[a]) for a in range(diff.dim)]
            w = _search_multiset_products(factors, 2, points[0].context)
            if w is not None:
                return w
    return None


def in_nilsquare(points: Sequence[PointVec]) -> bool:
    """True iff every pairwise difference of the tuple is first-order (in D_1)."""
    return find_nilsquare_violation(points) is None


# -- generic models -----------------------------------------------------------


def generic_Dk_vector(n: int, k: int):
    """Freest vector satisfying D_k(n): one cap-k block of n generators."""
    if n < 1 or k < 1:
        raise WeilError("need n >= 1 and k >= 1")
    ctx = make_truncated_context([("d", n, k)])
    return ctx, PointVec(ctx, tuple(ctx.gens()))


def _lift_base(base, n: int) -> list:
    """A rational base point of dimension ``n`` (the origin when None)."""
    if base is None:
        base = [0] * n
    base = [_as_fraction(b) for b in base]
    if len(base) != n:
        raise WeilError("base point dimension mismatch")
    return base


def _generic_points(ctx: WeilContext, base: list, m: int) -> list:
    """P1 = base, and P_{j+1} = base + the j-th slice of n generators."""
    n, gens = len(base), ctx.gens()
    pts = [ctx.point(base)]
    origin = pts[0].coords
    for j in range(m - 1):
        pts.append(PointVec(ctx, tuple([origin[a] + gens[j * n + a] for a in range(n)])))
    return pts


def generic_Ak_tuple(n: int, k: int, m: int, base=None):
    """Freest m-tuple that is a k-th order i-tuple in R^n.

    One shared cap-k block of n*(m-1) generators: point 1 is the (rational)
    base, point j+1 adds the j-th slice of generators.  Every product of k+1
    difference coordinates then has total degree k+1 and dies by truncation,
    and nothing else is identified.
    """
    if m < 1:
        raise WeilError("tuple size must be at least 1")
    ctx = make_truncated_context([("u", n * (m - 1), k)] if m > 1 else [])
    return ctx, _generic_points(ctx, _lift_base(base, n), m)


def generic_nilsquare_tuple(n: int, m: int, base=None, degree_cap=None):
    """Freest m-tuple with all pairwise differences nil-square.

    This is the symmetric-only model at k = 1: generators u[j,a] (j = 2..m,
    a = 1..n) with the symmetric degree-2 relations u[i,a]u[i,b] = 0 and
    u[i,a]u[j,b] + u[j,a]u[i,b] = 0; these are exactly the conditions forcing
    every pairwise difference into D_1 while leaving all antisymmetric
    products alive.  The degree cap defaults to m, deep enough to expose the
    order-(m-1) products the nil-square Remark is about.
    """
    return generic_symmetric_Ak_tuple(n, 1, m, base, m if degree_cap is None else degree_cap)


@functools.cache
def _symmetric_presentation(n: int, k: int, m: int, degree_cap: int) -> tuple:
    """The names, block, cleaned relations and intern key of the
    symmetric-only model: built once per shape, so a model built again only
    looks its context up."""
    ngens = n * (m - 1)
    names = tuple(f"u{j + 2}_{a + 1}" for j in range(m - 1) for a in range(n))
    relations = []
    for W in itertools.combinations_with_replacement(range(m - 1), k + 1):
        for M in itertools.combinations_with_replacement(range(n), k + 1):
            rel = {}
            for arrangement in set(itertools.permutations(M)):
                exps = [0] * ngens
                for w, b in zip(W, arrangement):
                    exps[w * n + b] += 1
                key = tuple(exps)
                rel[key] = rel.get(key, 0) + 1
            relations.append(rel)
    blocks = (Block("", 0, ngens, degree_cap),)
    relations = _clean_relations(relations, ngens)
    return names, blocks, relations, _presentation_key(names, blocks, relations)


def generic_symmetric_Ak_tuple(n: int, k: int, m: int, base=None, degree_cap=None):
    """Freest m-tuple killed by every *symmetric* (k+1)-linear form.

    For each multiset W of k+1 point labels (from 2..m) and each multiset M of
    k+1 coordinate indices, impose sum over distinct arrangements b of M of
    prod_l u[W_l, b_l] = 0.  These are exactly the evaluations of the
    symmetric coordinate forms on difference tuples drawn from the base
    point, so symmetric forms vanish while general coordinate forms need not.
    The degree cap defaults to 2(k+1), deep enough for products of two
    (k+1)-fold blocks to remain visible.
    """
    if m < 2:
        raise WeilError("need at least two points")
    if k < 1:
        raise WeilError("order k must be at least 1")
    if degree_cap is None:
        degree_cap = 2 * (k + 1)
    if degree_cap < 0:
        raise WeilError("degree cap must be nonnegative")
    ctx = _intern(*_symmetric_presentation(n, k, m, degree_cap))
    return ctx, _generic_points(ctx, _lift_base(base, n), m)
