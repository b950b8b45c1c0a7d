"""Infinitesimally-affine combinations and the checkers for their axioms.

Three ways of averaging a tuple of mutual k-th order neighbors with affine
weights (sum 1) are implemented, each as a plain function and as an action
handle with a uniform interface:

* canonical    -- the plain weighted sum, which already lands back in the
                  neighborhood (the flat action);
* connection   -- second order only: weighted sum plus the curvature
                  correction  1/2 * (G[s-P1]^2 - sum_j w_j G[Pj-P1]^2)
                  with G the connection's bilinear map at the first point;
                  with D_j = Pj - P1 it expands by bilinearity into
                  sum_j w_j Pj + sum_{j<l} w_j w_l G[D_j, D_l]
                               + 1/2 sum_j (w_j^2 - w_j) G[D_j, D_j];
* retract      -- combine upstairs through an embedding/retraction pair:
                  r(sum_j w_j iota(Pj)).

Each handle's ``combiner(points)`` returns ``weights -> point`` and does the
tuple's weight-independent work once: G at P1 and each pair G[D_j, D_l] are
built once per tuple, the embedded points once.

The ``check_*`` functions verify the action axioms (membership of inputs,
membership of outputs, associativity of iterated combination, projection on
basis weights), the chart-transformation law for connection pullback through
any chart, closed forms included, and the derivative identities of an
idempotent.  All equalities are exact normal-form equality.
"""

from __future__ import annotations

import functools
import math
from fractions import Fraction
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
    _lincomb,
    make_truncated_context,
    mat_inverse,
)
from .polymap import (
    AnyMap,
    DimensionMismatchError,
    Poly,
    PolyMap,
    eval_map,
    jet,
)
from .neighborhoods import (
    Witness,
    _lift_base,
    find_A_k_violation,
)
from .report import CheckReport


class MembershipError(WeilError):
    """A combine was attempted on a tuple outside the required neighborhood."""

    def __init__(self, message: str, witness: Optional[Witness] = None):
        super().__init__(message)
        self.witness = witness


class AffineWeights(Record):
    """A tuple of rational weights summing to exactly 1.

    ``values`` holds them as Fractions and, beside it, ``nums`` holds their
    integer numerators over their least common denominator ``den``, which
    the combines compute with.  ``values`` alone is compared, hashed, copied
    and pickled."""

    __slots__ = ("values", "nums", "den")
    _compared = 1

    def __init__(self, values: tuple):
        values = tuple(_as_fraction(v) for v in values)
        den = math.lcm(*[v.denominator for v in values])
        nums = tuple([v.numerator * (den // v.denominator) for v in values])
        super().__init__(values, nums, den)
        if sum(nums) != den:
            raise WeilError(f"affine weights must sum to 1, got {Fraction(sum(nums), den)}")

    def __reduce__(self):
        return AffineWeights, (self.values,)

    def __len__(self):
        return len(self.values)

    def __iter__(self):
        return iter(self.values)

    def __getitem__(self, i):
        return self.values[i]


def _as_weights(w) -> AffineWeights:
    return w if isinstance(w, AffineWeights) else AffineWeights(tuple(w))


def basis_weights(n: int, k: int) -> AffineWeights:
    """The k-th standard basis weight tuple (picks out the k-th point)."""
    if not 0 <= k < n:
        raise WeilError("basis index out of range")
    return AffineWeights(tuple(Fraction(int(i == k)) for i in range(n)))


def weighted_point_sum(weights: AffineWeights, points: Sequence[PointVec]) -> PointVec:
    weights = _as_weights(weights)
    if len(weights) != len(points):
        raise WeilError(
            f"{len(weights)} weights applied to {len(points)} points"
        )
    if not points:
        raise WeilError("cannot combine an empty tuple")
    first = points[0]
    for P in points[1:]:
        first._check(P)
    ctx = first.context
    return PointVec(ctx, tuple(
        _lincomb(ctx, zip(weights.nums, (P[a] for P in points)), weights.den)
        for a in range(first.dim)
    ))


def difference_witness(A: PointVec, B: PointVec, location: str) -> Optional[Witness]:
    """Witness for A != B: the first coordinate where they differ."""
    for i, (a, b) in enumerate(zip(A, B)):
        d = a - b
        if not d.is_zero():
            return Witness.of(f"{location}[{i + 1}]", d)
    return None


# -- canonical action ------------------------------------------------------------


def canonical_combine(
    weights, points: Sequence[PointVec], k: int, check: bool = True
) -> PointVec:
    """Weighted sum of a k-th order i-tuple (membership checked by default)."""
    weights = _as_weights(weights)
    if check:
        w = find_A_k_violation(points, k)
        if w is not None:
            raise MembershipError(f"tuple is not a {k}-th order i-tuple", w)
    return weighted_point_sum(weights, points)


# -- connections -------------------------------------------------------------------


class BilinearMap:
    """A symmetric bilinear map R^n x R^n -> R^n with element entries.

    ``entries`` maps (i, (a, b)) with a <= b to the coefficient of
    u[a] v[b] (+ u[b] v[a] for a < b) in component i.
    """

    __slots__ = ("dim", "entries", "_rows", "_square_rows")

    def __init__(self, dim: int, entries: dict):
        self.dim = dim
        self.entries = {}
        # one contraction row per component, over both orders of each pair;
        # for u = v, over a <= b with the entry doubled off the diagonal, so
        # each product u[a] u[b] is built once
        self._rows = [{} for _ in range(dim)]
        self._square_rows = [{} for _ in range(dim)]
        for (i, (a, b)), e in entries.items():
            a, b = min(a, b), max(a, b)
            self.entries[(i, (a, b))] = e
            self._rows[i][(a, b)] = self._rows[i][(b, a)] = e
            self._square_rows[i][(a, b)] = e if a == b else e + e

    def entry(self, i: int, a: int, b: int):
        return self.entries.get((i, (a, b) if a <= b else (b, a)))

    def apply(self, u: PointVec, v: PointVec) -> PointVec:
        if u.dim != self.dim or v.dim != self.dim:
            raise DimensionMismatchError("bilinear map applied to wrong dimension")
        ctx = u.context
        rows = self._square_rows if u is v or u == v else self._rows
        return PointVec(ctx, tuple(_contract(ctx, rows, (u.coords, v.coords))))


class Connection:
    """Christoffel data: for each component i a symmetric family of
    polynomial coefficients gamma[i][a,b] in the base coordinates."""

    __slots__ = ("dim", "entries", "_map")

    def __init__(self, dim: int, entries=None):
        self.dim = dim
        self.entries = {}
        for (i, a, b), poly in (entries or {}).items():
            if not 0 <= i < dim or not 0 <= a < dim or not 0 <= b < dim:
                raise WeilError("connection index out of range")
            if isinstance(poly, (int, Fraction)):
                poly = Poly.constant(dim, poly)
            if poly.nvars != dim:
                raise WeilError("connection coefficient over wrong variable count")
            key = (i, a, b) if a <= b else (i, b, a)
            existing = self.entries.get(key)
            self.entries[key] = poly if existing is None else existing + poly
        self.entries = {k: p for k, p in self.entries.items() if not p.is_zero()}
        self._map = PolyMap(dim, len(self.entries), self.entries.values())

    @classmethod
    def zero(cls, dim: int) -> "Connection":
        return cls(dim, {})

    def gamma(self, i: int, a: int, b: int) -> Poly:
        key = (i, a, b) if a <= b else (i, b, a)
        return self.entries.get(key, Poly.zero(self.dim))

    def at(self, P: PointVec) -> BilinearMap:
        """Evaluate the Christoffel polynomials at a point of any context."""
        if P.dim != self.dim:
            raise DimensionMismatchError("connection evaluated at wrong dimension")
        keys = [(i, (a, b)) for i, a, b in self.entries]
        return BilinearMap(self.dim, dict(zip(keys, eval_map(self._map, P))))

    def __eq__(self, other):
        return (
            isinstance(other, Connection)
            and self.dim == other.dim
            and self.entries == other.entries
        )

    def __repr__(self):
        return f"Connection(dim={self.dim}, {len(self.entries)} nonzero coefficients)"


def connection_apply(
    c: Connection, P: PointVec, Q: PointVec, S: PointVec, check: bool = True
) -> PointVec:
    """Parallelogram completion Q + S - P + G_P[Q-P, S-P] for first-order Q, S."""
    if check:
        for label, X in (("Q", Q), ("S", S)):
            w = find_A_k_violation([P, X], 1)
            if w is not None:
                raise MembershipError(f"{label} is not a first-order neighbor of P", w)
    G = c.at(P)
    return Q + S - P + G.apply(Q - P, S - P)


def _bilinear_combiner(at: Callable, points: Sequence[PointVec]) -> Callable:
    """weights -> the connection combine of ``points`` with G = at(P1), expanded
    as in the module docstring.  Each pair G[D_j, D_l] is built when a weight
    tuple first gives it a nonzero coefficient.  Every call checks what ``at``
    and :func:`weighted_point_sum` check; only work that succeeded is kept.

    G is evaluated at P1 cut to degree top - 2·md, md being the least degree
    of a nonzero coordinate of the D_j and top the degree above which the
    context vanishes.  Exact: G's coefficients are polynomials in P1, so
    those at P1 and at the cut point differ by terms above the cut (a jet
    depends only on its point modulo the degrees it keeps), and every
    product D_j[a]·D_l[b] has degree at least 2·md, so those terms times it
    lie above top.  A cut normal form is one still, since the relations are
    homogeneous.  With md = 0, or no nonzero D_j, nothing is cut."""
    points = list(points)
    differences = functools.cache(lambda: [P - points[0] for P in points])
    pairs = {}

    @functools.cache
    def gamma():
        P1 = points[0]
        md = min((x.min_degree() for D in differences() for x in D if not x.is_zero()),
                 default=0)
        if md:
            cut = P1.context._top - 2 * md
            P1 = PointVec(P1.context, tuple(x._below(cut) for x in P1))
        return at(P1)

    def combine(weights) -> PointVec:
        weights = _as_weights(weights)
        # the sum checks the points against P1, so their differences exist
        s = weighted_point_sum(weights, points)
        # over 2L², w_j = n_j / L: w_j·w_l is 2·n_j·n_l, (w_j² - w_j) / 2 is n_j² - n_j·L
        G, D, n, L = gamma(), differences(), weights.nums, weights.den
        terms = [(2 * L * L, s)]
        for j in range(1, len(n)):
            for l in range(j, len(n)):
                q = 2 * n[j] * n[l] if j < l else n[j] * (n[j] - L)
                if q:
                    if (j, l) not in pairs:
                        pairs[j, l] = G.apply(D[j], D[l])
                    terms.append((q, pairs[j, l]))
        ctx = s.context
        return PointVec(ctx, tuple(
            _lincomb(ctx, ((q, X[a]) for q, X in terms), 2 * L * L) for a in range(s.dim)
        ))

    return combine


def connection_combine(
    c: Connection, weights, points: Sequence[PointVec], check: bool = True
) -> PointVec:
    """Second-order combine induced by a connection:

    sum_j w_j Pj + 1/2 * (G[s-P1]^2 - sum_j w_j G[Pj-P1]^2),  G = c.at(P1).
    """
    weights = _as_weights(weights)
    points = list(points)
    if check:
        w = find_A_k_violation(points, 2)
        if w is not None:
            raise MembershipError("tuple is not a second-order i-tuple", w)
    return _bilinear_combiner(c.at, points)(weights)


def _two_jet(f: AnyMap, P: PointVec) -> tuple:
    """f(P), the Jacobian ``J[i][a]`` and the Hessian ``H[i][a][b]`` of f at
    P, as elements of P's context, read off one :func:`jet` of order 2."""
    ctx, n = P.context, P.dim
    zero = ctx.zero()
    units = [tuple(int(j == a) for j in range(n)) for a in range(n)]
    value, J, H = [], [], []
    for y in jet(f, P, 2):
        value.append(y.get((0,) * n, zero))
        J.append([y.get(u, zero) for u in units])
        # the coefficient of d_a·d_b is the mixed partial, that of d_a² half of it
        H.append([[y.get(tuple(map(sum, zip(ua, ub))), zero) * (2 if a == b else 1)
                   for b, ub in enumerate(units)] for a, ua in enumerate(units)])
    return PointVec(ctx, tuple(value)), J, H


def pullback_connection(c: Connection, iota: AnyMap, P: PointVec) -> BilinearMap:
    """The chart-side bilinear map at P induced by c through iota.

    Solves the transformation law
        G_{iota(P)}[d iota u, d iota v] = d iota (Gt_P[u, v]) + d^2 iota [u, v]
    for Gt, i.e.  Gt = J^{-1} (G[J u, J v] - H[u, v]) entrywise; needs the
    Jacobian J of iota at P to be invertible (a chart change, so square).
    iota may be any map, closed forms included, and P any point: iota(P),
    J and H are read off one jet of iota at P.
    """
    if iota.in_dim != iota.out_dim or iota.out_dim != c.dim:
        raise WeilError("pullback needs a square chart map matching the connection")
    n = c.dim
    ctx = P.context
    value, Jmat, H = _two_jet(iota, P)
    Jinv = mat_inverse(Jmat)
    G = c.at(value)
    jinv_rows = [{(j,): Jinv[i][j] for j in range(n)} for i in range(n)]
    cols = [PointVec(ctx, tuple(row[a] for row in Jmat)) for a in range(n)]
    out = {}
    for a in range(n):
        for b in range(a, n):
            target = G.apply(cols[a], cols[b])
            target = tuple(t - H[i][a][b] for i, t in enumerate(target))
            for i, x in enumerate(_contract(ctx, jinv_rows, (target,))):
                out[(i, (a, b))] = x
    return BilinearMap(n, out)


# -- retracts ------------------------------------------------------------------------


class RetractPair:
    """An embedding/retraction pair (iota, r) with r∘iota the identity on the
    chart, inducing the idempotent e = iota∘r on the ambient space.

    ``from_idempotent(e)`` encodes a bare idempotent as the pair
    (identity, e); the chart then coincides with the ambient space and the
    combine below reduces to e(sum_j w_j Pj).
    """

    __slots__ = ("iota", "retraction", "chart_dim", "ambient_dim")

    def __init__(self, iota: AnyMap, retraction: AnyMap):
        if iota.out_dim != retraction.in_dim or retraction.out_dim != iota.in_dim:
            raise WeilError(
                "iota and retraction dimensions do not line up "
                f"({iota.in_dim}->{iota.out_dim} vs {retraction.in_dim}->{retraction.out_dim})"
            )
        self.iota = iota
        self.retraction = retraction
        self.chart_dim = iota.in_dim
        self.ambient_dim = iota.out_dim

    @classmethod
    def from_idempotent(cls, e: AnyMap) -> "RetractPair":
        if e.in_dim != e.out_dim:
            raise WeilError("an idempotent must map a space to itself")
        return cls(PolyMap.identity(e.in_dim), e)

    def embed(self, P: PointVec) -> PointVec:
        return eval_map(self.iota, P)

    def retract(self, X: PointVec) -> PointVec:
        return eval_map(self.retraction, X)

    def idempotent_eval(self, X: PointVec) -> PointVec:
        """e(X) = iota(r(X)) on the ambient space."""
        return self.embed(self.retract(X))


def _retract_membership_violation(rp: RetractPair, points) -> Optional[Witness]:
    imgs = [rp.embed(P) for P in points]
    for j, img in enumerate(imgs):
        w = difference_witness(
            rp.idempotent_eval(img), img, f"e(iota(P{j + 1})) - iota(P{j + 1})"
        )
        if w is not None:
            return w
    return find_A_k_violation(imgs, 2)


def retract_combine(
    rp: RetractPair, weights, points: Sequence[PointVec], check: bool = True
) -> PointVec:
    """Combine through the ambient space: r(sum_j w_j iota(Pj)).

    Requires the embedded tuple to be a second-order i-tuple of e-fixed
    points; both conditions are verified exactly unless ``check=False``.
    """
    weights = _as_weights(weights)
    points = list(points)
    if check:
        w = _retract_membership_violation(rp, points)
        if w is not None:
            raise MembershipError("tuple does not lie second-order on the retract", w)
    return RetractAction(rp).combiner(points)(weights)


# -- action handles --------------------------------------------------------------------


class CanonicalAction:
    """Handle for the flat weighted-sum action on k-th order i-tuples."""

    kind = "canonical"

    def __init__(self, dim: int, order: int):
        if order < 1:
            raise WeilError("order must be at least 1")
        self.dim = dim
        self.order = order

    def membership_violation(self, points) -> Optional[Witness]:
        return find_A_k_violation(points, self.order)

    def combiner(self, points):
        return lambda weights: weighted_point_sum(weights, points)

    def combine(self, weights, points, check: bool = True) -> PointVec:
        return canonical_combine(weights, points, self.order, check=check)


class ConnectionAction:
    """Handle for the second-order action induced by a connection."""

    kind = "connection"
    order = 2

    def __init__(self, connection: Connection):
        self.connection = connection
        self.dim = connection.dim

    def membership_violation(self, points) -> Optional[Witness]:
        return find_A_k_violation(points, 2)

    def combiner(self, points):
        return _bilinear_combiner(self.connection.at, points)

    def combine(self, weights, points, check: bool = True) -> PointVec:
        return connection_combine(self.connection, weights, points, check=check)


class RetractAction:
    """Handle for the second-order action induced by an embedding/retraction."""

    kind = "retract"
    order = 2

    def __init__(self, pair: RetractPair):
        self.pair = pair
        self.dim = pair.chart_dim

    def membership_violation(self, points) -> Optional[Witness]:
        return _retract_membership_violation(self.pair, points)

    def combiner(self, points):
        rp, points = self.pair, list(points)
        images = functools.cache(lambda: [rp.embed(P) for P in points])
        return lambda weights: rp.retract(weighted_point_sum(_as_weights(weights), images()))

    def combine(self, weights, points, check: bool = True) -> PointVec:
        return retract_combine(self.pair, weights, points, check=check)


# A handle has ``kind``, ``order``, ``dim``, ``membership_violation(points)``,
# ``combiner(points)`` (weights -> point: the tuple's weight-independent work done
# once, nothing raised until called) and ``combine(weights, points, check)``.
ActionHandle = Union[CanonicalAction, ConnectionAction, RetractAction]


# -- axiom checkers ----------------------------------------------------------------------


def check_axioms(
    handle: ActionHandle,
    points: Sequence[PointVec],
    weight_families: Sequence,
    outer=None,
    name_prefix: str = "axioms",
) -> CheckReport:
    """Verify the i-affine action axioms on a concrete tuple.

    Entries: membership of the input tuple; membership of the combined tuple
    (one combine per weight family); associativity of the iterated combine
    against the flattened weights (when ``outer`` is given, one weight per
    family); projection of every basis weight tuple onto its point.
    """
    points = list(points)
    families = [_as_weights(w) for w in weight_families]
    for w in families:
        if len(w) != len(points):
            raise WeilError("every weight family must have one weight per point")
    if outer is not None:
        outer = _as_weights(outer)
        if len(outer) != len(families):
            raise WeilError("outer weights must have one weight per family")
    report = CheckReport()
    report.run(
        f"{name_prefix}/membership",
        "membership",
        lambda: handle.membership_violation(points),
    )

    combine = handle.combiner(points)
    combined: list = []

    def neighbourhood():
        combined.clear()
        combined.extend(combine(w) for w in families)
        return handle.membership_violation(combined)

    report.run(f"{name_prefix}/neighbourhood", "neighbourhood", neighbourhood)

    if outer is not None:

        def associativity():
            nested = handle.combiner(combined)(outer)
            # sum_f mu_f·w_f[j] over the denominator outer.den·lcm(w_f.den)
            den = math.lcm(*[w.den for w in families])
            flat = [sum(mu * w.nums[j] * (den // w.den) for mu, w in zip(outer.nums, families))
                    for j in range(len(points))]
            direct = combine(AffineWeights(tuple(Fraction(f, outer.den * den) for f in flat)))
            return difference_witness(nested, direct, "nested - flattened combine")

        report.run(f"{name_prefix}/associativity", "associativity", associativity)

    def projection():
        for j in range(len(points)):
            got = combine(basis_weights(len(points), j))
            w = difference_witness(got, points[j], f"combine(e_{j + 1}) - P{j + 1}")
            if w is not None:
                return w
        return None

    report.run(f"{name_prefix}/projection", "projection", projection)
    return report


def check_pullback_lemma(
    c: Connection,
    iota: AnyMap,
    points: Sequence[PointVec],
    weight_families: Sequence,
    name_prefix: str = "pullback",
) -> CheckReport:
    """Verify that combining with the pulled-back connection downstairs and
    mapping through iota equals mapping first and combining upstairs."""
    points = list(points)
    families = [_as_weights(w) for w in weight_families]
    report = CheckReport()
    report.run(
        f"{name_prefix}/membership",
        "membership",
        lambda: find_A_k_violation(points, 2),
    )
    down, up = _pullback_combiners(c, iota, points)
    for idx, w in enumerate(families):
        report.run(
            f"{name_prefix}/transport[{idx + 1}]",
            "transport",
            lambda w=w: difference_witness(
                eval_map(iota, down(w)), up(w), "iota(combine~) - combine(iota)"
            ),
        )
    return report


def _pullback_combiners(c: Connection, iota: AnyMap, points: Sequence[PointVec]) -> tuple:
    """The two sides of the pullback lemma: the combiner of ``points`` with the
    pulled-back map at P1, and that of their images with G at iota(P1)."""
    Gt = pullback_connection(c, iota, points[0])
    imgs = [eval_map(iota, P) for P in points]
    G = c.at(imgs[0])
    return _bilinear_combiner(lambda P: Gt, points), _bilinear_combiner(lambda P: G, imgs)


def check_idempotent_identities(
    rp: RetractPair, base, name_prefix: str = "idempotent"
) -> CheckReport:
    """Verify the derivative identities of e = iota∘r at a rational ambient
    fixed point P:

    * e(P) = P;
    * the Jacobian is a projection: De·De = De;
    * differentiating e∘e = e twice:  D2e[De·, De·] + De·D2e[·,·] = D2e[·,·];
    * tangential kill: De(D2e[u, u]) = 0 for u = e(P+d) - e(P);
    * the 2-jet of e∘e = e: e(e(P+d)) = e(P+d), d generic second-order.
    """
    n = rp.ambient_dim
    base = _lift_base(base, n)
    value, Jac, Hess = _two_jet(rp.idempotent_eval, make_truncated_context([]).point(base))
    Jac = [[x.constant_term for x in row] for row in Jac]
    Hess = [[[x.constant_term for x in row] for row in block] for block in Hess]

    report = CheckReport()

    def fixed_point():
        for i in range(n):
            d = value[i].constant_term - base[i]
            if d:
                return Witness(f"(e(P) - P)[{i + 1}]", "1", d)
        return None

    report.run(f"{name_prefix}/fixed-point", "fixed-point", fixed_point)

    # De and D2e as integers over the lcm of their denominators: J = L·De,
    # H = L·D2e (all index orders)
    L = math.lcm(*[q.denominator for matrix in (Jac, *Hess) for row in matrix for q in row])
    J = [[q.numerator * (L // q.denominator) for q in row] for row in Jac]
    H = [[[q.numerator * (L // q.denominator) for q in row] for row in block] for block in Hess]

    def jacobian_idempotent():
        # L²·(De·De - De)
        for i in range(n):
            for a in range(n):
                got = sum(J[i][p] * J[p][a] for p in range(n)) - L * J[i][a]
                if got:
                    return Witness(f"(De·De - De)[{i + 1},{a + 1}]", "1", Fraction(got, L * L))
        return None

    report.run(f"{name_prefix}/jacobian-idempotent", "derivative", jacobian_idempotent)

    def hessian_splitting():
        # L³·(D2e[De,De] + De·D2e - D2e), the second derivative of e∘e = e at
        # the fixed point; the Hessian is contracted with the Jacobian once,
        # K[i][p][b] = Σ_q H[i][p][q]·J[q][b], skipping zero entries
        K = [[[sum(h * J[q][b] for q, h in enumerate(H[i][p]) if h) for b in range(n)]
              for p in range(n)] for i in range(n)]
        for i in range(n):
            for a in range(n):
                for b in range(a, n):
                    got = sum(J[p][a] * K[i][p][b] for p in range(n)) + L * (
                        sum(J[i][p] * H[p][a][b] for p in range(n)) - L * H[i][a][b])
                    if got:
                        return Witness(
                            f"(D2e[De,De] + De·D2e - D2e)[{i + 1},{a + 1},{b + 1}]",
                            "1",
                            Fraction(got, L**3),
                        )
        return None

    report.run(f"{name_prefix}/hessian-splitting", "derivative", hessian_splitting)

    # the fixed point P and P + d, for d a generic cap-2 vector
    ctx = make_truncated_context([("d", n, 2)])
    P = ctx.point(base)
    X = P + PointVec(ctx, tuple(ctx.gens()))

    # H and J over L; over a <= b with the entry doubled off the diagonal, so
    # each product v[a]·v[b] is built once
    hess_rows = [{(a, b): H[p][a][b] * (1 if a == b else 2)
                  for a in range(n) for b in range(a, n)} for p in range(n)]
    jac_rows = [{(p,): J[i][p] for p in range(n)} for i in range(n)]

    # e(P + d), read by both checks below: cached only once it is computed,
    # so a fault reaches each of them
    eX = functools.cache(lambda: rp.idempotent_eval(X))

    def tangential_kill():
        v = (eX() - rp.idempotent_eval(P)).coords
        hv = _contract(ctx, hess_rows, (v, v), [L] * n)
        for i, acc in enumerate(_contract(ctx, jac_rows, (hv,), [L] * n)):
            if not acc.is_zero():
                return Witness.of(f"De(D2e[u,u])[{i + 1}]", acc)
        return None

    report.run(f"{name_prefix}/tangential-kill", "derivative", tangential_kill)

    def jet_idempotent():
        return difference_witness(rp.idempotent_eval(eX()), eX(), "e(e(P+d)) - e(P+d)")

    report.run(f"{name_prefix}/jet-idempotent", "derivative", jet_idempotent)
    return report
