"""Affine combinations of infinitesimally close tuples, three ways.

The canonical weighted sum, the connection-corrected second-order combine,
and the retract-mediated combine must each satisfy the same three axioms
(neighbourhood, associativity, projection); the suite pins the formulas with
hand-expanded small cases and exercises the axiom checker on both honest and
deliberately broken actions.
"""

import collections
import itertools
import pathlib
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from _oracles import (
    connection_combine as direct_combine,
    contract,
    derivative_identity_witnesses,
    monomials_up_to,
    point_dense,
    poly_diff,
    weighted_sum,
)

from weilaff import (
    Add,
    AffineWeights,
    BilinearMap,
    CanonicalAction,
    Connection,
    ConnectionAction,
    Const,
    Div,
    Mul,
    ExprMap,
    MembershipError,
    PointVec,
    Poly,
    PolyMap,
    RetractAction,
    RetractPair,
    Sqrt,
    Var,
    WeilElement,
    WeilError,
    basis_weights,
    canonical_combine,
    check_axioms,
    check_idempotent_identities,
    check_pullback_lemma,
    connection_apply,
    connection_combine,
    eval_map,
    find_A_k_violation,
    generic_Ak_tuple,
    in_A_k,
    in_D_k,
    make_truncated_context,
    pullback_connection,
    retract_combine,
    weighted_point_sum,
)
from weilaff import iaffine
from weilaff.iaffine import _bilinear_combiner, _pullback_combiners
from weilaff.report import CheckReport
from weilaff.weil import SingularMatrixError


def xy_polys():
    x = Poly(2, {(1, 0): Fraction(1)})
    y = Poly(2, {(0, 1): Fraction(1)})
    return x, y


def first_order_pair_context():
    """dim-1 points 0, u, v with u^2 = v^2 = 0 but uv alive."""
    c = make_truncated_context([("u", 1, 1), ("v", 1, 1)])
    P = c.point((0,))
    Q = PointVec(c, (c.gen(0),))
    S = PointVec(c, (c.gen(1),))
    return c, P, Q, S


# -- weights -----------------------------------------------------------------------------


def test_weights_must_sum_to_one():
    AffineWeights((Fraction(1, 2), Fraction(1, 2)))
    AffineWeights((Fraction(-1), 1, 1))
    with pytest.raises(WeilError):
        AffineWeights((Fraction(1, 2), Fraction(1, 3)))


def test_basis_weights():
    w = basis_weights(3, 1)
    assert tuple(w) == (0, 1, 0) and (w.nums, w.den) == ((0, 1, 0), 1)
    with pytest.raises(WeilError):
        basis_weights(3, 3)


def test_weights_keep_integer_numerators_beside_their_values():
    w = AffineWeights((Fraction(1, 2), Fraction(-1, 3), Fraction(5, 6)))
    assert (w.nums, w.den) == ((3, -2, 5), 6)
    assert all(type(v) is Fraction for v in w.values)
    with pytest.raises(WeilError, match="got 5/4"):
        AffineWeights((Fraction(3, 4), Fraction(1, 2)))


# weights with unlike denominators up to 120: their numerators over one
# denominator differ from each Fraction's own
_RATIONAL = st.one_of(st.sampled_from([0, 1, -1, 3]),
                      st.fractions(min_value=-6, max_value=6, max_denominator=120))


def _affine_weights(draw, size):
    head = [draw(_RATIONAL) for _ in range(size - 1)]
    return tuple(head) + (1 - sum(head, Fraction(0)),)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(st.data())
def test_weighted_point_sum_matches_the_fraction_oracle(data):
    n, t = data.draw(st.integers(1, 3)), data.draw(st.integers(1, 5))
    ctx = make_truncated_context([("e", 3, 2)])
    gens = [(0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, 0), (0, 0, 2)]
    coord = st.dictionaries(st.sampled_from(gens), _RATIONAL, max_size=4).map(ctx.element)
    points = [PointVec(ctx, tuple(data.draw(coord) for _ in range(n))) for _ in range(t)]
    weights = _affine_weights(data.draw, t)
    got = weighted_point_sum(weights, points)
    assert point_dense(got) == weighted_sum(weights, [point_dense(P) for P in points])


def test_weighted_sum_count_mismatch():
    c = make_truncated_context([])
    with pytest.raises(WeilError):
        weighted_point_sum(AffineWeights((1,)), [c.point((0,)), c.point((1,))])


# -- canonical action --------------------------------------------------------------------


def test_canonical_projection():
    _, pts = generic_Ak_tuple(2, 1, 3)
    for j in range(3):
        got = canonical_combine(basis_weights(3, j), pts, 1)
        assert all((got[i] - pts[j][i]).is_zero() for i in range(2))


def test_canonical_reflexive_midpoint():
    c = make_truncated_context([])
    P = c.point((Fraction(1, 3), 5))
    got = canonical_combine((Fraction(1, 2), Fraction(1, 2)), [P, P], 1)
    assert all((got[i] - P[i]).is_zero() for i in range(2))


def test_canonical_parallelogram():
    _, pts = generic_Ak_tuple(2, 1, 3)
    P, Q, S = pts
    got = canonical_combine((-1, 1, 1), pts, 1)
    want = Q + S - P
    assert all((got[i] - want[i]).is_zero() for i in range(2))


def test_canonical_rejects_far_tuples():
    c = make_truncated_context([])
    with pytest.raises(MembershipError) as ei:
        canonical_combine((Fraction(1, 2), Fraction(1, 2)), [c.point((0,)), c.point((1,))], 1)
    assert ei.value.witness is not None
    assert ei.value.witness.coefficient == 1


def test_canonical_check_bypass():
    c = make_truncated_context([])
    got = canonical_combine(
        (Fraction(1, 2), Fraction(1, 2)), [c.point((0,)), c.point((1,))], 1, check=False
    )
    assert got.rational_coords() == (Fraction(1, 2),)


# -- connections -------------------------------------------------------------------------


def test_connection_storage_is_symmetric():
    x, y = xy_polys()
    c = Connection(2, {(0, 0, 1): x, (0, 1, 0): y})
    assert c.gamma(0, 0, 1) == x + y
    assert c.gamma(0, 1, 0) == x + y
    assert Connection.zero(2).entries == {}
    assert Connection(2, {(1, 0, 0): 3}).gamma(1, 0, 0) == Poly.constant(2, 3)
    with pytest.raises(WeilError):
        Connection(2, {(2, 0, 0): x})


def test_bilinear_map_hand_expansion():
    c, P, Q, S = first_order_pair_context()
    G = BilinearMap(1, {(0, (0, 0)): c.scalar(3)})
    got = G.apply(Q, S)
    assert got[0] == c.scalar(3) * c.gen(0) * c.gen(1)
    # storage normalizes the index pair
    G2 = BilinearMap(2, {(0, (1, 0)): c.one()})
    assert G2.entry(0, 0, 1) == c.one()


SMALL = st.sampled_from([Fraction(0), Fraction(1), Fraction(-1), Fraction(1, 2), Fraction(-2, 3), 3])
SYM_CTX = make_truncated_context([("e", 3, 2)])


def _elements(ctx):
    monos = monomials_up_to(ctx.ngens, 2)
    return st.dictionaries(st.sampled_from(monos), SMALL, max_size=4).map(ctx.element)


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_bilinear_map_apply_is_symmetric(data):
    # the expanded connection combine relies on G[u, v] = G[v, u]
    n = data.draw(st.integers(1, 3))
    index = st.tuples(st.integers(0, n - 1), st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)))
    G = BilinearMap(n, data.draw(st.dictionaries(index, _elements(SYM_CTX), max_size=6)))
    point = st.lists(_elements(SYM_CTX), min_size=n, max_size=n).map(lambda c: PointVec(SYM_CTX, c))
    u, v = data.draw(point), data.draw(point)
    assert G.apply(u, v) == G.apply(v, u)
    # the same point, as one object and as an equal copy, against the
    # contraction over both orders of each pair
    rows = [{} for _ in range(n)]
    for (i, (a, b)), e in G.entries.items():
        rows[i][(a, b)] = rows[i][(b, a)] = e
    want = PointVec(SYM_CTX, contract(SYM_CTX.zero(), SYM_CTX.one(), rows, (u.coords, u.coords)))
    assert G.apply(u, u) == G.apply(u, PointVec(SYM_CTX, u.coords)) == want


def test_bilinear_map_builds_each_coordinate_product_once_on_one_point(monkeypatch):
    # the n = 4, t = 5 connection cell's context, a dense difference D and
    # 40 entries that are not constant: apply(D, D) builds the 10 products
    # D[a] D[b] with a <= b and scales each by its entry, 10 + 40 products
    # (16 + 64 over both orders)
    n = 4
    _, pts = generic_Ak_tuple(n, 2, 5, base=(1, -2, 0, 3))
    D = pts[2] - pts[0]
    ctx = D.context
    g = ctx.gens()
    entries = {(i, (a, b)): ctx.one() + g[i + a + b] * (i - b or 5)
               for i in range(n) for a in range(n) for b in range(a, n)}
    G = BilinearMap(n, entries)
    want = contract(ctx.zero(), ctx.one(), G._rows, (D.coords, D.coords))
    counts = collections.Counter()
    _counting(monkeypatch, counts, WeilElement, "__mul__")
    got = G.apply(D, D)
    assert counts["__mul__"] == 10 + 40
    assert got.coords == tuple(want)


@pytest.mark.parametrize("moved", [False, True])
def test_bilinear_map_apply_is_the_sum_of_its_terms(moved):
    # entries are constant at a rational point and not at one moved by d
    x, y = xy_polys()
    conn = Connection(2, {
        (0, 0, 0): x * Fraction(2, 3) + 1,
        (0, 0, 1): y - x * y,
        (1, 1, 1): Fraction(-5, 2),
        (1, 0, 1): x * x + y,
    })
    c = make_truncated_context([("d", 2, 2), ("u", 2, 1), ("v", 2, 1)])
    d1, d2, u1, u2, v1, v2 = c.gens()
    P = c.point((Fraction(1, 2), -3))
    if moved:
        P = P + PointVec(c, (d1, d2))
    G = conn.at(P)
    assert any(not e._num.keys() <= {0} for e in G.entries.values()) == moved
    U = PointVec(c, (u1 + d2, u2 * 3))
    V = PointVec(c, (v1 - v2, d1 + v2 * Fraction(1, 4)))
    want = [
        sum(
            (G.entry(i, a, b) * U[a] * V[b] for a in range(2) for b in range(2)
             if G.entry(i, a, b) is not None),
            c.zero(),
        )
        for i in range(2)
    ]
    assert list(G.apply(U, V)) == want


def test_connection_apply_flat():
    c, P, Q, S = first_order_pair_context()
    got = connection_apply(Connection.zero(1), P, Q, S)
    assert got[0] == Q[0] + S[0]


def test_connection_apply_hand_value():
    # Gamma = 3 constant, one dimension: result is u + v + 3uv exactly
    c, P, Q, S = first_order_pair_context()
    conn = Connection(1, {(0, 0, 0): 3})
    got = connection_apply(conn, P, Q, S)
    assert got[0] == Q[0] + S[0] + c.scalar(3) * Q[0] * S[0]


def test_connection_apply_unit_and_symmetry():
    c, P, Q, S = first_order_pair_context()
    conn = Connection(1, {(0, 0, 0): Poly(1, {(1,): Fraction(2), (0,): Fraction(1)})})
    back = connection_apply(conn, P, Q, P)
    assert (back[0] - Q[0]).is_zero()
    lhs = connection_apply(conn, P, Q, S)
    rhs = connection_apply(conn, P, S, Q)
    assert (lhs[0] - rhs[0]).is_zero()


def test_connection_apply_rejects_far_neighbors():
    c = make_truncated_context([("e", 1, 2)])
    P = c.point((0,))
    Q = PointVec(c, (c.gen(0),))  # e^2 survives: not first-order
    with pytest.raises(MembershipError):
        connection_apply(Connection.zero(1), P, Q, P)


def test_connection_combine_flat_matches_canonical():
    _, pts = generic_Ak_tuple(2, 2, 3)
    w = AffineWeights((Fraction(1, 2), Fraction(1, 3), Fraction(1, 6)))
    got = connection_combine(Connection.zero(2), w, pts)
    want = weighted_point_sum(w, pts)
    assert all((got[i] - want[i]).is_zero() for i in range(2))


def test_connection_combine_hand_value():
    # dim 1, constant Gamma = 5: combine(w) = w2 u + w3 v + 5 w2 w3 uv
    c, P, Q, S = first_order_pair_context()
    conn = Connection(1, {(0, 0, 0): 5})
    w2, w3 = Fraction(1, 3), Fraction(1, 4)
    w = AffineWeights((1 - w2 - w3, w2, w3))
    got = connection_combine(conn, w, [P, Q, S])
    want = w2 * Q[0] + w3 * S[0] + c.scalar(5 * w2 * w3) * Q[0] * S[0]
    assert got[0] == want


def test_connection_combine_parallelogram_weights():
    c, P, Q, S = first_order_pair_context()
    conn = Connection(1, {(0, 0, 0): Poly(1, {(1,): Fraction(1), (0,): Fraction(2)})})
    got = connection_combine(conn, (-1, 1, 1), [P, Q, S])
    want = connection_apply(conn, P, Q, S)
    assert (got[0] - want[0]).is_zero()


def test_connection_combine_projection_weights():
    x, y = xy_polys()
    conn = Connection(2, {(0, 0, 0): x, (1, 0, 1): y, (1, 1, 1): 2})
    _, pts = generic_Ak_tuple(2, 2, 3)
    for j in range(3):
        got = connection_combine(conn, basis_weights(3, j), pts)
        assert all((got[i] - pts[j][i]).is_zero() for i in range(2))


def test_connection_combine_stays_second_order():
    x, y = xy_polys()
    conn = Connection(2, {(0, 0, 0): x + y, (1, 0, 1): 3})
    _, pts = generic_Ak_tuple(2, 2, 3)
    got = connection_combine(conn, (Fraction(1, 6), Fraction(1, 3), Fraction(1, 2)), pts)
    assert in_D_k(got - pts[0], 2)


def test_connection_combine_rejects_far_tuples():
    c = make_truncated_context([])
    pts = [c.point((0, 0)), c.point((1, 0)), c.point((0, 1))]
    with pytest.raises(MembershipError):
        connection_combine(Connection.zero(2), (-1, 1, 1), pts)


@st.composite
def connection_cases(draw):
    """A connection of degree <= 1 in n = 1..3 variables, a unitriangular chart,
    a generic t-tuple (t = 2..5) of order cap = 2..4, affine weights with zeros
    and repeats plus one basis tuple, and outer weights for the combined
    tuple.  Above cap 2 the tuple is no second-order one, and the combiner
    cuts Γ's point at degree cap - 2 rather than 0."""
    n, t, cap = draw(st.integers(1, 3)), draw(st.integers(2, 5)), draw(st.integers(2, 4))
    monos = [(0,) * n] + [tuple(int(v == a) for v in range(n)) for a in range(n)]
    entries = {
        (i, a, b): Poly(n, {m: draw(SMALL) for m in monos})
        for i in range(n) for a in range(n) for b in range(a, n)
    }
    # component i is x_i plus terms in the later variables: J is unitriangular
    chart = [
        Poly(n, {monos[i + 1]: 1, **{
            tuple(e * int(v == j) for v in range(n)): draw(SMALL)
            for j in range(i + 1, n) for e in (1, 2)
        }})
        for i in range(n)
    ]

    families = [_affine_weights(draw, t) for _ in range(draw(st.integers(1, 3)))]
    families.append(basis_weights(t, draw(st.integers(0, t - 1))))
    _, pts = generic_Ak_tuple(n, cap, t, base=[draw(SMALL) for _ in range(n)])
    return (Connection(n, entries), PolyMap(n, n, chart), pts, families,
            _affine_weights(draw, len(families)))


@settings(max_examples=40, deadline=None)
@given(connection_cases())
def test_connection_combiners_match_the_direct_formula(case):
    conn, iota, pts, families, outer = case
    combine = ConnectionAction(conn).combiner(pts)
    down, up = _pullback_combiners(conn, iota, pts)
    Gt = pullback_connection(conn, iota, pts[0])
    imgs = [eval_map(iota, P) for P in pts]
    combined = []
    for w in families:
        want = direct_combine(conn.at(pts[0]), w, pts)
        assert connection_combine(conn, w, pts, check=pts[0].context.degree_cap == 2) == want
        assert combine(w) == want
        combined.append(want)
        assert down(w) == direct_combine(Gt, w, pts)
        assert up(w) == direct_combine(conn.at(imgs[0]), w, imgs)
    # the combined tuple, whose coordinates are dense elements, with weights of its own
    want = direct_combine(conn.at(combined[0]), outer, combined)
    assert connection_combine(conn, outer, combined, check=False) == want
    assert ConnectionAction(conn).combiner(combined)(outer) == want


# -- Christoffel pullback ----------------------------------------------------------------


def test_pullback_identity_chart():
    x, y = xy_polys()
    conn = Connection(2, {(0, 0, 1): x, (1, 1, 1): y + Poly.constant(2, 1)})
    c = make_truncated_context([])
    P = c.point((2, -1))
    Gt = pullback_connection(conn, PolyMap.identity(2), P)
    G = conn.at(P)
    for i in range(2):
        for a in range(2):
            for b in range(a, 2):
                want = G.entry(i, a, b)
                got = Gt.entry(i, a, b)
                if want is None:
                    assert got is None or got.is_zero()
                else:
                    assert (got - want).is_zero()


def test_pullback_linear_chart_of_flat_is_flat():
    L = PolyMap(2, 2, [
        Poly(2, {(1, 0): Fraction(2), (0, 1): Fraction(1)}),
        Poly(2, {(0, 1): Fraction(1)}),
    ])
    c = make_truncated_context([])
    Gt = pullback_connection(Connection.zero(2), L, c.point((1, 1)))
    assert all(
        Gt.entry(i, a, b) is None or Gt.entry(i, a, b).is_zero()
        for i in range(2)
        for a in range(2)
        for b in range(2)
    )


def test_pullback_quadratic_chart_hand_value():
    # iota(x) = x + x^2, flat upstairs: Gt_P[u,v] = -2uv/(1+2P)
    iota = PolyMap(1, 1, [Poly(1, {(1,): Fraction(1), (2,): Fraction(1)})])
    c = make_truncated_context([])
    for p in (Fraction(0), Fraction(1), Fraction(-2)):
        Gt = pullback_connection(Connection.zero(1), iota, c.point((p,)))
        assert Gt.entry(0, 0, 0).constant_term == Fraction(-2, 1 + 2 * p)
    # P = 1 specifically: -2/3
    Gt = pullback_connection(Connection.zero(1), iota, c.point((1,)))
    assert Gt.entry(0, 0, 0).constant_term == Fraction(-2, 3)


def test_pullback_needs_invertible_jacobian():
    iota = PolyMap(1, 1, [Poly(1, {(2,): Fraction(1)})])  # x^2, J = 0 at 0
    c = make_truncated_context([])
    with pytest.raises(SingularMatrixError):
        pullback_connection(Connection.zero(1), iota, c.point((0,)))


def test_pullback_needs_square_chart():
    iota = PolyMap(1, 2, [Poly(1, {(1,): Fraction(1)}), Poly(1, {})])
    c = make_truncated_context([])
    with pytest.raises(WeilError):
        pullback_connection(Connection.zero(2), iota, c.point((0,)))


def test_pullback_lemma_identity_and_linear():
    x, y = xy_polys()
    conn = Connection(2, {(0, 0, 0): x, (1, 0, 1): y, (1, 1, 1): 1})
    _, pts = generic_Ak_tuple(2, 2, 3)
    fams = [(Fraction(1, 2), Fraction(1, 4), Fraction(1, 4)), (-1, 1, 1)]
    rep = check_pullback_lemma(conn, PolyMap.identity(2), pts, fams)
    assert rep.ok
    L = PolyMap(2, 2, [
        Poly(2, {(1, 0): Fraction(1), (0, 1): Fraction(2)}),
        Poly(2, {(1, 0): Fraction(-1), (0, 1): Fraction(1)}),
    ])
    rep = check_pullback_lemma(conn, L, pts, fams)
    assert rep.ok


def test_pullback_lemma_quadratic_chart():
    x, y = xy_polys()
    iota = PolyMap(2, 2, [x + y * y, y + x * x])  # Jacobian = I at the origin
    _, pts = generic_Ak_tuple(2, 2, 3)
    fams = [(Fraction(1, 3), Fraction(1, 3), Fraction(1, 3)), (-1, 1, 1)]
    rep = check_pullback_lemma(Connection.zero(2), iota, pts, fams)
    assert rep.ok
    assert [e.status for e in rep.entries] == ["pass"] * len(rep.entries)


def closed_chart():
    """(x, y) -> (x/(1+y), y + sqrt(x^2 + 3)): at (1, 2) the root is 2 and
    the Jacobian has determinant 7/18."""
    x, y = Var(0), Var(1)
    one, three = Const(Fraction(1)), Const(Fraction(3))
    return ExprMap(2, 2, (Div(x, Add(one, y)), Add(y, Sqrt(Add(Mul(x, x), three)))))


def curved_connection():
    x, y = xy_polys()
    return Connection(2, {(0, 0, 0): x + y, (0, 0, 1): 3, (1, 1, 1): x * x})


CHART_FAMILIES = [(Fraction(1, 2), Fraction(1, 4), Fraction(1, 4)), (-1, 1, 1)]


def test_pullback_lemma_closed_form_chart():
    # at the rational point and at a point with nilpotent parts
    _, pts = generic_Ak_tuple(2, 2, 3, base=(1, 2))
    for tuple_ in (pts, pts[1:] + pts[:1]):
        rep = check_pullback_lemma(curved_connection(), closed_chart(), tuple_, CHART_FAMILIES)
        assert [e.status for e in rep.entries] == ["pass"] * 3


def test_pullback_without_the_hessian_fails_with_a_witness(monkeypatch):
    # control: the pulled-back map without its d^2 iota term breaks transport
    two_jet = iaffine._two_jet

    def no_hessian(f, P):
        value, J, H = two_jet(f, P)
        return value, J, [[[P.context.zero()] * len(row) for row in block] for block in H]

    monkeypatch.setattr(iaffine, "_two_jet", no_hessian)
    _, pts = generic_Ak_tuple(2, 2, 3, base=(1, 2))
    rep = check_pullback_lemma(curved_connection(), closed_chart(), pts, CHART_FAMILIES)
    failed = [e for e in rep.entries if e.status == "fail"]
    assert failed and all(e.kind == "transport" and e.witness["monomial"] for e in failed)


# -- retracts ----------------------------------------------------------------------------


def plane_in_space():
    """iota(x,y) = (x,y,0) with retraction (x,y,z) -> (x-z, y-z)."""
    x, y = xy_polys()
    iota = PolyMap(2, 3, [x, y, Poly(2, {})])
    x3 = Poly(3, {(1, 0, 0): Fraction(1)})
    y3 = Poly(3, {(0, 1, 0): Fraction(1)})
    z3 = Poly(3, {(0, 0, 1): Fraction(1)})
    r = PolyMap(3, 2, [x3 - z3, y3 - z3])
    return RetractPair(iota, r)


def circle_pair():
    norm = Sqrt(Add(Mul(Var(0), Var(0)), Mul(Var(1), Var(1))))
    e = ExprMap(2, 2, (Div(Var(0), norm), Div(Var(1), norm)))
    return RetractPair.from_idempotent(e)


def test_retract_pair_shape_checks():
    x, y = xy_polys()
    iota = PolyMap(2, 3, [x, y, Poly(2, {})])
    with pytest.raises(WeilError):
        RetractPair(iota, iota)
    with pytest.raises(WeilError):
        RetractPair.from_idempotent(iota)


def test_retract_identity_matches_canonical():
    rp = RetractPair.from_idempotent(PolyMap.identity(2))
    _, pts = generic_Ak_tuple(2, 2, 3)
    w = AffineWeights((Fraction(1, 2), Fraction(1, 4), Fraction(1, 4)))
    got = retract_combine(rp, w, pts)
    want = weighted_point_sum(w, pts)
    assert all((got[i] - want[i]).is_zero() for i in range(2))


def test_retract_linear_projector():
    # e(x,y,z) = (x,y,0): combining in the plane then embedding equals
    # embedding then combining, coordinatewise
    rp = plane_in_space()
    _, pts = generic_Ak_tuple(2, 2, 3)
    w = AffineWeights((Fraction(-1), Fraction(1), Fraction(1)))
    got = retract_combine(rp, w, pts)
    want = weighted_point_sum(w, pts)
    assert all((got[i] - want[i]).is_zero() for i in range(2))


def test_retract_rejects_points_off_the_retract():
    e = PolyMap(2, 2, [Poly(2, {(1, 0): Fraction(1)}), Poly(2, {})])  # (x, 0)
    rp = RetractPair.from_idempotent(e)
    c = make_truncated_context([])
    off = c.point((1, 1))  # e(1,1) = (1,0) != (1,1)
    with pytest.raises(MembershipError) as ei:
        retract_combine(rp, (Fraction(1), Fraction(0)), [off, off])
    assert "e(iota(P1))" in ei.value.witness.location


def test_retract_circle_combine_stays_on_circle():
    rp = circle_pair()
    ctx = make_truncated_context([("d", 4, 2)])
    base = (Fraction(3, 5), Fraction(4, 5))
    raw = [
        PointVec(ctx, (ctx.scalar(base[0]), ctx.scalar(base[1]))),
        PointVec(ctx, (ctx.scalar(base[0]) + ctx.gen(0), ctx.scalar(base[1]) + ctx.gen(1))),
        PointVec(ctx, (ctx.scalar(base[0]) + ctx.gen(2), ctx.scalar(base[1]) + ctx.gen(3))),
    ]
    pts = [rp.idempotent_eval(P) for P in raw]  # push onto the circle
    got = retract_combine(rp, (-1, 1, 1), pts)
    norm2 = got[0] * got[0] + got[1] * got[1]
    assert (norm2 - ctx.one()).is_zero()


# -- axiom checker -----------------------------------------------------------------------


WEIGHT_FAMILIES = [
    (Fraction(1, 2), Fraction(1, 3), Fraction(1, 6)),
    (Fraction(-1), Fraction(1), Fraction(1)),
    (Fraction(2), Fraction(0), Fraction(-1)),
]
OUTER = (Fraction(1, 4), Fraction(1, 4), Fraction(1, 2))


def assert_all_pass(report):
    assert report.entries, "empty report"
    bad = [e.line() for e in report.entries if e.status != "pass"]
    assert not bad, "\n".join(bad)


def test_axioms_canonical_handle():
    for k in (1, 2):
        _, pts = generic_Ak_tuple(2, k, 3)
        rep = check_axioms(CanonicalAction(2, k), pts, WEIGHT_FAMILIES, outer=OUTER)
        assert_all_pass(rep)
        names = [e.name for e in rep.entries]
        assert "axioms/associativity" in names and "axioms/projection" in names


def test_axioms_connection_handle():
    x, y = xy_polys()
    conn = Connection(2, {(0, 0, 0): x, (0, 0, 1): y, (1, 1, 1): x + y, (1, 0, 0): 3})
    _, pts = generic_Ak_tuple(2, 2, 3)
    rep = check_axioms(ConnectionAction(conn), pts, WEIGHT_FAMILIES, outer=OUTER)
    assert_all_pass(rep)


def test_axioms_retract_circle():
    rp = circle_pair()
    ctx = make_truncated_context([("d", 4, 2)])
    base = (Fraction(3, 5), Fraction(4, 5))
    raw = [
        PointVec(ctx, (ctx.scalar(base[0]), ctx.scalar(base[1]))),
        PointVec(ctx, (ctx.scalar(base[0]) + ctx.gen(0), ctx.scalar(base[1]) + ctx.gen(1))),
        PointVec(ctx, (ctx.scalar(base[0]) + ctx.gen(2), ctx.scalar(base[1]) + ctx.gen(3))),
    ]
    pts = [rp.idempotent_eval(P) for P in raw]
    rep = check_axioms(RetractAction(rp), pts, WEIGHT_FAMILIES, outer=OUTER)
    assert_all_pass(rep)


def test_axioms_fail_with_witness_on_broken_action():
    # dropping the weighted subtraction from the correction breaks both
    # associativity and projection, with a coordinate witness
    x, y = xy_polys()
    conn = Connection(2, {(0, 0, 0): x, (0, 0, 1): y, (1, 1, 1): x + y, (1, 0, 0): 3})

    class DropSubtraction:
        kind = "broken"
        order = 2
        dim = 2

        def membership_violation(self, points):
            return find_A_k_violation(points, 2)

        def combine(self, weights, points, check=True):
            w = AffineWeights(tuple(weights))
            s = weighted_point_sum(w, points)
            G = conn.at(points[0])
            return s + Fraction(1, 2) * G.apply(s - points[0], s - points[0])

        def combiner(self, points):
            return lambda weights: self.combine(weights, points)

    _, pts = generic_Ak_tuple(2, 2, 3)
    fams = [(Fraction(1, 2), Fraction(1, 3), Fraction(1, 6)), (-1, 1, 1)]
    rep = check_axioms(DropSubtraction(), pts, fams, outer=(Fraction(2, 5), Fraction(3, 5)))
    by_name = {e.name: e for e in rep.entries}
    assert by_name["axioms/associativity"].status == "fail"
    assert by_name["axioms/associativity"].witness["monomial"]
    assert by_name["axioms/projection"].status == "fail"


def test_doubled_correction_breaks_parallelogram_equivalence():
    # the 1/2 factor is pinned by equivalence with the parallelogram map:
    # doubling the correction keeps the identity laws but not the equivalence
    c, P, Q, S = first_order_pair_context()
    conn = Connection(1, {(0, 0, 0): 5})
    G = conn.at(P)
    w = AffineWeights((Fraction(-1), Fraction(1), Fraction(1)))
    s = weighted_point_sum(w, [P, Q, S])
    corr = G.apply(s - P, s - P)
    for lam, Pj in zip(w.values, [P, Q, S]):
        if lam:
            corr = corr - lam * G.apply(Pj - P, Pj - P)
    doubled = s + corr  # factor 1 instead of 1/2
    honest = connection_combine(conn, w, [P, Q, S])
    want = connection_apply(conn, P, Q, S)
    assert (honest[0] - want[0]).is_zero()
    assert not (doubled[0] - want[0]).is_zero()


def test_antisymmetric_injection_is_inert():
    # apply reads the contraction rows built in the constructor, never
    # ``entries``: an antisymmetric entry edited in after construction
    # changes no combine, not even one built afterwards
    _, pts = generic_Ak_tuple(2, 2, 3)
    ctx = pts[0].context
    G = BilinearMap(2, {(0, (0, 1)): ctx.one()})
    w = AffineWeights(WEIGHT_FAMILIES[0])
    before = _bilinear_combiner(lambda P: G, pts)(w)
    G.entries[(0, (1, 0))] = ctx.scalar(17)  # bypasses normalization, never read
    after = _bilinear_combiner(lambda P: G, pts)(w)
    assert all((before[i] - after[i]).is_zero() for i in range(2))


def _statuses(report):
    return {e.name: e.status for e in report.entries}


def test_connection_of_another_dimension_errors_in_every_combine():
    # basis weights need no pair, but each combine still evaluates Gamma at P1
    _, pts = generic_Ak_tuple(2, 2, 3)
    conn = Connection(3, {(0, 0, 0): 1})
    rep = check_axioms(ConnectionAction(conn), pts, WEIGHT_FAMILIES, outer=OUTER)
    assert _statuses(rep) == {
        "axioms/membership": "pass",
        "axioms/neighbourhood": "error",
        "axioms/associativity": "error",
        "axioms/projection": "error",
    }
    assert rep.entries[-1].witness == {"message": "connection evaluated at wrong dimension"}


def test_points_of_two_contexts_error_in_every_entry():
    # each combine checks the contexts; building a combiner raises nothing
    _, pts = generic_Ak_tuple(2, 2, 3)
    _, other = generic_Ak_tuple(2, 2, 2)
    x, y = xy_polys()
    conn = Connection(2, {(0, 0, 1): x, (1, 1, 1): y})
    rep = check_axioms(ConnectionAction(conn), pts[:2] + other[1:], WEIGHT_FAMILIES, outer=OUTER)
    assert set(_statuses(rep).values()) == {"error"} and len(rep.entries) == 4
    assert rep.entries[-1].witness == {"message": "points belong to different contexts"}


def _counting(monkeypatch, counts, cls, name):
    fn = getattr(cls, name)

    def counted(*args):
        counts[name] += 1
        return fn(*args)

    monkeypatch.setattr(cls, name, counted)


def test_connection_axioms_evaluate_gamma_once_per_tuple_and_each_pair_once(monkeypatch):
    t, F = 4, 3
    x, y = xy_polys()
    conn = Connection(2, {(0, 0, 0): x, (0, 0, 1): y, (1, 1, 1): x + y, (1, 0, 0): 3})
    _, pts = generic_Ak_tuple(2, 2, t, base=(1, -2))
    families = [(Fraction(1, 2), Fraction(1, 3), Fraction(1, 6), 0), (-1, 1, 1, 0), (2, 0, -1, 0)]
    counts, per_entry, at_points = collections.Counter(), {}, []
    for cls, name in ((BilinearMap, "apply"), (WeilElement, "__mul__")):
        _counting(monkeypatch, counts, cls, name)
    at = Connection.at
    monkeypatch.setattr(Connection, "at", lambda self, P: at_points.append(P) or at(self, P))
    run = CheckReport.run

    def run_counted(self, name, kind, fn):
        before = counts["__mul__"]
        entry = run(self, name, kind, fn)
        per_entry[name] = counts["__mul__"] - before
        return entry

    monkeypatch.setattr(CheckReport, "run", run_counted)
    assert_all_pass(check_axioms(ConnectionAction(conn), pts, families, outer=OUTER))
    # once at P1 of the input tuple, once at the first combined point; at cap
    # 2 a pair product has degree 2 already, so only Γ's constant term is read
    assert len(at_points) == 2
    assert at_points[0] == pts[0] and all(P.is_rational() for P in at_points)
    assert counts["apply"] <= t * (t - 1) // 2 + F * (F - 1) // 2
    assert per_entry["axioms/projection"] == 0


def test_maps_and_combines_build_no_fraction(monkeypatch):
    """Coefficients reach the kernel as integers over one divisor: with the
    map and the weights built, evaluating the map and combining the points
    build no Fraction, however fractional the coefficients and weights."""
    x, y = xy_polys()
    conn = Connection(2, {(0, 0, 0): x * Fraction(2, 3) + Fraction(1, 5),
                          (0, 0, 1): y * Fraction(1, 7),
                          (1, 1, 1): x + y, (1, 0, 0): Fraction(-3, 4)})
    f = PolyMap(2, 2, [x * x * Fraction(5, 6) + y * Fraction(1, 3), x * y * Fraction(-2, 9) + 1])
    _, pts = generic_Ak_tuple(2, 2, 4, base=(Fraction(1, 2), -2))
    families = [AffineWeights((Fraction(1, 2), Fraction(1, 3), Fraction(-5, 6), 1)),
                basis_weights(4, 2)]
    combine = ConnectionAction(conn).combiner(pts)
    built = []
    new = Fraction.__new__
    monkeypatch.setattr(Fraction, "__new__",
                        lambda cls, *args, **kw: built.append(args) or new(cls, *args, **kw))
    images = [eval_map(f, P) for P in pts]
    sums = [weighted_point_sum(w, images) for w in families]
    combined = [combine(w) for w in families]
    monkeypatch.undo()
    assert built == []
    assert sums[1] == images[2] and combined[1] == pts[2]
    for w, s, c in zip(families, sums, combined):
        assert s == weighted_point_sum(w.values, images)
        assert c == direct_combine(conn.at(pts[0]), w.values, pts)


def test_retract_axioms_embed_each_point_once_for_all_combines(monkeypatch):
    rp = circle_pair()
    _, raw = generic_Ak_tuple(2, 2, 3, base=(Fraction(3, 5), Fraction(4, 5)))
    pts = [rp.idempotent_eval(P) for P in raw]
    embedded = collections.Counter()
    embed = RetractPair.embed
    monkeypatch.setattr(
        RetractPair, "embed", lambda self, P: embedded.update([id(P)]) or embed(self, P)
    )
    assert_all_pass(check_axioms(RetractAction(rp), pts, WEIGHT_FAMILIES, outer=OUTER))
    # once by the membership entry, once by the combiner for every combine
    assert [embedded[id(P)] for P in pts] == [2, 2, 2]


# -- the parallelogram laws of the weights (-1, 1, 1) -------------------------------------


def parallelogram_triple(n, base, push=lambda X: X):
    """push(B), push(B + u), push(B + v) for generic first-order u and v in
    two cap-1 blocks."""
    ctx = make_truncated_context([("u", n, 1), ("v", n, 1)])
    B = ctx.point(base)
    gens = ctx.gens()
    return push(B), push(B + PointVec(ctx, gens[:n])), push(B + PointVec(ctx, gens[n:]))


def assert_parallelogram_laws(handle, P, Q, S):
    """The weights (-1, 1, 1) on a triple of the handle's neighbourhood obey
    the unit laws and exchange symmetry."""
    w = (-1, 1, 1)
    assert handle.membership_violation([P, Q, S]) is None
    assert handle.combine(w, [P, Q, P]) == Q
    assert handle.combine(w, [P, P, S]) == S
    assert handle.combine(w, [P, Q, S]) == handle.combine(w, [P, S, Q])


def test_induced_check_canonical():
    assert_parallelogram_laws(CanonicalAction(2, 2), *parallelogram_triple(2, (0, 0)))


def test_induced_check_connection_recovers_apply():
    x, y = xy_polys()
    conn = Connection(2, {(0, 0, 1): x, (1, 0, 0): y + Poly.constant(2, 2)})
    P, Q, S = parallelogram_triple(2, (1, -1))
    assert_parallelogram_laws(ConnectionAction(conn), P, Q, S)
    assert connection_combine(conn, (-1, 1, 1), [P, Q, S]) == connection_apply(conn, P, Q, S)


def test_induced_check_retract_circle():
    # r(-P + Q + S) on points pushed onto the circle by r
    rp = circle_pair()
    triple = parallelogram_triple(2, (Fraction(3, 5), Fraction(4, 5)), rp.retract)
    assert_parallelogram_laws(RetractAction(rp), *triple)


# -- idempotent derivative identities ----------------------------------------------------


def test_idempotent_identities_linear_projector():
    e = PolyMap(3, 3, [
        Poly(3, {(1, 0, 0): Fraction(1)}),
        Poly(3, {(0, 1, 0): Fraction(1)}),
        Poly(3, {}),
    ])
    rep = check_idempotent_identities(RetractPair.from_idempotent(e), (1, 2, 0))
    assert_all_pass(rep)


def test_idempotent_identities_identity_map():
    rep = check_idempotent_identities(
        RetractPair.from_idempotent(PolyMap.identity(2)), (Fraction(1, 2), -3)
    )
    assert_all_pass(rep)


def test_idempotent_identities_parabola():
    # e(x,y) = (x, x^2) retracts the plane onto a parabola
    x, y = xy_polys()
    e = PolyMap(2, 2, [x, x * x])
    rp = RetractPair.from_idempotent(e)
    rep = check_idempotent_identities(rp, (2, 4))
    assert_all_pass(rep)


def test_idempotent_identities_circle():
    rep = check_idempotent_identities(circle_pair(), (Fraction(3, 5), Fraction(4, 5)))
    assert_all_pass(rep)


def test_idempotent_identities_flag_moving_point():
    x, y = xy_polys()
    e = PolyMap(2, 2, [x, x * x])
    rep = check_idempotent_identities(RetractPair.from_idempotent(e), (2, 5))
    by_name = {e.name.split("/")[-1]: e for e in rep.entries}
    assert by_name["fixed-point"].status == "fail"
    assert by_name["fixed-point"].witness["coefficient"] == "-1"


@pytest.mark.parametrize("components, base, jacobian, hessian", [
    # e(x) = x + x^2 fixes 0 with De = 1, but D2e[De,De] + De·D2e - D2e = 2
    (lambda x: [x + x * x], (0,), None, ("[1,1,1]", "2")),
    # e(x) = x/2 + x^2/3: De·De - De = -1/4, and 1/6 + 1/3 - 2/3 = -1/6
    (lambda x: [x * Fraction(1, 2) + x * x * Fraction(1, 3)], (0,),
     ("[1,1]", "-1/4"), ("[1,1,1]", "-1/6")),
    # every entry of the first component cancels, (x, y) mixed included; the
    # second fails at (1,1): -3/2 · 1/4 + 1 · (-3/2) + 3/2
    (lambda x, y: [x * Fraction(1, 2) + x * y * Fraction(1, 3),
                   y + x * x * Fraction(-3, 4) + y * y], (0, 0),
     ("[1,1]", "-1/4"), ("[2,1,1]", "-3/8")),
])
def test_idempotent_identities_pin_the_derivative_witnesses(components, base, jacobian, hessian):
    n = len(base)
    e = PolyMap(n, n, components(*[Poly.variable(n, i) for i in range(n)]))
    rep = check_idempotent_identities(RetractPair.from_idempotent(e), base)
    by_name = {entry.name.split("/")[-1]: entry for entry in rep.entries}
    assert by_name["fixed-point"].status == "pass"
    for name, label, want in (("jacobian-idempotent", "De·De - De", jacobian),
                              ("hessian-splitting", "D2e[De,De] + De·D2e - D2e", hessian)):
        if want is None:
            assert by_name[name].status == "pass"
        else:
            assert by_name[name].status == "fail"
            assert by_name[name].witness == {
                "location": f"({label}){want[0]}", "monomial": "1", "coefficient": want[1],
            }


@settings(max_examples=60, deadline=None, derandomize=True)
@given(st.data())
def test_idempotent_identities_match_the_direct_sums(data):
    # quadratic maps at 0, where De and D2e are read off the coefficients;
    # the oracle sums H[i][p][q]·De[p][a]·De[q][b] over p and q for every entry
    n = data.draw(st.integers(1, 3))
    monos = [m for m in itertools.product(range(3), repeat=n) if 1 <= sum(m) <= 2]
    coef = st.sampled_from([0, 0, 1, -1, 2, Fraction(1, 2), Fraction(-2, 3), Fraction(1, 3)])
    comps = [Poly(n, data.draw(st.dictionaries(st.sampled_from(monos), coef, max_size=4)))
             for _ in range(n)]
    zero = (0,) * n
    J = [[poly_diff(p.terms, a).get(zero, 0) for a in range(n)] for p in comps]
    H = [[[poly_diff(poly_diff(p.terms, a), b).get(zero, 0) for b in range(n)] for a in range(n)]
         for p in comps]
    want = derivative_identity_witnesses(J, H)
    rep = check_idempotent_identities(RetractPair.from_idempotent(PolyMap(n, n, comps)), (0,) * n)
    by_name = {entry.name.split("/")[-1]: entry for entry in rep.entries}
    for name, label in (("jacobian-idempotent", "De·De - De"),
                        ("hessian-splitting", "D2e[De,De] + De·D2e - D2e")):
        if want[name] is None:
            assert by_name[name].status == "pass"
        else:
            index, value = want[name]
            assert by_name[name].witness == {
                "location": f"({label})[{','.join(str(k + 1) for k in index)}]",
                "monomial": "1",
                "coefficient": str(value),
            }


def test_idempotent_identities_flag_tangential_curvature():
    # e(x, y) = (x, y + x^2) fixes the origin with De = I but bends the
    # tangent: D2e[u, u] = (0, 2 d1^2) survives De, and e(e(P+d)) = (d1, d2 + 2 d1^2)
    x, y = xy_polys()
    e = PolyMap(2, 2, [x, y + x * x])
    rep = check_idempotent_identities(RetractPair.from_idempotent(e), (0, 0))
    by_name = {e.name.split("/")[-1]: e for e in rep.entries}
    assert by_name["tangential-kill"].status == "fail"
    assert by_name["tangential-kill"].witness == {
        "location": "De(D2e[u,u])[2]", "monomial": "d1^2", "coefficient": "2",
    }
    assert by_name["jet-idempotent"].status == "fail"
    assert by_name["jet-idempotent"].witness == {
        "location": "e(e(P+d)) - e(P+d)[2]", "monomial": "d1^2", "coefficient": "1",
    }


def test_tangential_kill_builds_each_coordinate_product_once(monkeypatch):
    # e(x, y, z) = (x, y, xy) at (1, 2, 2): evaluating e at P+d and at P
    # makes one product each, and D2e[3][1,2] is the only nonzero Hessian
    # entry, so rows over a <= b build v[1]·v[2] once, where rows over both
    # orders built v[2]·v[1] too
    x, y, _ = (Poly.variable(3, i) for i in range(3))
    rp = RetractPair.from_idempotent(PolyMap(3, 3, [x, y, x * y]))
    counts, per_entry = collections.Counter(), {}
    _counting(monkeypatch, counts, WeilElement, "__mul__")
    run = CheckReport.run

    def run_counted(self, name, kind, fn):
        before = counts["__mul__"]
        entry = run(self, name, kind, fn)
        per_entry[name] = counts["__mul__"] - before
        return entry

    monkeypatch.setattr(CheckReport, "run", run_counted)
    rep = check_idempotent_identities(rp, (1, 2, 2))
    assert_all_pass(rep)
    assert per_entry["idempotent/tangential-kill"] == 3


def test_idempotent_identities_evaluate_e_at_p_plus_d_once(monkeypatch):
    # the shipped plane retract: the 2-jet at P, then e(P + d) and e(P) for
    # the tangential kill and e(e(P + d)) for the jet check, two maps each;
    # evaluating e(P + d) for both checks made ten
    from weilaff.dsl import parse_scenario
    from weilaff.runner import build_env

    text = (pathlib.Path(__file__).resolve().parent.parent / "scenarios" / "retract.weil").read_text()
    rp = build_env(parse_scenario(text)).retracts["plane"]
    calls = []
    monkeypatch.setattr(iaffine, "eval_map", lambda f, P: calls.append(f) or eval_map(f, P))
    assert_all_pass(check_idempotent_identities(rp, (1, 2, 0)))
    assert len(calls) == 8


def test_idempotent_identities_report_a_fault_in_each_entry_that_reads_e_at_p_plus_d(monkeypatch):
    rp = RetractPair.from_idempotent(PolyMap.identity(2))
    calls = []

    def fails_after_the_jet(self, X):
        calls.append(X)
        if len(calls) > 1:
            raise WeilError("e is not defined here")
        return X

    monkeypatch.setattr(RetractPair, "idempotent_eval", fails_after_the_jet)
    rep = check_idempotent_identities(rp, (1, 2))
    by_name = {entry.name.split("/")[-1]: entry for entry in rep.entries}
    for name in ("tangential-kill", "jet-idempotent"):
        assert by_name[name].status == "error"
        assert by_name[name].witness == {"message": "e is not defined here"}
