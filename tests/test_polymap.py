"""Polynomial/expression maps: evaluation, composition, jets, Taylor."""

import itertools
import math
import random
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings, strategies as st

from weilaff import (
    Add,
    Const,
    Div,
    DimensionMismatchError,
    ExprMap,
    Mul,
    Neg,
    Poly,
    PolyMap,
    PointVec,
    Power,
    Sqrt,
    Sub,
    Var,
    WeilError,
    build_env,
    compose,
    eval_map,
    expr_to_poly,
    generic_Dk_vector,
    generic_nilsquare_tuple,
    jet,
    make_truncated_context,
    parse_scenario,
)

from weilaff import weil

from _oracles import (
    as_dense,
    dense_pow,
    expr_poly,
    poly_add,
    poly_clean,
    poly_diff,
    poly_map_eval,
    poly_mul,
    poly_pow,
    poly_scale,
    poly_substitute,
    symbolic_jet,
)


def square() -> PolyMap:
    return PolyMap(1, 1, [Poly(1, {(2,): Fraction(1)})])


def test_eval_square_on_cap_one():
    c = make_truncated_context([("e", 1, 1)])
    P = PointVec(c, (c.scalar(3) + c.gen(0),))
    out = eval_map(square(), P)
    assert out[0] == c.scalar(9) + c.gen(0) * 6


_Q = st.fractions(min_value=Fraction(-5, 2), max_value=Fraction(5, 2), max_denominator=6)


# coefficients of a map: unlike denominators up to 360 within one component,
# so its integer numerators over one denominator are not the Fractions' own
_MAP_COEF = st.one_of(_Q, st.integers(-9, 9),
                      st.fractions(min_value=-40, max_value=40, max_denominator=360))


@settings(max_examples=80, derandomize=True)
@given(st.data())
def test_eval_map_is_the_sum_of_coefficients_times_powers(data):
    """Against dense Fraction arithmetic: component j at P is the sum of
    c * prod P[i]**e."""
    n, out_dim = data.draw(st.integers(1, 3)), data.draw(st.integers(1, 2))
    c = make_truncated_context([("e", 2, data.draw(st.integers(1, 3)))])
    ngens = c.ngens
    gens = [(0,) * ngens] + [tuple(int(i == g) for i in range(ngens)) for g in range(ngens)]
    coord = st.dictionaries(st.sampled_from(gens), _Q, max_size=3).map(c.element)
    P = PointVec(c, tuple(data.draw(coord) for _ in range(n)))
    exps = st.tuples(*[st.integers(0, 3)] * n)
    raw = [data.draw(st.dictionaries(exps, _MAP_COEF, max_size=5)) for _ in range(out_dim)]
    got = eval_map(PolyMap(n, out_dim, [Poly(n, terms) for terms in raw]), P)
    want = poly_map_eval(raw, [as_dense(x) for x in P], c.degree_cap, ngens)
    assert [as_dense(y) for y in got] == want


def test_eval_cube_against_dense_oracle():
    c = make_truncated_context([("e", 1, 2)])
    cube = PolyMap(1, 1, [Poly(1, {(3,): Fraction(1)})])
    P = PointVec(c, (c.one() + c.gen(0),))
    out = eval_map(cube, P)
    want = dense_pow(as_dense(P[0]), 3, c.degree_cap, c.ngens)
    assert as_dense(out[0]) == want
    assert out[0] == c.one() + c.gen(0) * 3 + c.gen(0) * c.gen(0) * 3


def test_eval_rational_point():
    f = PolyMap(
        2,
        2,
        [
            Poly(2, {(1, 1): Fraction(1)}),
            Poly(2, {(1, 0): Fraction(1), (0, 1): Fraction(-3, 2)}),
        ],
    )
    c = make_truncated_context([])
    out = eval_map(f, c.point((2, 2)))
    assert out.rational_coords() == (Fraction(4), Fraction(-1))


def test_eval_dimension_mismatch():
    c = make_truncated_context([])
    with pytest.raises((DimensionMismatchError, WeilError)):
        eval_map(square(), c.point((1, 2)))


# -- integer numerators ------------------------------------------------------------------

# ints and Fractions of mixed denominators; small exponents and signs, so
# sums and products often cancel
_COEF = st.one_of(
    st.integers(-3, 3),
    st.fractions(min_value=-3, max_value=3, max_denominator=6),
)


def _terms(n):
    return st.dictionaries(st.tuples(*[st.integers(0, 2)] * n), _COEF, max_size=4)


def _assert_stored(p, want):
    """``p`` reads back as the oracle's dict, from int numerators in lowest terms."""
    assert p.terms == want
    assert all(type(c) is Fraction for c in p.terms.values())
    assert all(type(c) is int and c for c in p._num.values())
    assert type(p.den) is int and p.den > 0 and math.gcd(p.den, *p._num.values()) == 1


@settings(max_examples=150, deadline=None, derandomize=True)
@given(st.data())
def test_integer_poly_matches_the_fraction_oracle(data):
    n = data.draw(st.integers(1, 3))
    ta, tb = data.draw(_terms(n)), data.draw(_terms(n))
    a, b = Poly(n, ta), Poly(n, tb)
    A, B = poly_clean(n, ta), poly_clean(n, tb)
    q = data.draw(_COEF)
    e = data.draw(st.integers(0, 4))
    m = data.draw(st.integers(1, 3))
    targs = [data.draw(_terms(m)) for _ in range(n)]
    cases = [
        (a, A),
        (a + b, poly_add(A, B)),
        (a - b, poly_add(A, poly_scale(B, -1))),
        (a - a, {}),
        (a + q, poly_add(A, poly_clean(n, {(0,) * n: q}))),
        (q - a, poly_add(poly_clean(n, {(0,) * n: q}), poly_scale(A, -1))),
        (-a, poly_scale(A, -1)),
        (a * b, poly_mul(A, B)),
        (a * q, poly_scale(A, q)),
        (q * a, poly_scale(A, q)),
        (a * Poly.constant(n, q), poly_scale(A, q)),
        (Poly.constant(n, q) * a, poly_scale(A, q)),
        (a**e, poly_pow(A, e, n)),
        (a.substitute([Poly(m, t) for t in targs]),
         poly_substitute(A, [poly_clean(m, t) for t in targs], m)),
    ]
    for got, want in cases:
        _assert_stored(got, want)
    assert (a == b) == (A == B)


def _left_spine(first, rest):
    """``first`` with each ``(node class, operand)`` of ``rest`` applied on
    the right, as the parser builds a chain: ((a op b) op c) ..."""
    for kind, operand in rest:
        first = kind(first, operand)
    return first


def _exprs(n):
    const = st.builds(Const, st.fractions(min_value=-3, max_value=3, max_denominator=6))
    var = st.builds(Var, st.integers(0, n - 1))
    # the spines expr_to_poly lowers in one loop: monomials as * and / c
    # chains with Neg and Var^e factors (a quotient by x^0 stays one, by x
    # is none), long flat sums of them, and products of sums
    factor = st.one_of(const, var, st.builds(Power, var, st.integers(0, 4)),
                       st.builds(Neg, st.one_of(var, const)))
    divisor = st.one_of(const, st.builds(Power, var, st.just(0)), var)
    monomial = st.builds(_left_spine, factor, st.lists(st.one_of(
        st.tuples(st.just(Mul), factor), st.tuples(st.just(Div), divisor)), max_size=4))
    flat_sum = st.builds(_left_spine, monomial, st.lists(
        st.tuples(st.sampled_from([Add, Sub]), monomial), max_size=20))
    short_sum = st.builds(_left_spine, monomial, st.lists(
        st.tuples(st.sampled_from([Add, Sub]), monomial), min_size=1, max_size=3))
    product = st.builds(_left_spine, short_sum, st.lists(st.tuples(
        st.sampled_from([Mul, Div]), st.one_of(short_sum, factor)), min_size=1, max_size=2))
    leaves = st.one_of(const, var, monomial, flat_sum, product)
    return st.recursive(leaves, lambda kids: st.one_of(
        st.builds(Add, kids, kids),
        st.builds(Sub, kids, kids),
        st.builds(Mul, kids, kids),
        st.builds(Div, kids, kids),
        st.builds(Neg, kids),
        st.builds(Power, kids, st.integers(0, 3)),
        st.builds(Sqrt, kids),
    ), max_leaves=5)


@settings(max_examples=150, deadline=None, derandomize=True)
@given(st.data())
def test_expr_to_poly_matches_the_fraction_oracle(data):
    # Div by a constant (zero included) and by a non-constant, Sqrt, Neg and
    # powers, over trees that often cancel
    n = data.draw(st.integers(1, 3))
    tree = data.draw(_exprs(n))
    try:
        want = expr_poly(tree, n)
    except ZeroDivisionError:
        with pytest.raises(ZeroDivisionError):
            expr_to_poly(tree, n)
        return
    got = expr_to_poly(tree, n)
    if want is None:
        assert got is None
    else:
        _assert_stored(got, want)


@settings(max_examples=150, deadline=None, derandomize=True)
@given(st.data())
def test_the_expansion_bounds_are_never_below_the_lowered_poly(data):
    """The parser's budgets read bounds off the tree: no lowered polynomial
    has more terms, or a numerator or denominator of more bits."""
    from weilaff.dsl import _MAX_TERMS, _bits, _expansion_bounds

    n = data.draw(st.integers(1, 3))
    tree = data.draw(_exprs(n))
    poly = expr_to_poly(tree, n)
    if poly is not None:
        terms, bits = _expansion_bounds(tree)
        assert terms > _MAX_TERMS or len(poly._num) <= terms
        assert all(_bits(c) <= bits for c in (poly.den, *poly._num.values()))


def test_a_flat_sum_of_monomials_lowers_with_no_polynomial_product(monkeypatch):
    """Each summand is one scale factor times one exponent vector, and the
    sum is one weighted sum: Poly.__mul__ never runs."""
    x, y, z = Var(0), Var(1), Var(2)
    summands = [
        Mul(Mul(Const(Fraction(3, 2)), x), Power(y, 2)),
        Div(Mul(Neg(z), x), Const(-4)),
        Mul(Power(x, 3), Power(Const(2), 5)),
        Div(Div(y, Const(2)), Const(Fraction(1, 3))),
        Neg(Mul(z, z)),
        Const(7),
    ]
    tree = _left_spine(summands[0], [(Sub if i % 2 else Add, m) for i, m in enumerate(summands[1:])])
    calls = []
    mul = Poly.__mul__
    monkeypatch.setattr(Poly, "__mul__", lambda a, b: calls.append(1) or mul(a, b))
    got = expr_to_poly(tree, 3)
    assert calls == []
    _assert_stored(got, expr_poly(tree, 3))


def test_two_presentations_of_one_poly_are_equal_and_hash_equal():
    x, y = Poly.variable(2, 0), Poly.variable(2, 1)
    presentations = [
        Poly(2, {(1, 0): Fraction(2, 4), (0, 1): 3}),
        Poly(2, {(1, 0): Fraction(1, 2), (0, 1): Fraction(3)}),
        Poly(2, {(1, 0): Fraction(3, 6), (0, 1): Fraction(6, 2)}),
        x * Fraction(1, 2) + y * 3,
        (x + y * 6) * Fraction(1, 2),
        (x * 2 + y * 6) * Fraction(1, 4) + y * Fraction(3, 2),
    ]
    for p in presentations:
        assert p == presentations[0] and hash(p) == hash(presentations[0])
        assert (p._num, p.den) == ({(1, 0): 1, (0, 1): 6}, 2)
    assert len(set(presentations)) == 1
    assert Poly(2, {(0, 0): Fraction(4, 2)}) == Poly.constant(2, 2) != Poly.constant(1, 2)
    assert Poly(2, {(1, 0): 1, (0, 1): 0}) - x == Poly.zero(2) == Poly(2, {(0, 0): 0})
    assert (Poly.zero(2)._num, Poly.zero(2).den) == ({}, 1)


def test_poly_rejects_inexact_and_misshapen_terms():
    with pytest.raises(TypeError):
        Poly(1, {(1,): 0.5})
    with pytest.raises(WeilError):
        Poly(2, {(1,): 1})
    with pytest.raises(WeilError):
        Poly.variable(2, 1).substitute([Poly.variable(1, 0), Poly.variable(2, 0)])


def test_format_reads_the_terms_view_once(monkeypatch):
    """``terms`` builds one Fraction per term on every read, so a format that
    read it per term was quadratic in the terms."""
    p = (Poly.variable(2, 0) + 1) ** 20 + Poly.variable(2, 1) * Fraction(-2, 3)
    view, reads = Poly.terms, []
    monkeypatch.setattr(Poly, "terms", property(lambda self: reads.append(self) or view.fget(self)))
    text = p.format(["x", "y"])
    assert reads == [p]
    assert text.startswith("1 + 20*x - 2/3*y + 190*x^2 + ") and text.endswith(" + x^20")


# -- composition -----------------------------------------------------------------------


def test_compose_shift_and_square():
    shift = PolyMap(1, 1, [Poly(1, {(1,): Fraction(1), (0,): Fraction(1)})])
    comp = compose(shift, square())  # x -> x^2 + 1
    assert comp.components[0].terms == {(2,): Fraction(1), (0,): Fraction(1)}


def test_compose_projector_idempotent():
    p = PolyMap(2, 2, [Poly(2, {(1, 0): Fraction(1)}), Poly(2, {})])
    assert compose(p, p) == p


def test_compose_swap_involution():
    swap = PolyMap(2, 2, [Poly(2, {(0, 1): Fraction(1)}), Poly(2, {(1, 0): Fraction(1)})])
    assert compose(swap, swap) == PolyMap.identity(2)


def test_compose_rejects_closed_forms():
    # eval_map could not apply such a composite, so compose makes none
    root = ExprMap(1, 1, [Sqrt(Var(0))])
    with pytest.raises(WeilError):
        compose(root, square())
    with pytest.raises(WeilError):
        compose(square(), root)


# -- jets ----------------------------------------------------------------------------------


def _f_xy_x2() -> PolyMap:
    return PolyMap(2, 2, [Poly(2, {(1, 1): Fraction(1)}), Poly(2, {(2, 0): Fraction(1)})])


def _partials(y: dict, n: int, ctx, order: int) -> dict:
    """The mixed partials of one jet output by sorted index tuple: a! times
    the coefficient of d^a, zero where the jet has none."""
    out = {}
    for idx in itertools.combinations_with_replacement(range(n), order):
        a = tuple(idx.count(i) for i in range(n))
        c = y.get(a, ctx.zero())
        out[idx] = c * math.prod(math.factorial(e) for e in a)
    return out


def _taylor(jets, d: PointVec, k: int) -> PointVec:
    """The order-k Taylor polynomial of a jet at the displacement d."""
    ctx = d.context
    out = []
    for y in jets:
        acc = ctx.zero()
        for a, c in y.items():
            if sum(a) <= k:
                term = ctx.one()
                for x, e in zip(d, a):
                    term = term * x**e
                acc = acc + term * c
        out.append(acc)
    return PointVec(ctx, tuple(out))


def test_first_derivative_entries():
    c = make_truncated_context([])
    J = [_partials(y, 2, c, 1) for y in jet(_f_xy_x2(), c.point((5, 7)), 1)]
    assert J[0][(0,)] == c.scalar(7)
    assert J[0][(1,)] == c.scalar(5)
    assert J[1][(0,)] == c.scalar(10)
    assert J[1][(1,)] == c.scalar(0)


def test_second_derivative_mixed_partial():
    c = make_truncated_context([])
    y0, y1 = jet(_f_xy_x2(), c.point((0, 0)), 2)
    # one coefficient per monomial d1·d2, whichever order the partials take
    assert _partials(y0, 2, c, 2)[(0, 1)] == c.scalar(1)
    assert y0 == {(1, 1): c.one()}
    assert _partials(y1, 2, c, 2)[(0, 0)] == c.scalar(2)


def test_derivative_beyond_degree_is_zero():
    c = make_truncated_context([])
    for y in jet(_f_xy_x2(), c.point((3, 4)), 3):
        assert all(sum(a) <= 2 for a in y)


def test_derivative_symmetry_on_random_maps():
    # the symbolic partials in either order are the jet's one coefficient
    rng = random.Random(11)
    c = make_truncated_context([])
    for _ in range(5):
        terms = {
            m: Fraction(rng.randint(-2, 2))
            for m in itertools.product(range(4), repeat=2)
            if sum(m) <= 3
        }
        f = PolyMap(2, 1, [Poly(2, terms)])
        base = (rng.randint(-2, 2), rng.randint(-2, 2))
        (y,) = jet(f, c.point(base), 2)
        got = _partials(y, 2, c, 2)[(0, 1)]
        for first, second in ((0, 1), (1, 0)):
            mixed = poly_diff(poly_diff(poly_clean(2, terms), first), second)
            want = sum((q * base[0] ** m[0] * base[1] ** m[1] for m, q in mixed.items()),
                       Fraction(0))
            assert got == c.scalar(want)


def test_chain_rule_first_order():
    rng = random.Random(23)
    c = make_truncated_context([])

    def jacobian(f, P):
        return [_partials(y, 2, c, 1) for y in jet(f, P, 1)]

    for _ in range(5):
        def rp():
            return Poly(
                2,
                {
                    m: Fraction(rng.randint(-2, 2), rng.randint(1, 3))
                    for m in itertools.product(range(3), repeat=2)
                    if sum(m) <= 2
                },
            )

        g = PolyMap(2, 2, [rp(), rp()])
        f = PolyMap(2, 2, [rp(), rp()])
        Q = c.point((rng.randint(-1, 1), rng.randint(-1, 1)))
        Jg, Jf, Jc = jacobian(g, Q), jacobian(f, eval_map(g, Q)), jacobian(compose(f, g), Q)
        for i in range(2):
            for j in range(2):
                want = sum((Jf[i][(a,)] * Jg[a][(j,)] for a in range(2)), c.zero())
                assert Jc[i][(j,)] == want


def test_jet_order_must_be_positive():
    c = make_truncated_context([])
    with pytest.raises(WeilError):
        jet(square(), c.point((1,)), 0)


def test_two_jets_at_points_of_one_context_build_one_jet_context(monkeypatch):
    """The base context holds the context a jet adjoins to it, so a second
    jet of the same order and dimension builds no context."""
    c = make_truncated_context([("e", 2, 2)])
    built = []
    init = weil.WeilContext.__init__
    monkeypatch.setattr(weil.WeilContext, "__init__",
                        lambda self, *args: built.append(args) or init(self, *args))
    f = PolyMap(2, 1, [Poly(2, {(2, 0): 1, (1, 1): Fraction(1, 3)})])
    first = jet(f, c.point((1, c.gen(0))), 2)
    second = jet(f, c.point((c.gen(1), 2)), 2)
    assert len(built) == 1 and built[0][0][-2:] == ("∂1", "∂2")
    assert first != second and first[0][(0, 0)] == 1 + c.gen(0) / 3
    assert jet(f, c.point((1, c.gen(0))), 2) == first and len(built) == 1
    jet(f, c.point((1, 2)), 3)  # another order adjoins another block
    assert len(built) == 2


# -- Taylor representation -----------------------------------------------------------------


def test_taylor_matches_eval_cap_one():
    c = make_truncated_context([("e", 1, 1)])
    Q = c.point((1,))
    d = PointVec(c, (c.gen(0),))
    got = _taylor(jet(square(), Q, 1), d, 1)
    assert got == eval_map(square(), Q + d)
    assert got[0] == c.one() + c.gen(0) * 2


def test_taylor_drops_cubic_term_exactly():
    c = make_truncated_context([("e", 1, 2)])
    cube = PolyMap(1, 1, [Poly(1, {(3,): Fraction(1)})])
    Q = c.point((0,))
    d = PointVec(c, (c.gen(0),))
    got = _taylor(jet(cube, Q, 2), d, 2)
    assert got[0].is_zero()
    assert got == eval_map(cube, Q + d)


def test_taylor_exactness_generic():
    rng = random.Random(7)
    for n, k in [(1, 1), (2, 1), (2, 2), (1, 3)]:
        _, d = generic_Dk_vector(n, k)
        ctx = d.context
        Q = ctx.point([rng.randint(-2, 2) for _ in range(n)])
        for _ in range(4):
            f = PolyMap(
                n,
                2,
                [
                    Poly(
                        n,
                        {
                            m: Fraction(rng.randint(-2, 2), rng.randint(1, 3))
                            for m in itertools.product(range(k + 2), repeat=n)
                            if sum(m) <= k + 1
                        },
                    )
                    for _ in range(2)
                ],
            )
            assert _taylor(jet(f, Q, k), d, k) == eval_map(f, Q + d)


def test_taylor_truncation_needs_an_infinitesimal():
    # d is in D_2 but not D_1: the order-1 Taylor polynomial misses d^2,
    # and the order-2 one is exact
    c = make_truncated_context([("e", 1, 2)])
    Q = c.point((0,))
    d = PointVec(c, (c.gen(0),))
    jets = jet(square(), Q, 2)
    assert _taylor(jets, d, 1) != eval_map(square(), Q + d)
    assert _taylor(jets, d, 2) == eval_map(square(), Q + d)


def test_first_order_difference_law():
    # f(P+d) - f(P) = f'(P)[d] for nil-square displacements
    rng = random.Random(3)
    _, d = generic_Dk_vector(2, 1)
    ctx = d.context
    P = ctx.point((2, -1))
    for _ in range(5):
        f = PolyMap(
            2,
            2,
            [
                Poly(
                    2,
                    {
                        m: Fraction(rng.randint(-2, 2), rng.randint(1, 4))
                        for m in itertools.product(range(4), repeat=2)
                        if sum(m) <= 3
                    },
                )
                for _ in range(2)
            ],
        )
        lhs = eval_map(f, P + d) - eval_map(f, P)
        jets = [{a: c for a, c in y.items() if sum(a) == 1} for y in jet(f, P, 1)]
        assert lhs == _taylor(jets, d, 1)


# jets at non-rational points: two truncated blocks, a nil-square model, and a
# scenario's context, whose quotient block's relations keep some degree-2 and
# degree-3 monomials alive
_SCENARIO_CONTEXT = """version 1
block d vars 1 cap 2
quotient w vars 2 degcap 3 relations { w[1]^2 - w[2]^2, w[1]*w[2]^2 }
"""
_JET_CONTEXTS = {
    "blocks": lambda: make_truncated_context([("a", 2, 1), ("b", 1, 2)]),
    "nilsquare": lambda: generic_nilsquare_tuple(2, 3)[0],
    "scenario": lambda: build_env(parse_scenario(_SCENARIO_CONTEXT)).context,
}


def _jet_point(data, ctx, n: int) -> PointVec:
    """A point whose coordinates are rationals plus random multiples of the
    generators, some of them nonzero."""
    units = [tuple(int(i == g) for i in range(ctx.ngens)) for g in range(ctx.ngens)]
    coords = []
    for _ in range(n):
        raw = {(0,) * ctx.ngens: data.draw(_Q)}
        raw.update(data.draw(st.dictionaries(st.sampled_from(units), _Q, min_size=1, max_size=3)))
        coords.append(ctx.element(raw))
    return PointVec(ctx, tuple(coords))


@settings(max_examples=60, deadline=None, derandomize=True)
@given(st.data())
def test_point_jet_agrees_with_symbolic_derivatives(data):
    """The jet of a random polynomial map at a point with nilpotent parts,
    against symbolic differentiation evaluated by direct sums."""
    ctx = _JET_CONTEXTS[data.draw(st.sampled_from(sorted(_JET_CONTEXTS)))]()
    n, out_dim = data.draw(st.integers(1, 2)), data.draw(st.integers(1, 2))
    order = data.draw(st.integers(1, 3))
    exps = st.tuples(*[st.integers(0, 3)] * n)
    comps = [Poly(n, data.draw(st.dictionaries(exps, _Q, max_size=4))) for _ in range(out_dim)]
    P = _jet_point(data, ctx, n)
    want = symbolic_jet([p.terms for p in comps], P.coords, ctx.one(), order)
    assert jet(PolyMap(n, out_dim, comps), P, order) == want


@settings(max_examples=60, deadline=None, derandomize=True)
@given(st.data())
def test_one_body_has_one_jet_as_expression_and_as_polynomial(data):
    ctx = _JET_CONTEXTS[data.draw(st.sampled_from(sorted(_JET_CONTEXTS)))]()
    n, order = data.draw(st.integers(1, 2)), data.draw(st.integers(1, 3))
    tree = data.draw(_exprs(n))
    try:
        poly = expr_to_poly(tree, n)
    except ZeroDivisionError:
        poly = None
    assume(poly is not None)
    P = _jet_point(data, ctx, n)
    assert jet(ExprMap(n, 1, [tree]), P, order) == jet(PolyMap(n, 1, [poly]), P, order)


def test_jet_of_a_callable_is_its_jet_as_a_map():
    f = _f_xy_x2()
    c = make_truncated_context([("e", 1, 1)])
    P = c.point((2, 3)) + PointVec(c, (c.gen(0), c.zero()))
    assert jet(lambda X: eval_map(f, X), P, 2) == jet(f, P, 2)
    assert jet(f, P, 2)[1][(0, 0)] == (c.scalar(2) + c.gen(0)) ** 2


# -- expression maps ------------------------------------------------------------------------


def test_expr_map_circle_idempotent_at_base():
    norm = Sqrt(Add(Mul(Var(0), Var(0)), Mul(Var(1), Var(1))))
    e = ExprMap(2, 2, (Div(Var(0), norm), Div(Var(1), norm)))
    c = make_truncated_context([("d", 2, 2)])
    P = PointVec(
        c,
        (c.scalar(Fraction(3, 5)) + c.gen(0), c.scalar(Fraction(4, 5)) + c.gen(1)),
    )
    out = eval_map(e, P)
    again = eval_map(e, out)
    assert again == out  # e is exactly idempotent in Weil arithmetic
    norm_sq = out[0] * out[0] + out[1] * out[1]
    assert norm_sq == c.one()


def test_expr_map_sqrt_precondition():
    e = ExprMap(1, 1, (Sqrt(Var(0)),))
    c = make_truncated_context([])
    with pytest.raises(WeilError):
        eval_map(e, c.point((2,)))  # 2 is not a rational square


def test_expr_to_poly_round_trip():
    node = Add(Mul(Var(0), Var(0)), Var(1))
    p = expr_to_poly(node, 2)
    assert p is not None and p.terms == {(2, 0): Fraction(1), (0, 1): Fraction(1)}
    assert expr_to_poly(Sqrt(Var(0)), 1) is None
    # a quotient by a zeroth power is one by the constant 1
    assert expr_to_poly(Div(Mul(Const(2), Var(0)), Power(Var(1), 0)), 2) == 2 * Poly.variable(2, 0)
