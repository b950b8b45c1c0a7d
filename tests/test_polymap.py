"""Polynomial/expression maps: evaluation, composition, derivatives, Taylor."""

import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from weilaff import (
    Add,
    Div,
    DimensionMismatchError,
    ExprMap,
    Mul,
    Poly,
    PolyMap,
    PointVec,
    Sqrt,
    Var,
    WeilError,
    compose,
    derivative_tensor,
    eval_map,
    expr_to_poly,
    generic_Dk_vector,
    make_truncated_context,
    point_jet,
    taylor_eval,
)

from _oracles import as_dense, dense_add, dense_mul, dense_pow, dense_scale


def square() -> PolyMap:
    return PolyMap(1, 1, [Poly(1, {(2,): Fraction(1)})])


def test_eval_square_on_cap_one():
    c = make_truncated_context([("e", 1, 1)])
    P = PointVec(c, (c.scalar(3) + c.gen(0),))
    out = eval_map(square(), P)
    assert out[0] == c.scalar(9) + c.gen(0) * 6


_Q = st.fractions(min_value=Fraction(-5, 2), max_value=Fraction(5, 2), max_denominator=6)


@settings(max_examples=80, derandomize=True)
@given(st.data())
def test_eval_map_is_the_sum_of_coefficients_times_powers(data):
    """Against dense arithmetic: component j at P is the sum of c * prod P[i]**e."""
    n, out_dim = data.draw(st.integers(1, 3)), data.draw(st.integers(1, 2))
    c = make_truncated_context([("e", 2, data.draw(st.integers(1, 3)))])
    ngens, cap = c.ngens, c.max_degree
    gens = [(0,) * ngens] + [tuple(int(i == g) for i in range(ngens)) for g in range(ngens)]
    coord = st.dictionaries(st.sampled_from(gens), _Q, max_size=3).map(c.element)
    P = PointVec(c, tuple(data.draw(coord) for _ in range(n)))
    exps = st.tuples(*[st.integers(0, 3)] * n)
    comps = [Poly(n, data.draw(st.dictionaries(exps, _Q, max_size=5))) for _ in range(out_dim)]
    got = eval_map(PolyMap(n, out_dim, comps), P)
    for p, y in zip(comps, got):
        want = {}
        for m, q in p.terms.items():
            term = {(0,) * ngens: Fraction(1)}
            for x, e in zip(P, m):
                term = dense_mul(term, dense_pow(as_dense(x), e, cap, ngens), cap)
            want = dense_add(want, dense_scale(term, q))
        assert as_dense(y) == want


def test_eval_cube_against_dense_oracle():
    c = make_truncated_context([("e", 1, 2)])
    cube = PolyMap(1, 1, [Poly(1, {(3,): Fraction(1)})])
    P = PointVec(c, (c.one() + c.gen(0),))
    out = eval_map(cube, P)
    want = dense_pow(as_dense(P[0]), 3, c.max_degree, c.ngens)
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


# -- derivative tensors ------------------------------------------------------------------


def _f_xy_x2() -> PolyMap:
    return PolyMap(2, 2, [Poly(2, {(1, 1): Fraction(1)}), Poly(2, {(2, 0): Fraction(1)})])


def test_first_derivative_entries():
    c = make_truncated_context([])
    Q = c.point((5, 7))
    J = derivative_tensor(_f_xy_x2(), Q, 1)
    assert J.entry(0, (0,)) == c.scalar(7)
    assert J.entry(0, (1,)) == c.scalar(5)
    assert J.entry(1, (0,)) == c.scalar(10)
    assert J.entry(1, (1,)) == c.scalar(0)


def test_second_derivative_mixed_partial():
    c = make_truncated_context([])
    H = derivative_tensor(_f_xy_x2(), c.point((0, 0)), 2)
    assert H.entry(0, (0, 1)) == c.scalar(1)
    assert H.entry(0, (1, 0)) == c.scalar(1)  # symmetric access
    assert H.entry(1, (0, 0)) == c.scalar(2)


def test_derivative_beyond_degree_is_zero():
    c = make_truncated_context([])
    T = derivative_tensor(_f_xy_x2(), c.point((3, 4)), 3)
    for i in range(2):
        for idx in itertools.combinations_with_replacement(range(2), 3):
            assert T.entry(i, idx).is_zero()


def test_derivative_symmetry_on_random_maps():
    rng = random.Random(11)
    c = make_truncated_context([])
    for _ in range(5):
        f = PolyMap(
            2,
            1,
            [
                Poly(
                    2,
                    {
                        m: Fraction(rng.randint(-2, 2))
                        for m in itertools.product(range(4), repeat=2)
                        if sum(m) <= 3
                    },
                )
            ],
        )
        Q = c.point((rng.randint(-2, 2), rng.randint(-2, 2)))
        T = derivative_tensor(f, Q, 2)
        for idx in itertools.product(range(2), repeat=2):
            assert T.entry(0, idx) == T.entry(0, tuple(reversed(idx)))


def test_chain_rule_first_order():
    rng = random.Random(23)
    c = make_truncated_context([])
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
        gQ = eval_map(g, Q)
        Jg = derivative_tensor(g, Q, 1)
        Jf = derivative_tensor(f, gQ, 1)
        Jc = derivative_tensor(compose(f, g), Q, 1)
        for i in range(2):
            for j in range(2):
                want = sum(
                    (Jf.entry(i, (a,)) * Jg.entry(a, (j,)) for a in range(2)),
                    c.zero(),
                )
                assert Jc.entry(i, (j,)) == want


# -- Taylor representation -----------------------------------------------------------------


def test_taylor_matches_eval_cap_one():
    c = make_truncated_context([("e", 1, 1)])
    Q = c.point((1,))
    d = PointVec(c, (c.gen(0),))
    got = taylor_eval(square(), Q, d, 1)
    assert got == eval_map(square(), Q + d)
    assert got[0] == c.one() + c.gen(0) * 2


def test_taylor_drops_cubic_term_exactly():
    c = make_truncated_context([("e", 1, 2)])
    cube = PolyMap(1, 1, [Poly(1, {(3,): Fraction(1)})])
    Q = c.point((0,))
    d = PointVec(c, (c.gen(0),))
    got = taylor_eval(cube, Q, d, 2)
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
            assert taylor_eval(f, Q, d, k) == eval_map(f, Q + d)


def test_taylor_rejects_non_infinitesimal():
    c = make_truncated_context([("e", 1, 2)])
    Q = c.point((0,))
    d = PointVec(c, (c.gen(0),))  # in D_2 but not D_1
    with pytest.raises(WeilError):
        taylor_eval(square(), Q, d, 1)


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
        rhs = derivative_tensor(f, P, 1).apply([d])
        assert lhs == rhs


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


def test_point_jet_agrees_with_symbolic_derivatives():
    # closed-form route: evaluate f on base + fresh jet generators and read
    # Taylor coefficients; must match the symbolic tensor entries exactly
    f = _f_xy_x2()
    base = (Fraction(2), Fraction(3))
    value, tensors = point_jet(f, base, 2, 2)
    c = make_truncated_context([])
    assert value == eval_map(f, c.point(base)).rational_coords()
    J = derivative_tensor(f, c.point(base), 1)
    H = derivative_tensor(f, c.point(base), 2)
    for i in range(2):
        for a in range(2):
            assert tensors[1].get((i, (a,)), Fraction(0)) == J.entry(i, (a,)).constant_term
            for b in range(a, 2):
                assert (
                    tensors[2].get((i, (a, b)), Fraction(0))
                    == H.entry(i, (a, b)).constant_term
                )
