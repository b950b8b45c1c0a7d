"""Core algebra: contexts, ring ops, inversion, sqrt, matrices, quotients."""

import decimal
import gc
import itertools
import math
import random
import weakref
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import assume, given, settings, strategies as st

from weilaff import (
    ContextMismatchError,
    NonInvertibleError,
    NotASquareError,
    PointVec,
    SingularMatrixError,
    WeilError,
    generic_nilsquare_tuple,
    generic_symmetric_Ak_tuple,
    in_A_k,
    invert,
    make_quotient_context,
    make_truncated_context,
    mat_inverse,
    mat_mul,
    monomials_of_degree,
    sqrt,
)
from weilaff import neighborhoods, weil
from weilaff.weil import WeilElement, _contract, _decimal, _lincomb

from _oracles import (
    as_dense,
    cap_relations,
    contract,
    dense_add,
    dense_mul,
    dense_pow,
    dense_scale,
    ideal_membership,
    matrix_inverse,
    monomials_up_to,
    nilsquare_relations,
    reduces_to_zero,
    symmetric_relations,
)


def ctx1():
    return make_truncated_context([("eps", 1, 1)])


def ctx2():
    return make_truncated_context([("eps", 2, 2)])


# -- truncated contexts ---------------------------------------------------------------


def test_cap_one_square_vanishes():
    c = ctx1()
    e = c.gen(0)
    assert (e * e).is_zero()
    assert ((c.one() + e) * (c.one() - e)) == c.one()


def test_single_block_cap_two():
    c = ctx2()
    e1, e2 = c.gen(0), c.gen(1)
    assert not (e1 * e2).is_zero()
    assert (e1 * e1 * e2).is_zero()  # degree 3 exceeds the shared cap


def test_independent_blocks():
    c = make_truncated_context([("a", 1, 1), ("b", 1, 1)])
    a, b = c.gen(0), c.gen(1)
    assert not (a * b).is_zero()
    assert (a * a).is_zero()
    assert (b * b).is_zero()


def test_duplicate_block_name_rejected():
    with pytest.raises(WeilError):
        make_truncated_context([("a", 1, 1), ("a", 2, 1)])


def test_zero_generator_count_rejected():
    with pytest.raises(WeilError):
        make_truncated_context([("a", 0, 1)])


def test_nilpotency_of_long_products():
    c = make_truncated_context([("a", 2, 1), ("b", 1, 2)])
    total = 1 + 2  # sum of caps
    prod = c.one()
    for i in range(total + 1):
        prod = prod * c.gen(i % 3)
    assert prod.is_zero()


def test_formatting_matches_the_reported_style():
    c = ctx1()
    assert str((c.one() + c.gen(0)) ** 2) == "1 + 2·eps"
    cc = make_truncated_context([("eps", 2, 1)])
    assert str((cc.one() + cc.gen(0)) ** 2) == "1 + 2·eps1"


# -- ring laws (property-based) -------------------------------------------------------


def _elements(ctx):
    monos = monomials_up_to(ctx.ngens, ctx.degree_cap)
    coeff = st.fractions(
        min_value=Fraction(-2), max_value=Fraction(2), max_denominator=5
    )
    return st.dictionaries(st.sampled_from(monos), coeff, max_size=4).map(
        lambda d: ctx.element(d)
    )


LAW_CTX = make_truncated_context([("e", 2, 2)])


@settings(max_examples=60, derandomize=True)
@given(_elements(LAW_CTX), _elements(LAW_CTX), _elements(LAW_CTX))
def test_ring_laws(x, y, z):
    assert x + y == y + x
    assert (x + y) + z == x + (y + z)
    assert x * y == y * x
    assert (x * y) * z == x * (y * z)
    assert x * (y + z) == x * y + x * z
    assert x + LAW_CTX.zero() == x
    assert x * LAW_CTX.one() == x
    assert x - x == LAW_CTX.zero()


@settings(max_examples=40, derandomize=True)
@given(_elements(LAW_CTX), _elements(LAW_CTX))
def test_mul_against_dense_oracle(x, y):
    got = as_dense(x * y)
    want = dense_mul(as_dense(x), as_dense(y), LAW_CTX.degree_cap)
    assert got == want


def test_pow_against_dense_oracle():
    c = ctx2()
    x = c.one() + c.gen(0) + c.gen(1) * Fraction(1, 3)
    for e in range(5):
        assert as_dense(x**e) == dense_pow(as_dense(x), e, c.degree_cap, c.ngens)


def test_pow_makes_a_square_per_bit_and_a_product_per_set_bit(monkeypatch):
    c = ctx2()
    x = c.one() + c.gen(0) + c.gen(1) * Fraction(1, 3)
    products = 0
    plain = WeilElement.__mul__

    def counted(self, other):
        nonlocal products
        products += 1
        return plain(self, other)

    monkeypatch.setattr(WeilElement, "__mul__", counted)
    for e in range(1, 10):
        products = 0
        got = x**e
        assert products == e.bit_length() - 1 + e.bit_count() - 1, e
        assert as_dense(got) == dense_pow(as_dense(x), e, c.degree_cap, c.ngens)


def test_pow_cap_two_example():
    c = make_truncated_context([("e", 1, 2)])
    e = c.gen(0)
    assert (c.one() + e) ** 3 == c.one() + e * 3 + e * e * 3


# -- invert / sqrt ---------------------------------------------------------------------


def test_invert_constant():
    c = ctx1()
    assert invert(c.scalar(2)) == c.scalar(Fraction(1, 2))


def test_invert_cap_one():
    c = ctx1()
    assert invert(c.one() + c.gen(0)) == c.one() - c.gen(0)


def test_invert_cap_two():
    c = make_truncated_context([("e", 1, 2)])
    e = c.gen(0)
    x = c.one() + e
    assert invert(x) == c.one() - e + e * e
    assert x * invert(x) == c.one()


@settings(max_examples=40, derandomize=True)
@given(_elements(LAW_CTX))
def test_invert_round_trip(x):
    x = x + LAW_CTX.scalar(3)  # force a nonzero constant term
    assert x * invert(x) == LAW_CTX.one()


def test_invert_nonunit_rejected():
    c = ctx1()
    with pytest.raises(NonInvertibleError):
        invert(c.gen(0))


def test_sqrt_values():
    c = ctx1()
    assert sqrt(c.scalar(4)) == c.scalar(2)
    e = c.gen(0)
    assert sqrt(c.one() + e) == c.one() + e * Fraction(1, 2)
    c2 = make_truncated_context([("e", 1, 2)])
    e2 = c2.gen(0)
    r = sqrt(c2.one() + e2)
    assert r == c2.one() + e2 * Fraction(1, 2) - e2 * e2 * Fraction(1, 8)
    assert r * r == c2.one() + e2


@settings(max_examples=40, derandomize=True)
@given(_elements(LAW_CTX))
def test_sqrt_round_trip(x):
    x = (x + LAW_CTX.scalar(Fraction(7, 2))) ** 2  # constant term a nonzero square
    r = sqrt(x)
    assert r * r == x
    assert r.constant_term > 0


def test_sqrt_rejects_non_squares():
    c = ctx1()
    with pytest.raises(NotASquareError):
        sqrt(c.scalar(2))
    with pytest.raises(NotASquareError):
        sqrt(c.gen(0))


# -- matrices ---------------------------------------------------------------------------


def test_mat_inverse_rational():
    c = ctx1()
    M = [[c.scalar(2), c.scalar(1)], [c.scalar(1), c.scalar(1)]]
    inv = mat_inverse(M)
    assert inv == [[c.scalar(1), c.scalar(-1)], [c.scalar(-1), c.scalar(2)]]


def test_mat_inverse_weil_and_round_trip():
    c = ctx1()
    e = c.gen(0)
    M = [[c.one() + e, c.zero()], [c.zero(), c.one()]]
    inv = mat_inverse(M)
    assert inv == [[c.one() - e, c.zero()], [c.zero(), c.one()]]
    ident = mat_mul(M, inv)
    assert ident == [[c.one(), c.zero()], [c.zero(), c.one()]]


def test_mat_inverse_builds_no_product_with_a_constant(monkeypatch):
    # a dense 3x3 matrix over cap 2: B = -C^-1 N has no constant part, so
    # B^3 vanishes and the series needs B^2 alone, 27 products; C^-1 enters
    # as weights
    c = make_truncated_context([("d", 3, 2)])
    rng = random.Random(5)
    d = c.gens()
    M = [[c.scalar(Fraction(rng.randint(-3, 3), rng.randint(1, 3)) + 3 * (i == j))
          + sum((d[k] * Fraction(rng.randint(1, 4), rng.randint(1, 3)) for k in range(3)),
                c.zero())
          + d[i] * d[j] * rng.randint(-2, 2)
          for j in range(3)] for i in range(3)]
    calls = []
    mul = WeilElement.__mul__
    monkeypatch.setattr(WeilElement, "__mul__", lambda x, y: calls.append(1) or mul(x, y))
    inv = mat_inverse(M)
    assert len(calls) == 27
    monkeypatch.undo()
    ident = [[c.scalar(int(i == j)) for j in range(3)] for i in range(3)]
    assert mat_mul(M, inv) == ident and mat_mul(inv, M) == ident


_ENTRY = st.one_of(st.integers(-3, 3), st.fractions(min_value=-4, max_value=4, max_denominator=30))


@settings(max_examples=60, derandomize=True)
@given(st.data())
def test_mat_inverse_of_constant_matrices_matches_the_fraction_oracle(data):
    """With no nilpotent part M^-1 is C^-1, built with no product."""
    n = data.draw(st.integers(1, 4))
    C = [[data.draw(_ENTRY) for _ in range(n)] for _ in range(n)]
    c = make_truncated_context([("d", 2, 2)])
    want = matrix_inverse(C)
    calls = []
    mul = WeilElement.__mul__
    with mock.patch.object(WeilElement, "__mul__", lambda x, y: calls.append(1) or mul(x, y)):
        if want is None:
            with pytest.raises(SingularMatrixError):
                mat_inverse([[c.scalar(q) for q in row] for row in C])
            return
        got = mat_inverse([[c.scalar(q) for q in row] for row in C])
    assert calls == []
    assert [[x.coeffs for x in row] for row in got] == [
        [{(0, 0): q} if q else {} for q in row] for row in want]


def test_mat_inverse_singular_rejected():
    c = ctx1()
    M = [[c.one(), c.one()], [c.one(), c.one()]]
    with pytest.raises(SingularMatrixError):
        mat_inverse(M)


# -- quotient contexts -------------------------------------------------------------------


def test_quotient_uv_zero():
    # u^2 = v^2 = 2uv = 0 kills every degree-2 monomial
    rels = [{(2, 0): Fraction(1)}, {(0, 2): Fraction(1)}, {(1, 1): Fraction(2)}]
    c = make_quotient_context(["u", "v"], rels, 3)
    u, v = c.gen(0), c.gen(1)
    assert (u * v).is_zero()
    assert (u * u).is_zero()


def test_quotient_antisymmetric_products_survive():
    # u_i u_j = 0, v_i v_j = 0, u_i v_j + u_j v_i = 0: u1 v2 = -u2 v1 != 0
    def mono(*pairs):
        m = [0, 0, 0, 0]
        for i in pairs:
            m[i] += 1
        return tuple(m)

    rels = []
    for i in range(2):
        for j in range(i, 2):
            rels.append({mono(i, j): Fraction(1)})          # u_i u_j
            rels.append({mono(2 + i, 2 + j): Fraction(1)})  # v_i v_j
    for i in range(2):
        for j in range(2):
            rel = {}
            for a, b in ((i, 2 + j), (j, 2 + i)):
                key = mono(a, b)
                rel[key] = rel.get(key, Fraction(0)) + 1
            rels.append(rel)
    c = make_quotient_context(["u1", "u2", "v1", "v2"], rels, 4)
    u1, u2, v1, v2 = (c.gen(i) for i in range(4))
    assert not (u1 * v2).is_zero()
    assert u1 * v2 == -(u2 * v1)
    assert (u1 * v1).is_zero()


def test_quotient_empty_relations_is_truncation():
    c = make_quotient_context(["t"], [], 2)
    t = c.gen(0)
    assert not (t * t).is_zero()
    assert (t * t * t).is_zero()


def test_quotient_rejects_inhomogeneous_relation():
    with pytest.raises(WeilError):
        make_quotient_context(["t"], [{(1,): Fraction(1), (2,): Fraction(1)}], 3)


def test_quotient_soundness_against_dense_elimination():
    """A monomial normalizes to zero iff it lies in the relation span."""
    rels = [
        {(2, 0, 0): Fraction(1)},
        {(1, 1, 0): Fraction(1), (0, 1, 1): Fraction(2)},
        {(0, 0, 2): Fraction(1)},
    ]
    cap = 3
    c = make_quotient_context(["x", "y", "z"], rels, cap)
    for mono in monomials_up_to(3, cap):
        if sum(mono) == 0:
            continue
        el = c.element({mono: Fraction(1)})
        expected = reduces_to_zero({mono: Fraction(1)}, rels, 3, cap)
        assert el.is_zero() == expected, mono
    # every relation reduces to zero, and so does every multiple
    for rel in rels:
        assert c.element(rel).is_zero()
        shifted = {tuple(m[i] + (1 if i == 1 else 0) for i in range(3)): q
                   for m, q in rel.items()}
        assert c.element(shifted).is_zero()


def test_quotient_products_stay_congruent():
    """Library product minus dense product lies in the ideal."""
    rels = [{(2, 0): Fraction(1)}, {(0, 2): Fraction(1)}]
    cap = 4
    c = make_quotient_context(["u", "v"], rels, cap)
    x = c.one() + c.gen(0) + c.gen(1) * Fraction(2, 3)
    y = c.gen(0) * Fraction(1, 2) + c.gen(0) * c.gen(1)
    got = as_dense(x * y)
    raw = dense_mul(as_dense(x), as_dense(y), cap)
    diff = dict(raw)
    for m, q in got.items():
        diff[m] = diff.get(m, Fraction(0)) - q
    diff = {m: q for m, q in diff.items() if q}
    assert reduces_to_zero(diff, rels, 2, cap)


# -- mixed contexts: block caps plus relations ---------------------------------------------

# d1, d2 capped at 2; u1..u4 capped at 3 and carrying the nil-square relations
# of a 3-tuple in R^2.  Total cap 5, so both block caps bind.
MIXED_BLOCKS = [("d", 2, 2), ("u", 4, 3)]
MIXED_RELS = nilsquare_relations(2, 3, ngens=6, offset=2)
MIXED_CAP = 5


@pytest.fixture(scope="module")
def mixed_member():
    # the old lowering, kept as the reference: caps listed as monomial relations
    caps = cap_relations([(0, 2, 2), (2, 4, 3)], 6)
    return ideal_membership(MIXED_RELS + caps, 6, MIXED_CAP)


def test_mixed_context_monomials_match_oracle(mixed_member):
    c = make_truncated_context(MIXED_BLOCKS, MIXED_RELS)
    assert c.degree_cap == MIXED_CAP
    for mono in monomials_up_to(6, MIXED_CAP):
        el = c.element({mono: Fraction(1)})
        assert el.is_zero() == mixed_member({mono: Fraction(1)}), mono


def test_mixed_context_products_stay_congruent(mixed_member):
    rng = random.Random(7)
    c = make_truncated_context(MIXED_BLOCKS, MIXED_RELS)
    monos = monomials_up_to(6, 3)

    def draw():
        return c.element(
            {rng.choice(monos): Fraction(rng.randint(-3, 3), rng.randint(1, 3)) for _ in range(6)}
        )

    for _ in range(8):
        x, y = draw(), draw()
        got = as_dense(x * y)
        diff = dense_mul(as_dense(x), as_dense(y), MIXED_CAP)
        for m, q in got.items():
            diff[m] = diff.get(m, Fraction(0)) - q
        assert mixed_member(diff)


def test_relation_across_blocks_reduces_over_surviving_monomials():
    # a*b + b^2 = 0 with a^2 = 0 and b^3 = 0: its multiples a^2*b + a*b^2 and
    # a*b^2 + b^3 both leave a*b^2 = 0 once the capped monomials drop out
    rels = [{(1, 1): Fraction(1), (0, 2): Fraction(1)}]
    c = make_truncated_context([("a", 1, 1), ("b", 1, 2)], rels)
    a, b = c.gens()
    assert a * b == -(b * b)
    assert (a * b * b).is_zero()
    member = ideal_membership(rels + cap_relations([(0, 1, 1), (1, 1, 2)], 2), 2, 3)
    for mono in monomials_up_to(2, 3):
        assert c.element({mono: Fraction(1)}).is_zero() == member({mono: Fraction(1)}), mono


def test_one_block_truncation_is_relation_free_quotient():
    a = make_truncated_context([("t", 1, 2)])
    b = make_quotient_context(["t"], [], 2)
    assert a == b and hash(a) == hash(b)
    assert a.gen(0) + b.gen(0) == a.gen(0) * 2


# -- elements and points ------------------------------------------------------------------


def test_normal_form_idempotence():
    c = make_quotient_context(["u", "v"], [{(1, 1): Fraction(1)}], 3)
    x = c.element({(1, 1): Fraction(5), (1, 0): Fraction(1)})
    assert c.element(dict(x.coeffs)) == x


def test_context_mismatch_rejected():
    a = make_truncated_context([("eps", 1, 1)])
    b = make_truncated_context([("eps", 1, 2)])
    with pytest.raises(ContextMismatchError):
        a.gen(0) + b.gen(0)


def test_structurally_equal_contexts_interoperate():
    # contexts are value objects: two equal constructions share an algebra
    a, b = ctx1(), ctx1()
    assert a.gen(0) + b.gen(0) == a.gen(0) * 2


def test_point_vec_arithmetic_and_rational_coords():
    c = ctx2()
    P = c.point((1, Fraction(1, 2)))
    Q = PointVec(c, (c.gen(0), c.gen(1)))
    R = P + Q
    assert (R - P) == Q
    assert P.rational_coords() == (Fraction(1), Fraction(1, 2))
    assert (2 * Q)[0] == c.gen(0) * 2
    with pytest.raises(WeilError):
        R.rational_coords()  # nilpotent coordinates have no rational value


# -- integer numerators over one denominator -------------------------------------------

# Truncated, mixed-block and quotient contexts, each with its ideal as plain
# data for the oracles: block caps as monomial relations, plus the relations
# themselves.  The nil-square relations reduce with unit pivots; the scaled
# ones give pivot coefficients up to 6.
NILSQ_RELS = nilsquare_relations(2, 3)
SCALED_RELS = [
    {(2, 0, 0): Fraction(2), (0, 1, 1): Fraction(3)},
    {(1, 1, 0): Fraction(3), (0, 0, 2): Fraction(-5, 2)},
    {(0, 2, 0): Fraction(1, 3)},
]
KERNEL_CASES = {
    "truncated": (make_truncated_context([("e", 3, 2)]), [(0, 3, 2)], []),
    "mixed-blocks": (make_truncated_context([("a", 2, 1), ("b", 2, 2)]), [(0, 2, 1), (2, 2, 2)], []),
    "quotient": (make_quotient_context(["p1", "p2", "q1", "q2"], NILSQ_RELS, 3), [], NILSQ_RELS),
    "quotient-scaled": (make_quotient_context(["x", "y", "z"], SCALED_RELS, 3), [], SCALED_RELS),
}
QUOTIENT_CASES = ["quotient", "quotient-scaled"]
_MEMBERS = {}


def _member(case):
    if case not in _MEMBERS:
        ctx, blocks, rels = KERNEL_CASES[case]
        _MEMBERS[case] = ideal_membership(
            rels + cap_relations(blocks, ctx.ngens), ctx.ngens, ctx.degree_cap
        )
    return _MEMBERS[case]


def _oracle_product(case, x, y):
    """The dense product, with its monomials in the ideal dropped when the
    ideal is monomial (no relations beyond the caps)."""
    ctx, _, rels = KERNEL_CASES[case]
    raw = dense_mul(as_dense(x), as_dense(y), ctx.degree_cap)
    if rels:
        return raw
    member = _member(case)
    return {m: c for m, c in raw.items() if not member({m: Fraction(1)})}


def _assert_canonical(x):
    assert x.den > 0
    assert math.gcd(x.den, *x.num.values()) == 1
    assert all(isinstance(c, int) and c for c in x.num.values())
    if x.is_zero():
        assert (x.num, x.den) == ({}, 1)
    assert x.context.element(x.coeffs) == x


def _in_ideal(case, vec):
    return _member(case)({m: c for m, c in vec.items() if c})


_COEFF = st.fractions(min_value=Fraction(-7, 2), max_value=Fraction(7, 2), max_denominator=12)


def _case_elements(case):
    ctx = KERNEL_CASES[case][0]
    monos = monomials_up_to(ctx.ngens, ctx.degree_cap)
    return st.dictionaries(st.sampled_from(monos), _COEFF, max_size=6).map(ctx.element)


CASE = st.sampled_from(sorted(KERNEL_CASES))


@settings(max_examples=120, derandomize=True)
@given(st.data())
def test_elements_stay_canonical(data):
    case = data.draw(CASE)
    x, y = data.draw(_case_elements(case)), data.draw(_case_elements(case))
    q = data.draw(_COEFF)
    for z in (x, y, x + y, x - y, x * y, x * q, q * y, -x, x - x, x.nilpotent_part()):
        _assert_canonical(z)


@settings(max_examples=120, derandomize=True)
@given(st.data())
def test_kernel_against_dense_oracle(data):
    case = data.draw(CASE)
    ctx, _, rels = KERNEL_CASES[case]
    x, y = data.draw(_case_elements(case)), data.draw(_case_elements(case))
    q = data.draw(_COEFF)
    # reduction is linear, so sums and scalar multiples of normal forms are normal forms
    assert as_dense(x + y) == dense_add(as_dense(x), as_dense(y))
    assert as_dense(x * q) == dense_scale(as_dense(x), q)
    got, want = as_dense(x * y), _oracle_product(case, x, y)
    if not rels:
        assert got == want
    else:
        diff = dense_add(want, dense_scale(got, Fraction(-1)))
        assert _in_ideal(case, diff)
        # the normal form of a class does not depend on its representative
        assert ctx.element(want) == x * y


@settings(max_examples=80, derandomize=True)
@given(st.data())
def test_constant_operand_matches_general_product(data):
    case = data.draw(CASE)
    ctx = KERNEL_CASES[case][0]
    x = data.draw(_case_elements(case))
    q = data.draw(_COEFF)
    c, g = ctx.scalar(q), ctx.gen(data.draw(st.integers(0, ctx.ngens - 1)))
    # c + g is not constant, so its products take the general loop
    general = (c + g) * x - g * x
    assert c * x == general == x * c == x * q
    assert as_dense(c * x) == _oracle_product(case, c, x)


# Contexts for the one-term products: the truncated and quotient kernel
# cases, the binding blocks of MIXED_BLOCKS with their relations, and a
# nil-square quotient capped at 4 whose known top is 2.
ONE_TERM_CASES = {
    "truncated": lambda: KERNEL_CASES["truncated"][0],
    "mixed-blocks": lambda: make_truncated_context(MIXED_BLOCKS, MIXED_RELS),
    "quotient": lambda: KERNEL_CASES["quotient"][0],
    "quotient-below-cap": lambda: make_quotient_context(
        ["p1", "p2", "q1", "q2"], NILSQ_RELS, 4),
}


@pytest.mark.parametrize("case", sorted(ONE_TERM_CASES))
def test_one_term_products_match_the_dense_oracle(case, mixed_member):
    ctx = ONE_TERM_CASES[case]()
    ctx.vanishes_from(ctx.degree_cap)  # the known top, where relations lower it
    rels = list(ctx.relations)
    blocks = [(b.start, b.count, b.cap) for b in ctx.blocks if b.cap < ctx.degree_cap]
    member = mixed_member if case == "mixed-blocks" else ideal_membership(
        rels + cap_relations(blocks, ctx.ngens), ctx.ngens, ctx.degree_cap)
    rng = random.Random(case)
    monos = monomials_up_to(ctx.ngens, min(ctx.degree_cap, 3))
    crossed = set()
    for mono in monomials_up_to(ctx.ngens, ctx.degree_cap):
        q = Fraction(rng.choice([-3, -1, 2, 5]), rng.choice([1, 2, 7]))
        one = ctx.element({mono: q})
        if len(one.num) != 1:  # a pivot or a capped monomial is not one term
            continue
        for _ in range(2):
            x = ctx.element({rng.choice(monos): Fraction(rng.randint(-4, 4), rng.randint(1, 6))
                             for _ in range(5)})
            got = one * x
            assert got == x * one
            if not any(mono):
                assert got == x * q
            _assert_canonical(got)
            raw = dense_mul(as_dense(one), as_dense(x), ctx.degree_cap)
            if rels:
                assert member(dense_add(raw, dense_scale(as_dense(got), Fraction(-1))))
            else:
                assert as_dense(got) == {m: c for m, c in raw.items() if not member({m: 1})}
            # a shift that lands past a block cap or the known top drops that term
            for m in x.num:
                shifted = tuple(a + b for a, b in zip(m, mono))
                if sum(shifted) > ctx._top:
                    crossed.add("top")
                elif ctx.monomial_is_zero(shifted):
                    crossed.add("block")
    want = {"truncated": {"top"}, "mixed-blocks": {"block", "top"},
            "quotient": {"top"}, "quotient-below-cap": {"top"}}[case]
    assert want <= crossed
    if case == "quotient-below-cap":
        assert ctx._top == 2


@settings(max_examples=120, derandomize=True)
@given(st.data())
def test_subtraction_is_adding_the_negative(data):
    case = data.draw(CASE)
    x, y = data.draw(_case_elements(case)), data.draw(_case_elements(case))
    q = data.draw(_COEFF)
    assume(x.den != y.den)
    assert x - y == x + (-y)
    assert q - x == (-x) + q and x - q == x + (-q)
    _assert_canonical(x - y)
    zero = x - x
    assert (zero._num, zero.den) == ({}, 1)


@settings(max_examples=80, derandomize=True)
@given(st.data())
def test_quotient_normal_forms_against_membership(data):
    case = data.draw(st.sampled_from(QUOTIENT_CASES))
    ctx, _, rels = KERNEL_CASES[case]
    monos = monomials_up_to(ctx.ngens, ctx.degree_cap)
    raw = data.draw(st.dictionaries(st.sampled_from(monos), _COEFF, max_size=8))
    x = ctx.element(raw)
    # x is congruent to its input, and zero exactly when the input is in the ideal
    assert _in_ideal(case, dense_add(raw, dense_scale(as_dense(x), Fraction(-1))))
    assert x.is_zero() == _in_ideal(case, raw)
    # adding a multiple of a relation changes nothing
    rel = data.draw(st.sampled_from(rels))
    shift = data.draw(st.sampled_from(monomials_up_to(ctx.ngens, 1)))
    q = data.draw(_COEFF)
    moved = {tuple(a + b for a, b in zip(m, shift)): c * q for m, c in rel.items()}
    assert ctx.element(dense_add(raw, moved)) == x


def test_scalar_constructors_are_canonical():
    c = KERNEL_CASES["quotient-scaled"][0]
    for x in (c.zero(), c.one(), c.scalar(0), c.scalar(Fraction(-6, 4)), c.scalar(Fraction(8, 4)),
              c.gen(2), c.one() * Fraction(2, 3) * Fraction(3, 2)):
        _assert_canonical(x)
    assert c.scalar(Fraction(4, 2)) == c.scalar(2) == c.one() + c.one()
    assert c.scalar(Fraction(1, 2)).constant_term == Fraction(1, 2)


def test_generators_are_normal_forms():
    # a cap of 0 kills a generator, and a linear relation rewrites one
    t = make_truncated_context([("a", 1, 0), ("b", 1, 1)])
    assert t.gen(0).is_zero() and (t.gen(0) * t.one()).is_zero()
    q = make_quotient_context(["x", "y"], [{(1, 0): 1, (0, 1): -1}], 2)
    assert q.gen(0) == q.gen(1) == q.element({(1, 0): 1})
    _assert_canonical(q.gen(0))


# -- context identity by ideal -----------------------------------------------------------


def test_two_presentations_of_one_ideal_are_one_context():
    b = generic_nilsquare_tuple(2, 3)[0]
    a = make_quotient_context(b.names, nilsquare_relations(2, 3), 3)
    assert len(a.relations) == 10 and len(b.relations) == 9
    assert a == b and hash(a) == hash(b)
    assert a.gen(0) + b.gen(1) == b.gen(0) + a.gen(1)
    assert a.gen(0) * b.gen(2) == b.gen(0) * a.gen(2)


def test_a_different_ideal_is_a_different_context():
    b = generic_nilsquare_tuple(2, 3)[0]
    fewer = make_quotient_context(b.names, nilsquare_relations(2, 3)[:-1], 3)
    assert fewer != b
    with pytest.raises(ContextMismatchError):
        fewer.gen(0) + b.gen(0)
    # the same relations under another cap give another algebra; scaled ones do not
    assert make_quotient_context(b.names, nilsquare_relations(2, 3), 4) != b
    scaled = [{m: c * -3 for m, c in rel.items()} for rel in nilsquare_relations(2, 3)]
    assert make_quotient_context(b.names, scaled, 3) == b


# -- one context per presentation --------------------------------------------------------


def test_models_built_alike_are_one_object():
    assert generic_nilsquare_tuple(2, 3)[0] is generic_nilsquare_tuple(2, 3)[0]
    a = generic_symmetric_Ak_tuple(2, 2, 3, degree_cap=4)[0]
    assert generic_symmetric_Ak_tuple(2, 2, 3, degree_cap=4)[0] is a
    assert make_truncated_context([("e", 2, 2)]) is make_truncated_context([("e", 2, 2)])
    assert make_quotient_context(["s", "t"], [], 3) is make_quotient_context(("s", "t"), [], 3)


def test_a_different_ideal_is_another_object():
    b = generic_nilsquare_tuple(2, 3)[0]
    fewer = make_quotient_context(b.names, nilsquare_relations(2, 3)[:-1], 3)
    assert fewer is not b and fewer != b
    assert make_quotient_context(b.names, nilsquare_relations(2, 3), 4) is not b


def test_two_presentations_of_one_ideal_stay_two_equal_objects():
    b = generic_nilsquare_tuple(2, 3)[0]
    a = make_quotient_context(b.names, nilsquare_relations(2, 3), 3)
    scaled = [{m: c * -3 for m, c in rel.items()} for rel in nilsquare_relations(2, 3)]
    c = make_quotient_context(b.names, scaled, 3)
    assert a is not b and c is not b and c is not a
    assert a == b == c and hash(a) == hash(b) == hash(c)


def test_int_and_fraction_coefficients_of_equal_value_are_one_object():
    ctx = generic_nilsquare_tuple(3, 4)[0]
    fractions = [{m: Fraction(c) for m, c in rel.items()} for rel in ctx.relations]
    assert make_quotient_context(ctx.names, fractions, ctx.degree_cap) is ctx
    rels = [{(1, 1): Fraction(6, 3), (2, 0): Fraction(-1)}]
    assert make_quotient_context(["s", "t"], rels, 3) is make_quotient_context(
        ["s", "t"], [{(2, 0): -1, (1, 1): 2}], 3
    )


def test_block_labels_tell_equal_blocks_apart():
    a = make_truncated_context([("e", 2, 2)])
    b = make_truncated_context([("f", 2, 2)])
    assert a is not b and a != b  # the generator names differ too
    # one block of one generator names it exactly: only the label differs
    q = make_quotient_context(["e"], [], 2)
    t = make_truncated_context([("e", 1, 2)])
    assert q.names == t.names and q is not t and q == t


def test_a_context_nobody_holds_is_collected():
    ctx = make_quotient_context(["s", "t", "r"], [{(1, 1, 0): 1}, {(0, 2, 0): 1}], 4)
    ctx.vanishes_from(4)  # fill its caches
    gone = weakref.ref(ctx)
    (key,) = [k for k, c in weil._contexts.items() if c is ctx]
    del ctx
    gc.collect()
    assert gone() is None
    assert key not in weil._contexts
    again = make_quotient_context(["s", "t", "r"], [{(1, 1, 0): 1}, {(0, 2, 0): 1}], 4)
    assert again._bases == {}


# a truncated context with a generator killed by its cap, and a quotient
# whose linear relation rewrites one generator as another
GENERATOR_CONTEXTS = {
    "truncated": lambda: make_truncated_context([("gz", 1, 0), ("gd", 2, 2)]),
    "quotient": lambda: make_quotient_context(
        ["gs", "gt", "gr"], [{(1, 0, 0): 1, (0, 1, 0): -2}, {(0, 0, 2): 1}], 3),
}


@pytest.mark.parametrize("build", sorted(GENERATOR_CONTEXTS))
def test_a_context_with_its_generators_built_needs_no_cyclic_collection(build):
    # generators built once must not be held as elements: an element points
    # back at its context, and the cycle would outlive the last reference
    gc.disable()
    try:
        ctx = GENERATOR_CONTEXTS[build]()
        assert len(ctx.gens()) == ctx.ngens
        ctx.vanishes_from(ctx.degree_cap)
        gone = weakref.ref(ctx)
        del ctx
        assert gone() is None
    finally:
        gc.enable()


@pytest.mark.parametrize("build", sorted(GENERATOR_CONTEXTS))
def test_generators_share_no_state_with_what_is_built_from_them(build):
    ctx = GENERATOR_CONTEXTS[build]()
    n = ctx.ngens
    units = [tuple(int(j == i) for j in range(n)) for i in range(n)]
    for i in range(n):
        g, h = ctx.gen(i), ctx.gen((i + 1) % n)
        built = [g + h, g * h, -g, g - 3, 2 * g]
        if not g.is_zero():
            built.append(invert(1 + g))
        for x in built:
            _assert_canonical(x)
        for j in range(n):
            assert ctx.gen(j) == ctx.element({units[j]: 1})
            _assert_canonical(ctx.gen(j))
    listed = ctx.gens()
    listed.clear()
    assert ctx.gens() == [ctx.element({u: 1}) for u in units] and ctx.gens() is not ctx.gens()
    for i in (-1, n):
        with pytest.raises(IndexError):
            ctx.gen(i)


SYMMETRIC_SHAPES = [(n, k, m) for n in range(1, 5) for k in (1, 2) for m in range(2, 6)]


@pytest.mark.parametrize("n, k, m", SYMMETRIC_SHAPES)
def test_memoized_symmetric_presentations_are_the_built_ones(n, k, m):
    rels = symmetric_relations(n, k, m)
    for cap in (None, 0, k + 1, 2 * k + 3):
        ctx = generic_symmetric_Ak_tuple(n, k, m, degree_cap=cap)[0]
        want = 2 * (k + 1) if cap is None else cap
        assert make_quotient_context(ctx.names, rels, want) is ctx
    if k == 1:
        ctx = generic_nilsquare_tuple(n, m)[0]
        assert make_quotient_context(ctx.names, rels, m) is ctx


def test_a_warm_model_build_builds_no_intern_key(monkeypatch):
    held = generic_nilsquare_tuple(4, 4)[0]
    built = []
    key = weil._presentation_key
    monkeypatch.setattr(weil, "_presentation_key", lambda *args: built.append(args) or key(*args))
    assert generic_nilsquare_tuple(4, 4)[0] is held
    assert built == []
    # a maker, which is handed a presentation, builds its key once
    assert make_quotient_context(held.names, held.relations, held.degree_cap) is held
    assert len(built) == 1


def test_a_warm_model_build_hashes_its_key_once(monkeypatch):
    """The per-shape key keeps its hash: a warm build hashes none of the
    nested tuple, only asks the key for the hash it holds."""
    held = generic_nilsquare_tuple(4, 4)[0]
    key = neighborhoods._symmetric_presentation(4, 1, 4, 4)[-1]
    asked = []
    monkeypatch.setattr(weil._Key, "__hash__", lambda self: asked.append(self) or self.hash)
    assert generic_nilsquare_tuple(4, 4)[0] is held
    assert asked == [key] and key.hash == hash(tuple(key))
    # keys of equal presentations are equal, of others not
    again = weil._presentation_key(held.names, held.blocks, held.relations)
    assert again == key and again is not key and weil._contexts.get(again) is held
    assert again != weil._presentation_key(held.names[::-1], held.blocks, held.relations)


def test_models_of_one_shape_share_their_context_not_their_points():
    first_base, second_base = (1, Fraction(1, 2)), (-3, 0)
    a_ctx, a = generic_symmetric_Ak_tuple(2, 1, 4, base=first_base)
    b_ctx, b = generic_symmetric_Ak_tuple(2, 1, 4, base=second_base)
    assert a_ctx is b_ctx
    assert a[0].rational_coords() == first_base and b[0].rational_coords() == second_base
    assert all(p is not q and p != q for p, q in zip(a, b))
    assert [p - a[0] for p in a] == [q - b[0] for q in b]


@pytest.mark.parametrize("args, message", [
    ((2, 1, 1), "need at least two points"),
    ((2, 0, 3), "order k must be at least 1"),
    ((2, 1, 3, None, -1), "degree cap must be nonnegative"),
])
def test_symmetric_model_argument_errors(args, message):
    with pytest.raises(WeilError, match=message):
        generic_symmetric_Ak_tuple(*args)
    if args[1] == 1:
        n, _, m, *rest = args
        with pytest.raises(WeilError, match=message):
            generic_nilsquare_tuple(n, m, *rest)


# -- the degree from which a quotient vanishes ------------------------------------------

QUOTIENT_MODELS = {
    "nilsquare-2-3": lambda: generic_nilsquare_tuple(2, 3)[0],
    "nilsquare-3-3": lambda: generic_nilsquare_tuple(3, 3)[0],
    "nilsquare-2-4": lambda: generic_nilsquare_tuple(2, 4)[0],
    "nilsquare-3-4": lambda: generic_nilsquare_tuple(3, 4)[0],
    "symmetric-2-2-3-cap4": lambda: generic_symmetric_Ak_tuple(2, 2, 3, degree_cap=4)[0],
    "symmetric-3-2-3": lambda: generic_symmetric_Ak_tuple(3, 2, 3)[0],
}
_MODEL_CONTEXTS = {}


def _model(name):
    if name not in _MODEL_CONTEXTS:
        _MODEL_CONTEXTS[name] = QUOTIENT_MODELS[name]()
    return _MODEL_CONTEXTS[name]


def _of_degree(ngens, d):
    out = []
    for picks in itertools.combinations_with_replacement(range(ngens), d):
        m = [0] * ngens
        for i in picks:
            m[i] += 1
        out.append(tuple(m))
    return out


def _up_to(ngens, cap):
    return [m for d in range(cap + 1) for m in _of_degree(ngens, d)]


@pytest.mark.parametrize("nvars, degree", [(0, 0), (0, 2), (1, 3), (3, 0), (4, 3), (9, 4)])
def test_monomials_of_degree_largest_first(nvars, degree):
    want = sorted(_of_degree(nvars, degree), reverse=True)
    assert list(monomials_of_degree(nvars, degree)) == want


RELATION_FREE = {
    "truncated": lambda: make_truncated_context([("e", 3, 2)]),
    "mixed-blocks": lambda: make_truncated_context([("a", 2, 1), ("b", 2, 2)]),
    "cap-zero-block": lambda: make_truncated_context([("a", 1, 0), ("b", 2, 1)]),
    "quotient-without-relations": lambda: make_quotient_context(["s", "t"], [], 3),
}


@pytest.mark.parametrize("case", sorted(RELATION_FREE))
def test_without_relations_everything_vanishes_just_above_the_cap(case):
    ctx = RELATION_FREE[case]()
    assert [ctx.vanishes_from(d) for d in range(ctx.degree_cap + 3)] == [
        d > ctx.degree_cap for d in range(ctx.degree_cap + 3)
    ]
    x = ctx.one()
    for g in ctx.gens():
        x = x + g
    assert not (x ** ctx.degree_cap - 1).is_zero()
    assert ctx._bases == {}  # no relation basis is ever built


@pytest.mark.parametrize(
    "model", ["nilsquare-2-3", "nilsquare-3-3", "nilsquare-2-4", "symmetric-2-2-3-cap4"]
)
def test_vanishing_degree_matches_membership(model):
    ctx = QUOTIENT_MODELS[model]()
    member = ideal_membership(ctx.relations, ctx.ngens, ctx.degree_cap)
    degrees = range(ctx.degree_cap + 2)
    want = [all(member({m: Fraction(1)}) for m in _of_degree(ctx.ngens, d)) for d in degrees]
    # asked from the top down on one fresh context, from the bottom up on another
    top_down = {d: ctx.vanishes_from(d) for d in reversed(degrees)}
    fresh = QUOTIENT_MODELS[model]()
    assert [top_down[d] for d in degrees] == want == [fresh.vanishes_from(d) for d in degrees]


@pytest.mark.parametrize(
    "model", ["nilsquare-2-3", "nilsquare-3-3", "nilsquare-2-4", "symmetric-2-2-3-cap4"]
)
def test_vanishing_degree_bottom_up_on_a_context_with_no_bases(model):
    ctx = QUOTIENT_MODELS[model]()
    member = ideal_membership(ctx.relations, ctx.ngens, ctx.degree_cap)
    degrees = range(ctx.degree_cap + 2)
    want = [all(member({m: Fraction(1)}) for m in _of_degree(ctx.ngens, d)) for d in degrees]
    assert [ctx.vanishes_from(d) for d in reversed(degrees)][::-1] == want
    # drop every holder of the first context, so the next one starts empty
    _MODEL_CONTEXTS.pop(model, None)
    gone = weakref.ref(ctx)
    del ctx
    gc.collect()
    assert gone() is None
    fresh = QUOTIENT_MODELS[model]()
    # building the model's points reads degree 1 only
    assert set(fresh._bases) <= {1} and fresh._top == fresh.degree_cap
    assert [fresh.vanishes_from(d) for d in degrees] == want


def test_vanishing_degree_under_binding_caps(mixed_member):
    c = make_truncated_context(MIXED_BLOCKS, MIXED_RELS)
    degrees = range(MIXED_CAP + 2)
    want = [all(mixed_member({m: Fraction(1)}) for m in _of_degree(6, d)) for d in degrees]
    assert [c.vanishes_from(d) for d in degrees] == want


def test_nilsquare_3_4_dies_below_its_cap():
    ctx = generic_nilsquare_tuple(3, 4)[0]
    assert ctx.degree_cap == 4
    # degree 4 is found full first, and that must not cut degree 3
    assert ctx.vanishes_from(4) and not ctx.vanishes_from(3)
    kept = {m for mono in _of_degree(ctx.ngens, 3) for m in ctx.element({mono: 1}).num}
    assert len(kept) == 1
    assert all(ctx.element({mono: 1}).is_zero() for mono in _of_degree(ctx.ngens, 4))


def test_bases_stop_at_the_first_full_degree():
    ctx, pts = generic_nilsquare_tuple(4, 6)
    assert in_A_k(pts, 5)
    # degree 5 is full, so degree 6 (177,100 monomials) is never built
    assert ctx.vanishes_from(5) and not ctx.vanishes_from(4)
    assert max(ctx._bases) == 5 and 6 not in ctx._bases


def test_normal_form_of_a_product_straddling_the_top():
    # degree 3 is full, so the top is 2; a fresh context learns that only
    # while it reduces the product, whose terms have degrees 2, 3 and 4
    rels = [{m: 1} for m in _of_degree(2, 3)]
    ctx = make_quotient_context(["s", "t"], rels, 5)
    a = ctx.element({(1, 0): 1, (2, 0): 2})
    b = ctx.element({(0, 1): 3, (0, 2): -1})
    assert set(ctx._bases) <= {1, 2}
    raw = dense_mul({(1, 0): 1, (2, 0): 2}, {(0, 1): 3, (0, 2): -1}, 5)
    nf = (a * b).coeffs
    member = ideal_membership(rels, 2, 5)
    assert member(dense_add(raw, dense_scale(nf, -1)))
    assert nf and all(sum(m) <= 2 for m in nf) and not member(nf)
    assert ctx.vanishes_from(3) and not ctx.vanishes_from(2)


@settings(max_examples=60, derandomize=True)
@given(st.data())
def test_products_hold_no_term_where_everything_vanishes(data):
    ctx = _model(data.draw(st.sampled_from(sorted(QUOTIENT_MODELS))))
    monos = _of_degree(ctx.ngens, 1) + _of_degree(ctx.ngens, 2)
    draw = st.dictionaries(st.sampled_from(monos), _COEFF, min_size=1, max_size=6).map(ctx.element)
    x, y, z = data.draw(draw), data.draw(draw), data.draw(draw)
    for p in (x * y, x * y * z, (x + y) ** 2):
        assert not any(ctx.vanishes_from(sum(m)) for m in p.num)


# -- sympy as a second oracle for quotient normal forms ------------------------------------


def _grlex(ctx):
    """The reduced Groebner basis of the relations in sympy, order grlex with
    x0 > x1 > ...: within one degree that is Python's order on exponent
    tuples, so below the cap its normal forms are the context's.  Returns
    (normal form of a dict, leading monomials of the basis)."""
    sympy = pytest.importorskip("sympy")
    from sympy.polys.rings import ring

    R = ring([f"x{i}" for i in range(ctx.ngens)], sympy.QQ, sympy.grlex)[0]

    def poly(terms):
        return R.from_dict({m: sympy.QQ(c.numerator, c.denominator) for m, c in terms.items()})

    # binding block caps enter as their monomial relations
    caps = cap_relations([(b.start, b.count, b.cap) for b in ctx.blocks if b.cap < ctx.degree_cap],
                         ctx.ngens)
    basis = [poly(dict(g.terms())) for g in sympy.groebner(
        [poly(r).as_expr() for r in list(ctx.relations) + caps], *R.symbols, order="grlex",
        domain="QQ",
    ).polys]

    def normal_form(raw):
        rest = poly(raw).rem(basis)
        return {
            m: Fraction(int(c.numerator), int(c.denominator))
            for m, c in rest.items() if sum(m) <= ctx.degree_cap
        }

    return normal_form, [g.LM for g in basis]


_NONZERO = _COEFF.filter(bool)


def _assert_matches_sympy(ctx, rng, sparse):
    normal_form, leading = _grlex(ctx)
    monos = _up_to(ctx.ngens, ctx.degree_cap)
    # one element on every monomial checks them all at once (reduction is
    # linear), and sparse ones check elements as products make them
    dense = {m: Fraction(rng.randint(-9, 9) or 1, rng.randint(1, 4)) for m in monos}
    for raw in [dense] + sparse:
        assert ctx.element(raw).coeffs == normal_form(raw)
    # a degree vanishes exactly when the leading monomials cover it
    for d in range(ctx.degree_cap + 2):
        covered = all(
            any(all(a >= b for a, b in zip(m, lm)) for lm in leading)
            for m in _of_degree(ctx.ngens, d)
        )
        assert ctx.vanishes_from(d) == (covered or d > ctx.degree_cap)


@pytest.mark.parametrize("model", sorted(QUOTIENT_MODELS))
def test_model_normal_forms_against_sympy(model):
    ctx = QUOTIENT_MODELS[model]()
    rng = random.Random(5)
    monos = _up_to(ctx.ngens, ctx.degree_cap)
    sparse = [
        {rng.choice(monos): Fraction(rng.randint(1, 5), rng.randint(1, 3)) for _ in range(6)}
        for _ in range(3)
    ]
    _assert_matches_sympy(ctx, rng, sparse)


def _homogeneous(n):
    return st.integers(2, 3).flatmap(
        lambda d: st.dictionaries(st.sampled_from(_of_degree(n, d)), _NONZERO, min_size=1, max_size=3)
    )


@settings(max_examples=25, derandomize=True, deadline=None)
@given(st.data())
def test_random_quotient_normal_forms_against_sympy(data):
    n = data.draw(st.integers(3, 4))
    rels = data.draw(st.lists(_homogeneous(n), min_size=1, max_size=4))
    ctx = make_quotient_context([f"x{i}" for i in range(n)], rels, data.draw(st.integers(3, 4)))
    monos = _up_to(n, ctx.degree_cap)
    sparse = data.draw(st.lists(st.dictionaries(st.sampled_from(monos), _NONZERO, max_size=6), max_size=3))
    _assert_matches_sympy(ctx, random.Random(data.draw(st.integers(0, 99))), sparse)


# -- products through the rewrite table ------------------------------------------------------


def _block_relations(ngens):
    """Homogeneous relations of degree 2 or 3 over every generator: a pivot
    coefficient other than 1 (``2·xi² − 3·xj²``, across blocks when i and j
    lie in two), or a few random terms."""
    scaled = st.tuples(st.integers(0, ngens - 1), st.integers(0, ngens - 1)).filter(
        lambda ij: ij[0] != ij[1]).map(lambda ij: {
            tuple(2 * (k == ij[0]) for k in range(ngens)): 2,
            tuple(2 * (k == ij[1]) for k in range(ngens)): -3,
        })
    return st.one_of(scaled, _homogeneous(ngens))


@settings(max_examples=40, derandomize=True, deadline=None)
@given(st.data())
def test_quotient_products_against_membership_and_sympy(data):
    # 2-3 blocks, every one binding: their caps sum to at most 4
    shape = data.draw(st.lists(st.tuples(st.integers(1, 2), st.integers(1, 2)), min_size=2,
                               max_size=3).filter(lambda bs: sum(c for _, c in bs) <= 4
                                                  and sum(n for n, _ in bs) <= 4))
    blocks = [(f"b{i}", n, cap) for i, (n, cap) in enumerate(shape)]
    ngens = sum(n for n, _ in shape)
    rels = data.draw(st.lists(_block_relations(ngens), min_size=1, max_size=3))
    ctx = make_truncated_context(blocks, rels)
    starts = itertools.accumulate([0] + [n for n, _ in shape])
    member = ideal_membership(
        list(ctx.relations) + cap_relations([(s, n, c) for s, (n, c) in zip(starts, shape)], ngens),
        ngens, ctx.degree_cap)
    normal_form, _ = _grlex(ctx)
    monos = _up_to(ngens, ctx.degree_cap)[1:]
    general = st.dictionaries(st.sampled_from(_up_to(ngens, 2)), _NONZERO, min_size=2, max_size=5)
    one_term = st.dictionaries(st.sampled_from(monos), _NONZERO, min_size=1, max_size=1)
    raw_x = data.draw(general)
    raw_y = data.draw(st.one_of(general, one_term))
    x, y = ctx.element(raw_x), ctx.element(raw_y)
    # first as it comes (a cold context reduces afterwards), then with every
    # basis, and so the whole table, built
    cold = x * y
    ctx.vanishes_from(ctx.degree_cap)
    for got in (cold, x * y, y * x):
        _assert_canonical(got)
        raw = dense_mul(as_dense(x), as_dense(y), ctx.degree_cap)
        assert member(dense_add(raw, dense_scale(as_dense(got), Fraction(-1))))
        assert got.coeffs == normal_form(raw)


def _nilsquare_fresh():
    """The nil-square (3,4) ideal under names no other test uses, so its
    context starts with no basis built."""
    names = [f"f{i}" for i in range(9)]
    return make_quotient_context(names, nilsquare_relations(3, 4), 4)


def test_rewrite_table_fills_lazily_degree_by_degree():
    ctx = _nilsquare_fresh()
    x, y, z = ctx.gens()[::4]  # three points, three coordinates
    dshift = ctx._dshift
    assert set(ctx._bases) <= {1} and not ctx._rewrite
    xy = (1 + x + y) * (2 + y + z)
    assert set(ctx._bases) == {1, 2}
    assert {p >> dshift for p in ctx._rewrite} == {2}
    xy * (x + z)
    assert set(ctx._bases) == {1, 2, 3} and {p >> dshift for p in ctx._rewrite} == {2, 3}
    # each pivot's terms are its normal form, read off its basis row
    for d, basis in ctx._bases.items():
        assert set(basis) == {p for p in ctx._rewrite if p >> dshift == d}
    for p, terms in ctx._rewrite.items():
        assert ctx.element({ctx._unpack(p): 1})._num == dict(terms)
    assert not ctx._nonunit


def test_rewrite_table_refers_to_no_element():
    ctx = KERNEL_CASES["quotient-scaled"][0]
    ctx.vanishes_from(ctx.degree_cap)
    assert ctx._rewrite and ctx._nonunit
    todo, seen = [ctx._rewrite, ctx._nonunit], 0
    while todo:
        obj = todo.pop()
        seen += 1
        assert type(obj) in (dict, tuple, int)
        if type(obj) is not int:
            todo.extend(gc.get_referents(obj))
    assert seen > len(ctx._rewrite)


def test_products_with_unit_pivots_reduce_nothing_afterwards(monkeypatch):
    ctx = _nilsquare_fresh()
    gens = ctx.gens()
    x = 3 + gens[0] - gens[4] * Fraction(1, 2) + gens[0] * gens[6]
    y = gens[3] + gens[1] * 2 + gens[7] * gens[8]
    one_term = gens[5] * Fraction(2, 3)
    want = [ctx.element(dense_mul(as_dense(a), as_dense(b), 4))
            for a, b in ((x, y), (x, one_term), (x * y, x + y))]
    calls = []
    reduce = weil._reduce_at_degree
    monkeypatch.setattr(weil, "_reduce_at_degree", lambda *args: calls.append(args) or reduce(*args))
    assert [x * y, x * one_term, (x * y) * (x + y)] == want
    assert not calls and not ctx._nonunit
    # a pivot coefficient of 2 is still reduced, by its rows alone
    c = KERNEL_CASES["quotient-scaled"][0]
    u = c.gen(0)
    assert (u * u).coeffs == {(0, 1, 1): Fraction(-3, 2)} and calls
    assert all(pc != 1 for _, hits in calls for _, (pc, _) in hits)


# -- packed monomials ----------------------------------------------------------------------

PACKED_CASES = {
    "truncated": lambda: make_truncated_context([("e", 3, 2)]),
    "binding-caps": lambda: make_truncated_context([("a", 2, 1), ("b", 2, 2), ("c", 1, 2)]),
    "cap-zero-block": lambda: make_truncated_context([("a", 1, 0), ("b", 2, 2)]),
    "no-generators": lambda: make_truncated_context([]),
    # 2 * cap = 8 is a power of two, where the width rule 2**(w-1) > 2 * cap
    # steps from 4 bits to 5
    "width-boundary": lambda: make_truncated_context([("a", 2, 1), ("b", 2, 3)]),
}


def _packed_case(name):
    ctx = PACKED_CASES[name]()
    alive = [m for m in _up_to(ctx.ngens, ctx.degree_cap) if not ctx.monomial_is_zero(m)]
    return ctx, alive


def _blocks_broken(ctx, mono):
    return any(sum(mono[lo:hi]) > cap for lo, hi, cap in ctx._binding)


def test_packed_cases_cover_their_layouts():
    w = {name: PACKED_CASES[name]()._mask.bit_length() for name in PACKED_CASES}
    assert w["width-boundary"] == 5 and w["truncated"] == 4 and w["no-generators"] == 1
    assert PACKED_CASES["binding-caps"]()._guard and PACKED_CASES["cap-zero-block"]()._guard
    assert not PACKED_CASES["truncated"]()._guard


@pytest.mark.parametrize("case", sorted(PACKED_CASES))
def test_packed_keys_round_trip_in_grlex_order(case):
    ctx, alive = _packed_case(case)
    keys = [ctx._pack(m) for m in alive]
    assert [ctx._unpack(k) for k in keys] == alive
    assert len(set(keys)) == len(alive)
    assert ctx._pack((0,) * ctx.ngens) == 0
    # int order on keys is the order on (total degree, exponent tuple)
    assert [ctx._unpack(k) for k in sorted(keys)] == sorted(alive, key=lambda m: (sum(m), m))
    assert all(k >> ctx._dshift == sum(m) for k, m in zip(keys, alive))


@settings(max_examples=150, derandomize=True)
@given(st.data())
def test_packed_sum_applies_every_block_cap_at_once(data):
    ctx, alive = _packed_case(data.draw(st.sampled_from(sorted(PACKED_CASES))))
    a, b = data.draw(st.sampled_from(alive)), data.draw(st.sampled_from(alive))
    key = ctx._pack(a) + ctx._pack(b)
    total = tuple(x + y for x, y in zip(a, b))
    assert bool((key + ctx._bias) & ctx._guard) == _blocks_broken(ctx, total)
    assert key >> ctx._dshift == sum(total)
    # no field carried into the next one
    assert ctx._unpack(key) == total


@settings(max_examples=60, derandomize=True)
@given(st.data())
def test_products_agree_with_exponent_tuple_products(data):
    name = data.draw(st.sampled_from(sorted(PACKED_CASES)))
    ctx, alive = _packed_case(name)
    draw = st.dictionaries(st.sampled_from(alive), _COEFF, max_size=5)
    x, y = data.draw(draw), data.draw(draw)
    want = {}
    for (m1, c1), (m2, c2) in itertools.product(x.items(), y.items()):
        m = tuple(p + q for p, q in zip(m1, m2))
        if not ctx.monomial_is_zero(m):
            want[m] = want.get(m, 0) + c1 * c2
    assert ctx.element(x) * ctx.element(y) == ctx.element(want)


def _scalars():
    return st.one_of(st.just(0), st.integers(-4, 4), _COEFF)


@settings(max_examples=60, derandomize=True)
@given(st.data())
def test_lincomb_is_the_left_to_right_sum(data):
    case = data.draw(CASE)
    ctx = KERNEL_CASES[case][0]
    elements = _case_elements(case) | st.just(ctx.zero())
    den = data.draw(st.sampled_from([1, 1, 2, 6, 35]))
    pairs = data.draw(st.lists(st.tuples(_scalars(), elements), max_size=5))
    got = _lincomb(ctx, pairs, den)
    want = ctx.zero()
    for q, x in pairs:
        want = want + q * x
    assert got == want / den
    _assert_canonical(got)


def test_lincomb_returns_one_term_of_weight_one_itself_and_zero_for_none():
    ctx = make_truncated_context([("e", 2, 2)])
    x = ctx.gen(0) / 3 + 2
    assert _lincomb(ctx, [(1, x)]) is x and _lincomb(ctx, [(4, x)], 4) is x
    assert _lincomb(ctx, [(0, ctx.gen(1)), (7, x), (3, ctx.zero())], 7) is x
    assert _lincomb(ctx, [(2, x)], 4) == x / 2
    for pairs in ([], [(0, x)], [(5, ctx.zero())]):
        assert _lincomb(ctx, pairs, 3) == ctx.zero() and _lincomb(ctx, pairs).num == {}


def _snapshot(values):
    return [(x, dict(x._num), x.den) for x in values]


def _unchanged(snapshot):
    return all(x._num == num and x.den == den for x, num, den in snapshot)


@settings(max_examples=60, derandomize=True)
@given(st.data())
def test_kernel_operations_leave_their_inputs_unchanged(data):
    """No operation writes into an input's numerators, so results may share
    them (a one-term _lincomb returns its element itself)."""
    case = data.draw(CASE)
    ctx = KERNEL_CASES[case][0]
    xs = data.draw(st.lists(_case_elements(case), min_size=2, max_size=4))
    nils = [x.nilpotent_part() for x in xs]
    units = [nils[0] + 1, nils[1] - Fraction(2, 3)]
    before = _snapshot(xs + nils + units)
    x, y = xs[0], xs[1]
    results = [x + y, x - y, x * y, -x, x ** 3, x * Fraction(2, 3), x / 5,
               _lincomb(ctx, [(1, x)]), _lincomb(ctx, [(3, x), (-2, y)], 6),
               *_contract(ctx, [{(0, 1): 2, (1,): 1, (): 3}], [xs, xs], [4]),
               invert(units[0]), *mat_inverse([[units[0], nils[1]], [nils[0], units[1]]])[0]]
    if case == "truncated":  # a square constant term
        results.append(sqrt(units[0] * units[0]))
    assert _unchanged(before)
    # nor does building on the results change them
    after = _snapshot(results)
    for r in results:
        r * r + r
    assert _unchanged(after) and _unchanged(before)


def test_lincomb_rejects_another_context():
    a, b = make_truncated_context([("e", 2, 2)]), make_truncated_context([("e", 2, 1)])
    with pytest.raises(ContextMismatchError):
        _lincomb(a, [(1, a.gen(0)), (2, b.gen(0))])


def _contraction(data, case):
    """Rows and slot vectors for ``_contract`` over the kernel case's context."""
    ctx = KERNEL_CASES[case][0]
    dim = data.draw(st.integers(1, 3))
    coords = st.one_of(
        _case_elements(case),
        _case_elements(case).map(WeilElement.nilpotent_part),  # products die at the cap
        st.just(ctx.zero()),
    )
    # a small pool, so that several slots often read one vector
    pool = data.draw(st.lists(st.tuples(*[coords] * dim), min_size=1, max_size=2))
    vectors = data.draw(st.lists(st.sampled_from(pool), max_size=4))
    # short index ranges, so that rows share prefixes; () included
    index = st.lists(st.integers(0, dim - 1), max_size=len(vectors)).map(tuple)
    coeff = st.one_of(_scalars(), _COEFF.map(ctx.scalar), _case_elements(case))
    rows = data.draw(st.lists(st.dictionaries(index, coeff, max_size=6), max_size=3))
    return ctx, rows, vectors


@settings(max_examples=150, derandomize=True)
@given(st.data())
def test_contract_matches_the_naive_contraction(data):
    case = data.draw(CASE)
    ctx, rows, vectors = _contraction(data, case)
    dens = data.draw(st.one_of(st.none(), st.lists(st.integers(1, 12), min_size=len(rows),
                                                    max_size=len(rows))))
    got = _contract(ctx, rows, vectors, dens)
    want = contract(ctx.zero(), ctx.one(), rows, vectors)
    assert got == (want if dens is None else [x / d for x, d in zip(want, dens)])
    for x in got:
        _assert_canonical(x)


def test_contract_builds_each_product_once(monkeypatch):
    ctx = make_truncated_context([("a", 1, 2), ("b", 1, 1)])
    x, y = ctx.one() + ctx.gen(0), ctx.gen(1)
    count = []
    mul = WeilElement.__mul__
    monkeypatch.setattr(WeilElement, "__mul__", lambda a, b: count.append(1) or mul(a, b))
    # (0,) is the coordinate itself; (0, 0) is built once for both rows and
    # extended once by each last slot: three products in all
    rows = [{(0, 0, 1): 1, (0, 0, 0): Fraction(1, 2)}, {(0, 0, 1): 3, (): 2}]
    got = _contract(ctx, rows, [(x, y)] * 3)
    assert len(count) == 3
    monkeypatch.undo()
    assert got == [x * x * y + x * x * x / 2, x * x * y * 3 + 2]
    # y·y vanishes (one shared product), so y·y·x and y·y·y are never built
    count.clear()
    monkeypatch.setattr(WeilElement, "__mul__", lambda a, b: count.append(1) or mul(a, b))
    got = _contract(ctx, [{(1, 1, 0): 1, (1, 1, 1): 1}], [(x, y)] * 3)
    assert len(count) == 1
    assert got == [ctx.zero()]


def test_contract_scales_by_constant_elements():
    ctx = make_truncated_context([("e", 2, 2)])
    g = ctx.gen(0)
    rows = [{(0,): ctx.scalar(Fraction(2, 3)), (1,): ctx.zero(), (): g}]
    assert _contract(ctx, rows, [(g, ctx.gen(1))]) == [g * Fraction(2, 3) + g]


def test_constant_elements_hash_as_their_scalars():
    ctx = make_truncated_context([("e", 2, 2)])
    assert len({ctx.one(), 1}) == 1
    assert {1: "a"}.get(ctx.one()) == "a"
    assert {Fraction(-3, 2): "b"}.get(ctx.scalar(Fraction(-3, 2))) == "b"
    for q in (0, 1, -7, Fraction(2, 3), Fraction(5, 1)):
        assert ctx.scalar(q) == q and hash(ctx.scalar(q)) == hash(q)
    # equal elements of two equal contexts (two presentations of one ideal)
    b = generic_nilsquare_tuple(2, 3)[0]
    a = make_quotient_context(b.names, nilsquare_relations(2, 3), 3)
    assert a is not b and a == b
    for x, y in ((a.scalar(4), b.scalar(4)), (a.gen(1) / 3, b.gen(1) / 3), (a.one(), b.one())):
        assert x == y and hash(x) == hash(y)


def test_integer_model_equals_its_fraction_presentation():
    ctx = generic_nilsquare_tuple(3, 4)[0]
    assert all(type(c) is int for rel in ctx.relations for c in rel.values())
    fractions = [{m: Fraction(c) for m, c in rel.items()} for rel in ctx.relations]
    again = make_quotient_context(ctx.names, fractions, ctx.degree_cap)
    assert again.relations == ctx.relations
    assert again == ctx and hash(again) == hash(ctx)
    assert again.gen(0) * again.gen(3) == ctx.gen(0) * ctx.gen(3)


# powers of ten next to the 600-digit chunks and the 4,300-digit limit, and
# integers of up to about 15,000 digits
_BIG_INTS = st.one_of(
    st.sampled_from([0, 1, 599, 600, 601, 1200, 4299, 4300, 4301, 9000]).flatmap(
        lambda k: st.sampled_from([10**k - 1, 10**k, 10**k + 1])),
    st.integers(0, 50_000).flatmap(lambda bits: st.integers(2**bits, 2**(bits + 1))),
)


@settings(max_examples=200, derandomize=True)
@given(_BIG_INTS, _BIG_INTS, st.booleans())
def test_decimal_prints_every_digit(a, b, negative):
    """``_decimal`` agrees with Decimal, which converts an int without the
    interpreter's limit on int-to-str conversion."""
    n = -a if negative else a
    assert _decimal(n) == str(decimal.Decimal(n))
    q = Fraction(n, b + 1)
    want = str(decimal.Decimal(q.numerator))
    if q.denominator != 1:
        want += "/" + str(decimal.Decimal(q.denominator))
    assert _decimal(q) == want
