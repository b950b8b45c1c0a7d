"""Neighborhood predicates: coordinate-product vanishing, exactly.

Each membership test (order-k vectors, form-annihilated tuples, order-k
closeness of point tuples, nil-square closeness) reduces to "every product of
a certain shape vanishes".  The predicates are checked against hand-worked
small cases and against an independent dense enumeration in ``_oracles``.
"""

import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from weilaff import (
    MultilinearForm,
    PointVec,
    WeilError,
    Witness,
    coordinate_form,
    coordinate_product_basis,
    determinant_form,
    eval_form,
    find_A_k_violation,
    find_D_k_violation,
    find_DN_k_violation,
    find_nilsquare_violation,
    generic_Ak_tuple,
    generic_Dk_vector,
    generic_nilsquare_tuple,
    generic_symmetric_Ak_tuple,
    in_A_k,
    in_D_k,
    in_DN_k,
    in_nilsquare,
    make_quotient_context,
    make_truncated_context,
    symmetric_coordinate_form,
)

from _oracles import (
    brute_in_D_k,
    brute_in_DN_k,
    ideal_membership,
    monomials_up_to,
    nilsquare_relations,
    point_dense,
    search_cross_products,
    search_multiset_products,
)
from weilaff.weil import WeilElement


def two_blocks():
    """Context with two independent square-zero generators a, b (a·b survives)."""
    return make_truncated_context([("a", 1, 1), ("b", 1, 1)])


# -- multilinear forms -------------------------------------------------------------------


def test_form_rejects_bad_shapes():
    with pytest.raises(WeilError):
        MultilinearForm(0, 2, {})
    with pytest.raises(WeilError):
        MultilinearForm(2, 2, {(0, 2): Fraction(1)})
    with pytest.raises(WeilError):
        MultilinearForm(2, 2, {(0,): Fraction(1)})


def test_form_drops_zero_coefficients():
    f = MultilinearForm(2, 2, {(0, 1): Fraction(1), (1, 0): Fraction(0)})
    assert f.coeffs == {(0, 1): Fraction(1)}


def test_symmetric_coordinate_form_is_symmetric():
    for multiset in [(0, 1), (0, 0), (0, 1, 1), (0, 1, 2)]:
        dim = max(multiset) + 1
        form = symmetric_coordinate_form(dim, multiset)
        assert form.is_symmetric()
        # one unit coefficient per distinct arrangement
        assert set(form.coeffs) == set(itertools.permutations(multiset))
        assert set(form.coeffs.values()) == {Fraction(1)}


def test_coordinate_form_not_symmetric():
    assert not coordinate_form(2, (0, 1)).is_symmetric()
    assert coordinate_form(2, (1, 1)).is_symmetric()


def test_determinant_form_values():
    det = determinant_form(2)
    assert det.coeffs == {(0, 1): Fraction(1), (1, 0): Fraction(-1)}
    c = make_truncated_context([])
    e1 = c.point((1, 0))
    e2 = c.point((0, 1))
    assert eval_form(det, [e1, e2]) == c.one()
    assert eval_form(det, [e2, e1]) == -c.one()
    assert eval_form(det, [e1, e1]).is_zero()


def test_eval_form_zero_slot_kills_everything():
    c = two_blocks()
    u = PointVec(c, (c.gen(0), c.zero()))
    z = PointVec(c, (c.zero(), c.zero()))
    for form in coordinate_product_basis(2, 2):
        assert eval_form(form, [u, z]).is_zero()


def test_eval_form_symmetric_cross_terms():
    # x⊗y + y⊗x on u = (a, 0), v = (0, b): only the (x,y) slot pairing is
    # nonzero, so the two-argument value is a·b; the diagonal value on u+v
    # picks up both arrangements and doubles it
    c = two_blocks()
    u = PointVec(c, (c.gen(0), c.zero()))
    v = PointVec(c, (c.zero(), c.gen(1)))
    form = symmetric_coordinate_form(2, (0, 1))
    ab = c.gen(0) * c.gen(1)
    got = eval_form(form, [u, v])
    assert got == ab
    assert not got.is_zero()
    assert eval_form(form, [u + v, u + v]) == ab * c.scalar(2)


def test_eval_form_shape_errors():
    c = two_blocks()
    u = PointVec(c, (c.gen(0), c.zero()))
    det = determinant_form(2)
    with pytest.raises(WeilError):
        eval_form(det, [u])
    with pytest.raises(WeilError):
        eval_form(determinant_form(3), [u, u, u])


# -- D_k membership ----------------------------------------------------------------------


def test_in_D1_single_block():
    c = make_truncated_context([("eps", 2, 1)])
    v = PointVec(c, tuple(c.gens()))
    assert in_D_k(v, 1)


def test_in_D1_fails_across_blocks():
    c = two_blocks()
    v = PointVec(c, (c.gen(0), c.gen(1)))
    w = find_D_k_violation(v, 1)
    assert w is not None
    assert w.monomial == "a·b"
    assert w.coefficient == 1
    assert "v[1]" in w.location and "v[2]" in w.location
    assert in_D_k(v, 2)


def test_witness_as_dict():
    c = two_blocks()
    v = PointVec(c, (c.gen(0), c.gen(1)))
    d = find_D_k_violation(v, 1).as_dict()
    assert d == {"location": d["location"], "monomial": "a·b", "coefficient": "1"}


def test_witness_of_reads_the_least_surviving_monomial():
    c = two_blocks()
    w = Witness.of("loc", c.gen(1) * 3 + c.gen(0) * c.gen(1))
    assert w == Witness("loc", "b", Fraction(3))


def test_zero_vector_in_every_Dk():
    c = two_blocks()
    z = PointVec(c, (c.zero(), c.zero()))
    for k in (1, 2, 3):
        assert in_D_k(z, k)


def test_Dk_rejects_bad_order():
    c = two_blocks()
    v = PointVec(c, (c.gen(0), c.gen(1)))
    with pytest.raises(WeilError):
        in_D_k(v, 0)


def test_generic_Dk_vector_is_sharp():
    # passes order k, fails order k-1, and the witness is a degree-k monomial
    for n, k in [(1, 2), (2, 1), (2, 2), (3, 2), (2, 3)]:
        _, v = generic_Dk_vector(n, k)
        assert in_D_k(v, k)
        if k >= 2:
            w = find_D_k_violation(v, k - 1)
            assert w is not None
            assert w.coefficient == 1
    # n=1, k=2: eps^2 survives, eps^3 dies
    c, v = generic_Dk_vector(1, 2)
    assert not (v[0] * v[0]).is_zero()
    assert (v[0] * v[0] * v[0]).is_zero()
    # n=2, k=1: eps1·eps2 dies
    c, v = generic_Dk_vector(2, 1)
    assert (v[0] * v[1]).is_zero()
    # n=2, k=2: eps1·eps2 survives, every cubic dies
    c, v = generic_Dk_vector(2, 2)
    assert not (v[0] * v[1]).is_zero()
    for idx in itertools.combinations_with_replacement(range(2), 3):
        prod = c.one()
        for i in idx:
            prod = prod * v[i]
        assert prod.is_zero()


def test_in_Dk_matches_brute_force():
    rng = random.Random(7)
    c = make_truncated_context([("e", 3, 2)])
    gens = list(c.gens())
    for _ in range(25):
        coords = []
        for _ in range(2):
            el = c.zero()
            for g in gens:
                el = el + c.scalar(rng.randint(-1, 1)) * g
            if rng.random() < 0.3:
                el = el + gens[0] * gens[1]
            coords.append(el)
        v = PointVec(c, tuple(coords))
        for k in (1, 2):
            assert in_D_k(v, k) == brute_in_D_k(point_dense(v), k, cap=2, ngens=3)


def test_in_Dk_equals_form_basis_vanishing():
    # membership iff every coordinate-product (k+1)-form kills (v, ..., v)
    rng = random.Random(11)
    c = make_truncated_context([("e", 2, 2)])
    gens = list(c.gens())
    for _ in range(20):
        coords = []
        for _ in range(2):
            el = c.scalar(0)
            for g in gens:
                el = el + c.scalar(rng.randint(-1, 1)) * g
            coords.append(el)
        v = PointVec(c, tuple(coords))
        for k in (1, 2):
            by_forms = all(
                eval_form(phi, [v] * (k + 1)).is_zero()
                for phi in coordinate_product_basis(2, k + 1)
            )
            assert in_D_k(v, k) == by_forms


# -- DN_k membership ---------------------------------------------------------------------


def test_in_DNk_pair_of_equal_generic_vectors():
    c = make_truncated_context([("eps", 2, 1)])
    v = PointVec(c, tuple(c.gens()))
    assert in_DN_k([v, v])


def test_in_DNk_fails_across_blocks():
    c = two_blocks()
    u = PointVec(c, (c.gen(0),))
    v = PointVec(c, (c.gen(1),))
    assert not in_DN_k([u, v])


def test_in_DNk_zero_member_trivializes():
    c = make_truncated_context([("eps", 2, 1)])
    u = PointVec(c, tuple(c.gens()))
    z = PointVec(c, (c.zero(), c.zero()))
    assert in_DN_k([u, z])


def test_in_DNk_requires_members_in_Dk():
    # (k+1)-tuples are only tested once each member is an order-k vector
    c = make_truncated_context([("e", 1, 3)])
    v = PointVec(c, (c.gen(0),))
    with pytest.raises(WeilError):
        in_DN_k([v, v])  # e^2 != 0, so v is not first-order


def test_in_DNk_matches_brute_force():
    rng = random.Random(13)
    c = make_truncated_context([("e", 4, 2)])
    gens = list(c.gens())
    for _ in range(20):
        vecs = []
        for _ in range(2):
            coords = []
            for _ in range(2):
                el = c.zero()
                for g in gens:
                    el = el + c.scalar(rng.randint(-1, 1)) * g
                coords.append(el)
            vecs.append(PointVec(c, tuple(coords)))
        if not all(in_D_k(v, 1) for v in vecs):
            continue
        assert in_DN_k(vecs) == brute_in_DN_k([point_dense(v) for v in vecs], 2, 4)


def test_DNk_sees_non_symmetric_forms():
    # the nil-square quotient kills all symmetric bilinear forms, yet the
    # pair of distinct differences still fails the full form test
    _, pts = generic_nilsquare_tuple(2, 3)
    d1 = pts[1] - pts[0]
    d2 = pts[2] - pts[0]
    for multiset in itertools.combinations_with_replacement(range(2), 2):
        assert eval_form(symmetric_coordinate_form(2, multiset), [d1, d2]).is_zero()
    assert not in_DN_k([d1, d2])


# -- order-k closeness of tuples ---------------------------------------------------------


def test_in_Ak_singletons_and_empty():
    c = two_blocks()
    assert in_A_k([], 1)
    assert in_A_k([c.point((5, 7))], 1)


def test_in_Ak_pair_with_generic_offset():
    for n, k in [(1, 1), (2, 1), (2, 2)]:
        c, d = generic_Dk_vector(n, k)
        p = c.point([3] * n)
        assert in_A_k([p, p + d], k)


def test_in_Ak_cross_block_triple():
    # (0, a·e1, b·e2): differences mix blocks, so order 1 fails but order 2 holds
    c = two_blocks()
    zero = c.point((0, 0))
    p1 = PointVec(c, (c.gen(0), c.zero()))
    p2 = PointVec(c, (c.zero(), c.gen(1)))
    triple = [zero, p1, p2]
    w = find_A_k_violation(triple, 1)
    assert w is not None
    assert w.monomial == "a·b"
    assert in_A_k(triple, 2)


def test_in_Ak_repeated_points_keep_membership():
    c, pts = generic_Ak_tuple(2, 2, 3)
    assert in_A_k(pts, 2)
    assert in_A_k([pts[0], pts[0], pts[1], pts[2], pts[2]], 2)
    assert in_A_k([pts[2], pts[0]], 2)
    assert in_A_k([pts[1]] * 4, 2)


def test_reindexing_closure():
    rng = random.Random(3)
    c, pts = generic_Ak_tuple(2, 1, 3)
    assert in_A_k(pts, 1)
    for _ in range(20):
        idx = [rng.randrange(len(pts)) for _ in range(rng.randint(1, 5))]
        assert in_A_k([pts[i] for i in idx], 1)
    _, nil = generic_nilsquare_tuple(2, 3)
    for _ in range(20):
        idx = [rng.randrange(len(nil)) for _ in range(rng.randint(1, 5))]
        assert in_nilsquare([nil[i] for i in idx])


def test_generic_Ak_tuple_is_generic():
    # membership holds, and some degree-k product of difference coordinates survives
    c, pts = generic_Ak_tuple(2, 2, 3)
    assert in_A_k(pts, 2)
    d1 = pts[1] - pts[0]
    d2 = pts[2] - pts[0]
    assert not (d1[0] * d2[1]).is_zero()
    # order k-1 fails: that surviving product is the witness shape
    assert find_A_k_violation(pts, 1) is not None


def test_generic_Ak_tuple_with_base_offset():
    c, pts = generic_Ak_tuple(2, 1, 3, base=(Fraction(1, 2), 3))
    assert pts[0].rational_coords() == (Fraction(1, 2), Fraction(3))
    assert in_A_k(pts, 1)
    diffs_match = [(pts[j] - pts[0]).coords for j in (1, 2)]
    c0, pts0 = generic_Ak_tuple(2, 1, 3)
    assert [(pts0[j] - pts0[0]).coords for j in (1, 2)] == diffs_match


def test_generic_models_reject_inexact_bases():
    # 0.1 is not exactly 1/10; a float base must not become a binary rational
    for build in (generic_Ak_tuple, generic_symmetric_Ak_tuple):
        with pytest.raises(TypeError):
            build(1, 1, 2, base=[0.1])
        with pytest.raises(TypeError):
            build(1, 1, 2, base=["1/10"])


def test_linear_image_of_generic_tuple_stays_close():
    from weilaff import PolyMap, Poly, eval_map

    c, pts = generic_Ak_tuple(2, 2, 3)
    # (x, y) -> (2x - y, x + y, 3y)
    f = PolyMap(
        2,
        3,
        [
            Poly(2, {(1, 0): Fraction(2), (0, 1): Fraction(-1)}),
            Poly(2, {(1, 0): Fraction(1), (0, 1): Fraction(1)}),
            Poly(2, {(0, 1): Fraction(3)}),
        ],
    )
    assert in_A_k([eval_map(f, p) for p in pts], 2)


def test_monotonicity_in_order():
    cases = [generic_Ak_tuple(2, 1, 3)[1], generic_Ak_tuple(1, 2, 2)[1]]
    c = two_blocks()
    cases.append(
        [
            c.point((0, 0)),
            PointVec(c, (c.gen(0), c.zero())),
            PointVec(c, (c.zero(), c.gen(1))),
        ]
    )
    for pts in cases:
        for k in (1, 2, 3):
            if in_A_k(pts, k):
                assert in_A_k(pts, k + 1)


# -- nil-square tuples -------------------------------------------------------------------


def test_nilsquare_pair_is_first_order():
    c, d = generic_Dk_vector(2, 1)
    assert in_nilsquare([c.point((0, 0)), c.point((0, 0)) + d])


def test_nilsquare_cross_block_triple_fails():
    c = two_blocks()
    triple = [
        c.point((0, 0)),
        PointVec(c, (c.gen(0), c.zero())),
        PointVec(c, (c.zero(), c.gen(1))),
    ]
    w = find_nilsquare_violation(triple)
    assert w is not None
    assert w.monomial == "a·b"
    assert "P3-P2" in w.location


def test_generic_nilsquare_pair_matches_order_one_vector():
    # m=2 leaves a single difference vector that is exactly a generic D_1 model
    c, pts = generic_nilsquare_tuple(3, 2)
    d = pts[1] - pts[0]
    assert in_D_k(d, 1)
    for a in range(3):
        assert not d[a].is_zero()
        for b in range(3):
            assert (d[a] * d[b]).is_zero()


@pytest.mark.parametrize("n, m", [(2, 3), (3, 3), (2, 4)])
def test_generic_nilsquare_model_matches_explicit_relations(n, m):
    # the model is the k = 1 symmetric-only one; its normal forms must agree
    # with the nil-square relations written out one by one
    c, _ = generic_nilsquare_tuple(n, m)
    ngens = n * (m - 1)
    member = ideal_membership(nilsquare_relations(n, m), ngens, m)
    for mono in monomials_up_to(ngens, m):
        el = c.element({mono: Fraction(1)})
        assert el.is_zero() == member({mono: Fraction(1)}), mono


def test_generic_nilsquare_triple_antisymmetric_survivors():
    _, pts = generic_nilsquare_tuple(2, 3)
    u = pts[1] - pts[0]
    v = pts[2] - pts[0]
    assert in_nilsquare(pts)
    cross = u[0] * v[1]
    assert not cross.is_zero()
    assert u[1] * v[0] == -cross


def test_nilsquare_antisymmetry_of_bilinear_forms():
    _, pts = generic_nilsquare_tuple(2, 3)
    u = pts[1] - pts[0]
    v = pts[2] - pts[0]
    for form in coordinate_product_basis(2, 2):
        assert eval_form(form, [u, v]) == -eval_form(form, [v, u])


def test_nilsquare_iff_symmetric_bilinear_forms_vanish():
    # triples: closeness holds exactly when all symmetric bilinear forms die
    # on every pair of differences
    samples = [generic_nilsquare_tuple(2, 3)[1]]
    c = two_blocks()
    samples.append(
        [
            c.point((0, 0)),
            PointVec(c, (c.gen(0), c.zero())),
            PointVec(c, (c.zero(), c.gen(1))),
        ]
    )
    basis = [
        symmetric_coordinate_form(2, ms)
        for ms in itertools.combinations_with_replacement(range(2), 2)
    ]
    for pts in samples:
        diffs = [pts[j] - pts[i] for i in range(3) for j in range(3) if i != j]
        by_forms = all(
            eval_form(phi, [x, y]).is_zero()
            for phi in basis
            for x in diffs
            for y in diffs
        )
        assert in_nilsquare(pts) == by_forms


def test_nilsquare_tuple_passes_order_m_minus_1():
    for n, m in [(2, 2), (2, 3), (3, 3)]:
        _, pts = generic_nilsquare_tuple(n, m)
        assert in_A_k(pts, m - 1)


def test_nilsquare_overlong_tuple_fails_with_determinant_witness():
    # m+1 nil-square points give m independent differences; the determinant
    # m-form survives on them with coefficient ±m!
    m, n = 2, 2
    _, pts = generic_nilsquare_tuple(n, m + 1)
    assert not in_A_k(pts, m - 1)
    diffs = [pts[j] - pts[0] for j in range(1, m + 1)]
    det = eval_form(determinant_form(m), diffs)
    assert len(det.coeffs) == 1
    (coeff,) = det.coeffs.values()
    assert abs(coeff) == 2  # m!


# -- symmetric-relations model -----------------------------------------------------------


def test_symmetric_model_coincides_with_full_on_pairs():
    # for k=1, m=2 the symmetrized relations already imply all products vanish
    _, pts = generic_symmetric_Ak_tuple(2, 1, 2)
    assert in_A_k(pts, 1)


def test_symmetric_model_separates_from_full_at_k2():
    _, pts = generic_symmetric_Ak_tuple(2, 2, 3)
    w = find_A_k_violation(pts, 2)
    assert w is not None  # a non-symmetric cubic survives
    _, full = generic_Ak_tuple(2, 2, 3)
    assert find_A_k_violation(full, 2) is None


def test_symmetric_model_kills_symmetric_forms():
    k = 2
    _, pts = generic_symmetric_Ak_tuple(2, k, 3)
    diffs = [pts[1] - pts[0], pts[2] - pts[0], pts[2] - pts[1]]
    for ms in itertools.combinations_with_replacement(range(2), k + 1):
        phi = symmetric_coordinate_form(2, ms)
        for slots in itertools.product(diffs, repeat=k + 1):
            assert eval_form(phi, list(slots)).is_zero()


def test_symmetric_model_base_offset_preserves_answers():
    _, plain = generic_symmetric_Ak_tuple(2, 2, 3)
    _, moved = generic_symmetric_Ak_tuple(2, 2, 3, base=(7, Fraction(-1, 3)))
    assert in_A_k(plain, 2) == in_A_k(moved, 2)
    assert in_A_k(plain, 3) == in_A_k(moved, 3)
    w_plain = find_A_k_violation(plain, 2)
    w_moved = find_A_k_violation(moved, 2)
    assert (w_plain is None) == (w_moved is None)


# -- pruning against the unpruned searches ----------------------------------------------


@st.composite
def search_cases(draw):
    """A context of 2-3 blocks with caps 1-3, half the time with one or two
    homogeneous relations of degree 2; a point tuple whose differences use
    the generators of a drawn subset of the blocks only; and 2-3 vectors,
    each linear in the generators of one block."""
    blocks = [(name, draw(st.integers(1, 2)), draw(st.integers(1, 3)))
              for name in "abc"[: draw(st.integers(2, 3))]]
    ngens = sum(count for _, count, _ in blocks)
    quadratic = [m for m in monomials_up_to(ngens, 2) if sum(m) == 2]
    relation = st.dictionaries(st.sampled_from(quadratic), st.integers(-2, 2).filter(bool),
                               min_size=1, max_size=2)
    relations = draw(st.lists(relation, min_size=1, max_size=2)) if draw(st.booleans()) else []
    ctx = make_truncated_context(blocks, relations)
    starts = list(itertools.accumulate([0] + [count for _, count, _ in blocks]))

    def elements(block_set, degrees, min_size):
        gens = [i for b in block_set for i in range(starts[b], starts[b + 1])]
        monos = [m for m in monomials_up_to(ngens, 2) if sum(m) in degrees
                 and all(e == 0 or i in gens for i, e in enumerate(m))]
        coeff = st.fractions(-3, 3, max_denominator=3).filter(bool)
        return st.dictionaries(st.sampled_from(monos), coeff, min_size=min_size,
                               max_size=3).map(ctx.element)

    touched = draw(st.sets(st.integers(0, len(blocks) - 1), min_size=1))
    small = elements(touched, (0, 1, 2), 0)
    n, m = draw(st.integers(1, 2)), draw(st.integers(2, 3))
    base = ctx.point([draw(st.integers(-2, 2)) for _ in range(n)])
    points = [base] + [base + PointVec(ctx, tuple(draw(small) for _ in range(n)))
                       for _ in range(m - 1)]
    # DN_k needs every vector in D_k, k = count - 1, which a block capped at
    # most k grants; the blocks come in a drawn order, so products cross them
    count = draw(st.integers(2, 3))
    low = [b for b, (_, _, cap) in enumerate(blocks) if cap < count] or range(len(blocks))
    order = draw(st.permutations(low))
    vectors = []
    for i in range(count):
        linear = elements({order[i % len(order)]}, (1,), 1)
        vectors.append(PointVec(ctx, tuple(draw(linear) for _ in range(n))))
    return points, vectors, draw(st.integers(1, 3))


def _same(witness, found):
    if found is None:
        return witness is None
    return witness == Witness.of(*found)


@settings(max_examples=100, deadline=None)
@given(search_cases())
def test_pruned_searches_match_the_unpruned_ones(case):
    points, vectors, k = case
    v = points[-1] - points[0]
    assert _same(find_D_k_violation(v, k),
                 search_multiset_products([(f"v[{a + 1}]", v[a]) for a in range(v.dim)], k + 1))
    factors = [(f"(P{j + 1}-P{i + 1})[{a + 1}]", (points[j] - points[i])[a])
               for i, j in itertools.combinations(range(len(points)), 2)
               for a in range(v.dim)]
    assert _same(find_A_k_violation(points, k), search_multiset_products(factors, k + 1))
    pairs = [search_multiset_products([f for f in factors if f[0].startswith(f"(P{j + 1}-P{i + 1})")], 2)
             for i, j in itertools.combinations(range(len(points)), 2)]
    assert _same(find_nilsquare_violation(points), next((p for p in pairs if p), None))
    order = len(vectors) - 1
    members = [search_multiset_products([(f"v[{a + 1}]", x[a]) for a in range(x.dim)], order + 1)
               for x in vectors]
    if any(members):
        with pytest.raises(WeilError, match="is not in D_"):
            find_DN_k_violation(vectors)
    else:
        assert _same(find_DN_k_violation(vectors), search_cross_products(vectors))


def _pinned_case():
    """P = (1, 2) with Q = P + q, S = P + s and T = P + d over blocks
    q(2,1), s(2,1), d(2,2)."""
    ctx = make_truncated_context([("q", 2, 1), ("s", 2, 1), ("d", 2, 2)])
    g = ctx.gens()
    P = ctx.point((1, 2))
    Q, S, T = (P + PointVec(ctx, tuple(g[i:i + 2])) for i in (0, 2, 4))
    return P, Q, S, T


@pytest.mark.parametrize("search, products, witness", [
    (lambda P, Q, S, T: find_A_k_violation([P, Q, S], 2), 0, None),
    (lambda P, Q, S, T: find_A_k_violation([P, T], 2), 0, None),
    (lambda P, Q, S, T: find_D_k_violation(T - P, 2), 0, None),
    (lambda P, Q, S, T: find_DN_k_violation([Q - P, S - P]), 1, ("v1[1]·v2[1]", "q1·s1")),
    (lambda P, Q, S, T: find_A_k_violation([P, Q, S], 1), 3, ("(P2-P1)[1]·(P3-P1)[1]", "q1·s1")),
], ids=["A2(P;Q;S)", "A2(P;T)", "D2(T-P)", "DN1(Q-P;S-P)", "A1(P;Q;S)"])
def test_searches_build_no_product_past_the_blocks_they_touch(monkeypatch, search, products, witness):
    # a product of q's and s's has degree at most 1 + 1, of d's at most 2,
    # however high the total cap (4) is
    points = _pinned_case()
    built = []
    mul = WeilElement.__mul__
    monkeypatch.setattr(WeilElement, "__mul__", lambda x, y: built.append(1) or mul(x, y))
    w = search(*points)
    assert len(built) == products
    if witness is None:
        assert w is None
    else:
        assert (w.location, w.monomial, w.coefficient) == (*witness, 1)


def test_searches_over_a_context_without_generators():
    # its one block has no generator, so the reach is 0; constants still multiply
    ctx = make_quotient_context([], [], 2)
    w = find_A_k_violation([ctx.point((1,)), ctx.point((3,))], 1)
    assert (w.location, w.monomial, w.coefficient) == ("(P2-P1)[1]·(P2-P1)[1]", "1", 4)
    assert find_D_k_violation(ctx.point((0,)), 1) is None
