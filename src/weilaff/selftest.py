"""Built-in verification suite.

Each criterion drives a theorem-level property on seeded generic models and
reports through :class:`~weilaff.report.CheckReport`.  Entry names embed the
statement they exercise (e.g. ``thm-i-morph/n=2,m=1,k=2,t=3``) so a failing
line identifies the construction at fault without reading the code.

Randomness is reproducible: every criterion derives its own
``random.Random`` stream from the caller's seed, coefficients are drawn from
{-2..2} with denominators <= 5, and all arithmetic is exact.
"""

from __future__ import annotations

import itertools
import math
import random
from fractions import Fraction
from typing import Dict, List, Sequence, Tuple

from . import dsl
from .iaffine import (
    CanonicalAction,
    Connection,
    ConnectionAction,
    RetractAction,
    RetractPair,
    _two_jet,
    check_axioms,
    check_idempotent_identities,
    check_pullback_lemma,
    connection_apply,
    connection_combine,
    difference_witness,
)
from .neighborhoods import (
    Witness,
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
    in_D_k,
    in_DN_k,
    symmetric_coordinate_form,
)
from .polymap import Add, Div, ExprMap, Mul, Poly, PolyMap, Sqrt, Var, eval_map
from .report import CheckReport
from .weil import (
    PointVec,
    SingularMatrixError,
    _contract,
    _rational_matrix_inverse,
    make_truncated_context,
)


# -- seeded generators ---------------------------------------------------------------


def _rng(seed: int, tag: str) -> random.Random:
    return random.Random(f"{seed}/{tag}")


def _frac(rng: random.Random) -> Fraction:
    return Fraction(rng.randint(-2, 2), rng.randint(1, 5))


def _monomials(nvars: int, degree: int):
    for exps in itertools.product(range(degree + 1), repeat=nvars):
        if sum(exps) <= degree:
            yield exps


def random_poly(rng: random.Random, nvars: int, degree: int) -> Poly:
    terms = {}
    for mono in _monomials(nvars, degree):
        c = _frac(rng)
        if c:
            terms[mono] = c
    return Poly(nvars, terms)


def random_polymap(rng: random.Random, n: int, m: int, degree: int) -> PolyMap:
    return PolyMap(n, m, [random_poly(rng, n, degree) for _ in range(m)])


def random_weights(rng: random.Random, t: int) -> Tuple[Fraction, ...]:
    """A weight row of length t summing to 1 (last entry balances)."""
    head = [_frac(rng) for _ in range(t - 1)]
    return tuple(head + [Fraction(1) - sum(head)])


def random_connection(rng: random.Random, n: int, degree: int = 2) -> Connection:
    entries = {}
    for i in range(n):
        for a in range(n):
            for b in range(a, n):
                p = random_poly(rng, n, degree)
                if not p.is_zero():
                    entries[(i, a, b)] = p
    return Connection(n, entries)


def random_index_map(rng: random.Random, m_out: int, m_in: int) -> Tuple[int, ...]:
    return tuple(rng.randrange(m_in) for _ in range(m_out))


# -- criterion 1: every polynomial map preserves k-th order i-tuples -----------------


def _grid_cells(grid: str):
    if grid == "full":
        return [(n, m, k) for n in (1, 2, 3) for m in (1, 2) for k in (1, 2, 3)]
    return [(n, m, k) for n in (1, 2) for m in (1,) for k in (1, 2)]


def _tuple_sizes(k: int):
    return sorted({2, 3, min(k + 2, 4)})


def crit_i_morphism(report: CheckReport, grid: str, seed: int) -> None:
    nmaps = 20 if grid == "full" else 5
    for n, m, k in _grid_cells(grid):
        for t in _tuple_sizes(k):
            name = f"thm-i-morph/n={n},m={m},k={k},t={t}"

            def body(n=n, m=m, k=k, t=t):
                rng = _rng(seed, f"imorph/{n}/{m}/{k}/{t}")
                _, pts = generic_Ak_tuple(n, k, t)
                for _ in range(nmaps):
                    f = random_polymap(rng, n, m, k + 1)
                    w = find_A_k_violation([eval_map(f, P) for P in pts], k)
                    if w is not None:
                        return w
                return None

            report.run(name, "i-morphism", body)


# -- criterion 2: the affine structure of R^n restricts to i-tuples -------------------


def crit_canonical_axioms(report: CheckReport, grid: str, seed: int) -> None:
    cells = sorted({(n, k) for n, _, k in _grid_cells(grid)})
    for n, k in cells:
        for t in _tuple_sizes(k):
            name = f"thm-i-aff-restrict/n={n},k={k},t={t}"
            rng = _rng(seed, f"axioms/{n}/{k}/{t}")
            _, pts = generic_Ak_tuple(n, k, t)
            families = [random_weights(rng, t) for _ in range(3)]
            outer = random_weights(rng, 3)
            report.extend(
                check_axioms(CanonicalAction(n, k), pts, families, outer=outer, name_prefix=name)
            )


# -- criterion 3: lambda(P,Q,S) agrees with the (-1,1,1) affine combination ----------


def crit_connection_equiv(report: CheckReport, grid: str, seed: int) -> None:
    ngam = 20 if grid == "full" else 5
    dims = (1, 2, 3) if grid == "full" else (1, 2)
    lam = (Fraction(-1), Fraction(1), Fraction(1))
    for n in dims:
        name = f"thm-connection-equiv/n={n}"

        def body(n=n):
            rng = _rng(seed, f"equiv/{n}")
            ctx = make_truncated_context([("q", n, 1), ("s", n, 1)])
            base = [_frac(rng) for _ in range(n)]
            P = ctx.point(base)
            Q = PointVec(ctx, tuple(ctx.scalar(base[a]) + ctx.gen(a) for a in range(n)))
            S = PointVec(ctx, tuple(ctx.scalar(base[a]) + ctx.gen(n + a) for a in range(n)))
            for _ in range(ngam):
                c = random_connection(rng, n)
                w = difference_witness(
                    connection_apply(c, P, Q, S),
                    connection_combine(c, lam, [P, Q, S]),
                    "apply - combine",
                )
                if w is not None:
                    return w
            return None

        report.run(name, "connection-equiv", body)


# -- criterion 4: the connection action is associative -------------------------------


def crit_connection_assoc(report: CheckReport, grid: str, seed: int) -> None:
    dims = (1, 2, 3) if grid == "full" else (1, 2)
    sizes = (2, 3, 4) if grid == "full" else (2, 3)
    for n in dims:
        for t in sizes:
            name = f"lem-connection-assoc/n={n},t={t}"
            rng = _rng(seed, f"assoc/{n}/{t}")
            _, pts = generic_Ak_tuple(n, 2, t)
            c = random_connection(rng, n)
            families = [random_weights(rng, t) for _ in range(3)]
            outer = random_weights(rng, 3)
            report.extend(
                check_axioms(ConnectionAction(c), pts, families, outer=outer, name_prefix=name)
            )


# -- criterion 5: Christoffel symbols pull back along chart maps ---------------------


def _invertible_linear(rng: random.Random, n: int) -> List[List[int]]:
    while True:
        L = [[rng.randint(-2, 2) for _ in range(n)] for _ in range(n)]
        try:
            _rational_matrix_inverse([[Fraction(v) for v in row] for row in L])
        except SingularMatrixError:
            continue
        return L


def crit_pullback(report: CheckReport, grid: str, seed: int) -> None:
    sizes = (2, 3) if grid == "full" else (2,)
    for n in (1, 2):
        for t in sizes:
            name = f"lem-christoffel-pullback/n={n},t={t}"
            rng = _rng(seed, f"pull/{n}/{t}")
            _, pts = generic_Ak_tuple(n, 2, t)
            L = _invertible_linear(rng, n)
            comps = []
            for i in range(n):
                terms: Dict[tuple, Fraction] = {}
                for j in range(n):
                    if L[i][j]:
                        unit = tuple(1 if a == j else 0 for a in range(n))
                        terms[unit] = Fraction(L[i][j])
                for mono in _monomials(n, 2):
                    if sum(mono) == 2:
                        c = _frac(rng)
                        if c:
                            terms[mono] = c
                comps.append(Poly(n, terms))
            iota = PolyMap(n, n, comps)
            c = random_connection(rng, n)
            families = [random_weights(rng, t) for _ in range(2)]
            report.extend(check_pullback_lemma(c, iota, pts, families, name_prefix=name))


# -- criterion 6: retracts carry the induced i-affine structure ----------------------


def crit_retract(report: CheckReport, grid: str, seed: int) -> None:
    rng = _rng(seed, "retract")

    # (a) linear projector: image = plane z=0 inside R^3, collapsing along (1,1,1)
    x = Poly(2, {(1, 0): Fraction(1)})
    y = Poly(2, {(0, 1): Fraction(1)})
    iota = PolyMap(2, 3, [x, y, Poly(2, {})])
    r = PolyMap(
        3,
        2,
        [
            Poly(3, {(1, 0, 0): Fraction(1), (0, 0, 1): Fraction(-1)}),
            Poly(3, {(0, 1, 0): Fraction(1), (0, 0, 1): Fraction(-1)}),
        ],
    )
    rp = RetractPair(iota, r)
    # action points live on the chart; membership embeds them into the plane
    _, chart_pts = generic_Ak_tuple(2, 2, 3, base=(1, 2))
    families = [random_weights(rng, 3) for _ in range(2)]
    outer = random_weights(rng, 2)
    report.extend(
        check_axioms(RetractAction(rp), chart_pts, families, outer=outer,
                     name_prefix="thm-retract-iaffine/projector")
    )
    report.extend(
        check_idempotent_identities(rp, (1, 2, 0), name_prefix="lem-idempotent-derivs/projector")
    )

    # (b) circle retraction x / sqrt(x.x), base point (3/5, 4/5)
    norm = Sqrt(Add(Mul(Var(0), Var(0)), Mul(Var(1), Var(1))))
    e = ExprMap(2, 2, (Div(Var(0), norm), Div(Var(1), norm)))
    rp2 = RetractPair.from_idempotent(e)
    base = (Fraction(3, 5), Fraction(4, 5))
    _, raw = generic_Ak_tuple(2, 2, 3, base=base)
    pts2 = [eval_map(e, P) for P in raw]
    families2 = [random_weights(rng, 3) for _ in range(2)]
    outer2 = random_weights(rng, 2)
    report.extend(
        check_axioms(RetractAction(rp2), pts2, families2, outer=outer2,
                     name_prefix="thm-retract-iaffine/circle")
    )
    report.extend(
        check_idempotent_identities(rp2, base, name_prefix="lem-idempotent-derivs/circle")
    )


# -- criterion 7: nil-square tuples support at most m-1 independent differences ------


def crit_nilsquare_bounds(report: CheckReport, grid: str, seed: int) -> None:
    for m in (2, 3):
        n = m
        name = f"rem-nilsquare-bounds/m={m}"

        def body(m=m, n=n):
            _, pts = generic_nilsquare_tuple(n, m)
            w = find_A_k_violation(pts, m - 1)
            if w is not None:
                return w  # the m-tuple must be an (m-1)-th order i-tuple
            _, big = generic_nilsquare_tuple(n, m + 1)
            if find_A_k_violation(big, m - 1) is None:
                return Witness(f"(m+1)-tuple unexpectedly passed A_{m - 1}", "1", Fraction(1))
            diffs = [big[j] - big[0] for j in range(1, m + 1)]
            val = eval_form(determinant_form(m), diffs)
            coeffs = list(val.coeffs.items())
            if len(coeffs) != 1 or abs(coeffs[0][1]) != math.factorial(m):
                return Witness("determinant form is not m! times one monomial", str(val), Fraction(1))
            return None

        report.run(name, "nilsquare-bounds", body)


# -- criterion 8: the order-2 obstruction term in the symmetric-only model -----------
#
# For f: R^2 -> R^2 with J = f'(0), H = f''(0) and a symmetric trilinear phi, the
# obstruction term is
#
#     E(f, phi) = 1/2 * ( phi(Ju, Ju, Hvv) - phi(Jv, Jv, Huu) )
#
# evaluated on the generic pair (u, v) of the symmetric-only second-order model.
# E is linear in H, so enumerating every J over {0,+-1}^{2x2} against the six
# quadratic-monomial basis elements of H covers the whole {0,+-1} coefficient
# grid exactly (constant terms of f never enter J or H).  The search below
# proves there is *no* nonzero instance: E vanishes identically, because the
# symmetrized degree-3 relations already force the congruence
#
#     phi(Ju, Ju, Hvv) == -2 phi(Ju, Jv, Huv)
#
# whose right-hand side is symmetric under exchanging u and v (H is symmetric),
# so the two halves of E cancel.  Both facts are checked here, together with a
# degree-3 witness showing the symmetric-only model is still strictly larger
# than the full model — the vanishing is a theorem, not a degeneracy.


def _sym_basis_forms(dim: int):
    return [
        symmetric_coordinate_form(dim, M)
        for M in itertools.combinations_with_replacement(range(dim), 3)
    ]


def _apply_linear(J, vec: PointVec) -> PointVec:
    rows = [{(a,): c for a, c in enumerate(row)} for row in J]
    return PointVec(vec.context, tuple(_contract(vec.context, rows, (vec.coords,))))


def _quad_vec(dim: int, comp: int, a: int, b: int, xs: PointVec, ys: PointVec) -> PointVec:
    """One-component vector holding the polarization of the monomial x_a x_b."""
    ctx = xs.context
    coords = [ctx.zero()] * dim
    coords[comp] = xs[a] * ys[b] + xs[b] * ys[a]
    return PointVec(ctx, tuple(coords))


def crit_symmetric_obstruction(report: CheckReport, grid: str, seed: int) -> None:
    ctx, pts = generic_symmetric_Ak_tuple(2, 2, 3, degree_cap=4)
    u = pts[1] - pts[0]
    v = pts[2] - pts[0]
    forms = _sym_basis_forms(2)
    half = Fraction(1, 2)
    j_range = (0, 1, -1) if grid == "full" else (0, 1)
    quad_monos = [(a, b) for a in range(2) for b in range(a, 2)]

    def search():
        for J in itertools.product(j_range, repeat=4):
            Jm = [[J[0], J[1]], [J[2], J[3]]]
            Ju = _apply_linear(Jm, u)
            Jv = _apply_linear(Jm, v)
            for comp in range(2):
                for a, b in quad_monos:
                    Hvv = _quad_vec(2, comp, a, b, v, v)
                    Huu = _quad_vec(2, comp, a, b, u, u)
                    for idx, phi in enumerate(forms):
                        val = (eval_form(phi, [Ju, Ju, Hvv]) - eval_form(phi, [Jv, Jv, Huu])) * half
                        if not val.is_zero():
                            return Witness.of(f"J={Jm}, H-basis=({comp},{a},{b}), phi#{idx}", val)
        return None

    report.run("disc-symmetric-forms/search", "obstruction-search", search)

    def congruence():
        rng = _rng(seed, "sym-congruence")
        rounds = 8 if grid == "full" else 4
        for _ in range(rounds):
            Jm = [[_frac(rng) for _ in range(2)] for _ in range(2)]
            # one symmetric quadratic form per component
            h_rows = [{}, {}]
            for row in h_rows:
                for a, b in quad_monos:
                    row[(a, b)] = row[(b, a)] = _frac(rng)
            Ju = _apply_linear(Jm, u)
            Jv = _apply_linear(Jm, v)

            def h_pair(xs, ys):
                return PointVec(ctx, tuple(_contract(ctx, h_rows, (xs.coords, ys.coords))))

            Hvv = h_pair(v, v)
            Huv = h_pair(u, v)
            for idx, phi in enumerate(forms):
                lhs = eval_form(phi, [Ju, Ju, Hvv])
                rhs = eval_form(phi, [Ju, Jv, Huv]) * Fraction(-2)
                d = lhs - rhs
                if not d.is_zero():
                    return Witness.of(f"phi#{idx}: phi(Ju,Ju,Hvv) + 2 phi(Ju,Jv,Huv)", d)
        return None

    report.run("disc-symmetric-forms/congruence", "obstruction-congruence", congruence)

    def full_model():
        fctx, fpts = generic_Ak_tuple(2, 2, 3)
        fu = fpts[1] - fpts[0]
        fv = fpts[2] - fpts[0]
        rng = _rng(seed, "sym-full-model")
        for _ in range(20 if grid == "full" else 5):
            J = [[rng.choice((0, 1, -1)) for _ in range(2)] for _ in range(2)]
            Ju = _apply_linear(J, fu)
            Jv = _apply_linear(J, fv)
            for comp in range(2):
                for a, b in quad_monos:
                    Hvv = _quad_vec(2, comp, a, b, fv, fv)
                    Huu = _quad_vec(2, comp, a, b, fu, fu)
                    for phi in forms:
                        val = (eval_form(phi, [Ju, Ju, Hvv]) - eval_form(phi, [Jv, Jv, Huu])) * half
                        if not val.is_zero():
                            return Witness.of("nonzero in the full model", val)
            # the same maps still preserve second-order i-tuples (criterion 1 there)
            f = random_polymap(rng, 2, 2, 3)
            w = find_A_k_violation([eval_map(f, P) for P in fpts], 2)
            if w is not None:
                return w
        return None

    report.run("disc-symmetric-forms/full-model", "obstruction-full-model", full_model)

    def separation():
        alive = u[0] * u[0] * v[1]
        if alive.is_zero():
            return Witness("u1^2 v2 vanished in the symmetric-only model", "u1^2*v2", Fraction(0))
        rel = u[0] * u[0] * v[1] + u[0] * u[1] * v[0] * 2
        if not rel.is_zero():
            return Witness.of("symmetrized relation survived", rel)
        _, fpts = generic_Ak_tuple(2, 2, 3)
        fu = fpts[1] - fpts[0]
        fv = fpts[2] - fpts[0]
        dead = fu[0] * fu[0] * fv[1]
        if not dead.is_zero():
            return Witness.of("degree-3 monomial survived the full model", dead)
        return None

    report.run("disc-symmetric-forms/model-separation", "obstruction-separation", separation)

    def derivative_path():
        # J and H of random maps, read off their 2-jets at the origin, where
        # the cells above draw them directly
        rng = _rng(seed, "sym-deriv")
        base = ctx.point((0, 0))
        for _ in range(6 if grid == "full" else 3):
            _, J, H = _two_jet(random_polymap(rng, 2, 2, 2), base)
            rows = [{(a, b): x for a, row in enumerate(block) for b, x in enumerate(row)}
                    for block in H]
            Ju, Jv = _apply_linear(J, u), _apply_linear(J, v)
            Hvv, Huu = (PointVec(ctx, tuple(_contract(ctx, rows, (w.coords, w.coords))))
                        for w in (v, u))
            for phi in forms:
                val = (eval_form(phi, [Ju, Ju, Hvv]) - eval_form(phi, [Jv, Jv, Huu])) * half
                if not val.is_zero():
                    return Witness.of("nonzero along the jet route", val)
        return None

    report.run("disc-symmetric-forms/derivative-path", "obstruction-derivative", derivative_path)


# -- criterion 9: a k-th order i-tuple is also a (k+1)-th order i-tuple --------------


def crit_embedding(report: CheckReport, grid: str, seed: int) -> None:
    cells = sorted({(n, k) for n, _, k in _grid_cells(grid)})
    for n, k in cells:
        for t in _tuple_sizes(k):
            name = f"cor-i-embeddings/n={n},k={k},t={t}"

            def body(n=n, k=k, t=t):
                _, pts = generic_Ak_tuple(n, k, t)
                return find_A_k_violation(pts, k + 1)

            report.run(name, "embedding", body)


# -- criterion 10: membership is stable under arbitrary reindexing -------------------


def crit_reindex(report: CheckReport, grid: str, seed: int) -> None:
    rounds = 25 if grid == "full" else 5

    def body_ak():
        rng = _rng(seed, "reindex-ak")
        _, pts = generic_Ak_tuple(2, 2, 3)
        for _ in range(rounds):
            h = random_index_map(rng, rng.randint(1, 4), len(pts))
            w = find_A_k_violation([pts[i] for i in h], 2)
            if w is not None:
                return w
        return None

    report.run("def-i-structure-reindex/i-tuple", "reindex", body_ak)

    def body_nil():
        rng = _rng(seed, "reindex-nil")
        _, pts = generic_nilsquare_tuple(2, 3)
        for _ in range(rounds):
            h = random_index_map(rng, rng.randint(1, 4), len(pts))
            w = find_nilsquare_violation([pts[i] for i in h])
            if w is not None:
                return w
        return None

    report.run("def-i-structure-reindex/nilsquare", "reindex", body_nil)


# -- criterion 11: predicates agree with brute force over the full form basis --------


def _dk_candidates(n: int):
    """Vectors with varied D_k membership, each in its own context."""
    out = []
    for j in (1, 2, 3):
        _, vj = generic_Dk_vector(n, j)
        out.append(vj)
        out.append(vj + vj)
        out.append(vj * Fraction(-1, 3))
    return out


def crit_oracle_equivalence(report: CheckReport, grid: str, seed: int) -> None:
    for n in (1, 2):
        for k in (1, 2):
            name = f"def-DNk-forms/Dk/n={n},k={k}"

            def body(n=n, k=k):
                basis = list(coordinate_product_basis(n, k + 1))
                for v in _dk_candidates(n):
                    fast = in_D_k(v, k)
                    brute = all(eval_form(phi, [v] * (k + 1)).is_zero() for phi in basis)
                    if fast != brute:
                        return Witness(
                            f"in_D_{k} disagrees with the form basis", str(tuple(map(str, v))), Fraction(1)
                        )
                return None

            report.run(name, "oracle-Dk", body)

    for n in (1, 2):
        for k in (1, 2):
            name = f"def-DNk-forms/DNk/n={n},k={k}"

            def body(n=n, k=k):
                basis = list(coordinate_product_basis(n, k + 1))
                families = []
                # identical copies of one generic D_k vector: all forms vanish
                _, d = generic_Dk_vector(n, k)
                families.append([d] * (k + 1))
                families.append([d * (j + 1) for j in range(k + 1)])
                # independent blocks: cross products survive, so the family fails
                blocks = [(f"d{j}", n, k) for j in range(k + 1)]
                ctx = make_truncated_context(blocks)
                indep = [
                    PointVec(ctx, tuple(ctx.gen(j * n + a) for a in range(n)))
                    for j in range(k + 1)
                ]
                families.append(indep)
                for vecs in families:
                    fast = in_DN_k(vecs)
                    brute = all(eval_form(phi, vecs).is_zero() for phi in basis)
                    if fast != brute:
                        return Witness(f"in_DN_{k} disagrees with the form basis", "family", Fraction(1))
                return None

            report.run(name, "oracle-DNk", body)


# -- criterion 12: scenario text round-trips and errors point at the break -----------


def _random_scenario(rng: random.Random) -> str:
    lines = []
    if rng.random() < 0.5:
        lines.append("version 1")
    nv = rng.randint(1, 3)
    cap = rng.randint(1, 2)
    lines.append(f"block g vars {nv} cap {cap}")
    if rng.random() < 0.4:
        lines.append("quotient w vars 2 degcap 3 relations { w[1]^2, w[1]*w[2] + w[2]*w[1], w[2]^2 }")
    dim = rng.randint(1, 2)

    def coord() -> str:
        roll = rng.random()
        if roll < 0.25:
            return str(rng.randint(-2, 2))
        if roll < 0.45:
            return f"{rng.randint(1, 3)}/{rng.randint(2, 5)}"
        s = f"g[{rng.randint(1, nv)}]"
        c = rng.randint(2, 3)
        if rng.random() < 0.5:
            s = f"{c}*{s}"
        if rng.random() < 0.4:
            s += f" + {rng.randint(-1, 1)}"
        return s

    def vec() -> str:
        if dim == 1:
            return f"({coord()},)"
        return "(" + ", ".join(coord() for _ in range(dim)) + ")"

    npts = rng.randint(2, 3)
    for p in range(npts):
        lines.append(f"point P{p + 1} = {vec()}")

    params = ["x", "y"][:dim]
    out_dim = rng.randint(1, 2)

    def poly_expr() -> str:
        terms = []
        for _ in range(rng.randint(1, 3)):
            var = rng.choice(params)
            d = rng.randint(1, 2)
            c = rng.randint(-2, 2)
            t = var if d == 1 else f"{var}^{d}"
            if c != 1:
                t = f"{c}*{t}"
            terms.append(t)
        return " + ".join(terms)

    lines.append(
        f"map f({', '.join(params)}) -> {out_dim} "
        "{ " + ", ".join(poly_expr() for _ in range(out_dim)) + " }"
    )
    if rng.random() < 0.5:
        entries = []
        for idx in itertools.combinations_with_replacement(range(1, dim + 1), 2):
            if rng.random() < 0.7:
                entries.append(f"[{idx[0]}, {idx[1]}] = {rng.randint(-2, 2)}")
        if entries:
            lines.append(f"form phi arity 2 dim {dim} {{ " + " ".join(entries) + " }")
    if rng.random() < 0.4:
        entries = []
        for i in range(1, dim + 1):
            for a in range(1, dim + 1):
                for b in range(a, dim + 1):
                    if rng.random() < 0.5:
                        entries.append(f"GAMMA[{i}][{a}, {b}] = {rng.randint(1, 2)}*x1")
        if entries:
            lines.append(f"connection gam dim {dim} {{ " + " ".join(entries) + " }")

    k = rng.randint(1, 2)
    lines.append(f"check in-Dk (P1 - P2) k={k}")
    pts = "; ".join(f"P{p + 1}" for p in range(npts))
    lines.append(f"check i-tuple ({pts}) k={k}")
    if rng.random() < 0.5:
        lines.append(f"check nilsquare ({pts})")
    if rng.random() < 0.5:
        lines.append(f"check i-morphism f ({pts}) k={k}")
    if rng.random() < 0.5:
        head = [str(rng.randint(-1, 1)) for _ in range(npts - 1)]
        tail = Fraction(1) - sum(Fraction(h) for h in head)
        row = "(" + ", ".join(head + [str(tail)]) + ")"
        lines.append(f"check axioms canonical k={k} points ({pts}) weights ({row})")
    return "\n".join(lines) + "\n"


_MUTATION_POOL = ("}", ")", "]", ";", "vars", "check", "->", "7", "=", "relations")


def crit_parser(report: CheckReport, grid: str, seed: int) -> None:
    nround = 100 if grid == "full" else 25
    nmut = 50 if grid == "full" else 15

    def roundtrip():
        rng = _rng(seed, "roundtrip")
        for i in range(nround):
            text = _random_scenario(rng)
            sc = dsl.parse_scenario(text)
            out = dsl.render_scenario(sc)
            sc2 = dsl.parse_scenario(out)
            if sc2 != sc:
                return Witness(f"scenario #{i} changed under render/parse", "scenario", Fraction(1))
            if dsl.render_scenario(sc2) != out:
                return Witness(f"scenario #{i} rendering is not stable", "scenario", Fraction(1))
        return None

    report.run("fmt-scenario-roundtrip/round-trip", "parser-roundtrip", roundtrip)

    def mutations():
        rng = _rng(seed, "mutation")
        hits = 0
        attempts = 0
        while hits < nmut:
            attempts += 1
            if attempts > 200 * nmut:
                return Witness("mutation generator starved", "parser", Fraction(1))
            base = dsl.render_scenario(dsl.parse_scenario(_random_scenario(rng)))
            toks = [t for t in dsl._lex(base) if t.type not in ("NEWLINE", "EOF")]
            tok = rng.choice(toks)
            repl = rng.choice(_MUTATION_POOL)
            if repl == tok.value:
                continue
            src_lines = base.splitlines(keepends=True)
            ln = src_lines[tok.line - 1]
            col = tok.col - 1
            mutated_line = ln[:col] + repl + ln[col + len(tok.value):]
            mutated = "".join(src_lines[: tok.line - 1]) + mutated_line + "".join(src_lines[tok.line:])
            try:
                dsl.parse_scenario(mutated)
            except dsl.ParseError as err:
                where = (err.line, err.column)
                if where <= (tok.line, tok.col):
                    # at the mutated token, or at its start when the
                    # replacement lexically glues onto the preceding token
                    if err.line != tok.line:
                        return Witness(
                            f"error at {where} is on a line before the mutated "
                            f"token at ({tok.line},{tok.col})",
                            repr(repl),
                            Fraction(1),
                        )
                    hits += 1
                else:
                    # the replacement stayed locally viable and the stream
                    # became inconsistent later; the position must still point
                    # into the source
                    lines = mutated.splitlines() or [""]
                    if not (1 <= err.line <= len(lines)) or not (
                        1 <= err.column <= len(lines[err.line - 1]) + 1
                    ):
                        return Witness(
                            f"error position {where} points outside the source",
                            repr(repl),
                            Fraction(1),
                        )
            # a mutation the grammar still accepts is retried with a new draw
        return None

    report.run("fmt-scenario-roundtrip/mutation-positions", "parser-mutations", mutations)


# -- registry -------------------------------------------------------------------------

CRITERIA = (
    ("thm-i-morph", crit_i_morphism),
    ("thm-i-aff-restrict", crit_canonical_axioms),
    ("thm-connection-equiv", crit_connection_equiv),
    ("lem-connection-assoc", crit_connection_assoc),
    ("lem-christoffel-pullback", crit_pullback),
    ("thm-retract-iaffine", crit_retract),
    ("rem-nilsquare-bounds", crit_nilsquare_bounds),
    ("disc-symmetric-forms", crit_symmetric_obstruction),
    ("cor-i-embeddings", crit_embedding),
    ("def-i-structure-reindex", crit_reindex),
    ("def-DNk-forms", crit_oracle_equivalence),
    ("fmt-scenario-roundtrip", crit_parser),
)


def run_selftest(grid: str = "small", seed: int = 0) -> CheckReport:
    """Run the whole suite; ``grid`` picks the cell ranges, ``seed`` the streams."""
    if grid not in ("small", "full"):
        raise ValueError("grid must be 'small' or 'full'")
    report = CheckReport()
    for _, fn in CRITERIA:
        fn(report, grid, seed)
    return report
