"""Independent reference implementations used to cross-check the library.

Everything here is deliberately naive: dense dict convolution, explicit
Gaussian elimination, and exhaustive index loops.  Nothing imports from
weilaff except plain data (coefficient dicts, Fractions), so an agreement
between the two sides is meaningful.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction
from typing import Callable, Dict, List, Mapping, Sequence, Tuple

Mono = Tuple[int, ...]
Dense = Dict[Mono, Fraction]


def dense_add(a: Mapping[Mono, Fraction], b: Mapping[Mono, Fraction]) -> Dense:
    out: Dense = dict(a)
    for m, c in b.items():
        out[m] = out.get(m, Fraction(0)) + c
    return {m: c for m, c in out.items() if c}


def dense_scale(a: Mapping[Mono, Fraction], q: Fraction) -> Dense:
    return {m: c * q for m, c in a.items() if c * q}


def dense_mul(a: Mapping[Mono, Fraction], b: Mapping[Mono, Fraction], cap: int) -> Dense:
    out: Dense = {}
    for m1, c1 in a.items():
        for m2, c2 in b.items():
            m = tuple(x + y for x, y in zip(m1, m2))
            if sum(m) > cap:
                continue
            out[m] = out.get(m, Fraction(0)) + c1 * c2
    return {m: c for m, c in out.items() if c}


def dense_pow(a: Mapping[Mono, Fraction], e: int, cap: int, ngens: int) -> Dense:
    out: Dense = {(0,) * ngens: Fraction(1)}
    for _ in range(e):
        out = dense_mul(out, a, cap)
    return out


def monomials_up_to(ngens: int, cap: int) -> List[Mono]:
    return [m for m in itertools.product(range(cap + 1), repeat=ngens) if sum(m) <= cap]


def rref(rows: List[List[Fraction]]) -> List[List[Fraction]]:
    """Reduced row echelon form over Q (in place on a copy)."""
    rows = [list(r) for r in rows]
    nrows = len(rows)
    ncols = len(rows[0]) if rows else 0
    lead = 0
    for r in range(nrows):
        while lead < ncols:
            pivot = next((i for i in range(r, nrows) if rows[i][lead]), None)
            if pivot is None:
                lead += 1
                continue
            rows[r], rows[pivot] = rows[pivot], rows[r]
            inv = Fraction(1) / rows[r][lead]
            rows[r] = [x * inv for x in rows[r]]
            for i in range(nrows):
                if i != r and rows[i][lead]:
                    f = rows[i][lead]
                    rows[i] = [x - f * y if y else x for x, y in zip(rows[i], rows[r])]
            lead += 1
            break
        else:
            break
    return [r for r in rows if any(r)]


def ideal_rows(
    relations: Sequence[Mapping[Mono, Fraction]], ngens: int, cap: int
) -> Tuple[List[Mono], List[List[Fraction]]]:
    """All multiples (relation x monomial) truncated at ``cap``, as dense rows."""
    monos = monomials_up_to(ngens, cap)
    index = {m: i for i, m in enumerate(monos)}
    rows = []
    for rel in relations:
        for shift in monos:
            prod: Dense = {}
            for m, c in rel.items():
                t = tuple(x + y for x, y in zip(m, shift))
                if sum(t) <= cap:
                    prod[t] = prod.get(t, Fraction(0)) + c
            if prod:
                row = [Fraction(0)] * len(monos)
                for m, c in prod.items():
                    row[index[m]] = c
                rows.append(row)
    return monos, rows


def ideal_membership(
    relations: Sequence[Mapping[Mono, Fraction]], ngens: int, cap: int
) -> Callable[[Mapping[Mono, Fraction]], bool]:
    """Membership test for the homogeneous ideal, degree by degree up to ``cap``.

    The elimination runs once; each query reduces one dense vector against
    the resulting basis, so many monomials can be tested cheaply."""
    monos, rows = ideal_rows(relations, ngens, cap)
    index = {m: i for i, m in enumerate(monos)}
    basis = [(next(i for i, x in enumerate(row) if x), row) for row in rref(rows)]

    def member(element: Mapping[Mono, Fraction]) -> bool:
        v = [Fraction(0)] * len(monos)
        for m, c in element.items():
            if sum(m) <= cap:
                v[index[m]] = c
        for lead, row in basis:
            if v[lead]:
                f = v[lead]
                v = [x - f * y for x, y in zip(v, row)]
        return not any(v)

    return member


def reduces_to_zero(
    element: Mapping[Mono, Fraction],
    relations: Sequence[Mapping[Mono, Fraction]],
    ngens: int,
    cap: int,
) -> bool:
    """Membership of ``element`` in the homogeneous ideal, degree by degree."""
    return ideal_membership(relations, ngens, cap)(element)


def nilsquare_relations(n: int, m: int, ngens: int = 0, offset: int = 0) -> List[Dense]:
    """The nil-square model's relations, listed explicitly: for points
    i <= j in 2..m and coordinates a, b, the monomial u[i,a]u[i,b] and the
    binomial u[i,a]u[j,b] + u[j,a]u[i,b] (duplicates kept).  Generator
    u[j,a] sits at ``offset + (j-2)*n + (a-1)`` of ``ngens`` (default n*(m-1))."""
    ngens = ngens or n * (m - 1)

    def mono(*idx: int) -> Mono:
        exps = [0] * ngens
        for i in idx:
            exps[offset + i] += 1
        return tuple(exps)

    rels = []
    for i in range(m - 1):
        for j in range(i, m - 1):
            for a in range(n):
                for b in range(a if i == j else 0, n):
                    if i == j:
                        rels.append({mono(i * n + a, i * n + b): Fraction(1)})
                    else:
                        rel: Dense = {}
                        for key in (mono(i * n + a, j * n + b), mono(j * n + a, i * n + b)):
                            rel[key] = rel.get(key, Fraction(0)) + 1
                        rels.append(rel)
    return rels


def symmetric_relations(n: int, k: int, m: int) -> List[Dense]:
    """The symmetric-only model's relations, built by its original loop: for
    each multiset W of k+1 point slots and each multiset M of k+1
    coordinates, the sum over the distinct arrangements b of M of the
    monomial prod_l u[W_l, b_l].  Generator u[j,a] sits at (j-2)*n + (a-1)."""
    ngens = n * (m - 1)

    def mono(idx) -> Mono:
        exps = [0] * ngens
        for i in idx:
            exps[i] += 1
        return tuple(exps)

    rels = []
    for W in itertools.combinations_with_replacement(range(m - 1), k + 1):
        for M in itertools.combinations_with_replacement(range(n), k + 1):
            rel: Dense = {}
            for arrangement in set(itertools.permutations(M)):
                key = mono([w * n + b for w, b in zip(W, arrangement)])
                rel[key] = rel.get(key, 0) + 1
            rel = {key: c for key, c in rel.items() if c}
            if rel:
                rels.append(rel)
    return rels


def cap_relations(blocks: Sequence[Tuple[int, int, int]], ngens: int) -> List[Dense]:
    """Block caps as explicit monomial relations: every monomial of degree
    cap+1 inside a ``(start, count, cap)`` block."""
    rels = []
    for start, count, cap in blocks:
        for local in monomials_up_to(count, cap + 1):
            if sum(local) == cap + 1:
                exps = [0] * ngens
                exps[start:start + count] = local
                rels.append({tuple(exps): Fraction(1)})
    return rels


# -- brute-force neighborhood predicates (index loops, no form objects) ---------------


def brute_in_D_k(
    coords: Sequence[Mapping[Mono, Fraction]], k: int, cap: int, ngens: int
) -> bool:
    """Every product of k+1 coordinates (with repetition) vanishes."""
    n = len(coords)
    one: Dense = {(0,) * ngens: Fraction(1)}
    for idx in itertools.product(range(n), repeat=k + 1):
        prod = one
        for i in idx:
            prod = dense_mul(prod, coords[i], cap)
        if prod:
            return False
    return True


def brute_in_DN_k(
    vectors: Sequence[Sequence[Mapping[Mono, Fraction]]], cap: int, ngens: int
) -> bool:
    """Every coordinate product with one slot per vector vanishes (k+1 = len)."""
    dim = len(vectors[0])
    one: Dense = {(0,) * ngens: Fraction(1)}
    for idx in itertools.product(range(dim), repeat=len(vectors)):
        prod = one
        for v, i in zip(vectors, idx):
            prod = dense_mul(prod, v[i], cap)
        if prod:
            return False
    return True


def search_multiset_products(factors: Sequence, size: int):
    """The first nonzero product of ``size`` of the ``(label, element)``
    factors, repetition allowed, as ``(labels joined by "·", product)``, or
    None.  The library's depth-first order (nonzero factors sorted stably by
    least degree, then index multisets in order) with no degree bound: every
    nonzero prefix is extended, so any pruning the library adds must leave
    this answer unchanged."""
    items = sorted(((x.min_degree(), label, x) for label, x in factors if not x.is_zero()),
                   key=lambda t: t[0])

    def rec(start, labels, prefix):
        if len(labels) == size:
            return "·".join(labels), prefix
        for i in range(start, len(items)):
            _, label, x = items[i]
            prod = x if prefix is None else prefix * x
            if not prod.is_zero():
                found = rec(i, labels + [label], prod)
                if found is not None:
                    return found
        return None

    return rec(0, [], None)


def search_cross_products(vectors: Sequence[Sequence]):
    """The first nonzero product of one coordinate from each vector, slot by
    slot, as ``(labels, product)`` with labels ``v<slot>[<index>]``, or
    None: the library's DN_k order with no degree bound."""

    def rec(slot, labels, prefix):
        if slot == len(vectors):
            return "·".join(labels), prefix
        for a, x in enumerate(vectors[slot]):
            prod = x if prefix is None else prefix * x
            if not prod.is_zero():
                found = rec(slot + 1, labels + [f"v{slot + 1}[{a + 1}]"], prod)
                if found is not None:
                    return found
        return None

    return rec(0, [], None)


def contract(zero, one, rows: Sequence[Mapping], vectors: Sequence[Sequence]) -> list:
    """For each row, the sum over its entries ``idx: c`` of ``c`` times the
    product of ``vectors[j][idx[j]]`` over the slots ``j``, built left to
    right from ``one`` with no memo and no pruning.  Works on any objects
    with ``+`` and ``*``, such as algebra elements."""
    out = []
    for row in rows:
        acc = zero
        for idx, c in row.items():
            term = one
            for j, i in enumerate(idx):
                term = term * vectors[j][i]
            acc = acc + c * term
        out.append(acc)
    return out


def connection_combine(G, weights: Sequence[Fraction], points: Sequence) -> object:
    """The second-order connection combine by its direct formula,
    s + 1/2 (G[s - P1, s - P1] - sum_j w_j G[Pj - P1, Pj - P1]) with
    s = sum_j w_j Pj, with no expansion and nothing shared between terms.
    ``G`` is anything with ``apply(u, v)``; points need ``+``, ``-`` and
    rational scaling, as algebra points have."""
    P1 = points[0]
    s = P1
    for w, P in zip(weights, points):
        s = s + w * (P - P1)  # the weights sum to 1
    corr = G.apply(s - P1, s - P1)
    for w, P in zip(weights, points):
        corr = corr - w * G.apply(P - P1, P - P1)
    return s + Fraction(1, 2) * corr


def poly_map_eval(components: Sequence[Mapping[Mono, Fraction]], coords: Sequence[Dense],
                  cap: int, ngens: int) -> List[Dense]:
    """Each component at the point, term by term: the sum of ``c`` times the
    product of ``coords[i]**e``, in dense Fraction arithmetic truncated past
    total degree ``cap`` (one block, no relations)."""
    out = []
    for comp in components:
        acc: Dense = {}
        for m, c in comp.items():
            term: Dense = {(0,) * ngens: Fraction(1)}
            for x, e in zip(coords, m):
                term = dense_mul(term, dense_pow(x, e, cap, ngens), cap)
            acc = dense_add(acc, dense_scale(term, Fraction(c)))
        out.append(acc)
    return out


def weighted_sum(weights: Sequence, points: Sequence[Sequence[Dense]]) -> List[Dense]:
    """sum_j w_j P_j coordinate by coordinate, each weight a Fraction and each
    coordinate a dense Fraction dict."""
    out: List[Dense] = [{} for _ in points[0]]
    for w, P in zip(weights, points):
        out = [dense_add(acc, dense_scale(x, Fraction(w))) for acc, x in zip(out, P)]
    return out


def matrix_inverse(mat: Sequence[Sequence]) -> object:
    """The inverse of a square rational matrix from the reduced row echelon
    form of [M | I], or None when M is singular."""
    n = len(mat)
    rows = rref([[Fraction(q) for q in row] + [Fraction(int(i == j)) for j in range(n)]
                 for i, row in enumerate(mat)])
    if [row[:n] for row in rows] != [[Fraction(int(i == j)) for j in range(n)] for i in range(n)]:
        return None
    return [row[n:] for row in rows]


# -- Fraction polynomial arithmetic (the dict-of-Fractions Poly it replaced) ----------


def poly_clean(nvars: int, terms: Mapping) -> Dense:
    """Coefficients merged as Fractions, zeros dropped, keys as tuples."""
    out: Dense = {}
    for m, c in terms.items():
        m = tuple(m)
        assert len(m) == nvars
        out[m] = out.get(m, Fraction(0)) + Fraction(c)
    return {m: c for m, c in out.items() if c}


def poly_add(a: Mapping[Mono, Fraction], b: Mapping[Mono, Fraction]) -> Dense:
    return dense_add(a, b)


def poly_scale(a: Mapping[Mono, Fraction], q) -> Dense:
    return dense_scale(a, Fraction(q))


def poly_mul(a: Mapping[Mono, Fraction], b: Mapping[Mono, Fraction]) -> Dense:
    out: Dense = {}
    for m1, c1 in a.items():
        for m2, c2 in b.items():
            m = tuple(x + y for x, y in zip(m1, m2))
            out[m] = out.get(m, Fraction(0)) + c1 * c2
    return {m: c for m, c in out.items() if c}


def poly_pow(a: Mapping[Mono, Fraction], e: int, nvars: int) -> Dense:
    out: Dense = {(0,) * nvars: Fraction(1)}
    for _ in range(e):
        out = poly_mul(out, a)
    return out


def poly_diff(a: Mapping[Mono, Fraction], i: int) -> Dense:
    out: Dense = {}
    for m, c in a.items():
        if m[i]:
            key = m[:i] + (m[i] - 1,) + m[i + 1:]
            out[key] = out.get(key, Fraction(0)) + c * m[i]
    return {m: c for m, c in out.items() if c}


def symbolic_jet(components: Sequence[Mapping[Mono, Fraction]], coords: Sequence, one,
                 order: int) -> list:
    """The Taylor coefficients of a polynomial map at a point, by symbolic
    differentiation: for each component and each exponent tuple a with
    |a| <= order, the partial ∂^a of the component over a!, evaluated at
    ``coords`` by the direct sum of its terms.  Zero coefficients are left
    out.  Coordinates are anything with ``+``, ``*`` and ``**`` that starts
    from ``one``, such as algebra elements."""
    out = []
    for comp in components:
        coeffs = {}
        for a in monomials_up_to(len(coords), order):
            poly, factor = dict(comp), 1
            for i, e in enumerate(a):
                for _ in range(e):
                    poly = poly_diff(poly, i)
                factor *= math.factorial(e)
            value = one * 0
            for m, c in poly.items():
                term = one
                for x, e in zip(coords, m):
                    term = term * x**e
                value = value + term * (c / factor)
            if value != 0:
                coeffs[a] = value
        out.append(coeffs)
    return out


def poly_substitute(a: Mapping[Mono, Fraction], args: Sequence[Dense], nvars: int) -> Dense:
    """Plug ``args[i]`` in for variable i, term by term."""
    out: Dense = {}
    for m, c in a.items():
        term: Dense = {(0,) * nvars: c}
        for i, e in enumerate(m):
            term = poly_mul(term, poly_pow(args[i], e, nvars))
        out = poly_add(out, term)
    return out


def expr_poly(node, nvars: int):
    """The polynomial of an expression tree, or None where it divides by a
    non-constant or takes a root.  Reads the nodes by class name and field,
    recursively: ``Const.value``, ``Var.index``, ``left``/``right``,
    ``operand``, ``base``/``exponent``."""
    kind = type(node).__name__
    one = (0,) * nvars
    if kind == "Const":
        return poly_clean(nvars, {one: node.value})
    if kind == "Var":
        return {tuple(int(j == node.index) for j in range(nvars)): Fraction(1)}
    if kind in ("Add", "Sub", "Mul", "Div"):
        a, b = expr_poly(node.left, nvars), expr_poly(node.right, nvars)
        if a is None or b is None:
            return None
        if kind == "Add":
            return poly_add(a, b)
        if kind == "Sub":
            return poly_add(a, poly_scale(b, -1))
        if kind == "Mul":
            return poly_mul(a, b)
        if set(b) != {one}:
            return None
        return poly_scale(a, 1 / b[one])
    if kind == "Neg":
        a = expr_poly(node.operand, nvars)
        return None if a is None else poly_scale(a, -1)
    if kind == "Power":
        a = expr_poly(node.base, nvars)
        return None if a is None else poly_pow(a, node.exponent, nvars)
    if kind == "Sqrt":
        return None
    raise TypeError(kind)


def derivative_identity_witnesses(J, H) -> dict:
    """The first failing index and value of De·De = De and of
    D2e[De,De] + De·D2e = D2e, by their direct Fraction sums (None where
    they hold), with ``J[i][a]`` and ``H[i][a][b]`` the first and second
    partials at a fixed point."""
    n = len(J)
    out = {"jacobian-idempotent": None, "hessian-splitting": None}
    for i, a in itertools.product(range(n), repeat=2):
        d = sum((J[i][p] * J[p][a] for p in range(n)), Fraction(0)) - J[i][a]
        if d:
            out["jacobian-idempotent"] = ((i, a), d)
            break
    for i, a in itertools.product(range(n), repeat=2):
        for b in range(a, n):
            d = sum((H[i][p][q] * J[p][a] * J[q][b] for p in range(n) for q in range(n)),
                    Fraction(0))
            d += sum((J[i][p] * H[p][a][b] for p in range(n)), Fraction(0)) - H[i][a][b]
            if d:
                out["hessian-splitting"] = ((i, a, b), d)
                return out
    return out


def as_dense(element) -> Dense:
    """Coefficient dict of a WeilElement (plain data, no behavior)."""
    return dict(element.coeffs)


def point_dense(point) -> List[Dense]:
    return [as_dense(c) for c in point.coords]


# -- scenario lexer (one character at a time) --------------------------------------

_PUNCT = "(){}[],;=+-*/^"
_MAX_INT_DIGITS = 4300  # CPython's default limit on int(str)


class LexError(Exception):
    """A lexing error at a 1-based position, with ``weilaff.ParseError``'s message."""

    def __init__(self, line: int, column: int, expected: str, found: str):
        self.line = line
        self.column = column
        super().__init__(f"line {line}, col {column}: expected {expected}, found {found}")


def lex(text: str) -> List[Tuple[str, str, int, int]]:
    """Scenario tokens as (type, value, line, col), read one character at a time.

    A comment does not advance the column, so the NEWLINE or EOF after it
    carries the column where the comment starts.
    """
    toks = []
    line, col = 1, 1
    depth = 0
    i, n = 0, len(text)
    while i < n:
        ch = text[i]
        if ch == "#":
            while i < n and text[i] != "\n":
                i += 1
            continue
        if ch == "\n":
            if depth == 0:
                toks.append(("NEWLINE", "\\n", line, col))
            i += 1
            line += 1
            col = 1
            continue
        if ch in " \t\r":
            i += 1
            col += 1
            continue
        if text.startswith("->", i):
            toks.append(("->", "->", line, col))
            i += 2
            col += 2
            continue
        if "0" <= ch <= "9":
            j = i
            while j < n and "0" <= text[j] <= "9":
                j += 1
            if j - i > _MAX_INT_DIGITS:
                raise LexError(
                    line, col, f"an integer of at most {_MAX_INT_DIGITS} digits", f"{j - i} digits"
                )
            toks.append(("INT", text[i:j], line, col))
            col += j - i
            i = j
            continue
        if ch.isalpha() or ch == "_":
            j = i
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            toks.append(("NAME", text[i:j], line, col))
            col += j - i
            i = j
            continue
        if ch in _PUNCT:
            if ch in "([{":
                depth += 1
            elif ch in ")]}":
                depth = max(0, depth - 1)
            toks.append((ch, ch, line, col))
            i += 1
            col += 1
            continue
        raise LexError(line, col, "a token", repr(ch))
    toks.append(("EOF", "end of input", line, col))
    return toks
