"""Seeded input generators for the benchmark.

Everything the benchmark feeds to weilaff is made here from a seed: rational
scalars, polynomials, polynomial maps, connections, affine weights, dense
algebra elements, scenario text and one-token mutations of it.  None of it
comes from ``weilaff.selftest``, so a change to the self-test cannot change
the benchmark inputs.  Each scenario is returned with the verdicts its
construction guarantees, so outcomes are checked against mathematics rather
than against what some version of the program printed.
"""

from __future__ import annotations

import random
import re
from fractions import Fraction


def rng_for(seed, tag: str) -> random.Random:
    """One independent stream per (seed, tag): adding a stream moves no other."""
    return random.Random(f"weilaff-bench/{seed}/{tag}")


def nonzero_frac(rng: random.Random) -> Fraction:
    """A nonzero half-integer.  Inputs drawn with one denominator and no
    zeros cost the same exact arithmetic on every seed, so the seed changes
    the values a run computes with but not how much work it does."""
    return Fraction(rng.choice((-5, -3, -1, 1, 3, 5)), 2)


def exponent_tuples(nvars: int, degree: int):
    """Every exponent tuple over ``nvars`` variables of total degree ``degree``."""
    if nvars == 1:
        yield (degree,)
        return
    for head in range(degree, -1, -1):
        for tail in exponent_tuples(nvars - 1, degree - head):
            yield (head,) + tail


def monomials_up_to(nvars: int, degree: int):
    for d in range(degree + 1):
        yield from exponent_tuples(nvars, d)


def unit(nvars: int, i: int) -> tuple:
    return tuple(1 if a == i else 0 for a in range(nvars))


# -- library-level inputs ------------------------------------------------------------


def poly_terms(rng: random.Random, nvars: int, degree: int) -> dict:
    """Dense random polynomial with every monomial up to ``degree`` present."""
    return {m: nonzero_frac(rng) for m in monomials_up_to(nvars, degree)}


def polymap(wa, rng: random.Random, n_in: int, n_out: int, degree: int):
    return wa.PolyMap(n_in, n_out, [wa.Poly(n_in, poly_terms(rng, n_in, degree)) for _ in range(n_out)])


def chart_map(wa, rng: random.Random, n: int):
    """Polynomial chart R^n -> R^n whose Jacobian is unit upper triangular at
    every point (component i depends on x_i linearly and on x_j, j > i,
    arbitrarily), so it is invertible wherever the pullback needs it."""
    comps = []
    for i in range(n):
        terms = {unit(n, i): Fraction(1)}
        later = n - i - 1
        if later:
            for sub in monomials_up_to(later, 2):
                if sum(sub):
                    terms[(0,) * (i + 1) + sub] = nonzero_frac(rng)
        comps.append(wa.Poly(n, terms))
    return wa.PolyMap(n, n, comps)


def connection(wa, rng: random.Random, n: int, degree: int = 2):
    entries = {}
    for i in range(n):
        for a in range(n):
            for b in range(a, n):
                entries[(i, a, b)] = wa.Poly(n, poly_terms(rng, n, degree))
    return wa.Connection(n, entries)


def weights(rng: random.Random, t: int) -> tuple:
    """t nonzero rational weights summing to exactly 1."""
    while True:
        head = [nonzero_frac(rng) for _ in range(t - 1)]
        last = Fraction(1) - sum(head, Fraction(0))
        if last:
            return tuple(head + [last])


def base_point(rng: random.Random, n: int) -> list:
    return [nonzero_frac(rng) for _ in range(n)]


def circle_point(rng: random.Random) -> tuple:
    """A rational point on the unit circle: (3/5, 4/5) up to signs and order,
    so that every seed does arithmetic on numbers of the same size."""
    x, y = rng.choice(((3, 4), (4, 3)))
    return (Fraction(rng.choice((-1, 1)) * x, 5), Fraction(rng.choice((-1, 1)) * y, 5))


def dense_element(ctx, rng: random.Random, degree: int, constant=None):
    """Element with a nonzero coefficient on every monomial of total degree
    at most ``degree`` (callers pass the cap of a single-block context)."""
    raw = {m: nonzero_frac(rng) for m in monomials_up_to(ctx.ngens, degree)}
    if constant is not None:
        raw[(0,) * ctx.ngens] = Fraction(constant)
    return ctx.element(raw)


# -- scenario text ---------------------------------------------------------------------


def _q(x: Fraction) -> str:
    return str(x.numerator) if x.denominator == 1 else f"{x.numerator}/{x.denominator}"


def _vec(vals) -> str:
    vals = [v if isinstance(v, str) else _q(Fraction(v)) for v in vals]
    return "(" + ", ".join(vals) + (",)" if len(vals) == 1 else ")")


def _gens(name: str, start: int, count: int) -> str:
    return _vec([f"{name}[{start + a}]" for a in range(count)])


def _poly_text(terms: dict, names) -> str:
    parts = []
    for mono, c in terms.items():
        factors = []
        for name, e in zip(names, mono):
            if e == 1:
                factors.append(name)
            elif e > 1:
                factors.append(f"{name}^{e}")
        body = "*".join(factors)
        if not body:
            parts.append(_q(c))
        else:
            parts.append(body if c == 1 else f"{_q(c)}*{body}")
    text = " + ".join(parts)
    return text.replace("+ -", "- ")


def _weights_text(rng: random.Random, t: int, families: int) -> tuple:
    rows = "; ".join(_vec(weights(rng, t)) for _ in range(families))
    return f"({rows})", _vec(weights(rng, families))


PARAMS = ("x", "y", "z")

# The statuses below are what the construction guarantees; ``check axioms``
# expands to membership, neighbourhood, associativity (with ``outer``) and
# projection entries, ``check pullback-lemma`` to membership plus one
# transport entry per weight family, ``check idempotent`` to five identities.
AXIOMS = ["pass"] * 4
IDEMPOTENT = ["pass"] * 5


def scenario_kernel(rng: random.Random, n: int, k: int) -> tuple:
    """Block-only: a generic order-k displacement, a polynomial map, the canonical action."""
    params = PARAMS[:n]
    maps = ", ".join(
        _poly_text({m: nonzero_frac(rng) for m in monomials_up_to(n, 2) if sum(m)}, params)
        for _ in range(n)
    )
    fams, outer = _weights_text(rng, 2, 2)
    lines = [
        "version 1",
        f"block d vars {n} cap {k}",
        f"point O = {_vec(base_point(rng, n))}",
        f"point P = O + {_gens('d', 1, n)}",
        f"map f({', '.join(params)}) -> {n} {{ {maps} }}",
        f"check in-Dk (P - O) k={k}",
        f"check in-Dk (P - O) k={k - 1}",
        f"check i-tuple (O; P) k={k}",
        f"check i-morphism f (O; P) k={k}",
        f"check axioms canonical k={k} points (O; P) weights {fams} outer {outer}",
    ]
    expected = ["pass", "fail", "pass", "pass"] + AXIOMS
    return "\n".join(lines) + "\n", expected


def scenario_connection(rng: random.Random, n: int) -> tuple:
    """Block-only: first-order neighbours, a connection and a unitriangular chart."""
    xs = [f"x{i + 1}" for i in range(n)]
    entries = []
    for i in range(n):
        for a in range(n):
            for b in range(a, n):
                terms = {m: nonzero_frac(rng) for m in monomials_up_to(n, 1)}
                entries.append(f"GAMMA[{i + 1}][{a + 1},{b + 1}] = {_poly_text(terms, xs)}")
    params = PARAMS[:n]
    comps = []
    for i in range(n):
        terms = {unit(n, i): Fraction(1)}
        for j in range(i + 1, n):
            terms[unit(n, j)] = nonzero_frac(rng)
            terms[tuple(2 if a == j else 0 for a in range(n))] = nonzero_frac(rng)
        comps.append(_poly_text(terms, params))
    fams, outer = _weights_text(rng, 2, 2)
    pull, _ = _weights_text(rng, 2, 2)
    lines = [
        "version 1",
        f"block q vars {n} cap 1",
        f"block s vars {n} cap 1",
        f"block d vars {n} cap 2",
        f"point P = {_vec(base_point(rng, n))}",
        f"point Q = P + {_gens('q', 1, n)}",
        f"point S = P + {_gens('s', 1, n)}",
        f"point T = P + {_gens('d', 1, n)}",
        f"connection gamma dim {n} {{ {' '.join(entries)} }}",
        f"map chart({', '.join(params)}) -> {n} {{ {', '.join(comps)} }}",
        "check equiv-connection gamma points (P; Q; S)",
        f"check axioms connection=gamma points (P; T) weights {fams} outer {outer}",
        f"check pullback-lemma connection=gamma iota=chart points (P; T) weights {pull}",
        "check i-tuple (P; Q; S) k=1",
    ]
    expected = ["pass"] + AXIOMS + ["pass", "pass", "pass", "fail"]
    return "\n".join(lines) + "\n", expected


def scenario_retract(rng: random.Random) -> tuple:
    """Block-only: a slanted projection of R^3 onto the plane z = 0."""
    a, b = nonzero_frac(rng), nonzero_frac(rng)
    fams, outer = _weights_text(rng, 2, 2)
    p, q = base_point(rng, 2)
    lines = [
        "version 1",
        "block d vars 2 cap 2",
        "map iota(x, y) -> 3 { x, y, 0 }",
        f"map r(x, y, z) -> 2 {{ {_poly_text({(1, 0, 0): 1, (0, 0, 1): -a}, PARAMS)}, "
        f"{_poly_text({(0, 1, 0): 1, (0, 0, 1): -b}, PARAMS)} }}",
        "retract plane iota=iota r=r",
        f"point O = {_vec([p, q])}",
        "point P = O + (d[1], d[2])",
        f"check axioms retract=plane points (O; P) weights {fams} outer {outer}",
        f"check idempotent plane at {_vec([p, q, 0])}",
        "check in-Dk (P - O) k=1",
    ]
    expected = AXIOMS + IDEMPOTENT + ["fail"]
    return "\n".join(lines) + "\n", expected


def nilsquare_relations(name: str, n: int, m: int) -> list:
    """Text of the relations making every pairwise difference of
    P1, P1 + u[1..n], ..., P1 + u[(m-2)n+1..(m-1)n] square to zero."""
    rels = []
    g = lambda j, a: f"{name}[{j * n + a + 1}]"
    for i in range(m - 1):
        for j in range(i, m - 1):
            for a in range(n):
                for b in range(a, n):
                    if i == j:
                        rels.append(f"{g(i, a)}*{g(i, b)}")
                    elif a == b:
                        rels.append(f"{g(i, a)}*{g(j, a)}")
                    else:
                        rels.append(f"{g(i, a)}*{g(j, b)} + {g(j, a)}*{g(i, b)}")
    return rels


def scenario_mixed(rng: random.Random, n: int) -> tuple:
    """Block plus quotient (lowered to one quotient context): a nil-square
    triple in R^n, n >= 2, next to a second-order displacement."""
    rels = ", ".join(nilsquare_relations("u", n, 3))
    lines = [
        "version 1",
        "block d vars 2 cap 2",
        f"quotient u vars {2 * n} degcap 3 relations {{ {rels} }}",
        f"point P1 = {_vec(base_point(rng, n))}",
        f"point P2 = P1 + {_gens('u', 1, n)}",
        f"point P3 = P1 + {_gens('u', n + 1, n)}",
        f"point O = {_vec(base_point(rng, 2))}",
        "point P = O + (d[1], d[2])",
        "check nilsquare (P1; P2; P3)",
        "check i-tuple (P1; P2; P3) k=2",
        "check i-tuple (P1; P2; P3) k=1",
        "check in-Dk (P - O) k=2",
        "check in-DNk (P2 - P1; P2 - P1) k=1",
        "check in-DNk (P2 - P1; P3 - P1) k=1",
    ]
    expected = ["pass", "pass", "fail", "pass", "pass", "fail"]
    return "\n".join(lines) + "\n", expected


def scenario_quotient(rng: random.Random, n: int, m: int) -> tuple:
    """Quotient only: the nil-square m-tuple in R^n with degree cap m.  It is
    an order-(m-1) i-tuple; an order-j product of j+1 differences survives
    exactly when j+1 <= min(n, m-1)."""
    rels = ", ".join(nilsquare_relations("u", n, m))
    pts = "; ".join(f"P{j + 1}" for j in range(m))
    lines = [
        "version 1",
        f"quotient u vars {n * (m - 1)} degcap {m} relations {{ {rels} }}",
        f"point P1 = {_vec(base_point(rng, n))}",
    ]
    lines += [f"point P{j + 2} = P1 + {_gens('u', j * n + 1, n)}" for j in range(m - 1)]
    lines += [
        f"check nilsquare ({pts})",
        f"check i-tuple ({pts}) k={m - 1}",
        f"check i-tuple ({pts}) k={m - 2}",
    ]
    expected = ["pass", "pass", "fail" if n >= m - 1 else "pass"]
    return "\n".join(lines) + "\n", expected


# -- malformed text ---------------------------------------------------------------------

_TOKEN = re.compile(r"\s+|#[^\n]*|[A-Za-z_][A-Za-z0-9_]*|\d+|->|.", re.S)
_OPEN, _CLOSE = "([{", ")]}"


def tokens(text: str):
    """(offset, token) for every token of scenario text, comments and blanks skipped."""
    out = []
    for m in _TOKEN.finditer(text):
        tok = m.group()
        if not tok.isspace() and not tok.startswith("#"):
            out.append((m.start(), tok))
    return out


def brackets_nest(toks) -> bool:
    stack = []
    for tok in toks:
        if tok in _OPEN:
            stack.append(_CLOSE[_OPEN.index(tok)])
        elif tok in _CLOSE:
            if not stack or stack.pop() != tok:
                return False
    return not stack


def mutate(rng: random.Random, text: str) -> str:
    """Replace one token by a bracket so that the brackets no longer nest.

    Every well-formed scenario nests its brackets, so the result is malformed
    by construction, whatever the parser makes of it.
    """
    toks = tokens(text)
    while True:
        i = rng.randrange(len(toks))
        offset, tok = toks[i]
        repl = rng.choice(_OPEN + _CLOSE)
        if repl == tok:
            continue
        seq = [t for _, t in toks]
        seq[i] = repl
        if not brackets_nest(seq):
            return text[:offset] + repl + text[offset + len(tok):]
