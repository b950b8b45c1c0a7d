"""Execute parsed scenarios: build the ambient algebra, then run the checks.

All block/quotient declarations of a file merge into a single ambient context
so points from different declarations can be mixed freely.  Each declaration
is one block of that context with its own cap (a quotient's ``degcap``), and
each quotient's relations are lifted onto its own generators, so they reduce
over the monomials the block caps leave alive.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Union

from .weil import (
    PointVec,
    WeilContext,
    WeilElement,
    WeilError,
    make_truncated_context,
    sqrt,
)
from .polymap import (
    Add, Const, Div, ExprMap, Mul, Neg, PolyMap, Power, Sqrt, Sub, eval_map, expr_to_poly,
)
from .neighborhoods import (
    MultilinearForm,
    find_A_k_violation,
    find_D_k_violation,
    find_DN_k_violation,
    find_nilsquare_violation,
)
from .iaffine import (
    CanonicalAction,
    Connection,
    ConnectionAction,
    RetractAction,
    RetractPair,
    check_axioms,
    check_idempotent_identities,
    check_pullback_lemma,
    connection_apply,
    connection_combine,
    difference_witness,
)
from .report import CheckReport
from . import dsl

__all__ = ["ScenarioEnv", "build_env", "run_scenario", "evaluate_expression", "format_value"]

Value = Union[WeilElement, PointVec]


class ScenarioEnv:
    """Resolved scenario: one ambient context plus named objects."""

    def __init__(self, context: WeilContext):
        self.context = context
        self.gen_offsets: dict = {}  # declaration name -> (start index, count)
        self.points: dict = {}
        self.maps: dict = {}
        self.forms: dict = {}
        self.connections: dict = {}
        self.retracts: dict = {}


def _build_context(decls) -> tuple:
    """Returns (context, offsets) from the block/quotient declarations."""
    total = sum(d.nvars for d in decls)
    offsets = {}
    blocks = []
    relations = []
    start = 0
    for d in decls:
        offsets[d.name] = (start, d.nvars)
        if isinstance(d, dsl.BlockDecl):
            blocks.append((d.name, d.nvars, d.cap))
        else:
            blocks.append((d.name, d.nvars, d.degcap))
            pad_left, pad_right = (0,) * start, (0,) * (total - start - d.nvars)
            for poly in d.relations:  # a relation's multiple spans the same ideal
                relations.append({pad_left + m + pad_right: c for m, c in poly._num.items()})
        start += d.nvars
    return make_truncated_context(blocks, relations), offsets


def _eval_node(node, env: ScenarioEnv, ctx: WeilContext) -> Value:
    """Evaluate an expression tree to a WeilElement (scalar) or PointVec."""
    if isinstance(node, Const):
        return ctx.scalar(node.value)
    if isinstance(node, dsl.ERef):
        if node.index is not None:
            if node.name not in env.gen_offsets:
                raise WeilError(f"unknown generator family '{node.name}'")
            start, count = env.gen_offsets[node.name]
            if not 1 <= node.index <= count:
                raise WeilError(f"generator index {node.index} out of range for '{node.name}'")
            return ctx.gen(start + node.index - 1)
        if node.name in env.points:
            return env.points[node.name]
        raise WeilError(f"unknown name '{node.name}'")
    if isinstance(node, dsl.EVec):
        items = [_scalar(_eval_node(item, env, ctx)) for item in node.items]
        return PointVec(ctx, tuple(items))
    if isinstance(node, Neg):
        v = _eval_node(node.operand, env, ctx)
        if isinstance(v, PointVec):
            return PointVec(ctx, tuple(-c for c in v.coords))
        return -v
    if isinstance(node, Power):
        return _scalar(_eval_node(node.base, env, ctx)) ** node.exponent
    if isinstance(node, Sqrt):
        return sqrt(_scalar(_eval_node(node.operand, env, ctx)))
    if isinstance(node, dsl.ECall):
        if node.name not in env.maps:
            raise WeilError(f"unknown map '{node.name}'")
        f = env.maps[node.name]
        args = [_eval_node(a, env, ctx) for a in node.args]
        if len(args) == 1 and isinstance(args[0], PointVec):
            P = args[0]
        else:
            P = PointVec(ctx, tuple(_scalar(a) for a in args))
        return eval_map(f, P)
    if isinstance(node, (Add, Sub, Mul, Div)):
        left = _eval_node(node.left, env, ctx)
        right = _eval_node(node.right, env, ctx)
        lv, rv = isinstance(left, PointVec), isinstance(right, PointVec)
        if isinstance(node, (Add, Sub)):
            if lv != rv:
                raise WeilError("cannot add a scalar and a vector")
            return left + right if isinstance(node, Add) else left - right
        if isinstance(node, Mul):
            if lv and rv:
                raise WeilError("cannot multiply two vectors")
            if lv or rv:
                vec, s = (left, right) if lv else (right, left)
                s = _scalar(s)
                return PointVec(ctx, tuple(c * s for c in vec.coords))
            return left * right
        # division: right must be scalar
        s = _scalar(right)
        if lv:
            return PointVec(ctx, tuple(c / s for c in left.coords))
        return left / s
    raise WeilError(f"cannot evaluate {node!r}")


def _scalar(v: Value) -> WeilElement:
    if isinstance(v, PointVec):
        if v.dim == 1:
            return v.coords[0]
        raise WeilError("expected a scalar, got a vector")
    return v


def _as_point(v: Value, ctx: WeilContext) -> PointVec:
    if isinstance(v, PointVec):
        return v
    return PointVec(ctx, (v,))


def build_env(scenario: dsl.Scenario) -> ScenarioEnv:
    decls = [
        s for s in scenario.statements
        if isinstance(s, (dsl.BlockDecl, dsl.QuotientDecl))
    ]
    ctx, offsets = _build_context(decls)
    env = ScenarioEnv(ctx)
    env.gen_offsets = offsets
    for st in scenario.statements:
        if isinstance(st, dsl.PointDecl):
            env.points[st.name] = _as_point(_eval_node(st.expr, env, ctx), ctx)
        elif isinstance(st, dsl.MapDecl):
            polys = [expr_to_poly(e, len(st.params)) for e in st.bodies]
            if all(p is not None for p in polys):
                env.maps[st.name] = PolyMap(len(st.params), st.out_dim, polys)
            else:
                env.maps[st.name] = ExprMap(len(st.params), st.out_dim, st.bodies)
        elif isinstance(st, dsl.FormDecl):
            env.forms[st.name] = MultilinearForm(st.arity, st.dim, dict(st.entries))
        elif isinstance(st, dsl.ConnectionDecl):
            env.connections[st.name] = Connection(st.dim, dict(st.entries))
        elif isinstance(st, dsl.RetractDecl):
            env.retracts[st.name] = RetractPair(env.maps[st.iota], env.maps[st.r])
    return env


def _run_check(check: dsl.CheckDecl, env: ScenarioEnv, report: CheckReport) -> None:
    ctx = env.context
    name = f"{check.kind}@L{check.line}"
    vectors = [_as_point(_eval_node(v, env, ctx), ctx) for v in check.vectors]

    if check.kind == "in-Dk":
        report.run(name, check.kind, lambda: find_D_k_violation(vectors[0], check.k))
    elif check.kind == "in-DNk":
        report.run(name, check.kind, lambda: find_DN_k_violation(vectors))
    elif check.kind == "i-tuple":
        report.run(name, check.kind, lambda: find_A_k_violation(vectors, check.k))
    elif check.kind == "nilsquare":
        report.run(name, check.kind, lambda: find_nilsquare_violation(vectors))
    elif check.kind == "i-morphism":
        f = env.maps[check.target]
        def run():
            images = [eval_map(f, P) for P in vectors]
            return find_A_k_violation(images, check.k)
        report.run(name, check.kind, run)
    elif check.kind == "axioms":
        if check.mode == "canonical":
            handle = CanonicalAction(vectors[0].dim, check.k)
        elif check.mode == "connection":
            handle = ConnectionAction(env.connections[check.target])
        else:
            handle = RetractAction(env.retracts[check.target])
        sub = check_axioms(
            handle, vectors, check.weights, outer=check.outer or None, name_prefix=name
        )
        report.extend(sub)
    elif check.kind == "equiv-connection":
        c = env.connections[check.target]
        P, Q, S = vectors
        report.run(
            name,
            check.kind,
            lambda: difference_witness(
                connection_apply(c, P, Q, S),
                connection_combine(c, (Fraction(-1), Fraction(1), Fraction(1)), [P, Q, S]),
                "apply - combine",
            ),
        )
    elif check.kind == "pullback-lemma":
        c = env.connections[check.target]
        sub = check_pullback_lemma(c, env.maps[check.iota], vectors, check.weights,
                                   name_prefix=name)
        report.extend(sub)
    elif check.kind == "idempotent":
        if check.target in env.retracts:
            rp = env.retracts[check.target]
        else:
            rp = RetractPair.from_idempotent(env.maps[check.target])
        base_pt = _as_point(_eval_node(check.at, env, ctx), ctx)
        sub = check_idempotent_identities(rp, base_pt.rational_coords(), name_prefix=name)
        report.extend(sub)
    else:  # pragma: no cover - parser rejects unknown kinds
        raise WeilError(f"unknown check kind {check.kind}")


def run_scenario(scenario: dsl.Scenario) -> CheckReport:
    """Run every check in declaration order; declaration faults become one
    `error` entry (exit code 2) rather than a crash."""
    report = CheckReport()
    try:
        env = build_env(scenario)
    except Exception as exc:  # noqa: BLE001 - reported, not swallowed
        def reraise():
            raise exc
        report.run("setup", "setup", reraise)
        return report
    for check in scenario.checks:
        try:
            _run_check(check, env, report)
        except Exception as exc:  # noqa: BLE001 - reported, not swallowed
            def reraise(e=exc):
                raise e
            report.run(f"{check.kind}@L{check.line}", check.kind, reraise)
    return report


def format_value(v: Value) -> str:
    return str(v)


def evaluate_expression(env: ScenarioEnv, text: str) -> Value:
    """Evaluate a CLI `--expr` string against a built scenario environment."""
    node = dsl.parse_expression(text)
    return _eval_node(node, env, env.context)
