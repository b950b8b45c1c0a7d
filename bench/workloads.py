"""The three workloads: fixed operation lists built from a seed.

Every operation calls weilaff through ``t.call(<layer>.<call>, ...)`` so that
a traced pass records one span per call into a layer, and carries a check
whose expected outcome follows from the construction of its inputs.

* ``trunc-kernel``: long-lived truncated algebras doing heavy product work;
  no quotient reduction runs anywhere in it.
* ``quotient-search``: quotient models (nil-square and symmetric-only)
  doing heavy reduction and neighbourhood searches.
* ``scenario-cli``: many small, short-lived algebras through
  ``weilaff check --json``, one operation per file.

Each workload also makes a few calls into the layers it does not target,
so that every layer metric is measured on every workload.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import operator
import re
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Optional

import gen


@dataclass
class Op:
    label: str
    run: Callable  # run(t) -> outcome
    check: Callable  # check(outcome) -> None, or a message saying what differs
    malformed: bool = False


# -- outcome checks -----------------------------------------------------------------------


def expect_none(what):
    return lambda w: None if w is None else f"{what}: unexpected witness {w}"


def expect_witness(what):
    return lambda w: None if w is not None else f"{what}: expected a witness, got none"


def expect_all_pass(report):
    bad = [e.name for e in report.entries if e.status != "pass"]
    return f"entries not passing: {bad}" if bad else None


def expect_equal(a, b):
    return None if a == b else "results differ"


# -- library operations --------------------------------------------------------------------


def op_axioms(wa, label, handle, pts, fams, outer):
    return Op(
        label,
        lambda t: t.call("iaffine.check_axioms", wa.check_axioms, handle, pts, fams, outer),
        expect_all_pass,
    )


def op_imorph(wa, label, model, f, k):
    """Build a fresh A_k model, push it through f, search its images at order k:
    polynomial maps preserve k-th order i-tuples."""

    def run(t):
        pts = t.call("neighborhoods.model", model)[1]
        images = [t.call("polymap.eval_map", wa.eval_map, f, P) for P in pts]
        return t.call("neighborhoods.search", wa.find_A_k_violation, images, k)

    return Op(label, run, expect_none(label))


def op_search(label, model, search, must_pass):
    """Build a fresh model and run one search on it."""

    def run(t):
        m = t.call("neighborhoods.model", model)
        return t.call("neighborhoods.search", search, m)

    return Op(label, run, (expect_none if must_pass else expect_witness)(label))


def op_mul(label, x, y):
    def run(t):
        return t.call("weil.mul", operator.mul, x, y), t.call("weil.mul", operator.mul, y, x)

    return Op(label, run, lambda r: expect_equal(*r))


def op_invert(wa, label, x):
    return Op(
        label,
        lambda t: t.call("weil.invert", wa.invert, x),
        lambda y: expect_equal(x * y, x.context.one()),
    )


def op_sqrt(wa, label, x):
    return Op(
        label,
        lambda t: t.call("weil.sqrt", wa.sqrt, x),
        lambda s: expect_equal(s * s, x),
    )


def op_mat_inverse(wa, label, M):
    ctx = M[0][0].context
    ident = [[ctx.scalar(int(i == j)) for j in range(len(M))] for i in range(len(M))]
    return Op(
        label,
        lambda t: t.call("weil.mat_inverse", wa.mat_inverse, M),
        lambda Minv: expect_equal(wa.mat_mul(M, Minv), ident),
    )


def dense_matrix(ctx, rng, size, degree):
    """Unit upper-triangular rational part plus a dense nilpotent part."""
    rows = []
    for i in range(size):
        row = []
        for j in range(size):
            x = gen.dense_element(ctx, rng, degree, constant=0)
            c = 1 if i == j else (gen.nonzero_frac(rng) if j > i else 0)
            row.append(x + c)
        rows.append(row)
    return rows


# -- command-line operations ----------------------------------------------------------------

_POSITION = re.compile(r"^(.*):(\d+):(\d+): ")


@dataclass
class CliOutcome:
    code: int
    stdout: str
    stderr: str


def cli_main(wa, path):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = wa.cli.main(["check", str(path), "--json"])
    return CliOutcome(code, out.getvalue(), err.getvalue())


def cli_replay(wa, t, path):
    """``weilaff check --json`` stage by stage through public calls, one span each.

    ``run_scenario`` builds the scenario's environment itself and no public
    call runs the checks on a built one, so ``runner.build_env`` is timed by
    a separate call ahead of it: that span is extra work, and
    ``runner.run`` still holds the build it repeats."""
    with t.span("cli.check"):
        text = Path(path).read_text(encoding="utf-8")
        t.count("dsl.bytes", len(text))
        try:
            scenario = t.call("dsl.parse", wa.parse_scenario, text)
        except wa.ParseError as exc:
            return CliOutcome(2, "", f"{path}:{exc.line}:{exc.column}: {exc}\n")
        try:
            t.call("runner.build_env", wa.build_env, scenario)
        except Exception:  # noqa: BLE001 - run_scenario reports the same fault as an entry
            pass
        report = t.call("runner.run", wa.run_scenario, scenario)
        stdout = t.call("report.emit", lambda r: json.dumps(r.to_dict()), report)
        return CliOutcome(report.exit_code(), stdout + "\n", "")


def check_cli(path, text, expected, malformed):
    def check(o: CliOutcome) -> Optional[str]:
        if malformed:
            if o.code != 2:
                return f"malformed file exited {o.code}, not 2"
            m = _POSITION.match(o.stderr)
            lines = text.splitlines()
            if not m or m.group(1) != str(path):
                return "exit 2 without a file position"
            line, col = int(m.group(2)), int(m.group(3))
            if not (1 <= line <= len(lines) and 1 <= col <= len(lines[line - 1]) + 1):
                return f"position {line}:{col} is outside the source"
            return None
        want_code = 1 if "fail" in expected else 0
        try:
            statuses = [c["status"] for c in json.loads(o.stdout)["checks"]]
        except (ValueError, KeyError, TypeError):
            return f"exit {o.code} without a JSON report"
        if statuses != expected:
            return f"statuses {statuses}, expected {expected}"
        if o.code != want_code:
            return f"exit {o.code}, expected {want_code}"
        return None

    return check


def check_exit(want_code):
    def check(o: CliOutcome) -> Optional[str]:
        return None if o.code == want_code else f"exit {o.code}, expected {want_code}"

    return check


def op_cli(wa, label, path, check, malformed=False):
    def run(t):
        return cli_replay(wa, t, path) if t.replay else cli_main(wa, path)

    return Op(label, run, check, malformed)


class Corpus:
    """Scenario files written under one directory of the checkout."""

    def __init__(self, wa, directory: Path):
        self.wa = wa
        self.dir = directory
        self.ops = []

    def add(self, label, text, expected, malformed=False):
        path = self.dir / f"{len(self.ops):04d}-{label}.weil"
        path.write_text(text, encoding="utf-8")
        op = op_cli(self.wa, label, path, check_cli(path, text, expected, malformed), malformed)
        self.ops.append(op)
        return op


SCENARIO_TEMPLATES = (
    ("kernel-n1k2", lambda r: gen.scenario_kernel(r, 1, 2)),
    ("kernel-n2k2", lambda r: gen.scenario_kernel(r, 2, 2)),
    ("connection-n1", lambda r: gen.scenario_connection(r, 1)),
    ("mixed-n2", lambda r: gen.scenario_mixed(r, 2)),
    ("kernel-n2k3", lambda r: gen.scenario_kernel(r, 2, 3)),
    ("retract", gen.scenario_retract),
    ("connection-n2", lambda r: gen.scenario_connection(r, 2)),
    ("quotient-n2m3", lambda r: gen.scenario_quotient(r, 2, 3)),
    ("kernel-n3k2", lambda r: gen.scenario_kernel(r, 3, 2)),
    ("quotient-n3m3", lambda r: gen.scenario_quotient(r, 3, 3)),
)

SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"

# `weilaff check` verdicts of the shipped files: sharpness.weil fails by design.
SHIPPED = (
    ("quickstart.weil", 0),
    ("connection.weil", 0),
    ("nilsquare.weil", 0),
    ("retract.weil", 0),
    ("sharpness.weil", 1),
)


# -- workloads --------------------------------------------------------------------------


def trunc_kernel(wa, seed, corpus: Corpus, toy: bool):
    rng = lambda tag: gen.rng_for(seed, f"trunc/{tag}")
    ops = []
    conn_cells = [(2, 3)] * 4 + [(3, 4)] * 2 + [(4, 5)]
    canon_cells = [(2, 2, 3), (3, 2, 4), (2, 3, 3), (3, 3, 3), (4, 2, 5), (2, 4, 3)]
    reps, dense = 2, (20, 10, 10, 2, 1)
    if toy:
        conn_cells, canon_cells, reps, dense = [(2, 3)], [(2, 2, 3)], 1, (2, 1, 1, 1, 0)

    r = rng("connection")
    for n, t in conn_cells:
        _, pts = wa.generic_Ak_tuple(n, 2, t, base=gen.base_point(r, n))
        handle = wa.ConnectionAction(gen.connection(wa, r, n, degree=1))
        fams = [gen.weights(r, t) for _ in range(2)]
        ops.append(op_axioms(wa, f"conn-axioms-n{n}t{t}", handle, pts, fams, gen.weights(r, 2)))

    r = rng("canonical")
    for n, k, t in canon_cells:
        for _ in range(reps):
            _, pts = wa.generic_Ak_tuple(n, k, t, base=gen.base_point(r, n))
            fams = [gen.weights(r, t) for _ in range(2)]
            ops.append(op_axioms(wa, f"canon-axioms-n{n}k{k}t{t}", wa.CanonicalAction(n, k),
                                 pts, fams, gen.weights(r, 2)))

    r = rng("imorph")
    for n, k, t in canon_cells:
        for _ in range(reps + 1):
            base = gen.base_point(r, n)
            model = lambda n=n, k=k, t=t, base=base: wa.generic_Ak_tuple(n, k, t, base=base)
            f = gen.polymap(wa, r, n, n, k + 1)
            ops.append(op_imorph(wa, f"imorph-n{n}k{k}t{t}", model, f, k))

    r = rng("pullback")
    for n, t in [(2, 3)] * (reps + 1):
        _, pts = wa.generic_Ak_tuple(n, 2, t, base=[0] * n)
        c, iota = gen.connection(wa, r, n), gen.chart_map(wa, r, n)
        fams = [gen.weights(r, t) for _ in range(2)]
        ops.append(Op(
            f"pullback-n{n}t{t}",
            lambda tr, c=c, iota=iota, pts=pts, fams=fams: tr.call(
                "iaffine.check_pullback_lemma", wa.check_pullback_lemma, c, iota, pts, fams),
            expect_all_pass,
        ))

    r = rng("circle")
    norm = wa.Sqrt(wa.Add(wa.Mul(wa.Var(0), wa.Var(0)), wa.Mul(wa.Var(1), wa.Var(1))))
    circle = wa.RetractPair.from_idempotent(
        wa.ExprMap(2, 2, (wa.Div(wa.Var(0), norm), wa.Div(wa.Var(1), norm))))
    for _ in range(reps - 1):
        base = gen.circle_point(r)
        _, raw = wa.generic_Ak_tuple(2, 2, 3, base=base)
        pts = [wa.eval_map(circle.retraction, P) for P in raw]
        fams = [gen.weights(r, 3) for _ in range(2)]
        ops.append(op_axioms(wa, "circle-axioms", wa.RetractAction(circle), pts, fams,
                             gen.weights(r, 2)))
        ops.append(Op(
            "circle-idempotent",
            lambda t, base=base: t.call("iaffine.check_idempotent_identities",
                                        wa.check_idempotent_identities, circle, base),
            expect_all_pass,
        ))

    # one long-lived 16-generator cap-2 context: 153 basis monomials
    r = rng("dense")
    ctx = wa.make_truncated_context([("e", 4 if toy else 16, 2)])
    nmul, ninv, nsqrt, nmat2, nmat3 = dense
    for _ in range(nmul):
        x, y = gen.dense_element(ctx, r, 2), gen.dense_element(ctx, r, 2)
        ops.append(op_mul("dense-mul", x, y))
    for _ in range(ninv):
        ops.append(op_invert(wa, "dense-invert", gen.dense_element(ctx, r, 2, gen.nonzero_frac(r))))
    for _ in range(nsqrt):
        c = gen.nonzero_frac(r) ** 2
        ops.append(op_sqrt(wa, "dense-sqrt", gen.dense_element(ctx, r, 2, c)))
    for size, count in ((2, nmat2), (3, nmat3)):
        for _ in range(count):
            ops.append(op_mat_inverse(wa, f"dense-mat-inverse-{size}", dense_matrix(ctx, r, size, 2)))

    r = rng("scenarios")
    files = [("kernel-n3k3", lambda: gen.scenario_kernel(r, 3, 3)),
             ("connection-n2", lambda: gen.scenario_connection(r, 2)),
             ("retract", lambda: gen.scenario_retract(r))]
    add_files(corpus, ops, r, files[:1] if toy else files * 2)
    return interleave(ops, r)


def quotient_search(wa, seed, corpus: Corpus, toy: bool):
    rng = lambda tag: gen.rng_for(seed, f"quotient/{tag}")
    ops = []
    # A_{m-1} on (4, 4) and A_3, A_4 on (3, 5) take seconds each, and one
    # operation that long averages the host's noise instead of escaping it:
    # those models run only the cheaper searches
    pass_cells = [(2, 3), (3, 3), (2, 4), (3, 4)] * 2
    lower_cells = [(2, 3), (3, 3), (2, 4), (3, 4), (4, 4)]
    nilsq_cells = lower_cells + [(3, 5)]
    sym_cells = [(2, 1, 3, None), (2, 2, 3, 4), (3, 1, 3, None), (2, 1, 4, None), (3, 2, 3, None)]
    reps = 2
    if toy:
        pass_cells, lower_cells, nilsq_cells = [(2, 3)], [(2, 3)], [(2, 3)]
        sym_cells, reps = [(2, 1, 3, None)], 1

    def nilsq(n, m, base):
        return lambda: wa.generic_nilsquare_tuple(n, m, base=base)

    r = rng("nilsquare")
    for n, m in pass_cells:
        # the nil-square m-tuple is an order-(m-1) i-tuple
        ops.append(op_search(f"nilsq-A{m - 1}-n{n}m{m}", nilsq(n, m, gen.base_point(r, n)),
                             lambda mdl, m=m: wa.find_A_k_violation(mdl[1], m - 1), True))
    for n, m in lower_cells:
        # a product of j+1 differences survives exactly when j+1 <= min(n, m-1)
        ops.append(op_search(f"nilsq-A{m - 2}-n{n}m{m}", nilsq(n, m, gen.base_point(r, n)),
                             lambda mdl, m=m: wa.find_A_k_violation(mdl[1], m - 2), n < m - 1))
    for n, m in nilsq_cells:
        ops.append(op_search(f"nilsq-nilsquare-n{n}m{m}", nilsq(n, m, gen.base_point(r, n)),
                             lambda mdl: wa.find_nilsquare_violation(mdl[1]), True))

    def dn_k(rows):
        return lambda mdl: wa.find_DN_k_violation([mdl[1][j] - mdl[1][0] for j in rows])

    r = rng("dnk")
    for n, m, k in [(3, 4, 1), (3, 4, 2), (2, 3, 1)][: 1 if toy else 3]:
        # a repeated difference kills every product; k+1 distinct ones survive when k+1 <= n
        ops.append(op_search(f"dnk-repeated-k{k}-n{n}m{m}", nilsq(n, m, gen.base_point(r, n)),
                             dn_k([1, 1] + list(range(2, k + 1))), True))
        ops.append(op_search(f"dnk-distinct-k{k}-n{n}m{m}", nilsq(n, m, gen.base_point(r, n)),
                             dn_k(range(1, k + 2)), k + 1 > n))

    r = rng("symmetric")
    for n, k, m, cap in sym_cells:
        def sym(base, n=n, k=k, m=m, cap=cap):
            return lambda: wa.generic_symmetric_Ak_tuple(n, k, m, base=base, degree_cap=cap)
        # symmetric forms vanish, so each difference is in D_k, but not every
        # product of k+1 difference coordinates does (n >= 2, m >= 3)
        ops.append(op_search(f"sym-A{k}-n{n}m{m}", sym(gen.base_point(r, n)),
                             lambda mdl, k=k: wa.find_A_k_violation(mdl[1], k), False))
        ops.append(op_search(f"sym-D{k}-n{n}m{m}", sym(gen.base_point(r, n)),
                             lambda mdl, k=k: wa.find_D_k_violation(mdl[1][-1] - mdl[1][0], k), True))
        W = sorted(r.randrange(1, m) for _ in range(k + 1))
        M = [r.randrange(n) for _ in range(k + 1)]
        form = wa.symmetric_coordinate_form(n, M)

        def sym_form(t, model=sym(gen.base_point(r, n)), W=W, form=form):
            pts = t.call("neighborhoods.model", model)[1]
            return t.call("neighborhoods.eval_form", wa.eval_form, form, [pts[w] - pts[0] for w in W])

        ops.append(Op(f"sym-form-n{n}k{k}m{m}", sym_form,
                      lambda v: None if v.is_zero() else f"symmetric form gave {v}"))

    r = rng("determinant")
    for m in ([2, 3] * reps if not toy else [2]):
        # det of the m differences of the nil-square (m+1)-tuple in R^m is
        # m! times one surviving monomial
        def det(t, m=m, base=gen.base_point(r, m)):
            pts = t.call("neighborhoods.model", nilsq(m, m + 1, base))[1]
            return t.call("neighborhoods.eval_form", wa.eval_form, wa.determinant_form(m),
                          [P - pts[0] for P in pts[1:]])

        ops.append(Op(f"det-form-m{m}", det, lambda v, m=m: None if (
            len(v.coeffs) == 1 and abs(next(iter(v.coeffs.values()))) == math.factorial(m)
        ) else f"determinant gave {v}"))

    # long-lived quotient context: products reduce through the cached bases
    r = rng("dense")
    qctx, _ = wa.generic_nilsquare_tuple(3, 4)
    for _ in range(2 if toy else 12):
        x, y = gen.dense_element(qctx, r, 4), gen.dense_element(qctx, r, 4)
        ops.append(op_mul("quotient-mul", x, y))
    for _ in range(1 if toy else 4):
        ops.append(op_invert(wa, "quotient-invert", gen.dense_element(qctx, r, 4, gen.nonzero_frac(r))))

    r = rng("imorph")
    for n, m in [(2, 3), (3, 3), (2, 4)][: 1 if toy else 3] * reps:
        f = gen.polymap(wa, r, n, n, 2)
        ops.append(op_imorph(wa, f"imorph-nilsq-n{n}m{m}", nilsq(n, m, gen.base_point(r, n)), f, m - 1))

    r = rng("canonical")
    for n, m in [(2, 3), (3, 3)][: 1 if toy else 2] * reps:
        _, pts = wa.generic_nilsquare_tuple(n, m, base=gen.base_point(r, n))
        fams = [gen.weights(r, m) for _ in range(2)]
        ops.append(op_axioms(wa, f"canon-axioms-nilsq-n{n}m{m}", wa.CanonicalAction(n, m - 1),
                             pts, fams, gen.weights(r, 2)))

    r = rng("scenarios")
    files = [("mixed-n2", lambda: gen.scenario_mixed(r, 2))] * 3 + [
        ("quotient-n2m3", lambda: gen.scenario_quotient(r, 2, 3)),
        ("quotient-n3m3", lambda: gen.scenario_quotient(r, 3, 3)),
        ("quotient-n2m4", lambda: gen.scenario_quotient(r, 2, 4)),
    ]
    add_files(corpus, ops, r, files[:1] if toy else files)
    return interleave(ops, r)


def scenario_cli(wa, seed, corpus: Corpus, toy: bool):
    r = gen.rng_for(seed, "cli/corpus")
    nfiles = 20 if toy else 300
    ops = [op_cli(wa, name, SCENARIOS / name, check_exit(code)) for name, code in SHIPPED]
    for i in range(nfiles):
        # every tenth file is malformed; those cycle through the templates too
        malformed = i % 10 == 9
        label, make = SCENARIO_TEMPLATES[(i // 10 if malformed else i) % len(SCENARIO_TEMPLATES)]
        text, expected = make(r)
        if malformed:
            ops.append(corpus.add(f"{label}-malformed", gen.mutate(r, text), None, malformed=True))
        else:
            ops.append(corpus.add(label, text, expected))

    # one small library-level check per ten files
    lr = gen.rng_for(seed, "cli/library")
    for i in range(max(3, nfiles // 10)):
        kind = i % 3
        if kind == 0:
            base = gen.base_point(lr, 2)
            ops.append(op_imorph(wa, "lib-imorph", lambda base=base: wa.generic_Ak_tuple(2, 2, 3, base=base),
                                 gen.polymap(wa, lr, 2, 2, 2), 2))
        elif kind == 1:
            _, pts = wa.generic_Ak_tuple(2, 2, 2, base=gen.base_point(lr, 2))
            ops.append(op_axioms(wa, "lib-axioms", wa.CanonicalAction(2, 2), pts,
                                 [gen.weights(lr, 2) for _ in range(2)], gen.weights(lr, 2)))
        else:
            ctx = wa.make_truncated_context([("d", 2, 2)])
            ops.append(op_invert(wa, "lib-invert", gen.dense_element(ctx, lr, 2, gen.nonzero_frac(lr))))
    return interleave(ops, lr)


def add_files(corpus: Corpus, ops, rng, files):
    """One well-formed file per entry, plus a malformed copy of the first
    and the last, so that the untrusted-input contract is measured here too."""
    for i, (label, make) in enumerate(files):
        text, expected = make()
        ops.append(corpus.add(label, text, expected))
        if i in (0, len(files) - 1):
            ops.append(corpus.add(f"{label}-malformed", gen.mutate(rng, text), None, malformed=True))


def interleave(ops, rng):
    """A fixed seeded order, so no kind of operation runs as one block."""
    ops = list(ops)
    rng.shuffle(ops)
    return ops


WORKLOADS = {
    "trunc-kernel": trunc_kernel,
    "quotient-search": quotient_search,
    "scenario-cli": scenario_cli,
}
