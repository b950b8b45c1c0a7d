"""A scenario file is untrusted input: ``weilaff check`` never crashes on it.

Every input here is a shipped scenario or a generated one (``bench/gen.py``,
one of each template), broken by a one-token bracket mutation, by one
inserted non-ASCII digit or letter, or by bytes that are no UTF-8 text.
Whatever the parser makes of it, the CLI must answer with an exit code
(0, 1 or 2) and never raise or print a traceback; a file that is no UTF-8
text exits 2 at the position of its first bad byte, and a point nested
deeper than the interpreter's stack exits 2 at its statement.  A map body
that chains 1,000 terms or factors evaluates to its value.  A value with
more digits than CPython converts to a string by default is still reported
in full.  A polynomial body whose expansion could pass the term budget or
the coefficient budget exits 2 at its first token before anything is
expanded, and so does a constant over the coefficient budget.
"""

import decimal
import json
import pathlib
import random
import sys
import time
import tracemalloc
from fractions import Fraction

import pytest

from weilaff.cli import main

ROOT = pathlib.Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "bench"))

import gen  # noqa: E402

# digits that str.isdigit accepts and int() may not, then letters of several scripts
INSERTS = "²³٣߂१①" + "éßΩжǅﬁ"
# a byte UTF-8 never uses, a lead byte with no continuation, an encoded surrogate
BAD_BYTES = (b"\xff", b"\xc3", b"\xed\xa0\x80")

TEMPLATES = {
    "kernel": lambda r: gen.scenario_kernel(r, 2, 2),
    "connection": lambda r: gen.scenario_connection(r, 1),
    "retract": gen.scenario_retract,
    "mixed": lambda r: gen.scenario_mixed(r, 2),
    "quotient": lambda r: gen.scenario_quotient(r, 2, 3),
}
SOURCES = {f"shipped-{p.stem}": p for p in sorted((ROOT / "scenarios").glob("*.weil"))}
SOURCES.update({f"gen-{name}": name for name in TEMPLATES})


def _text(source: str) -> str:
    what = SOURCES[source]
    if isinstance(what, pathlib.Path):
        return what.read_text(encoding="utf-8")
    return TEMPLATES[what](gen.rng_for(0, f"untrusted/{what}"))[0]


def _broken(text: str, rng: random.Random) -> list:
    """(file bytes, None) for broken text, or (file bytes, "LINE:COL: …") for
    an inserted bad byte and the error that locates it."""
    out = [gen.mutate(rng, text) for _ in range(4)]
    for _ in range(12):
        at = rng.randrange(len(text) + 1)
        out.append(text[:at] + rng.choice(INSERTS) + text[at:])
    out = [(t.encode("utf-8"), None) for t in out]
    for bad in BAD_BYTES:
        at = rng.randrange(len(text) + 1)
        before = text[:at]
        line, col = before.count("\n") + 1, len(before) - before.rfind("\n")
        error = f"{line}:{col}: expected UTF-8 text, found byte 0x{bad[0]:02x}"
        out.append((before.encode("utf-8") + bad + text[at:].encode("utf-8"), error))
    return out


@pytest.mark.parametrize("source", sorted(SOURCES))
def test_check_answers_every_broken_file(source, tmp_path, capsys):
    rng = random.Random(f"untrusted/{source}")
    for n, (data, error) in enumerate(_broken(_text(source), rng)):
        path = tmp_path / f"{n}.weil"
        path.write_bytes(data)
        code = main(["check", str(path), "--json"])
        out = capsys.readouterr()
        assert code in (0, 1, 2), data
        assert "Traceback" not in out.out + out.err, data
        if error is not None:
            assert code == 2, data
            assert out.out == ""
            assert out.err == f"{path}:{error}\n"


DEEP = {
    "parentheses": "(" * 3000 + "d[1]" + ")" * 3000,
    "minus-signs": "-" * 3000 + "d[1]",
    "long-sum": " + ".join(["d[1]"] * 3000),
}


@pytest.mark.parametrize("shape", sorted(DEEP))
def test_deep_input_is_a_positional_error(shape, tmp_path, capsys):
    """Input nested past the interpreter's stack exits 2 at its statement."""
    path = tmp_path / f"{shape}.weil"
    path.write_text(f"version 1\nblock d vars 1 cap 2\npoint P = ({DEEP[shape]},)\n")
    for argv in (["check", str(path)], ["eval", str(path), "--expr", "P"]):
        code = main(argv)
        out = capsys.readouterr()
        assert code == 2
        assert out.out == ""
        assert out.err.startswith(f"{path}:3:1: ") and "Traceback" not in out.err
    # the same expression in eval --expr, against a file that parses: a sum
    # parses without nesting and fails in evaluation, without a position
    code = main(["eval", str(ROOT / "scenarios" / "quickstart.weil"), f"--expr={DEEP[shape]}"])
    out = capsys.readouterr()
    assert code == 2 and out.out == "" and "Traceback" not in out.err
    # a long sum parses, so only the nested shapes name a position here
    assert shape == "long-sum" or out.err.startswith("1:1: ")


@pytest.mark.parametrize("text, position, found", [
    # C(403, 3) = 10,827,401 basis monomials
    ("block d vars 3 cap 400\n", "1:20", "400"),
    # 496 and 21 fit alone, and their product 10,416 does not
    ("version 1\nblock a vars 2 cap 30\nblock b vars 1 cap 20\n", "3:20", "20"),
    # the budget holds before math.comb would take long
    ("block d vars 2 cap " + "9" * 4000 + "\n", "1:20", "9" * 4000),
], ids=["one-block", "two-blocks", "huge-cap"])
def test_blocks_over_the_dimension_budget_are_a_positional_error(
        text, position, found, tmp_path, capsys):
    path = tmp_path / "big.weil"
    path.write_text(text)
    expected = "expected a cap within the dimension budget (10,000 basis monomials over all blocks)"
    for argv in (["check", str(path)], ["check", str(path), "--json"],
                 ["eval", str(path), "--expr", "sqrt(1 + d[1] + d[2] + d[3])"]):
        start = time.perf_counter()
        code = main(argv)
        out = capsys.readouterr()
        assert time.perf_counter() - start < 5
        assert code == 2 and out.out == ""
        assert out.err == f"{path}:{position}: {expected}, found {found}\n"


@pytest.mark.parametrize("text, position, found", [
    # 2,001 terms in one variable, 20,301 in two (C(202, 2))
    ("version 1\nmap f(x) -> 1 { (x + 1)^2000 }\n", "2:17", "("),
    ("map f(x, y) -> 2 { x, (x + y + 1)^200 }\n", "1:23", "("),
    # C(52, 50) = 1,326 terms; a power counts when its value is not needed
    ("connection g dim 2 { GAMMA[1][1,1] = ((x1 + x2 + 1)^50)^0 }\n", "1:38", "("),
    ("quotient q vars 2 degcap 2 relations { q[1]^2, (q[1] + q[2])^1000 }\n", "1:48", "("),
    # an exponent of 4,000 digits is counted, never expanded
    ("map f(x) -> 1 { sqrt(x + 1)^" + "9" * 4000 + " }\n", "1:17", "sqrt"),
], ids=["one-variable", "two-variables", "gamma", "relation", "huge-exponent"])
def test_bodies_over_the_term_budget_are_a_positional_error(
        text, position, found, tmp_path, capsys):
    path = tmp_path / "big.weil"
    path.write_text(text)
    expected = "expected a body within the term budget (1,000 terms when expanded)"
    for argv in (["check", str(path)], ["check", str(path), "--json"],
                 ["eval", str(path), "--expr", "1"]):
        start = time.perf_counter()
        code = main(argv)
        out = capsys.readouterr()
        assert time.perf_counter() - start < 1
        assert code == 2 and out.out == ""
        assert out.err == f"{path}:{position}: {expected}, found {found}\n"


_BODY_BITS = "expected a body within the coefficient budget (20,000 bits when expanded)"
_CONSTANT_BITS = "expected a constant within the coefficient budget (20,000 bits)"
_LITERAL = "9" * 4300  # the longest integer a file may hold


@pytest.mark.parametrize("text, position, expected, found", [
    # 999 · 35 bits; before the budget this body built for 18 s
    ("version 1\nmap f(x) -> 1 { (9999999999*x + 1)^999 }\n", "2:17", _BODY_BITS, "("),
    ("connection g dim 1 { GAMMA[1][1,1] = (1073741824*x1 + 1)^999 }\n", "1:38", _BODY_BITS, "("),
    ("quotient q vars 2 degcap 2 relations { (9999999999*q[1] + q[2])^999 }\n", "1:40",
     _BODY_BITS, "("),
    # a constant is bounded where it is read: a power of a literal, in a body,
    # a point or a check vector ...
    ("map f(x) -> 1 { x * 3^30000000 }\n", "1:21", _CONSTANT_BITS, "3"),
    ("block d vars 1 cap 2\npoint O = (3^10000000,)\n", "2:12", _CONSTANT_BITS, "3"),
    ("block d vars 1 cap 2\npoint O = ((2^4000)^4000 * d[1],)\n", "2:12", _CONSTANT_BITS, "("),
    ("block d vars 1 cap 2\ncheck in-Dk ((d[1] / 2^30000,)) k=1\n", "2:22", _CONSTANT_BITS, "2"),
    # ... and a product of literals, which the parser folds as it reads it
    ("map f(x) -> 1 { " + " * ".join([_LITERAL] * 100) + " * x }\n", "1:17", _CONSTANT_BITS,
     _LITERAL),
], ids=["map", "gamma", "relation", "power-in-body", "point", "nested-power", "check-vector",
        "literal-product"])
def test_coefficients_over_the_bit_budget_are_a_positional_error(
        text, position, expected, found, tmp_path, capsys):
    path = tmp_path / "big.weil"
    path.write_text(text)
    for argv in (["check", str(path)], ["check", str(path), "--json"],
                 ["eval", str(path), "--expr", "1"]):
        start = time.perf_counter()
        code = main(argv)
        out = capsys.readouterr()
        assert time.perf_counter() - start < 1
        assert code == 2 and out.out == ""
        assert out.err == f"{path}:{position}: {expected}, found {found}\n"


def test_eval_expr_bounds_its_constants_as_a_file_does(capsys):
    quickstart = str(ROOT / "scenarios" / "quickstart.weil")
    start = time.perf_counter()
    assert main(["eval", quickstart, "--expr", "(1, 3^10000000)"]) == 2
    assert time.perf_counter() - start < 1
    assert capsys.readouterr() == ("", f"1:5: {_CONSTANT_BITS}, found 3\n")


@pytest.mark.parametrize("body, value", [
    (" + ".join(["x"] * 1000), "(1000 + 1000·d)"),
    (" * ".join(["x"] * 1000), "(1 + 1000·d + 499500·d^2)"),
    # a quotient by a variable keeps the body an expression tree
    ("(" + " + ".join(["x"] * 1000) + ") / x", "(1000)"),
    # 5,000 steps of * and / by constants: one scale factor times x
    ("x" + " / 2" * 5000, f"({Fraction(1, 2**5000)} + {Fraction(1, 2**5000)}·d)"),
    ("x" + " * 3 / 2" * 2500, f"({Fraction(3, 2)**2500} + {Fraction(3, 2)**2500}·d)"),
], ids=["sum", "product", "quotient", "halving", "mixed"])
def test_long_chain_in_a_map_body_evaluates(body, value, tmp_path, capsys):
    """A chain of binary operators leans left, and the walks from a map body
    to its polynomial or its value fold it in a loop."""
    path = tmp_path / "chain.weil"
    path.write_text(
        "version 1\nblock d vars 1 cap 2\npoint O = (1,)\npoint P = O + (d[1],)\n"
        f"map f(x) -> 1 {{ {body} }}\ncheck i-morphism f (O; P) k=2\n"
    )
    assert main(["check", str(path)]) == 0
    assert capsys.readouterr().out.startswith("PASS  i-morphism@L6 ")
    assert main(["eval", str(path), "--expr", "f(P)"]) == 0
    assert capsys.readouterr() == (value + "\n", "")


def test_high_power_evaluates_in_small_time_and_memory(tmp_path, capsys):
    """A term of degree e costs O(log e) products: x^100000 is squared up to,
    not multiplied out one factor at a time."""
    path = tmp_path / "power.weil"
    path.write_text(
        "version 1\nblock d vars 1 cap 2\npoint O = (1, 2)\npoint P = O + (d[1], d[1])\n"
        "map f(x, y) -> 1 { x^100000 * y^3 - 2 * x^99999 * y }\n"
        "check i-morphism f (O; P) k=2\n"
    )
    tracemalloc.start()
    start = time.perf_counter()
    code = main(["check", str(path)])
    seconds = time.perf_counter() - start
    peak = tracemalloc.get_traced_memory()[1]
    tracemalloc.stop()
    assert code == 0, capsys.readouterr()
    assert seconds < 1.0 and peak < 8_000_000, (seconds, peak)


def test_large_coefficient_is_a_fail_with_its_exact_witness(tmp_path, capsys):
    """A coefficient past the interpreter's 4,300-digit limit on int-to-str
    conversion keeps its verdict: FAIL with the exact witness, not ERROR."""
    path = tmp_path / "large.weil"
    path.write_text("block d vars 1 cap 2\npoint V = (2^20000 * d[1],)\ncheck in-Dk (V) k=1\n")
    # Decimal converts an int without that limit: an independent decimal text
    square, value = str(decimal.Decimal(2**40000)), str(decimal.Decimal(2**20000))
    assert len(square) > 12_000
    assert main(["check", str(path)]) == 1
    out = capsys.readouterr()
    assert out.out.startswith(f"FAIL  in-Dk@L3 (in-Dk)  [v[1]·v[1] -> {square}·d^2]\n")
    assert out.err == ""
    assert main(["check", str(path), "--json"]) == 1
    witness = json.loads(capsys.readouterr().out)["checks"][0]["witness"]
    assert witness == {"location": "v[1]·v[1]", "monomial": "d^2", "coefficient": square}
    assert main(["eval", str(path), "--expr", "V"]) == 0
    out = capsys.readouterr()
    assert (out.out, out.err) == (f"({value}·d)\n", "")
    assert main(["eval", str(path), "--expr", "-V / 3 - (2^20000,)"]) == 0
    assert capsys.readouterr().out == f"(-{value} - {value}/3·d)\n"
