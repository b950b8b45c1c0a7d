"""The scenario lexer agrees with the character-at-a-time reference lexer.

``tests/_oracles.lex`` reads one character at a time; ``weilaff.dsl._lex``
scans one compiled token pattern.  On every input both give the same tokens
as (type, value, line, col), or fail at the same (line, col) with the same
message.  Inputs are the shipped scenarios, one generated scenario per
``bench/gen.py`` template with ``gen.mutate`` mutations of each, hypothesis
text over the scenario alphabet, and non-ASCII digits and letters.
"""

import random
import time

import pytest
from hypothesis import given, settings, strategies as st

from _oracles import LexError, lex as reference_lex
from test_untrusted_input import SOURCES, _text, gen  # the same scenarios, bench/gen.py
from weilaff.dsl import ParseError, _lex


def _both(text: str):
    """(new, reference): a token list, or the error's (line, col, message)."""
    out = []
    for lex, error in ((_lex, ParseError), (reference_lex, LexError)):
        try:
            out.append([tuple(t) for t in lex(text)])
        except error as exc:
            out.append((exc.line, exc.column, str(exc)))
    return out


def _agree(text: str):
    new, ref = _both(text)
    assert new == ref, repr(text)


@pytest.mark.parametrize("source", sorted(SOURCES))
def test_agrees_on_scenarios_and_their_mutations(source):
    text = _text(source)
    _agree(text)
    rng = random.Random(f"lexer/{source}")
    for _ in range(20):
        _agree(gen.mutate(rng, text))


EDGES = [
    "",
    "   ",
    "# only a comment",
    "block d vars 2 cap 2 # trailing comment",
    "block d vars 2 cap 2 # comment\npoint P = (0, 0)\n",
    "point P = ( # comment inside brackets\n 1, 2 )\n",
    "map f(x) -> 1 {\r\n\tx # c\r\n}\r\n",
    "a\tb\r\nc",
    ") ] }\nx",
    "((\n))\n)\n",
    "3x x3 _x x_ ->- ->->",
    "a > b",
    "a\x0bb",
    "² ٣ ⅷ ½ ß",
    "x² y٣ zⅷ w½ ßx",
    "²", "٣", "ⅷ", "½", "ß",
    "9" * 4300,
    "point P = (" + "9" * 4301 + ",)",
]


@pytest.mark.parametrize("text", EDGES)
def test_agrees_on_edge_cases(text):
    _agree(text)


FRAGMENTS = [
    "block", "quotient", "point", "map", "check", "k", "x1", "_y", "d", "P",
    "0", "1", "42", "(", ")", "[", "]", "{", "}", ",", ";", "=", "+", "-", "*",
    "/", "^", "->", ">", " ", "  ", "\t", "\n", "\r\n", "\r", "#", "# note",
    "# note\n", "²", "٣", "ⅷ", "½", "ß",
]


@settings(max_examples=300, derandomize=True)
@given(st.lists(st.sampled_from(FRAGMENTS), max_size=40).map("".join))
def test_agrees_on_fragment_text(text):
    _agree(text)


@settings(max_examples=300, derandomize=True)
@given(st.text(alphabet="ab_19 \t\r\n#()[]{},;=+-*/^>.²٣ß", max_size=60))
def test_agrees_on_character_text(text):
    _agree(text)


@pytest.mark.parametrize("text", [" " * 200_000, "#" + "c" * 200_000], ids=["blanks", "comment"])
def test_a_long_line_lexes_in_linear_time(text):
    start = time.perf_counter()
    toks = _lex(text)
    assert time.perf_counter() - start < 0.25
    assert [t.type for t in toks] == ["EOF"]
