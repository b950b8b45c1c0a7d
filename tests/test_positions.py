"""Positions the parser reports, checked against the reference lexer, and
the term budget one file's bodies share.

The parser reads token texts and offsets, and it turns an offset into a line
and a column only for the statement line it records or the error it raises.
So every statement's ``line`` must be the ``tests/_oracles.lex`` line of its
keyword, and every ``ParseError`` must sit where some reference token starts
(or where the reference lexer fails), on texts whose brackets span lines,
whose comments end a line or the file, and whose lines end in CRLF.  Parsing
and the positional token view take time linear in the text.  The bodies of one
file may expand to 2,000 terms together, and the body that crosses that is an
error at its first token before anything is expanded.
"""

import gc
import random
import time

from hypothesis import given, settings, strategies as st

from _oracles import LexError, lex as reference_lex
from test_untrusted_input import SOURCES, _text, gen  # the same scenarios, bench/gen.py
from weilaff.cli import main
from weilaff.dsl import ParseError, _lex, parse_scenario


def _offset(text: str, line: int, col: int) -> int:
    start = 0
    for _ in range(line - 1):
        start = text.index("\n", start) + 1
    return start + col - 1


def _respaced(data, text: str) -> str:
    """``text`` with newlines after some opening brackets and commas inside
    brackets, comments before some newlines outside them and at the end, and
    CRLF line ends if drawn."""
    inserts = []  # (offset, text), applied from the back
    depth = 0
    for kind, value, line, col in reference_lex(text):
        if kind in ("(", "[", "{"):
            depth += 1
        elif kind in (")", "]", "}"):
            depth = max(0, depth - 1)
        if kind in ("(", ",") and depth and data.draw(st.booleans()):
            note = data.draw(st.sampled_from(["", " # inside (a, b)", "#"]))
            inserts.append((_offset(text, line, col) + 1, note + "\n   "))
        elif kind in ("NEWLINE", "EOF") and data.draw(st.booleans()):
            inserts.append((_offset(text, line, col), " # note ( [ {"))
    for at, piece in sorted(inserts, reverse=True):
        text = text[:at] + piece + text[at:]
    return text.replace("\n", "\r\n") if data.draw(st.booleans()) else text


def _keyword_lines(toks) -> list:
    """The line of each statement's first token, ``version`` left out."""
    return [line for i, (kind, value, line, col) in enumerate(toks)
            if kind == "NAME" and (i == 0 or toks[i - 1][0] == "NEWLINE") and value != "version"]


@settings(max_examples=60, deadline=None, derandomize=True)
@given(st.data())
def test_statement_lines_and_error_positions_match_the_reference_lexer(data):
    text = _respaced(data, _text(data.draw(st.sampled_from(sorted(SOURCES)))))
    scenario = parse_scenario(text)
    lines = [s.line for s in scenario.statements]
    assert lines == _keyword_lines(reference_lex(text))
    rng = random.Random(data.draw(st.integers(0, 2**32)))
    for _ in range(8):
        mutated = gen.mutate(rng, text)
        try:
            parse_scenario(mutated)
        except ParseError as err:
            try:
                starts = {(line, col) for _, _, line, col in reference_lex(mutated)}
            except LexError as lex_err:
                starts = {(lex_err.line, lex_err.column)}
            assert (err.line, err.column) in starts, (mutated, str(err))


def _seconds(fn, text):
    """The best of two runs, the cyclic collector off (it runs more often as
    more objects live, which says nothing of how ``fn`` scales), and the result."""
    best = float("inf")
    gc.collect()
    gc.disable()
    try:
        for _ in range(2):
            start = time.perf_counter()
            result = fn(text)
            best = min(best, time.perf_counter() - start)
    finally:
        gc.enable()
    return best, result


def test_parse_and_the_token_view_take_time_linear_in_the_text():
    """50,000 statements, then twice as many: at most about 2.5 times the time."""
    def text(n):
        return "".join(f"point P{i} = (1, {i})  # {i}\n" for i in range(n))

    small, large = text(50_000), text(100_000)
    for fn, last in ((parse_scenario, lambda sc: sc.statements[-1].line),
                     (_lex, lambda toks: toks[-2].line)):  # the last NEWLINE's
        (seconds, result), (half, _) = _seconds(fn, large), _seconds(fn, small)
        assert seconds / half < 2.5, (fn.__name__, seconds / half)
        assert last(result) == 100_000


def test_bodies_over_the_file_term_budget_are_a_positional_error(tmp_path, capsys):
    """Ten maps (x + i)^999 fit the term budget one by one; the third crosses
    the file's, and exits 2 at its body's first token, nothing expanded."""
    path = tmp_path / "ten.weil"
    path.write_text("version 1\n" + "".join(
        f"map f{i}(x) -> 1 {{ (x + {i})^999 }}\n" for i in range(1, 11)))
    expected = ("expected a body within the file's term budget (2,000 terms when expanded,"
                " over all bodies)")
    for argv in (["check", str(path)], ["check", str(path), "--json"],
                 ["eval", str(path), "--expr", "1"]):
        start = time.perf_counter()
        code = main(argv)
        out = capsys.readouterr()
        assert time.perf_counter() - start < 1
        assert code == 2 and out.out == ""
        assert out.err == f"{path}:4:18: {expected}, found (\n"
