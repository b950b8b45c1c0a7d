"""A scenario file is untrusted input: ``weilaff check`` never crashes on it.

Every input here is a shipped scenario or a generated one (``bench/gen.py``,
one of each template), broken by a one-token bracket mutation, by one
inserted non-ASCII digit or letter, or by bytes that are no UTF-8 text.
Whatever the parser makes of it, the CLI must answer with an exit code
(0, 1 or 2) and never raise or print a traceback; a file that is no UTF-8
text exits 2 at the position of its first bad byte.
"""

import pathlib
import random
import sys

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
