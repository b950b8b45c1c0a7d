"""Golden behaviour: the full selftest grid and every shipped scenario report.

The files under ``tests/golden/`` hold ``selftest --grid full --json`` and
``check --json`` for each ``scenarios/*.weil``, with the ``millis`` timing
field removed.  A refactor that keeps behaviour leaves them byte-identical.

Regenerate them only for an intended change of behaviour, and review the diff:

    PYTHONPATH=src python tests/test_golden.py
"""

import contextlib
import io
import json
import pathlib

import pytest

from weilaff.cli import main

ROOT = pathlib.Path(__file__).resolve().parent.parent
GOLDEN = ROOT / "tests" / "golden"
SCENARIOS = sorted((ROOT / "scenarios").glob("*.weil"))

CASES = [("selftest-full", ["selftest", "--grid", "full", "--json"])] + [
    (p.stem, ["check", str(p), "--json"]) for p in SCENARIOS
]


def _render(argv) -> str:
    """Run the CLI; return its JSON report without timings, plus the exit code."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = main(argv)
    doc = json.loads(buf.getvalue())
    for entry in doc["checks"]:
        del entry["millis"]
    doc["exit_code"] = code
    return json.dumps(doc, indent=1, sort_keys=True) + "\n"


def test_scenarios_present():
    assert len(SCENARIOS) == 6


@pytest.mark.parametrize("name,argv", CASES, ids=[c[0] for c in CASES])
def test_matches_golden(name, argv):
    expected = (GOLDEN / f"{name}.json").read_text(encoding="utf-8")
    assert _render(argv) == expected


if __name__ == "__main__":
    GOLDEN.mkdir(exist_ok=True)
    for name, argv in CASES:
        (GOLDEN / f"{name}.json").write_text(_render(argv), encoding="utf-8")
        print(f"wrote {name}.json")
