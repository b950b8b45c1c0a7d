"""The shipped sample scenarios and demos behave exactly as documented."""

import pathlib
import subprocess
import sys

import pytest

from weilaff import parse_scenario, render_scenario, run_scenario

ROOT = pathlib.Path(__file__).resolve().parent.parent
SCENARIOS = ROOT / "scenarios"
DEMOS = ROOT / "demos"

# file name -> (expected pass count, expected fail count)
EXPECTED = {
    "quickstart.weil": (7, 0),
    "connection.weil": (8, 0),
    "retract.weil": (14, 0),
    "nilsquare.weil": (4, 0),
    "sharpness.weil": (0, 2),
    "closed_chart.weil": (6, 0),
}


def load(name):
    return parse_scenario((SCENARIOS / name).read_text())


@pytest.mark.parametrize("name", sorted(EXPECTED))
def test_scenario_outcomes(name):
    report = run_scenario(load(name))
    counts = report.counts
    assert (counts["pass"], counts["fail"]) == EXPECTED[name]
    assert counts["error"] == 0


@pytest.mark.parametrize("name", sorted(EXPECTED))
def test_scenario_round_trips(name):
    s = load(name)
    assert parse_scenario(render_scenario(s)) == s


def test_no_unlisted_scenarios():
    on_disk = {p.name for p in SCENARIOS.glob("*.weil")}
    assert on_disk == set(EXPECTED)


def test_sharpness_witnesses_name_the_surviving_monomials():
    report = run_scenario(load("sharpness.weil"))
    monomials = [e.witness["monomial"] for e in report.entries if e.status == "fail"]
    assert monomials == ["d1^2", "u2·u3"]


@pytest.mark.parametrize("script", ["tour.py", "christoffel_transport.py"])
def test_demo_runs_clean(script):
    proc = subprocess.run(
        [sys.executable, str(DEMOS / script)],
        capture_output=True,
        text=True,
        cwd=ROOT,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert "FAIL" not in proc.stdout
    assert "Traceback" not in proc.stderr
