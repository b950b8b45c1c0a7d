"""The benchmark's operations give their expected outcomes, at toy size.

Every operation of ``bench/workloads.py`` carries a check whose expected
outcome follows from how its inputs were built; the benchmark counts an
operation whose check fails as ``failed``.  This runs every operation of
every workload for a few seeds, both straight through and along the
stage-by-stage replay path of a traced pass, so that a library change that
would fail one shows up here first.
"""

import pathlib
import sys

import pytest

import weilaff
import weilaff.cli  # noqa: F401 - the scenario operations call weilaff.cli.main

BENCH = pathlib.Path(__file__).resolve().parent.parent / "bench"
sys.path.insert(0, str(BENCH))

import spans  # noqa: E402
import workloads  # noqa: E402


@pytest.mark.parametrize("seed", [1, 2, 3])
@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_every_operation_passes_its_check(workload, seed, tmp_path):
    ops = workloads.WORKLOADS[workload](weilaff, seed, workloads.Corpus(weilaff, tmp_path), True)
    assert ops
    for runner in (spans.Untraced(), spans.Untraced(replay=True)):
        failures = [(op.label, op.check(op.run(runner))) for op in ops]
        assert [f for f in failures if f[1] is not None] == [], runner.replay
