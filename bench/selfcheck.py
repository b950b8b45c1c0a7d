"""Toy-size self-check of the benchmark harness, so that it cannot rot.

    python3 bench/selfcheck.py          # or: python3 -m pytest bench/selfcheck.py

Runs every workload at toy size, traced and untraced, and checks the result
line against BENCHMARK.json, that count metrics and the attempted and failed
counts repeat exactly for one seed, however long the run,
that another seed changes the inputs, and that the benchmark refuses to run
without the weilaff sources.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
COUNT_UNITS = ("count", "ratio")


def bench(workload, seed, trace, cwd=ROOT, seconds=0.2):
    cmd = [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace), "--toy"]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=300)


def result(proc):
    assert proc.returncode == 0, proc.stderr
    res = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(res) == {"correct", "attempted", "failed", "metrics"}
    assert res["correct"] is True
    assert isinstance(res["attempted"], int) and res["attempted"] >= 1
    assert isinstance(res["failed"], int) and 0 <= res["failed"] <= res["attempted"]
    return res


def test_result_lines_match_spec():
    for w in SPEC["workloads"]:
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            res = result(bench(w["name"], 1, trace))
            want = {m["name"]: m["unit"] for m in SPEC[key]}
            got = {k: v["unit"] for k, v in res["metrics"].items()}
            assert got == want, (w["name"], trace, set(got) ^ set(want))
            for k, v in res["metrics"].items():
                assert isinstance(v["value"], (int, float)), k
            if trace == 0:
                assert all(v["value"] > 0 for v in res["metrics"].values()), res["metrics"]
            else:
                assert res["metrics"]["trace.overhead_s"]["value"] > 0


def test_counts_repeat_for_a_seed():
    counts = {m["name"] for m in SPEC["per_layer"] if m["unit"] in COUNT_UNITS}
    for w in SPEC["workloads"]:
        a, b = (result(bench(w["name"], 3, 1, seconds=s)) for s in (0.2, 1.0))
        assert (a["attempted"], a["failed"]) == (b["attempted"], b["failed"]), w["name"]
        a, b = a["metrics"], b["metrics"]
        assert {k: a[k] for k in counts} == {k: b[k] for k in counts}, w["name"]


def test_seed_changes_inputs():
    a, b = (result(bench("scenario-cli", s, 1))["metrics"]["dsl.bytes"]["value"] for s in (1, 2))
    assert a != b


def test_refuses_without_sources():
    with tempfile.TemporaryDirectory() as tmp:
        shutil.copy(ROOT / "BENCHMARK.json", tmp)
        for p in SPEC["paths"]:
            shutil.copytree(ROOT / p, Path(tmp) / p, ignore=shutil.ignore_patterns("__pycache__"))
        proc = bench("trunc-kernel", 1, 0, cwd=tmp)
        assert proc.returncode != 0
        assert not proc.stdout.strip()


if __name__ == "__main__":
    for name, fn in list(globals().items()):
        if name.startswith("test_"):
            fn()
            print(f"ok  {name}")
