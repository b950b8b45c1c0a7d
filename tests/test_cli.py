"""Command-line interface: exit codes, JSON schema, and output stability."""

import argparse
import json
import subprocess
import sys

import pytest

from weilaff import cli
from weilaff.cli import main


GOOD = """block d vars 2 cap 2
point O = (0, 0)
point P = O + (d[1], d[2])
check in-Dk (P - O) k=2
check i-tuple (O; P) k=2
"""

FAILING = """block d vars 2 cap 2
point O = (0, 0)
point P = O + (d[1], d[2])
check in-Dk (P - O) k=1
"""

EVAL_DECLS = """block eps vars 2 cap 1
point Q = (1, 2)
map f(x, y) -> 2 { x + y^2, x*y }
"""


def write(tmp_path, text, name="scenario.wa"):
    p = tmp_path / name
    p.write_text(text, encoding="utf-8")
    return str(p)


def run_main(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


# -- check -------------------------------------------------------------------------------


def test_check_all_pass(tmp_path, capsys):
    code, out, err = run_main(capsys, "check", write(tmp_path, GOOD))
    assert code == 0
    assert err == ""
    assert out.count("PASS") == 2
    assert "summary: 2 passed, 0 failed, 0 errors" in out


def test_check_failure_reports_degree_two_witness(tmp_path, capsys):
    code, out, err = run_main(capsys, "check", write(tmp_path, FAILING), "--json")
    assert code == 1
    doc = json.loads(out)
    (entry,) = doc["checks"]
    assert entry["status"] == "fail"
    assert entry["witness"]["monomial"] == "d1^2"
    assert entry["witness"]["coefficient"] == "1"


def test_check_parse_error_exit_2(tmp_path, capsys):
    path = write(tmp_path, "block d vars 2 cap\n")
    code, out, err = run_main(capsys, "check", path)
    assert code == 2
    assert out == ""
    # the position is printed once, as the prefix
    assert err == f"{path}:1:19: expected an integer, found end of line\n"


def test_check_bare_quotient_name_exit_2(tmp_path, capsys):
    text = "block d vars 1 cap 1\nquotient u vars 2 degcap 3 relations { u)1]*u[2] }\n"
    path = write(tmp_path, text)
    code, out, err = run_main(capsys, "check", path)
    assert code == 2
    assert out == ""
    assert err.startswith(f"{path}:2:40: ")
    assert "expected an indexed generator like u[1], found u" in err


def test_check_tuple_map_body_exit_2(tmp_path, capsys):
    path = write(tmp_path, "block d vars 1 cap 1\nmap f(x) -> 1 { (x, x) }\n")
    code, out, err = run_main(capsys, "check", path)
    assert code == 2
    assert out == ""
    assert err.startswith(f"{path}:2:17: ")
    assert "expected a scalar expression, found (" in err


@pytest.mark.parametrize("digit", ["\u00b2", "\u0663"])
def test_check_unicode_digit_exit_2(tmp_path, capsys, digit):
    path = write(tmp_path, f"block d vars {digit} cap 1\n")
    code, out, err = run_main(capsys, "check", path, "--json")
    assert code == 2
    assert out == ""
    assert err.startswith(f"{path}:1:14: ")
    assert f"expected a token, found {digit!r}" in err
    assert "Traceback" not in err


def test_check_setup_fault_exit_2(tmp_path, capsys):
    path = write(tmp_path, "block e vars 1 cap 1\npoint P = (1/0,)\ncheck in-Dk (P) k=1\n")
    code, out, err = run_main(capsys, "check", path)
    assert code == 2
    assert "ERROR setup" in out
    assert "not a unit" in out


def test_check_missing_file(tmp_path, capsys):
    code, out, err = run_main(capsys, "check", str(tmp_path / "nope.wa"))
    assert code == 2
    assert err.startswith("error: ")


@pytest.mark.parametrize(
    "data, where",
    [
        (b"block d vars 2 cap 2\npoint P = (\xff, 0)\n", "2:12"),
        # the position counts characters of the valid prefix, \r\n as one newline
        (b"# \xc3\xa9\r\nx \xc3\x9f\xff", "2:4"),
    ],
    ids=["ascii-prefix", "crlf-multibyte-prefix"],
)
@pytest.mark.parametrize("command", [["check"], ["eval", "--expr", "1"]], ids=["check", "eval"])
def test_non_utf8_file_exit_2(tmp_path, capsys, data, where, command):
    path = tmp_path / "bytes.weil"
    path.write_bytes(data)
    code, out, err = run_main(capsys, command[0], str(path), *command[1:])
    assert code == 2
    assert out == ""
    assert err == f"{path}:{where}: expected UTF-8 text, found byte 0xff\n"


# -- json schema -------------------------------------------------------------------------


def test_json_schema_shape(tmp_path, capsys):
    code, out, err = run_main(capsys, "check", write(tmp_path, GOOD), "--json")
    assert code == 0
    doc = json.loads(out)
    assert list(doc) == ["version", "checks", "summary"]
    assert doc["version"] == 1
    assert list(doc["summary"]) == ["pass", "fail", "error"]
    for entry in doc["checks"]:
        assert list(entry) == ["name", "kind", "status", "witness", "millis"]
        assert entry["status"] in ("pass", "fail", "error")
        assert (entry["witness"] is not None) == (entry["status"] != "pass")
        assert isinstance(entry["millis"], int)
    assert doc["summary"] == {"pass": 2, "fail": 0, "error": 0}


def strip_millis(doc):
    return {
        **doc,
        "checks": [{**e, "millis": 0} for e in doc["checks"]],
    }


def test_json_deterministic_modulo_millis(tmp_path, capsys):
    path = write(tmp_path, GOOD)
    _, out1, _ = run_main(capsys, "check", path, "--json")
    _, out2, _ = run_main(capsys, "check", path, "--json")
    assert strip_millis(json.loads(out1)) == strip_millis(json.loads(out2))


# -- eval --------------------------------------------------------------------------------


def test_eval_square_of_unit(tmp_path, capsys):
    code, out, err = run_main(
        capsys, "eval", write(tmp_path, EVAL_DECLS), "--expr", "(1+eps[1])^2"
    )
    assert code == 0
    assert out == "1 + 2·eps1\n"


def test_eval_map_application(tmp_path, capsys):
    code, out, err = run_main(capsys, "eval", write(tmp_path, EVAL_DECLS), "--expr", "f(Q)")
    assert code == 0
    assert out == "(5, 2)\n"


def test_eval_normalizes_symmetrized_product(tmp_path, capsys):
    path = write(tmp_path, "block u vars 2 cap 2\n")
    code, out, err = run_main(
        capsys, "eval", path, "--expr", "u[1]*u[2] + u[2]*u[1]"
    )
    assert code == 0
    assert out == "2·u1·u2\n"


def test_eval_unknown_name(tmp_path, capsys):
    code, out, err = run_main(capsys, "eval", write(tmp_path, EVAL_DECLS), "--expr", "g(Q)")
    assert code == 2
    assert out == ""
    assert err.strip().startswith("error:")


def test_eval_expression_parse_error(tmp_path, capsys):
    code, out, err = run_main(capsys, "eval", write(tmp_path, EVAL_DECLS), "--expr", "1 +")
    assert code == 2
    assert err == "1:4: expected an expression, found end of input\n"


def test_eval_scenario_parse_error_names_the_file(tmp_path, capsys):
    path = write(tmp_path, "block d vars 2 cap\n")
    code, out, err = run_main(capsys, "eval", path, "--expr", "d[1]")
    assert code == 2
    assert out == ""
    assert err.startswith(f"{path}:1:19: ")
    assert "expected an integer" in err


# -- selftest ----------------------------------------------------------------------------


def test_selftest_small_grid_passes(tmp_path, capsys):
    code, out, err = run_main(capsys, "selftest", "--grid", "small", "--json")
    assert code == 0
    doc = json.loads(out)
    assert doc["summary"]["fail"] == 0 and doc["summary"]["error"] == 0
    assert doc["summary"]["pass"] == len(doc["checks"]) > 0
    names = [e["name"] for e in doc["checks"]]
    assert any(n.startswith("thm-i-morph/") for n in names)
    assert any(n.startswith("fmt-scenario-roundtrip/") for n in names)


def test_selftest_deterministic_for_fixed_seed(capsys):
    code1, out1, _ = run_main(capsys, "selftest", "--grid", "small", "--seed", "3", "--json")
    code2, out2, _ = run_main(capsys, "selftest", "--grid", "small", "--seed", "3", "--json")
    assert code1 == code2 == 0
    assert strip_millis(json.loads(out1)) == strip_millis(json.loads(out2))


def test_selftest_other_seed_still_passes(capsys):
    code, out, _ = run_main(capsys, "selftest", "--grid", "small", "--seed", "17", "--json")
    assert code == 0
    assert json.loads(out)["summary"]["fail"] == 0


# -- one parser per process -------------------------------------------------------------


def test_main_builds_one_parser_per_process(tmp_path, capsys, monkeypatch):
    built = []
    init = argparse.ArgumentParser.__init__

    def counting_init(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
    cli._parser.cache_clear()
    path = write(tmp_path, GOOD)
    for _ in range(5):
        assert main(["check", path, "--json"]) == 0
    capsys.readouterr()
    # one parser and its three subcommands, built once
    assert built == ["weilaff", "weilaff check", "weilaff selftest", "weilaff eval"]


def test_one_process_answers_as_one_call_per_run(tmp_path, capsys):
    good = write(tmp_path, GOOD)
    session = [
        ["check", good],
        ["check", write(tmp_path, "block d vars 2 cap\n", "bad.wa"), "--json"],
        ["selftest", "--grid", "small", "--json", "--seed", "3"],
        ["eval", write(tmp_path, EVAL_DECLS, "decls.wa"), "--expr", "f(Q)"],
        ["check", good],
    ]

    def answer(argv):
        code, out, err = run_main(capsys, *argv)
        if out.startswith("{"):
            out = json.dumps(strip_millis(json.loads(out)))
        return code, out, err

    shared = [answer(argv) for argv in session]
    fresh = []
    for argv in session:
        cli._parser.cache_clear()
        fresh.append(answer(argv))
    assert shared == fresh
    assert [code for code, _, _ in shared] == [0, 2, 0, 0, 0]
    # neither --json nor --seed carries over to a later call
    assert shared[-1] == shared[0]
    assert shared[0][1].startswith("PASS ")


# -- module entry point ------------------------------------------------------------------


def test_python_dash_m_entry(tmp_path):
    path = write(tmp_path, EVAL_DECLS)
    proc = subprocess.run(
        [sys.executable, "-m", "weilaff", "eval", path, "--expr", "(1+eps[1])^2"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert proc.stdout == "1 + 2·eps1\n"


def test_requires_subcommand():
    with pytest.raises(SystemExit) as ei:
        main([])
    assert ei.value.code == 2


def test_selftest_module_loads_only_when_used():
    # ``check`` and ``eval`` never need the suite; ``weilaff.run_selftest`` still resolves
    code = (
        "import sys, weilaff, weilaff.cli\n"
        "assert 'weilaff.selftest' not in sys.modules\n"
        "assert callable(weilaff.run_selftest)\n"
        "assert 'weilaff.selftest' in sys.modules\n"
    )
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
