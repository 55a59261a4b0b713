import json

import numpy as np
import pytest

from conestab.cli import main
from conestab.symmat import svec


@pytest.mark.parametrize("name", ["example1", "example2", "example3",
                                  "example41", "kkt_lp", "section32"])
def test_repro_scenarios_pass(name, capsys):
    assert main(["repro", name]) == 0
    out = capsys.readouterr().out
    assert "MISMATCH" not in out
    assert "ASSUMED: metric subregularity" in out
    assert "CHECKED: multiplier-uniqueness" in out


def test_repro_unknown_scenario(capsys):
    assert main(["repro", "nope"]) == 2
    assert "unknown scenario" in capsys.readouterr().err


def _write(path, obj):
    path.write_text(json.dumps(obj))
    return str(path)


def test_analyze_text_and_json(tmp_path, capsys):
    problem = _write(tmp_path / "p.json", {"mapping": {"builtin": "example1"}})
    point = _write(tmp_path / "pt.json", {"x": [-1, -1, 0], "v": [0, 0, 0]})
    assert main(["analyze", "--problem", problem, "--point", point]) == 0
    out = capsys.readouterr().out
    assert "feasibility: ok" in out
    assert "srcq: holds" in out
    assert "strict_complementarity: fails" in out

    assert main(["analyze", "--problem", problem, "--point", point,
                 "--report", "json"]) == 0
    rep = json.loads(capsys.readouterr().out)
    assert rep["command"] == "analyze"
    names = {c["name"] for c in rep["certificates"]}
    assert {"srcq", "strict_complementarity", "nondegeneracy"} <= names


def test_analyze_infeasible_point_exits_2(tmp_path, capsys):
    problem = _write(tmp_path / "p.json", {"mapping": {"builtin": "example1"}})
    point = _write(tmp_path / "pt.json", {"x": [0, 0, -1]})
    assert main(["analyze", "--problem", problem, "--point", point]) == 2
    assert "point infeasible" in capsys.readouterr().err


def test_analyze_malformed_input_exits_2(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    point = _write(tmp_path / "pt.json", {"x": [0, 0, 0]})
    assert main(["analyze", "--problem", str(bad), "--point", point]) == 2
    assert "input error" in capsys.readouterr().err


def test_gderiv_member_and_gate_reason(tmp_path, capsys):
    problem = _write(tmp_path / "p.json", {"mapping": {"builtin": "example1"}})
    member = _write(tmp_path / "pair.json", {
        "x": [-1, -1, 0], "v": [0, 0, 0], "lam": [0, 0, 0, 0],
        "d": [0, 0, 0], "w": [0, 0, 0]})
    assert main(["gderiv", "--problem", problem, "--pair", member]) == 0
    out = capsys.readouterr().out
    assert "verdict: holds" in out
    assert "route a:" in out and "route b:" in out

    gate = _write(tmp_path / "gate.json", {
        "x": [-1, -1, 0], "v": [0, 0, 0], "lam": [0, 0, 0, 0],
        "d": [0, 0, -1], "w": [0, 0, 0]})
    assert main(["gderiv", "--problem", problem, "--pair", gate,
                 "--route", "a"]) == 0
    out = capsys.readouterr().out
    assert "verdict: fails" in out
    assert "critical cone violation" in out
    assert "route b:" not in out


def test_custom_tolerance_accepted(tmp_path, capsys):
    problem = _write(tmp_path / "p.json", {"mapping": {"builtin": "example1"}})
    point = _write(tmp_path / "pt.json", {"x": [-1, -1, 0]})
    assert main(["analyze", "--problem", problem, "--point", point,
                 "--tol", "1e-9"]) == 0
    capsys.readouterr()


def test_module_entry_point():
    import os, subprocess, sys
    import conestab
    # run the package this test imported, installed or not
    src = os.path.dirname(os.path.dirname(conestab.__file__))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, "-m", "conestab", "repro",
                           "section32"], capture_output=True, text=True,
                          env=env)
    assert proc.returncode == 0
    assert "MISMATCH" not in proc.stdout
