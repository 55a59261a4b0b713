import json
from datetime import timedelta

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from conestab.cli import main
from conestab.symmat import smat, svec


# each scenario's text report after its first three lines (the scenario
# name and the ASSUMED and CHECKED lines), byte for byte, at the default
# tolerance and at the tolerances of _REPRO_TOLS
REPRO_TEXT = {
    "example1": [
        "strict_complementarity(vbar=0): fails (expected fails) ok",
        "normal-cone membership table: [True, True, False, False, False] "
        "(expected [True, True, False, False, False]) ok"],
    "example2": [
        "srcq(vbar): holds (expected holds) ok",
        "srcq(vhat): fails (expected fails) ok",
        "srcq(vhat) witness nonzero: True (expected True) ok"],
    "example3": [
        "strict_complementarity: holds (expected holds) ok",
        "distinct members found: True (expected True) ok",
        "uniqueness: fails (expected fails) ok"],
    "example41": [
        "srcq: holds (expected holds) ok",
        "nondegeneracy: fails (expected fails) ok",
        "solution_map_isolated_calm: holds (expected holds) ok"],
    "kkt_lp": [
        "kkt nondegenerate: holds (expected holds) ok",
        "kkt degenerate: fails (expected fails) ok"],
    "section32": [
        "k=10: ratio=7.071068e-02 expected=7.071068e-02",
        "k=100: ratio=7.071068e-03 expected=7.071068e-03",
        "k=1000: ratio=7.071068e-04 expected=7.071068e-04",
        "ratio table matches 1/(sqrt(2) k): True (expected True) ok"],
}


def _emitted(monkeypatch):
    """The list that each report handed to the CLI's printer joins."""
    from conestab import cli

    reports, emit = [], cli._emit

    def recorded(report, fmt):
        reports.append(report)
        emit(report, fmt)
    monkeypatch.setattr(cli, "_emit", recorded)
    return reports


def _one_json_line(out, report):
    # one compact line with sorted keys that parses to the report
    assert out.endswith("\n") and out.count("\n") == 1
    assert json.loads(out) == report
    assert out == json.dumps(report, sort_keys=True) + "\n"


# the halved default and a coarser tolerance
_REPRO_TOLS = ("5e-9", "1e-6")


@pytest.mark.parametrize("name, tol", [
    pytest.param(name, tol, id=name if tol is None else f"{name}-tol{tol}")
    for name in sorted(REPRO_TEXT) for tol in (None, *_REPRO_TOLS)])
def test_repro_text_is_pinned_and_json_is_one_line(name, tol, capsys,
                                                   monkeypatch):
    from conestab.cli import ASSUMED, CHECKED

    reports = _emitted(monkeypatch)
    argv = ["repro", name] + ([] if tol is None else ["--tol", tol])
    assert main(argv) == 0
    assert capsys.readouterr().out == "\n".join(
        [f"scenario: {name}", ASSUMED, CHECKED] + REPRO_TEXT[name]) + "\n"
    assert main(argv + ["--report", "json"]) == 0
    _one_json_line(capsys.readouterr().out, reports[-1])


def test_analyze_json_is_one_line(planted, tmp_path, capsys, monkeypatch):
    reports = _emitted(monkeypatch)
    _, x, v, _, problem = planted(3, srcq_holds=False)

    def write(name, obj):
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps(obj, default=lambda a: a.tolist()))
        return str(path)

    assert main(["analyze", "--problem", write("problem", problem),
                 "--point", write("point", {"x": x, "v": v}),
                 "--report", "json"]) == 0
    _one_json_line(capsys.readouterr().out, reports[-1])


def _in_normal_cone(cone, y, lam, tol=1e-8):
    """lam in N_K(y) = {lam in K° : <lam, y> = 0}, the polar of each
    block of K read from its type and sign: the orthant, second-order and
    PSD cones are self-dual, so the polar of the sign-s cone is the
    sign -s cone."""
    scale = 1.0 + np.linalg.norm(lam) + np.linalg.norm(y)
    if abs(float(lam @ y)) > tol * scale:
        return False
    for block, sl in zip(cone.blocks, cone.slices):
        z = -block.sign * lam[sl]
        kind = type(block).__name__
        if kind == "PSD":
            worst = np.linalg.eigvalsh(smat(z)).min()
        elif kind == "SOC":
            worst = z[0] - np.linalg.norm(z[1:])
        else:
            worst = z.min()
        if worst < -tol * scale:
            return False
    return True


def test_analyze_json_multiplier_entry_rechecks(planted, analyze):
    # the report's multiplier entry alone re-verifies its multiplier:
    # J lam = v and lam in N_K(g(x)); on the fiber interval route lam is
    # lam_p + t k with t in the interval, and without a multiplier the
    # entry carries the bound and cycle of the Farkas certificate
    from conestab.constraint_system import EXAMPLE1_XBAR

    for srcq_holds, route in ((True, "span-N solve"),
                              (False, "fiber interval")):
        sys, x, v, _, problem = planted(3, srcq_holds)
        rc, report = analyze(problem, {"x": x, "v": v})
        assert rc == 0
        entry = report["multiplier"]
        assert entry["route"] == route and entry["found"]
        lam = np.array(entry["lam"])
        J = np.array(problem["mapping"]["affine"]["A"])
        b = np.array(problem["mapping"]["affine"]["b"])
        assert np.linalg.norm(J.T @ lam - v) <= 1e-8 * (
            1 + np.linalg.norm(lam) + np.linalg.norm(v))
        assert entry["residual"] <= 1e-8 * (
            1 + np.linalg.norm(lam) + np.linalg.norm(v))
        assert _in_normal_cone(sys.cone, J @ x + b, lam)
        if route == "fiber interval":
            lam_p, k = np.array(entry["lam_p"]), np.array(entry["k"])
            lo, hi = (end if end is not None else side * np.inf
                      for end, side in zip(entry["interval"], (-1, 1)))
            assert lo < entry["t"] < hi
            assert np.allclose(lam_p + entry["t"] * k, lam, atol=1e-12)
            assert abs(np.linalg.norm(k) - 1.0) <= 1e-12
            assert np.linalg.norm(J.T @ k) <= 1e-10
        else:
            assert "lam_p" not in entry and "farkas" not in entry
    rc, report = analyze({"mapping": {"builtin": "example1"}},
                         {"x": EXAMPLE1_XBAR, "v": [1.0, 1.0, 3.0]})
    assert rc == 0
    entry = report["multiplier"]
    assert not entry["found"] and entry["route"] == "Dykstra search"
    farkas = entry["farkas"]
    line = next(l for l in report["lines"] if l.startswith("multiplier:"))
    assert line.startswith("multiplier: not found (certified: residual >= "
                           f"{farkas['bound']:.3e} at cycle "
                           f"{farkas['cycle']})")
    assert farkas["bound"] > 0 and len(farkas["h"]) == 3


def test_repro_unknown_scenario(capsys):
    assert main(["repro", "nope"]) == 2
    assert "unknown scenario" in capsys.readouterr().err


def test_repro_mismatch_exits_1(capsys, monkeypatch):
    # a check whose value differs from the expected one prints MISMATCH,
    # is listed in the failures and sets exit code 1
    from conestab import cli

    monkeypatch.setitem(cli.SCENARIOS, "example1", lambda tol: (
        [("agrees", "holds", "holds"), ("differs", "fails", "holds")],
        ["free line"], {}))
    assert main(["repro", "example1", "--report", "json"]) == 1
    report = json.loads(capsys.readouterr().out)
    assert report["failures"] == ["differs"]
    assert report["lines"][3:] == [
        "free line", "agrees: holds (expected holds) ok",
        "differs: fails (expected holds) MISMATCH"]


def _write(path, obj):
    path.write_text(json.dumps(obj))
    return str(path)


def test_cached_parser_matches_fresh_parsers(tmp_path, capsys):
    # the parser is built once; analyze, an argv error (exit 2) and repro
    # in a row print what they print with a parser built for each call
    from conestab import cli

    problem = _write(tmp_path / "p.json", {"mapping": {"builtin": "example1"}})
    point = _write(tmp_path / "pt.json", {"x": [-1, -1, 0], "v": [0, 0, 0]})
    calls = [["analyze", "--problem", problem, "--point", point,
              "--report", "json"],
             ["repro", "example1", "--report", "xml"],
             ["repro", "example41"]]

    def run(fresh):
        outs = []
        for argv in calls:
            if fresh:
                cli.build_parser.cache_clear()
            try:
                rc = main(argv)
            except SystemExit as exc:
                rc = exc.code
            outs.append((rc, *capsys.readouterr()))
        return outs

    cached = run(fresh=False)
    assert [rc for rc, _, _ in cached] == [0, 2, 0]
    assert "invalid choice: 'xml'" in cached[1][2]
    assert cli.build_parser() is cli.build_parser()
    assert run(fresh=True) == cached


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


def test_checked_line_only_above_a_srcq_certificate(tmp_path, capsys):
    # analyze prints the CHECKED line when a multiplier is found and its
    # srcq certificate follows; gderiv never runs srcq and never prints it
    from conestab.cli import CHECKED

    problem = _write(tmp_path / "p.json", {"mapping": {"builtin": "example1"}})
    for v, found in (([0, 0, 0], True), ([1, 1, 3], False)):
        point = _write(tmp_path / "pt.json", {"x": [-1, -1, 0], "v": v})
        assert main(["analyze", "--problem", problem, "--point", point]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert (CHECKED in lines) == found == ("srcq: holds" in lines)
        assert lines[3] == CHECKED if found else \
            lines[3].startswith("multiplier: not found")
    pair = _write(tmp_path / "pair.json", {
        "x": [-1, -1, 0], "v": [0, 0, 0], "lam": [0, 0, 0, 0],
        "d": [0, 0, 0], "w": [0, 0, 0]})
    assert main(["gderiv", "--problem", problem, "--pair", pair]) == 0
    assert "CHECKED" not in capsys.readouterr().out


def test_analyze_infeasible_point_exits_2(tmp_path, capsys):
    problem = _write(tmp_path / "p.json", {"mapping": {"builtin": "example1"}})
    point = _write(tmp_path / "pt.json", {"x": [0, 0, -1]})
    assert main(["analyze", "--problem", problem, "--point", point]) == 2
    assert "point infeasible" in capsys.readouterr().err


def test_analyze_nan_point_exits_2(tmp_path, capsys):
    # NaN compares False against any threshold; it must not pass as
    # feasible nor be reported as merely infeasible
    problem = _write(tmp_path / "p.json", {"mapping": {"builtin": "example1"}})
    point = _write(tmp_path / "pt.json", {"x": [float("nan"), -1, 0]})
    assert main(["analyze", "--problem", problem, "--point", point]) == 2
    err = capsys.readouterr().err
    assert "not finite" in err and "Traceback" not in err


@pytest.mark.parametrize("x", [[-1, -1], [[-1, -1, 0]]])
def test_analyze_wrong_shape_x_on_builtin_exits_2(tmp_path, capsys, x):
    problem = _write(tmp_path / "p.json", {"mapping": {"builtin": "example1"}})
    point = _write(tmp_path / "pt.json", {"x": x})
    assert main(["analyze", "--problem", problem, "--point", point]) == 2
    err = capsys.readouterr().err
    assert "input error:" in err and "Traceback" not in err


def test_analyze_nan_multiplier_target_exits_2(tmp_path, capsys):
    problem = _write(tmp_path / "p.json", {"mapping": {"builtin": "example1"}})
    point = _write(tmp_path / "pt.json",
                   {"x": [-1, -1, 0], "v": [0, 0, float("nan")]})
    assert main(["analyze", "--problem", problem, "--point", point]) == 2
    err = capsys.readouterr().err
    assert "input error: point.v: not finite" in err


@pytest.mark.filterwarnings("ignore:overflow encountered")
def test_analyze_overflowing_multiplier_target_exits_2(tmp_path, capsys):
    # v = (1e200, 1e200) on K = R^2_+ at x = 0: the norm of v overflows,
    # and no multiplier test can be read on it
    problem = _write(tmp_path / "p.json", {
        "cone": {"product": [{"orthant": {"dim": 2, "sign": "plus"}}]},
        "mapping": {"affine": {"A": [[1, 0], [0, 1]], "b": [0, 0]}}})
    point = _write(tmp_path / "pt.json", {"x": [0, 0], "v": [1e200, 1e200]})
    assert main(["analyze", "--problem", problem, "--point", point]) == 2
    err = capsys.readouterr().err
    assert "input error: the norm of v overflows" in err
    assert "Traceback" not in err
    pair = _write(tmp_path / "pair.json", {
        "x": [0, 0], "v": [1e200, 1e200], "lam": [1e200, 1e200],
        "d": [0, 0], "w": [0, 0]})
    assert main(["gderiv", "--problem", problem, "--pair", pair]) == 2
    err = capsys.readouterr().err
    assert "input error: the norm of v or lam overflows" in err


@pytest.mark.parametrize("key, value", [("d", [0, 0, float("nan")]),
                                        ("w", [0, 0, float("inf")])])
def test_gderiv_non_finite_direction_exits_2(tmp_path, capsys, key, value):
    problem = _write(tmp_path / "p.json", {"mapping": {"builtin": "example1"}})
    fields = {"x": [-1, -1, 0], "v": [0, 0, 0], "lam": [0, 0, 0, 0],
              "d": [0, 0, 0], "w": [0, 0, 0]}
    fields[key] = value
    pair = _write(tmp_path / "pair.json", fields)
    assert main(["gderiv", "--problem", problem, "--pair", pair]) == 2
    out, err = capsys.readouterr()
    assert f"input error: pair.{key}: not finite" in err
    assert "verdict" not in out


@pytest.mark.parametrize("key, value, message", [
    ("v", [0], "v has shape (1,); the system has dim_x 3"),
    ("lam", [0, 0], "lam has shape (2,); the cone has dimension 4"),
    ("d", [1, 1], "d has shape (2,); the system has dim_x 3"),
    ("w", [2.0], "w has shape (1,); the system has dim_x 3")])
def test_gderiv_wrong_length_vector_exits_2(tmp_path, capsys, key, value,
                                            message):
    # w = [2.0] used to broadcast to (2, 2, 2) and print a verdict
    problem = _write(tmp_path / "p.json", {"mapping": {"builtin": "example1"}})
    fields = {"x": [-1, -1, 0], "v": [0, 0, 0], "lam": [0, 0, 0, 0],
              "d": [1, 1, 0.5], "w": [2.0, 2.0, 2.0]}
    fields[key] = value
    pair = _write(tmp_path / "pair.json", fields)
    assert main(["gderiv", "--problem", problem, "--pair", pair]) == 2
    out, err = capsys.readouterr()
    assert f"input error: {message}" in err
    assert "verdict" not in out


def test_missing_point_fields_exit_2(tmp_path, capsys):
    problem = _write(tmp_path / "p.json", {"mapping": {"builtin": "example1"}})
    point = _write(tmp_path / "pt.json", {"v": [0, 0, 0]})
    assert main(["analyze", "--problem", problem, "--point", point]) == 2
    assert "point: missing field 'x'" in capsys.readouterr().err
    pair = _write(tmp_path / "pair.json", {
        "x": [-1, -1, 0], "v": [0, 0, 0], "d": [0, 0, 0], "w": [0, 0, 0]})
    assert main(["gderiv", "--problem", problem, "--pair", pair]) == 2
    assert "pair: missing field 'lam'" in capsys.readouterr().err


def test_analyze_malformed_input_exits_2(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    point = _write(tmp_path / "pt.json", {"x": [0, 0, 0]})
    assert main(["analyze", "--problem", str(bad), "--point", point]) == 2
    assert "input error" in capsys.readouterr().err


def test_analyze_negative_block_size_exits_2(tmp_path, capsys):
    problem = _write(tmp_path / "p.json", {
        "cone": {"product": [{"orthant": {"dim": -1}}]},
        "mapping": {"affine": {"A": [[1.0]], "b": [0.0]}}})
    point = _write(tmp_path / "pt.json", {"x": [0.0]})
    assert main(["analyze", "--problem", problem, "--point", point]) == 2
    err = capsys.readouterr().err
    assert "input error: cone.product[0].orthant: dim must be an integer " \
        ">= 1, got -1" in err and "Traceback" not in err


_ONE = {"cone": {"product": [{"orthant": {"dim": 1}}]},
        "mapping": {"affine": {"A": [[1.0]], "b": [0.0]}}}


def _quadratic2(rows, cols):
    # R^2_+ with A = I_2 and two zero Q matrices of shape rows x cols
    q = [[0.0] * cols] * rows
    return {"cone": {"product": [{"orthant": {"dim": 2}}]},
            "mapping": {"quadratic": {"Q_list": [q, q],
                                      "A": [[1.0, 0.0], [0.0, 1.0]],
                                      "b": [0.0, 0.0]}}}


@pytest.mark.parametrize("problem, message", [
    ({"mapping": 5}, "problem.mapping: expected dict, got int"),
    ({"mapping": {"builtin": ["example1"]}},
     "mapping.builtin: expected str, got list"),
    ({**_ONE, "mapping": {"affine": {"A": {"a": 1}, "b": [0.0]}}},
     "mapping.affine.A: "),
    ({**_ONE, "mapping": {"affine": {"A": [1.0], "b": [0.0]}}},
     "mapping.affine.A: expected a matrix, got shape (1,)"),
    ({**_ONE, "mapping": {"quadratic": {"Q_list": [[1.0]], "A": [[1.0]],
                                        "b": [0.0]}}},
     "mapping.quadratic.Q_list: expected a list of matrices"),
    ({**_ONE, "cone": {"product": 7}}, "cone.product: expected list, got int"),
    (_quadratic2(2, 3), "Q_list[0] has shape (2, 3); expected (2, 2)"),
    (_quadratic2(3, 3), "Q_list[0] has shape (3, 3); expected (2, 2)"),
], ids=["mapping", "builtin", "A-object", "A-flat", "Q_list", "product",
        "Q-wide", "Q-large"])
def test_analyze_mistyped_problem_field_exits_2(tmp_path, capsys, problem,
                                                message):
    problem = _write(tmp_path / "p.json", problem)
    point = _write(tmp_path / "pt.json", {"x": [0.0]})
    assert main(["analyze", "--problem", problem, "--point", point]) == 2
    err = capsys.readouterr().err
    assert f"input error: {message}" in err and "Traceback" not in err


def test_analyze_ignores_points_in_the_problem_file(tmp_path, capsys):
    # points are not part of the problem schema: analyze reads x and v
    # from the point file alone
    problem = _write(tmp_path / "p.json", {**_ONE, "points": {"p": {"a": 1}}})
    point = _write(tmp_path / "pt.json", {"x": [1.0]})
    assert main(["analyze", "--problem", problem, "--point", point]) == 0
    assert "feasibility: ok" in capsys.readouterr().out


def test_gderiv_member_and_gate_reason(tmp_path, capsys):
    problem = _write(tmp_path / "p.json", {"mapping": {"builtin": "example1"}})
    member = _write(tmp_path / "pair.json", {
        "x": [-1, -1, 0], "v": [0, 0, 0], "lam": [0, 0, 0, 0],
        "d": [0, 0, 0], "w": [0, 0, 0]})
    assert main(["gderiv", "--problem", problem, "--pair", member]) == 0
    out = capsys.readouterr().out
    assert "verdict: holds" in out
    assert "fiber: residual=" in out and "holds=True" in out

    gate = _write(tmp_path / "gate.json", {
        "x": [-1, -1, 0], "v": [0, 0, 0], "lam": [0, 0, 0, 0],
        "d": [0, 0, -1], "w": [0, 0, 0]})
    assert main(["gderiv", "--problem", problem, "--pair", gate]) == 0
    out = capsys.readouterr().out
    assert "verdict: fails" in out
    assert "critical cone violation" in out
    assert "fiber:" not in out


def test_gderiv_reports_farkas_certificates(tmp_path, capsys):
    # d = 0 and w the adjoint image of an interior direction of K: the
    # fiber is empty, certified from the first cycle
    problem = _write(tmp_path / "p.json", {"mapping": {"builtin": "example1"}})
    pair = _write(tmp_path / "pair.json", {
        "x": [-1, -1, 0], "v": [0, 0, 0], "lam": [0, 0, 0, 0],
        "d": [0, 0, 0], "w": [1, 1, 3]})
    assert main(["gderiv", "--problem", problem, "--pair", pair]) == 0
    out = capsys.readouterr().out
    assert "verdict: fails" in out
    assert "fiber: residual=" in out and "holds=False" in out
    assert "fiber: certified empty at cycle 1 (residual >= " in out

    assert main(["gderiv", "--problem", problem, "--pair", pair,
                 "--report", "json"]) == 0
    cert = json.loads(capsys.readouterr().out)["certificates"][0]
    farkas = cert["details"]["fiber_farkas"]
    assert set(farkas) == {"h", "y", "bound", "cycle"}
    assert farkas["cycle"] == 1 and farkas["bound"] > 0
    assert cert["residual"] == farkas["bound"]


def test_custom_tolerance_accepted(tmp_path, capsys):
    problem = _write(tmp_path / "p.json", {"mapping": {"builtin": "example1"}})
    point = _write(tmp_path / "pt.json", {"x": [-1, -1, 0]})
    assert main(["analyze", "--problem", problem, "--point", point,
                 "--tol", "1e-9"]) == 0
    capsys.readouterr()


@pytest.mark.parametrize("value", ["nan", "inf"])
def test_non_finite_tolerance_exits_2(value, tmp_path, capsys):
    # inf would accept every residual and NaN would fail every comparison,
    # so both are input errors before any decision is made
    problem = _write(tmp_path / "p.json", {"mapping": {"builtin": "example1"}})
    point = _write(tmp_path / "pt.json", {"x": [-1, -1, 0]})
    for argv in (["repro", "example2"],
                 ["analyze", "--problem", problem, "--point", point]):
        assert main(argv + ["--tol", value]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "input error: tolerances must be finite and strictly " \
               "positive" in captured.err
        assert "Traceback" not in captured.err


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


def test_repro_scenarios_load_no_lp_solver():
    # every branch face of the six scenarios is decided in closed form,
    # so scipy's LP solver and sparse matrices are never imported
    import os, subprocess, sys
    import conestab
    src = os.path.dirname(os.path.dirname(conestab.__file__))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p)
    code = ("import contextlib, io, sys\n"
            "from conestab.cli import main\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            "    codes = [main(['repro', n]) for n in ('example1', "
            "'example2', 'example3', 'example41', 'kkt_lp', 'section32')]\n"
            "print(codes, sorted(m for m in ('scipy.optimize', "
            "'scipy.sparse') if m in sys.modules))\n")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[0, 0, 0, 0, 0, 0] []"


def _shape_mismatch(tmp_path):
    # a 1 x 2 matrix A for an orthant of dimension 2
    problem = _write(tmp_path / "p.json", {
        "cone": {"product": [{"orthant": {"dim": 2}}]},
        "mapping": {"affine": {"A": [[1.0, 0.0]], "b": [0.0, 0.0]}}})
    point = _write(tmp_path / "pt.json", {"x": [0.0, 0.0]})
    return ["analyze", "--problem", problem, "--point", point]


def test_analyze_shape_mismatch_exits_2(tmp_path, capsys):
    assert main(_shape_mismatch(tmp_path)) == 2
    err = capsys.readouterr().err
    assert "input error:" in err and "Traceback" not in err


def test_shape_mismatch_exits_2_under_optimize(tmp_path):
    # the input checks must survive python -O, which strips asserts
    import os, subprocess, sys
    import conestab
    src = os.path.dirname(os.path.dirname(conestab.__file__))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, "-O", "-m", "conestab",
                           *_shape_mismatch(tmp_path)],
                          capture_output=True, text=True, env=env)
    assert proc.returncode == 2
    assert "input error: A has shape (1, 2)" in proc.stderr


# ---------------------------------------------------------------------------
# scaling metamorphic referee: v -> t v (the planted multiplier scales with
# it) keeps the verdicts

def _verdicts(report):
    return {c["name"]: c["verdict"] for c in report["certificates"]}


def test_analyze_verdicts_invariant_under_scaling_v(planted, analyze):
    seen = set()
    for seed in range(4):
        for srcq_holds in (True, False):
            _, x, v, _, problem = planted(seed, srcq_holds)
            rc, report = analyze(problem, {"x": x, "v": v})
            assert rc == 0
            base = _verdicts(report)
            assert set(base) == {"srcq", "strict_complementarity",
                                 "nondegeneracy"}
            for t in (0.5, 3.0):
                rc, report = analyze(problem, {"x": x, "v": t * v})
                assert rc == 0
                assert _verdicts(report) == base, (seed, srcq_holds, t)
            seen.add((base["srcq"], base["nondegeneracy"]))
    # the draws reach both srcq verdicts and both nondegeneracy verdicts
    assert seen == {("holds", "holds"), ("fails", "fails")}


# ---------------------------------------------------------------------------
# metamorphic referee: the planted problems in rotated PSD coordinates,
# with their blocks permuted or mirrored get the same verdicts

# the planted cone is PSD(2) x SOC(3) x R^2: rows 0-2, 3-5 and 6-7
_PLANTED_ROWS = [np.arange(0, 3), np.arange(3, 6), np.arange(6, 8)]


def _psd_rotation(U):
    """The matrix of svec(X) -> svec(U^T X U), orthogonal for orthogonal U."""
    eye = np.eye(3)
    return np.column_stack([svec(U.T @ smat(e) @ U) for e in eye])


def _srcq_verdict(problem, x, v, lam):
    """srcq at the given multiplier, without the multiplier search."""
    from conestab.constraint_system import (
        BasePoint, BasePair, affine_system, srcq_check)
    from conestab.jsonio import parse_cone
    affine = problem["mapping"]["affine"]
    sys = affine_system(parse_cone(problem["cone"]),
                        np.array(affine["A"]), np.array(affine["b"]))
    return srcq_check(BasePair(BasePoint(sys, x), v, lam)).verdict


def _assert_variants_keep_verdicts(planted, analyze, seed, srcq_holds,
                                   variants):
    """analyze's three verdicts on planted(seed, srcq_holds), which each
    variant (cone, A, b, lam) of it keeps; srcq is also read at the
    planted multiplier without the search.  Returns the verdicts."""
    _, x, v, lam, problem = planted(seed, srcq_holds)
    rc, report = analyze(problem, {"x": x, "v": v})
    assert rc == 0
    base = _verdicts(report)
    assert set(base) == {"srcq", "strict_complementarity", "nondegeneracy"}
    assert base["srcq"] == ("holds" if srcq_holds else "fails")
    assert _srcq_verdict(problem, x, v, lam) == base["srcq"]
    affine = problem["mapping"]["affine"]
    A, b = np.array(affine["A"]), np.array(affine["b"])
    for cone, A2, b2, lam2 in variants(problem["cone"], A, b, lam):
        moved = {"cone": cone, "mapping": {"affine": {"A": A2, "b": b2}}}
        rc, report = analyze(moved, {"x": x, "v": v})
        assert rc == 0
        assert _verdicts(report) == base, (seed, srcq_holds)
        assert _srcq_verdict(moved, x, v, lam2) == base["srcq"]
    return base["srcq"], base["nondegeneracy"]


def test_srcq_invariant_under_psd_rotation_and_block_permutation(planted,
                                                                 analyze):
    rng = np.random.default_rng(0)

    def variants(cone, A, b, lam):
        # X -> U^T X U on the PSD block; v = A^T lam is unchanged
        U, _ = np.linalg.qr(rng.standard_normal((2, 2)))
        T = np.eye(8)
        T[:3, :3] = _psd_rotation(U)
        assert np.allclose(T.T @ T, np.eye(8), atol=1e-14)
        yield cone, T @ A, T @ b, T @ lam
        for order in ([2, 0, 1], [1, 2, 0]):
            rows = np.concatenate([_PLANTED_ROWS[i] for i in order])
            yield ({"product": [cone["product"][i] for i in order]},
                   A[rows], b[rows], lam[rows])

    seen = {_assert_variants_keep_verdicts(planted, analyze, seed, srcq_holds,
                                           variants)
            for seed in range(4) for srcq_holds in (True, False)}
    # the draws reach both srcq verdicts and both nondegeneracy verdicts
    assert seen == {("holds", "holds"), ("fails", "fails")}


def test_verdicts_invariant_under_the_mirror(planted, analyze):
    # K -> -K, every block's sign flipped, with g -> -g and lam -> -lam:
    # v = A^T lam is unchanged
    flip = {"plus": "minus", "minus": "plus"}

    def mirror(cone, A, b, lam):
        yield ({"product": [{kind: {**spec, "sign": flip[spec["sign"]]}
                             for kind, spec in block.items()}
                            for block in cone["product"]]},
               -A, -b, -lam)

    seen = {_assert_variants_keep_verdicts(planted, analyze, seed, srcq_holds,
                                           mirror)
            for seed in range(40) for srcq_holds in (True, False)}
    assert seen == {("holds", "holds"), ("fails", "fails")}


# ---------------------------------------------------------------------------
# fuzz: JSON -> analyze exits 0 or 2, with verdicts from the allowed set

# small cones and an adjoint kernel of dimension at most 2 keep each
# request to milliseconds (large kernels cost seconds in the multiplier
# search and the triviality decision)
_BLOCK = st.tuples(st.sampled_from(["orthant", "soc", "psd", "zero", "free"]),
                   st.integers(1, 2), st.sampled_from(["plus", "minus"]))


@st.composite
def _analyze_inputs(draw):
    from conestab.jsonio import parse_cone

    blocks = draw(st.lists(_BLOCK, min_size=1, max_size=2))
    cone_obj = {"product": [
        {kind: {"order" if kind == "psd" else "dim": size}
         | ({"sign": sign} if kind in ("orthant", "soc", "psd") else {})}
        for kind, size, sign in blocks]}
    cone = parse_cone(cone_obj)
    dim_x = draw(st.integers(max(1, cone.dim - 2), cone.dim + 1))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 16)))
    # singular values 0.7 to 1.4
    U, _, Vt = np.linalg.svd(rng.standard_normal((cone.dim, dim_x)),
                             full_matrices=False)
    A = (U * np.linspace(0.7, 1.4, U.shape[1])) @ Vt
    x = rng.standard_normal(dim_x)
    # a graph point of N_K from a coarse z: apexes, faces and interiors
    z = np.array(draw(st.lists(st.sampled_from([-1.0, 0.0, 0.5, 1.0]),
                               min_size=cone.dim, max_size=cone.dim)))
    y = cone.project(z)
    b, v = y - A @ x, A.T @ (z - y)
    mode = draw(st.sampled_from(["planted", "scaled", "random v",
                                 "infeasible", "short x", "non-finite v",
                                 "missing x"]))
    if mode == "scaled":
        v = draw(st.sampled_from([1e-6, 1e3])) * v
    elif mode == "random v":
        v = rng.standard_normal(dim_x)
    elif mode == "infeasible":
        b = b - 1.0 - rng.random(cone.dim)
    elif mode == "short x":
        x = x[:-1]
    elif mode == "non-finite v":
        v = v.copy()
        v[0] = draw(st.sampled_from([np.nan, np.inf]))
    point = {"x": x, "v": v}
    if mode == "missing x":
        del point["x"]
    problem = {"cone": cone_obj,
               "mapping": {"affine": {"A": A.tolist(), "b": b.tolist()}}}
    return problem, point


@settings(max_examples=60, deadline=timedelta(seconds=5), derandomize=True,
          database=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(inputs=_analyze_inputs())
def test_analyze_fuzz_exit_code_and_verdicts(inputs, analyze):
    rc, report = analyze(*inputs)
    assert rc in (0, 2)
    if rc == 0:
        assert report["certificates"]
        for cert in report["certificates"]:
            assert cert["verdict"] in ("holds", "fails", "inconclusive")
