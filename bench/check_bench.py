"""Self-tests of the benchmark.

    python3 -m pytest -q bench/check_bench.py

The file name does not match pytest's test_*.py pattern on purpose: the
package's own test run does not collect these.
"""

import json
import os
import sys
from types import SimpleNamespace

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [HERE, os.path.join(ROOT, "src")]

import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json")) as _fh:
    SPEC = json.load(_fh)


def result_line(capsys, argv):
    assert run.main(argv) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    return json.loads(lines[-1])


@pytest.mark.parametrize("name", workloads.NAMES)
def test_same_seed_same_input_digest(name, tmp_path):
    wl = workloads.make(name, str(tmp_path / "work"))
    first = run.digest(wl.build(7))
    assert run.digest(wl.build(7)) == first
    assert run.digest(wl.build(8)) != first


def test_wrong_expected_verdict_is_caught(monkeypatch, capsys):
    wl = workloads.ConeLadder()
    referee = wl.referee

    def wrong_first(self, pool):
        answers = referee(pool)
        answers[0] = "fails" if answers[0] == "holds" else "holds"
        return answers

    monkeypatch.setattr(workloads.ConeLadder, "referee", wrong_first)
    out = result_line(capsys, ["--workload", "cone-ladder", "--seed", "3",
                               "--seconds", "0.2", "--trace", "0"])
    assert out["correct"] is False
    assert out["failed"] >= 1


def test_contradictions_are_tagged_only_for_known_defects():
    wl = workloads.CalmNet()
    pool = wl.build(5)
    thin = next(i for i in pool if i["defect"])
    plain = next(i for i in pool if not i["defect"] and i["truth"] == "holds")
    tally = run.Tally()
    tally.add(wl, thin, "fails", wl.run(thin))
    tally.add(wl, plain, "fails", wl.run(plain))  # deliberately wrong
    assert tally.failed == 1 and len(tally.unexpected) == 1
    assert set(tally.defects) <= set(workloads.KNOWN_DEFECTS)


def test_not_found_is_a_known_defect_only_on_pinned_instances(tmp_path):
    wl = workloads.Qualify(str(tmp_path / "work"))
    pool = wl.build(4)
    answers = wl.referee(pool)
    report = json.dumps({"lines": ["multiplier: not found"],
                         "certificates": []})
    pinned = [i for i, item in enumerate(pool) if item["defect"]]
    tally = run.Tally()
    for i in pinned:
        tally.add(wl, pool[i], answers[i], (0, report))
    assert tally.failed == 0
    assert tally.defects["stall-read-as-empty"] == len(wl.PINNED)
    tally.add(wl, pool[0], answers[0], (0, report))  # a conditioned draw
    assert not pool[0]["defect"]
    assert tally.failed == 1 and len(tally.unexpected) == 1


def test_inconclusive_on_a_known_answer_is_a_failure():
    wl = workloads.CalmNet()
    pool = wl.build(5)
    plain = next(i for i in pool if not i["defect"] and i["truth"] == "fails")
    cert = SimpleNamespace(verdict="inconclusive")
    tally = run.Tally()
    tally.add(wl, plain, "fails", cert)
    tally.add(workloads.ConeLadder(), {"rung": "psd2"}, "holds", cert)
    assert tally.failed == 2 and not tally.defects
    assert tally.inconclusive_share == 1.0


def test_end_to_end_metrics_match_the_spec(capsys):
    out = result_line(capsys, ["--workload", "paper-repro", "--seed", "1",
                               "--seconds", "0.5", "--trace", "0"])
    assert out["correct"] is True and out["failed"] == 0
    spec = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert {k: v["unit"] for k, v in out["metrics"].items()} == spec
    assert all(v["value"] > 0 for v in out["metrics"].values())


def test_traced_run_reports_every_layer_metric(capsys):
    out = result_line(capsys, ["--workload", "paper-repro", "--seed", "1",
                               "--seconds", "1", "--trace", "1"])
    spec = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert {k: v["unit"] for k, v in out["metrics"].items()} == spec
    m = {k: v["value"] for k, v in out["metrics"].items()}
    # layers that every paper-repro pass reaches
    for name in ("symmat.svec.calls", "cone_core.eigh.calls",
                 "sets.dykstra.calls", "constraint_system.srcq_check.calls",
                 "stability.net.directions",
                 "stability.polyhedral_route.lp_calls"):
        assert m[name] > 0, name


def test_qualify_request_counts_are_fixed(tmp_path):
    """A request whose multiplier is found makes two multiplier searches
    and three triviality decisions."""
    wl = workloads.Qualify(str(tmp_path / "work"))
    pool = wl.build(2)
    wl.stage(pool)
    item = next(i for i in pool if i["curved"])
    eigh = np.linalg.eigh
    tracer = spans.Tracer()
    tracer.install()
    try:
        rc, text = wl.run(item)
    finally:
        tracer.uninstall()
    assert np.linalg.eigh is eigh
    assert rc == 0 and "multiplier: found" in text
    assert tracer.calls["constraint_system.multiplier_solve"] == 2
    assert tracer.calls[spans.TRIVIAL] == 3
