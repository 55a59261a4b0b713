import ast
import importlib
import importlib.util
import json
import pathlib

import numpy as np
import pytest

import conestab


def test_package_has_no_assert_statements():
    # python -O strips assert statements, so a check written as one
    # silently stops validating; input checks must raise instead
    pkg = pathlib.Path(conestab.__file__).parent
    found = []
    for path in sorted(pkg.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        found += [f"{path.name}:{node.lineno}" for node in ast.walk(tree)
                  if isinstance(node, ast.Assert)]
    assert found == []


def test_package_has_no_unused_imports():
    # a name imported and never read is dead code that hides what a module
    # depends on; __init__.py imports only to re-export
    pkg = pathlib.Path(conestab.__file__).parent
    found = []
    for path in sorted(pkg.glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text(), filename=str(path))
        imported = {}
        for node in ast.walk(tree):
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                for alias in node.names:
                    name = (alias.asname or alias.name).split(".")[0]
                    imported[name] = node.lineno
        used = {node.id for node in ast.walk(tree)
                if isinstance(node, ast.Name)}
        for node in tree.body:
            if isinstance(node, ast.Assign) and \
                    any(getattr(t, "id", None) == "__all__"
                        for t in node.targets):
                used |= set(ast.literal_eval(node.value))
        found += [f"{path.name}:{line} {name}"
                  for name, line in imported.items() if name not in used]
    assert found == []


def _bench_module(name):
    """bench/<name>.py, loaded read-only without putting bench/ on the
    import path."""
    path = pathlib.Path(__file__).resolve().parents[1] / "bench" / \
        f"{name}.py"
    spec = importlib.util.spec_from_file_location(f"bench_{name}", path)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def test_bench_tracer_targets_resolve():
    # the tracer wraps these names from outside the package; a rename
    # would silently drop a layer from the per-layer metrics
    missing = []
    for modname, attr, _ in _bench_module("spans").TARGETS:
        owner = importlib.import_module(modname)
        for part in attr.split("."):
            owner = getattr(owner, part, None)
        if not callable(owner):
            missing.append(f"{modname}.{attr}")
    assert missing == []


def test_calm_net_workload_runs_and_judges_correctly():
    # the calm-net benchmark's own calls, read from bench/: a change of
    # signature or verdict that would break its runs fails here first
    wl = _bench_module("workloads")
    calm = wl.CalmNet()
    pool = calm.build(3001)
    for item, answer in zip(pool, calm.referee(pool)):
        assert calm.judge(item, answer, calm.run(item)).wrong == []


def test_isolated_calm_verifies_the_multiplier_once(monkeypatch):
    from conestab import constraint_system
    from conestab.stability import example41_problem, \
        solution_map_isolated_calm

    problem = example41_problem()
    calls = []
    verify = constraint_system.multiplier_verify

    def counted(*args, **kwargs):
        calls.append(1)
        return verify(*args, **kwargs)

    monkeypatch.setattr(constraint_system, "multiplier_verify", counted)
    cert = solution_map_isolated_calm(problem, problem.lam_hint)
    assert cert.verdict == "holds"
    assert len(calls) == 1


def test_each_point_is_verified_once(monkeypatch, planted, analyze):
    # a feasibility decision is a membership test of g(x) in K; the base
    # point data (g(x), J, T_K, N_K) and the critical cone of a graph
    # point are built once however many checks read them
    from collections import Counter

    from conestab._sets import ProductSet
    from conestab.cone_core import ConeDesc, PSD
    from conestab.constraint_system import ConstraintSystem
    from conestab.proj_deriv import GraphPoint, dnk_contains
    from conestab.stability import example41_problem, \
        solution_map_isolated_calm
    from conestab.symmat import svec

    calls = Counter()
    tangents = []

    def count(cls, name, key):
        inner = getattr(cls, name)

        def counted(self, *args, **kwargs):
            calls[key] += 1
            out = inner(self, *args, **kwargs)
            if key == "T_K":
                tangents.append(out)
            return out
        monkeypatch.setattr(cls, name, counted)

    count(ConeDesc, "contains", "feasibility")
    count(ConstraintSystem, "jacobian", "J")
    count(ConeDesc, "tangent_set", "T_K")
    count(ConeDesc, "critical_set", "critical")
    polar = ProductSet.polar

    def counted_polar(self):
        calls["N_K"] += any(self is T for T in tangents)
        return polar(self)
    monkeypatch.setattr(ProductSet, "polar", counted_polar)

    for srcq_holds in (True, False):
        _, x, v, _, problem = planted(3, srcq_holds)
        calls.clear()
        rc, _ = analyze(problem, {"x": x, "v": v})
        assert rc == 0
        assert (calls["feasibility"], calls["J"], calls["N_K"]) == (1, 1, 1)
        assert calls["T_K"] <= 1
    # the problem's own verified point serves the isolated-calmness call
    calls.clear()
    problem = example41_problem()
    cert = solution_map_isolated_calm(problem, problem.lam_hint)
    assert cert.verdict == "holds" and calls["feasibility"] == 1
    K = ConeDesc([PSD(3)])
    gp = GraphPoint.from_z(K, svec(np.diag([1.0, 0.0, -1.0])))
    calls.clear()
    for dy in np.eye(K.dim)[:4]:
        dnk_contains(K, gp, dy, np.zeros(K.dim))
    assert calls["critical"] == 1


def test_paper_repro_lp_and_dykstra_counts_are_fixed(monkeypatch, capsys,
                                                     planted, analyze):
    # kkt_lp solves no branch LP: the equality rows pin the one face of
    # its nondegenerate instance to 0 and leave the one face of its
    # degenerate instance a line, cut to a ray by a sign row, and its
    # pairs, like example41's, are settled by their verified multiplier
    # hints alone.  example1 makes one multiplier search;
    # example3 one search and one srcq slice; a multiplier set that is a
    # segment costs analyze one search
    import scipy.optimize
    from conestab import (_sets, cli, cone_geometry, constraint_system,
                          stability)
    from conestab.stability import example41_problem

    calls = {"linprog": 0, "dykstra": 0, "multiplier_solve": 0}

    def counting(name, inner):
        def counted(*args, **kwargs):
            calls[name] += 1
            return inner(*args, **kwargs)
        return counted

    monkeypatch.setattr(scipy.optimize, "linprog",
                        counting("linprog", scipy.optimize.linprog))
    dykstra = counting("dykstra", _sets.dykstra)
    for module in (_sets, cone_geometry, constraint_system):
        monkeypatch.setattr(module, "dykstra", dykstra)
    solve = counting("multiplier_solve", constraint_system.multiplier_solve)
    for module in (cli, constraint_system, stability):
        monkeypatch.setattr(module, "multiplier_solve", solve)
    assert cli.main(["repro", "kkt_lp"]) == 0
    capsys.readouterr()
    assert calls == {"linprog": 0, "dykstra": 0, "multiplier_solve": 0}
    example41_problem()
    assert calls == {"linprog": 0, "dykstra": 0, "multiplier_solve": 0}
    for name, n in (("example1", 1), ("example3", 2)):
        calls["dykstra"] = 0
        assert cli.main(["repro", name]) == 0
        capsys.readouterr()
        assert calls["dykstra"] == n, name
    calls["search"] = 0
    monkeypatch.setattr(constraint_system, "dykstra",
                        counting("search", _sets.dykstra))
    for seed in (3, 5):
        _, x, v, _, problem = planted(seed, srcq_holds=False)
        assert analyze(problem, {"x": x, "v": v})[0] == 0
        assert calls["search"] == 1, seed
        calls["search"] = 0


def test_isolated_calm_certificate_runs_no_fiber_solve(monkeypatch):
    # example41 and the SOC apex are certified by the definiteness check,
    # before any direction is searched
    from conestab import cone_geometry, constraint_system, stability
    from conestab.cone_core import SOC
    from test_stability import _apex_problem

    ex41 = stability.example41_problem()
    cases = [(ex41, ex41.lam_hint), (_apex_problem(SOC(3)), np.zeros(3))]
    calls = {"dykstra": 0, "ngamma_graph_deriv_contains": 0}

    def counting(module, name):
        inner = getattr(module, name)

        def counted(*args, **kwargs):
            calls[name] += 1
            return inner(*args, **kwargs)
        return counted

    for module, name in ((constraint_system, "dykstra"),
                         (cone_geometry, "dykstra"),
                         (stability, "ngamma_graph_deriv_contains")):
        monkeypatch.setattr(module, name, counting(module, name))
    for problem, lam in cases:
        cert = stability.solution_map_isolated_calm(problem, lam)
        assert cert.verdict == "holds"
        assert cert.details["lambda_min"] == 1.0
    assert calls == {"dykstra": 0, "ngamma_graph_deriv_contains": 0}


def test_analyze_decides_the_qualification_once(monkeypatch, planted,
                                               analyze):
    from conestab import cli, constraint_system

    calls = {"multiplier_solve": 0, "subspace_cone_trivial": 0}

    def counting(module, name):
        inner = getattr(module, name)

        def counted(*args, **kwargs):
            calls[name] += 1
            return inner(*args, **kwargs)
        return counted

    for module, name in ((cli, "multiplier_solve"),
                         (constraint_system, "multiplier_solve"),
                         (constraint_system, "subspace_cone_trivial")):
        monkeypatch.setattr(module, name, counting(module, name))
    _, x, v, _, problem = planted(3, srcq_holds=True)
    rc, report = analyze(problem, {"x": x, "v": v})
    assert rc == 0
    assert [c["name"] for c in report["certificates"]] == \
        ["srcq", "strict_complementarity", "nondegeneracy"]
    assert calls == {"multiplier_solve": 1, "subspace_cone_trivial": 1}


def test_line_kernel_decisions_run_no_dykstra(monkeypatch, planted, analyze,
                                             capsys):
    # the adjoint kernel of the planted problems and of example41 is a
    # line, so every srcq decision takes the two-projection route; the
    # strict-complementarity alternative, run when the searched
    # multiplier of planted(3, False) is not relative-interior, decides
    # against an intersection by its slices
    from conestab import cli, cone_geometry, constraint_system
    from conestab._sets import Intersection

    calls = {"dykstra": 0}
    runs = []  # (alternative, Dykstra calls) per decision
    decide, dykstra = constraint_system.subspace_cone_trivial, \
        cone_geometry.dykstra

    def counted_decide(L, C, *args, **kwargs):
        before = calls["dykstra"]
        cert = decide(L, C, *args, **kwargs)
        runs.append((isinstance(C, Intersection), calls["dykstra"] - before))
        return cert

    def counted_dykstra(*args, **kwargs):
        calls["dykstra"] += 1
        return dykstra(*args, **kwargs)

    monkeypatch.setattr(constraint_system, "subspace_cone_trivial",
                        counted_decide)
    monkeypatch.setattr(cone_geometry, "dykstra", counted_dykstra)
    for srcq_holds in (True, False):
        _, x, v, _, problem = planted(3, srcq_holds)
        rc, report = analyze(problem, {"x": x, "v": v})
        assert rc == 0
        assert report["certificates"][0]["verdict"] == \
            ("holds" if srcq_holds else "fails")
    assert [alt for alt, _ in runs] == [False, False, True]
    assert [n for alt, n in runs if not alt] == [0, 0]
    del runs[:]
    assert cli.main(["repro", "example41"]) == 0
    capsys.readouterr()
    assert runs == [(False, 0)] * 2


def test_graph_derivative_solves_one_fiber_per_direction(monkeypatch):
    # a gate-passing direction costs exactly one Dykstra call, a gate
    # rejection none
    from conestab import constraint_system, stability
    from test_acceptance import _criterion_9_pairs
    from test_stability import _axes_then_gaussian, _inclusion_pairs

    dykstra_calls = []
    dykstra, decide = constraint_system.dykstra, \
        constraint_system.ngamma_graph_deriv_contains
    counts = {"gated": [], "passed": []}

    def counted_dykstra(*args, **kwargs):
        dykstra_calls.append(1)
        return dykstra(*args, **kwargs)

    def counted_decide(*args, **kwargs):
        before = len(dykstra_calls)
        cert = decide(*args, **kwargs)
        key = "gated" if cert.method == "critical-cone gate on g'(x)d" \
            else "passed"
        counts[key].append(len(dykstra_calls) - before)
        return cert

    monkeypatch.setattr(constraint_system, "dykstra", counted_dykstra)
    monkeypatch.setattr(stability, "ngamma_graph_deriv_contains",
                        counted_decide)
    pair, pairs = _criterion_9_pairs()
    for d, w in pairs:
        counted_decide(pair, d, w)
    problem = stability.example41_problem()
    pair41 = constraint_system.BasePair(
        constraint_system.BasePoint(problem.sys, problem.xbar), problem.vbar,
        problem.lam_hint)
    for d, w in _inclusion_pairs(problem, _axes_then_gaussian(3, 256)):
        counted_decide(pair41, d, w)
    assert stability.solution_map_isolated_calm(
        problem, problem.lam_hint).verdict == "holds"
    assert len(counts["gated"]) + len(counts["passed"]) == 50 + 256
    assert len(counts["passed"]) == 37 + 2
    assert set(counts["passed"]) == {1} and set(counts["gated"]) == {0}


RI_METHOD = "relative-interior test of the multiplier of the {route}"


def test_unique_multipliers_are_solved_without_dykstra(monkeypatch, planted,
                                                       analyze):
    # an adjoint injective on span N_K(g(x)) leaves one candidate, solved
    # exactly; a kernel line inside that span costs one Dykstra search,
    # and the step along the srcq witness gives the second member
    from conestab import constraint_system

    calls = []
    dykstra = constraint_system.dykstra

    def counted(*args, **kwargs):
        calls.append(1)
        return dykstra(*args, **kwargs)

    monkeypatch.setattr(constraint_system, "dykstra", counted)
    for seed, srcq_holds, n_calls, members, route, method in (
            (3, True, 0, 1, "span-N solve", RI_METHOD),
            (7, True, 0, 1, "span-N solve", RI_METHOD),
            (3, False, 1, 2, "Dykstra search", "alternative: "),
            (5, False, 1, 2, "Dykstra search", RI_METHOD)):
        del calls[:]
        _, x, v, _, problem = planted(seed, srcq_holds)
        rc, report = analyze(problem, {"x": x, "v": v})
        assert rc == 0
        line = next(l for l in report["lines"]
                    if l.startswith("multiplier:"))
        assert line.startswith("multiplier: found")
        assert line.endswith(f" members={members} route={route}"), line
        st = next(c for c in report["certificates"]
                  if c["name"] == "strict_complementarity")
        assert st["method"].startswith(method.format(route=route))
        assert len(calls) == n_calls, (seed, srcq_holds)


def test_qualify_pinned_instances_find_the_planted_multiplier():
    # Gaussian systems on which the former re-seeded search stalled and
    # read the stall as "not found"; the adjoint is injective on span N
    # there
    from conestab.constraint_system import (
        BasePoint, affine_system, multiplier_solve,
        strict_complementarity_check)

    wl = _bench_module("workloads")
    for pin_seed, (shape, n) in wl.Qualify.PINNED:
        item = wl.Qualify._instance(np.random.default_rng(pin_seed), shape,
                                    n, conditioned=False)
        sys = affine_system(wl.make_cone(item["blocks"]), item["A"],
                            item["b"])
        res = multiplier_solve(BasePoint(sys, item["x"]), item["v"])
        lam = item["lam"]
        assert res.found and len(res.members) == 1, pin_seed
        assert res.route == "span-N solve"
        assert np.linalg.norm(res.lam - lam) <= \
            1e-8 * (1.0 + np.linalg.norm(lam)), pin_seed
        assert res.srcq.verdict == "holds"
        assert strict_complementarity_check(res).verdict == "holds"


def test_qualify_plateau_is_searched_again(monkeypatch, tmp_path):
    # a conditioned qualify request (seed 5006) over R^4_+ x {0} at its
    # apex: Dykstra from the least-squares seed holds its residual at
    # 0.0136 past cycle 100 while the increments cancel, so the stall
    # detector ends the run; the run from that iterate converges.  The
    # verdicts are the referee's
    from conestab import constraint_system
    from conestab.constraint_system import (
        BasePoint, affine_system, multiplier_solve,
        strict_complementarity_check)

    infos = []
    dykstra = constraint_system.dykstra

    def spy(*args, **kwargs):
        z, info = dykstra(*args, **kwargs)
        infos.append(info)
        return z, info

    monkeypatch.setattr(constraint_system, "dykstra", spy)
    wl = _bench_module("workloads")
    qualify = wl.Qualify(str(tmp_path))
    item = qualify.build(5006)[338]
    assert item["blocks"] == [("orthant", 4, 1), ("zero", 1, 1)]
    sys = affine_system(wl.make_cone(item["blocks"]), item["A"], item["b"])
    res = multiplier_solve(BasePoint(sys, item["x"]), item["v"])
    assert res.found and res.route == "Dykstra search"
    assert [(i.cycles, i.stalled, i.farkas) for i in infos[:1]] == \
        [(100, True, None)]
    assert len(infos) == 2 and infos[1].converged
    assert res.srcq.verdict == qualify.referee([item])[0]["srcq"]
    assert strict_complementarity_check(res).verdict == "holds"


def _old_strict_complementarity(sys, x, v):
    """The verdict of the candidate check that strict complementarity
    used to make, kept as a referee with its own search: Dykstra from the
    least-squares seed and from that seed moved each way along each
    adjoint-kernel direction.  Candidates are the distinct verified
    members and their averages; "holds" when one is relative-interior
    by the block-wise test `_ri_normal_ref`, "fails" when there is one member and srcq holds at it, else
    "inconclusive"."""
    from conestab import _sets
    from conestab.constraint_system import (
        BasePoint, BasePair, multiplier_verify, srcq_check)
    from test_complementarity import _ri_normal_ref

    tol = _sets.DEFAULT_TOL
    point = BasePoint(sys, x)
    Jt = point.J.T
    seed0 = np.linalg.lstsq(Jt, v, rcond=None)[0]
    _, s, vt = np.linalg.svd(Jt)
    ker = vt[int(np.sum(s > tol.zero * s[0])):]
    step = 1.0 + np.linalg.norm(seed0)
    members = []
    for seed in [seed0] + [seed0 + sign * step * k for k in ker
                           for sign in (1.0, -1.0)]:
        lam, _ = _sets.dykstra([_sets.AffineSet(Jt, v), point.normal], seed)
        scale = 1.0 + np.linalg.norm(lam) + np.linalg.norm(v)
        if multiplier_verify(point, v, lam) and not any(
                np.linalg.norm(lam - m) <= 1e-6 * scale for m in members):
            members.append(lam)
    candidates = members + [0.5 * (members[i] + members[j])
                            for i in range(len(members))
                            for j in range(i + 1, len(members))]
    if len(members) > 1:
        candidates.append(np.mean(members, axis=0))
    if any(multiplier_verify(point, v, lam) and
           _ri_normal_ref(sys.cone, point.gx, lam) for lam in candidates):
        return "holds"
    if len(members) == 1 and \
            srcq_check(BasePair(point, v, members[0])).verdict == "holds":
        return "fails"
    return "inconclusive"


def _example3():
    from conestab.constraint_system import example3_system
    from conestab.symmat import svec

    return (example3_system(), svec(np.diag([0.0, 1.0])),
            svec(np.diag([-1.0, 0.0])), {"mapping": {"builtin": "example3"}})


@pytest.mark.parametrize("case,srcq,uniqueness", [
    ("srcq holds", "holds", "holds"), ("srcq fails", "fails", "fails"),
    ("example3", "fails", "fails")])
def test_analyze_certificates_match_independent_checks(case, srcq,
                                                       uniqueness, planted,
                                                       analyze):
    from conestab.constraint_system import (
        BasePoint, BasePair, multiplier_solve, srcq_check)

    if case == "example3":
        sys, x, v, problem = _example3()
    else:
        sys, x, v, _, problem = planted(5, srcq_holds=case == "srcq holds")
    rc, report = analyze(problem, {"x": x, "v": v})
    assert rc == 0
    got = {c.pop("name"): c for c in report["certificates"]}
    point = BasePoint(sys, x)
    mres = multiplier_solve(point, v)
    assert mres.srcq.verdict == srcq == uniqueness
    assert (len(mres.members) > 1) == (srcq == "fails")
    expected = srcq_check(BasePair(point, v, mres.lam))
    assert got["srcq"] == json.loads(json.dumps(expected.to_json()))
    assert got["strict_complementarity"]["verdict"] == \
        _old_strict_complementarity(sys, x, v)


def test_analyze_reports_the_raw_srcq_beside_distinct_members(monkeypatch,
                                                              analyze):
    # srcq alone decides uniqueness: with a subspace decision stubbed to
    # say holds, example3 keeps one member, and its relative-interior
    # multiplier still makes strict complementarity hold; with no
    # relative-interior multiplier, the stub's unique multiplier makes it
    # fail, carrying the stub
    from conestab import constraint_system
    from conestab.proj_deriv import GraphPoint
    from conestab._sets import Certificate
    from conestab.constraint_system import BasePoint, multiplier_solve

    def srcq_holds(pair):
        return Certificate("holds", 0.0, None, "stub", pair.tol)

    monkeypatch.setattr(constraint_system, "srcq_check", srcq_holds)
    sys, x, v, problem = _example3()
    mres = multiplier_solve(BasePoint(sys, x), v)
    assert mres.srcq.verdict == "holds" and len(mres.members) == 1
    rc, report = analyze(problem, {"x": x, "v": v})
    assert rc == 0
    got = {c["name"]: c for c in report["certificates"]}
    assert (got["srcq"]["verdict"], got["srcq"]["method"]) == ("holds", "stub")
    assert got["strict_complementarity"]["verdict"] == "holds"
    monkeypatch.setattr(GraphPoint, "critical_is_subspace",
                        property(lambda self: False))
    rc, report = analyze(problem, {"x": x, "v": v})
    got = {c["name"]: c for c in report["certificates"]}
    st = got["strict_complementarity"]
    assert st["verdict"] == "fails"
    assert st["details"]["srcq"]["method"] == "stub"
