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
    # depends on; __init__.py imports only to re-export.  The test modules
    # are held to the same rule
    pkg = pathlib.Path(conestab.__file__).parent
    found = []
    for path in sorted(pkg.glob("*.py")) + \
            sorted(pathlib.Path(__file__).parent.glob("*.py")):
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


def test_exported_names_resolve():
    # every name a module lists in __all__ exists there, and the package
    # re-exports only names its modules list, so a deleted helper cannot
    # linger in an export list
    pkg = pathlib.Path(conestab.__file__).parent
    found = []
    for path in sorted(pkg.glob("*.py")):
        if path.stem.startswith("__"):  # __main__ runs the command line
            continue
        mod = importlib.import_module(f"conestab.{path.stem}")
        found += [f"{path.stem}.{name}" for name in getattr(mod, "__all__", ())
                  if not hasattr(mod, name)]
    tree = ast.parse((pkg / "__init__.py").read_text())
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module is not None:
            exported = importlib.import_module(f"conestab.{node.module}")
            found += [f"__init__: {node.module}.{alias.name}"
                      for alias in node.names
                      if alias.name not in getattr(exported, "__all__", ())]
    assert found == []


def test_graph_samplers_share_no_code_with_what_they_referee():
    # graph_samplers.py is the ground truth for ngamma_graph_deriv_contains
    # and the critical cone it reads, so it takes from the package only
    # symmat and the cone classes, and reads none of the package's
    # critical-cone, tangent-set or curvature code
    path = pathlib.Path(__file__).with_name("graph_samplers.py")
    tree = ast.parse(path.read_text(), filename=str(path))
    allowed = {"conestab.symmat"} | {f"conestab.cone_core.{name}" for name
                                     in ("Orthant", "SOC", "PSD", "Zero",
                                         "Free")}
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported += [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            imported += [f"{node.module}.{alias.name}"
                         if node.module != "conestab.symmat" else node.module
                         for alias in node.names]
    from_package = [name for name in imported
                    if name.split(".")[0] == "conestab"]
    assert from_package and set(from_package) <= allowed, from_package
    forbidden = {"critical", "critical_polar", "critical_set", "tangent_set",
                 "upsilon_grad", "graph_point", "_classify", "_bd_normal",
                 "_null_basis"}
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            names.add(node.value)
    assert names & forbidden == set()


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


def test_calm_net_workload_runs_and_judges_correctly(monkeypatch):
    # the calm-net benchmark's own calls, read from bench/: a change of
    # signature or verdict that would break its runs fails here first.
    # Every gate-passing fiber of its pool is decided in closed form, so
    # no run calls Dykstra
    from conestab import cone_geometry, constraint_system

    calls = []
    for module in (constraint_system, cone_geometry):
        monkeypatch.setattr(module, "dykstra",
                            lambda *args, **kwargs: calls.append(args))
    wl = _bench_module("workloads")
    calm = wl.CalmNet()
    pool = calm.build(3001)
    for item, answer in zip(pool, calm.referee(pool)):
        assert calm.judge(item, answer, calm.run(item)).wrong == []
    assert calls == []


def test_cone_ladder_workload_runs_and_judges_correctly():
    # the same for the cone-ladder benchmark: dnk_contains along its PSD
    # and second-order rungs against the finite-t referee
    wl = _bench_module("workloads")
    ladder = wl.ConeLadder()
    pool = ladder.build(3001)
    assert len(pool) == 432
    for item, answer in zip(pool, ladder.referee(pool)):
        assert ladder.judge(item, answer, ladder.run(item)).wrong == []


def test_paper_repro_workload_runs_and_judges_correctly():
    # the same for the paper-repro benchmark: each pinned scenario through
    # the command line, so a renamed or missing scenario fails here first
    wl = _bench_module("workloads")
    repro = wl.PaperRepro()
    pool = repro.build(3001)
    assert len(pool) == 240
    for item, answer in zip(pool, repro.referee(pool)):
        assert repro.judge(item, answer, repro.run(item)).wrong == []


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


def test_each_found_multiplier_is_tested_once(monkeypatch, planted,
                                             wide_fiber, analyze):
    # multiplier_solve wraps the multiplier that its residual test has
    # just accepted into the pair without testing it again;
    # multiplier_verify runs only on a second member when srcq fails: on
    # the one point of the fiber interval it tries, or on the steps along
    # the srcq witness, the last of which is the second member
    from conestab import constraint_system

    calls = {"residuals": 0, "verify": []}
    residuals = constraint_system._fiber_residuals
    verify = constraint_system.multiplier_verify

    def counted_residuals(*args):
        calls["residuals"] += 1
        return residuals(*args)

    def counted_verify(*args):
        calls["verify"].append(verify(*args))
        return calls["verify"][-1]

    monkeypatch.setattr(constraint_system, "_fiber_residuals",
                        counted_residuals)
    monkeypatch.setattr(constraint_system, "multiplier_verify",
                        counted_verify)
    for (_, x, v, _, problem), route in (
            (planted(3, True), "span-N solve"),
            (planted(3, False), "fiber interval"),
            (wide_fiber(True), "Dykstra search")):
        calls.update(residuals=0, verify=[])
        rc, report = analyze(problem, {"x": x, "v": v})
        assert rc == 0
        line = next(l for l in report["lines"] if l.startswith("multiplier:"))
        assert line.endswith(f"route={route}"), line
        steps = calls["verify"]
        assert calls["residuals"] == 1 + len(steps)
        assert steps == {"span-N solve": [], "fiber interval": [True]}.get(
            route, [False] * (len(steps) - 1) + [True])


@pytest.mark.parametrize("sign", [1, -1], ids=["plus", "minus"])
def test_dnk_contains_classifies_y_and_lam_but_never_z(monkeypatch, sign):
    # a second-order block decides its case once, in its critical cone:
    # y always, lam only at the apex (where lam = z in value, but not the
    # same array), and z never, however many directions are read
    from conestab.cone_core import ConeDesc, SOC
    from conestab.proj_deriv import GraphPoint, dnk_contains

    seen = []
    classify = SOC._classify

    def spy(u, tol):
        seen.append(u)
        return classify(u, tol)

    monkeypatch.setattr(SOC, "_classify", staticmethod(spy))
    rng = np.random.default_rng(67)
    points = {"interior": ([2.0, 0.5, 0.5], False),
              "boundary": ([1.0, 0.6, 0.8], False),
              "curved": ([0.5, 1.2, 1.6], False),
              "apex": ([0.0, 0.0, 0.0], False),
              "polar interior": ([-2.0, 0.5, 0.5], True),
              "polar boundary": ([-1.0, 0.6, 0.8], True)}
    for label, (z, at_apex) in points.items():
        K = ConeDesc([SOC(3, sign)])
        gp = GraphPoint.from_z(K, sign * np.array(z))
        del seen[:]
        for _ in range(3):
            h = rng.standard_normal(3)
            dy = K.dir_deriv(gp, h)
            assert dnk_contains(K, gp, dy, h - dy).verdict == "holds", label
        (q,) = gp.blocks
        expected = [q.y, q.lam] if at_apex else [q.y]
        assert len(seen) == len(expected), label
        assert all(any(a is b for a in seen) for b in expected), label
        assert not any(a is q.z for a in seen), label


@pytest.mark.parametrize("sign", [1, -1], ids=["plus", "minus"])
def test_dnk_contains_calls_lapack_only_on_beta_blocks_of_order_two(
        monkeypatch, sign):
    # once a graph point holds its data, a dnk_contains call reaches
    # LAPACK only on a PSD block whose beta block (the zero eigenvalues of
    # z) has order 2 or more: one eigh for the clip in Pi' and one
    # eigvalsh for each of the distances to the critical cone and its
    # polar.  Orthant and second-order blocks make none, nor do PSD
    # blocks with a beta block of order 0 or 1.
    from conestab.cone_core import ConeDesc, Orthant, PSD, SOC
    from conestab.proj_deriv import GraphPoint, dnk_contains
    from conestab.symmat import svec

    calls = {"eigh": 0, "eigvalsh": 0}
    for name in calls:
        def counted(*args, _name=name, _inner=getattr(np.linalg, name),
                    **kwargs):
            calls[_name] += 1
            return _inner(*args, **kwargs)

        monkeypatch.setattr(np.linalg, name, counted)
    rng = np.random.default_rng(71)

    def psd(ev):
        Q, _ = np.linalg.qr(rng.standard_normal((len(ev), len(ev))))
        return PSD(len(ev), sign), svec((Q * np.array(ev)) @ Q.T)

    blocks = {
        "orthant": (Orthant(4, sign), np.array([1.0, 0.0, -2.0, 0.0])),
        "soc boundary": (SOC(3, sign), np.array([1.0, 0.6, 0.8])),
        "soc curved": (SOC(3, sign), np.array([0.5, 1.2, 1.6])),
        "soc apex": (SOC(3, sign), np.zeros(3)),
        "psd beta 0": psd([2.0, 1.0, -1.5]),
        "psd beta 1": psd([2.0, 0.0, -1.5]),
        "psd(1) beta 1": psd([0.0]),
        "psd beta 2": psd([2.0, 0.0, 0.0, -1.5]),
        "psd beta 3": psd([0.0, 0.0, 0.0]),
    }
    cases = [[label] for label in blocks] + \
        [["psd beta 2", "psd beta 1", "soc curved", "psd beta 3"]]
    for labels in cases:
        K = ConeDesc([blocks[label][0] for label in labels])
        z = np.concatenate([sign * blocks[label][1] for label in labels])
        gp = GraphPoint.from_z(K, z)
        lapack = sum(label in ("psd beta 2", "psd beta 3") for label in labels)
        for i in range(6):
            h = rng.standard_normal(K.dim)
            dy = K.dir_deriv(gp, h)
            dl = h - dy
            if i % 2:
                dy = dy + 0.3 * rng.standard_normal(K.dim)
            calls.update(eigh=0, eigvalsh=0)
            cert = dnk_contains(K, gp, dy, dl)
            if i == 0:  # the first call builds the point's data
                continue
            if cert.verdict == "holds":
                assert calls == {"eigh": lapack, "eigvalsh": 2 * lapack}, \
                    labels
            assert calls["eigh"] <= lapack, labels
            assert calls["eigvalsh"] <= 2 * lapack, labels


def test_every_coded_set_has_a_closed_form_dist():
    # only AffineSet reads its distance from a projection;
    # a primitive's dist is its plus cone's _dist, mirrored once.  The
    # abstract bases PrimitiveCone and _SubspaceCone (of Zero and Free)
    # write none.
    from conestab._sets import ConvexSet
    from conestab.cone_core import PrimitiveCone, _SubspaceCone

    def subclasses(cls):
        for sub in cls.__subclasses__():
            yield sub
            yield from subclasses(sub)

    classes = {c for c in subclasses(ConvexSet)
               if c.__module__.startswith("conestab.")}
    assert {c.__name__ for c in classes if c.dist is ConvexSet.dist} == \
        {"AffineSet"}
    primitives = {c for c in classes if issubclass(c, PrimitiveCone)} - \
        {PrimitiveCone, _SubspaceCone}
    assert primitives and all(hasattr(c, "_dist") for c in primitives)


def test_only_the_base_class_writes_polar_negate_and_pointed():
    # every cone maps its codes through SignPattern's three tables in
    # `_recoded`; the polar, the mirror and the pointed part are written
    # once, on ConvexSet
    src = pathlib.Path(conestab.__file__).parent
    writers = set()
    for name in ("_sets.py", "cone_core.py"):
        for cls in ast.walk(ast.parse((src / name).read_text())):
            if not isinstance(cls, ast.ClassDef):
                continue
            for node in cls.body:
                # a method, or an alias such as `pointed = polar`
                names = [node.name] if isinstance(node, ast.FunctionDef) \
                    else [t.id for t in getattr(node, "targets", [])
                          if isinstance(t, ast.Name)]
                writers |= {(cls.name, n) for n in names
                            if n in ("polar", "negate", "pointed")}
    assert writers == {("ConvexSet", n)
                       for n in ("polar", "negate", "pointed")}


def test_paper_repro_lp_and_dykstra_counts_are_fixed(monkeypatch, capsys,
                                                     planted, wide_fiber,
                                                     analyze):
    # kkt_lp solves no branch LP: the equality rows pin the one face of
    # its nondegenerate instance to 0 and leave the one face of its
    # degenerate instance a line, cut to a ray by a sign row, and its
    # pairs, like example41's, are settled by their verified multiplier
    # hints alone.  example1 and example3 read their multipliers from
    # the interval of the line ker J^T ∩ span N_K(g(x)), and srcq reads
    # that line without a slice; a multiplier set that is a segment
    # costs analyze no search, and one that is a polygon one search
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
    for name, n in (("example1", 0), ("example3", 0)):
        calls["dykstra"] = 0
        assert cli.main(["repro", name]) == 0
        capsys.readouterr()
        assert calls["dykstra"] == n, name
    calls["search"] = 0
    monkeypatch.setattr(constraint_system, "dykstra",
                        counting("search", _sets.dykstra))
    for (_, x, v, _, problem), n in ((planted(3, False), 0),
                                     (planted(5, False), 0),
                                     (wide_fiber(True), 1)):
        assert analyze(problem, {"x": x, "v": v})[0] == 0
        assert calls["search"] == n
        calls["search"] = 0


def test_analyze_factorizes_the_adjoint_on_span_n_once(monkeypatch,
                                                       analyze):
    # the multiplier route, srcq and nondegeneracy read one SVD of J^T B,
    # B the basis of span N_K(g(x)); none is taken of J^T alone, of
    # [J | Lin] or of srcq's orthonormal basis B vt[r:]^T of
    # ker J^T ∩ span N.  At example1's apex span N is the whole space,
    # so there J^T B is J^T itself and [J | Lin] is J
    from conestab.cone_core import ConeDesc, PSD, SOC
    from conestab.constraint_system import EXAMPLE1_XBAR, BasePoint, \
        affine_system, example1_system
    from conestab.jsonio import emit_cone
    from conestab.symmat import svec

    rng = np.random.default_rng(14)
    K = ConeDesc([PSD(2), SOC(3)])
    y = np.concatenate([svec(np.diag([1.3, 0.0])), [1.0, 0.6, 0.8]])
    lam = np.concatenate([svec(np.diag([0.0, -0.7])), [-1.0, 0.6, 0.8]])
    A = rng.standard_normal((6, 4))
    x = rng.standard_normal(4)
    face = {"cone": emit_cone(K), "mapping": {"affine": {
        "A": A, "b": y - A @ x}}}
    cases = [(example1_system(), {"mapping": {"builtin": "example1"}},
              EXAMPLE1_XBAR, np.zeros(3), "fiber interval"),
             (affine_system(K, A, y - A @ x), face, x, A.T @ lam,
              "span-N solve")]
    svd, args = np.linalg.svd, []

    def spy(a, *rest, **kwargs):
        args.append(np.array(a, float))
        return svd(a, *rest, **kwargs)

    for system, problem, x, v, route in cases:
        point = BasePoint(system, x)
        J, B = point.J, point.span_normal
        JLin = np.hstack([J, point.tangent.lineality_basis()])
        kernel = point.adjoint_kernel
        del args[:]
        monkeypatch.setattr(np.linalg, "svd", spy)
        rc, report = analyze(problem, {"x": x, "v": v})
        monkeypatch.setattr(np.linalg, "svd", svd)
        assert rc == 0
        assert any(l.startswith("multiplier: found") and
                   l.endswith(f"route={route}") for l in report["lines"])

        def taken(M):
            return sum(a.shape == M.shape and np.allclose(a, M, atol=1e-14)
                       for a in args)
        assert taken(J.T @ B) == 1
        if not np.array_equal(B, np.eye(J.shape[0])):
            assert taken(J.T) == 0
        assert taken(JLin) == 0
        assert taken(kernel) == 0


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

    # srcq's decision is the only one: its basis is orthonormal, so it
    # enters after the factorization of subspace_cone_trivial
    calls = {"multiplier_solve": 0, "subspace_cone_trivial": 0,
             "_span_cone_trivial": 0}

    def counting(module, name):
        inner = getattr(module, name)

        def counted(*args, **kwargs):
            calls[name] += 1
            return inner(*args, **kwargs)
        return counted

    for module, name in ((cli, "multiplier_solve"),
                         (constraint_system, "multiplier_solve"),
                         (constraint_system, "subspace_cone_trivial"),
                         (constraint_system, "_span_cone_trivial")):
        monkeypatch.setattr(module, name, counting(module, name))
    _, x, v, _, problem = planted(3, srcq_holds=True)
    rc, report = analyze(problem, {"x": x, "v": v})
    assert rc == 0
    assert [c["name"] for c in report["certificates"]] == \
        ["srcq", "strict_complementarity", "nondegeneracy"]
    assert calls == {"multiplier_solve": 1, "subspace_cone_trivial": 0,
                     "_span_cone_trivial": 1}


def test_line_kernel_decisions_run_no_dykstra(monkeypatch, planted,
                                             wide_fiber, analyze, capsys):
    # the adjoint kernel of the planted problems and of example41 is a
    # line, so every srcq decision takes the two-projection route; so
    # does the strict-complementarity alternative, the third decision,
    # run when the searched multiplier of a wide fiber is not
    # relative-interior: span(P J U_v) is a line, and T ∩ (lin T)^perp
    # is read from T's codes
    from conestab import cli, cone_geometry, constraint_system

    calls = {"dykstra": 0}
    runs = []  # (decision, Dykstra calls) per decision
    dykstra = cone_geometry.dykstra

    def counting(name):
        decide = getattr(constraint_system, name)

        def counted_decide(L, C, *args, **kwargs):
            before = calls["dykstra"]
            cert = decide(L, C, *args, **kwargs)
            runs.append((name, calls["dykstra"] - before))
            return cert
        return counted_decide

    def counted_dykstra(*args, **kwargs):
        calls["dykstra"] += 1
        return dykstra(*args, **kwargs)

    for name in ("_span_cone_trivial", "subspace_cone_trivial"):
        monkeypatch.setattr(constraint_system, name, counting(name))
    monkeypatch.setattr(cone_geometry, "dykstra", counted_dykstra)
    for srcq_holds in (True, False):
        _, x, v, _, problem = planted(3, srcq_holds)
        rc, report = analyze(problem, {"x": x, "v": v})
        assert rc == 0
        assert report["certificates"][0]["verdict"] == \
            ("holds" if srcq_holds else "fails")
    assert runs == [("_span_cone_trivial", 0)] * 2
    _, x, v, _, problem = wide_fiber(True)
    rc, report = analyze(problem, {"x": x, "v": v})
    assert report["certificates"][1]["method"].startswith("alternative")
    assert runs[-1] == ("subspace_cone_trivial", 0)
    del runs[:]
    assert cli.main(["repro", "example41"]) == 0
    capsys.readouterr()
    assert runs == [("_span_cone_trivial", 0)] * 2


def _graph_fiber_dim(pair, d):
    """The dimension of ker A ∩ span C° for the fiber of (d, .) at the
    pair, A = J^T with the row gd^T appended when gd is not 0, and
    span C° = (lin C)^⊥ built from the critical cone's own lineality."""
    from conestab.constraint_system import _null_basis

    gd = pair.J @ d
    A = pair.J.T
    if np.linalg.norm(gd) > pair.tol.zero * (1 + np.linalg.norm(pair.gx)):
        A = np.vstack([A, gd / np.linalg.norm(gd)])
    B = _null_basis(pair.critical.lineality_basis().T, pair.tol)
    return B.shape[1] - np.linalg.matrix_rank(A @ B, tol=1e-9 * (
        1 + np.linalg.norm(A)))


def test_graph_derivative_solves_one_fiber_per_direction(monkeypatch):
    # a gate rejection runs no Dykstra, and neither does a gate-passing
    # direction whose fiber kernel over span C° has dimension 0 or 1, or
    # whose right-hand side is off the fiber's span; a kernel of
    # dimension 2 or more takes the one fallback, one Dykstra run, or
    # two after a stall without a certificate
    from conestab import constraint_system, stability
    from conestab.cone_core import ConeDesc, SOC
    from graph_samplers import ngamma_tangent_generate
    from test_acceptance import _criterion_9_pairs
    from test_stability import _axes_then_gaussian, _inclusion_pairs

    dykstra_calls = []
    dykstra, decide = constraint_system.dykstra, \
        constraint_system.ngamma_graph_deriv_contains
    counts = {"gated": [], "closed form": [], "fallback": []}

    def counted_dykstra(*args, **kwargs):
        dykstra_calls.append(1)
        return dykstra(*args, **kwargs)

    def counted_decide(pair, d, w):
        before = len(dykstra_calls)
        cert = decide(pair, d, w)
        calls = len(dykstra_calls) - before
        if cert.method == "critical-cone gate on g'(x)d":
            counts["gated"].append(calls)
        elif _graph_fiber_dim(pair, d) >= 2:
            assert cert.details["fiber_route"] == "Dykstra search"
            counts["fallback"].append(calls)
        else:
            assert cert.details["fiber_route"] != "Dykstra search"
            counts["closed form"].append(calls)
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
    # g(x) = s (x, x, 0) at the apex of SOC(3, sign), gd on a boundary
    # ray: tangent samples whose kernel is a plane
    A, x = np.array([[1.0], [1.0], [0.0]]), np.zeros(1)
    for s, sign in ((1.0, "plus"), (-1.0, "minus")):
        sys = constraint_system.affine_system(ConeDesc([SOC(3, sign)]),
                                              s * A, np.zeros(3))
        pair = constraint_system.BasePair(
            constraint_system.BasePoint(sys, x), np.zeros(1), np.zeros(3))
        for d, w in ngamma_tangent_generate(sys, x, np.zeros(3), count=8,
                                            seed=2):
            assert counted_decide(pair, d, w).verdict == "holds"
    assert len(counts["gated"]) + len(counts["closed form"]) + \
        len(counts["fallback"]) == 50 + 256 + 16
    assert len(counts["closed form"]) == 37 + 2
    assert len(counts["fallback"]) == 16
    assert set(counts["gated"]) == set(counts["closed form"]) == {0}
    assert set(counts["fallback"]) <= {1, 2}


RI_METHOD = "relative-interior test of the multiplier of the {route}"


def test_unique_multipliers_are_solved_without_dykstra(monkeypatch, planted,
                                                       wide_fiber, analyze):
    # an adjoint injective on span N_K(g(x)) leaves one candidate, solved
    # exactly; a kernel line inside that span is solved by its interval,
    # whose chosen point is relative-interior and whose point halfway to
    # an end is the second member; a kernel plane costs one Dykstra
    # search, and the step along the srcq witness gives the second member
    from conestab import constraint_system

    calls = []
    dykstra = constraint_system.dykstra

    def counted(*args, **kwargs):
        calls.append(1)
        return dykstra(*args, **kwargs)

    monkeypatch.setattr(constraint_system, "dykstra", counted)
    for (_, x, v, _, problem), n_calls, members, route, method in (
            (planted(3, True), 0, 1, "span-N solve", RI_METHOD),
            (planted(7, True), 0, 1, "span-N solve", RI_METHOD),
            (planted(3, False), 0, 2, "fiber interval", RI_METHOD),
            (planted(5, False), 0, 2, "fiber interval", RI_METHOD),
            (wide_fiber(True), 1, 2, "Dykstra search", "alternative: ")):
        del calls[:]
        rc, report = analyze(problem, {"x": x, "v": v})
        assert rc == 0
        line = next(l for l in report["lines"]
                    if l.startswith("multiplier:"))
        assert line.startswith("multiplier: found")
        assert line.endswith(f" members={members} route={route}"), line
        st = next(c for c in report["certificates"]
                  if c["name"] == "strict_complementarity")
        assert st["method"].startswith(method.format(route=route))
        assert len(calls) == n_calls, route


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
    # apex: the fiber solve's Dykstra fallback, on the request's fiber
    # and normal cone with the interval withheld, holds its residual at
    # 0.0136 past cycle 100 from the least-squares point while the
    # increments cancel, so the stall detector ends the run; the run from
    # that iterate converges to a multiplier.  multiplier_solve itself
    # reads the request's kernel line in closed form.  The verdicts are
    # the referee's
    from conestab import constraint_system
    from conestab.constraint_system import (
        BasePoint, affine_system, multiplier_solve, multiplier_verify,
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
    point, v = BasePoint(sys, item["x"]), item["v"]
    with monkeypatch.context() as patch:
        # a block without a closed form sends the line to the fallback
        patch.setattr(point.normal, "line_interval", lambda a, k: None)
        lam, (_, _, ok), route, _, _ = constraint_system._fiber_solve(
            point.J.T, v, point.normal, point.span_normal,
            point.adjoint_on_span, lambda lam: point.tol.membership * (
                1.0 + np.linalg.norm(lam) + np.linalg.norm(v)), point.tol)
    assert [(i.cycles, i.stalled, i.farkas) for i in infos[:1]] == \
        [(100, True, None)]
    assert len(infos) == 2 and infos[1].converged
    assert ok and route == "Dykstra search"
    assert multiplier_verify(point, v, lam)
    res = multiplier_solve(point, v)
    assert res.found and res.route == "fiber interval" and len(infos) == 2
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
        lam, _ = _sets.dykstra(_sets.AffineSet(Jt, v), point.normal, seed)
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
    from conestab.constraint_system import EXAMPLE3_XBAR, EXAMPLE3_VBAR, \
        example3_system

    return (example3_system(), EXAMPLE3_XBAR, EXAMPLE3_VBAR,
            {"mapping": {"builtin": "example3"}})


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
