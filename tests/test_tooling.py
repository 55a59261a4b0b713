import ast
import importlib
import importlib.util
import pathlib

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


def _bench_spans():
    path = pathlib.Path(__file__).resolve().parents[1] / "bench" / "spans.py"
    spec = importlib.util.spec_from_file_location("bench_spans", path)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def test_bench_tracer_targets_resolve():
    # the tracer wraps these names from outside the package; a rename
    # would silently drop a layer from the per-layer metrics
    missing = []
    for modname, attr, _ in _bench_spans().TARGETS:
        owner = importlib.import_module(modname)
        for part in attr.split("."):
            owner = getattr(owner, part, None)
        if not callable(owner):
            missing.append(f"{modname}.{attr}")
    assert missing == []


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
