"""Command-line front end.

Subcommands: analyze (feasibility + multiplier + qualification
certificates at a point), gderiv (graphical-derivative membership for a
(d, w) pair), repro (pinned scenario suites with expected verdict
tables).  Exit codes: 0 completed, 1 verdict mismatch in repro, 2 input
error.
"""

import argparse
import dataclasses
import functools
import json
import sys as _sys
import numpy as np

from ._sets import Tol, _ROUNDING
from .constraint_system import (
    BasePoint, BasePair, example1_system, example3_system, section32_system,
    EXAMPLE1_XBAR, EXAMPLE2_VHAT, EXAMPLE2_LAMHAT, EXAMPLE3_XBAR,
    EXAMPLE3_VBAR, SECTION32_CENTER, SECTION32_KS,
    multiplier_solve, srcq_check, nondegeneracy_check,
    strict_complementarity_check, ngamma_graph_deriv_contains,
)
from .jsonio import load_json, parse_problem, _vector
from .stability import (
    PhiPoint, phi_subregularity_probe, solution_map_isolated_calm,
    kkt_isolated_calm, example41_problem, lp_kkt_data,
)
from .symmat import svec

ASSUMED = "ASSUMED: metric subregularity of x -> g(x) - K at the base point"
CHECKED = "CHECKED: multiplier-uniqueness qualification (certificate below)"


def _make_tol(value):
    if value is None:
        return Tol()
    return Tol(membership=value, zero=value / 10.0)


def _emit(report, fmt):
    if fmt == "json":
        # one compact line: without indent, json uses its C encoder
        print(json.dumps(report, sort_keys=True))
    else:
        for line in report["lines"]:
            print(line)


def _cert_entry(name, cert):
    d = cert.to_json()
    d["name"] = name
    return d


def _multiplier_entry(mres):
    """The multiplier search as a report entry: lam (the last iterate when
    none is found), the route and the residuals; on the fiber interval
    route the line lam_p + t k, the interval (null for an infinite end)
    and t; without a multiplier, the Farkas bound, cycle and h."""
    entry = {"lam": mres.lam.tolist(), "route": mres.route,
             "found": bool(mres.found), "residual": float(mres.residual),
             "residual_affine": float(mres.residual_affine),
             "residual_cone": float(mres.residual_cone)}
    if mres.fiber is not None:
        entry.update(lam_p=mres.fiber["lam_p"].tolist(),
                     k=mres.fiber["k"].tolist(), t=float(mres.fiber["t"]),
                     interval=[float(e) if np.isfinite(e) else None
                               for e in mres.fiber["interval"]])
    if mres.farkas is not None:
        entry["farkas"] = {"bound": float(mres.farkas.bound),
                           "cycle": int(mres.farkas.cycle),
                           "h": mres.farkas.h.tolist()}
    return entry


def cmd_analyze(args):
    sysm = parse_problem(load_json(args.problem))
    pt = load_json(args.point)
    x = _vector(pt, "x", "point")
    v = _vector(pt, "v", "point", default=np.zeros(sysm.dim_x))
    tol = _make_tol(args.tol)

    # raises on a non-finite or infeasible point (exit 2)
    point = BasePoint(sysm, x, tol)
    mres = multiplier_solve(point, v)
    # a srcq certificate follows only when a multiplier is found
    lines = [f"problem: {sysm.name}  cone: {sysm.cone!r}",
             "feasibility: ok", ASSUMED] + [CHECKED] * mres.found
    certs = []
    if mres.found:
        state = f"found residual={mres.residual:.3e} " \
            f"members={len(mres.members)}"
    elif mres.farkas is None:
        state = f"inconclusive (search stalled, residual={mres.residual:.3e})"
    else:
        state = f"not found (certified: residual >= " \
            f"{mres.farkas.bound:.3e} at cycle {mres.farkas.cycle})"
    lines.append(f"multiplier: {state} route={mres.route}")
    if mres.found:
        certs.append(_cert_entry("srcq", mres.srcq))
        lines.append(f"srcq: {mres.srcq.verdict}")
        st = strict_complementarity_check(mres)
        certs.append(_cert_entry("strict_complementarity", st))
        lines.append(f"strict_complementarity: {st.verdict}")
    nd = nondegeneracy_check(point)
    certs.append(_cert_entry("nondegeneracy", nd))
    lines.append(f"nondegeneracy: {nd.verdict}")

    report = {"command": "analyze", "lines": lines, "certificates": certs,
              "multiplier": _multiplier_entry(mres)}
    _emit(report, args.report)
    return 0


def cmd_gderiv(args):
    sysm = parse_problem(load_json(args.problem))
    pr = load_json(args.pair)
    tol = _make_tol(args.tol)
    x, v, lam, d, w = (_vector(pr, key, "pair")
                       for key in ("x", "v", "lam", "d", "w"))

    cert = ngamma_graph_deriv_contains(
        BasePair(BasePoint(sysm, x, tol), v, lam), d, w)
    det = cert.details
    lines = [ASSUMED]
    if "fiber_residual" in det:
        lines.append(f"fiber: residual={det['fiber_residual']:.3e} "
                     f"holds={det['fiber_holds']}")
        farkas = det.get("fiber_farkas")
        if farkas is not None:
            lines.append(f"fiber: certified empty at cycle {farkas['cycle']} "
                         f"(residual >= {farkas['bound']:.3e})")
    else:
        lines.append("reason: critical cone violation "
                     f"(gate residual {det['critical_gate']:.3e})")
    lines.append(f"verdict: {cert.verdict}")
    report = {"command": "gderiv", "lines": lines,
              "certificates": [_cert_entry("graph_deriv_membership", cert)]}
    _emit(report, args.report)
    return 0


# ---------------------------------------------------------------------------
# pinned reproduction scenarios

# (z, z in N_K(g(xbar))) for example1 at EXAMPLE1_XBAR, g(xbar) = 0
EXAMPLE1_NORMAL_TABLE = [
    (np.concatenate([svec(-np.eye(2)), [-1.0]]), True),
    (np.concatenate([svec(np.diag([-1.0, 0.0])), [0.0]]), True),
    (np.concatenate([svec(np.eye(2)), [-1.0]]), False),
    (np.concatenate([svec(np.zeros((2, 2))), [1.0]]), False),
    (np.concatenate([svec(np.array([[0.0, 1.0], [1.0, 0.0]])), [0.0]]), False),
]


def _example1(tol):
    point = BasePoint(example1_system(), EXAMPLE1_XBAR, tol)
    st = strict_complementarity_check(multiplier_solve(point, np.zeros(3)))
    table = EXAMPLE1_NORMAL_TABLE
    return [("strict_complementarity(vbar=0)", st.verdict, "fails"),
            ("normal-cone membership table",
             [bool(point.normal.contains(z, tol)) for z, _ in table],
             [e for _, e in table])], [], {"point": point}


def _example2(tol):
    point = BasePoint(example1_system(), EXAMPLE1_XBAR, tol)
    s1 = srcq_check(BasePair(point, np.zeros(3), np.zeros(4)))
    s2 = srcq_check(BasePair(point, EXAMPLE2_VHAT, EXAMPLE2_LAMHAT))
    w = s2.witness
    return [("srcq(vbar)", s1.verdict, "holds"),
            ("srcq(vhat)", s2.verdict, "fails"),
            ("srcq(vhat) witness nonzero",
             w is not None and float(np.linalg.norm(w)) > 1e-6, True)], [], \
        {"point": point, "srcq_vhat": s2}


def _example3(tol):
    point = BasePoint(example3_system(), EXAMPLE3_XBAR, tol)
    mres = multiplier_solve(point, EXAMPLE3_VBAR)
    st = strict_complementarity_check(mres)
    return [("strict_complementarity", st.verdict, "holds"),
            ("distinct members found", len(mres.members) > 1, True),
            ("uniqueness", mres.srcq.verdict, "fails")], [], \
        {"point": point, "multipliers": mres, "strict": st}


def _example41(tol):
    problem = example41_problem()
    if tol != problem.tol:  # verify the pair again at tol
        problem = dataclasses.replace(problem, tol=tol)
    s = srcq_check(BasePair(problem.point, problem.vbar, problem.lam_hint))
    nd = nondegeneracy_check(problem.point)
    ic = solution_map_isolated_calm(problem, problem.lam_hint)
    return [("srcq", s.verdict, "holds"),
            ("nondegeneracy", nd.verdict, "fails"),
            ("solution_map_isolated_calm", ic.verdict, "holds")], [], \
        {"problem": problem}


def _kkt_lp(tol):
    nondeg = kkt_isolated_calm(*lp_kkt_data("nondegenerate"), tol=tol)
    deg = kkt_isolated_calm(*lp_kkt_data("degenerate"), tol=tol)
    return [("kkt nondegenerate", nondeg.verdict, "holds"),
            ("kkt degenerate", deg.verdict, "fails")], [], {}


def _section32(tol):
    sysm = section32_system()
    seq = [([1.0 / k], SECTION32_CENTER[1], [1.0 / k]) for k in SECTION32_KS]
    # the zero set is {x = v = 0}: the distance is ||(x, v)||
    ratios = phi_subregularity_probe(
        sysm, PhiPoint.at(sysm, *SECTION32_CENTER), seq,
        lambda x, lam, v: float(np.linalg.norm(np.concatenate([x, v]))),
        tol=tol)
    expect = [1.0 / (np.sqrt(2.0) * k) for k in SECTION32_KS]
    ok = all(abs(r - e) <= _ROUNDING * e for r, e in zip(ratios, expect))
    return [("ratio table matches 1/(sqrt(2) k)", ok, True)], [
        f"k={k}: ratio={r:.6e} expected={e:.6e}"
        for k, r, e in zip(SECTION32_KS, ratios, expect)], \
        {"system": sysm, "sequence": seq}


# name -> function of a Tol returning (checks, lines, objects): the (label,
# got, expected) checks, the lines printed before them, the objects read
SCENARIOS = {
    "example1": _example1,
    "example2": _example2,
    "example3": _example3,
    "example41": _example41,
    "kkt_lp": _kkt_lp,
    "section32": _section32,
}


def cmd_repro(args):
    if args.name not in SCENARIOS:
        print(f"unknown scenario {args.name!r}; choose from "
              f"{sorted(SCENARIOS)}", file=_sys.stderr)
        return 2
    checks, lines, _ = SCENARIOS[args.name](_make_tol(args.tol))
    failures = [label for label, got, want in checks if got != want]
    lines = [f"scenario: {args.name}", ASSUMED, CHECKED] + lines + [
        f"{label}: {got} (expected {want}) "
        f"{'ok' if got == want else 'MISMATCH'}"
        for label, got, want in checks]
    report = {"command": "repro", "name": args.name, "lines": lines,
              "failures": failures}
    _emit(report, args.report)
    return 1 if failures else 0


@functools.cache
def build_parser():
    """The argparse tree, built on the first call and shared after it:
    `parse_args` leaves the parser unchanged and returns a new
    namespace each time."""
    p = argparse.ArgumentParser(
        prog="conestab",
        description="certificates for conic constraint systems")
    sub = p.add_subparsers(dest="command", required=True)

    pa = sub.add_parser("analyze", help="qualification certificates at a point")
    pa.add_argument("--problem", required=True)
    pa.add_argument("--point", required=True)
    pa.set_defaults(func=cmd_analyze)

    pg = sub.add_parser("gderiv", help="graphical-derivative membership")
    pg.add_argument("--problem", required=True)
    pg.add_argument("--pair", required=True)
    pg.set_defaults(func=cmd_gderiv)

    pr = sub.add_parser("repro", help="pinned scenario suites")
    pr.add_argument("name")
    pr.set_defaults(func=cmd_repro)

    for sp in (pa, pg, pr):
        sp.add_argument("--tol", type=float, default=None)
        sp.add_argument("--report", choices=["text", "json"], default="text")
    return p


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, KeyError, OSError) as exc:
        print(f"input error: {exc}", file=_sys.stderr)
        return 2


if __name__ == "__main__":
    _sys.exit(main())
