import dataclasses

import numpy as np
import pytest

from conestab._sets import Tol, DEFAULT_TOL
from conestab.cone_core import ConeDesc, Orthant, SOC, PSD, Free, Zero
from conestab.constraint_system import (
    EXAMPLE1_XBAR as XBAR1, EXAMPLE2_VHAT, EXAMPLE2_LAMHAT, EXAMPLE3_XBAR,
    EXAMPLE3_VBAR, SECTION32_CENTER, SECTION32_KS,
    affine_system, example1_system, quadratic_system, section32_system,
    ngamma_graph_deriv_contains, srcq_check, multiplier_solve,
    nondegeneracy_check, strict_complementarity_check, BasePoint, BasePair,
    SUBREG_ASSUMPTION,
)
from conestab.stability import (
    GEProblem, PhiPoint, SmoothFn, SmoothMap,
    phi_residual, phi_subregularity_probe, solution_map_isolated_calm,
    kkt_isolated_calm, example41_problem, lp_kkt_data,
    _lineality_witness_search, FX_ASSUMPTION,
)
from conestab.symmat import svec
from graph_samplers import (
    ngamma_tangent_generate, normal_to_critical_sample,
    regular_normal_lower_generate,
)


# ---------------------------------------------------------------------------
# residual map and subregularity probe

def test_phi_residual_scalar_closed_form():
    sys = section32_system()
    for k in SECTION32_KS:
        r1, r2 = phi_residual(sys, [1.0 / k], [0.5], [1.0 / k])
        assert r1[0] == pytest.approx(0.0, abs=1e-18)
        assert r2[0] == pytest.approx(1.0 / k ** 2, rel=1e-14)


def test_phi_point_at_center():
    sys = section32_system()
    center = PhiPoint.at(sys, *SECTION32_CENTER)
    assert center.residual_norm == 0.0
    off = PhiPoint.at(sys, [0.1], [0.5], [0.0])
    assert off.residual_norm > 0.0


def _scalar_dist(x, lam, v):
    """The distance to section32's zero set {x = v = 0}."""
    return float(np.hypot(x[0], v[0]))


def test_probe_ratios_match_closed_form():
    sys = section32_system()
    center = PhiPoint.at(sys, *SECTION32_CENTER)
    seq = [([1.0 / k], [0.5], [1.0 / k]) for k in SECTION32_KS]
    ratios = phi_subregularity_probe(sys, center, seq, _scalar_dist)
    for k, r in zip(SECTION32_KS, ratios):
        assert r == pytest.approx(1.0 / (np.sqrt(2.0) * k), abs=1e-12)
    # the decay rate is Theta(1/k): tenfold refinement divides by ten
    assert ratios[1] / ratios[0] == pytest.approx(0.1, abs=0.05)
    assert ratios[2] / ratios[1] == pytest.approx(0.1, abs=0.05)


def test_probe_constant_sequence_reports_zero():
    sys = section32_system()
    center = PhiPoint.at(sys, *SECTION32_CENTER)
    ratios = phi_subregularity_probe(
        sys, center, [SECTION32_CENTER] * 3, _scalar_dist)
    assert ratios == [0.0, 0.0, 0.0]


def test_probe_input_checks():
    sys = section32_system()
    off = PhiPoint.at(sys, [0.1], [0.5], [0.0])
    with pytest.raises(ValueError):
        phi_subregularity_probe(sys, off, [], _scalar_dist)


# ---------------------------------------------------------------------------
# generalized equations

def test_ge_problem_rejects_non_solution():
    sys = example1_system()
    with pytest.raises(ValueError):
        GEProblem(sys, F=lambda p, x: np.array([-1.0, 0.0, 0.0]),
                  Fprime=lambda base, dirn: np.zeros(3),
                  pbar=np.zeros(3), xbar=XBAR1)


def test_ge_problem_accepts_a_verified_hint_without_a_search(monkeypatch):
    import conestab.stability as stability

    calls = []
    search = stability.multiplier_solve

    def counted(*args, **kwargs):
        calls.append(1)
        return search(*args, **kwargs)

    monkeypatch.setattr(stability, "multiplier_solve", counted)
    problem = example41_problem()
    assert calls == []
    # a wrong hint, or one of the wrong shape, falls back to the search
    for hint in (np.zeros(4), np.zeros(3)):
        GEProblem(problem.sys, problem.F, problem.Fprime, problem.pbar,
                  problem.xbar, lam_hint=hint)
    assert len(calls) == 2
    # a hint cannot rescue a pair that solves nothing
    with pytest.raises(ValueError, match="does not solve"):
        GEProblem(problem.sys, F=lambda p, x: np.array([-1.0, 0.0, 0.0]),
                  Fprime=lambda base, dirn: np.zeros(3), pbar=np.zeros(3),
                  xbar=XBAR1, lam_hint=problem.lam_hint)
    assert len(calls) == 3


def test_isolated_calm_fails_on_flat_free_problem():
    # F identically 0 over an unconstrained set: every x solves the
    # inclusion, so the solution map cannot be isolated calm anywhere
    sys = affine_system(ConeDesc([Free(2)]), np.eye(2), np.zeros(2))
    problem = GEProblem(sys, F=lambda p, x: np.zeros(2),
                        Fprime=lambda base, dirn: np.zeros(2),
                        pbar=np.zeros(2), xbar=np.zeros(2))
    cert = solution_map_isolated_calm(problem, np.zeros(2))
    assert cert.verdict == "fails"
    assert cert.witness is not None


def test_isolated_calm_holds_scalar_inequality():
    # g(x) = x <= 0 with F = x - p: the unique branch analysis leaves
    # d = 0 only
    sys = affine_system(ConeDesc([Orthant(1, "minus")]), np.eye(1),
                        np.zeros(1))
    problem = GEProblem(sys, F=lambda p, x: np.asarray(x) - np.asarray(p),
                        Fprime=lambda base, dirn: np.asarray(dirn[1], float)
                        - np.asarray(dirn[0], float),
                        pbar=np.zeros(1), xbar=np.zeros(1))
    cert = solution_map_isolated_calm(problem, np.zeros(1))
    assert cert.verdict == "holds"
    assert "branch enumeration" in cert.method


def _example3_problem():
    # the segment-multiplier instance, where the uniqueness
    # qualification fails
    from conestab.constraint_system import example3_system
    sys = example3_system()
    lam = np.concatenate([EXAMPLE3_VBAR, np.zeros(3)])
    problem = GEProblem(sys, F=lambda p, x: -EXAMPLE3_VBAR,
                        Fprime=lambda base, dirn: np.zeros(3),
                        pbar=np.zeros(3), xbar=EXAMPLE3_XBAR)
    return problem, lam


def test_isolated_calm_inconclusive_without_qualification():
    # no isolated-calmness verdict is issued, and srcq's witness, a
    # vector of multipliers, is not one about the variables
    problem, lam = _example3_problem()
    cert = solution_map_isolated_calm(problem, lam)
    assert cert.verdict == "inconclusive"
    assert "preconditions" in cert.method
    assert cert.witness is None
    srcq = srcq_check(BasePair(problem.point, problem.vbar, lam))
    assert srcq.verdict != "holds"
    assert cert.details["srcq"].to_json() == srcq.to_json()


def _apex_problem(block):
    # g(x) = x in a 3-dimensional cone at its apex, lam = 0, F = -p - x
    sys = affine_system(ConeDesc([block]), np.eye(3), np.zeros(3))
    return GEProblem(sys, F=lambda p, x: -np.asarray(p) - np.asarray(x),
                     Fprime=lambda base, dirn: -np.asarray(dirn[0])
                     - np.asarray(dirn[1]),
                     pbar=np.zeros(3), xbar=np.zeros(3))


def _pair(problem, lam, tol=DEFAULT_TOL):
    return BasePair(BasePoint(problem.sys, problem.xbar, tol), problem.vbar,
                    lam)


def _axes_then_gaussian(dim, count, seed=0):
    """`count` unit directions in R^dim: the 2 dim signed coordinate axes,
    then seeded Gaussian directions."""
    axes = np.repeat(np.eye(dim), 2, axis=0) \
        * np.tile([1.0, -1.0], dim)[:, None]
    g = np.random.default_rng(seed).standard_normal((count - 2 * dim, dim))
    return np.vstack([axes, g / np.linalg.norm(g, axis=1, keepdims=True)])


def _inclusion_pairs(problem, dirs):
    """(d, w) with w = -F'((pbar, xbar); (0, d)) for each direction d: d
    solves the linearized inclusion when (d, w) is in the graphical
    derivative of N_Gamma."""
    base, zero_p = (problem.pbar, problem.xbar), np.zeros_like(problem.pbar)
    return [(d, -np.asarray(problem.Fprime(base, (zero_p, d)), float))
            for d in dirs]


def test_isolated_calm_soc_apex_fibers_end_by_cycle_2(monkeypatch):
    # a critical d with d = mu, mu in N_C(d) has |d|^2 = <d, mu> = 0, so
    # the solution map is isolated calm (S = I certifies it) and every
    # gate-passing direction has an empty fiber, certified by cycle 2: in
    # closed form (cycle 0) off the fiber's span, else from the first
    # cycles' increments of a Dykstra run
    import conestab.constraint_system as cs

    problem = _apex_problem(SOC(3))
    assert solution_map_isolated_calm(problem, np.zeros(3)).verdict == \
        "holds"
    pair = _pair(problem, np.zeros(3))
    infos = []
    real = cs.dykstra

    def counting(*args, **kwargs):
        z, info = real(*args, **kwargs)
        infos.append(info)
        return z, info

    monkeypatch.setattr(cs, "dykstra", counting)
    passed = 0
    for d, w in _inclusion_pairs(problem, _axes_then_gaussian(3, 32)):
        cert = ngamma_graph_deriv_contains(pair, d, w)
        assert cert.verdict == "fails"
        if "fiber_farkas" in cert.details:
            passed += 1
            assert cert.details["fiber_farkas"]["cycle"] <= 2
    assert passed
    for info in infos:
        assert info.converged or (info.farkas is not None
                                  and info.cycles <= 2)


def test_soc_apex_search_tries_only_lineality_directions():
    # C = SOC(3) has lin C = {0} and J = I has kernel {0}: the search has
    # no direction to try
    problem = _apex_problem(SOC(3))
    search = _lineality_witness_search(problem, _pair(problem, np.zeros(3)))
    assert search.verdict == "inconclusive"
    assert search.method == "no witness found by the lineality search"
    assert search.details == {"lineality_directions": 0, "directions": 0}


def test_example41_holds_and_is_tolerance_stable():
    problem = example41_problem()
    lam = problem.lam_hint
    tighter = Tol(membership=DEFAULT_TOL.membership / 2,
                  zero=DEFAULT_TOL.zero / 2)
    for tol in (DEFAULT_TOL, tighter):
        cert = solution_map_isolated_calm(
            dataclasses.replace(problem, tol=tol), lam)
        assert cert.verdict == "holds"
        assert cert.details["lambda_min"] > cert.details["threshold"]
        # the lineality search finds no solution of the inclusion at
        # either tolerance
        search = _lineality_witness_search(problem, _pair(problem, lam, tol))
        assert search.verdict == "inconclusive"


def test_isolated_calm_reads_the_problem_tolerance(monkeypatch):
    # the certificate is made at the problem's own tolerance and base
    # point: no second BasePoint, and no tolerance argument
    import conestab.constraint_system as cs

    p = dataclasses.replace(example41_problem(), tol=Tol(1e-6, 1e-7))
    built = []
    init = cs.BasePoint.__init__
    monkeypatch.setattr(cs.BasePoint, "__init__",
                        lambda self, *a, **k: built.append(1)
                        or init(self, *a, **k))
    cert = solution_map_isolated_calm(p, p.lam_hint)
    assert (cert.verdict, cert.tol, built) == ("holds", p.tol, [])
    with pytest.raises(TypeError):
        solution_map_isolated_calm(p, p.lam_hint, p.tol)


def test_example41_holds_under_denser_net():
    problem = example41_problem()
    cert = solution_map_isolated_calm(problem, problem.lam_hint, net_k=7)
    assert cert.verdict == "holds"


def _lam_zero_route_problem(K, y, route, seed):
    """A GE problem with multiplier 0 at g(xbar) = y that sends
    `solution_map_isolated_calm` down `route`.  g(x) = A x + b with A =
    [Q | 0], Q orthogonal, written as a quadratic system with zero
    Hessians so that a polyhedral K skips the branch enumeration, and
    F(p, x) = -p + M x with pbar = M xbar.  "definite": M = -I, so
    sym(A) = I.  "subspace": y is in int K, so C = T_K(y) is a subspace,
    and M is skew, so sym(A) = 0.  "witness": M = -I on dim K coordinates
    and one more coordinate outside g and F, which the lineality search
    finds in ker J."""
    rng = np.random.default_rng(seed)
    m = K.dim
    n = m + (route == "witness")
    A = np.zeros((m, n))
    A[:, :m] = np.linalg.qr(rng.standard_normal((m, m)))[0]
    x = np.concatenate([rng.standard_normal(m), np.zeros(n - m)])
    M = np.zeros((n, n))
    R = rng.standard_normal((m, m))
    M[:m, :m] = R - R.T if route == "subspace" else -np.eye(m)
    sys = quadratic_system(K, [np.zeros((n, n))] * m, A, y - A @ x)
    return GEProblem(sys, F=lambda p, xx: -np.asarray(p) + M @ xx,
                     Fprime=lambda base, d: -np.asarray(d[0]) + M @ d[1],
                     pbar=M @ x, xbar=x)


def _lam_zero_route_cases():
    """(K, y, route): every primitive in both signs and one product, at
    the apex for the definite and witness routes and at an interior
    point for the subspace route (Zero and Free: the apex only)."""
    blocks = [(Orthant(2, s), s * np.ones(2)) for s in (1, -1)] + \
        [(SOC(3, s), s * np.array([2.0, 0.6, 0.8])) for s in (1, -1)] + \
        [(PSD(2, s), s * svec(np.diag([1.0, 2.0]))) for s in (1, -1)]
    for b, inner in blocks:
        K = ConeDesc([b])
        for route in ("definite", "subspace", "witness"):
            yield K, inner if route == "subspace" else np.zeros(K.dim), route
    for b in (Zero(2), Free(2)):
        for route in ("definite", "subspace", "witness"):
            yield ConeDesc([b]), np.zeros(2), route
    K = ConeDesc([PSD(2), SOC(3, "minus"), Orthant(2), Zero(1), Free(1)])
    inner = np.concatenate([svec(np.eye(2)), [-2.0, 0.6, 0.8], [1.0, 3.0],
                            [0.0], [0.5]])
    for route in ("definite", "subspace", "witness"):
        yield K, inner if route == "subspace" else np.zeros(K.dim), route


def test_lam_zero_certificates_are_the_same_cold_and_warm(same_certificate):
    # a lam = 0 pair reads its point's J-level bases: a second call on a
    # problem, which finds them built, gives the certificate of the first
    # and of a freshly built problem, verdict, residual, witness, method
    # and details alike
    methods = set()
    for seed, (K, y, route) in enumerate(_lam_zero_route_cases()):
        def build():
            return _lam_zero_route_problem(K, y, route, seed)

        def calm(problem):
            return solution_map_isolated_calm(problem,
                                              np.zeros(problem.sys.cone.dim))

        def ngamma(problem):
            rng = np.random.default_rng(seed)
            n, m = problem.sys.dim_x, problem.sys.cone.dim
            pair = BasePair(problem.point, problem.vbar, np.zeros(m))
            dirs = [(d, -(problem.Fx @ d)) for d in
                    (np.eye(n)[-1], rng.standard_normal(n))]
            dirs.append((rng.standard_normal(n), rng.standard_normal(n)))
            return [ngamma_graph_deriv_contains(pair, d, w) for d, w in dirs]

        for run in (calm, ngamma):
            problem = build()
            cold = run(problem)
            for again in (run(problem), run(build())):
                assert same_certificate(cold, again), (K, y, route, run)
        cert = calm(problem)
        methods.add(cert.method)
        if not isinstance(K.blocks[0], (Zero, Free)):
            assert {"definite": "definite", "subspace": "critical subspace",
                    "witness": "witness search"}[route] in cert.method, \
                (K, route, cert.method)
    assert {m.split(" ")[0] for m in methods} == {
        "second-order", "inclusion", "witness"}, methods


def _idle_coordinate_problem():
    # g(x) = x[:3] in SOC(3) at its apex, lam = 0 and
    # F(p, x) = -p - (x_0, x_1, x_2, 0): x_3 enters neither g nor F, so
    # e_3 solves the inclusion at p = 0
    sys = affine_system(ConeDesc([SOC(3)]), np.eye(3, 4), np.zeros(3))
    mask = np.array([1.0, 1.0, 1.0, 0.0])
    return GEProblem(sys, F=lambda p, x: -np.asarray(p) - mask * x,
                     Fprime=lambda base, dirn: -np.asarray(dirn[0])
                     - mask * np.asarray(dirn[1]),
                     pbar=np.zeros(4), xbar=np.zeros(4))


def test_idle_coordinate_fails_within_the_lineality_directions():
    problem = _idle_coordinate_problem()
    cert = solution_map_isolated_calm(problem, np.zeros(3))
    assert cert.verdict == "fails"
    assert cert.method == "witness search exhibited a nonzero solution " \
        "of the inclusion"
    assert 1 <= cert.details["directions"] <= \
        cert.details["lineality_directions"]
    assert np.allclose(np.abs(cert.witness), [0.0, 0.0, 0.0, 1.0])


def _skew_apex_problem():
    # g(x) = x in SOC(3) at its apex, lam = 0 and F(p, x) = -p + R x, R
    # skew: sym(A) = 0 is definite nowhere, C = SOC(3) is no subspace and
    # W = {0} gives the lineality search nothing to try
    R = np.array([[0.0, 1.0, 0.0], [-1.0, 0.0, 2.0], [0.0, -2.0, 0.0]])
    sys = affine_system(ConeDesc([SOC(3)]), np.eye(3), np.zeros(3))
    return GEProblem(sys, F=lambda p, x: -np.asarray(p) + R @ x,
                     Fprime=lambda base, dirn: -np.asarray(dirn[0])
                     + R @ np.asarray(dirn[1]),
                     pbar=np.zeros(3), xbar=np.zeros(3))


def _route_case(route):
    """(problem, lam, verdict, a phrase of the method) sending
    `solution_map_isolated_calm` down `route`."""
    if route == "branches":
        sys = affine_system(ConeDesc([Orthant(1, "minus")]), np.eye(1),
                            np.zeros(1))
        problem = GEProblem(sys, F=lambda p, x: np.asarray(x) - p,
                            Fprime=lambda base, dirn: dirn[1] - dirn[0],
                            pbar=np.zeros(1), xbar=np.zeros(1))
        return problem, np.zeros(1), "holds", "branch enumeration"
    if route == "definite":
        problem = example41_problem()
        return problem, problem.lam_hint, "holds", "definite"
    if route.startswith("subspace"):
        alpha = 0.5 if route == "subspace-holds" else 1.0
        problem, lam = _soc_face_problem(alpha, 1.0)
        return (problem, lam, "holds" if alpha == 0.5 else "fails",
                "critical subspace")
    if route == "search-fails":
        return (_idle_coordinate_problem(), np.zeros(3), "fails",
                "witness search")
    if route == "search-inconclusive":
        return (_skew_apex_problem(), np.zeros(3), "inconclusive",
                "lineality search")
    problem, lam = _example3_problem()
    return problem, lam, "inconclusive", "preconditions unmet"


ROUTES = ["branches", "definite", "subspace-holds", "subspace-fails",
          "search-fails", "search-inconclusive", "precondition"]


@pytest.mark.parametrize("route", ROUTES)
def test_each_route_lists_its_assumptions_and_check(route):
    # the qualification line is written once, at the top level; each
    # route after the qualification reads F_x
    problem, lam, verdict, phrase = _route_case(route)
    cert = solution_map_isolated_calm(problem, lam)
    assert cert.verdict == verdict and phrase in cert.method
    if route == "precondition":
        assert cert.assumptions == (SUBREG_ASSUMPTION,)
        assert cert.checked == (
            "multiplier-uniqueness qualification: fails",)
    else:
        assert cert.assumptions == (SUBREG_ASSUMPTION, FX_ASSUMPTION)
        assert cert.checked == (
            "multiplier-uniqueness qualification: holds",)


@pytest.mark.parametrize("route", ROUTES)
def test_isolated_calm_reads_f_once_and_fprime_dim_x_times(route):
    # over two calls on one problem: F once, for vbar, and Fprime once
    # per column of F_x, on every route that reads F_x
    problem, lam, _, _ = _route_case(route)
    calls = {"F": 0, "Fprime": 0}

    def counted(name, fn):
        def call(*args):
            calls[name] += 1
            return fn(*args)
        return call

    problem = dataclasses.replace(problem, F=counted("F", problem.F),
                                  Fprime=counted("Fprime", problem.Fprime))
    for _ in range(2):
        solution_map_isolated_calm(problem, lam)
    n = 0 if route == "precondition" else problem.sys.dim_x
    assert calls == {"F": 1, "Fprime": n}


def test_net_k_keyword_is_ignored():
    import json

    ex41 = example41_problem()
    for problem, lam in ((_idle_coordinate_problem(), np.zeros(3)),
                         (ex41, ex41.lam_hint),
                         (_apex_problem(SOC(3)), np.zeros(3))):
        plain = solution_map_isolated_calm(problem, lam)
        for net_k in (3, 7):
            assert json.dumps(solution_map_isolated_calm(
                problem, lam, net_k=net_k).to_json()) == \
                json.dumps(plain.to_json())


def test_polyhedral_problem_past_the_branch_cap_is_decided():
    # R^13_+ at its apex with lam = 0 has 2^13 branches, past BRANCH_CAP:
    # the second-order route decides, and S = I is definite
    from conestab.stability import BRANCH_CAP

    sys = affine_system(ConeDesc([Orthant(13, "plus")]), np.eye(13),
                        np.zeros(13))
    problem = GEProblem(sys, F=lambda p, x: -np.asarray(p) - np.asarray(x),
                        Fprime=lambda base, dirn: -np.asarray(dirn[0])
                        - np.asarray(dirn[1]),
                        pbar=np.zeros(13), xbar=np.zeros(13))
    cert = solution_map_isolated_calm(problem, np.zeros(13))
    assert cert.verdict == "holds"
    assert "definite" in cert.method
    assert cert.details["branches"] == 2 ** 13 > BRANCH_CAP
    assert cert.details["branch_cap"] == BRANCH_CAP
    assert cert.details["lambda_min"] == 1.0


@pytest.mark.parametrize("a", [np.array([1.0, 1.0]),
                               np.random.default_rng(5).standard_normal(2),
                               np.array([0.06, -0.08])])
def test_isolated_calm_fails_on_thin_set_without_fx(a, monkeypatch):
    # Gamma = {a.x = 0} and F = -p, so F_x = 0: every point of Gamma
    # solves the inclusion at p = 0, so the solution map is not isolated
    # calm, which the exact branch enumeration shows.  The face's null
    # space is the line a^perp, whatever the size of a, so no LP runs
    sys = affine_system(ConeDesc([Zero(1)]), a.reshape(1, 2), np.zeros(1))
    problem = GEProblem(sys, F=lambda p, x: -np.asarray(p, float),
                        Fprime=lambda base, dirn: -np.asarray(dirn[0], float),
                        pbar=np.zeros(2), xbar=np.zeros(2))
    calls = _counted_linprog(monkeypatch)
    cert = solution_map_isolated_calm(problem, np.zeros(1))
    assert (cert.verdict, cert.residual, calls) == ("fails", 1.0, [])
    assert "exact branch enumeration" in cert.method
    d = cert.witness
    assert np.linalg.norm(d) == pytest.approx(1.0)
    assert abs(float(a @ d)) <= 1e-12
    pair = BasePair(BasePoint(sys, problem.xbar), problem.vbar, np.zeros(1))
    w = -problem.Fprime((problem.pbar, problem.xbar), (np.zeros(2), d))
    assert ngamma_graph_deriv_contains(pair, d, w).verdict == "holds"


def _soc_face_problem(alpha, scale=1.0):
    """g(x) = x in SOC(3) at the boundary point y = (1, r), lam = c(-1, r)
    and F(p, x) = -p - alpha x.  C is the hyperplane a^perp, a = (-1, r),
    and U = 2c diag(-1, 1, 1), so B^T S B has the eigenvalues alpha - c
    and alpha."""
    r = np.array([0.6, 0.8])
    y = np.concatenate([[1.0], r])
    lam = scale * np.concatenate([[-1.0], r])
    sys = affine_system(ConeDesc([SOC(3)]), np.eye(3), np.zeros(3))
    problem = GEProblem(sys, F=lambda p, x: -np.asarray(p) - alpha
                        * np.asarray(x),
                        Fprime=lambda base, dirn: -np.asarray(dirn[0])
                        - alpha * np.asarray(dirn[1]),
                        pbar=lam - alpha * y, xbar=y)
    return problem, lam


@pytest.mark.parametrize("alpha,c,expected", [
    (2.0, 1.0, "holds"), (-2.0, 1.0, "holds"), (0.5, 1.0, "holds"),
    (0.5, 0.25, "holds")])
def test_curvature_term_enters_the_definiteness_certificate(alpha, c,
                                                            expected):
    # with S = alpha I the form is definite for every alpha != 0; the
    # curvature term -U/2 makes it indefinite on a^perp when
    # 0 < alpha < c.  C = a^perp is a subspace and the compression
    # diag(alpha - c, alpha) is nonsingular, so that case holds by the
    # subspace decision with sigma_min = min(|alpha - c|, |alpha|)
    definite = not 0 < alpha < c
    problem, lam = _soc_face_problem(alpha, c)
    cert = solution_map_isolated_calm(problem, lam)
    assert cert.verdict == expected
    assert ("definite" in cert.method) == definite
    assert ("critical subspace" in cert.method) == (not definite)
    assert cert.details["basis"].shape == (3, 2)
    assert cert.details["lambda_min"] == pytest.approx(min(alpha - c, alpha))
    assert cert.details["lambda_max"] == pytest.approx(max(alpha - c, alpha))
    if not definite:
        assert cert.details["sigma_min"] == pytest.approx(
            min(abs(alpha - c), abs(alpha)))
        assert "directions" not in cert.details
    # S was assembled from Fprime columns, so the certificate says so
    assert FX_ASSUMPTION in cert.assumptions


@pytest.mark.parametrize("alpha", [1.0, 0.0])
def test_singular_compression_on_a_critical_subspace_fails(alpha):
    # alpha = c or alpha = 0 makes diag(alpha - c, alpha) singular: its
    # kernel direction solves the inclusion, and the witness is checked
    # against the graphical derivative independently here
    problem, lam = _soc_face_problem(alpha, 1.0)
    cert = solution_map_isolated_calm(problem, lam)
    assert cert.verdict == "fails"
    assert "critical subspace" in cert.method
    assert cert.details["sigma_min"] <= 1e-12
    d = cert.witness
    assert np.linalg.norm(d) == pytest.approx(1.0)
    a = np.array([-1.0, 0.6, 0.8])
    assert abs(float(a @ d)) <= 1e-12
    pair = BasePair(BasePoint(problem.sys, problem.xbar), problem.vbar, lam)
    w = -problem.Fprime((problem.pbar, problem.xbar), (np.zeros(3), d))
    assert ngamma_graph_deriv_contains(pair, d, w).verdict == "holds"


def _referee_form(problem, pair):
    """S rebuilt by the test: F_x by central differences of F, and the
    matrix of h -> 2 Upsilon(J h) by polarization of the scalar
    curvature functional."""
    sys, J, x = problem.sys, pair.J, problem.xbar
    n, t = sys.dim_x, 1e-6
    eye = np.eye(n)
    Fx = np.column_stack([
        (np.asarray(problem.F(problem.pbar, x + t * e))
         - np.asarray(problem.F(problem.pbar, x - t * e))) / (2 * t)
        for e in eye])

    def ups(h):
        return sys.cone.upsilon(pair.graph_point, J @ h)

    JUJ = np.array([[ups(eye[i] + eye[j]) - ups(eye[i] - eye[j])
                     for j in range(n)] for i in range(n)]) / 2.0
    A = -Fx - sys.hess_lambda(x, pair.lam) - 0.5 * JUJ
    return 0.5 * (A + A.T)


def _mixed_planted(dim_x, seed=17):
    """PSD(2) x SOC(3) x R^2_+ at a boundary point with a planted strictly
    complementary multiplier, and a seeded affine g."""
    rng = np.random.default_rng(seed)
    U, _ = np.linalg.qr(rng.standard_normal((2, 2)))
    r = rng.standard_normal(2)
    r /= np.linalg.norm(r)
    y = np.concatenate([svec(np.outer(U[:, 0], U[:, 0])), [1.0], r,
                        [0.0, 1.0]])
    lam = np.concatenate([-svec(np.outer(U[:, 1], U[:, 1])), [-1.0], r,
                          [-1.0, 0.0]])
    cone = ConeDesc([PSD(2, "plus"), SOC(3, "plus"), Orthant(2, "plus")])
    A = rng.standard_normal((cone.dim, dim_x))
    x = rng.standard_normal(dim_x)
    sys = affine_system(cone, A, y - A @ x)
    return sys, x, A.T @ lam, lam


def _shifted_problem(sys, x, v, alpha):
    # F(p, x) = -p - alpha x with pbar = v - alpha x, so that vbar = v
    return GEProblem(sys, F=lambda p, xx: -np.asarray(p) - alpha
                     * np.asarray(xx),
                     Fprime=lambda base, dirn: -np.asarray(dirn[0])
                     - alpha * np.asarray(dirn[1]),
                     pbar=v - alpha * x, xbar=x)


def _certified_holds():
    """(problem, lam, zero curved multipliers) for the non-polyhedral
    `holds` instances of this file."""
    ex41 = example41_problem()
    out = [(ex41, ex41.lam_hint, False),
           (_apex_problem(SOC(3)), np.zeros(3), True),
           (_apex_problem(PSD(2)), np.zeros(3), True)]
    for alpha, c in ((2.0, 1.0), (-2.0, 1.0), (0.5, 0.25)):
        out.append(_soc_face_problem(alpha, c) + (False,))
    sys, x, v, lam = _mixed_planted(8)
    out.append((_shifted_problem(sys, x, v, 10.0), lam, False))
    return out


def test_every_definiteness_holds_reverifies():
    for problem, lam, exact_samples in _certified_holds():
        cert = solution_map_isolated_calm(problem, lam)
        assert cert.verdict == "holds", problem.name
        det = cert.details
        B = det["basis"]
        k = B.shape[1]
        assert np.linalg.norm(B.T @ B - np.eye(k)) <= 1e-12
        pair = BasePair(BasePoint(problem.sys, problem.xbar), problem.vbar,
                        lam)
        S = _referee_form(problem, pair)
        eig = np.linalg.eigvalsh(B.T @ S @ B)
        assert eig.min() == pytest.approx(det["lambda_min"], abs=1e-6)
        assert eig.max() == pytest.approx(det["lambda_max"], abs=1e-6)
        assert eig.min() > det["threshold"] or eig.max() < -det["threshold"]
        assert det["threshold"] == pytest.approx(
            np.sqrt(DEFAULT_TOL.membership) * (1 + np.abs(eig).max()))
        if exact_samples:
            # exact graph-tangent directions have g'(x)d in C, so they lie
            # in span B
            for d, _ in ngamma_tangent_generate(problem.sys, problem.xbar,
                                                lam, count=20, seed=3):
                assert np.linalg.norm(d - B @ (B.T @ d)) <= \
                    1e-9 * np.linalg.norm(d)


def _permuted(sys, order):
    """The affine system with its cone blocks taken in `order` and the rows
    of (A, b) permuted with them; the row permutation."""
    x0 = np.zeros(sys.dim_x)
    rows = np.concatenate([np.arange(sys.cone.dim)[sys.cone.slices[i]]
                           for i in order])
    cone = ConeDesc([sys.cone.blocks[i] for i in order])
    return affine_system(cone, sys.jacobian(x0)[rows], sys.g(x0)[rows]), rows


@pytest.mark.parametrize("alpha,expected", [(10.0, "holds"),
                                            (1.0, "holds")])
def test_definiteness_verdict_invariant_under_mirror_and_permutation(
        alpha, expected):
    # alpha = 1 leaves the form indefinite on span B; C is a subspace
    # there, and the compression is nonsingular in every coordinate system
    sys, x, v, lam = _mixed_planted(8)
    perm, rows = _permuted(sys, [2, 0, 1])
    certs = [solution_map_isolated_calm(_shifted_problem(s, x, v, alpha), l)
             for s, l in ((sys, lam), (_mirror(sys), -lam),
                          (perm, lam[rows]))]
    for cert in certs:
        assert cert.verdict == expected
        assert ("critical subspace" in cert.method) == (alpha == 1.0)
        for key in ("lambda_min", "sigma_min"):
            assert cert.details.get(key) == pytest.approx(
                certs[0].details.get(key), rel=1e-10)


# ---------------------------------------------------------------------------
# KKT specialization

def test_kkt_lp_verdicts():
    cert = kkt_isolated_calm(*lp_kkt_data("nondegenerate"))
    assert cert.verdict == "holds"
    cert = kkt_isolated_calm(*lp_kkt_data("degenerate"))
    assert cert.verdict == "fails"
    assert cert.witness is not None


def test_kkt_scale_invariance():
    # scaling objective and constraints together keeps the same KKT pair
    # and the same verdict
    f, G, mc, zbar, lbar = lp_kkt_data("nondegenerate")
    f2 = SmoothFn(lambda z: 2 * f.value(z), lambda z: 2 * f.grad(z),
                  lambda z: 2 * f.hess(z))
    G2 = SmoothMap(lambda z: 2 * G.value(z), lambda z: 2 * G.jac(z),
                   lambda z, lam: 2 * G.hess(z, lam))
    cert = kkt_isolated_calm(f2, G2, mc, zbar, lbar)
    assert cert.verdict == "holds"


def test_kkt_rejects_non_kkt_pair():
    f, G, mc, zbar, lbar = lp_kkt_data("nondegenerate")
    with pytest.raises(ValueError):
        kkt_isolated_calm(f, G, mc, np.array([1.0, 1.0]), lbar)
    with pytest.raises(ValueError):
        kkt_isolated_calm(f, G, mc, zbar, np.array([1.0, 1.0]))


def test_kkt_input_checks_name_the_failing_condition():
    # lbar = (-1, 0): grad f + A^T lbar = (0, 1) is not 0
    f, G, mc, zbar, lbar = lp_kkt_data("nondegenerate")
    with pytest.raises(ValueError, match="stationarity fails"):
        kkt_isolated_calm(f, G, mc, zbar, np.array([-1.0, 0.0]))
    # zbar = (0.5, 0) keeps stationarity, but G(zbar) = (0.5, 0) is not
    # in the normal cone {0} at the interior multiplier lbar = (-1, -1)
    with pytest.raises(ValueError, match="complementarity fails"):
        kkt_isolated_calm(f, G, mc, np.array([0.5, 0.0]), lbar)


def test_lp_kkt_data_unknown_kind():
    with pytest.raises(ValueError):
        lp_kkt_data("typo")


# ---------------------------------------------------------------------------
# polyhedral branch LP against a one-LP-per-objective referee

def _scalar_ge_draw(seed):
    """A seeded GE problem over Orthant/Zero/Free blocks with affine g,
    xbar = 0 and a planted multiplier: some active Orthant coordinates
    carry a zero multiplier, and F_x is Gaussian, positive definite,
    rank-deficient or zero.  Returns (problem, lam, per-coordinate
    (kind, active, strict) tags, F_x)."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(1, 5))
    blocks, y, lam, tags = [], [], [], []
    for _ in range(int(rng.integers(1, 4))):
        kind = rng.choice(["plus", "minus", "zero", "free"],
                          p=[0.35, 0.35, 0.15, 0.15])
        k = int(rng.integers(1, 3))
        if kind == "zero":
            blocks.append(Zero(k))
            y += [0.0] * k
            lam += list(rng.standard_normal(k))
            tags += [("zero", True, True)] * k
        elif kind == "free":
            blocks.append(Free(k))
            y += list(rng.standard_normal(k))
            lam += [0.0] * k
            tags += [("free", False, False)] * k
        else:
            s = 1.0 if kind == "plus" else -1.0
            blocks.append(Orthant(k, kind))
            for _ in range(k):
                state = rng.choice(["inactive", "strict", "degenerate"])
                y.append(s * rng.uniform(0.5, 2.0)
                         if state == "inactive" else 0.0)
                lam.append(-s * rng.uniform(0.5, 2.0)
                           if state == "strict" else 0.0)
                tags.append((s, state != "inactive", state == "strict"))
    m = len(y)
    A = rng.standard_normal((m, n))
    sys = affine_system(ConeDesc(blocks), A, np.array(y))
    lam = np.array(lam)
    form = rng.choice(["gauss", "definite", "singular", "zero"])
    G = rng.standard_normal((n, n))
    Fx = {"gauss": G, "definite": G @ G.T + 0.1 * np.eye(n),
          "singular": G[:, :1] @ rng.standard_normal((1, n)),
          "zero": np.zeros((n, n))}[form]
    v = A.T @ lam
    problem = GEProblem(
        sys, F=lambda p, x: Fx @ np.asarray(x) - np.asarray(p),
        Fprime=lambda base, dirn: Fx @ np.asarray(dirn[1])
        - np.asarray(dirn[0]),
        pbar=v, xbar=np.zeros(n), lam_hint=lam)
    return problem, lam, tags, Fx


def _referee_branch_max(problem, M, tags, cut):
    """The largest |d_j| by one dense `linprog` per (branch, j, sign),
    branches in coordinate order with the free-side option first, and the
    enumeration stopped after the first branch whose best exceeds `cut`.
    The face of a branch: (d, mu) in the box, M d + J^T mu = 0, and per
    coordinate either (J d)_i free with mu_i = 0, or (J d)_i = 0 with mu_i
    free, or at a degenerate Orthant coordinate of sign s the choice
    s (J d)_i >= 0, mu_i = 0 or (J d)_i = 0, s mu_i <= 0."""
    import itertools
    from scipy.optimize import linprog

    J = problem.sys.jacobian(problem.xbar)
    m, n = J.shape
    options = []
    for kind, active, strict in tags:
        if not active:
            options.append([("free", (0.0, 0.0))])
        elif strict:
            options.append([("zero", (-1.0, 1.0))])
        else:
            s = kind
            options.append([(s, (0.0, 0.0)),
                            ("zero", (-1.0, 0.0) if s > 0 else (0.0, 1.0))])
    best = 0.0
    for branch in itertools.product(*options):
        eq = [np.hstack([M, J.T])]
        ub = []
        bounds = [(-1.0, 1.0)] * n
        for i, (a, bnd) in enumerate(branch):
            row = np.concatenate([J[i], np.zeros(m)])
            if a == "zero":
                eq.append(row[None])
            elif a != "free":
                ub.append(-a * row)
            bounds.append(bnd)
        eq = np.vstack(eq)
        for j in range(n):
            for sgn in (1.0, -1.0):
                c = np.zeros(n + m)
                c[j] = -sgn
                res = linprog(c, A_ub=np.array(ub) if ub else None,
                              b_ub=np.zeros(len(ub)) if ub else None,
                              A_eq=eq, b_eq=np.zeros(len(eq)),
                              bounds=bounds, method="highs")
                assert res.success
                best = max(best, -res.fun)
        if best > cut:
            break
    return best


def _orthant_apex_draw(seed, idle):
    """R^3_+ at its apex under a seeded affine g(x) = A (x - xbar), with
    F(p, x) = M x - p for a symmetric Gaussian M, pbar = M xbar and
    lam = 0.  With `idle`, a fourth coordinate enters neither g nor F.
    Returns (problem, M)."""
    rng = np.random.default_rng(seed)
    n = 4 if idle else 3
    A, M = np.zeros((3, n)), np.zeros((n, n))
    A[:, :3] = rng.standard_normal((3, 3))
    G = rng.standard_normal((3, 3))
    M[:3, :3] = G + G.T
    xbar = rng.standard_normal(n)
    sys = affine_system(ConeDesc([Orthant(3, "plus")]), A, -A @ xbar)
    problem = GEProblem(sys, F=lambda p, x: M @ np.asarray(x) - p,
                        Fprime=lambda base, dirn: M @ np.asarray(dirn[1])
                        - np.asarray(dirn[0]),
                        pbar=M @ xbar, xbar=xbar)
    return problem, M


@pytest.mark.parametrize("seed,idle", [(s, False) for s in range(12)]
                         + [(s, True) for s in range(12, 16)])
def test_orthant_apex_is_decided_exactly_from_fprime(seed, idle):
    # F_x is known only through Fprime; the branch enumeration still
    # runs, and the referee, built from the draw's own M, agrees.  An
    # idle coordinate solves the inclusion, so those draws fail with a
    # witness the graphical derivative accepts
    from conestab.stability import WITNESS_CUT

    problem, M = _orthant_apex_draw(seed, idle)
    cert = solution_map_isolated_calm(problem, np.zeros(3))
    assert "exact branch enumeration" in cert.method
    assert cert.verdict == ("fails" if idle else "holds")
    best = _referee_branch_max(problem, M, [(1.0, True, False)] * 3,
                               WITNESS_CUT)
    assert cert.residual == pytest.approx(best, abs=1e-9)
    if idle:
        d = cert.witness
        assert np.linalg.norm(d) == pytest.approx(1.0)
        pair = BasePair(problem.point, problem.vbar, np.zeros(3))
        assert ngamma_graph_deriv_contains(pair, d, -M @ d).verdict == \
            "holds"


def _face_paths(monkeypatch):
    """Record (LP solved, value) for each branch face the polyhedral
    route decides.  A face decided with no LP and a nonzero value is a
    line face: a face pinned to {0} has value 0."""
    from conestab import stability

    paths = []
    inner = stability._branch_lp_max

    def recorded(J, M, branch):
        res, val, d = inner(J, M, branch)
        paths.append((res is not None, val))
        return res, val, d

    monkeypatch.setattr(stability, "_branch_lp_max", recorded)
    return paths


def _branch_route(problem, pair):
    """The branch enumeration of `solution_map_isolated_calm` on the
    pair, its -A assembled from Fprime, with no qualification gate."""
    from conestab.stability import (_polyhedral_route, _scalar_branches,
                                    _second_order_form)

    A = _second_order_form(problem, pair)
    return _polyhedral_route(pair, -A, _scalar_branches(pair.critical))


def test_branch_lp_matches_one_lp_per_objective(monkeypatch):
    from conestab.stability import WITNESS_CUT

    paths = _face_paths(monkeypatch)
    verdicts = []
    for seed in range(200):
        problem, lam, tags, Fx = _scalar_ge_draw(seed)
        pair = BasePair(BasePoint(problem.sys, problem.xbar), problem.vbar,
                        lam)
        cert = _branch_route(problem, pair)
        best = _referee_branch_max(problem, Fx, tags, WITNESS_CUT)
        assert cert.verdict == ("fails" if best > WITNESS_CUT else "holds")
        assert cert.residual == pytest.approx(best, abs=1e-9), seed
        if cert.verdict == "fails":
            # the witness may be another optimal vertex than the
            # referee's, but it must solve the linearized inclusion
            d = cert.witness
            assert np.linalg.norm(d) == pytest.approx(1.0)
            assert ngamma_graph_deriv_contains(
                pair, d, -Fx @ d).verdict == "holds"
        verdicts.append(cert.verdict)
    # both verdicts occur among the draws, and both ways of deciding a
    # face: line faces in closed form and faces of dimension >= 2 by LP
    assert 0 < verdicts.count("fails") < len(verdicts)
    assert sum(lp for lp, _ in paths) > 0
    assert sum(not lp and val > 0 for lp, val in paths) > 0


def test_line_faces_are_mirror_invariant(monkeypatch):
    # K -> -K with (A, b) -> (-A, -b) and lam -> -lam maps each branch
    # face onto a face with mu -> -mu, so each line face keeps its value
    paths = _face_paths(monkeypatch)
    lines = 0
    for seed in range(200):
        problem, lam, _, _ = _scalar_ge_draw(seed)
        del paths[:]
        certs = []
        for sys, sign in ((problem.sys, 1.0), (_mirror(problem.sys), -1.0)):
            pair = BasePair(BasePoint(sys, problem.xbar), problem.vbar,
                            sign * lam)
            certs.append(_branch_route(problem, pair))
        half = len(paths) // 2
        if not any(not lp and val > 0 for lp, val in paths[:half]):
            continue
        lines += 1
        assert [lp for lp, _ in paths[:half]] == \
            [lp for lp, _ in paths[half:]], seed
        assert certs[1].verdict == certs[0].verdict, seed
        assert certs[1].residual == pytest.approx(certs[0].residual,
                                                  abs=1e-12), seed
    assert lines > 0


def test_pair_inside_the_activity_window_is_decided(analyze):
    # y = 5e-10 counts as active (|y| <= tol.zero) and lam = -1 passes the
    # multiplier test, though |<y, lam>| is above the cone-level
    # complementarity bound tol.zero / 10: the verified pair is decided by
    # its multiplier test alone, in analyze and on the polyhedral route
    from conestab.jsonio import emit_cone

    K = ConeDesc([Orthant(1, "plus")])
    x, lam = np.array([5e-10]), np.array([-1.0])
    rc, report = analyze({"cone": emit_cone(K),
                          "mapping": {"affine": {"A": [[1.0]], "b": [0.0]}}},
                         {"x": x, "v": lam})
    assert rc == 0
    verdicts = {c["name"]: c["verdict"] for c in report["certificates"]}
    assert verdicts["srcq"] == "holds"
    problem = GEProblem(affine_system(K, np.eye(1), np.zeros(1)),
                        F=lambda p, x: 1.0 + x - p,
                        Fprime=lambda base, dirn: dirn[1] - dirn[0],
                        pbar=x, xbar=x, lam_hint=lam)
    cert = solution_map_isolated_calm(problem, lam)
    assert cert.verdict == "holds"
    assert "exact branch enumeration" in cert.method


def _counted_linprog(monkeypatch, inner=None):
    import scipy.optimize

    calls = []
    inner = inner or scipy.optimize.linprog
    monkeypatch.setattr(scipy.optimize, "linprog",
                        lambda *a, **k: calls.append(1) or inner(*a, **k))
    return calls


def test_branch_lp_failure_is_inconclusive(monkeypatch):
    from scipy.optimize import OptimizeResult

    def failing(*args, **kwargs):
        return OptimizeResult(success=False, status=4, x=None, fun=None,
                              message="numerical difficulties")

    calls = _counted_linprog(monkeypatch, failing)
    # min z1 + z2 s.t. z >= 0 with the row z1 >= 0 stated three times:
    # the two copies carry zero multipliers, so the face where both are
    # free has dimension 2 and only an LP decides it
    c = np.array([1.0, 1.0])
    A = np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 0.0], [1.0, 0.0]])
    f = SmoothFn(lambda z: float(c @ z), lambda z: c,
                 lambda z: np.zeros((2, 2)))
    G = SmoothMap(lambda z: A @ z, lambda z: A,
                  lambda z, lam: np.zeros((2, 2)))
    cert = kkt_isolated_calm(f, G, ConeDesc([Orthant(4, "minus")]),
                             np.zeros(2), np.array([-1.0, -1.0, 0.0, 0.0]))
    assert cert.verdict == "inconclusive" and calls == [1]
    assert "exact branch enumeration" in cert.method
    assert cert.details["lp_status"] == 4
    assert cert.details["lp_message"] == "numerical difficulties"
    # kkt_lp's faces are pinned to 0 (nondegenerate) or a ray
    # (degenerate) by their equality rows: no LP is solved, so a failing
    # solver leaves both verdicts alone
    assert kkt_isolated_calm(*lp_kkt_data("nondegenerate")).verdict == \
        "holds"
    cert = kkt_isolated_calm(*lp_kkt_data("degenerate"))
    assert (cert.verdict, cert.residual, calls) == ("fails", 1.0, [1])


def test_branch_face_pinned_by_its_equalities_needs_no_lp(monkeypatch):
    from conestab._sets import SignPattern
    from conestab.stability import _branch_lp_max

    calls = _counted_linprog(monkeypatch)
    J = np.eye(2)
    branch = [(SignPattern.FREE, SignPattern.ZERO)] * 2
    # M d = 0 with M nonsingular: the face is {0}, decided without an LP
    res, val, d = _branch_lp_max(J, np.array([[0.0, 1.0], [-1.0, 0.0]]),
                                 branch)
    assert (res, val, calls) == (None, 0.0, [])
    assert np.array_equal(d, np.zeros(2))
    # a singular value under the LP's feasibility margin leaves the face
    # to the LP, which sees every point of the box as feasible
    res, val, d = _branch_lp_max(J, 1e-9 * np.eye(2), branch)
    assert calls == [1] and res.success and val == pytest.approx(1.0)
    # a singular M leaves a line of the face, whose end needs no LP
    res, val, d = _branch_lp_max(J, np.diag([1.0, 0.0]), branch)
    assert res is None and calls == [1] and val == pytest.approx(1.0)
    assert abs(d[1]) == pytest.approx(1.0) and abs(d[0]) < 1e-12


def test_branch_line_faces_in_closed_form(monkeypatch):
    from conestab._sets import SignPattern
    from conestab.stability import _branch_lp_max

    FREE, ZERO, NONNEG = (SignPattern.FREE, SignPattern.ZERO,
                          SignPattern.NONNEG)
    calls = _counted_linprog(monkeypatch)
    # d = 0 pinned by (J d)_i = 0, and d + mu_1 + mu_2 = 0 leaves the
    # line mu_1 = -mu_2 with d = 0 on it: value 0
    res, val, d = _branch_lp_max(np.ones((2, 1)), np.eye(1),
                                 [(ZERO, FREE)] * 2)
    assert (res, val, calls) == (None, 0.0, [])
    assert np.array_equal(d, np.zeros(1))
    # a ray: d_1 = 0 from M d = 0, and the sign row d_2 >= 0 cuts the
    # line d_1 = 0 to its half d_2 >= 0
    J, M = np.eye(2), np.diag([1.0, 0.0])
    res, val, d = _branch_lp_max(J, M, [(FREE, ZERO), (NONNEG, ZERO)])
    assert (res, val, calls) == (None, 1.0, [])
    assert np.array_equal(np.abs(d), [0.0, 1.0]) and d[1] == 1.0
    # kkt_lp's degenerate face is the ray d_5 <= 0 of span(e3 - e5)
    cert = kkt_isolated_calm(*lp_kkt_data("degenerate"))
    assert (cert.verdict, cert.residual, calls) == ("fails", 1.0, [])
    assert np.array_equal(np.abs(cert.witness),
                          np.array([0.0, 0.0, 1.0, 0.0, 1.0]) / np.sqrt(2))
    assert cert.witness[2] == -cert.witness[4] > 0
    # the sign row (J d)_2 = d_1 + 1e-8 d_2 >= 0 has coefficient 1e-8
    # along the line: HiGHS's 1e-7 feasibility tolerance could decide it
    # otherwise, so the face goes to the LP
    J = np.array([[1.0, 0.0], [1.0, 1e-8]])
    res, val, d = _branch_lp_max(J, M, [(FREE, ZERO), (NONNEG, ZERO)])
    assert calls == [1] and res.success and val == pytest.approx(1.0)


# ---------------------------------------------------------------------------
# graph-tangent and lower-generator samplers

def test_ngamma_tangent_generate_members_certify():
    sys = example1_system()
    pair = BasePair(BasePoint(sys, XBAR1), np.zeros(3), np.zeros(4))
    pairs = ngamma_tangent_generate(sys, XBAR1, np.zeros(4), count=10, seed=4)
    for d, w in pairs:
        cert = ngamma_graph_deriv_contains(pair, d, w)
        assert cert.verdict == "holds"


def test_regular_normal_lower_anti_alignment():
    # every generated pair (xi, eta) must anti-align with every exact
    # graph tangent (d, w): <xi, d> + <eta, w> <= 0
    sys = example1_system()
    pair = BasePair(BasePoint(sys, XBAR1), np.zeros(3), np.zeros(4))
    tangents = ngamma_tangent_generate(sys, XBAR1, np.zeros(4), count=25,
                                       seed=4)
    lowers = regular_normal_lower_generate(sys, XBAR1, np.zeros(4),
                                           pair.critical, count=15, seed=0)
    worst = -np.inf
    for xi, eta in lowers:
        for d, w in tangents:
            pairing = float(xi @ d) + float(eta @ w)
            nrm = (1 + np.linalg.norm(xi) + np.linalg.norm(eta)) * \
                  (1 + np.linalg.norm(d) + np.linalg.norm(w))
            worst = max(worst, pairing / nrm)
    assert worst <= 1e-8


def test_samplers_reject_unverified_multiplier():
    # the samplers' base pairs are verified by BasePair's constructor:
    # lam = 0 is no multiplier for v = (1, 1, 1)
    sys = example1_system()
    point = BasePoint(sys, XBAR1)
    with pytest.raises(ValueError, match="not a verified multiplier"):
        BasePair(point, np.ones(3), np.zeros(4))
    # a verified multiplier nonzero on the PSD block is out of the exact
    # tangent sampler's reach
    lam = np.concatenate([svec(-np.eye(2)), [-1.0]])
    BasePair(point, sys.adjoint_apply(XBAR1, lam), lam)
    with pytest.raises(ValueError, match="zero block multiplier"):
        ngamma_tangent_generate(sys, XBAR1, lam)


def _soc_normal_cases(s):
    # (y, gd, nonzero expected) in the plus cone, mirrored by s; the
    # outward normal direction at y = (1, 1, 0) is a = (-1, 1, 0)
    cases = [
        ((2.0, 1.0, 0.0), (0.3, -1.0, 2.0), False),   # y interior
        ((0.0, 0.0, 0.0), (0.0, 0.0, 0.0), True),     # apex, gd = 0
        ((0.0, 0.0, 0.0), (2.0, 1.0, 0.0), False),    # apex, gd interior
        ((0.0, 0.0, 0.0), (1.0, 0.6, 0.8), True),     # apex, gd on boundary
        ((1.0, 1.0, 0.0), (0.5, 0.5, 0.3), True),     # boundary, a.gd = 0
        ((1.0, 1.0, 0.0), (1.0, 0.0, 0.0), False),    # boundary, a.gd < 0
    ]
    return [(s * np.array(y), s * np.array(gd), nz) for y, gd, nz in cases]


@pytest.mark.parametrize("sign", ["plus", "minus"])
def test_soc_normal_to_critical_sample_is_exact(sign):
    # zero multiplier: C = T_K(y), and the sample must lie in N_C(gd),
    # that is in the polar of C and orthogonal to gd
    block = SOC(3, sign)
    rng = np.random.default_rng(5)
    for y, gd, nonzero in _soc_normal_cases(block.sign):
        C = block.critical_set(block.point(y, DEFAULT_TOL, y, np.zeros(3)))
        for _ in range(5):
            q = normal_to_critical_sample(block, y, np.zeros(3), gd, rng)
            assert C.polar().dist(q) <= 1e-12 * (1 + np.linalg.norm(q))
            assert abs(q @ gd) <= 1e-12 * (1 + np.linalg.norm(q))
            assert (np.linalg.norm(q) > 0) == nonzero


@pytest.mark.parametrize("sign", ["plus", "minus"])
@pytest.mark.parametrize("A,x", [
    (np.eye(3), np.zeros(3)),                          # apex
    (np.eye(3), np.array([1.0, 1.0, 0.0])),            # boundary point
    (np.array([[1.0], [1.0], [0.0]]), np.zeros(1)),    # apex, gd on a ray
    (np.array([[1.0, 0.0], [1.0, 0.0], [0.0, 1.0]]),   # boundary, gd in a⊥
     np.array([1.0, 0.0])),
])
def test_soc_tangent_samples_certify(sign, A, x):
    # g(x) = s A x over SOC(3, sign): one geometry in both mirrors
    s = 1.0 if sign == "plus" else -1.0
    sys = affine_system(ConeDesc([SOC(3, sign)]), s * A, np.zeros(3))
    pair = BasePair(BasePoint(sys, x), np.zeros(A.shape[1]), np.zeros(3))
    for d, w in ngamma_tangent_generate(sys, x, np.zeros(3), count=8, seed=2):
        assert ngamma_graph_deriv_contains(pair, d, w).verdict == "holds"


# ---------------------------------------------------------------------------
# SOC(1) is the half-line

@pytest.mark.parametrize("F,Fx,expected", [
    (lambda p, x: np.asarray(x) - np.asarray(p), np.eye(2), "holds"),
    (lambda p, x: -np.asarray(p), np.zeros((2, 2)), "fails"),
])
def test_soc1_problem_takes_the_exact_route_like_orthant1(F, Fx, expected):
    # Gamma = {x1 <= 0, x2 >= 0}; with F = -p every point of Gamma solves
    # the inclusion at p = 0, with F = x - p only x = 0 does
    certs = []
    for first in (SOC(1, "minus"), Orthant(1, "minus")):
        sys = affine_system(ConeDesc([first, Orthant(1, "plus")]),
                            np.eye(2), np.zeros(2))
        problem = GEProblem(sys, F=F,
                            Fprime=lambda base, dirn: Fx @ dirn[1] - dirn[0],
                            pbar=np.zeros(2), xbar=np.zeros(2))
        certs.append(solution_map_isolated_calm(problem, np.zeros(2)))
    for cert in certs:
        assert "exact branch enumeration" in cert.method
        assert cert.verdict == expected


# ---------------------------------------------------------------------------
# mirror metamorphic referee: K -> -K with (A, b) -> (-A, -b)

def _mirror(sys):
    """The affine system g(x) = A x + b over K rewritten as -g over -K:
    every block sign flipped and (A, b) negated."""
    x0 = np.zeros(sys.dim_x)
    cone = ConeDesc([b.negate() for b in sys.cone.blocks])
    return affine_system(cone, -sys.jacobian(x0), -sys.g(x0))


def _qualifications(sys, x, v, lam):
    point = BasePoint(sys, x)
    res = multiplier_solve(point, v)
    st = strict_complementarity_check(res)
    verdicts = (srcq_check(BasePair(point, v, lam)).verdict,
                nondegeneracy_check(point).verdict, st.verdict)
    return verdicts, res.lam, st.witness


def _assert_mirror_invariant(sys, x, v, lam):
    mirror = _mirror(sys)
    verdicts, lam_found, st_witness = _qualifications(sys, x, v, lam)
    m_verdicts, m_lam_found, m_st_witness = _qualifications(mirror, x, v,
                                                            -lam)
    assert m_verdicts == verdicts
    assert np.allclose(m_lam_found, -lam_found, atol=1e-10)
    if st_witness is None:
        assert m_st_witness is None
    else:
        assert np.allclose(m_st_witness, -st_witness, atol=1e-10)
    return verdicts


def _calm_verdicts(sys, x, v, lam):
    return [solution_map_isolated_calm(_shifted_problem(s, x, v, 1.0),
                                       sign * lam).verdict
            for s, sign in ((sys, 1.0), (_mirror(sys), -1.0))]


def test_mirror_invariance_example1():
    sys = example1_system()
    zero = _assert_mirror_invariant(sys, XBAR1, np.zeros(3), np.zeros(4))
    hat = _assert_mirror_invariant(sys, XBAR1, EXAMPLE2_VHAT, EXAMPLE2_LAMHAT)
    # srcq(0), srcq(vhat), nondegeneracy, strict complementarity at 0
    assert (zero[0], hat[0], zero[1], zero[2]) == \
        ("holds", "fails", "fails", "fails")
    lam41 = np.concatenate([svec(np.zeros((2, 2))), [-1.0]])
    v41 = sys.jacobian(XBAR1).T @ lam41
    assert _calm_verdicts(sys, XBAR1, v41, lam41) == ["holds", "holds"]


@pytest.mark.parametrize("dim_x,expected", [
    (2, ("fails", "fails", "holds")), (5, ("holds", "holds", "holds"))])
def test_mirror_invariance_mixed_affine_system(dim_x, expected):
    sys, x, v, lam = _mixed_planted(dim_x)
    # srcq, nondegeneracy, strict complementarity
    assert _assert_mirror_invariant(sys, x, v, lam) == expected
    calm = _calm_verdicts(sys, x, v, lam)
    assert calm[0] == calm[1]


def test_mixed_system_holds_on_its_critical_subspace():
    # at dim_x 5 the form is indefinite on span B, but C is a subspace
    # and B^T A B is nonsingular: both mirrors hold without a search
    sys, x, v, lam = _mixed_planted(5)
    for s, sign in ((sys, 1.0), (_mirror(sys), -1.0)):
        problem = _shifted_problem(s, x, v, 1.0)
        cert = solution_map_isolated_calm(problem, sign * lam)
        det = cert.details
        assert cert.verdict == "holds"
        assert "critical subspace" in cert.method
        assert "directions" not in det
        assert det["lambda_min"] < -det["threshold"] < det["threshold"] \
            < det["lambda_max"]
        # F_x = -I and U are symmetric, so A = S here and the compression
        # can be rebuilt from the test's own form
        pair = BasePair(BasePoint(s, x), problem.vbar, sign * lam)
        S = _referee_form(problem, pair)
        B = det["basis"]
        sv = np.linalg.svd(B.T @ S @ B, compute_uv=False)
        assert det["sigma_min"] == pytest.approx(sv[-1], abs=1e-6)
        assert det["sigma_max"] == pytest.approx(sv[0], abs=1e-6)
        assert det["sigma_min"] == pytest.approx(0.4116, abs=1e-4)
        assert det["sigma_max"] == pytest.approx(7.5075, abs=1e-4)
        assert det["sigma_min"] > det["sigma_threshold"]
