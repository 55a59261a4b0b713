"""Acceptance suite: one printed pass/fail line per criterion.

Run with -s to see the lines as they are produced; each criterion is a
separate test so a failure pinpoints the broken guarantee.
"""

import time

import numpy as np
import pytest

from conestab._sets import Tol, DEFAULT_TOL, SignPattern
from conestab.cone_core import ConeDesc, Orthant, SOC, PSD, Zero, Free
from conestab.cli import SCENARIOS
from conestab.cone_geometry import ri_normal_contains, subspace_cone_trivial
from conestab.constraint_system import (
    EXAMPLE1_XBAR as XBAR1, EXAMPLE3_VBAR, SECTION32_KS, affine_system,
    example1_system, BasePoint, multiplier_verify, ngamma_graph_deriv_contains,
    BasePair,
)
from conestab.oracle import (
    fd_proj_deriv, ngamma_graph_residual, polyhedral_trivial_exact,
)
from conestab.proj_deriv import proj_dir_deriv, dnk_contains
from conestab.stability import (
    phi_residual, solution_map_isolated_calm, example41_problem,
)
from conestab.symmat import smat, svec
from graph_samplers import (
    ngamma_tangent_generate, regular_normal_lower_generate,
)


def _report(num, desc, ok):
    print(f"criterion {num}: {'PASS' if ok else 'FAIL'} - {desc}")
    assert ok, f"criterion {num} failed: {desc}"


def _scenario(name, tol=DEFAULT_TOL):
    """`repro`'s entry for the scenario at `tol`: whether each of its
    checks passed, and the objects they read."""
    checks, _, found = SCENARIOS[name](tol)
    return all(got == want for _, got, want in checks), found


def test_criterion_1_example1_regression():
    # strict complementarity fails; the normal cone at the apex is the
    # negative-semidefinite matrices times the nonpositive reals
    t0 = time.perf_counter()
    ok, _ = _scenario("example1")
    elapsed = time.perf_counter() - t0
    _report(1, "example1: strict complementarity fails + normal-cone "
               f"membership table ({elapsed:.2f}s < 1s)", ok and elapsed < 1.0)


def test_criterion_2_example2_regression():
    t0 = time.perf_counter()
    ok, found = _scenario("example2")
    # the witness lives in the adjoint kernel and in the tangent cone to
    # the normal-cone map at lam_hat: matrix part with nonpositive (2,2)
    # entry, nonpositive slack part
    w = found["srcq_vhat"].witness
    ok = ok and float(np.linalg.norm(found["point"].J.T @ w)) \
        <= 1e-6 * float(np.linalg.norm(w))
    ok = ok and smat(w[:3])[1, 1] <= 1e-8 and w[3] <= 1e-8
    elapsed = time.perf_counter() - t0
    _report(2, "example2: srcq holds/fails with kernel witness "
               f"({elapsed:.2f}s < 2s)", ok and elapsed < 2.0)


def test_criterion_3_example3_regression():
    t0 = time.perf_counter()
    ok, found = _scenario("example3")
    point, members = found["point"], found["multipliers"].members
    ok = ok and found["strict"].witness is not None
    # the split (0; diag(-1,0)) is itself a relative-interior multiplier
    lam_named = np.concatenate([np.zeros(3), EXAMPLE3_VBAR])
    ok = ok and multiplier_verify(point, EXAMPLE3_VBAR, lam_named)
    ok = ok and ri_normal_contains(point.sys.cone, point.gx, lam_named)
    ok = ok and all(multiplier_verify(point, EXAMPLE3_VBAR, m)
                    for m in members[:2])
    ok = ok and float(np.linalg.norm(members[0] - members[1])) > 1e-4
    elapsed = time.perf_counter() - t0
    _report(3, "example3: strict complementarity holds, named split is "
               f"relative-interior, two distinct members ({elapsed:.2f}s < 2s)",
            ok and elapsed < 2.0)


def test_criterion_4_example41_regression():
    t0 = time.perf_counter()
    halved = Tol(membership=DEFAULT_TOL.membership / 2,
                 zero=DEFAULT_TOL.zero / 2)
    ok = _scenario("example41")[0] and _scenario("example41", halved)[0]
    elapsed = time.perf_counter() - t0
    _report(4, "example41: srcq holds, nondegeneracy fails, isolated "
               f"calmness holds and is tol-halving stable ({elapsed:.2f}s "
               "< 10s)", ok and elapsed < 10.0)


def test_criterion_5_scalar_residual_regression():
    ok, found = _scenario("section32")
    for (x, lam, v), k in zip(found["sequence"], SECTION32_KS):
        r1, r2 = phi_residual(found["system"], x, lam, v)
        ok = ok and r1[0] == 0.0 and r2[0] == (1.0 / k) ** 2
    _report(5, "scalar system: residual rows exact, subregularity ratios "
               "equal 1/(sqrt(2) k) within 1e-12", ok)


def test_criterion_6_projection_derivative_oracle():
    t0 = time.perf_counter()
    cones = {"orthant5": ConeDesc([Orthant(5, "plus")]),
             "soc4": ConeDesc([SOC(4, "plus")]),
             "psd3": ConeDesc([PSD(3, "plus")])}
    rng = np.random.default_rng(42)
    worst = 0.0
    for K in cones.values():
        for _ in range(100):
            z = rng.standard_normal(K.dim) * 2
            h = rng.standard_normal(K.dim)
            exact = proj_dir_deriv(K, z, h)
            approx, err = fd_proj_deriv(K, z, h)
            rel = float(np.linalg.norm(exact - approx)) / \
                (1.0 + float(np.linalg.norm(exact)))
            worst = max(worst, rel)
    elapsed = time.perf_counter() - t0
    _report(6, "closed-form projection derivative vs finite differences: "
               f"worst relative error {worst:.2e} <= 1e-4 over 300 draws "
               f"({elapsed:.1f}s < 30s)", worst <= 1e-4 and elapsed < 30.0)


def test_criterion_7_dnk_route_agreement():
    from conestab.proj_deriv import GraphPoint
    cones = {
        "orthant": ConeDesc([Orthant(4, "plus")]),
        "orthant_minus": ConeDesc([Orthant(3, "minus")]),
        "soc": ConeDesc([SOC(4, "plus")]),
        "soc_minus": ConeDesc([SOC(3, "minus")]),
        "psd": ConeDesc([PSD(3, "plus")]),
        "psd_minus": ConeDesc([PSD(2, "minus")]),
        "mixed": ConeDesc([PSD(2, "plus"), SOC(3, "minus"),
                           Orthant(2, "plus"), Zero(1), Free(1)]),
    }
    rng = np.random.default_rng(11)
    disagreements = 0
    for K in cones.values():
        for i in range(100):
            gp = GraphPoint.from_z(K, rng.standard_normal(K.dim) * 2)
            h = rng.standard_normal(K.dim)
            if i % 2 == 0:
                dy = K.dir_deriv(gp, h)
                dl = h - dy
            else:
                dy, dl = h, rng.standard_normal(K.dim)
            cert = dnk_contains(K, gp, dy, dl)
            if cert.verdict == "inconclusive":
                disagreements += 1
    _report(7, "graphical-derivative membership routes agree on 100 "
               f"candidates x 7 cones ({disagreements} disagreements)",
            disagreements == 0)


def test_criterion_8_moreau_property_suite():
    cones = {
        "orthant": ConeDesc([Orthant(4, "plus")]),
        "orthant_minus": ConeDesc([Orthant(3, "minus")]),
        "soc": ConeDesc([SOC(4, "plus")]),
        "soc_minus": ConeDesc([SOC(3, "minus")]),
        "psd": ConeDesc([PSD(3, "plus")]),
        "psd_minus": ConeDesc([PSD(2, "minus")]),
        "mixed": ConeDesc([PSD(2, "plus"), SOC(3, "minus"),
                           Orthant(2, "plus"), Zero(1), Free(1)]),
    }
    rng = np.random.default_rng(0)
    worst = 0.0
    for K in cones.values():
        Kp = K.polar()
        for _ in range(1000):
            z = rng.standard_normal(K.dim) * 3
            p = K.project(z)
            q = Kp.project(z)
            scale = 1.0 + float(np.linalg.norm(z))
            worst = max(worst,
                        float(np.linalg.norm(p + q - z)) / scale,
                        abs(float(p @ q)) / scale ** 2)
    _report(8, "Moreau decomposition + orthogonality over 1000 points per "
               f"cone: worst residual {worst:.2e} <= 1e-10", worst <= 1e-10)


def _criterion_9_pairs():
    """The base pair of criterion 9 and its 50 (d, w) pairs: 25 generated
    members, 13 gate violations and 12 members pushed off by a spike."""
    sys = example1_system()
    pair = BasePair(BasePoint(sys, XBAR1), np.zeros(3), np.zeros(4))
    members = ngamma_tangent_generate(sys, XBAR1, np.zeros(4), count=25,
                                      seed=4)
    rng = np.random.default_rng(21)
    spike = sys.adjoint_apply(XBAR1, np.concatenate([svec(np.eye(2)), [1.0]]))
    pairs = list(members)
    for i in range(25):
        d = rng.standard_normal(3)
        w = rng.standard_normal(3)
        if i % 2 == 0:
            # push the slack direction infeasible: the gate must fire
            d[2] = -1.0 - abs(d[2])
        else:
            d, _ = members[i % len(members)]
            w = members[i % len(members)][1] + (0.5 + abs(rng.standard_normal())) * spike
        pairs.append((d, w))
    return pair, pairs


def test_criterion_9_graph_derivative_referee():
    pair, pairs = _criterion_9_pairs()
    sys = pair.sys
    v0 = np.zeros(3)
    disagreements = 0
    for d, w in pairs:
        cert = ngamma_graph_deriv_contains(pair, d, w)
        res = ngamma_graph_residual(sys, XBAR1, v0, d, w)
        scale = 1.0 + float(np.linalg.norm(d)) + float(np.linalg.norm(w))
        if res[-1] <= 1e-6 * scale:
            oracle = "holds"
        elif res[-1] >= 1e-4 * scale:
            oracle = "fails"
        else:
            oracle = "unresolved"
        if oracle != "unresolved" and cert.verdict != oracle:
            disagreements += 1
    _report(9, "graphical-derivative certificates vs finite-t graph "
               f"residual on 50 pairs ({disagreements} disagreements)",
            disagreements == 0)


def _check_fails_certificate(pair, d, w, cert):
    """A `fails` from ngamma_graph_deriv_contains: either the critical-cone
    gate fired, or the fiber's Farkas certificate re-verifies against the
    fiber system, rebuilt here from its definition.  Returns the number
    of certificates checked."""
    tol = pair.tol
    scale = 1.0 + float(np.linalg.norm(d)) + float(np.linalg.norm(w))
    det = cert.details
    if "fiber_residual" not in det:
        assert det["critical_gate"] > tol.membership * scale
        return 0
    assert "fiber_farkas" in det, "fails past the gate without a Farkas " \
        "certificate"
    gd = pair.J @ d
    u = pair.sys.cone.upsilon_grad(pair.graph_point, gd)
    # the fiber: A xi = b, xi in C°, with A = J^T and b = w - Hd - J^T u / 2;
    # an h with one entry more certifies the system with the row
    # gd^T / ||gd|| and the entry 0 appended (xi in gd⊥)
    A, b = pair.J.T, w - pair.hess @ d - 0.5 * (pair.J.T @ u)
    farkas = det["fiber_farkas"]
    h, ys, bound = np.asarray(farkas["h"]), farkas["y"], farkas["bound"]
    if h.size == b.size + 1:
        A, b = np.vstack([A, gd / np.linalg.norm(gd)]), np.append(b, 0.0)
    assert len(ys) == 1
    assert np.linalg.norm(A.T @ h - ys[0]) <= 1e-12 * (
        1.0 + np.linalg.norm(A) * np.linalg.norm(h))
    gain = float(h @ b)
    assert gain > 0.0
    assert bound == pytest.approx(
        gain / (np.linalg.norm(h) + np.linalg.norm(ys[0])), rel=1e-12)
    # y in the polar of C°, which is C
    assert pair.critical.dist(ys[0]) <= 1e-12 * (1 + np.linalg.norm(ys[0]))
    assert cert.residual == bound
    return 1


def test_ngamma_fails_only_at_gate_or_with_certificate():
    from test_stability import _axes_then_gaussian, _inclusion_pairs

    pair, pairs = _criterion_9_pairs()
    certified = gated = 0
    for d, w in pairs:
        cert = ngamma_graph_deriv_contains(pair, d, w)
        if cert.verdict == "fails":
            n = _check_fails_certificate(pair, d, w, cert)
            certified += n > 0
            gated += n == 0
    assert certified == 12 and gated == 13

    problem = example41_problem()
    pair41 = BasePair(BasePoint(problem.sys, problem.xbar), problem.vbar,
                      problem.lam_hint)
    certified = []
    for i, (d, w) in enumerate(_inclusion_pairs(
            problem, _axes_then_gaussian(3, 256))):
        cert = ngamma_graph_deriv_contains(pair41, d, w)
        assert cert.verdict == "fails", i
        if _check_fails_certificate(pair41, d, w, cert):
            certified.append((i, cert.details["fiber_farkas"]["cycle"]))
    # the definiteness certificate decides without a direction search
    assert solution_map_isolated_calm(problem, problem.lam_hint).verdict \
        == "holds"
    # the two gate-passing directions, the axes e_1 and e_2, have
    # <d, r> != 0 on their fibers, which puts the right-hand side off the
    # fiber's span: the closed-form certificate decides both (cycle 0),
    # so no direction is a witness
    assert certified == [(0, 0), (2, 0)]


def test_ngamma_uncertified_stall_is_inconclusive(monkeypatch):
    # d = 0 and w = J^T xi for xi in int K: a fiber point xi' in C° = K°
    # would give 0 >= <xi', p> = <xi, p> > 0 for the interior point
    # p = J (1, 1, 1) of K, so the fiber is empty.  Its right-hand side
    # is on the span and its kernel line has an empty interval, so the
    # Dykstra fallback decides, by its certificate.  With every Dykstra
    # certificate withheld, each of these runs stalls twice and is
    # inconclusive; the criterion-9 pairs, decided at the gate or in
    # closed form, keep their verdicts
    import dataclasses
    import conestab.constraint_system as cs

    real = cs.dykstra

    def uncertified(*args, **kwargs):
        z, info = real(*args, **kwargs)
        return z, dataclasses.replace(info, farkas=None)

    pair, pairs = _criterion_9_pairs()
    rng = np.random.default_rng(303)
    for _ in range(12):
        G = rng.standard_normal((2, 2))
        xi = np.concatenate([svec(G @ G.T + 0.1 * np.eye(2)),
                             [0.1 + abs(rng.standard_normal())]])
        pairs.append((np.zeros(3), pair.J.T @ xi))
    before = [ngamma_graph_deriv_contains(pair, d, w) for d, w in pairs]
    monkeypatch.setattr(cs, "dykstra", uncertified)
    stalled = 0
    for (d, w), old in zip(pairs, before):
        cert = ngamma_graph_deriv_contains(pair, d, w)
        if old.details.get("fiber_route") == "Dykstra search":
            stalled += 1
            assert old.verdict == "fails" and "fiber_farkas" in old.details
            assert cert.verdict == "inconclusive"
            assert cert.method.endswith("(no Farkas certificate)")
            assert cert.residual == cert.details["fiber_residual"]
        else:
            assert cert.verdict == old.verdict
    assert stalled == 12


def _criterion_10_instances():
    """(codes, L) pairs: the original 50 draws (whose code list draws
    FREE twice and never ZERO), 50 draws over all four codes, and 30
    rank-deficient bases of one line, k >= 2 multiples of one vector q;
    every other such q is projected onto the cone first, so the line
    meets it whenever the projection is not 0."""
    rng = np.random.default_rng(7)
    for _ in range(50):
        dim = int(rng.integers(2, 7))
        codes = [int(rng.choice([0, 1, -1, SignPattern.FREE]))
                 for _ in range(dim)]
        k = int(rng.integers(1, dim))
        yield codes, rng.standard_normal((dim, k))
    all_codes = [SignPattern.FREE, SignPattern.NONNEG, SignPattern.NONPOS,
                 SignPattern.ZERO]
    rng = np.random.default_rng(10)
    for i in range(80):
        dim = int(rng.integers(2, 7))
        codes = [int(c) for c in rng.choice(all_codes, size=dim)]
        if i < 50:
            L = rng.standard_normal((dim, int(rng.integers(1, dim))))
        else:
            q = rng.standard_normal(dim)
            if i % 2:
                q = SignPattern(codes).project(q)
            L = np.outer(q, rng.standard_normal(int(rng.integers(2, 4))))
        yield codes, L


def _halfspace_rows(codes):
    """Inequality rows A (A z <= 0) and equality rows E (E z = 0) of the
    sign pattern `codes`, each in coordinate order."""
    codes = np.asarray(codes)
    eye = np.eye(codes.size)
    side = np.select([codes == SignPattern.NONNEG,
                      codes == SignPattern.NONPOS], [-1.0, 1.0], 0.0)
    return (side[:, None] * eye)[side != 0], eye[codes == SignPattern.ZERO]


def test_criterion_10_polyhedral_triviality_referee():
    mismatches = count = 0
    for codes, L in _criterion_10_instances():
        C = SignPattern(codes)
        ineq, eq = _halfspace_rows(codes)
        exact = polyhedral_trivial_exact(ineq, L, equalities=eq)
        cert = subspace_cone_trivial(L, C)
        got = {"holds": True, "fails": False}.get(cert.verdict)
        if got != exact:
            mismatches += 1
        count += 1
    _report(10, "triviality decision vs exact ray enumeration on "
                f"{count} random sign-pattern instances "
                f"({mismatches} mismatches)",
            mismatches == 0 and count == 130)


def test_criterion_11_anti_alignment():
    worst = -np.inf

    def run(sys, x, v, lam):
        nonlocal worst
        # the lower generators are built from the package's critical
        # cone, the tangents from the samplers' own block geometry
        pair = BasePair(BasePoint(sys, x), v, lam)
        tangents = ngamma_tangent_generate(sys, x, lam, count=50, seed=4)
        lowers = regular_normal_lower_generate(sys, x, lam, pair.critical,
                                               count=20, seed=0)
        for xi, eta in lowers:
            for d, w in tangents:
                pairing = float(xi @ d) + float(eta @ w)
                nrm = (1 + np.linalg.norm(xi) + np.linalg.norm(eta)) * \
                      (1 + np.linalg.norm(d) + np.linalg.norm(w))
                worst = max(worst, pairing / nrm)

    run(example1_system(), XBAR1, np.zeros(3), np.zeros(4))

    rng = np.random.default_rng(3)
    A = rng.standard_normal((3, 3))
    x0 = rng.standard_normal(3)
    b = np.array([0.0, 0.5, 1.3]) - A @ x0
    sys = affine_system(ConeDesc([Orthant(3, "plus")]), A, b)
    # zero multiplier at a point with one active coordinate: the critical
    # cone has interior, so exact tangent sampling succeeds
    lam = np.zeros(3)
    assert multiplier_verify(BasePoint(sys, x0), np.zeros(3), lam)
    run(sys, x0, np.zeros(3), lam)

    _report(11, "lower generators anti-align with sampled graph tangents: "
                f"worst normalized pairing {worst:.2e} <= 1e-8",
            worst <= 1e-8)
