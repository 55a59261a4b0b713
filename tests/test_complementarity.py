"""Referee suite for strict complementarity: every decisive verdict is
re-derived from its certificate, compared with the old candidate check
where that check is decisive, and held fixed under mirroring, scaling of
v and block permutation; plus the one-search cost on large adjoint
kernels."""

import time

import numpy as np
import pytest

from conestab import constraint_system
from conestab._sets import DEFAULT_TOL
from conestab.cone_core import ConeDesc, Orthant, SOC, PSD, Zero, Free
from conestab.constraint_system import (
    EXAMPLE1_XBAR as XBAR1, EXAMPLE2_VHAT, EXAMPLE3_XBAR, EXAMPLE3_VBAR,
    BasePoint, affine_system, example1_system, example3_system,
    multiplier_solve, multiplier_verify, strict_complementarity_check)
from conestab.proj_deriv import GraphPoint
from conestab.symmat import smat, svec
from test_cones import _pairs
from test_stability import _permuted
from test_tooling import _old_strict_complementarity

TOL = 1e-8


def _rank(M, cut=1e-7):
    w = np.linalg.eigvalsh(M)
    return int(np.sum(np.abs(w) > cut * max(1.0, np.abs(w).max())))


def _ri_normal_ref(cone, y, lam, cut=1e-7):
    """lam in ri N_K(y) for a multiplier lam, block by block: the face
    N_K(y) = K° ∩ y^perp of K° has lam in its relative interior when
    lam is as far from 0 as the face allows (PSD: rank Y + rank Lambda
    = n; SOC: lam nonzero on a boundary ray, interior of -K at the apex,
    0 at an interior y; orthant: lam_i < 0 where y_i = 0; free: lam =
    0)."""
    for b, sl in zip(cone.blocks, cone.slices):
        s = b.sign if b.signed else 1
        yb, lb = s * y[sl], s * lam[sl]
        kind = type(b).__name__
        scale = cut * (1.0 + np.abs(lb).max(initial=0.0))
        if kind == "PSD":
            ok = _rank(smat(yb)) + _rank(smat(lb)) == b.order
        elif kind == "SOC":
            y0, ybar = yb[0], np.linalg.norm(yb[1:])
            if y0 > ybar + cut:
                ok = np.linalg.norm(lb) <= scale
            elif y0 <= cut:
                ok = -lb[0] - np.linalg.norm(lb[1:]) > scale
            else:
                ok = np.linalg.norm(lb) > scale
        elif kind == "Orthant":
            ok = bool(np.all(lb[np.abs(yb) <= cut] < -scale))
        elif kind == "Zero":
            ok = True
        elif kind == "Free":
            ok = np.linalg.norm(lb) <= scale
        else:
            raise AssertionError(f"no reference for {kind}")
        if not ok:
            return False
    return True


_PRIMITIVES = [Orthant(3), Orthant(3, "minus"), SOC(4), SOC(4, "minus"),
               PSD(3), PSD(3, "minus"), Zero(3), Free(3)]


@pytest.mark.parametrize("cone", [ConeDesc([b]) for b in _PRIMITIVES]
                         + [ConeDesc(_PRIMITIVES)], ids=repr)
def test_critical_is_subspace_is_ri_normal(cone):
    # lam in ri N_K(y) exactly when the critical cone at (y, lam) is a
    # subspace, on Moreau pairs and their faces with lam = 0 or y = 0
    rng = np.random.default_rng(41)
    seen = set()
    for y, lam in _pairs(cone, rng, 30):
        gp = GraphPoint.of_pair(cone, y, lam, DEFAULT_TOL)
        assert gp.critical_is_subspace == _ri_normal_ref(cone, y, lam)
        seen.add(gp.critical_is_subspace)
    # a subspace's normal cone is itself a subspace
    signed = any(b.signed for b in cone.blocks)
    assert seen == ({True, False} if signed else {True})


def _pointed_projector(point):
    """The projector P onto (lin T)^perp, T = T_K(g(x))."""
    Lin = point.tangent.lineality_basis()
    if Lin.shape[1] == 0:
        return np.eye(point.gx.size)
    q = np.linalg.svd(Lin, full_matrices=False)[0]
    return np.eye(point.gx.size) - q @ q.T


def _rederive(sys, x, v, cert):
    """Re-check a decisive strict-complementarity certificate from its
    own data; returns the verdict."""
    point = BasePoint(sys, x)
    T = point.tangent
    if cert.verdict == "holds" and cert.witness is not None:
        # a verified relative-interior multiplier
        lam = cert.witness
        assert multiplier_verify(point, v, lam)
        assert _ri_normal_ref(sys.cone, point.gx, lam)
    elif cert.verdict == "holds":
        # no u with <u, v> = 0 and Ju in T outside lin T, that is
        # span(P J U_v) ∩ C = {0} for C = T ∩ (lin T)^perp, whose
        # projection is Pi_C(u) = Pi_T(P u)
        P = _pointed_projector(point)
        Uv = np.linalg.svd(v.reshape(1, -1))[2][int(np.any(v != 0)):].T
        L = P @ sys.jacobian(x) @ Uv
        if "dist_plus" in cert.details:
            # a line span{q}: both of ±q are far from C
            assert np.linalg.matrix_rank(L, 1e-9 * np.linalg.norm(L)) == 1
            q = np.linalg.svd(L)[0][:, 0]
            dists = sorted(float(np.linalg.norm(t * q - T.project(P @ (t * q))))
                           for t in (1.0, -1.0))
            assert dists == pytest.approx(sorted(
                cert.details[k] for k in ("dist_plus", "dist_minus")),
                rel=0.0, abs=1e-12)
            assert dists[0] >= np.sqrt(TOL)
            return cert.verdict
        # every slice of span(P J U_v) has its radius R re-read from h
        # above sqrt(k)
        Q, W = cert.details["basis"], cert.details["complement"]
        n, k = Q.shape
        assert np.allclose(Q.T @ Q, np.eye(k), atol=1e-12)
        assert np.linalg.norm(L - Q @ (Q.T @ L)) <= 1e-9 * (
            1 + np.linalg.norm(L))
        assert np.linalg.matrix_rank(L, 1e-9 * np.linalg.norm(L)) == k
        assert sorted((s["j"], s["sign"]) for s in cert.details["slices"]) \
            == sorted((j, s) for j in range(k) for s in (1.0, -1.0))
        for s in cert.details["slices"]:
            M = np.vstack([Q[:, s["j"]], W.T])
            b = np.concatenate([[s["sign"]], np.zeros(n - k)])
            u = M.T @ s["h"]
            # dist(u, C°) = ||Pi_C(u)||
            reread = float(s["h"] @ b) / np.linalg.norm(T.project(P @ u))
            assert reread >= s["radius"] * (1 - 1e-9) and reread > np.sqrt(k)
    elif "u" in cert.details:
        # u with <u, v> = 0 and Ju in T outside lin T: every multiplier
        # lies in the proper face N ∩ (Ju)^perp
        u, Ju = cert.details["u"], cert.witness
        assert np.allclose(Ju, sys.jacobian(x) @ u, atol=1e-12)
        assert abs(u @ v) <= TOL * (1 + np.linalg.norm(u) * np.linalg.norm(v))
        assert T.dist(Ju) <= 10 * TOL * (1 + np.linalg.norm(Ju))
        # Ju in lin T would put -Ju in T too
        assert T.dist(-Ju) > 1e-3 * np.linalg.norm(Ju)
    else:
        # the only multiplier, certified unique by srcq, is not
        # relative-interior
        lam = cert.witness
        assert cert.details["srcq"].verdict == "holds"
        assert multiplier_verify(point, v, lam)
        assert not _ri_normal_ref(sys.cone, point.gx, lam)
    return cert.verdict


def _mirror(sys):
    """The affine system g(x) = A x + b over K rewritten as -g over -K;
    {0} and the whole space are their own mirrors."""
    x0 = np.zeros(sys.dim_x)
    cone = ConeDesc([type(b)(b.size, -b.sign) if b.signed else b
                     for b in sys.cone.blocks])
    return affine_system(cone, -sys.jacobian(x0), -sys.g(x0))


def _verdict(sys, x, v):
    return strict_complementarity_check(
        multiplier_solve(BasePoint(sys, x), v)).verdict


def _cases(planted, wide_fiber):
    """(label, sys, x, v): planted problems with the planted
    relative-interior multiplier and with one and two blocks of it
    zeroed, srcq holding and failing, plus example1, example3, the two
    wide fibers and one large adjoint kernel.  When
    srcq fails, the adjoint kernel is a line of block-wise multiples of
    the planted multiplier, so it restores one zeroed block and two
    exactly when their multiples have one sign."""
    for seed in range(3):
        for srcq_holds in (True, False):
            sys, x, v, lam, _ = planted(seed, srcq_holds)
            yield f"planted({seed}, {srcq_holds})", sys, x, v
            zeroed = lam.copy()
            for count, block in enumerate((seed % 3, (seed + 1) % 3), 1):
                zeroed[sys.cone.slices[block]] = 0.0
                yield (f"planted({seed}, {srcq_holds}), {count} blocks "
                       "zeroed", sys, x, sys.jacobian(x).T @ zeroed)
    sys1 = example1_system()
    yield "example1 v=0", sys1, XBAR1, np.zeros(3)
    yield "example1 vhat", sys1, XBAR1, EXAMPLE2_VHAT
    yield "example3", example3_system(), EXAMPLE3_XBAR, EXAMPLE3_VBAR
    # planes of multipliers: the alternative runs on a line span(P J U_v)
    for ri in (True, False):
        sys, x, v, _, _ = wide_fiber(ri)
        yield f"wide fiber (ri={ri})", sys, x, v
    # a nine-dimensional adjoint kernel whose searched multiplier is not
    # relative-interior: span(P J U_v) has rank 3, so the alternative
    # holds by its slices
    sys, x, v, _ = _large_kernel_draw(2)
    yield "large kernel 2", sys, x, v


def test_strict_complementarity_referee(planted, wide_fiber):
    seen = {}
    for label, sys, x, v in _cases(planted, wide_fiber):
        res = multiplier_solve(BasePoint(sys, x), v)
        cert = strict_complementarity_check(res)
        assert cert.verdict in ("holds", "fails"), label
        assert _rederive(sys, x, v, cert) == cert.verdict, label
        old = _old_strict_complementarity(sys, x, v)
        if old != "inconclusive":
            assert cert.verdict == old, label
        kind = ("step 1" if cert.verdict == "holds" and cert.witness is not
                None else "step 2" if "srcq" in cert.details else "step 3")
        route = "line" if "dist_plus" in cert.details else \
            "slices" if kind == "step 3" else None
        seen[kind, cert.verdict, route] = \
            seen.get((kind, cert.verdict, route), 0) + 1
        # the same problem in mirrored or permuted coordinates, and with
        # v scaled, gets the same verdict
        assert _verdict(_mirror(sys), x, v) == cert.verdict, label
        for t in (0.5, 3.0):
            assert _verdict(sys, x, t * v) == cert.verdict, (label, t)
        order = list(range(len(sys.cone.blocks)))[::-1]
        assert _verdict(_permuted(sys, order)[0], x, v) == cert.verdict, \
            label
    # each step, and each verdict of the alternative by each route of
    # the triviality decision, is exercised
    assert set(seen) == {("step 1", "holds", None), ("step 2", "fails", None),
                         ("step 3", "holds", "line"),
                         ("step 3", "holds", "slices"),
                         ("step 3", "fails", "line"),
                         ("step 3", "fails", "slices")}, seen


def _large_kernel_draw(seed, d=((1.1, 0.6), (0.8, 1.7)), last=0.0):
    """PSD(3) x -PSD(3) x R_- with dim_x 4 and Gaussian A, at rank-one
    faces of the PSD blocks and 0 on R_-; the planted multiplier has
    eigenvalues `d` on the complements of those faces and `last` on R_-
    (by default relative-interior on the PSD blocks and 0 on R_-, so it
    lies on a proper face of N_K(y)).  The adjoint kernel has dimension
    9.  Returns (sys, x, v, lam)."""
    rng = np.random.default_rng(seed)
    ys, lams = [], []
    for s, e in zip((1.0, -1.0), d):
        U, _ = np.linalg.qr(rng.standard_normal((3, 3)))
        ys.append(s * svec(1.3 * np.outer(U[:, 0], U[:, 0])))
        lams.append(-s * svec(U[:, 1:] @ np.diag(e) @ U[:, 1:].T))
    y = np.concatenate(ys + [[0.0]])
    lam = np.concatenate(lams + [[last]])
    A = rng.standard_normal((13, 4))
    x = rng.standard_normal(4)
    sys = affine_system(ConeDesc([PSD(3), PSD(3, "minus"),
                                  Orthant(1, "minus")]), A, y - A @ x)
    return sys, x, A.T @ lam, lam


def test_large_adjoint_kernels_take_one_search(monkeypatch):
    # the verdicts are those of the re-seeded search with candidate
    # averages (1 + 2 * 9 Dykstra runs, 0.3-0.8 s per draw on a 2-CPU
    # VM); one run from the least-squares seed decides them
    calls = []
    dykstra = constraint_system.dykstra

    def counted(*args, **kwargs):
        calls.append(1)
        return dykstra(*args, **kwargs)

    monkeypatch.setattr(constraint_system, "dykstra", counted)
    for seed in range(6):
        sys, x, v, _ = _large_kernel_draw(seed)
        assert np.linalg.matrix_rank(sys.jacobian(x).T) == 4
        del calls[:]
        t0 = time.perf_counter()
        res = multiplier_solve(BasePoint(sys, x), v)
        cert = strict_complementarity_check(res)
        elapsed = time.perf_counter() - t0
        assert (res.srcq.verdict, cert.verdict) == ("fails", "holds"), seed
        assert res.route == "Dykstra search" and len(calls) <= 1, seed
        assert elapsed < 0.5, (seed, elapsed)


def test_a_search_that_stalls_twice_is_undecided(monkeypatch, analyze):
    # a multiplier exists (the planted one verifies), but Dykstra stalls
    # without a certificate from the least-squares seed and again from
    # its last iterate: the search decided nothing, and no caller may read
    # it as "not found"
    from conestab.jsonio import emit_cone
    from conestab.stability import GEProblem

    sys, x, v, lam = _large_kernel_draw(6, ((1.1, 0.0), (0.0, 1.7)), 0.9)
    point = BasePoint(sys, x)
    assert multiplier_verify(point, v, lam)
    infos = []
    dykstra = constraint_system.dykstra

    def spy(*args, **kwargs):
        z, info = dykstra(*args, **kwargs)
        infos.append(info)
        return z, info

    monkeypatch.setattr(constraint_system, "dykstra", spy)
    res = multiplier_solve(point, v, with_uniqueness=False)
    assert not res.found and res.farkas is None
    assert [(i.stalled, i.farkas) for i in infos] == [(True, None)] * 2
    with pytest.raises(ValueError, match="undecided"):
        strict_complementarity_check(multiplier_solve(point, v))
    with pytest.raises(ValueError, match="undecided"):
        GEProblem(sys, F=lambda p, x: -v, Fprime=lambda base, dirn: 0 * v,
                  pbar=np.zeros(1), xbar=x)
    A = sys.jacobian(x)
    problem = {"cone": emit_cone(sys.cone),
               "mapping": {"affine": {"A": A, "b": sys.g(x) - A @ x}}}
    rc, report = analyze(problem, {"x": x, "v": v})
    assert rc == 0
    assert [c["name"] for c in report["certificates"]] == ["nondegeneracy"]
    assert any(l.startswith("multiplier: inconclusive (search stalled, "
                            "residual=") for l in report["lines"])
