"""The fiber solve, "A xi = b with xi in a coded cone", on seeded fibers
of both of its callers, against a direct Dykstra reference.

The multiplier fibers are affine systems g(x) = A x + b at a point with
g(x) = y, with A^T k = 0 for a unit k in span N_K(y) and
ker A^T ∩ span N_K(y) = span{k}, and v = A^T lam0 for a planted lam0 in
span N_K(y); the multiplier set is then (lam0 + span{k}) ∩ N_K(y).  The
graph-derivative fibers {xi in C° ∩ gd⊥ : J^T xi = r} are planted on a
graph point (y, lam) of every primitive cone, in both mirrors, with a
kernel over span C° of dimension 0 or 1: through a member, off the
fiber's span (<d, r> != 0) and empty by a Farkas vector of the line.
The reference is one Dykstra run between the affine set and the cone
from the least-squares seed, and one more after a stall without a
certificate, made here and not through the package's solver; the
solver must agree with it wherever it decides, and every Farkas vector
is checked again in closed form, with its y in the polar of the cone.
"""

import numpy as np
import pytest

from conestab._sets import DEFAULT_TOL, AffineSet, dykstra
from conestab.cone_core import PSD, SOC, ConeDesc, Free, Orthant, Zero
from conestab.cone_geometry import ri_normal_contains
from conestab.constraint_system import (
    BasePair, BasePoint, MultiplierSolveResult, affine_system,
    multiplier_solve, multiplier_verify, ngamma_graph_deriv_contains,
    srcq_check, strict_complementarity_check, _null_basis,
)
from conestab.symmat import svec


def _unit(z):
    return z / np.linalg.norm(z)


def _span_normal(cone, y):
    """An orthonormal basis of span N_K(y), read by a base point of the
    system g = y."""
    return BasePoint(affine_system(cone, np.zeros((cone.dim, 1)), y),
                     [0.0]).critical_data.span_critical_polar


def _system(rng, cone, y, k, lam0):
    """(sys, x, v) with g(x) = y, A^T k = 0 and v = A^T lam0, A of
    dim span N - 1 columns, so ker A^T ∩ span N = span{k}."""
    n = _span_normal(cone, y).shape[1] - 1
    G = rng.standard_normal((cone.dim, n))
    A = G - np.outer(k, k @ G)
    x = rng.standard_normal(n)
    return affine_system(cone, A, y - A @ x), x, A.T @ lam0


def _soc_frame(rng, m):
    """Two orthonormal vectors of R^(m-1)."""
    q, _ = np.linalg.qr(rng.standard_normal((m - 1, 2)))
    return q[:, 0], q[:, 1]


def _psd_face(rng, sign, diag):
    U, _ = np.linalg.qr(rng.standard_normal((len(diag), len(diag))))
    return sign * svec(U @ np.diag(diag) @ U.T)


def _random_draw(rng, cone, y):
    """A random unit k of span N and lam0 the projection of a Gaussian
    vector onto N: at the apex, on the boundary or inside."""
    B = _span_normal(cone, y)
    k = _unit(B @ rng.standard_normal(B.shape[1]))
    N = cone.tangent_set(y, DEFAULT_TOL).polar()
    return k, N.project(rng.standard_normal(cone.dim))


def _random_cases():
    """(label, cone, y) of the random draws."""
    rng = np.random.default_rng(35)
    for sign in (1, -1):
        for m in range(3, 7):
            u, _ = _soc_frame(rng, m)
            yield f"SOC({m},{sign}) apex", ConeDesc([SOC(m, sign)]), \
                np.zeros(m)
            yield f"SOC({m},{sign}) boundary", \
                ConeDesc([SOC(m, sign), Orthant(2)]), \
                np.concatenate([sign * np.concatenate([[1.0], u]), [0, 0]])
        yield f"PSD(2,{sign}) apex", ConeDesc([PSD(2, sign)]), np.zeros(3)
        yield f"PSD(3,{sign}) beta 1", ConeDesc([PSD(3, sign), Orthant(2)]), \
            np.concatenate([_psd_face(rng, sign, [2.0, 1.0, 0.0]), [0, 0]])
        yield f"PSD(3,{sign}) beta 2", ConeDesc([PSD(3, sign)]), \
            _psd_face(rng, sign, [1.0, 0.0, 0.0])
        u, _ = _soc_frame(rng, 3)
        yield f"zero x orthant ({sign})", ConeDesc([Zero(3), Orthant(1, sign)]), \
            np.array([0.0, 0.0, 0.0, sign])
        yield f"orthant x ray x free x zero ({sign})", \
            ConeDesc([Orthant(3, sign), SOC(3, -sign), Zero(2), Free(2)]), \
            np.concatenate([sign * np.array([0.0, 0.0, 1.5]),
                            -sign * np.concatenate([[1.0], u]),
                            [0.0, 0.0], rng.standard_normal(2)])


def _planted_cases(sign):
    """(label, cone, y, k, lam0, kind): lines that meet N_K(y) in one
    point ("one point") or miss it ("empty"), at the apex of
    SOC(4, sign), R^3 signed and PSD(2, sign), whose normal cone is the
    mirror of each."""
    rng = np.random.default_rng(36)
    u, w = _soc_frame(rng, 4)
    soc = ConeDesc([SOC(4, sign)])
    for r, kind in ((1.0, "one point"), (2.0, "empty")):
        # -sign (1, r u) + t (0, w): ||r u + t w|| <= 1 only at r = 1, t = 0
        yield f"SOC(4,{sign}) {kind}", soc, np.zeros(4), \
            np.concatenate([[0.0], w]), \
            -sign * np.concatenate([[1.0], r * u]), kind
    orth = ConeDesc([Orthant(3, sign)])
    yield f"orthant({sign}) one point", orth, np.zeros(3), \
        _unit(np.array([1.0, -1.0, 0.0])), -sign * np.array([0.0, 0.0, 1.0]), \
        "one point"
    yield f"orthant({sign}) empty", orth, np.zeros(3), \
        _unit(np.array([0.0, 1.0, -1.0])), -sign * np.array([-0.5, 1.0, 1.0]), \
        "empty"
    q, p = np.linalg.qr(rng.standard_normal((2, 2)))[0].T
    psd = ConeDesc([PSD(2, sign)])
    k = _unit(svec(np.outer(q, p) + np.outer(p, q)))
    for d, kind in ((0.0, "one point"), (-1.0, "empty")):
        # -sign (q q^T + d p p^T) + t k is in N only at d = 0, t = 0
        yield f"PSD(2,{sign}) {kind}", psd, np.zeros(3), k, \
            -sign * svec(np.outer(q, q) + d * np.outer(p, p)), kind


@pytest.mark.parametrize("sign", [1, -1], ids=["plus", "minus"])
def test_line_interval_matches_a_membership_scan(sign):
    # the closed-form interval against the set's own distance along the
    # line, for lines in the span of the normal cones of SOC(m) and
    # PSD(2) at the apex, of PSD(3) with a beta block of order 2, and of
    # R^4_+ at the apex; t is inside by the scan exactly when it is
    # inside the interval, away from its ends
    rng = np.random.default_rng(3505)
    cones = [(ConeDesc([SOC(m, sign)]), np.zeros(m)) for m in (3, 5)] + [
        (ConeDesc([PSD(2, sign)]), np.zeros(3)),
        (ConeDesc([PSD(3, sign)]), _psd_face(rng, sign, [1.0, 0.0, 0.0])),
        (ConeDesc([Orthant(4, sign)]), np.zeros(4))]
    grid = np.linspace(-4.0, 4.0, 321)
    for cone, y in cones:
        N = cone.tangent_set(y, DEFAULT_TOL).polar()
        B = _span_normal(cone, y)
        for _ in range(10):
            a = N.project(B @ rng.standard_normal(B.shape[1])) + \
                0.3 * B @ rng.standard_normal(B.shape[1])
            k = _unit(B @ rng.standard_normal(B.shape[1]))
            lo, hi = N.line_interval(a, k)
            for t in grid:
                if min(abs(t - lo), abs(t - hi)) > 1e-6:
                    assert (N.dist(a + t * k) <= 1e-12) == (lo <= t <= hi), \
                        (cone, t, lo, hi)


def _dykstra_reference(A, b, cone, tol=DEFAULT_TOL):
    """(xi, info): one Dykstra run between {A xi = b} and the cone from
    the least-squares seed, one more from its last iterate after a stall
    without a certificate."""
    sets = AffineSet(A, b), cone
    xi, info = dykstra(*sets, np.linalg.lstsq(A, b, rcond=None)[0], tol)
    if info.stalled and info.farkas is None:
        xi, info = dykstra(*sets, xi, tol)
    return xi, info


def _recheck_farkas(A, b, polar, h, ys, bound):
    """A Farkas certificate of {A xi = b} ∩ cone, checked in closed form:
    one y, A^T h = y to rounding, a positive gain <h, b>, the bound the
    gain over ||h|| + ||y||, and y in `polar`, the polar of the cone,
    which the package's own test does not check."""
    (y,) = ys
    h, y = np.asarray(h, float), np.asarray(y, float)
    assert np.linalg.norm(A.T @ h - y) <= 1e-12 * (
        1.0 + np.linalg.norm(A) * np.linalg.norm(h))
    gain = float(h @ b)
    assert gain > 0.0
    assert bound == pytest.approx(
        gain / (np.linalg.norm(h) + np.linalg.norm(y)), rel=1e-12)
    assert polar.dist(y) <= 1e-12 * (1.0 + np.linalg.norm(y))


def _both_routes(sys, x, v):
    """(point, res, ref): the search, and the Dykstra reference on its
    fiber and normal cone as a search result, with the pair and srcq
    certificate of the multiplier it finds."""
    point = BasePoint(sys, x)
    res = multiplier_solve(point, v)
    lam, info = _dykstra_reference(point.J.T, v, point.normal)
    ref = MultiplierSolveResult(
        lam, np.linalg.norm(point.J.T @ lam - v), point.normal.dist(lam),
        multiplier_verify(point, v, lam), "Dykstra search", info.farkas)
    if ref.found:
        ref.members, ref.pair = [lam], BasePair(point, v, lam)
        ref.srcq = srcq_check(ref.pair)
    return point, res, ref


def _agree(res, ref, label):
    """The same answers, except where the reference decides nothing: the
    search may find a multiplier where it stalls without a certificate,
    and give a verdict where it is inconclusive."""
    if ref.found or ref.farkas is not None:
        assert res.found == ref.found, label
    if res.found and ref.found:
        for check in (lambda r: r.srcq, strict_complementarity_check):
            want = check(ref).verdict
            if want != "inconclusive":
                assert check(res).verdict == want, label


def test_fiber_interval_agrees_with_the_dykstra_route():
    rng = np.random.default_rng(3501)
    seen = set()
    for label, cone, y in _random_cases():
        for draw in range(3):
            k, lam0 = _random_draw(rng, cone, y)
            sys, x, v = _system(rng, cone, y, k, lam0)
            point, res, ref = _both_routes(sys, x, v)
            assert res.found and res.route == "fiber interval", (label, draw)
            # lam0 is in the interval, and the chosen point of an interval
            # wider than a point is relative-interior
            lo, hi = res.fiber["interval"]
            assert lo <= res.fiber["t"] <= hi, (label, draw)
            t0 = float(res.fiber["k"] @ (lam0 - res.fiber["lam_p"]))
            slack = 1e-8 * (1.0 + np.linalg.norm(lam0))
            assert lo - slack <= t0 <= hi + slack, (label, draw)
            if hi - lo > 1e-6:
                _agree(res, ref, (label, draw))
                assert strict_complementarity_check(res).verdict == \
                    "holds", (label, draw)
                seen.add((np.isfinite(lo), np.isfinite(hi)))
            else:
                # lam0 is the only multiplier; Dykstra's point is within
                # tolerance of it, and so may lie on another face
                assert ref.found or ref.farkas is None, (label, draw)
                assert res.srcq.verdict == srcq_check(
                    BasePair(point, v, lam0)).verdict, (label, draw)
                assert (strict_complementarity_check(res).verdict ==
                        "holds") == ri_normal_contains(cone, y, lam0)
                seen.add("one point")
    # bounded intervals, rays both ways, whole lines and single points
    assert seen == {(True, True), (True, False), (False, True),
                    (False, False), "one point"}


@pytest.mark.parametrize("sign", [1, -1], ids=["plus", "minus"])
def test_planted_one_point_and_empty_fibers(sign):
    rng = np.random.default_rng(3502)
    for label, cone, y, k, lam0, kind in _planted_cases(sign):
        sys, x, v = _system(rng, cone, y, k, lam0)
        point, res, ref = _both_routes(sys, x, v)
        _agree(res, ref, label)
        if kind == "one point":
            # the planted multiplier, the only one, and no second member
            assert res.found and res.route == "fiber interval", label
            lo, hi = res.fiber["interval"]
            assert 0.0 <= hi - lo <= 1e-12 and len(res.members) == 1, label
            assert np.linalg.norm(res.lam - lam0) <= 1e-12, label
        else:
            # the empty interval sends the line to the Dykstra fallback,
            # which certifies the empty set; y is in T = N°
            assert not res.found and res.route == "Dykstra search", label
            assert res.farkas is not None and res.farkas.cycle >= 1, label
            _recheck_farkas(point.J.T, v, point.tangent, *res.farkas[:3])


@pytest.mark.parametrize("sign", [1, -1], ids=["plus", "minus"])
def test_a_small_closed_form_bound_leaves_the_point_fiber_to_dykstra(sign):
    # J = diag(1, 1e-6) at the apex of R^2 signed, so N is R^2 of the
    # other sign and J^T keeps both of its directions (the rank cut is
    # 1e-9).  For v = -sign (1, -1e-12) the one point of span N with
    # J^T lam = v is -sign (1, -1e-6), 1e-6 off N, past its bound of
    # about 3e-8; the closed-form certificate bounds the residual of
    # every point by only about 1e-12, and Pi(lam_p) = -sign (1, 0) is a
    # multiplier to 1e-12, which Dykstra finds.  At v = -sign (1, -1e-3)
    # the same certificate bounds it by 1e-3 and decides in closed form
    cone = ConeDesc([Orthant(2, sign)])
    point = BasePoint(affine_system(cone, np.diag([1.0, 1e-6]),
                                    np.zeros(2)), np.zeros(2))
    pair = BasePair(point, np.zeros(2), np.zeros(2))
    for off, found, route in ((1e-12, True, "Dykstra search"),
                              (1e-3, False, "span solve")):
        v = -sign * np.array([1.0, -off])
        res = multiplier_solve(point, v)
        cert = ngamma_graph_deriv_contains(pair, np.zeros(2), v)
        assert res.found == found and cert.details["fiber_route"] == \
            route, off
        assert res.route == route.replace("span solve", "span-N solve")
        assert cert.verdict == ("holds" if found else "fails"), off
        if found:
            assert np.linalg.norm(res.lam + sign * np.eye(2)[0]) <= 1e-12
        else:
            assert res.farkas.cycle == 0 and res.farkas.bound > 1e-4, off
            assert cert.residual == res.farkas.bound, off
            _recheck_farkas(point.J.T, v, point.tangent, *res.farkas[:3])


@pytest.mark.parametrize("sign", [1, -1], ids=["plus", "minus"])
def test_a_target_off_the_span_is_certified_in_closed_form(monkeypatch,
                                                           sign):
    # R^3 signed at y = sign (1, 1, 0): span N is the third axis, so J^T
    # maps it onto one line of R^2, and a v off that line has no
    # multiplier.  The residual of the least-squares point certifies it,
    # with no Dykstra run
    from conestab import constraint_system

    monkeypatch.setattr(constraint_system, "dykstra", None)
    rng = np.random.default_rng(3506)
    cone = ConeDesc([Orthant(3, sign)])
    y = sign * np.array([1.0, 1.0, 0.0])
    for draw in range(4):
        J = rng.standard_normal((3, 2))
        off = np.array([-J[2, 1], J[2, 0]])  # orthogonal to J^T e_3
        v = J.T @ (-sign * abs(rng.standard_normal()) * np.eye(3)[2]) + off
        point = BasePoint(affine_system(cone, J, y - J @ np.ones(2)),
                          np.ones(2))
        res = multiplier_solve(point, v)
        assert not res.found and res.route == "span-N solve", draw
        assert res.farkas.cycle == 0 and res.farkas.bound > 0, draw
        _recheck_farkas(point.J.T, v, point.tangent, *res.farkas[:3])


@pytest.mark.parametrize("sign", [1, -1], ids=["plus", "minus"])
def test_a_block_of_order_three_takes_the_dykstra_route(sign):
    # PSD(3) at its apex has a beta block of order 3, which has no closed
    # form: the search falls back, with the same answers
    rng = np.random.default_rng(3503 + sign)
    cone = ConeDesc([PSD(3, sign)])
    for draw in range(4):
        k, lam0 = _random_draw(rng, cone, np.zeros(6))
        sys, x, v = _system(rng, cone, np.zeros(6), k, lam0)
        point = BasePoint(sys, x)
        assert point.normal.line_interval(np.zeros(6), k) is None
        _, res, ref = _both_routes(sys, x, v)
        assert res.route == "Dykstra search" and res.fiber is None
        _agree(res, ref, draw)


def test_the_second_member_is_a_verified_point_of_the_interval():
    # srcq fails on a segment: the point halfway from lam to an end is the
    # second member, one multiplier_verify call
    rng = np.random.default_rng(3504)
    cone = ConeDesc([SOC(4)])
    u, w = _soc_frame(rng, 4)
    k = _unit(np.concatenate([[0.0], w]))
    lam0 = -np.concatenate([[2.0], u])
    sys, x, v = _system(rng, cone, np.zeros(4), k, lam0)
    point = BasePoint(sys, x)
    res = multiplier_solve(point, v)
    assert res.route == "fiber interval" and res.srcq.verdict == "fails"
    lo, hi = res.fiber["interval"]
    assert np.isfinite(lo) and np.isfinite(hi)
    lam2 = res.fiber["lam_p"] + (0.75 * lo + 0.25 * hi) * res.fiber["k"]
    assert len(res.members) == 2
    assert np.allclose(res.members[1], lam2, atol=1e-12)
    assert multiplier_verify(point, v, res.members[1])


def _graph_cases(sign):
    """(label, cone, y, lam): graph points on every primitive cone, in
    the mirror `sign` where it has one, whose critical cone C is not a
    subspace."""
    rng = np.random.default_rng(37)
    u, _ = _soc_frame(rng, 4)
    e = np.eye(4)
    U, _ = np.linalg.qr(rng.standard_normal((3, 3)))

    def frame(*diag):
        return sign * svec(U @ np.diag(diag) @ U.T)

    yield "orthant", ConeDesc([Orthant(4, sign)]), sign * (e[0] + e[1]), \
        -sign * e[2]
    yield "SOC apex", ConeDesc([SOC(4, sign)]), np.zeros(4), np.zeros(4)
    yield "SOC boundary", ConeDesc([SOC(4, sign)]), \
        sign * np.concatenate([[1.0], u]), np.zeros(4)
    yield "PSD beta 1", ConeDesc([PSD(3, sign)]), frame(2.0, 0.0, 0.0), \
        frame(0.0, -1.0, 0.0)
    yield "PSD beta 2", ConeDesc([PSD(3, sign)]), frame(1.0, 0.0, 0.0), \
        np.zeros(6)
    yield "zero x free x orthant", \
        ConeDesc([Zero(2), Free(2), Orthant(2, sign)]), \
        np.array([0.0, 0.0, *rng.standard_normal(2), 0.0, sign]), \
        np.array([*rng.standard_normal(2), 0.0, 0.0, 0.0, 0.0])


def _orth(B, *rows):
    """An orthonormal basis of the part of span B orthogonal to rows."""
    if not rows:
        return B
    M = np.array([_unit(row) for row in rows]) @ B
    _, s, vt = np.linalg.svd(M)
    return B @ vt[int(np.sum(s > 1e-9)):].T


def _graph_fiber(rng, cone, y, lam, dim, kind):
    """(pair, d, w) with the fiber of (d, w) planted at the pair
    through xi0 in span C° ∩ gd⊥, its kernel over span C° of dimension
    `dim`, or None when the draw leaves no room for it.  With
    gd = Pi_C(z) and xi_m = z - gd (Moreau), xi_m is in C° ∩ gd⊥:
    "member" plants xi_m; "off span" plants xi_m + gd, so <d, r> =
    ||gd||^2 != 0; "empty" plants xi0 = P y_c, P the projector onto span
    C° ∩ gd⊥ and y_c = Pi_C(z') in C, so that each point of the fiber has
    <y_c, xi> = ||P y_c||^2 > 0 although y_c is in the polar of C°; the
    kernel line, if any, is then taken orthogonal to y_c."""
    from conestab.proj_deriv import GraphPoint

    gp = GraphPoint.of_pair(cone, y, lam, DEFAULT_TOL)
    C = gp.critical
    B = _null_basis(C.lineality_basis().T, DEFAULT_TOL)  # span C°
    for _ in range(8):  # a member away from the apex of C°
        z = rng.standard_normal(cone.dim)
        gd = C.project(z)
        if kind != "member" or np.linalg.norm(z - gd) > 1e-3:
            break
    rows = [gd] if np.linalg.norm(gd) > 1e-6 else []
    if kind == "off span" and not rows:
        return None
    xi0 = z - gd
    if kind == "off span":
        xi0 = xi0 + gd
    elif kind == "empty":
        y_c = C.project(rng.standard_normal(cone.dim))
        P = _orth(B, *rows)
        xi0 = P @ (P.T @ y_c)
        if np.linalg.norm(xi0) < 1e-3:
            return None
        rows.append(y_c)
    K = _orth(B, *rows)
    if dim == 1:
        if K.shape[1] == 0:
            return None
        k = _unit(K @ rng.standard_normal(K.shape[1]))
        G = rng.standard_normal((cone.dim, B.shape[1] - 1))
        G = G - np.outer(k, k @ G)
    else:
        G = rng.standard_normal((cone.dim, B.shape[1]))
    J = np.column_stack([gd, G])
    sys = affine_system(cone, J, y)
    point = BasePoint(sys, np.zeros(J.shape[1]))
    pair = BasePair(point, J.T @ lam, lam)
    d = np.eye(J.shape[1])[0]
    u = cone.upsilon_grad(pair.graph_point, gd)
    return pair, d, J.T @ (xi0 + 0.5 * u)


def _fiber_system(pair, d, w):
    """(A, b, scale) of the fiber of (d, w) at the pair, rebuilt from its
    definition: A = J^T and b = w - Hd - J^T u / 2, with the row
    gd^T / ||gd|| and the entry 0 appended when gd is not 0."""
    gd = pair.J @ d
    u = pair.sys.cone.upsilon_grad(pair.graph_point, gd)
    A, b = pair.J.T, w - pair.hess @ d - 0.5 * (pair.J.T @ u)
    if np.linalg.norm(gd) > pair.tol.zero * (1 + np.linalg.norm(pair.gx)):
        A = np.vstack([A, gd / np.linalg.norm(gd)])
        b = np.append(b, 0.0)
    return A, b, 1.0 + np.linalg.norm(d) + np.linalg.norm(w)


def test_graph_derivative_fibers_agree_with_a_dykstra_reference():
    # a member holds on the span solve or the fiber interval, off the span
    # and on an empty point the closed-form certificates decide, and an
    # empty interval goes to the Dykstra fallback, whose verdict is the
    # reference's: a certificate, or inconclusive where the reference
    # stalls too
    routes = {"member": ("span solve", "fiber interval"),
              "off span": ("span solve", "span solve"),
              "empty": ("span solve", "Dykstra search")}
    seen = set()
    for sign in (1, -1):
        rng = np.random.default_rng(3507 + sign)
        for label, cone, y, lam in _graph_cases(sign):
            for dim, kind, draw in ((dim, kind, draw) for dim in (0, 1)
                                    for kind in routes for draw in range(4)):
                planted = _graph_fiber(rng, cone, y, lam, dim, kind)
                if planted is None:
                    continue
                pair, d, w = planted
                where = (sign, label, dim, kind, draw)
                A, b, scale = _fiber_system(pair, d, w)
                B = _null_basis(pair.critical.lineality_basis().T,
                                DEFAULT_TOL)
                assert B.shape[1] - np.linalg.matrix_rank(
                    A @ B, tol=1e-9) == dim, where
                cert = ngamma_graph_deriv_contains(pair, d, w)
                det = cert.details
                assert det["fiber_route"] == routes[kind][dim], where
                polar = pair.critical_polar
                xi, info = _dykstra_reference(A, b, polar)
                res = max(np.linalg.norm(A @ xi - b), polar.dist(xi))
                if res <= 1e-8 * (1 + np.linalg.norm(xi)) * scale:
                    assert det["fiber_holds"], where
                if info.farkas is not None:
                    assert "fiber_farkas" in det, where
                if kind == "member":
                    assert cert.verdict == "holds", where
                    assert np.linalg.norm(A @ cert.witness - b) <= \
                        1e-9 * scale, where
                    assert polar.dist(cert.witness) <= 1e-9 * scale, where
                elif "fiber_farkas" in det:
                    assert cert.verdict == "fails", where
                    farkas = det["fiber_farkas"]
                    closed = kind == "off span" or dim == 0
                    assert (farkas["cycle"] == 0) == closed, where
                    assert cert.residual == farkas["bound"]
                    _recheck_farkas(A, b, pair.critical, farkas["h"],
                                    farkas["y"], farkas["bound"])
                    # A^T h itself, not only its part y, is in C = (C°)°
                    ATh = A.T @ farkas["h"]
                    assert pair.critical.dist(ATh) <= 1e-12 * (
                        1.0 + np.linalg.norm(ATh)), where
                else:
                    assert dim == 1, where
                    assert kind == "empty" and info.farkas is None, where
                    assert cert.verdict == "inconclusive", where
                    continue
                seen.add((sign, label, dim, kind))
    # every graph point in both mirrors holds a member at dimension 0 and
    # 1 and a fiber off the span; both signs decide an empty fiber at
    # both dimensions
    for sign in (1, -1):
        for label, *_ in _graph_cases(sign):
            assert {(sign, label, 0, "member"), (sign, label, 1, "member"),
                    (sign, label, 0, "off span")} <= seen, (sign, label)
    assert {(dim, kind) for _, _, dim, kind in seen} == {
        (dim, kind) for dim in (0, 1) for kind in routes}
