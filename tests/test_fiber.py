"""The fiber interval route of `multiplier_solve` against the Dykstra
route, on seeded systems whose multiplier candidates form a line.

Each draw is an affine system g(x) = A x + b at a point with g(x) = y,
with A^T k = 0 for a unit k in span N_K(y) and ker A^T ∩ span N_K(y) =
span{k}, and v = A^T lam0 for a planted lam0 in span N_K(y).  The
multiplier set is then (lam0 + span{k}) ∩ N_K(y).  The reference is the
same search with the fiber route switched off, so it takes the Dykstra
route; both must agree on `found` and, when found, on the srcq and
strict-complementarity verdicts, wherever the Dykstra route decides.
"""

import numpy as np
import pytest

from conestab import constraint_system
from conestab._sets import DEFAULT_TOL, _farkas_test
from conestab.cone_core import PSD, SOC, ConeDesc, Free, Orthant, Zero
from conestab.cone_geometry import ri_normal_contains
from conestab.constraint_system import (
    BasePair, BasePoint, affine_system, multiplier_solve, multiplier_verify,
    srcq_check, strict_complementarity_check,
)
from conestab.symmat import svec


def _unit(z):
    return z / np.linalg.norm(z)


def _span_normal(cone, y):
    """An orthonormal basis of span N_K(y), read by a base point of the
    system g = y."""
    return BasePoint(affine_system(cone, np.zeros((cone.dim, 1)), y),
                     [0.0]).span_normal


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


def _both_routes(monkeypatch, sys, x, v):
    point = BasePoint(sys, x)
    res = multiplier_solve(point, v)
    with monkeypatch.context() as patch:
        patch.setattr(constraint_system, "_fiber_solve", lambda *args: None)
        ref = multiplier_solve(point, v)
    assert ref.route == "Dykstra search"
    return point, res, ref


def _agree(res, ref, label):
    """The same answers, except where the Dykstra route decides nothing:
    the fiber route may find a multiplier where it stalls without a
    certificate, and give a verdict where it is inconclusive."""
    if ref.found or ref.farkas is not None:
        assert res.found == ref.found, label
    if res.found and ref.found:
        for check in (lambda r: r.srcq, strict_complementarity_check):
            want = check(ref).verdict
            if want != "inconclusive":
                assert check(res).verdict == want, label


def test_fiber_interval_agrees_with_the_dykstra_route(monkeypatch):
    rng = np.random.default_rng(3501)
    seen = set()
    for label, cone, y in _random_cases():
        for draw in range(3):
            k, lam0 = _random_draw(rng, cone, y)
            sys, x, v = _system(rng, cone, y, k, lam0)
            point, res, ref = _both_routes(monkeypatch, sys, x, v)
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
def test_planted_one_point_and_empty_fibers(monkeypatch, sign):
    rng = np.random.default_rng(3502)
    for label, cone, y, k, lam0, kind in _planted_cases(sign):
        sys, x, v = _system(rng, cone, y, k, lam0)
        point, res, ref = _both_routes(monkeypatch, sys, x, v)
        _agree(res, ref, label)
        if kind == "one point":
            # the planted multiplier, the only one, and no second member
            assert res.found and res.route == "fiber interval", label
            lo, hi = res.fiber["interval"]
            assert 0.0 <= hi - lo <= 1e-12 and len(res.members) == 1, label
            assert np.linalg.norm(res.lam - lam0) <= 1e-12, label
        else:
            # the Dykstra route certifies the empty set: the Farkas test
            # accepts its certificate again, and each y_i is in the polar
            # of its set
            assert not res.found and res.route == "Dykstra search", label
            farkas = res.farkas
            assert farkas is not None and farkas.bound > 0, label
            fiber = constraint_system.AffineSet(point.J.T, v)
            assert _farkas_test(fiber, farkas.y, farkas.cycle) is not None
            assert point.normal.polar().dist(farkas.y[0]) <= 1e-9 * (
                1.0 + np.linalg.norm(farkas.y[0])), label


@pytest.mark.parametrize("sign", [1, -1], ids=["plus", "minus"])
def test_a_block_of_order_three_takes_the_dykstra_route(monkeypatch, sign):
    # PSD(3) at its apex has a beta block of order 3, which has no closed
    # form: the search falls back, with the same answers
    rng = np.random.default_rng(3503 + sign)
    cone = ConeDesc([PSD(3, sign)])
    for draw in range(4):
        k, lam0 = _random_draw(rng, cone, np.zeros(6))
        sys, x, v = _system(rng, cone, np.zeros(6), k, lam0)
        point = BasePoint(sys, x)
        assert point.normal.line_interval(np.zeros(6), k) is None
        _, res, ref = _both_routes(monkeypatch, sys, x, v)
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
