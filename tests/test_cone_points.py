"""The cone's data at a graph point (the blocks a `GraphPoint` keeps).

Counts: at a graph point, each PSD block of z is decomposed once and y
never, however many directions are read.  Parity: the graph-point
path gives the numbers of the per-call svec-space formulas written out
below, which decompose on every call: Pi' exactly (==, no tolerance)
or, where a second-order block reads a ray from lam and the formula
from z, to a few ulps, and Upsilon, its gradient and `dnk_contains`'s residuals, which a PSD
block reads in the eigenframe of z, to 1e-12 of their scale with the
same verdicts.  The mirrored cone gives exactly the mirrored numbers.
A fresh point per call (`proj_dir_deriv`, `GraphPoint.of_pair`) gives
the same numbers.
"""

import sys
from types import SimpleNamespace

import numpy as np
import pytest

from conestab._sets import (
    DEFAULT_TOL, Halfspace, PSDBlockSet, ProductSet, Ray, SignPattern,
)
from conestab.cone_core import ConeDesc, Orthant, SOC, PSD
from conestab.constraint_system import (
    BasePair, BasePoint, _null_basis, affine_system,
    ngamma_graph_deriv_contains,
)
from conestab.proj_deriv import GraphPoint, dnk_contains, proj_dir_deriv
from conestab.stability import (
    GEProblem, _second_order_form, solution_map_isolated_calm,
)
from conestab.symmat import smat, svec


def _rotation(rng, n):
    Q, _ = np.linalg.qr(rng.standard_normal((n, n)))
    return Q


def _counting_eigh(monkeypatch):
    """Record (caller name, matrix) of every np.linalg.eigh call."""
    calls = []
    eigh = np.linalg.eigh

    def counted(A, *args, **kwargs):
        calls.append((sys._getframe(1).f_code.co_name, np.array(A)))
        return eigh(A, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigh", counted)
    return calls


def _fresh(K, gp):
    """A new point at gp's pair, with none of gp's data."""
    return GraphPoint.of_pair(K, gp.y, gp.lam, gp.tol)


def _split_counts(calls, Z, Y):
    """(eigh of Z, eigh of Y, beta-block clips, any other) counts."""
    of_z = sum(np.array_equal(A, Z) for _, A in calls)
    of_y = sum(np.array_equal(A, Y) for _, A in calls)
    clips = sum(name == "_eig_clip" for name, _ in calls)
    return of_z, of_y, clips, len(calls) - of_z - of_y - clips


@pytest.mark.parametrize("build", ["constructor", "from_z"])
def test_graph_point_decomposes_z_once_and_never_y(monkeypatch, build):
    # PSD(4) at z = Q diag(2, 1, 0, -1.5) Q^T (y of rank 2) and at
    # z = Q diag(2, 0, 0, -1.5) Q^T (y of rank 1): lam != 0 of rank 1 and
    # a beta block of order 1 or 2, so Upsilon is curved; 50 calls of
    # dnk_contains, upsilon and upsilon_grad at each point
    rng = np.random.default_rng(41)
    K = ConeDesc([PSD(4)])
    calls = _counting_eigh(monkeypatch)
    for ev, beta in (([2.0, 1.0, 0.0, -1.5], 1), ([2.0, 0.0, 0.0, -1.5], 2)):
        Q = _rotation(rng, 4)
        z = svec((Q * np.array(ev)) @ Q.T)
        y = K.project(z)
        calls.clear()
        gp = GraphPoint(K, y, z - y) if build == "constructor" \
            else GraphPoint.from_z(K, z)
        for i in range(50):
            h = rng.standard_normal(K.dim)
            if i % 3 == 0:
                dy = K.dir_deriv(gp, h)
                assert dnk_contains(K, gp, dy, h - dy).verdict == "holds"
            elif i % 3 == 1:
                assert K.upsilon(gp, gp.critical.project(h)) > 0.0
            else:
                hc = gp.critical.project(h)
                assert float(K.upsilon_grad(gp, hc) @ hc) > 0.0
        of_z, of_y, clips, other = _split_counts(calls, smat(gp.z),
                                                 smat(gp.y))
        assert (of_z, of_y, other) == (1, 0, 0)
        if beta == 1:
            # a beta block of order 1 is clipped in closed form
            assert clips == 0
        else:
            # the clips of the beta blocks depend on the direction: at
            # least one per dnk_contains call, in Pi' and in the critical
            # cone's projection
            assert clips >= 17
        # a fresh point decomposes on every call; Upsilon reads its pair
        # and Y^+ in the eigenframe of z, so a fresh point decomposes z
        # for it, and y never
        calls.clear()
        for _ in range(3):
            proj_dir_deriv(K, gp.z, h)
            K.upsilon(_fresh(K, gp), h)
        of_z, of_y, _, other = _split_counts(calls, smat(gp.z), smat(gp.y))
        # the fresh point's z = y + lam may differ from gp.z in the last bit
        assert (of_z + other, of_y) == (6, 0)


def _curved_psd_pair(dim_x, rng):
    """A verified base pair of an affine PSD(3) system with dim_x
    variables at a point g(x) of rank 2 with a multiplier of rank 1."""
    K = ConeDesc([PSD(3)])
    Q = _rotation(rng, 3)
    y = svec((Q * np.array([1.5, 0.7, 0.0])) @ Q.T)
    lam = svec((Q * np.array([0.0, 0.0, -0.9])) @ Q.T)
    A = rng.standard_normal((K.dim, dim_x))
    x = rng.standard_normal(dim_x)
    sysm = affine_system(K, A, y - A @ x)
    return BasePair(BasePoint(sysm, x, DEFAULT_TOL), A.T @ lam, lam)


def test_second_order_form_never_decomposes_y(monkeypatch):
    from test_acceptance import _check_fails_certificate

    rng = np.random.default_rng(43)
    pair = _curved_psd_pair(5, rng)
    problem = SimpleNamespace(Fx=np.zeros((5, 5)))
    calls = _counting_eigh(monkeypatch)
    A = _second_order_form(problem, pair)
    Y = smat(pair.gx)
    assert not any(np.array_equal(M, Y) for _, M in calls)
    # the same matrix as from n per-call gradients
    K = pair.sys.cone
    UJ = np.column_stack([
        K.upsilon_grad(GraphPoint.of_pair(K, pair.gx, pair.lam, pair.tol), c)
        for c in pair.J.T])
    assert np.array_equal(A, -pair.hess - 0.5 * (pair.J.T @ UJ))
    # nor do the fiber solves past the critical-cone gate: d with J d in
    # the critical cone, a subspace here
    B = _null_basis(pair.critical_polar.lineality_basis().T @ pair.J,
                    pair.tol)
    assert B.shape[1] == 4
    calls.clear()
    certs = []
    for _ in range(4):
        d = B @ rng.standard_normal(4)
        w = rng.standard_normal(5)
        certs.append((d, w, ngamma_graph_deriv_contains(pair, d, w)))
    assert not any(np.array_equal(M, Y) for _, M in calls)
    # each fiber has <d, r> != 0, so the pairing certifies it empty
    for d, w, cert in certs:
        assert cert.verdict == "fails"
        assert _check_fails_certificate(pair, d, w, cert) == 1
    problem = GEProblem(pair.sys, F=lambda p, x: -pair.v,
                        Fprime=lambda base, dirn: np.zeros(5),
                        pbar=np.zeros(1), xbar=pair.x, lam_hint=pair.lam)
    cert = solution_map_isolated_calm(problem, pair.lam)
    assert (cert.verdict, cert.method) == (
        "fails", "inclusion on the critical subspace decided by B^T A B")


# ---------------------------------------------------------------------------
# per-call formulas, plus orientation, each decomposing afresh

def _ref_clip(B):
    B = 0.5 * (B + B.T)
    w, U = np.linalg.eigh(B)
    return (U * np.maximum(w, 0.0)) @ U.T


def _ref_psd_dir_deriv(z, h, tol):
    w, U = np.linalg.eigh(smat(z))
    sc = tol.zero * max(1.0, float(np.abs(w).max(initial=0.0)))
    wc = np.where(np.abs(w) <= sc, 0.0, w)
    W = U.T @ smat(h) @ U
    p = np.maximum(wc, 0.0)
    denom = wc[:, None] - wc[None, :]
    with np.errstate(divide="ignore", invalid="ignore"):
        C = np.where(denom != 0.0, (p[:, None] - p[None, :]) / denom,
                     (wc > 0.0)[:, None] * 1.0)
    out = C * W
    beta = np.where(wc == 0.0)[0]
    if beta.size:
        out[np.ix_(beta, beta)] = _ref_clip(W[np.ix_(beta, beta)])
    return svec(U @ out @ U.T)


def _ref_soc_dir_deriv(u, hu, tol):
    case = SOC._classify(u, tol)
    if case == "int":
        return hu.copy()
    if case == "polar_int":
        return np.zeros(u.size)
    if case == "apex":
        return SOC._project(hu)
    if case == "bd":
        a = np.concatenate([[-1.0], u[1:] / np.linalg.norm(u[1:])])
        return Halfspace(a).project(hu)
    if case == "polar_bd":
        return Ray(np.concatenate([[-u[0]], u[1:]])).project(hu)
    u0, ub = u[0], u[1:]
    nb = float(np.linalg.norm(ub))
    w = ub / nb
    h0, hb = hu[0], hu[1:]
    wh = float(w @ hb)
    out = np.empty(u.size)
    out[0] = 0.5 * (h0 + wh)
    out[1:] = 0.5 * (h0 * w + (1.0 + u0 / nb) * hb - (u0 / nb) * wh * w)
    return out


def _ref_orthant_dir_deriv(u, hu, tol):
    sc = tol.zero * max(1.0, float(np.linalg.norm(u)))
    return np.where(u > sc, hu, np.where(u < -sc, 0.0, np.maximum(hu, 0.0)))


def _ref_curved(block, y, lam, tol):
    if isinstance(block, Orthant):
        return False
    if float(np.linalg.norm(lam)) <= \
            tol.zero * max(1.0, float(np.linalg.norm(lam))):
        return False
    return isinstance(block, PSD) or SOC._classify(y, tol) == "bd"


def _ref_upsilon_and_grad(block, y, lam, h, tol):
    if not _ref_curved(block, y, lam, tol):
        return 0.0, np.zeros(h.size)
    if isinstance(block, SOC):
        t = -lam[0]
        g = np.empty(h.size)
        g[0] = -2.0 * (t / y[0]) * h[0]
        g[1:] = 2.0 * (t / y[0]) * h[1:]
        return (t / y[0]) * (float(h[1:] @ h[1:]) - h[0] ** 2), g
    w, U = np.linalg.eigh(smat(y))
    sc = tol.zero * max(1.0, float(np.abs(w).max(initial=0.0)))
    winv = np.where(w > sc, 1.0 / np.where(w > sc, w, 1.0), 0.0)
    L, Yp, H = smat(lam), (U * winv) @ U.T, smat(h)
    G = -2.0 * (Yp @ H @ L + L @ H @ Yp)
    return -2.0 * float(np.trace(L @ H @ Yp @ H)), svec(0.5 * (G + G.T))


def _ref_psd_critical(z, tol):
    w, U = np.linalg.eigh(smat(z))
    sc = tol.zero * max(1.0, float(np.abs(w).max(initial=0.0)))
    groups = [np.where(w > sc)[0], np.where(np.abs(w) <= sc)[0],
              np.where(w < -sc)[0]]
    F, P, Z = SignPattern.FREE, SignPattern.NONNEG, SignPattern.ZERO
    codes = {(0, 0): F, (0, 1): F, (0, 2): F, (1, 1): P, (1, 2): Z, (2, 2): Z}
    return PSDBlockSet(U, groups, codes)


# the per-call formulas on a ConeDesc: the mirror -K reads K at -data
def _blocks(K, *vs):
    for b, sl in zip(K.blocks, K.slices):
        yield b, b.sign, [b.sign * v[sl] for v in vs]


def ref_dir_deriv(K, z, h, tol=DEFAULT_TOL):
    fn = {Orthant: _ref_orthant_dir_deriv, SOC: _ref_soc_dir_deriv,
          PSD: _ref_psd_dir_deriv}
    return np.concatenate([s * fn[type(b)](zb, hb, tol)
                           for b, s, (zb, hb) in _blocks(K, z, h)])


def ref_upsilon_and_grad(K, y, lam, h, tol=DEFAULT_TOL):
    parts = [(u, s * g) for b, s, (yb, lb, hb) in _blocks(K, y, lam, h)
             for u, g in [_ref_upsilon_and_grad(b, yb, lb, hb, tol)]]
    return sum(u for u, _ in parts), np.concatenate([g for _, g in parts])


def ref_critical(K, gp, tol=DEFAULT_TOL):
    sets = []
    for b, s, (zb, yb, lb) in _blocks(K, gp.z, gp.y, gp.lam):
        if isinstance(b, PSD):
            C = _ref_psd_critical(zb, tol)
            sets.append(C if s > 0 else C.negate())
        else:
            sets.append(b.critical_set(b.point(s * zb, tol, s * yb, s * lb)))
    return ProductSet(sets)


def ref_dist(S, v):
    return float(np.linalg.norm(v - S.project(v)))


def ref_dnk(K, gp, dy, dl, tol=DEFAULT_TOL):
    """dnk_contains's verdict, residual and details, from the formulas."""
    scale = 1.0 + float(np.linalg.norm(dy)) + float(np.linalg.norm(dl))
    thresh = tol.membership * scale
    res_a = float(np.linalg.norm(dy - ref_dir_deriv(K, gp.z, dy + dl, tol)))
    C = ref_critical(K, gp, tol)
    res1 = ref_dist(C, dy)
    details = {"route_a_residual": res_a, "critical_dist": res1}
    if res1 <= thresh:
        ups, grad = ref_upsilon_and_grad(K, gp.y, gp.lam, dy, tol)
        res2 = ref_dist(C.polar(), dl - 0.5 * grad)
        res3 = abs(float(dy @ dl) - ups) / (
            1.0 + float(np.linalg.norm(dy)) * float(np.linalg.norm(dl)))
        res_b = max(res1, res2, res3)
        details.update(polar_dist=res2, pairing_residual=res3)
    else:
        res_b = res1
    details["route_b_residual"] = res_b
    holds_a, holds_b = res_a <= thresh, res_b <= thresh
    verdict = "holds" if holds_a and holds_b else \
        "fails" if not (holds_a or holds_b) else "inconclusive"
    return verdict, max(res_a, res_b), details


# ---------------------------------------------------------------------------
# seeded draws

def _plus_z(kind, size, rng):
    """A point of the plus orientation's space with a zero part, so Pi_K
    is nonsmooth there, and in most draws a nonzero multiplier."""
    if kind is PSD:
        k0 = int(rng.integers(1, size))
        kp = int(rng.integers(0, size - k0 + 1))
        ev = np.concatenate([rng.uniform(0.5, 2.0, kp), np.zeros(k0),
                             -rng.uniform(0.5, 2.0, size - k0 - kp)])
        Q = _rotation(rng, size)
        return svec((Q * ev) @ Q.T)
    if kind is SOC:
        u = rng.standard_normal(size - 1)
        u /= np.linalg.norm(u)
        t, s = rng.uniform(0.5, 2.0, 2)
        return [np.concatenate([[t - s], (t + s) * u]),   # bd y, lam != 0
                np.concatenate([[t], t * u]),              # bd y, lam = 0
                np.concatenate([[-s], s * u]),             # y = 0, polar bd
                np.concatenate([[-s], 0.1 * s * u]),       # y = 0, polar int
                np.zeros(size),                            # apex
                rng.standard_normal(size)][int(rng.integers(0, 6))]
    z = rng.standard_normal(size)
    z[rng.random(size) < 0.4] = 0.0
    return z


def _draws():
    rng = np.random.default_rng(47)
    shapes = [[(PSD, n)] for n in range(2, 7)] + \
        [[(SOC, n)] for n in range(3, 9)] + \
        [[(PSD, 3), (SOC, 4), (Orthant, 3)], [(SOC, 5), (PSD, 2)],
         [(PSD, 4), (Orthant, 2), (PSD, 2), (SOC, 3)]]
    for shape in shapes:
        for _ in range(2):
            signs = rng.choice([1, -1], len(shape))
            K = ConeDesc([kind(size, int(s)) for (kind, size), s
                          in zip(shape, signs)])
            z = np.concatenate([s * _plus_z(kind, size, rng)
                                for (kind, size), s in zip(shape, signs)])
            mirror = ConeDesc([b.polar() for b in K.blocks])
            yield K, mirror, z, rng


def _graph_points(K, z):
    gp = GraphPoint.from_z(K, z)
    return [gp, GraphPoint(K, gp.y, gp.lam)]


def _directions(K, gp, rng):
    """Members (dy, dl) built from Pi' and perturbed pairs."""
    for j in range(4):
        h = rng.standard_normal(K.dim)
        dy = ref_dir_deriv(K, gp.z, h)
        dl = h - dy
        if j % 2:
            e = 0.3 * rng.standard_normal(K.dim)
            dy, dl = dy + e, dl - 0.5 * e
        yield dy, dl


def _cert(c):
    return c.verdict, c.residual, c.details


def _near(a, b, scale):
    """a and b agree to 1e-12 of scale in every entry."""
    return np.shape(a) == np.shape(b) and \
        float(np.max(np.abs(np.subtract(a, b)), initial=0.0)) <= 1e-12 * scale


def _assert_dnk_matches(K, gp, dy, dl):
    """dnk_contains against `ref_dnk`: the same verdict and detail keys,
    and every number within 1e-12 (1 + ||dy|| + ||dl||)."""
    (v, r, d), (rv, rr, rd) = _cert(dnk_contains(K, gp, dy, dl)), \
        ref_dnk(K, gp, dy, dl)
    scale = 1.0 + float(np.linalg.norm(dy)) + float(np.linalg.norm(dl))
    assert (v, sorted(d)) == (rv, sorted(rd))
    assert _near(r, rr, scale)
    assert all(_near(d[k], rd[k], scale) for k in d), (d, rd)
    return v


def _assert_upsilon_matches(K, gp, h, ups, grad):
    scale = (1.0 + float(np.linalg.norm(h))) ** 2
    assert _near(K.upsilon(gp, h), ups, scale)
    assert _near(K.upsilon_grad(gp, h), grad, scale)


def test_graph_point_path_equals_the_per_call_formulas():
    # each draw and its mirror, so every block is checked in both signs
    seen = set()
    for K0, mirror, z0, rng in _draws():
        for K, z, gp in [(K, z, gp) for K, z in ((K0, z0), (mirror, -z0))
                         for gp in _graph_points(K, z)]:
            for dy, dl in _directions(K, gp, rng):
                h = dy + dl
                assert np.array_equal(K.dir_deriv(gp, h),
                                      ref_dir_deriv(K, gp.z, h))
                assert np.array_equal(proj_dir_deriv(K, gp.z, h),
                                      ref_dir_deriv(K, gp.z, h))
                ups, grad = ref_upsilon_and_grad(K, gp.y, gp.lam, dy)
                _assert_upsilon_matches(K, gp, dy, ups, grad)
                _assert_upsilon_matches(K, _fresh(K, gp), dy, ups, grad)
                hc = gp.critical.project(h)
                ups, grad = ref_upsilon_and_grad(K, gp.y, gp.lam, hc)
                _assert_upsilon_matches(K, gp, hc, ups, grad)
                verdict = _assert_dnk_matches(K, gp, dy, dl)
                seen.add((verdict, ups != 0.0))
    # every verdict kind of the draws, with and without curvature
    assert {("holds", True), ("holds", False), ("fails", True),
            ("fails", False)} <= seen


def test_graph_point_path_is_mirror_invariant():
    # the mirrored cone at the negated point holds the same plus data,
    # so every number is the exact negation (or the same number)
    for K, mirror, z, rng in _draws():
        for gp, gm in zip(_graph_points(K, z), _graph_points(mirror, -z)):
            assert np.array_equal(gm.y, -gp.y)
            assert np.array_equal(gm.lam, -gp.lam)
            for dy, dl in _directions(K, gp, rng):
                h = dy + dl
                assert np.array_equal(mirror.dir_deriv(gm, -h),
                                      -K.dir_deriv(gp, h))
                assert mirror.upsilon(gm, -dy) == K.upsilon(gp, dy)
                assert np.array_equal(mirror.upsilon_grad(gm, -dy),
                                      -K.upsilon_grad(gp, dy))
                assert _cert(dnk_contains(mirror, gm, -dy, -dl)) == \
                    _cert(dnk_contains(K, gp, dy, dl))


# ---------------------------------------------------------------------------
# the eigenframe kernels against the svec-space formulas, and metamorphic
# relations of dnk_contains

def _psd_kind_z(n, kind, rng):
    """A point of PSD(n)'s space: y interior ('interior'), y = 0 with lam
    interior to the polar ('polar'), a face with a zero part ('face'),
    or z = 0 ('apex')."""
    if kind == "apex":
        return np.zeros(n * (n + 1) // 2)
    if kind == "face":
        k0 = int(rng.integers(1, n + 1))
        kp = int(rng.integers(0, n - k0 + 1))
    else:
        k0, kp = 0, (n if kind == "interior" else 0)
    ev = np.concatenate([rng.uniform(0.5, 2.0, kp), np.zeros(k0),
                         -rng.uniform(0.5, 2.0, n - k0 - kp)])
    Q = _rotation(rng, n)
    return svec((Q * ev) @ Q.T)


def _frame_draws():
    """(K, z, rng): PSD orders 1-8 at each kind of point, and products
    with second-order and orthant blocks, in both signs."""
    rng = np.random.default_rng(53)
    kinds = ("interior", "polar", "face", "apex")
    for n in range(1, 9):
        for kind in kinds:
            for sign in (1, -1):
                z = sign * _psd_kind_z(n, kind, rng)
                yield ConeDesc([PSD(n, sign)]), z, rng
    for kind in kinds:
        for signs in ((1, 1, 1), (-1, 1, -1)):
            K = ConeDesc([PSD(3, signs[0]), SOC(4, signs[1]),
                          Orthant(3, signs[2])])
            parts = [_psd_kind_z(3, kind, rng), _plus_z(SOC, 4, rng),
                     _plus_z(Orthant, 3, rng)]
            yield K, np.concatenate([s * v for s, v in zip(signs, parts)]), \
                rng


def _frame_directions(K, gp, rng):
    """Members built from Pi', pairs perturbed in dy and dl (most fail
    the critical-cone gate), and pairs perturbed in dl alone (which pass
    it and fail route b)."""
    for j in range(6):
        h = rng.standard_normal(K.dim)
        dy = ref_dir_deriv(K, gp.z, h)
        dl = h - dy
        e = 0.3 * rng.standard_normal(K.dim)
        if j % 3 == 1:
            dy, dl = dy + e, dl - 0.5 * e
        elif j % 3 == 2:
            dl = dl + e
        yield dy, dl


def _congruence(K, V, v):
    """v with each PSD block X mapped to V^T X V (V of the block's order)."""
    return K.join([svec(V[b.order].T @ smat(p) @ V[b.order])
                   if isinstance(b, PSD) else p
                   for b, p in zip(K.blocks, K.split(v))])


def test_frame_kernels_match_the_svec_formulas():
    seen = set()
    for K, z, rng in _frame_draws():
        for gp in _graph_points(K, z):
            assert gp.critical.lineality_dim() == \
                gp.critical.lineality_basis().shape[1]
            for dy, dl in _frame_directions(K, gp, rng):
                h = dy + dl
                # a second-order block on the polar's boundary projects
                # onto the ray of its multiplier lam = z - Pi_K(z), which
                # the formula reads from z: a few ulps of ||h|| apart
                assert np.max(np.abs(K.dir_deriv(gp, h) - ref_dir_deriv(
                    K, gp.z, h))) <= 4 * np.finfo(float).eps * \
                    np.linalg.norm(h)
                _assert_upsilon_matches(
                    K, gp, dy, *ref_upsilon_and_grad(K, gp.y, gp.lam, dy))
                for S in (gp.critical, gp.critical_polar):
                    assert _near(S.dist(h), ref_dist(S, h),
                                 1.0 + np.linalg.norm(h))
                seen.add(_assert_dnk_matches(K, gp, dy, dl))
    assert seen == {"holds", "fails"}


def test_dnk_contains_is_invariant_under_mirror_and_congruence():
    # K <-> -K at (-y, -lam) with (-dy, -dl) gives the same numbers
    # exactly; X -> V^T X V on the PSD blocks of the point and of both
    # operands is an isometry of the cone, so the verdict is the same and
    # every residual agrees to rounding
    for K, z, rng in _frame_draws():
        mirror = ConeDesc([b.polar() for b in K.blocks])
        V = {n: _rotation(rng, n) for n in range(1, 9)}
        KV = ConeDesc([type(b)(b.size, b.sign) for b in K.blocks])
        for gp, gm, gv in zip(_graph_points(K, z), _graph_points(mirror, -z),
                              _graph_points(KV, _congruence(K, V, z))):
            for dy, dl in _frame_directions(K, gp, rng):
                cert = dnk_contains(K, gp, dy, dl)
                assert _cert(dnk_contains(mirror, gm, -dy, -dl)) == \
                    _cert(cert)
                rot = dnk_contains(KV, gv, _congruence(K, V, dy),
                                   _congruence(K, V, dl))
                scale = 1.0 + np.linalg.norm(dy) + np.linalg.norm(dl)
                assert rot.verdict == cert.verdict
                assert sorted(rot.details) == sorted(cert.details)
                assert all(_near(rot.details[k], cert.details[k], scale)
                           for k in cert.details), (rot.details, cert.details)
