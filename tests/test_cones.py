import numpy as np
import pytest

from conestab._sets import DEFAULT_TOL, Halfspace, PSDBlockSet, SignPattern
from conestab.cone_core import (
    ConeDesc, ConePoint, Orthant, SOC, PSD, Zero, Free,
    project, contains, tangent_cone, normal_cone,
)
from conestab.cone_geometry import ri_normal_contains
from conestab.jsonio import emit_cone, parse_cone
from conestab.proj_deriv import GraphPoint, proj_dir_deriv
from conestab.symmat import smat, svec

CONES = {
    "orthant": ConeDesc([Orthant(4, "plus")]),
    "orthant_minus": ConeDesc([Orthant(3, "minus")]),
    "soc": ConeDesc([SOC(4, "plus")]),
    "soc_minus": ConeDesc([SOC(3, "minus")]),
    "soc_scalar": ConeDesc([SOC(1, "plus")]),
    "psd": ConeDesc([PSD(3, "plus")]),
    "psd_minus": ConeDesc([PSD(2, "minus")]),
    "zero": ConeDesc([Zero(2)]),
    "free": ConeDesc([Free(2)]),
    "mixed": ConeDesc([PSD(2, "plus"), SOC(3, "minus"), Orthant(2, "plus"),
                       Zero(1), Free(1)]),
}


@pytest.mark.parametrize("K,z", [
    (ConeDesc([Orthant(2)]), [1.0, 1.0, -5.0]),
    (ConeDesc([Orthant(2)]), [1.0]),
    (ConeDesc([PSD(2), Orthant(1)]), np.zeros(3)),
    (ConeDesc([PSD(2), Orthant(1)]), np.zeros(5)),
])
def test_a_vector_of_the_wrong_length_is_a_dimension_mismatch(K, z):
    # contains, dist and project read z through ProductSet.split, which
    # checks its size before slicing it into blocks
    for call in (lambda: contains(K, z), lambda: K.dist(z),
                 lambda: project(K, z)):
        with pytest.raises(ValueError, match="dimension mismatch"):
            call()


def _point(K, y, lam, tol=DEFAULT_TOL):
    """The point z = y + lam of K, a ConeDesc or a primitive."""
    if isinstance(K, ConeDesc):
        return ConePoint(K, y + lam, tol, y, lam)
    return K.point(y + lam, tol, y, lam)


@pytest.mark.parametrize("K", CONES.values(), ids=CONES.keys())
def test_projection_idempotent_and_member(K):
    rng = np.random.default_rng(0)
    for _ in range(50):
        z = rng.standard_normal(K.dim) * 2
        p = project(K, z)
        assert contains(K, p)
        assert np.allclose(project(K, p), p, atol=1e-10)


@pytest.mark.parametrize("K", CONES.values(), ids=CONES.keys())
def test_moreau_decomposition(K):
    rng = np.random.default_rng(1)
    Kp = K.polar()
    for _ in range(100):
        z = rng.standard_normal(K.dim) * 3
        p = K.project(z)
        q = Kp.project(z)
        scale = 1.0 + float(np.linalg.norm(z))
        assert np.linalg.norm(p + q - z) <= 1e-10 * scale
        assert abs(float(p @ q)) <= 1e-10 * scale ** 2


@pytest.mark.parametrize("K", CONES.values(), ids=CONES.keys())
def test_tangent_normal_polarity(K):
    # on sampled base points, the normal set is the polar of the tangent set
    rng = np.random.default_rng(2)
    for _ in range(10):
        y = K.project(rng.standard_normal(K.dim) * 2)
        T = K.tangent_set(y)
        N = normal_cone(K, y)
        for _ in range(10):
            t = T.project(rng.standard_normal(K.dim))
            n = N.project(rng.standard_normal(K.dim))
            assert float(t @ n) <= 1e-8 * (1 + np.linalg.norm(t) * np.linalg.norm(n))
        # tangent contains the cone shifted to y along feasible rays
        w = K.project(rng.standard_normal(K.dim))
        assert T.contains(w - y) or T.dist(w - y) <= 1e-7 * (1 + np.linalg.norm(w))


@pytest.mark.parametrize("K", CONES.values(), ids=CONES.keys())
def test_critical_cone_structure(K):
    # critical directions are tangent and orthogonal to the multiplier
    rng = np.random.default_rng(3)
    for _ in range(10):
        z = rng.standard_normal(K.dim) * 2
        y = K.project(z)
        lam = z - y
        C = K.critical_set(_point(K, y, lam))
        T = K.tangent_set(y)
        for _ in range(10):
            h = C.project(rng.standard_normal(K.dim))
            assert T.dist(h) <= 1e-7 * (1 + np.linalg.norm(h))
            assert abs(float(h @ lam)) <= 1e-7 * (1 + np.linalg.norm(h) *
                                                  np.linalg.norm(lam))


@pytest.mark.parametrize("K", CONES.values(), ids=CONES.keys())
def test_dir_deriv_matches_tangent_projection_at_member(K):
    # at an interior-of-graph point z in K the derivative is the tangent
    # projection of the direction
    rng = np.random.default_rng(4)
    for _ in range(20):
        y = K.project(rng.standard_normal(K.dim) * 2)
        h = rng.standard_normal(K.dim)
        d = proj_dir_deriv(K, y, h)
        T = K.tangent_set(y)
        assert np.allclose(d, T.project(h), atol=1e-7)


@pytest.mark.parametrize("K", CONES.values(), ids=CONES.keys())
def test_dir_deriv_positively_homogeneous(K):
    rng = np.random.default_rng(5)
    for _ in range(20):
        z = rng.standard_normal(K.dim) * 2
        h = rng.standard_normal(K.dim)
        d1 = proj_dir_deriv(K, z, h)
        d2 = proj_dir_deriv(K, z, 2.5 * h)
        assert np.allclose(2.5 * d1, d2, atol=1e-9)


def test_sign_mirroring():
    rng = np.random.default_rng(6)
    for Kp, Km in [(ConeDesc([PSD(2, "plus")]), ConeDesc([PSD(2, "minus")])),
                   (ConeDesc([SOC(3, "plus")]), ConeDesc([SOC(3, "minus")])),
                   (ConeDesc([Orthant(3, "plus")]), ConeDesc([Orthant(3, "minus")]))]:
        for _ in range(20):
            z = rng.standard_normal(Kp.dim)
            assert np.allclose(Kp.project(z), -Km.project(-z), atol=1e-12)


def test_soc_membership_cases():
    K = ConeDesc([SOC(3, "plus")])
    assert contains(K, np.array([2.0, 1.0, 1.0]))
    assert contains(K, np.array([np.sqrt(2.0), 1.0, 1.0]))
    assert not contains(K, np.array([1.0, 1.0, 1.0]))
    assert not contains(K, np.array([-1.0, 0.0, 0.0]))


def test_orthant_tangent_normal_cases():
    K = ConeDesc([Orthant(2, "plus")])
    y = np.array([0.0, 1.0])
    T = tangent_cone(K, y)
    N = normal_cone(K, y)
    assert T.contains(np.array([1.0, -5.0]))
    assert not T.contains(np.array([-1.0, 0.0]))
    assert N.contains(np.array([-3.0, 0.0]))
    assert not N.contains(np.array([0.0, -1.0]))
    with pytest.raises(ValueError):
        tangent_cone(K, np.array([-1.0, 0.0]))


def test_psd_apex_sets():
    K = ConeDesc([PSD(2, "plus")])
    y = np.zeros(3)
    T = tangent_cone(K, y)
    N = normal_cone(K, y)
    assert T.contains(svec(np.eye(2)))
    assert not T.contains(svec(-np.eye(2)))
    assert N.contains(svec(-np.eye(2)))


def test_ri_normal_cases():
    K = ConeDesc([Orthant(2, "plus")])
    # inactive point: normal cone {0}, its relative interior contains 0
    assert ri_normal_contains(K, np.array([1.0, 2.0]), np.zeros(2))
    # active point with a zero multiplier component: not relative interior
    assert not ri_normal_contains(K, np.array([0.0, 0.0]),
                                  np.array([-1.0, 0.0]))
    assert ri_normal_contains(K, np.array([0.0, 0.0]),
                              np.array([-1.0, -2.0]))
    P = ConeDesc([PSD(2, "plus")])
    assert ri_normal_contains(P, svec(np.diag([1.0, 0.0])),
                              svec(np.diag([0.0, -2.0])))
    assert not ri_normal_contains(P, svec(np.diag([1.0, 0.0])), np.zeros(3))
    with pytest.raises(ValueError):
        ri_normal_contains(K, np.array([1.0, 1.0]), np.array([-1.0, 0.0]))


def test_critical_cone_psd_worked_case():
    # y = diag(1,0), lam = diag(0,-1): critical directions are the
    # symmetric matrices with vanishing (2,2) entry
    K = ConeDesc([PSD(2, "plus")])
    y = svec(np.diag([1.0, 0.0]))
    lam = svec(np.diag([0.0, -1.0]))
    C = K.critical_set(_point(K, y, lam))
    assert C.contains(svec(np.array([[1.0, 2.0], [2.0, 0.0]])))
    assert not C.contains(svec(np.diag([0.0, 1.0])))
    assert not C.contains(svec(np.diag([0.0, -1.0])))


def test_tangent_lineality_columns_are_linear_directions():
    for K in CONES.values():
        rng = np.random.default_rng(7)
        y = K.project(rng.standard_normal(K.dim))
        T = K.tangent_set(y)
        B = T.lineality_basis()
        for j in range(B.shape[1]):
            assert T.dist(B[:, j]) <= 1e-8
            assert T.dist(-B[:, j]) <= 1e-8


def test_project_rejects_nonfinite():
    K = ConeDesc([Orthant(2, "plus")])
    with pytest.raises(ValueError):
        project(K, np.array([np.nan, 0.0]))


@pytest.mark.parametrize("sign", ["plus", "minus"])
def test_soc_of_dimension_one_is_the_orthant(sign):
    b = SOC(1, sign)
    assert type(b) is Orthant
    assert b.dim == 1 and b.sign == Orthant(1, sign).sign
    assert b.is_polyhedral
    with pytest.raises(ValueError):
        SOC(0)


def test_cones_survive_pickle_and_copy():
    import copy
    import pickle
    K = CONES["mixed"]
    z = np.random.default_rng(5).standard_normal(K.dim)
    for K2 in (pickle.loads(pickle.dumps(K)), copy.deepcopy(K)):
        assert repr(K2) == repr(K)
        assert np.array_equal(K2.project(z), K.project(z))


def test_emit_cone_writes_soc1_as_orthant():
    K = parse_cone({"product": [{"soc": {"dim": 1}},
                                {"soc": {"dim": 1, "sign": "minus"}},
                                {"soc": {"dim": 3}}]})
    out = emit_cone(K)
    assert out == {"product": [{"orthant": {"dim": 1, "sign": "plus"}},
                               {"orthant": {"dim": 1, "sign": "minus"}},
                               {"soc": {"dim": 3, "sign": "plus"}}]}
    K2 = parse_cone(out)
    rng = np.random.default_rng(3)
    for _ in range(20):
        z = rng.standard_normal(K.dim)
        assert np.array_equal(K2.project(z), K.project(z))


def _pairs(K, rng, count):
    """(y, lam) with lam in N_K(y): Moreau pairs of K and their faces
    with a zero multiplier or at the apex."""
    for _ in range(count):
        z = rng.standard_normal(K.dim) * 2
        y, lam = K.project(z), K.polar().project(z)
        yield from ((y, lam), (y, np.zeros(K.dim)), (np.zeros(K.dim), lam))


@pytest.mark.parametrize("kind,size", [(Orthant, 3), (SOC, 4), (PSD, 3)])
def test_minus_primitive_is_the_negated_plus_primitive(kind, size):
    # (-K).critical_set(y, lam) = -K.critical_set(-y, -lam), and the same
    # mirror for the tangent cone, the projection derivative, Upsilon and
    # whether the critical cone is a subspace
    tol = DEFAULT_TOL
    plus, minus = kind(size, "plus"), kind(size, "minus")
    rng = np.random.default_rng(11)
    for y, lam in _pairs(minus, rng, 20):
        p, pp = _point(minus, y, lam, tol), _point(plus, -y, -lam, tol)
        C, Cp = minus.critical_set(p), plus.critical_set(pp)
        T, Tp = minus.tangent_set(y, tol), plus.tangent_set(-y, tol)
        gp = GraphPoint.of_pair(ConeDesc([minus]), y, lam, tol)
        gpp = GraphPoint.of_pair(ConeDesc([plus]), -y, -lam, tol)
        assert gp.critical_is_subspace == gpp.critical_is_subspace
        for _ in range(5):
            w = rng.standard_normal(minus.dim)
            assert np.allclose(C.project(w), -Cp.project(-w), atol=1e-12)
            assert np.allclose(T.project(w), -Tp.project(-w), atol=1e-12)
            assert np.allclose(minus.dir_deriv(p, w),
                               -plus.dir_deriv(pp, -w), atol=1e-12)
            assert minus.upsilon(p, w) == pytest.approx(
                plus.upsilon(pp, -w), abs=1e-12)
            assert np.allclose(minus.upsilon_grad(p, w),
                               -plus.upsilon_grad(pp, -w),
                               atol=1e-12)


def _curved_pairs(kind, sign):
    """(y, lam) with lam != 0 in N_K(y) for the curved cone kind(3, sign):
    a point on a proper face and the apex, in the plus cone and mirrored."""
    rng = np.random.default_rng(23)
    if kind is PSD:
        Q, _ = np.linalg.qr(rng.standard_normal((3, 3)))
        face = (svec(Q[:, :2] @ np.diag([1.5, 0.5]) @ Q[:, :2].T),
                -svec(0.7 * np.outer(Q[:, 2], Q[:, 2])))
        apex = (np.zeros(6), -svec(Q @ np.diag([1.0, 0.3, 0.0]) @ Q.T))
    else:
        r = rng.standard_normal(2)
        r /= np.linalg.norm(r)
        face = (np.concatenate([[2.0], 2.0 * r]),
                0.8 * np.concatenate([[-1.0], r]))
        apex = (np.zeros(3), np.array([-1.0, 0.3, -0.4]))
    s = 1.0 if sign == "plus" else -1.0
    return [(s * y, s * lam) for y, lam in (face, apex)]


@pytest.mark.parametrize("sign", ["plus", "minus"])
@pytest.mark.parametrize("kind", [PSD, SOC])
def test_upsilon_grad_is_a_symmetric_matrix_of_twice_upsilon(kind, sign):
    # h -> upsilon_grad(h) is h -> U h with U symmetric and
    # <h, U h> = 2 Upsilon(h): the premise of the second-order form used
    # by the isolated-calmness certificate
    tol = DEFAULT_TOL
    K = kind(3, sign)
    rng = np.random.default_rng(29)
    for y, lam in _curved_pairs(kind, sign):
        assert contains(ConeDesc([K]), y)
        assert K.tangent_set(y, tol).polar().contains(lam, tol)
        assert np.linalg.norm(lam) > 0.1
        p = _point(K, y, lam, tol)
        U = np.column_stack([K.upsilon_grad(p, e) for e in np.eye(K.dim)])
        # the curvature term lives on the face; at the apex it is 0
        assert (np.linalg.norm(U) > 0.1) == (np.linalg.norm(y) > 0)
        assert np.linalg.norm(U - U.T) <= 1e-12 * (1 + np.linalg.norm(U))
        for _ in range(5):
            h, k = rng.standard_normal(K.dim), rng.standard_normal(K.dim)
            a, b = rng.standard_normal(2)
            assert np.allclose(K.upsilon_grad(p, a * h + b * k),
                               U @ (a * h + b * k), atol=1e-12)
            assert float(h @ U @ h) == pytest.approx(
                2.0 * K.upsilon(p, h), abs=1e-12)


@pytest.mark.parametrize("sign", ["plus", "minus"])
def test_psd_upsilon_skips_eigh_at_a_zero_multiplier(monkeypatch, sign):
    # Upsilon is linear in lam, so at lam = 0 it and its gradient are 0
    # with no eigendecomposition; at lam != 0 the values are those of
    # -2 tr(L H Y^+ H) and its gradient, computed here from numpy alone
    tol = DEFAULT_TOL
    K = PSD(3, sign)
    s = 1.0 if sign == "plus" else -1.0
    rng = np.random.default_rng(31)
    calls = []
    eigh = np.linalg.eigh

    def counted(*args, **kwargs):
        calls.append(1)
        return eigh(*args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigh", counted)
    for y, lam in _curved_pairs(PSD, sign):
        for _ in range(3):
            h = rng.standard_normal(K.dim)
            calls.clear()
            assert K.upsilon(_point(K, y, np.zeros(6), tol), h) == 0.0
            assert np.array_equal(
                K.upsilon_grad(_point(K, y, np.zeros(6), tol), h), np.zeros(6))
            assert calls == []
            Y, L, H = (s * smat(v) for v in (y, lam, h))
            Yp = np.linalg.pinv(Y, hermitian=True)
            G = -2.0 * (Yp @ H @ L + L @ H @ Yp)
            assert K.upsilon(_point(K, y, lam, tol), h) == pytest.approx(
                -2.0 * np.trace(L @ H @ Yp @ H), abs=1e-12)
            assert np.allclose(K.upsilon_grad(_point(K, y, lam, tol), h),
                               s * svec(0.5 * (G + G.T)), atol=1e-12)


# ---------------------------------------------------------------------------
# T_K(y) is the critical set at (y, 0): the same sets, bit for bit, as the
# tangent-cone formulas below, each written for the plus cone

def _ref_tangent_plus(block, y, tol):
    sc = tol.zero * max(1.0, float(np.linalg.norm(y)))
    if isinstance(block, (Zero, Free)):
        return type(block)(block.dim)
    if isinstance(block, Orthant):
        return SignPattern(np.where(np.abs(y) <= sc, SignPattern.NONNEG,
                                    SignPattern.FREE))
    if isinstance(block, SOC):
        nb = float(np.linalg.norm(y[1:]))
        if float(np.linalg.norm(y)) <= sc:
            return SOC(block.dim)
        if y[0] - nb > sc:
            return Free(block.dim)
        if abs(y[0] - nb) <= sc:
            return Halfspace(np.concatenate([[-1.0], y[1:] / nb]))
        raise ValueError("point is not in the cone")
    w, U = np.linalg.eigh(smat(y))
    sc = tol.zero * max(1.0, float(np.abs(w).max(initial=0.0)))
    if np.any(w < -sc):
        raise ValueError("point is not in the cone")
    return PSDBlockSet(U, [np.where(w > sc)[0], np.where(np.abs(w) <= sc)[0]],
                       {(0, 0): SignPattern.FREE, (0, 1): SignPattern.FREE,
                        (1, 1): SignPattern.NONNEG})


def _ref_tangent(block, y, tol=DEFAULT_TOL):
    if not block.signed or block.sign > 0:
        return _ref_tangent_plus(block, y, tol)
    return _ref_tangent_plus(block, -y, tol).negate()


def _assert_same_set(S, R, rng):
    assert type(S) is type(R)
    assert np.array_equal(S.lineality_basis(), R.lineality_basis())
    for _ in range(4):
        w = 3.0 * rng.standard_normal(S.dim)
        assert np.array_equal(S.project(w), R.project(w))
        assert np.array_equal(S.polar().project(w), R.polar().project(w))


def _tangent_points(block, rng):
    """Members of the block: projections, faces and the apex."""
    pts = [np.zeros(block.dim)]
    for _ in range(6):
        z = 2.0 * rng.standard_normal(block.dim)
        pts += [block.project(z), block.project(block.project(z) - z)]
    if isinstance(block, PSD):
        Q, _ = np.linalg.qr(rng.standard_normal((3, 3)))
        pts.append(block.sign * svec((Q * [1.5, 0.0, 0.0]) @ Q.T))
    return pts


@pytest.mark.parametrize("sign", ["plus", "minus"])
@pytest.mark.parametrize("kind,size", [(Orthant, 4), (SOC, 4), (SOC, 1),
                                       (PSD, 3), (Zero, 3), (Free, 3)])
def test_tangent_set_is_the_tangent_formula(kind, size, sign):
    block = kind(size) if kind in (Zero, Free) else kind(size, sign)
    rng = np.random.default_rng(37)
    for y in _tangent_points(block, rng):
        assert contains(ConeDesc([block]), y)
        _assert_same_set(block.tangent_set(y, DEFAULT_TOL),
                         _ref_tangent(block, y), rng)
    # on a product, blockwise
    K = ConeDesc([PSD(2, sign), SOC(3, sign), Orthant(2, sign), Zero(1),
                  Free(1)])
    y = K.project(2.0 * rng.standard_normal(K.dim))
    T = K.tangent_set(y)
    for S, b, sl in zip(T.sets, K.blocks, K.slices):
        _assert_same_set(S, _ref_tangent(b, y[sl]), rng)


@pytest.mark.parametrize("sign", [1, -1])
def test_tangent_set_rejects_members_off_the_zero_tolerance(sign):
    # inside the cone to tol.membership, outside it to tol.zero: the
    # tangent formulas raise, and so does the critical set at (y, 0)
    psd = PSD(2, sign)
    y_psd = sign * svec(np.diag([1.0, -5e-9]))
    soc = SOC(3, sign)
    y_soc = sign * np.array([1.0, 1.0 + 5e-9, 0.0])
    for block, y in ((psd, y_psd), (soc, y_soc)):
        assert contains(ConeDesc([block]), y)
        with pytest.raises(ValueError, match="not in the cone"):
            _ref_tangent(block, y)
        with pytest.raises(ValueError, match="not in the cone"):
            block.tangent_set(y, DEFAULT_TOL)
        with pytest.raises(ValueError, match="not in the cone"):
            ConeDesc([block]).tangent_set(y)
