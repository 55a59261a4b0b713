import numpy as np
import pytest

from conestab._sets import Tol, DEFAULT_TOL, SignPattern, Halfspace
from conestab.cone_core import ConeDesc, Orthant, SOC, PSD
from conestab.cone_geometry import subspace_cone_trivial
from conestab.proj_deriv import GraphPoint
from conestab.symmat import smat, svec


def _graph_pair(K, rng):
    z = rng.standard_normal(K.dim) * 2
    y = K.project(z)
    return y, z - y


def test_critical_cone_rejects_off_graph_pair():
    K = ConeDesc([Orthant(2, "plus")])
    with pytest.raises(ValueError):
        GraphPoint(K, np.array([1.0, 0.0]), np.array([-1.0, 0.0]))
    with pytest.raises(ValueError):
        GraphPoint(K, np.array([-1.0, 0.0]), np.zeros(2))


def test_critical_cone_rejects_non_finite_pair():
    K = ConeDesc([Orthant(2, "plus")])
    for y, lam in (([np.nan, 0.0], [0.0, -1.0]), ([1.0, 0.0], [0.0, np.nan])):
        with pytest.raises(ValueError):
            GraphPoint(K, np.array(y), np.array(lam))


def test_a_multiplier_outside_the_normal_cone_has_one_message():
    # the relative-interior test and the SOC critical cone at the apex
    # reject such a multiplier with the same text, clearly outside and
    # between the membership and classification thresholds
    from conestab.cone_geometry import ri_normal_contains

    K = ConeDesc([SOC(3)])
    for lam in ([-1.0, 1.1, 0.0], [-1.0, 1.0 + 5e-9, 0.0]):
        lam = np.array(lam)
        for call in (lambda: ri_normal_contains(K, np.zeros(3), lam),
                     lambda: GraphPoint.of_pair(K, np.zeros(3), lam,
                                                DEFAULT_TOL).critical):
            with pytest.raises(ValueError) as exc:
                call()
            assert str(exc.value) == "multiplier outside the normal cone"


@pytest.mark.parametrize("K", [
    ConeDesc([Orthant(4, "plus")]),
    ConeDesc([SOC(3, "plus")]),
    ConeDesc([PSD(2, "plus")]),
    ConeDesc([PSD(2, "minus"), Orthant(2, "plus")]),
], ids=["orthant", "soc", "psd", "mixed"])
def test_tangent_of_normal_is_polar_of_critical(K):
    rng = np.random.default_rng(0)
    for _ in range(10):
        y, lam = _graph_pair(K, rng)
        gp = GraphPoint(K, y, lam)
        C, T = gp.critical, gp.critical_polar
        for _ in range(10):
            h = C.project(rng.standard_normal(K.dim))
            g = T.project(rng.standard_normal(K.dim))
            assert float(h @ g) <= 1e-8 * (1 + np.linalg.norm(h) *
                                           np.linalg.norm(g))


def test_subspace_cone_trivial_known_cases():
    C = SignPattern([1, 1])  # R^2_+
    # span(e1) meets R^2_+ along a ray: not trivial
    cert = subspace_cone_trivial(np.array([[1.0], [0.0]]), C)
    assert cert.verdict == "fails"
    assert cert.witness is not None
    assert C.dist(cert.witness) <= 1e-6
    assert np.linalg.norm(cert.witness) > 1e-4
    # span(e1 - e2) only touches R^2_+ at the origin: trivial
    cert = subspace_cone_trivial(np.array([[1.0], [-1.0]]), C)
    assert cert.verdict == "holds"
    assert cert.witness is None


def test_subspace_cone_trivial_full_space_cases():
    C = SignPattern([1, 1, 1])
    cert = subspace_cone_trivial(np.eye(3), C)
    assert cert.verdict == "fails"
    # empty subspace is trivially {0}
    cert = subspace_cone_trivial(np.zeros((3, 0)), C)
    assert cert.verdict == "holds"
    # zero columns span {0}
    cert = subspace_cone_trivial(np.zeros((3, 2)), C)
    assert cert.verdict == "holds"


def test_subspace_cone_trivial_rank_deficient_basis():
    # L = [e1, e1, e2, e3] spans a 3-D subspace; C = {z1 = z2 = 0, z3 >= 0}
    # meets it along the ray of e3
    L = np.eye(4)[:, [0, 0, 1, 2]]
    C = SignPattern([2, 2, 1, 0])
    cert = subspace_cone_trivial(L, C)
    assert cert.verdict == "fails"
    w = cert.witness / np.linalg.norm(cert.witness)
    assert np.allclose(w, [0.0, 0.0, 1.0, 0.0], atol=1e-6)


def test_subspace_cone_trivial_halfspace():
    # any line meets a halfspace nontrivially
    C = Halfspace(np.array([0.0, 0.0, 1.0]))
    cert = subspace_cone_trivial(np.array([[1.0], [0.0], [0.0]]), C)
    assert cert.verdict == "fails"


def test_subspace_cone_trivial_psd_critical_cone():
    # critical cone at (diag(1,0), diag(0,-1)) forces a zero (2,2) entry;
    # the span of svec(diag(0,1)) meets it only at 0, the span of
    # svec(E12) lies inside it
    K = ConeDesc([PSD(2, "plus")])
    y = svec(np.diag([1.0, 0.0]))
    lam = svec(np.diag([0.0, -1.0]))
    C = GraphPoint(K, y, lam).critical
    cert = subspace_cone_trivial(svec(np.diag([0.0, 1.0])).reshape(-1, 1), C)
    assert cert.verdict == "holds"
    e12 = svec(np.array([[0.0, 1.0], [1.0, 0.0]]))
    cert = subspace_cone_trivial(e12.reshape(-1, 1), C)
    assert cert.verdict == "fails"


# ---------------------------------------------------------------------------
# a one-dimensional span(L) and a cone with a closed-form projection are
# decided exactly by the distances of ±q to C; everything else by slices

LINE = "closed-form distances of ±q to C"
SLICES = "radius-certified slices"


def _in_span(L, z):
    Q, _ = np.linalg.qr(np.asarray(L, float).reshape(len(z), -1))
    return float(np.linalg.norm(z - Q @ (Q.T @ z)))


def test_line_along_soc_boundary_ray_fails():
    C = ConeDesc([SOC(3, "plus")])
    L = np.array([[1.0], [0.6], [0.8]])
    cert = subspace_cone_trivial(L, C)
    assert cert.verdict == "fails" and cert.method.startswith(LINE)
    assert cert.residual == 1.0
    assert np.linalg.norm(cert.witness) == pytest.approx(1.0)
    assert C.dist(cert.witness) <= DEFAULT_TOL.membership
    assert _in_span(L, cert.witness) <= 1e-15
    # the witness is the point of the line on the ray, not its opposite
    assert float(cert.witness @ L[:, 0]) > 0
    assert min(cert.details["dist_plus"], cert.details["dist_minus"]) <= \
        DEFAULT_TOL.membership


def test_line_meeting_psd_critical_cone_only_at_origin_holds():
    # at y = diag(1, 0, 0) with lam = 0 the critical cone is
    # {H : H[1:, 1:] psd}; diag(0, 1, -1) is indefinite there, and so is
    # its negative
    K = ConeDesc([PSD(3, "plus")])
    C = GraphPoint(K, svec(np.diag([1.0, 0.0, 0.0])), np.zeros(6)).critical
    L = svec(np.diag([0.0, 1.0, -1.0])).reshape(-1, 1)
    cert = subspace_cone_trivial(L, C)
    assert cert.verdict == "holds" and cert.method.startswith(LINE)
    assert cert.residual == 0.0 and cert.witness is None
    dists = sorted(cert.details[k] for k in ("dist_plus", "dist_minus"))
    assert dists[0] >= 1e-4
    # a reader re-checks both distances with one projection each
    q = L[:, 0] / np.linalg.norm(L)
    assert dists == pytest.approx(sorted([C.dist(q), C.dist(-q)]), abs=1e-15)
    assert dists[0] == pytest.approx(1 / np.sqrt(2))


def test_near_touching_line_is_inconclusive():
    # (1, 1 + 1e-6, 0) leaves SOC(3) by about 3.5e-7: above the fail
    # threshold 1e-8 and below the hold threshold sqrt(1e-8) = 1e-4
    C = ConeDesc([SOC(3, "plus")])
    L = np.array([[1.0], [1.0 + 1e-6], [0.0]])
    cert = subspace_cone_trivial(L, C)
    assert cert.verdict == "inconclusive" and cert.method.startswith(LINE)
    assert 1e-8 < cert.residual < 1e-4
    assert cert.residual == min(cert.details["dist_plus"],
                                cert.details["dist_minus"])


def test_rank_one_basis_with_two_columns_takes_the_line_route():
    C = ConeDesc([SOC(3, "plus")])
    q = np.array([1.0, 0.6, 0.8])
    for L, verdict in ((np.column_stack([q, 2 * q]), "fails"),
                       (np.column_stack([-q, 3 * q]), "fails"),
                       (np.column_stack([[0.0, 1, 0], [0.0, -2, 0]]),
                        "holds")):
        cert = subspace_cone_trivial(L, C)
        assert cert.method.startswith(LINE)
        assert cert.verdict == verdict
        assert cert.verdict == subspace_cone_trivial(L[:, :1], C).verdict
    # a second singular value of about 7e-11 counts toward the rank,
    # s > tol.zero ||L|| with ||L|| = 2, only when tol.zero < 3.5e-11
    e = np.array([0.0, 0.8, -0.6])
    L = np.column_stack([q, q + 1e-10 * e])
    assert np.linalg.svd(L, compute_uv=False)[1] == pytest.approx(7.1e-11,
                                                                  rel=0.01)
    for tol, route in ((DEFAULT_TOL, LINE),
                       (Tol(membership=1e-6, zero=1e-7), LINE),
                       (Tol(membership=1e-11, zero=1e-12), SLICES)):
        assert subspace_cone_trivial(L, C, tol).method.startswith(route)


def test_a_set_that_is_not_a_cone_is_inconclusive():
    # both routes rest on C being a cone: a line meets it along ±q, and a
    # nonzero point of span(L) ∩ C rescales into a slice
    from conestab._sets import AffineSet

    C = AffineSet(np.array([[1.0, 0.0]]), np.array([1.0]))
    for L in (np.array([[1.0], [0.0]]), np.eye(2)):
        cert = subspace_cone_trivial(L, C)
        assert (cert.verdict, cert.method) == \
            ("inconclusive", "C is not a cone")


# ---------------------------------------------------------------------------
# known answers at rank >= 2, each re-checked here with numpy alone: a
# `fails` by its witness, a `holds` by every slice's Gordan vector h

def _own_projection(blocks):
    """Projection onto a product of ("psd" | "soc" | "orthant", size,
    sign) blocks, written with numpy and the svec coordinates only."""
    def plus(kind, u):
        if kind == "orthant":
            return np.maximum(u, 0.0)
        if kind == "psd":
            w, U = np.linalg.eigh(smat(u))
            return svec((U * np.maximum(w, 0.0)) @ U.T)
        nb = np.linalg.norm(u[1:])
        if nb <= u[0]:
            return u.copy()
        if nb <= -u[0]:
            return np.zeros_like(u)
        c = (u[0] + nb) / 2.0
        return np.concatenate([[c], c * u[1:] / nb])

    sizes = [size * (size + 1) // 2 if kind == "psd" else size
             for kind, size, _ in blocks]

    def project(z):
        parts = np.split(np.asarray(z, float), np.cumsum(sizes)[:-1])
        return np.concatenate([s * plus(kind, s * u) for (kind, _, s), u
                               in zip(blocks, parts)])

    return project


def _cone_of(blocks):
    ctor = {"psd": PSD, "soc": SOC, "orthant": Orthant}
    return ConeDesc([ctor[kind](size, "plus" if s > 0 else "minus")
                     for kind, size, s in blocks])


def _recheck_slices(cert, L, project, tol=DEFAULT_TOL):
    """Re-check a rank >= 2 certificate against span(L) and the cone
    with projection `project`; returns its verdict."""
    k = np.linalg.matrix_rank(L)
    Q = cert.details["basis"]
    assert Q.shape[1] == k >= 2 and cert.method.startswith(SLICES)
    assert np.allclose(Q.T @ Q, np.eye(k), atol=1e-12)
    assert np.linalg.norm(L - Q @ (Q.T @ L)) <= 1e-10 * np.linalg.norm(L)
    if cert.verdict == "fails":
        w = cert.witness
        # a coordinate of w in an orthonormal basis of span(L) is ±1
        assert abs(abs(Q[:, cert.details["j"]] @ w) - 1.0) <= 1e-12
        assert _in_span(L, w) <= 1e-10 * np.linalg.norm(w)
        assert np.linalg.norm(w - project(w)) <= tol.membership
        return "fails"
    W = cert.details["complement"]
    n = Q.shape[0]
    assert np.allclose(np.hstack([Q, W]).T @ np.hstack([Q, W]), np.eye(n),
                       atol=1e-12)
    got = sorted((s["j"], s["sign"]) for s in cert.details["slices"])
    assert got == sorted((j, s) for j in range(k) for s in (1.0, -1.0))
    worst = np.inf
    for s in cert.details["slices"]:
        # a point x of the slice {x in span(L) : <q_j, x> = sign} has
        # <h, b> = <M^T h, x> <= ||Pi_C(M^T h)|| ||x|| (Moreau), so
        # ||x|| >= <h, b> / dist(M^T h, C°): the stored R, or better
        M = np.vstack([Q[:, s["j"]], W.T])
        b = np.concatenate([[s["sign"]], np.zeros(n - k)])
        u = M.T @ s["h"]
        dist = np.linalg.norm(project(u))
        reread = float(s["h"] @ b) / dist if dist > 0 else np.inf
        assert reread >= s["radius"] * (1 - 1e-9)
        worst = min(worst, reread)
    if cert.verdict == "holds":
        assert worst > np.sqrt(k)
    else:
        assert cert.verdict == "inconclusive"
        assert cert.residual == min(s["radius"] for s in
                                    cert.details["slices"]) <= np.sqrt(k)
    return cert.verdict


GAUSSIAN_SHAPES = (
    (("psd", 3, 1), ("orthant", 2, 1)),
    (("soc", 3, 1), ("orthant", 1, 1)),
    (("psd", 2, 1), ("soc", 3, 1)),
    (("psd", 3, 1), ("psd", 3, -1), ("orthant", 1, 1)),
)


def test_slices_decide_gaussian_rank_two_kernels():
    # 35 Gaussian bases of rank 2 to dim - 1 per cone.  The one
    # `inconclusive` draw is near-tangent: its weakest slice stalls at
    # R = 1.06 against sqrt(3), with the residual level at about 2e-3.
    rng = np.random.default_rng(12)
    counts = {"holds": 0, "fails": 0, "inconclusive": 0}
    weak = []
    for blocks in GAUSSIAN_SHAPES:
        C, project = _cone_of(blocks), _own_projection(blocks)
        for _ in range(35):
            L = rng.standard_normal((C.dim, int(rng.integers(2, C.dim))))
            verdict = _recheck_slices(subspace_cone_trivial(L, C), L,
                                      project)
            counts[verdict] += 1
            if verdict == "inconclusive":
                weak.append((C.dim, L.shape[1]))
    assert counts == {"holds": 63, "fails": 76, "inconclusive": 1}
    assert weak == [(6, 3)]


def test_slice_witnesses_keep_a_loose_tolerance():
    # with a loose membership tolerance and a short cycle cap, Dykstra
    # "converges" at points up to tol.membership (1 + ||z||) from the
    # sets; a witness is kept only within tol.membership of C
    tol = Tol(membership=0.05, zero=0.005, max_iter=4)
    rng = np.random.default_rng(12)
    fails = 0
    for blocks in GAUSSIAN_SHAPES:
        C, project = _cone_of(blocks), _own_projection(blocks)
        for _ in range(35):
            L = rng.standard_normal((C.dim, int(rng.integers(2, C.dim))))
            cert = subspace_cone_trivial(L, C, tol)
            fails += _recheck_slices(cert, L, project, tol) == "fails"
    assert fails > 50


def test_slices_hold_on_the_pinned_qualify_kernels():
    # srcq at the planted relative-interior multiplier: the polar of the
    # critical cone is span N_K(y), so it holds exactly when A^T is
    # injective on that span
    from test_tooling import _bench_module
    from conestab.constraint_system import BasePoint, BasePair, \
        affine_system, srcq_check

    # (srcq itself decides span(L) = {0} by rank, so the slices run on
    # the whole kernel of A^T)
    wl = _bench_module("workloads")
    for pin_seed in (19, 61):
        shape, n = dict(wl.Qualify.PINNED)[pin_seed]
        item = wl.Qualify._instance(np.random.default_rng(pin_seed), shape,
                                    n, conditioned=False)
        A, N = item["A"], item["span_normal"]
        assert np.linalg.svd(A.T @ N, compute_uv=False).min() > 1e-6
        system = affine_system(_cone_of(item["blocks"]), A, item["b"])
        pair = BasePair(BasePoint(system, item["x"]), item["v"], item["lam"])
        assert srcq_check(pair).verdict == "holds", pin_seed
        ker = np.linalg.svd(A.T)[2][n:].T
        cert = subspace_cone_trivial(ker, pair.critical_polar)
        P = N @ np.linalg.pinv(N)
        assert cert.verdict == "holds", pin_seed
        assert _recheck_slices(cert, ker, lambda z: P @ z) == "holds"
        assert ker.shape[1] == {19: 4, 61: 5}[pin_seed]


def test_slices_fail_on_example3_and_a_nine_dimensional_kernel():
    from conestab.constraint_system import BasePoint, BasePair, \
        EXAMPLE3_XBAR, EXAMPLE3_VBAR, affine_system, example3_system, \
        srcq_check

    # example3: ker J^T = {(a, -a)}, and with lam = (-E11/2, -E11/2) the
    # polar of the critical cone is R^3 x span(E11)
    e11 = svec(np.diag([1.0, 0.0]))
    pair = BasePair(BasePoint(example3_system(), EXAMPLE3_XBAR),
                    EXAMPLE3_VBAR, np.concatenate([-0.5 * e11, -0.5 * e11]))
    assert srcq_check(pair).verdict == "fails"
    ker = np.vstack([np.eye(3), -np.eye(3)])
    cert = subspace_cone_trivial(ker, pair.critical_polar)
    line = np.outer(e11, e11)
    assert _recheck_slices(cert, ker, lambda z: np.concatenate(
        [z[:3], line @ z[3:]])) == "fails"
    assert cert.details["cycles"] == 1

    # PSD(3) x -PSD(3) x -R_+ at rank-one faces with strictly
    # complementary multipliers, Gaussian A with dim_x 4: the kernel of
    # A^T (dimension 9) and span N_K(y) (dimension 3 + 3 + 1) share at
    # least a 3-dimensional subspace of R^13
    rng = np.random.default_rng(5)
    ys, lams, spans = [], [], []
    for s in (1.0, -1.0):
        U, _ = np.linalg.qr(rng.standard_normal((3, 3)))
        ys.append(s * svec(1.3 * np.outer(U[:, 0], U[:, 0])))
        lams.append(-s * svec(U[:, 1:] @ np.diag([0.8, 1.7]) @ U[:, 1:].T))
        spans.append(np.column_stack([
            svec(U[:, 1:] @ E @ U[:, 1:].T) for E in
            (np.diag([1.0, 0.0]), np.diag([0.0, 1.0]),
             np.array([[0.0, 1.0], [1.0, 0.0]]))]))
    y = np.concatenate(ys + [[0.0]])
    lam = np.concatenate(lams + [[0.9]])
    N = np.zeros((13, 7))
    N[:6, :3], N[6:12, 3:6], N[12, 6] = spans[0], spans[1], 1.0
    A = rng.standard_normal((13, 4))
    x = rng.standard_normal(4)
    system = affine_system(
        ConeDesc([PSD(3), PSD(3, "minus"), SOC(1, "minus")]), A, y - A @ x)
    pair = BasePair(BasePoint(system, x), A.T @ lam, lam)
    srcq = srcq_check(pair)
    assert srcq.verdict == "fails"
    assert np.linalg.norm(A.T @ srcq.witness) <= 1e-9
    ker = np.linalg.svd(A.T)[2][4:].T
    cert = subspace_cone_trivial(ker, pair.critical_polar)
    P = N @ np.linalg.pinv(N)
    assert _recheck_slices(cert, ker, lambda z: P @ z) == "fails"
    assert np.linalg.norm(A.T @ cert.witness) <= 1e-9
