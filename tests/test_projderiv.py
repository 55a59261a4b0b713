import numpy as np
import pytest

from conestab._sets import Tol, DEFAULT_TOL
from conestab.cone_core import ConeDesc, Orthant, SOC, PSD, Zero, Free
from conestab.proj_deriv import GraphPoint, proj_dir_deriv, dnk_contains
from conestab.oracle import (
    fd_proj_deriv, graph_tangent_residual, sigma_expansion,
)
from conestab.symmat import svec

CONES = {
    "orthant": ConeDesc([Orthant(5, "plus")]),
    "soc": ConeDesc([SOC(4, "plus")]),
    "psd": ConeDesc([PSD(3, "plus")]),
    "mixed": ConeDesc([PSD(2, "minus"), SOC(3, "plus"), Orthant(2, "plus"),
                       Zero(1), Free(1)]),
}


def test_graph_point_invariant_raises():
    K = ConeDesc([Orthant(2, "plus")])
    with pytest.raises(ValueError):
        GraphPoint(K, np.array([1.0, 0.0]), np.array([-1.0, 0.0]))
    with pytest.raises(ValueError):
        GraphPoint(K, np.array([-1.0, 0.0]), np.zeros(2))
    gp = GraphPoint(K, np.array([0.0, 1.0]), np.array([-2.0, 0.0]))
    assert np.allclose(gp.z, [-2.0, 1.0])


def test_graph_point_complementarity_threshold_follows_tol():
    # y = (1, 0), lam = (delta, -1): the graph residual |delta| passes the
    # membership test, and |<y, lam>| = delta meets the complementarity
    # threshold tol.zero / 10 * (1 + |y| |lam|) = 2 tol.zero / 10
    K = ConeDesc([Orthant(2, "plus")])
    y = np.array([1.0, 0.0])

    def lam(delta):
        return np.array([delta, -1.0])

    GraphPoint(K, y, lam(1.9e-10))
    with pytest.raises(ValueError, match="complementarity"):
        GraphPoint(K, y, lam(2.1e-10))
    with pytest.raises(ValueError, match="complementarity"):
        GraphPoint(K, y, lam(1e-9), DEFAULT_TOL)
    GraphPoint(K, y, lam(1e-9), Tol(zero=1e-7))
    with pytest.raises(ValueError, match="complementarity"):
        GraphPoint(K, y, lam(1.9e-10), Tol(zero=1e-10))


def _near_boundary(block, rng):
    """A point of the block's space at a relative distance 1e-16 to 1e-3
    from the boundary of the cone or its polar, so that y or lam is tiny
    beside z."""
    delta = 10.0 ** rng.uniform(-16, -3)
    if isinstance(block, SOC):
        u = rng.standard_normal(block.dim - 1)
        # on the boundary of the cone (z0 = 1) or of its polar (z0 = -1)
        z = np.concatenate([[rng.choice([1.0, -1.0])], u / np.linalg.norm(u)])
    elif isinstance(block, PSD):
        Q, _ = np.linalg.qr(rng.standard_normal((block.order,) * 2))
        ev = rng.standard_normal(block.order)
        ev[rng.random(block.order) < 0.5] = 0.0
        z = svec((Q * ev) @ Q.T)
    else:
        z = rng.standard_normal(block.dim)
    return block.sign * z + delta * rng.standard_normal(block.dim)


def test_from_z_accepts_its_own_split_at_every_scale():
    # (Pi_K(z), z - Pi_K(z)) is on the graph by construction; the
    # rounding of lam = z - y, about eps ||y|| ||z|| in <y, lam>, must not
    # read as a complementarity violation at large ||z||
    rng = np.random.default_rng(53)
    cones = [ConeDesc([SOC(5)]), ConeDesc([SOC(4, "minus")]),
             ConeDesc([PSD(4)]), ConeDesc([PSD(3, "minus")]),
             ConeDesc([SOC(3, "minus"), PSD(3), Orthant(2), SOC(6)])]
    for K in cones:
        for scale in 10.0 ** np.arange(7):
            for _ in range(40):
                z = scale * np.concatenate([_near_boundary(b, rng)
                                            for b in K.blocks])
                gp = GraphPoint.from_z(K, z)
                assert np.array_equal(gp.y, K.project(z))
                assert np.array_equal(gp.lam, z - gp.y)


def test_dnk_contains_rejects_nonfinite_input():
    K = ConeDesc([PSD(2), SOC(3)])
    gp = GraphPoint.from_z(K, np.arange(6.0) - 2.5)
    ok = np.ones(6)
    for bad in (np.nan, np.inf, -np.inf):
        v = ok.copy()
        v[2] = bad
        for dy, dl in ((v, ok), (ok, v)):
            with pytest.raises(ValueError, match="non-finite"):
                dnk_contains(K, gp, dy, dl)


@pytest.mark.filterwarnings("ignore:overflow encountered")
def test_dnk_contains_rejects_an_overflowing_norm():
    # finite entries whose norm overflows: the threshold would read inf and
    # pass any pair, so the check raises instead
    K = ConeDesc([PSD(2), SOC(3)])
    gp = GraphPoint.from_z(K, np.arange(6.0) - 2.5)
    ok = np.ones(6)
    for big in (1e200, -1e200):
        v = ok.copy()
        v[2] = big
        for dy, dl in ((v, ok), (ok, v)):
            with pytest.raises(ValueError, match="the norm of dy or dl "
                               "overflows"):
                dnk_contains(K, gp, dy, dl)


def test_dnk_contains_rejects_wrong_shapes():
    # a wrong length, or the right length in a 2-D array, is named
    # before numpy broadcasts it
    K = ConeDesc([PSD(2), SOC(3)])
    gp = GraphPoint.from_z(K, np.arange(6.0) - 2.5)
    ok = np.ones(6)
    for bad in (np.ones(5), np.ones(7), np.ones((6, 1)), np.ones((1, 6)),
                np.ones((2, 3)), np.float64(1.0)):
        for dy, dl in ((bad, ok), (ok, bad)):
            with pytest.raises(ValueError, match="dimension mismatch"):
                dnk_contains(K, gp, dy, dl)


def test_proj_dir_deriv_input_checks():
    K = ConeDesc([Orthant(2, "plus")])
    with pytest.raises(ValueError):
        proj_dir_deriv(K, np.zeros(3), np.zeros(3))
    with pytest.raises(ValueError):
        proj_dir_deriv(K, np.array([np.inf, 0.0]), np.zeros(2))
    K = ConeDesc([PSD(2), SOC(3)])
    for bad in (np.ones(5), np.ones(7), np.ones((6, 1)), np.ones((2, 3))):
        for z, h in ((bad, np.ones(6)), (np.ones(6), bad)):
            with pytest.raises(ValueError, match="dimension mismatch"):
                proj_dir_deriv(K, z, h)


@pytest.mark.parametrize("K", CONES.values(), ids=CONES.keys())
def test_dir_deriv_matches_finite_differences(K):
    rng = np.random.default_rng(42)
    worst = 0.0
    for _ in range(25):
        z = rng.standard_normal(K.dim) * 2
        h = rng.standard_normal(K.dim)
        exact = proj_dir_deriv(K, z, h)
        approx, err = fd_proj_deriv(K, z, h)
        worst = max(worst, float(np.linalg.norm(exact - approx)))
    assert worst <= 1e-6


def _case_points(rng):
    """(label, block, z, near): every primitive in both signs at the apex,
    on faces and boundary rays, in the interior, in the polar's interior
    and on the polar's boundary; each point also moved by half of
    tol.zero in three random directions (near), so it sits within
    tol.zero of its case boundary, on either side."""
    delta = 0.5 * DEFAULT_TOL.zero
    orth = {"apex": [0, 0, 0], "face": [1.5, 0, 0], "edge": [1, 0, -1],
            "interior": [1, 2, .5], "polar interior": [-1, -2, -.5],
            "polar face": [0, -1, -2]}
    soc = {"apex": [0, 0, 0], "interior": [2, .5, .5],
           "boundary ray": [1, .6, .8], "polar interior": [-2, .5, .5],
           "polar boundary ray": [-1, .6, .8]}
    Q, _ = np.linalg.qr(rng.standard_normal((3, 3)))
    psd = {label: svec((Q * np.array(ev, float)) @ Q.T) for label, ev in
           dict(orth, ray=[1.5, 0, 0], face=[1, 2, 0]).items()}
    for kind, table in ((Orthant, orth), (SOC, soc), (PSD, psd),
                        (Zero, orth), (Free, orth)):
        signed = kind in (Orthant, SOC, PSD)
        for sign in (1, -1) if signed else (1,):
            block = kind(3, sign) if signed else kind(3)
            for label, z in table.items():
                z = sign * np.asarray(z, float)
                yield label, block, z, False
                for _ in range(3):
                    e = rng.standard_normal(z.size)
                    yield label, block, z + delta * e / np.linalg.norm(e), \
                        True


def test_dir_deriv_projects_onto_the_critical_cone():
    # where a block is not curved, Pi'_K(z; h) is the projection of h onto
    # the critical cone C_K(y, lam), and the finite differences of Pi_K
    # agree.  A point moved delta off a case boundary biases those by up
    # to about 11 delta / 1e-4 per entry, from the Richardson step over
    # t = 1e-4 and 1e-5
    rng = np.random.default_rng(71)
    eps = np.finfo(float).eps
    checked = set()
    for label, block, z, near in _case_points(rng):
        K = ConeDesc([block])
        gp = GraphPoint.from_z(K, z)
        (q,) = gp.blocks
        if q.curved:
            continue
        checked.add((repr(block), label))
        slack = 1e-6 + (20 * 0.5 * DEFAULT_TOL.zero / 1e-4 if near else 0.0)
        for _ in range(5):
            h = rng.standard_normal(K.dim)
            exact = block.dir_deriv(q, h)
            onto_c = block.critical_set(q).project(h)
            if isinstance(block, PSD):  # divided differences, to rounding
                assert np.max(np.abs(exact - onto_c)) <= \
                    16 * eps * (1 + np.linalg.norm(h)), (block, label)
            else:
                assert np.array_equal(exact, onto_c), (block, label)
            assert np.linalg.norm(fd_proj_deriv(K, z, h)[0] - exact) <= \
                slack, (block, label, near)
    # a PSD block is curved wherever lam != 0 (on its edge, polar face
    # and polar interior); every other case is read
    assert len(checked) == 2 * (6 + 5 + 4) + 6 + 6


def test_sigma_term_frozen_psd_value():
    # y = diag(1,0), lam = diag(0,-1), h = offdiag(1): the curvature
    # functional evaluates to exactly 2
    K = ConeDesc([PSD(2, "plus")])
    gp = GraphPoint(K, svec(np.diag([1.0, 0.0])), svec(np.diag([0.0, -1.0])))
    h = svec(np.array([[0.0, 1.0], [1.0, 0.0]]))
    ups = K.upsilon(gp, h)
    assert ups == pytest.approx(2.0, abs=1e-12)
    # the expansion oracle measures the same quantity with the opposite
    # sign: the support-function limit it computes equals -Upsilon
    sig, err = sigma_expansion(K, gp, h)
    assert sig == pytest.approx(-2.0, abs=1e-4)


def test_sigma_term_frozen_soc_boundary_value():
    K = ConeDesc([SOC(3, "plus")])
    y = np.array([1.0, 0.6, 0.8])
    lam = -0.35 * np.array([1.0, -0.6, -0.8])
    gp = GraphPoint(K, y, lam)
    h = np.array([0.16, 0.3, -0.1])
    h = h - (float(h @ lam) / float(lam @ lam)) * lam  # into the critical cone
    ups = K.upsilon(gp, h)
    expected = (0.35 / 1.0) * (h[1] ** 2 + h[2] ** 2 - h[0] ** 2)
    assert ups == pytest.approx(expected, rel=1e-10)
    assert ups == pytest.approx(0.0315, abs=1e-12)
    sig, err = sigma_expansion(K, gp, h)
    assert sig == pytest.approx(-ups, abs=1e-5)


def test_sigma_polyhedral_blocks_vanish():
    K = ConeDesc([Orthant(3, "plus"), Zero(1), Free(1)])
    rng = np.random.default_rng(0)
    for _ in range(20):
        gp = GraphPoint.from_z(K, rng.standard_normal(K.dim) * 2)
        C = K.critical_set(gp)
        h = C.project(rng.standard_normal(K.dim))
        assert K.upsilon(gp, h) == pytest.approx(0.0, abs=1e-12)
        assert np.allclose(K.upsilon_grad(gp, h), 0.0, atol=1e-12)


@pytest.mark.parametrize("K", CONES.values(), ids=CONES.keys())
def test_sigma_grad_pairing_identity(K):
    # Upsilon is quadratic, so <grad Upsilon(h), h> = 2 Upsilon(h)
    rng = np.random.default_rng(1)
    for _ in range(20):
        gp = GraphPoint.from_z(K, rng.standard_normal(K.dim) * 2)
        C = K.critical_set(gp)
        h = C.project(rng.standard_normal(K.dim))
        ups = K.upsilon(gp, h)
        grad = K.upsilon_grad(gp, h)
        assert ups >= -1e-12
        assert float(grad @ h) == pytest.approx(2.0 * ups, abs=1e-9)


@pytest.mark.parametrize("K", CONES.values(), ids=CONES.keys())
def test_dnk_routes_agree_on_members_and_nonmembers(K):
    rng = np.random.default_rng(11)
    for i in range(40):
        gp = GraphPoint.from_z(K, rng.standard_normal(K.dim) * 2)
        h = rng.standard_normal(K.dim)
        if i % 2 == 0:
            dy = K.dir_deriv(gp, h)
            dl = h - dy
            cert = dnk_contains(K, gp, dy, dl)
            assert cert.verdict == "holds"
        else:
            cert = dnk_contains(K, gp, h, rng.standard_normal(K.dim))
            assert cert.verdict in ("holds", "fails")
        assert cert.details["route_a_residual"] is not None
        assert cert.details["route_b_residual"] is not None


def test_dnk_worked_psd_example():
    # at (diag(1,0), diag(0,-1)) the pair (dy, dl) built from the
    # projection derivative satisfies both characterizations to machine
    # precision, and a sign-flipped multiplier direction is rejected
    K = ConeDesc([PSD(2, "plus")])
    gp = GraphPoint(K, svec(np.diag([1.0, 0.0])), svec(np.diag([0.0, -1.0])))
    h = svec(np.array([[0.3, 1.0], [1.0, -0.5]]))
    dy = K.dir_deriv(gp, h)
    dl = h - dy
    cert = dnk_contains(K, gp, dy, dl)
    assert cert.verdict == "holds"
    assert cert.residual <= 1e-10
    # an off-diagonal multiplier perturbation leaves the polar of the
    # critical cone, so both routes must reject it
    bad = dnk_contains(K, gp, dy,
                       dl + 3.0 * svec(np.array([[0.0, 1.0], [1.0, 0.0]])))
    assert bad.verdict == "fails"


def test_graph_tangent_residual_consistency():
    K = ConeDesc([SOC(3, "plus")])
    rng = np.random.default_rng(2)
    gp = GraphPoint.from_z(K, rng.standard_normal(3) * 2)
    h = rng.standard_normal(3)
    dy = K.dir_deriv(gp, h)
    dl = h - dy
    residuals = graph_tangent_residual(K, gp, dy, dl)
    assert residuals[-1] <= 1e-4
    assert residuals[-1] <= residuals[0] + 1e-12
