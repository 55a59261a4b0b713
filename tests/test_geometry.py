import numpy as np
import pytest

from conestab._sets import Tol, DEFAULT_TOL, SignPattern, Halfspace
from conestab.cone_core import ConeDesc, Orthant, SOC, PSD
from conestab.cone_geometry import (
    critical_cone, tangent_of_normal, normal_of_critical,
    subspace_cone_trivial, radial_probe,
)
from conestab.symmat import svec


def _graph_pair(K, rng):
    z = rng.standard_normal(K.dim) * 2
    y = K.project(z)
    return y, z - y


def test_critical_cone_rejects_off_graph_pair():
    K = ConeDesc([Orthant(2, "plus")])
    with pytest.raises(ValueError):
        critical_cone(K, np.array([1.0, 0.0]), np.array([-1.0, 0.0]))
    with pytest.raises(ValueError):
        critical_cone(K, np.array([-1.0, 0.0]), np.zeros(2))


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
        C = critical_cone(K, y, lam)
        T = tangent_of_normal(K, y, lam)
        for _ in range(10):
            h = C.project(rng.standard_normal(K.dim))
            g = T.project(rng.standard_normal(K.dim))
            assert float(h @ g) <= 1e-8 * (1 + np.linalg.norm(h) *
                                           np.linalg.norm(g))


def test_normal_of_critical_orthant_case():
    K = ConeDesc([Orthant(2, "plus")])
    y = np.array([0.0, 1.0])
    lam = np.zeros(2)
    C = critical_cone(K, y, lam)  # R_+ x R
    d = np.array([0.0, 1.0])
    N = normal_of_critical(C, d)  # normals at an interior-of-face point
    assert N.contains(np.array([-1.0, 0.0]))
    assert not N.contains(np.array([1.0, 0.0]))
    assert not N.contains(np.array([0.0, -1.0]))
    with pytest.raises(ValueError):
        normal_of_critical(C, np.array([-1.0, 0.0]))


def test_normal_of_critical_at_origin_is_polar():
    K = ConeDesc([Orthant(2, "plus")])
    y = np.zeros(2)
    lam = np.zeros(2)
    C = critical_cone(K, y, lam)
    N = normal_of_critical(C, np.zeros(2))
    assert N.contains(np.array([-1.0, -1.0]))
    assert not N.contains(np.array([1.0, 0.0]))


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
    C = critical_cone(K, y, lam)
    cert = subspace_cone_trivial(svec(np.diag([0.0, 1.0])).reshape(-1, 1), C)
    assert cert.verdict == "holds"
    e12 = svec(np.array([[0.0, 1.0], [1.0, 0.0]]))
    cert = subspace_cone_trivial(e12.reshape(-1, 1), C)
    assert cert.verdict == "fails"


def test_radial_probe():
    C = SignPattern([1, 1])
    vbar = np.array([1.0, 1.0])
    tgrid = (1e-3, 1e-2, 1e-1)
    assert radial_probe(C, vbar, np.array([0.0, -1.0]), tgrid)
    assert not radial_probe(C, np.array([0.0, 1.0]), np.array([-1.0, 0.0]),
                            tgrid)


# ---------------------------------------------------------------------------
# a one-dimensional span(L) and a cone with a closed-form projection are
# decided exactly by the distances of ±q to C; everything else by ascent

LINE = "closed-form distances of ±q to C"
ASCENT = "projected ascent"


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
    C = critical_cone(K, svec(np.diag([1.0, 0.0, 0.0])), np.zeros(6))
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


def test_intersection_cone_keeps_the_ascent(monkeypatch):
    from conestab import cone_geometry
    from conestab._sets import Hyperplane, Intersection

    # SOC(3) cut by z1 = 0 is the planar cone |z2| <= z0; its projection
    # is iterated, so even a line goes through the ascent
    C = Intersection([ConeDesc([SOC(3, "plus")]),
                      Hyperplane(np.array([0.0, 1.0, 0.0]))])
    assert not C.exact
    calls = []
    dykstra = cone_geometry.dykstra

    def counted(*args, **kwargs):
        calls.append(1)
        return dykstra(*args, **kwargs)

    monkeypatch.setattr(cone_geometry, "dykstra", counted)
    for column, verdict in (([1.0, 0.0, 1.0], "fails"),
                            ([0.0, 0.0, 1.0], "holds"),
                            ([1.0, 1.0, 0.0], "holds")):
        calls.clear()
        cert = subspace_cone_trivial(np.array(column).reshape(-1, 1), C)
        assert cert.method.startswith(ASCENT)
        assert cert.verdict == verdict
        assert calls
