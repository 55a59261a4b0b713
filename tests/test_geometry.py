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
