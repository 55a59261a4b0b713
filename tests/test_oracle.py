import numpy as np
import pytest

from conestab.cone_core import ConeDesc, SOC, PSD
from conestab.oracle import (
    fd_proj_deriv, _richardson, _dd_cone,
    polyhedral_trivial_exact, ngamma_graph_residual,
)
from conestab.constraint_system import example1_system
from conestab.proj_deriv import GraphPoint, proj_dir_deriv


def test_graph_sample_invariants():
    # GraphPoint.from_z splits z through the projection
    K = ConeDesc([SOC(3, "plus")])
    rng = np.random.default_rng(0)
    for _ in range(20):
        gp = GraphPoint.from_z(K, rng.standard_normal(3) * 2)
        assert K.contains(gp.y)
        assert abs(float(gp.y @ gp.lam)) <= 1e-10 * (1 + np.linalg.norm(gp.y)
                                                     * np.linalg.norm(gp.lam))


def test_richardson_extrapolates_first_order_error():
    # f(t) = L + c t: the order-1 extrapolation recovers L with an error
    # estimate that reflects the remaining drift
    L, c = 1.7, 0.3
    pairs = [(t, np.array([L + c * t])) for t in (1e-2, 1e-3, 1e-4, 1e-5)]
    val, err = _richardson(pairs)
    assert float(np.atleast_1d(val)[0]) == pytest.approx(L, abs=1e-10)
    assert err <= 1e-6


def test_fd_proj_deriv_error_estimate_is_honest():
    K = ConeDesc([PSD(2, "plus")])
    rng = np.random.default_rng(1)
    for _ in range(20):
        z = rng.standard_normal(3) * 2
        h = rng.standard_normal(3)
        approx, err = fd_proj_deriv(K, z, h)
        exact = proj_dir_deriv(K, z, h)
        assert float(np.linalg.norm(approx - exact)) <= max(100 * err, 1e-7)


def test_dd_cone_known_cases():
    # {u : -u <= 0} in R^2 is the nonnegative quadrant: 2 rays, no lineality
    rays, lin = _dd_cone(-np.eye(2))
    assert len(lin) == 0
    assert len(rays) == 2
    got = sorted(tuple(np.round(r / np.linalg.norm(r), 9)) for r in rays)
    assert got == [(0.0, 1.0), (1.0, 0.0)]
    # a single halfspace keeps one lineality direction and adds one ray
    rays, lin = _dd_cone(np.array([[1.0, 0.0]]))
    assert len(lin) == 1
    assert len(rays) == 1
    assert float(np.array([1.0, 0.0]) @ rays[0]) < 0
    # no rows: the whole space is lineality
    rays, lin = _dd_cone(np.zeros((0, 3)))
    assert len(rays) == 0 and len(lin) == 3
    # {u <= 0, -u <= 0} = {0}
    rays, lin = _dd_cone(np.vstack([np.eye(2), -np.eye(2)]))
    assert not rays and not lin


def test_polyhedral_trivial_exact_known_cases():
    ortho = -np.eye(2)  # rows of "z in R^2_+"
    assert not polyhedral_trivial_exact(ortho, np.array([[1.0], [0.0]]))
    assert polyhedral_trivial_exact(ortho, np.array([[1.0], [-1.0]]))
    assert polyhedral_trivial_exact(ortho, np.zeros((2, 0)))
    # equality rows cut the cone down to a face
    assert polyhedral_trivial_exact(
        ortho, np.array([[1.0], [0.0]]), equalities=np.array([[1.0, 0.0]]))
    with pytest.raises(ValueError):
        polyhedral_trivial_exact(-np.eye(9), np.eye(9))


def test_polyhedral_trivial_exact_rank_deficient_basis():
    # L = [e1, e1, e2, e3] has rank 3; {z1 = z2 = 0, z3 >= 0} meets its
    # span along the ray of e3
    L = np.eye(4)[:, [0, 0, 1, 2]]
    ineq = -np.eye(4)[[2]]
    eq = np.eye(4)[[0, 1]]
    assert not polyhedral_trivial_exact(ineq, L, equalities=eq)


def test_polyhedral_trivial_exact_matches_sign_structure():
    # cross-check against a direct ray enumeration on random instances
    rng = np.random.default_rng(3)
    for _ in range(30):
        H = rng.standard_normal((4, 4))
        L = rng.standard_normal((4, rng.integers(1, 3)))
        trivial = polyhedral_trivial_exact(H, L)
        # brute force: sample the subspace densely and test the rows
        found = False
        for _ in range(2000):
            u = L @ rng.standard_normal(L.shape[1])
            n = np.linalg.norm(u)
            if n < 1e-12:
                continue
            u /= n
            if np.all(H @ u <= 1e-10):
                found = True
                break
        if found:
            assert not trivial


def test_ngamma_graph_residual_decays_on_tangents():
    sys = example1_system()
    x = np.zeros(3)
    v = np.zeros(3)
    # a direction fixed by the structure: move the slack coordinate into
    # the feasible side with no dual motion
    d = np.array([1.0, 1.0, 1.0])
    gd = sys.jacobian(x) @ d
    assert sys.cone.tangent_set(sys.g(x)).dist(gd) <= 1e-10
    res = ngamma_graph_residual(sys, x, v, d, np.zeros(3))
    assert res[-1] <= 1e-6


def test_ngamma_graph_residual_bounded_below_off_graph():
    sys = example1_system()
    x = np.zeros(3)
    v = np.zeros(3)
    d = np.array([0.0, 0.0, -1.0])  # leaves the feasible set
    res = ngamma_graph_residual(sys, x, v, d, np.zeros(3))
    assert res[-1] >= 1e-3
