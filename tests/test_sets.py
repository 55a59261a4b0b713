import numpy as np
import pytest

from conestab._sets import (
    Tol, DEFAULT_TOL, SignPattern, SOCLike, Halfspace, Hyperplane, Ray,
    LineSpan, Subspace, AffineSet, ProductSet, ShiftedSet, ZeroSet,
    FullSpace, Intersection, PSDBlockSet, dykstra, _eig_clip, _norm,
)
from conestab.symmat import svec, smat


def _check_projection_optimality(S, rng, n_points=30, n_dirs=10):
    # the projection P(z) of a convex set satisfies <z - Pz, s - Pz> <= 0
    # for every member s; members are produced by projecting fresh draws
    for _ in range(n_points):
        z = rng.standard_normal(S.dim) * 3
        p = S.project(z)
        assert S.dist(p) <= 1e-9 * (1 + np.linalg.norm(p))
        for _ in range(n_dirs):
            s = S.project(rng.standard_normal(S.dim) * 3)
            assert float((z - p) @ (s - p)) <= 1e-9 * (1 + np.linalg.norm(z))


@pytest.mark.parametrize("S", [
    SignPattern([0, 1, -1, 2]),
    SOCLike(3),
    SOCLike(4, sign=-1),
    Halfspace(np.array([1.0, -2.0, 0.5])),
    Hyperplane(np.array([1.0, 1.0])),
    Ray(np.array([1.0, 2.0])),
    LineSpan(np.array([0.0, 1.0, 1.0])),
    Subspace(np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]])),
    AffineSet(np.array([[1.0, 1.0, 0.0]]), np.array([2.0])),
    ZeroSet(3),
    FullSpace(3),
])
def test_projection_optimality(S):
    _check_projection_optimality(S, np.random.default_rng(0))


@pytest.mark.parametrize("S", [
    SignPattern([0, 1, -1, 2]),
    SOCLike(3),
    SOCLike(4, sign=-1),
    Halfspace(np.array([1.0, -2.0, 0.5])),
    Hyperplane(np.array([1.0, 1.0])),
    Ray(np.array([1.0, 2.0])),
    LineSpan(np.array([0.0, 1.0, 1.0])),
    ZeroSet(3),
    FullSpace(3),
    ProductSet([SignPattern([1, -1]), SOCLike(3)]),
])
def test_polar_moreau(S):
    rng = np.random.default_rng(1)
    Sp = S.polar()
    for _ in range(50):
        z = rng.standard_normal(S.dim) * 2
        p = S.project(z)
        q = Sp.project(z)
        assert np.linalg.norm(p + q - z) <= 1e-10 * (1 + np.linalg.norm(z))
        assert abs(float(p @ q)) <= 1e-10 * (1 + np.linalg.norm(z)) ** 2


def test_sign_pattern_halfspace_rows():
    S = SignPattern([0, 1, -1, 2])
    ineq, eq = S.halfspace_rows()
    rng = np.random.default_rng(2)
    for _ in range(50):
        z = rng.standard_normal(4)
        member = S.dist(z) <= 1e-12
        rows_say = np.all(ineq @ z <= 1e-12) and np.all(np.abs(eq @ z) <= 1e-12)
        assert member == rows_say


def test_negate():
    S = SignPattern([0, 1, -1, 2])
    N = S.negate()
    rng = np.random.default_rng(3)
    for _ in range(30):
        z = rng.standard_normal(4)
        assert np.allclose(N.project(z), -S.project(-z))


def test_lineality_basis_members():
    for S in [SignPattern([0, 1, 2]), Halfspace(np.array([1.0, 0.0])),
              Hyperplane(np.array([1.0, 1.0])), LineSpan(np.array([1.0, 2.0]))]:
        B = S.lineality_basis()
        for j in range(B.shape[1]):
            assert S.dist(B[:, j]) <= 1e-10
            assert S.dist(-B[:, j]) <= 1e-10


def test_dykstra_converges_on_intersection():
    # quarter plane as two halfspaces
    sets = [Halfspace(np.array([-1.0, 0.0])), Halfspace(np.array([0.0, -1.0]))]
    z, info = dykstra(sets, np.array([-1.0, -2.0]), DEFAULT_TOL)
    assert info.converged
    assert np.allclose(z, [0.0, 0.0], atol=1e-8)


def test_dykstra_stalls_on_empty_intersection():
    sets = [AffineSet(np.array([[1.0, 0.0]]), np.array([1.0])),
            AffineSet(np.array([[1.0, 0.0]]), np.array([-1.0]))]
    z, info = dykstra(sets, np.array([0.0, 0.0]), DEFAULT_TOL)
    assert not info.converged
    assert info.residual > 0.1


def test_intersection_contains_and_dist():
    I = Intersection([Halfspace(np.array([-1.0, 0.0])),
                      Hyperplane(np.array([0.0, 1.0]))])
    assert I.contains(np.array([2.0, 0.0]))
    assert not I.contains(np.array([-1.0, 0.0]))
    assert I.dist(np.array([3.0, 1.0])) == pytest.approx(1.0, abs=1e-6)


def test_shifted_set():
    S = ShiftedSet(SignPattern([1, 1]), np.array([1.0, -1.0]))
    assert np.allclose(S.project(np.array([0.0, 0.0])), [1.0, 0.0])


def test_tol_halved():
    t = Tol()
    th = t.halved()
    assert th.membership == t.membership / 2
    assert th.zero == t.zero / 2


def test_subspace_keeps_the_rank_of_a_wide_basis():
    # rank 3 with a repeated column: every spanned direction is kept
    L = np.eye(4)[:, [0, 0, 1, 2]]
    S = Subspace(L)
    assert S.Q.shape == (4, 3)
    for j in range(3):
        assert np.allclose(S.project(np.eye(4)[:, j]), np.eye(4)[:, j])
    assert np.allclose(S.project(np.eye(4)[:, 3]), 0.0)


def test_norm_matches_numpy_exactly():
    rng = np.random.default_rng(5)
    for size in (0, 1, 2, 3, 10, 465):
        for _ in range(50):
            z = rng.standard_normal(size) * 10.0 ** rng.integers(-8, 8)
            assert _norm(z) == float(np.linalg.norm(z))
    M = rng.standard_normal((3, 4))
    assert _norm(M) == float(np.linalg.norm(M.ravel()))
    assert _norm([3, 4]) == 5.0


# Per-call form of PSDBlockSet.project that rebuilds each block index on
# every call; the precompiled block operations must reproduce it exactly.
def _psd_block_project_ref(U, groups, codes, zvec):
    W = U.T @ smat(zvec) @ U
    out = np.zeros_like(W)
    for (i, j), code in codes.items():
        gi, gj = groups[i], groups[j]
        if gi.size == 0 or gj.size == 0 or code == "zero":
            continue
        B = W[np.ix_(gi, gj)]
        if code == "free":
            out[np.ix_(gi, gj)] = B
            if i != j:
                out[np.ix_(gj, gi)] = B.T
        elif code in ("psd", "nsd"):
            out[np.ix_(gi, gj)] = _eig_clip(B, code == "psd")
        else:
            raise ValueError(f"unknown block code {code!r}")
    return svec(U @ out @ U.T)


_POLAR_REF = {"free": "zero", "zero": "free", "psd": "nsd", "nsd": "psd"}
_NEG_REF = {"free": "free", "zero": "zero", "psd": "nsd", "nsd": "psd"}


@pytest.mark.parametrize("n", [1, 2, 3, 4, 6])
def test_psd_block_set_matches_reference_exactly(n):
    rng = np.random.default_rng(10 + n)
    for trial in range(40):
        U, _ = np.linalg.qr(rng.standard_normal((n, n)))
        # three groups, some of them empty
        labels = rng.integers(0, 3, size=n)
        if trial % 2:
            labels[labels == trial % 3] = (trial + 1) % 3
        groups = [np.where(labels == g)[0] for g in range(3)]
        codes = {}
        for i in range(3):
            for j in range(i, 3):
                pool = ("free", "zero", "psd", "nsd") if i == j else ("free", "zero")
                codes[(i, j)] = pool[rng.integers(len(pool))]
        S = PSDBlockSet(U, groups, codes)
        variants = [
            (S, codes),
            (S.polar(), {k: _POLAR_REF[c] for k, c in codes.items()}),
            (S.negate(), {k: _NEG_REF[c] for k, c in codes.items()}),
        ]
        for T, ref_codes in variants:
            for _ in range(3):
                z = rng.standard_normal(S.dim) * 2
                assert np.array_equal(
                    T.project(z), _psd_block_project_ref(U, groups, ref_codes, z))


@pytest.mark.parametrize("groups", [[[0, 1], []], [[0], [1]]])
def test_psd_block_set_rejects_bad_codes(groups):
    with pytest.raises(ValueError, match="unknown block code"):
        PSDBlockSet(np.eye(2), groups,
                    {(0, 0): "psd", (0, 1): "free", (1, 1): "sdp"})
    # a semidefinite constraint applies to diagonal blocks only
    with pytest.raises(ValueError, match="off-diagonal"):
        PSDBlockSet(np.eye(2), groups,
                    {(0, 0): "free", (0, 1): "psd", (1, 1): "free"})
