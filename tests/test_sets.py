import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conestab._sets import (
    Tol, DEFAULT_TOL, SignPattern, Halfspace, Hyperplane, Ray, LineSpan,
    AffineSet, ProductSet, PSDBlockSet, dykstra,
    _eig_clip, _norm,
)
from conestab.cone_core import SOC, Zero, Free
from conestab.cone_geometry import subspace_cone_trivial
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
    SOC(3),
    SOC(4, sign=-1),
    Halfspace(np.array([1.0, -2.0, 0.5])),
    Hyperplane(np.array([1.0, 1.0])),
    Ray(np.array([1.0, 2.0])),
    LineSpan(np.array([0.0, 1.0, 1.0])),
    # the column span of [[1, 0], [0, 1], [1, 1]], written by its normal
    AffineSet(np.array([[1.0, 1.0, -1.0]]), np.array([0.0])),
    AffineSet(np.array([[1.0, 1.0, 0.0]]), np.array([2.0])),
    Zero(3),
    Free(3),
])
def test_projection_optimality(S):
    _check_projection_optimality(S, np.random.default_rng(0))


@pytest.mark.parametrize("S", [
    SignPattern([0, 1, -1, 2]),
    SOC(3),
    SOC(4, sign=-1),
    Halfspace(np.array([1.0, -2.0, 0.5])),
    Hyperplane(np.array([1.0, 1.0])),
    Ray(np.array([1.0, 2.0])),
    LineSpan(np.array([0.0, 1.0, 1.0])),
    Zero(3),
    Free(3),
    ProductSet([SignPattern([1, -1]), SOC(3)]),
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


# The unit-vector cones as four classes, each with its own projection,
# polar, mirror and lineality basis: the formulas that `UnitFrameSet`
# replaces, kept here to hold the codes in the frame [u | u⊥] to them.
class _OldUnitSet:
    def __init__(self, u, normalize=True):
        self.u = u / np.linalg.norm(u) if normalize else u

    def _complement(self):
        return np.linalg.svd(self.u.reshape(1, -1))[2][1:].T


class _OldHalfspace(_OldUnitSet):
    def project(self, z):
        return z - max(float(self.u @ z), 0.0) * self.u

    def polar(self):
        return _OldRay(self.u, False)

    def negate(self):
        return _OldHalfspace(-self.u, False)

    def lineality_basis(self):
        return self._complement()


class _OldHyperplane(_OldUnitSet):
    def project(self, z):
        return z - float(self.u @ z) * self.u

    def polar(self):
        return _OldLineSpan(self.u, False)

    def negate(self):
        return self

    def lineality_basis(self):
        return self._complement()


class _OldRay(_OldUnitSet):
    def project(self, z):
        return max(float(self.u @ z), 0.0) * self.u

    def polar(self):
        return _OldHalfspace(self.u, False)

    def negate(self):
        return _OldRay(-self.u, False)

    def lineality_basis(self):
        return np.zeros((self.u.size, 0))


class _OldLineSpan(_OldUnitSet):
    def project(self, z):
        return float(self.u @ z) * self.u

    def polar(self):
        return _OldHyperplane(self.u, False)

    def negate(self):
        return self

    def lineality_basis(self):
        return self.u.reshape(-1, 1)


@pytest.mark.parametrize("new,old", [
    (Halfspace, _OldHalfspace), (Hyperplane, _OldHyperplane),
    (Ray, _OldRay), (LineSpan, _OldLineSpan),
], ids=["halfspace", "hyperplane", "ray", "linespan"])
def test_unit_frame_codes_match_the_four_classes(new, old):
    rng = np.random.default_rng(11)
    for n in range(1, 9):
        for _ in range(20):
            a = rng.standard_normal(n) * 3
            S, R = new(a), old(a)
            assert np.array_equal(S.lineality_basis(), R.lineality_basis())
            assert S.lineality_dim() == R.lineality_basis().shape[1]
            for _ in range(5):
                z = rng.standard_normal(n) * 3
                assert np.array_equal(S.project(z), R.project(z))
                assert np.array_equal(S.polar().project(z),
                                      R.polar().project(z))
                assert np.array_equal(S.negate().project(z),
                                      R.negate().project(z))


def _dykstra_reference(sets, z0, tol=DEFAULT_TOL):
    # Dykstra without the emptiness certificate, copied from the loop it
    # replaced: the certificate only reads the increments, so the iterates
    # must agree bit for bit
    cap = tol.max_iter
    z = np.asarray(z0, float).copy()
    incs = [np.zeros_like(z) for _ in sets]
    last_checkpoint = np.inf
    stalls = 0
    cycle = 0
    for cycle in range(1, cap + 1):
        move = 0.0
        for i, S in enumerate(sets):
            w = z + incs[i]
            znew = S.project(w)
            incs[i] = w - znew
            move = max(move, _norm(znew - z))
            z = znew
        scale = 1.0 + _norm(z)
        if move <= tol.zero * scale:
            break
        if cycle % 25 == 0:
            res = max(S.dist(z) for S in sets)
            if res > 10 * tol.membership * scale and res > 0.97 * last_checkpoint:
                stalls += 1
                if stalls >= 3:
                    return z, (res, cycle, False, True)
            else:
                stalls = 0
            last_checkpoint = res
    res = max(S.dist(z) for S in sets)
    scale = 1.0 + _norm(z)
    return z, (res, cycle, res <= tol.membership * scale, False)


def test_dykstra_certifies_empty_fiber_at_cycle_1():
    # {x1 + x2 = -1} ∩ R^2_+ from the least-squares seed (-1/2, -1/2):
    # the orthant increment is y = (-1/2, -1/2), h = pinv^T y = -1/2 and
    # the gain <h, b> = 1/2
    A = AffineSet(np.array([[1.0, 1.0]]), np.array([-1.0]))
    z, info = dykstra(A, SignPattern([1, 1]), np.array([-0.5, -0.5]))
    cert = info.farkas
    assert cert is not None
    assert info.stalled and not info.converged
    assert info.cycles == cert.cycle == 1
    assert cert.h == pytest.approx([-0.5], abs=1e-15)
    assert len(cert.y) == 1
    assert cert.y[0] == pytest.approx([-0.5, -0.5], abs=1e-15)
    assert np.all(cert.y[0] <= 0.0)  # in the polar of R^2_+
    assert A.M.T @ cert.h == pytest.approx(cert.y[0], abs=1e-15)
    assert float(cert.h @ A.b) == pytest.approx(0.5, abs=1e-15)
    # bound = gain / (|h| + |y|) = 1 / (1 + sqrt 2); it is attained at
    # z = -t (1, 1), where |x1 + x2 + 1| = dist(z, R^2_+)
    assert cert.bound == pytest.approx(np.sqrt(2.0) - 1.0, rel=1e-14)
    t = 1.0 / (2.0 + np.sqrt(2.0))
    zt = np.array([-t, -t])
    worst = max(abs(float((A.M @ zt - A.b)[0])), SignPattern([1, 1]).dist(zt))
    assert worst == pytest.approx(cert.bound, rel=1e-14)
    rng = np.random.default_rng(3)
    for zr in rng.standard_normal((200, 2)) * 2:
        worst = max(abs(float((A.M @ zr - A.b)[0])), SignPattern([1, 1]).dist(zr))
        assert worst >= cert.bound * (1 - 1e-12)


@pytest.mark.parametrize("case", range(4))
def test_dykstra_feasible_fiber_matches_reference_loop(case, monkeypatch):
    # a feasible fiber ∩ cone system gives no certificate, the iterates
    # and diagnostics equal those of the loop without one, and the
    # certificate is tried after cycles 1, 2, 4, 8, ... before the last
    from conestab import _sets

    tried = []
    real = _sets._farkas

    def spy(affine, cone, inc, cycle):
        tried.append(cycle)
        return real(affine, cone, inc, cycle)

    monkeypatch.setattr(_sets, "_farkas", spy)
    rng = np.random.default_rng(40 + case)
    n, m = 3, 5
    M = rng.standard_normal((n, m))
    cone = ProductSet([SOC(3), SignPattern([1, -1])])
    if case % 2:
        # one unused draw, then a fourth affine row
        rng.standard_normal(m)
        M = np.vstack([M, rng.standard_normal(m)])
    member = cone.project(rng.standard_normal(m) * 2)
    sets = [AffineSet(M, M @ member), cone]
    z0 = rng.standard_normal(m)
    z, info = dykstra(*sets, z0)
    z_ref, ref = _dykstra_reference(sets, z0)
    assert info.farkas is None
    assert info.cycles > 8  # the certificate was tried several times
    assert tried == [2 ** k for k in range(20) if 2 ** k < info.cycles]
    assert np.array_equal(z, z_ref)
    assert (info.residual, info.cycles, info.converged, info.stalled) == ref


def test_dykstra_rejects_a_nan_certificate():
    # every comparison with NaN is false, so each certificate test must
    # accept only when its condition holds
    for b in (np.nan, np.inf):
        A = AffineSet(np.array([[1.0, 1.0]]), np.array([b]))
        with np.errstate(invalid="ignore"):
            _, info = dykstra(A, SignPattern([1, 1]), np.zeros(2),
                              Tol(max_iter=4))
        assert info.farkas is None


def test_dykstra_certificate_needs_exact_cone_projections():
    # every set projects in closed form, so Moreau's identity holds to
    # rounding; the certificate reads the cone's increment, so the first
    # set must be affine and the second a cone
    A = AffineSet(np.array([[1.0, 1.0]]), np.array([-1.0]))
    quarter = SignPattern([1, 1])
    shifted = AffineSet(np.array([[1.0, 0.0]]), np.array([1.0]))
    z0 = np.array([-0.5, -0.5])
    for first, second in ((quarter, A), (quarter, quarter), (A, shifted),
                          (A, ProductSet([SignPattern([1]), shifted]))):
        with pytest.raises(ValueError, match="an AffineSet and a cone"):
            dykstra(first, second, z0)
    assert dykstra(A, quarter, z0)[1].farkas is not None


def test_tol_halved():
    # the fields are positional in the order (membership, zero, max_iter)
    t = Tol()
    th = Tol(t.membership / 2, t.zero / 2, t.max_iter)
    assert th.membership == t.membership / 2
    assert th.zero == t.zero / 2
    assert th.max_iter == t.max_iter


@pytest.mark.parametrize("field", ["membership", "zero", "max_iter"])
@pytest.mark.parametrize("value", [0.0, -1.0, np.nan, np.inf])
def test_tol_rejects_non_positive_and_non_finite(field, value):
    with pytest.raises(ValueError, match="finite and strictly positive"):
        Tol(**{field: value})


@pytest.mark.parametrize("value", [2.5, 1e4 + 0.5, True])
def test_tol_rejects_a_non_integer_cycle_cap(value):
    # dykstra runs range(1, max_iter + 1), which takes only integers
    with pytest.raises(ValueError, match="max_iter must be an integer"):
        Tol(max_iter=value)
    assert Tol(max_iter=np.int64(7)).max_iter == 7


def test_subspace_keeps_the_rank_of_a_wide_basis():
    # rank 3 with a repeated column: every spanned direction is kept
    L = np.eye(4)[:, [0, 0, 1, 2]]
    cert = subspace_cone_trivial(L, Zero(4))
    Q = cert.details["basis"]
    assert (cert.verdict, Q.shape) == ("holds", (4, 3))
    for j in range(3):
        assert np.allclose(Q @ (Q.T @ np.eye(4)[:, j]), np.eye(4)[:, j])
    assert np.allclose(Q.T @ np.eye(4)[:, 3], 0.0)


def test_norm_matches_numpy_exactly():
    rng = np.random.default_rng(5)
    for size in (0, 1, 2, 3, 10, 465):
        for _ in range(50):
            z = rng.standard_normal(size) * 10.0 ** rng.integers(-8, 8)
            assert _norm(z) == float(np.linalg.norm(z))
    M = rng.standard_normal((3, 4))
    assert _norm(M) == float(np.linalg.norm(M.ravel()))
    assert _norm([3, 4]) == 5.0


# The block codes, and their polar and mirror tables, written out here
# apart from SignPattern's: free, positive semidefinite, negative
# semidefinite, zero.
_F, _P, _N, _Z = 0, 1, -1, 2
_POLAR_REF = {_F: _Z, _Z: _F, _P: _N, _N: _P}
_NEG_REF = {_F: _F, _Z: _Z, _P: _N, _N: _P}


# Per-call form of PSDBlockSet.project that rebuilds each block index on
# every call; the precompiled block operations must reproduce it exactly.
def _psd_block_project_ref(U, groups, codes, zvec):
    W = U.T @ smat(zvec) @ U
    out = np.zeros_like(W)
    for (i, j), code in codes.items():
        gi, gj = groups[i], groups[j]
        if gi.size == 0 or gj.size == 0 or code == _Z:
            continue
        B = W[np.ix_(gi, gj)]
        if code == _F:
            out[np.ix_(gi, gj)] = B
            if i != j:
                out[np.ix_(gj, gi)] = B.T
        elif code == _P:
            out[np.ix_(gi, gj)] = _eig_clip(B)
        elif code == _N:
            out[np.ix_(gi, gj)] = -_eig_clip(-B)
        else:
            raise ValueError(f"unknown block code {code!r}")
    return svec(U @ out @ U.T)


def _psd_block_sets(n, seed):
    """(U, groups, set, reference codes) for 40 random sets of order n
    with their polars and mirrors, and a random generator."""
    rng = np.random.default_rng(seed)
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
                pool = (_F, _Z, _P, _N) if i == j else (_F, _Z)
                codes[(i, j)] = pool[rng.integers(len(pool))]
        S = PSDBlockSet(U, groups, codes)
        variants = [
            (S, codes),
            (S.polar(), {k: _POLAR_REF[c] for k, c in codes.items()}),
            (S.negate(), {k: _NEG_REF[c] for k, c in codes.items()}),
        ]
        for T, ref_codes in variants:
            yield U, groups, T, ref_codes, rng


@pytest.mark.parametrize("n", [1, 2, 3, 4, 6])
def test_psd_block_set_matches_reference_exactly(n):
    for U, groups, T, ref_codes, rng in _psd_block_sets(n, 10 + n):
        for _ in range(3):
            z = rng.standard_normal(T.dim) * 2
            assert np.array_equal(
                T.project(z), _psd_block_project_ref(U, groups, ref_codes, z))


@pytest.mark.parametrize("n", [1, 2, 3, 5, 8])
def test_psd_block_set_dist_and_lineality_dim_match_the_reference(n):
    # dist is read in the frame U, from the mass of the entries the codes
    # set to zero and the eigenvalues each psd/nsd block drops; the
    # reference is ||z - project(z)|| in svec space
    for U, groups, T, ref_codes, rng in _psd_block_sets(n, 30 + n):
        assert T.lineality_dim() == T.lineality_basis().shape[1]
        for _ in range(3):
            z = rng.standard_normal(T.dim) * 2
            ref = np.linalg.norm(
                z - _psd_block_project_ref(U, groups, ref_codes, z))
            assert abs(T.dist(z) - ref) <= 1e-12 * (1.0 + np.linalg.norm(z))
            assert T.dist(U.T @ smat(z) @ U) == T.dist(z)


def _eigh_clip_ref(B):
    """The PSD clip through LAPACK at every order."""
    B = 0.5 * (B + B.T)
    w, U = np.linalg.eigh(B)
    return (U * np.maximum(w, 0.0)) @ U.T


# Up to 1e300 in magnitude: past half the largest double, the
# symmetrization B + B^T of the LAPACK path overflows, which the closed
# form does not.
@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(b=st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 1e300, -1e300])
       | st.floats(min_value=-1e300, max_value=1e300))
def test_order_one_blocks_match_lapack_bit_for_bit(b):
    # the clip of a 1x1 block and the distance to a 1x1 psd or nsd block
    # are read in closed form, and give LAPACK's numbers to the bit
    B = np.array([[b]])
    assert _eig_clip(B).tobytes() == _eigh_clip_ref(B).tobytes()
    assert (-_eig_clip(-B)).tobytes() == (-_eigh_clip_ref(-B)).tobytes()
    for code, sign in ((_P, 1.0), (_N, -1.0)):
        w = np.minimum(np.linalg.eigvalsh(sign * B), 0.0)
        ref = math.sqrt(0.0 + float(w @ w))
        S = PSDBlockSet(np.eye(1), [[0]], {(0, 0): code})
        assert S.dist(B).hex() == ref.hex()
        assert S.dist(np.array([b])).hex() == ref.hex()


@pytest.mark.parametrize("groups", [[[0, 1], []], [[0], [1]]])
def test_psd_block_set_rejects_bad_codes(groups):
    # the codes are SignPattern's integers; a name such as "psd" is not one
    for bad in ("psd", "free", "zero", 3, -2):
        with pytest.raises(ValueError, match="unknown block code"):
            PSDBlockSet(np.eye(2), groups,
                        {(0, 0): _P, (0, 1): _F, (1, 1): bad})
    # a semidefinite constraint applies to diagonal blocks only
    for sd in (_P, _N):
        with pytest.raises(ValueError, match="off-diagonal"):
            PSDBlockSet(np.eye(2), groups,
                        {(0, 0): _F, (0, 1): sd, (1, 1): _F})


def _coded_sets():
    """(label, set) for the coded sets of every class: random sign
    patterns, every `UnitFrameSet` code pair, random `PSDBlockSet`s up
    to order 6 with their polars and mirrors, the primitives, and
    products of them."""
    from conestab._sets import UnitFrameSet
    from conestab.cone_core import ConeDesc, Orthant

    rng = np.random.default_rng(51)
    signs = [(f"sign pattern {i}", SignPattern(rng.integers(-1, 3, size=6)))
             for i in range(8)]
    u = rng.standard_normal(4)
    u /= np.linalg.norm(u)
    codes = (SignPattern.FREE, SignPattern.NONNEG, SignPattern.NONPOS,
             SignPattern.ZERO)
    frames = [(f"unit frame {a}, {c}", UnitFrameSet(u, a, c))
              for a in codes for c in (SignPattern.FREE, SignPattern.ZERO)]
    blocks = [(f"psd blocks {n}.{i}", T) for n in (1, 2, 3, 4, 6)
              for i, (_, _, T, _, _) in zip(range(15),
                                            _psd_block_sets(n, 60 + n))]
    prims = [SOC(4), Orthant(3), Zero(3), Free(3)]
    parts = [signs[0][1], frames[1][1], blocks[-1][1]]
    return signs + frames + blocks + [(repr(K), K) for K in prims] + [
        ("product", ProductSet(parts)), ("cone description", ConeDesc(prims))]


def _mirror(S):
    # the test's own mirror of a product: the product of the mirrors
    if isinstance(S, ProductSet):
        return ProductSet([_mirror(s) for s in S.sets])
    return S.negate()


@pytest.mark.parametrize("mirrored", [False, True], ids=["plus", "minus"])
def test_pointed_part_is_the_set_cut_by_the_lineality_complement(mirrored):
    # pointed() maps the codes; a reference runs Dykstra on the subspace
    # (lin S)^perp = {z : B^T z = 0} and S, whose projections are both
    # closed form
    rng = np.random.default_rng(52)
    for label, S in _coded_sets():
        if mirrored:
            S = _mirror(S)
        P = S.pointed()
        assert P.dim == S.dim and P.lineality_dim() == 0, label
        B = S.lineality_basis()
        perp = AffineSet(B.T, np.zeros(B.shape[1]))
        for _ in range(6):
            z = rng.standard_normal(S.dim) * 2
            ref = dykstra(perp, S, z)[0]
            assert np.linalg.norm(P.project(z) - ref) <= \
                1e-8 * (1.0 + np.linalg.norm(z)), label
            # the pointed part of the mirror is the mirror of the part
            assert np.allclose(_mirror(S).pointed().project(z),
                               _mirror(P).project(z), rtol=0.0,
                               atol=1e-12 * (1.0 + np.linalg.norm(z))), label


def _mixed_cone_sets():
    """(label, set) for the tangent, normal and critical sets of two
    mixed cone descriptions at their apex and at the projections of
    seeded points, some with zero coordinates, so that every block is
    at its apex, on its boundary or inside."""
    from conestab.cone_core import (
        ConeDesc, Orthant, PSD, normal_cone, tangent_cone,
    )
    from conestab.proj_deriv import GraphPoint

    rng = np.random.default_rng(53)
    out = []
    for K in (ConeDesc([SOC(3), Orthant(2)]),
              ConeDesc([PSD(3, "minus"), SOC(4), Orthant(3, "minus"),
                        Zero(1), Free(2)])):
        zs = [np.zeros(K.dim)]
        for i in range(6):
            z = rng.standard_normal(K.dim) * 2
            z[rng.random(K.dim) < 0.3 * (i % 3)] = 0.0
            zs.append(z)
        for i, z in enumerate(zs):
            gp = GraphPoint.from_z(K, z)
            out += [(f"{K!r} tangent {i}", tangent_cone(K, gp.y)),
                    (f"{K!r} normal {i}", normal_cone(K, gp.y)),
                    (f"{K!r} critical {i}", gp.critical)]
    return out


def test_product_negate_is_the_mirror():
    # S.negate() projects as z -> -Pi_S(-z), blockwise, for the coded
    # products and the derived sets of mixed cone descriptions
    rng = np.random.default_rng(54)
    sets = [(label, S) for label, S in _coded_sets()
            if isinstance(S, ProductSet)] + _mixed_cone_sets()
    for label, S in sets:
        N = S.negate()
        assert N.dim == S.dim, label
        for _ in range(8):
            z = rng.standard_normal(S.dim) * 2
            assert np.array_equal(N.project(z), -S.project(-z)), label
            assert np.array_equal(N.project(z), _mirror(S).project(z)), label


def _recoding_cases():
    """(label, set) for every coded class, a product of them, a cone
    description, and every primitive in both signs, Zero and Free
    included."""
    from conestab._sets import UnitFrameSet
    from conestab.cone_core import ConeDesc, Orthant, PSD

    rng = np.random.default_rng(55)
    u = rng.standard_normal(4)
    u /= np.linalg.norm(u)
    prims = [K(n, s) for K, n in ((Orthant, 3), (SOC, 4), (PSD, 3))
             for s in ("plus", "minus")] + [Zero(3), Free(3)]
    blocks = [T for _, (_, _, T, _, _) in zip(range(6), _psd_block_sets(3, 56))]
    cases = [("sign pattern", SignPattern([0, 1, -1, 2, 1, 0]))]
    cases += [(f"unit frame {a}, {c}", UnitFrameSet(u, a, c))
              for a in (_F, _P, _N, _Z) for c in (_F, _Z)]
    cases += [(f"psd blocks {i}", T) for i, T in enumerate(blocks)]
    cases += [(repr(K), K) for K in prims]
    cases += [("product", ProductSet([cases[0][1], cases[2][1], blocks[0]])),
              ("cone description", ConeDesc(prims))]
    return cases


@pytest.mark.parametrize("S", [pytest.param(S, id=label)
                               for label, S in _recoding_cases()])
def test_code_maps_are_involutions_and_pointed_is_idempotent(S):
    # polar and negate are involutions on the codes and pointed is
    # idempotent, so the twice-mapped set projects bit for bit as the
    # original (or as the pointed part)
    from conestab.cone_core import ConeDesc

    rng = np.random.default_rng(57)
    P = S.pointed()
    twice = [(S.polar().polar(), S), (S.negate().negate(), S),
             (P.pointed(), P)]
    for _ in range(8):
        z = rng.standard_normal(S.dim) * 2
        for T, R in twice:
            assert np.array_equal(T.project(z), R.project(z))
    if isinstance(S, ConeDesc):
        assert all(type(M) is ConeDesc
                   for M in (S.polar(), S.negate(), S.pointed()))


def _dist_parity_sets():
    """(label, set) for every set class: the coded sets, the derived sets
    of mixed cone descriptions, the four one-vector cones, both signs of
    every primitive, a subspace and an affine set."""
    from conestab.cone_core import ConeDesc, Orthant, PSD

    a = np.array([1.0, -2.0, 0.5, 0.0])
    prims = [K(n, s) for K, n in ((Orthant, 3), (SOC, 2), (SOC, 4), (PSD, 1),
                                  (PSD, 3)) for s in ("plus", "minus")]
    return _coded_sets() + _mixed_cone_sets() + [
        (f.__name__, f(a)) for f in (Halfspace, Hyperplane, Ray,
                                     LineSpan)] + [
        (repr(K), K) for K in prims + [Zero(3), Free(3)]] + [
        ("all sign codes", SignPattern([0, 1, -1, 2, 0, 1, -1, 2])),
        ("mixed cone", ConeDesc(prims[::3] + [Zero(1), Free(2)])),
        ("affine", AffineSet(np.array([[1.0, 1.0, 0.0]]), np.array([2.0])))]


def _near_boundary(S, rng):
    """A seeded point z, its projection p and the points p ± t n, n the
    unit normal (z - p)/||z - p||, at t = 1e-9 to 1e-3 from p."""
    for scale in (1.0, 10.0):
        z = rng.standard_normal(S.dim) * scale
        p = S.project(z)
        yield z
        yield p
        if _norm(z - p) > 0.0:
            n = (z - p) / _norm(z - p)
            for t in (1e-9, 1e-7, 1e-5, 1e-3):
                yield p + t * n
                yield p - t * n


def _soc_points():
    # apex, boundary, interior, polar boundary and polar interior points of
    # SOC(4), each also moved off by 1e-9 to 1e-3 along the axis
    r = np.array([0.6, 0.0, -0.8])
    base = [np.zeros(4), np.r_[1.0, r], np.r_[2.0, 0.5 * r], np.r_[-1.0, r],
            np.r_[-2.0, 0.5 * r]]
    return [b + t * e for b in base for t in (0.0, 1e-9, 1e-7, 1e-5, 1e-3)
            for e in (np.eye(4)[0], -np.eye(4)[0], np.r_[0.0, r])]


def _rank_deficient_psd_points(rng):
    # order-4 matrices with two zero eigenvalues and the others at
    # +-1e-9 to +-1e-3 or of order one
    for t in (1e-9, 1e-7, 1e-5, 1e-3, 1.0):
        U, _ = np.linalg.qr(rng.standard_normal((4, 4)))
        for w in ([0.0, 0.0, t, 1.0], [0.0, 0.0, -t, 1.0],
                  [0.0, 0.0, -t, -1.0], [0.0, -t, t, 0.0]):
            yield svec((U * np.array(w)) @ U.T)


def test_closed_form_dist_matches_the_projection():
    # dist(z) is ||z - project(z)|| to rounding, so contains, which reads
    # it, answers as the projection would
    from conestab._sets import _ROUNDING
    from conestab.cone_core import PSD

    rng = np.random.default_rng(55)
    cases = [(label, S, list(_near_boundary(S, rng)))
             for label, S in _dist_parity_sets()]
    cases += [(repr(K), K, [s * z for z in _soc_points() for s in (1, -1)])
              for K in (SOC(4), SOC(4, "minus"))]
    cases += [(repr(K), K, list(_rank_deficient_psd_points(rng)))
              for K in (PSD(4), PSD(4, "minus"))]
    decided = set()
    for label, S, points in cases:
        for z in points:
            ref = _norm(z - S.project(z))
            assert abs(S.dist(z) - ref) <= _ROUNDING * (1.0 + _norm(z)), label
            member = ref <= DEFAULT_TOL.membership * (1.0 + _norm(z))
            assert S.contains(z) is member, label
            decided.add(member)
        # a closed-form distance may read 0 at an infinite entry; the
        # projection's residual there is NaN, and no set contains it
        for bad in (np.inf, -np.inf, np.nan):
            assert S.contains(np.full(S.dim, bad)) is False, label
    assert decided == {True, False}
