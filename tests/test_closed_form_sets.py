"""Contract of the derived sets: every tangent, normal and critical set a
primitive cone returns, and the polar of each, has a closed-form mirror,
polar and lineality basis."""

import numpy as np
import pytest

from conestab._sets import DEFAULT_TOL
from conestab.cone_core import ConeDesc, Orthant, SOC, PSD, Zero, Free
from conestab.proj_deriv import GraphPoint
from conestab.symmat import svec

_Q, _ = np.linalg.qr(np.random.default_rng(7).standard_normal((3, 3)))


def _psd(*eigs):
    return svec((_Q * np.array(eigs)) @ _Q.T)


# (y, lam) pairs of the plus cone with lam in N_K(y): interior, face or
# boundary, and apex points, each with a zero and (where the normal cone
# is not {0}) nonzero multipliers
PLUS_PAIRS = {
    "orthant": (lambda: Orthant(3), [
        ([1.0, 2.0, 0.5], [0.0, 0.0, 0.0]),
        ([1.0, 0.0, 0.0], [0.0, -1.0, 0.0]),
        ([1.0, 0.0, 0.0], [0.0, 0.0, 0.0]),
        ([0.0, 0.0, 0.0], [-1.0, -0.5, 0.0]),
        ([0.0, 0.0, 0.0], [0.0, 0.0, 0.0]),
    ]),
    "soc": (lambda: SOC(3), [
        ([2.0, 0.3, -0.4], [0.0, 0.0, 0.0]),
        ([1.0, 0.6, 0.8], [-0.5, 0.3, 0.4]),
        ([1.0, 0.6, 0.8], [0.0, 0.0, 0.0]),
        ([0.0, 0.0, 0.0], [-1.0, 0.3, -0.4]),
        ([0.0, 0.0, 0.0], [-1.0, 0.6, 0.8]),
        ([0.0, 0.0, 0.0], [0.0, 0.0, 0.0]),
    ]),
    "psd": (lambda: PSD(3), [
        (_psd(1.0, 2.0, 3.0), _psd(0.0, 0.0, 0.0)),
        (_psd(1.5, 0.5, 0.0), _psd(0.0, 0.0, -0.7)),
        (_psd(1.5, 0.0, 0.0), _psd(0.0, 0.0, -0.7)),
        (_psd(1.5, 0.5, 0.0), _psd(0.0, 0.0, 0.0)),
        (_psd(0.0, 0.0, 0.0), _psd(-1.0, -0.3, 0.0)),
        (_psd(0.0, 0.0, 0.0), _psd(-1.0, -0.3, -2.0)),
        (_psd(0.0, 0.0, 0.0), _psd(0.0, 0.0, 0.0)),
    ]),
    "zero": (lambda: Zero(2), [
        ([0.0, 0.0], [0.7, -1.2]),
        ([0.0, 0.0], [0.0, 0.0]),
    ]),
    "free": (lambda: Free(2), [
        ([0.7, -1.2], [0.0, 0.0]),
        ([0.0, 0.0], [0.0, 0.0]),
    ]),
}


def _derived_sets(kind, sign):
    """(label, set) for every derived set of the primitive and its polar."""
    make, pairs = PLUS_PAIRS[kind]
    K = make()
    s = 1.0
    if sign == "minus":
        K, s = K.negate(), -1.0
    tol = DEFAULT_TOL
    out = []
    for i, (y, lam) in enumerate(pairs):
        y, lam = s * np.asarray(y), s * np.asarray(lam)
        assert K.contains(y, tol)
        assert K.tangent_set(y, tol).polar().contains(lam, tol)
        for name, S in (("tangent", K.tangent_set(y, tol)),
                        ("normal", K.tangent_set(y, tol).polar()),
                        ("critical",
                         K.critical_set(K.point(y + lam, tol, y, lam)))):
            out.append((f"{name}[{i}]", S))
            out.append((f"{name}[{i}] polar", S.polar()))
    return out


CASES = [(kind, sign) for kind in PLUS_PAIRS for sign in ("plus", "minus")]


@pytest.mark.parametrize("kind,sign", CASES)
def test_mirror_is_the_negated_projection(kind, sign):
    rng = np.random.default_rng(41)
    for label, S in _derived_sets(kind, sign):
        N = S.negate()
        assert N.dim == S.dim, label
        for _ in range(10):
            z = rng.standard_normal(S.dim) * 2
            assert np.array_equal(N.project(z), -S.project(-z)), label


def _rank(M):
    s = np.linalg.svd(M, compute_uv=False) if M.size else np.zeros(0)
    return int(np.sum(s > 1e-9 * max(1.0, s.max(initial=0.0))))


@pytest.mark.parametrize("kind,sign", CASES)
def test_lineality_basis_spans_the_lineality_space(kind, sign):
    # lin S = (span S°)^perp: the columns and their negatives are members,
    # and their rank completes the span of sampled polar members to the
    # whole space
    rng = np.random.default_rng(42)
    for label, S in _derived_sets(kind, sign):
        B = S.lineality_basis()
        assert B.shape[0] == S.dim, label
        # counted from the set's codes, and orthonormal columns
        assert S.lineality_dim() == B.shape[1], label
        assert np.linalg.norm(B.T @ B - np.eye(B.shape[1])) <= 1e-12, label
        for b in B.T:
            assert np.linalg.norm(b) > 0.5, label
            assert S.dist(b) <= 1e-12, label
            assert S.dist(-b) <= 1e-12, label
        P = S.polar()
        polar_span = np.column_stack(
            [P.project(rng.standard_normal(S.dim)) for _ in range(4 * S.dim)])
        assert _rank(B) + _rank(polar_span) == S.dim, label


@pytest.mark.parametrize("kind,sign", CASES)
def test_polar_of_the_polar_projects_as_the_set(kind, sign):
    rng = np.random.default_rng(43)
    for label, S in _derived_sets(kind, sign):
        P = S.polar().polar()
        for _ in range(10):
            z = rng.standard_normal(S.dim) * 2
            assert np.allclose(P.project(z), S.project(z), rtol=0.0,
                               atol=1e-12 * (1.0 + np.linalg.norm(z))), label


@pytest.mark.parametrize("lam", [[0.0] * 5, [-1.0, 1.0, 0.0, 0.0, 0.0]],
                         ids=["tangent", "hyperplane"])
@pytest.mark.parametrize("sign", [1.0, -1.0], ids=["plus", "minus"])
def test_critical_subspace_test_on_a_boundary_point_runs_no_svd(
        monkeypatch, lam, sign):
    # at a boundary point of SOC(5) the critical cone is a halfspace or a
    # hyperplane, and its polar a ray or a line: each counts its lineality
    # from its codes
    K = ConeDesc([SOC(5, "plus" if sign > 0 else "minus")])
    y = sign * np.array([1.0, 1.0, 0.0, 0.0, 0.0])
    gp = GraphPoint(K, y, sign * np.array(lam))
    calls = []
    svd = np.linalg.svd
    monkeypatch.setattr(np.linalg, "svd",
                        lambda *a, **k: calls.append(1) or svd(*a, **k))
    assert gp.critical_is_subspace == (lam[0] != 0.0)
    assert calls == []
