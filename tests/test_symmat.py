import numpy as np
import pytest

from conestab.symmat import SQRT2, svec, smat, svec_dim, order_of, _triangle


def test_dims():
    assert svec_dim(1) == 1
    assert svec_dim(2) == 3
    assert svec_dim(5) == 15
    for n in range(1, 8):
        assert order_of(svec_dim(n)) == n


def test_order_of_rejects_non_triangular():
    with pytest.raises(ValueError):
        order_of(4)


def test_round_trip():
    rng = np.random.default_rng(0)
    for _ in range(20):
        n = rng.integers(1, 6)
        A = rng.standard_normal((n, n))
        A = 0.5 * (A + A.T)
        assert np.allclose(smat(svec(A)), A, atol=1e-14)


def test_isometry():
    # the scaling makes svec an isometry for the trace inner product
    rng = np.random.default_rng(1)
    for _ in range(20):
        n = rng.integers(1, 6)
        A = rng.standard_normal((n, n))
        A = 0.5 * (A + A.T)
        B = rng.standard_normal((n, n))
        B = 0.5 * (B + B.T)
        assert np.isclose(float(svec(A) @ svec(B)), float(np.sum(A * B)),
                          atol=1e-12)


def test_known_entries():
    A = np.array([[1.0, 2.0], [2.0, 3.0]])
    v = svec(A)
    assert np.allclose(v, [1.0, 2.0 * SQRT2, 3.0])


# Per-call forms that rebuild the triangle indices on every call; the
# cached index plan must reproduce them exactly.
def _svec_ref(A):
    A = np.asarray(A, dtype=float)
    n = A.shape[0]
    iu, ju = np.triu_indices(n)
    v = A[iu, ju].copy()
    v[iu != ju] *= SQRT2
    return v


def _smat_ref(v):
    v = np.asarray(v, dtype=float)
    n = order_of(v.size)
    iu, ju = np.triu_indices(n)
    w = v.copy()
    w[iu != ju] /= SQRT2
    A = np.zeros((n, n))
    A[iu, ju] = w
    A[ju, iu] = w
    return A


@pytest.mark.parametrize("n", range(1, 31))
def test_svec_smat_match_reference_exactly(n):
    rng = np.random.default_rng(n)
    for _ in range(5):
        A = rng.standard_normal((n, n))
        S = 0.5 * (A + A.T)
        v = rng.standard_normal(svec_dim(n))
        assert np.array_equal(svec(A), _svec_ref(A))
        assert np.array_equal(svec(S), _svec_ref(S))
        assert np.array_equal(smat(v), _smat_ref(v))
        assert np.array_equal(smat(svec(S)), _smat_ref(_svec_ref(S)))


def test_triangle_plan_is_read_only():
    for n in (1, 3, 7):
        for a in _triangle(n):
            assert not a.flags.writeable
            with pytest.raises(ValueError):
                a[0] = 5


def test_results_do_not_alias_the_plan():
    A = np.arange(9.0).reshape(3, 3)
    v = svec(A)
    v[:] = -1.0
    assert np.array_equal(svec(A), _svec_ref(A))
    M = smat(svec(A))
    M[:] = -1.0
    assert np.array_equal(smat(svec(A)), _smat_ref(_svec_ref(A)))


def test_empty_matrix():
    assert svec(np.zeros((0, 0))).shape == (0,)
    assert smat(np.zeros(0)).shape == (0, 0)
