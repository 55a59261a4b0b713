import numpy as np
import pytest

from conestab._sets import DEFAULT_TOL
from conestab.cone_core import ConeDesc, Orthant, SOC, PSD, Zero, Free
from conestab.constraint_system import (
    EXAMPLE1_XBAR as XBAR1, EXAMPLE2_VHAT, EXAMPLE2_LAMHAT, EXAMPLE3_XBAR,
    EXAMPLE3_VBAR, ConstraintSystem, BasePoint,
    example1_system, example3_system, section32_system,
    affine_system, quadratic_system,
    multiplier_solve, multiplier_verify,
    srcq_check, nondegeneracy_check, strict_complementarity_check,
    ngamma_graph_deriv_contains, BasePair,
)
from conestab.jsonio import SchemaError, parse_cone, emit_cone, parse_problem
from conestab.symmat import smat, svec


def test_self_check_builtins():
    rng = np.random.default_rng(0)
    assert example1_system().self_check(rng.standard_normal(3))
    assert example3_system().self_check(rng.standard_normal(3))
    assert section32_system().self_check(rng.standard_normal(1))
    K = ConeDesc([SOC(3, "plus")])
    Qs = [rng.standard_normal((2, 2)) for _ in range(3)]
    sys = quadratic_system(K, Qs, rng.standard_normal((3, 2)),
                           rng.standard_normal(3))
    assert sys.self_check(rng.standard_normal(2))


def test_system_input_checks_raise_value_error():
    K = ConeDesc([Orthant(2, "plus")])
    with pytest.raises(ValueError, match="dim_x"):
        ConstraintSystem(0, K, lambda x: x, lambda x: np.eye(2))
    with pytest.raises(ValueError, match="A has shape"):
        affine_system(K, np.ones((1, 2)), np.zeros(2))
    with pytest.raises(ValueError, match="Q matrices"):
        quadratic_system(K, [np.eye(2)], np.eye(2), np.zeros(2))
    bad = ConstraintSystem(2, K, lambda x: x[:1], lambda x: np.eye(2))
    with pytest.raises(ValueError, match="g\\(x\\) has size 1"):
        bad.g(np.zeros(2))
    bad = ConstraintSystem(2, K, lambda x: x, lambda x: np.eye(3))
    with pytest.raises(ValueError, match="Jacobian has shape"):
        bad.jacobian(np.zeros(2))
    bad = ConstraintSystem(2, K, lambda x: x, lambda x: np.eye(2),
                           hess=lambda x, lam: np.eye(3))
    with pytest.raises(ValueError, match="Hessian has shape"):
        bad.hess_lambda(np.zeros(2), np.zeros(2))
    # a Jacobian that does not match g fails the derivative self-check
    bad = ConstraintSystem(2, K, lambda x: x, lambda x: 2 * np.eye(2))
    with pytest.raises(ValueError, match="Jacobian mismatch"):
        bad.self_check(np.zeros(2))
    bad = ConstraintSystem(2, K, lambda x: x, lambda x: np.eye(2),
                           hess=lambda x, lam: np.triu(np.ones((2, 2))))
    with pytest.raises(ValueError, match="Hessian asymmetry"):
        bad.self_check(np.zeros(2))


def test_gamma_tangent_contains():
    # h is tangent to the feasible set when g'(x)h is in T_K(g(x))
    sys = example1_system()
    point = BasePoint(sys, XBAR1)

    def tangent(h):
        return point.tangent.contains(point.J @ np.array(h), point.tol)

    assert tangent([0.0, 0.0, 0.0])
    assert tangent([1.0, 1.0, 0.0])
    assert not tangent([0.0, 0.0, -1.0])
    # the slack coordinate pulls the matrix part with it
    assert tangent([0.0, 0.0, 1.0])
    with pytest.raises(ValueError):
        BasePoint(sys, np.array([0.0, 0.0, -1.0]))


def test_multiplier_zero_target():
    point = BasePoint(example1_system(), XBAR1)
    res = multiplier_solve(point, np.zeros(3))
    assert res.found
    assert np.linalg.norm(res.lam) <= 1e-8
    assert multiplier_verify(point, np.zeros(3), res.lam)


def test_multiplier_image_membership():
    # v is in the adjoint image of N_K(g(x)) when a multiplier verifies,
    # and out of it when the search carries a Farkas certificate
    sys = example1_system()
    point = BasePoint(sys, XBAR1)
    lam = np.concatenate([svec(-np.eye(2)), [-1.0]])
    v = sys.adjoint_apply(XBAR1, lam)
    assert np.allclose(v, [-1.0, -1.0, -3.0])
    assert multiplier_solve(point, v, with_uniqueness=False).found
    res = multiplier_solve(point, -v, with_uniqueness=False)
    assert not res.found and res.farkas is not None


def test_multiplier_example3_segment():
    # the multiplier set at the reference data is a segment; both extreme
    # points verify and the search reports non-uniqueness with distinct
    # members
    sys = example3_system()
    xbar, vbar = EXAMPLE3_XBAR, EXAMPLE3_VBAR
    lam_a = np.concatenate([vbar, np.zeros(3)])
    lam_b = np.concatenate([np.zeros(3), vbar])
    point = BasePoint(sys, xbar)
    assert multiplier_verify(point, vbar, lam_a)
    assert multiplier_verify(point, vbar, lam_b)
    res = multiplier_solve(point, vbar)
    assert res.found
    assert len(res.members) > 1
    assert res.srcq.verdict == "fails"
    assert res.srcq.witness is not None


def test_multiplier_solve_rejects_non_finite_v():
    point = BasePoint(example1_system(), XBAR1)
    with pytest.raises(ValueError, match="v not finite"):
        multiplier_solve(point, [np.nan, 0.0, 0.0])
    with pytest.raises(ValueError, match="v not finite"):
        multiplier_solve(point, [0.0, np.inf, 0.0], with_uniqueness=False)


@pytest.mark.filterwarnings("ignore:overflow encountered")
def test_multiplier_tests_reject_an_overflowing_norm():
    # K = R^2_+, g(x) = x at x = 0: N_K(0) = R^2_-.  A bound on
    # 1 + ||lam|| + ||v|| that overflows reads inf and would pass any lam,
    # among them lam = v = (1e200, 1e200), which is not in N_K(0)
    point = BasePoint(affine_system(ConeDesc([Orthant(2)]), np.eye(2),
                                    np.zeros(2)), np.zeros(2))
    big = np.array([1e200, 1e200])
    with pytest.raises(ValueError, match="the norm of v overflows"):
        multiplier_solve(point, big)
    for v, lam in ((big, big), (np.zeros(2), big), (big, -np.ones(2))):
        with pytest.raises(ValueError, match="the norm of v or lam overflows"):
            multiplier_verify(point, v, lam)
        with pytest.raises(ValueError, match="the norm of v or lam overflows"):
            BasePair(point, v, lam)
    with pytest.raises(ValueError, match="lam not finite"):
        multiplier_verify(point, np.zeros(2), [np.inf, -1.0])
    # a norm that does not overflow is tested as before
    assert multiplier_verify(point, [-1e150, 0.0], [-1e150, 0.0])
    assert not multiplier_verify(point, [1e150, 0.0], [1e150, 0.0])


def _nsd_dist(lam):
    """dist(lam, NSD(2) x R_-), the normal cone at example1's apex."""
    w = np.linalg.eigvalsh(smat(lam[:3]))
    return float(np.hypot(np.linalg.norm(np.maximum(w, 0.0)),
                          max(lam[3], 0.0)))


def _farkas_recheck(point, target, farkas):
    """Re-check a Farkas certificate from (h, y) as its docstring states:
    y in the polar PSD x R_+ of N, J h = y to rounding and a positive gain
    <h, target>, so every lam is at least `bound` from the fiber or from
    N."""
    J = point.J
    h, (y,), bound = farkas.h, farkas.y, farkas.bound
    assert np.linalg.eigvalsh(smat(y[:3])).min() >= -1e-12 and y[3] >= 0.0
    assert np.linalg.norm(J @ h - y) <= 1e-12 * (1 + np.linalg.norm(h))
    gain = float(h @ target)
    assert gain > 0 and bound == pytest.approx(
        gain / (np.linalg.norm(h) + np.linalg.norm(y)), rel=1e-12)
    rng = np.random.default_rng(0)
    for lam in 3.0 * rng.standard_normal((200, 4)):
        assert max(np.linalg.norm(J.T @ lam - target), _nsd_dist(lam)) >= \
            bound * (1 - 1e-12)


def test_multiplier_misses_at_example1_are_certified(monkeypatch, analyze):
    # at example1, (1, 1, 3) has no multiplier and the search certifies
    # it at once.  (1, 0, 0) and (0, 0, 1) have none either, but the run
    # from the least-squares seed stalls at cycle 100: its cone increment
    # keeps a constant part outside range(J), so no Farkas test passes.
    # The run from the stalled iterate has no such part and certifies at
    # its first cycle
    import conestab.constraint_system as cs

    point = BasePoint(example1_system(), XBAR1)
    infos = []
    dykstra = cs.dykstra

    def spy(*args, **kwargs):
        z, info = dykstra(*args, **kwargs)
        infos.append(info)
        return z, info

    monkeypatch.setattr(cs, "dykstra", spy)
    for target, runs in (([1.0, 1.0, 3.0], [1]), ([1.0, 0.0, 0.0], [100, 1]),
                         ([0.0, 0.0, 1.0], [100, 1])):
        target = np.array(target)
        del infos[:]
        res = multiplier_solve(point, target, with_uniqueness=False)
        assert not res.found and res.farkas is infos[-1].farkas
        assert [i.cycles for i in infos] == runs, target
        assert [i.farkas is None for i in infos] == [True] * (len(runs) - 1) \
            + [False]
        _farkas_recheck(point, target, res.farkas)
        rc, report = analyze({"mapping": {"builtin": "example1"}},
                             {"x": XBAR1, "v": target})
        assert rc == 0
        assert [c["name"] for c in report["certificates"]] == \
            ["nondegeneracy"]
        line = ("multiplier: not found (certified: residual "
                f">= {res.farkas.bound:.3e} at cycle 1)")
        assert any(l.startswith(line) for l in report["lines"]), line


@pytest.mark.parametrize("srcq_holds", [True, False])
def test_multiplier_solve_matches_a_direct_dykstra_reference(planted,
                                                              srcq_holds):
    # the reference is one Dykstra run from the least-squares seed, made
    # here and not through multiplier_solve.  With a unique multiplier
    # (srcq holds) the exact span-N route must land on it and on the
    # planted multiplier; on a segment the fiber interval route holds
    # the reference point on its line lam_p + t k with t in its
    # interval, and lam is the interval's chosen point and the first
    # member
    from conestab import _sets

    for seed in range(20):
        sys, x, v, lam, _ = planted(100 + seed, srcq_holds)
        Jt = sys.jacobian(x).T
        N = sys.cone.tangent_set(sys.g(x), DEFAULT_TOL).polar()
        ref, _ = _sets.dykstra(_sets.AffineSet(Jt, v), N,
                               np.linalg.lstsq(Jt, v, rcond=None)[0])
        scale = 1.0 + np.linalg.norm(ref) + np.linalg.norm(v)
        res = multiplier_solve(BasePoint(sys, x), v)
        assert res.found, seed
        if srcq_holds:
            assert res.route == "span-N solve" and len(res.members) == 1
            got = res.lam
            assert np.linalg.norm(res.lam - lam) <= \
                1e-8 * (1.0 + np.linalg.norm(lam)), seed
        else:
            assert res.route == "fiber interval" and len(res.members) > 1
            assert res.members[0] is res.lam
            lam_p, k, (lo, hi) = (res.fiber[key] for key in
                                  ("lam_p", "k", "interval"))
            t = float(k @ (ref - lam_p))
            assert lo - 1e-6 * scale <= t <= hi + 1e-6 * scale, seed
            got = lam_p + t * k
        assert np.linalg.norm(got - ref) <= 1e-6 * scale, seed


def test_srcq_example1_both_verdicts():
    sys = example1_system()
    point = BasePoint(sys, XBAR1)
    holds = srcq_check(BasePair(point, np.zeros(3), np.zeros(4)))
    assert holds.verdict == "holds"
    assert len(holds.checked) >= 3
    fails = srcq_check(BasePair(point, EXAMPLE2_VHAT, EXAMPLE2_LAMHAT))
    assert fails.verdict == "fails"
    w = fails.witness
    assert w is not None and np.linalg.norm(w) > 1e-6
    # the witness lives in the adjoint kernel
    assert np.linalg.norm(sys.jacobian(XBAR1).T @ w) <= 1e-6 * np.linalg.norm(w)


def test_srcq_homogeneous_in_target():
    point = BasePoint(example1_system(), XBAR1)
    assert srcq_check(BasePair(point, 2 * EXAMPLE2_VHAT,
                               2 * EXAMPLE2_LAMHAT)).verdict == "fails"
    assert srcq_check(BasePair(point, np.zeros(3),
                               np.zeros(4))).verdict == "holds"


def test_srcq_rejects_unverified_multiplier():
    sys = example1_system()
    with pytest.raises(ValueError):
        srcq_check(BasePair(BasePoint(sys, XBAR1), np.array([1.0, 0.0, 0.0]),
                            np.zeros(4)))


def test_nondegeneracy_cases():
    free = affine_system(ConeDesc([Free(2)]), np.eye(2), np.zeros(2))
    assert nondegeneracy_check(BasePoint(free, np.zeros(2))).verdict == "holds"
    ortho = affine_system(ConeDesc([Orthant(2, "plus")]), np.eye(2), np.zeros(2))
    assert nondegeneracy_check(BasePoint(ortho, np.zeros(2))).verdict == "holds"
    # a wide cone with a thin Jacobian cannot be nondegenerate
    thin = affine_system(ConeDesc([Zero(3)]), np.ones((3, 1)), np.zeros(3))
    cert = nondegeneracy_check(BasePoint(thin, np.zeros(1)))
    assert cert.verdict == "fails"
    assert cert.details["rank"] < cert.details["dim_y"]


def test_nondegeneracy_witness_is_orthogonal_to_jacobian_and_lineality():
    # a `fails` witness w is a unit vector with J^T w = 0 and Lin^T w = 0
    # to rounding: the range of [J | Lin] misses it
    rng = np.random.default_rng(61)
    points = [BasePoint(example1_system(), XBAR1),
              BasePoint(affine_system(ConeDesc([Zero(3)]), np.ones((3, 1)),
                                      np.zeros(3)), np.zeros(1))]
    K = ConeDesc([Orthant(3), Free(2), SOC(3)])
    for i in range(20):
        # J of rank 2; T_K(y) has a lineality space of dimension at most
        # 1 + 2 + 2 (one positive entry, the free block, an SOC boundary
        # point), so the rank of [J | Lin] is below dim Y = 8
        A = rng.standard_normal((K.dim, 2)) @ rng.standard_normal((2, 4))
        x = rng.standard_normal(4)
        y = np.zeros(K.dim)
        y[i % 3] = abs(rng.standard_normal())
        y[3:5] = rng.standard_normal(2)
        if i % 2:
            u = rng.standard_normal(2)
            y[5:] = np.concatenate([[1.0], u / np.linalg.norm(u)])
        points.append(BasePoint(affine_system(K, A, y - A @ x), x))
    for point in points:
        cert = nondegeneracy_check(point)
        assert cert.verdict == "fails"
        w = cert.witness
        eps = 64 * np.finfo(float).eps
        assert abs(np.linalg.norm(w) - 1.0) <= eps
        assert np.linalg.norm(point.J.T @ w) <= eps * np.linalg.norm(point.J)
        assert np.linalg.norm(point.tangent.lineality_basis().T @ w) <= eps


@pytest.mark.parametrize("eps", [1e-3, 1e-6, 1e-9, 1e-12])
def test_nondegeneracy_route_and_srcq_read_one_rank(eps):
    # K = R_+ x R, g(x) = (eps x, x) at x = 0 and lam = (-1, 0): J^T is
    # the number eps on span N = R x {0}, injective against the cut
    # tol.zero ||J|| for eps = 1e-3 and 1e-6 only.  Nondegeneracy, the
    # span-N route of the multiplier search and a srcq that holds on
    # span(L) = {0} are the same decision
    point = BasePoint(affine_system(ConeDesc([Orthant(1), Free(1)]),
                                    [[eps], [1.0]], [0.0, 0.0]), [0.0])
    v, lam = np.array([-eps]), np.array([-1.0, 0.0])
    injective = eps >= 1e-6
    nd = nondegeneracy_check(point)
    res = multiplier_solve(point, v)
    assert (nd.verdict == "holds") == injective
    assert res.found and (res.route == "span-N solve") == injective
    for srcq in (res.srcq, srcq_check(BasePair(point, v, lam))):
        on_zero = srcq.verdict == "holds" and srcq.method == "span(L) is {0}"
        assert on_zero == injective
        assert srcq.verdict == ("holds" if injective else "fails")
        assert srcq.details["adjoint_rank"] == int(injective)
        assert srcq.details["span_normal_dim"] == 1
    if not injective:
        # the witnesses span the same line e_1 of span N, on which J^T
        # is at most the cut
        for w in (nd.witness, res.srcq.witness):
            assert abs(w[0]) == 1.0 and w[1] == 0.0


def _span_suite_points(rng):
    """(K, y, lam): every primitive in both signs at its apex, at a
    projected Gaussian point (mostly on a proper face) and in the
    interior, lam the Moreau partner or 0; and two mixed products."""
    prims = [Orthant(3), Orthant(3, "minus"), SOC(4), SOC(4, "minus"),
             PSD(3), PSD(3, "minus"), Zero(3), Free(3)]
    interior = {Orthant: lambda k: np.ones(3), SOC: lambda k: np.eye(4)[0],
                PSD: lambda k: svec(np.eye(3))}
    for b in prims:
        K = ConeDesc([b])
        for _ in range(3):
            z = 2.0 * rng.standard_normal(K.dim)
            y, lam = K.project(z), K.polar().project(z)
            yield K, y, lam
            yield K, np.zeros(K.dim), lam
            yield K, y, np.zeros(K.dim)
        if b.signed:
            yield K, b.sign * interior[type(b)](b), np.zeros(K.dim)
    for blocks in ([PSD(2), SOC(3, "minus"), Orthant(2)],
                   [PSD(3, "minus"), Zero(1), Free(2), SOC(3)]):
        K = ConeDesc(blocks)
        for _ in range(6):
            z = 2.0 * rng.standard_normal(K.dim)
            yield K, K.project(z), K.polar().project(z)


def test_span_normal_and_srcq_witnesses_on_every_primitive():
    # span N_K(y) read from the codes is orthonormal and is the SVD
    # complement of lin T_K(y); J^T maps every srcq `fails` witness to
    # rounding, on full-rank, thin and rank-deficient Jacobians
    rng = np.random.default_rng(32)
    eps = np.finfo(float).eps
    verdicts = set()
    for K, y, lam in _span_suite_points(rng):
        m = K.dim
        for n in (2, m + 1):
            A = rng.standard_normal((m, n))
            if n > 2:
                A = A[:, :2] @ rng.standard_normal((2, n))
            x = rng.standard_normal(n)
            point = BasePoint(affine_system(K, A, y - A @ x), x)
            B = point.critical_data.span_critical_polar
            assert np.allclose(B.T @ B, np.eye(B.shape[1]), atol=1e-13)
            Lin = point.tangent.lineality_basis()
            if Lin.shape[1]:
                u, s, _ = np.linalg.svd(Lin)
                comp = u[:, int(np.sum(s > 1e-12 * s[0])):]
            else:
                comp = np.eye(m)
            assert np.allclose(B @ B.T, comp @ comp.T, atol=1e-12)
            srcq = srcq_check(BasePair(point, A.T @ lam, lam))
            verdicts.add(srcq.verdict)
            if srcq.verdict == "fails":
                w = srcq.witness
                assert np.linalg.norm(A.T @ w) <= \
                    64 * eps * np.linalg.norm(A) * np.linalg.norm(w)
    assert verdicts == {"holds", "fails"}


def _lam_zero_suite(rng):
    """(K, y): every primitive in both signs at its apex and at a
    projected Gaussian point (mostly on a proper face), and one product
    of every kind of block at a projected point."""
    prims = [Orthant(3), Orthant(3, "minus"), SOC(3), SOC(3, "minus"),
             PSD(2), PSD(2, "minus"), Zero(2), Free(2)]
    for b in prims:
        K = ConeDesc([b])
        yield K, np.zeros(K.dim)
        yield K, K.project(2.0 * rng.standard_normal(K.dim))
    K = ConeDesc([PSD(2), SOC(3, "minus"), Orthant(2), Zero(1), Free(1)])
    yield K, K.project(2.0 * rng.standard_normal(K.dim))


def _lam_zero_certificates(K, y, seed, calm_problem):
    """The lam = 0 certificates at g(x) = y for g(x) = A x + b, with A of
    rank dim K and one more column, drawn from `seed`: srcq there and
    for the one column a of A, whose ker a^T meets span N_K(y) in
    dim K - 1 or fewer dimensions; three graph-derivative checks (d in
    ker A, a d with A d in T_K(y), a random pair); and isolated calmness
    for F = -p - x, which holds, and for F blind to one extra coordinate
    outside g, which fails.  Returns the certificates and the lam = 0
    pairs."""
    from conestab.stability import solution_map_isolated_calm

    rng = np.random.default_rng(seed)
    m = K.dim
    A = rng.standard_normal((m, m + 1))
    x = rng.standard_normal(m + 1)
    point = BasePoint(affine_system(K, A, y - A @ x), x)
    pair = BasePair(point, np.zeros(m + 1), np.zeros(m))
    a = A[:, :1]
    column = BasePair(BasePoint(affine_system(K, a, y - a @ x[:1]), x[:1]),
                      np.zeros(1), np.zeros(m))
    kernel = np.linalg.svd(A)[2][-1]
    d_tan = np.linalg.pinv(A) @ point.tangent.project(rng.standard_normal(m))
    xi = point.normal.project(rng.standard_normal(m))
    certs = [srcq_check(pair), srcq_check(column)] + [
        ngamma_graph_deriv_contains(pair, d, w) for d, w in (
            (kernel, A.T @ xi), (d_tan, np.zeros(m + 1)),
            (rng.standard_normal(m + 1), rng.standard_normal(m + 1)))]
    for extra in (0, 1):
        certs.append(solution_map_isolated_calm(
            calm_problem(K, y, extra, rng), np.zeros(m)))
    return certs, (pair, column)


def test_lam_zero_pairs_read_the_base_points_graph_point(monkeypatch,
                                                         calm_problem):
    # at lam = 0 the critical cone at (g(x), lam) is T_K(g(x)) and its
    # polar N_K(g(x)): the pair reads the graph point (g(x), 0) and the
    # J-level bases its base point holds, and every certificate at the
    # pair is the one a graph point and bases built for the pair alone
    # give, verdict, residual and witness
    from functools import cached_property

    from conestab.constraint_system import CriticalData
    from conestab.proj_deriv import GraphPoint

    rng = np.random.default_rng(39)
    cases = [(K, y, seed) for seed, (K, y) in enumerate(_lam_zero_suite(rng))]
    shared = []
    for K, y, seed in cases:
        certs, pairs = _lam_zero_certificates(K, y, seed, calm_problem)
        for pair in pairs:
            point = pair.point
            assert pair.critical_data is point.critical_data
            assert pair.graph_point is point.graph_point
            assert pair.critical is point.tangent
            assert pair.critical_polar is point.normal
        shared.append(certs)

    def own(pair):
        return CriticalData(GraphPoint.of_pair(
            pair.sys.cone, pair.gx, pair.lam, pair.tol), pair.J, pair.tol)
    own = cached_property(own)
    own.__set_name__(BasePair, "critical_data")
    monkeypatch.setattr(BasePair, "critical_data", own)
    verdicts = set()
    for (K, y, seed), certs in zip(cases, shared):
        fresh, pairs = _lam_zero_certificates(K, y, seed, calm_problem)
        assert all(p.critical_data is not p.point.critical_data and
                   p.graph_point is not p.point.graph_point for p in pairs)
        for a, b in zip(certs, fresh):
            assert (a.verdict, a.residual) == (b.verdict, b.residual), K
            assert (a.witness is None and b.witness is None) or \
                np.array_equal(a.witness, b.witness), K
            verdicts.add(a.verdict)
    assert {"holds", "fails"} <= verdicts


def _scribble(value):
    """Write zeros into every array of a certificate's witness and
    details, nested dicts, lists, tuples and certificates included; an
    array that is read-only refuses the write.  Returns the number of
    arrays refused."""
    from conestab._sets import Certificate

    if isinstance(value, np.ndarray):
        try:
            value[...] = 0
        except ValueError:
            return 1
        return 0
    if isinstance(value, Certificate):
        return _scribble(value.witness) + _scribble(value.details)
    if isinstance(value, dict):
        return sum(map(_scribble, value.values()))
    if isinstance(value, (list, tuple)):
        return sum(map(_scribble, value))
    return 0


def test_cached_arrays_do_not_leak_into_certificates(calm_problem,
                                                     same_certificate):
    # a certificate's witness and details may be views of the bases a
    # point caches (the nondegeneracy witness is a column of the adjoint
    # kernel, a line srcq decides is that column, the definite route's
    # basis and the witness search's directions are the pair's); those
    # are read-only, so writing into one certificate cannot change the
    # next
    from conestab.stability import solution_map_isolated_calm

    point = BasePoint(example1_system(), XBAR1)
    nd = nondegeneracy_check(point)
    assert nd.verdict == "fails"
    with pytest.raises(ValueError, match="read-only"):
        nd.witness *= 0
    zero = np.zeros(point.sys.cone.dim)
    assert srcq_check(BasePair(point, np.zeros(3), zero)).verdict == "holds"

    rng = np.random.default_rng(40)
    u = np.array([0.6, 0.8])
    K = ConeDesc([PSD(2, "minus"), Orthant(2)])
    y = np.concatenate([-svec(np.outer(u, u)), np.zeros(2)])
    holds, fails = (calm_problem(K, y, extra, rng) for extra in (0, 1))
    line = affine_system(ConeDesc([Orthant(2)]), np.ones((2, 1)),
                         np.zeros(2))
    calls = [
        lambda: nondegeneracy_check(point),
        lambda: srcq_check(BasePair(point, np.zeros(3), zero)),
        lambda: srcq_check(BasePair(BasePoint(line, [0.0]), [-2.0],
                                    -np.array([1.0, 1.0]))),
        lambda: solution_map_isolated_calm(holds, np.zeros(K.dim)),
        lambda: solution_map_isolated_calm(fails, np.zeros(K.dim)),
        lambda: ngamma_graph_deriv_contains(
            BasePair(fails.point, fails.vbar, np.zeros(K.dim)),
            np.eye(K.dim + 1)[-1], np.zeros(K.dim + 1)),
    ]
    refused = 0
    for call in calls:
        cold = call()
        refused += _scribble(call())
        assert same_certificate(cold, call()), cold.method
    assert refused >= 4


def test_strict_complementarity_cases():
    sys3 = example3_system()
    xbar, vbar = EXAMPLE3_XBAR, EXAMPLE3_VBAR
    assert strict_complementarity_check(
        multiplier_solve(BasePoint(sys3, xbar), vbar)).verdict == "holds"
    sys1 = example1_system()
    assert strict_complementarity_check(multiplier_solve(
        BasePoint(sys1, XBAR1), np.zeros(3))).verdict == "fails"
    inactive = affine_system(ConeDesc([Orthant(2, "plus")]), np.eye(2),
                             np.ones(2))
    assert strict_complementarity_check(multiplier_solve(
        BasePoint(inactive, np.ones(2)), np.zeros(2))).verdict == "holds"
    with pytest.raises(ValueError):
        strict_complementarity_check(multiplier_solve(
            BasePoint(sys1, XBAR1), np.array([1.0, 1.0, 1.0])))


def test_critical_cone_gamma_contains():
    sys = example1_system()
    lam0 = np.zeros(4)
    pair = BasePair(BasePoint(sys, XBAR1), np.zeros(3), lam0)

    def critical(d):
        return pair.critical.contains(pair.J @ np.array(d), pair.tol)

    assert critical([0.0, 0.0, 0.0])
    assert critical([1.0, 1.0, 0.0])
    assert not critical([0.0, 0.0, -1.0])


def test_ngamma_graph_deriv_trivial_pair_holds():
    sys = example1_system()
    cert = ngamma_graph_deriv_contains(
        BasePair(BasePoint(sys, XBAR1), np.zeros(3), np.zeros(4)),
        np.zeros(3), np.zeros(3))
    assert cert.verdict == "holds"
    assert cert.details["fiber_holds"]
    assert cert.details["inner_verdict"] == "holds"
    assert len(cert.assumptions) == 1


def test_ngamma_graph_deriv_adjoint_image_holds():
    # d = 0 with w in the adjoint image of the polar of the critical cone
    sys = example1_system()
    xi = np.concatenate([svec(-np.eye(2)), [-1.0]])
    w = sys.adjoint_apply(XBAR1, xi)
    cert = ngamma_graph_deriv_contains(
        BasePair(BasePoint(sys, XBAR1), np.zeros(3), np.zeros(4)),
        np.zeros(3), w)
    assert cert.verdict == "holds"


def test_ngamma_graph_deriv_gate_fails_fast():
    sys = example1_system()
    cert = ngamma_graph_deriv_contains(
        BasePair(BasePoint(sys, XBAR1), np.zeros(3), np.zeros(4)),
        np.array([0.0, 0.0, -1.0]), np.zeros(3))
    assert cert.verdict == "fails"
    assert "fiber_residual" not in cert.details
    assert cert.details["critical_gate"] > 1e-6


@pytest.mark.parametrize("d,w,name", [
    ([0.0, 0.0, np.nan], np.zeros(3), "d"),
    (np.zeros(3), [0.0, np.inf, 0.0], "w")])
def test_ngamma_graph_deriv_rejects_non_finite_input(d, w, name):
    # a NaN direction used to pass the critical-cone gate (the comparison
    # is False for NaN) and end as inconclusive with residual nan
    pair = BasePair(BasePoint(example1_system(), XBAR1), np.zeros(3),
                    np.zeros(4))
    with pytest.raises(ValueError, match=f"{name} not finite"):
        ngamma_graph_deriv_contains(pair, d, w)


def test_wrong_length_vectors_are_rejected_not_broadcast():
    # a v, lam, d or w of shape (1,) used to broadcast against the
    # system's vectors and be decided as a constant vector
    point = BasePoint(example1_system(), XBAR1)
    for call in (lambda: multiplier_verify(point, np.zeros(1), np.zeros(4)),
                 lambda: BasePair(point, np.zeros(1), np.zeros(4)),
                 lambda: multiplier_solve(point, np.zeros(1))):
        with pytest.raises(ValueError, match=r"v has shape \(1,\); the "
                           "system has dim_x 3"):
            call()
    for call in (lambda: multiplier_verify(point, np.zeros(3), np.zeros(1)),
                 lambda: BasePair(point, np.zeros(3), np.zeros(1))):
        with pytest.raises(ValueError, match=r"lam has shape \(1,\); the "
                           "cone has dimension 4"):
            call()
    pair = BasePair(point, np.zeros(3), np.zeros(4))
    d = np.array([1.0, 1.0, 0.5])
    with pytest.raises(ValueError, match=r"w has shape \(1,\)"):
        ngamma_graph_deriv_contains(pair, d, np.array([2.0]))
    with pytest.raises(ValueError, match=r"d has shape \(2,\)"):
        ngamma_graph_deriv_contains(pair, d[:2], np.zeros(3))


def test_ngamma_graph_deriv_fails_on_wrong_dual_motion():
    sys = example1_system()
    # w pointing along +adjoint of an interior cone direction cannot be
    # realized over the polar at d = 0
    xi = np.concatenate([svec(np.eye(2)), [1.0]])
    w = sys.adjoint_apply(XBAR1, xi)
    cert = ngamma_graph_deriv_contains(
        BasePair(BasePoint(sys, XBAR1), np.zeros(3), np.zeros(4)),
        np.zeros(3), w)
    assert cert.verdict == "fails"


def test_ngamma_fiber_translates_to_the_cone_level_fiber():
    # mu = xi + u/2 solves the cone-level fiber J^T mu = w - Hd,
    # mu in u/2 + (C° ∩ gd⊥), for the fiber solution xi of each member
    from graph_samplers import ngamma_tangent_generate

    sys = example1_system()
    pair = BasePair(BasePoint(sys, XBAR1), np.zeros(3), np.zeros(4))
    tol = pair.tol
    members = ngamma_tangent_generate(sys, XBAR1, np.zeros(4), count=25,
                                      seed=4)
    held = 0
    for d, w in members:
        cert = ngamma_graph_deriv_contains(pair, d, w)
        if cert.verdict != "holds":
            continue
        held += 1
        gd = pair.J @ d
        u = pair.sys.cone.upsilon_grad(pair.graph_point, gd)
        mu = cert.witness + 0.5 * u
        scale = (1.0 + np.linalg.norm(d) + np.linalg.norm(w)) * (
            1.0 + np.linalg.norm(mu))
        assert np.linalg.norm(pair.J.T @ mu - (w - pair.hess @ d)) <= (
            tol.membership * scale)
        assert pair.critical_polar.dist(mu - 0.5 * u) <= tol.membership * scale
        assert abs(float(gd @ (mu - 0.5 * u))) <= tol.membership * scale
    assert held == 25


# ---------------------------------------------------------------------------
# JSON schemas

def test_cone_round_trip():
    K = ConeDesc([PSD(2, "plus"), SOC(3, "minus"), Orthant(2, "plus"),
                  Zero(1), Free(2)])
    K2 = parse_cone(emit_cone(K))
    assert K2.dim == K.dim
    rng = np.random.default_rng(0)
    for _ in range(20):
        z = rng.standard_normal(K.dim)
        assert np.allclose(K.project(z), K2.project(z))


def test_parse_cone_rejects_bad_input():
    with pytest.raises(SchemaError):
        parse_cone({"product": []})
    with pytest.raises(SchemaError):
        parse_cone({"product": [{"simplex": {"dim": 2}}]})
    with pytest.raises(SchemaError):
        parse_cone({"product": [{"orthant": {}}]})
    with pytest.raises(SchemaError):
        parse_cone({})
    # a block size is a JSON integer >= 1, not a float, a bool or a
    # negative count
    for spec in ({"orthant": {"dim": 1.9}}, {"orthant": {"dim": True}},
                 {"orthant": {"dim": -1}}, {"soc": {"dim": 0}},
                 {"psd": {"order": 2.0}}, {"zero": {"dim": "2"}}):
        with pytest.raises(SchemaError, match=r"cone\.product\[0\]\.\w+: "
                           r"\w+ must be an integer >= 1"):
            parse_cone({"product": [spec]})


def test_parse_problem_builtin_and_affine():
    sys = parse_problem({"mapping": {"builtin": "example1"}})
    assert sys.name == "example1"
    assert sys.cone.contains(sys.g(XBAR1))
    sys2 = parse_problem({
        "cone": {"product": [{"orthant": {"dim": 2, "sign": "plus"}}]},
        "mapping": {"affine": {"A": [[1, 0], [0, 1]], "b": [0, 0]}}})
    assert np.allclose(sys2.g(np.array([1.0, 2.0])), [1.0, 2.0])
    with pytest.raises(SchemaError):
        parse_problem({"mapping": {"builtin": "nope"}})
    with pytest.raises(SchemaError):
        parse_problem({"mapping": {}})
