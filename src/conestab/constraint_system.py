"""Nonlinear constraint systems g(x) in K: feasible-set tangents,
multiplier sets, constraint-qualification certificates, and the
graphical-derivative membership test for the normal-cone map of the
feasible set Gamma = g^{-1}(K).

Certificates carry an `assumptions` tuple: tangent/normal formulas for
Gamma are exact only under metric subregularity of x -> g(x) - K, which
is assumed, never computed.
"""

from dataclasses import dataclass, field
from functools import cached_property
from itertools import islice
import math
import numpy as np

from ._sets import (
    Tol, DEFAULT_TOL, Certificate, AffineSet, Farkas, dykstra, _farkas_test,
    _norm, _span_svd, _frozen, _ROUNDING,
)
from .cone_core import ConeDesc
from .cone_geometry import _span_cone_trivial
from .proj_deriv import GraphPoint, dnk_contains
from .symmat import svec

SUBREG_ASSUMPTION = "metric subregularity of x -> g(x) - K at the base point"

__all__ = [
    "ConstraintSystem", "BasePoint", "CriticalData", "MultiplierSolveResult",
    "example1_system", "example3_system", "section32_system",
    "affine_system", "quadratic_system",
    "multiplier_solve", "multiplier_verify", "BasePair",
    "srcq_check", "nondegeneracy_check", "strict_complementarity_check",
    "ngamma_graph_deriv_contains",
]


class ConstraintSystem:
    """Twice differentiable g with its cone K.

    `value(x)` returns g(x) in the ambient coordinates of K, `jac(x)` the
    dense Jacobian matrix, and `hess(x, lam)` the Hessian of the scalar
    function <lam, g(.)> at x.  Adjoints are taken through the transpose,
    which is exact in these coordinates.
    """

    def __init__(self, dim_x, cone: ConeDesc, value, jac, hess=None,
                 name="custom", is_affine=False):
        if not dim_x >= 1:
            raise ValueError(f"dim_x must be >= 1, got {dim_x}")
        self.dim_x = int(dim_x)
        self.cone = cone
        self._value = value
        self._jac = jac
        self._hess = hess
        self.name = name
        self.is_affine = bool(is_affine)

    def g(self, x):
        out = np.asarray(self._value(np.asarray(x, float)), float)
        if out.size != self.cone.dim:
            raise ValueError(f"g(x) has size {out.size}; the cone has "
                             f"dimension {self.cone.dim}")
        return out

    def jacobian(self, x):
        J = np.asarray(self._jac(np.asarray(x, float)), float)
        if J.shape != (self.cone.dim, self.dim_x):
            raise ValueError(f"Jacobian has shape {J.shape}, expected "
                             f"{(self.cone.dim, self.dim_x)}")
        return J

    def adjoint_apply(self, x, mu):
        return self.jacobian(x).T @ np.asarray(mu, float)

    def hess_lambda(self, x, lam):
        if self._hess is None:
            return np.zeros((self.dim_x, self.dim_x))
        H = np.asarray(self._hess(np.asarray(x, float),
                                  np.asarray(lam, float)), float)
        if H.shape != (self.dim_x, self.dim_x):
            raise ValueError(f"Hessian has shape {H.shape}, expected "
                             f"{(self.dim_x, self.dim_x)}")
        return H

    def self_check(self, x, rng=None, n_probes=5):
        """Derivative consistency on random probes: finite-difference
        Jacobian (1e-5 relative), adjoint identity and Hessian symmetry
        (1e-10).  Raises ValueError on the first mismatch."""
        rng = rng or np.random.default_rng(0)
        x = np.asarray(x, float)
        J = self.jacobian(x)
        g0 = self.g(x)
        t = 1e-6
        for _ in range(n_probes):
            h = rng.standard_normal(self.dim_x)
            mu = rng.standard_normal(self.cone.dim)
            lam = rng.standard_normal(self.cone.dim)
            e = rng.standard_normal(self.dim_x)
            fd = (self.g(x + t * h) - self.g(x - t * h)) / (2 * t)
            rel = np.linalg.norm(fd - J @ h) / (1.0 + np.linalg.norm(J @ h))
            if not rel <= 1e-5:
                raise ValueError(f"Jacobian mismatch {rel:.2e}")
            gap = abs(float((J @ h) @ mu) - float(h @ (J.T @ mu)))
            if not gap <= 1e-10 * (1 + np.linalg.norm(h) * np.linalg.norm(mu)):
                raise ValueError(f"adjoint mismatch {gap:.2e}")
            H = self.hess_lambda(x, lam)
            Hd, He = H @ h, H @ e
            sym = abs(float(Hd @ e) - float(He @ h))
            if not sym <= 1e-10 * (1 + np.linalg.norm(h) * np.linalg.norm(e)):
                raise ValueError(f"Hessian asymmetry {sym:.2e}")
        return True


# ---------------------------------------------------------------------------
# builtin systems and the paper's base data on them

# example1's base point, at the cone apex, and Example 2's pair there;
# example3's reference data; section32's zero (x, lam, v), approached
# along ([1/k], lam, [1/k]) for k in SECTION32_KS
EXAMPLE1_XBAR = np.array([-1.0, -1.0, 0.0])
EXAMPLE2_VHAT = np.array([-1.0, 0.0, -1.0])
EXAMPLE2_LAMHAT = np.array([*svec(np.diag([-1.0, 0.0])), 0.0])
EXAMPLE3_XBAR = svec(np.diag([0.0, 1.0]))
EXAMPLE3_VBAR = svec(np.diag([-1.0, 0.0]))
SECTION32_CENTER = ((0.0,), (0.5,), (0.0,))
SECTION32_KS = (10, 100, 1000)


def example1_system() -> ConstraintSystem:
    """x in R^2, t in R; g(x,t) = (Diag(x) + t ones(2,2) + I; t) with
    K = PSD(2) x R_+; base point EXAMPLE1_XBAR sits at the cone apex."""
    from .cone_core import PSD, Orthant

    E = np.ones((2, 2))
    I2 = np.eye(2)

    def value(xt):
        x, t = xt[:2], xt[2]
        return np.concatenate([svec(np.diag(x) + t * E + I2), [t]])

    cols = np.column_stack([
        np.concatenate([svec(np.diag([1.0, 0.0])), [0.0]]),
        np.concatenate([svec(np.diag([0.0, 1.0])), [0.0]]),
        np.concatenate([svec(E), [1.0]]),
    ])

    return ConstraintSystem(3, ConeDesc([PSD(2, "plus"), Orthant(1, "plus")]),
                            value, lambda xt: cols, name="example1",
                            is_affine=True)


def example3_system() -> ConstraintSystem:
    """X in S^2 (svec coords); g(X) = (X + C; X) with C = diag(0, -1) and
    K = {0} x PSD(2); the multiplier set at the reference data
    (EXAMPLE3_XBAR, EXAMPLE3_VBAR) is a nontrivial segment."""
    from .cone_core import PSD, Zero

    c = svec(np.diag([0.0, -1.0]))
    J = np.vstack([np.eye(3), np.eye(3)])

    def value(xv):
        return np.concatenate([xv + c, xv])

    return ConstraintSystem(3, ConeDesc([Zero(3), PSD(2, "plus")]),
                            value, lambda xv: J, name="example3",
                            is_affine=True)


def section32_system() -> ConstraintSystem:
    """Scalar g(x) = x^2 with K = R_-; the stationarity-system residual
    map for this instance is the standard non-subregular specimen."""
    from .cone_core import Orthant

    return ConstraintSystem(
        1, ConeDesc([Orthant(1, "minus")]),
        lambda x: np.array([float(x[0]) ** 2]),
        lambda x: np.array([[2.0 * float(x[0])]]),
        hess=lambda x, lam: np.array([[2.0 * float(lam[0])]]),
        name="section32_scalar")


def affine_system(cone: ConeDesc, A, b, name="affine") -> ConstraintSystem:
    A = np.asarray(A, float)
    b = np.asarray(b, float)
    if not (A.shape[0] == cone.dim and b.size == cone.dim):
        raise ValueError(f"A has shape {A.shape} and b has {b.size} "
                         f"entries; the cone has dimension {cone.dim}")
    return ConstraintSystem(A.shape[1], cone,
                            lambda x: A @ x + b, lambda x: A,
                            name=name, is_affine=True)


def quadratic_system(cone: ConeDesc, Q_list, A, b, name="quadratic") -> ConstraintSystem:
    """Componentwise g_i(x) = x^T Q_i x / 2 + A_i x + b_i."""
    A = np.asarray(A, float)
    b = np.asarray(b, float)
    n = A.shape[1]
    for i, Q in enumerate(Q_list):
        if np.shape(Q) != (n, n):
            raise ValueError(f"Q_list[{i}] has shape {np.shape(Q)}; "
                             f"expected ({n}, {n}), A has {n} columns")
    Qs = [0.5 * (np.asarray(Q, float) + np.asarray(Q, float).T) for Q in Q_list]
    if not (A.shape[0] == cone.dim and len(Qs) == cone.dim):
        raise ValueError(f"A has shape {A.shape} and there are {len(Qs)} "
                         f"Q matrices; the cone has dimension {cone.dim}")

    def value(x):
        return np.array([0.5 * float(x @ (Q @ x)) for Q in Qs]) + A @ x + b

    def jac(x):
        return np.array([Q @ x for Q in Qs]) + A

    def hess(x, lam):
        return sum(l * Q for l, Q in zip(lam, Qs))

    return ConstraintSystem(A.shape[1], cone, value, jac, hess, name=name)


# ---------------------------------------------------------------------------
# operations

def _shaped(name, z, n, space):
    """z as a float vector of shape (n,), never broadcast to it."""
    z = np.asarray(z, float)
    if z.shape != (n,):
        raise ValueError(f"{name} has shape {z.shape}; {space} {n}")
    return z


def _fiber_residuals(A, b, cone, xi, bound):
    """(||A xi - b||, dist(xi, cone), ok), ok when both are at most a
    finite bound: a NaN never passes, nor does an xi whose norm, and so
    the bound, overflows."""
    ra, rc = _norm(A @ xi - b), cone.dist(xi)
    return ra, rc, ra <= bound and rc <= bound < math.inf


def _line_fiber(cone, xi_p, k, tol):
    """The fiber on the line xi_p + t k, k a unit vector of span cone, as
    `MultiplierSolveResult.fiber` (xi_p in `lam_p`): t in the intersection
    of one closed-form interval per block (`line_interval`).  Its t is the
    midpoint, one unit plus the size of a single end away from it, or 0
    on the whole line, a point in the cone's relative interior whenever
    the line meets it (Rockafellar, Convex Analysis, Thm 6.5); t2 is
    halfway from t to an end.  Ends that cross by rounding stand for one
    point; an end -alpha/beta past ||xi_p|| / tol.zero has a beta the
    rank rule cannot tell from 0, so its block is constant on the line.
    None without a closed form or a point."""
    interval, far = cone.line_interval(xi_p, k), _norm(xi_p) / tol.zero
    if interval is None or interval[0] > far or interval[1] < -far:
        return None
    lo, hi = (e if abs(e) <= far else math.copysign(math.inf, e)
              for e in interval)
    if lo > hi:
        if not lo - hi <= _ROUNDING * (_norm(xi_p) + abs(lo) + abs(hi)) \
                < math.inf:
            return None
        lo = hi = 0.5 * (lo + hi)
    has_lo, has_hi = math.isfinite(lo), math.isfinite(hi)
    t = 0.5 * (lo + hi) if has_lo and has_hi else lo + 1.0 + abs(lo) \
        if has_lo else hi - 1.0 - abs(hi) if has_hi else 0.0
    t2 = 0.5 * (t + (lo if has_lo else hi)) if has_lo or has_hi else 1.0
    return {"lam_p": xi_p, "k": k, "interval": (lo, hi), "t": t, "t2": t2}


def _fiber_solve(A, b, cone, B, svd, bound, tol):
    """A point of {xi in cone : A xi = b}, B an orthonormal basis of span
    cone and svd = `_span_svd(A, B, tol)`: (xi, `_fiber_residuals` of xi
    against bound(xi), route, fiber, farkas).  Every such xi is xi_p +
    (ker A ∩ span B), xi_p the least-squares point of span B.  A
    certificate in closed form (cycle 0, route "span solve") takes an h
    and projects A^T h onto the polar of the cone.  When rho = b - A xi_p
    exceeds bound(xi_p), h = rho: A^T rho ⊥ span B lies in that polar and
    <rho, b> = ||rho||^2 > 0.  Else the kernel's dimension picks the
    candidate: xi_p at 0 ("span solve"), the point of `_line_fiber` at 1
    ("fiber interval").  At 0, xi_p is the one point of span B that A
    maps to b, so when it fails, y = xi_p - Pi(xi_p) and
    h = pinv((A B)^T) B^T y give the certificate, kept when its bound
    exceeds bound(xi_p): a smaller one leaves room for a point near xi_p
    within bound.  Without one, Dykstra decides from xi_p, once more
    after a stall without a certificate ("Dykstra search")."""
    u, s, vt, r = svd
    c = u.T @ b
    xi_p = B @ (vt[:r].T @ (c[:r] / s[:r]))

    def certificate(h):
        t = A.T @ h
        return _farkas_test(A, b, h, [t - cone.project(t)], 0)

    if r < b.size and _norm(c[r:]) > bound(xi_p):
        # h = b - A xi_p, ⊥ range(A B) to rounding
        farkas = certificate(u[:, r:] @ c[r:])
        if farkas is not None:
            return xi_p, _fiber_residuals(A, b, cone, xi_p, bound(xi_p)), \
                "span solve", None, farkas
    fiber = _line_fiber(cone, xi_p, B @ vt[r], tol) \
        if r == vt.shape[0] - 1 else None
    if r == vt.shape[0] or fiber is not None:
        xi = xi_p if fiber is None else xi_p + fiber["t"] * fiber["k"]
        resid = _fiber_residuals(A, b, cone, xi, bound(xi))
        if resid[2]:
            return xi, resid, "fiber interval" if fiber else "span solve", \
                fiber, None
        if fiber is None:
            # y = xi_p - Pi(xi_p) is in the polar (Moreau) and h solves
            # (A B)^T h = B^T y, so A^T h is in y + (span B)^perp, inside
            # the polar too, and <h, A xi_p> = <y, xi_p> = ||y||^2
            y = xi_p - cone.project(xi_p)
            farkas = certificate(u[:, :r] @ ((vt @ (B.T @ y)) / s[:r]))
            if farkas is not None and farkas.bound > bound(xi_p):
                return xi_p, resid, "span solve", None, farkas
    sets = AffineSet(A, b), cone
    xi, info = dykstra(*sets, xi_p, tol)
    if info.stalled and info.farkas is None:
        # a plateau stalls too; a run with fresh increments ends it
        xi, info = dykstra(*sets, xi, tol)
    return xi, _fiber_residuals(A, b, cone, xi, bound(xi)), \
        "Dykstra search", None, info.farkas


class CriticalData:
    """A graph point (g(x), lam) of the normal-cone map of K read through
    the Jacobian J at x: the data of the critical cone C at (g(x), lam)
    that reads neither v nor a direction d, each built on first use and
    shared by every call that reads it.

    - `span_critical_polar`: an orthonormal basis B of span C°, read
      from the codes of C° (no SVD);
    - `adjoint_on_span`: `_span_svd` of J^T on B, the one rank decision
      for J^T on span C°;
    - `adjoint_kernel`: B vt[r:]^T, an orthonormal basis of
      ker J^T ∩ span C°, from `adjoint_on_span`;
    - `critical_span_basis`: an orthonormal basis of {d : J d in span C}.
      span C = (lin C°)^perp, so it spans the kernel of Lp^T J for a
      basis Lp of lin C°;
    - `lineality_directions`: plus and minus each column of an
      orthonormal basis of W = {d : J d in lin C}, the kernel of J
      first.  Every direction of W passes the critical-cone gate,
      however thin C is; a coordinate that enters neither g nor F lies
      in the kernel of J.

    Every array is read-only, so a certificate that hands one out cannot
    change the next.
    """

    def __init__(self, graph_point, J, tol):
        self.graph_point, self.J, self.tol = graph_point, J, tol

    @cached_property
    def span_critical_polar(self):
        return _frozen(self.graph_point.critical_polar.span_basis())

    @cached_property
    def adjoint_on_span(self):
        u, s, vt, r = _span_svd(self.J.T, self.span_critical_polar, self.tol)
        return _frozen(u), _frozen(s), _frozen(vt), r

    @cached_property
    def adjoint_kernel(self):
        _, _, vt, r = self.adjoint_on_span
        return _frozen(self.span_critical_polar @ vt[r:].T)

    @cached_property
    def critical_span_basis(self):
        Lp = self.graph_point.critical_polar.lineality_basis()
        return _frozen(_null_basis(Lp.T @ self.J, self.tol))

    @cached_property
    def lineality_directions(self):
        J, tol = self.J, self.tol
        ker = _null_basis(J, tol)
        Q = self.graph_point.critical.lineality_basis()
        # J d in span Q, d orthogonal to the kernel already listed
        rest = _null_basis(np.vstack([J - Q @ (Q.T @ J), ker.T]), tol)
        W = np.hstack([ker, rest]).T
        return _frozen(np.stack([W, -W], axis=1).reshape(-1, J.shape[1]))


class BasePoint:
    """A verified base point: x has shape (dim_x,), x and g(x) are finite
    and g(x) is in K.

    The constructor makes the one feasibility decision of the package.
    Every check at x reads g(x) (`gx`) and the Jacobian `J` from the
    point, read-only copies like `x`, and each of these, built on first
    use: the graph point (g(x), 0) of the normal-cone map
    (`graph_point`), whose critical cone is T_K(g(x)) (`tangent`) and
    whose polar is N_K(g(x)) (`normal`), and its `CriticalData`
    (`critical_data`).  There span C° is span N_K(g(x)), with the one
    rank decision for J^T on it (`critical_data.adjoint_on_span`) and the
    kernel it leaves (`critical_data.adjoint_kernel`).  A `BasePair` with
    lam = 0 reads `critical_data`, so T, N, the blocks' data and the
    J-level bases are built once per point.
    """

    def __init__(self, sys: ConstraintSystem, x, tol: Tol = DEFAULT_TOL):
        x = _shaped("x", x, sys.dim_x, "the system has dim_x")
        gx = sys.g(x) if np.all(np.isfinite(x)) else None
        if gx is None or not np.all(np.isfinite(gx)):
            raise ValueError("base point not finite: x or g(x) has a NaN or "
                             "infinite entry")
        if not sys.cone.contains(gx, tol):
            raise ValueError("base point infeasible: "
                             f"dist(g(x), K) = {sys.cone.dist(gx):.3e}")
        self.sys, self.tol = sys, tol
        self.x, self.gx = _frozen(np.array(x)), _frozen(np.array(gx))
        self.J = _frozen(np.array(sys.jacobian(x)))

    @cached_property
    def graph_point(self):
        """The graph point (g(x), 0): its critical cone is T_K(g(x))."""
        return GraphPoint.of_pair(self.sys.cone, self.gx,
                                  _frozen(np.zeros(self.gx.size)), self.tol)

    @cached_property
    def critical_data(self):
        return CriticalData(self.graph_point, self.J, self.tol)

    @cached_property
    def tangent(self):
        return self.graph_point.critical

    @cached_property
    def normal(self):
        return self.graph_point.critical_polar


def _null_basis(M, tol):
    """Orthonormal basis of {z : M z = 0}, by the rank rule of `_span_svd`."""
    if not M.size:  # the whole space, without numpy's SVD of nothing
        return np.eye(M.shape[1])
    _, _, vt, r = _span_svd(M, tol=tol)
    return vt[r:].T


def _finite_scale(**named):
    """1 + the sum of the norms of the named vectors; ValueError when an
    entry is not finite or the sum overflows, as a bound would pass all."""
    scale = sum(map(_norm, named.values()), 1.0)
    if not math.isfinite(scale):
        bad = [n for n, z in named.items() if not np.isfinite(z).all()]
        raise ValueError(f"{' and '.join(bad)} not finite: NaN or infinite "
                         "entries" if bad else
                         f"the norm of {' or '.join(named)} overflows")
    return scale


def multiplier_verify(point: BasePoint, v, lam) -> bool:
    """Whether lam is a multiplier for (x, v): grad g(x) lam = v with lam
    in N_K(g(x)), both residuals at most tol.membership (1 + ||v|| +
    ||lam||).  Raises ValueError on a wrong shape, a non-finite entry or
    norms that overflow."""
    v = _shaped("v", v, point.sys.dim_x, "the system has dim_x")
    lam = _shaped("lam", lam, point.sys.cone.dim, "the cone has dimension")
    bound = point.tol.membership * _finite_scale(v=v, lam=lam)
    return _fiber_residuals(point.J.T, v, point.normal, lam, bound)[2]


class BasePair:
    """A verified base pair: lam a multiplier for (x, v) at the verified
    base point `point`, that is grad g(x) lam = v with lam in N_K(g(x)).

    The constructor is the one place that verifies a base pair; the
    multiplier test is its only decision, and the cone-level graph point
    wraps the verified pair without a second one.  `of_verified` wraps a
    multiplier that its caller has just passed through the same test
    (`multiplier_solve`'s), without running it again.  Every second-order
    check at the pair reads g(x) (`gx`) and the Jacobian `J` of its
    point, read-only copies of v and lam, the Hessian of <lam, g> at x,
    built on first use, and the `CriticalData` of the graph point
    (g(x), lam) (`critical_data`), with the critical cone of K there and
    its polar.  At lam = 0 the pair reads its point's `critical_data`,
    so the critical cone is `point.tangent`, its polar `point.normal` and
    every J-level basis the point's; otherwise it builds its own.
    """

    def __init__(self, point: BasePoint, v, lam):
        self._wrap(point, v, lam)
        if not multiplier_verify(point, self.v, self.lam):
            raise ValueError("lam is not a verified multiplier for (x, v)")

    def _wrap(self, point, v, lam):
        self.point = point
        self.sys, self.x, self.gx, self.J, self.tol = (
            point.sys, point.x, point.gx, point.J, point.tol)
        self.v = _frozen(np.array(v, float))
        self.lam = _frozen(np.array(lam, float))

    @classmethod
    def of_verified(cls, point: BasePoint, v, lam):
        """The pair of a multiplier that `multiplier_solve` has just
        accepted for (x, v) at `point`."""
        pair = cls.__new__(cls)
        pair._wrap(point, v, lam)
        return pair

    @cached_property
    def critical_data(self):
        if not self.lam.any():
            return self.point.critical_data
        return CriticalData(GraphPoint.of_pair(
            self.sys.cone, self.gx, self.lam, self.tol), self.J, self.tol)

    @property
    def graph_point(self):
        return self.critical_data.graph_point

    @property
    def critical(self):
        return self.graph_point.critical

    @property
    def critical_polar(self):
        return self.graph_point.critical_polar

    @cached_property
    def hess(self):
        return self.sys.hess_lambda(self.x, self.lam)


@dataclass
class MultiplierSolveResult:
    """Outcome of the multiplier search for v = grad g(x) lambda with
    lambda in N_K(g(x)).  `route` names the route that gave `lam`:
    "span-N solve", "fiber interval" or "Dykstra search".  Unless `lam`
    is found (verified), `farkas` is the certificate that none exists, or
    None when the Dykstra search stalled and decided nothing.  On the
    fiber interval route, `fiber` holds the line lam_p + t k (`lam_p`,
    `k`), the interval of t whose points are multipliers (`interval`, an
    end infinite on a ray), the `t` of `lam` and the `t2` of the point
    tried as a second member.  With uniqueness, a found multiplier has
    its verified base pair (`pair`) and strict Robinson certificate
    (`srcq`, which decides uniqueness); `members` is `lam` and, when srcq
    fails, a second verified multiplier if one was found.
    """

    lam: np.ndarray
    residual_affine: float
    residual_cone: float
    found: bool
    route: str
    farkas: Farkas | None
    members: list = field(default_factory=list)
    srcq: Certificate | None = None
    pair: BasePair | None = None
    fiber: dict | None = None

    @property
    def residual(self):
        return max(self.residual_affine, self.residual_cone)


def multiplier_solve(point: BasePoint, v,
                     with_uniqueness=True) -> MultiplierSolveResult:
    """Find lambda in N = N_K(g(x)) with grad g(x) lambda = v: the fiber
    solve on span N and the SVD of J^T on it (`point.critical_data`),
    its "span solve" named "span-N solve".  With `with_uniqueness`, a
    found multiplier gets its srcq certificate and, when srcq fails, a
    second member: on the fiber interval route the point halfway from
    lam to an end of the interval, else the first verified lam ± t w/||w||
    (w its witness, t = 1, 1/2, ..., 1/128).  Raises ValueError when v
    has the wrong shape or a non-finite entry, or its norm overflows.
    """
    v = _shaped("v", v, point.sys.dim_x, "the system has dim_x")
    scale, tol, data = _finite_scale(v=v), point.tol, point.critical_data
    lam, resid, route, fiber, farkas = _fiber_solve(
        point.J.T, v, point.normal, data.span_critical_polar,
        data.adjoint_on_span,
        lambda lam: tol.membership * (scale + _norm(lam)), tol)
    route = "span-N solve" if route == "span solve" else route
    res = MultiplierSolveResult(lam, *resid, route, farkas, fiber=fiber)
    if not res.found:
        return res
    res.members.append(lam)
    if with_uniqueness:
        res.pair = BasePair.of_verified(point, v, lam)
        res.srcq = srcq_check(res.pair)
        if res.srcq.verdict == "fails":
            if fiber is not None:
                steps = [fiber["lam_p"] + fiber["t2"] * fiber["k"]] \
                    if fiber["t2"] != fiber["t"] else []
            else:
                w = res.srcq.witness / _norm(res.srcq.witness)
                steps = (lam + s * 0.5 ** i * w for i in range(8)
                         for s in (1.0, -1.0))
            res.members.extend(islice(filter(
                lambda lam2: multiplier_verify(point, v, lam2), steps), 1))
    return res


def srcq_check(pair: BasePair) -> Certificate:
    """Strict Robinson qualification at x w.r.t. the multiplier lam:
    Ker(adjoint) meets the tangent cone to N_K(g(x)) at lam (the polar of
    the critical cone) only at 0.  That cone lies in span N, so only
    ker J^T ∩ span N is read, with its rank decision in the details.
    Holds is simultaneously: the qualification, isolated calmness of the
    multiplier map at v for lam, and local single-valuedness of the
    multiplier selection; all three readings are reported."""
    point, data = pair.point, pair.point.critical_data
    _, s, vt, r = data.adjoint_on_span
    # the kernel basis is orthonormal: no second factorization
    cert = _span_cone_trivial(data.adjoint_kernel, pair.critical_polar,
                              pair.tol)
    cert.details.update(
        adjoint_rank=r, span_normal_dim=vt.shape[0],
        sigma_min_kept=float(s[r - 1]) if r else None,
        rank_cut=pair.tol.zero * _norm(point.J))
    cert.checked = cert.checked + (
        "adjoint-kernel/tangent-of-normal trivial intersection",
        "multiplier-map isolated calmness at v for lam (equivalent)",
        "strict Robinson qualification at x w.r.t. lam (equivalent)",
    )
    return cert


def nondegeneracy_check(point: BasePoint) -> Certificate:
    """Surjectivity of g'(x) onto Y modulo the lineality space Lin of
    T_K(g(x)), that is J^T injective on span N = Lin^perp: [J  Lin] has
    rank dim Y - dim span N + r, r the rank of the point's
    `critical_data.adjoint_on_span`.  The `fails` witness is the unit
    vector B vt[r] of span N, the first column of `adjoint_kernel`."""
    data = point.critical_data
    _, _, vt, r = data.adjoint_on_span
    m, k = point.sys.cone.dim, vt.shape[0]
    return Certificate(
        "holds" if r == k else "fails", float(k - r),
        None if r == k else data.adjoint_kernel[:, 0],
        "rank of [Jacobian | tangent-lineality] against dim Y",
        point.tol, details={"rank": m - k + r, "dim_y": m})


def strict_complementarity_check(res: MultiplierSolveResult) -> Certificate:
    """Existence of a relative-interior multiplier for the (x, v) of the
    multiplier search `res` (run with uniqueness), in three steps.

    1. The found multiplier lam is in ri N_K(g(x)), that is the critical
       cone at (g(x), lam) is a subspace: holds, witness lam.
    2. Else, if srcq holds, lam is unique: fails, witness lam, with the
       srcq certificate in the details.
    3. Else by the alternative (Rockafellar, Convex Analysis, Thm 11.2):
       the multipliers miss ri N_K(g(x)) exactly when some u has
       <u, v> = 0 and Ju in T = T_K(g(x)) outside lin T, that is when
       span(P J U_v) ∩ T ∩ (lin T)^perp != {0} for P the projector onto
       (lin T)^perp and U_v a basis of v^perp; T ∩ (lin T)^perp is
       `T.pointed()`, read from T's codes.  One SVD of L = P J U_v gives
       an orthonormal basis of span L (`_span_svd`) and maps a point of
       it back to u; one triviality decision gives the verdict and
       details (the two distances of a line, or the slice (h, R)
       pairs); a fails has witness Ju, and u in the details.
    """
    if not res.found:
        raise ValueError("undecided: the multiplier search stalled without "
                         "a certificate" if res.farkas is None else "v is not "
                         "in the normal cone to the feasible set at x")
    if res.pair is None:
        raise ValueError("strict complementarity needs a multiplier search "
                         "run with uniqueness")
    pair, tol = res.pair, res.pair.tol
    if pair.graph_point.critical_is_subspace:
        cert = Certificate("holds", 0.0, pair.lam, "relative-interior test "
                           f"of the multiplier of the {res.route}", tol)
    elif res.srcq.verdict == "holds":
        cert = Certificate("fails", 0.0, pair.lam, "unique multiplier (srcq "
                           "holds) outside ri N_K(g(x))", tol,
                           details={"srcq": res.srcq})
    else:
        B = pair.point.critical_data.span_critical_polar
        Uv = _null_basis(pair.v.reshape(1, -1), tol)
        q, s, vt, r = _span_svd(B @ (B.T @ (pair.J @ Uv)), tol=tol)
        cert = _span_cone_trivial(q[:, :r], pair.point.tangent.pointed(),
                                  tol)
        cert.method = "alternative: span(P J U_v) ∩ T ∩ (lin T)^perp = " \
            "{0}, by " + cert.method
        if cert.verdict == "fails":
            u = Uv @ (vt[:r].T @ ((q[:, :r].T @ cert.witness) / s[:r]))
            cert.witness, cert.details["u"] = pair.J @ u, u
    cert.assumptions = (SUBREG_ASSUMPTION,)
    return cert


def ngamma_graph_deriv_contains(pair: BasePair, d, w) -> Certificate:
    """Membership of (d, w) in the graphical derivative of the normal-cone
    map of the feasible set at the base pair (x, v), for its verified
    multiplier lam.

    That set is Hess d + J^T DN_K(g(x)|lam)(gd), gd = g'(x)d, where the
    cone-level derivative is u/2 + N_C(gd) with u = grad Upsilon(gd) and
    C the critical cone, so N_C(gd) = C° ∩ gd⊥.  Its fiber over w is the
    translate by u/2 of {xi in C° ∩ gd⊥ : J^T xi = r}, r = w - Hess d -
    J^T u/2: the fiber solve (detail `fiber_route`) of A xi = b in C°,
    A = J^T and b = r, with the row gd^T/||gd|| and the entry 0 appended
    when gd is not 0 (so <d, r> != 0 puts b off range(A)).  It holds to
    tol.membership (1 + ||xi||) (1 + ||d|| + ||w||) (detail
    `fiber_residual`); then (gd, xi + u/2) is checked against the
    cone-level derivative (`dnk_contains`, detail `inner_verdict`), and
    the verdict holds when both hold.  It fails only at the critical-cone
    gate or with the fiber's Farkas certificate (detail `fiber_farkas`, h
    in the rows of A), whose bound is then the residual; else it is
    inconclusive.  Raises ValueError when d or w has the wrong shape or a
    non-finite entry, or their norms overflow.
    """
    sys, tol = pair.sys, pair.tol
    d = _shaped("d", d, sys.dim_x, "the system has dim_x")
    w = _shaped("w", w, sys.dim_x, "the system has dim_x")
    scale = _finite_scale(d=d, w=w)
    gd = pair.J @ d

    def verdict(name, residual, witness, method):
        return Certificate(name, residual, witness, method, tol,
                           assumptions=(SUBREG_ASSUMPTION,), details=details)

    gate = pair.critical.dist(gd)
    details = {"critical_gate": gate}
    if gate > tol.membership * scale:
        return verdict("fails", gate, np.concatenate([d, w]),
                       "critical-cone gate on g'(x)d")

    # xi in C° (∩ gd⊥ when gd is not 0) with J^T xi = w - Hd - J^T u / 2
    u = sys.cone.upsilon_grad(pair.graph_point, gd)
    A, b = pair.J.T, w - pair.hess @ d - 0.5 * (pair.J.T @ u)
    ngd, B = _norm(gd), pair.critical_data.span_critical_polar
    if ngd > tol.zero * (1 + _norm(pair.gx)):
        A, b = np.vstack([A, gd / ngd]), np.append(b, 0.0)
        svd = _span_svd(A, B, tol)
    else:  # A is J^T: the pair's own rank decision on span C°
        svd = pair.critical_data.adjoint_on_span
    xi, (ra, rc, holds), route, _, farkas = _fiber_solve(
        A, b, pair.critical_polar, B, svd,
        lambda xi: tol.membership * (1.0 + _norm(xi)) * scale, tol)
    res = max(ra, rc)
    details.update(fiber_route=route, fiber_residual=res,
                   fiber_holds=bool(holds))
    if farkas is not None:
        details["fiber_farkas"] = farkas._asdict()

    method = ("normal-of-critical fiber solve + cone-level graphical "
              "derivative check")
    if holds:
        inner = dnk_contains(sys.cone, pair.graph_point, gd, xi + 0.5 * u)
        details["inner_verdict"] = inner.verdict
        if inner.verdict == "holds":
            return verdict("holds", res, xi, method)
        return verdict("inconclusive", res, None,
                       method + " (cone-level check disagrees)")
    if farkas is not None:
        return verdict("fails", farkas.bound, np.concatenate([d, w]),
                       method + " (Farkas certificate of an empty fiber)")
    return verdict("inconclusive", res, None,
                   method + " (no Farkas certificate)")
