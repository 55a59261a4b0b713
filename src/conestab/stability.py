"""Solution-map stability: isolated calmness of S(p) = {x : 0 in
F(p,x) + N_Gamma(x)}, the KKT specialization, and the
stationarity-system residual with subregularity probes.

A "holds" verdict is only issued under one of three licenses: exact
branch enumeration when the data is polyhedral and affine, a
second-order form definite on the span of the critical directions,
carried with its basis and eigenvalue range, or, when the critical cone
is a subspace, a nonsingular compression of that form, carried with its
basis and smallest singular value.  A "fails" carries a witness: a face
point, the null vector of that compression, or a direction of
W = {d : J d in lin C} solving the inclusion; all else is inconclusive.
"""

from dataclasses import dataclass, field
from functools import cached_property
import itertools
import math
import numpy as np

from ._sets import Tol, DEFAULT_TOL, Certificate, SignPattern, _ROUNDING
from .cone_core import ConeDesc, Orthant, Free, project
from .constraint_system import (
    ConstraintSystem, SUBREG_ASSUMPTION, BasePoint, BasePair, affine_system,
    multiplier_solve, multiplier_verify, srcq_check,
    ngamma_graph_deriv_contains, _null_basis,
)

WITNESS_CUT = 1e-6
BRANCH_CAP = 4096  # branches enumerated at most; past it, the form decides

__all__ = [
    "GEProblem", "PhiPoint", "SmoothFn", "SmoothMap",
    "phi_residual", "phi_subregularity_probe", "solution_map_isolated_calm",
    "kkt_isolated_calm", "example41_problem", "lp_kkt_data",
]


# ---------------------------------------------------------------------------
# residual map

def phi_residual(sys: ConstraintSystem, x, lam, v):
    """Both rows of the stationarity-system residual:
    (-v + grad g(x) lam, g(x) - Pi_K(g(x) + lam))."""
    x = np.asarray(x, float)
    lam = np.asarray(lam, float)
    v = np.asarray(v, float)
    r1 = -v + sys.adjoint_apply(x, lam)
    gx = sys.g(x)
    r2 = gx - project(sys.cone, gx + lam)
    return r1, r2


@dataclass
class PhiPoint:
    """A triple (x, lam, v) with its stationarity-system residual rows."""

    x: np.ndarray
    lam: np.ndarray
    v: np.ndarray
    residual: tuple = ()

    @classmethod
    def at(cls, sys: ConstraintSystem, x, lam, v):
        r1, r2 = phi_residual(sys, x, lam, v)
        return cls(np.asarray(x, float), np.asarray(lam, float),
                   np.asarray(v, float), (r1, r2))

    @property
    def residual_norm(self):
        return float(np.sqrt(sum(float(r @ r) for r in self.residual)))


def phi_subregularity_probe(sys: ConstraintSystem, center: PhiPoint,
                            sequence, dist_fn, tol: Tol = DEFAULT_TOL):
    """Ratios ||Phi(x,lam,v)|| / dist((x,lam,v), Phi^{-1}(0,0)) along a
    sequence approaching the center.  Decay to 0 is evidence AGAINST
    metric subregularity of the residual map at the center; the ratios
    are reported, never turned into a verdict.

    `dist_fn` maps (x, lam, v) to the distance to the zero set, such as
    the closed form ||(x, v)|| of the section32 builtin.
    """
    if center.residual_norm > tol.membership * (1 + np.linalg.norm(center.x)):
        raise ValueError("center is not a zero of the residual map")
    out = []
    for (x, lam, v) in sequence:
        pt = PhiPoint.at(sys, x, lam, v)
        den = dist_fn(np.asarray(x, float), np.asarray(lam, float),
                      np.asarray(v, float))
        out.append(0.0 if den <= tol.zero else pt.residual_norm / den)
    return out


# ---------------------------------------------------------------------------
# generalized equation

@dataclass
class GEProblem:
    """0 in F(p, x) + N_Gamma(x) around the reference pair (pbar, xbar).

    `Fprime((pbar, xbar), (dp, dx))` is the directional derivative of F,
    and the only way the certificates read F near the pair.  Each
    problem reads F once, for `vbar`, and `Fprime` n times, for `Fx`.  The
    constructor checks at `tol` that the pair solves the inclusion at the
    verified base point `point`: a `lam_hint` that `multiplier_verify`
    accepts settles it, and otherwise a multiplier search must find one;
    a certified miss and a stall raise distinct ValueErrors.  Every
    certificate on the problem reads `tol` and `point`; for another
    tolerance, `dataclasses.replace(problem, tol=t)` verifies the pair
    again at t.
    """

    sys: ConstraintSystem
    F: object
    Fprime: object
    pbar: np.ndarray
    xbar: np.ndarray
    name: str = "custom"
    lam_hint: np.ndarray | None = None
    tol: Tol = field(default_factory=Tol)

    def __post_init__(self):
        self.pbar = np.asarray(self.pbar, float)
        self.xbar = np.asarray(self.xbar, float)
        self.point = point = BasePoint(self.sys, self.xbar, self.tol)
        hint = self.lam_hint
        if hint is not None and np.shape(hint) == (self.sys.cone.dim,) and \
                multiplier_verify(point, self.vbar, hint):
            return
        res = multiplier_solve(point, self.vbar, with_uniqueness=False)
        if not res.found and res.farkas is not None:
            raise ValueError("reference pair does not solve the inclusion "
                             f"(certified residual >= {res.farkas.bound:.3e})")
        if not res.found:
            raise ValueError("reference pair undecided: the multiplier search "
                             f"stalled (residual {res.residual:.3e})")

    @cached_property
    def vbar(self):
        """-F(pbar, xbar), read once."""
        return -np.asarray(self.F(self.pbar, self.xbar), float)

    @cached_property
    def Fx(self):
        """F_x at the pair, its n `Fprime` columns at (0, e_j), read on
        first use."""
        base, zero_p = (self.pbar, self.xbar), np.zeros_like(self.pbar)
        return np.column_stack([
            np.asarray(self.Fprime(base, (zero_p, e)), float)
            for e in np.eye(self.sys.dim_x)])


def example41_problem() -> GEProblem:
    """Affine perturbation F(p, x) = -p - x over the 3-variable
    semidefinite system; the base point is degenerate yet the solution
    map is isolated calm there."""
    from .constraint_system import EXAMPLE1_XBAR, example1_system
    from .symmat import svec

    pbar = np.array([1.0, 1.0, -1.0])
    return GEProblem(
        example1_system(),
        F=lambda p, x: -np.asarray(p, float) - np.asarray(x, float),
        Fprime=lambda base, dirn: -np.asarray(dirn[0], float)
        - np.asarray(dirn[1], float),
        pbar=pbar, xbar=EXAMPLE1_XBAR, name="example41",
        lam_hint=np.concatenate([svec(np.zeros((2, 2))), [-1.0]]))


# ---------------------------------------------------------------------------
# polyhedral branch enumeration

def _scalar_branches(C):
    """Per-coordinate branch options of the graph tangent of the
    normal-cone map, read from the codes of the polyhedral critical cone
    C.  Each option is a pair (a_code, b_code) of SignPattern codes
    constraining ((g'(x)d)_i, mu_i): a sign code c offers (c, ZERO) and
    (ZERO, -c), -c being its polar; FREE gives (FREE, ZERO) and ZERO
    gives (ZERO, FREE)."""
    codes = np.concatenate([S.codes for S in C.sets])
    opts = []
    for c in codes:
        if c == SignPattern.FREE:
            opts.append([(SignPattern.FREE, SignPattern.ZERO)])
        elif c == SignPattern.ZERO:
            opts.append([(SignPattern.ZERO, SignPattern.FREE)])
        else:
            opts.append([(c, SignPattern.ZERO), (SignPattern.ZERO, -c)])
    return opts


def _branch_lp_max(J, M, branch):
    """Largest |d_j| over the branch face, by at most one LP.

    The face is the set of (d, mu) in the box [-1,1]^{n+m} with
    M d + J^T mu = 0 and the branch sign pattern on ((J d)_i, mu_i).  An
    LP point meets each equality row to 1e-7 (HiGHS's default primal
    feasibility tolerance), so a singular value s of the rows E on the k
    coordinates the bounds leave free (E padded to k rows) counts as
    nonzero when 1e-7 sqrt(rows) < WITNESS_CUT s.  If all k do, the face
    is {0}.  If the k - 1 largest do and the smallest is at rounding
    level, the face is a segment of the line t v, v the null vector: each
    bound and sign row is one condition on t, unless its coefficient
    along v lies between rounding level and WITNESS_CUT, where the LP's
    tolerance could decide it otherwise.  Neither face needs an LP.  When
    only the smallest is at rounding level but another is below the LP's
    margin, the LP could read the face wider than that segment, yet the
    segment lies in it: a segment that reaches past WITNESS_CUT is a
    witness, with no LP either.  The LP stacks 2n copies (d_k, mu_k) of
    the face's constraints, as sparse blocks, copy k = 2j or 2j + 1
    maximizing +d_j or -d_j; the objective is separable, so one HiGHS
    call replaces 2n.

    Returns (res, value, d): the `linprog` result (None if no LP ran),
    the largest value and a d that attains it.  When HiGHS does not
    report success, value and d are None, and `_polyhedral_route`
    answers `inconclusive` with the HiGHS status: a face left unsearched
    is no evidence.
    """
    m, n = J.shape
    nv, copies = n + m, 2 * n
    A_eq = [np.hstack([M, J.T])]
    A_ub = []
    bounds = [(-1.0, 1.0)] * n
    for i, (ca, cb) in enumerate(branch):
        row = np.concatenate([J[i], np.zeros(m)])
        if ca == SignPattern.ZERO:
            A_eq.append(row)
        elif ca != SignPattern.FREE:
            A_ub.append(-ca * row)
        if cb == SignPattern.ZERO:
            bounds.append((0.0, 0.0))
        elif cb == SignPattern.FREE:
            bounds.append((-1.0, 1.0))
        else:
            bounds.append((0.0, 1.0) if cb > 0 else (-1.0, 0.0))
    A_eq = np.vstack(A_eq)
    box = np.array(bounds)
    free = box[:, 0] < box[:, 1]
    E = A_eq[:, free]
    k, root = E.shape[1], np.sqrt(len(E))
    _, s, Vt = np.linalg.svd(np.vstack([E, np.zeros((k, k))]),
                             full_matrices=False)
    nonzero = 1e-7 * root < WITNESS_CUT * s
    if nonzero.all():
        return None, 0.0, np.zeros(n)
    flat = s <= _ROUNDING * s[0] * root
    if flat[-1] and (nonzero[:-1].all() or not flat[-2]):
        # the line t x: row i of `rows` asks span_i[0] <= t c_i <= span_i[1]
        x = np.zeros(nv)
        x[free] = Vt[-1]
        rows = np.vstack([np.eye(nv)[free]] + A_ub)
        span = np.vstack([box[free], np.tile([-np.inf, 0.0], (len(A_ub), 1))])
        c = rows @ x
        live = np.abs(c) > _ROUNDING * np.linalg.norm(rows, axis=1)
        if np.all(np.abs(c[live]) >= WITNESS_CUT):
            ends = span[live] / c[live, None]
            t_lo, t_hi = ends.min(axis=1).max(), ends.max(axis=1).min()
            d = (t_hi if t_hi >= -t_lo else t_lo) * x
            for b in box.T:  # a bound met to rounding is met, as at a vertex
                d = np.where(np.abs(d - b) <= _ROUNDING, b, d)
            val = float(np.abs(d[:n]).max())
            if nonzero[:-1].all() or val > WITNESS_CUT:
                return None, val, d[:n]

    from scipy import sparse
    from scipy.optimize import linprog

    def diag(A):  # `copies` copies of A down the diagonal
        return sparse.bsr_array((np.broadcast_to(A, (copies,) + A.shape),
                                 np.arange(copies), np.arange(copies + 1)),
                                shape=(copies * len(A), copies * A.shape[1]))

    A_ub = diag(np.array(A_ub)) if A_ub else None
    # copy k maximizes sign_k * d_{j_k}: (j, +) then (j, -) for each j
    sign = np.tile([1.0, -1.0], n)
    col = np.arange(copies) * nv + np.repeat(np.arange(n), 2)
    c = np.zeros(copies * nv)
    c[col] = -sign
    res = linprog(c, A_ub=A_ub,
                  b_ub=np.zeros(A_ub.shape[0]) if A_ub is not None else None,
                  A_eq=diag(A_eq), b_eq=np.zeros(copies * len(A_eq)),
                  bounds=np.tile(bounds, (copies, 1)), method="highs")
    if not res.success:
        return res, None, None
    vals = sign * res.x[col]
    k = int(np.argmax(vals))
    return res, float(vals[k]), res.x[k * nv:k * nv + n]


def _polyhedral_route(pair, M, options):
    """Exact enumeration of the branch faces `options` of M d + J^T mu = 0,
    one `_branch_lp_max` each, until a face holds a d above WITNESS_CUT."""
    J, tol = pair.J, pair.tol

    method = "exact branch enumeration over polyhedral graph-tangent faces"
    best = 0.0
    witness = None
    for index, branch in enumerate(itertools.product(*options)):
        res, val, d = _branch_lp_max(J, M, branch)
        if val is None:
            # an unsolved face is a face not searched: no verdict
            return Certificate(
                "inconclusive", best, None, method, tol,
                details={"branch": index, "lp_status": int(res.status),
                         "lp_message": str(res.message)})
        if val > best:
            best, witness = val, d
        if best > WITNESS_CUT:
            break
    if best > WITNESS_CUT:
        return Certificate("fails", best, witness / np.linalg.norm(witness),
                           method, tol)
    return Certificate("holds", best, None, method, tol)


# ---------------------------------------------------------------------------
# isolated calmness

FX_ASSUMPTION = "F is C¹ in x (Fprime linear in dx)"


def _second_order_form(problem, pair):
    """A = -F_x - Hess - J^T U J / 2, U h = grad Upsilon(h) the curvature
    term of the cone-level graphical derivative.  U is 0 unless a block
    of the graph point is `curved`, so on polyhedral blocks
    -A = F_x + Hess.  A is not symmetrized: its symmetric part decides
    definiteness, A itself the subspace case."""
    sys, J = pair.sys, pair.J
    A = -problem.Fx - pair.hess
    gp = pair.graph_point
    if any(p.curved for p in gp.blocks):  # otherwise U = 0
        UJ = np.column_stack([sys.cone.upsilon_grad(gp, c) for c in J.T])
        A = A - 0.5 * (J.T @ UJ)
    return A


def _solves(problem, pair, d):
    """`ngamma_graph_deriv_contains` at (d, -F_x d): whether d solves the
    linearized inclusion."""
    return ngamma_graph_deriv_contains(pair, d, -(problem.Fx @ d))


def _critical_span_basis(pair):
    """Orthonormal basis B of {d : J d in span C}, C the critical cone:
    span C = (lin C°)^perp, so B spans the kernel of Lp^T J for a basis
    Lp of lin C°."""
    Lp = pair.critical_polar.lineality_basis()
    return _null_basis(Lp.T @ pair.J, pair.tol)


def _subspace_decision(problem, pair, A, B):
    """The inclusion when C is a subspace.  Then N_C(J d) = C^perp, and the
    orthogonal complement of span B = {d : J d in C} is J^T C^perp, so
    d = B c solves A d in J^T C^perp exactly when B^T A B c = 0.  The
    answer is `holds` when sigma_min(B^T A B) exceeds
    sqrt(tol.membership) (1 + sigma_max), and `fails` when sigma_min is
    below tol.membership (1 + sigma_max) and `_solves` accepts the
    witness B v_min.  Anything between is None: no decision."""
    tol = pair.tol
    _, sv, vt = np.linalg.svd(B.T @ A @ B)
    s_min, s_max = float(sv[-1]), float(sv[0])
    threshold = float(np.sqrt(tol.membership) * (1.0 + s_max))
    details = {"sigma_min": s_min, "sigma_max": s_max,
               "sigma_threshold": threshold}
    method = "inclusion on the critical subspace decided by B^T A B"
    if s_min > threshold:
        return Certificate("holds", s_min, None, method, tol,
                           details=details)
    if s_min > tol.membership * (1.0 + s_max):
        return None
    d = B @ vt[-1]
    cert = _solves(problem, pair, d)
    if cert.verdict != "holds":
        return None
    details["membership_residual"] = cert.residual
    return Certificate("fails", s_min, d, method, tol, details=details)


def _lineality_directions(pair):
    """Plus and minus each column of an orthonormal basis of
    W = {d : J d in lin C}, the kernel of J first.  Every direction of W
    passes the critical-cone gate, however thin C is; a coordinate that
    enters neither g nor F lies in the kernel of J."""
    J, tol = pair.J, pair.tol
    ker = _null_basis(J, tol)
    Q = pair.critical.lineality_basis()
    # J d in span Q, d orthogonal to the kernel already listed
    rest = _null_basis(np.vstack([J - Q @ (Q.T @ J), ker.T]), tol)
    W = np.hstack([ker, rest]).T
    return np.stack([W, -W], axis=1).reshape(-1, J.shape[1])


def _lineality_witness_search(problem, pair):
    """Search for a nonzero solution d of the linearized inclusion
    -F_x d in DN_Gamma(xbar|vbar)(d) over `_lineality_directions`.  A
    direction that `_solves` accepts is a `fails` witness.  Finding none
    proves nothing, so the answer is then `inconclusive`."""
    tol = pair.tol
    dirs = _lineality_directions(pair)
    details = {"lineality_directions": len(dirs)}
    for i, d in enumerate(dirs):
        cert = _solves(problem, pair, d)
        if cert.verdict == "holds":
            details["directions"] = i + 1
            return Certificate(
                "fails", cert.residual, d,
                "witness search exhibited a nonzero solution of the "
                "inclusion", tol, details=details)
    details["directions"] = len(dirs)
    return Certificate("inconclusive", 0.0, None,
                       "no witness found by the lineality search",
                       tol, details=details)


def solution_map_isolated_calm(problem: GEProblem, lam, *,
                               net_k=None) -> Certificate:
    """Isolated calmness of the solution map at pbar for xbar, for the
    verified multiplier lam, at the problem's base point and tolerance.

    The certified implication: any dx with
    -F'((pbar,xbar);(0,dx)) - Hess dx in the adjoint image of the
    cone-level graphical derivative at g'(xbar)dx must vanish.  Under the
    multiplier-uniqueness qualification, such a d has A d = J^T xi
    with A = -F_x - Hess - J^T U J / 2 and xi in N_C(J d).  When K is
    polyhedral and g affine, the branch faces of -A d + J^T mu = 0 are
    enumerated exactly if there are at most BRANCH_CAP of them (past it,
    details `branches` and `branch_cap` record the count and the cap).
    Otherwise, as xi is orthogonal to J d, <d, A d> = 0; the answer is
    `holds` when S = sym(A) is definite on span B, B an orthonormal
    basis of {d : J d in span C} (details `basis`, `lambda_min`,
    `lambda_max` and `threshold`, the eigenvalue range of B^T S B against
    sqrt(tol.membership) (1 + ||B^T S B||)).  When S is not definite
    there and C is a subspace, `_subspace_decision` decides by the
    singular values of B^T A B.  Otherwise, or when those are too close
    to call, `_lineality_witness_search` looks for a nonzero solution
    (`fails`); finding none is `inconclusive`.

    Every route reads A from `problem.Fx`, so its certificate lists
    SUBREG_ASSUMPTION and FX_ASSUMPTION.  Without the qualification the
    answer is `inconclusive` on SUBREG_ASSUMPTION alone, with no witness
    and the qualification's certificate at details `srcq`.

    `net_k` is accepted and ignored: the calm-net benchmark workload
    (bench/workloads.py) still passes it, and a later change to the
    benchmark removes it.
    """
    tol = problem.tol
    pair = BasePair(problem.point, problem.vbar, lam)
    srcq = srcq_check(pair)
    checked = (f"multiplier-uniqueness qualification: {srcq.verdict}",)
    if srcq.verdict != "holds":
        return Certificate("inconclusive", srcq.residual, None,
                           "preconditions unmet (multiplier-uniqueness "
                           "qualification did not certify)", tol,
                           assumptions=(SUBREG_ASSUMPTION,), checked=checked,
                           details={"srcq": srcq})
    cert = _calm_routes(problem, pair)
    cert.assumptions = (SUBREG_ASSUMPTION, FX_ASSUMPTION)
    cert.checked = checked
    return cert


def _calm_routes(problem, pair):
    """The first route of `solution_map_isolated_calm` that decides, with
    no assumptions or checks attached."""
    sys, tol = problem.sys, problem.tol
    A = _second_order_form(problem, pair)
    details = {}
    if sys.cone.is_polyhedral and sys.is_affine:
        options = _scalar_branches(pair.critical)
        branches = math.prod(len(o) for o in options)
        if branches <= BRANCH_CAP:
            return _polyhedral_route(pair, -A, options)
        details = {"branches": branches, "branch_cap": BRANCH_CAP}

    S = 0.5 * (A + A.T)
    B = _critical_span_basis(pair)
    eig = np.linalg.eigvalsh(B.T @ S @ B)
    # an empty B (only d = 0 has J d in span C) is definite either way
    lo, hi = eig.min(initial=np.inf), eig.max(initial=-np.inf)
    threshold = float(np.sqrt(tol.membership)
                      * (1.0 + np.abs(eig).max(initial=0.0)))
    details.update(basis=B, lambda_min=float(lo), lambda_max=float(hi),
                   threshold=threshold)
    if lo > threshold or hi < -threshold:
        return Certificate("holds", max(float(lo), -float(hi)), None,
                           "second-order form definite on the span of the "
                           "critical directions", tol, details=details)
    cert = None
    if pair.graph_point.critical_is_subspace:
        cert = _subspace_decision(problem, pair, A, B)
    if cert is None:
        cert = _lineality_witness_search(problem, pair)
    cert.details.update(details)
    return cert


# ---------------------------------------------------------------------------
# KKT specialization

@dataclass
class SmoothFn:
    """Twice differentiable scalar function: value, gradient, Hessian."""

    value: object
    grad: object
    hess: object


@dataclass
class SmoothMap:
    """Twice differentiable vector map: value, Jacobian, and the Hessian
    of <lam, G(.)>."""

    value: object
    jac: object
    hess: object  # hess(z, lam) -> (nz, nz) matrix


def kkt_isolated_calm(f: SmoothFn, G: SmoothMap, mult_cone: ConeDesc,
                      zbar, lbar, tol: Tol = DEFAULT_TOL) -> Certificate:
    """Isolated calmness of the canonically perturbed KKT solution map at
    the pair (zbar, lbar): primal variable z, multiplier lbar in the
    dual-side cone `mult_cone`, perturbations (a, b) entering the
    gradient and the constraint right-hand side."""
    zbar = np.asarray(zbar, float)
    lbar = np.asarray(lbar, float)
    nz, m = zbar.size, mult_cone.dim
    Jg = np.asarray(G.jac(zbar), float)
    stat = np.asarray(f.grad(zbar), float) + Jg.T @ lbar
    Gz = np.asarray(G.value(zbar), float)
    if np.linalg.norm(stat) > tol.membership * (1 + np.linalg.norm(lbar)):
        raise ValueError("stationarity fails: not a KKT pair")
    if not mult_cone.contains(lbar, tol) or \
            not mult_cone.tangent_set(lbar, tol).polar().contains(Gz, tol):
        raise ValueError("complementarity fails: not a KKT pair")

    cone_ge = ConeDesc([Free(nz)] + list(mult_cone.blocks))
    sys_ge = affine_system(cone_ge, np.eye(nz + m), np.zeros(nz + m),
                           name="kkt_wrapper")
    Hf = np.asarray(f.hess(zbar), float)
    HG = np.asarray(G.hess(zbar, lbar), float)

    def F(p, xv):
        a, b = p[:nz], p[nz:]
        z, l = xv[:nz], xv[nz:]
        return np.concatenate([
            np.asarray(f.grad(z), float) - a
            + np.asarray(G.jac(z), float).T @ l,
            -np.asarray(G.value(z), float) + b,
        ])

    Fx = np.block([[Hf + HG, Jg.T], [-Jg, np.zeros((m, m))]])

    def Fprime(base, dirn):
        dp, dx = np.asarray(dirn[0], float), np.asarray(dirn[1], float)
        dF_p = np.concatenate([-dp[:nz], dp[nz:]])
        return dF_p + Fx @ dx

    pbar, xbar = np.zeros(nz + m), np.concatenate([zbar, lbar])
    # identity g: the generalized-equation multiplier equals vbar itself
    vbar = -F(pbar, xbar)
    problem = GEProblem(sys_ge, F, Fprime, pbar=pbar, xbar=xbar,
                        name="kkt_wrapper", lam_hint=vbar, tol=tol)
    return solution_map_isolated_calm(problem, vbar)


def lp_kkt_data(kind="nondegenerate"):
    """Two linear programs in KKT form: a nondegenerate instance (unique
    strictly complementary pair) and a degenerate one with a duplicated
    constraint row carrying a zero multiplier."""
    if kind == "nondegenerate":
        c = np.array([1.0, 1.0])
        A = np.eye(2)
        lbar = np.array([-1.0, -1.0])
    elif kind == "degenerate":
        c = np.array([1.0, 1.0])
        A = np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 0.0]])
        lbar = np.array([-1.0, -1.0, 0.0])
    else:
        raise ValueError(f"unknown instance {kind!r}")
    m, nz = A.shape
    f = SmoothFn(lambda z: float(c @ z), lambda z: c,
                 lambda z: np.zeros((nz, nz)))
    G = SmoothMap(lambda z: A @ z, lambda z: A,
                  lambda z, lam: np.zeros((nz, nz)))
    return f, G, ConeDesc([Orthant(m, "minus")]), np.zeros(nz), lbar
