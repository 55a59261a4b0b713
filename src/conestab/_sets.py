"""Closed convex sets with projection, membership, and polarity.

Every derived cone used by the toolkit (tangent cones, normal cones,
critical cones, their polars, their pointed parts) is one of the classes
below or a primitive cone of `cone_core` (the whole space, {0}, a
second-order cone).  The derived cones are codes in an orthonormal
frame: `SignPattern` codes each coordinate, `UnitFrameSet` the
coordinate along one unit vector u and the part in u⊥ (a halfspace,
hyperplane, ray or line), and `PSDBlockSet` each block of a matrix in an
eigenbasis, all in `SignPattern`'s integer codes.  So a polar, a mirror,
the pointed part C ∩ (lin C)^⊥ or the span C - C maps the codes through
one table of `SignPattern`, and the dimension of the lineality space
counts them without building a basis.  All sets are closed and convex;
sets are cones unless `is_cone` says otherwise.  Every projection is closed form,
so Moreau's decomposition holds to rounding; only `dykstra` iterates,
over an affine set and a cone.
"""

from dataclasses import dataclass, field
from functools import cached_property
import math
from typing import NamedTuple

import numpy as np

from .symmat import svec, smat, svec_dim


@dataclass(frozen=True)
class Tol:
    """Tolerance bundle shared by every decision procedure.

    membership: absolute/relative threshold for set membership residuals.
    zero: threshold classifying a numeric value (eigenvalue, activity) as
        0; every rank counts the singular values s > zero ||A|| (`_span_svd`).
    max_iter: cap on feasibility (Dykstra) cycles, an integer.
    """

    membership: float = 1e-8
    zero: float = 1e-9
    max_iter: int = 10000

    def __post_init__(self):
        if not all(math.isfinite(t) and t > 0 for t in
                   (self.membership, self.zero, self.max_iter)):
            raise ValueError("tolerances must be finite and strictly "
                             "positive")
        if isinstance(self.max_iter, bool) or \
                not isinstance(self.max_iter, (int, np.integer)):
            raise ValueError("max_iter must be an integer")


DEFAULT_TOL = Tol()


def _norm(z):
    # what np.linalg.norm computes for real input, without its dispatch
    z = np.asarray(z, dtype=float).ravel()
    return math.sqrt(z @ z)


def _span_svd(A, B=None, tol=DEFAULT_TOL):
    """(u, s, vt, r): the full SVD of A B, B orthonormal columns (of A
    without B), and its rank r = #{s > tol.zero ||A||}, scaled by A as
    the largest s may itself be rounding.  u[:, :r] spans the range,
    u[:, r:] its complement and B vt[r:]^T the kernel in span B."""
    u, s, vt = np.linalg.svd(A if B is None else A @ B)
    return u, s, vt, int(np.count_nonzero(s > tol.zero * _norm(A)))


# a residual within this many units in the last place of its terms is
# rounding, not a defect
_ROUNDING = 256 * np.finfo(float).eps


def _ray_interval(alpha, beta):
    """{t : alpha + t beta >= 0 in every entry} as (lo, hi), empty when
    lo > hi; an entry with beta = 0 bounds nothing when alpha >= 0."""
    alpha, beta = np.atleast_1d(alpha), np.atleast_1d(beta)
    if np.any(alpha[beta == 0] < 0):
        return math.inf, -math.inf
    up, down = beta > 0, beta < 0
    return (float(np.max(-alpha[up] / beta[up], initial=-math.inf)),
            float(np.min(-alpha[down] / beta[down], initial=math.inf)))


def _soc_interval(a, k):
    """{t : a + t k in SOC} as (lo, hi), empty when lo > hi, for the
    cone {z : z_0 >= ||zbar||} of a's dimension (1 is the half-line).

    The cone is {z_0 >= 0, q >= 0}, q = z_0^2 - ||zbar||^2, and along
    the line z_0 is linear and q quadratic in t (Alizadeh & Goldfarb,
    Math. Program. 95, 2003), so the ends are among their roots and the
    vertex of q.  Each piece between those points is tested at an inner
    point, inside the cone by more than rounding; with none, a point
    that meets it to rounding is the one-point set (so a line tangent
    to the cone, whose chord the rounding of q can stretch to about
    sqrt(eps), gives one point)."""
    a0, k0, ab, kb = a[0], k[0], a[1:], k[1:]
    A, B, C = k0 * k0 - kb @ kb, 2.0 * (a0 * k0 - ab @ kb), a0 * a0 - ab @ ab
    pts = [-a0 / k0] if k0 else []
    if A:
        pts.append(-B / (2.0 * A))
        disc = B * B - 4.0 * A * C
        if disc > 0.0:  # the two roots without cancellation
            s = -0.5 * (B + math.copysign(math.sqrt(disc), B))
            pts += [s / A, C / s]
    elif B:
        pts.append(-C / B)

    def gap(t):
        z = a + t * k
        return _norm(z[1:]) - z[0]

    def slack(t):  # the rounding of gap(t)
        return _ROUNDING * (_norm(a) + abs(t) * _norm(k))

    if not pts:  # k = 0: the line stays at a
        return (-math.inf, math.inf) if gap(0.0) <= slack(0.0) else \
            (math.inf, -math.inf)
    pts.sort()
    ends = [-math.inf, *pts, math.inf]
    inner = [pts[0] - 1.0 - abs(pts[0]),
             *((p + q) / 2.0 for p, q in zip(pts, pts[1:])),
             pts[-1] + 1.0 + abs(pts[-1])]
    inside = [i for i, t in enumerate(inner) if gap(t) < -slack(t)]
    if inside:
        return ends[inside[0]], ends[inside[-1] + 1]
    t = min(pts, key=gap)
    return (t, t) if gap(t) <= slack(t) else (math.inf, -math.inf)


class ConvexSet:
    """Base class: closed convex set with distance-backed membership.
    Every coded and primitive set measures its distance in closed form;
    only `AffineSet` reads it from the projection."""

    dim: int
    is_cone = True

    def project(self, z: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def dist(self, z: np.ndarray) -> float:
        return _norm(np.asarray(z, float) - self.project(z))

    def contains(self, z: np.ndarray, tol: Tol = DEFAULT_TOL) -> bool:
        # a closed-form distance can read 0 at an infinite entry
        nz = _norm(z)
        return math.isfinite(nz) and self.dist(z) <= tol.membership * (1.0 + nz)

    def _recoded(self, table) -> "ConvexSet":
        """The cone with each of its codes c replaced by table[c + 1]."""
        raise NotImplementedError

    def polar(self) -> "ConvexSet":
        """The polar cone {w : <w, z> <= 0 for every z in the set}."""
        return self._recoded(SignPattern._POLAR)

    def negate(self) -> "ConvexSet":
        """The mirror {-z : z in the set}."""
        return self._recoded(SignPattern._NEG)

    def pointed(self) -> "ConvexSet":
        """The cone's part C ∩ (lin C)^⊥ orthogonal to its lineality
        space: the free codes set to zero."""
        return self._recoded(SignPattern._POINTED)

    def lineality_basis(self) -> np.ndarray:
        """Orthonormal columns spanning the largest subspace inside the
        set."""
        raise NotImplementedError

    def lineality_dim(self) -> int:
        """The dimension of that subspace."""
        return self.lineality_basis().shape[1]

    def span_basis(self) -> np.ndarray:
        """Orthonormal columns spanning C - C, read from the codes."""
        return self._recoded(SignPattern._SPAN).lineality_basis()

    def line_interval(self, a, k):
        """{t : a + t k in the set} as (lo, hi), empty when lo > hi, for a
        and k in the span of the cone (its equations hold on the whole
        line); None where no closed form is written."""
        return None


class SignPattern(ConvexSet):
    """Coordinatewise constraints: 0 free, +1 nonneg, -1 nonpos, 2 zero."""

    FREE, NONNEG, NONPOS, ZERO = 0, 1, -1, 2
    # the polar, negated, pointed and spanned code of each code c at c + 1
    _POLAR = np.array([NONNEG, ZERO, NONPOS, FREE])
    _NEG = np.array([NONNEG, FREE, NONPOS, ZERO])
    _POINTED = np.array([NONPOS, ZERO, NONNEG, ZERO])
    _SPAN = np.array([FREE, FREE, FREE, ZERO])

    def __init__(self, codes):
        self.codes = np.asarray(codes, dtype=int)
        self.dim = self.codes.size
        self._nonneg = self.codes == self.NONNEG
        self._nonpos = self.codes == self.NONPOS
        self._zero = self.codes == self.ZERO
        # +1 (-1) where a positive (negative) entry is allowed, 0 elsewhere
        self._sign = self._nonneg.astype(float) - self._nonpos

    def project(self, z):
        out = np.asarray(z, float).copy()
        out[self._nonneg] = np.maximum(out[self._nonneg], 0.0)
        out[self._nonpos] = np.minimum(out[self._nonpos], 0.0)
        out[self._zero] = 0.0
        return out

    def dist(self, z):
        # the norm of the violated entries
        z = np.asarray(z, float)
        return _norm(np.where(self._zero, z, np.minimum(self._sign * z, 0.0)))

    def _recoded(self, table):
        return SignPattern(table[self.codes + 1])

    def lineality_basis(self):
        return np.eye(self.dim)[:, self.codes == self.FREE]

    def lineality_dim(self):
        return int(np.count_nonzero(self.codes == self.FREE))

    def line_interval(self, a, k):
        return _ray_interval(self._sign * a, self._sign * k)


_FREE, _NONNEG, _NONPOS, _ZERO = (SignPattern.FREE, SignPattern.NONNEG,
                                  SignPattern.NONPOS, SignPattern.ZERO)


class UnitFrameSet(ConvexSet):
    """The cone of z whose coordinate t = <u, z> along the unit vector u
    has the `SignPattern` code `along`, and whose part z - t u in u⊥ has
    the code `across` (FREE or ZERO): a sign pattern in the frame
    [u | basis of u⊥].  The polar, the mirror and the pointed part map
    each code and keep u, so they are exact."""

    def __init__(self, u, along, across):
        self.u, self.dim = u, u.size
        # Python ints: the code tables hold numpy ints
        self.along, self.across = int(along), int(across)
        # the interval of t that `along` allows
        self._lo = 0.0 if self.along in (_NONNEG, _ZERO) else -math.inf
        self._hi = 0.0 if self.along in (_NONPOS, _ZERO) else math.inf

    def project(self, z):
        z = np.asarray(z, float)
        t = float(self.u @ z)
        tc = min(max(t, self._lo), self._hi)
        if self.across == _ZERO:
            return tc * self.u
        return z - (t - tc) * self.u

    def dist(self, z):
        z = np.asarray(z, float)
        t = float(self.u @ z)
        gap = t - min(max(t, self._lo), self._hi)
        if self.across == _ZERO:
            # the norm of z - t u itself: sqrt(||z||^2 - t^2) would lose
            # about 1.5e-8 ||z|| to cancellation
            return math.hypot(gap, _norm(z - t * self.u))
        return abs(gap)

    def _recoded(self, table):
        return UnitFrameSet(self.u, table[self.along + 1],
                            table[self.across + 1])

    def lineality_basis(self):
        # u⊥ from the SVD of the row u
        B = _span_svd(self.u.reshape(1, -1))[2][1:].T \
            if self.across == _FREE else np.zeros((self.dim, 0))
        return np.hstack([self.u.reshape(-1, 1), B]) if self.along == _FREE \
            else B

    def lineality_dim(self):
        return (self.along == _FREE) + \
            (self.dim - 1) * (self.across == _FREE)

    def line_interval(self, a, k):
        sign = {_NONNEG: 1.0, _NONPOS: -1.0}.get(self.along, 0.0)
        return _ray_interval(sign * float(self.u @ a), sign * float(self.u @ k))


def _unit(a):
    return np.asarray(a, float) / _norm(a)


# the four cones of one vector a, each in the frame [a/||a|| | a⊥]
def Halfspace(a):  # {z : <a, z> <= 0}
    return UnitFrameSet(_unit(a), _NONPOS, _FREE)


def Hyperplane(a):  # {z : <a, z> = 0}
    return UnitFrameSet(_unit(a), _ZERO, _FREE)


def Ray(a):  # {t a : t >= 0}
    return UnitFrameSet(_unit(a), _NONNEG, _ZERO)


def LineSpan(a):  # span{a}
    return UnitFrameSet(_unit(a), _FREE, _ZERO)


class AffineSet(ConvexSet):
    """{z : M z = b}; projection through a precomputed pseudo-inverse."""

    is_cone = False

    def __init__(self, M, b):
        self.M = np.asarray(M, float)
        self.b = np.asarray(b, float)
        self.dim = self.M.shape[1]
        self.pinv = np.linalg.pinv(self.M)

    def project(self, z):
        z = np.asarray(z, float)
        return z - self.pinv @ (self.M @ z - self.b)


class ProductSet(ConvexSet):
    def __init__(self, sets):
        self.sets = list(sets)
        self.dim = sum(s.dim for s in self.sets)
        self.slices = []
        off = 0
        for s in self.sets:
            self.slices.append(slice(off, off + s.dim))
            off += s.dim
        self.is_cone = all(s.is_cone for s in self.sets)

    def split(self, z):
        z = np.asarray(z, float)
        if z.size != self.dim:
            raise ValueError(f"dimension mismatch: {z.size} != {self.dim}")
        return [z[sl] for sl in self.slices]

    def project(self, z):
        return np.concatenate([s.project(p)
                               for s, p in zip(self.sets, self.split(z))])

    def dist(self, z):
        return math.hypot(*(s.dist(p)
                            for s, p in zip(self.sets, self.split(z))))

    def _recoded(self, table):
        # blockwise, into the same class: a ConeDesc stays one
        return type(self)([s._recoded(table) for s in self.sets])

    def lineality_basis(self):
        cols = []
        for s, sl in zip(self.sets, self.slices):
            B = s.lineality_basis()
            for j in range(B.shape[1]):
                v = np.zeros(self.dim)
                v[sl] = B[:, j]
                cols.append(v)
        return np.array(cols).T if cols else np.zeros((self.dim, 0))

    def lineality_dim(self):
        return sum(s.lineality_dim() for s in self.sets)

    def line_interval(self, a, k):
        lo, hi = -math.inf, math.inf
        for s, sl in zip(self.sets, self.slices):
            piece = s.line_interval(a[sl], k[sl])
            if piece is None:
                return None
            lo, hi = max(lo, piece[0]), min(hi, piece[1])
        return lo, hi


def _eig_clip(B):
    """Projection of the symmetric part of B onto the PSD matrices; the
    NSD projection is its mirror, -_eig_clip(-B).  A block of order 1 is
    read in closed form, max(b, 0): LAPACK's eigenpair of [[b]] is
    (b, 1), so this is its result bit for bit."""
    if B.shape[0] == 1:
        return np.maximum(B, 0.0)
    B = 0.5 * (B + B.T)
    w, U = np.linalg.eigh(B)
    return (U * np.maximum(w, 0.0)) @ U.T


def _psd_as_soc(M):
    """The vector of SOC(1) or SOC(3) that is in the cone exactly when the
    symmetric M of order 1 or 2 is positive semidefinite: M itself, or
    ((p + s)/sqrt 2, (p - s)/sqrt 2, sqrt 2 r) for M = [[p, r], [r, s]]."""
    if M.shape[0] == 1:
        return M.ravel()
    (p, r), (_, s) = M
    return np.array([p + s, p - s, 2.0 * r]) / math.sqrt(2.0)


class PSDBlockSet(ConvexSet):
    """Cone of symmetric matrices given blockwise in a fixed eigenbasis.

    `groups` partitions the matrix indices; `codes[(i, j)]` (i <= j group
    indices) constrains the (i, j) block of U^T H U with a `SignPattern`
    code: FREE, ZERO, or on diagonal blocks NONNEG (positive semidefinite)
    or NONPOS (negative semidefinite).  The rotation is an isometry for the
    trace inner product, so projection decouples blockwise.  `dist`
    also reads z in the frame, as the matrix U^T smat(z) U.
    """

    def __init__(self, U, groups, codes):
        self.U = np.asarray(U, float)
        self.n = self.U.shape[0]
        self.groups = [np.asarray(g, dtype=int) for g in groups]
        self.codes = dict(codes)
        self.dim = svec_dim(self.n)
        # block operations that write something: (block index, index of
        # the mirrored block or None, code); empty and ZERO blocks
        # leave their zeros in place.  (g[:, None], h) indexes the same
        # block as np.ix_(g, h), at a tenth of the cost.
        self._ops = []
        for (i, j), code in self.codes.items():
            if code not in (_FREE, _NONNEG, _NONPOS, _ZERO):
                raise ValueError(f"unknown block code {code!r}")
            if code in (_NONNEG, _NONPOS) and i != j:
                raise ValueError(f"code {code!r} on off-diagonal block {(i, j)}")
            gi, gj = self.groups[i], self.groups[j]
            if gi.size == 0 or gj.size == 0 or code == _ZERO:
                continue
            mirror = (gj[:, None], gi) if code == _FREE and i != j else None
            self._ops.append(((gi[:, None], gj), mirror, code))

    def project(self, zvec):
        W = self.U.T @ smat(zvec) @ self.U
        out = np.zeros_like(W)
        for block, mirror, code in self._ops:
            B = W[block]
            if code == _FREE:
                out[block] = B
                if mirror is not None:
                    out[mirror] = B.T
            else:
                out[block] = _eig_clip(B) if code == _NONNEG else -_eig_clip(-B)
        return svec(self.U @ out @ self.U.T)

    @cached_property
    def _dropped(self):
        """The entries of the frame that no block (nor its mirror) keeps."""
        mask = np.ones((self.n, self.n), bool)
        for block, _, _ in self._ops:
            mask[block] = mask[block[::-1]] = False
        return mask

    def dist(self, z):
        """The Frobenius mass the projection drops.  A semidefinite block
        of order 1 is read in closed form, min(b, 0)^2 for its entry b:
        LAPACK's eigenvalue of [[b]] is b, so the sum is the same bit for
        bit."""
        W = z if np.ndim(z) == 2 else self.U.T @ smat(z) @ self.U
        d2 = float(np.sum(W[self._dropped] ** 2))
        for block, _, code in self._ops:
            if code != _FREE:  # the eigenvalues its projection drops
                B = W[block] if code == _NONNEG else -W[block]
                if B.shape[0] == 1:
                    w = min(float(B[0, 0]), 0.0)
                    d2 += w * w
                else:
                    w = np.minimum(np.linalg.eigvalsh(B), 0.0)
                    d2 += float(w @ w)
        return math.sqrt(d2)

    def _recoded(self, table):
        codes = {k: int(table[v + 1]) for k, v in self.codes.items()}
        return PSDBlockSet(self.U, self.groups, codes)

    def lineality_basis(self):
        cols = []
        for (i, j), code in self.codes.items():
            if code != _FREE:
                continue
            gi, gj = self.groups[i], self.groups[j]
            for p in gi:
                for q in gj:
                    if i == j and q < p:
                        continue
                    E = np.zeros((self.n, self.n))
                    if p == q:
                        E[p, p] = 1.0
                    else:
                        E[p, q] = E[q, p] = 1.0 / np.sqrt(2.0)
                    cols.append(svec(self.U @ E @ self.U.T))
        return np.array(cols).T if cols else np.zeros((self.dim, 0))

    def line_interval(self, a, k):
        """Each semidefinite block of order 1 or 2 read as SOC(1) or
        SOC(3) (`_psd_as_soc`); None with a block of order 3 or more."""
        frames = [self.U.T @ smat(z) @ self.U for z in (a, k)]
        lo, hi = -math.inf, math.inf
        for (i, _), code in self.codes.items():
            g = self.groups[i]
            if code in (_FREE, _ZERO) or g.size == 0:
                continue
            if g.size > 2:
                return None
            piece = _soc_interval(*(code * _psd_as_soc(W[g[:, None], g])
                                    for W in frames))
            lo, hi = max(lo, piece[0]), min(hi, piece[1])
        return lo, hi

    def lineality_dim(self):
        k = [g.size for g in self.groups]
        return sum(k[i] * (k[i] + 1) // 2 if i == j else k[i] * k[j]
                   for (i, j), code in self.codes.items() if code == _FREE)


class Farkas(NamedTuple):
    """Certificate that {M z = b} ∩ K_1 ∩ ... ∩ K_k is empty: each y_i
    lies in the polar of the cone K_i, M^T h = sum y_i to rounding, and
    the gain <h, b> is positive.

    Any z in the intersection would give <h, b> = <h, M z> = sum <y_i, z>
    <= 0.  For every z, max(||M z - b||, dist(z, K_i)) is at least
    `bound` = gain / (||h|| + sum ||y_i||).  `cycle` is the Dykstra cycle
    whose increments gave the certificate, or 0 for one built in closed
    form.
    """

    h: np.ndarray
    y: list
    bound: float
    cycle: int


def _farkas_test(M, b, h, ys, cycle):
    """The certificate Farkas(h, ys, ., cycle) for {M z = b} when h has a
    positive gain <h, b> and M^T h = sum y_i holds to rounding; None
    otherwise.  Each test accepts only when its comparison holds, so a
    NaN fails it.  It does not check that y_i lies in the polar of
    K_i."""
    total = sum(ys[1:], ys[0])
    gain = float(h @ b)
    if not gain > 0.0:
        return None
    ynorm = sum(_norm(y) for y in ys)
    defect = _norm(M.T @ h - total)
    if not defect <= _ROUNDING * (_norm(M) * _norm(h) + ynorm):
        return None
    if not gain > _ROUNDING * float(np.abs(h) @ np.abs(b)):
        return None
    return Farkas(h, ys, gain / (_norm(h) + ynorm), cycle)


def _farkas(affine, cone, inc, cycle):
    """A Farkas certificate read from the cone's Dykstra increment, or
    None.

    The increment lies in the polar of the cone up to rounding, so a
    test that fails on it spares the projection.  Otherwise
    y = inc - cone.project(inc) is the exact projection of inc onto the
    polar (Moreau), and the test is made again on y; h = pinv(M)^T y
    solves M^T h = y whenever that system is solvable.
    """
    M, b, pinv = affine.M, affine.b, affine.pinv
    if _farkas_test(M, b, pinv.T @ inc, [inc], cycle) is None:
        return None
    y = inc - cone.project(inc)
    return _farkas_test(M, b, pinv.T @ y, [y], cycle)


def _gordan(affine, cone, z):
    """(h, R): every x in {M x = b} ∩ C, for the cone C, has norm at
    least R.  y = a - Pi_C(a), a = Pi_A(z), lies in C° (Moreau);
    h = pinv(M)^T y, u = M^T h.  Such an x has
    <h, b> = <u, x> <= dist(u, C°) ||x||, and dist(u, C°) = ||Pi_C(u)||
    (Moreau).  The rounding allowance of `_farkas_test` is taken off the
    gain and added to the distance; R is 0 unless the gain is positive.
    """
    a = affine.project(z)
    y = a - cone.project(a)
    h = affine.pinv.T @ y
    gain = float(h @ affine.b) - \
        _ROUNDING * float(np.abs(h) @ np.abs(affine.b))
    dist = _norm(cone.project(affine.M.T @ h)) + \
        _ROUNDING * (_norm(affine.M) * _norm(h) + _norm(y))
    return h, (gain / dist if gain > 0.0 and dist > 0.0 else 0.0)


@dataclass
class DykstraInfo:
    residual: float
    cycles: int
    converged: bool
    stalled: bool
    farkas: Farkas | None = None
    gordan: tuple | None = None  # (h, R) of `_gordan`


def dykstra(affine, cone, z0, tol: Tol = DEFAULT_TOL, radius=None):
    """Dykstra's alternating projections onto {M z = b} ∩ C, for an
    `AffineSet` and a cone C, both projected in closed form.

    Returns the final iterate plus convergence diagnostics after at most
    `tol.max_iter` cycles.  The cone's increment is tested for a Farkas
    certificate of emptiness after cycles 1, 2, 4, 8, ...; a certified
    call returns at once with `farkas` set and `stalled` true.
    Otherwise a run without residual progress is reported as stalled; a
    stall is not a proof that the intersection is empty, only the end of
    the search.

    With a `radius`, each checkpoint reads `_gordan` from the iterate
    instead and returns, stalled, once R > `radius`; every other exit
    reads it too, so `gordan` is always set.  Raises ValueError unless
    `affine` is an AffineSet and `cone` a cone.
    """
    if not (isinstance(affine, AffineSet) and cone.is_cone):
        raise ValueError("dykstra takes an AffineSet and a cone")
    sets = (affine, cone)
    read = radius is not None
    next_check = 1
    z = np.asarray(z0, float).copy()
    incs = [np.zeros_like(z) for _ in sets]
    last_checkpoint = np.inf
    stalls = 0
    cycle = 0
    for cycle in range(1, tol.max_iter + 1):
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
        # a call that stops moving ends within a few moves of every set,
        # so no certificate with a bound above that distance exists
        if cycle == next_check:
            next_check *= 2
            cert = None if read else _farkas(affine, cone, incs[1], cycle)
            gordan = _gordan(affine, cone, z) if read else None
            if cert is not None or (read and gordan[1] > radius):
                res = max(S.dist(z) for S in sets)
                return z, DykstraInfo(res, cycle, False, True, cert, gordan)
        if cycle % 25 == 0:
            res = max(S.dist(z) for S in sets)
            if res > 10 * tol.membership * scale and res > 0.97 * last_checkpoint:
                stalls += 1
                if stalls >= 3:
                    break
            else:
                stalls = 0
            last_checkpoint = res
    stalled = stalls >= 3
    res = max(S.dist(z) for S in sets)
    converged = not stalled and res <= tol.membership * (1.0 + _norm(z))
    gordan = _gordan(affine, cone, z) if read else None
    return z, DykstraInfo(res, cycle, converged, stalled, gordan=gordan)


@dataclass
class Certificate:
    """Outcome of a decision procedure."""

    verdict: str  # 'holds' | 'fails' | 'inconclusive'
    residual: float
    witness: np.ndarray | None
    method: str
    tol: Tol
    assumptions: tuple = ()
    checked: tuple = ()
    details: dict = field(default_factory=dict)

    def to_json(self):
        def conv(v):
            if isinstance(v, np.ndarray):
                return v.tolist()
            if isinstance(v, (np.floating, np.integer)):
                return float(v)
            if isinstance(v, dict):
                return {k: conv(x) for k, x in v.items()}
            if isinstance(v, Certificate):
                return v.to_json()
            if isinstance(v, (list, tuple)):
                return [conv(x) for x in v]
            return v

        return {
            "verdict": self.verdict,
            "residual": float(self.residual),
            "witness": None if self.witness is None else conv(self.witness),
            "method": self.method,
            "tol": {"membership": self.tol.membership, "zero": self.tol.zero,
                    "max_iter": self.tol.max_iter},
            "assumptions": list(self.assumptions),
            "checked": list(self.checked),
            "details": conv(self.details),
        }
