"""Closed convex sets with projection, membership, and polarity.

Every derived cone used by the toolkit (tangent cones, normal cones,
critical cones, their polars, intersections with subspaces or hyperplanes)
is represented by one of the classes below.  All sets are closed and
convex; sets are cones unless `is_cone` says otherwise.  Projections are
exact per class; intersections project through Dykstra's alternating
scheme.
"""

from dataclasses import dataclass, field
import math

import numpy as np

from .symmat import svec, smat, svec_dim


@dataclass(frozen=True)
class Tol:
    """Tolerance bundle shared by every decision procedure.

    membership: absolute/relative threshold for set membership residuals.
    zero: threshold classifying a numeric value (eigenvalue, activity) as 0.
    max_iter: cap on feasibility (Dykstra) cycles.
    """

    membership: float = 1e-8
    zero: float = 1e-9
    max_iter: int = 10000

    def __post_init__(self):
        if self.membership <= 0 or self.zero <= 0 or self.max_iter <= 0:
            raise ValueError("tolerances must be strictly positive")

    def halved(self) -> "Tol":
        return Tol(self.membership / 2, self.zero / 2, self.max_iter)


DEFAULT_TOL = Tol()


def _norm(z):
    # what np.linalg.norm computes for real input, without its dispatch
    z = np.asarray(z, dtype=float).ravel()
    return math.sqrt(z @ z)


class ConvexSet:
    """Base class: closed convex set with projection-backed membership."""

    dim: int
    is_cone = True

    def project(self, z: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def dist(self, z: np.ndarray) -> float:
        return _norm(np.asarray(z, float) - self.project(z))

    def contains(self, z: np.ndarray, tol: Tol = DEFAULT_TOL) -> bool:
        return self.dist(z) <= tol.membership * (1.0 + _norm(z))

    def polar(self) -> "ConvexSet":
        return PolarCone(self)

    def negate(self) -> "ConvexSet":
        return NegatedSet(self)

    def lineality_basis(self) -> np.ndarray:
        raise NotImplementedError(f"{type(self).__name__} has no lineality data")


class FullSpace(ConvexSet):
    def __init__(self, dim):
        self.dim = dim

    def project(self, z):
        return np.asarray(z, float).copy()

    def polar(self):
        return ZeroSet(self.dim)

    def negate(self):
        return self

    def lineality_basis(self):
        return np.eye(self.dim)


class ZeroSet(ConvexSet):
    def __init__(self, dim):
        self.dim = dim

    def project(self, z):
        return np.zeros(self.dim)

    def polar(self):
        return FullSpace(self.dim)

    def negate(self):
        return self

    def lineality_basis(self):
        return np.zeros((self.dim, 0))


class SignPattern(ConvexSet):
    """Coordinatewise constraints: 0 free, +1 nonneg, -1 nonpos, 2 zero."""

    FREE, NONNEG, NONPOS, ZERO = 0, 1, -1, 2

    def __init__(self, codes):
        self.codes = np.asarray(codes, dtype=int)
        self.dim = self.codes.size
        self._nonneg = self.codes == self.NONNEG
        self._nonpos = self.codes == self.NONPOS
        self._zero = self.codes == self.ZERO

    def project(self, z):
        out = np.asarray(z, float).copy()
        out[self._nonneg] = np.maximum(out[self._nonneg], 0.0)
        out[self._nonpos] = np.minimum(out[self._nonpos], 0.0)
        out[self._zero] = 0.0
        return out

    def polar(self):
        flip = {self.FREE: self.ZERO, self.ZERO: self.FREE,
                self.NONNEG: self.NONPOS, self.NONPOS: self.NONNEG}
        return SignPattern([flip[int(c)] for c in self.codes])

    def negate(self):
        return SignPattern(-np.where(self.codes == self.ZERO, -2, self.codes))

    def lineality_basis(self):
        eye = np.eye(self.dim)
        return eye[:, self.codes == self.FREE]

    def halfspace_rows(self):
        """Inequality rows A (A z <= 0) and equality rows E (E z = 0)."""
        eye = np.eye(self.dim)
        ineq = []
        eq = []
        for i, c in enumerate(self.codes):
            if c == self.NONNEG:
                ineq.append(-eye[i])
            elif c == self.NONPOS:
                ineq.append(eye[i])
            elif c == self.ZERO:
                eq.append(eye[i])
        ineq = np.array(ineq) if ineq else np.zeros((0, self.dim))
        eq = np.array(eq) if eq else np.zeros((0, self.dim))
        return ineq, eq


def _soc_project(u):
    u0, ub = u[0], u[1:]
    nb = _norm(ub)
    if nb <= u0:
        return u.copy()
    if nb <= -u0:
        return np.zeros_like(u)
    coef = (nb + u0) / 2.0
    out = np.empty_like(u)
    out[0] = coef
    out[1:] = coef * ub / nb
    return out


class SOCLike(ConvexSet):
    """Second-order cone {(z0, zbar): ||zbar|| <= z0} or its negative."""

    def __init__(self, dim, sign=1):
        if dim < 2:
            raise ValueError("use SignPattern for the 1-D case")
        self.dim = dim
        self.sign = 1 if sign >= 0 else -1

    def project(self, z):
        u = self.sign * np.asarray(z, float)
        return self.sign * _soc_project(u)

    def polar(self):
        return SOCLike(self.dim, -self.sign)

    def negate(self):
        return SOCLike(self.dim, -self.sign)

    def lineality_basis(self):
        return np.zeros((self.dim, 0))


class Halfspace(ConvexSet):
    """{z : <a, z> <= 0}."""

    def __init__(self, a):
        a = np.asarray(a, float)
        self.a = a / _norm(a)
        self.dim = a.size

    def project(self, z):
        z = np.asarray(z, float)
        t = float(self.a @ z)
        return z - max(t, 0.0) * self.a

    def polar(self):
        return Ray(self.a)

    def negate(self):
        return Halfspace(-self.a)

    def lineality_basis(self):
        return _complement_basis(self.a)


class Hyperplane(ConvexSet):
    """{z : <a, z> = 0}."""

    def __init__(self, a):
        a = np.asarray(a, float)
        self.a = a / _norm(a)
        self.dim = a.size

    def project(self, z):
        z = np.asarray(z, float)
        return z - float(self.a @ z) * self.a

    def polar(self):
        return LineSpan(self.a)

    def negate(self):
        return self

    def lineality_basis(self):
        return _complement_basis(self.a)


class Ray(ConvexSet):
    """{t v : t >= 0}."""

    def __init__(self, v):
        v = np.asarray(v, float)
        self.v = v / _norm(v)
        self.dim = v.size

    def project(self, z):
        t = max(float(self.v @ np.asarray(z, float)), 0.0)
        return t * self.v

    def polar(self):
        return Halfspace(self.v)

    def negate(self):
        return Ray(-self.v)

    def lineality_basis(self):
        return np.zeros((self.dim, 0))


class LineSpan(ConvexSet):
    """span{v}."""

    def __init__(self, v):
        v = np.asarray(v, float)
        self.v = v / _norm(v)
        self.dim = v.size

    def project(self, z):
        return float(self.v @ np.asarray(z, float)) * self.v

    def polar(self):
        return Hyperplane(self.v)

    def negate(self):
        return self

    def lineality_basis(self):
        return self.v.reshape(-1, 1)


class Subspace(ConvexSet):
    """Column span of a basis matrix."""

    def __init__(self, basis):
        basis = np.asarray(basis, float)
        if basis.ndim != 2:
            raise ValueError("basis must be a (dim, k) matrix")
        self.dim = basis.shape[0]
        if basis.size == 0:
            self.Q = np.zeros((self.dim, 0))
        else:
            # rank from the singular values, which stay reliable for wide
            # and rank-deficient bases
            u, s, _ = np.linalg.svd(basis, full_matrices=False)
            self.Q = u[:, s > 1e-12 * max(1.0, s[0])]

    def project(self, z):
        z = np.asarray(z, float)
        return self.Q @ (self.Q.T @ z)

    def negate(self):
        return self

    def lineality_basis(self):
        return self.Q


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


class PolarCone(ConvexSet):
    """Negative polar of a cone, projected through Moreau decomposition."""

    def __init__(self, base):
        if not base.is_cone:
            raise ValueError("polar requires a cone")
        self.base = base
        self.dim = base.dim

    def project(self, z):
        z = np.asarray(z, float)
        return z - self.base.project(z)

    def polar(self):
        return self.base


class NegatedSet(ConvexSet):
    def __init__(self, base):
        self.base = base
        self.dim = base.dim
        self.is_cone = base.is_cone

    def project(self, z):
        return -self.base.project(-np.asarray(z, float))

    def polar(self):
        return self.base.polar().negate()

    def negate(self):
        return self.base

    def lineality_basis(self):
        return self.base.lineality_basis()


class ShiftedSet(ConvexSet):
    """offset + base."""

    is_cone = False

    def __init__(self, base, offset):
        self.base = base
        self.offset = np.asarray(offset, float)
        self.dim = base.dim

    def project(self, z):
        return self.offset + self.base.project(np.asarray(z, float) - self.offset)


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

    def project(self, z):
        z = np.asarray(z, float)
        return np.concatenate([s.project(z[sl]) for s, sl in zip(self.sets, self.slices)])

    def polar(self):
        return ProductSet([s.polar() for s in self.sets])

    def negate(self):
        return ProductSet([s.negate() for s in self.sets])

    def lineality_basis(self):
        cols = []
        for s, sl in zip(self.sets, self.slices):
            B = s.lineality_basis()
            for j in range(B.shape[1]):
                v = np.zeros(self.dim)
                v[sl] = B[:, j]
                cols.append(v)
        return np.array(cols).T if cols else np.zeros((self.dim, 0))


_PSD_POLAR = {"free": "zero", "zero": "free", "psd": "nsd", "nsd": "psd"}
_PSD_NEG = {"free": "free", "zero": "zero", "psd": "nsd", "nsd": "psd"}


def _eig_clip(B, keep_positive):
    B = 0.5 * (B + B.T)
    w, U = np.linalg.eigh(B)
    w = np.maximum(w, 0.0) if keep_positive else np.minimum(w, 0.0)
    return (U * w) @ U.T


class PSDBlockSet(ConvexSet):
    """Cone of symmetric matrices given blockwise in a fixed eigenbasis.

    `groups` partitions the matrix indices; `codes[(i, j)]` (i <= j group
    indices) constrains the (i, j) block of U^T H U: 'free', 'zero', or on
    diagonal blocks 'psd'/'nsd'.  The rotation is an isometry for the
    trace inner product, so projection decouples blockwise.
    """

    def __init__(self, U, groups, codes):
        self.U = np.asarray(U, float)
        self.n = self.U.shape[0]
        self.groups = [np.asarray(g, dtype=int) for g in groups]
        self.codes = dict(codes)
        self.dim = svec_dim(self.n)
        # block operations that write something: (block index, index of
        # the mirrored block or None, code); empty and 'zero' blocks
        # leave their zeros in place.  (g[:, None], h) indexes the same
        # block as np.ix_(g, h), at a tenth of the cost.
        self._ops = []
        for (i, j), code in self.codes.items():
            if code not in _PSD_POLAR:
                raise ValueError(f"unknown block code {code!r}")
            if code in ("psd", "nsd") and i != j:
                raise ValueError(f"code {code!r} on off-diagonal block {(i, j)}")
            gi, gj = self.groups[i], self.groups[j]
            if gi.size == 0 or gj.size == 0 or code == "zero":
                continue
            mirror = (gj[:, None], gi) if code == "free" and i != j else None
            self._ops.append(((gi[:, None], gj), mirror, code))

    def project(self, zvec):
        W = self.U.T @ smat(zvec) @ self.U
        out = np.zeros_like(W)
        for block, mirror, code in self._ops:
            B = W[block]
            if code == "free":
                out[block] = B
                if mirror is not None:
                    out[mirror] = B.T
            else:
                out[block] = _eig_clip(B, code == "psd")
        return svec(self.U @ out @ self.U.T)

    def polar(self):
        codes = {k: _PSD_POLAR[v] for k, v in self.codes.items()}
        return PSDBlockSet(self.U, self.groups, codes)

    def negate(self):
        codes = {k: _PSD_NEG[v] for k, v in self.codes.items()}
        return PSDBlockSet(self.U, self.groups, codes)

    def lineality_basis(self):
        cols = []
        for (i, j), code in self.codes.items():
            if code != "free":
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


@dataclass
class DykstraInfo:
    residual: float
    cycles: int
    converged: bool
    stalled: bool


def dykstra(sets, z0, tol: Tol = DEFAULT_TOL, max_iter=None):
    """Dykstra's alternating projections onto the intersection of `sets`.

    Returns the final iterate plus convergence diagnostics.  When the
    intersection is empty the scheme stalls at a positive residual; the
    stall is detected by lack of residual progress and reported.
    """

    cap = max_iter if max_iter is not None else tol.max_iter
    z = np.asarray(z0, float).copy()
    incs = [np.zeros_like(z) for _ in sets]
    last_checkpoint = np.inf
    stalls = 0
    res = np.inf
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
                    return z, DykstraInfo(res, cycle, False, True)
            else:
                stalls = 0
            last_checkpoint = res
    res = max(S.dist(z) for S in sets)
    scale = 1.0 + _norm(z)
    converged = res <= tol.membership * scale
    return z, DykstraInfo(res, cycle, converged, False)


class Intersection(ConvexSet):
    """Intersection of convex sets; projection via Dykstra."""

    def __init__(self, sets, tol: Tol = DEFAULT_TOL, max_iter=400):
        self.sets = list(sets)
        self.dim = self.sets[0].dim
        self.tol = tol
        self.max_iter = max_iter
        self.is_cone = all(s.is_cone for s in self.sets)

    def project(self, z):
        out, _ = dykstra(self.sets, z, self.tol, self.max_iter)
        return out

    def contains(self, z, tol: Tol = DEFAULT_TOL):
        return all(s.contains(z, tol) for s in self.sets)

    def dist(self, z):
        out = self.project(z)
        gap = max(s.dist(out) for s in self.sets)
        return _norm(np.asarray(z, float) - out) + gap


def _complement_basis(a):
    a = np.asarray(a, float).reshape(1, -1)
    _, _, vt = np.linalg.svd(a)
    return vt[1:].T


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
