"""Primitive cone catalog.

A cone description is an ordered product of primitive cones (orthant,
second-order, PSD, zero, free).  Points of the ambient product space are
plain numpy vectors; symmetric-matrix blocks are stored in the sqrt(2)
scaled vectorized form of `symmat`, so every inner product below is a
coordinate dot product.

Each primitive is written for the "plus" cone K only.  Its mirror -K
(the negative orthant, the negative PSD cone, the polar of the
second-order cone) is applied once, in `PrimitiveCone`, by negating the
data going in and the result coming out: T_{-K}(y) = -T_K(-y),
Pi'_{-K}(z; h) = -Pi'_K(-z; -h) and Upsilon_{-K}(y, lam, h) =
Upsilon_K(-y, -lam, -h).  The second-order cone of dimension 1 is the
half-line, so SOC(1, sign) constructs Orthant(1, sign).  The primitives
also serve as derived sets: Zero, Free and the second-order cone itself
are the tangent and critical cones of the pieces where those are {0},
the whole space or the cone.  `ConeDesc` is the `ProductSet` of its
blocks.

Each second-order operation takes a point z = y + lam: the critical
cone C_K(y, lam) = T_K(y) ∩ lam⊥, Pi'_K(z; .) and Upsilon read a block's
data from a `BlockPoint`, built on first use, and a `ConePoint` holds one
per block, so a caller that keeps the point (a `GraphPoint`) decomposes
each PSD block of z once, and never y.  A block decides its case
once, in its critical cone, classifying y and lam but never z; Pi'_K is
the projection onto that cone, except on a curved second-order block
(Pi_K is smooth there) and on PSD blocks (divided differences in z's
eigenframe).  T_K(y) is the critical cone at (y, 0).  A block's `frame`
gives h in the form its operations also read and answer in: h, or for
PSD U^T smat(h) U in z's eigenframe.
"""

from functools import cached_property
import math

import numpy as np

from ._sets import (
    Tol, DEFAULT_TOL, ConvexSet, SignPattern, Halfspace, Hyperplane, Ray,
    ProductSet, PSDBlockSet, _eig_clip, _norm, _ray_interval, _soc_interval,
    _FREE, _NONNEG, _ZERO,
)
from .symmat import svec, smat, svec_dim

# A point of the ambient space: plain float vector partitioned by blocks.
AmbientVec = np.ndarray

__all__ = [
    "AmbientVec", "Tol", "Orthant", "SOC", "PSD", "Zero", "Free", "ConeDesc",
    "BlockPoint", "ConePoint", "project", "contains", "tangent_cone",
    "normal_cone",
]


def _parse_sign(sign):
    if sign in (1, "+", "plus"):
        return 1
    if sign in (-1, "-", "minus"):
        return -1
    raise ValueError(f"unknown sign {sign!r}")


def _zscale(v):
    return max(1.0, _norm(v))


class BlockPoint:
    """A primitive's data at z = y + lam, in the plus orientation; without
    a given (y, lam) it is the split y = Pi_K(z), lam = z - y."""

    def __init__(self, cone, tol, z, y=None, lam=None):
        self.cone, self.tol, self.z = cone, tol, z
        if y is not None:
            self.y, self.lam = y, lam

    @cached_property
    def proj(self):
        return self.cone._project(self.z)

    @cached_property
    def y(self):
        return self.proj

    @cached_property
    def lam(self):
        return self.z - self.y

    @cached_property
    def curved(self):
        return self.cone._curved(self)

    @cached_property
    def critical(self):
        """C_K(y, lam), the plus orientation's critical set."""
        return self.cone._critical(self)


class PrimitiveCone(ConvexSet):
    """A primitive cone K (sign plus) or its mirror -K (sign minus).

    `size` is the dimension, or the matrix order for PSD.  Subclasses
    write the underscored methods for K; the public methods map the data
    of -K to K and the result back.  A negation is exact, so the mirror
    adds no rounding.  A primitive's code is its sign, ZERO for Zero and
    FREE for Free, and the code tables give its polar, mirror and pointed
    part: the orthant, second-order and PSD cones are self-dual, so the
    polar of K is -K.
    """

    is_polyhedral = False
    signed = True  # False for the subspaces Zero and Free, where -K = K
    Point = BlockPoint  # the class of the block's data at a point

    def __init__(self, size, sign="plus"):
        self.size = self.dim = int(size)
        self.sign = _parse_sign(sign)

    def _in(self, *vs):
        vs = [np.asarray(v, float) for v in vs]
        return vs if self.sign > 0 else [-v for v in vs]

    def _out(self, r):
        if self.sign > 0:
            return r
        return r.negate() if isinstance(r, ConvexSet) else -r

    @property
    def code(self):
        """The sign; Zero and Free hold ZERO and FREE as class attributes."""
        return self.sign

    def _recoded(self, table):
        code = int(table[self.code + 1])
        if code == self.code:
            return self
        sub = {_ZERO: Zero, _FREE: Free}.get(code)
        return sub(self.dim) if sub else type(self)(self.size, code)

    def lineality_basis(self):
        return np.zeros((self.dim, 0))

    def lineality_dim(self):
        return 0

    def __repr__(self):
        sign = "," + "+-"[self.sign < 0] if self.signed else ""
        return f"{type(self).__name__}({self.size}{sign})"

    def project(self, z):
        return self._out(self._project(*self._in(z)))

    def line_interval(self, a, k):
        return self._line_interval(*self._in(a, k))

    def _line_interval(self, a, k):
        return None

    def dist(self, z):
        return self._dist(*self._in(z))

    def point(self, z, tol, *pair) -> BlockPoint:
        """The block's data at z = y + lam, with pair = (y, lam) or ()."""
        return self.Point(self, tol, *self._in(z, *pair))

    def frame(self, p, h):
        """h in the coordinates of the second-order operations at p."""
        return h

    # geometry at a point p = self.point(...) -------------------------------
    def tangent_set(self, y, tol) -> ConvexSet:
        """T_K(y), the critical set at (y, 0)."""
        return self.critical_set(self.point(y, tol, y, np.zeros(self.dim)))

    def critical_set(self, p) -> ConvexSet:
        return self._out(p.critical)

    def dir_deriv(self, p, h):
        return self._out(self._dir_deriv(p, *self._in(h)))

    def _dir_deriv(self, p, h):
        # Pi'_K(z; h) = Pi_C(h) for C = C_K(y, lam) wherever Pi_K is
        # piecewise linear near z: at every point of a polyhedral K, and
        # of a second-order cone unless it is curved there
        return p.critical.project(h)

    def _curved(self, p):
        """Whether the sigma term Upsilon may be nonzero at p: it is linear
        in lam, so only a curved block with lam != 0."""
        return not self.is_polyhedral and \
            _norm(p.lam) > p.tol.zero * _zscale(p.lam)

    def upsilon(self, p, h) -> float:
        """Upsilon(h) = <grad Upsilon(h), h> / 2, as Upsilon is quadratic."""
        return 0.5 * float(np.vdot(self.upsilon_grad(p, h), h))

    def upsilon_grad(self, p, h):
        return self._out(self._upsilon_grad(p, *self._in(h))) if p.curved \
            else np.zeros_like(h, dtype=float)


class Orthant(PrimitiveCone):
    is_polyhedral = True

    def _project(self, z):
        return np.maximum(z, 0.0)

    def _dist(self, z):
        return _norm(np.minimum(z, 0.0))

    _line_interval = staticmethod(_ray_interval)

    def _critical(self, p):
        active = np.abs(p.y) <= p.tol.zero * _zscale(p.y)
        lam_on = np.abs(p.lam) > p.tol.zero * _zscale(p.lam)
        codes = np.where(active,
                         np.where(lam_on, SignPattern.ZERO, SignPattern.NONNEG),
                         SignPattern.FREE)
        return SignPattern(codes)


class _SubspaceCone(PrimitiveCone):
    """Zero or Free: a subspace, its own mirror and critical cone, whose
    coordinates all carry the class's `code`.  Each projects without the
    mirror's wrapping; as derived sets they sit in Dykstra's loop."""

    is_polyhedral = True
    signed = False

    def __init__(self, dim):
        super().__init__(dim)
        self.codes = np.full(self.dim, self.code)

    def _critical(self, p):
        return self

    def _line_interval(self, a, k):
        return -math.inf, math.inf


class Zero(_SubspaceCone):
    code = _ZERO

    def project(self, z):
        return np.zeros(self.dim)

    _project = project

    def _dist(self, z):
        return _norm(z)


class Free(_SubspaceCone):
    code = _FREE

    def lineality_basis(self):
        return np.eye(self.dim)

    def lineality_dim(self):
        return self.dim

    def project(self, z):
        return np.asarray(z, float).copy()

    _project = project

    def _dist(self, z):
        return 0.0


class SOCPoint(BlockPoint):
    """The case (`SOC._classify`) of y."""

    @cached_property
    def ycase(self):
        return SOC._classify(self.y, self.tol)


class SOC(PrimitiveCone):
    """Second-order cone {(z0, zbar): ||zbar|| <= z0} (sign plus) or its
    negative (sign minus, the polar of the plus cone).  In dimension 1 it
    is the half-line, and the constructor returns Orthant(1, sign)."""

    Point = SOCPoint

    def __new__(cls, dim, sign="plus"):
        if dim < 1:
            raise ValueError("SOC dimension must be >= 1")
        if dim == 1:
            return Orthant(1, sign)
        return super().__new__(cls)

    _line_interval = staticmethod(_soc_interval)

    def __getnewargs__(self):
        # pickle and copy call __new__ with these
        return self.size, self.sign

    @staticmethod
    def _project(u):
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

    @staticmethod
    def _dist(u):
        u0, nb = float(u[0]), _norm(u[1:])
        if nb <= u0:
            return 0.0
        if nb <= -u0:
            return _norm(u)
        return (nb - u0) / math.sqrt(2.0)

    @staticmethod
    def _classify(u, tol):
        u0, ub = u[0], u[1:]
        nb = _norm(ub)
        sc = tol.zero * _zscale(u)
        if _norm(u) <= sc:
            return "apex"
        if u0 - nb > sc:
            return "int"
        if -u0 - nb > sc:
            return "polar_int"
        if abs(u0 - nb) <= sc:
            return "bd"
        if abs(u0 + nb) <= sc:
            return "polar_bd"
        return "outside"

    def _critical(self, p):
        u, lu, tol, ycase = p.y, p.lam, p.tol, p.ycase
        lam_zero = _norm(lu) <= tol.zero * _zscale(lu)
        if ycase == "int":
            return Free(self.dim)
        if ycase == "apex":
            if lam_zero:
                return SOC(self.dim)
            lcase = self._classify(lu, tol)
            if lcase == "polar_int":
                return Zero(self.dim)
            if lcase == "polar_bd":
                refl = lu.copy()
                refl[0] = -refl[0]
                return Ray(refl)
            raise ValueError("multiplier outside the normal cone")
        if ycase == "bd":
            # the outward normal direction (-1, ubar/||ubar||)
            a = np.concatenate([[-1.0], u[1:] / _norm(u[1:])])
            return Halfspace(a) if lam_zero else Hyperplane(a)
        raise ValueError("point is not in the cone")

    def _dir_deriv(self, p, hu):
        if not p.curved:
            return super()._dir_deriv(p, hu)
        # z outside K and -K°, where Pi_K is smooth
        u0, ub = p.z[0], p.z[1:]
        nb = _norm(ub)
        w = ub / nb
        h0, hb = hu[0], hu[1:]
        wh = float(w @ hb)
        out = np.empty(self.dim)
        out[0] = 0.5 * (h0 + wh)
        out[1:] = 0.5 * (h0 * w + (1.0 + u0 / nb) * hb - (u0 / nb) * wh * w)
        return out

    def _curved(self, p):
        # of the points with a nonzero multiplier, only the boundary ones
        return super()._curved(p) and p.ycase == "bd"

    def _upsilon_grad(self, p, hu):
        t, u0 = -p.lam[0], p.y[0]
        g = np.empty(self.dim)
        g[0] = -2.0 * (t / u0) * hu[0]
        g[1:] = 2.0 * (t / u0) * hu[1:]
        return g


def _psd_part(w, U):
    """The PSD projection of the matrix with eigenpairs (w, U)."""
    return svec((U * np.maximum(w, 0.0)) @ U.T)


class PSDPoint(BlockPoint):
    """The spectral split of smat(z) (`eig`: w, U, alpha, beta, gamma),
    the divided differences of Pi'_K(z; .) and `upsilon_mats`."""

    @cached_property
    def eig(self):
        return self.cone._eig_groups(smat(self.z), self.tol)

    @cached_property
    def proj(self):
        return _psd_part(*self.eig[:2])

    @cached_property
    def divdiff(self):
        """(p_i - p_j) / (w_i - w_j), p = max(w, 0), with w = 0 on beta,
        and [w_i > 0] where w_i = w_j."""
        w, _, _, beta, _ = self.eig
        wc = w.copy()
        wc[beta] = 0.0
        p = np.maximum(wc, 0.0)
        denom = wc[:, None] - wc[None, :]
        with np.errstate(divide="ignore", invalid="ignore"):
            return np.where(denom != 0.0, (p[:, None] - p[None, :]) / denom,
                            (wc > 0.0)[:, None] * 1.0)

    @cached_property
    def upsilon_mats(self):
        """(U^T smat(lam) U, d): y = Pi_K(z) = U diag(max(w, 0)) U^T, so
        U^T Y^+ U is diag(d), d = 1/w on alpha and 0 elsewhere."""
        w, _, alpha, _, _ = self.eig
        winv = np.zeros_like(w)
        winv[alpha] = 1.0 / w[alpha]
        return self.cone.frame(self, self.lam), winv


class PSD(PrimitiveCone):
    """Cone of positive (sign plus) or negative (sign minus) semidefinite
    symmetric matrices of a given order, in vectorized form."""

    Point = PSDPoint

    def __init__(self, order, sign="plus"):
        super().__init__(order, sign)
        self.order = self.size
        self.dim = svec_dim(self.order)

    def _project(self, z):
        return _psd_part(*np.linalg.eigh(smat(z)))

    def _dist(self, z):
        return _norm(np.minimum(np.linalg.eigvalsh(smat(z)), 0.0))

    def _eig_groups(self, A, tol):
        w, U = np.linalg.eigh(A)
        sc = tol.zero * max(1.0, float(np.abs(w).max(initial=0.0)))
        pos = np.where(w > sc)[0]
        neg = np.where(w < -sc)[0]
        zero = np.where((w <= sc) & (w >= -sc))[0]
        return w, U, pos, zero, neg

    def _critical(self, p):
        _, U, alpha, beta, gamma = p.eig
        if gamma.size and not p.lam.any():  # the tangent cone at y
            raise ValueError("point is not in the cone")
        codes = {(0, 0): _FREE, (0, 1): _FREE, (0, 2): _FREE,
                 (1, 1): _NONNEG, (1, 2): _ZERO, (2, 2): _ZERO}
        return PSDBlockSet(U, [alpha, beta, gamma], codes)

    def frame(self, p, h):
        return p.eig[1].T @ smat(h) @ p.eig[1]

    def _dir_deriv(self, p, h):
        _, U, _, beta, _ = p.eig
        W = h if h.ndim == 2 else self.frame(p, h)
        out = p.divdiff * W
        if beta.size:
            # on beta x beta, Pi' is the PSD projection of W's block
            out[beta[:, None], beta] = _eig_clip(W[beta[:, None], beta])
        return out if h.ndim == 2 else svec(U @ out @ U.T)

    def _upsilon_grad(self, p, h):
        L, winv = p.upsilon_mats
        U = p.eig[1]
        A = winv[:, None] * (h if h.ndim == 2 else self.frame(p, h)) @ L
        G = -2.0 * (A + A.T)
        return G if h.ndim == 2 else svec(U @ G @ U.T)


class ConeDesc(ProductSet):
    """Ordered product of primitive cones."""

    def __init__(self, blocks):
        self.blocks = tuple(blocks)
        super().__init__(self.blocks)

    @property
    def is_polyhedral(self):
        return all(b.is_polyhedral for b in self.blocks)

    def join(self, parts):
        return np.concatenate([np.asarray(p, float).ravel() for p in parts]) \
            if parts else np.zeros(0)

    def project(self, z):
        return self.join([b.project(p)
                          for b, p in zip(self.blocks, self.split(z))])

    def tangent_set(self, y, tol=DEFAULT_TOL):
        return ProductSet([b.tangent_set(p, tol)
                           for b, p in zip(self.blocks, self.split(y))])

    # The methods below take a `ConePoint` p of K.
    def critical_set(self, p):
        return ProductSet([b.critical_set(q)
                           for b, q in zip(self.blocks, p.blocks)])

    def dir_deriv(self, p, h):
        return self.join([b.dir_deriv(q, qh) for b, q, qh
                          in zip(self.blocks, p.blocks, self.split(h))])

    def upsilon(self, p, h):
        return 0.5 * float(self.upsilon_grad(p, h) @ h)

    def upsilon_grad(self, p, h):
        return self.join([b.upsilon_grad(q, qh) for b, q, qh
                          in zip(self.blocks, p.blocks, self.split(h))])

    def __repr__(self):
        return "ConeDesc(" + " x ".join(map(repr, self.blocks)) + ")"


class ConePoint:
    """A point z = y + lam of the space of a `ConeDesc` with one
    `BlockPoint` per block, built on first use; without a given (y, lam)
    it is the split y = Pi_K(z), lam = z - y."""

    def __init__(self, cone, z, tol=DEFAULT_TOL, y=None, lam=None):
        self.cone, self.z, self.tol = cone, np.asarray(z, float), tol
        self._pair = () if y is None else (y, lam)
        if y is not None:
            self.y, self.lam = y, lam

    @cached_property
    def blocks(self):
        K = self.cone
        return tuple(b.point(z, self.tol, *(v[sl] for v in self._pair))
                     for b, z, sl in zip(K.blocks, K.split(self.z), K.slices))

    @cached_property
    def y(self):
        return self.project()

    @cached_property
    def lam(self):
        return self.z - self.y

    def project(self):
        """Pi_K(z), read from the blocks' data."""
        return self.cone.join([b._out(p.proj)
                               for b, p in zip(self.cone.blocks, self.blocks)])


# Module-level API ---------------------------------------------------------

def project(K: ConeDesc, z: AmbientVec) -> AmbientVec:
    """Projection of z onto K, blockwise in closed form."""
    if not np.all(np.isfinite(z)):
        raise ValueError("non-finite input")
    return K.project(z)


def contains(K: ConeDesc, z: AmbientVec, tol: Tol = DEFAULT_TOL) -> bool:
    return K.contains(z, tol)


def _require_member(K, y, tol):
    if not K.contains(y, tol):
        raise ValueError("point is not in the cone (beyond tolerance)")


def tangent_cone(K: ConeDesc, y: AmbientVec, tol: Tol = DEFAULT_TOL) -> ConvexSet:
    _require_member(K, y, tol)
    return K.tangent_set(y, tol)


def normal_cone(K: ConeDesc, y: AmbientVec, tol: Tol = DEFAULT_TOL) -> ConvexSet:
    """N_K(y), the polar of the tangent cone T_K(y)."""
    _require_member(K, y, tol)
    return K.tangent_set(y, tol).polar()

