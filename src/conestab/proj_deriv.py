"""Directional derivatives of the cone projection, the graph points of
the normal-cone map, and the graphical-derivative membership test for it.

Sign convention, fixed against the finite-difference expansion oracle
before anything downstream was written: the cone's `upsilon(gp, h)` at a
graph point is the curvature functional Upsilon(h), the NEGATIVE of the
support-function value sigma of the multiplier over the second-order
tangent set, and is nonnegative on the critical cone; `upsilon_grad` is
its gradient, with <grad, h> = 2 Upsilon(h).  Closed forms: 0 on
polyhedral blocks; -2 <Lam, H Y^+ H> on PSD blocks;
(-lam0/y0)(||hbar||^2 - h0^2) at nonzero boundary points of the
second-order cone.

A `GraphPoint` is the point of the cone's second-order operations: it
keeps the cone's data at z = y + lam, so every call at the point reads
one eigendecomposition of each PSD block of z and, for Upsilon, at most
one of y, and it holds the critical cone and its polar.
`proj_dir_deriv`, the validated entry point for a vector z, builds that
data for its one call.
"""

from functools import cached_property
import math

import numpy as np

from ._sets import Tol, DEFAULT_TOL, Certificate, _ROUNDING, _norm
from .cone_core import ConeDesc, ConePoint, AmbientVec

__all__ = ["GraphPoint", "proj_dir_deriv", "dnk_contains"]


class GraphPoint(ConePoint):
    """A pair (y, lam) on the graph of the normal-cone map of `cone`:
    y = Pi_K(y + lam), equivalently y in K, lam in N_K(y).

    The constructor is the one place that checks a graph pair; `of_pair`
    wraps a pair its caller has already verified and `from_z` splits z
    through Pi_K.  The blocks' data (`ConePoint`), the critical cone of K
    at (y, lam) (`critical`), its polar, the tangent cone to N_K(y) at
    lam (`critical_polar`), and whether lam is in ri N_K(y)
    (`critical_is_subspace`) are built on first use.
    """

    def __init__(self, cone: ConeDesc, y, lam, tol: Tol = DEFAULT_TOL):
        y, lam = np.asarray(y, float), np.asarray(lam, float)
        _require_finite("non-finite graph pair", y, lam)
        super().__init__(cone, y + lam, tol, y, lam)
        self._check(self.project())

    def _check(self, proj):
        """The graph test of (y, lam) against proj = Pi_K(z), and
        complementarity."""
        nz, ny, res = _norm(self.z), _norm(self.y), _norm(self.y - proj)
        if res > self.tol.membership * (1.0 + nz):
            raise ValueError(f"(y, lambda) not on the graph (residual {res:.3e})")
        # a tenth of tol.zero (1e-10 by default), plus the rounding of
        # lam = z - y, about eps ||z|| in each entry
        comp = abs(float(self.y @ self.lam))
        if comp > self.tol.zero / 10 * (1.0 + ny * _norm(self.lam)) \
                + _ROUNDING * ny * nz:
            raise ValueError(f"complementarity violated ({comp:.3e})")

    @cached_property
    def critical(self):
        return self.cone.critical_set(self)

    @cached_property
    def critical_polar(self):
        return self.critical.polar()

    @cached_property
    def critical_is_subspace(self):
        """Whether the critical cone C is a subspace, that is whether lam
        is in ri N_K(y) = ri T_K(y)°: C is the face of T_K(y) that lam
        exposes, and lam is in ri N_K(y) exactly when that face is
        lin T_K(y) (Rockafellar, Convex Analysis, Sections 6 and 14).  C
        is a subspace exactly when dim lin C + dim lin C° = dim K."""
        return self.critical.lineality_dim() + \
            self.critical_polar.lineality_dim() == self.cone.dim

    @classmethod
    def from_z(cls, cone: ConeDesc, z: AmbientVec, tol: Tol = DEFAULT_TOL):
        """The graph point (Pi_K(z), z - Pi_K(z)) of z, whose blocks' data
        is that of z itself, so z is decomposed once."""
        gp = cls.__new__(cls)
        ConePoint.__init__(gp, cone, z, tol)
        _require_finite("non-finite graph pair", gp.y, gp.lam)
        gp._check(gp.y)
        return gp

    @classmethod
    def of_pair(cls, cone: ConeDesc, y, lam, tol: Tol):
        """The graph point of a pair already verified by its caller's own
        test (a `BasePair`'s multiplier test), without a second decision
        at other thresholds."""
        gp = cls.__new__(cls)
        ConePoint.__init__(gp, cone, y + lam, tol, y, lam)
        return gp


def _require_finite(message, *vs):
    if not all(np.all(np.isfinite(v)) for v in vs):
        raise ValueError(message)


def _require_shape(K, *vs):
    for v in vs:
        if v.shape != (K.dim,):
            raise ValueError(f"dimension mismatch: shape {v.shape}, "
                             f"expected ({K.dim},)")


def proj_dir_deriv(K: ConeDesc, z: AmbientVec, h: AmbientVec,
                   tol: Tol = DEFAULT_TOL) -> AmbientVec:
    """Directional derivative of the projection onto K at z in direction h."""
    z = np.asarray(z, float)
    h = np.asarray(h, float)
    _require_shape(K, z, h)
    _require_finite("non-finite input", z, h)
    return K.dir_deriv(ConePoint(K, z, tol), h)


def dnk_contains(K: ConeDesc, gp: GraphPoint, dy: AmbientVec,
                 dl: AmbientVec) -> Certificate:
    """Membership of (dy, dl) in the graphical derivative of the
    normal-cone map of K at the graph point, to the graph point's
    tolerance; K must be the graph point's cone.

    Two independent characterizations are evaluated:
      (a) the projection-derivative equation dy = Pi'_K(y + lam; dy + dl);
      (b) dy in the critical cone, dl - grad Upsilon(dy)/2 in its polar,
          and <dy, dl> = Upsilon(dy).
    The certificate holds (or fails) only when both routes agree; a
    disagreement beyond tolerance is reported as inconclusive with the
    per-route residuals, since it indicates a numerical fault.
    """
    if K is not gp.cone:
        raise ValueError("K is not the cone of the graph point")
    tol = gp.tol
    dy = np.asarray(dy, float)
    dl = np.asarray(dl, float)
    _require_shape(K, dy, dl)
    ny, nl = _norm(dy), _norm(dl)
    if not math.isfinite(ny + nl):  # a non-finite entry, or an overflow
        _require_finite("non-finite input", dy, dl)
        raise ValueError("the norm of dy or dl overflows")
    thresh = tol.membership * (1.0 + ny + nl)

    # the blocks' terms, with dy and dl rotated once into each frame
    parts = [(b, q, b.frame(q, dy[sl]), b.frame(q, dl[sl])) for b, q, sl
             in zip(K.blocks, gp.blocks, K.slices)]
    res_a = math.hypot(*(_norm(fy - b.dir_deriv(q, fy + fl))
                         for b, q, fy, fl in parts))
    holds_a = res_a <= thresh

    res1 = math.hypot(*(C.dist(fy) for C, (_, _, fy, _)
                        in zip(gp.critical.sets, parts)))
    details = {"route_a_residual": res_a, "critical_dist": res1}
    if res1 <= thresh:
        # r = dl - grad Upsilon(dy)/2: sum <dy, r> = <dy, dl> - Upsilon(dy)
        rs = [fl - 0.5 * b.upsilon_grad(q, fy) for b, q, fy, fl in parts]
        res2 = math.hypot(*(Cp.dist(r) for Cp, r
                            in zip(gp.critical_polar.sets, rs)))
        pairing = sum(float(np.vdot(part[2], r)) for part, r in zip(parts, rs))
        res3 = abs(pairing) / (1.0 + ny * nl)
        res_b = max(res1, res2, res3)
        details.update(polar_dist=res2, pairing_residual=res3)
    else:
        res_b = res1
    holds_b = res_b <= thresh
    details["route_b_residual"] = res_b

    if holds_a and holds_b:
        return Certificate("holds", max(res_a, res_b), None,
                           "projection-derivative equation + critical-cone "
                           "decomposition (both routes)", tol, details=details)
    if not holds_a and not holds_b:
        return Certificate("fails", max(res_a, res_b),
                           np.concatenate([dy, dl]),
                           "projection-derivative equation + critical-cone "
                           "decomposition (both routes)", tol, details=details)
    return Certificate("inconclusive", max(res_a, res_b), None,
                       "route disagreement (diagnostic)", tol, details=details)
