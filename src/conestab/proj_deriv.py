"""Directional derivatives of the cone projection, sigma terms, and the
graphical-derivative membership test for the normal-cone map.

Sign convention, fixed against the finite-difference expansion oracle
before anything downstream was written: sigma_term returns the curvature
functional Upsilon(h), which is the NEGATIVE of the support-function
value sigma of the multiplier over the second-order tangent set, and is
nonnegative on the critical cone.  Closed forms: 0 on polyhedral blocks;
-2 <Lam, H Y^+ H> on PSD blocks; (-lam0/y0)(||hbar||^2 - h0^2) at
nonzero boundary points of the second-order cone.
"""

from dataclasses import dataclass, field
import numpy as np

from ._sets import Tol, DEFAULT_TOL, Certificate
from .cone_core import ConeDesc, AmbientVec

__all__ = ["GraphPoint", "proj_dir_deriv", "sigma_term", "sigma_grad",
           "dnk_contains"]


@dataclass
class GraphPoint:
    """A pair (y, lam) on the graph of the normal-cone map of `cone`:
    y = Pi_K(y + lam), equivalently y in K, lam in N_K(y)."""

    cone: ConeDesc
    y: np.ndarray
    lam: np.ndarray
    tol: Tol = field(default_factory=Tol)

    def __post_init__(self):
        self.y = np.asarray(self.y, float)
        self.lam = np.asarray(self.lam, float)
        z = self.y + self.lam
        res = float(np.linalg.norm(self.y - self.cone.project(z)))
        if res > self.tol.membership * (1.0 + float(np.linalg.norm(z))):
            raise ValueError(f"(y, lambda) not on the graph (residual {res:.3e})")
        # complementarity threshold: a tenth of tol.zero (1e-10 by default)
        comp = abs(float(self.y @ self.lam))
        if comp > self.tol.zero / 10 * (1.0 + float(np.linalg.norm(self.y))
                                        * float(np.linalg.norm(self.lam))):
            raise ValueError(f"complementarity violated ({comp:.3e})")

    @property
    def z(self):
        return self.y + self.lam

    @classmethod
    def from_z(cls, cone: ConeDesc, z: AmbientVec, tol: Tol = DEFAULT_TOL):
        y = cone.project(z)
        return cls(cone, y, np.asarray(z, float) - y, tol)


def proj_dir_deriv(K: ConeDesc, z: AmbientVec, h: AmbientVec,
                   tol: Tol = DEFAULT_TOL) -> AmbientVec:
    """Directional derivative of the projection onto K at z in direction h."""
    z = np.asarray(z, float)
    h = np.asarray(h, float)
    if z.size != K.dim or h.size != K.dim:
        raise ValueError("dimension mismatch")
    if not (np.all(np.isfinite(z)) and np.all(np.isfinite(h))):
        raise ValueError("non-finite input")
    return K.dir_deriv(z, h, tol)


def _critical_precheck(K, gp, h, tol):
    C = K.critical_set(gp.y, gp.lam, tol)
    if not C.contains(h, tol):
        raise ValueError("direction is outside the critical cone")


def sigma_term(K: ConeDesc, gp: GraphPoint, h: AmbientVec,
               tol: Tol = DEFAULT_TOL) -> float:
    """Curvature functional Upsilon(h) at the graph point; quadratic in h,
    additive over blocks, nonnegative on the critical cone."""
    _critical_precheck(K, gp, h, tol)
    return K.upsilon(gp.y, gp.lam, h, tol)


def sigma_grad(K: ConeDesc, gp: GraphPoint, h: AmbientVec,
               tol: Tol = DEFAULT_TOL) -> AmbientVec:
    """Gradient of the quadratic form Upsilon at h; <grad, h> = 2 Upsilon(h)."""
    _critical_precheck(K, gp, h, tol)
    return K.upsilon_grad(gp.y, gp.lam, h, tol)


def dnk_contains(K: ConeDesc, gp: GraphPoint, dy: AmbientVec, dl: AmbientVec,
                 tol: Tol = DEFAULT_TOL) -> Certificate:
    """Membership of (dy, dl) in the graphical derivative of the
    normal-cone map of K at the graph point.

    Two independent characterizations are evaluated:
      (a) the projection-derivative equation dy = Pi'_K(y + lam; dy + dl);
      (b) dy in the critical cone, dl - grad Upsilon(dy)/2 in its polar,
          and <dy, dl> = Upsilon(dy).
    The certificate holds (or fails) only when both routes agree; a
    disagreement beyond tolerance is reported as inconclusive with the
    per-route residuals, since it indicates a numerical fault.
    """
    dy = np.asarray(dy, float)
    dl = np.asarray(dl, float)
    scale = 1.0 + float(np.linalg.norm(dy)) + float(np.linalg.norm(dl))
    thresh = tol.membership * scale

    pd = proj_dir_deriv(K, gp.z, dy + dl, tol)
    res_a = float(np.linalg.norm(dy - pd))
    holds_a = res_a <= thresh

    C = K.critical_set(gp.y, gp.lam, tol)
    res1 = C.dist(dy)
    details = {"route_a_residual": res_a, "critical_dist": res1}
    if res1 <= thresh:
        ups = K.upsilon(gp.y, gp.lam, dy, tol)
        grad = K.upsilon_grad(gp.y, gp.lam, dy, tol)
        res2 = C.polar().dist(dl - 0.5 * grad)
        pairing = float(dy @ dl) - ups
        res3 = abs(pairing) / (1.0 + float(np.linalg.norm(dy))
                               * float(np.linalg.norm(dl)))
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
