"""The relative-interior test of a multiplier and the subspace-cone
triviality decision.

Critical cones and their polars, the tangent cones to normal cones, are
closed-form convex sets read from a `GraphPoint` (`critical`,
`critical_polar`).  The triviality decision span(L) ∩ C = {0} behind
every constraint-qualification certificate takes a cone C, whose
projection is closed form, and one of two routes, chosen from the rank
of L:

- span(L) a line span{q}: a cone meets a line only along ±q, so the two
  distances d± = ||±q - Π_C(±q)|| decide it exactly, and a reader
  re-checks the verdict with two projections.
- otherwise each slice {z in span(L) : <q_j, z> = ±1} yields a witness
  or a Gordan vector h bounding the norm of its points in C, re-checked
  from h by a reader with one projection.
"""

import math

import numpy as np

from ._sets import (
    Tol, DEFAULT_TOL, AffineSet, Certificate, ConvexSet, dykstra, _span_svd,
)
from .cone_core import ConeDesc, AmbientVec, normal_cone
from .proj_deriv import GraphPoint

__all__ = ["Certificate", "ri_normal_contains", "subspace_cone_trivial"]


def ri_normal_contains(K: ConeDesc, y: AmbientVec, lam: AmbientVec,
                       tol: Tol = DEFAULT_TOL) -> bool:
    """Whether lam is in ri N_K(y), that is whether the critical cone at
    (y, lam) is a subspace; ValueError when lam is not in N_K(y)."""
    y, lam = np.asarray(y, float), np.asarray(lam, float)
    if not normal_cone(K, y, tol).contains(lam, tol):
        raise ValueError("multiplier outside the normal cone")
    return GraphPoint.of_pair(K, y, lam, tol).critical_is_subspace


def _line_cone_trivial(q, C, tol):
    """Decide span{q} ∩ C = {0} for a unit vector q and a cone C whose
    projection is closed form.

    C ∩ span{q} is a closed convex cone on a line: {0}, a ray along q or
    -q, or the whole line.  It is nontrivial exactly when dist(q, C) or
    dist(-q, C) is 0, and since dist(t z, C) = t dist(z, C) for t > 0,
    every unit z in span{q} is at distance at least min d± from C.  The
    details carry q (`line`) with d± (`dist_plus`, `dist_minus`), so a
    reader re-checks both with two projections.
    """
    method = "closed-form distances of ±q to C (span(L) is the line of q)"
    dists = (C.dist(q), C.dist(-q))
    details = {"line": q, "dist_plus": dists[0], "dist_minus": dists[1]}
    best = min(dists)
    point = q if dists[0] == best else -q
    if best <= tol.membership:
        return Certificate("fails", 1.0, point, method, tol, details=details)
    if best >= math.sqrt(tol.membership):
        return Certificate("holds", 0.0, None, method, tol, details=details)
    return Certificate("inconclusive", best, point, method, tol,
                       details=details)


def subspace_cone_trivial(L: np.ndarray, C: ConvexSet,
                          tol: Tol = DEFAULT_TOL) -> Certificate:
    """Decide whether span(L) ∩ C = {0} for a cone C (any other C is
    `inconclusive`).

    Q = u[:, :k] of `_span_svd` is an orthonormal basis of span(L), k
    its rank by the package's one rank rule.  A line span(L) (k = 1) is
    decided by `_line_cone_trivial`.  Otherwise span(L) is cut into
    slices: a nonzero z in span(L) ∩ C rescales to max_j |<q_j, z>| = 1,
    so it lies in a slice A_j± = {z in span(L) : <q_j, z> = ±1} with
    norm at most sqrt(k).  Dykstra on [A_j±, C] converges, and its point
    of A_j± is the witness of `fails`, or reads (h, R) by
    `_sets._gordan`: every point of A_j± ∩ C has norm at least R.
    `holds` needs R > sqrt(k) on all 2k slices, and carries each (j,
    sign, h, R).
    """
    L = np.asarray(L, float)
    u, _, _, k = _span_svd(L.reshape(-1, 1) if L.ndim == 1 else L, tol=tol)
    return _span_cone_trivial(u[:, :k], C, tol)


def _span_cone_trivial(Q, C, tol):
    """The decision of `subspace_cone_trivial` for span(Q), Q with
    orthonormal columns."""
    n, k = Q.shape
    if k == 0:
        return Certificate("holds", 0.0, None, "span(L) is {0}", tol)
    if not C.is_cone:
        return Certificate("inconclusive", 0.0, None, "C is not a cone", tol)
    if k == 1:
        return _line_cone_trivial(Q[:, 0], C, tol)
    method = "radius-certified slices <q_j, z> = ±1 of span(L) against C"
    bound = math.sqrt(k)
    # the rows of each slice's M, q_j and the columns of W, are orthonormal
    W = _span_svd(Q)[0][:, k:]
    slices = []
    for j in range(k):
        for sign in (1.0, -1.0):
            A = AffineSet(np.vstack([Q[:, j], W.T]),
                          np.concatenate([[sign], np.zeros(n - k)]))
            z, info = dykstra(A, C, sign * Q[:, j], tol, radius=bound)
            w = A.project(z)
            if info.converged and C.dist(w) <= tol.membership:
                return Certificate("fails", 1.0, w, method, tol, details={
                    "basis": Q, "j": j, "sign": sign, "cycles": info.cycles})
            h, R = info.gordan
            slices.append({"j": j, "sign": sign, "h": h, "radius": R,
                           "cycles": info.cycles})
    details = {"basis": Q, "complement": W, "bound": bound, "slices": slices}
    weakest = min(s["radius"] for s in slices)
    if weakest > bound:
        return Certificate("holds", 0.0, None, method, tol, details=details)
    return Certificate("inconclusive", weakest, None,
                       method + " (a slice radius is at most sqrt(k))", tol,
                       details=details)

