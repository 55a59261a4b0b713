"""Derived cone sets and the subspace-cone triviality decision.

Critical cones, tangent cones to normal cones, and normal cones of
critical cones are produced as closed-form convex-set oracles.  The
triviality decision span(L) ∩ C = {0} behind every constraint-qualification
certificate takes one of two routes, chosen from the rank of L:

- span(L) a line span{q} and C a cone with a closed-form projection: a
  cone meets a line only along ±q, so the two distances
  d± = ||±q - Π_C(±q)|| decide it exactly, and a reader re-checks
  the verdict with two projections.
- rank >= 2, or a C projected by iteration: projected ascent of the
  signed basis functionals of L over C ∩ L ∩ (unit ball).
"""

import math

import numpy as np

from ._sets import (
    Tol, DEFAULT_TOL, Certificate, ConvexSet, Hyperplane, Intersection,
    Subspace, dykstra,
)
from .cone_core import ConeDesc, AmbientVec

__all__ = [
    "Certificate", "critical_cone", "tangent_of_normal",
    "normal_of_critical", "subspace_cone_trivial", "radial_probe",
]


def _check_graph_pair(K, y, lam, tol):
    if not K.contains(y, tol):
        raise ValueError("base point is not in the cone")
    z = np.asarray(y, float) + np.asarray(lam, float)
    res = float(np.linalg.norm(np.asarray(y, float) - K.project(z)))
    if res > tol.membership * (1.0 + float(np.linalg.norm(z))):
        raise ValueError(f"(y, lambda) is not on the normal-cone graph "
                         f"(residual {res:.3e})")


def critical_cone(K: ConeDesc, y: AmbientVec, lam: AmbientVec,
                  tol: Tol = DEFAULT_TOL) -> ConvexSet:
    """Tangent directions at y orthogonal to the multiplier lam."""
    _check_graph_pair(K, y, lam, tol)
    return K.critical_set(y, lam, tol)


def tangent_of_normal(K: ConeDesc, y: AmbientVec, lam: AmbientVec,
                      tol: Tol = DEFAULT_TOL) -> ConvexSet:
    """Tangent cone to the normal cone N_K(y) at lam, realized as the
    polar of the critical cone."""
    _check_graph_pair(K, y, lam, tol)
    return K.critical_set(y, lam, tol).polar()


def normal_of_critical(C: ConvexSet, d: AmbientVec,
                       tol: Tol = DEFAULT_TOL) -> ConvexSet:
    """Normal cone to C at d: the polar of C sliced by the hyperplane
    orthogonal to d."""
    if not C.contains(d, tol):
        raise ValueError("direction is not in the cone")
    Cp = C.polar()
    if float(np.linalg.norm(d)) <= tol.zero:
        return Cp
    return Intersection([Cp, Hyperplane(d)], tol)


def _ball_clip(z):
    n = float(np.linalg.norm(z))
    return z / n if n > 1.0 else z


def _line_cone_trivial(q, C, tol):
    """Decide span{q} ∩ C = {0} for a unit vector q and a cone C whose
    projection is closed form.

    C ∩ span{q} is a closed convex cone on a line: {0}, a ray along q or
    -q, or the whole line.  It is nontrivial exactly when dist(q, C) or
    dist(-q, C) is 0, and since dist(t z, C) = t dist(z, C) for t > 0,
    every unit z in span{q} is at distance at least min d± from C.
    """
    method = "closed-form distances of ±q to C (span(L) is the line of q)"
    dists = (C.dist(q), C.dist(-q))
    details = {"dist_plus": dists[0], "dist_minus": dists[1]}
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
    """Decide whether span(L) ∩ C = {0}.

    When span(L) is a line (rank 1 by the singular values of L) and C is
    a cone with a closed-form projection, the distances of the two unit
    points of the line to C decide it exactly (`_line_cone_trivial`).

    Otherwise, for each signed basis direction ±c of span(L), maximize
    <c, z> over the convex compact set C ∩ span(L) ∩ B by projected
    ascent.  A cone on which every such functional is <= 0 is {0}; since
    the objective is linear, the ascent has no spurious maxima, and any
    nontrivial ray of the intersection yields a maximum bounded well away
    from 0.
    """
    L = np.asarray(L, float)
    if L.ndim == 1:
        L = L.reshape(-1, 1)
    method = "projected ascent of signed basis functionals over C ∩ L ∩ B"
    sub = Subspace(L) if L.shape[1] else None
    if sub is None or sub.Q.shape[1] == 0:
        return Certificate("holds", 0.0, None, method, tol,
                           details={"directions": 0})
    Q = sub.Q
    if Q.shape[1] == 1 and C.is_cone and C.exact:
        return _line_cone_trivial(Q[:, 0], C, tol)
    sets = [C, sub]

    def feas_project(z, budget=300):
        out, _ = dykstra(sets, z, tol, max_iter=budget)
        return _ball_clip(out)

    def infeas(z):
        return max(C.dist(z),
                   float(np.linalg.norm(z - sub.project(z))))

    # cheap ascent passes collect candidates; the loose feasibility gate
    # only filters blow-ups, the strict check happens after polishing
    best = 0.0
    witness = None
    for j in range(Q.shape[1]):
        for sgn in (1.0, -1.0):
            c = sgn * Q[:, j]
            z = feas_project(c)
            for _ in range(60):
                znew = feas_project(z + c)
                if float(np.linalg.norm(znew - z)) <= tol.zero * (1 + np.linalg.norm(z)):
                    z = znew
                    break
                z = znew
                if float(c @ z) > 1e-2:
                    break
            val = float(c @ z)
            if val > best and infeas(z) <= 1e-4 * (1 + np.linalg.norm(z)):
                best, witness = val, z

    if witness is not None:
        # long-budget polish of the best candidate before deciding
        witness = feas_project(witness, budget=tol.max_iter)
        gap = infeas(witness)
        nrm = float(np.linalg.norm(witness))
        if gap <= tol.membership * (1 + nrm):
            best = nrm
            if tol.membership < nrm < 1e-2:
                # a genuine ray rescales to unit length, numerical dust
                # collapses back toward the origin
                amp = feas_project(witness / nrm, budget=tol.max_iter)
                if infeas(amp) <= tol.membership * (1 + np.linalg.norm(amp)):
                    best = float(np.linalg.norm(amp))
                    if best > 10 * tol.membership:
                        witness = amp
        elif nrm > 10 * tol.membership:
            return Certificate("inconclusive", nrm, witness,
                               method + " (candidate did not polish to "
                               "feasibility)", tol)
        else:
            best = 0.0

    # any genuine ray survives polishing and amplification at norm near 1,
    # numerical dust stays orders of magnitude below the fail threshold
    hold_cut = 100 * tol.membership
    fail_cut = float(np.sqrt(tol.membership))
    if best <= hold_cut:
        return Certificate("holds", best, None, method, tol)
    if best >= fail_cut:
        return Certificate("fails", best, witness, method, tol)
    return Certificate("inconclusive", best, witness, method, tol)


def radial_probe(omega: object, vbar: AmbientVec, z: AmbientVec,
                 tgrid, tol: Tol = DEFAULT_TOL) -> bool:
    """One-sided finite probe of radial-cone membership: true iff
    vbar + t z stays in omega for every t of the grid.  A true answer is
    evidence, not proof; a false answer exhibits a leaving t."""
    vbar = np.asarray(vbar, float)
    z = np.asarray(z, float)
    return all(omega.contains(vbar + float(t) * z, tol) for t in tgrid)
