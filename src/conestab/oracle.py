"""Independent brute-force validators.

Everything here deliberately avoids the closed forms of the other
modules: finite differences for projection derivatives, finite-t
residuals for graph tangency, second-order expansion pairing for the
curvature term, double description for exact polyhedral decisions, and a
nonsmooth least-squares restoration for tangency to the graph of the
constraint-system normal-cone map.  Slow is fine; these are the ground
truth for the closed forms.
"""

import numpy as np

from .cone_core import ConeDesc, AmbientVec, project

DEFAULT_TGRID = (1e-2, 1e-3, 1e-4, 1e-5)

__all__ = ["fd_proj_deriv", "graph_tangent_residual",
           "sigma_expansion", "polyhedral_trivial_exact",
           "ngamma_graph_residual", "DEFAULT_TGRID"]


def _richardson(pairs):
    """Order-1 Richardson extrapolation over (t, value) pairs, t decreasing."""
    ex = []
    for (t1, v1), (t2, v2) in zip(pairs, pairs[1:]):
        r = t1 / t2
        ex.append((r * v2 - v1) / (r - 1.0))
    if not ex:
        return pairs[-1][1], np.inf
    if len(ex) == 1:
        return ex[-1], float(np.linalg.norm(np.atleast_1d(ex[-1] - pairs[-1][1])))
    return ex[-1], float(np.linalg.norm(np.atleast_1d(ex[-1] - ex[-2])))


def fd_proj_deriv(K: ConeDesc, z: AmbientVec, h: AmbientVec,
                  tgrid=DEFAULT_TGRID):
    """Finite-difference directional derivative of the projection with
    Richardson extrapolation; returns (value, error estimate)."""
    z = np.asarray(z, float)
    h = np.asarray(h, float)
    p0 = project(K, z)
    pairs = []
    for t in sorted(tgrid, reverse=True):
        val = (project(K, z + t * h) - p0) / t
        if not np.all(np.isfinite(val)):
            raise ValueError("non-finite values in finite differences")
        pairs.append((t, val))
    return _richardson(pairs)


def graph_tangent_residual(K: ConeDesc, gp, dy: AmbientVec,
                           dl: AmbientVec, tgrid=DEFAULT_TGRID):
    """Finite-t residuals ||(y + t dy) - Pi_K(y + t dy + lam + t dl)|| / t.

    Decay to 0 over the grid is tangency evidence for (dy, dl); a residual
    bounded below signals non-tangency."""
    dy = np.asarray(dy, float)
    dl = np.asarray(dl, float)
    out = []
    for t in tgrid:
        yt = gp.y + t * dy
        zt = yt + gp.lam + t * dl
        out.append(float(np.linalg.norm(yt - project(K, zt))) / t)
    return out


def sigma_expansion(K: ConeDesc, gp, h: AmbientVec,
                    tgrid=(1e-2, 3e-3, 1e-3, 3e-4, 1e-4)):
    """Support-function value sigma of the multiplier over the second-order
    tangent set, measured from the projection expansion
    2 <lam, Pi_K(y + t h) - y - t htan> / t^2 with htan the (finite
    difference) tangent-cone projection of h.  The curvature functional
    of the closed forms must equal the NEGATIVE of this limit."""
    h = np.asarray(h, float)
    htan, _ = fd_proj_deriv(K, gp.y, h)
    pairs = []
    for t in sorted(tgrid, reverse=True):
        val = 2.0 * float(gp.lam @ (project(K, gp.y + t * h) - gp.y - t * htan)) / t ** 2
        pairs.append((t, np.array([val])))
    val, err = _richardson(pairs)
    return float(np.atleast_1d(val)[0]), err


def _dd_cone(A, tol=1e-10):
    """Double description of {u : A u <= 0}: returns (rays, lineality)."""
    A = np.asarray(A, float)
    k = A.shape[1]
    rays = []
    lin = [np.eye(k)[:, j] for j in range(k)]
    for a in A:
        # use a lineality pivot when one is available
        dots = [float(a @ l) for l in lin]
        piv = next((i for i, d in enumerate(dots) if abs(d) > tol), None)
        if piv is not None:
            l0 = lin.pop(piv)
            d0 = dots.pop(piv)
            lin = [l - (float(a @ l) / d0) * l0 for l in lin]
            rays = [r - (float(a @ r) / d0) * l0 for r in rays]
            rays.append(-np.sign(d0) * l0)
            continue
        neg, zero, pos = [], [], []
        for r in rays:
            d = float(a @ r)
            (neg if d < -tol else pos if d > tol else zero).append(r)
        new = list(neg) + list(zero)
        for p in pos:
            dp = float(a @ p)
            for n in neg:
                dn = float(a @ n)
                comb = dp * n - dn * p
                nc = np.linalg.norm(comb)
                if nc > tol:
                    new.append(comb / nc)
        # deduplicate normalized rays
        dedup = []
        for r in new:
            r = r / np.linalg.norm(r)
            if not any(np.linalg.norm(r - q) < 1e-9 for q in dedup):
                dedup.append(r)
        rays = dedup
    rays = [r for r in rays if np.linalg.norm(r) > tol]
    return rays, lin


def polyhedral_trivial_exact(halfspaces: np.ndarray, L: np.ndarray,
                             equalities: np.ndarray | None = None) -> bool:
    """Exact decision of cone ∩ span(L) = {0} for a polyhedral cone given
    in halfspace form {z : halfspaces z <= 0, equalities z = 0}, by double
    description of the pulled-back cone in the subspace coordinates."""
    L = np.asarray(L, float)
    if L.ndim == 1:
        L = L.reshape(-1, 1)
    d = L.shape[0]
    if d > 8:
        raise ValueError("ambient dimension cap (8) exceeded")
    if L.size == 0:
        return True
    u, s, _ = np.linalg.svd(L, full_matrices=False)
    B = u[:, s > 1e-12 * max(1.0, s[0])]
    if B.shape[1] == 0:
        return True
    rows = [np.asarray(halfspaces, float) @ B]
    if equalities is not None and np.asarray(equalities).size:
        E = np.asarray(equalities, float) @ B
        rows += [E, -E]
    A = np.vstack([m for m in rows if m.size]) if any(m.size for m in rows) \
        else np.zeros((0, B.shape[1]))
    rays, lin = _dd_cone(A)
    return not rays and not lin


def ngamma_graph_residual(sys, x, v, d, w, tgrid=(1e-2, 1e-3, 1e-4)):
    """Finite-t residuals of (x + t d, v + t w) against the graph of the
    normal-cone map of Gamma, via least-squares restoration of a
    multiplier in the stationarity-system residual.  The residual is an
    upper-bound proxy for the graph distance: it vanishes exactly on the
    graph, and under the (assumed) subregularity hypotheses it is
    comparable to the distance."""
    from scipy.optimize import least_squares

    x = np.asarray(x, float)
    v = np.asarray(v, float)
    d = np.asarray(d, float)
    w = np.asarray(w, float)
    m = sys.cone.dim
    lam0 = np.zeros(m)
    out = []
    for t in tgrid:
        xt = x + t * d
        vt = v + t * w

        def rows(lam):
            r1 = -vt + sys.adjoint_apply(xt, lam)
            g = sys.g(xt)
            r2 = g - project(sys.cone, g + lam)
            return np.concatenate([r1, r2])

        sol = least_squares(rows, lam0, xtol=1e-14, ftol=1e-14, gtol=1e-14)
        lam0 = sol.x
        out.append(float(np.linalg.norm(rows(sol.x))) / t)
    return out
