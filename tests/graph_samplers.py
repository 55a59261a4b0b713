"""Reference samplers for the graph of the normal-cone map of a feasible
set Gamma = g^{-1}(K), with their own block geometry.

They referee `ngamma_graph_deriv_contains` and the critical cone it
reads, so the tangent sampler shares no code with either: the test of
g'(x)d against the critical cone and the normal cone to the critical
cone are written here block by block, from the blocks' types and signs,
`symmat` and numpy.  The lower sampler takes the critical cone under
test as an argument, so its samples referee that cone against the
independent tangents.

Both samplers need a zero multiplier on every curved (PSD or SOC)
block.  There the critical cone of the block is its tangent cone at y,
the curvature term grad Upsilon vanishes, and for affine g the sampled
curves stay on the graph exactly.
"""

import numpy as np

from conestab.cone_core import PSD, SOC, Free, Orthant, Zero
from conestab.symmat import smat, svec

ZERO = 1e-9   # a value within ZERO (1 + scale) of 0 is read as 0
GATE = 1e-10  # g'(x)d is critical within GATE (1 + ||g'(x)d||)


def _is_zero(v, scale):
    return float(np.linalg.norm(v)) <= \
        ZERO * (1.0 + float(np.linalg.norm(scale)))


def _soc_case(u):
    """'apex', 'int' or 'bd' for a point u of the plus second-order cone."""
    scale = ZERO * max(1.0, float(np.linalg.norm(u)))
    if float(np.linalg.norm(u)) <= scale:
        return "apex"
    if u[0] - float(np.linalg.norm(u[1:])) > scale:
        return "int"
    return "bd"


def _soc_outward(u):
    """The outward normal direction (-1, ubar/||ubar||) at a boundary
    point u of the plus second-order cone."""
    return np.concatenate([[-1.0], u[1:] / np.linalg.norm(u[1:])])


def _psd_kernel(G):
    """Orthonormal columns spanning the eigenvectors of the symmetric G
    whose eigenvalues are within ZERO (1 + max |eigenvalue|) of 0."""
    w, U = np.linalg.eigh(G)
    return U[:, np.abs(w) <= ZERO * (1 + np.abs(w).max())]


def _critical_violation(block, y, lam, gd):
    """How far gd is from the block's critical cone at (y, lam), 0 inside
    it: the distance for Zero, Orthant and the SOC half-space, the
    negative part of the eigenvalues of U0^T smat(gd) U0 on the kernel U0
    of y for PSD, and of ||gd_bar|| - gd_0 at the SOC apex.  Curved
    blocks must have lam = 0, so their critical cone is T_K(y)."""
    if isinstance(block, Free):
        return 0.0
    if isinstance(block, Zero):
        return float(np.linalg.norm(gd))
    s = block.sign
    if isinstance(block, Orthant):
        viol = np.zeros(block.dim)
        for i in range(block.dim):
            if abs(y[i]) > ZERO * (1.0 + float(np.linalg.norm(y))):
                continue
            # a strictly active multiplier leaves {0}, else the sign s
            viol[i] = abs(gd[i]) if s * lam[i] < -ZERO \
                else max(0.0, -s * gd[i])
        return float(np.linalg.norm(viol))
    if isinstance(block, PSD):
        U0 = _psd_kernel(s * smat(y))
        if U0.shape[1] == 0:
            return 0.0
        w = np.linalg.eigvalsh(U0.T @ (s * smat(gd)) @ U0)
        return float(np.linalg.norm(np.minimum(w, 0.0)))
    if isinstance(block, SOC):
        u, gu = s * y, s * gd
        case = _soc_case(u)
        if case == "int":
            return 0.0
        if case == "apex":
            return max(0.0, float(np.linalg.norm(gu[1:])) - gu[0])
        return max(0.0, float(_soc_outward(u) @ gu)) / np.sqrt(2.0)
    raise ValueError("unsupported block type for exact sampling")


def normal_to_critical_sample(block, y, lam, gd, rng):
    """An exact member of the normal cone to the block's critical cone C
    at a critical gd.  PSD and SOC blocks are read in the plus cone
    through block.sign, as the mirror of the cone is:
    N_{-C}(gd) = -N_C(-gd)."""
    scale = 1.0 + float(np.linalg.norm(gd))
    if isinstance(block, Free):
        return np.zeros(block.dim)
    if isinstance(block, Zero):
        return rng.standard_normal(block.dim)
    s = block.sign
    if isinstance(block, Orthant):
        q = np.zeros(block.dim)
        for i in range(block.dim):
            if abs(y[i]) > ZERO * (1.0 + float(np.linalg.norm(y))):
                continue
            if s * lam[i] < -ZERO:
                # the critical coordinate is {0}: its normal is the line
                q[i] = rng.standard_normal()
            elif abs(gd[i]) <= ZERO * scale:
                q[i] = -s * abs(rng.standard_normal())
        return q
    if not _is_zero(lam, y):
        raise ValueError("exact sampling needs a zero block multiplier")
    if isinstance(block, PSD):
        # C = T_K(y); its normal at gd is supported on the joint kernel
        # of y and gd, on the opposite side of the cone
        U0 = _psd_kernel(s * (smat(y) + smat(gd)))
        if U0.shape[1] == 0:
            return np.zeros(block.dim)
        A = rng.standard_normal((U0.shape[1], U0.shape[1]))
        return -s * svec(U0 @ (A @ A.T) @ U0.T)
    if isinstance(block, SOC):
        u, gu = s * y, s * gd
        case = _soc_case(u)
        if case == "int":
            return np.zeros(block.dim)
        if case == "apex":
            # C = K: N_K(gu) is -K at 0, {0} inside, a ray on the boundary
            gcase = _soc_case(gu)
            if gcase == "int":
                return np.zeros(block.dim)
            if gcase == "apex":
                r = rng.standard_normal(block.dim)
                r[0] = -abs(r[0]) - float(np.linalg.norm(r[1:]))
                return s * r
            ray = np.concatenate([[-gu[0]], gu[1:]])
        else:
            # C = {h : a.h <= 0}: N_C(gu) is the ray of a when a.gu = 0
            ray = _soc_outward(u)
            if float(ray @ gu) < -ZERO * scale:
                return np.zeros(block.dim)
        return s * abs(rng.standard_normal()) * ray
    raise ValueError("unsupported block type for exact sampling")


def _base(sys, x, lam):
    x, lam = np.asarray(x, float), np.asarray(lam, float)
    return x, lam, sys.g(x), sys.jacobian(x), sys.hess_lambda(x, lam)


def ngamma_tangent_generate(sys, x, lam, count=50, seed=0):
    """Exact members (d, w) of the graph tangent of the feasible-set
    normal-cone map at (x, v = grad g(x) lam): d is rejection-sampled with
    g'(x)d in the critical cone of K at (g(x), lam), and
    w = Hess d + grad g(x) q with q an exact member of the normal cone to
    that critical cone at g'(x)d, built blockwise."""
    x, lam, gx, J, H = _base(sys, x, lam)
    blocks = [(b, gx[sl], lam[sl], sl)
              for b, sl in zip(sys.cone.blocks, sys.cone.slices)]
    for b, y, lb, _ in blocks:
        if not b.is_polyhedral and not _is_zero(lb, y):
            raise ValueError("exact sampling needs a zero block multiplier")
    rng = np.random.default_rng(seed)
    pairs = []
    attempts = 0
    while len(pairs) < count and attempts < 500 * count:
        attempts += 1
        d = rng.standard_normal(sys.dim_x)
        gd = J @ d
        viol = np.linalg.norm([_critical_violation(b, y, lb, gd[sl])
                               for b, y, lb, sl in blocks])
        if viol > GATE * (1 + np.linalg.norm(gd)):
            continue
        q = np.concatenate([normal_to_critical_sample(b, y, lb, gd[sl], rng)
                            for b, y, lb, sl in blocks])
        pairs.append((d, H @ d + J.T @ q))
    if len(pairs) < count:
        raise RuntimeError("rejection sampling starved; critical cone too "
                           "thin")
    return pairs


def regular_normal_lower_generate(sys, x, lam, C, count=20, seed=0):
    """Pairs (xi, eta) meant to lie in the regular normal cone to the
    graph of the feasible-set normal-cone map at (x, v = grad g(x) lam),
    built from the critical cone C under test: mu is drawn from C°, eta
    so that g'(x)eta lands in C (rejection sampling) when the multiplier
    is zero or K is polyhedral, and in Ker g'(x) otherwise, and
    xi = -Hess eta + grad g(x) mu.  When C is right, every pair
    anti-aligns with every graph tangent: <xi, d> + <eta, w> <= 0."""
    x, lam, gx, J, H = _base(sys, x, lam)
    Cp = C.polar()
    rng = np.random.default_rng(seed)
    free_eta = _is_zero(lam, gx) or sys.cone.is_polyhedral
    if not free_eta:
        _, s, vt = np.linalg.svd(J)
        ker = vt[int(np.sum(s > ZERO * s[0])):].T

    pairs = []
    attempts = 0
    while len(pairs) < count and attempts < 200 * count:
        attempts += 1
        mu = Cp.project(rng.standard_normal(sys.cone.dim))
        if free_eta:
            eta = rng.standard_normal(sys.dim_x)
            if C.dist(J @ eta) > GATE * (1 + np.linalg.norm(J @ eta)):
                continue
        else:
            eta = ker @ rng.standard_normal(ker.shape[1])
        pairs.append((-(H @ eta) + J.T @ mu, eta))
    if len(pairs) < count:
        raise RuntimeError("rejection sampling starved; cone slice too thin")
    return pairs
