"""The four benchmark workloads: seeded inputs, known answers, one op each.

Each workload is a closed loop with one client: the next op starts when
the previous one has returned.  A workload class provides

* ``build(seed, tick)``: the inputs, made only from the seed (timed as
  set-up); it calls ``tick()`` after each round or graph point, so that
  the set-up timer can rescale its clock between stretches of work;
* ``referee(pool)``: the known answer of every input, computed at set-up
  without the routes under test (not timed);
* ``stage(pool)`` (qualify only): writes the inputs' files, untimed;
* ``run(item)``: one op, a single public call that returns a result;
* ``judge(item, answer, result)``: the verdict check, as an ``Outcome``.

A verdict that contradicts the known answer is a failure; so is an
``inconclusive`` verdict on a certificate whose answer is known.  When
an input is one of the pinned instances of a defect listed in
``KNOWN_DEFECTS`` and the wrong verdict is that defect's, it is counted
in ``fail_share`` but tagged with the defect id, so that the run stays
usable; any other failure makes the run incorrect.
"""

import contextlib
import io
import json
import os
import re
from dataclasses import dataclass, field

import numpy as np

# Defects of the code under test that the workloads reproduce on purpose.
# Their wrong verdicts are counted in fail_share; a fix turns them into
# correct verdicts, which the checks accept as well.
KNOWN_DEFECTS = {
    "vacuous-net-holds": (
        "calm-net: the direction net samples the whole sphere, so a thin "
        "critical cone rejects every net point and the net returns holds, "
        "or inconclusive when a net point falls within the gate's margin of "
        "the cone; truth is fails (Gamma = {a.x = 0}, F = -p, no Fx)"),
    "stall-read-as-empty": (
        "qualify: a Dykstra stall in the multiplier search is read as an "
        "empty multiplier set, so a planted multiplier is reported not found "
        "(four pinned instances)"),
}


@dataclass
class Outcome:
    """Checks of one op: certificates returned and contradictions found."""

    certs: int = 0
    inconclusive: int = 0
    wrong: list = field(default_factory=list)  # (label, got, expected, defect)

    def cert(self, verdict):
        self.certs += 1
        self.inconclusive += verdict == "inconclusive"

    def expect(self, label, got, expected, defect=None):
        if got != expected:
            self.wrong.append((label, got, expected, defect))

    @property
    def unexpected(self):
        return [w for w in self.wrong if w[3] is None]


# ---------------------------------------------------------------------------
# random geometry shared by the generators

def rotation(rng, n):
    q, r = np.linalg.qr(rng.standard_normal((n, n)))
    return q * np.sign(np.diag(r))


def svec_ref(M):
    """Scaled upper-triangle vectorization, written out here so that the
    known answers do not depend on the symmat module under test."""
    n = M.shape[0]
    out = []
    for i in range(n):
        for j in range(i, n):
            out.append(M[i, j] * (1.0 if i == j else np.sqrt(2.0)))
    return np.array(out)


def graph_block(rng, kind, size, sign, state, orient=None):
    """A point (y, lam) on the graph of the normal-cone map of one block,
    with lam in the relative interior of N_K(y), plus a basis of the
    linear span of N_K(y).

    kind: psd | soc | orthant | zero | free; state: interior | face | apex
    (face: a proper boundary point).  Eigenvectors and SOC axes are drawn
    from `orient` when given, everything else from `rng`.
    """
    orient = orient or rng
    if kind == "psd":
        U = rotation(orient, size)
        ry = {"interior": size, "face": int(rng.integers(1, size)),
              "apex": 0}[state]
        ey = np.concatenate([rng.uniform(0.5, 2.0, ry), np.zeros(size - ry)])
        el = np.concatenate([np.zeros(ry), -rng.uniform(0.5, 2.0, size - ry)])
        y = sign * svec_ref((U * ey) @ U.T)
        lam = sign * svec_ref((U * el) @ U.T)
        U0 = U[:, ry:]
        span = []
        for i in range(size - ry):
            for j in range(i, size - ry):
                E = np.zeros((size - ry, size - ry))
                E[i, j] = E[j, i] = 1.0
                span.append(svec_ref(U0 @ E @ U0.T))
        return y, lam, _basis(span, svec_size(size))
    if kind == "soc":
        t = orient.standard_normal(size - 1)
        t /= np.linalg.norm(t)
        r = rng.uniform(0.5, 2.0)
        if state == "interior":
            y, lam, span = np.concatenate([[2 * r], r * t]), np.zeros(size), []
        elif state == "face":
            c = rng.uniform(0.5, 2.0)
            y = np.concatenate([[r], r * t])
            lam = -c * np.concatenate([[1.0], -t])
            span = [lam]
        else:
            b = rng.standard_normal(size - 1)
            b *= rng.uniform(0.1, 0.8) * r / np.linalg.norm(b)
            y, lam = np.zeros(size), -np.concatenate([[r], b])
            span = list(np.eye(size))
        return sign * y, sign * lam, _basis(span, size)
    if kind == "orthant":
        active = rng.random(size) < 0.5 if state == "face" else \
            np.full(size, state == "apex")
        y = np.where(active, 0.0, rng.uniform(0.5, 2.0, size))
        lam = np.where(active, -rng.uniform(0.5, 2.0, size), 0.0)
        span = [np.eye(size)[i] for i in range(size) if active[i]]
        return sign * y, sign * lam, _basis(span, size)
    if kind == "zero":
        return np.zeros(size), rng.standard_normal(size), np.eye(size)
    if kind == "free":
        return rng.standard_normal(size), np.zeros(size), np.zeros((size, 0))
    raise ValueError(f"unknown block kind {kind!r}")


def svec_size(order):
    return order * (order + 1) // 2


def _basis(vectors, dim):
    return np.array(vectors).T if len(vectors) else np.zeros((dim, 0))


def make_cone(blocks):
    import conestab as cs

    ctor = {"psd": cs.PSD, "soc": cs.SOC, "orthant": cs.Orthant}
    out = []
    for kind, size, sign in blocks:
        if kind in ctor:
            out.append(ctor[kind](size, "plus" if sign > 0 else "minus"))
        else:
            out.append({"zero": cs.Zero, "free": cs.Free}[kind](size))
    return cs.ConeDesc(out)


def cone_json(blocks):
    out = []
    for kind, size, sign in blocks:
        key = {"psd": "order"}.get(kind, "dim")
        spec = {key: size}
        if kind in ("psd", "soc", "orthant"):
            spec["sign"] = "plus" if sign > 0 else "minus"
        out.append({kind: spec})
    return {"product": out}


def run_cli(argv):
    """conestab.cli.main in-process; returns (exit code, stdout text)."""
    from conestab import cli

    buf = io.StringIO()
    with contextlib.redirect_stdout(buf), \
            contextlib.redirect_stderr(io.StringIO()):
        rc = cli.main(argv)
    return rc, buf.getvalue()


# ---------------------------------------------------------------------------
# paper-repro

class PaperRepro:
    """The six pinned scenarios via `repro <name> --report json`."""

    name = "paper-repro"
    SCENARIOS = ("example1", "example2", "example3", "example41", "kkt_lp",
                 "section32")
    PASSES = 40
    _LINE = re.compile(r": (holds|fails|inconclusive) \(expected ")

    def build(self, seed, tick=lambda: None):
        rng = np.random.default_rng(seed)
        # one shuffled order per pass, so every scenario runs equally often
        return [{"scenario": s, "round": r,
                 "curved": s in ("example1", "example2", "example3",
                                 "example41")}
                for r in range(self.PASSES)
                for s in rng.permutation(self.SCENARIOS)]

    def referee(self, pool):
        # exit code 0: every pinned verdict matches.  The pinned verdicts
        # are all holds or fails, so an inconclusive one fails the scenario.
        return [0] * len(pool)

    def run(self, item):
        return run_cli(["repro", item["scenario"], "--report", "json"])

    def judge(self, item, answer, result):
        rc, text = result
        out = Outcome()
        out.expect(f"{item['scenario']} exit code", rc, answer)
        report = json.loads(text)
        for line in report["lines"]:
            m = self._LINE.search(line)
            if m:
                out.cert(m.group(1))
        out.expect(f"{item['scenario']} failures", report["failures"], [])
        return out


# ---------------------------------------------------------------------------
# qualify

class Qualify:
    """`analyze` requests on affine systems over mixed cones, at boundary
    points with a planted relative-interior multiplier."""

    name = "qualify"
    # (blocks as (kind, size, state), dim_x).  The cone dimension is
    # dim_x + 1, so the adjoint kernel is a line and each triviality
    # decision has two ascent directions.  srcq holds on some shapes and
    # fails on others.
    SHAPES = (
        ((("psd", 2, "apex"),), 2),
        ((("psd", 3, "face"),), 5),
        ((("psd", 2, "face"), ("soc", 3, "face")), 5),
        ((("psd", 4, "face"),), 9),
        ((("soc", 3, "face"), ("orthant", 2, "face")), 4),
        ((("soc", 4, "apex"),), 3),
        ((("orthant", 3, "face"), ("zero", 1, None), ("free", 1, None)), 4),
        ((("orthant", 4, "face"), ("zero", 1, None)), 4),
    )
    ROUNDS = 72
    # Instances on which the multiplier search stalls and reports "not
    # found" (known defect stall-read-as-empty), made by `_instance` from
    # a fixed generator seed.  Their families (PSD(3) x R^2_+ at dim_x
    # 3-4, SOC(3) apex x R_+) cost up to a minute per request on other
    # draws, so they run only as these pinned instances.
    PINNED = (
        (19, ((("psd", 3, "face"), ("orthant", 2, "face")), 4)),
        (61, ((("psd", 3, "face"), ("orthant", 2, "face")), 3)),
        (62, ((("soc", 3, "apex"), ("orthant", 1, "face")), 3)),
        (74, ((("soc", 3, "apex"), ("orthant", 1, "face")), 3)),
    )

    def __init__(self, workdir):
        self.workdir = workdir

    def build(self, seed, tick=lambda: None):
        """The problems and their JSON text; `stage` writes the files."""
        rng = np.random.default_rng(seed)
        pool = []
        pinned = {r * self.ROUNDS // len(self.PINNED): p
                  for r, p in enumerate(self.PINNED)}
        for r in range(self.ROUNDS):
            draws = [(rng, shape, n) for shape, n in self.SHAPES]
            if r in pinned:
                pin_seed, (shape, n) = pinned[r]
                draws.append((np.random.default_rng(pin_seed), shape, n))
            for s, (gen, shape, n) in enumerate(draws):
                item = self._instance(gen, shape, n,
                                      conditioned=gen is rng)
                item["round"] = r
                item["defect"] = None if gen is rng else \
                    "stall-read-as-empty"
                stem = os.path.join(self.workdir, f"q{r:02d}_{s:02d}")
                item["problem"], item["point"] = stem + ".problem.json", \
                    stem + ".point.json"
                item["problem_json"] = json.dumps(
                    {"cone": cone_json(item["blocks"]),
                     "mapping": {"affine": {"A": item["A"].tolist(),
                                            "b": item["b"].tolist()}}})
                item["point_json"] = json.dumps(
                    {"x": item["x"].tolist(), "v": item["v"].tolist()})
                pool.append(item)
            tick()
        return pool

    def stage(self, pool):
        """Write the JSON files of `pool` (once per run, after set-up)."""
        os.makedirs(self.workdir, exist_ok=True)
        for item in pool:
            for key in ("problem", "point"):
                with open(item[key], "w") as fh:
                    fh.write(item[key + "_json"])

    @staticmethod
    def _instance(rng, shape, n, conditioned=True):
        """One problem over `shape` with dim_x = n.  When `conditioned`
        (cone dimension n + 1), the kernel line k of A^T makes an angle
        of 45 degrees with span N_K(y) (unless that span is the whole
        space or {0}), and A has singular values from 0.7 to 1.4;
        otherwise A is Gaussian, whose nearly degenerate draws cost
        Dykstra cycles up to the cap."""
        blocks, ys, lams, spans = [], [], [], []
        for kind, size, state in shape:
            sign = 1 if kind in ("zero", "free") or rng.random() < 0.7 else -1
            y, lam, span = graph_block(rng, kind, size, sign, state)
            blocks.append((kind, size, sign))
            ys.append(y)
            lams.append(lam)
            spans.append(span)
        y, lam = np.concatenate(ys), np.concatenate(lams)
        m = y.size
        N = np.zeros((m, sum(s.shape[1] for s in spans)))
        r = c = 0
        for s in spans:
            N[r:r + s.shape[0], c:c + s.shape[1]] = s
            r, c = r + s.shape[0], c + s.shape[1]
        if conditioned:
            A = Qualify._conditioned_matrix(rng, N, m, n)
        else:
            A = rng.standard_normal((m, n))
        x = rng.standard_normal(n)
        return {"blocks": blocks, "A": A, "b": y - A @ x, "x": x,
                "v": A.T @ lam, "lam": lam, "span_normal": N,
                "curved": any(k in ("psd", "soc") for k, _, _ in blocks)}

    @staticmethod
    def _conditioned_matrix(rng, N, m, n):
        u, sv, _ = np.linalg.svd(N) if N.shape[1] else (np.eye(m), [], None)
        d = int(np.sum(np.asarray(sv) > 1e-12))
        if 0 < d < m:
            a = u[:, :d] @ rng.standard_normal(d)
            b = u[:, d:] @ rng.standard_normal(m - d)
            theta = np.radians(45.0)
            k = np.cos(theta) * a / np.linalg.norm(a) + \
                np.sin(theta) * b / np.linalg.norm(b)
        else:
            k = rng.standard_normal(m)
        # orthonormal basis of the complement of k, mixed by a matrix with
        # singular values in [0.5, 2]
        basis = np.linalg.svd(k.reshape(1, -1))[2][1:].T
        mix = rotation(rng, n) * np.linspace(0.7, 1.4, n)
        return basis[:, :n] @ mix @ rotation(rng, n)

    def referee(self, pool):
        from conestab.oracle import polyhedral_trivial_exact

        answers = []
        for item in pool:
            A, N = item["A"], item["span_normal"]
            # srcq <=> ker A^T meets span N_K(y) only at 0 (lam is in the
            # relative interior), i.e. A^T restricted to span N is injective
            sv = np.linalg.svd(A.T @ N, compute_uv=False) if N.shape[1] \
                else np.ones(1)
            full = N.shape[1] <= A.shape[1] and sv.min() > 1e-6 * sv.max()
            srcq = "holds" if full else "fails"
            if not item["curved"]:
                u, s, vt = np.linalg.svd(A.T)
                ker = vt[int(np.sum(s > 1e-12 * s[0])):].T
                comp = np.linalg.svd(N.T)[2][N.shape[1]:] if N.shape[1] \
                    else np.eye(A.shape[0])
                exact = polyhedral_trivial_exact(
                    np.zeros((0, A.shape[0])), ker, comp)
                if exact != full:
                    raise RuntimeError("referees disagree on a polyhedral srcq")
            answers.append({"srcq": srcq})
        return answers

    def run(self, item):
        return run_cli(["analyze", "--problem", item["problem"],
                        "--point", item["point"], "--report", "json"])

    def judge(self, item, answer, result):
        rc, text = result
        out = Outcome()
        out.expect("exit code", rc, 0)
        if rc != 0:
            return out
        report = json.loads(text)
        found = any(l.startswith("multiplier: found") for l in report["lines"])
        out.expect("multiplier", found, True, defect=item["defect"])
        certs = {c["name"]: c for c in report["certificates"]}
        for c in certs.values():
            out.cert(c["verdict"])
        if not found:
            return out
        srcq = certs["srcq"]
        out.expect("srcq", srcq["verdict"], answer["srcq"])
        if srcq["verdict"] == "fails":
            w = np.asarray(srcq["witness"], float)
            nrm = float(np.linalg.norm(w))
            ker_res = float(np.linalg.norm(item["A"].T @ w))
            out.expect("srcq witness nonzero and in ker A^T",
                       nrm > 1e-6 and ker_res <= 1e-6 * nrm, True)
        # a relative-interior multiplier is planted: strict
        # complementarity holds
        out.expect("strict_complementarity",
                   certs["strict_complementarity"]["verdict"], "holds")
        return out


# ---------------------------------------------------------------------------
# calm-net

class CalmNet:
    """Direction-net `solution_map_isolated_calm` on non-polyhedral GE
    problems 0 in F(p, x) + N_Gamma(x) with affine g and lam = 0."""

    name = "calm-net"
    NET_K = 3
    # (blocks as (kind, size, state), dim_x); every block active at the
    # base point.  More active blocks give a thinner critical cone and a
    # lower gate-pass share (about 1% to 15% here).  With the known-fails
    # and thin instances, a round has seven ops, and the median op falls
    # inside one shape's cost range rather than between two.
    SHAPES = (
        ((("soc", 3, "apex"),), 3),
        ((("psd", 2, "apex"),), 3),
        ((("psd", 2, "face"), ("orthant", 2, "apex")), 5),
        ((("soc", 3, "face"), ("psd", 2, "apex")), 6),
        ((("psd", 2, "apex"), ("soc", 3, "apex"), ("orthant", 1, "apex")), 7),
    )
    ROUNDS = 28

    def build(self, seed, tick=lambda: None):
        rng = np.random.default_rng(seed)
        pool = []
        for r in range(self.ROUNDS):
            items = [self._instance(rng, k, extra=0)
                     for k in range(len(self.SHAPES))]
            # known fails: one coordinate enters neither g nor F
            items.append(self._instance(rng, r % len(self.SHAPES), extra=1))
            items.append(self._thin_instance(rng))
            for item in items:
                item["round"] = r
            pool += items
            tick()
        return pool

    def _instance(self, rng, k, extra):
        """Shape k at a seeded base point.  The frame Q of g(x) = Qx + b,
        the eigenvectors and the SOC axes are fixed per shape, so the net
        meets the critical cone the same way for every seed and the
        gate-pass share is a property of the shape; the seed draws the
        eigenvalues, radii and the base point."""
        from conestab import stability, constraint_system

        shape, n = self.SHAPES[k]
        orient = np.random.default_rng(1000 + k)
        frame = rotation(orient, n)
        blocks, ys = [], []
        for b, (kind, size, state) in enumerate(shape):
            sign = -1 if b % 2 else 1
            y, _, _ = graph_block(rng, kind, size, sign, state, orient)
            blocks.append((kind, size, sign))
            ys.append(y)
        y = np.concatenate(ys)
        dim = n + extra
        A = np.zeros((y.size, dim))
        A[:, :n] = frame[:y.size]
        x = np.concatenate([rng.standard_normal(n), np.zeros(extra)])
        mask = np.concatenate([np.ones(n), np.zeros(extra)])
        sysm = constraint_system.affine_system(make_cone(blocks), A, y - A @ x)
        problem = stability.GEProblem(
            sysm, F=lambda p, xx: mask * (-np.asarray(p) - np.asarray(xx)),
            Fprime=lambda base, d: mask * (-np.asarray(d[0])
                                           - np.asarray(d[1])),
            pbar=-mask * x, xbar=x, name="calm-net")
        return {"problem": problem, "lam": np.zeros(y.size),
                "truth": "fails" if extra else "holds", "defect": None,
                "curved": True}

    @staticmethod
    def _thin_instance(rng):
        """Gamma = {x : a.x = 0}, F(p, x) = -p, no Fx: S(0) contains Gamma,
        so the solution map is not isolated calm."""
        from conestab import stability, constraint_system

        a = rng.standard_normal(2)
        sysm = constraint_system.affine_system(
            make_cone([("zero", 1, 1)]), a.reshape(1, 2), np.zeros(1))
        problem = stability.GEProblem(
            sysm, F=lambda p, xx: -np.asarray(p, float),
            Fprime=lambda base, d: -np.asarray(d[0], float),
            pbar=np.zeros(2), xbar=np.zeros(2), name="calm-net-thin")
        return {"problem": problem, "lam": np.zeros(1), "truth": "fails",
                "defect": "vacuous-net-holds", "curved": False}

    def referee(self, pool):
        # known by construction: lam = 0 and F = -p - x force d = 0 on the
        # critical cone; the extra coordinate and the thin set give S(0)
        # a nonzero direction
        return [item["truth"] for item in pool]

    def run(self, item):
        from conestab.stability import solution_map_isolated_calm

        return solution_map_isolated_calm(item["problem"], item["lam"],
                                          net_k=self.NET_K)

    def judge(self, item, answer, cert):
        out = Outcome()
        out.cert(cert.verdict)
        out.expect("isolated calmness", cert.verdict, answer,
                   defect=item["defect"])
        return out


# ---------------------------------------------------------------------------
# cone-ladder

class ConeLadder:
    """`dnk_contains` on graph points along PSD order 2..30 and SOC
    dimension 3..50."""

    name = "cone-ladder"
    PSD_ORDERS = (2, 3, 4, 6, 8, 12, 16, 20, 25, 30)
    SOC_DIMS = (3, 5, 8, 12, 20, 30, 40, 50)
    POINTS = 6  # graph points per rung
    PAIRS = 4  # per graph point: half members, half perturbed pairs

    def build(self, seed, tick=lambda: None):
        import conestab as cs
        from conestab.proj_deriv import GraphPoint

        rng = np.random.default_rng(seed)
        pool = []
        rungs = [("psd", n) for n in self.PSD_ORDERS] + \
            [("soc", n) for n in self.SOC_DIMS]
        for point, (kind, size) in enumerate(rungs * self.POINTS):
            K = make_cone([(kind, size, 1)])
            z = self._graph_z(rng, kind, size, point // len(rungs))
            gp = GraphPoint.from_z(K, z)
            for j in range(self.PAIRS):
                h = rng.standard_normal(K.dim)
                dy = cs.proj_dir_deriv(K, z, h)
                dl = h - dy
                if j % 2:
                    e = rng.standard_normal(K.dim)
                    e *= 0.3 * np.linalg.norm(h) / np.linalg.norm(e)
                    dy, dl = dy + e, dl - 0.5 * e
                pool.append({"cone": K, "gp": gp, "dy": dy, "dl": dl,
                             "member": j % 2 == 0, "rung": f"{kind}{size}",
                             "round": 0, "curved": True})
            tick()
        return pool

    @staticmethod
    def _graph_z(rng, kind, size, point):
        """z = y + lam with a common zero part, so Pi_K is nonsmooth at z.
        The eigenvalue pattern (PSD) and the apex or boundary choice (SOC)
        follow the point index; the seed moves orientations and values."""
        if kind == "psd":
            U = rotation(rng, size)
            k0 = max(1, size // 4)
            kp = (size - k0) * (point % 3) // 2
            ev = np.concatenate([rng.uniform(0.5, 2.0, kp), np.zeros(k0),
                                 -rng.uniform(0.5, 2.0, size - k0 - kp)])
            return svec_ref((U * ev) @ U.T)
        if point % 2 == 0:  # boundary point with zero multiplier
            t = rng.standard_normal(size - 1)
            t /= np.linalg.norm(t)
            return np.concatenate([[1.0], t]) * rng.uniform(0.5, 2.0)
        return np.zeros(size)  # apex

    def referee(self, pool):
        from conestab.oracle import graph_tangent_residual

        answers = []
        for item in pool:
            res = graph_tangent_residual(item["cone"], item["gp"],
                                         item["dy"], item["dl"])
            scale = 1.0 + np.linalg.norm(item["dy"]) + np.linalg.norm(item["dl"])
            if res[-1] <= 1e-4 * scale and res[-1] <= 0.2 * res[0] + 1e-9:
                answers.append("holds")
            elif res[-1] >= 1e-2 * scale and res[-1] >= 0.5 * res[0]:
                answers.append("fails")
            else:
                raise RuntimeError(f"finite-t referee cannot classify "
                                   f"{item['rung']}: {res}")
            if item["member"] and answers[-1] != "holds":
                raise RuntimeError("a member built from dir_deriv failed "
                                   "the finite-t referee")
        return answers

    def run(self, item):
        from conestab.proj_deriv import dnk_contains

        return dnk_contains(item["cone"], item["gp"], item["dy"], item["dl"])

    def judge(self, item, answer, cert):
        out = Outcome()
        out.cert(cert.verdict)
        out.expect(f"dnk_contains {item['rung']}", cert.verdict, answer)
        return out


def make(name, workdir):
    if name == "qualify":
        return Qualify(workdir)
    return {"paper-repro": PaperRepro, "calm-net": CalmNet,
            "cone-ladder": ConeLadder}[name]()


NAMES = ("paper-repro", "qualify", "calm-net", "cone-ladder")
