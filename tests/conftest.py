"""Shared fixtures: a seeded mixed-cone affine system with a planted
multiplier, a system whose multiplier search takes the Dykstra route,
a generalized equation whose multiplier is 0, `conestab analyze
--report json` run in-process, and an exact comparison of two
certificates."""

import json

import numpy as np
import pytest

from conestab._sets import Certificate
from conestab.cli import main
from conestab.cone_core import ConeDesc, PSD, SOC, Orthant
from conestab.constraint_system import affine_system
from conestab.jsonio import emit_cone
from conestab.stability import GEProblem
from conestab.symmat import svec


@pytest.fixture
def planted():
    """Factory (seed, srcq_holds) -> (sys, x, v, lam, problem object).

    PSD(2) x SOC(3) x R^2 orthant, each block signed plus or minus by the
    seed, at a boundary point y with a planted strictly complementary
    multiplier lam, and g(x) = A x + b in R^8 with dim_x = 7 and
    b = y - A x.  A has singular values 0.7 to 1.4 and the adjoint kernel
    is one line k.  srcq fails exactly when k meets span N_K(y), so k is
    drawn inside that span or, for `srcq_holds`, in general position."""
    def make(seed, srcq_holds):
        rng = np.random.default_rng(seed)
        U, _ = np.linalg.qr(rng.standard_normal((2, 2)))
        r = rng.standard_normal(2)
        r /= np.linalg.norm(r)
        signs = rng.choice([1.0, -1.0], size=3)
        ys = [svec(np.outer(U[:, 0], U[:, 0])), np.concatenate([[1.0], r]),
              np.array([0.0, 1.0])]
        lams = [-svec(np.outer(U[:, 1], U[:, 1])),
                np.concatenate([[-1.0], r]), np.array([-1.0, 0.0])]
        y = np.concatenate([s * b for s, b in zip(signs, ys)])
        lam = np.concatenate([s * b for s, b in zip(signs, lams)])
        names = ["plus" if s > 0 else "minus" for s in signs]
        cone = ConeDesc([PSD(2, names[0]), SOC(3, names[1]),
                         Orthant(2, names[2])])
        if srcq_holds:
            k = rng.standard_normal(cone.dim)
        else:
            # the block parts of lam span N_K(y)
            k = np.concatenate([c * b for c, b in
                                zip(rng.standard_normal(3), lams)])
        basis = np.linalg.svd(k.reshape(1, -1))[2][1:].T
        mix, _ = np.linalg.qr(rng.standard_normal((7, 7)))
        A = basis @ (mix * np.linspace(0.7, 1.4, 7))
        x = rng.standard_normal(7)
        b = y - A @ x
        problem = {"cone": emit_cone(cone),
                   "mapping": {"affine": {"A": A.tolist(), "b": b.tolist()}}}
        return affine_system(cone, A, b), x, A.T @ lam, lam, problem
    return make


@pytest.fixture
def wide_fiber():
    """Factory (ri) -> (sys, x, v, lam, problem object) like `planted`'s.

    R^2_+ x R^2_+ at its apex 0 with dim_x = 2, so ker J^T ∩ span N is a
    plane: the multiplier search takes the Dykstra route, whose
    multiplier is not relative-interior and at which srcq fails, and
    span(P J U_v) is a line.  With `ri` the planted multiplier is
    relative-interior; without it every multiplier has lam_1 = 0, and
    the strict-complementarity alternative fails with u = e_1."""
    def make(ri):
        if ri:
            A = np.array([[1.0, 0.0], [-1.0, 0.0], [0.0, 1.0],
                          [0.0, -1.0]]) / np.sqrt(2.0)
            lam = np.array([-1.0, -2.0, -1.0, -1.0])
        else:
            A = np.array([[1.0, 0.3], [0.0, 1.0], [0.0, -0.5], [0.0, 0.8]])
            lam = np.array([0.0, -1.0, -1.0, -1.0])
        cone = ConeDesc([Orthant(2), Orthant(2)])
        x = np.array([0.4, -0.7])
        problem = {"cone": emit_cone(cone),
                   "mapping": {"affine": {"A": A.tolist(),
                                          "b": (-A @ x).tolist()}}}
        return affine_system(cone, A, -A @ x), x, A.T @ lam, lam, problem
    return make


@pytest.fixture
def analyze(tmp_path, capsys):
    """Runs `analyze --report json` on a problem object and a point object
    (numpy arrays allowed); returns the exit code and the report (None
    unless the exit code is 0)."""
    def run(problem, point):
        for name, obj in (("problem", problem), ("point", point)):
            (tmp_path / f"{name}.json").write_text(
                json.dumps(obj, default=lambda a: np.asarray(a).tolist()))
        capsys.readouterr()
        rc = main(["analyze", "--problem", str(tmp_path / "problem.json"),
                   "--point", str(tmp_path / "point.json"),
                   "--report", "json"])
        out = capsys.readouterr().out
        return rc, json.loads(out) if rc == 0 else None
    return run


@pytest.fixture
def calm_problem():
    """Factory (cone, y, extra, rng) -> GEProblem 0 in F(p, x) + N_Gamma(x).

    g(x) = A x + b with g(x) = y at a Gaussian x, A = [Q | 0] for an
    orthogonal Q drawn from rng and `extra` zero columns; F = -p - x on
    the first dim K coordinates of x and 0 on the extra ones, and
    pbar = -x, so vbar = 0 and lam = 0 is the multiplier.  The solution
    map is isolated calm exactly when `extra` is 0: an extra coordinate
    enters neither g nor F."""
    def make(cone, y, extra, rng):
        m = cone.dim
        A = np.zeros((m, m + extra))
        A[:, :m] = np.linalg.qr(rng.standard_normal((m, m)))[0]
        x = np.concatenate([rng.standard_normal(m), np.zeros(extra)])
        mask = np.concatenate([np.ones(m), np.zeros(extra)])
        return GEProblem(
            affine_system(cone, A, y - A @ x),
            F=lambda p, xx: mask * (-np.asarray(p) - np.asarray(xx)),
            Fprime=lambda base, d: mask * (-np.asarray(d[0])
                                           - np.asarray(d[1])),
            pbar=-mask * x, xbar=x)
    return make


@pytest.fixture
def same_certificate():
    """(a, b) -> whether two certificates agree exactly: verdict,
    residual, witness, method and details, arrays bit for bit and nested
    dicts, lists, tuples and certificates likewise."""
    def same(a, b):
        if isinstance(a, Certificate) or isinstance(b, Certificate):
            return type(a) is type(b) and all(
                same(getattr(a, f), getattr(b, f)) for f in
                ("verdict", "residual", "witness", "method", "details"))
        if isinstance(a, np.ndarray) or isinstance(b, np.ndarray):
            return type(a) is type(b) and a.dtype == b.dtype and \
                np.array_equal(a, b)
        if isinstance(a, dict):
            return isinstance(b, dict) and a.keys() == b.keys() and \
                all(same(a[k], b[k]) for k in a)
        if isinstance(a, (list, tuple)):
            return type(a) is type(b) and len(a) == len(b) and \
                all(map(same, a, b))
        return a == b
    return same
