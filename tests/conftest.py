"""Shared fixtures: a seeded mixed-cone affine system with a planted
multiplier, a system whose multiplier search takes the Dykstra route,
and `conestab analyze --report json` run in-process."""

import json

import numpy as np
import pytest

from conestab.cli import main
from conestab.cone_core import ConeDesc, PSD, SOC, Orthant
from conestab.constraint_system import affine_system
from conestab.jsonio import emit_cone
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
