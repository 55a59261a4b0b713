"""Per-layer spans taken from outside the package.

`Tracer.install()` wraps the public functions of each conestab layer in
place: every module attribute that refers to a wrapped function is
rebound, so calls made through `from .x import f` names are caught too.
Each span records calls and self time (its duration minus the part its
child spans cover).  There is one thread, so no layer waits.
`uninstall()` restores the original functions.
"""

import sys
import time
from collections import defaultdict

import numpy as np

# (module, attribute, span name); "Class.method" wraps a method
TARGETS = (
    ("conestab.symmat", "svec", "symmat.svec"),
    ("conestab.symmat", "smat", "symmat.smat"),
    ("conestab.cone_core", "ConeDesc.project", "cone_core.project"),
    ("conestab.cone_core", "ConeDesc.critical_set", "cone_core.critical_set"),
    ("conestab.cone_core", "ConeDesc.dir_deriv", "cone_core.dir_deriv"),
    ("conestab._sets", "dykstra", "sets.dykstra"),
    ("conestab.cone_geometry", "subspace_cone_trivial",
     "cone_geometry.subspace_cone_trivial"),
    ("conestab.proj_deriv", "dnk_contains", "proj_deriv.dnk_contains"),
    ("conestab.constraint_system", "multiplier_solve",
     "constraint_system.multiplier_solve"),
    ("conestab.constraint_system", "multiplier_verify",
     "constraint_system.multiplier_verify"),
    ("conestab.constraint_system", "srcq_check",
     "constraint_system.srcq_check"),
    ("conestab.constraint_system", "ngamma_graph_deriv_contains",
     "constraint_system.ngamma_graph_deriv_contains"),
    ("conestab.stability", "solution_map_isolated_calm",
     "stability.solution_map_isolated_calm"),
    ("conestab.jsonio", "parse_problem", "jsonio.parse_problem"),
    ("conestab.cli", "main", "cli.main"),
    ("scipy.optimize", "linprog", "stability.polyhedral_route.lp"),
)

GATE = "critical-cone gate on g'(x)d"
TRIVIAL = "cone_geometry.subspace_cone_trivial"
NET = "stability.solution_map_isolated_calm"


class Tracer:
    def __init__(self):
        self.stack = []  # open spans: [name, child seconds]
        self.calls = defaultdict(int)
        self.self_s = defaultdict(float)
        self.total_s = defaultdict(float)
        self.counts = defaultdict(int)
        self._restore = []

    # -- wrapping -------------------------------------------------------

    def _wrap(self, name, fn):
        stack, after = self.stack, self._after

        def span(*args, **kwargs):
            frame = [name, 0.0]
            stack.append(frame)
            t0 = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                dur = time.perf_counter() - t0
                stack.pop()
                self.calls[name] += 1
                self.self_s[name] += dur - frame[1]
                self.total_s[name] += dur
                if stack:
                    stack[-1][1] += dur
            after(name, out)
            return out

        span.__wrapped__ = fn
        return span

    def _count_eigh(self, fn):
        counts = self.counts

        def eigh(*args, **kwargs):
            if sys._getframe(1).f_globals.get("__name__") == \
                    "conestab.cone_core":
                counts["cone_core.eigh.calls"] += 1
            return fn(*args, **kwargs)

        return eigh

    def _set(self, owner, attr, value):
        self._restore.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self):
        import importlib

        for modname, attr, name in TARGETS:
            mod = importlib.import_module(modname)
            if "." in attr:
                cls, meth = attr.split(".")
                owner = getattr(mod, cls)
                self._set(owner, meth, self._wrap(name, getattr(owner, meth)))
                continue
            orig = getattr(mod, attr)
            wrapper = self._wrap(name, orig)
            # rebind every conestab name that refers to the original
            for mname, m in list(sys.modules.items()):
                if m is None or not (mname == modname or
                                     mname.split(".")[0] == "conestab"):
                    continue
                for key, val in list(vars(m).items()):
                    if val is orig:
                        self._set(m, key, wrapper)
        self._set(np.linalg, "eigh", self._count_eigh(np.linalg.eigh))

    def uninstall(self):
        while self._restore:
            owner, attr, value = self._restore.pop()
            setattr(owner, attr, value)

    # -- result counters -------------------------------------------------

    def _after(self, name, out):
        c = self.counts
        if name == "sets.dykstra":
            info = out[1]
            c["dykstra.cycles"] += info.cycles
            c["dykstra.converged"] += bool(info.converged)
            c["dykstra.stalled"] += bool(info.stalled)
            c["dykstra.capped"] += not (info.converged or info.stalled)
            if any(f[0] == TRIVIAL for f in self.stack):
                c["trivial.dykstra_cycles"] += info.cycles
        elif name == "constraint_system.multiplier_solve":
            c["multiplier.found"] += bool(out.found)
        elif name == "constraint_system.ngamma_graph_deriv_contains":
            c["ngamma.gate_reject"] += out.method == GATE
            if any(f[0] == NET for f in self.stack):
                c["net.directions"] += 1

    # -- per-op metrics --------------------------------------------------

    def metrics(self, ops, scale=1.0):
        """Per-layer metrics per op over `ops` traced ops, as
        {name: (value, unit)}; times are multiplied by `scale`."""
        def per_op(v):
            return v / ops

        def share(num, den):
            return num / den if den else 0.0

        calls, self_s, c = self.calls, self.self_s, self.counts
        dyk = calls["sets.dykstra"]
        ms = calls["constraint_system.multiplier_solve"]
        ng = calls["constraint_system.ngamma_graph_deriv_contains"]
        out = {
            "symmat.svec.calls": (per_op(calls["symmat.svec"]), "calls/op"),
            "symmat.smat.calls": (per_op(calls["symmat.smat"]), "calls/op"),
            "symmat.self_s": (scale * per_op(self_s["symmat.svec"]
                                             + self_s["symmat.smat"]), "s/op"),
            "cone_core.eigh.calls": (per_op(c["cone_core.eigh.calls"]),
                                     "calls/op"),
        }
        for layer, fields in (
                ("cone_core.project", ("calls", "self_s")),
                ("cone_core.critical_set", ("calls", "self_s")),
                ("cone_core.dir_deriv", ("self_s",)),
                ("sets.dykstra", ("calls", "self_s")),
                (TRIVIAL, ("calls", "self_s")),
                ("proj_deriv.dnk_contains", ("calls", "self_s")),
                ("constraint_system.multiplier_solve", ("calls", "self_s")),
                ("constraint_system.srcq_check", ("calls",)),
                ("constraint_system.multiplier_verify", ("calls",)),
                ("constraint_system.ngamma_graph_deriv_contains",
                 ("calls", "self_s")),
                (NET, ("self_s",)),
                ("jsonio.parse_problem", ("self_s",)),
                ("cli.main", ("self_s",))):
            for f in fields:
                if f == "calls":
                    out[f"{layer}.calls"] = (per_op(calls[layer]), "calls/op")
                else:
                    out[f"{layer}.self_s"] = (scale * per_op(self_s[layer]),
                                              "s/op")
        out.update({
            "sets.dykstra.cycles": (per_op(c["dykstra.cycles"]), "cycles/op"),
            "sets.dykstra.converged_share": (
                share(c["dykstra.converged"], dyk), "share"),
            "sets.dykstra.stalled_share": (
                share(c["dykstra.stalled"], dyk), "share"),
            "sets.dykstra.capped_share": (
                share(c["dykstra.capped"], dyk), "share"),
            f"{TRIVIAL}.dykstra_cycles": (
                per_op(c["trivial.dykstra_cycles"]), "cycles/op"),
            "constraint_system.multiplier_solve.found_share": (
                share(c["multiplier.found"], ms), "share"),
            "constraint_system.ngamma_graph_deriv_contains.gate_reject_share": (
                share(c["ngamma.gate_reject"], ng), "share"),
            "stability.net.directions": (per_op(c["net.directions"]),
                                         "directions/op"),
            "stability.polyhedral_route.lp_calls": (
                per_op(calls["stability.polyhedral_route.lp"]), "calls/op"),
            "stability.polyhedral_route.lp_s": (
                scale * per_op(self.total_s["stability.polyhedral_route.lp"]),
                "s/op"),
        })
        return out
