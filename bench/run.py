"""Known-answer benchmark for conestab.

    python3 bench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a checkout; the package is imported from ./src.
Workloads: paper-repro, qualify, calm-net, cone-ladder (see README.md).
Every op's verdict is checked against an answer known by construction
or computed by a referee at set-up.  The last line of stdout is one JSON
object: {"correct", "attempted", "failed", "metrics"}; the metrics are
the end-to-end ones with --trace 0 and the per-layer ones with --trace 1.
The lines before it give the run's sample count, verdict shares, known
defects hit, input digest and library versions.
"""

import os

# one BLAS/OpenMP thread, set before numpy is first imported
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from collections import Counter  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
SETUP_REPS = 11
WARMUP_OPS = 6


def load_package():
    """Import conestab afresh from ./src; returns the package."""
    for name in [m for m in sys.modules
                 if m == "conestab" or m.startswith("conestab.")]:
        del sys.modules[name]
    import conestab

    if not os.path.abspath(conestab.__file__).startswith(SRC + os.sep):
        raise ImportError(f"conestab imported from {conestab.__file__}, "
                          f"not from {SRC}")
    return conestab


class Stopwatch:
    """Scaled time of a stretch of work cut into pieces by `tick()`: each
    piece is scaled by the clock's latest sample, and the clock is
    sampled again (at most every `RefClock.EVERY_S`) between pieces,
    outside the timed pieces."""

    def __init__(self, clock):
        self.clock = clock
        self.total = 0.0
        self._k = clock.sample()
        self._t = time.perf_counter()

    def tick(self):
        self.total += self._k * (time.perf_counter() - self._t)
        self._k = self.clock.scale()
        self._t = time.perf_counter()


def setup(wl, seed, clock, reps=SETUP_REPS):
    """Import plus input construction, `reps` times; returns the last
    pool and the median scaled set-up time.  Files the ops read are
    written once afterwards, untimed: creating a file costs about 1 ms
    on the reference machine, and its speed does not follow the
    reference clock."""
    times = []
    for _ in range(reps):
        watch = Stopwatch(clock)
        load_package()
        watch.tick()
        pool = wl.build(seed, watch.tick)
        watch.tick()
        times.append(watch.total)
    if hasattr(wl, "stage"):
        wl.stage(pool)
    return pool, statistics.median(times)


def digest(pool):
    """SHA-256 over the inputs of a pool, for the same-seed check."""
    import numpy as np

    h = hashlib.sha256()

    def feed(v):
        if isinstance(v, dict):
            for k in sorted(v):
                h.update(k.encode())
                feed(v[k])
        elif isinstance(v, (list, tuple)):
            for x in v:
                feed(x)
        elif isinstance(v, np.ndarray):
            h.update(np.ascontiguousarray(v, float).tobytes())
        elif hasattr(v, "xbar"):  # GEProblem
            feed([v.xbar, v.pbar, v.sys.g(v.xbar), v.sys.jacobian(v.xbar),
                  repr(v.sys.cone)])
        elif hasattr(v, "lam") and hasattr(v, "y"):  # GraphPoint
            feed([v.y, v.lam])
        elif isinstance(v, str) and os.path.isfile(v):
            with open(v, "rb") as fh:
                h.update(fh.read())
        else:
            h.update(repr(v).encode())

    feed(pool)
    return h.hexdigest()


class RefClock:
    """Speed reference for a machine whose speed drifts.

    On shared cores the machine's speed drifts by tens of percent over
    seconds.  Before an op (at most every `EVERY_S`), the clock times
    two fixed kernels that do not touch conestab, a pure-Python loop
    and two 30x30 `eigh` calls, and keeps the geometric mean of their
    times.  An op's reported time is its wall time multiplied by
    `NOMINAL_S` over the latest reference time: its wall time at the
    nominal speed.  An op longer than `EVERY_S` takes a second sample
    after it and uses the geometric mean of the two scales.
    """

    NOMINAL_S = 0.31e-3  # reference time on a quiet machine
    EVERY_S = 0.02

    def __init__(self):
        import numpy as np

        m = np.random.default_rng(0).standard_normal((30, 30))
        self._mat = m + m.T
        self._eigh = np.linalg.eigh
        self.samples = []
        self._last = -1e9

    def sample(self):
        t0 = time.perf_counter()
        acc = 0
        for i in range(6000):
            acc += i * i % 7
        t1 = time.perf_counter()
        self._eigh(self._mat)
        self._eigh(self._mat)
        t2 = time.perf_counter()
        self.samples.append(((t1 - t0) * (t2 - t1)) ** 0.5)
        self._last = t2
        return self.NOMINAL_S / self.samples[-1]

    def scale(self):
        """Scale for the next op: from a fresh sample when one is due."""
        if time.perf_counter() - self._last >= self.EVERY_S:
            return self.sample()
        return self.NOMINAL_S / self.samples[-1]


def run_ops(wl, pool, answers, start, clock, tally, count=None,
            seconds=None):
    """Closed loop, one client: ops on pool[start:] cyclically, until
    `count` ops, or until `seconds` of ops have elapsed and a round of
    the pool is complete.  Each result is judged into `tally` after its
    op is timed; a raised exception is the op's result.  Returns (scaled
    latencies, rounds completed, wall seconds of the ops)."""
    lat = []
    i, rnd, wall = start, 0, 0.0
    while True:
        k = clock.scale()
        j = i % len(pool)
        s = time.perf_counter()
        try:
            res = wl.run(pool[j])
        except Exception as exc:  # the op failed; judged below
            res = exc
        dt = time.perf_counter() - s
        if dt >= clock.EVERY_S:
            # a long op: the speed may have drifted while it ran
            k = (k * clock.sample()) ** 0.5
        tally.add(wl, pool[j], answers[j], res)
        wall += dt
        lat.append(k * dt)
        i += 1
        if pool[i % len(pool)]["round"] != pool[j]["round"] or \
                i % len(pool) == 0:
            rnd += 1
            if seconds is not None and wall >= seconds:
                break
        if count is not None and len(lat) >= count:
            break
    return lat, rnd, wall


class Tally:
    """Verdict checks over a run."""

    def __init__(self):
        self.attempted = self.failed = self.wrong_ops = 0
        self.certs = self.inconclusive = self.curved = 0
        self.defects = Counter()
        self.unexpected = []

    def add(self, wl, item, answer, result):
        self.attempted += 1
        self.curved += bool(item.get("curved"))
        if isinstance(result, Exception):
            self.failed += 1
            self.wrong_ops += 1
            self.unexpected.append(f"raised {type(result).__name__}: {result}")
            return
        out = wl.judge(item, answer, result)
        self.certs += out.certs
        self.inconclusive += out.inconclusive
        if out.wrong:
            self.wrong_ops += 1
        for label, got, expected, defect in out.wrong:
            if defect:
                self.defects[defect] += 1
            else:
                self.unexpected.append(f"{label}: got {got!r}, "
                                       f"expected {expected!r}")
        self.failed += bool(out.unexpected)

    @property
    def fail_share(self):
        return self.wrong_ops / self.attempted if self.attempted else 0.0

    @property
    def inconclusive_share(self):
        return self.inconclusive / self.certs if self.certs else 0.0


def percentile(values, q):
    import numpy as np

    return float(np.percentile(np.asarray(values), q))


def environment():
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"numpy": numpy.__version__, "scipy": scipy.__version__,
            "blas": f"{blas.get('name')} {blas.get('version')}",
            "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
            "cpus": os.cpu_count(), "machine": platform.machine(),
            "python": platform.python_version()}


def src_lines():
    pkg = os.path.join(SRC, "conestab")
    total = 0
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            with open(os.path.join(pkg, name)) as fh:
                total += sum(1 for _ in fh)
    return total


def main(argv=None):
    sys.path.insert(0, HERE)
    import workloads

    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=workloads.NAMES)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)

    if not os.path.isdir(os.path.join(SRC, "conestab")):
        print(f"error: no conestab package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    workdir = os.path.join(ROOT, ".bench_work",
                           f"{args.workload}-{os.getpid()}")
    try:
        return measure(workloads, args, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        parent = os.path.dirname(workdir)
        if os.path.isdir(parent) and not os.listdir(parent):
            os.rmdir(parent)


def measure(workloads, args, workdir):
    wl = workloads.make(args.workload, workdir)
    clock = RefClock()
    pool, setup_s = setup(wl, args.seed, clock)
    answers = wl.referee(pool)
    tally = Tally()

    # let lazy imports and caches settle before timing
    warm = min(WARMUP_OPS, len(pool))
    run_ops(wl, pool, answers, 0, clock, tally, count=warm)

    info = {"workload": args.workload, "seed": args.seed,
            "input_digest": digest(pool)[:16], "pool": len(pool),
            "src_lines": src_lines(), "env": environment()}
    if args.trace:
        import spans

        plain, _, plain_wall = run_ops(wl, pool, answers, warm, clock, tally,
                                       seconds=args.seconds / 2)
        tracer = spans.Tracer()
        tracer.install()
        try:
            traced, _, traced_wall = run_ops(wl, pool, answers, warm, clock,
                                             tally, count=len(plain))
        finally:
            tracer.uninstall()
        metrics = tracer.metrics(len(traced), sum(traced) / traced_wall)
        metrics.update({
            "fail_share": (tally.fail_share, "share"),
            "inconclusive_share": (tally.inconclusive_share, "share"),
            "workload.curved_share": (tally.curved / tally.attempted,
                                      "share"),
            "trace.overhead_share": (sum(traced) / sum(plain) - 1, "share"),
        })
        info.update(traced_ops=len(traced), untraced_wall_s=plain_wall,
                    traced_wall_s=traced_wall)
    else:
        lat, rounds, wall = run_ops(wl, pool, answers, warm, clock, tally,
                                    seconds=args.seconds)
        metrics = {
            # ops over their scaled time, over the whole run
            "ops_per_s": (len(lat) / sum(lat), "1/s"),
            "op_ms_p50": (1e3 * percentile(lat, 50), "ms"),
            "op_ms_p90": (1e3 * percentile(lat, 90), "ms"),
            "setup_s": (setup_s, "s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF)
                            .ru_maxrss / 1024.0, "MB"),
        }
        info.update(samples=len(lat), rounds=rounds,
                    ops_wall_s=wall, ops_per_wall_s=len(lat) / wall,
                    fail_share=tally.fail_share,
                    inconclusive_share=tally.inconclusive_share)
    info.update(speed_scale_median=RefClock.NOMINAL_S
                / statistics.median(clock.samples),
                known_defects=dict(tally.defects),
                unexpected=tally.unexpected[:10])
    print("# " + json.dumps(info, sort_keys=True))
    print(json.dumps({
        "correct": tally.failed == 0 and tally.attempted > 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {k: {"value": v, "unit": u}
                    for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
