"""One fresh worker process: import symchain, then run one workload.

Started by run.py as ``worker.py SRC CONFIG_JSON``.  The worker writes
``ready`` once symchain and every submodule are imported, so the parent
can time set-up; with ``"probe": true`` it exits there.  Otherwise it
runs the closed loop (one client, one operation at a time) and writes
one JSON line with each input's mean times in reference seconds and
the results of the checks.
"""

import sys

SRC = sys.argv[1]
sys.path.insert(0, SRC)

import symchain  # noqa: E402
import symchain.chain  # noqa: E402,F401
import symchain.cli  # noqa: E402,F401
import symchain.dirac  # noqa: E402,F401
import symchain.expressions  # noqa: E402,F401
import symchain.lattice  # noqa: E402,F401
import symchain.linalg  # noqa: E402,F401
import symchain.model  # noqa: E402,F401
import symchain.reports  # noqa: E402,F401

PROTOCOL = sys.stdout  # the CLI's stdout is redirected while it runs
PROTOCOL.write("ready\n")
PROTOCOL.flush()

import hashlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
from collections import Counter  # noqa: E402
from statistics import fmean, geometric_mean  # noqa: E402
from time import perf_counter  # noqa: E402

import calibrate  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402


# name: (function making the pool, operation, pool size)
WORKLOADS = {
    "lattice": (workloads.lattice_pool, workloads.run_lattice, 1),
    "deep-chain": (workloads.deep_chain_pool, workloads.run_deep_chain, 4),
    "model-batch": (workloads.model_batch_pool, workloads.run_model_file, 600),
}
MIN_PASSES = 2  # every input is timed at least this often, after its untimed first run
CALIBRATION_SHARE = 0.1  # of the timed loop spent on calibration chunks


class ChainTimer:
    """Times each call through the CLI's run_chain binding (chain_s on the CLI path)."""

    def __init__(self, clock):
        self.clock = clock
        self.samples: list[float] = []
        self.original = symchain.cli.run_chain

    def __call__(self, *args, **kwargs):
        start = self.clock()
        try:
            return self.original(*args, **kwargs)
        finally:
            self.samples.append(self.clock() - start)


def digest(out) -> str:
    if out is None:
        return "raised"
    return hashlib.sha256(f"{out.exit_code}\n{out.tree}".encode()).hexdigest()


def fingerprint(digests) -> str:
    return hashlib.sha256("".join(digests).encode()).hexdigest()


class Session:
    """Runs operations on the pool and checks every output.

    ``attempted`` and ``failures`` count each input once, on its first
    run; every later run of the same input must give the same bytes.
    So both counts depend on the seed only, not on how many passes the
    host's speed allowed.
    """

    def __init__(self, pool, operation, clock):
        self.pool = pool
        self.operation = operation
        self.clock = clock
        self.digests: dict[int, str] = {}
        self.certificates: dict[int, tuple] = {}
        self.failures: Counter = Counter()
        self.errors: list[str] = []  # outputs that are wrong in a way no failure counts
        self.attempted = 0

    def attempt(self, index: int):
        """One operation on pool[index]; returns its Outcome, or None if it raised."""
        item = self.pool[index]
        first = index not in self.digests
        try:
            out = self.operation(item, self.clock)
        except (Exception, SystemExit) as exc:  # one bad run must not end the workload
            out, failure = None, f"raised {type(exc).__name__}"
        else:
            failure = self._check(index, item, out)
        if self.digests.setdefault(index, digest(out)) != digest(out):
            self.errors.append(f"input {index}: output changed when repeated")
        if first:
            self.attempted += 1
            if failure:
                kind = getattr(item, "kind", None)
                self.failures[f"{failure} ({kind})" if kind else failure] += 1
        return out

    def _check(self, index: int, item, out) -> str | None:
        """The failure reason of one output; integrity errors go to ``errors``."""
        failure = out.failure
        if out.tree:
            try:
                tree = json.loads(out.tree)
                equal = tree["comparison"]["equal"]
                cert = (tree["termination"]["kind"], tree["termination"]["determinant"])
            except (ValueError, KeyError, TypeError) as exc:
                self.errors.append(f"input {index}: malformed tree report ({exc})")
                return failure
            if equal != (out.exit_code == 0):
                self.errors.append(f"input {index}: exit code {out.exit_code} but equal={equal}")
            self.certificates.setdefault(index, cert)
            twin = getattr(item, "twin", None)
            if twin is not None and twin in self.certificates and self.certificates[twin] != cert:
                failure = failure or "certificate differs from canonical twin"
        return failure

    def fingerprint(self) -> str:
        return fingerprint(self.digests.get(i, "raised") for i in range(len(self.pool)))


def timed_loop(session: Session, meter: calibrate.Meter, timer: ChainTimer, seconds: float):
    """Closed loop over the pool for ``seconds``, at least 1 + MIN_PASSES passes.

    The first pass is not timed: the first operations in a fresh process
    run about a tenth slower (a lattice chain took 2.3 s first and 2.05 s
    afterwards on one host), and a run that fits fewer passes would
    weigh that more.  Calibration chunks (see calibrate.py) take
    CALIBRATION_SHARE of the loop, spread through it by a timer signal,
    and the session's clock reads reference seconds.  Returns each
    input's mean verdict time, chain time and busy time (operation and
    checks), the number of timed runs, the host's mean slowdown and the
    peak memory.  Peak
    memory is read after the first pass, a fixed amount of work, because
    the allocator's footprint creeps up with every further operation and
    a faster program would run more of them.
    """
    n = len(session.pool)
    verdict = [[] for _ in range(n)]
    chain = [[] for _ in range(n)]
    busy = [[] for _ in range(n)]
    runs = 0
    start = perf_counter()
    with meter.sampling(CALIBRATION_SHARE):
        while runs < (1 + MIN_PASSES) * n or perf_counter() - start < seconds:
            index = runs % n
            timed = len(timer.samples)
            t0 = meter.clock()
            out = session.attempt(index)
            runs += 1
            if runs <= n:
                if runs == n:
                    rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
                    warm = meter.mark()
                continue
            busy[index].append(meter.clock() - t0)
            if out is not None:
                verdict[index].append(out.verdict_s)
                if out.chain_s is not None:
                    chain[index].append(out.chain_s)
                elif len(timer.samples) > timed:
                    chain[index].append(sum(timer.samples[timed:]))
    return (
        [fmean(v) for v in verdict if v],
        [fmean(c) for c in chain if c],
        [fmean(b) for b in busy],
        runs - n,
        meter.slowdown(since=warm),
        rss,
    )


def traced_pass(session: Session, spans_path: str):
    """Trace every input once, then input 0 again to check repeatability.

    Returns the traced outcomes and the per-layer metrics, with times
    in reference seconds as in the timed loop.
    """
    meter = calibrate.Meter()
    tracer = spans.Tracer(meter.clock)
    session.clock = meter.clock
    n = len(session.pool)
    outcomes = []
    tracer.install()
    try:
        with meter.sampling(CALIBRATION_SHARE):
            for i in list(range(n)) + [0]:
                tracer.run = len(outcomes)
                outcomes.append(session.attempt(i))
    finally:
        tracer.restore()
    tracer.write(spans_path)
    trees = [o.tree for o in outcomes[:-1] if o is not None and o.tree]
    metrics = spans.layer_metrics(tracer, set(range(n)), trees)
    if spans.counts(tracer, 0) != spans.counts(tracer, n):
        session.errors.append("traced counts differ between two runs of input 0")
    return outcomes[:-1], metrics


def main() -> None:
    config = json.loads(sys.argv[2])
    if config.get("probe"):
        return
    loaded = os.path.realpath(symchain.__file__)
    if not loaded.startswith(os.path.realpath(SRC) + os.sep):
        raise SystemExit(f"symchain was imported from {loaded}, not from {SRC}")
    build, operation, pool_size = WORKLOADS[config["workload"]]
    extra = (config["work_dir"],) if config["workload"] == "model-batch" else ()
    pool = build(config["seed"], pool_size, *extra)
    meter = calibrate.Meter()
    session = Session(pool, operation, meter.clock)

    timer = ChainTimer(meter.clock)
    symchain.cli.run_chain = timer
    try:
        verdict, chain, busy, runs, slowdown, rss = timed_loop(
            session, meter, timer, config["seconds"]
        )
    finally:
        symchain.cli.run_chain = timer.original
    result = {
        "verdict_s": verdict,
        "chain_s": chain,
        "runs": runs,
        "busy_s": busy,
        "slowdown": slowdown,
        "peak_rss_mb": rss,
        "fingerprint": session.fingerprint(),
    }
    if config["trace"]:
        traced, metrics = traced_pass(session, config["spans"])
        result["traced_fingerprint"] = fingerprint(map(digest, traced))
        if result["traced_fingerprint"] != result["fingerprint"]:
            session.errors.append("traced outputs differ from untraced outputs")
        traced_verdict = [o.verdict_s for o in traced if o is not None]
        metrics["trace.ops"] = (len(traced), "count")
        metrics["trace.overhead_s"] = (
            geometric_mean(traced_verdict) - geometric_mean(verdict)
            if traced_verdict and verdict
            else 0.0,
            "s",
        )
        result["per_layer"] = metrics
    result.update(
        attempted=session.attempted,
        failed=sum(session.failures.values()),
        failures=dict(session.failures),
        errors=session.errors[:20],
    )
    PROTOCOL.write(json.dumps(result) + "\n")
    PROTOCOL.flush()


if __name__ == "__main__":
    main()
