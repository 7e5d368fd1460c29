"""symchain benchmark: cross-checked verdict time per workload.

    python3 perfbench/run.py [--workload NAME] [--seed N] [--seconds S] [--trace 0|1]

Each workload runs in a fresh worker process that imports symchain from
the checkout's ``src/``.  With ``--trace 0`` the last stdout line is a
JSON object holding every end-to-end metric BENCHMARK.json lists; with
``--trace 1`` it holds the listed per-layer metrics of a traced pass.
Without ``--workload`` every workload runs in turn.  The lines before
the JSON give each metric with its unit and sample count, the output
fingerprint and the failure counts.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import select
import shutil
import subprocess
import sys
import time
from pathlib import Path
from statistics import geometric_mean, median, quantiles

import calibrate

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("lattice", "deep-chain", "model-batch")
SETUP_SAMPLES = 16  # fresh workers timed from spawn to ready; the median is setup_s
SETUP_CALIBRATION_SHARE = 0.5  # calibration time per second of timed spawns
DEADLINE_S = 170  # a worker still running after this is killed and the run fails


class BenchError(Exception):
    pass


def _start(config: dict, deadline: float) -> tuple[subprocess.Popen, float]:
    """Spawn a worker and wait until it has imported symchain."""
    env = dict(os.environ, PYTHONHASHSEED="0")
    env.pop("PYTHONPATH", None)
    start = time.perf_counter()
    # unbuffered, so reading the ready line consumes nothing after it
    proc = subprocess.Popen(
        [sys.executable, "-S", str(HERE / "worker.py"), str(ROOT / "src"), json.dumps(config)],
        stdout=subprocess.PIPE,
        bufsize=0,
        env=env,
        cwd=ROOT,
    )
    readable, _, _ = select.select([proc.stdout], [], [], max(deadline - time.monotonic(), 0))
    if not readable or proc.stdout.readline() != b"ready\n":
        _finish(proc, time.monotonic())
        raise BenchError("worker did not report ready")
    return proc, time.perf_counter() - start


def _finish(proc: subprocess.Popen, deadline: float) -> bytes:
    """Wait for the worker to exit and return the rest of its output."""
    try:
        out, _ = proc.communicate(timeout=max(deadline - time.monotonic(), 1))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise BenchError("worker did not finish in time")
    if proc.returncode != 0:
        raise BenchError(f"worker exited with code {proc.returncode}")
    return out


def run_workload(workload: str, seed: int, seconds: int, trace: bool) -> dict:
    deadline = time.monotonic() + DEADLINE_S
    out_dir = HERE / "out"
    work_dir = out_dir / f"models-{os.getpid()}"
    work_dir.mkdir(parents=True, exist_ok=True)
    config = {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "work_dir": str(work_dir),
        "spans": str(out_dir / f"spans-{workload}.jsonl"),
    }
    try:
        setup = []
        if not trace:
            meter = calibrate.Meter()
            # the first spawn in a checkout also compiles bytecode; it is not timed
            for i in range(SETUP_SAMPLES + 1):
                meter.keep_up(sum(setup), SETUP_CALIBRATION_SHARE)
                proc, elapsed = _start({"probe": True}, deadline)
                _finish(proc, deadline)
                if i:
                    setup.append(elapsed)
            setup = [s / meter.slowdown() for s in setup]
        proc, _ = _start(config, deadline)
        lines = _finish(proc, deadline).splitlines()
        if not lines:
            raise BenchError("worker printed no result")
        result = json.loads(lines[-1])
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    result["setup_s"] = setup
    return result


def _summary(result: dict) -> dict[str, tuple[float, str, int]]:
    """End-to-end metrics as (value, unit, sample count)."""
    verdict, chain = result["verdict_s"], result["chain_s"]  # mean time of each input
    metrics = {
        "setup_s": (median(result["setup_s"]), "s", len(result["setup_s"])),
        "verdict_s": (geometric_mean(verdict), "s", len(verdict)),
        "verdict_s.median": (median(verdict), "s", len(verdict)),
        "chain_s": (geometric_mean(chain), "s", len(chain)),
        "models_per_s": (len(result["busy_s"]) / sum(result["busy_s"]), "1/s", result["runs"]),
        "peak_rss_mb": (result["peak_rss_mb"], "MiB", 1),
        "failed_share": (result["failed"] / result["attempted"], "ratio", result["attempted"]),
    }
    # the highest percentile with at least ten samples beyond it
    if len(verdict) >= 100:
        metrics["verdict_s.p90"] = (quantiles(verdict, n=10)[-1], "s", len(verdict))
    return metrics


def _declared(kind: str) -> list[dict]:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        return json.load(fh)[kind]


def report(workload: str, seed: int, seconds: int, trace: bool, result: dict) -> dict:
    print(f"== {workload}  seed={seed}  seconds={seconds}  trace={int(trace)}")
    print(f"  fingerprint       {result['fingerprint']}  ({result['attempted']} inputs)")
    print(f"  timed runs        {result['runs']}, host slowdown {result['slowdown']:.3f}")
    if trace:
        print(f"  traced fingerprint {result['traced_fingerprint']}")
        measured = {name: (value, unit) for name, (value, unit) in result["per_layer"].items()}
        for name, (value, unit) in sorted(measured.items()):
            print(f"  {name:44s} {value:>14.6g} {unit}")
        kind = "per_layer"
    else:
        measured = {}
        for name, (value, unit, n) in _summary(result).items():
            print(f"  {name:18s} {value:>12.6g} {unit:6s} n={n}")
            measured[name] = (value, unit)
        kind = "end_to_end"
    print(f"  failed            {result['failed']} of {result['attempted']} attempted")
    for reason, count in sorted(result["failures"].items()):
        print(f"    {count:6d}  {reason}")
    for error in result["errors"]:
        print(f"  check failed: {error}")
    metrics = {}
    for metric in _declared(kind):
        name = metric["name"]
        if name not in measured or measured[name][1] != metric["unit"]:
            raise BenchError(f"metric {name} [{metric['unit']}] was not measured")
        metrics[name] = {"value": measured[name][0], "unit": metric["unit"]}
    return {
        "correct": not result["errors"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": metrics,
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, help="default: every workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    if not (ROOT / "src" / "symchain" / "__init__.py").is_file():
        print(f"error: no symchain sources under {ROOT / 'src'}", file=sys.stderr)
        return 1
    for workload in [args.workload] if args.workload else WORKLOADS:
        try:
            result = run_workload(workload, args.seed, args.seconds, bool(args.trace))
            line = report(workload, args.seed, args.seconds, bool(args.trace), result)
        except (BenchError, OSError, ValueError, KeyError) as exc:
            print(f"error: {workload}: {exc}", file=sys.stderr)
            return 1
        print(json.dumps(line), flush=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
