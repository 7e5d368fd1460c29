"""Run-to-run spread of the benchmark on one workload over several seeds.

    python3 perfbench/spread.py --workload lattice --seeds 501-510
    python3 perfbench/spread.py --workload lattice --seeds 501-510 --baseline perfbench/BASELINE.json

Runs ``run.py`` once per seed with ``--trace 0``, one after another,
and prints for every end-to-end metric the median, the quartiles and
the spread (q3 - q1) / median, with the quartiles as
``statistics.quantiles(values, n=4)`` gives them.  With ``--baseline``
it also makes one traced run on the first seed and writes the
workload's figures, fingerprints and per-layer metrics into that JSON
file, keeping the other workloads already in it.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path
from statistics import median, quantiles

HERE = Path(__file__).resolve().parent


def seeds(text: str) -> list[int]:
    first, _, last = text.partition("-")
    return list(range(int(first), int(last or first) + 1))


def bench(workload: str, seed: int, seconds: int, trace: int) -> tuple[dict, str]:
    """One run's result line and fingerprint."""
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, capture_output=True, text=True, check=True, cwd=HERE.parent)
    lines = proc.stdout.splitlines()
    fp = next(line.split()[1] for line in lines if line.strip().startswith("fingerprint"))
    return json.loads(lines[-1]), fp


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=seeds, default=seeds("1-10"), help="FIRST-LAST")
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("--baseline", type=Path)
    args = parser.parse_args()

    runs = {}
    for seed in args.seeds:
        runs[seed] = bench(args.workload, seed, args.seconds, 0)
        line, fp = runs[seed]
        values = " ".join(f"{k}={v['value']:.6g}" for k, v in line["metrics"].items())
        print(f"seed {seed}: failed {line['failed']} of {line['attempted']}  {values}", flush=True)
    figures = {}
    for name, first in runs[args.seeds[0]][0]["metrics"].items():
        values = [line["metrics"][name]["value"] for line, _ in runs.values()]
        q1, _, q3 = quantiles(values, n=4) if len(values) > 1 else (values[0],) * 3
        mid = median(values)
        figures[name] = {"unit": first["unit"], "median": mid, "q1": q1, "q3": q3,
                         "iqr_share": round((q3 - q1) / mid, 4)}
        print(f"{name:16s} median {mid:<12.6g} q1 {q1:<12.6g} q3 {q3:<12.6g} "
              f"spread {(q3 - q1) / mid:.3f}")
    if args.baseline:
        traced, _ = bench(args.workload, args.seeds[0], args.seconds, 1)
        data = json.loads(args.baseline.read_text()) if args.baseline.exists() else {}
        data.setdefault("workloads", {})[args.workload] = {
            "seeds": args.seeds,
            "correct": all(line["correct"] for line, _ in runs.values()) and traced["correct"],
            "attempted": sum(line["attempted"] for line, _ in runs.values()),
            "failed": sum(line["failed"] for line, _ in runs.values()),
            "end_to_end": figures,
            "fingerprints": {str(seed): fp for seed, (_, fp) in runs.items()},
            "per_layer_seed": args.seeds[0],
            "per_layer": traced["metrics"],
        }
        args.baseline.write_text(json.dumps(data, indent=2) + "\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
