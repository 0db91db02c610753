"""Steadiness check: run every workload of BENCHMARK.json over ten seeds and
report the spread of every end-to-end metric against its bound.

    python3 bench/steady.py [--first-seed 1]

Run from the repository root.  Each run lasts the benchmark's
``run_seconds``; the seeds are ``first-seed`` to ``first-seed + 9``.  The
spread of a metric is the distance between the first and third quartiles
of its values, as a share of their median.  It must stay within the
metric's bound; below a third of the bound is the target.  Exits 1 when a
spread is over its bound or a run is not correct.
"""
from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RUNS = 10


def spread(values: list[float]) -> float:
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / q2


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--first-seed", type=int, default=1)
    args = ap.parse_args(argv)

    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    ok = True
    for workload in (w["name"] for w in spec["workloads"]):
        values: dict[str, list[float]] = {name: [] for name in bounds}
        for seed in range(args.first_seed, args.first_seed + RUNS):
            cmd = [*spec["command"], "--workload", workload, "--seed", str(seed),
                   "--seconds", str(spec["run_seconds"]), "--trace", "0"]
            out = subprocess.run(cmd, cwd=ROOT, check=True, capture_output=True,
                                 text=True).stdout
            result = json.loads(out.strip().splitlines()[-1])
            ok &= result["correct"]
            for name in bounds:
                values[name].append(result["metrics"][name]["value"])
            print(f"{workload} seed {seed}: correct={result['correct']} "
                  f"attempted={result['attempted']} " +
                  " ".join(f"{n}={v[-1]:.6g}" for n, v in values.items()), flush=True)
        for name, vals in values.items():
            s = spread(vals)
            over = s > bounds[name]
            ok &= not over
            print(f"{workload:8s} {name:16s} median {statistics.median(vals):12.6g}  "
                  f"spread {s:7.4f}  bound {bounds[name]:5.3f}  "
                  f"{'OVER' if over else 'ok' if s < bounds[name] / 3 else 'near'}",
                  flush=True)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
