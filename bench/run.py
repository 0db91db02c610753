"""Benchmark of the ehrpoly CLI: one workload, one seed, one run.

    python3 bench/run.py --workload {search,analyze,certify} --seed N \
        --seconds S --trace {0,1}

Run from the repository root.  The program is imported from ``src/``.  Each
request is a call of ``ehrpoly.cli.main(argv)`` in this process with stdout
captured, so argument parsing, the library and canonical JSON output are all
timed, and interpreter start-up is not.  The loop is closed with one client:
the next request goes out when the previous one has returned.

``--trace 0`` measures the end-to-end metrics with no tracing.  ``--trace 1``
sends each request twice, with and without the span wrappers of
``tracer.py``, and reports the per-layer metrics of the first
`TRACED_REQUESTS` requests and the tracing overhead; their spans are written
to ``bench/out/<workload>-<seed>/spans.tsv``.

Outputs are checked after timing (see ``workloads.py``).  The last line of
stdout is one JSON object: ``correct``, ``attempted``, ``failed`` and
``metrics``.  The line before it records the environment and an output
digest, for information only.
"""
from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

import workloads
from tracer import Tracer, metric_names, metric_unit

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

SETUP_SPAWNS = 8             # before the timed loop, and as many after it
MIN_REQUESTS = 100          # p90 needs at least 10 requests beyond it
TRACED_REQUESTS = {"search": 64, "analyze": 40, "certify": 70}  # whole blocks


def setup_times() -> list[float]:
    """Wall times of `SETUP_SPAWNS` fresh interpreters running
    ``import ehrpoly.cli``."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    times = []
    for _ in range(SETUP_SPAWNS):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", "import ehrpoly.cli"], env=env,
                       cwd=ROOT, check=True)
        times.append(time.perf_counter() - t0)
    return times


def call(cli, argv) -> tuple[int, str]:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(io.StringIO()):
        code = cli.main(list(argv))
    return code, buf.getvalue()


def send(cli, req) -> tuple[int, list[str]]:
    """One request, and the render of its trace when it asks for one;
    raises whatever the program lets escape."""
    code, out = call(cli, req.argv)
    outputs = [out]
    if req.render and code == 0:
        Path(req.render).write_text(out)
        code, svg = call(cli, ("render", req.render, "-"))
        outputs.append(svg)
    return code, outputs


class Loop:
    """Closed loop over a request list; keeps latencies and compact records."""

    def __init__(self, cli, record):
        self.cli = cli
        self.record = record
        self.latencies: list[float] = []
        self.failed = 0
        self.first: dict[str, tuple] = {}      # key -> (request, record, digest)
        self.mismatched: list[str] = []
        self.errors: list[str] = []
        self.digests: list[str] = []
        self.sent: Counter[str] = Counter()

    def one(self, req) -> float:
        """Sends `req`, keeps what the checks need and returns its latency."""
        self.sent[req.key] += 1
        t0 = time.perf_counter()
        try:
            code, outputs = send(self.cli, req)
        except (Exception, SystemExit) as exc:  # a request that raised is a failure
            self.latencies.append(time.perf_counter() - t0)
            self.failed += 1
            self.errors.append(f"{req.key}: {type(exc).__name__}: {exc}")
            return self.latencies[-1]
        self.latencies.append(time.perf_counter() - t0)
        d = workloads.digest(outputs)
        self.digests.append(d)
        if req.key not in self.first:
            try:
                self.first[req.key] = (req, self.record(req, code, outputs), d)
            except (ValueError, KeyError, TypeError) as exc:
                self.failed += 1
                self.errors.append(f"{req.key}: unreadable output: {exc}")
        elif self.first[req.key][2] != d:
            self.failed += 1
            self.mismatched.append(req.key)
        return self.latencies[-1]

    def run(self, requests, seconds: float, block: int) -> None:
        """Sends whole blocks until `seconds` of latency have passed, so
        every run sees its workload's full mix of request sizes."""
        busy = 0.0
        i = 0
        while busy < seconds or i < MIN_REQUESTS or i % block:
            busy += self.one(requests[i % len(requests)])
            i += 1


def traced_run(loop: Loop, requests, k: int, seconds: float, spans: Path) -> dict:
    """Sends every request twice, once through the span wrappers, alternating
    which copy goes first so that both see the same machine.  The per-layer
    metrics cover the first `k` requests, so their counts repeat exactly for
    a seed; later pairs only refine the tracing overhead."""
    tracer = Tracer()
    busy = {False: 0.0, True: 0.0}
    i = 0
    while i < k or busy[False] + busy[True] < seconds:
        tracer.current_request = i
        for on in ((False, True) if i % 2 == 0 else (True, False)):
            tracer.enable(on)
            busy[on] += loop.one(requests[i % len(requests)])
        tracer.enable(False)
        i += 1
        if i == k:
            layers = tracer.layer_metrics()
            tracer.write(spans)
        if i >= k:
            tracer.reset()
    layers["trace.overhead_ratio"] = busy[False] / busy[True]
    return {name: layers[name] for name in metric_names()}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args(argv)
    if not (SRC / "ehrpoly" / "cli.py").is_file():
        print(f"error: no ehrpoly sources under {SRC}", file=sys.stderr)
        return 2

    # every commit runs the serial search
    os.environ.pop("EHRHART_THREADS", None)
    sys.path.insert(0, str(SRC))
    from ehrpoly import cli

    make, record, check, block = workloads.WORKLOADS[args.workload]
    workdir = OUT / f"{args.workload}-{args.seed}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    warmup, requests = make(args.seed, workdir / "inputs")
    loop = Loop(cli, record)

    if args.trace:
        send(cli, warmup)
        metrics = traced_run(loop, requests, TRACED_REQUESTS[args.workload],
                             args.seconds, workdir / "spans.tsv")
        units = {name: metric_unit(name) for name in metrics}
    else:
        # spawns on both sides of the loop, so set-up time is taken at more
        # than one moment of the run
        spawns = setup_times()
        send(cli, warmup)
        loop.run(requests, args.seconds, block)
        setup_s = statistics.median(spawns + setup_times())
        deciles = statistics.quantiles(loop.latencies, n=10)
        metrics = {
            "setup_s": setup_s,
            "ops_per_s": len(loop.latencies) / sum(loop.latencies),
            "latency_p50_ms": deciles[4] * 1e3,
            "latency_p90_ms": deciles[8] * 1e3,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        units = {"setup_s": "s", "ops_per_s": "1/s", "latency_p50_ms": "ms",
                 "latency_p90_ms": "ms", "peak_rss_mb": "MB"}

    failures = loop.errors + [f"{key}: output differs from its first response"
                              for key in loop.mismatched]
    for key, (req, rec, _) in loop.first.items():
        try:
            check(req, rec)
        except Exception as exc:  # a malformed response fails its requests
            failures.append(f"{key}: {type(exc).__name__}: {exc}")
            loop.failed += loop.sent[key]
    for line in failures[:20]:
        print(f"check failed: {line}", file=sys.stderr)
    # the inputs follow from the seed; only the spans are kept
    shutil.rmtree(workdir / "inputs" if args.trace else workdir, ignore_errors=True)

    print(json.dumps({
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "distinct": len(loop.first), "digest": workloads.digest(loop.digests),
        "python": platform.python_version(), "nproc": os.cpu_count(),
        "platform": platform.platform(),
    }, sort_keys=True))
    print(json.dumps({
        "correct": loop.failed == 0,
        "attempted": len(loop.latencies),
        "failed": loop.failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
