"""Benchmark of the carleman_cone package in this checkout.

Usage, from the repository root::

    python3 perfbench/run.py --workload scan|session|quadrature --seed N \\
        --seconds S --trace 0|1

One process, one client, closed loop: the workload's requests run in order,
each after the previous one returned, and passes over them repeat until
``--seconds`` is used up.  Every output is checked by an oracle.  The last
line of standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``: with ``--trace 0`` the end-to-end metrics of
``BENCHMARK.json``, with ``--trace 1`` its per-layer metrics, measured on
passes that alternate with untraced ones.  The per-layer run also writes its
spans to ``perfbench/traces/``.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import pkg  # noqa: E402

TAIL_BEYOND = 10
TRACE_DIR = HERE / "traces"


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=("scan", "session", "quadrature"))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=30.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--smoke", action="store_true",
                   help="short inputs for the self-test; not comparable to full runs")
    p.add_argument("--setup-only", action="store_true",
                   help="import the package and build the inputs, then exit")
    return p.parse_args(argv)


def set_up_once(args) -> float:
    """Wall time of a fresh interpreter importing the package and building inputs."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-only",
           "--workload", args.workload, "--seed", str(args.seed)]
    if args.smoke:
        cmd.append("--smoke")
    start = time.perf_counter()
    proc = subprocess.run(cmd, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True)
    elapsed = time.perf_counter() - start
    if proc.returncode != 0:
        raise RuntimeError(f"set-up run failed ({proc.returncode}): {proc.stderr.strip()}")
    return elapsed


class Loop:
    """Closed-loop passes over a request list, with every output checked."""

    def __init__(self, requests):
        self.requests = requests
        self.verified = [None] * len(requests)
        self.attempted = 0
        self.failed = 0
        # Per request position, its latency in every untraced pass.
        self.latencies: list[list[float]] = [[] for _ in requests]

    def one_pass(self, tracer=None) -> tuple[float, list]:
        """Run every request once; returns the pass's wall time and the outputs."""
        outputs = []
        start = time.perf_counter()
        for i, req in enumerate(self.requests):
            t0 = time.perf_counter()
            try:
                if tracer is None:
                    out = req.call()
                else:
                    with tracer.request_span(f"request.{req.kind}", i):
                        out = req.call()
            except Exception as exc:  # a failing request is counted, the loop goes on
                traceback.print_exc(file=sys.stderr)
                out = exc
            if tracer is None:
                self.latencies[i].append(time.perf_counter() - t0)
            outputs.append(out)
        return time.perf_counter() - start, outputs

    def check(self, outputs) -> None:
        """Oracle every output; an output equal to an already verified one passes."""
        for i, (req, out) in enumerate(zip(self.requests, outputs)):
            self.attempted += 1
            if isinstance(out, BaseException):
                self.failed += 1
                continue
            if self.verified[i] is not None and out == self.verified[i]:
                continue
            problems = req.check(out)
            if problems:
                self.failed += 1
                for msg in problems:
                    print(f"oracle: request {i} ({req.kind}): {msg}", file=sys.stderr)
            else:
                self.verified[i] = out


def tail(latencies: list[float]) -> tuple[float, float]:
    """(value, percentile) of the highest percentile with TAIL_BEYOND samples above it."""
    xs = sorted(latencies)
    n = len(xs)
    return xs[n - TAIL_BEYOND - 1], 100.0 * (n - TAIL_BEYOND) / n


def run_plain(loop: Loop, seconds: float, set_up,
              pass_is_request: bool) -> tuple[dict, list[str]]:
    """End-to-end metrics, in seconds as measured."""
    deadline = time.perf_counter() + seconds
    walls, setups = [], []
    while True:
        # A fresh set-up before every pass: their median covers the same
        # stretch of the machine's drift as the passes, where a burst of
        # set-ups at the start would catch only its first seconds.
        setups.append(set_up())
        wall, outputs = loop.one_pass()
        loop.check(outputs)
        walls.append(wall)
        if time.perf_counter() + setups[-1] + wall > deadline:
            break
    # A pass's typical time is the sum of its requests' median latencies:
    # a slow spell of the machine hits some requests of a pass and spares
    # others, and per-request medians drop it where a median of whole passes
    # would keep it.
    metrics = {"wall_s": sum(statistics.median(xs) for xs in loop.latencies),
               "setup_s": statistics.median(setups)}
    notes = [f"passes {len(walls)}, pass wall_s median {statistics.median(walls):.4f} "
             f"min {min(walls):.4f} max {max(walls):.4f}",
             f"setup_s is the median of {len(setups)} fresh interpreters, one before each pass"]
    pooled = [x for xs in loop.latencies for x in xs]
    if pass_is_request:
        metrics["latency_s.p50"] = metrics["latency_s.tail"] = metrics["wall_s"]
        notes.append("the whole pass is one user request: latency_s.p50 and "
                     "latency_s.tail are its typical latency, wall_s")
    elif len(pooled) > TAIL_BEYOND:
        metrics["latency_s.p50"] = statistics.median(pooled)
        metrics["latency_s.tail"], pct = tail(pooled)
        notes.append(f"latency_s.tail is p{pct:.2f} of {len(pooled)} requests, "
                     f"{TAIL_BEYOND} beyond it")
    else:
        metrics["latency_s.p50"] = statistics.median(pooled)
        metrics["latency_s.tail"] = max(pooled)
        notes.append(f"only {len(pooled)} requests: latency_s.tail is the slowest")
    metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6
    return metrics, notes


def run_traced(loop: Loop, seconds: float, workload: str, trace_path: Path) -> tuple[dict, list[str]]:
    """Alternate untraced and traced passes; per-layer figures come from the traced ones."""
    import tracing
    import workloads

    tracer = tracing.Tracer()
    deadline = time.perf_counter() + seconds
    plain_walls, traced_walls, summaries = [], [], []
    while True:
        wall, outputs = loop.one_pass()
        loop.check(outputs)
        plain_walls.append(wall)
        first = len(tracer.spans)
        tracer.counters.clear()
        with tracer.installed():
            wall, outputs = loop.one_pass(tracer)
        # Oracles run untraced, so their own calls into the package are not counted.
        loop.check(outputs)
        traced_walls.append(wall)
        summary = tracing.layer_summary(tracer.spans, first, tracer.counters)
        summary.update(workloads.cli_counts(loop.requests, outputs))
        summaries.append(summary)
        if time.perf_counter() + max(plain_walls[-1], wall) * 2 > deadline:
            break
    tracer.write_csv(trace_path)
    for name in workloads.REACHES[workload]:
        if any(s[name] == 0 for s in summaries):
            raise tracing.MissingSite(f"{name} read 0 in a traced pass of {workload}: "
                                      "the package no longer calls it where it is traced")
    # Counts repeat exactly from pass to pass; times are medians over passes.
    metrics = dict(summaries[0])
    for key in metrics:
        if key.endswith("self_s"):
            metrics[key] = statistics.median(s[key] for s in summaries)
    metrics["trace.overhead_s"] = statistics.median(traced_walls) - statistics.median(plain_walls)
    metrics["trace.wall_s"] = statistics.median(traced_walls)
    counts = [{k: v for k, v in s.items() if not k.endswith("self_s")} for s in summaries]
    notes = [
        f"pass pairs {len(traced_walls)}, untraced wall_s {statistics.median(plain_walls):.4f}, "
        f"traced wall_s {statistics.median(traced_walls):.4f}",
        f"counts {'identical' if all(c == counts[0] for c in counts) else 'DIFFER'} "
        f"across the {len(counts)} traced passes",
        f"spans written to {trace_path}",
    ]
    return metrics, notes


def main(argv=None) -> int:
    args = parse_args(sys.argv[1:] if argv is None else argv)
    try:
        pkg.load()
    except (pkg.MissingPackage, ImportError) as exc:
        print(f"error: cannot import the package of this checkout: {exc}", file=sys.stderr)
        return 2
    import workloads

    reference = json.loads((HERE / "reference.json").read_text(encoding="utf-8"))
    spec = json.loads((pkg.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    requests = workloads.MAKERS[args.workload](args.seed, reference, smoke=args.smoke)
    if args.setup_only:
        return 0

    loop = Loop(requests)
    if args.trace:
        import tracing

        wanted = spec["per_layer"]
        trace_path = TRACE_DIR / f"{args.workload}-seed{args.seed}.csv"
        try:
            metrics, notes = run_traced(loop, args.seconds, args.workload, trace_path)
        except tracing.MissingSite as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1
    else:
        wanted = spec["end_to_end"]
        metrics, notes = run_plain(loop, args.seconds, lambda: set_up_once(args),
                                   args.workload in workloads.PASS_IS_ONE_REQUEST)
    missing = [m["name"] for m in wanted if m["name"] not in metrics]
    if missing:
        print(f"error: no figure for {', '.join(missing)}", file=sys.stderr)
        return 1

    for line in notes:
        print(f"# {args.workload} seed {args.seed}: {line}")
    print(f"# fail_frac {loop.failed / max(loop.attempted, 1):.6g} "
          f"({loop.failed} of {loop.attempted} outputs failed the oracle)")
    result = {
        "correct": loop.failed == 0,
        "attempted": loop.attempted,
        "failed": loop.failed,
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]}
                    for m in wanted},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
