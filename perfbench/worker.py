"""Benchmark worker: runs one workload in this process, one closed-loop client.

Started by run.py as a fresh interpreter.  It imports susyqm.cli and numpy,
builds the seeded ops, prints READY (run.py times set-up up to that line),
then runs whole passes until the next one would overrun --seconds.  Each op
is one in-process `susyqm.cli.main(argv)` call, sent only after the previous
one returned.  Reports are checked after each pass, outside the timed region.
The last stdout line is a JSON object of raw results for run.py.

With --trace 1, untraced and traced passes alternate; the traced ones give
the per-layer totals and the difference gives the tracing overhead.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import math
import resource
import statistics
import sys
import time

import workloads

# percentiles considered for op_tail_ms, highest first
TAIL_LADDER = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)
TAIL_MIN_BEYOND = 10


def tail_percentile(distinct_inputs: int) -> float:
    """Highest ladder percentile with at least ten distinct inputs beyond it.

    Passes replay the same inputs, so the rule counts the inputs of one pass,
    which keeps the percentile fixed however many passes fit in a run.  With
    fewer than eleven inputs no percentile qualifies and the maximum is used.
    """
    for pct in TAIL_LADDER:
        if distinct_inputs * (1.0 - pct / 100.0) >= TAIL_MIN_BEYOND - 1e-9:
            return pct
    return 100.0


def percentile(samples: list[float], pct: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(samples)
    rank = max(1, math.ceil(pct / 100.0 * len(ordered)))
    return ordered[rank - 1]


def run_op(cli, argv: tuple[str, ...]) -> tuple[int | None, float, str]:
    """One CLI call; returns (exit code or None if it raised, seconds, stdout)."""
    out, err = io.StringIO(), io.StringIO()
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(list(argv))
    except Exception as exc:  # a traceback fails the op, not the benchmark
        code = None
        err.write(f"{type(exc).__name__}: {exc}\n")
    elapsed = time.perf_counter() - start
    if code != 0:
        sys.stderr.write(f"op {' '.join(argv)} exited {code}: {err.getvalue()[:500]}\n")
    return code, elapsed, out.getvalue()


def run_pass(cli, ops: list, tracer=None, first_op_id: int = 0) -> dict:
    latencies, outputs = [], []
    start = time.perf_counter()
    for i, op in enumerate(ops):
        if tracer is not None:
            tracer.op_id = first_op_id + i
        code, elapsed, stdout = run_op(cli, op.argv)
        latencies.append(elapsed)
        outputs.append((code, stdout))
    wall = time.perf_counter() - start
    attempted = failed = 0
    payloads = []
    for op, (code, stdout) in zip(ops, outputs):
        verdict = workloads.check(op, code, stdout)
        attempted += verdict.attempted
        failed += verdict.failed
        if verdict.exact_payload is not None:
            payloads.append(verdict.exact_payload)
    return {"wall": wall, "latencies": latencies, "attempted": attempted,
            "failed": failed,
            "digest": workloads.payload_digest(payloads) if payloads else None}


def measure(cli, ops: list, seconds: float, tracer=None) -> dict:
    """Run whole passes while the next one is predicted to fit in `seconds`.

    At least one pass runs (with a tracer: one untraced and one traced).
    """
    deadline = time.perf_counter() + seconds
    plain, traced, layer_totals = [], [], []
    while True:
        plain.append(run_pass(cli, ops))
        if tracer is not None:
            with tracer:
                traced.append(run_pass(cli, ops, tracer, len(ops) * len(traced)))
            layer_totals.append(tracer.take_pass())
        cycle = plain[-1]["wall"] + (traced[-1]["wall"] if traced else 0.0)
        if time.perf_counter() + cycle > deadline:
            return {"plain": plain, "traced": traced, "layers": layer_totals}


def end_to_end(ops: list, passes: list[dict]) -> dict:
    walls = [p["wall"] for p in passes]
    latencies = [x for p in passes for x in p["latencies"]]
    pct = tail_percentile(len(ops))
    wall = statistics.median(walls)
    return {
        "wall_s": wall,
        "ops_per_s": workloads.ops_per_pass(ops) / wall,
        "op_p50_ms": 1000.0 * statistics.median(latencies),
        "op_tail_ms": 1000.0 * percentile(latencies, pct),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "_op_tail_percentile": pct,
        "_op_samples": len(latencies),
    }


def per_layer(plain: list[dict], traced: list[dict], layers: list[dict]) -> dict:
    """Mean per traced pass; module self times plus bench.self_s add up to trace.wall_s."""
    names = {name for totals in layers for name in totals}
    values = {name: statistics.fmean(t.get(name, 0) for t in layers) for name in names}
    values["tanh_algebra.max_coeff_bits"] = max(
        t.get("tanh_algebra.max_coeff_bits", 0) for t in layers)
    traced_wall = statistics.fmean(p["wall"] for p in traced)
    modules_self = sum(v for k, v in values.items() if k.endswith(".self_s"))
    values["trace.wall_s"] = traced_wall
    values["trace.overhead_s"] = traced_wall - statistics.fmean(p["wall"] for p in plain)
    values["bench.self_s"] = traced_wall - modules_self
    return values


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--spans-out", default=None)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    import numpy
    import susyqm.cli as cli
    ops = workloads.generate(args.workload, args.seed)
    print("READY", flush=True)
    if args.setup_only:
        return 0

    tracer = None
    if args.trace:
        from tracer import Tracer
        tracer = Tracer()
    runs = measure(cli, ops, args.seconds, tracer)
    passes = runs["plain"] + runs["traced"]
    digests = sorted({p["digest"] for p in passes if p["digest"] is not None})
    result = {
        "numpy_version": numpy.__version__,
        "passes": len(runs["plain"]),
        "traced_passes": len(runs["traced"]),
        "attempted": sum(p["attempted"] for p in passes),
        "failed": sum(p["failed"] for p in passes),
        "exact_digests": digests,
        "pass_walls_s": [p["wall"] for p in runs["plain"]],
        "metrics": end_to_end(ops, runs["plain"]),
    }
    if tracer is not None:
        result["metrics"].update(per_layer(runs["plain"], runs["traced"], runs["layers"]))
        if args.spans_out:
            tracer.dump(args.spans_out)
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
