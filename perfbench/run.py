"""susyqm benchmark: one command for every workload and metric.

    python3 perfbench/run.py --workload verify-all --seed 1 --seconds 30 --trace 0

Run from the repository root.  Set-up is timed by starting fresh worker
interpreters (SETUP_PROBES of them, then the measuring one) and reading the
time until each prints READY; setup_s is their median.  The measuring worker
runs the workload (see worker.py), and this script checks its result, writes
a run record under .bench_build/perfbench/ and prints a summary.  The last
stdout line is the JSON result: with --trace 0 it holds every end_to_end
metric of BENCHMARK.json, with --trace 1 every per_layer metric.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
WORKER = os.path.join(HERE, "worker.py")

sys.path.insert(0, HERE)
import workloads  # noqa: E402

SETUP_PROBES = 5
TIME_LIMIT_S = 170.0
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "BLIS_NUM_THREADS")


class BenchError(RuntimeError):
    pass


def load_spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def worker_env() -> dict:
    """Child environment: the package from src/, one BLAS/OpenMP thread, no config."""
    env = dict(os.environ)
    env.pop("SUSYQM_CONFIG", None)
    for var in THREAD_VARS:
        env[var] = "1"
    env["PYTHONPATH"] = SRC
    env["PYTHONHASHSEED"] = "0"
    return env


def start_worker(extra: list[str], env: dict, deadline: float) -> tuple[subprocess.Popen, float]:
    """Start a worker and wait for READY; returns (process, set-up seconds)."""
    start = time.perf_counter()
    proc = subprocess.Popen([sys.executable, WORKER, *extra], cwd=ROOT, env=env,
                            stdout=subprocess.PIPE, text=True)
    line = proc.stdout.readline()
    setup = time.perf_counter() - start
    if line.strip() != "READY":
        stop(proc)
        raise BenchError(f"worker did not get ready (exit {proc.returncode})")
    if time.perf_counter() > deadline:
        stop(proc)
        raise BenchError("set-up ran past the time limit")
    return proc, setup


def stop(proc: subprocess.Popen) -> None:
    if proc.poll() is None:
        proc.kill()
    proc.wait()
    proc.stdout.close()


def finish(proc: subprocess.Popen, deadline: float) -> str:
    try:
        out, _ = proc.communicate(timeout=max(1.0, deadline - time.perf_counter()))
    except subprocess.TimeoutExpired:
        stop(proc)
        raise BenchError("worker ran past the time limit") from None
    if proc.returncode != 0:
        raise BenchError(f"worker exited {proc.returncode}")
    return out


def git_sha() -> str | None:
    """HEAD of the checkout, read from .git without running git; None outside git."""
    head = os.path.join(ROOT, ".git", "HEAD")
    if not os.path.isfile(head):
        return None
    with open(head, encoding="utf-8") as fh:
        ref = fh.read().strip()
    if not ref.startswith("ref: "):
        return ref
    path = os.path.join(ROOT, ".git", ref[5:])
    if os.path.isfile(path):
        with open(path, encoding="utf-8") as fh:
            return fh.read().strip()
    packed = os.path.join(ROOT, ".git", "packed-refs")
    if os.path.isfile(packed):
        with open(packed, encoding="utf-8") as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref[5:]):
                    return line.split()[0]
    return None


def select_metrics(spec: dict, trace: int, raw: dict) -> dict:
    """The metrics BENCHMARK.json names for this mode, with their units.

    A per-layer name the trace never produced (a function that was not called
    on this workload) reads 0; an end-to-end metric must always be measured.
    """
    wanted = spec["per_layer"] if trace else spec["end_to_end"]
    out = {}
    for metric in wanted:
        name = metric["name"]
        if name not in raw and not trace:
            raise BenchError(f"metric {name} was not measured")
        out[name] = {"value": float(raw.get(name, 0.0)), "unit": metric["unit"]}
    return out


def run(args) -> dict:
    deadline = time.perf_counter() + TIME_LIMIT_S
    if not os.path.isfile(os.path.join(SRC, "susyqm", "cli.py")):
        raise BenchError(f"no susyqm sources under {SRC}; run from a full checkout")
    spec = load_spec()
    os.makedirs(OUT_DIR, exist_ok=True)
    load_at_start = os.getloadavg()
    env = worker_env()
    base = ["--workload", args.workload, "--seed", str(args.seed)]

    setups = []
    for _ in range(SETUP_PROBES):
        proc, setup = start_worker(base + ["--setup-only"], env, deadline)
        finish(proc, deadline)
        setups.append(setup)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    measure = base + ["--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        measure += ["--spans-out", os.path.join(OUT_DIR, f"spans-{tag}.json")]
    proc, setup = start_worker(measure, env, deadline)
    setups.append(setup)
    lines = finish(proc, deadline).strip().splitlines()
    if not lines:
        raise BenchError("worker printed no result")
    result = json.loads(lines[-1])

    raw = dict(result["metrics"])
    tail_pct, op_samples = raw.pop("_op_tail_percentile"), raw.pop("_op_samples")
    raw["setup_s"] = statistics.median(setups)
    raw["fail_ratio"] = result["failed"] / result["attempted"]
    metrics = select_metrics(spec, args.trace, raw)
    correct = result["failed"] == 0 and len(result["exact_digests"]) <= 1

    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "default_seed": workloads.DEFAULT_SEED,
        "seconds": args.seconds,
        "trace": args.trace,
        "git_sha": git_sha(),
        "python": platform.python_version(),
        "numpy": result["numpy_version"],
        "nproc": os.cpu_count(),
        "loadavg_at_start": load_at_start,
        "correct": correct,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "passes": result["passes"],
        "traced_passes": result["traced_passes"],
        "pass_walls_s": result["pass_walls_s"],
        "setup_samples_s": setups,
        "op_tail_percentile": tail_pct,
        "op_samples": op_samples,
        "exact_digests": result["exact_digests"],
        # names outside BENCHMARK.json are per-function calls, busy_s and self_s
        "metrics": {name: {"value": value,
                           "unit": units.get(name, "s" if name.endswith("_s") else "count")}
                    for name, value in sorted(raw.items())},
    }
    record_path = os.path.join(OUT_DIR, f"record-{tag}.json")
    with open(record_path, "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)

    print(f"{args.workload} seed={args.seed} trace={args.trace}: "
          f"{record['passes']} passes (+{record['traced_passes']} traced), "
          f"{result['attempted']} ops, {result['failed']} failed")
    for name, metric in metrics.items():
        print(f"  {name:48s} {metric['value']:.6g} {metric['unit']}")
    print(f"  fail_ratio = {result['failed']}/{result['attempted']} ops")
    if not args.trace:
        print(f"  op_tail_ms is p{tail_pct:g} of {op_samples} op latencies")
    for digest in result["exact_digests"]:
        print(f"  exact wave payload digest {digest}")
    print(f"  record: {os.path.relpath(record_path, ROOT)}")
    return {"correct": correct, "attempted": result["attempted"],
            "failed": result["failed"], "metrics": metrics}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="susyqm benchmark")
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        summary = run(args)
    except (BenchError, OSError, ValueError, KeyError) as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
