"""stabctl benchmark: run one workload and print its metrics.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload helix-table --seed 1 --seconds 30 --trace 0

Workloads: helix-table, oracle-stream, chart-queries (see HOWTO.md).

Each pass of a workload runs in a fresh Python process (perfbench/child.py)
with PYTHONHASHSEED and the BLAS/OpenMP thread counts pinned.  With
--trace 0 the run repeats whole passes for about --seconds seconds, adds
set-up probes until it has at least five set-up samples, and reports the
end-to-end metrics.  With --trace 1 it runs one untraced and one traced pass
and reports the per-layer metrics of the traced one, plus their time ratio.

Every answer is checked; the last line of stdout is one JSON object with the
keys correct, attempted, failed and metrics.  The lines before it give the
answer digest, the pinned environment and figures that are not metrics.
"""

from __future__ import annotations

import argparse
import compileall
import json
import math
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

OUT = ROOT / ".perfbench_out"
SPEC_FILE = ROOT / "BENCHMARK.json"
HASH_SEED = "0"
THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
)
MIN_SETUP_SAMPLES = 5
RUN_LIMIT_S = 170


class BenchError(RuntimeError):
    pass


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    env["PYTHONHASHSEED"] = HASH_SEED
    for var in THREAD_VARS:
        env[var] = "1"
    return env


def run_child(args, deadline: float, *extra: str) -> dict:
    cmd = [
        sys.executable,
        str(HERE / "child.py"),
        "--workload",
        args.workload,
        "--seed",
        str(args.seed),
        *(["--tiny"] if args.tiny else []),
        *extra,
    ]
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise BenchError("out of time before the next pass")
    proc = subprocess.run(cmd, env=child_env(), capture_output=True, text=True, timeout=timeout)
    if proc.returncode != 0:
        raise BenchError(f"pass failed with exit code {proc.returncode}:\n{proc.stderr[-4000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def percentile_ms(latencies_ns: list, q: float) -> float:
    """Nearest-rank percentile; a refused op (None) is slower than any answer."""
    ordered = sorted(math.inf if x is None else x for x in latencies_ns)
    rank = max(1, math.ceil(q * len(ordered)))
    return ordered[rank - 1] / 1e6



def units(spec: dict, key: str) -> dict[str, str]:
    """The metrics BENCHMARK.json lists under `key`, with their units."""
    return {m["name"]: m["unit"] for m in spec[key]}


def passes_correct(passes: list[dict]) -> tuple[bool, list[str]]:
    problems = []
    for p in passes:
        problems.extend(p["problems"])
    digests = {p["digest"] for p in passes}
    if len(digests) > 1:
        problems.append(f"passes of one seed gave different answers: {sorted(digests)}")
    return not problems, problems


def untraced(args, deadline: float):
    """Whole passes for about --seconds seconds, with set-up probes between
    them until there are MIN_SETUP_SAMPLES set-up samples.

    Every time metric is a median: over passes for wall time, throughput
    and peak RSS, over the pooled op latencies of all passes for op latency,
    and over at least MIN_SETUP_SAMPLES fresh processes for set-up time.
    """
    started = time.monotonic()
    passes = [run_child(args, deadline)]
    target = 1 if args.tiny else max(1, round(args.seconds / (time.monotonic() - started)))
    setups = [passes[0]["setup_s"]]
    probes = max(0, MIN_SETUP_SAMPLES - target)
    while len(passes) < target or probes:
        if probes:
            setups.append(run_child(args, deadline, "--setup-only")["setup_s"])
            probes -= 1
        if len(passes) < target:
            passes.append(run_child(args, deadline))
            setups.append(passes[-1]["setup_s"])

    attempted = sum(p["ops"] for p in passes)
    failed = sum(p["failed"] for p in passes)
    wall = [p["wall_s"] for p in passes]
    samples = [x for p in passes for x in p["latencies_ns"]]
    metrics = {
        "setup_s": statistics.median(setups),
        "wall_s": statistics.median(wall),
        "ops_per_s": statistics.median((p["ops"] - p["failed"]) / p["wall_s"] for p in passes),
        "op_p50_ms": percentile_ms(samples, 0.50),
        "peak_rss_mb": statistics.median(p["peak_rss_mb"] for p in passes),
    }
    report = {
        "pass_wall_s": wall,
        "pass_p50_ms": [percentile_ms(p["latencies_ns"], 0.50) for p in passes],
        "setup_samples_s": setups,
        "fail_ratio": failed / attempted,
        "ops_per_pass": passes[0]["ops"],
        "op_p50_samples": len(samples),
    }
    # p99 only with at least ten samples beyond it
    if len(samples) >= 1000:
        report["op_p99_ms"] = percentile_ms(samples, 0.99)
    return passes, metrics, report, attempted, failed


def traced(args, deadline: float):
    plain = run_child(args, deadline)
    OUT.mkdir(exist_ok=True)
    spans = OUT / f"{args.workload}-seed{args.seed}.npz"
    with_trace = run_child(args, deadline, "--trace", "--spans", str(spans))
    metrics = dict(with_trace["per_layer"])
    metrics["trace.overhead_ratio"] = with_trace["wall_s"] / plain["wall_s"]
    report = {"spans": with_trace["spans"], "spans_file": str(spans.relative_to(ROOT))}
    passes = [plain, with_trace]
    attempted = sum(p["ops"] for p in passes)
    failed = sum(p["failed"] for p in passes)
    return passes, metrics, report, attempted, failed


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="stabctl benchmark")
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tiny", action="store_true", help="one small pass, for the self-tests")
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "stabctl" / "__init__.py").is_file():
        print(f"perfbench: no stabctl sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    spec = json.loads(SPEC_FILE.read_text())
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        print(f"perfbench: {SPEC_FILE.name} has no workload {args.workload!r}", file=sys.stderr)
        return 2
    deadline = time.monotonic() + RUN_LIMIT_S
    # byte-compile first, so no pass pays for compiling
    for tree in (ROOT / "src" / "stabctl", HERE):
        if not compileall.compile_dir(str(tree), quiet=1):
            print(f"perfbench: cannot compile {tree}", file=sys.stderr)
            return 2
    try:
        if args.trace:
            wanted = units(spec, "per_layer")
            passes, metrics, report, attempted, failed = traced(args, deadline)
        else:
            wanted = units(spec, "end_to_end")
            passes, metrics, report, attempted, failed = untraced(args, deadline)
        missing = set(wanted) - set(metrics)
        if missing:
            raise BenchError(f"no figure for {sorted(missing)}")
    except (BenchError, subprocess.TimeoutExpired) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    correct, problems = passes_correct(passes)
    first = passes[0]
    report.update(
        workload=args.workload,
        seed=args.seed,
        trace=args.trace,
        digest=first["digest"],
        env=dict(first["env"], workload_seed=args.seed),
        problems=problems[:20],
    )
    print("report " + json.dumps(report, sort_keys=True))
    for name, unit in wanted.items():
        print(f"metric {name} = {metrics[name]!r} {unit}")
    result = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in wanted.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
