"""One pass of one workload, in a fresh Python process.

Usage: python3 perfbench/child.py --workload NAME --seed N [--trace] [--tiny]
       [--setup-only] [--spans FILE]

Imports stabctl from the checkout's `src/`, runs the workload's declared
warm-up, then its op list as a closed loop, checks every answer, and prints
one JSON object as the last line of stdout.  With --trace every public
stabctl function is wrapped by the span tracer and the per-layer figures are
included; with --spans the spans are also written to FILE.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib
import json
import os
import platform
import resource
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

MOD_P_FNS = ("mod_p_rref", "mod_p_rank", "mod_p_kernel", "mod_p_inverse")
HOM_METHODS = ("exact", "mod-p-first", "mod-p-retry", "exact-fallback")


def fail(message: str) -> None:
    print(f"perfbench: {message}", file=sys.stderr)
    raise SystemExit(2)


class Counts:
    """Counts the traced pass reads off results and caches.

    After-call hooks for the tracer tally the hom_ext method mix and the
    subrep certification counts on cache misses, the computed mod-p
    operation count of each outermost mod-p elimination, and cone_system
    sizes.  Cache lookups made while the tracer is paused (the answer
    checks) are left out of the hit ratios.
    """

    def __init__(self, tracer, rep_lab, pn_model):
        self.tracer = tracer
        self.first_prime = rep_lab.LARGE_PRIMES[0]
        # the lru-cached functions themselves, taken before the tracer wraps them
        self.caches = {
            "rep_lab.hom_ext": rep_lab.hom_ext,
            "rep_lab.subrep_dimvecs": rep_lab._subrep_cached,
            "pn_model.helix_module": pn_model.helix_module,
        }
        self.excluded = {key: [0, 0] for key in self.caches}
        self.mod_p_names = {f"linalg.{f}" for f in MOD_P_FNS}
        self.resync()

    def resync(self) -> None:
        self.seen = {key: fn.cache_info() for key, fn in self.caches.items()}

    def hooks(self) -> dict:
        hooks = {f"linalg.{f}": self.mod_p_after for f in MOD_P_FNS}
        hooks["rep_lab.hom_ext"] = self.hom_after
        hooks["rep_lab.subrep_dimvecs"] = self.subrep_after
        hooks["chart_atlas.cone_system"] = self.cone_after
        return hooks

    def pause(self) -> None:
        self.tracer.paused = True
        self.resync()

    def resume(self) -> None:
        for key, fn in self.caches.items():
            info, before = fn.cache_info(), self.seen[key]
            self.excluded[key][0] += info.hits - before.hits
            self.excluded[key][1] += info.misses - before.misses
        self.resync()
        self.tracer.paused = False

    def _missed(self, key: str) -> bool:
        info = self.caches[key].cache_info()
        missed = info.misses != self.seen[key].misses
        self.seen[key] = info
        return missed

    def hom_after(self, args, res) -> None:
        if not self._missed("rep_lab.hom_ext"):
            return
        if res.method.startswith("mod-"):
            method = "mod-p-first" if res.method == f"mod-{self.first_prime}" else "mod-p-retry"
        else:
            method = res.method
        self.tracer.count(f"rep_lab.hom_ext.method.{method}")

    def subrep_after(self, args, res) -> None:
        if not self._missed("rep_lab.subrep_dimvecs"):
            return
        self.tracer.count("rep_lab.subrep.certified", len(res.vectors))
        self.tracer.count("rep_lab.subrep.uncertified", len(res.uncertified))

    def mod_p_after(self, args, res) -> None:
        import numpy as np

        tracer = self.tracer
        if any(tracer.names[tracer.name_of[s]] in self.mod_p_names for s in tracer.stack):
            return
        shape = np.shape(args[0])
        rows, cols = (shape[0], shape[1]) if len(shape) == 2 else (0, 0)
        tracer.count("linalg.mod_p.ops_computed", rows * cols * min(rows, cols))

    def cone_after(self, args, res) -> None:
        self.tracer.count("chart_atlas.cone_system.constraints", len(res.constraints))

    def hit_ratios(self) -> dict[str, float]:
        out = {}
        for key, fn in self.caches.items():
            info = fn.cache_info()
            hits = info.hits - self.excluded[key][0]
            lookups = hits + info.misses - self.excluded[key][1]
            out[f"{key}.hit_ratio"] = hits / lookups if lookups else 0.0
        return out


def per_layer(tracer, counts: Counts) -> dict[str, float]:
    """Every per-layer figure of the traced pass; run.py picks the ones
    BENCHMARK.json lists."""
    import numpy as np
    from tracer import MODULES, aggregate, metric_module

    spans = tracer.spans()
    agg = aggregate(tracer.names, tracer.name_module, spans)
    out: dict[str, float] = {}
    for fn, stats in agg["functions"].items():
        for key in ("calls", "busy_s", "self_s"):
            out[f"{fn}.{key}"] = stats[key]
    for m in MODULES:
        out[f"{metric_module(m)}.busy_s"] = agg["modules"][m]["busy_s"]
        out[f"{metric_module(m)}.self_s"] = agg["modules"][m]["self_s"]
    out.update(counts.hit_ratios())
    tally = tracer.counts
    for method in HOM_METHODS:
        out[f"rep_lab.hom_ext.method.{method}"] = tally.get(f"rep_lab.hom_ext.method.{method}", 0)
    cert = tally.get("rep_lab.subrep.certified", 0)
    uncert = tally.get("rep_lab.subrep.uncertified", 0)
    out["rep_lab.subrep.certified_ratio"] = cert / (cert + uncert) if cert + uncert else 0.0
    out["rep_lab.subrep.uncertified"] = uncert
    out["linalg.mod_p.ops_computed"] = tally.get("linalg.mod_p.ops_computed", 0)
    out["chart_atlas.cone_system.constraints"] = tally.get("chart_atlas.cone_system.constraints", 0)
    ids = {name: i for i, name in enumerate(tracer.names)}
    fsp, tm = ids["pn_model.find_stable_pair"], ids["pn_model.theta_member"]
    name, parent = spans["name"], spans["parent"]
    searches = int(np.count_nonzero(name == fsp))
    direct = name == tm
    direct[direct] = name[parent[direct]] == fsp
    out["pn_model.find_stable_pair.charts_per_call"] = (
        int(np.count_nonzero(direct)) / searches if searches else 0.0
    )
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("--tiny", action="store_true", help="small op list, for the self-tests")
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--spans", type=Path)
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "stabctl" / "__init__.py").is_file():
        fail(f"no stabctl sources under {ROOT / 'src'}")
    t0 = time.perf_counter()
    importlib.import_module("stabctl.cli")
    import_s = time.perf_counter() - t0
    import stabctl
    from stabctl import pn_model, rep_lab
    from stabctl.klattice import OracleBoundError

    if Path(stabctl.__file__).resolve().parent != (ROOT / "src" / "stabctl").resolve():
        fail(f"imported stabctl from {stabctl.__file__}, not from this checkout")

    sys.path.insert(0, str(HERE))
    import numpy as np
    from tracer import Tracer
    from workloads import WORKLOADS, CheckFailed

    if args.workload not in WORKLOADS:
        fail(f"unknown workload {args.workload!r}")
    tracer = counts = None
    if args.trace:
        tracer = Tracer()
        counts = Counts(tracer, rep_lab, pn_model)
        tracer.install(counts.hooks())
    workload = WORKLOADS[args.workload](args.tiny)

    t1 = time.perf_counter()
    workload.setup()
    result = {
        "workload": args.workload,
        "seed": args.seed,
        "setup_s": import_s + (time.perf_counter() - t1),
    }
    if not args.setup_only:
        # input generation calls stabctl's samplers; it is no part of the trace
        if counts:
            counts.pause()
        inputs = workload.inputs(args.seed)
        if counts:
            counts.resume()
        latencies, answers, problems = [], [], []
        failed = busy_ns = 0
        # only workload.run is timed; the answer checks run outside the
        # clock and, in a traced pass, with the tracer paused
        for i, inp in enumerate(inputs):
            if tracer:
                tracer.op = i
            t = time.perf_counter_ns()
            try:
                res = workload.run(inp)
            except OracleBoundError as exc:
                busy_ns += time.perf_counter_ns() - t
                failed += 1
                latencies.append(None)
                answers.append(["refused", str(exc)])
                continue
            elapsed = time.perf_counter_ns() - t
            busy_ns += elapsed
            latencies.append(elapsed)
            if counts:
                counts.pause()
            try:
                answers.append(workload.check(inp, res))
            except CheckFailed as exc:
                problems.append(f"op {i} {inp[0]}: {exc}")
                answers.append(["wrong"])
            if counts:
                counts.resume()
        if tracer:
            tracer.op = -1
        canon = json.dumps(answers, sort_keys=True, separators=(",", ":"))
        result.update(
            wall_s=busy_ns / 1e9,
            ops=len(inputs),
            failed=failed,
            latencies_ns=latencies,
            problems=problems[:20],
            wrong=len(problems),
            digest=hashlib.sha256(canon.encode()).hexdigest(),
        )
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    result["env"] = {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "cpu_count": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "hash_seed": os.environ.get("PYTHONHASHSEED"),
        "threads": {k: v for k, v in os.environ.items() if k.endswith("_NUM_THREADS")},
    }
    if tracer and not args.setup_only:
        tracer.uninstall()
        result["per_layer"] = per_layer(tracer, counts)
        result["spans"] = len(tracer.ends)
        if args.spans:
            tracer.write(args.spans)
    sys.stdout.write(json.dumps(result, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
