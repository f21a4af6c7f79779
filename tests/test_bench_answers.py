"""One tiny pass of each benchmark workload, with its answer checks and digest.

perfbench calls stabctl through signatures, exceptions and CLI flags that
the package itself no longer needs: the ignored `bound` of `theta_member`
and `find_stable_pair`, `StablePairNotFound`, `stable-pair --window`.  A
change that breaks one of them fails here, not only in `perfbench/run.py`.
"""

from __future__ import annotations

import importlib.util
import json
import random
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
WORKLOADS = [w["name"] for w in json.loads((ROOT / "BENCHMARK.json").read_text())["workloads"]]
# answer digests of the seed-1 tiny passes; a declared answer change
# updates its value and says so in CHANGES.md
DIGESTS = {
    "helix-table": "6c0244980fb4489e3e86cf3beb16c3ea2e9f7a64e467bc0628337d5ab811967f",
    "oracle-stream": "1f585dce879f55895c455d85b01d72c4af828717e29277de63e32d273a50bef2",
    "chart-queries": "adfb9580deec2d9db855a2cbe692b99b7cff6b1fb0c1f51205597ea12ba04750",
}


def _bench_module(name: str):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", ROOT / "perfbench" / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _bench_runner():
    return _bench_module("run")


@pytest.mark.parametrize("workload", WORKLOADS)
def test_tiny_pass_answers_check(workload):
    cmd = [sys.executable, str(ROOT / "perfbench" / "child.py"), "--workload", workload, "--seed", "1", "--tiny"]
    # the environment run.py pins for every pass
    proc = subprocess.run(
        cmd, env=_bench_runner().child_env(), capture_output=True, text=True, timeout=120
    )
    assert proc.returncode == 0, proc.stderr[-4000:]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["problems"] == []
    assert result["failed"] == 0
    assert result["ops"] > 0
    assert result["digest"] == DIGESTS[workload]


def test_every_cli_argv_shape_of_the_benchmark_runs():
    # the seed-1 tiny pass reaches only the first CLI turns, so each command
    # chart-queries sends is run here on both arrow counts and every base,
    # with inputs drawn as its `inputs` draws them, and checked as it checks
    wl = _bench_module("workloads")
    queries = wl.ChartQueries(tiny=True)
    rng = random.Random("cli-argv-shapes")
    for cmd in dict.fromkeys(wl.CLI_TURNS):
        for n in wl.WINDOW:
            for base in wl.BASES:
                if cmd == "orbit":
                    p = wl.rank_two_point(rng, n, base)
                else:
                    p = wl.pn._sample_point(n, base, rng)
                extra = {
                    "chart": base + rng.choice(wl.OVERLAP_OFFSETS),
                    "direction": rng.choice((wl.xc.LEFT, wl.xc.RIGHT)),
                    "charges": (wl.pn._random_half_plane(rng), wl.pn._random_half_plane(rng)),
                    "target": wl.moved(rng, p.tokens),
                }
                code, out = wl.run_cli(queries.cli_argv(cmd, p, extra))
                assert code in (0, 1), (cmd, p)
                queries.check_cli(cmd, p, extra, code, out)
