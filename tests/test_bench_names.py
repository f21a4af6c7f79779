"""The traced benchmark reads stabctl by name; a deletion must break here.

`perfbench` wraps stabctl functions by their names and reads the
`lru_cache` statistics of three cached functions, so a rename or deletion
otherwise shows only when the benchmark runs traced.
"""

from __future__ import annotations

import importlib
import json
from pathlib import Path

BENCHMARK = Path(__file__).resolve().parents[1] / "BENCHMARK.json"


def _resolve(dotted: str):
    module, *path = dotted.split(".")
    # metric names drop the leading underscore of `_linalg`
    obj = importlib.import_module(f"stabctl.{'_linalg' if module == 'linalg' else module}")
    for attr in path:
        obj = getattr(obj, attr, None)
    return obj


def test_every_traced_function_exists():
    metrics = json.loads(BENCHMARK.read_text())["per_layer"]
    names = [m["name"].removesuffix(".calls") for m in metrics if m["name"].endswith(".calls")]
    assert len(names) > 20
    assert [n for n in names if not callable(_resolve(n))] == []


def test_benchmark_caches_keep_their_statistics():
    names = ("rep_lab.hom_ext", "rep_lab._subrep_cached", "pn_model.helix_module")
    assert [n for n in names if not callable(getattr(_resolve(n), "cache_info", None))] == []
