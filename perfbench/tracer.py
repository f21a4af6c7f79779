"""Span tracer that wraps the public functions of the stabctl modules.

Nothing under ``src/`` is edited: the tracer replaces module attributes at run
time.  Every public function of a traced module is wrapped, and so is every
name another stabctl module bound to it with ``from .x import f``.  Public
static methods of public classes (``GaussianRational.parse``) are wrapped on
the class.

Each call records one span: name, start, end, parent span and op id, plus two
flags saying whether the span is the outermost active one of its function and
of its module.  Spans stay in memory in flat integer arrays and are written
out when the run ends.  A generator function's span covers only creating the
generator; its iteration is charged to the caller.  While `paused` is set
(the harness sets it around its answer checks), calls go straight through
and record nothing.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
from array import array
from pathlib import Path

import numpy as np

MODULES = (
    "klattice",
    "gl_action",
    "exc_collections",
    "chart_atlas",
    "_linalg",
    "rep_lab",
    "pn_model",
    "cli",
)

OUTER_NAME = 1
OUTER_MODULE = 2


def metric_module(module: str) -> str:
    """Module name as used in metric names, which may not start with `_`."""
    return module.lstrip("_")


class Tracer:
    """Wraps the stabctl modules and records one span per wrapped call.

    `hooks` maps a span name to a callable `(args, result)` run after the
    call returns, which the workloads use to read counts off results.
    """

    def __init__(self):
        self.names: list[str] = []
        self.name_module: list[int] = []
        self.starts = array("q")
        self.ends = array("q")
        self.parents = array("q")
        self.name_of = array("q")
        self.op_of = array("q")
        self.flags = array("q")
        self.stack: list[int] = []
        self.active: list[int] = []
        self.module_active = [0] * len(MODULES)
        self.op = -1
        self.paused = False
        self.counts: dict[str, float] = {}
        self._originals: list[tuple[object, str, object]] = []

    def count(self, key: str, amount=1) -> None:
        self.counts[key] = self.counts.get(key, 0) + amount

    # -- wrapping -----------------------------------------------------------

    def _wrap(self, fn, name: str, mi: int, after):
        nid = len(self.names)
        self.names.append(name)
        self.name_module.append(mi)
        self.active.append(0)
        starts, ends, parents = self.starts, self.ends, self.parents
        name_of, op_of, flags = self.name_of, self.op_of, self.flags
        stack, active, module_active = self.stack, self.active, self.module_active
        clock = time.perf_counter_ns
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if tracer.paused:
                return fn(*args, **kwargs)
            idx = len(ends)
            parents.append(stack[-1] if stack else -1)
            name_of.append(nid)
            op_of.append(tracer.op)
            flags.append(
                (OUTER_NAME if not active[nid] else 0)
                | (OUTER_MODULE if not module_active[mi] else 0)
            )
            ends.append(0)
            active[nid] += 1
            module_active[mi] += 1
            stack.append(idx)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()
                active[nid] -= 1
                module_active[mi] -= 1
            if after is not None:
                after(args, result)
            return result

        return traced

    def install(self, hooks: dict | None = None) -> None:
        """Wrap every public function of the traced modules, in place."""
        hooks = hooks or {}
        stabctl_mods = [m for k, m in sys.modules.items() if k.startswith("stabctl.")]
        for mi, mname in enumerate(MODULES):
            mod = sys.modules[f"stabctl.{mname}"]
            prefix = metric_module(mname)
            for attr, obj in sorted(vars(mod).items()):
                if attr.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if inspect.isclass(obj):
                    for mattr, raw in sorted(vars(obj).items()):
                        if mattr.startswith("_") or not isinstance(raw, staticmethod):
                            continue
                        name = f"{prefix}.{attr}.{mattr}"
                        wrapped = self._wrap(raw.__func__, name, mi, hooks.get(name))
                        self._originals.append((obj, mattr, raw))
                        setattr(obj, mattr, staticmethod(wrapped))
                elif callable(obj):
                    name = f"{prefix}.{attr}"
                    wrapped = self._wrap(obj, name, mi, hooks.get(name))
                    for other in stabctl_mods:
                        for oattr, oval in list(vars(other).items()):
                            if oval is obj:
                                self._originals.append((other, oattr, obj))
                                setattr(other, oattr, wrapped)

    def uninstall(self) -> None:
        for owner, attr, obj in reversed(self._originals):
            setattr(owner, attr, obj)
        self._originals.clear()

    # -- results ------------------------------------------------------------

    def spans(self) -> dict[str, np.ndarray]:
        def col(a):
            return np.frombuffer(a, dtype=np.int64).copy() if len(a) else np.zeros(0, np.int64)

        return {
            "start_ns": col(self.starts),
            "end_ns": col(self.ends),
            "parent": col(self.parents),
            "name": col(self.name_of),
            "op": col(self.op_of),
            "flags": col(self.flags),
        }

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        np.savez(
            path,
            names=np.array(self.names),
            modules=np.array([MODULES[m] for m in self.name_module]),
            **self.spans(),
        )


def aggregate(names, name_module, spans: dict[str, np.ndarray]) -> dict:
    """Calls, busy and self seconds per function and per module.

    busy sums the spans that are the outermost active span of their function
    (or module), so recursion and internal delegation count once.  self is a
    span's duration minus the durations of its direct children.
    """
    start, end, parent = spans["start_ns"], spans["end_ns"], spans["parent"]
    name, flags = spans["name"], spans["flags"]
    dur = end - start
    child = np.zeros(len(dur), dtype=np.int64)
    nested = parent >= 0
    np.add.at(child, parent[nested], dur[nested])
    self_ns = dur - child
    module = np.asarray(name_module, dtype=np.int64)[name]
    k, m = len(names), len(MODULES)

    def per(keys, weights, size):
        return np.bincount(keys, weights=weights, minlength=size) / 1e9

    calls = np.bincount(name, minlength=k)
    busy = per(name, dur * ((flags & OUTER_NAME) > 0), k)
    selft = per(name, self_ns, k)
    mbusy = per(module, dur * ((flags & OUTER_MODULE) > 0), m)
    mself = per(module, self_ns, m)
    return {
        "functions": {
            names[i]: {"calls": int(calls[i]), "busy_s": float(busy[i]), "self_s": float(selft[i])}
            for i in range(k)
        },
        "modules": {
            MODULES[i]: {"busy_s": float(mbusy[i]), "self_s": float(mself[i])} for i in range(m)
        },
    }
