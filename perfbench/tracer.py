"""Span recording for the oscext benchmark, installed from outside the package.

`Tracer.install` wraps every public function of each oscext module and
rebinds the wrapper at every import site: module attributes (including the
re-exports in ``oscext/__init__``) and module-level dicts such as
``derive._STEPS``.  Function-local imports resolve through the module
attribute at call time, so they pick up the wrapper too.

A span is ``[name, start, end, parent, job, quantities]``.  Spans stay in
memory; `write` dumps them once the run is over.  A span's self time is its
duration minus the durations of its direct children; calls are synchronous
and single-threaded, so children never overlap.
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
import time
from collections import defaultdict

LAYERS = ("space", "derive", "unity", "extend", "instances", "cli")


def _arg(bound, name):
    return bound.arguments[name]


def _members(bound):
    return {"members": len(_arg(bound, "members"))}


def _pairs_among(bound):
    k = len(_arg(bound, "members"))
    return {"pairs": k * k}


def _pair_step(bound, result):
    return {"members": _arg(bound, "P").size, "kept": result.size}


def _nearest_pairs(bound):
    return {"pairs": _arg(bound, "space").n * _arg(bound, "target").size}


# Quantities recorded per call, keyed by span name.  ``before`` reads the
# arguments, ``after`` also reads the result.
BEFORE = {
    "space.local_scales": _members,
    "space.dists_among": _pairs_among,
    "extend.nearest_in_set": _nearest_pairs,
}
AFTER = {
    "derive.pair_step": _pair_step,
    "derive.iterate": lambda b, r: {"levels": len(r.levels)},
    "derive.index_profile": lambda b, r: {
        "entries": len(r.entries),
        "saturated": sum(1 for e in r.entries if e.saturated),
    },
    "unity.cover_for_piece": lambda b, r: {"elements": len(r.elements)},
    "unity.partition": lambda b, r: {"support_points": sum(ids.size for ids in r.support_ids)},
    "extend.layered_extension": lambda b, r: {"layers": r.diagnostics["layers"]},
    "extend.scattered_extension": lambda b, r: {"components": r.diagnostics["components"]},
}


def _package_modules():
    return [m for name, m in sorted(sys.modules.items())
            if m is not None and (name == "oscext" or name.startswith("oscext."))]


def public_functions():
    """(span name, function) for every public function of every layer."""
    out = []
    for layer in LAYERS:
        mod = sys.modules[f"oscext.{layer}"]
        for fname, fn in sorted(vars(mod).items()):
            if inspect.isfunction(fn) and fn.__module__ == mod.__name__ and not fname.startswith("_"):
                out.append((f"{layer}.{fname}", fn))
    return out


def unwrapped_references(originals):
    """Import sites that still hold an original function after `install`."""
    left = []
    for mod in _package_modules():
        for attr, val in vars(mod).items():
            if id(val) in originals:
                left.append(f"{mod.__name__}.{attr}")
            elif isinstance(val, dict):
                left.extend(f"{mod.__name__}.{attr}[{k!r}]"
                            for k, v in val.items() if id(v) in originals)
    return left


class Tracer:
    def __init__(self):
        self.spans = []
        self.job = None
        self._stack = []

    def _wrap(self, name, fn):
        spans, stack = self.spans, self._stack
        before, after = BEFORE.get(name), AFTER.get(name)
        sig = inspect.signature(fn) if (before or after) else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, self.job, None]
            bound = sig.bind(*args, **kwargs) if sig is not None else None
            if before is not None:
                span[5] = before(bound)
            stack.append(len(spans))
            spans.append(span)
            span[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                stack.pop()
            if after is not None:
                span[5] = after(bound, result)
            return result

        return traced

    def install(self):
        """Wrap and rebind; return the import sites left unwrapped (none expected)."""
        originals = {}
        for name, fn in public_functions():
            originals[id(fn)] = (fn, self._wrap(name, fn))
        for mod in _package_modules():
            for attr, val in list(vars(mod).items()):
                if id(val) in originals:
                    setattr(mod, attr, originals[id(val)][1])
                elif isinstance(val, dict):
                    for k, v in list(val.items()):
                        if id(v) in originals:
                            val[k] = originals[id(v)][1]
        return unwrapped_references(originals)

    def self_times(self):
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _job, _q in self.spans:
            if parent >= 0:
                child[parent] += end - start
        return [end - start - child[i] for i, (_n, start, end, *_r) in enumerate(self.spans)]

    def summary(self, jobs):
        """Per span name: self_s, calls and recorded quantities over ``jobs``."""
        out = defaultdict(float)
        for span, self_s in zip(self.spans, self.self_times()):
            name, _s, _e, _p, job, quantities = span
            if job not in jobs:
                continue
            layer = name.split(".", 1)[0]
            out[f"{layer}.self_s"] += self_s
            out[f"{name}.self_s"] += self_s
            out[f"{name}.calls"] += 1
            for q, v in (quantities or {}).items():
                out[f"{name}.{q}"] += v
        return out

    def write(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"fields": ["name", "start", "end", "parent", "job", "quantities"],
                       "spans": self.spans}, fh)
