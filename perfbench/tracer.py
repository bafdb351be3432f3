"""Outside-in tracing of visilat's layers, for the benchmark's traced run.

``install()`` wraps the public functions in ``TARGETS`` at every binding a
caller looks them up through: the defining module and each module that
imported the name (``counting`` imports ``norm_of_coords`` by name, and
``primes`` imports ``ideal_from_generators``).  Nothing inside the program
changes.  A wrapper records one span per call (name, start, end, parent span,
and a size taken from the result) in flat arrays; ``Patch.restore()`` puts
every original back, and ``summarize()`` turns saved spans into the
per-layer metrics.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from array import array

import numpy as np

# module -> public functions wrapped, as the layers of the program
TARGETS = {
    "numfield": ("make_field", "norm_of_coords"),
    "ideals": ("ideal_from_generators", "is_visible", "is_visible_from_all"),
    "primes": ("split_prime", "primes_up_to_norm", "s_of_prime",
               "window_first_t"),
    "density": ("predicted_density", "exact_window_density"),
    "counting": ("region_coords", "ideal_count_check", "count_visible_sieve",
                 "count_visible_direct", "mc_estimate"),
    "experiment": ("load_config", "run_experiment", "report_json"),
}

# span name -> (metric suffix, size of one call's result)
SIZES = {
    "counting.region_coords": ("points", len),
    "primes.primes_up_to_norm": ("ideals", len),
    "counting.count_visible_sieve": ("tuples", lambda r: r.total_tuples),
    "counting.count_visible_direct": ("tuples", lambda r: r.total_tuples),
    "counting.mc_estimate": ("samples", lambda r: r.total_tuples),
    "experiment.report_json": ("bytes", len),
}

NAMES = tuple(f"{mod}.{fn}" for mod, fns in TARGETS.items() for fn in fns)


class Recorder:
    """Spans of one process, kept in flat arrays until ``save``."""

    def __init__(self):
        self.name = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.size = array("q")
        self.stack: list[int] = []

    def wrap(self, span_name: str, fn):
        nid = NAMES.index(span_name)
        size_of = SIZES.get(span_name, (None, None))[1]
        name, parent, start, end, size = (self.name, self.parent, self.start,
                                          self.end, self.size)
        stack = self.stack
        clock = time.perf_counter

        def traced(*args, **kwargs):
            i = len(name)
            name.append(nid)
            parent.append(stack[-1] if stack else -1)
            start.append(0.0)
            end.append(0.0)
            size.append(0)
            stack.append(i)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                start[i] = t0
                end[i] = t1
            if size_of is not None:
                size[i] = size_of(result)
            return result

        return functools.wraps(fn)(traced)

    def save(self, path: str, run_id: int):
        """Write the spans; ``run_id`` tags every span of this process."""
        np.savez(path, names=np.array(NAMES), run_id=run_id,
                 name=np.frombuffer(self.name, dtype=np.int32),
                 parent=np.frombuffer(self.parent, dtype=np.int32),
                 start=np.frombuffer(self.start, dtype=np.float64),
                 end=np.frombuffer(self.end, dtype=np.float64),
                 size=np.frombuffer(self.size, dtype=np.int64))


class Patch:
    """The bindings ``install`` replaced, and the way to put them back."""

    def __init__(self, recorder: Recorder):
        self.recorder = recorder
        self.replaced: list[tuple[object, str, object]] = []
        # span name -> every "module.attribute" binding its wrapper replaced
        self.sites: dict[str, list[str]] = {}

    def restore(self):
        for module, attr, original in reversed(self.replaced):
            setattr(module, attr, original)

    def is_restored(self) -> bool:
        return all(getattr(module, attr) is original
                   for module, attr, original in self.replaced)


def install() -> Patch:
    """Import visilat and wrap every target at each binding that holds it."""
    importlib.import_module("visilat.experiment")  # imports every layer
    modules = [module for name, module in sorted(sys.modules.items())
               if name == "visilat" or name.startswith("visilat.")]
    patch = Patch(Recorder())
    for span_name in NAMES:
        mod, fn_name = span_name.split(".")
        original = getattr(importlib.import_module(f"visilat.{mod}"), fn_name)
        traced = patch.recorder.wrap(span_name, original)
        sites = []
        for module in modules:
            for attr, value in list(vars(module).items()):
                if value is original:
                    patch.replaced.append((module, attr, original))
                    setattr(module, attr, traced)
                    sites.append(f"{module.__name__}.{attr}")
        patch.sites[span_name] = sites
    return patch


def split_cache_info() -> dict:
    """Hits and misses of the prime-splitting cache, if the program has one."""
    from visilat import primes

    cached = getattr(primes, "_split_prime_cached", None)
    info = getattr(cached, "cache_info", None)
    if info is None:
        return {"hits": 0, "misses": 0}
    ci = info()
    return {"hits": ci.hits, "misses": ci.misses}


def _under(name: np.ndarray, parent: np.ndarray, target: int) -> np.ndarray:
    """Mask of spans that have an ancestor span named ``target``."""
    found = np.zeros(len(name), dtype=bool)
    cur = parent.copy()
    while (cur >= 0).any():
        live = cur >= 0
        found |= live & (name[np.where(live, cur, 0)] == target)
        cur = np.where(live, parent[np.where(live, cur, 0)], -1)
    return found


def summarize(spans) -> dict:
    """Per-layer metrics from saved spans (an ``np.load`` of ``save``)."""
    names = [str(x) for x in spans["names"]]
    name, parent = spans["name"], spans["parent"]
    dur = spans["end"] - spans["start"]
    size = spans["size"]
    has_parent = parent >= 0
    child_time = np.bincount(parent[has_parent], weights=dur[has_parent],
                             minlength=len(name))
    self_time = dur - child_time
    k = len(names)
    calls = np.bincount(name, minlength=k)
    total = np.bincount(name, weights=dur, minlength=k)
    own = np.bincount(name, weights=self_time, minlength=k)
    sizes = np.bincount(name, weights=size, minlength=k)
    out = {}
    for i, span_name in enumerate(names):
        out[f"{span_name}.calls"] = int(calls[i])
        out[f"{span_name}.s"] = float(total[i])
        out[f"{span_name}.self_s"] = float(own[i])
        if span_name in SIZES:
            out[f"{span_name}.{SIZES[span_name][0]}"] = int(sizes[i])
    ix = names.index
    hnf = name == ix("ideals.ideal_from_generators")
    out["counting.direct.hnf_calls"] = int(
        (hnf & _under(name, parent, ix("counting.count_visible_direct"))).sum())
    enum = name == ix("primes.primes_up_to_norm")
    sieve_child = enum & has_parent & (
        name[np.where(has_parent, parent, 0)] == ix("counting.count_visible_sieve"))
    out["counting.count_visible_sieve.primes_marked"] = int(size[sieve_child].sum())
    run_s = out["experiment.run_experiment.s"]
    out["trace.coverage"] = (1 - out["experiment.run_experiment.self_s"] / run_s
                             if run_s > 0 else 0.0)
    return out
