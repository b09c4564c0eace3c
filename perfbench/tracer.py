"""Span tracing of the package's layer functions, from outside the package.

The modules import layer functions by name (``from .walls import weight``),
so a call such as ``verify.enumerate_proper`` never looks at ``walls``.  The
tracer therefore rebinds each function in every ``youngwalls`` module
namespace that holds it, and puts the originals back on ``uninstall``.
Spans (name, start, end, parent) stay in flat arrays until the run ends.
"""

from __future__ import annotations

import gzip
import sys
import time
from array import array

#: The wrapped public functions, by layer (module).
LAYERS = {
    "partitions": ("enumerate_partitions", "enumerate_strict", "count_partitions",
                   "count_strict", "count_odd"),
    "series": ("series_product_strict", "series_product_odd"),
    "walls": ("enumerate_proper", "enumerate_reduced", "weight", "is_reduced",
              "is_proper", "has_removable_delta"),
    "bijections": ("psi", "psi_inv", "phi", "phi_inv"),
    "characters": ("virtual_character", "principal_character"),
    "verify": ("verify_euler", "verify_count_identity", "verify_fock",
               "verify_vch_identity", "verify_bijections",
               "verify_reduced_equivalence", "run_checks"),
    "cli": ("main", "parse_partition"),
}

#: Extra per-call counters: metric suffix and how to read it off the result.
COUNTERS = {
    "partitions.enumerate_partitions": ("items", len),
    "partitions.enumerate_strict": ("items", len),
    "walls.enumerate_proper": ("items", len),
    "walls.enumerate_reduced": ("items", len),
    "bijections.psi": ("steps", lambda result: len(result.trace)),
    "bijections.phi": ("steps", lambda result: len(result.trace)),
}

NAMES = tuple(f"{layer}.{func}" for layer, funcs in LAYERS.items() for func in funcs)


def metric_names() -> list[str]:
    """Every per-function metric a traced pass yields, in a fixed order."""
    out = []
    for name in NAMES:
        out += [f"{name}.calls", f"{name}.self_s"]
        if name in COUNTERS:
            out.append(f"{name}.{COUNTERS[name][0]}")
    return out


class Tracer:
    def __init__(self, clock=time.perf_counter) -> None:
        """``clock`` times the spans."""
        self.clock = clock
        self.span_name = array("i")
        self.span_parent = array("q")
        self.span_start = array("d")
        self.span_end = array("d")
        self.counters = [0] * len(NAMES)
        self._stack = [-1]
        self._saved: list[tuple[object, str, object]] = []

    def _wrap(self, idx: int, fn, count):
        names, parents = self.span_name, self.span_parent
        starts, ends = self.span_start, self.span_end
        stack, counters, clock = self._stack, self.counters, self.clock

        def wrapper(*args, **kwargs):
            sid = len(starts)
            names.append(idx)
            parents.append(stack[-1])
            starts.append(0.0)
            ends.append(0.0)
            stack.append(sid)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[sid] = clock()
                starts[sid] = t0
                stack.pop()
            if count is not None:
                counters[idx] += count(result)
            return result

        return wrapper

    def install(self) -> None:
        modules = [m for name, m in sys.modules.items()
                   if name == "youngwalls" or name.startswith("youngwalls.")]
        for idx, name in enumerate(NAMES):
            layer, func = name.split(".")
            original = getattr(sys.modules[f"youngwalls.{layer}"], func)
            count = COUNTERS[name][1] if name in COUNTERS else None
            wrapper = self._wrap(idx, original, count)
            for module in modules:
                for attr in [a for a, v in vars(module).items() if v is original]:
                    self._saved.append((module, attr, original))
                    setattr(module, attr, wrapper)

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._saved):
            setattr(module, attr, original)
        self._saved.clear()

    def mark(self) -> tuple[int, list[int]]:
        """Where the next pass starts: span index and counter values."""
        return len(self.span_start), list(self.counters)

    def summarize(self, since: tuple[int, list[int]]) -> dict[str, float]:
        """Per-function calls, self time and counters of the spans since
        ``since``.  Self time is a span's duration minus the durations of
        its direct children, which nest inside it."""
        lo, counters_before = since
        hi = len(self.span_start)
        names, parents = self.span_name, self.span_parent
        starts, ends = self.span_start, self.span_end
        child = [0.0] * (hi - lo)
        for s in range(lo, hi):
            p = parents[s]
            if p >= lo:
                child[p - lo] += ends[s] - starts[s]
        calls = [0] * len(NAMES)
        self_s = [0.0] * len(NAMES)
        for s in range(lo, hi):
            calls[names[s]] += 1
            self_s[names[s]] += ends[s] - starts[s] - child[s - lo]
        out: dict[str, float] = {}
        for idx, name in enumerate(NAMES):
            out[f"{name}.calls"] = calls[idx]
            out[f"{name}.self_s"] = self_s[idx]
            if name in COUNTERS:
                out[f"{name}.{COUNTERS[name][0]}"] = (
                    self.counters[idx] - counters_before[idx])
        return out

    def write(self, path) -> None:
        """All spans, gzipped, as tab-separated rows: id, parent, name,
        start and end in seconds from the first span."""
        t0 = self.span_start[0] if len(self.span_start) else 0.0
        with gzip.open(path, "wt", compresslevel=1) as fh:
            fh.write("span\tparent\tname\tstart_s\tend_s\n")
            for s in range(len(self.span_start)):
                fh.write(f"{s}\t{self.span_parent[s]}\t{NAMES[self.span_name[s]]}\t"
                         f"{self.span_start[s] - t0:.9f}\t{self.span_end[s] - t0:.9f}\n")
