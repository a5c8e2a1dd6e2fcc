"""Spans around the calls the benchmark (and the CLI it drives) makes into
the library's public functions.

Spans are recorded from outside the library: the benchmark reaches each
module through a `TracedModule` proxy, and while a traced CLI command runs,
the module names in `pqsys.cli` are pointed at the same proxies.  Nothing in
the library itself changes.  Each span is (name, start, end, parent, task);
parent is the index of the enclosing span or -1.
"""

from __future__ import annotations

import contextlib
import os
import statistics
import time
from collections import defaultdict

# public functions wrapped per module; calls to anything else pass through
TRACED = {
    "opcore": ("operator_norm", "defect_data"),
    "sysmodel": ("classify", "is_minimal", "minimal_pqs_reduction", "controllable_subspace",
                 "observable_subspace", "is_controllable", "is_observable", "is_simple",
                 "is_strongly_stable"),
    "param": ("parametrize", "assemble"),
    "transfer": ("theta_eval", "theta_from_data", "char_func", "inner_test", "sqs_membership"),
    "realize": ("realize_from_data", "jacobi_realize", "unitary_similarity", "biinner_dilation",
                "inner_canonical_form", "spectral_measure"),
    "qfunc": ("q_eval", "q_theta_roundtrip"),
    "_json": ("dump", "load", "system_to_json", "system_from_json", "measure_to_json",
              "measure_from_json", "matrix_to_json", "jacobi_to_json", "sniff_document",
              "digest_files"),
}

# span and metric names must start with a letter or digit
LAYER_NAME = {"_json": "json"}


class TracedModule:
    """Attribute proxy for a module: the functions listed in TRACED come
    back wrapped in spans, everything else is the module's own object."""

    def __init__(self, tracer: "Tracer", module, short: str):
        layer = LAYER_NAME.get(short, short)
        self._wrapped = {name: tracer.wrap(f"{layer}.{name}", getattr(module, name))
                         for name in TRACED[short]}
        self._module = module

    def __getattr__(self, name):
        try:
            return self._wrapped[name]
        except KeyError:
            return getattr(self._module, name)


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.task = -1
        self.counts = defaultdict(float)
        self.dims = defaultdict(list)

    @contextlib.contextmanager
    def span(self, name: str):
        idx = len(self.spans)
        parent = self.stack[-1] if self.stack else -1
        self.spans.append([name, time.perf_counter(), None, parent, self.task])
        self.stack.append(idx)
        try:
            yield
        finally:
            self.stack.pop()
            self.spans[idx][2] = time.perf_counter()

    def wrap(self, name: str, fn):
        hook = _HOOKS.get(name)

        def traced(*args, **kwargs):
            with self.span(name):
                result = fn(*args, **kwargs)
            if hook is not None:
                hook(self, args, result)
            return result

        return traced

    def modules(self, modules: dict) -> dict:
        """Proxies for the traced modules among `modules` (short name ->
        module)."""
        return {short: TracedModule(self, mod, short) for short, mod in modules.items()}

    # -- reduction -----------------------------------------------------------

    def stats(self, tasks: int) -> dict:
        """Per-function call count and busy time per task, and the median
        call duration, keyed by span name."""
        durations = defaultdict(list)
        for name, start, end, _parent, _task in self.spans:
            durations[name].append(end - start)
        out = {}
        for name, ds in durations.items():
            out[name] = {
                "calls": len(ds) / tasks,
                "busy_s": sum(ds) / tasks,
                "p50_ms": 1e3 * statistics.median(ds),
            }
        return out

    def self_times(self) -> dict:
        """Total self time per span name: duration minus the time covered by
        direct child spans (children never overlap, one thread records)."""
        child = defaultdict(float)
        for name, start, end, parent, _task in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out = defaultdict(float)
        for idx, (name, start, end, _parent, _task) in enumerate(self.spans):
            out[name] += (end - start) - child[idx]
        return dict(out)

    def records(self) -> list:
        return [{"name": n, "start": s, "end": e, "parent": p, "task": t}
                for n, s, e, p, t in self.spans]


# hooks read positional arguments: every traced caller (the CLI and the
# workloads) passes these ones positionally

def _bytes_written(tracer, args, result):
    tracer.counts["json.bytes_written"] += os.path.getsize(args[1])


def _bytes_read(tracer, args, result):
    tracer.counts["json.bytes_read"] += os.path.getsize(args[0])


def _inner_points(tracer, args, result):
    tracer.counts["transfer.inner_test.points"] += args[1]


def _dim(key, attr):
    def hook(tracer, args, result):
        tracer.dims[key].append(getattr(result, attr))
    return hook


_HOOKS = {
    "json.dump": _bytes_written,
    "json.load": _bytes_read,
    "transfer.inner_test": _inner_points,
    "sysmodel.controllable_subspace": _dim("sysmodel.controllable_subspace.dim", "dim"),
    "realize.realize_from_data": _dim("realize.realize_from_data.state_dim", "state_dim"),
    "realize.jacobi_realize": _dim("realize.jacobi_realize.length", "length"),
}
