"""Per-layer tracing from outside the library.

While a ``Tracer`` is active, every public function defined in an ``aqlam``
layer module is replaced, in every ``aqlam`` namespace that holds it, by a
wrapper that counts calls and times them; ``HalfInt`` construction and
comparison are counted only.  Leaving the ``with`` block restores the
originals.  A layer's self time is the time inside its wrapped functions
minus the time in their wrapped children.  Spans (name, start, end, parent,
op id) are kept only for the functions in ``SPAN_FUNCTIONS``: the requests
down to the per-vector engines, not the hot helpers below them.
"""

from __future__ import annotations

import inspect
import sys
import time
from typing import Any

LAYERS = (
    "cli", "packets", "criterion", "segments", "arrangements",
    "transition", "tableau", "padic", "halfint",
)
SPAN_FUNCTIONS = frozenset({
    "cli.run",
    "packets.arthur_vogan",
    "packets.compute_packet",
    "criterion.nonvanishing",
    "criterion.nonvanishing_simplified",
    "tableau.trapa_reduce",
    "padic.to_extended",
    "padic.project_EF",
    "padic.padic_nonvanishing",
})
HALFINT_CONSTRUCT = ("__init__",)
HALFINT_COMPARE = ("__eq__", "__lt__", "__le__", "__gt__", "__ge__")

# Per-layer metric -> the end-to-end metric and workload it should move.
# ``run.py`` reports the metrics in this order.
LAYER_METRICS: dict[str, tuple[str, str]] = {
    "cli.run.calls": ("count", "op_p50_ms on av-dense"),
    "cli.self_s": ("s", "op_p50_ms on av-dense"),
    "cli.output_bytes": ("bytes", "op_p50_ms on av-dense"),
    "packets.compute_packet.calls": ("count", "vectors_per_s on av-dense"),
    "packets.self_s": ("s", "vectors_per_s on av-dense"),
    "packets.vectors_scanned": ("count", "vectors_per_s on av-dense"),
    "packets.survivor_ratio": ("ratio", "vectors_per_s on av-dense"),
    "criterion.nonvanishing_simplified.calls": ("count", "vectors_per_s on av-dense; cost on verdict-sparse"),
    "criterion.nonvanishing_simplified.total_s": ("s", "vectors_per_s on av-dense; cost on verdict-sparse"),
    "criterion.nonvanishing.calls": ("count", "vectors_per_s on padic-full"),
    "criterion.nonvanishing.total_s": ("s", "vectors_per_s on padic-full"),
    "criterion.self_s": ("s", "vectors_per_s on av-dense; cost on verdict-sparse"),
    "segments.relation.calls": ("count", "vectors_per_s on av-dense"),
    "segments.neighbors.calls": ("count", "vectors_per_s on av-dense"),
    "segments.arrangement_is_admissible.calls": ("count", "vectors_per_s on av-dense"),
    "segments.self_s": ("s", "vectors_per_s on av-dense"),
    "arrangements.enumerate_admissible.calls": ("count", "vectors_per_s on padic-full"),
    "arrangements.sigmas_enumerated": ("count", "vectors_per_s on padic-full"),
    "arrangements.sigma_pairs.calls": ("count", "op_tail_ms and ok_frac on verdict-sparse"),
    "arrangements.transposition_path.calls": ("count", "vectors_per_s on padic-full"),
    "arrangements.self_s": ("s", "vectors_per_s on padic-full; op_tail_ms on verdict-sparse"),
    "transition.phi.calls": ("count", "vectors_per_s on padic-full and av-dense"),
    "transition.phi_adjacent.calls": ("count", "vectors_per_s on padic-full and av-dense"),
    "transition.self_s": ("s", "vectors_per_s on padic-full and av-dense"),
    "tableau.trapa_reduce.calls": ("count", "vectors_per_s on verdict-sparse"),
    "tableau.trapa_reduce.total_s": ("s", "vectors_per_s on verdict-sparse"),
    "tableau.trapa_op.calls": ("count", "vectors_per_s on verdict-sparse"),
    "tableau.build_tableau.calls": ("count", "vectors_per_s on verdict-sparse"),
    "tableau.self_s": ("s", "vectors_per_s on verdict-sparse"),
    "padic.padic_nonvanishing.calls": ("count", "vectors_per_s on padic-full"),
    "padic.padic_nonvanishing.total_s": ("s", "vectors_per_s on padic-full"),
    "padic.padic_transition.calls": ("count", "vectors_per_s on padic-full"),
    "padic.transition_useful_ratio": ("ratio", "vectors_per_s on padic-full"),
    "padic.to_extended.calls": ("count", "vectors_per_s on padic-full"),
    "padic.self_s": ("s", "vectors_per_s on padic-full"),
    "halfint.constructed": ("count", "all workloads, most on av-dense"),
    "halfint.compares": ("count", "all workloads, most on av-dense"),
    "trace_overhead_frac": ("ratio", "none: cost of tracing itself"),
}


class _Stat:
    __slots__ = ("calls", "total", "nested", "results")

    def __init__(self) -> None:
        self.calls = 0
        self.total = 0.0
        self.nested = 0  # calls made directly from the same function
        self.results = 0  # summed len() of the return values, where counted


# Functions whose return value's length is a per-layer count.
_COUNT_RESULTS = frozenset({
    "arrangements.enumerate_admissible",  # sigmas enumerated
    "packets.enumerate_params",  # vectors scanned
    "packets.compute_packet",  # survivors
})


class Tracer:
    """Context manager that instruments the ``aqlam`` modules in ``sys.modules``."""

    def __init__(self) -> None:
        self.stats: dict[str, _Stat] = {}
        self.self_time = {layer: 0.0 for layer in LAYERS}
        self.halfint = {"constructed": 0, "compares": 0}
        self.spans: list[list[Any]] = []  # [name, start, end, parent, op]
        self.absent: list[str] = []
        self.output_bytes = 0
        self._patches: list[tuple[Any, str, Any]] = []
        # the call stack of wrapped functions: [key, child time, span index]
        self._stack: list[list[Any]] = [[None, 0.0, None]]
        self._op: int | None = None

    # -- ops ------------------------------------------------------------

    def begin_op(self, op_id: int) -> None:
        self._op = op_id
        root = self._stack[0]
        root[2] = len(self.spans)
        self.spans.append(["op", time.perf_counter(), None, None, op_id])

    def end_op(self) -> None:
        root = self._stack[0]
        self.spans[root[2]][2] = time.perf_counter()
        root[1] = 0.0
        root[2] = None

    # -- patching ---------------------------------------------------------

    def __enter__(self) -> "Tracer":
        namespaces = [
            module for name, module in sorted(sys.modules.items())
            if name == "aqlam" or name.startswith("aqlam.")
        ]
        wrappers: dict[int, Any] = {}
        for layer in LAYERS:
            module = sys.modules.get(f"aqlam.{layer}")
            if module is None:
                self.absent.append(layer)
                continue
            if layer == "halfint":
                self._patch_halfint(module)
                continue
            for name, fn in vars(module).items():
                if (name.startswith("_") or not inspect.isfunction(fn)
                        or fn.__module__ != module.__name__):
                    continue
                wrappers[id(fn)] = self._wrap(layer, f"{layer}.{name}", fn)
        for module in namespaces:
            for name, value in list(vars(module).items()):
                wrapper = wrappers.get(id(value))
                if wrapper is not None:
                    self._patches.append((module, name, value))
                    setattr(module, name, wrapper)
        return self

    def __exit__(self, *exc: object) -> None:
        for target, name, original in reversed(self._patches):
            setattr(target, name, original)
        self._patches.clear()

    def _patch_halfint(self, module) -> None:
        cls = getattr(module, "HalfInt", None)
        if cls is None:
            self.absent.append("halfint.HalfInt")
            return
        for names, counter in ((HALFINT_CONSTRUCT, "constructed"),
                               (HALFINT_COMPARE, "compares")):
            for name in names:
                original = cls.__dict__.get(name)
                if original is None:
                    continue
                self._patches.append((cls, name, original))
                setattr(cls, name, self._counter(counter, original))

    def _counter(self, counter: str, fn):
        counts = self.halfint

        def counted(*args, **kwargs):
            counts[counter] += 1
            return fn(*args, **kwargs)

        return counted

    def _wrap(self, layer: str, key: str, fn):
        stat = self.stats.setdefault(key, _Stat())
        stack = self._stack
        self_time = self.self_time
        spans = self.spans
        tracer = self
        is_span = key in SPAN_FUNCTIONS
        count_result = key in _COUNT_RESULTS
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            parent = stack[-1]
            frame = [key, 0.0, parent[2]]
            if is_span:
                frame[2] = len(spans)
                spans.append([key, None, None, parent[2], tracer._op])
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                stack.pop()
                stat.calls += 1
                stat.total += elapsed
                if parent[0] == key:
                    stat.nested += 1
                self_time[layer] += elapsed - frame[1]
                parent[1] += elapsed
                if is_span:
                    span = spans[frame[2]]
                    span[1], span[2] = start, start + elapsed
            if count_result:
                stat.results += len(result)
            return result

        wrapper.__wrapped__ = fn
        wrapper.__name__ = fn.__name__
        return wrapper

    # -- results ----------------------------------------------------------

    def metrics(self) -> dict[str, float]:
        """Every per-layer metric except ``trace_overhead_frac``.

        A function missing from the library reads as 0 calls and is listed
        in ``absent`` (see ``report_absent``)."""

        def stat(key: str) -> _Stat:
            found = self.stats.get(key)
            if found is None:
                if key not in self.absent:
                    self.absent.append(key)
                return _Stat()
            return found

        def ratio(num: float, den: float) -> float:
            return num / den if den else 0.0

        transitions = stat("padic.padic_transition")
        out: dict[str, float] = {}
        for name in LAYER_METRICS:
            if name == "trace_overhead_frac":
                continue
            layer, _, rest = name.partition(".")
            if rest == "self_s":
                out[name] = self.self_time[layer]
            elif rest.endswith(".calls"):
                out[name] = stat(name[: -len(".calls")]).calls
            elif rest.endswith(".total_s"):
                out[name] = stat(name[: -len(".total_s")]).total
            elif name == "cli.output_bytes":
                out[name] = self.output_bytes
            elif name == "packets.vectors_scanned":
                out[name] = stat("packets.enumerate_params").results
            elif name == "packets.survivor_ratio":
                out[name] = ratio(stat("packets.compute_packet").results,
                                  stat("packets.enumerate_params").results)
            elif name == "arrangements.sigmas_enumerated":
                out[name] = stat("arrangements.enumerate_admissible").results
            elif name == "padic.transition_useful_ratio":
                out[name] = ratio(transitions.calls - transitions.nested,
                                  transitions.calls)
            elif name.startswith("halfint."):
                out[name] = self.halfint[rest]
            else:  # pragma: no cover - every LAYER_METRICS name is handled
                raise KeyError(name)
        return out
