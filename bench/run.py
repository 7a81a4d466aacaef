"""Benchmark for the aqlam library.

    python3 bench/run.py --workload av-dense --seed 1 --seconds 30 --trace 0

Run from the repository root; the library is imported from ``src/`` next to
this directory, never from an installed copy.  One process, one client in a
closed loop: the next op starts only when the previous one has returned, and
nothing runs concurrently.  Each op's output is checked after its clock
stops; a wrong output or an exception counts as failed and the run goes on.
A ``ResourceLimitError`` is the library declining a job past its documented
limits: it is not a failed op, but it lowers ``ok_frac``, the share of ops
that returned a checked answer, and the context line counts it as refused.

With ``--trace 0`` the ops run for ``--seconds`` of op time and the last
stdout line carries the end-to-end metrics.  With ``--trace 1`` a fixed
number of ops (``--seconds`` times the workload's trace rate) runs once
untraced and, on distinct inputs from the same generator, once traced; the
last line carries the per-layer metrics and ``trace_overhead_frac``.  The
line before it is the run's context: interpreter, cores, seed, op counts,
the unscaled times and what the benchmark cannot control.  Traced runs also
write their spans to ``bench/out/``.

Times are scaled to a nominal machine speed (see ``probe``): on a shared
machine the speed drifts by tens of percent within minutes, and a fixed
probe interleaved with the ops measures that drift.

Exit codes: 0 done (failed ops are reported, not fatal), 2 the library or
the arguments are missing or wrong.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import math
import os
import platform
import resource
import statistics
import sys
import time
import types
from array import array
from collections import Counter
from itertools import chain, islice
from pathlib import Path

from tracing import LAYER_METRICS, LAYERS, Tracer
from workloads import WORKLOADS, CheckFailed

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
SETUP_REPEATS = 7
# A fixed pure-Python probe runs every PROBE_EVERY_S of op time, and every
# reported time is scaled to a machine on which the probe takes
# PROBE_NOMINAL_S.
PROBE_EVERY_S = 0.1
PROBE_NOMINAL_S = 1e-3
_PROBE_DATA = [(i * 7919) % 1009 for i in range(400)]
UNCONTROLLED = (
    "no CPU pinning",
    "no page-cache dropping",
    "no system-wide tracing",
    "other tenants may share the machine",
)


def load_library() -> types.SimpleNamespace:
    """Import ``aqlam`` afresh from ``src/`` and return its layer modules."""
    for name in [n for n in sys.modules if n == "aqlam" or n.startswith("aqlam.")]:
        del sys.modules[name]
    importlib.invalidate_caches()
    package = importlib.import_module("aqlam")
    if Path(package.__file__).resolve().parent != SRC / "aqlam":
        raise ImportError(f"aqlam imported from {package.__file__}, not {SRC}")
    modules = {}
    for layer in LAYERS + ("errors",):
        try:
            modules[layer] = importlib.import_module(f"aqlam.{layer}")
        except ModuleNotFoundError:
            modules[layer] = None
    return types.SimpleNamespace(**modules)


def probe() -> float:
    """Seconds taken by a fixed task that does not touch the library:
    dict updates, tuple sorting and a generator, as the library's code does."""
    start = time.perf_counter()
    for _ in range(6):
        counts: dict[int, int] = {}
        for x in _PROBE_DATA:
            counts[x % 61] = counts.get(x % 61, 0) + 1
        pairs = sorted(zip(_PROBE_DATA, _PROBE_DATA[1:]), key=lambda t: (t[1], t[0]))
        sum(b - a if a < b else a - b for a, b in pairs)
    return time.perf_counter() - start


def speed_factors(probes: list[float]) -> list[float]:
    """Per probe window, nominal over measured probe time, each measurement
    the median of the window's probe and its two neighbours."""
    out = []
    for k in range(len(probes)):
        near = probes[max(0, k - 1): k + 2]
        out.append(PROBE_NOMINAL_S / statistics.median(near))
    return out


class Phase:
    """Outcome of running a sequence of ops."""

    def __init__(self) -> None:
        # arrays, not lists, so memory hardly grows with the number of ops
        self.latencies = array("d")  # ops that passed their check
        self.windows = array("l")  # probe window of each latency
        self.probes: list[float] = []
        self.window_busy: list[float] = []  # op time per probe window
        self.busy = 0.0  # summed op time, failed ops included
        self.vectors = 0
        self.attempted = 0
        self.wrong = 0  # failed: check failed, or an unexpected exception
        self.refused = 0  # ResourceLimitError: the library declined the job
        self.errors: Counter[str] = Counter()  # wrong and refused ops by exception type

    def scaled(self) -> tuple[float, list[float]]:
        """Op time and passed-op latencies at the nominal machine speed."""
        factors = speed_factors(self.probes)
        busy = sum(t * f for t, f in zip(self.window_busy, factors))
        return busy, sorted(t * factors[w] for t, w in zip(self.latencies, self.windows))


def run_ops(workload, lib, items, seconds: float, tracer: Tracer | None = None,
            op_base: int = 0) -> Phase:
    """Closed loop over ``items`` until ``seconds`` of op time have passed."""
    phase = Phase()
    refusal = getattr(lib.errors, "ResourceLimitError", ())
    clock = time.perf_counter
    for op_id, item in enumerate(items, start=op_base):
        if phase.busy >= seconds:
            break
        if phase.busy >= PROBE_EVERY_S * len(phase.probes):
            phase.probes.append(probe())
            phase.window_busy.append(0.0)
        if tracer is not None:
            tracer.begin_op(op_id)
        output = error = None
        start = clock()
        try:
            output = workload.call(lib, item)
        except Exception as exc:  # noqa: BLE001 - any crash is a failed op
            error = exc
        elapsed = clock() - start
        if tracer is not None:
            tracer.end_op()
        phase.busy += elapsed
        phase.window_busy[-1] += elapsed
        phase.attempted += 1
        if error is None:
            try:
                phase.vectors += workload.check(lib, item, output)
            except CheckFailed as exc:
                error = exc
            else:
                phase.latencies.append(elapsed)
                phase.windows.append(len(phase.probes) - 1)
                if tracer is not None:
                    tracer.output_bytes += workload.output_bytes(output)
        if error is not None:
            phase.errors[type(error).__name__] += 1
            if isinstance(error, refusal):
                phase.refused += 1
            else:
                phase.wrong += 1
    return phase


def set_up(workload, seed: int):
    """Import the library and generate inputs; returns (seconds, probe
    seconds around it, state)."""
    gc.collect()  # drop the previous repeat's modules and inputs
    before = probe()
    start = time.perf_counter()
    lib = load_library()
    seen: set = set()
    warmup = list(islice(workload.make_stream(lib, seed, "warmup", seen), workload.warmup_ops))
    stream = workload.make_stream(lib, seed, "timed", seen)
    batch = list(islice(stream, workload.setup_batch))
    elapsed = time.perf_counter() - start
    return elapsed, (before + probe()) / 2, (lib, seen, warmup, chain(batch, stream))


def percentile(sorted_values: list[float], pct: float) -> float:
    """Nearest-rank percentile of an ascending list."""
    rank = max(1, math.ceil(pct / 100 * len(sorted_values)))
    return sorted_values[rank - 1]


def end_to_end(workload, seed: int, seconds: float) -> tuple[list[Phase], dict, dict]:
    setup_raw, setup_scaled = [], []
    for _ in range(SETUP_REPEATS):
        elapsed, probe_s, state = set_up(workload, seed)
        setup_raw.append(elapsed)
        setup_scaled.append(elapsed * PROBE_NOMINAL_S / probe_s)
    lib, _, warmup, timed = state
    run_ops(workload, lib, warmup, math.inf)
    phase = run_ops(workload, lib, timed, seconds)
    if not phase.latencies:
        raise RuntimeError("no op passed its check; nothing to report")
    busy, lat = phase.scaled()
    tail = percentile(lat, workload.tail_pct)
    metrics = {
        "vectors_per_s": (phase.vectors / busy, "1/s"),
        "op_p50_ms": (1e3 * statistics.median(lat), "ms"),
        "op_tail_ms": (1e3 * tail, "ms"),
        "ok_frac": (1 - (phase.wrong + phase.refused) / phase.attempted, "ratio"),
        "setup_s": (statistics.median(setup_scaled), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }
    raw_lat = sorted(phase.latencies)
    context = {
        "setup_repeats": SETUP_REPEATS,
        "warmup_ops": len(warmup),
        "tail_percentile": workload.tail_pct,
        "ops_beyond_tail": sum(1 for x in lat if x > tail),
        "ops_timed_ok": len(lat),
        "probe_nominal_s": PROBE_NOMINAL_S,
        "probe_median_s": statistics.median(phase.probes),
        "probes": len(phase.probes),
        "unscaled": {
            "vectors_per_s": phase.vectors / phase.busy,
            "op_p50_ms": 1e3 * statistics.median(raw_lat),
            "op_tail_ms": 1e3 * percentile(raw_lat, workload.tail_pct),
            "setup_s": statistics.median(setup_raw),
        },
    }
    return [phase], metrics, context


def traced(workload, seed: int, seconds: float) -> tuple[list[Phase], dict, dict]:
    _, _, (lib, seen, warmup, timed) = set_up(workload, seed)
    n_ops = max(1, round(seconds * workload.trace_ops_per_s))
    traced_items = list(islice(timed, n_ops))
    reference_items = list(islice(workload.make_stream(lib, seed, "reference", seen), n_ops))
    run_ops(workload, lib, warmup, math.inf)
    # each phase stops early past its cap, so a much slower library still
    # finishes; the context then shows fewer ops than planned
    reference = run_ops(workload, lib, reference_items, seconds)
    with Tracer() as tracer:
        phase = run_ops(workload, lib, traced_items, 2 * seconds, tracer, op_base=n_ops)
    metrics = {
        name: (value, LAYER_METRICS[name][0]) for name, value in tracer.metrics().items()
    }
    # vectors per op time, untraced over traced; 0 when no traced op passed
    rates = [p.vectors / p.scaled()[0] for p in (reference, phase)]
    metrics["trace_overhead_frac"] = (rates[0] / rates[1] - 1 if rates[1] else 0.0, "ratio")
    spans_file = BENCH / "out" / f"spans-{workload.name}-seed{seed}.json"
    spans_file.parent.mkdir(exist_ok=True)
    spans_file.write_text(json.dumps({
        "fields": ["name", "start_s", "end_s", "parent", "op"],
        "spans": tracer.spans,
    }))
    context = {
        "ops_planned": n_ops,
        "ops_reference": reference.attempted,
        "ops_traced": phase.attempted,
        "absent": tracer.absent,
        "spans": len(tracer.spans),
        "spans_file": str(spans_file.relative_to(ROOT)),
    }
    return [reference, phase], metrics, context


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "aqlam" / "__init__.py").is_file():
        print(f"error: no aqlam sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    workload = WORKLOADS[args.workload]
    measure = traced if args.trace else end_to_end
    phases, metrics, extra = measure(workload, args.seed, args.seconds)
    context = {
        "workload": workload.name,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "nproc": len(os.sched_getaffinity(0)),
        "load": "one process, one client, closed loop",
        "uncontrolled": UNCONTROLLED,
        "refused": sum(phase.refused for phase in phases),
        "wrong": sum(phase.wrong for phase in phases),
        "errors": sum((phase.errors for phase in phases), Counter()),
        **extra,
    }
    print(json.dumps({"context": context}))
    print(json.dumps({
        "correct": all(phase.wrong == 0 for phase in phases),
        "attempted": sum(phase.attempted for phase in phases),
        "failed": sum(phase.wrong for phase in phases),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
