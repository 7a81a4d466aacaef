"""Tests of the benchmark itself: run with ``python -m pytest bench/tests``."""

from __future__ import annotations

import json
import math
import sys
import types
from itertools import islice

import pytest

import run
from tracing import LAYER_METRICS, Tracer
from workloads import WORKLOADS, CheckFailed


@pytest.fixture(scope="module")
def lib():
    return run.load_library()


def _describe(item):
    """A comparable rendering of one generated input."""
    if isinstance(item, tuple):
        psi, p = item
        return tuple((s.b.twice, s.e.twice) for s in psi.segments), p
    return item


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_generator_is_deterministic_and_never_repeats(lib, name):
    workload = WORKLOADS[name]

    def take(seed):
        return [_describe(x) for x in islice(workload.make_stream(lib, seed, "timed", set()), 60)]

    assert take(3) == take(3)
    assert take(3) != take(4)
    params = [x[0] if isinstance(x, tuple) else x.doc for x in take(3)]
    distinct = list(dict.fromkeys(params))  # a parameter's vectors come together
    assert [p for i, p in enumerate(params) if i == 0 or p != params[i - 1]] == distinct


def _function_table():
    table = {}
    for name, module in list(sys.modules.items()):
        if name == "aqlam" or name.startswith("aqlam."):
            for attr, value in vars(module).items():
                if callable(value):
                    table[(name, attr)] = value
    halfint = sys.modules["aqlam.halfint"].HalfInt
    for attr, value in vars(halfint).items():
        table[("HalfInt", attr)] = value
    return table


def test_tracing_leaves_the_library_unpatched(lib):
    workload = WORKLOADS["padic-full"]
    items = list(islice(workload.make_stream(lib, 1, "timed", set()), 20))
    before = _function_table()
    with Tracer() as tracer:
        assert lib.criterion.nonvanishing is not before[("aqlam.criterion", "nonvanishing")]
        phase = run.run_ops(workload, lib, items, math.inf, tracer)
    assert _function_table() == before
    assert phase.attempted == 20 and phase.wrong == phase.refused == 0
    metrics = tracer.metrics()
    assert set(metrics) == set(LAYER_METRICS) - {"trace_overhead_frac"}
    assert metrics["criterion.nonvanishing.calls"] == 20
    assert metrics["padic.padic_nonvanishing.calls"] == 20
    assert metrics["halfint.compares"] > 0
    assert not tracer.absent
    assert {span[0] for span in tracer.spans} >= {"op", "criterion.nonvanishing"}


def test_a_removed_function_reads_as_absent(lib, monkeypatch):
    monkeypatch.delattr(sys.modules["aqlam.arrangements"], "sigma_pairs")
    with Tracer() as tracer:
        pass
    assert tracer.metrics()["arrangements.sigma_pairs.calls"] == 0
    assert "arrangements.sigma_pairs" in tracer.absent


def test_an_injected_wrong_verdict_counts_as_failed(lib):
    workload = WORKLOADS["verdict-sparse"]
    items = list(islice(workload.make_stream(lib, 1, "timed", set()), 30))

    def wrong_reduce(psi, p):
        return types.SimpleNamespace(nonzero=not lib.tableau.trapa_reduce(psi, p).nonzero)

    fake = types.SimpleNamespace(**vars(lib))
    fake.tableau = types.SimpleNamespace(trapa_reduce=wrong_reduce)
    phase = run.run_ops(workload, fake, items, math.inf)
    assert phase.attempted == 30
    assert phase.wrong + phase.refused == 30
    assert phase.errors.get("CheckFailed", 0) == phase.wrong > 0
    assert not phase.latencies


def test_a_refusal_is_counted_apart_from_wrong_outputs(lib):
    workload = WORKLOADS["padic-full"]
    items = list(islice(workload.make_stream(lib, 1, "timed", set()), 5))

    def refuse(psi, p):
        raise lib.errors.ResourceLimitError("too large")

    fake = types.SimpleNamespace(**vars(lib))
    fake.criterion = types.SimpleNamespace(nonvanishing=refuse)
    phase = run.run_ops(workload, fake, items, math.inf)
    assert (phase.refused, phase.wrong) == (5, 0)
    assert phase.errors == {"ResourceLimitError": 5}


def test_av_check_knows_the_named_answers(lib):
    workload = WORKLOADS["av-dense"]
    _, fixture_a = islice(workload.make_stream(lib, 1, "timed", set()), 2)
    code, text = workload.call(lib, fixture_a)
    assert workload.check(lib, fixture_a, (code, text)) == fixture_a.vectors == 4 * 6 * 7
    payload = json.loads(text)
    entry = next(e for e in payload["packets"]["6"] if e["p"] == [2, 2, 2])
    entry["rows"][0][1] = "-"
    with pytest.raises(CheckFailed):
        workload.check(lib, fixture_a, (code, json.dumps(payload)))


def test_the_runs_print_what_benchmark_json_lists(lib):
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    _, metrics, _ = run.end_to_end(WORKLOADS["padic-full"], 1, 0.2)
    assert {name: unit for name, (_, unit) in metrics.items()} == {
        m["name"]: m["unit"] for m in spec["end_to_end"]
    }
    assert {name: unit for name, (unit, _) in LAYER_METRICS.items()} == {
        m["name"]: m["unit"] for m in spec["per_layer"]
    }
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
