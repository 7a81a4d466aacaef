"""The benchmark's workloads: seeded input generators, the op each input
drives, and the check applied to every op's output.

Each workload yields items from its own ``random.Random`` seeded with the
workload name and the run seed, so one seed always gives the same inputs.
Parameters never repeat within a run (warm-up, reference and timed items
share one ``seen`` set), so a cache keyed on the parameter can speed up work
within a request but cannot turn a timed op into a lookup.

The library is reached only through the ``lib`` namespace built by
``run.load_library``; tests substitute a fake one.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
import sys
from dataclasses import dataclass
from itertools import count
from typing import Any, Callable, Iterator

# r = 5, n = 21, box 3360: the parameter whose ``av`` the project tracks.
R5_PARAMETER = ((14, 3), (12, 5), (11, 4), (9, 6), (6, 3))
# The first worked example; at p = (2, 2, 2) it reduces to this antitableau.
FIXTURE_A = ((12, 3), (10, 5), (7, 6))
FIXTURE_A_P = [2, 2, 2]
FIXTURE_A_ANTITABLEAU = [
    ["7", "7", "6"], ["6", "6", "5"], ["5", "5", "4"], ["4", "3"], ["3"], ["2"], ["1"],
]
FIXTURE_A_ROWS = [
    [3, "+"], [3, "+"], [3, "-"], [2, "-"], [1, "-"], [1, "-"], [1, "-"],
]
R5_SURVIVORS = 186


class CheckFailed(Exception):
    """An op returned, but its output is wrong."""


@dataclass
class Workload:
    """One workload: how to make its inputs, run an op, and check it.

    ``call`` is the timed part of an op; ``check`` runs after the clock
    stops, raises ``CheckFailed`` on a wrong output and returns the number
    of entry vectors the op decided.
    """

    name: str
    make_stream: Callable[..., Iterator[Any]]
    call: Callable[[Any, Any], Any]
    check: Callable[[Any, Any, Any], int]
    setup_batch: int  # items generated during set-up
    warmup_ops: int
    trace_ops_per_s: float  # traced op count = seconds * this
    # Percentile reported as op_tail_ms: the highest whose value stays
    # within the bound from seed to seed; the context line records how many
    # ops lie beyond it.
    tail_pct: float
    output_bytes: Callable[[Any], int] = lambda output: 0  # cli.output_bytes


# --- parameter generation ---------------------------------------------------


def _random_segments(lib, rng: random.Random, r: int, b_max: int, m_max: int,
                     half_grid: bool, accept_lengths: Callable[[list[int]], bool]) -> list:
    """r segments as in the test suite's ``random_parameter``: length
    1..m_max, beginning m..b_max, on one grid, so ends are >= 1/2; lengths
    are redrawn until ``accept_lengths`` takes them."""
    HalfInt, Segment = lib.halfint.HalfInt, lib.segments.Segment
    while True:
        lengths = [rng.randint(1, m_max) for _ in range(r)]
        if accept_lengths(lengths):
            break
    segments = []
    for m in lengths:
        b = HalfInt(2 * rng.randint(m, b_max) + (1 if half_grid else 0))
        segments.append(Segment(b, b - (m - 1)))
    # ends descending, then beginnings ascending: an admissible reference
    # order, and the one the tableau engine uses
    return sorted(segments, key=lambda s: (-s.e.twice, s.b.twice))


# Beginnings up to 12 instead of the test suite's 8: fewer deeply nested
# parameters, whose many admissible orders (and, for the simplified
# criterion, fallback placements) would let a few ops take a large share of
# a run and make one seed's figures unlike another's.
B_MAX = 12


def _segments_key(segments) -> int:
    """A parameter's entry in ``seen``: a hash, so the set stays small
    however many ops a run makes (a collision only skips a fresh draw)."""
    return hash(tuple((s.b.twice, s.e.twice) for s in segments))


def _parity_holds(segments) -> bool:
    n = sum(s.m for s in segments)
    return all((s.a + s.m - n) % 2 == 0 for s in segments)


def _fresh_parameter(lib, rng: random.Random, seen: set, r: int, half_grid: bool,
                     *, m_max: int = 5, strict_parity: bool = False,
                     accept_lengths: Callable[[list[int]], bool] = lambda lengths: True):
    """A parameter not in ``seen``.  Every 50 draws that only repeat an
    earlier parameter widen the beginning range by one, so a small r never
    runs out of new parameters."""
    repeats = 0
    while True:
        segments = _random_segments(lib, rng, r, B_MAX + repeats // 50, m_max,
                                    half_grid, accept_lengths)
        if strict_parity and not _parity_holds(segments):
            continue
        key = _segments_key(segments)
        if key in seen:
            repeats += 1
            continue
        seen.add(key)
        return lib.segments.GoodParityParameter(tuple(segments), strict_parity)


def _random_vectors(rng: random.Random, psi, k: int) -> list[tuple[int, ...]]:
    """k distinct entry vectors in psi's box (fewer if the box is smaller)."""
    out: list[tuple[int, ...]] = []
    while len(out) < min(k, _box_size(s.m for s in psi.segments)):
        p = tuple(rng.randint(0, s.m) for s in psi.segments)
        if p not in out:
            out.append(p)
    return out


def _box_size(lengths) -> int:
    box = 1
    for m in lengths:
        box *= m + 1
    return box


# --- av-dense ----------------------------------------------------------------

AV_M_MAX = 4
# Entry vectors per random parameter, by r, inclusive: a vector costs more
# at larger r, so these windows give ops of every r about the same length,
# and narrow windows keep one run's latencies comparable with another's.
# The named r=5 parameter adds one op of 3360 vectors.
AV_BOX = {4: (260, 400), 5: (120, 180), 6: (64, 144)}
AV_R = tuple(AV_BOX)


@dataclass(frozen=True)
class AvItem:
    label: str
    doc: str  # the JSON document the CLI reads
    vectors: int  # prod(m_i + 1), from the input
    r5: bool = False
    fixture_a: bool = False


def _av_item(label: str, psi, **flags) -> AvItem:
    components = [{"a": s.a, "m": s.m} for s in psi.segments]
    return AvItem(label, json.dumps({"components": components}),
                  _box_size(s.m for s in psi.segments), **flags)


def av_stream(lib, seed: int, label: str, seen: set) -> Iterator[AvItem]:
    """The two named parameters first (timed stream only), then random
    parameters with r cycling through 4, 5, 6 and the grid alternating."""
    rng = random.Random(f"av-dense:{label}:{seed}")
    named = [
        (flag, lib.segments.GoodParityParameter.from_components(comps))
        for comps, flag in ((R5_PARAMETER, "r5"), (FIXTURE_A, "fixture_a"))
    ]
    seen.update(_segments_key(psi.segments) for _, psi in named)
    if label == "timed":
        for flag, psi in named:
            yield _av_item(flag, psi, **{flag: True})
    for k in count():
        psi = _fresh_parameter(
            lib, rng, seen, AV_R[k % len(AV_R)], k % 2 == 1, m_max=AV_M_MAX,
            accept_lengths=lambda ms: AV_BOX[len(ms)][0] <= _box_size(ms) <= AV_BOX[len(ms)][1],
        )
        yield _av_item(f"{label}-{k}", psi)


def av_call(lib, item: AvItem) -> tuple[int, str]:
    """``aqlam av -`` in-process: the document on stdin, stdout captured."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), _stdin(item.doc):
        code = lib.cli.run(["av", "-"])
    return code, out.getvalue()


@contextlib.contextmanager
def _stdin(text: str):
    saved = sys.stdin
    sys.stdin = io.StringIO(text)
    try:
        yield
    finally:
        sys.stdin = saved


def av_check(lib, item: AvItem, output: tuple[int, str]) -> int:
    code, text = output
    if code != 0:
        raise CheckFailed(f"{item.label}: exit code {code}")
    payload = json.loads(text)
    packets = payload["packets"]
    if payload["total"] != sum(len(entries) for entries in packets.values()):
        raise CheckFailed(f"{item.label}: total disagrees with the packets")
    if payload.get("fibers_ok") is not True:
        raise CheckFailed(f"{item.label}: fiber audit failed or missing")
    for rank, entries in packets.items():
        keys = {json.dumps([e["antitableau"], e["rows"]]) for e in entries}
        if len(keys) != len(entries):
            raise CheckFailed(f"{item.label}: rank {rank} is not multiplicity-free")
        if any(sum(e["p"]) != int(rank) for e in entries):
            raise CheckFailed(f"{item.label}: rank {rank} holds a vector of another rank")
    if item.r5 and payload["total"] != R5_SURVIVORS:
        raise CheckFailed(f"r5: {payload['total']} survivors, want {R5_SURVIVORS}")
    if item.fixture_a:
        rank = str(sum(FIXTURE_A_P))
        entry = next((e for e in packets.get(rank, []) if e["p"] == FIXTURE_A_P), None)
        if entry is None or (entry["antitableau"], entry["rows"]) != (
            FIXTURE_A_ANTITABLEAU, FIXTURE_A_ROWS
        ):
            raise CheckFailed("fixture A: wrong antitableau at p = (2, 2, 2)")
    return item.vectors


# --- verdict-sparse ----------------------------------------------------------

SPARSE_R = tuple(range(2, 17))


def sparse_stream(lib, seed: int, label: str, seen: set) -> Iterator[tuple]:
    """r cycling through 2..16, the grid alternating (15 is odd, so every
    (r, grid) pair comes up), 1-3 distinct vectors per parameter."""
    rng = random.Random(f"verdict-sparse:{label}:{seed}")
    for k in count():
        psi = _fresh_parameter(lib, rng, seen, SPARSE_R[k % len(SPARSE_R)], k % 2 == 1)
        for p in _random_vectors(rng, psi, rng.randint(1, 3)):
            yield psi, p


def sparse_call(lib, item) -> tuple[bool, bool]:
    psi, p = item
    criterion = lib.criterion.nonvanishing_simplified(psi, p).nonzero
    tableau = lib.tableau.trapa_reduce(psi, p).nonzero
    return criterion, tableau


def sparse_check(lib, item, output) -> int:
    criterion, tableau = output
    if criterion != tableau:
        raise CheckFailed(f"engines disagree on {item[0]} p={item[1]}")
    return 1


# --- padic-full --------------------------------------------------------------

PADIC_R = tuple(range(2, 9))


def padic_stream(lib, seed: int, label: str, seen: set) -> Iterator[tuple]:
    """The comparison domain: ends >= 0 (the generator's ends are >= 1/2)
    and strict parity; r cycling through 2..8, the grid alternating."""
    rng = random.Random(f"padic-full:{label}:{seed}")
    for k in count():
        psi = _fresh_parameter(
            lib, rng, seen, PADIC_R[k % len(PADIC_R)], k % 2 == 1, strict_parity=True
        )
        yield psi, _random_vectors(rng, psi, 1)[0]


def padic_call(lib, item) -> tuple[bool, bool]:
    psi, p = item
    full = lib.criterion.nonvanishing(psi, p).nonzero
    image = lib.padic.project_EF(psi, lib.padic.to_extended(psi, p))
    padic = lib.padic.padic_nonvanishing(psi, image).nonzero
    return full, padic


def padic_check(lib, item, output) -> int:
    full, padic = output
    if full != padic:
        raise CheckFailed(f"real and p-adic verdicts disagree on {item[0]} p={item[1]}")
    return 1


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="av-dense",
            make_stream=av_stream,
            call=av_call,
            check=av_check,
            setup_batch=200,
            warmup_ops=2,
            trace_ops_per_s=2.0,
            tail_pct=90.0,
            output_bytes=lambda output: len(output[1].encode()),
        ),
        Workload(
            name="verdict-sparse",
            make_stream=sparse_stream,
            call=sparse_call,
            check=sparse_check,
            setup_batch=2000,
            warmup_ops=300,
            trace_ops_per_s=120.0,
            tail_pct=95.0,
        ),
        Workload(
            name="padic-full",
            make_stream=padic_stream,
            call=padic_call,
            check=padic_check,
            setup_batch=400,
            warmup_ops=40,
            trace_ops_per_s=25.0,
            tail_pct=95.0,
        ),
    )
}
