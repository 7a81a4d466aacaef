"""Shared fixtures and small-instance generators.

The three named fixtures here are the worked examples used throughout the
suite; the family builders enumerate every parameter in a window, deduplicated
by translation (every quantity the engines compute depends only on relative
segment positions, so shifting all segments by a constant cannot change any
verdict).
"""

from __future__ import annotations

import itertools
import random

import pytest

from aqlam import GoodParityParameter, HalfInt, Segment
from aqlam.arrangements import appropriate_arrangement
from aqlam.segments import Relation, relation


def seg(b, m: int) -> Segment:
    """Segment with beginning b and length m."""
    top = HalfInt.of(b)
    return Segment(top, top - (m - 1))


@pytest.fixture
def psi_A() -> GoodParityParameter:
    # {[7,5],[7,3],[6,1]}: m = (3,5,6), centers (12,10,7)
    return GoodParityParameter.from_components([(12, 3), (10, 5), (7, 6)])


@pytest.fixture
def psi_B() -> GoodParityParameter:
    # the vanishing variant of psi_A: second segment [6,2]
    return GoodParityParameter.from_components([(12, 3), (8, 5), (7, 6)])


@pytest.fixture
def psi_C() -> GoodParityParameter:
    # {[7/2,5/2],[7/2,5/2],[5/2,3/2]}: m = (2,2,2), n = 6 even; the equal
    # pair makes the swap at h = 1 admissible
    return GoodParityParameter(
        (seg(HalfInt(7), 2), seg(HalfInt(7), 2), seg(HalfInt(5), 2))
    )


@pytest.fixture
def psi_D() -> GoodParityParameter:
    # {[3,2],[3,1],[2,1]}: m = (2,3,2), n = 7 odd, all ends >= 0
    return GoodParityParameter.from_components([(5, 2), (4, 3), (3, 2)])


def shift_key(segments) -> tuple:
    """Translation-invariant fingerprint of a segment tuple."""
    base = min(s.e.twice for s in segments)
    return tuple((s.b.twice - base, s.m) for s in segments)


def sorted_reference(segments) -> tuple:
    """Order segments so the reference arrangement is always admissible
    (ends descending, then beginnings ascending)."""
    return tuple(sorted(segments, key=lambda s: (-s.e.twice, s.b.twice)))


def parameter_family(
    begins,
    m_max: int,
    r_values,
    *,
    strict_parity: bool = False,
    dedup: bool = True,
):
    """All parameters whose segments have beginnings in `begins` and length
    at most m_max, one representative per translation class."""
    segments = [seg(b, m) for b in begins for m in range(1, m_max + 1)]
    seen = set()
    out = []
    for r in r_values:
        for combo in itertools.combinations_with_replacement(segments, r):
            order = sorted_reference(combo)
            if dedup:
                key = shift_key(order)
                if key in seen:
                    continue
                seen.add(key)
            try:
                out.append(GoodParityParameter(order, strict_parity))
            except Exception:
                if dedup:
                    seen.discard(key)
    return out


def defined_relation(psi: GoodParityParameter, i: int, k: int) -> Relation:
    """The relation of component i to component k != i straight from the
    doubled ends: i precedes k when both of its ends are higher, and
    otherwise one contains the other, an exact duplicate counting as the
    earlier one containing the later."""
    (sb, se), (tb, te) = ((s.b.twice, s.e.twice) for s in (psi.seg(i), psi.seg(k)))
    if sb > tb and se > te:
        return Relation.PRECEDES
    if sb < tb and se < te:
        return Relation.PRECEDED_BY
    if (sb, se) == (tb, te):
        return Relation.CONTAINS if i < k else Relation.CONTAINED
    return Relation.CONTAINS if sb >= tb and se <= te else Relation.CONTAINED


def box(psi: GoodParityParameter):
    """Every entry vector 0 <= p_i <= m_i."""
    return itertools.product(*(range(psi.m(i) + 1) for i in range(1, psi.r + 1)))


def random_parameter(rng: random.Random, r: int, *, b_max: int = 8,
                     m_max: int = 5, half_grid=None) -> GoodParityParameter:
    if half_grid is None:
        half_grid = rng.random() < 0.5
    segments = []
    for _ in range(r):
        m = rng.randint(1, m_max)
        b = HalfInt(2 * rng.randint(m, b_max) + (1 if half_grid else 0))
        segments.append(Segment(b, b - (m - 1)))
    psi = GoodParityParameter(sorted_reference(segments))
    # normalize so the reference order is the appropriate one
    assert appropriate_arrangement(psi) == tuple(range(1, r + 1))
    return psi


def random_entry_vector(rng: random.Random, psi: GoodParityParameter):
    return tuple(rng.randint(0, psi.m(i)) for i in range(1, psi.r + 1))


def swap_by_cases(psi, entries, sigma, h):
    """The swap of positions (h, h+1), 1-based, as the paper states it, case
    by case, with q = m - p at each position: container first gives
    (q_{h+1}, p_h + p_{h+1} - q_{h+1}), contained first
    (p_h + p_{h+1} - q_h, q_h)."""
    i, j = sigma[h - 1], sigma[h]
    p_h, p_h1 = entries[h - 1], entries[h]
    q_h, q_h1 = psi.m(i) - p_h, psi.m(j) - p_h1
    if relation(psi, i, j) is Relation.CONTAINS:
        new = (q_h1, p_h + p_h1 - q_h1)
    else:
        new = (p_h + p_h1 - q_h, q_h)
    return entries[: h - 1] + new + entries[h + 1 :], sigma[: h - 1] + (j, i) + sigma[h + 1 :]
