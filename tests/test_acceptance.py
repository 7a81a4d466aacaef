"""Acceptance suite: the nine headline checks, one test (and one
pass/fail line under -v) per criterion.

Each test either reproduces a worked example exactly or sweeps a finite
family and requires zero disagreements between independent engines.
"""

import itertools
import random
import time

from aqlam import GoodParityParameter, HalfInt, Segment
from aqlam.arrangements import enumerate_admissible
from aqlam.criterion import nonvanishing, nonvanishing_simplified
from aqlam.packets import arthur_vogan, compute_packet, multiplicity_report
from aqlam.padic import (
    padic_cond_C,
    padic_nonvanishing,
    padic_transition,
    project_EF,
    to_extended,
)
from aqlam.segments import intersection_size, relation
from aqlam.tableau import build_tableau, overlap, reduce_with_schedule, trapa_reduce
from aqlam.transition import ParamVector, phi, phi_adjacent
from aqlam.criterion import cond_C

from conftest import (
    box,
    parameter_family,
    random_entry_vector,
    random_parameter,
    sorted_reference,
)
from test_transition import all_geodesic_results

FIXTURE_A = [(12, 3), (10, 5), (7, 6)]
FIXTURE_B = [(12, 3), (8, 5), (7, 6)]


def sweep_family():
    """r <= 3, all beginnings <= 6 on either uniform grid, m_i <= 4."""
    begins = [HalfInt(t) for t in range(1, 13)]  # 1/2 .. 6
    return parameter_family(begins, 4, (1, 2, 3))


def test_1_first_worked_example_reproduced_exactly():
    start = time.monotonic()
    psi = GoodParityParameter.from_components(FIXTURE_A)
    p = (2, 2, 2)
    state = build_tableau(psi, ParamVector.reference(p))
    assert (overlap(state, 1), overlap(state, 2)) == (3, 4)
    assert nonvanishing(psi, p).nonzero
    reduction = trapa_reduce(psi, p)
    grid = tuple(tuple(int(x) for x in row) for row in reduction.antitableau)
    assert grid == ((7, 7, 6), (6, 6, 5), (5, 5, 4), (4, 3), (3,), (2,), (1,))
    assert tuple(length for length, _ in reduction.rows) == (3, 3, 3, 2, 1, 1, 1)
    assert tuple(sign for _, sign in reduction.rows) == ("+", "+", "-", "-", "-", "-", "-")
    assert time.monotonic() - start < 1.0


def test_2_vanishing_variant_detected_with_witness():
    start = time.monotonic()
    psi = GoodParityParameter.from_components(FIXTURE_B)
    p = (2, 2, 2)
    verdict = nonvanishing(psi, p)
    assert not verdict.nonzero
    reduction = trapa_reduce(psi, p)
    assert not reduction.nonzero
    assert (reduction.zero.values[-2], reduction.zero.values[-1]) == (4, 5)
    assert time.monotonic() - start < 1.0


def test_3_engine_equivalence_sweep():
    start = time.monotonic()
    checked = 0
    for psi in sweep_family():
        for p in box(psi):
            lhs = nonvanishing_simplified(psi, p).nonzero
            rhs = trapa_reduce(psi, p).nonzero
            assert lhs == rhs, (psi, p)
            checked += 1
    assert checked > 10_000
    assert time.monotonic() - start < 120.0


def test_4_two_segment_closed_form():
    # Oracle: with two segments, non-vanishing is the single inequality
    # min(p1, q2) + min(q1, p2) >= |nu_1 intersect nu_2|.
    segments = [
        Segment(HalfInt(t), HalfInt(t) - (m - 1))
        for t in range(2, 17)  # beginnings 1 .. 8 on either grid
        for m in range(1, 9)
    ]
    pairs = 0
    for one, two in itertools.combinations_with_replacement(segments, 2):
        if one.b.twice % 2 != two.b.twice % 2:
            continue  # mixed grids carry no parameter
        psi = GoodParityParameter(sorted_reference((one, two)))
        sing = intersection_size(psi.seg(1), psi.seg(2))
        m1, m2 = psi.m(1), psi.m(2)
        for p1 in range(m1 + 1):
            for p2 in range(m2 + 1):
                want = min(p1, m2 - p2) + min(m1 - p1, p2) >= sing
                assert nonvanishing(psi, (p1, p2)).nonzero == want
        pairs += 1
    assert pairs > 1000


def random_geodesic(psi, pv, tau, rng):
    rank = {v: i for i, v in enumerate(tau)}
    current = pv
    while True:
        sigma = current.sigma
        moves = [
            h for h in range(1, psi.r) if rank[sigma[h - 1]] > rank[sigma[h]]
        ]
        if not moves:
            return current
        current = phi_adjacent(psi, current, rng.choice(moves))


def test_5_transition_path_independence():
    rng = random.Random(501)
    done = 0
    while done < 200:
        r = rng.randint(2, 6)
        psi = random_parameter(rng, r, b_max=8, m_max=4)
        sigmas = enumerate_admissible(psi)
        if len(sigmas) < 2:
            continue
        pv = phi(psi, ParamVector.reference(random_entry_vector(rng, psi)),
                 rng.choice(sigmas))
        tau = rng.choice(sigmas)
        target = phi(psi, pv, tau)
        if r <= 4:
            results = all_geodesic_results(psi, pv, tau)
            assert {x.entries for x in results} == {target.entries}
        else:
            for _ in range(10):
                assert random_geodesic(psi, pv, tau, rng) == target
        done += 1


def merged_shape(state, h):
    left, right = state.columns[h - 1], state.columns[h]
    top = max(left.height, right.height) + 2
    return tuple(right.L_at(i) + left.L_at(i - 1) for i in range(top))


def test_6_adjacent_swap_preserves_invariants():
    rng = random.Random(601)
    done = 0
    while done < 500:
        psi = random_parameter(rng, rng.randint(2, 5), b_max=7, m_max=4)
        pv = ParamVector.reference(random_entry_vector(rng, psi))
        swappable = [
            h
            for h in range(1, psi.r)
            if relation(psi, pv.sigma[h - 1], pv.sigma[h]).is_containment
        ]
        if not swappable:
            continue
        h = rng.choice(swappable)
        related = phi_adjacent(psi, pv, h)
        if any(
            not 0 <= entry <= psi.m(comp)
            for entry, comp in zip(related.entries, related.sigma)
        ):
            # out of the box: no representation on the other side to compare
            assert not trapa_reduce(psi, related).nonzero
            assert not nonvanishing(psi, pv).nonzero
            continue
        red_one = trapa_reduce(psi, pv)
        red_two = trapa_reduce(psi, related)
        assert red_one.nonzero == red_two.nonzero
        if red_one.nonzero:
            # the diagrams are equivalent only where the representation
            # survives; on vanishing parameters only the verdicts must match
            one = build_tableau(psi, pv)
            two = build_tableau(psi, related)
            assert merged_shape(one, h) == merged_shape(two, h)
            assert one.rows == two.rows
            assert red_one.antitableau == red_two.antitableau
            assert red_one.rows == red_two.rows
        done += 1


def comparison_family():
    """Every parameter with r <= 3, m_i <= 3, ends in [0, 7/2] on either
    grid and the parity congruence satisfied: the comparison's domain."""
    out = []
    for r in (1, 2, 3):
        ends = [HalfInt(t) for t in range(0, 8)]
        pool = [
            Segment(e + (m - 1), e) for e in ends for m in range(1, 4)
        ]
        for combo in itertools.combinations_with_replacement(pool, r):
            try:
                out.append(
                    GoodParityParameter(
                        sorted_reference(combo), strict_parity=True
                    )
                )
            except Exception:
                continue
    return out


def test_7_padic_comparison_equivalence():
    family = comparison_family()
    assert len(family) > 400
    for psi in family:
        for p in box(psi):
            pv = ParamVector.reference(p)
            ems = to_extended(psi, pv)
            # commuting square over every admissible adjacent swap; the
            # projected square follows whenever the images stay in domain
            for h in range(1, psi.r):
                if not relation(psi, pv.sigma[h - 1], pv.sigma[h]).is_containment:
                    continue
                lhs = to_extended(psi, phi_adjacent(psi, pv, h))
                rhs = padic_transition(psi, ems, h)
                assert lhs == rhs, (psi, p, h)
                if all(li >= 0 for li in lhs.l):
                    assert project_EF(psi, lhs) == project_EF(psi, rhs)
            # adjacency condition equivalence on every adjacent pair
            for h in range(1, psi.r):
                i, j = pv.sigma[h - 1], pv.sigma[h]
                assert padic_cond_C(psi, ems, i, j) == cond_C(psi, pv, i, j)
            # verdict equivalence
            assert (
                padic_nonvanishing(psi, project_EF(psi, ems)).nonzero
                == nonvanishing(psi, pv).nonzero
            )
    # fiber audit: 2-1 for odd n, bijection for even n
    audited = 0
    for psi in family:
        report = arthur_vogan(psi)
        assert report.fibers_ok, psi
        want = 2 if psi.n % 2 else 1
        assert set(report.fiber_sizes.values()) <= {want}
        audited += 1
    assert audited == len(family)


def test_8_packets_are_multiplicity_free():
    for psi in sweep_family():
        for rank in range(psi.n + 1):
            ok, collisions = multiplicity_report(compute_packet(psi, rank))
            assert ok, (psi, rank, collisions)


def test_9_reduction_is_confluent():
    rng = random.Random(901)
    done = 0
    while done < 100:
        psi = random_parameter(rng, rng.randint(2, 5), b_max=7, m_max=4)
        p = random_entry_vector(rng, psi)
        baseline = trapa_reduce(psi, p)
        if not baseline.nonzero:
            continue
        for _ in range(5):
            again = reduce_with_schedule(psi, p, rng)
            assert again.nonzero
            assert again.antitableau == baseline.antitableau
            assert again.rows == baseline.rows
        done += 1
