"""Packet enumeration, survivors, invariants, and the fiber audit."""

import itertools
import json
import random

import pytest

from aqlam import GoodParityParameter, criterion, packets
from aqlam.criterion import CompiledCriterion, lattice_points
from aqlam.errors import InputError, InvariantViolationError, ResourceLimitError
from aqlam.packets import (
    arthur_vogan,
    compute_packet,
    count_params,
    multiplicity_report,
    packet_entries,
)
from aqlam.tableau import CompiledReduction

from conftest import parameter_family, random_parameter, seg


def box_points(psi, rank):
    """The box vectors of psi summing to rank, lexicographic."""
    return list(lattice_points(tuple(s.m for s in psi.segments), rank))


class TestEnumerate:
    def test_fixture_A_rank_6(self, psi_A):
        vectors = box_points(psi_A, 6)
        assert len(vectors) == 21
        assert vectors == sorted(vectors)
        assert all(sum(p) == 6 for p in vectors)
        assert all(
            0 <= p[i] <= psi_A.m(i + 1) for p in vectors for i in range(3)
        )

    def test_extreme_ranks(self, psi_A):
        assert box_points(psi_A, 0) == [(0, 0, 0)]
        assert box_points(psi_A, psi_A.n) == [(3, 5, 6)]

    def test_rank_out_of_range(self, psi_A):
        with pytest.raises(InputError):
            box_points(psi_A, psi_A.n + 1)
        with pytest.raises(InputError):
            box_points(psi_A, -1)

    def test_counts_partition_the_box(self, psi_A):
        total = sum(
            len(box_points(psi_A, rank)) for rank in range(psi_A.n + 1)
        )
        box_size = 1
        for i in range(1, psi_A.r + 1):
            box_size *= psi_A.m(i) + 1
        assert total == box_size

    def test_equals_filtering_the_whole_box(self):
        rng = random.Random(61)
        for _ in range(40):
            psi = random_parameter(rng, rng.randint(1, 4), m_max=4)
            whole = list(
                itertools.product(*(range(psi.m(i) + 1) for i in range(1, psi.r + 1)))
            )
            for rank in range(psi.n + 1):
                assert box_points(psi, rank) == [
                    p for p in whole if sum(p) == rank
                ]


    def test_count_is_the_length_of_the_list(self):
        rng = random.Random(63)
        for _ in range(30):
            psi = random_parameter(rng, rng.randint(1, 5), m_max=4)
            for rank in range(psi.n + 1):
                assert count_params(psi, rank) == len(box_points(psi, rank))
        with pytest.raises(InputError):
            count_params(psi, psi.n + 1)
        # large m at a small rank, one segment and two
        one = GoodParityParameter.from_components([(12, 60_000)])
        two = GoodParityParameter.from_components([(12, 60_000), (10, 45_000)])
        for psi, rank in ((one, 1), (one, 59_999), (two, 2), (two, 30_000)):
            assert count_params(psi, rank) == len(box_points(psi, rank))


def loosen_pair(monkeypatch, i, j):
    """Drop condition C of the pair (i, j) from every compiled criterion, at
    the per-pair builder that both ``verdict`` and the search read."""
    compile_pair = CompiledCriterion._pair

    def pair(self, *ij):
        built = compile_pair(self, *ij)
        return built._replace(sing=0) if ij == (i, j) else built

    monkeypatch.setattr(CompiledCriterion, "_pair", pair)


class TestSearchChecks:
    def test_a_survivor_the_tableau_zeroes_is_an_invariant_violation(
        self, psi_B, monkeypatch
    ):
        # (2, 2, 2) vanishes by condition C on the pair (2, 3) alone
        loosen_pair(monkeypatch, 2, 3)
        assert CompiledCriterion(psi_B).verdict((2, 2, 2)).nonzero
        with pytest.raises(InvariantViolationError, match="zeroes"):
            arthur_vogan(psi_B)
        with pytest.raises(InvariantViolationError, match="disagree"):
            arthur_vogan(psi_B, verify=True)
        with pytest.raises(InvariantViolationError):
            compute_packet(psi_B, 6)

    def test_verify_checks_the_search_against_the_scan(self, psi_A, monkeypatch):
        search = CompiledCriterion.survivors
        monkeypatch.setattr(
            CompiledCriterion, "survivors", lambda self, rank=None: list(search(self, rank))[1:]
        )
        assert len(compute_packet(psi_A, 6)) == 8
        with pytest.raises(InvariantViolationError, match="search and the scan"):
            compute_packet(psi_A, 6, verify=True)

    def test_node_budget_refuses_before_describing(self, psi_D, monkeypatch):
        low = compute_packet(psi_D, 2)
        monkeypatch.setattr(criterion, "MAX_DFS_NODES", 20)
        with pytest.raises(ResourceLimitError):
            arthur_vogan(psi_D)
        # rank 2 of the box (2, 3, 2) has few nodes, and one survivor; the
        # scan of its 15 nodes fits too, though one of the whole box would not
        assert compute_packet(psi_D, 2) == low and len(low) == 1
        assert compute_packet(psi_D, 2, verify=True) == low

    def test_a_rank_with_no_survivor_builds_nothing_per_entry_value(self, psi_A, monkeypatch):
        def refuse(*args):
            raise AssertionError("built for a rank with no survivor")

        monkeypatch.setattr(packets, "image_table", refuse)
        monkeypatch.setattr(CompiledReduction, "cells", refuse)
        for verify in (False, True):
            assert list(packet_entries(psi_A, 3, verify)) == []
        with pytest.raises(AssertionError, match="no survivor"):
            next(packet_entries(psi_A, 6))


class TestComputePacket:
    def test_fixture_A_survivors(self, psi_A):
        packet = [json.loads(text) for text in compute_packet(psi_A, 6, verify=True)]
        assert len(packet) == 9
        entry = next(e for e in packet if e["p"] == [2, 2, 2])
        assert entry["levi"] == [[2, 1], [2, 3], [2, 4]]
        grid = [[int(x) for x in row] for row in entry["antitableau"]]
        assert grid == [[7, 7, 6], [6, 6, 5], [5, 5, 4], [4, 3], [3], [2], [1]]
        assert entry["rows"] == [
            [3, "+"], [3, "+"], [3, "-"], [2, "-"], [1, "-"], [1, "-"], [1, "-"],
        ]

    def test_fixture_B_excludes_the_vanishing_vector(self, psi_B):
        packet = compute_packet(psi_B, 6, verify=True)
        assert all(json.loads(text)["p"] != [2, 2, 2] for text in packet)

    def test_single_component_closed_form(self):
        psi = GoodParityParameter((seg(5, 4),))
        for rank in range(psi.n + 1):
            packet = compute_packet(psi, rank)
            # one segment: every vector in the box survives
            assert len(packet) == (1 if rank <= psi.m(1) else 0)


class TestMultiplicity:
    def test_no_collisions_on_small_family(self):
        for psi in parameter_family(range(1, 5), 3, (1, 2, 3)):
            for rank in range(psi.n + 1):
                ok, collisions = multiplicity_report(compute_packet(psi, rank))
                assert ok, (psi, rank, collisions)

    def test_empty_and_singleton(self, psi_A):
        assert multiplicity_report([]) == (True, [])
        packet = compute_packet(psi_A, 0)
        assert multiplicity_report(packet) == (True, [])
        # another p, written in another key order, with the same invariant pair
        entry = compute_packet(psi_A, 6)[0]
        twin = json.dumps({**json.loads(entry), "p": [9, 9, 9]})
        assert multiplicity_report([entry, twin]) == (False, [(entry, twin)])


class TestArthurVogan:
    def test_total_partitions_survivors(self, psi_A):
        report = arthur_vogan(psi_A)
        assert report.total == sum(len(v) for v in report.packets.values())
        assert set(report.packets) == set(range(psi_A.n + 1))

    def test_odd_n_fibers_are_pairs(self, psi_D):
        report = arthur_vogan(psi_D, verify=True)
        assert report.fibers_ok
        assert set(report.fiber_sizes.values()) == {2}
        assert report.total == 2 * len(report.fiber_sizes)

    def test_even_n_images_distinct(self, psi_C):
        report = arthur_vogan(psi_C, verify=True)
        assert report.fibers_ok
        assert set(report.fiber_sizes.values()) == {1}

    def test_every_rank_equals_compute_packet(self, psi_A, psi_C, psi_D):
        rng = random.Random(62)
        params = [psi_A, psi_C, psi_D, GoodParityParameter((seg(1, 3),))]
        params += [random_parameter(rng, rng.randint(1, 4), m_max=3) for _ in range(8)]
        for psi in params:
            report = arthur_vogan(psi)
            for rank in range(psi.n + 1):
                assert report.packets[rank] == compute_packet(psi, rank), (psi, rank)

    def test_out_of_domain_skips_audit(self):
        # a segment with negative end: packets still computed, no audit
        psi = GoodParityParameter((seg(1, 3),))
        report = arthur_vogan(psi)
        assert report.fiber_sizes is None and report.fibers_ok is None
        assert report.total >= 1
