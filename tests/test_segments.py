import dataclasses
import itertools
import random
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from aqlam import (
    GoodParityParameter,
    HalfInt,
    RangeLabel,
    Relation,
    Segment,
    intersection_size,
    lambda_values,
    neighbor_pairs,
    neighbors,
    range_classify,
    relation,
    segment_from_component,
)
from aqlam.arrangements import appropriate_arrangement, enumerate_admissible, lex_first_adjacent
from aqlam.criterion import CompiledCriterion
from aqlam.errors import InputError
from aqlam.segments import arrangement_is_admissible, relation_masks, relation_table
from aqlam.tableau import CompiledReduction
from aqlam.transition import ParamVector, phi

from conftest import (
    defined_relation,
    parameter_family,
    random_parameter,
    seg,
    sorted_reference,
)


def entries(s: Segment) -> set:
    return set(s.entries())


class TestSegment:
    def test_basic(self):
        s = seg(7, 3)
        assert s.b.twice == 14 and s.e.twice == 10
        assert s.m == 3 and s.a == 12
        assert [str(x) for x in s.entries()] == ["7", "6", "5"]

    def test_half_integer_grid(self):
        s = Segment(HalfInt(7), HalfInt(3))
        assert s.m == 3 and s.a == 5
        assert [str(x) for x in s.entries()] == ["7/2", "5/2", "3/2"]

    def test_rejects_increasing(self):
        with pytest.raises(InputError):
            Segment(HalfInt.of(2), HalfInt.of(5))

    def test_rejects_mixed_grid_endpoints(self):
        with pytest.raises(InputError):
            Segment(HalfInt(7), HalfInt.of(1))

    def test_from_component(self):
        # (a, m) = (12, 3) -> [7, 5]
        assert segment_from_component(12, 3) == seg(7, 3)
        assert segment_from_component(7, 6) == seg(6, 6)
        # odd a with even m lands on the half grid
        s = segment_from_component(5, 2)
        assert s.b == HalfInt.of(3) and s.e == HalfInt.of(2)

    def test_singleton(self):
        s = seg(0, 1)
        assert s.m == 1 and s.a == 0


class TestRelation:
    def test_precedes(self):
        psi = GoodParityParameter((seg(7, 5), seg(6, 6)))
        assert relation(psi, 1, 2) is Relation.PRECEDES
        assert relation(psi, 2, 1) is Relation.PRECEDED_BY

    def test_containment(self):
        psi = GoodParityParameter((seg(7, 3), seg(7, 5)))
        assert relation(psi, 1, 2) is Relation.CONTAINED
        assert relation(psi, 2, 1) is Relation.CONTAINS

    def test_equal_segments_tie_break(self):
        # duplicates: the earlier index is the container
        psi = GoodParityParameter((seg(4, 2), seg(4, 2)))
        assert relation(psi, 1, 2) is Relation.CONTAINS
        assert relation(psi, 2, 1) is Relation.CONTAINED

    def test_exhaustive_against_definition(self):
        for psi in parameter_family(range(1, 5), 3, (2,)):
            s, t = psi.seg(1), psi.seg(2)
            rel = relation(psi, 1, 2)
            if s.b.twice > t.b.twice and s.e.twice > t.e.twice:
                assert rel is Relation.PRECEDES
            elif t.b.twice > s.b.twice and t.e.twice > s.e.twice:
                assert rel is Relation.PRECEDED_BY
            else:
                # one segment contains the other
                assert rel.is_containment
                outer, inner = (s, t) if rel is Relation.CONTAINS else (t, s)
                assert entries(inner) <= entries(outer)


class TestIntersection:
    def test_fixture_values(self, psi_A, psi_B):
        assert intersection_size(psi_A.seg(1), psi_A.seg(2)) == 3
        assert intersection_size(psi_A.seg(2), psi_A.seg(3)) == 4
        assert intersection_size(psi_B.seg(2), psi_B.seg(3)) == 5

    def test_disjoint(self):
        assert intersection_size(seg(7, 2), seg(2, 2)) == 0

    def test_different_grids_are_an_input_error(self):
        with pytest.raises(InputError, match=r"segments \[3,2\] and \[5/2,3/2\] lie on different grids"):
            intersection_size(seg(3, 2), Segment(HalfInt(5), HalfInt(3)))

    def test_matches_set_intersection(self):
        grid = [seg(b, m) for b in range(1, 6) for m in range(1, 5)]
        for s, t in itertools.product(grid, repeat=2):
            assert intersection_size(s, t) == len(entries(s) & entries(t))


class TestParameter:
    def test_rejects_inadmissible_reference(self):
        # [6,6] is preceded by [7,5]; listing it first is inadmissible
        with pytest.raises(InputError):
            GoodParityParameter((seg(6, 6), seg(7, 5)))

    def test_rejects_mixed_grids(self):
        with pytest.raises(InputError, match="grid"):
            GoodParityParameter((seg(7, 3), seg(HalfInt(7), 2)))

    def test_strict_parity(self, psi_C):
        # n = 7 odd, integer beginnings: parity holds
        GoodParityParameter(psi_C.segments, strict_parity=True)
        # n = 14: the fixture-A data violates it
        with pytest.raises(InputError):
            GoodParityParameter.from_components(
                [(12, 3), (10, 5), (7, 6)], strict_parity=True
            )

    def test_n(self, psi_A):
        assert psi_A.n == 14
        assert psi_A.r == 3


@pytest.mark.parametrize(
    "value, field",
    [
        (HalfInt(7), "twice"),
        (seg(7, 3), "b"),
        (GoodParityParameter((seg(7, 3), seg(6, 2))), "segments"),
    ],
)
def test_value_types_are_slotted_and_frozen(value, field):
    """The value types keep no per-instance dict (every parameter and every
    segment end is one of them), and stay immutable."""
    assert not hasattr(value, "__dict__")
    with pytest.raises(dataclasses.FrozenInstanceError):
        setattr(value, field, getattr(value, field))
    # a new name is refused too; some CPython versions raise TypeError here,
    # from the frozen __setattr__'s super() call on the replaced class
    with pytest.raises((dataclasses.FrozenInstanceError, TypeError)):
        value.extra = 0


def test_neighbors(psi_A):
    assert neighbors(psi_A, 1, 2)  # containment pair, nothing between
    assert neighbors(psi_A, 2, 3)  # precedence pair
    # [7,5] > [6,1] with no chain through [7,3] (which [7,5] does not precede)
    assert neighbors(psi_A, 1, 3)


def test_neighbors_blocked():
    # 1 > 2 > 3 in a chain: (1,3) are not neighbors
    psi = GoodParityParameter((seg(8, 2), seg(6, 2), seg(4, 2)))
    assert neighbors(psi, 1, 2) and neighbors(psi, 2, 3)
    assert not neighbors(psi, 1, 3)


def defined_neighbor_pairs(psi):
    """Neighbor pairs straight from the definition: no k with i rel k rel j."""
    return [
        (i, j)
        for i, j in itertools.combinations(range(1, psi.r + 1), 2)
        if not any(
            defined_relation(psi, i, k) is defined_relation(psi, i, j)
            and defined_relation(psi, k, j) is defined_relation(psi, i, j)
            for k in range(1, psi.r + 1)
            if k not in (i, j)
        )
    ]


def assert_relations_match_the_ends(psi):
    """``relation`` and ``relation_table``, both read off the masks, against
    ``defined_relation`` on the segment ends, at every ordered pair."""
    table = relation_table(psi)
    for i, k in itertools.product(range(psi.r + 1), repeat=2):
        if i and k and i != k:
            assert relation(psi, i, k) is table[i][k] is defined_relation(psi, i, k), (psi, i, k)
        else:
            assert table[i][k] is None


def test_relation_table_and_neighbor_pairs_match_the_definitions():
    for psi in parameter_family(range(1, 5), 3, (2, 3, 4)):
        assert_relations_match_the_ends(psi)
        assert neighbor_pairs(relation_masks(psi)) == defined_neighbor_pairs(psi)


@settings(max_examples=200, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    r=st.integers(1, 16),
    copies=st.integers(0, 4),
    reorder=st.booleans(),
)
def test_relation_masks_hold_each_relation_once(seed, r, copies, reorder):
    """Each k != i sets its bit in exactly the mask of its relation to i on
    the segment ends, with exact duplicate segments forced in and, for
    r <= 7, the reference order replaced by a random admissible one."""
    rng = random.Random(seed)
    segments = list(random_parameter(rng, r).segments)
    for _ in range(copies):
        segments[rng.randrange(r)] = rng.choice(segments)
    psi = GoodParityParameter(sorted_reference(segments))
    if reorder and r <= 7:
        order = rng.choice(enumerate_admissible(psi))
        psi = GoodParityParameter(tuple(psi.seg(i) for i in order))
    masks = relation_masks(psi)
    everyone = (1 << r + 1) - 2  # bits 1..r
    for i in range(r + 1):
        rows = [rel_masks[i] for rel_masks in masks]
        if i == 0:
            assert rows == [0] * 4
            continue
        assert sum(rows) == everyone ^ 1 << i  # disjoint, and cover k != i
        for k in range(1, r + 1):
            if k != i:
                held = [rel for rel, row in zip(Relation, rows) if row >> k & 1]
                assert held == [defined_relation(psi, i, k)]
    for i, k in itertools.product(range(r + 1), repeat=2):
        assert masks.preceded_by[i] >> k & 1 == masks.precedes[k] >> i & 1
        assert masks.contained[i] >> k & 1 == masks.contains[k] >> i & 1
    defined = defined_neighbor_pairs(psi)
    assert neighbor_pairs(masks) == defined
    for i, j in itertools.permutations(range(1, r + 1), 2):
        assert neighbors(psi, i, j) == ((min(i, j), max(i, j)) in defined)
    assert_relations_match_the_ends(psi)


def test_the_parameter_builds_its_masks_once(monkeypatch):
    """No reader rebuilds the masks that the constructor keeps.  The r = 7
    parameter's canonical arrangement (1, 3, 2, 5, 4, 6, 7) is not its
    reference order, so the reduction transports the vector (``_forms``)."""
    ends = [(17, 15), (11, 9), (9, 9), (7, 5), (5, 5), (3, 3), (5, 3)]
    psi = GoodParityParameter(tuple(Segment(HalfInt(b), HalfInt(e)) for b, e in ends))
    twin = GoodParityParameter(tuple(psi.segments))
    assert twin == psi and repr(twin) == repr(psi) and hash(twin) == hash(psi)
    assert "masks" not in repr(psi)
    assert all(type(row) is tuple for row in psi.masks)
    assert psi.masks == relation_masks(psi)
    sigma = appropriate_arrangement(psi)
    assert sigma == (1, 3, 2, 5, 4, 6, 7)
    defined = defined_neighbor_pairs(psi)
    built = []

    def counted(psi):
        built.append(psi)
        return relation_masks(psi)

    for module in [m for name, m in sys.modules.items() if name.split(".")[0] == "aqlam"]:
        if hasattr(module, "relation_masks"):
            monkeypatch.setattr(module, "relation_masks", counted)
    p = (1, 1, 0, 1, 0, 0, 1)
    criterion = CompiledCriterion(psi)
    assert [(pair.i, pair.j) for pair in criterion.pairs] == defined
    assert lex_first_adjacent(psi, 2, 3) == (1, 2, 3, 4, 5, 6, 7)
    assert [neighbors(psi, i, i + 1) for i in range(1, 7)] == [
        (i, i + 1) in defined for i in range(1, 7)
    ]
    assert phi(psi, ParamVector.reference(p), sigma).sigma == sigma
    assert relation_table(psi)[1][2] is Relation.PRECEDES
    assert CompiledReduction(psi).reduce(p).nonzero == criterion.verdict(p).nonzero
    assert built == []


def test_neighbors_validates_its_indices(psi_A):
    for i, j in ((1, 1), (0, 2), (2, 4)):
        with pytest.raises(InputError):
            neighbors(psi_A, i, j)


def test_arrangement_is_admissible_matches_the_pairwise_definition():
    # every order of 80 random parameters with r = 1-5 (short segments, so
    # some are exact duplicates): admissible iff no position is preceded by
    # a later one
    rng = random.Random(9)
    for _ in range(80):
        psi = random_parameter(rng, rng.randint(1, 5), m_max=3)
        for images in itertools.permutations(range(1, psi.r + 1)):
            defined = not any(
                relation(psi, images[h], images[k]) is Relation.PRECEDED_BY
                for h, k in itertools.combinations(range(psi.r), 2)
            )
            assert arrangement_is_admissible(psi, images) == defined
        with pytest.raises(InputError, match="not a permutation"):
            arrangement_is_admissible(psi, (*images, 1))


def test_lambda_values(psi_A):
    assert lambda_values(psi_A) == (HalfInt(1), HalfInt(7), HalfInt(15))


def test_lambda_integral_under_strict_parity():
    for psi in parameter_family(range(1, 5), 3, (1, 2, 3), strict_parity=True):
        assert all(x.is_integer for x in lambda_values(psi))


class TestRangeClassify:
    def test_labels_are_cumulative(self, psi_A):
        order = {
            RangeLabel.GOOD: 0,
            RangeLabel.NICE: 1,
            RangeLabel.WEAKLY_FAIR: 2,
            RangeLabel.MEDIOCRE: 3,
        }
        for psi in parameter_family(range(1, 5), 3, (2, 3)):
            labels = range_classify(psi, tuple(range(1, psi.r + 1)))
            ranks = sorted(order[x] for x in labels)
            # every admissible arrangement is at least mediocre, and a
            # stronger label implies all weaker ones
            assert RangeLabel.MEDIOCRE in labels
            assert ranks == list(range(min(ranks), 4))

    @pytest.mark.parametrize("arrangement", [(1, 2), (1, 2, 2), (1, 2, 4)])
    def test_a_non_permutation_is_an_input_error(self, psi_A, arrangement):
        with pytest.raises(InputError, match="not a permutation of 1..3"):
            range_classify(psi_A, arrangement)

    def test_fixture(self, psi_A):
        labels = range_classify(psi_A, (1, 2, 3))
        assert RangeLabel.WEAKLY_FAIR in labels  # centers 12 >= 10 >= 7
        assert RangeLabel.NICE not in labels  # [7,5] does not precede [7,3]

    def test_good(self):
        # widely separated segments: e_h > b_{h+1} everywhere
        psi = GoodParityParameter((seg(9, 2), seg(5, 2), seg(1, 2)))
        assert range_classify(psi, (1, 2, 3)) == {
            RangeLabel.GOOD,
            RangeLabel.NICE,
            RangeLabel.WEAKLY_FAIR,
            RangeLabel.MEDIOCRE,
        }
