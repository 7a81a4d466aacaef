import hashlib
import itertools
import math
import random

import pytest

from aqlam import GoodParityParameter, Relation, arrangements
from aqlam.arrangements import (
    appropriate_arrangement,
    enumerate_admissible,
    lex_first_adjacent,
    sigma_pairs,
    transposition_path,
)
from aqlam.criterion import nonvanishing
from aqlam.errors import InputError, ResourceLimitError
from aqlam.segments import arrangement_is_admissible, relation, relation_masks
from aqlam.tableau import trapa_reduce

from conftest import parameter_family, random_entry_vector, random_parameter, seg


def perm_inversions(sigma):
    """The number of pairs h < k with sigma(h) > sigma(k)."""
    return sum(
        1
        for h in range(len(sigma))
        for k in range(h + 1, len(sigma))
        if sigma[h] > sigma[k]
    )


def brute_force_admissible(psi):
    """Oracle: filter all r! permutations by the definition."""
    out = []
    for images in itertools.permutations(range(1, psi.r + 1)):
        ok = all(
            relation(psi, images[h], images[k]) is not Relation.PRECEDED_BY
            for h in range(psi.r)
            for k in range(h + 1, psi.r)
        )
        if ok:
            out.append(images)
    return out


def test_fixture_sigma_r(psi_A):
    assert enumerate_admissible(psi_A) == [(1, 2, 3), (2, 1, 3)]


def test_enumeration_matches_brute_force():
    for psi in parameter_family(range(1, 5), 3, (2, 3)):
        assert enumerate_admissible(psi) == brute_force_admissible(psi)


def test_enumeration_matches_brute_force_r4():
    rng = random.Random(7)
    for _ in range(40):
        psi = random_parameter(rng, 4, b_max=6, m_max=4)
        assert enumerate_admissible(psi) == brute_force_admissible(psi)


def test_only_containment_pairs_may_flip():
    rng = random.Random(11)
    for _ in range(30):
        psi = random_parameter(rng, 4, b_max=6, m_max=4)
        for sigma in enumerate_admissible(psi):
            for i, j in itertools.combinations(range(1, psi.r + 1), 2):
                if relation(psi, i, j) is Relation.PRECEDES:
                    assert sigma.index(i) < sigma.index(j)


EIGHT_EQUAL = GoodParityParameter((seg(4, 3),) * 8)


def test_the_order_budget_counts_partial_arrangements_at_any_r(monkeypatch):
    # eight equal segments visit every one of their partial arrangements
    assert len(enumerate_admissible(EIGHT_EQUAL)) == math.factorial(8)
    with pytest.raises(ResourceLimitError, match="more than 109601 partial arrangements"):
        enumerate_admissible(GoodParityParameter((seg(4, 3),) * 9))
    # a precedence chain of sixteen has one order; the search visits every
    # increasing prefix of the chain, 2^16 partial arrangements
    chain = GoodParityParameter(tuple(seg(2 * k, 1) for k in range(16, 0, -1)))
    assert enumerate_admissible(chain) == [tuple(range(1, 17))]
    monkeypatch.setattr(arrangements, "MAX_ORDER_NODES", arrangements.MAX_ORDER_NODES - 1)
    with pytest.raises(ResourceLimitError):
        enumerate_admissible(EIGHT_EQUAL)


@pytest.mark.xfail(
    raises=ResourceLimitError,
    strict=True,
    reason="2^17 increasing prefixes pass the order budget; pruning is ROADMAP item 2",
)
def test_a_precedence_chain_of_seventeen_has_its_one_order():
    chain = GoodParityParameter(tuple(seg(2 * k, 1) for k in range(17, 0, -1)))
    assert enumerate_admissible(chain) == [tuple(range(1, 18))]


def order_inputs():
    """Parameters for the order records: ``parameter_family(range(1, 5), 3,
    (2, 3))``, five seeded draws per r = 2..8 on each grid with lengths up
    to 3, and eight equal segments."""
    yield from parameter_family(range(1, 5), 3, (2, 3))
    rng = random.Random(23)
    for r in range(2, 9):
        for half_grid in (False, True):
            for _ in range(5):
                yield random_parameter(rng, r, m_max=3, half_grid=half_grid)
    yield EIGHT_EQUAL


# sha256 of the newline-joined ``repr`` of ``enumerate_admissible(psi)`` over
# ``order_inputs()``, recorded while r past a fixed bound was refused (303
# parameters, 41,830 orders)
ORDERS_RECORD = "a9f275dd264c0f6c3536202013d8b8d9d740c3db563d40d0b42ab81678518df4"

# sha256 of the newline-joined ``repr`` of ``nonvanishing(psi, p)`` and
# ``trapa_reduce(psi, p)`` for two seeded reference tuples p per parameter
# of ``order_inputs()``, recorded at the same time (1,212 lines), and
# re-pinned when ``Reduction`` lost its ``state`` field: the lines of the
# earlier record, each reduction's trailing ``, state=...`` cut
VERDICTS_RECORD = "3d852a2f043977d97db3d6979f8edb5dee978fe53ca8f6d2b88a1af1608e970d"


def test_orders_match_their_record():
    orders = [enumerate_admissible(psi) for psi in order_inputs()]
    digest = hashlib.sha256("\n".join(map(repr, orders)).encode()).hexdigest()
    assert (len(orders), sum(map(len, orders)), digest) == (303, 41830, ORDERS_RECORD)


def test_full_verdicts_and_reductions_match_their_record():
    rng = random.Random(29)
    lines = []
    for psi in order_inputs():
        for _ in range(2):
            p = random_entry_vector(rng, psi)
            lines += [repr(nonvanishing(psi, p)), repr(trapa_reduce(psi, p))]
    digest = hashlib.sha256("\n".join(lines).encode()).hexdigest()
    assert (len(lines), digest) == (1212, VERDICTS_RECORD)


@pytest.mark.parametrize("call, message", [
    (lambda psi: sigma_pairs(psi, 2, 2), "sigma_pairs needs distinct indices, got (2, 2)"),
    (lambda psi: lex_first_adjacent(psi, 1, 4), "component index 4 out of range 1..3"),
    (lambda psi: transposition_path(psi, (1, 2, 3), (3, 2, 1)), "tau=(3, 2, 1) is not admissible"),
])
def test_bad_arguments_are_input_errors(psi_A, call, message):
    with pytest.raises(InputError) as info:
        call(psi_A)
    assert str(info.value) == message


def test_sigma_pairs(psi_A):
    # 1 and 3 are adjacent only after the containment swap
    assert sigma_pairs(psi_A, 1, 3) == [(2, 1, 3)]
    assert sigma_pairs(psi_A, 1, 2) == [(1, 2, 3), (2, 1, 3)]
    assert sigma_pairs(psi_A, 2, 3) == [(1, 2, 3)]


def test_sigma_pairs_empty_when_blocked():
    # 1 > 2 > 3: positions of 1 and 3 always differ by two
    psi = GoodParityParameter((seg(8, 2), seg(6, 2), seg(4, 2)))
    assert sigma_pairs(psi, 1, 3) == []


def test_lex_first_adjacent_is_the_first_sigma_pair():
    rng = random.Random(17)
    for _ in range(120):
        psi = random_parameter(rng, rng.randint(2, 5))
        for i, j in itertools.permutations(range(1, psi.r + 1), 2):
            pairs = sigma_pairs(psi, i, j)
            assert lex_first_adjacent(psi, i, j) == (pairs[0] if pairs else None)


def test_predecessor_masks():
    rng = random.Random(19)
    for _ in range(40):
        psi = random_parameter(rng, rng.randint(2, 8))
        masks = relation_masks(psi).preceded_by
        for c, k in itertools.permutations(range(1, psi.r + 1), 2):
            precedes = relation(psi, k, c) is Relation.PRECEDES
            assert bool(masks[c] >> k & 1) == precedes
            assert not precedes or k < c


def test_lex_first_adjacent_fixtures(psi_A):
    assert lex_first_adjacent(psi_A, 1, 3) == (2, 1, 3)
    assert lex_first_adjacent(psi_A, 3, 2) == (1, 2, 3)
    blocked = GoodParityParameter((seg(8, 2), seg(6, 2), seg(4, 2)))
    assert lex_first_adjacent(blocked, 1, 3) is None
    with pytest.raises(InputError):
        lex_first_adjacent(psi_A, 2, 2)


class TestTranspositionPath:
    def test_length_is_inversion_distance(self):
        rng = random.Random(3)
        for _ in range(50):
            psi = random_parameter(rng, rng.randint(2, 5), b_max=6, m_max=4)
            sigmas = enumerate_admissible(psi)
            sigma, tau = rng.choice(sigmas), rng.choice(sigmas)
            path = transposition_path(psi, sigma, tau)
            rank = {v: i for i, v in enumerate(tau)}
            relative = tuple(rank[v] + 1 for v in sigma)
            assert len(path) == perm_inversions(relative)

    def test_path_stays_admissible(self):
        rng = random.Random(4)
        for _ in range(50):
            psi = random_parameter(rng, rng.randint(2, 5), b_max=6, m_max=4)
            sigmas = enumerate_admissible(psi)
            sigma, tau = rng.choice(sigmas), rng.choice(sigmas)
            cur = list(sigma)
            for h in transposition_path(psi, sigma, tau):
                cur[h - 1], cur[h] = cur[h], cur[h - 1]
                assert arrangement_is_admissible(psi, tuple(cur))
            assert tuple(cur) == tau

    def test_identity(self, psi_A):
        assert transposition_path(psi_A, (1, 2, 3), (1, 2, 3)) == []

    def test_rejects_inadmissible_endpoint(self, psi_A):
        with pytest.raises(InputError):
            transposition_path(psi_A, (1, 2, 3), (3, 2, 1))


def test_appropriate_arrangement_properties():
    rng = random.Random(9)
    for _ in range(60):
        psi = random_parameter(rng, rng.randint(1, 5), b_max=6, m_max=4)
        sigma = appropriate_arrangement(psi)
        assert arrangement_is_admissible(psi, sigma)
        ordered = [psi.seg(i) for i in sigma]
        # every earlier segment precedes or is contained in every later one
        for h in range(len(ordered)):
            for k in range(h + 1, len(ordered)):
                i, j = sigma[h], sigma[k]
                rel = relation(psi, i, j)
                # equal segments order by index and count as containers
                if psi.seg(i) == psi.seg(j):
                    assert rel is Relation.CONTAINS
                else:
                    assert rel in (Relation.PRECEDES, Relation.CONTAINED)
        # ends weakly decrease along the arrangement
        assert all(
            ordered[h].e.twice >= ordered[h + 1].e.twice for h in range(len(ordered) - 1)
        )
